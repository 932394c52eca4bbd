#!/usr/bin/env python3
"""Verify that docs/*.md and README.md only reference things that exist.

Two kinds of references are checked:

  * path-like tokens (``src/trajectory/batch.h``, ``docs/math.md``,
    ``tests/trajectory/batch_test.cpp``, ``bench/bench_batch.cpp``,
    ``build/bench/bench_batch``) must resolve to a file in the tree
    (``build/...`` paths are mapped back to their sources);
  * C++ symbol tokens (``trajectory::reanalyze_with``,
    ``Engine::run_fixed_point``, ``EngineStats::test_points``) — the
    final identifier, together with its qualifier, must appear somewhere
    under src/ or tests/.

Additionally, every file under docs/ must be *reachable*: referenced (as
an inline-code path or Markdown link) from README.md or from another doc.
An orphaned doc is one nobody can discover from the entry points.

Finally, the wire-protocol reference and the implementation are
cross-checked in both directions: every operation named in
docs/service.md's operation table must exist in the `Op::k...` switch of
src/service/protocol.cpp, and every implemented operation must have a
table row — a new op cannot ship undocumented, and the docs cannot
describe an op that was renamed or removed.  docs/testing.md's invariant
table is held to the registry in src/proptest/invariants.cpp the same
way.

Usage: check_docs.py [repo_root]   (exits non-zero listing every broken
reference; wired into ctest as `docs_check`).
"""

import re
import sys
from pathlib import Path

CODE_DIRS = ("src", "tests", "bench", "examples", "tools")
DOC_FILES = ("README.md", "docs")

# `inline code` spans are where docs make checkable claims.
INLINE_CODE = re.compile(r"`([^`\n]+)`")
PATH_TOKEN = re.compile(
    r"^(?:src|tests|bench|examples|tools|docs|build)/[\w./\-]+$")
SYMBOL_TOKEN = re.compile(r"^[A-Za-z_]\w*(?:::[A-Za-z_~]\w*)+(?:\(\))?$")
# Markdown links: [text](target)
MD_LINK = re.compile(r"\]\(([^)#\s]+)\)")
# Plain-prose doc mentions ("see docs/math.md") count for reachability.
DOC_MENTION = re.compile(r"\bdocs/[\w\-]+\.md\b")

# Qualified names whose left part is a namespace alias the docs use
# informally; the right part is still required to exist.
IGNORED_QUALIFIERS = {"std", "tfa"}


def list_doc_files(root: Path):
    yield root / "README.md"
    yield from sorted((root / "docs").glob("*.md"))


def load_code(root: Path) -> str:
    chunks = []
    for d in CODE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in {".h", ".cpp", ".py", ".txt", ".cmake"}:
                chunks.append(p.read_text(errors="replace"))
    return "\n".join(chunks)


def resolve_path(root: Path, token: str) -> bool:
    token = token.rstrip("/.,;:")
    if (root / token).exists():
        return True
    if token.startswith("build/"):
        # Build artefacts: map bench/test/example binaries to sources.
        stem = Path(token).name
        for d in ("bench", "examples", "tests", "tools"):
            if (root / d / f"{stem}.cpp").exists():
                return True
        # Directories like build/examples/ refer to the build tree.
        return token.rstrip("/") in {"build", "build/bench", "build/examples"}
    return False


def check_symbol(code: str, token: str):
    """Return None if ok, else a short explanation."""
    token = token.rstrip("().")
    parts = token.split("::")
    if parts[0] in IGNORED_QUALIFIERS:
        parts = parts[1:]
    if len(parts) == 1:
        return None  # bare identifier after alias stripping: not checkable
    leaf = parts[-1]
    qualifier = parts[-2]
    if re.search(re.escape(leaf) + r"\b", code) is None:
        return f"identifier '{leaf}' not found in the tree"
    # The qualifier must exist too (class, namespace, or struct name).
    if re.search(re.escape(qualifier) + r"\b", code) is None:
        return f"qualifier '{qualifier}' not found in the tree"
    return None


# Wire names in protocol.cpp's to_string switch: `case Op::kX: return "x";`
IMPLEMENTED_OP = re.compile(r'case\s+Op::k\w+:\s*return\s+"(\w+)"')
# Operation-table rows in docs/service.md: the first cell is the op in
# backticks (`| \`analyze\` | ... |`).
DOCUMENTED_OP = re.compile(r"^\|\s*`(\w+)`\s*\|")


def check_service_ops(root: Path) -> list:
    """docs/service.md's op table must match protocol.cpp, both ways."""
    protocol = root / "src" / "service" / "protocol.cpp"
    doc = root / "docs" / "service.md"
    if not protocol.is_file() or not doc.is_file():
        return []  # nothing to cross-check in a partial tree
    implemented = set(IMPLEMENTED_OP.findall(
        protocol.read_text(errors="replace")))
    # Only the operation table counts: the rows between a `| op ...`
    # header and the end of that table.  Other tables (error codes,
    # metrics) may also lead with backticked cells.
    documented = set()
    in_op_table = False
    for line in doc.read_text(errors="replace").splitlines():
        if re.match(r"^\|\s*op\b", line):
            in_op_table = True
            continue
        if not in_op_table:
            continue
        if not line.startswith("|"):
            in_op_table = False
            continue
        match = DOCUMENTED_OP.match(line)
        if match:
            documented.add(match.group(1))
    errors = []
    for op in sorted(documented - implemented):
        errors.append(
            f"docs/service.md: op '{op}' is documented but not implemented "
            "in src/service/protocol.cpp")
    for op in sorted(implemented - documented):
        errors.append(
            f"docs/service.md: op '{op}' is implemented in "
            "src/service/protocol.cpp but has no operation-table row")
    if not implemented:
        errors.append(
            "tools/check_docs.py: no ops parsed from "
            "src/service/protocol.cpp — update IMPLEMENTED_OP")
    return errors


# Registry entries in invariants.cpp: `{"name",` opening an Invariant.
REGISTERED_INVARIANT = re.compile(r'\{"([a-z0-9\-]+)",')
# Invariant-table rows in docs/testing.md: `| \`name\` | claim |`.
DOCUMENTED_INVARIANT = re.compile(r"^\|\s*`([a-z0-9\-]+)`\s*\|")


def check_invariants(root: Path) -> list:
    """docs/testing.md's invariant table must match the registry, both ways."""
    registry = root / "src" / "proptest" / "invariants.cpp"
    doc = root / "docs" / "testing.md"
    if not registry.is_file() or not doc.is_file():
        return []  # nothing to cross-check in a partial tree
    # Only the registry initializer counts: from `kRegistry = {` to the
    # first `};` after it.
    source = registry.read_text(errors="replace")
    start = source.find("kRegistry = {")
    end = source.find("};", start)
    registered = set(REGISTERED_INVARIANT.findall(
        source[start:end] if start >= 0 and end >= 0 else ""))
    documented = set()
    in_table = False
    for line in doc.read_text(errors="replace").splitlines():
        if re.match(r"^\|\s*invariant\s*\|", line):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.startswith("|"):
            in_table = False
            continue
        match = DOCUMENTED_INVARIANT.match(line)
        if match:
            documented.add(match.group(1))
    errors = []
    for name in sorted(documented - registered):
        errors.append(
            f"docs/testing.md: invariant '{name}' is documented but not "
            "registered in src/proptest/invariants.cpp")
    for name in sorted(registered - documented):
        errors.append(
            f"docs/testing.md: invariant '{name}' is registered in "
            "src/proptest/invariants.cpp but has no table row")
    if not registered:
        errors.append(
            "tools/check_docs.py: no invariants parsed from "
            "src/proptest/invariants.cpp — update REGISTERED_INVARIANT")
    return errors


def check_docs_index(root: Path, references: dict) -> list:
    """Every docs/*.md must be referenced from README.md or another doc."""
    errors = []
    for doc in sorted((root / "docs").glob("*.md")):
        rel = str(doc.relative_to(root))
        referencing = {src for src, targets in references.items()
                       if rel in targets and src != rel}
        if not referencing:
            errors.append(
                f"{rel}: orphaned doc — not referenced from README.md or "
                "any other doc")
    return errors


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1]
    code = load_code(root)
    errors = []
    # doc file -> set of repo-relative doc paths it references.
    references = {}
    for doc in list_doc_files(root):
        text = doc.read_text(errors="replace")
        rel = doc.relative_to(root)
        outgoing = references.setdefault(str(rel), set())
        for lineno, line in enumerate(text.splitlines(), 1):
            for mention in DOC_MENTION.findall(line):
                if (root / mention).exists():
                    outgoing.add(mention)
            tokens = INLINE_CODE.findall(line)
            tokens += MD_LINK.findall(line)
            for tok in tokens:
                tok = tok.strip()
                if PATH_TOKEN.match(tok):
                    if not resolve_path(root, tok):
                        errors.append(f"{rel}:{lineno}: missing file '{tok}'")
                    else:
                        outgoing.add(tok.rstrip("/.,;:"))
                elif SYMBOL_TOKEN.match(tok):
                    why = check_symbol(code, tok)
                    if why:
                        errors.append(f"{rel}:{lineno}: '{tok}': {why}")
                elif tok.endswith(".md") and (root / "docs" / tok).exists():
                    # Relative links between docs ("math.md", "[x](math.md)").
                    outgoing.add(f"docs/{tok}")
    errors += check_docs_index(root, references)
    errors += check_service_ops(root)
    errors += check_invariants(root)
    for e in errors:
        print(e)
    if errors:
        print(f"{len(errors)} broken doc reference(s)")
        return 1
    print("all doc references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())

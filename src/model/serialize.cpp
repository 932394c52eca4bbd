#include "model/serialize.h"

#include <charconv>
#include <sstream>
#include <unordered_set>
#include <vector>

namespace tfa::model {

namespace {

/// Splits a line into whitespace-separated tokens.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > pos) out.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

bool parse_int(std::string_view tok, std::int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return ec == std::errc{} && ptr == tok.data() + tok.size();
}

std::optional<ServiceClass> parse_class(std::string_view tok) {
  if (tok == "EF") return ServiceClass::kExpedited;
  if (tok == "AF1") return ServiceClass::kAssured1;
  if (tok == "AF2") return ServiceClass::kAssured2;
  if (tok == "AF3") return ServiceClass::kAssured3;
  if (tok == "AF4") return ServiceClass::kAssured4;
  if (tok == "BE") return ServiceClass::kBestEffort;
  return std::nullopt;
}

ParseResult fail(int line, std::string message) {
  ParseResult r;
  r.error = std::move(message);
  r.error_line = line;
  return r;
}

}  // namespace

ParseResult parse_flow_set(std::string_view text) {
  std::optional<FlowSet> set;
  // Names seen so far: FlowSet::find is a linear scan, so checking each
  // flow against the set would make parsing quadratic in the flow count.
  std::unordered_set<std::string> names;
  int line_no = 0;

  std::size_t cursor = 0;
  while (cursor <= text.size()) {
    const std::size_t nl = text.find('\n', cursor);
    const std::string_view line =
        text.substr(cursor, nl == std::string_view::npos ? text.size() - cursor
                                                         : nl - cursor);
    cursor = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const auto tokens = tokenize(line);
    if (tokens.empty() || tokens.front().starts_with('#')) continue;

    if (tokens.front() == "network") {
      if (set) return fail(line_no, "duplicate 'network' line");
      std::int64_t nodes = 0, lmin = 0, lmax = 0;
      if (tokens.size() != 4 || !parse_int(tokens[1], nodes) ||
          !parse_int(tokens[2], lmin) || !parse_int(tokens[3], lmax))
        return fail(line_no, "expected: network <nodes> <lmin> <lmax>");
      if (nodes <= 0 || lmin < 0 || lmax < lmin)
        return fail(line_no, "invalid network parameters (nodes=" +
                                 std::to_string(nodes) + " lmin=" +
                                 std::to_string(lmin) + " lmax=" +
                                 std::to_string(lmax) +
                                 "; need nodes>0, 0<=lmin<=lmax)");
      set.emplace(Network(static_cast<std::int32_t>(nodes), lmin, lmax));
      continue;
    }

    if (tokens.front() == "link") {
      if (!set) return fail(line_no, "'link' before 'network'");
      std::int64_t from = 0, to = 0, lmin = 0, lmax = 0;
      if (tokens.size() != 5 || !parse_int(tokens[1], from) ||
          !parse_int(tokens[2], to) || !parse_int(tokens[3], lmin) ||
          !parse_int(tokens[4], lmax))
        return fail(line_no, "expected: link <from> <to> <lmin> <lmax>");
      Network net = set->network();
      if (!net.contains(static_cast<NodeId>(from)) ||
          !net.contains(static_cast<NodeId>(to)) || from == to ||
          lmin < 0 || lmax < lmin)
        return fail(line_no, "invalid link parameters (link " +
                                 std::to_string(from) + "->" +
                                 std::to_string(to) + " lmin=" +
                                 std::to_string(lmin) + " lmax=" +
                                 std::to_string(lmax) + ")");
      net.set_link(static_cast<NodeId>(from), static_cast<NodeId>(to), lmin,
                   lmax);
      FlowSet rebuilt(std::move(net), set->flows());
      set = std::move(rebuilt);
      continue;
    }

    if (tokens.front() == "flow") {
      if (!set) return fail(line_no, "'flow' before 'network'");
      if (tokens.size() < 9)
        return fail(line_no,
                    "expected: flow <name> <class> <T> <J> <D> path ... "
                    "costs ...");
      const std::string name(tokens[1]);
      const std::string where = "flow '" + name + "': ";
      const auto cls = parse_class(tokens[2]);
      if (!cls)
        return fail(line_no, where + "unknown service class '" +
                                 std::string(tokens[2]) + "'");
      std::int64_t period = 0, jitter = 0, deadline = 0;
      if (!parse_int(tokens[3], period))
        return fail(line_no, where + "bad period '" + std::string(tokens[3]) +
                                 "'");
      if (!parse_int(tokens[4], jitter))
        return fail(line_no, where + "bad jitter '" + std::string(tokens[4]) +
                                 "'");
      if (!parse_int(tokens[5], deadline))
        return fail(line_no, where + "bad deadline '" +
                                 std::string(tokens[5]) + "'");
      if (period <= 0 || jitter < 0 || deadline <= 0)
        return fail(line_no, where + "parameters out of range (T=" +
                                 std::to_string(period) + " J=" +
                                 std::to_string(jitter) + " D=" +
                                 std::to_string(deadline) +
                                 "; need T>0, J>=0, D>0)");

      if (tokens[6] != "path") return fail(line_no, where + "expected 'path'");
      std::size_t k = 7;
      std::vector<NodeId> nodes;
      for (; k < tokens.size() && tokens[k] != "costs"; ++k) {
        std::int64_t v = 0;
        if (!parse_int(tokens[k], v) || v < 0)
          return fail(line_no, where + "bad path node '" +
                                   std::string(tokens[k]) + "'");
        nodes.push_back(static_cast<NodeId>(v));
      }
      if (nodes.empty()) return fail(line_no, where + "empty path");
      for (std::size_t a = 0; a < nodes.size(); ++a)
        for (std::size_t b = a + 1; b < nodes.size(); ++b)
          if (nodes[a] == nodes[b])
            return fail(line_no, where + "repeated node " +
                                     std::to_string(nodes[a]) + " on path");

      if (k == tokens.size() || tokens[k] != "costs")
        return fail(line_no, where + "expected 'costs'");
      std::vector<Duration> costs;
      for (++k; k < tokens.size() && tokens[k] != "arrival"; ++k) {
        std::int64_t v = 0;
        if (!parse_int(tokens[k], v) || v <= 0)
          return fail(line_no, where + "bad cost '" + std::string(tokens[k]) +
                                   "'");
        costs.push_back(v);
      }
      if (costs.size() == 1) costs.assign(nodes.size(), costs.front());
      if (costs.size() != nodes.size())
        return fail(line_no,
                    where + "costs arity mismatch (" +
                        std::to_string(costs.size()) + " costs for " +
                        std::to_string(nodes.size()) + " path nodes)");

      std::vector<ArrivalSegment> arrival;
      if (k < tokens.size() && tokens[k] == "arrival") {
        const std::size_t terms = tokens.size() - (k + 1);
        if (terms == 0 || terms % 3 != 0)
          return fail(line_no,
                      where + "expected 'arrival <burst> <rate_num> "
                              "<rate_den>' triples, got " +
                          std::to_string(terms) + " values");
        for (++k; k < tokens.size(); k += 3) {
          std::int64_t b = 0, num = 0, den = 0;
          if (!parse_int(tokens[k], b) || !parse_int(tokens[k + 1], num) ||
              !parse_int(tokens[k + 2], den) || b <= 0 || num <= 0 || den <= 0)
            return fail(line_no, where + "bad arrival segment '" +
                                     std::string(tokens[k]) + " " +
                                     std::string(tokens[k + 1]) + " " +
                                     std::string(tokens[k + 2]) + "'");
          arrival.push_back(ArrivalSegment{b, num, den});
        }
        const std::string issue =
            validate_arrival_spec(arrival, period, jitter);
        if (!issue.empty()) return fail(line_no, where + issue);
      }

      for (const NodeId h : nodes)
        if (!set->network().contains(h))
          return fail(line_no, where + "path node " + std::to_string(h) +
                                   " outside the network (" +
                                   std::to_string(set->network().node_count()) +
                                   " nodes)");
      if (!names.insert(name).second)
        return fail(line_no, "duplicate flow name '" + name + "'");

      SporadicFlow flow(name, Path(std::move(nodes)), period, std::move(costs),
                        jitter, deadline, *cls);
      if (!arrival.empty()) flow = flow.with_arrival(std::move(arrival));
      set->add(std::move(flow));
      continue;
    }

    return fail(line_no, "unknown directive '" + std::string(tokens[0]) + "'");
  }

  if (!set) return fail(line_no, "missing 'network' line");
  ParseResult r;
  r.flow_set = std::move(set);
  return r;
}

std::string serialize_flow_set(const FlowSet& set) {
  std::ostringstream out;
  out << "# tfa flow set\n";
  out << "network " << set.network().node_count() << ' '
      << set.network().lmin() << ' ' << set.network().lmax() << '\n';
  for (const auto& [link, bounds] : set.network().link_overrides())
    out << "link " << link.first << ' ' << link.second << ' ' << bounds.first
        << ' ' << bounds.second << '\n';
  for (const SporadicFlow& f : set.flows()) {
    out << "flow " << f.name() << ' ' << to_string(f.service_class()) << ' '
        << f.period() << ' ' << f.jitter() << ' ' << f.deadline() << " path";
    for (const NodeId h : f.path().nodes()) out << ' ' << h;
    out << " costs";
    bool uniform = true;
    for (const Duration c : f.costs()) uniform &= (c == f.costs().front());
    if (uniform) {
      out << ' ' << f.costs().front();
    } else {
      for (const Duration c : f.costs()) out << ' ' << c;
    }
    if (!f.arrival().empty()) {
      out << " arrival";
      for (const ArrivalSegment& s : f.arrival())
        out << ' ' << s.burst << ' ' << s.rate_num << ' ' << s.rate_den;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace tfa::model

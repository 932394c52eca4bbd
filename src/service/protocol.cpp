#include "service/protocol.h"

#include <cmath>
#include <utility>

#include "base/json.h"

namespace tfa::service {

namespace {

/// Ops that address a session.
bool needs_session(Op op) noexcept {
  switch (op) {
    case Op::kLoadNetwork:
    case Op::kAddFlow:
    case Op::kRemoveFlow:
    case Op::kAnalyze:
    case Op::kAdmit:
    case Op::kSnapshot:
    case Op::kProvision:
      return true;
    case Op::kMetrics:
    case Op::kStatsz:
    case Op::kFlush:
    case Op::kShutdown:
      return false;
  }
  return false;
}

/// The strict field whitelist: everything else is rejected by name.
bool field_allowed(Op op, std::string_view key) noexcept {
  if (key == "op" || key == "id" || key == "deadline_ms" ||
      key == "trace_id")
    return true;
  // `statsz` takes an *optional* session (scoped exposition); the
  // session ops require one.
  if (key == "session") return needs_session(op) || op == Op::kStatsz;
  switch (op) {
    case Op::kLoadNetwork:
      return key == "text";
    case Op::kAddFlow:
      return key == "flow";
    case Op::kRemoveFlow:
      return key == "name";
    case Op::kAnalyze:
      return key == "ef_mode" || key == "smax";
    case Op::kAdmit:
      return key == "flow" || key == "ef_mode" || key == "smax";
    case Op::kProvision:
      return key == "flow" || key == "capacity";
    case Op::kSnapshot:
    case Op::kMetrics:
    case Op::kStatsz:
    case Op::kFlush:
    case Op::kShutdown:
      return false;
  }
  return false;
}

std::optional<Op> op_from_string(std::string_view s) noexcept {
  if (s == "load_network") return Op::kLoadNetwork;
  if (s == "add_flow") return Op::kAddFlow;
  if (s == "remove_flow") return Op::kRemoveFlow;
  if (s == "analyze") return Op::kAnalyze;
  if (s == "admit") return Op::kAdmit;
  if (s == "snapshot") return Op::kSnapshot;
  if (s == "provision") return Op::kProvision;
  if (s == "metrics") return Op::kMetrics;
  if (s == "statsz") return Op::kStatsz;
  if (s == "flush") return Op::kFlush;
  if (s == "shutdown") return Op::kShutdown;
  return std::nullopt;
}

/// Exact int64 held by a JSON number (integral, within double's exact
/// integer range) — the strictness the tick durations need.
bool to_int64(const JsonValue& v, std::int64_t* out) {
  if (v.kind != JsonValue::Kind::kNumber) return false;
  const double d = v.number;
  if (!(d >= -9007199254740992.0 && d <= 9007199254740992.0)) return false;
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) return false;
  *out = i;
  return true;
}

ParsedRequest fail(ParsedRequest p, std::string code, std::string message,
                   std::optional<std::size_t> offset = std::nullopt) {
  p.ok = false;
  p.error.code = std::move(code);
  p.error.message = std::move(message);
  p.error.offset = offset;
  return p;
}

/// Required string field, or a bad_request failure.
const std::string* string_field(const JsonValue& doc, std::string_view key,
                                std::string* why) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) {
    *why = '\'';
    *why += key;
    *why += "' is required";
    return nullptr;
  }
  if (v->kind != JsonValue::Kind::kString) {
    *why = '\'';
    *why += key;
    *why += "' must be a string";
    return nullptr;
  }
  return &v->string;
}

}  // namespace

const char* to_string(Op op) noexcept {
  switch (op) {
    case Op::kLoadNetwork: return "load_network";
    case Op::kAddFlow: return "add_flow";
    case Op::kRemoveFlow: return "remove_flow";
    case Op::kAnalyze: return "analyze";
    case Op::kAdmit: return "admit";
    case Op::kSnapshot: return "snapshot";
    case Op::kProvision: return "provision";
    case Op::kMetrics: return "metrics";
    case Op::kStatsz: return "statsz";
    case Op::kFlush: return "flush";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

std::string json_duration(Duration d) {
  return is_infinite(d) ? "null" : std::to_string(d);
}

ParsedRequest parse_request(std::string_view line) {
  ParsedRequest p;

  JsonError jerr;
  const std::optional<JsonValue> doc = json_parse(line, &jerr);
  if (!doc)
    return fail(std::move(p), "parse_error", jerr.message, jerr.offset);
  if (!doc->is_object())
    return fail(std::move(p), "bad_request", "request must be a JSON object");

  // Salvage the correlation id first so every later failure still echoes
  // it.  Accept a string or an exactly-representable integer.
  if (const JsonValue* id = doc->find("id")) {
    std::int64_t n = 0;
    if (id->kind == JsonValue::Kind::kString) {
      p.id_json = json_string(id->string);
    } else if (to_int64(*id, &n)) {
      p.id_json = std::to_string(n);
    } else {
      return fail(std::move(p), "bad_request",
                  "'id' must be a string or an integer");
    }
  }

  // Salvage the trace id just as early: error envelopes echo it too.
  if (const JsonValue* tr = doc->find("trace_id")) {
    if (tr->kind != JsonValue::Kind::kString || tr->string.empty() ||
        tr->string.size() > 64) {
      return fail(std::move(p), "bad_request",
                  "'trace_id' must be a non-empty string of at most 64 "
                  "characters");
    }
    p.trace = tr->string;
  }

  const JsonValue* opv = doc->find("op");
  if (opv == nullptr)
    return fail(std::move(p), "bad_request", "'op' is required");
  if (opv->kind != JsonValue::Kind::kString)
    return fail(std::move(p), "bad_request", "'op' must be a string");
  p.op_text = opv->string;
  const std::optional<Op> op = op_from_string(p.op_text);
  if (!op)
    return fail(std::move(p), "unknown_op",
                "unknown op '" + p.op_text + "'");
  p.request.op = *op;

  // Strict shape: no duplicate and no unknown fields.
  const auto& members = doc->object;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::string& key = members[i].first;
    for (std::size_t k = 0; k < i; ++k)
      if (members[k].first == key)
        return fail(std::move(p), "bad_request",
                    "duplicate field '" + key + "'");
    if (!field_allowed(*op, key))
      return fail(std::move(p), "bad_request",
                  "field '" + key + "' is not valid for op '" + p.op_text +
                      "'");
  }

  if (needs_session(*op)) {
    std::string why;
    const std::string* session = string_field(*doc, "session", &why);
    if (session == nullptr) return fail(std::move(p), "bad_request", why);
    if (session->empty())
      return fail(std::move(p), "bad_request", "'session' must be non-empty");
    if (session->size() > 128)
      return fail(std::move(p), "bad_request",
                  "'session' exceeds 128 characters");
    p.request.session = *session;
  } else if (*op == Op::kStatsz) {
    // Optional session scope.
    if (const JsonValue* sv = doc->find("session")) {
      if (sv->kind != JsonValue::Kind::kString || sv->string.empty() ||
          sv->string.size() > 128)
        return fail(std::move(p), "bad_request",
                    "'session' must be a non-empty string of at most 128 "
                    "characters");
      p.request.session = sv->string;
    }
  }

  if (const JsonValue* dl = doc->find("deadline_ms")) {
    std::int64_t ms = 0;
    if (!to_int64(*dl, &ms) || ms < 0)
      return fail(std::move(p), "bad_request",
                  "'deadline_ms' must be a non-negative integer");
    p.request.deadline_ms = ms;
  }

  switch (*op) {
    case Op::kLoadNetwork: {
      std::string why;
      const std::string* text = string_field(*doc, "text", &why);
      if (text == nullptr) return fail(std::move(p), "bad_request", why);
      p.request.text = *text;
      break;
    }
    case Op::kAddFlow:
    case Op::kAdmit: {
      std::string why;
      const std::string* flow = string_field(*doc, "flow", &why);
      if (flow == nullptr) return fail(std::move(p), "bad_request", why);
      if (flow->find('\n') != std::string::npos)
        return fail(std::move(p), "bad_request",
                    "'flow' must be a single flow line");
      p.request.flow = *flow;
      break;
    }
    case Op::kRemoveFlow: {
      std::string why;
      const std::string* name = string_field(*doc, "name", &why);
      if (name == nullptr) return fail(std::move(p), "bad_request", why);
      if (name->empty())
        return fail(std::move(p), "bad_request", "'name' must be non-empty");
      p.request.name = *name;
      break;
    }
    case Op::kProvision: {
      if (const JsonValue* flow = doc->find("flow")) {
        if (flow->kind != JsonValue::Kind::kString)
          return fail(std::move(p), "bad_request", "'flow' must be a string");
        if (flow->string.find('\n') != std::string::npos)
          return fail(std::move(p), "bad_request",
                      "'flow' must be a single flow line");
        p.request.flow = flow->string;
      }
      if (const JsonValue* cap = doc->find("capacity")) {
        std::int64_t c = 0;
        if (!to_int64(*cap, &c) || c < 0)
          return fail(std::move(p), "bad_request",
                      "'capacity' must be a non-negative integer");
        p.request.capacity = c;
      }
      break;
    }
    default:
      break;
  }

  if (*op == Op::kAnalyze || *op == Op::kAdmit) {
    if (const JsonValue* ef = doc->find("ef_mode")) {
      if (ef->kind != JsonValue::Kind::kBool)
        return fail(std::move(p), "bad_request", "'ef_mode' must be a boolean");
      p.request.analyze.ef_mode = ef->boolean;
    }
    if (const JsonValue* smax = doc->find("smax")) {
      if (smax->kind == JsonValue::Kind::kString &&
          smax->string == "arrival") {
        p.request.analyze.smax = trajectory::SmaxSemantics::kArrival;
      } else if (smax->kind == JsonValue::Kind::kString &&
                 smax->string == "completion") {
        p.request.analyze.smax = trajectory::SmaxSemantics::kCompletion;
      } else {
        return fail(std::move(p), "bad_request",
                    "'smax' must be \"arrival\" or \"completion\"");
      }
    }
  }

  p.ok = true;
  return p;
}

namespace {

/// Shared prefix of both envelopes:
/// {"seq":N[,"id":...],"ok":B,"op":OP[,"trace":"..."].
std::string envelope_head(std::uint64_t seq, const std::string& id_json,
                          std::string_view op_text, std::string_view trace,
                          bool ok) {
  std::string out = "{\"seq\":";
  out += std::to_string(seq);
  if (!id_json.empty()) {
    out += ",\"id\":";
    out += id_json;
  }
  out += ok ? ",\"ok\":true,\"op\":" : ",\"ok\":false,\"op\":";
  out += op_text.empty() ? std::string("null") : json_string(op_text);
  if (!trace.empty()) {
    out += ",\"trace\":";
    out += json_string(trace);
  }
  return out;
}

}  // namespace

std::string ok_envelope(std::uint64_t seq, const std::string& id_json,
                        std::string_view op_text, std::string_view trace,
                        std::string_view result_json) {
  std::string out = envelope_head(seq, id_json, op_text, trace, true);
  out += ",\"result\":";
  out += result_json;
  out += '}';
  return out;
}

std::string error_envelope(std::uint64_t seq, const std::string& id_json,
                           std::string_view op_text, std::string_view trace,
                           const WireError& error) {
  std::string out = envelope_head(seq, id_json, op_text, trace, false);
  out += ",\"error\":{\"code\":";
  out += json_string(error.code);
  out += ",\"message\":";
  out += json_string(error.message);
  if (error.offset) {
    out += ",\"offset\":";
    out += std::to_string(*error.offset);
  }
  if (error.line) {
    out += ",\"line\":";
    out += std::to_string(*error.line);
  }
  out += "}}";
  return out;
}

}  // namespace tfa::service

// Session store of the analysis service: each session is one named,
// long-lived flow-set lineage carrying its own warm-start state (one
// trajectory::ShardedAnalyzer, whose shards each own an AnalysisCache)
// and its own engine telemetry, so analyses of different sessions never
// share mutable state — that independence is what lets the socket
// transport run requests for different sessions truly concurrently.
//
// Concurrency contract: the store's own map is guarded internally
// (create/find/for_each are safe to call from any thread), and every
// *session's* mutable state is guarded by its `Session::mu` — a caller
// must hold it across any read or write of the session's set, analyzer,
// memo or telemetry.  A request locks at most one session at a time;
// single-transport deployments (loopback, stdio) pay only
// uncontended-lock costs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "model/flow_set.h"
#include "obs/telemetry.h"
#include "service/protocol.h"
#include "trajectory/shard.h"

namespace tfa::service {

/// One named network + flow set and everything that makes repeat
/// analyses of it cheap.
struct Session {
  std::string name;
  /// The flows in wire order (load order, then adds and admits); the
  /// order `analyze` reports bounds in.
  model::FlowSet set;

  /// Private engine sink (series capped).  Never shared with another
  /// session — sessions run concurrently on the socket transport.
  obs::Telemetry telemetry;

  std::uint64_t analyzes = 0;  ///< Analyze jobs run (memo hits excluded).

  /// The session's one warm-start lineage (trajectory/shard.h), built at
  /// `load_network` and kept in membership lockstep with `set` by the
  /// mutating ops.  `analyze` settles its dirty shards and `admit`
  /// analyses only the shards the candidate's path touches — both
  /// bit-identical to the global analysis, but priced by shard size.
  /// `analyzer_opts` are the options it was built under; a request under
  /// other options rebuilds it cold rather than reusing state computed
  /// under the wrong Config.
  std::unique_ptr<trajectory::ShardedAnalyzer> sharded;
  AnalyzeOptions analyzer_opts;

  /// Exact-result memo of the latest analyze: the options it ran under
  /// and the rendered result body.  A repeat analyze of an unchanged
  /// session under the same options answers from here without touching
  /// the analyzer.  Any mutation invalidates it.
  std::optional<AnalyzeOptions> memo_opts;
  std::string memo_fragment;

  /// Guards everything above except `name` (immutable after creation).
  /// Held by the service for the duration of each request touching this
  /// session, including an analyze's engine run.
  std::mutex mu;

  void invalidate_memo() {
    memo_opts.reset();
    memo_fragment.clear();
  }
};

/// Name-ordered session registry with a capacity limit.  Lookups and
/// creation are internally synchronised; sessions are never destroyed
/// before the store, so a returned `Session*` stays valid for the
/// store's lifetime.
class SessionStore {
 public:
  explicit SessionStore(std::size_t max_sessions) : max_(max_sessions) {}

  enum class Create { kCreated, kDuplicate, kFull };

  /// Creates an empty session named `name`; on kCreated, `*out` points at
  /// it (series capacity already bounded).
  Create create(const std::string& name, Session** out);

  /// The session named `name`, or nullptr.
  [[nodiscard]] Session* find(std::string_view name);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return max_; }

  /// Visits every session in name order under the store lock
  /// (deterministic iteration for the `metrics` op).  `body` may lock
  /// individual sessions but must not call back into the store.
  void for_each(const std::function<void(const std::string&, Session&)>& body);

  /// All sessions in name order.  Unsynchronised — only for
  /// single-threaded callers (tests, single-transport tools).
  [[nodiscard]] std::map<std::string, Session, std::less<>>& all() noexcept {
    return sessions_;
  }

 private:
  std::size_t max_;
  mutable std::mutex mu_;
  std::map<std::string, Session, std::less<>> sessions_;
};

}  // namespace tfa::service

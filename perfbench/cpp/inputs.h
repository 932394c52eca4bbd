// Seeded input generation.  Every input is a pure function of the
// workload seed and is produced as flow-set text (docs/format.md), so the
// program receives only generated inputs and parsing is program work the
// benchmark can time.  Generation itself is benchmark work and is never
// inside a timed interval.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/types.h"

namespace perfbench {

/// One `flow ...` line.
[[nodiscard]] std::string flow_line(const std::string& name,
                                    const char* cls, tfa::Duration period,
                                    tfa::Duration jitter,
                                    tfa::Duration deadline,
                                    const std::vector<tfa::NodeId>& path,
                                    tfa::Duration cost);

inline constexpr std::int32_t kClusterNodes = 4;

/// The `index`-th (mod 12) of the twelve ordered node pairs of the
/// 4-node cluster starting at node `base`.  Dealing flows round-robin
/// over the pairs gives every node of the cluster the same load.
[[nodiscard]] std::vector<tfa::NodeId> dealt_path(tfa::NodeId base,
                                                  std::int64_t index);

// ---- analyze_dense ---------------------------------------------------

/// One fully coupled flow set of the dense cycle.
struct DenseInput {
  enum class Kind { kFifo, kEf, kReenter };
  Kind kind = Kind::kFifo;
  int flows = 0;
  std::string text;
};

[[nodiscard]] const char* to_string(DenseInput::Kind kind);

/// The fixed cycle of independent sets: plain FIFO sets (Property 2),
/// EF sets over AF/BE background (Property 3, analysed in EF mode), and
/// re-entering paths that force Assumption-1 splits, in rotation.
/// 50..200 flows per set (20..30 when `small`), release jitters 8..16
/// periods wide.
[[nodiscard]] std::vector<DenseInput> dense_cycle(std::uint64_t seed,
                                                  bool small);

// ---- admit_churn -----------------------------------------------------

/// Shape of the churn network: `clusters` (an even number: bridges pair
/// cluster c with c xor 1) disjoint 4-node clusters of
/// `flows_per_cluster` two-node flows each.
struct ChurnShape {
  std::int32_t clusters = 0;
  std::int32_t flows_per_cluster = 0;
};

[[nodiscard]] ChurnShape churn_shape(bool small);

/// The whole churn network as flow-set text.  Base flows are named
/// c<cluster>_f<index>.
[[nodiscard]] std::string churn_network_text(std::uint64_t seed,
                                             const ChurnShape& shape);

// ---- serve_socket ----------------------------------------------------

/// Shape of the serve workload: `sessions` sessions on its one client
/// connection, each `clusters` disjoint 4-node clusters (so every session
/// is multi-shard) of 25..50 flows (8..12 when small), with release
/// jitters under a quarter period so the engine's share of a request
/// stays small.
struct ServeShape {
  int sessions = 0;
  int clusters = 0;
};

[[nodiscard]] ServeShape serve_shape(bool small);

/// Initial flow-set text of session `session`.  Base flows are named
/// f<cluster>_<index>.
[[nodiscard]] std::string session_text(std::uint64_t seed, int session,
                                       const ServeShape& shape, bool small);

}  // namespace perfbench

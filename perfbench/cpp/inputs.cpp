#include "inputs.h"

#include <cmath>

namespace perfbench {

using tfa::Duration;
using tfa::NodeId;
using tfa::Rng;

std::vector<NodeId> dealt_path(NodeId base, std::int64_t index) {
  const auto pair = static_cast<NodeId>(index % 12);
  const NodeId a = pair / 3;
  return {base + a, base + (a + 1 + pair % 3) % kClusterNodes};
}

std::string flow_line(const std::string& name, const char* cls,
                      Duration period, Duration jitter, Duration deadline,
                      const std::vector<NodeId>& path, Duration cost) {
  std::string s = "flow " + name + " " + cls + " " + std::to_string(period) +
                  " " + std::to_string(jitter) + " " +
                  std::to_string(deadline) + " path";
  for (const NodeId n : path) s += " " + std::to_string(n);
  s += " costs " + std::to_string(cost);
  return s;
}

const char* to_string(DenseInput::Kind kind) {
  switch (kind) {
    case DenseInput::Kind::kFifo: return "fifo";
    case DenseInput::Kind::kEf: return "ef";
    case DenseInput::Kind::kReenter: return "reenter";
  }
  return "?";
}

std::vector<DenseInput> dense_cycle(std::uint64_t seed, bool small) {
  static constexpr const char* kBackground[] = {"AF1", "AF2", "AF3", "AF4",
                                                "BE"};
  // Sizes follow a fixed schedule so that a cycle's cost barely depends
  // on the seed: each kind gets nine sizes evenly spaced over 50..200
  // flows (20 and 30 when small).  The odd set count puts the median of
  // a window of whole cycles in the middle of one set's repeats, not on
  // the boundary between two sets (the slowest repeat of one and the
  // fastest of the next), which moves with every stray slow repeat.
  const int sets = small ? 6 : 27;
  std::vector<DenseInput> out;
  for (int i = 0; i < sets; ++i) {
    Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(i));
    DenseInput in;
    in.kind = static_cast<DenseInput::Kind>(i % 3);
    in.flows = small ? 20 + 10 * (i / 3) : 50 + 150 * (i / 3) / 8;
    // Two-node paths over four nodes, the twelve ordered node pairs
    // dealt round-robin so every node carries the same load: each set is
    // one shard.  Re-entering sets turn every eighth flow into a detour
    // a -> x -> b through one of two extra nodes, which violates
    // Assumption 1 against the flows it leaves at a and rejoins at b.
    //
    // Parameters cycle through fixed spreads by flow index (periods
    // 0.8..1.25 of the ~55 %-utilisation period, jitters 8..16 periods);
    // the seed draws where each cycle starts.  So the seed changes which
    // flow gets which parameters, and a set's cost depends on its kind
    // and size, not on the draw.
    const bool reenter = in.kind == DenseInput::Kind::kReenter;
    const auto base = static_cast<Duration>(std::ceil(in.flows * 2 / 4 / 0.55));
    const auto deal = rng.uniform(0, 11);
    const auto o_period = rng.uniform(0, 15);
    const auto o_jitter = rng.uniform(0, 8);
    const auto o_class = rng.uniform(0, 4);
    in.text = std::string("network ") + (reenter ? "6" : "4") + " 1 1\n";
    for (int f = 0; f < in.flows; ++f) {
      const Duration period =
          base * 4 / 5 + base * 9 / 20 * ((f * 7 + o_period) % 16) / 15;
      const Duration jitter =
          period * (8 + (f * 5 + o_jitter) % 9) + (f * 11 + o_period) % 16;
      // EF sets: two flows in five are EF, the rest AF/BE background
      // with larger frames (they only enter as non-preemption delay).
      const bool ef = in.kind != DenseInput::Kind::kEf || f % 5 < 2;
      const char* cls = ef ? "EF" : kBackground[(f + o_class) % 5];
      const Duration cost = ef ? 1 : 1 + (f * 3 + o_class) % 3;
      std::vector<NodeId> path = dealt_path(0, f + deal);
      if (reenter && f % 8 == 7)
        path.insert(path.begin() + 1, static_cast<NodeId>(4 + f / 8 % 2));
      in.text += flow_line("f" + std::to_string(f), cls, period, jitter,
                           1'000'000, path, cost) +
                 "\n";
    }
    out.push_back(std::move(in));
  }
  return out;
}

ChurnShape churn_shape(bool small) {
  return small ? ChurnShape{24, 40} : ChurnShape{500, 40};
}

std::string churn_network_text(std::uint64_t seed, const ChurnShape& shape) {
  Rng rng = Rng::stream(seed, 0xC4);
  std::string text = "network " +
                     std::to_string(shape.clusters * kClusterNodes) +
                     " 1 1\n";
  for (std::int32_t c = 0; c < shape.clusters; ++c) {
    const auto deal = rng.uniform(0, 11);
    for (std::int32_t f = 0; f < shape.flows_per_cluster; ++f) {
      const Duration period = rng.uniform(60, 120);
      text += flow_line("c" + std::to_string(c) + "_f" + std::to_string(f),
                        "EF", period, rng.uniform(0, 2 * period), 100'000,
                        dealt_path(c * kClusterNodes, f + deal), 1) +
              "\n";
    }
  }
  return text;
}

ServeShape serve_shape(bool small) {
  return small ? ServeShape{2, 2} : ServeShape{32, 4};
}

std::string session_text(std::uint64_t seed, int session,
                         const ServeShape& shape, bool small) {
  Rng rng = Rng::stream(seed, 0x5E00 + static_cast<std::uint64_t>(session));
  std::string text = "network " +
                     std::to_string(shape.clusters * kClusterNodes) +
                     " 1 1\n";
  for (int c = 0; c < shape.clusters; ++c) {
    // Cluster sizes follow a fixed schedule over 25..50 flows (8..12
    // when small), the same for every seed.
    const int k = session * shape.clusters + c;
    const int flows = small ? 8 + k % 5 : 25 + (k * 7) % 26;
    const auto deal = rng.uniform(0, 11);
    for (int f = 0; f < flows; ++f) {
      const Duration period = rng.uniform(60, 120);
      text += flow_line("f" + std::to_string(c) + "_" + std::to_string(f),
                        "EF", period, rng.uniform(0, period / 4), 100'000,
                        dealt_path(c * kClusterNodes, f + deal), 1) +
              "\n";
    }
  }
  return text;
}

}  // namespace perfbench

#include "trajectory/batch.h"

#include <utility>

#include "base/contracts.h"
#include "model/normalize.h"
#include "obs/telemetry.h"
#include "trajectory/analysis.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {

namespace {

/// FNV-1a over the mixed-in words; enough to detect accidental reuse of a
/// cache against a different problem (not a cryptographic guarantee).
class Fnv {
 public:
  void mix(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (byte * 8)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }

  void mix(const std::string& s) noexcept {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
    mix(s.size());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Identity of one (normalised) flow as far as the Smax fixed point is
/// concerned: route, per-position costs, period, jitter, class.  The
/// deadline is deliberately excluded — it only affects verdicts, never
/// the table, so a deadline-only change keeps warm starts sound.
std::uint64_t flow_fingerprint(const model::SporadicFlow& f) {
  Fnv h;
  h.mix(f.name());
  for (const NodeId node : f.path().nodes()) h.mix(static_cast<std::uint64_t>(node));
  for (const Duration c : f.costs()) h.mix(static_cast<std::uint64_t>(c));
  h.mix(static_cast<std::uint64_t>(f.period()));
  h.mix(static_cast<std::uint64_t>(f.jitter()));
  h.mix(static_cast<std::uint64_t>(f.service_class()));
  return h.value();
}

/// Everything besides the flows that shapes the fixed point: the network
/// and the analysis configuration (workers excluded — it never changes
/// the result).
std::uint64_t context_fingerprint(const model::Network& net,
                                  const Config& cfg) {
  Fnv h;
  h.mix(static_cast<std::uint64_t>(net.node_count()));
  h.mix(static_cast<std::uint64_t>(net.lmin()));
  h.mix(static_cast<std::uint64_t>(net.lmax()));
  for (const auto& [link, bounds] : net.link_overrides()) {
    h.mix(static_cast<std::uint64_t>(link.first));
    h.mix(static_cast<std::uint64_t>(link.second));
    h.mix(static_cast<std::uint64_t>(bounds.first));
    h.mix(static_cast<std::uint64_t>(bounds.second));
  }
  h.mix(static_cast<std::uint64_t>(cfg.smax_semantics));
  h.mix(static_cast<std::uint64_t>(cfg.ef_mode));
  h.mix(static_cast<std::uint64_t>(cfg.split_jitter));
  h.mix(static_cast<std::uint64_t>(cfg.divergence_ceiling));
  h.mix(cfg.max_smax_iterations);
  h.mix(static_cast<std::uint64_t>(cfg.exhaustive_sweep_limit));
  h.mix(static_cast<std::uint64_t>(cfg.max_sweep_candidates));
  return h.value();
}

}  // namespace

Result run_analysis(const model::FlowSet& set, AnalysisCache& cache,
                    const Config& cfg, obs::Telemetry* telemetry,
                    const char* root_span) {
  TFA_EXPECTS(!set.empty());
  const auto issues = set.validate();
  TFA_EXPECTS_MSG(issues.empty(), issues.front().message.c_str());

  // Result::stats is this run's own EngineStats sink, into which the
  // engine adds its work on top of the cache hits/misses counted here.
  // A caller's telemetry additionally receives spans, series and the same
  // totals; without one, no telemetry work is done at all.
  obs::Span root = obs::span(telemetry, root_span);

  const model::NormalisationReport norm = [&] {
    obs::Span norm_span = obs::span(telemetry, "trajectory.normalise");
    return model::normalise(set, cfg.split_jitter);
  }();
  const model::FlowSet& fs = norm.flow_set;
  const std::size_t n = fs.size();
  const std::uint64_t context = context_fingerprint(set.network(), cfg);

  EngineStats stats;

  // ---- Warm-start validity: every cached row must correspond to an
  // unchanged flow of the new normalised set, i.e. the cached run covered
  // a SUBSET of the new flows under the same network/config.  Then the
  // cached table underestimates the new least fixed point (adding flows
  // only adds interference) and remains a pre-fixed point — the
  // monotonicity argument in docs/math.md.  A removal or modification
  // breaks the subset relation, so the whole cache is discarded.
  // One hash lookup per new flow: the names of a validated set are
  // unique, so the rows are a subset exactly when every row found matches
  // its flow's fingerprint and every row is found.
  bool warm = !cache.rows_.empty() && cache.context_ == context;
  if (warm) {
    std::size_t matched = 0;
    for (std::size_t i = 0; i < n && warm; ++i) {
      const model::SporadicFlow& f = fs.flow(static_cast<FlowIndex>(i));
      const auto it = cache.rows_.find(f.name());
      if (it == cache.rows_.end()) continue;
      warm = flow_fingerprint(f) == it->second.fingerprint;
      ++matched;
    }
    warm = warm && matched == cache.rows_.size();
  }

  // Seed rows resolved up front so the engine's hook is just a lookup.
  // Only the analysed flows carry Smax rows.
  EngineRoles roles = default_roles(fs, cfg);
  std::vector<const std::vector<Duration>*> seed(n, nullptr);
  EngineOptions opts;
  opts.stats = &stats;
  opts.telemetry = telemetry;
  if (warm) {
    for (std::size_t i = 0; i < n; ++i) {
      if (roles.rank[i] >= roles.analysed) continue;
      const model::SporadicFlow& f = fs.flow(static_cast<FlowIndex>(i));
      const auto it = cache.rows_.find(f.name());
      if (it != cache.rows_.end() && !it->second.smax.empty()) {
        TFA_ASSERT(it->second.smax.size() == f.path().size());
        seed[i] = &it->second.smax;
        ++stats.cache_hits;
      } else {
        ++stats.cache_misses;  // newly added flow: cold row
      }
    }
    opts.warm_seed = [&seed](FlowIndex i, std::size_t pos) {
      const auto* row = seed[static_cast<std::size_t>(i)];
      return row != nullptr ? (*row)[pos] : Duration{-1};
    };
  } else if (!cache.rows_.empty()) {
    // Invalidated: every analysable flow restarts from the cold seed.
    for (std::size_t i = 0; i < n; ++i)
      if (roles.rank[i] < roles.analysed) ++stats.cache_misses;
  }
  if (telemetry != nullptr) {
    telemetry->metrics.counter("trajectory.cache_hits") +=
        static_cast<std::int64_t>(stats.cache_hits);
    telemetry->metrics.counter("trajectory.cache_misses") +=
        static_cast<std::int64_t>(stats.cache_misses);
  }

  const Engine engine(fs, cfg, std::move(roles), opts);

  // ---- Refresh the cache with this run's state.  Unconverged tables are
  // cached too: every Kleene iterate from a pre-fixed point is itself a
  // pre-fixed point, so they stay sound warm seeds.  Background flows (EF
  // mode) carry no Smax row but ARE fingerprinted — their removal lowers
  // the delta term, so it must invalidate the cache like any other
  // removal.
  cache.rows_.clear();
  cache.context_ = context;
  for (std::size_t i = 0; i < n; ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const model::SporadicFlow& f = fs.flow(fi);
    AnalysisCache::Row row;
    row.fingerprint = flow_fingerprint(f);
    if (engine.analysable(fi)) {
      row.smax.reserve(f.path().size());
      for (std::size_t k = 0; k < f.path().size(); ++k)
        row.smax.push_back(engine.smax(fi, k));
    }
    cache.rows_.emplace(f.name(), std::move(row));
  }

  Result result = [&] {
    obs::Span compose_span = obs::span(telemetry, "trajectory.compose");
    return compose(set, norm, engine);
  }();
  result.stats = stats;
  return result;
}

Result analyze(const model::FlowSet& set, const Config& cfg,
               obs::Telemetry* telemetry) {
  // An empty cache never seeds and counts no hits or misses, so this is
  // the cold run, bit for bit.
  AnalysisCache cache;
  return run_analysis(set, cache, cfg, telemetry, "trajectory.analyze");
}

Result reanalyze_with(const model::FlowSet& set, AnalysisCache& cache,
                      const Config& cfg, obs::Telemetry* telemetry) {
  return run_analysis(set, cache, cfg, telemetry, "trajectory.reanalyze");
}

}  // namespace tfa::trajectory

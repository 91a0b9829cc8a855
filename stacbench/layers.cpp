// Per-layer probes: each times calls into one module's public functions on
// the workload's own inputs (its pairing, its calibrated library and model).
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "cachesim/cache_hierarchy.hpp"
#include "obs/trace.hpp"
#include "profiler/stratified_sampler.hpp"
#include "queueing/ggk_simulator.hpp"
#include "queueing/testbed.hpp"
#include "serve/serving_model.hpp"

namespace stacbench {

using namespace stac;

namespace {

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// The pairing's two access streams interleaved reference by reference.
struct AccessTrace {
  std::vector<cachesim::MemoryAccess> refs;
  std::vector<cachesim::ClassId> classes;
};

AccessTrace pairing_trace(const profiler::Profiler& profiler,
                          wl::Benchmark primary, wl::Benchmark collocated,
                          std::uint64_t seed, std::size_t n) {
  AccessTrace t;
  auto a = profiler.model(primary).make_stream(0, seed);
  auto b = profiler.model(collocated).make_stream(1, seed + 1);
  t.refs.reserve(n);
  t.classes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool first = i % 2 == 0;
    t.refs.push_back(first ? a->next() : b->next());
    t.classes.push_back(first ? 0 : 1);
  }
  return t;
}

/// Maccess/s of replay() on `hw` after one warm-up pass, median of `reps`;
/// `llc_miss_ratio` receives the LLC miss ratio of the warm passes.
double replay_rate(const cachesim::HierarchyConfig& hw, const AccessTrace& t,
                   int reps, double* llc_miss_ratio) {
  cachesim::CacheHierarchy h(hw, 2);
  (void)h.replay(t.refs.data(), t.classes.data(), t.refs.size());
  std::vector<cachesim::CounterSnapshot> warm{h.counters(0), h.counters(1)};
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    STAC_TRACE_SPAN(span, "bench.replay", "cachesim");
    const auto t0 = Clock::now();
    (void)h.replay(t.refs.data(), t.classes.data(), t.refs.size());
    rates.push_back(static_cast<double>(t.refs.size()) / 1e6 /
                    seconds_since(t0));
  }
  if (llc_miss_ratio != nullptr) {
    using cachesim::Counter;
    double accesses = 0.0, misses = 0.0;
    for (cachesim::ClassId c = 0; c < 2; ++c) {
      const cachesim::CounterSnapshot d = h.counters(c).delta_since(warm[c]);
      accesses += static_cast<double>(d.get(Counter::kLlcLoads) +
                                      d.get(Counter::kLlcStores));
      misses += static_cast<double>(d.get(Counter::kLlcLoadMisses) +
                                    d.get(Counter::kLlcStoreMisses));
    }
    *llc_miss_ratio = accesses > 0.0 ? misses / accesses : 0.0;
  }
  return percentile(rates, 0.5);
}

/// Copy of `p` with a distinct condition identity (the library dedups by
/// exact condition), as a newly merged profile would arrive.
profiler::Profile perturbed(const profiler::Profile& p, std::size_t k) {
  profiler::Profile q = p;
  q.condition.timeout_primary += 1e-7 * static_cast<double>(k + 1);
  return q;
}

}  // namespace

void probe_offline_layers(const ProbeInputs& in, Checks& checks,
                          std::vector<Metric>& out) {
  const core::StacManager& manager = *in.manager;
  const profiler::Profiler& prof = manager.profiler();
  const core::StacOptions& opts = *in.options;
  const auto& grid = opts.explorer.grid;
  const int reps = in.tiny ? 1 : 3;
  Rng rng(in.seed * 7919 + 17);
  std::vector<profiler::RuntimeCondition> conditions;
  for (int k = 0; k < (in.tiny ? 2 : 6); ++k)
    conditions.push_back(
        held_out_condition(in.primary, in.collocated, rng, grid));

  // profiler: the Stage-1 sampler, and single conditions.
  std::vector<double> collect_s;
  for (int r = 0; r < reps; ++r) {
    profiler::SamplerConfig sc = opts.sampler;
    sc.seed = in.seed + 1000 + static_cast<std::uint64_t>(r);
    profiler::StratifiedSampler sampler(prof, sc);
    STAC_TRACE_SPAN(span, "bench.collect", "profiler");
    const auto t0 = Clock::now();
    const auto profiles = sampler.collect(in.primary, in.collocated, 4);
    collect_s.push_back(seconds_since(t0));
    checks.expect(!profiles.empty(), "StratifiedSampler::collect returned none");
  }
  std::vector<double> condition_ms;
  for (const auto& c : conditions) {
    STAC_TRACE_SPAN(span, "bench.profile_condition", "profiler");
    const auto t0 = Clock::now();
    const auto rows = prof.profile_condition(c);
    condition_ms.push_back(ms_since(t0));
    checks.expect(!rows.empty(), "profile_condition returned no rows");
  }
  out.push_back({"profiler.collect_s", percentile(collect_s, 0.5), "s"});
  out.push_back(
      {"profiler.condition_ms_p50", percentile(condition_ms, 0.5), "ms"});

  // queueing: the ground-truth testbed and the Stage-3 G/G/k simulator.
  std::vector<double> testbed_ms;
  double completions = 0.0, testbed_s = 0.0;
  for (const auto& c : conditions) {
    std::vector<std::unique_ptr<wl::WorkloadModel>> owned;
    const queueing::TestbedConfig cfg = prof.make_testbed_config(
        c, c.timeout_primary, c.timeout_collocated, owned);
    queueing::Testbed bed(cfg);
    STAC_TRACE_SPAN(span, "bench.testbed", "queueing");
    const auto t0 = Clock::now();
    const queueing::TestbedResult res = bed.run();
    const double s = seconds_since(t0);
    testbed_ms.push_back(s * 1e3);
    testbed_s += s;
    for (const auto& w : res.per_workload)
      completions += static_cast<double>(w.completed);
  }
  out.push_back({"queueing.testbed_ms_p50", percentile(testbed_ms, 0.5), "ms"});
  out.push_back({"queueing.testbed_completions_per_s",
                 testbed_s > 0.0 ? completions / testbed_s : 0.0, "1/s"});

  // Configs shaped like one sweep cell row: the predictor's query count,
  // every grid timeout, a boosted rate above the default.
  double jobs = 0.0, ggk_s = 0.0;
  for (const auto& c : conditions) {
    for (const double timeout : grid) {
      queueing::GGkConfig g;
      g.utilization = c.util_primary;
      g.service_cv = 0.7;
      g.timeout_rel = timeout;
      g.effective_allocation = 0.8;
      g.allocation_ratio = 2.0;
      g.queries = opts.predictor.sim_queries;
      g.warmup = opts.predictor.sim_warmup;
      g.seed = opts.predictor.seed;
      STAC_TRACE_SPAN(span, "bench.ggk", "queueing");
      const auto t0 = Clock::now();
      const queueing::GGkResult res = queueing::simulate_ggk(g);
      ggk_s += seconds_since(t0);
      jobs += static_cast<double>(g.queries + g.warmup);
      checks.expect(res.completed > 0, "simulate_ggk completed no queries");
    }
  }
  out.push_back(
      {"queueing.ggk_jobs_per_s", ggk_s > 0.0 ? jobs / ggk_s : 0.0, "1/s"});

  // cachesim / memtime: the pairing's access streams, untimed and timed.
  const AccessTrace trace =
      pairing_trace(prof, in.primary, in.collocated, in.seed,
                    in.tiny ? 100'000 : 2'000'000);
  double llc_miss_ratio = 0.0;
  out.push_back({"cachesim.replay_maccess_per_s",
                 replay_rate(cachesim::presets::xeon_e5_2683(), trace, reps,
                             &llc_miss_ratio),
                 "Maccess/s"});
  out.push_back({"cachesim.llc_miss_ratio", llc_miss_ratio, "ratio"});
  out.push_back({"memtime.timed_replay_maccess_per_s",
                 replay_rate(cachesim::presets::sapphire_rapids_48mb(), trace,
                             reps, nullptr),
                 "Maccess/s"});

  // ml: Stage-2 fits on the workload's library, inference, warm refits.
  const std::vector<profiler::Profile>& library = manager.library().profiles();
  core::EaModel primary(opts.model);
  auto t0 = Clock::now();
  primary.fit(library);
  out.push_back({"ml.ea_fit_s", seconds_since(t0), "s"});
  core::EaModel fallback(serve::linear_fallback_config());
  t0 = Clock::now();
  fallback.fit(library);
  out.push_back({"ml.fallback_fit_s", seconds_since(t0), "s"});
  checks.expect(primary.trained() && fallback.trained(),
                "EaModel::fit left a model untrained");
  std::vector<double> predict_us;
  for (const profiler::Profile& p : library) {
    const ml::ProfileSample sample = primary.make_sample(p);
    t0 = Clock::now();
    const double ea = primary.predict(sample);
    predict_us.push_back(seconds_since(t0) * 1e6);
    checks.expect(std::isfinite(ea) && ea > 0.0 && ea <= 1.0,
                  "EaModel::predict outside (0, 1]");
  }
  out.push_back({"ml.ea_predict_us_p50", percentile(predict_us, 0.5), "us"});
  std::vector<profiler::Profile> grown = library;
  std::vector<double> refit_ms;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < 4; ++k)
      grown.push_back(perturbed(library[k % library.size()], grown.size()));
    t0 = Clock::now();
    primary.refit_incremental(grown);
    refit_ms.push_back(ms_since(t0));
  }
  out.push_back(
      {"ml.refit_incremental_ms_p50", percentile(refit_ms, 0.5), "ms"});

  // core: Stage-3 predictions and cold §5.2 sweeps through the manager.
  std::vector<double> predict_ms;
  double degraded = 0.0;
  for (const auto& c : conditions) {
    STAC_TRACE_SPAN(span, "bench.predict", "core");
    t0 = Clock::now();
    const core::RtPrediction pred = manager.predict(c);
    predict_ms.push_back(ms_since(t0));
    if (pred.rung != core::DegradationRung::kPrimaryModel) degraded += 1.0;
    checks.op(pred.rung != core::DegradationRung::kPrimaryModel);
  }
  out.push_back({"core.predict_ms_p50", percentile(predict_ms, 0.5), "ms"});
  out.push_back({"core.degraded_frac",
                 degraded / static_cast<double>(conditions.size()), "ratio"});
  double cells = 0.0, sweep_s = 0.0;
  for (int r = 0; r < 2; ++r) {
    profiler::RuntimeCondition c =
        held_out_condition(in.primary, in.collocated, rng, grid);
    STAC_TRACE_SPAN(span, "bench.recommend", "core");
    t0 = Clock::now();
    const core::PolicyExploration rec = manager.recommend(c);
    sweep_s += seconds_since(t0);
    cells += static_cast<double>(rec.cells_simulated + rec.cells_reused);
  }
  out.push_back({"core.sweep_cells_per_s",
                 sweep_s > 0.0 ? cells / sweep_s : 0.0, "1/s"});
}

}  // namespace stacbench

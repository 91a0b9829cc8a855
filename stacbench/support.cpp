#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace stacbench {

using namespace stac;

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

bool on_grid(double v, const std::vector<double>& grid) {
  return std::any_of(grid.begin(), grid.end(), [v](double g) {
    return std::bit_cast<std::uint64_t>(g) == std::bit_cast<std::uint64_t>(v);
  });
}

core::StacOptions quickstart_options(std::uint64_t seed, bool tiny) {
  core::StacOptions opts;
  opts.profile_budget = 16;
  opts.profiler.target_completions = 700;
  opts.model.deep_forest.mgs.window_sizes = {5, 10};
  opts.model.deep_forest.mgs.estimators = 15;
  opts.model.deep_forest.cascade.levels = 2;
  opts.model.deep_forest.cascade.estimators = 30;
  if (tiny) {
    opts.profile_budget = 4;  // the sampler's minimum
    opts.profiler.target_completions = 200;
    opts.profiler.max_windows = 1;
    opts.profiler.accesses_per_sample = 800;
    opts.model.deep_forest.mgs.window_sizes = {5};
    opts.model.deep_forest.mgs.estimators = 4;
    opts.model.deep_forest.cascade.levels = 1;
    opts.model.deep_forest.cascade.estimators = 6;
    opts.predictor.sim_queries = 1000;
  }
  opts.sampler.seed = seed;
  return opts;
}

core::StacOptions serving_options(std::uint64_t seed, bool tiny) {
  core::StacOptions opts;
  opts.profile_budget = tiny ? 4 : 20;
  opts.profiler.target_completions = tiny ? 200 : 500;
  opts.profiler.warmup_completions = 40;
  opts.profiler.max_windows = 1;
  opts.profiler.accesses_per_sample = 800;
  opts.model.deep_forest.mgs.window_sizes = {5};
  opts.model.deep_forest.mgs.estimators = 8;
  opts.model.deep_forest.cascade.levels = 1;
  opts.model.deep_forest.cascade.estimators = 12;
  opts.predictor.sim_queries = tiny ? 1000 : 3000;
  opts.sampler.seed = seed;
  return opts;
}

profiler::RuntimeCondition held_out_condition(wl::Benchmark primary,
                                              wl::Benchmark collocated,
                                              Rng& rng,
                                              const std::vector<double>& grid) {
  profiler::RuntimeCondition c =
      profiler::random_condition(primary, collocated, {}, rng);
  c.timeout_primary = grid[rng.uniform_index(grid.size())];
  c.timeout_collocated = grid[rng.uniform_index(grid.size())];
  return c;
}

void score_predictions(const core::StacManager& manager,
                       const std::vector<profiler::RuntimeCondition>& conditions,
                       Checks& checks, Quality& quality, Digest& digest) {
  for (const auto& c : conditions) {
    const core::RtPrediction pred = manager.predict(c);
    const queueing::TestbedResult truth =
        manager.evaluate(c, c.timeout_primary, c.timeout_collocated, 1500);
    const double measured = truth.mean_rt(0);
    const bool finite = std::isfinite(pred.mean_rt) &&
                        std::isfinite(pred.p95_rt) && std::isfinite(measured) &&
                        measured > 0.0;
    checks.expect(finite, "non-finite prediction or testbed mean RT for " +
                              c.to_string());
    checks.op(pred.rung != core::DegradationRung::kPrimaryModel);
    if (finite)
      quality.rt_ape_pct.push_back(100.0 * std::abs(pred.mean_rt - measured) /
                                   measured);
    digest.add(pred.mean_rt);
    digest.add(measured);
  }
}

void score_selection(const core::StacManager& manager,
                     const profiler::RuntimeCondition& condition,
                     double timeout_primary, double timeout_collocated,
                     const std::vector<double>& grid, Checks& checks,
                     Quality& quality, Digest& digest) {
  checks.expect(on_grid(timeout_primary, grid) &&
                    on_grid(timeout_collocated, grid),
                "recommended timeouts off the explorer grid");
  const queueing::TestbedResult base =
      manager.evaluate(condition, 6.0, 6.0, 1500);
  const queueing::TestbedResult chosen = manager.evaluate(
      condition, timeout_primary, timeout_collocated, 1500);
  for (std::size_t w = 0; w < 2; ++w) {
    const double gain = base.p95_rt(w) / chosen.p95_rt(w);
    checks.expect(std::isfinite(gain) && gain > 0.0,
                  "non-finite testbed p95 for " + condition.to_string());
    if (std::isfinite(gain) && gain > 0.0) quality.p95_gains.push_back(gain);
    digest.add(gain);
  }
  digest.add(timeout_primary);
  digest.add(timeout_collocated);
}

void score_recommendation(const core::StacManager& manager,
                          const profiler::RuntimeCondition& condition,
                          const std::vector<double>& grid, Checks& checks,
                          Quality& quality, Digest& digest) {
  const core::PolicyExploration rec = manager.recommend(condition);
  score_selection(manager, condition, rec.selection.timeout_primary,
                  rec.selection.timeout_collocated, grid, checks, quality,
                  digest);
}

const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> layers{
      "profiler", "ml", "core", "queueing", "serve", "fleet"};
  return layers;
}

namespace {

/// Span category -> stac module.  The benchmark's own spans use the module
/// name directly; the library's categories are mapped onto their modules.
std::string layer_of(const std::string& cat) {
  if (cat == "explore" || cat == "stac") return "core";
  return cat;
}

}  // namespace

std::map<std::string, double> self_seconds_by_layer() {
  std::vector<obs::TraceEvent> events = obs::TraceBuffer::global().snapshot();
  std::erase_if(events, [](const obs::TraceEvent& e) {
    return e.phase != obs::TraceEvent::Phase::kComplete;
  });
  // Per thread, spans nest (RAII scopes), so a start-ordered sweep with a
  // stack of open spans finds each span's parent.
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  std::vector<double> covered(events.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!open.empty()) {
      const auto& top = events[open.back()];
      if (top.tid == e.tid && top.ts_us + top.dur_us > e.ts_us) break;
      open.pop_back();
    }
    if (!open.empty()) {
      const auto& parent = events[open.back()];
      const std::uint64_t end =
          std::min(parent.ts_us + parent.dur_us, e.ts_us + e.dur_us);
      covered[open.back()] += static_cast<double>(end - e.ts_us);
    }
    open.push_back(i);
  }
  std::map<std::string, double> self;
  for (const std::string& layer : traced_layers()) self[layer] = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double own =
        std::max(0.0, static_cast<double>(events[i].dur_us) - covered[i]);
    self[layer_of(events[i].cat)] += own * 1e-6;
  }
  return self;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace stacbench

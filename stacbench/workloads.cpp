// The three benchmark workloads.  Each measured pass is a fixed unit of
// work decided by the seed, built from state its own set-up repetition
// prepared, so passes repeat bit-for-bit and only host times differ.
#include <algorithm>
#include <cmath>
#include <limits>

#include "bench.hpp"
#include "fleet/fleet_coordinator.hpp"
#include "obs/trace.hpp"
#include "serve/refit_executor.hpp"
#include "serve/traffic_replay.hpp"

namespace stacbench {

using namespace stac;

namespace {

double elapsed_ms(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Held-out predictions scored against the testbed: the full set in traced
/// runs (which report rt_ape), a few otherwise (rung and finiteness checks).
int held_out_count(const RunArgs& args) {
  return args.tiny ? 2 : args.trace ? 40 : 4;
}

void digest_labels(const core::ProfileLibrary& library, Digest& digest) {
  for (const profiler::Profile& p : library.profiles()) {
    digest.add(p.ea);
    digest.add(p.ea_boost);
  }
}

// --- calibrate -------------------------------------------------------------

struct Pairing {
  wl::Benchmark primary;
  wl::Benchmark collocated;
  bool modeled_time;
};

// kmeans+redis: high reuse beside low reuse; jacobi+bfs: HPC working sets;
// social+redis: the 36-service DAG on the timed preset with modeled-time EA.
constexpr Pairing kPairings[] = {
    {wl::Benchmark::kKmeans, wl::Benchmark::kRedis, false},
    {wl::Benchmark::kJacobi, wl::Benchmark::kBfs, false},
    {wl::Benchmark::kSocial, wl::Benchmark::kRedis, true},
};

core::StacOptions pairing_options(std::size_t i, const RunArgs& args) {
  core::StacOptions opts = quickstart_options(args.seed * 3 + i, args.tiny);
  if (kPairings[i].modeled_time) {
    opts.profiler.hw = cachesim::presets::sapphire_rapids_48mb();
    opts.profiler.ea_mode = profiler::EaMode::kModeledTime;
  }
  return opts;
}

class CalibrateWorkload final : public Workload {
 public:
  explicit CalibrateWorkload(RunArgs args) : args_(std::move(args)) {}

  // Set-up warms the process (pool threads, allocator, code) with a
  // minimum-budget calibration, so the first measured pass is not the one
  // that pays for it.
  void setup(Checks& checks) override {
    core::StacOptions opts = quickstart_options(args_.seed, args_.tiny);
    opts.profile_budget = 4;  // the sampler's minimum
    core::StacManager warm(opts);
    warm.calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
    checks.expect(warm.calibrated(), "warm-up calibration failed");
    ready_ = true;
  }

  [[nodiscard]] double nominal_pass_seconds() const override { return 5.0; }
  [[nodiscard]] std::size_t passes_left() const override {
    return ready_ ? std::numeric_limits<std::size_t>::max() : 0;
  }

  // One operation = three back-to-back calibrate() runs.  Only the latest
  // pass's managers stay alive, so memory does not grow with passes.
  PassResult pass(Checks& checks) override {
    PassResult out;
    Digest digest;
    double round_ms = 0.0;
    managers_.clear();
    options_.clear();
    for (std::size_t i = 0; i < std::size(kPairings); ++i) {
      const Pairing& p = kPairings[i];
      const core::StacOptions opts = pairing_options(i, args_);
      auto manager = std::make_unique<core::StacManager>(opts);
      const auto t0 = Clock::now();
      {
        STAC_TRACE_SPAN(span, "bench.calibrate", "core");
        manager->calibrate(p.primary, p.collocated);
      }
      round_ms += elapsed_ms(t0);
      checks.op(false);

      const std::size_t profiles = manager->library().size();
      const std::size_t max_profiles =
          2 * opts.profile_budget * opts.profiler.max_windows;
      checks.expect(profiles >= 2 && profiles <= max_profiles,
                    "calibrate produced " + std::to_string(profiles) +
                        " profiles, expected 2.." +
                        std::to_string(max_profiles));
      checks.expect(manager->model().trained() &&
                        !manager->primary_model_degraded(),
                    "calibrate left no trained primary model");
      digest.add(static_cast<std::uint64_t>(profiles));
      digest_labels(manager->library(), digest);

      Rng rng(args_.seed * 101 + i);
      for (int k = 0; k < 3; ++k) {
        const core::RtPrediction pred = manager->predict(held_out_condition(
            p.primary, p.collocated, rng, opts.explorer.grid));
        checks.expect(std::isfinite(pred.mean_rt) && std::isfinite(pred.p95_rt),
                      "non-finite prediction after calibrate");
        checks.op(pred.rung != core::DegradationRung::kPrimaryModel);
        digest.add(pred.mean_rt);
      }
      options_.push_back(opts);
      managers_.push_back(std::move(manager));
    }
    out.op_ms.push_back(round_ms);
    out.digest = digest.value();
    return out;
  }

  Quality quality(Checks& checks) override {
    Quality q;
    Digest digest;
    const int held_out = args_.tiny ? 1 : args_.trace ? 14 : 2;
    const int recommended = args_.trace ? 0 : args_.tiny ? 1 : 4;
    for (std::size_t i = 0; i < managers_.size(); ++i) {
      const Pairing& p = kPairings[i];
      const auto& grid = options_[i].explorer.grid;
      Rng rng(args_.seed * 211 + i);
      std::vector<profiler::RuntimeCondition> conditions;
      for (int k = 0; k < held_out; ++k)
        conditions.push_back(
            held_out_condition(p.primary, p.collocated, rng, grid));
      score_predictions(*managers_[i], conditions, checks, q, digest);
      for (int k = 0; k < recommended; ++k)
        score_recommendation(
            *managers_[i],
            held_out_condition(p.primary, p.collocated, rng, grid), grid,
            checks, q, digest);
    }
    q.digest = digest.value();
    return q;
  }

  void layers(const PassResult&, Checks& checks,
              std::vector<Metric>& out) override {
    probe_offline_layers({managers_[0].get(), &options_[0],
                          kPairings[0].primary, kPairings[0].collocated,
                          args_.seed, args_.tiny},
                         checks, out);
    probe_fleet_layers(args_.seed, args_.tiny, checks, out);
  }

 private:
  RunArgs args_;
  bool ready_ = false;
  /// The latest pass's calibrated managers (quality and layer probes).
  std::vector<core::StacOptions> options_;
  std::vector<std::unique_ptr<core::StacManager>> managers_;
};

// --- recommend -------------------------------------------------------------

class RecommendWorkload final : public Workload {
 public:
  explicit RecommendWorkload(RunArgs args)
      : args_(std::move(args)),
        options_(quickstart_options(kModelSeed, args_.tiny)) {
    // A distinct condition leaves ~175 G/G/k results in the predictor's
    // RtPredictionCache, so 48 conditions are about twice its default
    // 4096-entry capacity: calls both hit and evict.  Utilizations are
    // stratified over [0.3, 0.9)^2 and every condition is drawn equally
    // often, so a seed moves where in each stratum a condition sits and the
    // call order, not the mix of cheap and costly calls.
    const std::size_t strata_p = args_.tiny ? 2 : 8;
    const std::size_t strata_c = args_.tiny ? 2 : 6;
    const std::size_t calls = args_.tiny ? 6 : 150;
    Rng rng(args_.seed * 7 + 3);
    for (std::size_t i = 0; i < strata_p; ++i) {
      for (std::size_t j = 0; j < strata_c; ++j) {
        profiler::RuntimeCondition c;
        c.primary = wl::Benchmark::kKmeans;
        c.collocated = wl::Benchmark::kRedis;
        c.util_primary = 0.3 + 0.6 * (static_cast<double>(i) + rng.uniform()) /
                                   static_cast<double>(strata_p);
        c.util_collocated = 0.3 + 0.6 *
                                      (static_cast<double>(j) + rng.uniform()) /
                                      static_cast<double>(strata_c);
        c.mix_primary = rng.uniform(0.8, 1.25);
        c.mix_collocated = rng.uniform(0.8, 1.25);
        c.seed = rng.next_u64();
        pool_.push_back(c);
      }
    }
    for (std::size_t i = 0; i < calls; ++i) draws_.push_back(i % pool_.size());
    rng.shuffle(draws_);
  }

  void setup(Checks& checks) override {
    auto manager = std::make_unique<core::StacManager>(options_);
    manager->calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
    checks.expect(manager->model().trained() &&
                      !manager->primary_model_degraded(),
                  "calibrate left no trained primary model");
    managers_.push_back(std::move(manager));
  }

  [[nodiscard]] double nominal_pass_seconds() const override { return 22.0; }
  [[nodiscard]] std::size_t passes_left() const override {
    return managers_.size() - next_;
  }

  // One operation = one recommend() call on a manager whose prediction
  // cache starts cold.  The previous pass's manager (and its full cache) is
  // released first, so memory does not grow with passes.
  PassResult pass(Checks& checks) override {
    if (next_ > 0) managers_[next_ - 1].reset();
    const core::StacManager& manager = *managers_[next_++];
    queueing::clear_crn_stream_cache();
    PassResult out;
    Digest digest;
    digest_labels(manager.library(), digest);
    for (const std::size_t d : draws_) {
      const auto t0 = Clock::now();
      core::PolicyExploration rec;
      {
        STAC_TRACE_SPAN(span, "bench.recommend", "core");
        rec = manager.recommend(pool_[d]);
      }
      out.op_ms.push_back(elapsed_ms(t0));
      checks.op(false);
      const double tp = rec.selection.timeout_primary;
      const double tc = rec.selection.timeout_collocated;
      checks.expect(on_grid(tp, options_.explorer.grid) &&
                        on_grid(tc, options_.explorer.grid),
                    "recommend selected a vector off the explorer grid");
      digest.add(tp);
      digest.add(tc);
      selections_.emplace(d, std::make_pair(tp, tc));
    }
    out.digest = digest.value();
    return out;
  }

  Quality quality(Checks& checks) override {
    Quality q;
    Digest digest;
    Rng rng(args_.seed * 211);
    std::vector<profiler::RuntimeCondition> conditions;
    for (int k = 0; k < held_out_count(args_); ++k)
      conditions.push_back(held_out_condition(wl::Benchmark::kKmeans,
                                              wl::Benchmark::kRedis, rng,
                                              options_.explorer.grid));
    score_predictions(current(), conditions, checks, q, digest);
    // The Fig. 8 quantity over a fixed subset: the first pool conditions
    // the pass recommended for, at the vectors it chose.
    const std::size_t gains = args_.trace ? 0 : args_.tiny ? 2 : 16;
    std::size_t scored = 0;
    for (const auto& [index, selection] : selections_) {
      if (scored++ == gains) break;
      score_selection(current(), pool_[index], selection.first,
                      selection.second, options_.explorer.grid, checks, q,
                      digest);
    }
    q.digest = digest.value();
    return q;
  }

  void layers(const PassResult&, Checks& checks,
              std::vector<Metric>& out) override {
    probe_offline_layers({&current(), &options_, wl::Benchmark::kKmeans,
                          wl::Benchmark::kRedis, args_.seed, args_.tiny},
                         checks, out);
    probe_fleet_layers(args_.seed, args_.tiny, checks, out);
  }

 private:
  /// The manager of the latest pass.
  [[nodiscard]] const core::StacManager& current() const {
    return *managers_[next_ == 0 ? 0 : next_ - 1];
  }

  RunArgs args_;
  core::StacOptions options_;
  std::vector<profiler::RuntimeCondition> pool_;
  std::vector<std::size_t> draws_;
  std::vector<std::unique_ptr<core::StacManager>> managers_;
  std::size_t next_ = 0;
  /// Pool index -> selected (primary, collocated) timeouts.
  std::map<std::size_t, std::pair<double, double>> selections_;
};

// --- fleet_serve -----------------------------------------------------------

constexpr std::size_t kShards = 16;
constexpr double kEpochSeconds = 2.0;

/// Everything one fleet pass runs on.  Members are destroyed in reverse
/// order: the replays and the coordinator go before the executor, the
/// executor before the model snapshot and the manager it reads.
struct FleetRig {
  core::StacOptions options;
  std::unique_ptr<core::StacManager> manager;
  std::vector<profiler::Profile> held_back;
  serve::ModelSnapshot<serve::ServingModel> models;
  std::unique_ptr<serve::RefitExecutor> refits;
  std::unique_ptr<fleet::FleetCoordinator> fleet;
  std::vector<std::unique_ptr<serve::TrafficReplay>> replays;
};

struct FleetShape {
  std::size_t epochs;
  std::size_t refit_every;
};

/// Calibrate, hold back every other profile, prime the executor's masters
/// with a cold fit on the rest, and wire 16 shards with closed-loop
/// replays.  `pool` null = the global pool.
std::unique_ptr<FleetRig> build_fleet_rig(std::uint64_t seed, bool tiny,
                                          ThreadPool* pool, Checks& checks) {
  auto rig = std::make_unique<FleetRig>();
  rig->options = serving_options(kModelSeed, tiny);
  rig->manager = std::make_unique<core::StacManager>(rig->options);
  rig->manager->calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
  checks.expect(rig->manager->model().trained(),
                "fleet calibration left no trained primary model");

  core::ProfileLibrary initial;
  const auto& profiles = rig->manager->library().profiles();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (i % 2 == 0)
      initial.add(profiles[i]);
    else
      rig->held_back.push_back(profiles[i]);
  }
  serve::RefitExecutorConfig rc;
  rc.model = rig->options.model;
  rc.predictor = rig->options.predictor;
  rc.full_refit_every = 0;  // every merge after the priming fit is warm
  // No worker thread is started: refits run inline on the caller, in order.
  rig->refits = std::make_unique<serve::RefitExecutor>(
      rig->manager->profiler(), rig->models, std::move(initial), rc);
  (void)rig->refits->refit_now(core::ProfileLibrary{}, /*force_cold=*/true);

  fleet::FleetConfig cfg;
  cfg.shards = kShards;
  cfg.shard.servers = 2;
  cfg.shard.estimator.min_completions = 10;
  cfg.planner.base_condition.primary = wl::Benchmark::kKmeans;
  cfg.planner.base_condition.collocated = wl::Benchmark::kRedis;
  cfg.planner.base_condition.util_primary = 0.6;
  cfg.planner.base_condition.util_collocated = 0.6;
  cfg.planner.base_condition.timeout_primary = 1.0;
  cfg.planner.base_condition.timeout_collocated = 1.0;
  cfg.planner.base_condition.seed = 99;
  cfg.planner.explorer = rig->options.explorer;
  cfg.planner.explorer.pool = pool;
  cfg.planner.util_quantum = 0.1;
  cfg.planner.probe_ttl_epochs = 5;
  cfg.refit = rig->refits.get();
  rig->fleet = std::make_unique<fleet::FleetCoordinator>(rig->models, cfg);

  // Sinusoidal open-loop Poisson load on both workloads, in simulated
  // time; each shard's replay reads back that shard's applied timeouts.
  // The amplitudes keep cold sweeps (new quantized cells, and the re-sweep
  // after each refit publish) near 4% of epochs, so epoch p90 measures the
  // memoized path and p99 the cold sweeps.
  const double mean_service = tiny ? 0.02 : 0.002;
  for (std::size_t s = 0; s < kShards; ++s) {
    serve::ReplayConfig traffic;
    traffic.workloads = {{.mean_service = mean_service,
                          .servers = 2,
                          .base_util = 0.6,
                          .util_amplitude = 0.1,
                          .util_period = 120.0},
                         {.mean_service = mean_service,
                          .servers = 2,
                          .base_util = 0.55,
                          .util_amplitude = 0.08,
                          .util_period = 180.0}};
    traffic.seed = seed * 1000003 + s;
    rig->replays.push_back(std::make_unique<serve::TrafficReplay>(
        rig->fleet->shard(s).ingest(), &rig->fleet->shard(s), traffic));
  }
  return rig;
}

/// Run `shape.epochs` control epochs on a rig.  One operation = one
/// run_epoch; traffic generation and library merges are timed apart.
PassResult run_fleet(FleetRig& rig, FleetShape shape, Checks& checks) {
  queueing::clear_crn_stream_cache();
  fleet::FleetCoordinator& fleet = *rig.fleet;
  const auto& grid = rig.options.explorer.grid;
  PassResult out;
  Digest digest;
  digest_labels(rig.manager->library(), digest);
  std::vector<double> plan_ms, nonplan_ms, refit_ms;
  double generate_s = 0.0;
  double epoch_s = 0.0;
  std::uint64_t cold = 0, holds = 0, drained = 0;
  std::uint64_t cells_simulated = 0, cells_reused = 0, drops_seen = 0;
  serve::ReplayStats traffic;
  std::size_t next_slice = 0;
  for (std::size_t k = 0; k < shape.epochs; ++k) {
    const double t0 = static_cast<double>(k) * kEpochSeconds;
    const auto g0 = Clock::now();
    {
      STAC_TRACE_SPAN(span, "bench.replay", "serve");
      for (auto& replay : rig.replays) {
        const serve::ReplayStats s = replay->generate(t0, t0 + kEpochSeconds);
        traffic.arrivals += s.arrivals;
        traffic.timeouts += s.timeouts;
        traffic.completions += s.completions;
        traffic.push_failures += s.push_failures;
      }
    }
    generate_s += seconds_since(g0);

    const auto e0 = Clock::now();
    fleet::FleetEpochReport r;
    {
      STAC_TRACE_SPAN(span, "bench.run_epoch", "fleet");
      r = fleet.run_epoch(t0 + kEpochSeconds);
    }
    const double ms = elapsed_ms(e0);
    epoch_s += ms * 1e-3;
    out.op_ms.push_back(ms);
    plan_ms.push_back(r.plan_seconds * 1e3);
    nonplan_ms.push_back(ms - r.plan_seconds * 1e3);
    drained += r.events_drained;
    if (r.cells_simulated > 0) ++cold;
    cells_simulated += r.cells_simulated;
    cells_reused += r.cells_reused;

    std::uint64_t drops = 0;
    for (std::size_t s = 0; s < fleet.shard_count(); ++s)
      drops += fleet.shard(s).ingest().dropped();
    const bool held =
        r.stale_hold || r.deadline_miss || r.model_unavailable_hold;
    if (held) ++holds;
    checks.op(held || drops > drops_seen);
    drops_seen = drops;
    checks.expect(std::isfinite(r.timeout_primary) &&
                      std::isfinite(r.timeout_collocated) &&
                      on_grid(r.timeout_primary, grid) &&
                      on_grid(r.timeout_collocated, grid),
                  "epoch " + std::to_string(k) +
                      " applied a timeout off the explorer grid");

    Digest epoch;
    epoch.add(r.timeout_primary);
    epoch.add(r.timeout_collocated);
    epoch.add(static_cast<std::uint64_t>(r.replanned));
    epoch.add(static_cast<std::uint64_t>(r.cells_simulated));
    out.epoch_digests.push_back(epoch.value());
    digest.add(epoch.value());

    // Writes beside reads: a held-back profile merged through the inline
    // RefitExecutor (warm refit + publish); the next epoch re-sweeps.
    if ((k + 1) % shape.refit_every == 0 && next_slice < rig.held_back.size()) {
      core::ProfileLibrary slice;
      slice.add(rig.held_back[next_slice++]);
      const auto m0 = Clock::now();
      {
        STAC_TRACE_SPAN(span, "bench.merge_library", "fleet");
        (void)fleet.merge_library(slice);
      }
      refit_ms.push_back(elapsed_ms(m0));
    }
  }

  std::uint64_t pushed = 0, popped = 0, dropped = 0;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    pushed += fleet.shard(s).ingest().pushed();
    popped += fleet.shard(s).ingest().popped();
    dropped += fleet.shard(s).ingest().dropped();
  }
  const std::uint64_t generated =
      traffic.arrivals + traffic.timeouts + traffic.completions;
  const auto& totals = fleet.totals();
  checks.expect(pushed == popped && popped == totals.events_drained &&
                    pushed == generated,
                "event accounting: generated " + std::to_string(generated) +
                    " pushed " + std::to_string(pushed) + " popped " +
                    std::to_string(popped) + " drained " +
                    std::to_string(totals.events_drained));
  checks.expect(dropped == 0 && traffic.push_failures == 0,
                "ring drops: " + std::to_string(dropped));
  checks.expect(totals.replans > 0, "the fleet never replanned");
  const serve::RefitStats refit = rig.refits->stats();
  // +1: the priming cold fit made in set-up.
  checks.expect(refit.requests == next_slice + 1 &&
                    refit.completed == refit.requests &&
                    totals.refit_requests == next_slice,
                "refits requested " + std::to_string(refit.requests) +
                    " completed " + std::to_string(refit.completed));
  digest.add(traffic.arrivals);
  digest.add(traffic.timeouts);
  digest.add(traffic.completions);
  out.digest = digest.value();

  const double epochs = static_cast<double>(shape.epochs);
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  out.layer = {
      {"fleet.epoch_nonplan_ms_p50", percentile(nonplan_ms, 0.5), "ms"},
      {"fleet.events_per_s", ratio(static_cast<double>(drained), epoch_s),
       "1/s"},
      {"serve.plan_ms_p99", percentile(plan_ms, 0.99), "ms"},
      {"serve.cold_epochs", static_cast<double>(cold), "count"},
      {"serve.memo_reuse_ratio",
       ratio(static_cast<double>(cells_reused),
             static_cast<double>(cells_simulated + cells_reused)),
       "ratio"},
      {"serve.events_per_epoch", static_cast<double>(drained) / epochs,
       "count"},
      {"serve.replay_events_per_s",
       ratio(static_cast<double>(generated), generate_s), "1/s"},
      {"serve.ring_drops", static_cast<double>(dropped), "count"},
      {"serve.holds", static_cast<double>(holds), "count"},
      {"serve.refit_ms_p50", percentile(refit_ms, 0.5), "ms"},
  };
  return out;
}

FleetShape fleet_shape(bool tiny) {
  return tiny ? FleetShape{30, 10} : FleetShape{1000, 100};
}

/// Epochs the determinism probe compares (a prefix of the pass).
std::size_t determinism_epochs(bool tiny) { return tiny ? 20 : 200; }

/// Replay the first epochs of a pass on a single-worker sweep pool and
/// count epochs whose outcome differs from `reference` (same seed, the
/// benchmark's pool).  A mismatch is reported, never hidden or failed.
double determinism_mismatches(std::uint64_t seed, bool tiny,
                              const std::vector<std::uint64_t>& reference,
                              Checks& checks) {
  ThreadPool single(1);
  auto rig = build_fleet_rig(seed, tiny, &single, checks);
  FleetShape shape = fleet_shape(tiny);
  shape.epochs = std::min(determinism_epochs(tiny), reference.size());
  const PassResult one = run_fleet(*rig, shape, checks);
  double mismatches = 0.0;
  for (std::size_t k = 0; k < shape.epochs; ++k)
    if (one.epoch_digests[k] != reference[k]) mismatches += 1.0;
  return mismatches;
}

class FleetServeWorkload final : public Workload {
 public:
  explicit FleetServeWorkload(RunArgs args) : args_(std::move(args)) {}

  void setup(Checks& checks) override {
    rigs_.push_back(build_fleet_rig(args_.seed, args_.tiny, nullptr, checks));
  }

  [[nodiscard]] double nominal_pass_seconds() const override { return 9.0; }
  [[nodiscard]] std::size_t passes_left() const override {
    return rigs_.size() - next_;
  }

  // The previous pass's rig is released first, so memory does not grow
  // with passes.
  PassResult pass(Checks& checks) override {
    if (next_ > 0) rigs_[next_ - 1].reset();
    PassResult out = run_fleet(*rigs_[next_++], fleet_shape(args_.tiny), checks);
    if (reference_.empty()) reference_ = out.epoch_digests;
    return out;
  }

  Quality quality(Checks& checks) override {
    Quality q;
    Digest digest;
    const core::StacManager& manager = *current().manager;
    const auto& grid = current().options.explorer.grid;
    Rng rng(args_.seed * 211);
    std::vector<profiler::RuntimeCondition> conditions;
    for (int k = 0; k < held_out_count(args_); ++k)
      conditions.push_back(held_out_condition(
          wl::Benchmark::kKmeans, wl::Benchmark::kRedis, rng, grid));
    score_predictions(manager, conditions, checks, q, digest);
    for (int k = 0; k < (args_.trace ? 0 : args_.tiny ? 1 : 12); ++k)
      score_recommendation(manager,
                           held_out_condition(wl::Benchmark::kKmeans,
                                              wl::Benchmark::kRedis, rng, grid),
                           grid, checks, q, digest);
    q.digest = digest.value();
    return q;
  }

  void layers(const PassResult& traced_pass, Checks& checks,
              std::vector<Metric>& out) override {
    out.insert(out.end(), traced_pass.layer.begin(), traced_pass.layer.end());
    const FleetRig& rig = current();
    probe_offline_layers({rig.manager.get(), &rig.options,
                          wl::Benchmark::kKmeans, wl::Benchmark::kRedis,
                          args_.seed, args_.tiny},
                         checks, out);
    out.push_back({"fleet.determinism_mismatch_epochs",
                   determinism_mismatches(args_.seed, args_.tiny, reference_,
                                          checks),
                   "count"});
  }

 private:
  /// The rig of the latest pass.
  [[nodiscard]] const FleetRig& current() const {
    return *rigs_[next_ == 0 ? 0 : next_ - 1];
  }

  RunArgs args_;
  std::vector<std::unique_ptr<FleetRig>> rigs_;
  std::size_t next_ = 0;
  /// Per-epoch digests of the first pass: the determinism reference.
  std::vector<std::uint64_t> reference_;
};

}  // namespace

void probe_fleet_layers(std::uint64_t seed, bool tiny, Checks& checks,
                        std::vector<Metric>& out) {
  auto rig = build_fleet_rig(seed, tiny, nullptr, checks);
  FleetShape shape = fleet_shape(tiny);
  shape.epochs = determinism_epochs(tiny);
  const PassResult probe = run_fleet(*rig, shape, checks);
  out.insert(out.end(), probe.layer.begin(), probe.layer.end());
  out.push_back({"fleet.determinism_mismatch_epochs",
                 determinism_mismatches(seed, tiny, probe.epoch_digests, checks),
                 "count"});
}

std::unique_ptr<Workload> make_calibrate(const RunArgs& args) {
  return std::make_unique<CalibrateWorkload>(args);
}
std::unique_ptr<Workload> make_recommend(const RunArgs& args) {
  return std::make_unique<RecommendWorkload>(args);
}
std::unique_ptr<Workload> make_fleet_serve(const RunArgs& args) {
  return std::make_unique<FleetServeWorkload>(args);
}

}  // namespace stacbench

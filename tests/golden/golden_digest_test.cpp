// Golden digests: a 64-bit FNV-1a hash over the exact output bits of each
// simulator and learner on a fixed set of adversarial inputs.  The digests
// were taken while every retired second implementation (legacy G/G/k
// engine, AoS cache layout, per-node-sort tree build, pointer-walk forest
// inference) still ran side by side with the surviving one and matched it
// bit for bit, so a digest change means the surviving path changed
// behaviour — not merely that an alternate was removed.
//
// Pinned on x86-64 Linux with GCC 12.2 and glibc 2.36, in both the default
// (SSE2) and the -mavx2 build.  The G/G/k digests depend on libm: Rng's
// exponential and log-normal draws go through log/exp/sqrt, so another
// libm may legitimately move them.  The cache-simulator digests are pure
// integer arithmetic and hold on any conforming toolchain.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "cachesim/cache_hierarchy.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/policy_explorer.hpp"
#include "core/stac_manager.hpp"
#include "fleet/fleet_coordinator.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "queueing/ggk_simulator.hpp"
#include "serve/traffic_replay.hpp"

namespace stac {
namespace {

class Digest {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void reals(std::span<const double> xs) {
    word(xs.size());
    for (const double x : xs) real(x);
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string libc_version() {
#if defined(__GLIBC__)
  return gnu_get_libc_version();
#else
  return "non-glibc";
#endif
}

// --- Stage 3: G/G/k -------------------------------------------------------

void digest_ggk(Digest& d, const queueing::GGkResult& r) {
  d.word(r.completed);
  d.word(r.boosted_queries);
  d.real(r.mean_queue_delay);
  d.word(r.residual_boost_refs);
  d.word(r.residual_overdue_jobs);
  d.word(r.cos_switches);
  d.word(r.latency_injections);
  d.word(r.negative_sojourns);
  d.reals(r.response_times.samples());
  d.reals(r.queue_delays.samples());
}

TEST(GoldenDigest, GGkAdversarialSweep) {
  // Heavy tail, near saturation, both boost semantics, aggressive and lazy
  // timeouts, two seeds.
  SCOPED_TRACE("libc " + libc_version());
  Digest d;
  for (const double cv : {0.3, 1.0, 2.5}) {
    for (const double util : {0.5, 0.95}) {
      for (const bool class_level : {true, false}) {
        for (const double timeout : {0.25, 2.0}) {
          for (const std::uint64_t seed : {7u, 99u}) {
            queueing::GGkConfig c;
            c.utilization = util;
            c.servers = 3;
            c.service_cv = cv;
            c.timeout_rel = timeout;
            c.effective_allocation = 0.6;
            c.allocation_ratio = 3.0;
            c.class_level_boost = class_level;
            c.queries = 6000;
            c.warmup = 300;
            c.seed = seed;
            digest_ggk(d, queueing::simulate_ggk(c));
          }
        }
      }
    }
  }
  EXPECT_EQ(d.hex(), "11a958a62ab67923");
}

TEST(GoldenDigest, GGkBoostChurn) {
  // Many class switch/revert cycles: every switch strands the queued
  // completions as stale generations.
  SCOPED_TRACE("libc " + libc_version());
  queueing::GGkConfig c;
  c.utilization = 0.93;
  c.servers = 2;
  c.service_cv = 1.5;
  c.timeout_rel = 0.5;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 20000;
  c.warmup = 500;
  c.seed = 31;
  Digest d;
  digest_ggk(d, queueing::simulate_ggk(c));
  EXPECT_EQ(d.hex(), "f67b012fb15e2d1c");
}

TEST(GoldenDigest, GGkServiceChaos) {
  SCOPED_TRACE("libc " + libc_version());
  FaultPlan plan;
  plan.seed = 4321;
  plan.add({.point = "ggk.service",
            .action = FaultAction::kLatency,
            .probability = 0.1,
            .latency = 5.0});
  FaultScope scope(plan);
  queueing::GGkConfig c;
  c.utilization = 0.9;
  c.servers = 2;
  c.service_cv = 2.0;
  c.timeout_rel = 0.5;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 10000;
  c.warmup = 500;
  c.seed = 3;
  Digest d;
  digest_ggk(d, queueing::simulate_ggk(c));
  EXPECT_EQ(d.hex(), "be5e09fcd4b9f62a");
}

// --- Stage 1: cache hierarchy ----------------------------------------------

struct Trace {
  std::vector<cachesim::MemoryAccess> refs;
  std::vector<cachesim::ClassId> classes;
};

// Word-granular loop walks, random hot lines, cold lines that sweep past
// every level, all four access types, three classes.
Trace adversarial_trace(std::size_t n, std::uint64_t seed) {
  using cachesim::AccessType;
  Trace t;
  std::uint64_t s = seed | 1;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  std::uint64_t seq[3] = {0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<cachesim::ClassId>(next() % 3);
    const std::uint64_t base = (cls + 1) * (1ULL << 32);
    const std::uint64_t pick = next() % 10;
    std::uint64_t addr;
    if (pick < 5) {
      addr = base + (seq[cls] += 8) % (4 * 1024);
    } else if (pick < 8) {
      addr = base + next() % (32 * 1024);
    } else {
      addr = base + next() % (64 * 1024 * 1024);
    }
    auto type = AccessType::kLoad;
    if (pick == 0) type = AccessType::kStore;
    if (pick == 8) type = AccessType::kIfetch;
    if (pick == 9) type = AccessType::kPrefetch;
    t.refs.push_back({addr, type});
    t.classes.push_back(cls);
  }
  return t;
}

void digest_hierarchy(Digest& d, const cachesim::CacheHierarchy& hw,
                      std::uint64_t total) {
  d.word(total);
  d.word(hw.clock_cycles());
  for (cachesim::ClassId c = 0; c < 3; ++c) {
    for (const std::uint64_t v : hw.counters(c).values) d.word(v);
    const cachesim::CycleBreakdown& cyc = hw.cycles(c);
    for (const std::uint64_t v : cyc.cycles) d.word(v);
    d.word(cyc.accesses);
    d.word(cyc.dram_cache_hits);
    d.word(cyc.dram_cache_misses);
    d.word(hw.llc_occupancy(c));
  }
}

TEST(GoldenDigest, CacheHierarchyEveryPreset) {
  // Counter tables, cycle breakdowns, LLC occupancy and cycle totals of one
  // adversarial trace with asymmetric CAT masks, through both replay() and
  // the per-access loop, on every processor preset.
  const Trace t = adversarial_trace(80000, 0xC0FFEEull);
  Digest d;
  for (const cachesim::HierarchyConfig& cfg : cachesim::presets::all()) {
    SCOPED_TRACE(cfg.name);
    cachesim::CacheHierarchy replay_hw(cfg, 3);
    cachesim::CacheHierarchy loop_hw(cfg, 3);
    const cachesim::WayMask full = replay_hw.llc().full_mask();
    const cachesim::WayMask masks[3] = {full, full & 0x3F, full & 0x3};
    for (cachesim::ClassId c = 0; c < 3; ++c) {
      replay_hw.set_llc_fill_mask(c, masks[c]);
      loop_hw.set_llc_fill_mask(c, masks[c]);
    }
    const std::uint64_t replay_total =
        replay_hw.replay(t.refs.data(), t.classes.data(), t.refs.size());
    std::uint64_t loop_total = 0;
    for (std::size_t i = 0; i < t.refs.size(); ++i)
      loop_total += loop_hw.access(t.classes[i], t.refs[i]);
    digest_hierarchy(d, replay_hw, replay_total);
    digest_hierarchy(d, loop_hw, loop_total);
  }
  EXPECT_EQ(d.hex(), "43b4f51d3537fa21");
}

// --- Stage 2: trees and forests ---------------------------------------------

// Continuous features (distinct values, so split order never depends on
// how ties between different targets are broken) plus a constant column;
// a stepped, interacting, noisy target.
ml::Dataset tree_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(0, 6);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    const double tier = rng.uniform(0.0, 5.0);
    const std::vector<double> row{a, b, rng.uniform(), rng.normal(), tier,
                                  1.0};
    x.append_row(row);
    y.push_back((a > 0.4 ? 2.0 : 0.0) + b * std::floor(tier) +
                0.1 * rng.normal());
  }
  return ml::Dataset(std::move(x), std::move(y));
}

void digest_tree(Digest& d, const ml::DecisionTree& tree) {
  d.word(tree.node_count());
  for (const ml::DecisionTree::Node& nd : tree.nodes()) {
    d.word(static_cast<std::uint64_t>(static_cast<std::int64_t>(nd.left)));
    d.word(static_cast<std::uint64_t>(static_cast<std::int64_t>(nd.right)));
    d.word(nd.feature);
    d.real(nd.threshold);
    d.real(nd.value);
    d.real(nd.gain);
  }
}

TEST(GoldenDigest, TreeNodeArraysOverSplitModesAndSeeds) {
  // Whole-dataset fits and bootstrap fits (duplicated rows) for every split
  // mode, seed and growth limit.
  SCOPED_TRACE("libc " + libc_version());
  const ml::Dataset data = tree_dataset(300, 11);
  Digest d;
  for (const ml::SplitMode mode :
       {ml::SplitMode::kAllFeatures, ml::SplitMode::kSqrtFeatures,
        ml::SplitMode::kCompletelyRandom}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const std::size_t leaf : {1u, 4u}) {
        ml::TreeConfig tc;
        tc.split_mode = mode;
        tc.seed = seed;
        tc.min_samples_leaf = leaf;
        tc.max_depth = leaf == 1 ? 0 : 6;
        ml::DecisionTree whole(tc);
        whole.fit(data);
        digest_tree(d, whole);

        Rng bag_rng(seed * 7919);
        std::vector<std::size_t> bag(data.size());
        for (auto& r : bag)
          r = static_cast<std::size_t>(bag_rng.uniform_index(data.size()));
        ml::DecisionTree bagged(tc);
        bagged.fit(data, bag);
        digest_tree(d, bagged);
      }
    }
  }
  EXPECT_EQ(d.hex(), "e6dd9438e4effc11");
}

TEST(GoldenDigest, ForestPredictionsAcrossWarmRefits) {
  SCOPED_TRACE("libc " + libc_version());
  ml::Dataset data = tree_dataset(240, 5);
  const ml::Dataset queries = tree_dataset(64, 6);
  const ml::Dataset extra = tree_dataset(60, 7);
  Digest d;
  for (const ml::SplitMode mode :
       {ml::SplitMode::kSqrtFeatures, ml::SplitMode::kCompletelyRandom}) {
    ml::ForestConfig fc;
    fc.estimators = 16;
    fc.split_mode = mode;
    fc.seed = 42;
    ml::RandomForest forest(fc);
    forest.fit(data);
    d.reals(forest.predict(queries.features()));
    d.reals(forest.oob_predictions());
    for (std::size_t round = 0; round < 2; ++round) {
      for (std::size_t r = round * 30; r < (round + 1) * 30; ++r)
        data.add_row(extra.row(r), extra.target(r));
      forest.refit_incremental(data, 0.25);
      d.reals(forest.predict(queries.features()));
      d.real(forest.predict(queries.row(0)));
      d.reals(forest.oob_predictions());
    }
    data = tree_dataset(240, 5);
  }
  EXPECT_EQ(d.hex(), "df1603aa06d88279");
}

// --- Stage 3 sweep: the selected timeout vector ------------------------------

TEST(GoldenDigest, PolicySweepMatricesAndSelection) {
  SCOPED_TRACE("libc " + libc_version());
  profiler::ProfilerConfig pc;
  pc.target_completions = 300;
  pc.warmup_completions = 40;
  const profiler::Profiler profiler(pc);
  core::RtPredictorConfig rc;
  rc.analytic_ea = true;
  rc.sim_queries = 2000;
  const core::RtPredictor predictor(profiler, nullptr, nullptr, rc);
  Digest d;
  for (const double util : {0.5, 0.9}) {
    profiler::RuntimeCondition cond;
    cond.primary = wl::Benchmark::kKmeans;
    cond.collocated = wl::Benchmark::kRedis;
    cond.util_primary = util;
    cond.util_collocated = 0.9;
    cond.seed = 4;
    core::ExplorerConfig cfg;
    cfg.grid = {0.0, 0.5, 1.0, 2.0, 4.0};
    const core::PolicyExploration r =
        core::explore_policies(predictor, cond, cfg);
    const std::size_t g = cfg.grid.size();
    for (std::size_t i = 0; i < g; ++i) {
      for (std::size_t j = 0; j < g; ++j) {
        d.real(r.predicted_primary(i, j));
        d.real(r.predicted_collocated(i, j));
      }
    }
    d.real(r.selection.timeout_primary);
    d.real(r.selection.timeout_collocated);
    d.real(r.slack_used);
  }
  EXPECT_EQ(d.hex(), "ccb01d54bea11b58");
}

// --- Deep-forest EA behind the sweep and the §3.3 control loop --------------

/// The fleet tests' reduced calibration budget (seconds, not minutes).
core::StacOptions tiny_options() {
  core::StacOptions opts;
  opts.profile_budget = 6;
  opts.profiler.target_completions = 250;
  opts.profiler.warmup_completions = 30;
  opts.profiler.max_windows = 1;
  opts.profiler.accesses_per_sample = 600;
  opts.model.deep_forest.mgs.window_sizes = {5};
  opts.model.deep_forest.mgs.estimators = 6;
  opts.model.deep_forest.cascade.levels = 1;
  opts.model.deep_forest.cascade.estimators = 10;
  opts.predictor.sim_queries = 1500;
  opts.explorer.grid = {0.0, 2.0, 6.0};
  return opts;
}

std::unique_ptr<core::StacManager> calibrated(const core::StacOptions& opts) {
  auto mgr = std::make_unique<core::StacManager>(opts);
  mgr->calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  return mgr;
}

void digest_exploration(Digest& d, const core::PolicyExploration& r) {
  for (std::size_t i = 0; i < r.predicted_primary.rows(); ++i) {
    for (std::size_t j = 0; j < r.predicted_primary.cols(); ++j) {
      d.real(r.predicted_primary(i, j));
      d.real(r.predicted_collocated(i, j));
    }
  }
  d.real(r.selection.timeout_primary);
  d.real(r.selection.timeout_collocated);
  d.real(r.slack_used);
}

TEST(GoldenDigest, DeepForestSweepMatricesAndSelection) {
  // EA comes from the calibrated deep forest (RtPredictor::ea_for), not the
  // analytic model PolicySweepMatricesAndSelection uses.
  SCOPED_TRACE("libc " + libc_version());
  core::StacOptions opts = tiny_options();
  opts.explorer.grid = core::ExplorerConfig{}.grid;  // the paper's 5x5
  const auto mgr = calibrated(opts);
  ASSERT_TRUE(mgr->model().trained());
  Digest d;
  for (const auto& [up, uc] : {std::pair{0.5, 0.9}, std::pair{0.8, 0.8},
                               std::pair{0.95, 0.4}}) {
    profiler::RuntimeCondition cond;
    cond.primary = wl::Benchmark::kKnn;
    cond.collocated = wl::Benchmark::kBfs;
    cond.util_primary = up;
    cond.util_collocated = uc;
    cond.seed = 12;
    digest_exploration(d, mgr->recommend(cond));
  }
  EXPECT_EQ(d.hex(), "9aa5687995db8d18");
}

constexpr double kLoopEpochSeconds = 2.0;
constexpr std::size_t kLoopEpochs = 30;
constexpr std::size_t kLoopFirstModelAfter = 3;
constexpr std::size_t kLoopSwapAfter = 15;

profiler::RuntimeCondition loop_condition() {
  profiler::RuntimeCondition c;
  c.primary = wl::Benchmark::kKnn;
  c.collocated = wl::Benchmark::kBfs;
  c.util_primary = 0.6;
  c.util_collocated = 0.6;
  c.timeout_primary = 1.0;
  c.timeout_collocated = 1.0;
  c.seed = 12;
  return c;
}

/// Breathing load on both workloads, so the planned condition moves across
/// quantization cells and the memo both hits and misses.
serve::ReplayConfig loop_traffic(std::uint64_t seed) {
  serve::ReplayConfig traffic;
  traffic.workloads = {{.mean_service = 0.05, .service_cv = 0.7, .servers = 2,
                        .base_util = 0.9, .util_amplitude = 0.1,
                        .util_period = 40.0},
                       {.mean_service = 0.05, .service_cv = 0.7, .servers = 2,
                        .base_util = 0.85, .util_amplitude = 0.1,
                        .util_period = 25.0}};
  traffic.seed = seed;
  return traffic;
}

template <class Report>
void digest_epoch(Digest& d, const Report& r) {
  d.real(r.timeout_primary);
  d.real(r.timeout_collocated);
  d.real(r.planned_condition.util_primary);
  d.real(r.planned_condition.util_collocated);
  d.word(r.cells_simulated);
  d.word(r.cells_reused);
}

/// Publishes the first model bundle after epoch 3 (the loop holds its
/// initial vector until then) and hot-swaps a second one after epoch 15.
void publish_on_schedule(const core::StacManager& mgr, std::size_t epoch,
                         serve::ModelSnapshot<serve::ServingModel>& models) {
  if (epoch + 1 == kLoopFirstModelAfter)
    models.publish(serve::build_serving_model(mgr, tiny_options(), 1));
  if (epoch + 1 == kLoopSwapAfter)
    models.publish(serve::build_serving_model(mgr, tiny_options(), 2));
}

/// A closed serving loop of `shards` nodes: each node's replay reads back
/// its applied timeouts and one coordinator epoch runs per 2 s of traffic.
std::string fleet_loop_digest(const core::StacManager& mgr,
                              std::size_t shards) {
  serve::ModelSnapshot<serve::ServingModel> models;
  fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.shard.servers = 2;
  cfg.shard.estimator.min_completions = 10;
  cfg.planner.base_condition = loop_condition();
  cfg.planner.explorer = tiny_options().explorer;
  fleet::FleetCoordinator fleet(models, cfg);
  std::vector<std::unique_ptr<serve::TrafficReplay>> replays;
  for (std::size_t s = 0; s < shards; ++s)
    replays.push_back(std::make_unique<serve::TrafficReplay>(
        fleet.shard(s).ingest(), &fleet.shard(s), loop_traffic(31 + s)));
  Digest d;
  for (std::size_t k = 0; k < kLoopEpochs; ++k) {
    const double t0 = static_cast<double>(k) * kLoopEpochSeconds;
    for (auto& replay : replays)
      (void)replay->generate(t0, t0 + kLoopEpochSeconds);
    digest_epoch(d, fleet.run_epoch(t0 + kLoopEpochSeconds));
    publish_on_schedule(mgr, k, models);
  }
  EXPECT_EQ(fleet.totals().model_unavailable_holds, kLoopFirstModelAfter);
  EXPECT_GT(fleet.totals().replans, 0u);
  EXPECT_EQ(fleet.totals().model_swaps_observed, 2u);
  return d.hex();
}

TEST(GoldenDigest, ClosedLoopFleetOfOne) {
  SCOPED_TRACE("libc " + libc_version());
  const auto mgr = calibrated(tiny_options());
  EXPECT_EQ(fleet_loop_digest(*mgr, 1), "771041843329b12c");
}

TEST(GoldenDigest, ClosedLoopFourShardFleet) {
  SCOPED_TRACE("libc " + libc_version());
  const auto mgr = calibrated(tiny_options());
  EXPECT_EQ(fleet_loop_digest(*mgr, 4), "6b0bc6c39e4070ab");
}

}  // namespace
}  // namespace stac

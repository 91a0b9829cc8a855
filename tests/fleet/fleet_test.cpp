// The fleet control plane end to end.  A single node is a fleet of one,
// so the behaviours of the closed loop are pinned here: on stationary
// traffic the plan equals the offline recommendation, holds keep the
// last-known-good vector when the model is missing, degraded or late,
// boost grants mirror into the CAT lease/watchdog path, checkpoints are
// written on cadence and recover bit-exactly, and hot swaps under load lose
// no event.  Multi-shard merges must aggregate to the fleet-level
// condition, and the join/leave protocol must hand a shard off and back
// with zero event loss and quarantining restores.
#include "fleet/fleet_coordinator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "core/stac_manager.hpp"
#include "serve/checkpoint.hpp"
#include "serve/traffic_replay.hpp"
#include "support/scratch_dir.hpp"

namespace stac::fleet {
namespace {

using core::StacManager;
using core::StacOptions;
using profiler::RuntimeCondition;

StacOptions tiny_options() {
  StacOptions opts;
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

RuntimeCondition base_condition() {
  RuntimeCondition c;
  c.primary = wl::Benchmark::kKnn;
  c.collocated = wl::Benchmark::kBfs;
  c.util_primary = 0.8;
  c.util_collocated = 0.8;
  c.timeout_primary = 1.0;
  c.timeout_collocated = 1.0;
  c.seed = 12;
  return c;
}

FleetConfig fleet_config(std::size_t shards) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.shard.servers = 2;
  cfg.planner.base_condition = base_condition();
  cfg.planner.explorer = tiny_options().explorer;
  return cfg;
}

cachesim::HierarchyConfig hw_cfg() {
  cachesim::HierarchyConfig c;
  c.l1d = {8 * 1024, 8, 64, 4};
  c.l1i = {8 * 1024, 8, 64, 4};
  c.l2 = {64 * 1024, 16, 64, 12};
  c.llc = {512 * 1024, 8, 64, 40};
  return c;
}

serve::QueryEvent make_event(serve::EventKind kind, std::uint16_t w, double t,
                             double service = 1.0, bool boosted = false) {
  serve::QueryEvent e;
  e.kind = kind;
  e.workload = w;
  e.time = t;
  e.service = service;
  e.queue_delay = kind == serve::EventKind::kCompletion ? 0.1 : 0.0;
  e.boosted = boosted;
  return e;
}

/// Stationary utilization-0.8 traffic (1.6 arrivals/s, 2 servers, unit
/// service), deterministic.  `gap_scale` > 1 thins the stream (a shard carrying a fraction of the
/// workload's total rate).
void feed_stationary(serve::ArrivalIngest& ring, double t0, double t1,
                     double gap_scale = 1.0) {
  const double gap = 0.625 * gap_scale;
  for (std::uint16_t w = 0; w < 2; ++w) {
    for (double t = t0; t < t1; t += gap) {
      ASSERT_TRUE(
          ring.try_push(make_event(serve::EventKind::kArrival, w, t)));
      ASSERT_TRUE(
          ring.try_push(make_event(serve::EventKind::kCompletion, w, t)));
    }
  }
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Calibration is the expensive part; share one manager across the suite.
class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mgr_ = new StacManager(tiny_options());
    mgr_->calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  }
  static void TearDownTestSuite() {
    delete mgr_;
    mgr_ = nullptr;
  }

  static StacManager* mgr_;
};

StacManager* FleetTest::mgr_ = nullptr;

TEST_F(FleetTest, TwoShardSplitAggregatesToTheFleetCondition) {
  // The same offered load split across two shards (each carries half the
  // rate against half the fleet's capacity) must merge to the same fleet
  // utilization a single shard carrying it all would see.
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetCoordinator fleet(snap, fleet_config(2));

  // Each shard gets a thinned stream: gap 1.25s -> 0.8 arrivals/s/shard,
  // 1.6 aggregate against 4 servers of unit service = utilization 0.4...
  // per-workload utilization = rate x service / servers_total = 0.4.
  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0, 2.0);
  feed_stationary(fleet.shard(1).ingest(), 0.0, 60.0, 2.0);
  const FleetEpochReport r = fleet.run_epoch(60.0);
  ASSERT_TRUE(r.warm);
  EXPECT_EQ(r.active_shards, 2u);

  // Pooled counts are exact sums of the two shards' windows: 24 in-window
  // completions per shard per workload (gap 1.25s, 30s window).
  EXPECT_EQ(r.merged_primary.completions, 48u);
  EXPECT_NEAR(r.merged_primary.arrival_rate, 1.6, 0.05);
  EXPECT_NEAR(r.merged_primary.utilization, 0.4, 0.02);
  EXPECT_NEAR(r.merged_collocated.utilization, 0.4, 0.02);
  // The planned condition snapped onto the profiled axis from the merged
  // utilization (clamped at util_lo = 0.25 grid, quantum 0.05).
  EXPECT_NEAR(r.planned_condition.util_primary, 0.4, 0.051);
  ASSERT_TRUE(r.replanned);
  // Both shards applied the same published plan.
  EXPECT_TRUE(bit_equal(fleet.shard(0).timeout(0), fleet.shard(1).timeout(0)));
  EXPECT_TRUE(bit_equal(fleet.shard(0).timeout(1), fleet.shard(1).timeout(1)));
  EXPECT_EQ(fleet.totals().plan_pushes, 2u);
}

TEST_F(FleetTest, LeaveDrainsCheckpointsAndRenormalizesCapacity) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetCoordinator fleet(snap, fleet_config(2));

  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0, 2.0);
  feed_stationary(fleet.shard(1).ingest(), 0.0, 60.0, 2.0);
  ASSERT_TRUE(fleet.run_epoch(60.0).replanned);

  // Events published after the last epoch but before the leave: the final
  // drain inside leave_shard must fold them in — zero loss.
  feed_stationary(fleet.shard(1).ingest(), 60.0, 90.0, 2.0);
  const std::uint64_t pushed = fleet.shard(1).ingest().pushed();
  const serve::ControllerCheckpoint ckpt = fleet.leave_shard(1, 90.0);
  EXPECT_EQ(fleet.shard(1).ingest().popped(), pushed);
  EXPECT_EQ(fleet.shard(1).ingest().dropped(), 0u);
  EXPECT_FALSE(fleet.shard(1).active());
  EXPECT_EQ(fleet.active_shards(), 1u);
  ASSERT_EQ(ckpt.workloads.size(), 2u);
  // The checkpoint carries the shard's full lifetime accounting (including
  // the final drain) and its applied vector.
  EXPECT_EQ(ckpt.workloads[0].completions +
                ckpt.workloads[1].completions +
                ckpt.workloads[0].arrivals + ckpt.workloads[1].arrivals,
            pushed);
  EXPECT_TRUE(bit_equal(ckpt.workloads[0].timeout, fleet.shard(0).timeout(0)));

  // Next epoch plans on the remaining capacity: same per-shard offered
  // load, half the servers — the merged utilization renormalizes (one
  // shard at 0.8 arrivals/s over 2 servers = 0.4, unchanged per-capacity).
  feed_stationary(fleet.shard(0).ingest(), 60.0, 120.0, 2.0);
  const FleetEpochReport after = fleet.run_epoch(120.0);
  EXPECT_EQ(after.active_shards, 1u);
  EXPECT_NEAR(after.merged_primary.utilization, 0.4, 0.05);
  EXPECT_EQ(fleet.totals().leaves, 1u);

  // Rejoin from the hand-off checkpoint: estimator continuity restored.
  const serve::RecoveryReport rec = fleet.rejoin_shard(1, ckpt, 120.0);
  EXPECT_TRUE(rec.restored);
  EXPECT_FALSE(rec.quarantined);
  EXPECT_TRUE(fleet.shard(1).active());
  EXPECT_EQ(fleet.active_shards(), 2u);
  EXPECT_EQ(fleet.totals().joins, 1u);
  // The rejoined shard serves the currently published plan immediately.
  EXPECT_TRUE(bit_equal(fleet.shard(1).timeout(0), fleet.shard(0).timeout(0)));
  EXPECT_TRUE(bit_equal(fleet.shard(1).timeout(1), fleet.shard(0).timeout(1)));
}

TEST_F(FleetTest, RejoinQuarantinesMalformedCheckpointAndJoinsCold) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetCoordinator fleet(snap, fleet_config(2));
  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0);
  feed_stationary(fleet.shard(1).ingest(), 0.0, 60.0);
  ASSERT_TRUE(fleet.run_epoch(60.0).replanned);
  (void)fleet.leave_shard(1, 60.0);

  // A checkpoint from a different (3-workload) fleet generation: the shape
  // does not match the live pair.  Quarantine — but the shard still
  // rejoins, cold, serving the current fleet plan.
  serve::ControllerCheckpoint stale;
  stale.workloads.resize(3);
  for (auto& w : stale.workloads) w.timeout = 0.5;
  const serve::RecoveryReport rec = fleet.rejoin_shard(1, stale, 61.0);
  EXPECT_FALSE(rec.restored);
  EXPECT_TRUE(rec.quarantined);
  EXPECT_FALSE(rec.reason.empty());
  EXPECT_TRUE(fleet.shard(1).active());
  EXPECT_EQ(fleet.totals().join_quarantines, 1u);
  EXPECT_EQ(fleet.shard(1).totals().restore_quarantines, 1u);
  // Not the stale checkpoint's 0.5 — the published plan.
  EXPECT_TRUE(bit_equal(fleet.shard(1).timeout(0), fleet.shard(0).timeout(0)));

  // A non-finite timeout quarantines the same way.
  (void)fleet.leave_shard(1, 62.0);
  serve::ControllerCheckpoint nan_ckpt;
  nan_ckpt.workloads.resize(2);
  nan_ckpt.workloads[0].timeout = std::numeric_limits<double>::quiet_NaN();
  nan_ckpt.workloads[1].timeout = 1.0;
  const serve::RecoveryReport rec2 = fleet.rejoin_shard(1, nan_ckpt, 63.0);
  EXPECT_TRUE(rec2.quarantined);
  EXPECT_EQ(fleet.totals().join_quarantines, 2u);
  // The NaN never reached the applied vector.
  EXPECT_TRUE(std::isfinite(fleet.shard(1).timeout(0)));
}

TEST_F(FleetTest, ColdFleetHoldsInitialVectorAndNeverPublishesNaN) {
  serve::ModelSnapshot<serve::ServingModel> snap;  // no model published
  FleetCoordinator fleet(snap, fleet_config(2));
  const FleetEpochReport cold = fleet.run_epoch(1.0);
  EXPECT_FALSE(cold.warm);
  EXPECT_FALSE(cold.replanned);
  EXPECT_FALSE(cold.stale_hold);
  EXPECT_EQ(cold.events_drained, 0u);
  EXPECT_DOUBLE_EQ(cold.timeout_primary, 1.0);
  EXPECT_DOUBLE_EQ(cold.timeout_collocated, 1.0);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_DOUBLE_EQ(fleet.shard(s).timeout(0), 1.0);
    EXPECT_DOUBLE_EQ(fleet.shard(s).timeout(1), 1.0);
  }
  // Warm traffic but still no model (a recovery window): hold, not an
  // error — the initial vector keeps serving.
  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0);
  feed_stationary(fleet.shard(1).ingest(), 0.0, 60.0);
  const FleetEpochReport held = fleet.run_epoch(60.0);
  EXPECT_TRUE(held.warm);
  EXPECT_TRUE(held.model_unavailable_hold);
  EXPECT_FALSE(held.replanned);
  EXPECT_DOUBLE_EQ(held.timeout_primary, 1.0);
  EXPECT_DOUBLE_EQ(held.timeout_collocated, 1.0);
  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(0), 1.0);
  EXPECT_EQ(fleet.totals().model_unavailable_holds, 1u);
}

TEST_F(FleetTest, LibraryMergeDeduplicatesAcrossNodes) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetCoordinator fleet(snap, fleet_config(1));

  // "Node A" contributes the manager's calibration profiles.
  const core::ProfileLibrary& node_a = mgr_->library();
  const auto first = fleet.merge_library(node_a);
  EXPECT_EQ(first.added, node_a.size());
  EXPECT_EQ(first.duplicates, 0u);

  // "Node B" re-offers the same profiles: all duplicates, none added.
  const auto second = fleet.merge_library(node_a);
  EXPECT_EQ(second.added, 0u);
  EXPECT_EQ(second.duplicates, node_a.size());
  EXPECT_EQ(fleet.library().size(), node_a.size());
  EXPECT_EQ(fleet.totals().library_profiles_merged, node_a.size());
}

TEST_F(FleetTest, MergeRoutesDeltaThroughRefitExecutor) {
  // Cross-node calibration sharing end to end: a merge_library with new
  // profiles must be forwarded to the shared RefitExecutor, which refits
  // and publishes a fresh bundle — the fleet epoch itself never fits.
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  serve::RefitExecutorConfig rcfg;
  rcfg.model = tiny_options().model;
  rcfg.predictor = tiny_options().predictor;
  serve::RefitExecutor refits(mgr_->profiler(), snap, mgr_->library(), rcfg,
                              /*first_version=*/2);
  refits.start();

  FleetConfig cfg = fleet_config(1);
  cfg.refit = &refits;
  FleetCoordinator fleet(snap, cfg);

  // "Node B" offers profiles the coordinator has not seen: perturb the
  // conditions so dedup-by-condition counts them as new.
  core::ProfileLibrary node_b;
  for (const auto& p : mgr_->library().profiles()) {
    profiler::Profile q = p;
    q.condition.timeout_primary += 1e-6;
    node_b.add(std::move(q));
  }
  const std::uint64_t version_before = snap.version();
  const auto stats = fleet.merge_library(node_b);
  EXPECT_EQ(stats.added, node_b.size());
  EXPECT_EQ(fleet.totals().refit_requests, 1u);

  // The executor publishes in the background; wait for its bundle.
  const double deadline = 60.0;
  const std::uint64_t ticket = refits.request_refit(core::ProfileLibrary{});
  ASSERT_TRUE(refits.wait(ticket, deadline));
  refits.stop();
  EXPECT_GE(refits.stats().completed, 1u);
  EXPECT_GT(snap.version(), version_before);
  {
    const auto guard = snap.acquire();
    ASSERT_TRUE(static_cast<bool>(guard));
    EXPECT_GE(guard->version, 2u);
    EXPECT_TRUE(guard->primary_trained());
  }
  // The executor's authoritative library absorbed node B's delta.
  EXPECT_EQ(refits.library_size(), mgr_->library().size() + node_b.size());

  // A duplicate offer adds nothing and must NOT trigger another refit.
  const auto dup = fleet.merge_library(node_b);
  EXPECT_EQ(dup.added, 0u);
  EXPECT_EQ(fleet.totals().refit_requests, 1u);
}

TEST_F(FleetTest, AsyncRefreshConvergesANodeThatMissedThePush) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetCoordinator fleet(snap, fleet_config(2));
  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0);
  feed_stationary(fleet.shard(1).ingest(), 0.0, 60.0);
  ASSERT_TRUE(fleet.run_epoch(60.0).replanned);

  // A node with the plan already applied sees nothing new...
  EXPECT_FALSE(fleet.shard(0).refresh_plan(fleet.plans()));
  // ...and a stale node (simulated: fresh shard state via leave + cold
  // rejoin) pulls the current plan from the RCU snapshot on its own.
  const auto plan_guard = fleet.plans().acquire();
  ASSERT_TRUE(static_cast<bool>(plan_guard));
  EXPECT_EQ(plan_guard->epoch, 1u);
  EXPECT_TRUE(bit_equal(plan_guard->timeout_primary, fleet.shard(0).timeout(0)));
}

// --- One node: the closed loop as a fleet of one ----------------------------

TEST_F(FleetTest, ColdEpochHoldsInitialTimeouts) {
  serve::ModelSnapshot<serve::ServingModel> snap;  // nothing published
  FleetCoordinator fleet(snap, fleet_config(1));
  const FleetEpochReport r = fleet.run_epoch(1.0);
  EXPECT_FALSE(r.warm);
  EXPECT_FALSE(r.replanned);
  EXPECT_FALSE(r.stale_hold);
  EXPECT_EQ(r.events_drained, 0u);
  EXPECT_DOUBLE_EQ(r.timeout_primary, 1.0);
  EXPECT_DOUBLE_EQ(r.timeout_collocated, 1.0);
  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(0), 1.0);
  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(1), 1.0);
}

TEST_F(FleetTest, WarmEpochWithNoModelIsAHoldNotAnError) {
  serve::ModelSnapshot<serve::ServingModel> snap;  // recovery window
  FleetCoordinator fleet(snap, fleet_config(1));
  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0);
  const FleetEpochReport r = fleet.run_epoch(60.0);
  EXPECT_TRUE(r.warm);
  EXPECT_TRUE(r.model_unavailable_hold);
  EXPECT_FALSE(r.replanned);
  EXPECT_DOUBLE_EQ(r.timeout_primary, 1.0);
  EXPECT_DOUBLE_EQ(r.timeout_collocated, 1.0);
  EXPECT_EQ(fleet.totals().model_unavailable_holds, 1u);
}

TEST_F(FleetTest, StationaryTrafficMatchesOfflineRecommend) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetCoordinator fleet(snap, fleet_config(1));

  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0);
  const FleetEpochReport r = fleet.run_epoch(60.0);
  ASSERT_TRUE(r.warm);
  ASSERT_TRUE(r.replanned);
  EXPECT_FALSE(r.stale_hold);
  EXPECT_EQ(r.probe_rung, core::DegradationRung::kPrimaryModel);
  EXPECT_NEAR(r.planned_condition.util_primary, 0.8, 0.051);
  EXPECT_NEAR(r.planned_condition.util_collocated, 0.8, 0.051);

  // The identity: offline recommend() on the very condition the fleet
  // planned for selects the very same timeout vector (deterministic
  // training makes the serving bundle predict identically to the manager).
  const core::PolicyExploration offline =
      mgr_->recommend(r.planned_condition);
  EXPECT_EQ(r.timeout_primary, offline.selection.timeout_primary);
  EXPECT_EQ(r.timeout_collocated, offline.selection.timeout_collocated);
  EXPECT_EQ(fleet.shard(0).timeout(0), offline.selection.timeout_primary);
  EXPECT_EQ(fleet.shard(0).timeout(1), offline.selection.timeout_collocated);

  // Still stationary an epoch later: same condition, same selection.
  feed_stationary(fleet.shard(0).ingest(), 60.0, 120.0);
  const FleetEpochReport r2 = fleet.run_epoch(120.0);
  ASSERT_TRUE(r2.replanned);
  EXPECT_EQ(r2.planned_condition.util_primary,
            r.planned_condition.util_primary);
  EXPECT_EQ(r2.timeout_primary, r.timeout_primary);
  EXPECT_EQ(r2.timeout_collocated, r.timeout_collocated);
  EXPECT_EQ(fleet.totals().replans, 2u);
}

TEST_F(FleetTest, IncrementalPlanningReusesStationaryEpochs) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  const FleetConfig cfg = fleet_config(1);  // incremental = true default
  const std::size_t cells =
      cfg.planner.explorer.grid.size() * cfg.planner.explorer.grid.size();
  FleetCoordinator fleet(snap, cfg);
  serve::ArrivalIngest& ring = fleet.shard(0).ingest();

  // Epoch 1: cold memo, full sweep.
  feed_stationary(ring, 0.0, 60.0);
  const FleetEpochReport first = fleet.run_epoch(60.0);
  ASSERT_TRUE(first.replanned);
  EXPECT_EQ(first.cells_simulated, cells);
  EXPECT_EQ(first.cells_reused, 0u);

  // Epoch 2: same quantized condition, same model version — the memo
  // answers the whole grid and the selection is unchanged.
  feed_stationary(ring, 60.0, 120.0);
  const FleetEpochReport second = fleet.run_epoch(120.0);
  ASSERT_TRUE(second.replanned);
  EXPECT_EQ(second.cells_simulated, 0u);
  EXPECT_EQ(second.cells_reused, cells);
  EXPECT_EQ(second.timeout_primary, first.timeout_primary);
  EXPECT_EQ(second.timeout_collocated, first.timeout_collocated);

  // Model hot-swap: the version is the memo's generation stamp, so the
  // next epoch re-simulates everything rather than planning on stale
  // predictions.
  snap.publish(serve::build_serving_model(*mgr_, tiny_options(), 2));
  feed_stationary(ring, 120.0, 180.0);
  const FleetEpochReport swapped = fleet.run_epoch(180.0);
  ASSERT_TRUE(swapped.replanned);
  EXPECT_EQ(swapped.model_version, 2u);
  EXPECT_EQ(swapped.cells_simulated, cells);
  EXPECT_EQ(swapped.cells_reused, 0u);
  // Identical training data: the refit model selects the same vector.
  EXPECT_EQ(swapped.timeout_primary, first.timeout_primary);
}

TEST_F(FleetTest, ProbeTtlBoundsChaosDetectionLatency) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetConfig cfg = fleet_config(1);
  cfg.planner.max_planning_rung = core::DegradationRung::kLinearFallback;
  cfg.planner.probe_ttl_epochs = 3;  // one probe answers at most 3 epochs
  FleetCoordinator fleet(snap, cfg);
  serve::ArrivalIngest& ring = fleet.shard(0).ingest();

  feed_stationary(ring, 0.0, 60.0);
  ASSERT_TRUE(fleet.run_epoch(60.0).replanned);

  // EA predictions now fault.  Epochs 2-3 ride the memoed healthy rung
  // (stationary condition, same bundle, TTL not yet expired); epoch 4's
  // fresh probe sees the failure and holds.
  FaultPlan plan;
  plan.add({.point = "model.predict",
            .action = FaultAction::kThrow,
            .probability = 1.0,
            .message = "injected model failure"});
  FaultScope scope(plan);
  for (const double t1 : {120.0, 180.0}) {
    feed_stationary(ring, t1 - 60.0, t1);
    const FleetEpochReport r = fleet.run_epoch(t1);
    EXPECT_TRUE(r.replanned);
    EXPECT_FALSE(r.stale_hold);
  }
  feed_stationary(ring, 180.0, 240.0);
  const FleetEpochReport detected = fleet.run_epoch(240.0);
  EXPECT_TRUE(detected.stale_hold);
  EXPECT_FALSE(detected.replanned);
  EXPECT_GT(detected.probe_rung, cfg.planner.max_planning_rung);
}

TEST_F(FleetTest, DegradedModelHoldsLastKnownGoodVector) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetConfig cfg = fleet_config(1);
  // Only model rungs are acceptable for planning in this test.
  cfg.planner.max_planning_rung = core::DegradationRung::kLinearFallback;
  FleetCoordinator fleet(snap, cfg);
  serve::ArrivalIngest& ring = fleet.shard(0).ingest();

  // Epoch 1: healthy, replanned — this is the last-known-good vector.
  feed_stationary(ring, 0.0, 60.0);
  const FleetEpochReport healthy = fleet.run_epoch(60.0);
  ASSERT_TRUE(healthy.replanned);

  // Epoch 2: every EA-model prediction faults, so the ladder answers from
  // the library-neighbour rung — too deep to plan on.  Hold.
  {
    FaultPlan plan;
    plan.add({.point = "model.predict",
              .action = FaultAction::kThrow,
              .probability = 1.0,
              .message = "injected model failure"});
    FaultScope scope(plan);
    feed_stationary(ring, 60.0, 120.0);
    const FleetEpochReport degraded = fleet.run_epoch(120.0);
    ASSERT_TRUE(degraded.warm);
    EXPECT_TRUE(degraded.stale_hold);
    EXPECT_FALSE(degraded.replanned);
    EXPECT_GT(degraded.probe_rung, cfg.planner.max_planning_rung);
    EXPECT_EQ(degraded.timeout_primary, healthy.timeout_primary);
    EXPECT_EQ(degraded.timeout_collocated, healthy.timeout_collocated);
  }

  // Epoch 3: chaos gone, planning resumes.
  feed_stationary(ring, 120.0, 180.0);
  const FleetEpochReport recovered = fleet.run_epoch(180.0);
  EXPECT_TRUE(recovered.replanned);
  EXPECT_EQ(fleet.totals().stale_holds, 1u);
}

TEST_F(FleetTest, MirrorsGrantsIntoCatController) {
  cachesim::CacheHierarchy hw(hw_cfg(), 2);
  cat::AllocationPlan plan = cat::make_pair_plan(8, 1, 2);
  cat::CatController cat(hw, plan);

  serve::ModelSnapshot<serve::ServingModel> snap;
  FleetConfig cfg = fleet_config(1);
  cfg.cats = {&cat};
  FleetCoordinator fleet(snap, cfg);
  serve::ArrivalIngest& ring = fleet.shard(0).ingest();

  // A fired STAP timeout boosts the class...
  ASSERT_TRUE(ring.try_push(make_event(serve::EventKind::kTimeout, 0, 1.0)));
  (void)fleet.run_epoch(2.0);
  EXPECT_TRUE(cat.is_boosted(0));
  EXPECT_FALSE(cat.is_boosted(1));

  // ...and the boosted completion releases the grant.
  ASSERT_TRUE(ring.try_push(
      make_event(serve::EventKind::kCompletion, 0, 3.0, 1.0, true)));
  (void)fleet.run_epoch(4.0);
  EXPECT_FALSE(cat.is_boosted(0));
  EXPECT_EQ(cat.switch_count(), 2u);

  // Unboosted completions never touch the refcount.
  ASSERT_TRUE(ring.try_push(
      make_event(serve::EventKind::kCompletion, 1, 5.0, 1.0, false)));
  (void)fleet.run_epoch(6.0);
  EXPECT_EQ(cat.fault_stats().spurious_unboosts, 0u);
  EXPECT_EQ(fleet.totals().events_drained, 3u);
}

TEST_F(FleetTest, WatchdogRevokesLeakedLease) {
  cachesim::CacheHierarchy hw(hw_cfg(), 2);
  cat::AllocationPlan plan = cat::make_pair_plan(8, 1, 2);
  cat::CatResilienceConfig resilience;
  resilience.max_boost_lease = 5.0;
  cat::CatController cat(hw, plan, resilience);

  serve::ModelSnapshot<serve::ServingModel> snap;
  FleetConfig cfg = fleet_config(1);
  cfg.cats = {&cat};
  FleetCoordinator fleet(snap, cfg);

  // The boost's completion never arrives (leaked grant).
  ASSERT_TRUE(fleet.shard(0).ingest().try_push(
      make_event(serve::EventKind::kTimeout, 1, 1.0)));
  const FleetEpochReport early = fleet.run_epoch(2.0);
  EXPECT_EQ(early.watchdog_revocations, 0u);
  EXPECT_TRUE(cat.is_boosted(1));

  const FleetEpochReport late = fleet.run_epoch(20.0);
  EXPECT_EQ(late.watchdog_revocations, 1u);
  EXPECT_FALSE(cat.is_boosted(1));
  EXPECT_EQ(fleet.totals().watchdog_revocations, 1u);
}

TEST_F(FleetTest, PlanDeadlineMissHoldsLastKnownGoodVector) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetConfig cfg = fleet_config(1);
  cfg.planner.plan_deadline_seconds = 1e-12;  // every sweep overruns this
  FleetCoordinator fleet(snap, cfg);

  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0);
  const FleetEpochReport r = fleet.run_epoch(60.0);
  ASSERT_TRUE(r.warm);
  // The sweep ran and overran: its selection is discarded, the epoch is
  // counted as a miss, and the pre-epoch vector keeps serving.
  EXPECT_TRUE(r.deadline_miss);
  EXPECT_FALSE(r.replanned);
  EXPECT_DOUBLE_EQ(r.timeout_primary, 1.0);
  EXPECT_DOUBLE_EQ(r.timeout_collocated, 1.0);
  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(0), 1.0);
  EXPECT_EQ(fleet.totals().deadline_misses, 1u);
  EXPECT_EQ(fleet.totals().replans, 0u);
}

TEST_F(FleetTest, PlanDeadlineOverrunFeedsTheAdmissionLag) {
  // One deadline drives both the discard and the shedding: an overrunning
  // plan is a deadline miss AND reaches each node's admission controller
  // as epoch lag, so it sheds even with an empty ring.
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetConfig cfg = fleet_config(1);
  cfg.shard.admission_enabled = true;
  cfg.planner.plan_deadline_seconds = 1e-12;
  FleetCoordinator fleet(snap, cfg);

  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0);
  const FleetEpochReport r = fleet.run_epoch(60.0);
  EXPECT_TRUE(r.deadline_miss);
  ASSERT_EQ(fleet.shard(0).ingest().approx_size(), 0u);
  ASSERT_NE(fleet.shard(0).admission(), nullptr);
  EXPECT_GT(fleet.shard(0).admission()->shed_probability(0), 0.0);
}

TEST_F(FleetTest, EpochFaultPointCrashesBeforeStateMoves) {
  serve::ModelSnapshot<serve::ServingModel> snap;
  FleetCoordinator fleet(snap, fleet_config(1));
  {
    FaultPlan plan;
    plan.add({.point = "fleet.coordinator.epoch",
              .action = FaultAction::kThrow,
              .every_nth = 1,
              .message = "injected coordinator crash"});
    FaultScope scope(plan);
    EXPECT_THROW((void)fleet.run_epoch(1.0), InjectedFault);
  }
  // The crash hit before the epoch counter moved: re-run, don't skip.
  EXPECT_EQ(fleet.totals().epochs, 0u);
  const FleetEpochReport r = fleet.run_epoch(1.0);
  EXPECT_EQ(r.epoch, 1u);
}

TEST_F(FleetTest, CheckpointCadenceWritesAndSurvivesWriteFaults) {
  const test_support::ScratchDir scratch;
  const std::string dir = scratch.path().string();
  serve::ModelSnapshot<serve::ServingModel> snap;
  FleetConfig cfg = fleet_config(1);
  cfg.checkpoint.directory = dir;
  cfg.checkpoint.every_n_epochs = 1;
  FleetCoordinator fleet(snap, cfg);

  const FleetEpochReport first = fleet.run_epoch(1.0);
  EXPECT_TRUE(first.checkpoint_written);
  const serve::CheckpointLoadReport loaded =
      serve::load_checkpoint(serve::checkpoint_path(dir));
  ASSERT_TRUE(loaded.clean()) << loaded.reason;
  EXPECT_EQ(loaded.checkpoint->epoch, 1u);

  // Storage trouble mid-epoch: the tick completes, the failure is counted,
  // and the epoch-1 checkpoint on disk stays valid.
  {
    FaultPlan plan;
    plan.add({.point = "serve.checkpoint.write",
              .action = FaultAction::kThrow,
              .every_nth = 1,
              .message = "injected storage failure"});
    FaultScope scope(plan);
    const FleetEpochReport second = fleet.run_epoch(2.0);
    EXPECT_EQ(second.epoch, 2u);
    EXPECT_FALSE(second.checkpoint_written);
  }
  EXPECT_EQ(fleet.totals().checkpoint_failures, 1u);
  EXPECT_EQ(fleet.totals().checkpoints_written, 1u);
  const serve::CheckpointLoadReport after =
      serve::load_checkpoint(serve::checkpoint_path(dir));
  ASSERT_TRUE(after.clean()) << after.reason;
  EXPECT_EQ(after.checkpoint->epoch, 1u);
}

TEST_F(FleetTest, RecoveryMatchesUninterruptedRunBitExactly) {
  const test_support::ScratchDir scratch;
  const std::string dir = scratch.path().string();
  auto bundle_for = [&] {
    return serve::build_serving_model(*mgr_, tiny_options(), 1);
  };

  // Uninterrupted baseline: two epochs of stationary traffic, with a
  // checkpoint written after epoch 1.
  serve::ModelSnapshot<serve::ServingModel> snap_a(bundle_for());
  FleetConfig cfg = fleet_config(1);
  cfg.checkpoint.directory = dir;
  cfg.checkpoint.every_n_epochs = 1;
  cfg.checkpoint.library_ref = "stac_manager:test";
  FleetCoordinator a(snap_a, cfg);
  feed_stationary(a.shard(0).ingest(), 0.0, 60.0);
  const FleetEpochReport a1 = a.run_epoch(60.0);
  ASSERT_TRUE(a1.replanned);
  ASSERT_TRUE(a1.checkpoint_written);
  // Grab the epoch-1 checkpoint before the epoch-2 cadence overwrites it —
  // this is the file a crash between the two ticks would recover from.
  const serve::CheckpointLoadReport loaded =
      serve::load_checkpoint(serve::checkpoint_path(dir));
  ASSERT_TRUE(loaded.clean()) << loaded.reason;
  feed_stationary(a.shard(0).ingest(), 60.0, 120.0);
  const FleetEpochReport a2 = a.run_epoch(120.0);
  ASSERT_TRUE(a2.replanned);

  // "Crash" after epoch 1: a fresh coordinator recovers from the epoch-1
  // checkpoint and replays the same epoch-2 traffic.
  EXPECT_EQ(loaded.checkpoint->epoch, 1u);
  EXPECT_EQ(loaded.checkpoint->library_ref, "stac_manager:test");

  serve::ModelSnapshot<serve::ServingModel> snap_b(bundle_for());
  FleetCoordinator b(snap_b, fleet_config(1));  // no checkpoint dir
  const serve::RecoveryReport rec = b.recover(*loaded.checkpoint, 60.0);
  EXPECT_TRUE(rec.restored);
  EXPECT_FALSE(rec.quarantined);
  EXPECT_EQ(b.totals().recoveries, 1u);
  EXPECT_EQ(b.totals().epochs, 1u);  // epoch counter continues, not restarts

  // The last-known-good vector is live immediately, before any replan.
  EXPECT_TRUE(bit_equal(b.shard(0).timeout(0), a1.timeout_primary));
  EXPECT_TRUE(bit_equal(b.shard(0).timeout(1), a1.timeout_collocated));

  feed_stationary(b.shard(0).ingest(), 60.0, 120.0);
  const FleetEpochReport b2 = b.run_epoch(120.0);
  ASSERT_TRUE(b2.replanned);
  EXPECT_EQ(b2.epoch, 2u);

  // Bit-identical recommended vectors vs the uninterrupted run.
  EXPECT_TRUE(bit_equal(b2.timeout_primary, a2.timeout_primary));
  EXPECT_TRUE(bit_equal(b2.timeout_collocated, a2.timeout_collocated));
  EXPECT_EQ(b2.planned_condition.util_primary,
            a2.planned_condition.util_primary);
  EXPECT_EQ(b2.planned_condition.util_collocated,
            a2.planned_condition.util_collocated);
}

TEST_F(FleetTest, RecoverQuarantinesMalformedCheckpoints) {
  serve::ModelSnapshot<serve::ServingModel> snap;
  FleetCoordinator fleet(snap, fleet_config(1));

  // A checkpoint written before a retrain changed the workload set: the
  // shape no longer matches the live pair.  Quarantined — counted, nothing
  // restored, and the fleet keeps serving its initial vector rather than
  // crashing on stale durable state.
  serve::ControllerCheckpoint wrong_shape;
  wrong_shape.workloads.resize(1);
  wrong_shape.workloads[0].timeout = 0.25;
  wrong_shape.workloads[0].arrivals = 777;
  const serve::RecoveryReport shape = fleet.recover(wrong_shape, 1.0);
  EXPECT_FALSE(shape.restored);
  EXPECT_TRUE(shape.quarantined);
  EXPECT_FALSE(shape.reason.empty());
  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(0), 1.0);  // untouched

  serve::ControllerCheckpoint negative;
  negative.workloads.resize(2);
  negative.workloads[0].timeout = -1.0;
  EXPECT_TRUE(fleet.recover(negative, 1.0).quarantined);

  // Validation runs before mutation: the NaN sits in the second record, so
  // a restore that applied records as it checked them would have moved the
  // first one.
  serve::ControllerCheckpoint nan_ckpt;
  nan_ckpt.epoch = 9;
  nan_ckpt.workloads.resize(2);
  nan_ckpt.workloads[0].timeout = 0.5;
  nan_ckpt.workloads[0].arrivals = 55;
  nan_ckpt.workloads[1].timeout = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(fleet.recover(nan_ckpt, 1.0).quarantined);

  serve::ControllerCheckpoint oversize;
  oversize.workloads.resize(5);
  for (auto& w : oversize.workloads) w.timeout = 0.5;
  EXPECT_TRUE(fleet.recover(oversize, 1.0).quarantined);

  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(0), 1.0);
  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(1), 1.0);
  EXPECT_EQ(fleet.shard(0).estimator().snapshot_workload(0).arrivals, 0u);
  EXPECT_EQ(fleet.totals().epochs, 0u);
  EXPECT_EQ(fleet.totals().recoveries, 0u);
  EXPECT_EQ(fleet.totals().recovery_quarantines, 4u);
  EXPECT_EQ(fleet.shard(0).estimator().restore_quarantined(), 0u);
  EXPECT_DOUBLE_EQ(fleet.run_epoch(2.0).timeout_primary, 1.0);

  // A clean checkpoint still restores after the quarantines.
  serve::ControllerCheckpoint good;
  good.epoch = 7;
  good.workloads.resize(2);
  good.workloads[0].timeout = 2.0;
  good.workloads[1].timeout = 6.0;
  const serve::RecoveryReport ok = fleet.recover(good, 3.0);
  EXPECT_TRUE(ok.restored);
  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(0), 2.0);
  EXPECT_DOUBLE_EQ(fleet.shard(0).timeout(1), 6.0);
  EXPECT_EQ(fleet.totals().recoveries, 1u);
  EXPECT_EQ(fleet.totals().epochs, 7u);
  EXPECT_DOUBLE_EQ(fleet.run_epoch(4.0).timeout_primary, 2.0);
}

TEST_F(FleetTest, HotSwapUnderLoadLosesNoEvents) {
  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(*mgr_, tiny_options(), 1));
  FleetConfig cfg = fleet_config(1);
  cfg.shard.estimator.min_completions = 10;
  FleetCoordinator fleet(snap, cfg);
  serve::ArrivalIngest& ring = fleet.shard(0).ingest();

  serve::ReplayConfig replay_cfg;
  replay_cfg.workloads = {
      {.mean_service = 0.05, .service_cv = 0.7, .servers = 2,
       .base_util = 0.6},
      {.mean_service = 0.05, .service_cv = 0.7, .servers = 2,
       .base_util = 0.6}};
  replay_cfg.shards_per_workload = 2;  // 4 producer threads
  serve::TrafficReplay replay(ring, &fleet.shard(0), replay_cfg);

  // Pre-built bundles so the swap thread only publishes (refits would
  // dominate the test under TSan).
  std::vector<std::unique_ptr<const serve::ServingModel>> bundles;
  for (std::uint64_t v = 2; v <= 4; ++v)
    bundles.push_back(serve::build_serving_model(*mgr_, tiny_options(), v));

  std::thread swapper([&] {
    for (auto& b : bundles) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      snap.publish(std::move(b));
    }
  });

  // ~20 wall-paced simulated seconds per wall second: the run overlaps all
  // three publishes.
  const serve::SoakResult result = replay.run_threaded(
      [&fleet](double now) { return fleet.run_epoch(now).replanned; },
      /*sim_seconds=*/40.0, /*epoch_interval=*/2.0, /*wall_pace=*/40.0);
  swapper.join();

  // Zero loss through the swap: every published event was drained.
  EXPECT_EQ(result.traffic.push_failures, 0u);
  EXPECT_EQ(result.ingest_dropped, 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.popped(), ring.pushed());
  EXPECT_EQ(fleet.totals().events_drained, ring.pushed());
  EXPECT_EQ(result.traffic.arrivals, result.traffic.completions);
  EXPECT_GT(result.traffic.arrivals, 100u);
  EXPECT_EQ(result.epochs, 20u);
  EXPECT_EQ(snap.version(), 4u);
  EXPECT_GE(fleet.totals().model_swaps_observed, 1u);
  EXPECT_GT(fleet.totals().replans, 0u);
}

// A manager calibrated with modeled-time EA labels must serve exactly like
// a miss-ratio one: bundle builds, the fleet warms up and replans.
TEST(FleetEaMode, ServesFromModeledTimeCalibration) {
  StacOptions opts = tiny_options();
  opts.profiler.ea_mode = profiler::EaMode::kModeledTime;
  StacManager mgr(opts);
  mgr.calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  ASSERT_TRUE(mgr.calibrated());

  serve::ModelSnapshot<serve::ServingModel> snap(
      serve::build_serving_model(mgr, opts, 1));
  FleetCoordinator fleet(snap, fleet_config(1));
  feed_stationary(fleet.shard(0).ingest(), 0.0, 60.0);
  const FleetEpochReport r = fleet.run_epoch(60.0);
  ASSERT_TRUE(r.warm);
  ASSERT_TRUE(r.replanned);
  const auto& grid = opts.explorer.grid;
  EXPECT_NE(std::find(grid.begin(), grid.end(), r.timeout_primary),
            grid.end());
}

}  // namespace
}  // namespace stac::fleet

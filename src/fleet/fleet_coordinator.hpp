// The fleet control plane: N node shards, ONE plan.
//
// Per coordinator epoch:
//   1. every active shard drains its own ring into its own estimator
//      (node-local, no cross-shard contention on the hot path);
//   2. each workload's per-shard window moments are merged fleet-wide
//      (core::merge_moments — count-weighted Welford, total arrival rate
//      against total active capacity);
//   3. ONE memoized/incremental §5.2 sweep runs on the merged condition
//      (serve::EpochPlanner);
//   4. the selection is published as a versioned FleetPlan through the
//      ModelSnapshot RCU machinery (nodes can pull asynchronously via
//      NodeShard::refresh_plan; the coordinator also applies it to every
//      active shard before returning) — after asserting the plan is
//      finite, so a NaN can never reach a published plan;
//   5. per-node epilogue: admission feedback and the CAT grant watchdog;
//   6. durable state at the configured checkpoint cadence.
//
// A single node is a fleet of one: the same loop, one shard.
//
// Crash recovery: a freshly built coordinator recover()s from the last
// checkpoint — every shard's last-known-good vector and estimator state
// come back before any model is published, and the epoch counter and
// totals continue where the dead coordinator left them.
//
// Join/leave is zero-loss by construction: leave_shard drains the ring a
// final time (every produced event reaches the estimator), checkpoints the
// node, releases its boost grants, and deactivates it — the next epoch's
// merge simply renormalizes the fleet's offered load onto the remaining
// capacity (fewer moments, smaller servers_total).  rejoin_shard restores
// the checkpoint (quarantining malformed state, never crashing on it) and
// adopts the currently published plan before taking traffic.
//
// Cross-node profile-library merge: merge_library folds another node's
// calibration profiles into the coordinator's library (exact-duplicate
// conditions skipped), feeding background refits of the shared
// ServingModel — one node's calibration warms the whole fleet.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cat/cat_controller.hpp"
#include "core/condition_merge.hpp"
#include "core/profile_library.hpp"
#include "fleet/fleet_plan.hpp"
#include "fleet/node_shard.hpp"
#include "serve/checkpoint.hpp"
#include "serve/epoch_planner.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/refit_executor.hpp"
#include "serve/serving_model.hpp"

namespace stac::fleet {

struct FleetConfig {
  /// Number of node shards built up front (shards join/leave within this
  /// set; capacity is not resized at runtime).
  std::size_t shards = 1;
  /// Per-node template (ring, estimator, admission, servers).  The fleet
  /// plans once the pooled window holds shard.estimator.min_completions
  /// completions per workload.
  NodeShardConfig shard;
  /// The shared planning core's knobs.  base_condition also supplies every
  /// shard's initial timeout vector; plan_deadline_seconds is also the
  /// denominator of the per-node admission lag (0 = no lag signal).
  serve::PlannerConfig planner;
  /// Per-node CAT domains (not owned): empty = none, else one per shard.
  std::vector<cat::CatController*> cats;
  /// Crash-safe durable state (empty directory = disabled).
  serve::CheckpointConfig checkpoint;
  /// Background refit pipeline (not owned; must outlive the coordinator).
  /// When set, merge_library routes merged deltas through the executor —
  /// merge→warm-refit→publish happens off the coordinator thread and no
  /// fleet epoch ever carries a fit.  null = merges only update the
  /// coordinator's library (the pre-executor behavior).
  serve::RefitExecutor* refit = nullptr;
};

/// What one coordinator epoch did.
struct FleetEpochReport {
  std::uint64_t epoch = 0;
  double now = 0.0;
  std::size_t active_shards = 0;
  std::size_t events_drained = 0;
  bool warm = false;
  bool replanned = false;
  bool stale_hold = false;
  bool deadline_miss = false;
  bool model_unavailable_hold = false;
  profiler::RuntimeCondition planned_condition;
  core::DegradationRung probe_rung = core::DegradationRung::kPrimaryModel;
  std::uint64_t model_version = 0;
  double plan_seconds = 0.0;
  std::size_t cells_simulated = 0;
  std::size_t cells_reused = 0;
  /// Fleet-merged estimates the plan (if any) was built from.
  core::MergedWorkloadEstimate merged_primary;
  core::MergedWorkloadEstimate merged_collocated;
  /// Applied vector after this epoch (last published plan, or the initial
  /// vector before the first plan).
  double timeout_primary = 0.0;
  double timeout_collocated = 0.0;
  std::size_t watchdog_revocations = 0;
  bool checkpoint_written = false;
};

class FleetCoordinator {
 public:
  /// `models` is the fleet-shared serving bundle (hot-swapped by
  /// background refits); must outlive the coordinator.
  FleetCoordinator(serve::ModelSnapshot<serve::ServingModel>& models,
                   FleetConfig config);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t active_shards() const;
  [[nodiscard]] NodeShard& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const NodeShard& shard(std::size_t i) const {
    return *shards_[i];
  }

  /// One coordinator epoch at runtime-clock `now`.  Call from one thread
  /// only (shard producers publish into the rings concurrently; everything
  /// else here is coordinator-owned).  A "fleet.coordinator.epoch" fault
  /// fires before the epoch counter moves, so a recovered coordinator
  /// re-runs the tick rather than skipping it.
  FleetEpochReport run_epoch(double now);

  /// Snapshot the fleet's durable state as of runtime clock `now`: the
  /// coordinator's counters plus two workload records per shard, in shard
  /// order.
  [[nodiscard]] serve::ControllerCheckpoint make_checkpoint(double now) const;

  /// Write a checkpoint immediately (independent of the epoch cadence).
  /// Throws on I/O failure or an injected "serve.checkpoint.write" fault —
  /// the epoch path swallows and counts the failure instead.
  void checkpoint_now(double now);

  /// Restore a freshly built coordinator from a checkpoint: every shard's
  /// last-known-good vector goes live immediately (before any model is
  /// published), its estimator EWMAs and lifetime counters come back, its
  /// surviving boost grants are force-released, and it is active.  The
  /// epoch counter and the replan/hold totals continue from the checkpoint;
  /// the reported vector is shard 0's.  The model bundle is NOT restored —
  /// epochs hold the recovered vector until a refit publishes one.
  ///
  /// Every record is validated before any state changes: a wrong record
  /// count (not two per shard) or a non-finite/negative timeout
  /// quarantines the checkpoint, counted in Totals::recovery_quarantines,
  /// and leaves the coordinator exactly as it was.
  [[nodiscard]] serve::RecoveryReport recover(
      const serve::ControllerCheckpoint& checkpoint, double now);

  /// The published-plan channel (nodes pull with NodeShard::refresh_plan).
  [[nodiscard]] serve::ModelSnapshot<FleetPlan>& plans() { return plans_; }

  /// Zero-loss leave: final drain, checkpoint, boost release, deactivate.
  /// The returned checkpoint is the node's hand-off state (rejoin_shard
  /// accepts it back).  Requires the shard to be active.
  [[nodiscard]] serve::ControllerCheckpoint leave_shard(std::size_t id,
                                                        double now);

  /// Rejoin a departed shard from its hand-off checkpoint.  Malformed
  /// checkpoints are quarantined (counted; the shard rejoins cold).  The
  /// shard adopts the currently published plan before activation either
  /// way, so it never serves a stale or half-restored vector.
  serve::RecoveryReport rejoin_shard(std::size_t id,
                                     const serve::ControllerCheckpoint& ckpt,
                                     double now);

  /// Fold another node's profile library into the fleet library (feeds
  /// background refits; see header note).
  core::ProfileLibrary::MergeStats merge_library(
      const core::ProfileLibrary& other);
  [[nodiscard]] const core::ProfileLibrary& library() const {
    return library_;
  }

  struct Totals {
    std::uint64_t epochs = 0;
    std::uint64_t replans = 0;
    std::uint64_t stale_holds = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t model_unavailable_holds = 0;
    std::uint64_t model_swaps_observed = 0;
    std::uint64_t events_drained = 0;
    std::uint64_t plan_pushes = 0;  ///< shard applications of published plans
    std::uint64_t leaves = 0;
    std::uint64_t joins = 0;
    std::uint64_t join_quarantines = 0;
    std::uint64_t library_profiles_merged = 0;
    std::uint64_t refit_requests = 0;  ///< merges routed to the RefitExecutor
    std::uint64_t watchdog_revocations = 0;
    std::uint64_t checkpoints_written = 0;
    std::uint64_t checkpoint_failures = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t recovery_quarantines = 0;
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

 private:
  /// A checkpoint with the coordinator-level fields filled in and no
  /// workload records yet.
  [[nodiscard]] serve::ControllerCheckpoint checkpoint_header(
      double now) const;

  serve::ModelSnapshot<serve::ServingModel>& models_;
  FleetConfig config_;
  /// unique_ptr: shards hold atomics and a ring (non-movable).
  std::vector<std::unique_ptr<NodeShard>> shards_;
  serve::EpochPlanner planner_;
  serve::ModelSnapshot<FleetPlan> plans_;
  core::ProfileLibrary library_;
  /// Scratch for the per-workload merge inputs (reused across epochs).
  std::vector<core::WorkloadMoments> moments_;
  double applied_timeout_primary_;
  double applied_timeout_collocated_;
  Totals totals_;
};

}  // namespace stac::fleet

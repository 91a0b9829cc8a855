// The planning core of a control epoch: steps 3-4 of the FleetCoordinator
// epoch loop.
//
// plan() pins the current ServingModel, quantizes the utilization
// estimates onto the profiled Table-2 axis, probes model staleness
// (TTL-memoized), and runs the §5.2 policy sweep (memoized/incremental)
// under the optional planning deadline.  It owns the state those steps memo
// across epochs — the ExplorationMemoPool, the staleness-probe memo, and
// the last-seen bundle version — so a caller that feeds identical
// estimates and models gets bit-identical selections.
//
// The caller owns everything around the plan: draining, estimation,
// publishing the selected vector, admission feedback, CAT watchdog,
// checkpoints, and its own totals.
#pragma once

#include <cstdint>

#include "core/policy_explorer.hpp"
#include "profiler/runtime_condition.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/serving_model.hpp"

namespace stac::serve {

/// Planning knobs.
struct PlannerConfig {
  /// Pairing plus the fixed condition knobs (mix, churn, sampling, seed);
  /// utilizations are overwritten from the estimates each epoch and the
  /// timeouts are the initial applied vector.
  profiler::RuntimeCondition base_condition;
  core::ExplorerConfig explorer;
  /// Utilization snap grid for the planned condition (0 = raw estimate);
  /// quantizing keeps stationary traffic on one condition — and the memo
  /// cache hot — instead of jittering by one sample each epoch.
  double util_quantum = 0.05;
  /// Table-2 clamp: the models were only ever trained inside this range.
  double util_lo = 0.25;
  double util_hi = 0.95;
  /// Deepest ladder rung the loop will plan on; a probe answering below
  /// holds the last-known-good vector (counted as a stale hold).
  core::DegradationRung max_planning_rung =
      core::DegradationRung::kNearestNeighbor;
  /// How many consecutive epochs one staleness probe may answer for.  The
  /// probed rung is a pure function of (condition, bundle version) — both
  /// re-checked every epoch — so reuse is sound against drift and hot-swap;
  /// what a longer TTL trades away is detection latency for *environmental*
  /// model failure (the chaos-drill scenario), which only a fresh predict
  /// can see.  1 = probe every epoch (detect within one epoch, the
  /// conservative default); raise it to take EA inference off stationary
  /// epochs' plan path (DESIGN.md §13) at the cost of up to TTL-1 epochs of
  /// undetected degradation.
  std::uint64_t probe_ttl_epochs = 1;
  /// Incremental re-planning (DESIGN.md §13): keep the previous epoch's
  /// prediction matrices in an ExplorationMemo and re-simulate only grid
  /// cells the memo cannot answer — on stationary traffic (same quantized
  /// condition, same model version) an epoch's sweep touches zero cells
  /// and planning drops to matrix reads + selection.  Selections are
  /// bit-identical to a full sweep; the memo invalidates itself on any
  /// condition drift or model hot-swap.  false = full sweep every epoch.
  bool incremental = true;
  /// Distinct quantized conditions memoized at once (ExplorationMemoPool
  /// capacity, min 1).  A utilization estimate hovering at a quantization
  /// boundary flips the planned condition between adjacent cells
  /// indefinitely; with a single memo every flip is a full sweep, while a
  /// small pool keeps each recurring condition's matrices warm.
  std::size_t memo_conditions = 4;
  /// Planning deadline budget, seconds (0 = unlimited).  A sweep that
  /// overruns it is *discarded* — the epoch keeps the last-known-good
  /// vector and counts a deadline miss — so a slow plan can never stretch
  /// the control period.  Measure-then-discard, not predict-and-skip: the
  /// next epoch always gets a fresh measurement.
  double plan_deadline_seconds = 0.0;
};

/// What one plan() call decided.  Exactly one of the four outcome booleans
/// is set per call; timeout_* are the selection and only valid when
/// `replanned` (on a hold the caller keeps its last-known-good vector).
struct PlanOutcome {
  bool model_unavailable_hold = false;
  bool stale_hold = false;
  bool deadline_miss = false;
  bool replanned = false;
  /// The pinned bundle's version differed from the previous plan's.
  bool model_swap_observed = false;
  profiler::RuntimeCondition planned_condition;
  core::DegradationRung probe_rung = core::DegradationRung::kPrimaryModel;
  std::uint64_t model_version = 0;
  std::size_t cells_simulated = 0;
  std::size_t cells_reused = 0;
  double timeout_primary = 0.0;
  double timeout_collocated = 0.0;
};

class EpochPlanner {
 public:
  explicit EpochPlanner(PlannerConfig config);

  /// Quantize a raw utilization estimate onto the profiled axis (snap to
  /// util_quantum from util_lo, clamp to [util_lo, util_hi]).
  [[nodiscard]] double snap_utilization(double u) const;

  /// Run the planning step for this epoch's raw utilization estimates.
  /// Call from one thread only (the memo state is single-writer, like the
  /// rest of the control loop).
  PlanOutcome plan(ModelSnapshot<ServingModel>& models,
                   double raw_util_primary, double raw_util_collocated);

  /// Seed the version memo from a recovered checkpoint so the first
  /// post-recovery publish registers as an observed swap.
  void note_model_version(std::uint64_t version) {
    last_model_version_ = version;
  }
  [[nodiscard]] std::uint64_t last_model_version() const {
    return last_model_version_;
  }

 private:
  PlannerConfig config_;
  /// Prior-epoch sweep matrices for incremental re-planning, one memo per
  /// recently-seen quantized condition (PlannerConfig::memo_conditions),
  /// keyed on the pinned bundle's version as the generation stamp.
  core::ExplorationMemoPool explore_memos_;
  /// Staleness-probe memo (see PlannerConfig::probe_ttl_epochs): the last
  /// probed rung plus the inputs it is valid for and how many epochs it
  /// has answered.
  bool probe_valid_ = false;
  std::uint64_t probe_version_ = 0;
  std::uint64_t probe_age_ = 0;
  double probe_util_primary_ = 0.0;
  double probe_util_collocated_ = 0.0;
  core::DegradationRung probe_rung_ = core::DegradationRung::kPrimaryModel;
  std::uint64_t last_model_version_ = 0;
};

}  // namespace stac::serve

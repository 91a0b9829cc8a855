// One node of the sharded serving fleet.
//
// A shard owns the node-local half of the control loop — the lock-free
// ingest ring its admission proxies publish into, the condition estimator
// that folds the drained events, the (optional) admission controller and
// CAT domain — but does NOT plan.  Planning is the coordinator's job: the
// shard exports its windows as mergeable moments (window_moments), the
// coordinator merges them fleet-wide, sweeps once, and the shard applies
// the resulting FleetPlan to the per-workload timeout atomics its proxies
// read (the TimeoutSource surface).
//
// Shards also speak the join/leave protocol: leave = final drain (the ring
// empties into the estimator, so no event is lost) + checkpoint + boost
// release; rejoin = checkpoint restore (quarantining, like coordinator
// recovery) + adopt the currently published plan.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "cat/cat_controller.hpp"
#include "fleet/fleet_plan.hpp"
#include "serve/admission.hpp"
#include "serve/arrival_ingest.hpp"
#include "serve/checkpoint.hpp"
#include "serve/condition_estimator.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/timeout_source.hpp"

namespace stac::fleet {

struct NodeShardConfig {
  std::size_t ring_capacity = 1 << 16;
  /// Query slots per workload on this node; the fleet's total capacity is
  /// servers x active shards.
  std::size_t servers = 2;
  serve::EstimatorConfig estimator;
  /// Per-node overload protection (each shard sheds against its own ring's
  /// occupancy; the fairness scales are node-local too).
  bool admission_enabled = false;
  serve::AdmissionConfig admission;
};

class NodeShard : public serve::TimeoutSource {
 public:
  /// `cat` is this node's CAT domain (optional, not owned; >= 2 workloads
  /// when set).  Initial timeouts serve until the first plan arrives.
  NodeShard(NodeShardConfig config, double initial_timeout_primary,
            double initial_timeout_collocated,
            cat::CatController* cat = nullptr);

  /// The ring this node's proxies publish into.
  [[nodiscard]] serve::ArrivalIngest& ingest() { return ingest_; }
  [[nodiscard]] const serve::ArrivalIngest& ingest() const { return ingest_; }
  /// Node-local admission controller (null when not enabled).
  [[nodiscard]] serve::AdmissionController* admission() {
    return admission_ ? &*admission_ : nullptr;
  }
  [[nodiscard]] const serve::ConditionEstimator& estimator() const {
    return estimator_;
  }

  /// Applied STAP timeout for workload w — the proxies' read surface.
  [[nodiscard]] double timeout(std::size_t w) const override {
    return timeouts_[w].load(std::memory_order_relaxed);
  }

  /// Drain the ring into the estimator (and mirror boost grants into the
  /// CAT domain).  Coordinator thread only.  Returns events drained.
  std::size_t drain();

  /// This shard's window moments for workload `w` (the coordinator's
  /// aggregation input).
  [[nodiscard]] core::WorkloadMoments moments(std::size_t w, double now) {
    return estimator_.window_moments(w, now);
  }

  /// Apply a published plan to the proxies' atomics.
  void apply_plan(const FleetPlan& plan);

  /// Pull the newest published plan if it is newer than the last one this
  /// shard applied — the asynchronous distribution path.  Returns true if
  /// a new plan was adopted.
  bool refresh_plan(serve::ModelSnapshot<FleetPlan>& plans);

  /// Per-node admission feedback (no-op without admission).
  void note_epoch(double epoch_lag);

  /// Poll this node's CAT grant watchdog (no-op without a CAT domain).
  std::size_t poll_watchdog(double now);

  [[nodiscard]] bool active() const { return active_; }
  void activate() { active_ = true; }
  /// Leave-side teardown: release every boost grant this node still holds
  /// (its proxies are being reassigned) and mark the shard inactive.
  void deactivate(double now);

  /// Append this node's two durable workload records (applied timeout +
  /// estimator EWMAs/counters) to a checkpoint the coordinator is building.
  void append_records(std::vector<serve::WorkloadCheckpoint>& out) const;

  /// Restore the node's two workload records (rejoin, and each shard of a
  /// coordinator recover): applied vector, estimator EWMAs and lifetime
  /// counters, then release any boost grants that survived.  A checkpoint
  /// that is not exactly the live pair, or whose timeouts are
  /// non-finite/negative, is counted and ignored (serve::checkpoint_defect)
  /// — the shard stays cold instead of crashing or half-restoring.
  [[nodiscard]] serve::RecoveryReport restore(
      const serve::ControllerCheckpoint& checkpoint, double now);

  struct Totals {
    std::uint64_t events_drained = 0;
    std::uint64_t plans_applied = 0;
    std::uint64_t watchdog_revocations = 0;
    std::uint64_t restore_quarantines = 0;
    std::uint64_t boosts_released_on_leave = 0;
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

 private:
  void mirror_to_cat(const serve::QueryEvent& event);

  NodeShardConfig config_;
  cat::CatController* cat_;
  serve::ArrivalIngest ingest_;
  serve::ConditionEstimator estimator_;
  std::optional<serve::AdmissionController> admission_;
  std::vector<serve::QueryEvent> batch_;  ///< one ring read's worth
  std::array<std::atomic<double>, 2> timeouts_;
  std::uint64_t applied_plan_epoch_ = 0;
  bool active_ = true;
  Totals totals_;
};

}  // namespace stac::fleet

#include "fleet/node_shard.hpp"

#include <cmath>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace stac::fleet {

NodeShard::NodeShard(NodeShardConfig config, double initial_timeout_primary,
                     double initial_timeout_collocated,
                     cat::CatController* cat)
    : config_(std::move(config)), cat_(cat),
      ingest_(config_.ring_capacity),
      estimator_(2, config_.servers, config_.estimator),
      batch_(8192) {
  if (cat_ != nullptr) STAC_REQUIRE(cat_->workload_count() >= 2);
  if (config_.admission_enabled)
    admission_.emplace(ingest_, 2, config_.admission);
  timeouts_[0].store(initial_timeout_primary, std::memory_order_relaxed);
  timeouts_[1].store(initial_timeout_collocated, std::memory_order_relaxed);
}

void NodeShard::mirror_to_cat(const serve::QueryEvent& event) {
  // Keep the hardware view in step with the proxies' grants: a fired STAP
  // timeout boosts this node's class (refcounted, lease-stamped for the
  // watchdog), a boosted completion releases one grant.  Degraded workloads
  // ignore boosts inside CatController; spurious unboosts are counted
  // no-ops.
  if (event.kind == serve::EventKind::kTimeout) {
    cat_->boost(event.workload, event.time);
  } else if (event.kind == serve::EventKind::kCompletion && event.boosted) {
    cat_->unboost(event.workload);
  }
}

std::size_t NodeShard::drain() {
  std::size_t drained = 0;
  for (;;) {
    const std::size_t n = ingest_.drain(batch_);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      estimator_.observe(batch_[i]);
      if (cat_ != nullptr) mirror_to_cat(batch_[i]);
    }
    drained += n;
  }
  totals_.events_drained += drained;
  return drained;
}

void NodeShard::apply_plan(const FleetPlan& plan) {
  // The coordinator asserts finiteness before publishing; re-check here so
  // a plan can never reach the proxies' atomics with a NaN even if a new
  // caller skips the coordinator.
  STAC_REQUIRE(std::isfinite(plan.timeout_primary) &&
               plan.timeout_primary >= 0.0);
  STAC_REQUIRE(std::isfinite(plan.timeout_collocated) &&
               plan.timeout_collocated >= 0.0);
  timeouts_[0].store(plan.timeout_primary, std::memory_order_relaxed);
  timeouts_[1].store(plan.timeout_collocated, std::memory_order_relaxed);
  applied_plan_epoch_ = plan.epoch;
  ++totals_.plans_applied;
}

bool NodeShard::refresh_plan(serve::ModelSnapshot<FleetPlan>& plans) {
  auto guard = plans.acquire();
  if (!guard || guard->epoch <= applied_plan_epoch_) return false;
  apply_plan(*guard);
  return true;
}

void NodeShard::note_epoch(double epoch_lag) {
  if (admission_) admission_->note_epoch(epoch_lag);
}

std::size_t NodeShard::poll_watchdog(double now) {
  if (cat_ == nullptr) return 0;
  const std::size_t revoked = cat_->poll_watchdog(now);
  totals_.watchdog_revocations += revoked;
  return revoked;
}

void NodeShard::deactivate(double now) {
  if (cat_ != nullptr) {
    totals_.boosts_released_on_leave += cat_->release_all_boosts();
    (void)cat_->poll_watchdog(now);
  }
  active_ = false;
}

void NodeShard::append_records(
    std::vector<serve::WorkloadCheckpoint>& out) const {
  for (std::size_t w = 0; w < 2; ++w)
    out.push_back({estimator_.snapshot_workload(w),
                   timeouts_[w].load(std::memory_order_relaxed)});
}

serve::RecoveryReport NodeShard::restore(
    const serve::ControllerCheckpoint& checkpoint, double now) {
  serve::RecoveryReport report;
  report.reason = serve::checkpoint_defect(checkpoint, 2);
  if (!report.reason.empty()) {
    report.quarantined = true;
    ++totals_.restore_quarantines;
    obs::count("fleet.shard.restore_quarantines");
    return report;
  }
  for (std::size_t w = 0; w < 2; ++w) {
    const serve::WorkloadCheckpoint& in = checkpoint.workloads[w];
    timeouts_[w].store(in.timeout, std::memory_order_relaxed);
    const bool restored = estimator_.restore_workload(w, in);
    STAC_ENSURE(restored);
  }
  if (cat_ != nullptr) {
    cat_->release_all_boosts();
    (void)cat_->poll_watchdog(now);
  }
  report.restored = true;
  return report;
}

}  // namespace stac::fleet

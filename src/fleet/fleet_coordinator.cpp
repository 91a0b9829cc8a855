#include "fleet/fleet_coordinator.hpp"

#include <chrono>
#include <cmath>
#include <exception>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stac::fleet {

namespace {
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

FleetCoordinator::FleetCoordinator(
    serve::ModelSnapshot<serve::ServingModel>& models, FleetConfig config)
    : models_(models), config_(std::move(config)),
      planner_(config_.planner),
      applied_timeout_primary_(config_.planner.base_condition.timeout_primary),
      applied_timeout_collocated_(
          config_.planner.base_condition.timeout_collocated) {
  STAC_REQUIRE(config_.shards >= 1);
  STAC_REQUIRE_MSG(config_.cats.empty() ||
                       config_.cats.size() == config_.shards,
                   "cats must be empty or one per shard");
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    cat::CatController* cat =
        config_.cats.empty() ? nullptr : config_.cats[i];
    shards_.push_back(std::make_unique<NodeShard>(
        config_.shard, config_.planner.base_condition.timeout_primary,
        config_.planner.base_condition.timeout_collocated, cat));
  }
  moments_.reserve(config_.shards);
}

std::size_t FleetCoordinator::active_shards() const {
  std::size_t n = 0;
  for (const auto& s : shards_)
    if (s->active()) ++n;
  return n;
}

FleetEpochReport FleetCoordinator::run_epoch(double now) {
  STAC_TRACE_SPAN(span, "fleet.epoch", "fleet");
  auto& registry = obs::MetricsRegistry::global();

  // Chaos hook: a kThrow models the coordinator thread dying mid-tick,
  // before the epoch counter moves.
  FaultInjector::global().check("fleet.coordinator.epoch");

  FleetEpochReport report;
  report.epoch = ++totals_.epochs;
  report.now = now;

  // 1. Node-local drains.
  for (auto& s : shards_) {
    if (!s->active()) continue;
    ++report.active_shards;
    report.events_drained += s->drain();
  }
  totals_.events_drained += report.events_drained;
  registry.counter("fleet.events_drained").add(report.events_drained);

  // 2. Fleet-wide condition aggregation: total offered load against total
  // active capacity.  With zero active shards the merge yields a cold
  // estimate and the epoch holds — a fully-departed fleet plans nothing.
  const std::size_t servers_total =
      config_.shard.servers * std::max<std::size_t>(1, report.active_shards);
  core::MergedWorkloadEstimate merged[2];
  for (std::size_t w = 0; w < 2; ++w) {
    moments_.clear();
    for (auto& s : shards_)
      if (s->active()) moments_.push_back(s->moments(w, now));
    merged[w] = core::merge_moments(moments_, servers_total,
                                    config_.shard.estimator.min_completions);
  }
  report.merged_primary = merged[0];
  report.merged_collocated = merged[1];
  report.warm = merged[0].warm && merged[1].warm;

  // 3-4. One global plan on the merged condition; publish + push.
  const double t0 = now_seconds();
  if (report.warm && report.active_shards > 0) {
    const serve::PlanOutcome outcome = planner_.plan(
        models_, merged[0].utilization, merged[1].utilization);
    report.planned_condition = outcome.planned_condition;
    report.probe_rung = outcome.probe_rung;
    report.model_version = outcome.model_version;
    report.cells_simulated = outcome.cells_simulated;
    report.cells_reused = outcome.cells_reused;
    report.model_unavailable_hold = outcome.model_unavailable_hold;
    report.stale_hold = outcome.stale_hold;
    report.deadline_miss = outcome.deadline_miss;
    if (outcome.model_unavailable_hold) ++totals_.model_unavailable_holds;
    if (outcome.model_swap_observed) ++totals_.model_swaps_observed;
    if (outcome.stale_hold) ++totals_.stale_holds;
    if (outcome.deadline_miss) ++totals_.deadline_misses;
    if (outcome.replanned) {
      // No NaN ever reaches a published plan: the sweep's selection comes
      // off the explorer grid, but assert the invariant at the publish
      // boundary rather than trusting the whole pipeline.
      STAC_ENSURE(std::isfinite(outcome.timeout_primary) &&
                  outcome.timeout_primary >= 0.0);
      STAC_ENSURE(std::isfinite(outcome.timeout_collocated) &&
                  outcome.timeout_collocated >= 0.0);
      auto plan = std::make_unique<FleetPlan>();
      plan->epoch = report.epoch;
      plan->model_version = outcome.model_version;
      plan->planned_condition = outcome.planned_condition;
      plan->timeout_primary = outcome.timeout_primary;
      plan->timeout_collocated = outcome.timeout_collocated;
      plans_.publish(std::move(plan));
      // Synchronous push to every active node (nodes that were asleep for
      // the publish still converge via refresh_plan — same RCU snapshot).
      for (auto& s : shards_) {
        if (!s->active()) continue;
        if (s->refresh_plan(plans_)) ++totals_.plan_pushes;
      }
      applied_timeout_primary_ = outcome.timeout_primary;
      applied_timeout_collocated_ = outcome.timeout_collocated;
      report.replanned = true;
      ++totals_.replans;
    }
  }
  report.plan_seconds = now_seconds() - t0;
  registry.latency("fleet.epoch_plan_seconds").record(report.plan_seconds);

  // 5. Per-node epilogue: admission feedback (lag 1.0 = the plan consumed
  // the whole deadline budget) + CAT watchdog.
  const double deadline = config_.planner.plan_deadline_seconds;
  const double lag = deadline > 0.0 ? report.plan_seconds / deadline : 0.0;
  for (auto& s : shards_) {
    if (!s->active()) continue;
    s->note_epoch(lag);
    report.watchdog_revocations += s->poll_watchdog(now);
  }
  totals_.watchdog_revocations += report.watchdog_revocations;

  // 6. Durable state at the configured cadence.  A failed write (disk
  // trouble, an injected "serve.checkpoint.write" fault) is survived and
  // counted: the previous checkpoint on disk stays valid, and serving is
  // never gated on storage.
  if (!config_.checkpoint.directory.empty() &&
      config_.checkpoint.every_n_epochs > 0 &&
      report.epoch % config_.checkpoint.every_n_epochs == 0) {
    try {
      checkpoint_now(now);
      report.checkpoint_written = true;
    } catch (const std::exception&) {
      ++totals_.checkpoint_failures;
      registry.counter("fleet.checkpoint.write_failures").add();
    }
  }

  report.timeout_primary = applied_timeout_primary_;
  report.timeout_collocated = applied_timeout_collocated_;
  span.arg("drained", static_cast<std::uint64_t>(report.events_drained));
  span.arg("shards", static_cast<std::uint64_t>(report.active_shards));
  return report;
}

serve::ControllerCheckpoint FleetCoordinator::checkpoint_header(
    double now) const {
  serve::ControllerCheckpoint ckpt;
  ckpt.epoch = totals_.epochs;
  ckpt.time = now;
  ckpt.condition_seed = config_.planner.base_condition.seed;
  ckpt.predictor_seed = config_.checkpoint.predictor_seed;
  ckpt.model_version = planner_.last_model_version();
  ckpt.library_ref = config_.checkpoint.library_ref.empty()
                         ? "-"
                         : config_.checkpoint.library_ref;
  ckpt.library_size = config_.checkpoint.library_size;
  ckpt.replans = totals_.replans;
  ckpt.stale_holds = totals_.stale_holds;
  ckpt.deadline_misses = totals_.deadline_misses;
  return ckpt;
}

serve::ControllerCheckpoint FleetCoordinator::make_checkpoint(
    double now) const {
  serve::ControllerCheckpoint ckpt = checkpoint_header(now);
  for (const auto& s : shards_) s->append_records(ckpt.workloads);
  return ckpt;
}

void FleetCoordinator::checkpoint_now(double now) {
  STAC_REQUIRE_MSG(!config_.checkpoint.directory.empty(),
                   "checkpoint_now without a checkpoint directory");
  serve::save_checkpoint(serve::checkpoint_path(config_.checkpoint.directory),
                         make_checkpoint(now));
  ++totals_.checkpoints_written;
}

serve::RecoveryReport FleetCoordinator::recover(
    const serve::ControllerCheckpoint& checkpoint, double now) {
  serve::RecoveryReport report;
  report.reason = serve::checkpoint_defect(checkpoint, 2 * shards_.size());
  if (!report.reason.empty()) {
    report.quarantined = true;
    ++totals_.recovery_quarantines;
    obs::count("fleet.recovery_quarantines");
    obs::instant("fleet.recovery_quarantined", "fleet");
    return report;
  }
  serve::ControllerCheckpoint node;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto first = checkpoint.workloads.begin() +
                       static_cast<std::ptrdiff_t>(2 * i);
    node.workloads.assign(first, first + 2);
    const bool restored = shards_[i]->restore(node, now).restored;
    STAC_ENSURE(restored);  // every record passed checkpoint_defect
    shards_[i]->activate();
  }
  applied_timeout_primary_ = checkpoint.workloads[0].timeout;
  applied_timeout_collocated_ = checkpoint.workloads[1].timeout;
  totals_.epochs = checkpoint.epoch;
  totals_.replans = checkpoint.replans;
  totals_.stale_holds = checkpoint.stale_holds;
  totals_.deadline_misses = checkpoint.deadline_misses;
  // The first post-recovery publish then registers as an observed swap.
  planner_.note_model_version(checkpoint.model_version);
  ++totals_.recoveries;
  obs::count("fleet.recoveries");
  obs::instant("fleet.recovered", "fleet");
  report.restored = true;
  return report;
}

serve::ControllerCheckpoint FleetCoordinator::leave_shard(std::size_t id,
                                                          double now) {
  STAC_REQUIRE(id < shards_.size());
  NodeShard& s = *shards_[id];
  STAC_REQUIRE_MSG(s.active(), "leave_shard on an inactive shard");
  // Final drain: everything the node's proxies published before the drain
  // reaches the estimator — and thus the checkpoint's lifetime counters —
  // so the hand-off loses nothing that made it into the ring.
  (void)s.drain();
  serve::ControllerCheckpoint ckpt = checkpoint_header(now);
  s.append_records(ckpt.workloads);
  s.deactivate(now);
  ++totals_.leaves;
  obs::count("fleet.leaves");
  obs::instant("fleet.shard_left", "fleet");
  return ckpt;
}

serve::RecoveryReport FleetCoordinator::rejoin_shard(
    std::size_t id, const serve::ControllerCheckpoint& ckpt, double now) {
  STAC_REQUIRE(id < shards_.size());
  NodeShard& s = *shards_[id];
  STAC_REQUIRE_MSG(!s.active(), "rejoin_shard on an active shard");
  const serve::RecoveryReport report = s.restore(ckpt, now);
  if (report.quarantined) {
    ++totals_.join_quarantines;
    obs::count("fleet.join_quarantines");
  }
  // Whatever the checkpoint said, the node serves the fleet's *current*
  // plan: a plan published while the node was away supersedes the
  // checkpointed vector (and a quarantined restore still gets a sane one).
  (void)s.refresh_plan(plans_);
  s.activate();
  ++totals_.joins;
  obs::count("fleet.joins");
  obs::instant("fleet.shard_joined", "fleet");
  return report;
}

core::ProfileLibrary::MergeStats FleetCoordinator::merge_library(
    const core::ProfileLibrary& other) {
  const core::ProfileLibrary::MergeStats stats = library_.merge_from(other);
  totals_.library_profiles_merged += stats.added;
  obs::MetricsRegistry::global()
      .counter("fleet.library_profiles_merged")
      .add(stats.added);
  // Route the delta through the shared refit pipeline: the executor merges
  // it into the authoritative library, warm-refits the masters off this
  // thread, and publishes the refreshed bundle — one node's calibration
  // warms the whole fleet without any coordinator epoch carrying a fit.
  if (config_.refit != nullptr && stats.added > 0) {
    (void)config_.refit->request_refit(other);
    ++totals_.refit_requests;
    obs::count("fleet.refit_requests");
  }
  return stats;
}

}  // namespace stac::fleet

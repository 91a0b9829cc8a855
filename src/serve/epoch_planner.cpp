#include "serve/epoch_planner.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stac::serve {

namespace {
double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

EpochPlanner::EpochPlanner(PlannerConfig config)
    : config_(std::move(config)), explore_memos_(config_.memo_conditions) {
  STAC_REQUIRE(config_.util_lo > 0.0 && config_.util_lo <= config_.util_hi);
  STAC_REQUIRE(config_.util_quantum >= 0.0);
}

double EpochPlanner::snap_utilization(double u) const {
  if (config_.util_quantum > 0.0)
    u = config_.util_lo +
        std::round((u - config_.util_lo) / config_.util_quantum) *
            config_.util_quantum;
  return std::clamp(u, config_.util_lo, config_.util_hi);
}

PlanOutcome EpochPlanner::plan(ModelSnapshot<ServingModel>& models,
                               double raw_util_primary,
                               double raw_util_collocated) {
  auto& registry = obs::MetricsRegistry::global();
  PlanOutcome out;
  const double t0 = now_seconds();

  profiler::RuntimeCondition cond = config_.base_condition;
  cond.util_primary = snap_utilization(raw_util_primary);
  cond.util_collocated = snap_utilization(raw_util_collocated);
  out.planned_condition = cond;

  // Pin the current model bundle for the whole planning step.  No bundle
  // published yet (cold start, or serving from a checkpoint while the
  // refit runs in the background) is a *hold*, not an error: the caller's
  // applied vector — initial or recovered — keeps serving.
  auto guard = models.acquire();
  if (!guard) {
    out.model_unavailable_hold = true;
    registry.counter("serve.model_unavailable_holds").add();
    return out;
  }
  out.model_version = guard->version;
  if (guard->version != last_model_version_) {
    out.model_swap_observed = true;
    last_model_version_ = guard->version;
    registry.counter("serve.model_swaps_observed").add();
  }

  // Staleness probe: one EA query (RtPredictor::probe_rung — no
  // simulation, no feedback loop) reveals which ladder rung answers for
  // this condition.  Against drift and hot-swap the memoed rung is exact —
  // only the utilizations vary epoch to epoch (the rest of `cond` is
  // copied from base_condition) and the version is the bundle stamp, both
  // compared bitwise below.  The TTL bounds how long an *environmental*
  // model failure can hide behind the memo.
  const bool probe_reusable =
      probe_valid_ && probe_version_ == guard->version &&
      probe_age_ + 1 < config_.probe_ttl_epochs &&
      std::bit_cast<std::uint64_t>(probe_util_primary_) ==
          std::bit_cast<std::uint64_t>(cond.util_primary) &&
      std::bit_cast<std::uint64_t>(probe_util_collocated_) ==
          std::bit_cast<std::uint64_t>(cond.util_collocated);
  if (probe_reusable) {
    ++probe_age_;
  } else {
    probe_rung_ = guard->pred().probe_rung(cond);
    probe_valid_ = true;
    probe_version_ = guard->version;
    probe_age_ = 0;
    probe_util_primary_ = cond.util_primary;
    probe_util_collocated_ = cond.util_collocated;
  }
  out.probe_rung = probe_rung_;
  if (probe_rung_ > config_.max_planning_rung) {
    // Model too degraded to plan on: hold the last-known-good vector
    // rather than steering traffic with rung-4 guesses.
    out.stale_hold = true;
    registry.counter("serve.stale_holds").add();
    obs::instant("serve.stale_hold", "serve");
    return out;
  }

  // Re-plan: the §5.2 sweep against the pinned predictor.  In incremental
  // mode the matrices memoed for this quantized condition answer every
  // cell whose (timeout pair, model version) is unchanged — the
  // stationary-epoch path the sub-10ms plan budget relies on.  The pool
  // keeps one memo per recently-seen condition, so an estimate
  // oscillating across a quantization boundary revisits warm memos
  // instead of thrashing one.
  const core::PolicyExploration plan =
      config_.incremental
          ? core::explore_policies_incremental(guard->pred(), cond,
                                               config_.explorer,
                                               explore_memos_.acquire(cond),
                                               guard->version)
          : core::explore_policies(guard->pred(), cond, config_.explorer);
  out.cells_simulated = plan.cells_simulated;
  out.cells_reused = plan.cells_reused;
  const double plan_elapsed = now_seconds() - t0;
  if (config_.plan_deadline_seconds > 0.0 &&
      plan_elapsed > config_.plan_deadline_seconds) {
    // Deadline miss: discard the late selection — the caller keeps
    // serving the last-known-good (ladder-fallback) vector.  The epoch
    // cadence stays fixed; overload shows up as misses + shed, not as a
    // silently stretched control period.
    out.deadline_miss = true;
    registry.counter("serve.plan.deadline_miss").add();
    obs::instant("serve.plan_deadline_miss", "serve");
  } else {
    out.timeout_primary = plan.selection.timeout_primary;
    out.timeout_collocated = plan.selection.timeout_collocated;
    out.replanned = true;
    registry.counter("serve.replans").add();
  }
  return out;
}

}  // namespace stac::serve

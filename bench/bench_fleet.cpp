// Fleet control-plane harness (PR-8 record, BENCH_PR8.json).
//
// Three sections:
//   fleet_soak    — 16 node shards under one coordinator, every epoch fed
//                   by 16 concurrent producers; gated on zero-loss
//                   accounting (pushed == popped, zero drops) and on the
//                   aggregate drain rate clearing 10M events/min;
//   join_leave    — the shard hand-off drill under load: leave with events
//                   still in the ring (the final drain must fold them in),
//                   plan on the renormalized capacity, rejoin from the
//                   hand-off checkpoint; gated on zero loss and a clean
//                   (non-quarantined) restore;
//   epoch_latency — coordinator epoch latency at 16 shards, split into the
//                   cold transient and the steady state; the steady plan
//                   p99 is gated under 10 ms (the global sweep is the same
//                   memoized planner PR 7 made sub-10ms — sharding must
//                   not give that back).
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cachesim/simd_probe.hpp"
#include "fleet/fleet_coordinator.hpp"
#include "obs/trace.hpp"

using namespace stac;
using namespace stac::bench;

namespace {

core::StacOptions fleet_options(const BenchArgs& args) {
  core::StacOptions opts;
  opts.profile_budget = args.fast ? 6 : 10;
  opts.profiler.target_completions = args.fast ? 250 : 500;
  opts.profiler.warmup_completions = 40;
  opts.profiler.max_windows = 1;
  opts.profiler.accesses_per_sample = 800;
  opts.model.deep_forest.mgs.window_sizes = {5};
  opts.model.deep_forest.mgs.estimators = 8;
  opts.model.deep_forest.cascade.levels = 1;
  opts.model.deep_forest.cascade.estimators = 12;
  opts.predictor.sim_queries = args.fast ? 1500 : 3000;
  opts.sampler.seed = args.seed;
  return opts;
}

fleet::FleetConfig fleet_config(const core::StacOptions& opts,
                                std::size_t shards) {
  fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.shard.servers = 2;
  cfg.shard.estimator.min_completions = 10;
  cfg.planner.base_condition.primary = wl::Benchmark::kKmeans;
  cfg.planner.base_condition.collocated = wl::Benchmark::kRedis;
  cfg.planner.base_condition.util_primary = 0.6;
  cfg.planner.base_condition.util_collocated = 0.6;
  cfg.planner.base_condition.timeout_primary = 1.0;
  cfg.planner.base_condition.timeout_collocated = 1.0;
  cfg.planner.base_condition.seed = 99;
  cfg.planner.explorer = opts.explorer;
  cfg.planner.util_quantum = 0.1;
  cfg.planner.probe_ttl_epochs = 5;
  return cfg;
}

/// One epoch of deterministic traffic into one shard's ring: `pairs`
/// arrival+completion pairs per workload spread over [t0, t1).  The batch
/// is sized under the ring capacity, so a failed push is a real loss (it
/// is returned, counted, and gated on zero).
std::uint64_t feed_shard(fleet::NodeShard& shard, double t0, double t1,
                         std::size_t pairs) {
  std::uint64_t failures = 0;
  const double step = (t1 - t0) / static_cast<double>(pairs);
  for (std::uint16_t w = 0; w < 2; ++w) {
    for (std::size_t i = 0; i < pairs; ++i) {
      const double t = t0 + static_cast<double>(i) * step;
      serve::QueryEvent arrival;
      arrival.kind = serve::EventKind::kArrival;
      arrival.workload = w;
      arrival.time = t;
      if (!shard.ingest().try_push(arrival)) ++failures;
      serve::QueryEvent done;
      done.kind = serve::EventKind::kCompletion;
      done.workload = w;
      done.time = t;
      done.service = 0.05;
      done.queue_delay = 0.005;
      if (!shard.ingest().try_push(done)) ++failures;
    }
  }
  return failures;
}

/// Run `epochs` coordinator epochs with one producer thread per active
/// shard.  Returns total push failures; per-epoch reports land in `out`.
std::uint64_t drive(fleet::FleetCoordinator& fleet, std::size_t epoch0,
                    std::size_t epochs, std::size_t pairs, double interval,
                    std::vector<fleet::FleetEpochReport>* out = nullptr) {
  std::uint64_t push_failures = 0;
  const std::size_t n = fleet.shard_count();
  for (std::size_t k = epoch0; k < epoch0 + epochs; ++k) {
    const double t0 = static_cast<double>(k) * interval;
    const double t1 = t0 + interval;
    std::vector<std::thread> producers;
    std::vector<std::uint64_t> failed(n, 0);
    for (std::size_t s = 0; s < n; ++s) {
      if (!fleet.shard(s).active()) continue;
      producers.emplace_back([&fleet, &failed, s, t0, t1, pairs] {
        failed[s] = feed_shard(fleet.shard(s), t0, t1, pairs);
      });
    }
    for (auto& p : producers) p.join();
    for (const std::uint64_t f : failed) push_failures += f;
    const fleet::FleetEpochReport r = fleet.run_epoch(t1);
    if (out != nullptr) out->push_back(r);
  }
  return push_failures;
}

struct RingTotals {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t dropped = 0;
};

RingTotals ring_totals(const fleet::FleetCoordinator& fleet) {
  RingTotals t;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    t.pushed += fleet.shard(s).ingest().pushed();
    t.popped += fleet.shard(s).ingest().popped();
    t.dropped += fleet.shard(s).ingest().dropped();
  }
  return t;
}

/// Section 1: aggregate drain rate at 16 shards, zero-loss accounting.
JsonObject bench_fleet_soak(const BenchArgs& args, const core::StacManager& mgr,
                            const core::StacOptions& opts) {
  const std::size_t shards = 16;
  const std::size_t pairs = 8192;  // x2 workloads x2 events, under ring cap
  const std::size_t epochs = args.fast ? 12 : 40;
  const double interval = 2.0;

  serve::ModelSnapshot<serve::ServingModel> models(
      serve::build_serving_model(mgr, opts, 1));
  fleet::FleetCoordinator fleet(models, fleet_config(opts, shards));

  Stopwatch clock;
  const std::uint64_t push_failures =
      drive(fleet, 0, epochs, pairs, interval);
  const double seconds = clock.seconds();

  const auto& totals = fleet.totals();
  const RingTotals rings = ring_totals(fleet);
  const double events_per_min =
      static_cast<double>(totals.events_drained) / seconds * 60.0;
  const bool zero_loss = push_failures == 0 && rings.dropped == 0 &&
                         rings.popped == rings.pushed &&
                         totals.events_drained == rings.pushed;
  JsonObject out;
  out.set("shards", shards);
  out.set("epochs", epochs);
  out.set("events_drained", static_cast<std::size_t>(totals.events_drained));
  out.set("push_failures", static_cast<std::size_t>(push_failures));
  out.set("ring_drops", static_cast<std::size_t>(rings.dropped));
  out.set("seconds", seconds);
  out.set("events_per_minute", events_per_min);
  out.set("replans", static_cast<std::size_t>(totals.replans));
  out.set("plan_pushes", static_cast<std::size_t>(totals.plan_pushes));
  out.set("zero_loss", zero_loss);
  out.set("throughput_gate_10m_per_min", events_per_min >= 10'000'000.0);
  std::printf("  soak: %zu shards, %.1fM events in %.2fs (%.0fM/min), "
              "%llu replans / %llu pushes, zero_loss=%s\n",
              shards, static_cast<double>(totals.events_drained) / 1e6,
              seconds, events_per_min / 1e6,
              static_cast<unsigned long long>(totals.replans),
              static_cast<unsigned long long>(totals.plan_pushes),
              zero_loss ? "true" : "false");
  return out;
}

/// Section 2: the hand-off drill — leave under load, plan on renormalized
/// capacity, rejoin from the checkpoint.
JsonObject bench_join_leave(const BenchArgs& args, const core::StacManager& mgr,
                            const core::StacOptions& opts) {
  const std::size_t shards = 16;
  const std::size_t pairs = args.fast ? 2048 : 8192;
  const double interval = 2.0;
  const std::size_t warm_epochs = args.fast ? 4 : 8;

  serve::ModelSnapshot<serve::ServingModel> models(
      serve::build_serving_model(mgr, opts, 1));
  fleet::FleetCoordinator fleet(models, fleet_config(opts, shards));
  std::uint64_t push_failures =
      drive(fleet, 0, warm_epochs, pairs, interval);

  // Push one more epoch of traffic into the leaver WITHOUT an epoch in
  // between: leave_shard's final drain must fold it in.
  const std::size_t leaver = shards - 1;
  const double t_leave =
      static_cast<double>(warm_epochs) * interval + interval;
  push_failures +=
      feed_shard(fleet.shard(leaver), t_leave - interval, t_leave, pairs);
  const std::uint64_t leaver_pushed = fleet.shard(leaver).ingest().pushed();
  Stopwatch leave_clock;
  const serve::ControllerCheckpoint handoff = fleet.leave_shard(leaver, t_leave);
  const double leave_seconds = leave_clock.seconds();
  const bool drained_on_leave =
      fleet.shard(leaver).ingest().popped() == leaver_pushed &&
      fleet.shard(leaver).ingest().dropped() == 0;

  // Two epochs on the remaining 15 shards (renormalized capacity).
  std::vector<fleet::FleetEpochReport> away;
  push_failures += drive(fleet, warm_epochs, 2, pairs, interval, &away);
  const std::size_t active_away = away.empty() ? 0 : away.back().active_shards;

  Stopwatch join_clock;
  const serve::RecoveryReport rec =
      fleet.rejoin_shard(leaver, handoff, t_leave + 2 * interval);
  const double join_seconds = join_clock.seconds();
  push_failures += drive(fleet, warm_epochs + 2, 2, pairs, interval);

  const RingTotals rings = ring_totals(fleet);
  const auto& totals = fleet.totals();
  const bool zero_loss = push_failures == 0 && rings.dropped == 0 &&
                         rings.popped == rings.pushed && drained_on_leave;
  const bool gate = zero_loss && rec.restored && !rec.quarantined &&
                    totals.join_quarantines == 0 && active_away == shards - 1 &&
                    fleet.active_shards() == shards;
  JsonObject out;
  out.set("shards", shards);
  out.set("leave_seconds", leave_seconds);
  out.set("join_seconds", join_seconds);
  out.set("drained_on_leave", drained_on_leave);
  out.set("active_while_away", active_away);
  out.set("restore_clean", rec.restored && !rec.quarantined);
  out.set("join_quarantines",
          static_cast<std::size_t>(totals.join_quarantines));
  out.set("push_failures", static_cast<std::size_t>(push_failures));
  out.set("ring_drops", static_cast<std::size_t>(rings.dropped));
  out.set("zero_loss", zero_loss);
  out.set("join_leave_gate", gate);
  std::printf("  join/leave: leave %.2f ms (drained=%s), %zu shards while "
              "away, rejoin %.2f ms (clean=%s), gate=%s\n",
              leave_seconds * 1e3, drained_on_leave ? "true" : "false",
              active_away, join_seconds * 1e3,
              (rec.restored && !rec.quarantined) ? "true" : "false",
              gate ? "true" : "false");
  return out;
}

/// Section 3: coordinator epoch latency at 16 shards.
JsonObject bench_epoch_latency(const BenchArgs& args,
                               const core::StacManager& mgr,
                               const core::StacOptions& opts) {
  const std::size_t shards = 16;
  const std::size_t pairs = args.fast ? 1024 : 4096;
  const double interval = 2.0;
  const std::size_t warmup = args.fast ? 8 : 15;
  const std::size_t epochs = warmup + (args.fast ? 20 : 60);

  serve::ModelSnapshot<serve::ServingModel> models(
      serve::build_serving_model(mgr, opts, 1));
  fleet::FleetCoordinator fleet(models, fleet_config(opts, shards));

  std::vector<fleet::FleetEpochReport> reports;
  reports.reserve(epochs);
  std::vector<double> epoch_seconds;
  epoch_seconds.reserve(epochs);
  for (std::size_t k = 0; k < epochs; ++k) {
    const double t0 = static_cast<double>(k) * interval;
    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < shards; ++s)
      producers.emplace_back([&fleet, s, t0, interval, pairs] {
        (void)feed_shard(fleet.shard(s), t0, t0 + interval, pairs);
      });
    for (auto& p : producers) p.join();
    Stopwatch w;
    reports.push_back(fleet.run_epoch(t0 + interval));
    epoch_seconds.push_back(w.seconds());
  }

  std::vector<double> warm_plan, steady_plan, steady_epoch;
  for (std::size_t k = 0; k < epochs; ++k) {
    (k < warmup ? warm_plan : steady_plan).push_back(reports[k].plan_seconds);
    if (k >= warmup) steady_epoch.push_back(epoch_seconds[k]);
  }
  SampleStats warm{std::move(warm_plan)};
  SampleStats plan{std::move(steady_plan)};
  SampleStats epoch{std::move(steady_epoch)};
  const double plan_p99 = plan.percentile_or(0.99, 0.0);

  JsonObject out;
  out.set("shards", shards);
  out.set("epochs", epochs);
  out.set("warmup_epochs", warmup);
  out.set("warmup_plan_p50_seconds", warm.percentile_or(0.5, 0.0));
  out.set("plan_p50_seconds", plan.percentile_or(0.5, 0.0));
  out.set("plan_p99_seconds", plan_p99);
  out.set("epoch_p50_seconds", epoch.percentile_or(0.5, 0.0));
  out.set("epoch_p99_seconds", epoch.percentile_or(0.99, 0.0));
  out.set("replans", static_cast<std::size_t>(fleet.totals().replans));
  out.set("plan_p99_under_10ms", plan_p99 < 0.010);
  std::printf("  epoch latency: steady plan p50 %.2f ms, p99 %.2f ms; "
              "epoch p99 %.2f ms (%zu shards, %llu replans)\n",
              plan.percentile_or(0.5, 0.0) * 1e3, plan_p99 * 1e3,
              epoch.percentile_or(0.99, 0.0) * 1e3, shards,
              static_cast<unsigned long long>(fleet.totals().replans));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  // This binary owns the PR-8 record; an explicit --json or STAC_BENCH_JSON
  // still wins.
  if (args.json_path == "BENCH_PR2.json" &&
      std::getenv("STAC_BENCH_JSON") == nullptr)
    args.json_path = "BENCH_PR8.json";
  print_banner(std::cout, "Fleet-scale sharded serving (soak, hand-off, latency)");
  const std::size_t workers = ensure_bench_pool();
  obs::set_enabled(true);

  JsonObject record;
  JsonObject meta;
  meta.set("hardware_threads",
           static_cast<std::size_t>(std::thread::hardware_concurrency()));
  meta.set("pool_workers", workers);
  meta.set("fast", args.fast);
  meta.set("seed", static_cast<std::size_t>(args.seed));
  meta.set("simd_isa", cachesim::simd::isa_name());
  record.set("meta", meta);

  const core::StacOptions opts = fleet_options(args);
  core::StacManager mgr(opts);
  std::printf("calibrating (kmeans + redis, trimmed budgets)...\n");
  mgr.calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);

  std::printf("16-shard soak\n");
  record.set("fleet_soak", bench_fleet_soak(args, mgr, opts));

  std::printf("join/leave drill\n");
  record.set("join_leave", bench_join_leave(args, mgr, opts));

  std::printf("coordinator epoch latency\n");
  record.set("epoch_latency", bench_epoch_latency(args, mgr, opts));

  write_bench_section(args.json_path, "bench_fleet", record);
  return 0;
}

// Fleet-scale sharded serving demo: N node shards under one coordinator.
//
//   1. Calibrate a StacManager offline (trimmed budgets, as serve_demo).
//   2. Publish its model once; every shard serves from the same snapshot.
//   3. Each shard owns its ingest ring, condition estimator, and CAT
//      domain.  Per epoch, N producer threads push traffic into their
//      shard's ring; the FleetCoordinator drains every shard, merges the
//      per-workload moments (count-weighted), runs ONE global memoized
//      sweep, and pushes the plan to every shard through the FleetPlan
//      RCU snapshot.
//   4. Mid-run, one shard leaves (final drain -> checkpoint -> CAT boosts
//      released) and later rejoins from its checkpoint, adopting the
//      currently published plan — the zero-loss join/leave drill.
//   5. A second node's profile library merges into the fleet's (all
//      duplicates here: one calibration, shared fleet-wide).
//
// Run:        ./build/examples/fleet_demo
// Soak mode:  ./build/examples/fleet_demo --shards 16 --soak 10
//   keeps the closed loop running >= N wall seconds and exits nonzero
//   unless the run was clean (zero ring drops, zero push failures, zero
//   join quarantines, zero watchdog revokes) — the CI fleet-soak gate
//   greps the `fleet ok:` line.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "cat/cat_controller.hpp"
#include "fleet/fleet_coordinator.hpp"

using namespace stac;

namespace {

core::StacOptions demo_options() {
  core::StacOptions opts;
  opts.profile_budget = 6;
  opts.profiler.target_completions = 300;
  opts.profiler.warmup_completions = 40;
  opts.profiler.max_windows = 1;
  opts.profiler.accesses_per_sample = 800;
  opts.model.deep_forest.mgs.window_sizes = {5};
  opts.model.deep_forest.mgs.estimators = 8;
  opts.model.deep_forest.cascade.levels = 1;
  opts.model.deep_forest.cascade.estimators = 12;
  opts.predictor.sim_queries = 2000;
  return opts;
}

/// One epoch of deterministic traffic into a shard's ring: `pairs`
/// arrival+completion pairs per workload spread across [t0, t1), with a
/// sprinkle of timeouts and boosted completions so the CAT mirror has
/// something to do.  Returns push failures (must stay zero: the epoch
/// batch is sized under the ring's capacity).
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
      done.kind = i % 64 == 63 ? serve::EventKind::kTimeout
                               : serve::EventKind::kCompletion;
      done.workload = w;
      done.time = t;
      done.service = 0.05;
      done.queue_delay = 0.005;
      done.boosted = i % 64 == 0;
      if (!shard.ingest().try_push(done)) ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards = 4;
  double soak_wall_seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--soak") == 0 && i + 1 < argc) {
      soak_wall_seconds = std::atof(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--shards N] [--soak WALL_SECONDS]\n";
      return 2;
    }
  }
  if (shards < 2) shards = 2;  // the drill needs a shard to spare

  std::cout << "== stac fleet_demo: " << shards
            << "-shard coordinated STAP control ==\n\n";

  const core::StacOptions opts = demo_options();
  core::StacManager mgr(opts);
  std::cout << "calibrating k-means + Redis (trimmed budgets)...\n";
  mgr.calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
  std::cout << "  " << mgr.library().size() << " profiles\n\n";

  serve::ModelSnapshot<serve::ServingModel> models(
      serve::build_serving_model(mgr, opts, 1));

  // One CAT domain per node: the boost intersection is solved globally,
  // the cache partitions stay node-local (each shard mirrors the fleet
  // plan onto its own hardware).
  cachesim::HierarchyConfig hw_cfg;
  hw_cfg.l1d = {8 * 1024, 8, 64, 4};
  hw_cfg.l1i = {8 * 1024, 8, 64, 4};
  hw_cfg.l2 = {64 * 1024, 16, 64, 12};
  hw_cfg.llc = {512 * 1024, 8, 64, 40};
  std::vector<std::unique_ptr<cachesim::CacheHierarchy>> node_hw;
  std::vector<std::unique_ptr<cat::CatController>> node_cat;
  fleet::FleetConfig cfg;
  for (std::size_t s = 0; s < shards; ++s) {
    node_hw.push_back(std::make_unique<cachesim::CacheHierarchy>(hw_cfg, 2));
    cat::AllocationPlan plan = cat::make_pair_plan(8, 1, 2);
    cat::CatResilienceConfig resilience;
    resilience.max_boost_lease = 30.0;
    node_cat.push_back(std::make_unique<cat::CatController>(
        *node_hw.back(), plan, resilience));
    cfg.cats.push_back(node_cat.back().get());
  }

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
  fleet::FleetCoordinator fleet(models, cfg);

  const bool soak = soak_wall_seconds > 0.0;
  const std::size_t pairs_per_epoch = 8192;  // x2 workloads, under ring cap
  const double interval = 2.0;
  const std::size_t min_epochs = soak ? 8 : 12;

  std::cout << "serving (" << shards << " shards, "
            << 4 * pairs_per_epoch << " events/shard/epoch"
            << (soak ? ", wall-clocked soak" : "") << ")...\n";

  std::uint64_t push_failures = 0;
  std::uint64_t replans = 0;
  bool drill_done = false;
  bool drill_clean = false;
  std::size_t epoch = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_seconds = [&wall_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  serve::ControllerCheckpoint handoff;
  std::size_t drill_shard = shards - 1;
  for (;;) {
    const double t0 = static_cast<double>(epoch) * interval;
    const double t1 = t0 + interval;

    // N producers, one per active shard, then one coordinator epoch.
    std::vector<std::thread> producers;
    std::vector<std::uint64_t> failed(shards, 0);
    for (std::size_t s = 0; s < shards; ++s) {
      if (!fleet.shard(s).active()) continue;
      producers.emplace_back([&fleet, &failed, s, t0, t1, pairs_per_epoch] {
        failed[s] = feed_shard(fleet.shard(s), t0, t1, pairs_per_epoch);
      });
    }
    for (auto& p : producers) p.join();
    for (const std::uint64_t f : failed) push_failures += f;

    const fleet::FleetEpochReport r = fleet.run_epoch(t1);
    if (r.replanned) ++replans;

    // Halfway through (and once a plan exists): the join/leave drill.  The
    // leaving shard's final drain folds in everything its producers pushed;
    // the rejoin restores from the hand-off checkpoint and adopts the
    // current plan.
    if (!drill_done && fleet.shard(drill_shard).active() &&
        epoch >= min_epochs / 2 && replans > 0) {
      handoff = fleet.leave_shard(drill_shard, t1);
      std::cout << "  [drill] shard " << drill_shard << " left at epoch "
                << epoch << " (checkpoint epoch " << handoff.epoch
                << ", boosts released)\n";
    } else if (!drill_done && !fleet.shard(drill_shard).active()) {
      const serve::RecoveryReport rec =
          fleet.rejoin_shard(drill_shard, handoff, t1);
      drill_clean = rec.restored && !rec.quarantined;
      drill_done = true;
      std::cout << "  [drill] shard " << drill_shard << " rejoined at epoch "
                << epoch << " (restored=" << (rec.restored ? "yes" : "no")
                << ", plan epoch " << r.epoch << " adopted)\n";
    }

    ++epoch;
    // The drill must complete before a clean exit; the hard cap keeps a
    // never-replanning run from looping forever (it exits dirty instead).
    if (epoch >= min_epochs && (drill_done || epoch >= min_epochs * 4) &&
        (!soak || wall_seconds() >= soak_wall_seconds))
      break;
  }
  const double elapsed = wall_seconds();

  // Cross-node library merge: a "second node" offers its calibration — one
  // fleet, one library, duplicates deduplicated.
  const auto merge1 = fleet.merge_library(mgr.library());
  const auto merge2 = fleet.merge_library(mgr.library());
  std::cout << "  [library] node A merged " << merge1.added << " profiles; "
            << "node B offered " << merge2.duplicates << " duplicates, added "
            << merge2.added << "\n";

  // Accounting: every event pushed into any ring was drained into an
  // estimator (the leave drill's final drain included).
  std::uint64_t pushed = 0, popped = 0, dropped = 0;
  std::uint64_t watchdog_revocations = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    pushed += fleet.shard(s).ingest().pushed();
    popped += fleet.shard(s).ingest().popped();
    dropped += fleet.shard(s).ingest().dropped();
    watchdog_revocations += fleet.shard(s).totals().watchdog_revocations;
  }
  const auto& totals = fleet.totals();
  const double events_per_min =
      static_cast<double>(totals.events_drained) / std::max(1e-9, elapsed) *
      60.0;

  std::cout << "\nrun summary\n"
            << "  shards:              " << shards << " (" << fleet.active_shards()
            << " active)\n"
            << "  epochs:              " << totals.epochs << "\n"
            << "  events drained:      " << totals.events_drained << "\n"
            << "  aggregate rate:      " << events_per_min / 1e6
            << "M events/min (wall " << elapsed << " s)\n"
            << "  replans / pushes:    " << totals.replans << " / "
            << totals.plan_pushes << "\n"
            << "  leaves / joins:      " << totals.leaves << " / "
            << totals.joins << "\n"
            << "  join quarantines:    " << totals.join_quarantines << "\n"
            << "  library profiles:    " << fleet.library().size() << "\n"
            << "  ring drops:          " << dropped << "\n"
            << "  watchdog revokes:    " << watchdog_revocations << "\n"
            << "  fleet timeouts:      (" << fleet.shard(0).timeout(0) << ", "
            << fleet.shard(0).timeout(1) << ")\n";

  // Machine-parseable verdict (the CI fleet-soak step greps this line).
  const bool clean = dropped == 0 && push_failures == 0 && popped == pushed &&
                     drill_done && drill_clean && totals.join_quarantines == 0 &&
                     watchdog_revocations == 0 && totals.replans > 0 &&
                     totals.leaves == 1 && totals.joins == 1;
  std::cout << "\n"
            << (clean ? "fleet ok" : "fleet FAILED") << ": shards=" << shards
            << " drops=" << dropped << " push_failures=" << push_failures
            << " join_quarantines=" << totals.join_quarantines
            << " watchdog_revocations=" << watchdog_revocations
            << " leaves=" << totals.leaves << " joins=" << totals.joins
            << " replans=" << totals.replans
            << " events=" << totals.events_drained
            << " events_per_min=" << static_cast<std::uint64_t>(events_per_min)
            << "\n";
  return clean ? 0 : 1;
}

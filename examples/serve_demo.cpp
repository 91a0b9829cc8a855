// Closed-loop online serving demo: live traffic in, STAP timeouts out.
//
//   1. Calibrate a StacManager offline (trimmed budgets, as quickstart).
//   2. Publish its model as the first ServingModel bundle.
//   3. Start the serving runtime, a fleet of one node: producer threads
//      replay a time-varying query stream into the node's lock-free ingest
//      ring while the FleetCoordinator drains it, re-estimates conditions,
//      and re-plans the timeout vector every control epoch — steering the
//      very traffic the next epoch observes (boosted queries finish
//      faster).
//   4. Mid-run, a background thread refits a new bundle and hot-swaps it
//      in; admission never stalls.
//
// Run:          ./build/examples/serve_demo
// Soak mode:    ./build/examples/serve_demo --soak 10
//   paces the simulated clock to run >= N wall seconds of closed loop and
//   exits nonzero unless the run was clean (zero ingest drops, zero
//   watchdog force-revokes) — the CI serve-soak gate greps its last line.
// Chaos mode:   ./build/examples/serve_demo --soak 20 --kill-after 8 --recover
//   arms an injected crash of the control thread at epoch 8, then
//   "restarts" the process: a fresh coordinator loads the last checkpoint,
//   serves the recovered last-known-good vector immediately (before any
//   model exists in the new process), and must re-plan within 3 epochs
//   once the refit bundle publishes.  Fresh proxies replay traffic into
//   the new node's ring from the crash time on; the events the dead ring
//   still held when it died are reported as `stranded`.  The CI chaos gate
//   greps the `recovery ok:` line.
// Knobs:        --checkpoint-dir DIR   durable state location
//               --admission            shed load in front of the ring
//               --deadline SECONDS     planning budget per epoch
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <thread>

#include "cat/cat_controller.hpp"
#include "common/fault_injection.hpp"
#include "fleet/fleet_coordinator.hpp"
#include "serve/checkpoint.hpp"
#include "serve/traffic_replay.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  double soak_wall_seconds = 0.0;
  std::uint64_t kill_after = 0;
  bool recover = false;
  bool admission_on = false;
  double plan_deadline = 0.0;
  std::string checkpoint_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--soak") == 0 && i + 1 < argc) {
      soak_wall_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-after") == 0 && i + 1 < argc) {
      kill_after = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      recover = true;
    } else if (std::strcmp(argv[i], "--admission") == 0) {
      admission_on = true;
    } else if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc) {
      plan_deadline = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--soak WALL_SECONDS] [--kill-after EPOCH] [--recover]"
                   " [--checkpoint-dir DIR] [--admission]"
                   " [--deadline SECONDS]\n";
      return 2;
    }
  }
  if ((kill_after > 0 || recover) && checkpoint_dir.empty())
    checkpoint_dir = "serve_demo_ckpt";
  if (!checkpoint_dir.empty())
    std::filesystem::create_directories(checkpoint_dir);

  std::cout << "== stac serve_demo: closed-loop STAP control over a live "
               "stream ==\n\n";

  // Offline: calibrate once (the serving runtime never blocks on this).
  const core::StacOptions opts = demo_options();
  core::StacManager mgr(opts);
  std::cout << "calibrating k-means + Redis (trimmed budgets)...\n";
  mgr.calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
  std::cout << "  " << mgr.library().size() << " profiles, primary model "
            << (mgr.primary_model_degraded() ? "DEGRADED" : "trained")
            << "\n\n";

  // The serving stack: model snapshot, CAT mirror, and a one-node fleet
  // (the node owns the ingest ring and, with --admission, the shedder).
  serve::ModelSnapshot<serve::ServingModel> models(
      serve::build_serving_model(mgr, opts, 1));

  cachesim::HierarchyConfig hw_cfg;
  hw_cfg.l1d = {8 * 1024, 8, 64, 4};
  hw_cfg.l1i = {8 * 1024, 8, 64, 4};
  hw_cfg.l2 = {64 * 1024, 16, 64, 12};
  hw_cfg.llc = {512 * 1024, 8, 64, 40};
  cachesim::CacheHierarchy hw(hw_cfg, 2);
  cat::AllocationPlan plan = cat::make_pair_plan(8, 1, 2);
  cat::CatResilienceConfig resilience;
  resilience.max_boost_lease = 30.0;  // generous: clean runs never trip it
  cat::CatController cat(hw, plan, resilience);

  fleet::FleetConfig cfg;
  cfg.shard.servers = 2;
  cfg.shard.estimator.min_completions = 10;
  cfg.shard.admission_enabled = admission_on;
  cfg.planner.base_condition.primary = wl::Benchmark::kKmeans;
  cfg.planner.base_condition.collocated = wl::Benchmark::kRedis;
  cfg.planner.base_condition.util_primary = 0.6;
  cfg.planner.base_condition.util_collocated = 0.6;
  cfg.planner.base_condition.timeout_primary = 1.0;
  cfg.planner.base_condition.timeout_collocated = 1.0;
  cfg.planner.base_condition.seed = 99;
  cfg.planner.explorer = opts.explorer;
  cfg.planner.plan_deadline_seconds = plan_deadline;
  cfg.cats = {&cat};
  if (!checkpoint_dir.empty()) {
    cfg.checkpoint.directory = checkpoint_dir;
    cfg.checkpoint.every_n_epochs = 2;
    cfg.checkpoint.library_ref = "stac_manager:kmeans+redis";
    cfg.checkpoint.library_size = mgr.library().size();
  }
  fleet::FleetCoordinator coordinator(models, cfg);

  // Traffic: both services breathe (sinusoidal load) so the loop has
  // something to chase; boosted queries really do finish faster.
  const auto traffic_for = [](fleet::NodeShard& node) {
    serve::ReplayConfig traffic;
    traffic.workloads = {
        {.mean_service = 0.05, .service_cv = 0.8, .servers = 2,
         .base_util = 0.60, .util_amplitude = 0.15, .util_period = 60.0},
        {.mean_service = 0.05, .service_cv = 0.8, .servers = 2,
         .base_util = 0.55, .util_amplitude = 0.10, .util_period = 45.0}};
    traffic.shards_per_workload = 2;
    traffic.admission = node.admission();
    return traffic;
  };
  const auto epoch_of = [](fleet::FleetCoordinator& c) {
    return [&c](double now) { return c.run_epoch(now).replanned; };
  };
  serve::TrafficReplay replay(coordinator.shard(0).ingest(),
                              &coordinator.shard(0),
                              traffic_for(coordinator.shard(0)));

  const bool soak = soak_wall_seconds > 0.0;
  const double sim_seconds = soak ? std::max(40.0, 8.0 * soak_wall_seconds)
                                  : 120.0;
  const double epoch_interval = 2.0;
  const double wall_pace = soak ? sim_seconds / soak_wall_seconds : 0.0;

  // Background recalibration: refit a fresh bundle mid-run and hot-swap it
  // while producers and the control loop keep running.
  std::thread recalibrator([&] {
    auto next = serve::build_serving_model(mgr, opts, 2);
    models.publish(std::move(next));
    std::cout << "  [recalibrator] published model v2 (hot swap)\n";
  });

  // Chaos: arm an injected crash of the control thread at epoch
  // `kill_after` (fires once, counted per run_epoch hit).
  std::optional<FaultScope> chaos;
  if (kill_after > 0) {
    FaultPlan fplan;
    fplan.seed = 7;
    fplan.add({.point = "fleet.coordinator.epoch",
               .action = FaultAction::kThrow,
               .every_nth = 1,
               .from_hit = kill_after,
               .until_hit = kill_after + 1,
               .message = "injected coordinator crash"});
    chaos.emplace(std::move(fplan));
  }

  std::cout << "serving " << sim_seconds << " simulated seconds, epoch "
            << epoch_interval << " s"
            << (soak ? " (wall-paced soak)" : " (full speed)") << "...\n";

  bool crashed = false;
  double crash_sim_time = 0.0;
  serve::SoakResult result;
  try {
    result = replay.run_threaded(epoch_of(coordinator), sim_seconds,
                                 epoch_interval, wall_pace);
  } catch (const InjectedFault& e) {
    crashed = true;
    crash_sim_time =
        static_cast<double>(kill_after) * epoch_interval;
    std::cout << "\n  [chaos] control thread died at epoch " << kill_after
              << " (sim t=" << crash_sim_time << "): " << e.what() << "\n";
  }
  recalibrator.join();
  chaos.reset();  // disarm: the restarted coordinator runs fault-free

  if (crashed && !recover) {
    std::cout << "crashed (no --recover): exiting dirty\n";
    return 1;
  }

  if (crashed) {
    // Events the dead node's ring still held: produced, never drained.
    const serve::ArrivalIngest& dead_ring = coordinator.shard(0).ingest();
    const std::uint64_t stranded = dead_ring.pushed() - dead_ring.popped();

    // ---- Restart: a brand-new coordinator with its own ring and proxies.
    const serve::CheckpointLoadReport loaded =
        serve::load_checkpoint(serve::checkpoint_path(checkpoint_dir));
    const std::uint64_t corrupt_checkpoints = loaded.quarantined ? 1 : 0;
    if (!loaded.clean()) {
      std::cout << "recovery FAILED: checkpoint unusable (" << loaded.reason
                << ")\n";
      return 1;
    }
    std::cout << "  [recovery] checkpoint @ epoch " << loaded.checkpoint->epoch
              << " (sim t=" << loaded.checkpoint->time << ", library "
              << loaded.checkpoint->library_ref << ")\n";

    // The new process has no model yet: serving starts from the recovered
    // last-known-good vector while the refit happens behind it.
    serve::ModelSnapshot<serve::ServingModel> models2;
    fleet::FleetCoordinator coordinator2(models2, cfg);
    const serve::RecoveryReport rec =
        coordinator2.recover(*loaded.checkpoint, crash_sim_time);
    if (!rec.restored) {
      std::cout << "  [recovery] checkpoint quarantined: " << rec.reason
                << "\n";
    }
    fleet::NodeShard& node2 = coordinator2.shard(0);
    std::cout << "  [recovery] serving recovered vector (" << node2.timeout(0)
              << ", " << node2.timeout(1) << ") while the model refits\n";
    serve::TrafficReplay replay2(node2.ingest(), &node2, traffic_for(node2));

    // Refit now (restart-time model load), publish after roughly one epoch
    // so the bounded-staleness window is actually exercised.
    auto bundle = serve::build_serving_model(mgr, opts, 3);
    std::thread publisher([&models2, &bundle, wall_pace, epoch_interval] {
      const double delay_s =
          wall_pace > 0.0 ? epoch_interval / wall_pace : 0.05;
      std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
      models2.publish(std::move(bundle));
    });

    const double remaining = sim_seconds - crash_sim_time;
    const serve::SoakResult after =
        replay2.run_threaded(epoch_of(coordinator2), remaining,
                             epoch_interval, wall_pace, crash_sim_time);
    publisher.join();

    const auto& totals2 = coordinator2.totals();
    std::cout << "\nrecovery summary\n"
              << "  epochs after restart:  " << after.epochs << "\n"
              << "  held (no model):       " << totals2.model_unavailable_holds
              << "\n"
              << "  first replan at epoch: " << after.epochs_to_first_replan
              << " (post-restart)\n"
              << "  checkpoints written:   " << totals2.checkpoints_written
              << "\n"
              << "  recoveries:            " << totals2.recoveries << "\n"
              << "  stranded in dead ring: " << stranded << "\n"
              << "  applied timeouts:      (" << node2.timeout(0) << ", "
              << node2.timeout(1) << ")\n";

    // Machine-parseable verdict (the CI chaos step greps this line):
    // recovered_in counts post-restart epochs until the first replan.
    const std::uint64_t recovered_in = after.epochs_to_first_replan;
    const bool ok = recovered_in >= 1 && recovered_in <= 3 &&
                    corrupt_checkpoints == 0 && totals2.recoveries == 1 &&
                    after.traffic.push_failures == 0 &&
                    totals2.watchdog_revocations == 0;
    std::cout << "\n"
              << (ok ? "recovery ok" : "recovery FAILED")
              << ": recovered_in=" << recovered_in
              << " corrupt_checkpoints=" << corrupt_checkpoints
              << " push_failures=" << after.traffic.push_failures
              << " watchdog_revocations=" << totals2.watchdog_revocations
              << " replans_after=" << totals2.replans
              << " epochs_after=" << after.epochs << " stranded=" << stranded
              << "\n";
    return ok ? 0 : 1;
  }

  const auto& totals = coordinator.totals();
  std::cout << "\nrun summary\n"
            << "  epochs:              " << result.epochs << "\n"
            << "  events drained:      " << totals.events_drained << "\n"
            << "  arrivals/timeouts:   " << result.traffic.arrivals << " / "
            << result.traffic.timeouts << "\n"
            << "  replans:             " << totals.replans << "\n"
            << "  stale holds:         " << totals.stale_holds << "\n"
            << "  deadline misses:     " << totals.deadline_misses << "\n"
            << "  checkpoints:         " << totals.checkpoints_written << "\n"
            << "  model swaps seen:    " << totals.model_swaps_observed << "\n"
            << "  ingest drops:        " << result.ingest_dropped << "\n"
            << "  shed (admission):    " << result.traffic.shed << "\n"
            << "  watchdog revokes:    " << totals.watchdog_revocations << "\n"
            << "  COS switches:        " << cat.switch_count() << "\n"
            << "  applied timeouts:    (" << coordinator.shard(0).timeout(0)
            << ", " << coordinator.shard(0).timeout(1) << ")\n";
  {
    const auto guard = models.acquire();
    const auto cache = guard->pred().cache_stats();
    std::cout << "  rt_cache hit rate:   " << cache.hit_rate() << " ("
              << cache.hits << "/" << cache.hits + cache.misses << ")\n";
  }

  // Machine-parseable verdict (the CI soak step greps this line).
  const bool clean = result.ingest_dropped == 0 &&
                     result.traffic.push_failures == 0 &&
                     totals.watchdog_revocations == 0 && totals.replans > 0;
  std::cout << "\n"
            << (clean ? "soak ok" : "soak FAILED")
            << ": drops=" << result.ingest_dropped
            << " push_failures=" << result.traffic.push_failures
            << " watchdog_revocations=" << totals.watchdog_revocations
            << " replans=" << totals.replans << " epochs=" << result.epochs
            << "\n";
  return clean ? 0 : 1;
}

// Traffic replay: the stand-in for a fleet of service proxies.
//
// Replays a collocated pairing's query stream against the serving runtime:
// per workload, shards (independent producer threads) draw arrivals from a
// time-varying Poisson process, service times from the workload's
// lognormal (mean, CV), and run a tiny G/G/k recurrence per shard to get
// genuine queueing delays.  Each query publishes up to three QueryEvents
// into ArrivalIngest — arrival, STAP timeout (when the sojourn crosses the
// node's *currently applied* timeout x expected service: the closed
// loop), completion — and a fired timeout accelerates the query's
// remaining work by `boost_speedup`, so re-planned timeout vectors
// actually change the traffic the estimator sees next epoch.
//
// Two drive modes:
//   * generate(t0, t1): every shard advanced on the calling thread —
//     deterministic, used by tests, golden digests and benches;
//   * run_threaded(...): one free-running thread per shard (the MPSC
//     producers), the calling thread running control epochs as the shards'
//     simulated clocks advance; optional wall-clock pacing for soaks.
//
// The replay knows the control plane only through TimeoutSource (the
// applied vector it reads) and the epoch callable run_threaded drives — in
// practice a fleet NodeShard and FleetCoordinator::run_epoch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "serve/admission.hpp"
#include "serve/arrival_ingest.hpp"
#include "serve/timeout_source.hpp"

namespace stac::serve {

struct ReplayWorkloadConfig {
  double mean_service = 1.0;  ///< expected service time, seconds
  double service_cv = 0.7;
  std::size_t servers = 2;    ///< query slots per shard
  double base_util = 0.6;     ///< offered load, fraction of capacity
  /// Sinusoidal modulation: util(t) = base + amplitude * sin(2πt/period).
  double util_amplitude = 0.0;
  double util_period = 120.0;
  /// Remaining-work speedup while boosted (EA x allocation ratio > 1).
  double boost_speedup = 1.6;
};

struct ReplayConfig {
  std::vector<ReplayWorkloadConfig> workloads;  ///< index = workload id
  std::size_t shards_per_workload = 1;          ///< producers per workload
  std::uint64_t seed = 2022;
  /// Optional overload protection: queries are offered to the admission
  /// controller at their arrival instant; a shed query is never generated —
  /// it consumes no server slot and emits no events (counted in
  /// ReplayStats::shed, distinct from ring drops).  Not owned.
  AdmissionController* admission = nullptr;
};

struct ReplayStats {
  std::uint64_t arrivals = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t completions = 0;
  std::uint64_t push_failures = 0;  ///< events the ring dropped
  std::uint64_t shed = 0;           ///< queries refused by admission control

  ReplayStats& operator+=(const ReplayStats& o) {
    arrivals += o.arrivals;
    timeouts += o.timeouts;
    completions += o.completions;
    push_failures += o.push_failures;
    shed += o.shed;
    return *this;
  }
};

/// What a run_threaded soak did on the traffic side; the control plane's
/// totals are the coordinator's own.
struct SoakResult {
  std::uint64_t epochs = 0;
  ReplayStats traffic;
  std::uint64_t ingest_dropped = 0;
  /// Epoch ordinal (1-based, within this run) of the first epoch that
  /// re-planned; 0 = the run never replanned.  The kill-and-recover soak
  /// gates on this: recovery must re-plan within a bounded epoch count.
  std::uint64_t epochs_to_first_replan = 0;
};

class TrafficReplay {
 public:
  /// `timeouts` supplies the applied STAP vector (closed loop) — in
  /// practice a fleet NodeShard; null means a fixed never-boost threshold.
  /// Both must outlive the replay.
  TrafficReplay(ArrivalIngest& ingest, const TimeoutSource* timeouts,
                ReplayConfig config);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Advance every shard over simulated [t0, t1) on the calling thread,
  /// pushing events time-sorted per shard chunk.  Deterministic for a
  /// fixed seed and timeout trajectory.
  ReplayStats generate(double t0, double t1);

  /// Advance one shard (thread-owned in run_threaded).
  ReplayStats generate_shard(std::size_t shard, double t0, double t1);

  /// Soak drive: shards free-run on their own threads in epoch-sized
  /// chunks while the calling thread calls `run_epoch(now)` once per chunk
  /// as soon as every shard has produced it; `run_epoch` returns whether
  /// that epoch re-planned.  `wall_pace` > 0 slows shards to roughly
  /// `wall_pace` simulated seconds per wall second (soak mode); 0 = as fast
  /// as possible.  `start_time` offsets the simulated clock (a replay built
  /// for a restarted coordinator starts at the crash time).  If run_epoch
  /// throws (e.g. an injected "fleet.coordinator.epoch" crash), the shards
  /// are stopped and joined before the exception propagates.
  SoakResult run_threaded(const std::function<bool(double)>& run_epoch,
                          double sim_seconds, double epoch_interval,
                          double wall_pace = 0.0, double start_time = 0.0);

 private:
  struct Shard {
    std::uint16_t workload = 0;
    std::uint32_t producer = 0;      ///< unique tag across shards
    double rate_scale = 1.0;         ///< 1 / shards_per_workload
    std::vector<double> server_free; ///< per-slot next-free time
    double next_arrival = 0.0;
    Rng rng{1};
  };

  [[nodiscard]] double utilization_at(const ReplayWorkloadConfig& w,
                                      double t) const;
  [[nodiscard]] double applied_timeout(std::size_t workload) const;

  ArrivalIngest& ingest_;
  const TimeoutSource* timeouts_;
  ReplayConfig config_;
  std::vector<Shard> shards_;
  /// Chunks completed per shard (written by the shard's thread, polled by
  /// the epoch thread in run_threaded).
  std::vector<std::atomic<std::uint64_t>> progress_;
  /// Early-stop signal for shard threads (set when run_epoch throws).
  std::atomic<bool> stop_{false};
};

}  // namespace stac::serve

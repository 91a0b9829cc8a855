#include "serve/traffic_replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <numbers>
#include <thread>

#include "cat/stap.hpp"
#include "common/check.hpp"
#include "common/fault_injection.hpp"

namespace stac::serve {

TrafficReplay::TrafficReplay(ArrivalIngest& ingest,
                             const TimeoutSource* timeouts,
                             ReplayConfig config)
    : ingest_(ingest), timeouts_(timeouts), config_(std::move(config)) {
  STAC_REQUIRE(!config_.workloads.empty());
  STAC_REQUIRE(config_.shards_per_workload >= 1);
  Rng seeder(config_.seed);
  std::uint32_t producer = 0;
  for (std::size_t w = 0; w < config_.workloads.size(); ++w) {
    const ReplayWorkloadConfig& wc = config_.workloads[w];
    STAC_REQUIRE(wc.mean_service > 0.0 && wc.servers >= 1);
    for (std::size_t s = 0; s < config_.shards_per_workload; ++s) {
      Shard shard;
      shard.workload = static_cast<std::uint16_t>(w);
      shard.producer = producer++;
      shard.rate_scale = 1.0 / static_cast<double>(config_.shards_per_workload);
      shard.server_free.assign(wc.servers, 0.0);
      shard.rng = seeder.split(shard.producer + 1);
      shard.next_arrival = 0.0;
      shards_.push_back(std::move(shard));
    }
  }
  progress_ = std::vector<std::atomic<std::uint64_t>>(shards_.size());
}

double TrafficReplay::utilization_at(const ReplayWorkloadConfig& w,
                                     double t) const {
  const double u =
      w.base_util +
      (w.util_amplitude != 0.0
           ? w.util_amplitude *
                 std::sin(2.0 * std::numbers::pi * t / w.util_period)
           : 0.0);
  // Offered load may far exceed capacity — that is what overload benches
  // express (admission control, not this clamp, is the protection).
  return std::clamp(u, 0.02, 16.0);
}

double TrafficReplay::applied_timeout(std::size_t workload) const {
  return timeouts_ != nullptr ? timeouts_->timeout(workload)
                              : cat::kNeverBoostTimeout;
}

ReplayStats TrafficReplay::generate_shard(std::size_t shard_id, double t0,
                                          double t1) {
  STAC_REQUIRE(shard_id < shards_.size());
  Shard& sh = shards_[shard_id];
  const ReplayWorkloadConfig& wc = config_.workloads[sh.workload];
  ReplayStats stats;

  std::vector<QueryEvent> buf;
  if (sh.next_arrival < t0) sh.next_arrival = t0;
  while (sh.next_arrival < t1) {
    const double t_a = sh.next_arrival;
    // Piecewise-stationary Poisson: the rate at the arrival instant drives
    // the next gap.  Shards split the workload's total arrival rate.
    const double rate = utilization_at(wc, t_a) *
                        static_cast<double>(wc.servers) / wc.mean_service *
                        sh.rate_scale;
    sh.next_arrival = t_a + sh.rng.exponential(std::max(rate, 1e-9));

    // Admission gate at the arrival instant: a shed query never existed as
    // far as the runtime is concerned — no server slot, no events.
    if (config_.admission != nullptr &&
        !config_.admission->admit(sh.workload)) {
      ++stats.shed;
      continue;
    }

    // G/G/k recurrence: the query takes the earliest-free slot.
    auto slot = std::min_element(sh.server_free.begin(), sh.server_free.end());
    const double start = std::max(t_a, *slot);
    const double queue_delay = start - t_a;
    const double raw_service =
        sh.rng.lognormal_mean_cv(wc.mean_service, wc.service_cv);

    // Eq. 4 against the *currently applied* timeout vector — the closed
    // loop.  The threshold is re-read per query, so a re-plan mid-chunk
    // steers the remainder of the chunk.
    const double timeout_rel = applied_timeout(sh.workload);
    double finish = start + raw_service;
    bool boosted = false;
    double t_boost = 0.0;
    if (timeout_rel < cat::kNeverBoostTimeout) {
      t_boost = t_a + timeout_rel * wc.mean_service;
      if (t_boost < finish) {
        boosted = true;
        // Work done before the boost proceeds at rate 1; the remainder is
        // sped up (extra ways convert into execution rate, Eq. 3).
        const double done_before = std::max(0.0, t_boost - start);
        const double boost_at = std::max(t_boost, start);
        finish = boost_at + (raw_service - done_before) /
                                std::max(1.0, wc.boost_speedup);
      }
    }
    *slot = finish;

    QueryEvent ev;
    ev.workload = sh.workload;
    ev.producer = sh.producer;
    ev.kind = EventKind::kArrival;
    ev.time = t_a;
    buf.push_back(ev);
    ++stats.arrivals;
    if (boosted) {
      ev.kind = EventKind::kTimeout;
      ev.time = std::max(t_boost, t_a);
      buf.push_back(ev);
      ++stats.timeouts;
    }
    ev.kind = EventKind::kCompletion;
    ev.time = finish;
    ev.queue_delay = queue_delay;
    ev.service = finish - start;
    ev.boosted = boosted;
    buf.push_back(ev);
    ++stats.completions;
  }

  // Near-monotone per-producer publication (completions can land past t1;
  // the estimator's windows are span-based and tolerate the skew).
  std::stable_sort(buf.begin(), buf.end(),
                   [](const QueryEvent& a, const QueryEvent& b) {
                     return a.time < b.time;
                   });
  for (const QueryEvent& ev : buf) {
    try {
      if (!ingest_.try_push(ev)) ++stats.push_failures;
    } catch (const InjectedFault&) {
      // A kThrow at "serve.ingest.push" models the proxy's transport
      // throwing; the proxy survives and the event is simply lost.
      ++stats.push_failures;
    }
  }
  return stats;
}

ReplayStats TrafficReplay::generate(double t0, double t1) {
  ReplayStats total;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    total += generate_shard(s, t0, t1);
  return total;
}

SoakResult TrafficReplay::run_threaded(
    const std::function<bool(double)>& run_epoch, double sim_seconds,
    double epoch_interval, double wall_pace, double start_time) {
  STAC_REQUIRE(sim_seconds > 0.0 && epoch_interval > 0.0);
  const auto chunks = static_cast<std::uint64_t>(
      std::ceil(sim_seconds / epoch_interval));
  for (auto& p : progress_) p.store(0, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);

  std::vector<ReplayStats> shard_stats(shards_.size());
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    threads.emplace_back([this, s, chunks, epoch_interval, wall_pace,
                          wall_start, start_time, &shard_stats] {
      ReplayStats acc;
      for (std::uint64_t k = 0; k < chunks; ++k) {
        if (stop_.load(std::memory_order_acquire)) break;
        const double t0 =
            start_time + static_cast<double>(k) * epoch_interval;
        acc += generate_shard(s, t0, t0 + epoch_interval);
        progress_[s].store(k + 1, std::memory_order_release);
        if (wall_pace > 0.0) {
          // Pace the simulated clock to the wall: chunk k+1 may start no
          // earlier than (k+1) * interval / pace wall seconds in.
          const auto deadline =
              wall_start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(k + 1) *
                                   epoch_interval / wall_pace));
          std::this_thread::sleep_until(deadline);
        }
      }
      shard_stats[s] = acc;
    });
  }

  SoakResult result;
  std::exception_ptr epoch_error;
  for (std::uint64_t k = 0; k < chunks; ++k) {
    // Run epoch k once every shard has published chunk k (or bailed out).
    for (std::size_t s = 0; s < shards_.size(); ++s)
      while (progress_[s].load(std::memory_order_acquire) < k + 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    try {
      const bool replanned =
          run_epoch(start_time + static_cast<double>(k + 1) * epoch_interval);
      ++result.epochs;
      if (replanned && result.epochs_to_first_replan == 0)
        result.epochs_to_first_replan = result.epochs;
    } catch (...) {
      // A dead control tick (injected crash, contract violation) must not
      // leave shard threads running: stop, join, then let the caller see
      // the original exception.
      epoch_error = std::current_exception();
      stop_.store(true, std::memory_order_release);
      break;
    }
  }
  for (auto& t : threads) t.join();
  if (epoch_error) std::rethrow_exception(epoch_error);

  for (const ReplayStats& st : shard_stats) result.traffic += st;
  result.ingest_dropped = ingest_.dropped();
  return result;
}

}  // namespace stac::serve

// Invariants of the G/G/k event engine (pre-drawn CRN streams + 4-ary
// lazy-deletion heap): determinism across common-random-number replays and
// chaos runs, clean teardown books under heavy boost churn (stale-generation
// completions after class switch/revert must be dropped, never applied),
// and a bounded stream cache.  The exact output bits are pinned by
// tests/golden/golden_digest_test.cpp over these same configs; the mean
// queueing delay is checked against closed forms in ggk_oracle_test.cpp.
#include "queueing/ggk_simulator.hpp"

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"

namespace stac::queueing {
namespace {

void expect_bit_identical(const GGkResult& a, const GGkResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.boosted_queries, b.boosted_queries);
  EXPECT_EQ(a.cos_switches, b.cos_switches);
  EXPECT_EQ(a.residual_boost_refs, b.residual_boost_refs);
  EXPECT_EQ(a.residual_overdue_jobs, b.residual_overdue_jobs);
  EXPECT_EQ(a.negative_sojourns, b.negative_sojourns);
  EXPECT_EQ(a.latency_injections, b.latency_injections);
  // Bitwise equality of every retained sample, in completion order.
  const auto as = a.response_times.samples();
  const auto bs = b.response_times.samples();
  ASSERT_EQ(as.size(), bs.size());
  for (std::size_t i = 0; i < as.size(); ++i)
    ASSERT_EQ(as[i], bs[i]) << "response sample " << i << " diverges";
  const auto aq = a.queue_delays.samples();
  const auto bq = b.queue_delays.samples();
  ASSERT_EQ(aq.size(), bq.size());
  for (std::size_t i = 0; i < aq.size(); ++i)
    ASSERT_EQ(aq[i], bq[i]) << "queue-delay sample " << i << " diverges";
  EXPECT_EQ(a.mean_queue_delay, b.mean_queue_delay);
}

/// Teardown books: every counted completion has a non-negative sojourn, the
/// run reached its target, and (class-level boosting) the boost refcount
/// left over equals the overdue jobs still outstanding.
void expect_clean_books(const GGkConfig& c, const GGkResult& r) {
  EXPECT_EQ(r.completed, c.queries - c.warmup);
  EXPECT_EQ(r.negative_sojourns, 0u);
  if (c.class_level_boost)
    EXPECT_EQ(r.residual_boost_refs, r.residual_overdue_jobs);
  else
    EXPECT_EQ(r.residual_boost_refs, 0u);
}

/// A run on a freshly regenerated CRN stream and a replay of the cached
/// stream.
std::pair<GGkResult, GGkResult> run_cold_then_warm(const GGkConfig& c) {
  clear_crn_stream_cache();
  const GGkResult cold = simulate_ggk(c);
  const GGkResult warm = simulate_ggk(c);
  return {cold, warm};
}

TEST(GGkFastEngine, BitIdenticalUnderAdversarialSweep) {
  // Heavy tail, near-saturation, both boost semantics, aggressive and lazy
  // timeouts, multiple seeds: the corners where event ordering, lazy
  // deletion and tie-breaking could plausibly go wrong.  A replay of the
  // cached stream must reproduce the regenerating run bit for bit.
  for (const double cv : {0.3, 1.0, 2.5}) {
    for (const double util : {0.5, 0.95}) {
      for (const bool class_level : {true, false}) {
        for (const double timeout : {0.25, 2.0}) {
          for (const std::uint64_t seed : {7u, 99u}) {
            GGkConfig c;
            c.utilization = util;
            c.servers = 3;
            c.mean_service = 1.0;
            c.service_cv = cv;
            c.timeout_rel = timeout;
            c.effective_allocation = 0.6;
            c.allocation_ratio = 3.0;
            c.class_level_boost = class_level;
            c.queries = 6000;
            c.warmup = 300;
            c.seed = seed;
            const std::string label =
                "cv=" + std::to_string(cv) + " util=" + std::to_string(util) +
                " class=" + std::to_string(class_level) +
                " timeout=" + std::to_string(timeout) +
                " seed=" + std::to_string(seed);
            const auto [cold, warm] = run_cold_then_warm(c);
            expect_bit_identical(cold, warm, label);
            SCOPED_TRACE(label);
            expect_clean_books(c, cold);
          }
        }
      }
    }
  }
}

TEST(GGkFastEngine, StaleGenerationsDroppedAcrossBoostChurn) {
  // An aggressive timeout at heavy load produces many class switch/revert
  // cycles; every switch reschedules all serving jobs and strands the
  // previously queued completions as stale generations.  If any stale event
  // were applied, completion times (pinned by GoldenDigest.GGkBoostChurn)
  // or the teardown books would be off.
  GGkConfig c;
  c.utilization = 0.93;
  c.servers = 2;
  c.service_cv = 1.5;
  c.timeout_rel = 0.5;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 20000;
  c.warmup = 500;
  c.seed = 31;
  const GGkResult r = simulate_ggk(c);
  // Churn actually happened (both directions of the class switch).
  EXPECT_GT(r.cos_switches, 10u);
  EXPECT_GT(r.boosted_queries, 0u);
  expect_clean_books(c, r);
}

TEST(GGkFastEngine, BitIdenticalUnderServiceChaos) {
  // The fault schedule is a pure function of (plan seed, arrival ordinal):
  // two armed runs of one plan inject the same spikes into the same jobs.
  FaultPlan plan;
  plan.seed = 4321;
  plan.add({.point = "ggk.service",
            .action = FaultAction::kLatency,
            .probability = 0.1,
            .latency = 5.0});
  GGkConfig c;
  c.utilization = 0.9;
  c.servers = 2;
  c.service_cv = 2.0;
  c.timeout_rel = 0.5;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 10000;
  c.warmup = 500;
  c.seed = 3;
  auto armed_run = [&] {
    FaultScope scope(plan);
    return simulate_ggk(c);
  };
  const GGkResult first = armed_run();
  const GGkResult second = armed_run();
  EXPECT_GT(first.latency_injections, 0u);
  expect_bit_identical(first, second, "service chaos");
  expect_clean_books(c, first);
}

TEST(GGkFastEngine, CrnStreamCacheReusesAcrossTimeoutGrid) {
  clear_crn_stream_cache();
  auto& reg = obs::MetricsRegistry::global();
  const auto hits0 = reg.counter_value("ggk.crn_stream_hits");
  const auto misses0 = reg.counter_value("ggk.crn_stream_misses");

  GGkConfig c;
  c.utilization = 0.8;
  c.servers = 2;
  c.service_cv = 1.0;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 4000;
  c.warmup = 200;
  c.seed = 77;
  // A timeout grid at fixed (seed, load): one regeneration, then replays.
  GGkResult first;
  std::size_t cells = 0;
  for (const double timeout : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    c.timeout_rel = timeout;
    const GGkResult r = simulate_ggk(c);
    if (cells++ == 0) first = r;
    EXPECT_EQ(r.completed, first.completed);
  }
  EXPECT_EQ(reg.counter_value("ggk.crn_stream_misses"), misses0 + 1);
  EXPECT_EQ(reg.counter_value("ggk.crn_stream_hits"), hits0 + cells - 1);

  // A replayed cell is bit-identical to a cold regeneration of it.
  clear_crn_stream_cache();
  c.timeout_rel = 0.5;
  const GGkResult cold = simulate_ggk(c);
  c.timeout_rel = 4.0;  // intervening cell shares the stream (same key)
  (void)simulate_ggk(c);
  c.timeout_rel = 0.5;
  const GGkResult warm = simulate_ggk(c);
  expect_bit_identical(cold, warm, "cold vs warm replay");
}

TEST(CrnStreamCache, CapacityKnobBoundsGrowth) {
  const std::size_t restore = crn_stream_cache_capacity();
  clear_crn_stream_cache();
  set_crn_stream_cache_capacity(4);
  EXPECT_EQ(crn_stream_cache_capacity(), 4u);

  // Drifting conditions: every simulation keys a fresh (seed) stream.  The
  // cache must flush at capacity instead of growing for the process
  // lifetime, and the size gauge must track the live entry count.
  GGkConfig c;
  c.utilization = 0.6;
  c.queries = 400;
  c.warmup = 40;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    c.seed = 1000 + seed;
    (void)simulate_ggk(c);
    EXPECT_LE(crn_stream_cache_size(), 4u);
  }
  EXPECT_EQ(
      static_cast<std::size_t>(obs::MetricsRegistry::global()
                                   .gauge("ggk.crn_stream_cache.size")
                                   .value()),
      crn_stream_cache_size());

  // Shrinking below the live count flushes immediately; zero clamps to 1.
  set_crn_stream_cache_capacity(0);
  EXPECT_EQ(crn_stream_cache_capacity(), 1u);
  c.seed = 9999;
  (void)simulate_ggk(c);
  EXPECT_EQ(crn_stream_cache_size(), 1u);

  set_crn_stream_cache_capacity(restore);
  clear_crn_stream_cache();
}

}  // namespace
}  // namespace stac::queueing

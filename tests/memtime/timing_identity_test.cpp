// Timing-off identity and timed-replay equivalence (DESIGN.md §16).
//
// With the default (flat) timing spec the hierarchy must be bit-identical
// to the pre-timing simulator: every counter unchanged, and the modeled
// cycle totals equal to the closed form sum(counters x latency).  With a
// fully timed spec (split latencies, DRAM queue, stacked tier) the access()
// loop and replay() must still agree bump-for-bump on counters, cycle
// breakdowns and the modeled clock.
#include <gtest/gtest.h>

#include <vector>

#include "cachesim/cache_hierarchy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stac::cachesim {
namespace {

struct RecordedTrace {
  std::vector<MemoryAccess> refs;
  std::vector<ClassId> classes;
};

// Same adversarial shape as the cachesim replay tests: loop walks, hot
// lines, cold sweeps, all four access types, three classes.
RecordedTrace adversarial_trace(std::size_t n, std::uint64_t seed) {
  RecordedTrace t;
  t.refs.reserve(n);
  t.classes.reserve(n);
  std::uint64_t s = seed | 1;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  std::uint64_t seq[3] = {0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<ClassId>(next() % 3);
    const std::uint64_t base = (cls + 1) * (1ULL << 32);
    const std::uint64_t pick = next() % 10;
    std::uint64_t addr;
    if (pick < 5) {
      addr = base + (seq[cls] += 8) % (4 * 1024);
    } else if (pick < 8) {
      addr = base + next() % (32 * 1024);
    } else {
      addr = base + next() % (4 * 1024 * 1024);
    }
    auto type = AccessType::kLoad;
    if (pick == 0) type = AccessType::kStore;
    if (pick == 8) type = AccessType::kIfetch;
    if (pick == 9) type = AccessType::kPrefetch;
    t.refs.push_back({addr, type});
    t.classes.push_back(cls);
  }
  return t;
}

HierarchyConfig flat_hw() {
  HierarchyConfig c;
  c.l1d = {8 * 1024, 8, 64, 4};
  c.l1i = {8 * 1024, 8, 64, 4};
  c.l2 = {64 * 1024, 16, 64, 12};
  c.llc = {1024 * 1024, 8, 64, 40};
  c.memory_latency_cycles = 200;
  return c;
}

// Specialized replay tuple (8/8/16/20 SoA ways).
HierarchyConfig flat_specialized_hw() {
  HierarchyConfig c;
  c.l1d = {4 * 1024, 8, 64, 4};
  c.l1i = {4 * 1024, 8, 64, 4};
  c.l2 = {16 * 1024, 16, 64, 12};
  c.llc = {160 * 1024, 20, 64, 40};
  c.memory_latency_cycles = 200;
  return c;
}

// Fully timed: split per-level latencies, DRAM bandwidth queue, stacked
// DRAM-cache tier — every new code path exercised at once.
HierarchyConfig timed_hw() {
  HierarchyConfig c = flat_hw();
  c.timing.l1d = {1, 4, memtime::LookupMode::kParallel};
  c.timing.l1i = {1, 4, memtime::LookupMode::kParallel};
  c.timing.l2 = {4, 8, memtime::LookupMode::kSequential};
  c.timing.llc = {12, 28, memtime::LookupMode::kSequential};
  c.timing.dram.bandwidth_bytes_per_cycle = 8.0;
  c.timing.dram.window_cycles = 4096;
  memtime::DramCacheSpec dc;
  dc.geometry = {4 * 1024 * 1024, 16, 64};
  dc.perf = {20, 0, memtime::LookupMode::kSequential};
  dc.dram.base_latency_cycles = 60;
  dc.dram.bandwidth_bytes_per_cycle = 32.0;
  c.timing.dram_cache = dc;
  return c;
}

// --- satellite: timing-off identity --------------------------------------
//
// Closed form: with flat per-level latencies the modeled per-level cycles
// are exactly (traversals x scalar), and the memory share is exactly
// (memory accesses x memory_latency_cycles) == kStallCycles.

void expect_closed_form(const HierarchyConfig& cfg) {
  ASSERT_TRUE(cfg.timing_flat());
  const RecordedTrace t = adversarial_trace(60000, 0xFEEDull);
  CacheHierarchy hw(cfg, 3);
  const std::uint64_t total =
      hw.replay(t.refs.data(), t.classes.data(), t.refs.size());

  std::uint64_t closed_form_total = 0;
  for (ClassId c = 0; c < 3; ++c) {
    const CounterSnapshot ctr = hw.counters(c);
    const CycleBreakdown cyc = hw.cycles(c);
    const std::uint64_t l1d_traversals =
        ctr.get(Counter::kL1dLoads) + ctr.get(Counter::kL1dStores);
    EXPECT_EQ(cyc.get(CycleLevel::kL1d),
              l1d_traversals * cfg.l1d.latency_cycles);
    EXPECT_EQ(cyc.get(CycleLevel::kL1i),
              ctr.get(Counter::kL1iLoads) * cfg.l1i.latency_cycles);
    EXPECT_EQ(cyc.get(CycleLevel::kL2),
              ctr.get(Counter::kL2Requests) * cfg.l2.latency_cycles);
    EXPECT_EQ(cyc.get(CycleLevel::kLlc),
              (ctr.get(Counter::kLlcLoads) + ctr.get(Counter::kLlcStores)) *
                  cfg.llc.latency_cycles);
    const std::uint64_t mem_accesses =
        ctr.get(Counter::kMemReads) + ctr.get(Counter::kMemWrites);
    EXPECT_EQ(cyc.get(CycleLevel::kDramBase),
              mem_accesses * cfg.memory_latency_cycles);
    EXPECT_EQ(cyc.get(CycleLevel::kDramQueue), 0u);
    EXPECT_EQ(cyc.get(CycleLevel::kDramCache), 0u);
    EXPECT_EQ(cyc.get(CycleLevel::kDramBase),
              ctr.get(Counter::kStallCycles));
    EXPECT_EQ(cyc.accesses, l1d_traversals + ctr.get(Counter::kL1iLoads));
    closed_form_total += cyc.total();
  }
  EXPECT_EQ(total, closed_form_total);
  EXPECT_EQ(hw.clock_cycles(), total);
  EXPECT_EQ(hw.total_cycles().total(), closed_form_total);
}

TEST(TimingIdentity, ClosedFormOnSpecializedLayout) {
  expect_closed_form(flat_specialized_hw());
}

TEST(TimingIdentity, ClosedFormOnGenericSoaLayout) {
  expect_closed_form(flat_hw());
}

TEST(TimingIdentity, PerAccessLoopMatchesClosedFormToo) {
  const HierarchyConfig cfg = flat_hw();
  const RecordedTrace t = adversarial_trace(20000, 0xABCDull);
  CacheHierarchy hw(cfg, 3);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < t.refs.size(); ++i)
    total += hw.access(t.classes[i], t.refs[i]);
  std::uint64_t breakdown_total = 0;
  for (ClassId c = 0; c < 3; ++c) breakdown_total += hw.cycles(c).total();
  EXPECT_EQ(total, breakdown_total);
  EXPECT_EQ(hw.clock_cycles(), total);
}

// Hit/miss/eviction counters must not depend on the timing spec at all:
// the timed hierarchy sees the exact counter stream the flat one does.
TEST(TimingIdentity, CountersBitIdenticalFlatVsTimed) {
  const RecordedTrace t = adversarial_trace(60000, 0xC0DEull);
  // Same cache geometry; only the timing differs.  The stacked tier is a
  // new level *behind* the LLC, so LLC-and-above behaviour is untouched.
  CacheHierarchy flat(flat_hw(), 3);
  CacheHierarchy timed(timed_hw(), 3);
  flat.replay(t.refs.data(), t.classes.data(), t.refs.size());
  timed.replay(t.refs.data(), t.classes.data(), t.refs.size());
  for (ClassId c = 0; c < 3; ++c) {
    CounterSnapshot a = flat.counters(c);
    CounterSnapshot b = timed.counters(c);
    // The only legitimate differences are the time-derived counters.
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const auto ctr = static_cast<Counter>(i);
      if (ctr == Counter::kStallCycles || ctr == Counter::kCycles ||
          ctr == Counter::kIpcX1000) {
        continue;
      }
      EXPECT_EQ(a.values[i], b.values[i])
          << "class " << c << " counter " << counter_name(ctr);
    }
    EXPECT_EQ(flat.llc_occupancy(c), timed.llc_occupancy(c));
  }
}

// --- timed replay equivalence ---------------------------------------------

TEST(TimingIdentity, AccessLoopAndReplayAgreeOnTimedConfig) {
  const HierarchyConfig cfg = timed_hw();
  const RecordedTrace t = adversarial_trace(60000, 0xFEEDull);
  CacheHierarchy loop_hw(cfg, 3);
  CacheHierarchy replay_hw(cfg, 3);
  std::uint64_t loop_total = 0;
  for (std::size_t i = 0; i < t.refs.size(); ++i)
    loop_total += loop_hw.access(t.classes[i], t.refs[i]);
  const std::uint64_t replay_total =
      replay_hw.replay(t.refs.data(), t.classes.data(), t.refs.size());
  EXPECT_EQ(loop_total, replay_total);
  EXPECT_EQ(loop_hw.clock_cycles(), replay_hw.clock_cycles());
  for (ClassId c = 0; c < 3; ++c) {
    EXPECT_EQ(loop_hw.counters(c).values, replay_hw.counters(c).values);
    const CycleBreakdown a = loop_hw.cycles(c);
    const CycleBreakdown b = replay_hw.cycles(c);
    EXPECT_EQ(a.cycles, b.cycles) << "class " << c;
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.dram_cache_hits, b.dram_cache_hits);
    EXPECT_EQ(a.dram_cache_misses, b.dram_cache_misses);
  }
}

TEST(TimingIdentity, TimedReplaySplitsAcrossBatchesConsistently) {
  // DRAM window state carries across replay() calls through the modeled
  // clock: one big batch and two half batches must agree exactly.
  const HierarchyConfig cfg = timed_hw();
  const RecordedTrace t = adversarial_trace(40000, 0x5EEDull);
  CacheHierarchy one(cfg, 3);
  CacheHierarchy two(cfg, 3);
  const std::uint64_t total_one =
      one.replay(t.refs.data(), t.classes.data(), t.refs.size());
  const std::size_t half = t.refs.size() / 2;
  const std::uint64_t total_two =
      two.replay(t.refs.data(), t.classes.data(), half) +
      two.replay(t.refs.data() + half, t.classes.data() + half,
                 t.refs.size() - half);
  EXPECT_EQ(total_one, total_two);
  EXPECT_EQ(one.clock_cycles(), two.clock_cycles());
  for (ClassId c = 0; c < 3; ++c)
    EXPECT_EQ(one.cycles(c).cycles, two.cycles(c).cycles);
}

// --- DRAM-cache tier -------------------------------------------------------

TEST(DramCacheTier, AbsorbsLlcMissesAndShortensThem) {
  HierarchyConfig cfg = timed_hw();
  const RecordedTrace t = adversarial_trace(60000, 0xD1CEull);
  CacheHierarchy hw(cfg, 3);
  hw.replay(t.refs.data(), t.classes.data(), t.refs.size());
  const CycleBreakdown total = hw.total_cycles();
  // The cold 4 MB sweep overflows the 1 MB LLC but fits the 4 MB tier:
  // both hits and misses must occur, and hits bypass main DRAM entirely.
  EXPECT_GT(total.dram_cache_hits, 0u);
  EXPECT_GT(total.dram_cache_misses, 0u);
  EXPECT_GT(total.get(CycleLevel::kDramCache), 0u);
  // Main-DRAM base cycles correspond to tier *misses* only.
  const CounterSnapshot c0 = hw.counters(0);
  const CounterSnapshot c1 = hw.counters(1);
  const CounterSnapshot c2 = hw.counters(2);
  const std::uint64_t mem_accesses =
      c0.get(Counter::kMemReads) + c0.get(Counter::kMemWrites) +
      c1.get(Counter::kMemReads) + c1.get(Counter::kMemWrites) +
      c2.get(Counter::kMemReads) + c2.get(Counter::kMemWrites);
  EXPECT_EQ(total.dram_cache_hits + total.dram_cache_misses, mem_accesses);
  EXPECT_TRUE(hw.has_dram_cache());
}

TEST(DramCacheTier, HitIsCheaperThanMainDram) {
  HierarchyConfig cfg = timed_hw();
  // Quiet channels: isolate base latencies.
  cfg.timing.dram.bandwidth_bytes_per_cycle = 0.0;
  cfg.timing.dram_cache->dram.bandwidth_bytes_per_cycle = 0.0;
  CacheHierarchy hw(cfg, 1);
  const MemoryAccess ref{0x100000, AccessType::kLoad};
  const std::uint32_t cold = hw.access(0, ref);  // miss everywhere
  // Evict from L1/L2/LLC by sweeping their sets, keeping the tier resident.
  for (std::uint64_t i = 1; i <= 40000; ++i)
    hw.access(0, {0x100000 + i * 64, AccessType::kLoad});
  const CycleBreakdown before = hw.cycles(0);
  const std::uint32_t warm = hw.access(0, ref);
  const CycleBreakdown after = hw.cycles(0);
  if (after.dram_cache_hits == before.dram_cache_hits + 1) {
    // Tier hit: stacked base (60) instead of main DRAM (200).
    EXPECT_LT(warm, cold);
  }
}

// --- reset / accumulate audit ---------------------------------------------

TEST(TimingReset, ResetClearsCyclesClockAndDramWindows) {
  const HierarchyConfig cfg = timed_hw();
  const RecordedTrace t = adversarial_trace(30000, 0xFACEull);
  CacheHierarchy hw(cfg, 3);
  hw.replay(t.refs.data(), t.classes.data(), t.refs.size());
  ASSERT_GT(hw.total_cycles().total(), 0u);
  hw.reset();
  EXPECT_EQ(hw.clock_cycles(), 0u);
  EXPECT_EQ(hw.total_cycles().total(), 0u);
  EXPECT_EQ(hw.total_cycles().accesses, 0u);
  EXPECT_EQ(hw.dram_model().total_queue_cycles(), 0u);
  // A reset hierarchy must reproduce a fresh one exactly — including DRAM
  // window state and the stacked tier's contents.
  CacheHierarchy fresh(cfg, 3);
  const std::uint64_t replayed =
      hw.replay(t.refs.data(), t.classes.data(), t.refs.size());
  const std::uint64_t fresh_total =
      fresh.replay(t.refs.data(), t.classes.data(), t.refs.size());
  EXPECT_EQ(replayed, fresh_total);
  for (ClassId c = 0; c < 3; ++c) {
    EXPECT_EQ(hw.counters(c).values, fresh.counters(c).values);
    EXPECT_EQ(hw.cycles(c).cycles, fresh.cycles(c).cycles);
  }
}

TEST(TimingReset, CycleBreakdownMergeAccumulates) {
  CycleBreakdown a;
  a.bump(CycleLevel::kL1d, 10);
  a.accesses = 4;
  a.dram_cache_hits = 1;
  CycleBreakdown b;
  b.bump(CycleLevel::kL1d, 5);
  b.bump(CycleLevel::kDramQueue, 7);
  b.accesses = 2;
  b.dram_cache_misses = 3;
  a.merge(b);
  EXPECT_EQ(a.get(CycleLevel::kL1d), 15u);
  EXPECT_EQ(a.get(CycleLevel::kDramQueue), 7u);
  EXPECT_EQ(a.accesses, 6u);
  EXPECT_EQ(a.dram_cache_hits, 1u);
  EXPECT_EQ(a.dram_cache_misses, 3u);
  EXPECT_EQ(a.total(), 22u);
  EXPECT_DOUBLE_EQ(a.cycles_per_access(), 22.0 / 6.0);
}

TEST(TimingReset, CycleLevelNamesAreStable) {
  EXPECT_EQ(cycle_level_name(CycleLevel::kL1d), "l1d");
  EXPECT_EQ(cycle_level_name(CycleLevel::kDramCache), "dram_cache");
  EXPECT_EQ(cycle_level_name(CycleLevel::kDramQueue), "dram_queue");
}

// --- obs export ------------------------------------------------------------

TEST(TimingObs, PublishCycleMetricsExportsGauges) {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  const HierarchyConfig cfg = timed_hw();
  const RecordedTrace t = adversarial_trace(20000, 0xB0B0ull);
  CacheHierarchy hw(cfg, 3);
  hw.replay(t.refs.data(), t.classes.data(), t.refs.size());
  hw.publish_cycle_metrics();
  auto& reg = obs::MetricsRegistry::global();
  const CycleBreakdown total = hw.total_cycles();
  EXPECT_EQ(reg.gauge_value("cachesim.cycles.total"),
            static_cast<double>(total.total()));
  EXPECT_EQ(reg.gauge_value("cachesim.cycles.l1d"),
            static_cast<double>(total.get(CycleLevel::kL1d)));
  EXPECT_EQ(reg.gauge_value("cachesim.cycles.dram_queue"),
            static_cast<double>(total.get(CycleLevel::kDramQueue)));
  EXPECT_EQ(reg.gauge_value("cachesim.dram_cache.hits"),
            static_cast<double>(total.dram_cache_hits));
  obs::set_enabled(false);
  obs::MetricsRegistry::global().reset();
}

TEST(TimingObs, InconsistentConfigBumpsWarningCounter) {
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  HierarchyConfig cfg = flat_hw();
  cfg.timing.dram.base_latency_cycles = 150;  // disagrees with 200
  ASSERT_EQ(cfg.timing_warnings().size(), 1u);
  CacheHierarchy hw(cfg, 1);
  EXPECT_EQ(obs::MetricsRegistry::global().counter_value(
                "cachesim.timing_warning"),
            1u);
  // The explicit base wins as the zero-contention latency.
  EXPECT_EQ(hw.access(0, {0x40, AccessType::kLoad}), 4u + 12u + 40u + 150u);
  obs::set_enabled(false);
  obs::MetricsRegistry::global().reset();
}

}  // namespace
}  // namespace stac::cachesim

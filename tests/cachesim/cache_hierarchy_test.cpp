#include "cachesim/cache_hierarchy.hpp"

#include <gtest/gtest.h>

#include "cachesim/cache_config.hpp"
#include "common/check.hpp"

namespace stac::cachesim {
namespace {

HierarchyConfig small_hw() {
  HierarchyConfig c;
  c.l1d = {8 * 1024, 8, 64, 4};    // 16 sets
  c.l1i = {8 * 1024, 8, 64, 4};
  c.l2 = {64 * 1024, 16, 64, 12};  // 64 sets
  c.llc = {1024 * 1024, 8, 64, 40};  // 2048 sets
  c.memory_latency_cycles = 200;
  return c;
}

TEST(CacheHierarchy, FirstAccessMissesEverywhere) {
  CacheHierarchy hw(small_hw(), 2);
  const auto latency = hw.access(0, {0x1000, AccessType::kLoad});
  // L1 + L2 + LLC + memory latencies all paid.
  EXPECT_EQ(latency, 4u + 12u + 40u + 200u);
  const auto c = hw.counters(0);
  EXPECT_EQ(c.get(Counter::kL1dLoads), 1u);
  EXPECT_EQ(c.get(Counter::kL1dLoadMisses), 1u);
  EXPECT_EQ(c.get(Counter::kL2LoadMisses), 1u);
  EXPECT_EQ(c.get(Counter::kLlcLoadMisses), 1u);
  EXPECT_EQ(c.get(Counter::kMemReads), 1u);
}

TEST(CacheHierarchy, SecondAccessHitsL1) {
  CacheHierarchy hw(small_hw(), 2);
  hw.access(0, {0x1000, AccessType::kLoad});
  const auto latency = hw.access(0, {0x1000, AccessType::kLoad});
  EXPECT_EQ(latency, 4u);
}

TEST(CacheHierarchy, StoresCountSeparately) {
  CacheHierarchy hw(small_hw(), 1);
  hw.access(0, {0x2000, AccessType::kStore});
  const auto c = hw.counters(0);
  EXPECT_EQ(c.get(Counter::kL1dStores), 1u);
  EXPECT_EQ(c.get(Counter::kL1dStoreMisses), 1u);
  EXPECT_EQ(c.get(Counter::kMemWrites), 1u);
  EXPECT_EQ(c.get(Counter::kL1dLoads), 0u);
}

TEST(CacheHierarchy, IfetchUsesL1i) {
  CacheHierarchy hw(small_hw(), 1);
  hw.access(0, {0x3000, AccessType::kIfetch});
  const auto c = hw.counters(0);
  EXPECT_EQ(c.get(Counter::kL1iLoads), 1u);
  EXPECT_EQ(c.get(Counter::kL1iLoadMisses), 1u);
  EXPECT_EQ(c.get(Counter::kL1dLoads), 0u);
}

TEST(CacheHierarchy, PrivateL1L2SharedLlc) {
  CacheHierarchy hw(small_hw(), 2);
  hw.access(0, {0x1000, AccessType::kLoad});
  // Class 1 accessing the same address: private L1/L2 miss, but the LLC is
  // shared so the line is already there.
  const auto latency = hw.access(1, {0x1000, AccessType::kLoad});
  EXPECT_EQ(latency, 4u + 12u + 40u);
  const auto c1 = hw.counters(1);
  EXPECT_EQ(c1.get(Counter::kLlcLoadMisses), 0u);
  EXPECT_EQ(c1.get(Counter::kL1dLoadMisses), 1u);
}

TEST(CacheHierarchy, LlcMaskRestrictsFootprint) {
  CacheHierarchy hw(small_hw(), 2);
  hw.set_llc_fill_mask(0, 0b0001);  // one way only
  // Touch a lot of lines; LLC occupancy of class 0 is bounded by sets*1.
  for (std::uint64_t i = 0; i < 10000; ++i)
    hw.access(0, {i * 64, AccessType::kLoad});
  EXPECT_LE(hw.llc_occupancy(0), hw.config().llc.sets());
}

TEST(CacheHierarchy, MaskSwitchTakesEffect) {
  CacheHierarchy hw(small_hw(), 1);
  hw.set_llc_fill_mask(0, 0b0001);
  EXPECT_EQ(hw.llc_fill_mask(0), 0b0001u);
  hw.set_llc_fill_mask(0, 0b0111);
  EXPECT_EQ(hw.llc_fill_mask(0), 0b0111u);
}

TEST(CacheHierarchy, ResetClearsCountersAndContents) {
  CacheHierarchy hw(small_hw(), 1);
  hw.access(0, {0x1000, AccessType::kLoad});
  hw.retire_instructions(0, 100);
  hw.reset();
  const auto c = hw.counters(0);
  EXPECT_EQ(c.get(Counter::kL1dLoads), 0u);
  EXPECT_EQ(c.get(Counter::kInstructions), 0u);
  // Line is gone: full latency again.
  EXPECT_EQ(hw.access(0, {0x1000, AccessType::kLoad}), 4u + 12u + 40u + 200u);
}

TEST(CacheHierarchy, IpcGaugeComputed) {
  CacheHierarchy hw(small_hw(), 1);
  hw.retire_instructions(0, 1000);
  const auto c = hw.counters(0);
  EXPECT_EQ(c.get(Counter::kIpcX1000), 1000u);  // 1.0 IPC, no stalls
  hw.access(0, {0x5000, AccessType::kLoad});    // adds stall cycles
  const auto c2 = hw.counters(0);
  EXPECT_LT(c2.get(Counter::kIpcX1000), 1000u);
}

TEST(CacheHierarchy, OccupancyGaugeReflectsLlc) {
  CacheHierarchy hw(small_hw(), 2);
  for (std::uint64_t i = 0; i < 100; ++i)
    hw.access(0, {i * 64, AccessType::kLoad});
  const auto c = hw.counters(0);
  EXPECT_EQ(c.get(Counter::kLlcOccupancyLines), 100u);
}

TEST(CacheHierarchy, InvalidClassThrows) {
  CacheHierarchy hw(small_hw(), 2);
  EXPECT_THROW(hw.access(2, {0, AccessType::kLoad}), ContractViolation);
  EXPECT_THROW(hw.set_llc_fill_mask(5, 1), ContractViolation);
}

// --- replay() identity -----------------------------------------------------
//
// replay() promises to be equivalent to a per-reference access() loop:
// same latency sum, bit-identical counters, same LLC occupancy.  The
// batched loop mirrors access() bump-for-bump, and these replays are what
// hold the two implementations together (see cache_hierarchy.cpp).

struct RecordedTrace {
  std::vector<MemoryAccess> refs;
  std::vector<ClassId> classes;
};

// Adversarial mix: word-granular loop walks, random hot lines, cold lines
// that sweep past every level, all four access types (including prefetch),
// three classes with asymmetric CAT masks.
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
      addr = base + (seq[cls] += 8) % (4 * 1024);  // L1-resident walk
    } else if (pick < 8) {
      addr = base + next() % (32 * 1024);  // hot: L2 traffic
    } else {
      addr = base + next() % (4 * 1024 * 1024);  // cold: LLC + memory
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

// Drive one hierarchy per-access and an identically configured one through
// replay(); every observable must match bitwise.
void expect_replay_identical(const HierarchyConfig& cfg) {
  const RecordedTrace t = adversarial_trace(60000, 0xFEEDull);
  CacheHierarchy loop_hw(cfg, 3);
  CacheHierarchy replay_hw(cfg, 3);
  const WayMask full = loop_hw.llc().full_mask();
  const WayMask masks[3] = {full, full & 0x3F, full & 0x1};
  for (ClassId c = 0; c < 3; ++c) {
    loop_hw.set_llc_fill_mask(c, masks[c]);
    replay_hw.set_llc_fill_mask(c, masks[c]);
  }

  std::uint64_t loop_total = 0;
  for (std::size_t i = 0; i < t.refs.size(); ++i)
    loop_total += loop_hw.access(t.classes[i], t.refs[i]);
  const std::uint64_t replay_total =
      replay_hw.replay(t.refs.data(), t.classes.data(), t.refs.size());

  EXPECT_EQ(loop_total, replay_total);
  for (ClassId c = 0; c < 3; ++c) {
    EXPECT_EQ(loop_hw.counters(c).values, replay_hw.counters(c).values)
        << "class " << static_cast<int>(c);
    EXPECT_EQ(loop_hw.llc_occupancy(c), replay_hw.llc_occupancy(c));
  }
}

// Tiny sizes but 8/8/16/20 ways: takes the fully specialized replay body
// (the default-Xeon tuple) while keeping every miss path hot.
TEST(CacheHierarchyReplay, IdenticalOnSpecializedGeometry) {
  HierarchyConfig cfg;
  cfg.l1d = {4 * 1024, 8, 64, 4};     // 8 sets
  cfg.l1i = {4 * 1024, 8, 64, 4};
  cfg.l2 = {16 * 1024, 16, 64, 12};   // 16 sets
  cfg.llc = {160 * 1024, 20, 64, 40};  // 128 sets
  ASSERT_TRUE(cfg.valid());
  expect_replay_identical(cfg);
}

// small_hw way widths miss the specialized tuple: generic replay body.
TEST(CacheHierarchyReplay, IdenticalOnGenericSoaGeometry) {
  expect_replay_identical(small_hw());
}

TEST(CacheHierarchyReplay, EmptyTraceReturnsZero) {
  CacheHierarchy hw(small_hw(), 2);
  EXPECT_EQ(hw.replay(nullptr, nullptr, 0), 0u);
}

TEST(CacheHierarchyReplay, OutOfRangeClassThrows) {
  CacheHierarchy hw(small_hw(), 2);
  const MemoryAccess ref{0x1000, AccessType::kLoad};
  const ClassId bad = 7;
  EXPECT_THROW(hw.replay(&ref, &bad, 1), ContractViolation);
}

// All processor presets must have valid geometry and Fig. 7b's LLC sizes.
class PresetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PresetSweep, GeometryValidAndConstructible) {
  const auto& cfg = presets::all()[GetParam()];
  EXPECT_TRUE(cfg.valid()) << cfg.name;
  CacheHierarchy hw(cfg, 4);
  EXPECT_EQ(hw.config().llc.ways, cfg.llc.ways);
  // A line installed is a line found.
  hw.access(0, {0xABC0, AccessType::kLoad});
  EXPECT_LT(hw.access(0, {0xABC0, AccessType::kLoad}),
            cfg.memory_latency_cycles);
}

INSTANTIATE_TEST_SUITE_P(Presets, PresetSweep,
                         ::testing::Range<std::size_t>(0, 9));

TEST(Presets, LlcSizesMatchPaper) {
  EXPECT_EQ(presets::xeon_e5_2683().llc.size_bytes, 40u * 1024 * 1024);
  EXPECT_EQ(presets::xeon_e5_2683().llc.ways, 20u);
  EXPECT_EQ(presets::xeon_2620().llc.size_bytes, 20u * 1024 * 1024);
  EXPECT_EQ(presets::xeon_2650().llc.size_bytes, 30u * 1024 * 1024);
  EXPECT_EQ(presets::xeon_platinum_8275_72mb().llc.size_bytes,
            72u * 1024 * 1024);
}

}  // namespace
}  // namespace stac::cachesim

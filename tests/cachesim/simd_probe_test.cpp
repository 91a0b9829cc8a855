// ISA identity oracles for the simd_probe kernels: every tier the build
// can target (scalar always, SSE2/AVX2 when compiled in) must produce the
// same masks and the same victim on the same lanes.  Inputs respect the
// kernel contracts the SoA layout guarantees — at most one valid match per
// set, pairwise-distinct ages, non-empty all-valid permitted masks — and
// sweep every dispatch width the cache presets use (4/8/11/12/16/20) so
// both the vector blocks and the scalar tails are exercised.  The last
// test replays a full trace through a CacheLevel built at each width as an
// end-to-end guard that the kernel swap changed nothing observable.
#include "cachesim/simd_probe.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "cachesim/cache_level.hpp"
#include "common/rng.hpp"
#include "reference_lru.hpp"

namespace stac::cachesim {
namespace {

constexpr std::uint64_t kValidBit = std::uint64_t{1} << 63;
constexpr std::size_t kWidths[] = {4, 8, 11, 12, 16, 20};

/// One synthetic key lane: a random valid/invalid pattern with at most one
/// way holding the probe key (the SoA invariant: installs happen on miss).
std::vector<std::uint64_t> make_lane(Rng& rng, std::size_t ways,
                                     std::uint64_t probe_tag,
                                     bool plant_match) {
  std::vector<std::uint64_t> keys(ways);
  for (std::size_t w = 0; w < ways; ++w) {
    // Distinct tags != probe_tag; ~1/4 of ways invalid.
    const std::uint64_t tag = probe_tag + 1 + w;
    keys[w] = rng.bernoulli(0.25) ? tag : (tag | kValidBit);
  }
  if (plant_match)
    keys[rng.uniform_index(ways)] = probe_tag | kValidBit;
  return keys;
}

TEST(SimdProbe, AllCompiledTiersMatchScalarOnProbe) {
  Rng rng(2024);
  for (const std::size_t ways : kWidths) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::uint64_t probe_tag = rng.next_u64() >> 6;  // tag fits 58 bits
      const std::uint64_t probe = probe_tag | kValidBit;
      const auto keys = make_lane(rng, ways, probe_tag, trial % 2 == 0);

      const simd::ProbeMasks ref =
          simd::probe_sweep_scalar(keys.data(), ways, probe);
      // At most one match, and match implies valid.
      ASSERT_LE(std::popcount(ref.match), 1);
      ASSERT_EQ(ref.match & ~ref.valid, 0u);
#if defined(__SSE2__)
      const simd::ProbeMasks sse =
          simd::probe_sweep_sse2(keys.data(), ways, probe);
      ASSERT_EQ(sse.match, ref.match) << "sse2 match, ways=" << ways;
      ASSERT_EQ(sse.valid, ref.valid) << "sse2 valid, ways=" << ways;
#endif
#if defined(__AVX2__)
      const simd::ProbeMasks avx =
          simd::probe_sweep_avx2(keys.data(), ways, probe);
      ASSERT_EQ(avx.match, ref.match) << "avx2 match, ways=" << ways;
      ASSERT_EQ(avx.valid, ref.valid) << "avx2 valid, ways=" << ways;
#endif
      const simd::ProbeMasks best = simd::probe_sweep(keys.data(), ways, probe);
      ASSERT_EQ(best.match, ref.match);
      ASSERT_EQ(best.valid, ref.valid);
    }
  }
}

TEST(SimdProbe, AllCompiledTiersMatchScalarOnVictimScan) {
  Rng rng(7177);
  for (const std::size_t ways : kWidths) {
    // Distinct ages in random order (the set-clock invariant).
    std::vector<std::uint32_t> ages(ways);
    for (int trial = 0; trial < 200; ++trial) {
      std::iota(ages.begin(), ages.end(),
                static_cast<std::uint32_t>(rng.uniform_index(1u << 20)));
      rng.shuffle(ages);
      // Non-empty permitted mask within the way range.
      const std::uint32_t full =
          ways >= 32 ? ~0u : ((1u << ways) - 1u);
      std::uint32_t usable = static_cast<std::uint32_t>(rng.next_u64()) & full;
      if (usable == 0) usable = 1u << rng.uniform_index(ways);

      const std::size_t ref =
          simd::victim_scan_scalar(ages.data(), ways, usable);
      ASSERT_LT(ref, ways);
      ASSERT_NE((usable >> ref) & 1u, 0u);
#if defined(__AVX2__)
      ASSERT_EQ(simd::victim_scan_avx2(ages.data(), ways, usable), ref)
          << "avx2 victim, ways=" << ways << " usable=" << usable;
#endif
      ASSERT_EQ(simd::victim_scan(ages.data(), ways, usable), ref);
    }
  }
}

TEST(SimdProbe, IsaNameMatchesCompileTimeDispatch) {
  const std::string isa = simd::isa_name();
#if defined(__AVX2__)
  EXPECT_EQ(isa, "avx2");
#elif defined(__SSE2__)
  EXPECT_EQ(isa, "sse2");
#else
  EXPECT_EQ(isa, "scalar");
#endif
}

TEST(SimdProbe, CacheLevelTraceIdenticalAcrossLayouts) {
  // End-to-end: the SoA level (SIMD kernels) vs the test-only recency-list
  // LRU model (reference_lru.hpp) on one adversarial trace — aliasing tags,
  // rotating fill masks, multiple classes — at every dispatch width.
  // Catches any divergence the unit oracles might miss.
  for (const std::size_t ways : kWidths) {
    constexpr std::size_t kSets = 16;
    LevelConfig cfg;
    cfg.size_bytes = kSets * ways * 64;  // line_bytes = 64 => 16 sets
    cfg.ways = ways;
    ASSERT_TRUE(cfg.valid());
    CacheLevel soa(cfg);
    reference::LruLevel ref(cfg);

    Rng rng(99 + ways);
    const WayMask full = soa.full_mask();
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t line = rng.uniform_index(kSets * ways * 3);
      WayMask mask = static_cast<WayMask>(rng.next_u64()) & full;
      if (i % 7 == 0) mask = full;
      const auto cls = static_cast<ClassId>(rng.uniform_index(3));
      const AccessResult a = soa.access(line, mask, cls);
      const AccessResult want = ref.access(line, mask, cls);
      ASSERT_EQ(a.hit, want.hit) << "ways=" << ways << " i=" << i;
      ASSERT_EQ(a.evicted, want.evicted) << "ways=" << ways << " i=" << i;
      ASSERT_EQ(a.evicted_class, want.evicted_class)
          << "ways=" << ways << " i=" << i;
      ASSERT_EQ(a.hit_outside_mask, want.hit_outside_mask)
          << "ways=" << ways << " i=" << i;
    }
    for (ClassId c = 0; c < 3; ++c)
      EXPECT_EQ(soa.occupancy(c), ref.occupancy(c)) << "ways=" << ways;
  }
}

}  // namespace
}  // namespace stac::cachesim

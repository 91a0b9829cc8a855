// One set-associative cache level with CAT-style fill-way masking.
//
// CAT semantics (Intel SDM vol. 3, §17.19), reproduced faithfully:
//   * A class of service (CLOS) carries a capacity bitmask over LLC ways.
//   * The mask restricts *fills* (which ways a miss may install/evict into).
//   * Lookups hit in ANY way — a line installed while a workload was boosted
//     keeps serving hits after the boost is revoked, until evicted.
// Replacement is LRU within the permitted ways; invalid ways are preferred.
//
// Storage is structure-of-arrays (DESIGN.md §10): per-set lanes — a packed
// 64-bit key lane holding tag | valid, owner ids, and 32-bit per-set age
// counters (with rank renormalization on wrap).  The tag probe touches
// only the key lane and accumulates one compare per way into a match mask
// (branchless, unrolled); victim selection is a countr_zero on the invalid
// mask or a strided min-age sweep.  Every decision is checked access by
// access against a test-only recency-list LRU model
// (tests/cachesim/reference_lru.hpp).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "cachesim/cache_config.hpp"
#include "cachesim/simd_probe.hpp"
#include "common/check.hpp"

namespace stac::cachesim {

/// Fill-permission bitmask over ways (bit i => way i may be filled).
using WayMask = std::uint32_t;

/// Workload class id (maps to a CAT class of service).
using ClassId = std::uint16_t;
inline constexpr ClassId kNoClass = 0xFFFF;

/// Result of one cache access at one level.
struct AccessResult {
  bool hit = false;
  /// Valid line was evicted to make room (miss path only).
  bool evicted = false;
  /// Class that owned the evicted line (kNoClass if none).
  ClassId evicted_class = kNoClass;
  /// The hit was served from a way *outside* the accessor's current fill
  /// mask — i.e. a short-term-allocation residual benefit.
  bool hit_outside_mask = false;
};

class CacheLevel {
 public:
  explicit CacheLevel(const LevelConfig& config);

  /// Look up `line_addr` (address already divided by line size).  On miss,
  /// installs the line into a way permitted by `fill_mask`, evicting LRU.
  /// If `fill_mask` has no bits within the way range, the access bypasses
  /// the cache (counts as a miss, installs nothing).
  ///
  /// Defined inline (with the body below) so per-reference callers — the
  /// hierarchy and trace replays — pay no call/dispatch overhead on the
  /// hot path.
  AccessResult access(std::uint64_t line_addr, WayMask fill_mask,
                      ClassId class_id) {
    // Fixed-width bodies for the way counts the presets use, so the
    // per-way loops unroll into straight-line compare/select code; the
    // W = 0 body is the generic runtime-count fallback.
    switch (config_.ways) {
      case 4: return access_soa_impl<4>(line_addr, fill_mask, class_id);
      case 8: return access_soa_impl<8>(line_addr, fill_mask, class_id);
      case 11: return access_soa_impl<11>(line_addr, fill_mask, class_id);
      case 12: return access_soa_impl<12>(line_addr, fill_mask, class_id);
      case 16: return access_soa_impl<16>(line_addr, fill_mask, class_id);
      case 20: return access_soa_impl<20>(line_addr, fill_mask, class_id);
      default: return access_soa_impl<0>(line_addr, fill_mask, class_id);
    }
  }

  /// Probe without side effects.
  [[nodiscard]] bool contains(std::uint64_t line_addr) const;

  /// Lines currently owned by `class_id` (CAT occupancy monitoring, CMT).
  [[nodiscard]] std::size_t occupancy(ClassId class_id) const;

  /// Invalidate everything (testbed reset between experiments).
  void flush();
  /// Invalidate only lines owned by `class_id`.
  void flush_class(ClassId class_id);

  [[nodiscard]] const LevelConfig& config() const { return config_; }
  [[nodiscard]] std::size_t sets() const { return sets_; }

  /// Full mask covering all ways of this level.
  [[nodiscard]] WayMask full_mask() const {
    return config_.ways >= 32 ? ~WayMask{0}
                              : ((WayMask{1} << config_.ways) - 1);
  }

 private:
  /// CacheHierarchy::replay() dispatches on the way widths once per batch
  /// and then drives access_soa_impl<W> directly, skipping the per-access
  /// width dispatch in access().
  friend class CacheHierarchy;

  /// W = compile-time way count (0 = generic runtime loop).  The fixed
  /// widths let the probe and age scans fully unroll into straight-line
  /// compare/select code — the "branch-light strided sweep".  Defined
  /// inline below the class; always_inline because the per-access call
  /// (prologue + struct return + dispatch) otherwise costs as much as the
  /// probe itself, and GCC's size heuristic refuses on its own.
  template <std::size_t W>
  [[gnu::always_inline]] inline AccessResult access_soa_impl(
      std::uint64_t line_addr, WayMask fill_mask, ClassId class_id);
  /// Advance the set's age clock; on wrap, rank-compress the set's ages
  /// (relative order preserved, so replacement decisions are unaffected).
  std::uint32_t bump_set_clock(std::size_t set) {
    std::uint32_t& c = set_clock_[set];
    // Renormalize one tick before the ceiling: no real age ever equals
    // UINT32_MAX, which the masked victim scan uses as its "not
    // permitted" sentinel.
    if (c >= std::numeric_limits<std::uint32_t>::max() - 1) [[unlikely]]
      renormalize_set_ages(set);
    return ++c;
  }
  /// Cold path of bump_set_clock (out of line in the .cpp).
  void renormalize_set_ages(std::size_t set);

  // Occupancy bookkeeping (inline: it sits on the install path of every
  // simulated miss).  Eviction *requires* the books
  // to balance: every valid line with a real owner was installed through
  // note_install, so its class slot exists and is nonzero.
  void note_eviction(ClassId owner, AccessResult& result) {
    result.evicted = true;
    result.evicted_class = owner;
    if (owner != kNoClass) {
      // Tight invariant: a valid owned line always has a live occupancy
      // slot (note_install created/extended it), so a shortfall here is a
      // bookkeeping bug, not a condition to paper over.
      STAC_ENSURE(owner < occupancy_.size());
      STAC_ENSURE(occupancy_[owner] > 0);
      --occupancy_[owner];
    }
  }
  void note_install(ClassId class_id) {
    if (class_id == kNoClass) return;
    if (class_id >= occupancy_.size()) [[unlikely]]
      occupancy_.resize(class_id + 1, 0);
    ++occupancy_[class_id];
  }

  [[nodiscard]] std::size_t set_index(std::uint64_t line_addr) const {
    return static_cast<std::size_t>(line_addr) & set_mask_;
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t line_addr) const {
    return line_addr >> set_bits_;
  }

  LevelConfig config_;
  std::size_t sets_ = 0;
  std::size_t set_bits_ = 0;
  std::size_t set_mask_ = 0;
  // Lanes, row-major per set.  The probe touches exactly one lane: keys_
  // packs tag | kValidBit, which is lossless (a line tag uses at most 58
  // bits) and makes the probe a single equality against tag | kValidBit —
  // invalid ways can never match.  Valid lives in the sign bit so the SIMD
  // sweeps (simd_probe.hpp: 4-wide AVX2 / 2-wide SSE2) read the whole
  // set's valid mask with sign-bit movemasks.
  static constexpr std::uint64_t kValidBit = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ages_;      // hit-update / victim-scan lane
  std::vector<ClassId> owners_;          // install/evict bookkeeping lane
  std::vector<std::uint32_t> set_clock_; // one age clock per set
  std::vector<std::uint8_t> mru_;        // way-prediction hint per set
  std::vector<std::size_t> occupancy_;
};

template <std::size_t W>
AccessResult CacheLevel::access_soa_impl(std::uint64_t line_addr,
                                         WayMask fill_mask, ClassId class_id) {
  AccessResult result;
  const std::size_t set = set_index(line_addr);
  const std::uint64_t tag = tag_of(line_addr);
  const std::size_t ways = W != 0 ? W : config_.ways;
  const std::size_t base = set * ways;

  // Branch-light strided probe over the packed key lane: one compare per
  // way folded into a match mask (unrolled, no per-way branch), then a
  // single test.  The probe key carries the valid bit, so invalid ways can
  // never match, and a set never holds two valid ways with the same tag
  // (installs happen only on miss) — the lowest match bit is the only one.
  std::uint64_t* keys = keys_.data() + base;
  const std::uint64_t probe = tag | kValidBit;

  // Way prediction: probe the set's most-recently-touched way first.  A
  // set holds at most one match, so a predicted hit needs one compare
  // instead of the full sweep; temporal locality makes this the common
  // case on real traces.  Pure probe-order hint — results are identical.
  const std::size_t mru = mru_[set];
  if (keys[mru] == probe) {
    ages_[base + mru] = bump_set_clock(set);
    result.hit = true;
    result.hit_outside_mask = ((fill_mask >> mru) & 1u) == 0;
    return result;
  }

  // One branch-light sweep of the key lane produces both the match mask
  // and the valid mask (valid is the key's sign bit).  The kernel lives in
  // simd_probe.hpp: AVX2 compares 4 ways per step, SSE2 2, scalar 1 —
  // widest available picked at compile time, all tiers bit-identical
  // (tests/cachesim/simd_probe_test.cpp).
  const simd::ProbeMasks probe_masks = simd::probe_sweep(keys, ways, probe);
  const std::uint32_t match = probe_masks.match;
  const std::uint32_t vmask = probe_masks.valid;
  if (match != 0) {
    const auto w = static_cast<std::size_t>(std::countr_zero(match));
    ages_[base + w] = bump_set_clock(set);
    mru_[set] = static_cast<std::uint8_t>(w);
    result.hit = true;
    result.hit_outside_mask = ((fill_mask >> w) & 1u) == 0;
    return result;
  }

  const WayMask usable = fill_mask & full_mask();
  if (usable == 0) return result;  // bypass: nothing to fill into

  // Invalid permitted ways first (lowest index), else the strict-min age
  // among permitted ways.  Ages within a set are distinct (each comes from
  // a fresh clock tick), so the minimum — the least recently used
  // permitted way — is unique.  The scan
  // kernel (simd_probe.hpp) reads excluded ways as "infinitely young"
  // instead of branching around them; AVX2 blends + min-reduces 8 ages
  // per step, narrower builds run the scalar reference loop.
  const std::uint32_t invalid = usable & ~vmask;
  const std::size_t victim =
      invalid != 0
          ? static_cast<std::size_t>(std::countr_zero(invalid))
          : simd::victim_scan(ages_.data() + base, ways, usable);
  STAC_ENSURE(victim < ways);

  if (((vmask >> victim) & 1u) != 0)
    note_eviction(owners_[base + victim], result);
  keys[victim] = probe;
  owners_[base + victim] = class_id;
  ages_[base + victim] = bump_set_clock(set);
  mru_[set] = static_cast<std::uint8_t>(victim);
  note_install(class_id);
  return result;
}

}  // namespace stac::cachesim

#include "cachesim/cache_hierarchy.hpp"

#include <bit>
#include <cstdio>
#include <string>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace stac::cachesim {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config,
                               std::size_t max_classes)
    : config_(config), llc_(config.llc) {
  STAC_REQUIRE(config.valid());
  STAC_REQUIRE(max_classes >= 1);
  line_pow2_ = std::has_single_bit(config.l1d.line_bytes);
  if (line_pow2_)
    line_shift_ =
        static_cast<std::uint32_t>(std::countr_zero(config.l1d.line_bytes));
  l1d_.reserve(max_classes);
  l1i_.reserve(max_classes);
  l2_.reserve(max_classes);
  for (std::size_t i = 0; i < max_classes; ++i) {
    l1d_.emplace_back(config.l1d);
    l1i_.emplace_back(config.l1i);
    l2_.emplace_back(config.l2);
  }
  llc_masks_.assign(max_classes, llc_.full_mask());
  counters_.assign(max_classes, CounterSnapshot{});
  cycles_.assign(max_classes, CycleBreakdown{});

  // Resolve the timing spec (DESIGN.md §16).  With the default spec every
  // model collapses to the legacy scalars: flat per-level latencies and a
  // constant-latency DRAM inheriting `memory_latency_cycles`.
  l1d_perf_ = memtime::CachePerfModel(config.l1d_perf());
  l1i_perf_ = memtime::CachePerfModel(config.l1i_perf());
  l2_perf_ = memtime::CachePerfModel(config.l2_perf());
  llc_perf_ = memtime::CachePerfModel(config.llc_perf());
  dram_ = memtime::DramPerfModel(config.timing.dram,
                                 config.memory_latency_cycles);
  if (config.timing.dram_cache.has_value()) {
    const memtime::DramCacheSpec& dc = *config.timing.dram_cache;
    // Line addresses are computed once against the L1 line size; a stacked
    // tier with a different line would index the wrong sets.
    STAC_REQUIRE(dc.geometry.line_bytes == config.l1d.line_bytes);
    LevelConfig dc_cfg;
    dc_cfg.size_bytes = dc.geometry.size_bytes;
    dc_cfg.ways = dc.geometry.ways;
    dc_cfg.line_bytes = dc.geometry.line_bytes;
    dc_cfg.latency_cycles = 0;  // timing comes from dram_cache_perf_
    dram_cache_.emplace(dc_cfg);
    dram_cache_perf_ = memtime::CachePerfModel(dc.perf);
    dram_cache_dram_ =
        memtime::DramPerfModel(dc.dram, config.memory_latency_cycles);
  }
  mem_flat_ = !dram_cache_.has_value() && !dram_.queue_enabled();

  for (const std::string& w : config.timing_warnings()) {
    obs::count("cachesim.timing_warning");
    std::fprintf(stderr, "[cachesim] config warning: %s\n", w.c_str());
  }
}

void CacheHierarchy::set_llc_fill_mask(ClassId class_id, WayMask mask) {
  STAC_REQUIRE(class_id < llc_masks_.size());
  llc_masks_[class_id] = mask & llc_.full_mask();
}

WayMask CacheHierarchy::llc_fill_mask(ClassId class_id) const {
  STAC_REQUIRE(class_id < llc_masks_.size());
  return llc_masks_[class_id];
}

// Memory-side time past the LLC.  `now` is the modeled clock at the start
// of the access (the caller advances the clock afterwards); both accounting
// paths pass it the same way, which is what keeps access() and replay()
// bit-identical.  Inline: every call site is in this TU.
[[gnu::always_inline]] inline std::uint32_t CacheHierarchy::memory_side(
    std::uint64_t line, ClassId class_id, std::uint64_t now, Counter mem_ctr,
    CounterSnapshot& ctr, CycleBreakdown& cyc) {
  ctr.bump(mem_ctr);
  ctr.bump(Counter::kMemBandwidthBytes, config_.llc.line_bytes);
  const auto bytes = static_cast<std::uint32_t>(config_.llc.line_bytes);
  std::uint32_t mem = 0;
  if (dram_cache_.has_value()) {
    const AccessResult rc =
        dram_cache_->access(line, dram_cache_->full_mask(), class_id);
    if (rc.hit) {
      // Tag check plus the stacked channel's row fetch; main DRAM untouched.
      const memtime::DramAccessTime t = dram_cache_dram_.access(now, bytes);
      const std::uint32_t dc = dram_cache_perf_.hit_cycles() + t.total;
      cyc.bump(CycleLevel::kDramCache, dc);
      ++cyc.dram_cache_hits;
      ctr.bump(Counter::kStallCycles, dc);
      return dc;
    }
    mem += dram_cache_perf_.miss_cycles();
    cyc.bump(CycleLevel::kDramCache, dram_cache_perf_.miss_cycles());
    ++cyc.dram_cache_misses;
  }
  const memtime::DramAccessTime t = dram_.access(now, bytes);
  mem += t.total;
  cyc.bump(CycleLevel::kDramBase, t.total - t.queue);
  cyc.bump(CycleLevel::kDramQueue, t.queue);
  ctr.bump(Counter::kStallCycles, mem);
  return mem;
}

std::uint32_t CacheHierarchy::access(ClassId class_id,
                                     const MemoryAccess& ref) {
  STAC_REQUIRE(class_id < counters_.size());
  CounterSnapshot& ctr = counters_[class_id];
  CycleBreakdown& cyc = cycles_[class_id];
  const std::uint64_t line = line_pow2_
                                 ? ref.address >> line_shift_
                                 : ref.address / config_.l1d.line_bytes;
  const bool is_store = ref.type == AccessType::kStore;
  const bool is_ifetch = ref.type == AccessType::kIfetch;
  const bool is_prefetch = ref.type == AccessType::kPrefetch;

  ++cyc.accesses;
  std::uint32_t latency = 0;

  // --- L1 ---
  CacheLevel& l1 = is_ifetch ? l1i_[class_id] : l1d_[class_id];
  const memtime::CachePerfModel& l1_perf = is_ifetch ? l1i_perf_ : l1d_perf_;
  if (is_ifetch) {
    ctr.bump(Counter::kL1iLoads);
  } else if (is_store) {
    ctr.bump(Counter::kL1dStores);
  } else {
    ctr.bump(Counter::kL1dLoads);
  }
  const AccessResult r1 = l1.access(line, l1.full_mask(), class_id);
  const std::uint32_t c1 =
      r1.hit ? l1_perf.hit_cycles() : l1_perf.miss_cycles();
  cyc.bump(is_ifetch ? CycleLevel::kL1i : CycleLevel::kL1d, c1);
  latency += c1;
  if (r1.hit) {
    clock_cycles_ += latency;
    return latency;
  }
  if (is_ifetch) {
    ctr.bump(Counter::kL1iLoadMisses);
  } else if (is_store) {
    ctr.bump(Counter::kL1dStoreMisses);
  } else {
    ctr.bump(Counter::kL1dLoadMisses);
  }

  // --- L2 (unified, private) ---
  CacheLevel& l2 = l2_[class_id];
  ctr.bump(Counter::kL2Requests);
  if (is_prefetch) {
    ctr.bump(Counter::kL2Prefetches);
  } else if (is_store) {
    ctr.bump(Counter::kL2Stores);
  } else {
    ctr.bump(Counter::kL2Loads);
  }
  const AccessResult r2 = l2.access(line, l2.full_mask(), class_id);
  if (r2.evicted) ctr.bump(Counter::kL2Evictions);
  const std::uint32_t c2 =
      r2.hit ? l2_perf_.hit_cycles() : l2_perf_.miss_cycles();
  cyc.bump(CycleLevel::kL2, c2);
  latency += c2;
  if (r2.hit) {
    clock_cycles_ += latency;
    return latency;
  }
  if (is_prefetch) {
    ctr.bump(Counter::kL2PrefetchMisses);
  } else if (is_store) {
    ctr.bump(Counter::kL2StoreMisses);
  } else {
    ctr.bump(Counter::kL2LoadMisses);
  }

  // --- LLC (shared, CAT-masked fills) ---
  if (is_store) {
    ctr.bump(Counter::kLlcStores);
  } else {
    ctr.bump(Counter::kLlcLoads);
  }
  const WayMask mask = llc_masks_[class_id];
  const AccessResult r3 = llc_.access(line, mask, class_id);
  if (r3.evicted) ctr.bump(Counter::kLlcEvictions);
  const std::uint32_t c3 =
      r3.hit ? llc_perf_.hit_cycles() : llc_perf_.miss_cycles();
  cyc.bump(CycleLevel::kLlc, c3);
  latency += c3;
  if (r3.hit) {
    if (r3.hit_outside_mask) ctr.bump(Counter::kLlcSharedWayHits);
    clock_cycles_ += latency;
    return latency;
  }
  if (is_store) {
    ctr.bump(Counter::kLlcStoreMisses);
  } else {
    ctr.bump(Counter::kLlcLoadMisses);
  }
  // A fill into a way outside a *default-sized* single-workload partition is
  // tracked when the controller flags the class as boosted; approximated
  // here as: more than half the LLC ways are currently writable.
  if (std::popcount(mask) * 3 > static_cast<int>(config_.llc.ways))
    ctr.bump(Counter::kLlcBoostedFills);

  // --- memory (optional stacked tier, then DRAM) ---
  latency += memory_side(line, class_id, clock_cycles_,
                         is_store ? Counter::kMemWrites : Counter::kMemReads,
                         ctr, cyc);
  clock_cycles_ += latency;
  return latency;
}

namespace {
// Counter selection by access type (kLoad, kStore, kIfetch, kPrefetch) —
// the same classification access() makes with its is_store/is_ifetch/
// is_prefetch branch chains, folded into lookups so the replay loop stays
// branch-light on unpredictable type mixes.
constexpr Counter kL1AccCtr[4] = {Counter::kL1dLoads, Counter::kL1dStores,
                                  Counter::kL1iLoads, Counter::kL1dLoads};
constexpr Counter kL1MissCtr[4] = {
    Counter::kL1dLoadMisses, Counter::kL1dStoreMisses,
    Counter::kL1iLoadMisses, Counter::kL1dLoadMisses};
constexpr Counter kL2AccCtr[4] = {Counter::kL2Loads, Counter::kL2Stores,
                                  Counter::kL2Loads, Counter::kL2Prefetches};
constexpr Counter kL2MissCtr[4] = {
    Counter::kL2LoadMisses, Counter::kL2StoreMisses, Counter::kL2LoadMisses,
    Counter::kL2PrefetchMisses};
constexpr Counter kLlcAccCtr[4] = {Counter::kLlcLoads, Counter::kLlcStores,
                                   Counter::kLlcLoads, Counter::kLlcLoads};
constexpr Counter kLlcMissCtr[4] = {
    Counter::kLlcLoadMisses, Counter::kLlcStoreMisses, Counter::kLlcLoadMisses,
    Counter::kLlcLoadMisses};
constexpr Counter kMemCtr[4] = {Counter::kMemReads, Counter::kMemWrites,
                                Counter::kMemReads, Counter::kMemReads};
}  // namespace

template <std::size_t W>
[[gnu::always_inline]] inline AccessResult CacheHierarchy::probe_level(
    CacheLevel& level, std::uint64_t line, WayMask fill_mask,
    ClassId class_id) {
  if constexpr (W == 0) {
    return level.access(line, fill_mask, class_id);
  } else {
    return level.template access_soa_impl<W>(line, fill_mask, class_id);
  }
}

std::uint64_t CacheHierarchy::replay(const MemoryAccess* refs,
                                     const ClassId* classes, std::size_t n) {
  // Pick the loop instantiation once per batch: the default Xeon presets
  // all use 8/8/16/20 ways, so that tuple gets a fully specialized body
  // whose probes inline and unroll; any other geometry takes the generic
  // body driven through access().
  if (config_.l1d.ways == 8 && config_.l1i.ways == 8 &&
      config_.l2.ways == 16 && config_.llc.ways == 20) {
    return replay_fixed<8, 8, 16, 20>(refs, classes, n);
  }
  return replay_fixed<0, 0, 0, 0>(refs, classes, n);
}

template <std::size_t L1DW, std::size_t L1IW, std::size_t L2W,
          std::size_t LLCW>
std::uint64_t CacheHierarchy::replay_fixed(const MemoryAccess* refs,
                                           const ClassId* classes,
                                           std::size_t n) {
  // Mirrors access() bump-for-bump (any change there must be reflected
  // here; the replay identity test holds the two together).  The loop body
  // lives in one TU with the level probes, hoists the per-level hit/miss
  // charge latencies and L1/L2 fill masks, and classifies each reference
  // through the type tables above instead of a per-reference branch chain.
  const std::uint32_t l1d_hit = l1d_perf_.hit_cycles();
  const std::uint32_t l1d_miss = l1d_perf_.miss_cycles();
  const std::uint32_t l1i_hit = l1i_perf_.hit_cycles();
  const std::uint32_t l1i_miss = l1i_perf_.miss_cycles();
  const std::uint32_t l2_hit = l2_perf_.hit_cycles();
  const std::uint32_t l2_miss = l2_perf_.miss_cycles();
  const std::uint32_t llc_hit = llc_perf_.hit_cycles();
  const std::uint32_t llc_miss = llc_perf_.miss_cycles();
  // Flat memory side (no stacked tier, no queue model): charge one hoisted
  // scalar — exactly what memory_side() would compute — so the timing-off
  // replay keeps its pre-timing throughput.
  const bool mem_flat = mem_flat_;
  const std::uint32_t dram_flat = dram_.base_latency();
  // Hoisted into locals: the member vectors never reallocate during a
  // replay, but the level probes write through their data pointers, so
  // without the locals the compiler must re-derive size() (a 64-bit
  // divide) and the data pointers every iteration.
  const std::size_t nclasses = counters_.size();
  CounterSnapshot* const ctrs = counters_.data();
  CycleBreakdown* const cycs = cycles_.data();
  CacheLevel* const l1d = l1d_.data();
  CacheLevel* const l1i = l1i_.data();
  CacheLevel* const l2s = l2_.data();
  const WayMask* const masks = llc_masks_.data();
  // Validate the class column up front so the per-reference path carries no
  // bounds branch; the pre-pass is a trivially-predicted streaming scan.
  ClassId max_class = 0;
  for (std::size_t i = 0; i < n; ++i)
    max_class = classes[i] > max_class ? classes[i] : max_class;
  STAC_REQUIRE(n == 0 || max_class < nclasses);
  std::uint64_t total = 0;
  std::uint64_t clock = clock_cycles_;
  for (std::size_t i = 0; i < n; ++i) {
    const ClassId c = classes[i];
    const MemoryAccess ref = refs[i];
    const auto t = static_cast<std::size_t>(ref.type) & 3u;
    const std::uint64_t line = line_pow2_
                                   ? ref.address >> line_shift_
                                   : ref.address / config_.l1d.line_bytes;
    CounterSnapshot& ctr = ctrs[c];
    CycleBreakdown& cyc = cycs[c];
    const bool is_ifetch = ref.type == AccessType::kIfetch;

    ++cyc.accesses;
    ctr.bump(kL1AccCtr[t]);
    const AccessResult r1 =
        is_ifetch
            ? probe_level<L1IW>(l1i[c], line, l1i[c].full_mask(), c)
            : probe_level<L1DW>(l1d[c], line, l1d[c].full_mask(), c);
    const std::uint32_t c1 = r1.hit ? (is_ifetch ? l1i_hit : l1d_hit)
                                    : (is_ifetch ? l1i_miss : l1d_miss);
    cyc.bump(is_ifetch ? CycleLevel::kL1i : CycleLevel::kL1d, c1);
    std::uint32_t latency = c1;
    if (r1.hit) {
      total += latency;
      clock += latency;
      continue;
    }
    ctr.bump(kL1MissCtr[t]);

    CacheLevel& l2 = l2s[c];
    ctr.bump(Counter::kL2Requests);
    ctr.bump(kL2AccCtr[t]);
    const AccessResult r2 = probe_level<L2W>(l2, line, l2.full_mask(), c);
    if (r2.evicted) ctr.bump(Counter::kL2Evictions);
    const std::uint32_t c2 = r2.hit ? l2_hit : l2_miss;
    cyc.bump(CycleLevel::kL2, c2);
    latency += c2;
    if (r2.hit) {
      total += latency;
      clock += latency;
      continue;
    }
    ctr.bump(kL2MissCtr[t]);

    ctr.bump(kLlcAccCtr[t]);
    const WayMask mask = masks[c];
    const AccessResult r3 = probe_level<LLCW>(llc_, line, mask, c);
    if (r3.evicted) ctr.bump(Counter::kLlcEvictions);
    const std::uint32_t c3 = r3.hit ? llc_hit : llc_miss;
    cyc.bump(CycleLevel::kLlc, c3);
    latency += c3;
    if (r3.hit) {
      if (r3.hit_outside_mask) ctr.bump(Counter::kLlcSharedWayHits);
      total += latency;
      clock += latency;
      continue;
    }
    ctr.bump(kLlcMissCtr[t]);
    if (std::popcount(mask) * 3 > static_cast<int>(config_.llc.ways))
      ctr.bump(Counter::kLlcBoostedFills);

    if (mem_flat) {
      ctr.bump(kMemCtr[t]);
      ctr.bump(Counter::kMemBandwidthBytes, config_.llc.line_bytes);
      ctr.bump(Counter::kStallCycles, dram_flat);
      cyc.bump(CycleLevel::kDramBase, dram_flat);
      latency += dram_flat;
    } else {
      latency += memory_side(line, c, clock, kMemCtr[t], ctr, cyc);
    }
    total += latency;
    clock += latency;
  }
  clock_cycles_ = clock;
  return total;
}

void CacheHierarchy::retire_instructions(ClassId class_id, std::uint64_t n) {
  STAC_REQUIRE(class_id < counters_.size());
  CounterSnapshot& ctr = counters_[class_id];
  ctr.bump(Counter::kInstructions, n);
  ctr.bump(Counter::kCycles, n);  // 1 IPC baseline for non-memory work
  clock_cycles_ += n;             // non-memory work advances the model clock
}

CounterSnapshot CacheHierarchy::counters(ClassId class_id) const {
  STAC_REQUIRE(class_id < counters_.size());
  CounterSnapshot snap = counters_[class_id];
  snap.set(Counter::kLlcOccupancyLines, llc_.occupancy(class_id));
  const std::uint64_t cycles =
      snap.get(Counter::kCycles) + snap.get(Counter::kStallCycles);
  const std::uint64_t instr = snap.get(Counter::kInstructions);
  snap.set(Counter::kCycles, cycles);
  snap.set(Counter::kIpcX1000,
           cycles == 0 ? 0 : (instr * 1000) / cycles);
  return snap;
}

const CycleBreakdown& CacheHierarchy::cycles(ClassId class_id) const {
  STAC_REQUIRE(class_id < cycles_.size());
  return cycles_[class_id];
}

CycleBreakdown CacheHierarchy::total_cycles() const {
  CycleBreakdown out;
  for (const CycleBreakdown& c : cycles_) out.merge(c);
  return out;
}

void CacheHierarchy::publish_cycle_metrics() const {
  const CycleBreakdown total = total_cycles();
  for (std::size_t i = 0; i < kCycleLevelCount; ++i) {
    const auto level = static_cast<CycleLevel>(i);
    obs::set_gauge(std::string("cachesim.cycles.") +
                       std::string(cycle_level_name(level)),
                   static_cast<double>(total.cycles[i]));
  }
  obs::set_gauge("cachesim.cycles.total",
                 static_cast<double>(total.total()));
  obs::set_gauge("cachesim.cycles.accesses",
                 static_cast<double>(total.accesses));
  obs::set_gauge("cachesim.dram_cache.hits",
                 static_cast<double>(total.dram_cache_hits));
  obs::set_gauge("cachesim.dram_cache.misses",
                 static_cast<double>(total.dram_cache_misses));
  obs::set_gauge("cachesim.dram.queue_cycles_total",
                 static_cast<double>(dram_.total_queue_cycles()));
}

std::size_t CacheHierarchy::llc_occupancy(ClassId class_id) const {
  return llc_.occupancy(class_id);
}

void CacheHierarchy::reset() {
  for (auto& c : l1d_) c.flush();
  for (auto& c : l1i_) c.flush();
  for (auto& c : l2_) c.flush();
  llc_.flush();
  if (dram_cache_.has_value()) dram_cache_->flush();
  for (auto& c : counters_) c = CounterSnapshot{};
  for (auto& c : cycles_) c = CycleBreakdown{};
  clock_cycles_ = 0;
  dram_.reset();
  dram_cache_dram_.reset();
}

}  // namespace stac::cachesim

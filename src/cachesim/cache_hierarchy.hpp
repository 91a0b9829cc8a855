// The simulated processor package: per-workload-class private L1D/L1I/L2,
// one shared LLC under CAT fill-way masking, and per-class performance
// counters matching the 29 the paper samples.
//
// This is the "hardware" substituted for the paper's Xeon testbed: the
// profiler drives synthetic access streams through it to produce counter
// traces, and its hit/miss behaviour is the ground truth that the
// workload-level miss-ratio curves are calibrated against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cachesim/cache_config.hpp"
#include "cachesim/cache_level.hpp"
#include "cachesim/perf_counters.hpp"
#include "memtime/cache_perf_model.hpp"
#include "memtime/dram_perf_model.hpp"

namespace stac::cachesim {

enum class AccessType : std::uint8_t { kLoad, kStore, kIfetch, kPrefetch };

/// One memory reference produced by a workload model.
struct MemoryAccess {
  std::uint64_t address = 0;  ///< byte address
  AccessType type = AccessType::kLoad;
};

/// Abstract producer of memory references (implemented by workload models).
class AccessStream {
 public:
  virtual ~AccessStream() = default;
  /// Produce the next reference.
  virtual MemoryAccess next() = 0;
};

class CacheHierarchy {
 public:
  /// `max_classes` bounds how many collocated workload classes can attach.
  explicit CacheHierarchy(const HierarchyConfig& config,
                          std::size_t max_classes = 8);

  [[nodiscard]] const HierarchyConfig& config() const { return config_; }
  [[nodiscard]] std::size_t max_classes() const { return l1d_.size(); }

  /// Set the CAT fill mask used for `class_id`'s LLC fills.  Hits remain
  /// unrestricted.  (The cat::CatController calls this.)
  void set_llc_fill_mask(ClassId class_id, WayMask mask);
  [[nodiscard]] WayMask llc_fill_mask(ClassId class_id) const;

  /// Run one memory reference through the hierarchy for `class_id`.
  /// Returns the total latency in cycles, and updates the class's counters.
  std::uint32_t access(ClassId class_id, const MemoryAccess& ref);

  /// Replay a pre-recorded reference stream: equivalent to calling
  /// access() per reference and summing the latencies — counters end up
  /// bit-identical — but the batched loop hoists the per-level constants
  /// and classifies references through type-indexed counter tables
  /// instead of access()'s per-reference branch chains.  Trace-driven
  /// benchmarks and calibration replays should use this entry point.
  std::uint64_t replay(const MemoryAccess* refs, const ClassId* classes,
                       std::size_t n);

  /// Charge `n` retired instructions to the class (IPC bookkeeping).  Call
  /// alongside access(); non-memory instructions cost one cycle each.
  void retire_instructions(ClassId class_id, std::uint64_t n);

  /// Counter snapshot for a class; occupancy/IPC gauges computed on read.
  [[nodiscard]] CounterSnapshot counters(ClassId class_id) const;

  /// Modeled-cycle breakdown for a class (DESIGN.md §16).  Accumulated
  /// bit-identically by access() and replay(); reset() clears it.
  [[nodiscard]] const CycleBreakdown& cycles(ClassId class_id) const;
  /// Breakdown merged across all classes.
  [[nodiscard]] CycleBreakdown total_cycles() const;
  /// Modeled wall clock: total latency of every access plus retired
  /// instructions.  Drives the DRAM model's utilization windows.
  [[nodiscard]] std::uint64_t clock_cycles() const { return clock_cycles_; }
  [[nodiscard]] const memtime::DramPerfModel& dram_model() const {
    return dram_;
  }
  [[nodiscard]] bool has_dram_cache() const {
    return dram_cache_.has_value();
  }
  /// Export the merged cycle breakdown as obs gauges
  /// (`cachesim.cycles.<level>`, `cachesim.cycles.total`, ...).
  void publish_cycle_metrics() const;

  /// LLC lines currently owned by the class (CMT-style occupancy).
  [[nodiscard]] std::size_t llc_occupancy(ClassId class_id) const;

  /// Reset all cache contents, counters, cycle breakdowns and DRAM window
  /// state (between experiments).
  void reset();

  [[nodiscard]] const CacheLevel& llc() const { return llc_; }

 private:
  /// replay() loop body, stamped per (L1D, L1I, L2, LLC) way-width tuple so
  /// the SoA probes inline and unroll into the loop.  Width 0 falls back to
  /// the generic access() dispatcher for that level (any geometry).
  template <std::size_t L1DW, std::size_t L1IW, std::size_t L2W,
            std::size_t LLCW>
  std::uint64_t replay_fixed(const MemoryAccess* refs, const ClassId* classes,
                             std::size_t n);
  /// Probe one level with a compile-time way width (0 = generic dispatch).
  template <std::size_t W>
  static AccessResult probe_level(CacheLevel& level, std::uint64_t line,
                                  WayMask fill_mask, ClassId class_id);
  /// Memory-side time past the LLC (optional DRAM-cache probe, then main
  /// DRAM).  Bumps the mem/stall counters and the breakdown; shared by
  /// access() and every replay_fixed instantiation so the two accounting
  /// paths cannot diverge.
  std::uint32_t memory_side(std::uint64_t line, ClassId class_id,
                            std::uint64_t now, Counter mem_ctr,
                            CounterSnapshot& ctr, CycleBreakdown& cyc);

  HierarchyConfig config_;
  /// Precomputed line-address shift (line_bytes is power-of-two in every
  /// preset; falls back to division otherwise) — access() runs per memory
  /// reference, so the repeated 64-bit divide was measurable.
  std::uint32_t line_shift_ = 0;
  bool line_pow2_ = false;
  std::vector<CacheLevel> l1d_;
  std::vector<CacheLevel> l1i_;
  std::vector<CacheLevel> l2_;
  CacheLevel llc_;
  std::vector<WayMask> llc_masks_;
  std::vector<CounterSnapshot> counters_;
  // --- modeled time (DESIGN.md §16) ---
  memtime::CachePerfModel l1d_perf_;
  memtime::CachePerfModel l1i_perf_;
  memtime::CachePerfModel l2_perf_;
  memtime::CachePerfModel llc_perf_;
  memtime::DramPerfModel dram_;
  /// Stacked DRAM-cache tier (probed on LLC miss; shared across classes
  /// like the LLC, unmasked — CAT does not partition the stacked tier).
  std::optional<CacheLevel> dram_cache_;
  memtime::CachePerfModel dram_cache_perf_;
  memtime::DramPerfModel dram_cache_dram_;  ///< stacked channel
  /// True when the memory side is a single constant (no stacked tier, no
  /// queue model): the replay loop then charges a hoisted scalar instead of
  /// calling memory_side() — the pre-timing fast path.
  bool mem_flat_ = false;
  std::vector<CycleBreakdown> cycles_;
  std::uint64_t clock_cycles_ = 0;
};

}  // namespace stac::cachesim

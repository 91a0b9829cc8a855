// Geometry and latency configuration for the simulated cache hierarchy.
//
// The hierarchy mirrors the paper's testbed shape: per-workload private
// L1D/L1I/L2 plus one shared, way-partitionable LLC (the level Intel CAT
// controls).  All sizes are in bytes; latencies in core cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "memtime/mem_time.hpp"

namespace stac::cachesim {

/// One cache level's geometry.
struct LevelConfig {
  std::size_t size_bytes = 0;
  std::size_t ways = 0;
  std::size_t line_bytes = 64;
  std::uint32_t latency_cycles = 0;

  [[nodiscard]] std::size_t lines() const { return size_bytes / line_bytes; }
  [[nodiscard]] std::size_t sets() const {
    return ways == 0 ? 0 : lines() / ways;
  }
  /// Geometry is valid when the size decomposes exactly into sets x ways
  /// power-of-two sets (required for bit-sliced indexing).
  [[nodiscard]] bool valid() const;
};

/// Full hierarchy: private L1D/L1I/L2 per workload class, shared LLC.
struct HierarchyConfig {
  std::string name = "generic";
  LevelConfig l1d{32 * 1024, 8, 64, 4};
  LevelConfig l1i{32 * 1024, 8, 64, 4};
  LevelConfig l2{1024 * 1024, 16, 64, 12};
  LevelConfig llc{40 * 1024 * 1024, 20, 64, 42};
  /// DEPRECATED as a standalone latency model: survives only as the
  /// zero-contention DRAM baseline consumed by memtime::DramPerfModel when
  /// `timing.dram.base_latency_cycles` is 0.  timing_warnings() flags a
  /// value inconsistent with an explicit DRAM spec.
  std::uint32_t memory_latency_cycles = 220;
  /// Access-time model (DESIGN.md §16).  The default spec is the timing-off
  /// identity point: per-level flat latencies equal to the scalars above and
  /// a constant-latency DRAM — modeled behaviour is bit-identical to the
  /// pre-timing hierarchy.
  memtime::MemTimeSpec timing{};
  /// Number of physical cores on the package (collocation capacity).
  std::size_t cores = 16;

  [[nodiscard]] bool valid() const {
    return l1d.valid() && l1i.valid() && l2.valid() && llc.valid() &&
           (!timing.dram_cache.has_value() ||
            timing.dram_cache->geometry.valid());
  }
  /// LLC capacity per way in bytes (CAT allocates whole ways).
  [[nodiscard]] std::size_t llc_way_bytes() const {
    return llc.size_bytes / llc.ways;
  }

  // --- resolved timing (overrides folded against the legacy scalars) ---
  [[nodiscard]] memtime::CachePerfSpec l1d_perf() const {
    return memtime::resolve_level(timing.l1d, l1d.latency_cycles);
  }
  [[nodiscard]] memtime::CachePerfSpec l1i_perf() const {
    return memtime::resolve_level(timing.l1i, l1i.latency_cycles);
  }
  [[nodiscard]] memtime::CachePerfSpec l2_perf() const {
    return memtime::resolve_level(timing.l2, l2.latency_cycles);
  }
  [[nodiscard]] memtime::CachePerfSpec llc_perf() const {
    return memtime::resolve_level(timing.llc, llc.latency_cycles);
  }
  /// Zero-contention DRAM baseline after deprecated-scalar inheritance.
  [[nodiscard]] std::uint32_t dram_base_cycles() const {
    return timing.dram.base_latency_cycles != 0
               ? timing.dram.base_latency_cycles
               : memory_latency_cycles;
  }
  /// True when the timing spec reproduces the legacy constant-latency model
  /// exactly (the timing-off identity precondition).
  [[nodiscard]] bool timing_flat() const {
    return timing.flat_equivalent(l1d.latency_cycles, l1i.latency_cycles,
                                  l2.latency_cycles, llc.latency_cycles,
                                  memory_latency_cycles);
  }
  /// Config-validation warnings (deprecation and DRAM-cache sanity).
  [[nodiscard]] std::vector<std::string> timing_warnings() const {
    return memtime::timing_warnings(timing, memory_latency_cycles);
  }
};

/// The five Xeon processors used in the paper's evaluation (Fig. 7b), plus
/// timing-accurate points added for the cross-hardware generalization rerun
/// (EXPERIMENTS.md).  The LLC sizes follow the paper; way counts follow the
/// part's CAT capability.
namespace presets {
/// Default platform: Xeon E5-2683 — 16 cores, 40 MB LLC, 20 ways.
[[nodiscard]] HierarchyConfig xeon_e5_2683();
/// Xeon Platinum 8275 socket 0 — 72 MB LLC (paper's two-socket run).
[[nodiscard]] HierarchyConfig xeon_platinum_8275_72mb();
/// Xeon Platinum 8275 socket 1 — 59 MB LLC (clipped by the paper's setup).
[[nodiscard]] HierarchyConfig xeon_platinum_8275_59mb();
/// Xeon 2650 — 30 MB LLC.
[[nodiscard]] HierarchyConfig xeon_2650();
/// Xeon 2620 — 20 MB LLC.
[[nodiscard]] HierarchyConfig xeon_2620();
// --- timed presets (explicit CachePerfSpecs + DRAM bandwidth model) ---
/// EPYC Milan CCX slice — 32 MB LLC, parallel-lookup L1s, DDR4 channel.
[[nodiscard]] HierarchyConfig epyc_milan_32mb();
/// Sapphire Rapids class — 48 MB LLC, 12 ways, big L2, DDR5 channel.
[[nodiscard]] HierarchyConfig sapphire_rapids_48mb();
/// Emerald Rapids class — 60 MB LLC, 15 ways, fastest DRAM channel.
[[nodiscard]] HierarchyConfig emerald_rapids_60mb();
/// Xeon Max class — 64 MB LLC plus a 128 MB stacked HBM DRAM-cache tier.
[[nodiscard]] HierarchyConfig xeon_max_hbm_64mb();
/// All presets: the five paper parts in Fig. 7b order (20, 30, 40, 59,
/// 72 MB) followed by the timed points (32, 48, 60, 64+HBM).
[[nodiscard]] const std::vector<HierarchyConfig>& all();
}  // namespace presets

}  // namespace stac::cachesim

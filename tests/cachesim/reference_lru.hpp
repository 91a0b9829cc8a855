// Test-only reference model of one CAT-partitioned LRU cache level, stated
// from the policy itself rather than from the production layout:
//   * every set keeps its ways in a recency list, most recent first;
//   * a lookup hits in ANY way (CAT masks restrict fills, not hits) and
//     moves that way to the front;
//   * a miss fills the lowest-numbered invalid way the fill mask permits,
//     else the least recent permitted way, and bypasses the level when the
//     mask permits no way at all;
//   * occupancy counts valid lines per owning class.
// CacheLevel must make the same decision on every access; the adversarial
// sweeps in cache_level_test.cpp and simd_probe_test.cpp hold it to that.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "cachesim/cache_level.hpp"

namespace stac::cachesim::reference {

class LruLevel {
 public:
  explicit LruLevel(const LevelConfig& config)
      : ways_(config.ways), sets_(config.sets()) {
    for (Set& set : sets_) {
      set.ways.resize(ways_);
      for (std::size_t w = 0; w < ways_; ++w) set.recency.push_back(w);
    }
  }

  AccessResult access(std::uint64_t line, WayMask fill_mask, ClassId cls) {
    Set& set = sets_[line % sets_.size()];
    const std::uint64_t tag = line / sets_.size();
    AccessResult r;
    for (auto it = set.recency.begin(); it != set.recency.end(); ++it) {
      const Way& way = set.ways[*it];
      if (way.valid && way.tag == tag) {
        r.hit = true;
        r.hit_outside_mask = ((fill_mask >> *it) & 1u) == 0;
        set.recency.splice(set.recency.begin(), set.recency, it);
        return r;
      }
    }

    auto permitted = [&](std::size_t w) {
      return ((fill_mask >> w) & 1u) != 0;
    };
    std::optional<std::size_t> victim;
    for (std::size_t w = 0; w < ways_ && !victim; ++w)
      if (permitted(w) && !set.ways[w].valid) victim = w;
    for (auto it = set.recency.rbegin(); it != set.recency.rend() && !victim;
         ++it)
      if (permitted(*it)) victim = *it;
    if (!victim) return r;  // bypass

    Way& way = set.ways[*victim];
    if (way.valid) {
      r.evicted = true;
      r.evicted_class = way.owner;
      if (way.owner != kNoClass) --occupancy_[way.owner];
    }
    way = Way{tag, cls, true};
    if (cls != kNoClass) ++occupancy_[cls];
    for (auto it = set.recency.begin(); it != set.recency.end(); ++it) {
      if (*it == *victim) {
        set.recency.splice(set.recency.begin(), set.recency, it);
        break;
      }
    }
    return r;
  }

  [[nodiscard]] bool contains(std::uint64_t line) const {
    const Set& set = sets_[line % sets_.size()];
    const std::uint64_t tag = line / sets_.size();
    for (const Way& way : set.ways)
      if (way.valid && way.tag == tag) return true;
    return false;
  }

  [[nodiscard]] std::size_t occupancy(ClassId cls) const {
    const auto it = occupancy_.find(cls);
    return it == occupancy_.end() ? 0 : it->second;
  }

  /// Invalidate the lines `cls` owns (recency order is left alone: invalid
  /// ways are refilled first regardless of it).
  void flush_class(ClassId cls) {
    for (Set& set : sets_)
      for (Way& way : set.ways)
        if (way.valid && way.owner == cls) way = Way{};
    occupancy_.erase(cls);
  }

  void flush() {
    for (Set& set : sets_)
      for (Way& way : set.ways) way = Way{};
    occupancy_.clear();
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    ClassId owner = kNoClass;
    bool valid = false;
  };
  struct Set {
    std::vector<Way> ways;
    std::list<std::size_t> recency;  ///< way indices, most recent first
  };

  std::size_t ways_;
  std::vector<Set> sets_;
  std::map<ClassId, std::size_t> occupancy_;
};

}  // namespace stac::cachesim::reference

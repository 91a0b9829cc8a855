#include "cachesim/cache_level.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "common/check.hpp"

namespace stac::cachesim {

bool LevelConfig::valid() const {
  if (size_bytes == 0 || ways == 0 || line_bytes == 0) return false;
  if (size_bytes % (ways * line_bytes) != 0) return false;
  const std::size_t s = sets();
  return s > 0 && std::has_single_bit(s);
}

CacheLevel::CacheLevel(const LevelConfig& config) : config_(config) {
  STAC_REQUIRE_MSG(config.valid(), "invalid cache geometry: size="
                                       << config.size_bytes
                                       << " ways=" << config.ways);
  STAC_REQUIRE_MSG(config.ways <= 32, "way masks are 32-bit");
  sets_ = config.sets();
  set_bits_ = static_cast<std::size_t>(std::countr_zero(sets_));
  set_mask_ = sets_ - 1;
  keys_.resize(sets_ * config.ways, 0);
  ages_.resize(sets_ * config.ways, 0);
  owners_.resize(sets_ * config.ways, kNoClass);
  set_clock_.resize(sets_, 0);
  mru_.resize(sets_, 0);
  occupancy_.resize(1, 0);
}

void CacheLevel::renormalize_set_ages(std::size_t set) {
  // Rank-compress the set's ages to 1..ways.  Relative order — the only
  // thing LRU selection reads — is preserved exactly.
  std::uint32_t* age = ages_.data() + set * config_.ways;
  std::array<std::uint8_t, 32> order{};
  const std::size_t n = config_.ways;
  std::iota(order.begin(), order.begin() + n, std::uint8_t{0});
  std::sort(order.begin(), order.begin() + n,
            [age](std::uint8_t a, std::uint8_t b) { return age[a] < age[b]; });
  for (std::size_t rank = 0; rank < n; ++rank)
    age[order[rank]] = static_cast<std::uint32_t>(rank + 1);
  set_clock_[set] = static_cast<std::uint32_t>(n);
}

bool CacheLevel::contains(std::uint64_t line_addr) const {
  const std::size_t set = set_index(line_addr);
  const std::uint64_t* keys = keys_.data() + set * config_.ways;
  const std::uint64_t probe = tag_of(line_addr) | kValidBit;
  bool found = false;
  for (std::size_t w = 0; w < config_.ways; ++w) found |= keys[w] == probe;
  return found;
}

std::size_t CacheLevel::occupancy(ClassId class_id) const {
  return class_id < occupancy_.size() ? occupancy_[class_id] : 0;
}

void CacheLevel::flush() {
  std::fill(keys_.begin(), keys_.end(), std::uint64_t{0});
  std::fill(ages_.begin(), ages_.end(), 0u);
  std::fill(owners_.begin(), owners_.end(), kNoClass);
  for (auto& o : occupancy_) o = 0;
}

void CacheLevel::flush_class(ClassId class_id) {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if ((keys_[i] & kValidBit) != 0 && owners_[i] == class_id) {
      keys_[i] = 0;
      owners_[i] = kNoClass;
    }
  }
  if (class_id < occupancy_.size()) occupancy_[class_id] = 0;
}

}  // namespace stac::cachesim

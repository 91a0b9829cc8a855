#include "ml/flat_forest.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace stac::ml {

void FlatForest::compile(std::span<const DecisionTree> trees) {
  feature_.clear();
  threshold_.clear();
  left_.clear();
  right_.clear();
  value_.clear();
  roots_.clear();
  std::size_t total = 0;
  for (const auto& t : trees) {
    STAC_REQUIRE_MSG(t.trained(), "FlatForest::compile on an untrained tree");
    total += t.node_count();
  }
  feature_.reserve(total);
  threshold_.reserve(total);
  left_.reserve(total);
  right_.reserve(total);
  value_.reserve(total);
  roots_.reserve(trees.size());
  for (const auto& t : trees) {
    const auto base = static_cast<std::int32_t>(value_.size());
    roots_.push_back(static_cast<std::uint32_t>(base));
    for (const DecisionTree::Node& nd : t.nodes()) {
      feature_.push_back(nd.feature);
      threshold_.push_back(nd.threshold);
      left_.push_back(nd.left < 0 ? -1 : nd.left + base);
      right_.push_back(nd.right < 0 ? -1 : nd.right + base);
      value_.push_back(nd.value);
    }
  }
}

double FlatForest::predict(std::span<const double> x) const {
  STAC_REQUIRE_MSG(compiled(), "predict before compile");
  double sum = 0.0;
  for (const std::uint32_t root : roots_) {
    std::uint32_t node = root;
    for (;;) {
      const std::int32_t l = left_[node];
      if (l < 0) {
        sum += value_[node];
        break;
      }
      node = static_cast<std::uint32_t>(
          x[feature_[node]] <= threshold_[node] ? l : right_[node]);
    }
  }
  return sum / static_cast<double>(roots_.size());
}

void FlatForest::predict_batch(const Matrix& x, std::span<double> out) const {
  STAC_REQUIRE_MSG(compiled(), "predict_batch before compile");
  STAC_REQUIRE(out.size() == x.rows());
  const std::size_t n = x.rows();
  std::fill(out.begin(), out.end(), 0.0);
  std::vector<std::uint32_t> cur(n);
  for (const std::uint32_t root : roots_) {
    std::fill(cur.begin(), cur.end(), root);
    // Level-major: every sweep advances each still-walking row one level.
    for (bool walking = n > 0; walking;) {
      walking = false;
      for (std::size_t r = 0; r < n; ++r) {
        const std::uint32_t c = cur[r];
        const std::int32_t l = left_[c];
        if (l < 0) continue;
        const auto row = x.row(r);
        cur[r] = static_cast<std::uint32_t>(
            row[feature_[c]] <= threshold_[c] ? l : right_[c]);
        walking = true;
      }
    }
    // Accumulate in tree order per row: same FP addition order as the
    // per-row pointer walk, which is what makes the batch bitwise-equal.
    for (std::size_t r = 0; r < n; ++r) out[r] += value_[cur[r]];
  }
  const auto trees = static_cast<double>(roots_.size());
  for (auto& v : out) v /= trees;
}

}  // namespace stac::ml

#include "ml/random_forest.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace stac::ml {

RandomForest::RandomForest(ForestConfig config) : config_(config) {
  STAC_REQUIRE(config.estimators >= 1);
  STAC_REQUIRE(config.bootstrap_fraction > 0.0 &&
               config.bootstrap_fraction <= 1.0);
}

void RandomForest::fit(const Dataset& data) {
  STAC_REQUIRE(!data.empty());
  const std::size_t n = data.size();
  const auto sample_n = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.bootstrap_fraction *
                                  static_cast<double>(n)));

  trees_.assign(config_.estimators, DecisionTree{});
  bags_.assign(config_.estimators, {});
  refit_round_ = 0;

  auto train_one = [&](std::size_t t) {
    Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + t * 1000003ULL + 17);
    std::vector<std::size_t> rows(sample_n);
    for (auto& r : rows)
      r = static_cast<std::size_t>(rng.uniform_index(n));
    TreeConfig tc;
    tc.split_mode = config_.split_mode;
    tc.max_depth = config_.max_depth;
    tc.min_samples_leaf = config_.min_samples_leaf;
    tc.seed = rng.next_u64();
    trees_[t] = DecisionTree(tc);
    trees_[t].fit(data, rows);
    bags_[t] = std::move(rows);
  };

  if (config_.parallel && config_.estimators > 1) {
    ThreadPool::global().parallel_for(0, config_.estimators, train_one);
  } else {
    for (std::size_t t = 0; t < config_.estimators; ++t) train_one(t);
  }

  trained_rows_ = n;
  flat_.compile(trees_);
  compute_oob(data);
}

void RandomForest::refit_incremental(const Dataset& data,
                                     double retrain_fraction) {
  STAC_REQUIRE_MSG(trained(), "refit_incremental before fit");
  STAC_REQUIRE(!data.empty());
  STAC_REQUIRE_MSG(data.size() >= trained_rows_,
                   "warm refit requires a grown (or equal) dataset");
  STAC_REQUIRE(retrain_fraction > 0.0 && retrain_fraction <= 1.0);
  const std::size_t n = data.size();
  const auto sample_n = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.bootstrap_fraction *
                                  static_cast<double>(n)));
  const std::size_t estimators = trees_.size();
  const auto retrain = std::min<std::size_t>(
      estimators,
      std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(retrain_fraction * static_cast<double>(estimators)))));

  // Deterministic round-robin window: round r retrains slots
  // [r*retrain, r*retrain + retrain) mod estimators, so successive refits
  // cycle through the whole forest and no tree goes stale forever.
  const std::uint64_t round = refit_round_++;
  const std::size_t start =
      static_cast<std::size_t>((round * retrain) % estimators);

  auto train_one = [&](std::size_t i) {
    const std::size_t t = (start + i) % estimators;
    // A refit-round-salted stream: distinct from the full-fit seeds so a
    // retrained slot draws a fresh bag, yet fully deterministic given
    // (seed, slot, round).
    Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + t * 1000003ULL +
            (round + 1) * 0xD1B54A32D192ED03ULL + 17);
    std::vector<std::size_t> rows(sample_n);
    for (auto& r : rows)
      r = static_cast<std::size_t>(rng.uniform_index(n));
    TreeConfig tc;
    tc.split_mode = config_.split_mode;
    tc.max_depth = config_.max_depth;
    tc.min_samples_leaf = config_.min_samples_leaf;
    tc.seed = rng.next_u64();
    trees_[t] = DecisionTree(tc);
    trees_[t].fit(data, rows);
    bags_[t] = std::move(rows);
  };

  if (config_.parallel && retrain > 1) {
    ThreadPool::global().parallel_for(0, retrain, train_one);
  } else {
    for (std::size_t i = 0; i < retrain; ++i) train_one(i);
  }

  trained_rows_ = n;
  flat_.compile(trees_);
  // Full OOB recompute: untouched trees keep their old bags, so every
  // appended row is out-of-bag for them and contributes honestly.
  compute_oob(data);
  obs::count("ml.forest_warm_refits");
}

void RandomForest::compute_oob(const Dataset& data) {
  const std::size_t n = data.size();
  std::vector<double> sum(n, 0.0);
  std::vector<std::size_t> cnt(n, 0);
  std::vector<char> in_bag(n);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    std::fill(in_bag.begin(), in_bag.end(), 0);
    for (std::size_t r : bags_[t]) in_bag[r] = 1;
    for (std::size_t r = 0; r < n; ++r) {
      if (!in_bag[r]) {
        sum[r] += trees_[t].predict(data.row(r));
        ++cnt[r];
      }
    }
  }
  oob_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    oob_[r] = cnt[r] > 0 ? sum[r] / static_cast<double>(cnt[r])
                         : predict(data.row(r));
  }
}

double RandomForest::predict(std::span<const double> x) const {
  STAC_REQUIRE_MSG(trained(), "predict before fit");
  return flat_.predict(x);
}

std::vector<double> RandomForest::predict(const Matrix& x) const {
  STAC_REQUIRE_MSG(trained(), "predict before fit");
  std::vector<double> out(x.rows(), 0.0);
  flat_.predict_batch(x, out);
  return out;
}

const std::vector<double>& RandomForest::oob_predictions() const {
  STAC_REQUIRE_MSG(trained(), "OOB before fit");
  return oob_;
}

std::vector<double> RandomForest::feature_importance() const {
  STAC_REQUIRE(trained());
  std::vector<double> total;
  for (const auto& t : trees_) {
    const auto imp = t.feature_importance();
    if (total.empty()) total.assign(imp.size(), 0.0);
    for (std::size_t f = 0; f < imp.size(); ++f) total[f] += imp[f];
  }
  for (auto& v : total) v /= static_cast<double>(trees_.size());
  return total;
}

}  // namespace stac::ml

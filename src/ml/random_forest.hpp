// Bagged regression forests with the two gcForest flavours (random /
// completely-random), parallel tree training, and out-of-bag estimates —
// the OOB predictions let cascade levels pass concepts forward without a
// held-out set, mirroring gcForest's k-fold trick at lower cost.
//
// Two serving-path additions (DESIGN.md §15):
//   - warm-start refit: fit() keeps every tree's bootstrap bag, and
//     refit_incremental() retrains only a deterministic round-robin subset
//     of the trees over the grown dataset (old trees keep their bags, so
//     appended rows are out-of-bag for them and the OOB estimates stay
//     honest).  ~1/retrain_fraction cheaper than a full fit; accuracy
//     parity is a tested contract, not an identity.
//   - flattened SoA inference: fit() and refit_incremental() compile the
//     trees into a FlatForest, and predict() answers from it.  The trees
//     themselves stay for OOB estimates, refits and feature importance.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/flat_forest.hpp"

namespace stac::ml {

struct ForestConfig {
  std::size_t estimators = 100;
  SplitMode split_mode = SplitMode::kSqrtFeatures;
  std::size_t max_depth = 0;  ///< 0 = grow to purity (gcForest default)
  std::size_t min_samples_leaf = 1;
  /// Bootstrap sample fraction; 1.0 = classic bagging with replacement.
  double bootstrap_fraction = 1.0;
  std::uint64_t seed = 1;
  bool parallel = true;
};

class RandomForest {
 public:
  explicit RandomForest(ForestConfig config = {});

  void fit(const Dataset& data);

  /// Warm-start refit over a grown dataset whose first trained_rows() rows
  /// are unchanged.  Retrains ceil(retrain_fraction * estimators) trees —
  /// a deterministic round-robin window that advances every call, so
  /// repeated refits cycle through the whole forest — on fresh bootstrap
  /// bags drawn over *all* rows, then recomputes OOB estimates from the
  /// stored bags.  Requires a prior fit().
  void refit_incremental(const Dataset& data, double retrain_fraction = 0.125);

  [[nodiscard]] double predict(std::span<const double> x) const;
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;

  /// Out-of-bag prediction for each training row (rows never out of bag
  /// fall back to the full-forest prediction).  Valid after fit().
  [[nodiscard]] const std::vector<double>& oob_predictions() const;

  [[nodiscard]] bool trained() const { return !trees_.empty(); }
  [[nodiscard]] std::size_t tree_count() const { return trees_.size(); }
  /// Rows of the dataset the forest was last (re)fitted on.
  [[nodiscard]] std::size_t trained_rows() const { return trained_rows_; }
  /// Completed warm-start refits since the last full fit().
  [[nodiscard]] std::uint64_t refit_rounds() const { return refit_round_; }
  [[nodiscard]] std::vector<double> feature_importance() const;

 private:
  void compute_oob(const Dataset& data);

  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  /// Bootstrap bag per tree, kept across fits for warm-start OOB math.
  std::vector<std::vector<std::size_t>> bags_;
  std::vector<double> oob_;
  std::size_t trained_rows_ = 0;
  std::uint64_t refit_round_ = 0;
  FlatForest flat_;
};

}  // namespace stac::ml

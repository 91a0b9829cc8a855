#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace stac::ml {
namespace {

/// Step function dataset: y = 1 when x0 > 0.5, else 0.
Dataset step_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(0, 3);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform();
    x.append_row(std::vector<double>{a, rng.uniform(), rng.uniform()});
    y.push_back(a > 0.5 ? 1.0 : 0.0);
  }
  return Dataset(std::move(x), std::move(y));
}

TEST(DecisionTree, LearnsStepFunction) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures});
  const Dataset d = step_dataset(400, 1);
  tree.fit(d);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.9, 0.5, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.1, 0.5, 0.5}), 0.0);
}

TEST(DecisionTree, PureTargetsYieldSingleLeaf) {
  Matrix x(0, 1);
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    x.append_row(std::vector<double>{static_cast<double>(i)});
    y.push_back(7.0);
  }
  DecisionTree tree;
  tree.fit(Dataset(std::move(x), std::move(y)));
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{99.0}), 7.0);
}

TEST(DecisionTree, MaxDepthCapsGrowth) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures,
                               .max_depth = 2});
  tree.fit(step_dataset(200, 2));
  EXPECT_LE(tree.depth(), 3u);  // root at depth 1 + 2 levels of splits
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures,
                               .min_samples_leaf = 50});
  tree.fit(step_dataset(100, 3));
  // With 100 rows and 50-per-leaf, at most one split.
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), ContractViolation);
}

TEST(DecisionTree, WrongFeatureCountThrows) {
  DecisionTree tree;
  tree.fit(step_dataset(50, 4));
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), ContractViolation);
}

TEST(DecisionTree, FeatureImportanceIdentifiesSignal) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures});
  tree.fit(step_dataset(400, 5));
  const auto imp = tree.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[1]);
  EXPECT_GT(imp[0], imp[2]);
}

TEST(DecisionTree, CompletelyRandomStillLearnsCoarsely) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kCompletelyRandom,
                               .seed = 7});
  tree.fit(step_dataset(600, 6));
  // Random splits grow to purity, so training-region predictions are
  // directionally right.
  EXPECT_GT(tree.predict(std::vector<double>{0.95, 0.5, 0.5}), 0.7);
  EXPECT_LT(tree.predict(std::vector<double>{0.05, 0.5, 0.5}), 0.3);
}

TEST(DecisionTree, MatrixPredictShapes) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures});
  const Dataset d = step_dataset(100, 8);
  tree.fit(d);
  const auto preds = tree.predict(d.features());
  EXPECT_EQ(preds.size(), 100u);
}

TEST(DecisionTree, FitOnRowSubset) {
  const Dataset d = step_dataset(200, 9);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 100; ++i) rows.push_back(i);
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures});
  tree.fit(d, rows);
  EXPECT_TRUE(tree.trained());
}

/// Summed squared error about the sample's own mean (two-pass).
double sse(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double mean = 0.0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double s = 0.0;
  for (const double x : v) s += (x - mean) * (x - mean);
  return s;
}

TEST(DecisionTree, RootSplitGainIsTheExhaustiveMaximum) {
  // The CART criterion stated independently of the fitted sweep: try every
  // feature and every cut between adjacent distinct values, score each by
  // the decrease in summed squared error, and keep the best.  The fitted
  // root must choose that cut with that gain.
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    constexpr std::size_t kRows = 40, kFeatures = 4;
    Matrix x(0, kFeatures);
    std::vector<double> y;
    for (std::size_t i = 0; i < kRows; ++i) {
      std::vector<double> row(kFeatures);
      for (auto& v : row) v = rng.uniform();
      x.append_row(row);
      y.push_back(row[0] * row[1] - row[2] + rng.normal(0.0, 0.05));
    }
    const Dataset d(x, y);
    DecisionTree tree(
        TreeConfig{.split_mode = SplitMode::kAllFeatures, .max_depth = 1});
    tree.fit(d);

    const double total = sse(y);
    double best_gain = -1.0;
    std::uint32_t best_feature = 0;
    double best_threshold = 0.0;
    for (std::uint32_t f = 0; f < kFeatures; ++f) {
      std::vector<double> values;
      for (std::size_t i = 0; i < kRows; ++i) values.push_back(x(i, f));
      std::sort(values.begin(), values.end());
      for (std::size_t c = 0; c + 1 < kRows; ++c) {
        if (values[c] == values[c + 1]) continue;
        const double threshold = 0.5 * (values[c] + values[c + 1]);
        std::vector<double> left, right;
        for (std::size_t i = 0; i < kRows; ++i)
          (x(i, f) <= threshold ? left : right).push_back(y[i]);
        const double gain = total - sse(left) - sse(right);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = threshold;
        }
      }
    }
    const DecisionTree::Node& root = tree.nodes().at(0);
    ASSERT_GE(root.left, 0) << "seed " << seed;
    EXPECT_EQ(root.feature, best_feature) << "seed " << seed;
    EXPECT_EQ(root.threshold, best_threshold) << "seed " << seed;
    EXPECT_NEAR(root.gain, best_gain, 1e-9 * total) << "seed " << seed;
  }
}

TEST(DecisionTree, BootstrapFitMatchesFitOnCopiedSample) {
  // fit(data, rows) grows a tree over a bootstrap sample (duplicated rows)
  // by index, without copying it.  It must grow exactly the tree a fit on
  // the copied sample grows, node for node.
  Rng rng(12);
  Matrix x(0, 4);
  std::vector<double> y;
  for (std::size_t i = 0; i < 120; ++i) {
    std::vector<double> row(4);
    for (auto& v : row) v = rng.uniform();
    x.append_row(row);
    y.push_back(row[0] + 2.0 * row[3] + rng.normal(0.0, 0.03));
  }
  const Dataset d(std::move(x), std::move(y));
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 150; ++i)
    rows.push_back(rng.uniform_index(d.size()));
  const Dataset copied_sample = d.subset(rows);

  for (const SplitMode mode :
       {SplitMode::kAllFeatures, SplitMode::kSqrtFeatures,
        SplitMode::kCompletelyRandom}) {
    const TreeConfig cfg{.split_mode = mode, .seed = 7};
    DecisionTree indexed(cfg), copied(cfg);
    indexed.fit(d, rows);
    copied.fit(copied_sample);
    const auto& a = indexed.nodes();
    const auto& b = copied.nodes();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].left, b[i].left) << "node " << i;
      EXPECT_EQ(a[i].right, b[i].right) << "node " << i;
      EXPECT_EQ(a[i].feature, b[i].feature) << "node " << i;
      EXPECT_EQ(a[i].threshold, b[i].threshold) << "node " << i;
      EXPECT_EQ(a[i].value, b[i].value) << "node " << i;
      EXPECT_EQ(a[i].gain, b[i].gain) << "node " << i;
    }
  }
}

TEST(DecisionTree, DeterministicForSeed) {
  const Dataset d = step_dataset(300, 10);
  DecisionTree a(TreeConfig{.split_mode = SplitMode::kSqrtFeatures, .seed = 3});
  DecisionTree b(TreeConfig{.split_mode = SplitMode::kSqrtFeatures, .seed = 3});
  a.fit(d);
  b.fit(d);
  for (double v = 0.0; v < 1.0; v += 0.1) {
    const std::vector<double> x{v, 0.5, 0.5};
    EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
  }
}

}  // namespace
}  // namespace stac::ml

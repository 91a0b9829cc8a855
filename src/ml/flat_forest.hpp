// Flattened SoA forest inference.
//
// A trained forest's trees are pointer-chased one node at a time through
// per-tree `std::vector<Node>` arrays (24 bytes of payload scattered over a
// 40-byte AoS node).  For the serving hot path we compile the whole bank
// into one contiguous arena of parallel arrays — {feature, threshold, left,
// right, value} — so a walk touches four tightly packed streams, and batch
// prediction advances every sample through a tree in lockstep (level-major:
// one pass over the batch per tree depth level) instead of finishing one
// sample's walk before starting the next.
//
// Identity contract (DESIGN.md §15): the flat walk routes with the same
// `x[feature] <= threshold` comparison on the same fitted nodes and sums
// tree outputs in tree order, so predictions are bitwise-equal to
// averaging DecisionTree::predict over the trees in order
// (tests/ml/random_forest_test.cpp builds banks of directly fitted trees
// and checks exactly that).  RandomForest answers every predict() from its
// compiled FlatForest.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"

namespace stac::ml {

class FlatForest {
 public:
  FlatForest() = default;

  /// Compile a bank of trained trees into the SoA arena (replaces any
  /// previous compilation).  Child indices are rebased into the arena; each
  /// tree's root is its first appended node.
  void compile(std::span<const DecisionTree> trees);

  [[nodiscard]] bool compiled() const { return !roots_.empty(); }
  [[nodiscard]] std::size_t tree_count() const { return roots_.size(); }
  [[nodiscard]] std::size_t node_count() const { return value_.size(); }

  /// Forest mean for one sample — bitwise-identical to averaging the
  /// per-tree pointer walks in tree order.
  [[nodiscard]] double predict(std::span<const double> x) const;

  /// Batch, level-major prediction: for each tree, all rows of `x` advance
  /// one level per sweep until every row reaches a leaf.  `out.size()` must
  /// equal `x.rows()`.  Bitwise-identical to calling predict() per row.
  void predict_batch(const Matrix& x, std::span<double> out) const;

 private:
  std::vector<std::uint32_t> feature_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<double> value_;
  std::vector<std::uint32_t> roots_;  ///< arena index of each tree's root
};

}  // namespace stac::ml

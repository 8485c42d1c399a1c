// Copyright 2026 The DOD Authors.
//
// The AF-tree (Sec. V-A): an R-tree-like index whose leaf nodes are DSHC
// clusters carrying Aggregate Features. It supports the four operations the
// paper defines:
//
//  * Search — descend like an R-tree, but also visit nodes *adjacent* to
//    the query box, producing the list of merging candidates (LMC).
//  * Merge — fold an incoming mini bucket (or a neighboring cluster) into a
//    cluster when the Def. 5.2 criteria hold, then recursively attempt
//    further cluster-cluster merges along the updated region.
//  * Insert — attach a fresh leaf next to its most density-similar LMC
//    member, or under the least-enlargement parent when the LMC is empty.
//  * Split — standard R-tree quadratic node split on fanout overflow.

#ifndef DOD_DSHC_AF_TREE_H_
#define DOD_DSHC_AF_TREE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "dshc/aggregate_feature.h"

namespace dod {

struct AfTreeOptions {
  // Def. 5.2 thresholds.
  double t_diff = 1.0;
  double t_max_points = 1e18;
  // Optional cost-aware merge cap (see MergingCriteria).
  std::function<double(const AggregateFeature&)> cost_fn;
  double t_max_cost = 0.0;
  // Maximum children per internal node before a split.
  int max_fanout = 8;
  // Geometric tolerance for adjacency / rectangle tests.
  double eps = 1e-9;
};

class AfTree {
 public:
  AfTree(int dims, const AfTreeOptions& options);
  ~AfTree();

  AfTree(const AfTree&) = delete;
  AfTree& operator=(const AfTree&) = delete;

  // Inserts one mini bucket with bounding box `rect` holding an estimated
  // `num_points` points. Performs the DSHC merge-or-insert logic.
  void InsertBucket(const Rect& rect, double num_points);

  // The current clusters (one per leaf).
  std::vector<AggregateFeature> Clusters() const;

  size_t num_clusters() const { return num_leaves_; }

  // Structural self-check used by tests: parent links, MBR containment,
  // uniform leaf depth, fanout bounds.
  Status CheckInvariants() const;

 private:
  struct Node;

  // Collects leaves overlapping or adjacent to `rect` into `out`.
  void Search(const Node* node, const Rect& rect,
              std::vector<Node*>& out) const;

  // Bottom-level internal node reached by least-enlargement descent.
  Node* ChooseLeafParent(const Rect& rect) const;

  // Attaches `leaf` under `parent`, splitting on overflow.
  void AttachLeaf(Node* parent, std::unique_ptr<Node> leaf);

  // Removes `leaf` from the tree, pruning empty ancestors.
  void DetachLeaf(Node* leaf);

  // Recomputes MBRs from `node` toward the root, up to the first one that
  // comes out unchanged.
  void UpdateMbrUp(Node* node);

  // Splits `node` (children.size() > max_fanout), propagating upward.
  void SplitNode(Node* node);

  // Repeatedly merges `leaf` with density-closest mergeable neighbors.
  void RecursiveMerge(Node* leaf);

  int dims_;
  AfTreeOptions options_;
  // Def. 5.2's criteria over options_, built once: copying cost_fn, whose
  // captures exceed std::function's inline buffer, allocates.
  MergingCriteria criteria_;
  std::unique_ptr<Node> root_;
  size_t num_leaves_ = 0;
};

}  // namespace dod

#endif  // DOD_DSHC_AF_TREE_H_

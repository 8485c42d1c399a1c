// Copyright 2026 The DOD Authors.

#include "dshc/af_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dod {

struct AfTree::Node {
  Node* parent = nullptr;
  bool is_leaf = false;
  Rect mbr;
  AggregateFeature af;  // valid only when is_leaf
  std::vector<std::unique_ptr<Node>> children;
};

AfTree::AfTree(int dims, const AfTreeOptions& options)
    : dims_(dims),
      options_(options),
      criteria_{options.t_diff, options.t_max_points, options.eps,
                options.cost_fn, options.t_max_cost},
      root_(std::make_unique<Node>()) {
  DOD_CHECK(dims >= 1 && dims <= kMaxDimensions);
  DOD_CHECK(options.max_fanout >= 2);
}

AfTree::~AfTree() = default;

void AfTree::Search(const Node* node, const Rect& rect,
                    std::vector<Node*>& out) const {
  if (node->mbr.empty()) return;
  if (!node->mbr.IsAdjacentTo(rect, options_.eps)) return;
  if (node->is_leaf) {
    out.push_back(const_cast<Node*>(node));
    return;
  }
  for (const auto& child : node->children) Search(child.get(), rect, out);
}

AfTree::Node* AfTree::ChooseLeafParent(const Rect& rect) const {
  Node* node = root_.get();
  while (!node->children.empty() && !node->children.front()->is_leaf) {
    Node* best = nullptr;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (const auto& child : node->children) {
      const double enlargement = child->mbr.Enlargement(rect);
      const double area = child->mbr.Area();
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best = child.get();
        best_enlargement = enlargement;
        best_area = area;
      }
    }
    node = best;
  }
  return node;
}

void AfTree::UpdateMbrUp(Node* node) {
  // Each caller changed boxes on this one root path only, so the walk stops
  // at the first box that comes out unchanged: every box above it is a
  // union of the same child boxes as before.
  while (node != nullptr) {
    if (!node->is_leaf) {
      Rect mbr;
      for (const auto& child : node->children) {
        mbr = mbr.UnionWith(child->mbr);
      }
      if (mbr == node->mbr) return;
      node->mbr = mbr;
    }
    node = node->parent;
  }
}

void AfTree::AttachLeaf(Node* parent, std::unique_ptr<Node> leaf) {
  leaf->parent = parent;
  parent->children.push_back(std::move(leaf));
  ++num_leaves_;
  UpdateMbrUp(parent);
  if (parent->children.size() > static_cast<size_t>(options_.max_fanout)) {
    SplitNode(parent);
  }
}

void AfTree::DetachLeaf(Node* leaf) {
  Node* node = leaf->parent;
  DOD_CHECK(node != nullptr);
  auto it = std::find_if(node->children.begin(), node->children.end(),
                         [&](const std::unique_ptr<Node>& c) {
                           return c.get() == leaf;
                         });
  DOD_CHECK(it != node->children.end());
  node->children.erase(it);
  --num_leaves_;
  // Prune now-empty ancestors (the root may stay empty).
  while (node != root_.get() && node->children.empty()) {
    Node* parent = node->parent;
    auto self = std::find_if(parent->children.begin(), parent->children.end(),
                             [&](const std::unique_ptr<Node>& c) {
                               return c.get() == node;
                             });
    DOD_CHECK(self != parent->children.end());
    parent->children.erase(self);
    node = parent;
  }
  UpdateMbrUp(node);
}

void AfTree::SplitNode(Node* node) {
  // Quadratic split: pick the two children wasting the most area when
  // paired, then distribute the rest by least enlargement.
  std::vector<std::unique_ptr<Node>> entries = std::move(node->children);
  node->children.clear();

  size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      const double waste = entries[i]->mbr.UnionWith(entries[j]->mbr).Area() -
                           entries[i]->mbr.Area() - entries[j]->mbr.Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  std::vector<std::unique_ptr<Node>> group_a, group_b;
  Rect mbr_a = entries[seed_a]->mbr;
  Rect mbr_b = entries[seed_b]->mbr;
  group_a.push_back(std::move(entries[seed_a]));
  group_b.push_back(std::move(entries[seed_b]));
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i] == nullptr) continue;
    const double grow_a = mbr_a.Enlargement(entries[i]->mbr);
    const double grow_b = mbr_b.Enlargement(entries[i]->mbr);
    const bool to_a =
        grow_a < grow_b ||
        (grow_a == grow_b && group_a.size() <= group_b.size());
    if (to_a) {
      mbr_a = mbr_a.UnionWith(entries[i]->mbr);
      group_a.push_back(std::move(entries[i]));
    } else {
      mbr_b = mbr_b.UnionWith(entries[i]->mbr);
      group_b.push_back(std::move(entries[i]));
    }
  }

  if (node == root_.get()) {
    // The whole tree deepens by one level; leaf depth stays uniform.
    auto child_a = std::make_unique<Node>();
    auto child_b = std::make_unique<Node>();
    child_a->parent = node;
    child_b->parent = node;
    child_a->mbr = mbr_a;
    child_b->mbr = mbr_b;
    child_a->children = std::move(group_a);
    child_b->children = std::move(group_b);
    for (auto& c : child_a->children) c->parent = child_a.get();
    for (auto& c : child_b->children) c->parent = child_b.get();
    node->children.push_back(std::move(child_a));
    node->children.push_back(std::move(child_b));
    UpdateMbrUp(node);
    return;
  }

  // Keep group A in `node`, move group B to a new sibling.
  node->children = std::move(group_a);
  for (auto& c : node->children) c->parent = node;
  node->mbr = mbr_a;

  auto sibling = std::make_unique<Node>();
  sibling->parent = node->parent;
  sibling->mbr = mbr_b;
  sibling->children = std::move(group_b);
  for (auto& c : sibling->children) c->parent = sibling.get();

  Node* parent = node->parent;
  parent->children.push_back(std::move(sibling));
  UpdateMbrUp(parent);
  if (parent->children.size() > static_cast<size_t>(options_.max_fanout)) {
    SplitNode(parent);
  }
}

void AfTree::RecursiveMerge(Node* leaf) {
  while (true) {
    std::vector<Node*> lmc;
    Search(root_.get(), leaf->mbr, lmc);
    Node* best = nullptr;
    double best_diff = std::numeric_limits<double>::infinity();
    for (Node* other : lmc) {
      if (other == leaf) continue;
      if (!criteria_.CanMerge(leaf->af, other->af)) continue;
      const double diff = std::fabs(leaf->af.density() - other->af.density());
      if (diff < best_diff) {
        best_diff = diff;
        best = other;
      }
    }
    if (best == nullptr) break;
    const AggregateFeature merged = AggregateFeature::Merge(leaf->af, best->af);
    DetachLeaf(best);
    leaf->af = merged;
    leaf->mbr = merged.bounds;
    UpdateMbrUp(leaf->parent);
  }
}

void AfTree::InsertBucket(const Rect& rect, double num_points) {
  DOD_CHECK(rect.dims() == dims_);
  const AggregateFeature bucket{num_points, rect};

  // First bucket: the only cluster in the tree.
  if (root_->children.empty()) {
    auto leaf = std::make_unique<Node>();
    leaf->is_leaf = true;
    leaf->af = bucket;
    leaf->mbr = rect;
    AttachLeaf(root_.get(), std::move(leaf));
    return;
  }

  std::vector<Node*> lmc;
  Search(root_.get(), rect, lmc);

  // Merge path: fold the bucket into the most density-similar cluster that
  // satisfies all merging criteria.
  Node* best = nullptr;
  double best_diff = std::numeric_limits<double>::infinity();
  for (Node* candidate : lmc) {
    if (!criteria_.CanMerge(candidate->af, bucket)) continue;
    const double diff =
        std::fabs(candidate->af.density() - bucket.density());
    if (diff < best_diff) {
      best_diff = diff;
      best = candidate;
    }
  }
  if (best != nullptr) {
    best->af = AggregateFeature::Merge(best->af, bucket);
    best->mbr = best->af.bounds;
    UpdateMbrUp(best->parent);
    RecursiveMerge(best);
    return;
  }

  // Insert path: a new independent cluster. Prefer the parent of the most
  // density-similar LMC member; otherwise least-enlargement descent.
  auto leaf = std::make_unique<Node>();
  leaf->is_leaf = true;
  leaf->af = bucket;
  leaf->mbr = rect;
  Node* parent = nullptr;
  if (!lmc.empty()) {
    Node* closest = nullptr;
    double diff = std::numeric_limits<double>::infinity();
    for (Node* candidate : lmc) {
      const double d = std::fabs(candidate->af.density() - bucket.density());
      if (d < diff) {
        diff = d;
        closest = candidate;
      }
    }
    parent = closest->parent;
  } else {
    parent = ChooseLeafParent(rect);
  }
  AttachLeaf(parent, std::move(leaf));
}

std::vector<AggregateFeature> AfTree::Clusters() const {
  std::vector<AggregateFeature> out;
  out.reserve(num_leaves_);
  // Iterative DFS.
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf) {
      out.push_back(node->af);
      continue;
    }
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return out;
}

Status AfTree::CheckInvariants() const {
  struct Checker {
    const AfTree* tree;
    Status status = Status::Ok();
    int leaf_depth = -1;

    void Visit(const Node* node, const Node* parent, int depth) {
      if (!status.ok()) return;
      if (node->parent != parent) {
        status = Status::Internal("bad parent pointer");
        return;
      }
      if (node->is_leaf) {
        if (!(node->mbr == node->af.bounds)) {
          status = Status::Internal("leaf mbr != af bounds");
          return;
        }
        if (leaf_depth < 0) leaf_depth = depth;
        if (leaf_depth != depth) {
          status = Status::Internal("non-uniform leaf depth");
        }
        return;
      }
      if (node->children.size() >
          static_cast<size_t>(tree->options_.max_fanout)) {
        status = Status::Internal("fanout overflow");
        return;
      }
      if (node != tree->root_.get() && node->children.empty()) {
        status = Status::Internal("empty non-root internal node");
        return;
      }
      Rect mbr;
      for (const auto& child : node->children) {
        mbr = mbr.UnionWith(child->mbr);
        Visit(child.get(), node, depth + 1);
        if (!status.ok()) return;
      }
      if (!node->children.empty() && !(mbr == node->mbr)) {
        status = Status::Internal("stale mbr");
      }
    }
  };
  Checker checker{this};
  checker.Visit(root_.get(), nullptr, 0);
  return checker.status;
}

}  // namespace dod

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

/// \file union_find.h
/// Disjoint-set forest over catalog entry ids with a *min-root* union
/// policy: when two classes merge, the smaller root wins. Because ids are
/// assigned in insertion order, a class's representative is therefore always
/// its oldest member — a stable, deterministic choice that survives any
/// merge order and makes probe output reproducible.

namespace geqo::serve {

/// \brief Union-find with path compression and min-root union.
class UnionFind {
 public:
  /// Registers the next element as its own singleton class; returns its id.
  size_t Add() {
    parent_.push_back(parent_.size());
    class_size_.push_back(1);
    ++num_classes_;
    return parent_.size() - 1;
  }

  /// Representative (smallest id) of \p x's class. A pure read — no path
  /// compression — so any number of concurrent Finds are race-free as long
  /// as writers (Add/Union/Restore) are excluded, which is exactly the
  /// sharded serving layer's reader-writer locking discipline.
  size_t Find(size_t x) const {
    GEQO_DCHECK(x < parent_.size());
    while (parent_[x] != x) x = parent_[x];
    return x;
  }

  /// Merges the classes of \p a and \p b; the smaller root becomes the
  /// representative. Returns false if they were already joined. Compresses
  /// the two touched paths (writers hold exclusive access anyway, and
  /// Union-side compression keeps the read-only Find's chains short).
  bool Union(size_t a, size_t b) {
    a = FindAndCompress(a);
    b = FindAndCompress(b);
    if (a == b) return false;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
    class_size_[a] += class_size_[b];
    --num_classes_;
    return true;
  }

  size_t size() const { return parent_.size(); }
  size_t NumClasses() const { return num_classes_; }
  /// Number of members in \p x's class — O(path), no scan of the elements.
  size_t ClassSize(size_t x) const { return class_size_[Find(x)]; }

  /// Fully-compressed parent array (parent[i] == Find(i)): the canonical
  /// serialized form, independent of the merge/lookup history that shaped
  /// the internal forest.
  std::vector<size_t> CompressedParents() const {
    std::vector<size_t> out(parent_.size());
    for (size_t i = 0; i < parent_.size(); ++i) out[i] = Find(i);
    return out;
  }

  /// Rebuilds the forest from a compressed parent array. Under the min-root
  /// policy every parent points at an equal-or-smaller id and every root is
  /// its own parent; anything else is rejected as corruption.
  Status Restore(std::vector<size_t> parents) {
    for (size_t i = 0; i < parents.size(); ++i) {
      if (parents[i] > i) {
        return Status::InvalidArgument(
            "union-find: parent " + std::to_string(parents[i]) +
            " exceeds element " + std::to_string(i) + " (corrupt snapshot)");
      }
      if (parents[parents[i]] != parents[i]) {
        return Status::InvalidArgument(
            "union-find: element " + std::to_string(i) +
            " points at a non-root parent (corrupt snapshot)");
      }
    }
    size_t roots = 0;
    std::vector<size_t> class_size(parents.size(), 0);
    for (size_t i = 0; i < parents.size(); ++i) {
      if (parents[i] == i) ++roots;
      ++class_size[parents[i]];
    }
    parent_ = std::move(parents);
    class_size_ = std::move(class_size);
    num_classes_ = roots;
    return Status::OK();
  }

 private:
  /// Find with path halving, for mutating contexts only; compression never
  /// changes the represented partition.
  size_t FindAndCompress(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  std::vector<size_t> parent_;
  std::vector<size_t> class_size_;  ///< member count, valid at roots only
  size_t num_classes_ = 0;
};

}  // namespace geqo::serve

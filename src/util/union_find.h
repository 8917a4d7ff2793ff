// Disjoint-set forest with union by rank and path halving.
//
// Used by: k-clique percolation and community merge postprocessing.

#ifndef OCA_UTIL_UNION_FIND_H_
#define OCA_UTIL_UNION_FIND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace oca {

/// Disjoint-set over the integers [0, size). Near-O(1) amortized ops.
class UnionFind {
 public:
  explicit UnionFind(size_t size);

  /// Returns the canonical representative of x's set (with path halving).
  uint32_t Find(uint32_t x);

  /// Merges the sets of a and b; returns true if they were distinct.
  bool Union(uint32_t a, uint32_t b);

  /// True when a and b are currently in the same set.
  bool Connected(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

  /// Number of elements in x's set.
  uint32_t SetSize(uint32_t x) { return size_[Find(x)]; }

  /// Current number of disjoint sets.
  size_t num_sets() const { return num_sets_; }

  size_t size() const { return parent_.size(); }

  /// Groups all elements by representative; each inner vector is one set,
  /// elements in ascending order, sets ordered by smallest element.
  std::vector<std::vector<uint32_t>> Groups();

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> rank_;
  std::vector<uint32_t> size_;
  size_t num_sets_;
};

}  // namespace oca

#endif  // OCA_UTIL_UNION_FIND_H_

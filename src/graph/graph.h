// Immutable compressed-sparse-row (CSR) representation of a simple
// undirected graph, polymorphic over its storage backend.
//
// This is the substrate every algorithm in the library runs on. Neighbor
// lists are sorted, self-loops and parallel edges are excluded by
// construction (see GraphBuilder), and the structure never changes after
// construction, so algorithms may share a Graph across threads freely.
//
// Backends. A Graph is a pair of CSR array VIEWS (offsets, neighbors)
// plus whatever keeps them alive:
//   * in-memory — the Graph owns two std::vectors (the historical and
//     still default backend; GraphBuilder::Build produces these);
//   * memory-mapped — the views point into a read-only mmap of an OCAG
//     graph file and a shared keep-alive handle holds the mapping open
//     (see graph/mmap_graph.h; files come from io/graph_serialize or the
//     streaming GraphBuilder::BuildToFile).
// There is deliberately NO virtual dispatch: every accessor reads the
// same two spans regardless of backend, so the CSR mat-vec kernel
// (spectral/csr_matvec.h), the k-core/OCA scan loops, and every digest
// pin (threads x reordering) behave identically — and are
// bit-identical — on both backends. The backend choice is a memory/IO
// trade, never an observable one (tests/graph/backend_equivalence_test
// enforces this).
//
// Weights. A Graph may additionally carry one per-edge double weight as
// a THIRD CSR array aligned with `neighbors` (entry e weights the edge
// `neighbors[e]` of its row; the two directions of an undirected edge
// carry the same value). Like the other two arrays it is a span over
// either owned storage or the mmap backing (.ocag format v2), with zero
// dispatch on the hot path. A weightless graph has an EMPTY weight view
// and takes exactly the unweighted code path everywhere — kernels,
// fitness, serialization — so every unweighted digest pin is untouched
// by this axis (tests/core/weighted_differential_test enforces this).

#ifndef OCA_GRAPH_GRAPH_H_
#define OCA_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace oca {

/// Node identifier: dense, zero-based.
using NodeId = uint32_t;

/// Undirected edge as an (u, v) pair; canonical form has u < v.
using Edge = std::pair<NodeId, NodeId>;

/// Undirected weighted edge in canonical (u < v) orientation.
struct WeightedEdge {
  NodeId u = 0;
  NodeId v = 0;
  double weight = 1.0;
};

/// Immutable simple undirected graph in CSR form.
///
/// `num_edges()` counts undirected edges (each stored twice internally).
/// Neighbor ranges are sorted ascending, enabling O(log d) adjacency tests
/// and linear-time sorted-merge intersections.
class Graph {
 public:
  /// Empty graph.
  Graph() : offsets_(1, 0) { RebindOwnedViews(); }

  /// Takes ownership of validated CSR arrays (the in-memory backend).
  /// Prefer GraphBuilder; this is for deserialization and internal use.
  /// `offsets` must have n+1 entries, `neighbors` 2m entries, each list
  /// sorted, symmetric, loop-free. `original_ids`, when non-empty, must
  /// be a permutation of [0, n) recording the external id of each node
  /// (see OriginalId below).
  Graph(std::vector<uint64_t> offsets, std::vector<NodeId> neighbors,
        std::vector<NodeId> original_ids = {})
      : offsets_(std::move(offsets)),
        neighbors_(std::move(neighbors)),
        original_ids_(std::move(original_ids)) {
    RebindOwnedViews();
  }

  /// Weighted owning constructor: `weights` must either be empty
  /// (unweighted) or have exactly neighbors.size() entries, symmetric
  /// across edge directions, each finite and > 0 (ValidateGraph checks).
  Graph(std::vector<uint64_t> offsets, std::vector<NodeId> neighbors,
        std::vector<double> weights, std::vector<NodeId> original_ids)
      : offsets_(std::move(offsets)),
        neighbors_(std::move(neighbors)),
        weights_(std::move(weights)),
        original_ids_(std::move(original_ids)) {
    RebindOwnedViews();
  }

  /// Non-owning backend: views into storage kept alive by `backing`
  /// (an mmap'd graph file; see graph/mmap_graph.h). The views must
  /// satisfy the same CSR invariants as the owning constructor and must
  /// remain valid for the lifetime of `backing`. Copies of the Graph
  /// share the backing.
  static Graph FromExternal(std::span<const uint64_t> offsets,
                            std::span<const NodeId> neighbors,
                            std::shared_ptr<const void> backing,
                            std::vector<NodeId> original_ids = {}) {
    return FromExternal(offsets, neighbors, {}, std::move(backing),
                        std::move(original_ids));
  }

  /// Weighted external backend (an .ocag v2 mapping): `weights` must be
  /// empty or neighbors.size() long, same invariants as the owning
  /// weighted constructor.
  static Graph FromExternal(std::span<const uint64_t> offsets,
                            std::span<const NodeId> neighbors,
                            std::span<const double> weights,
                            std::shared_ptr<const void> backing,
                            std::vector<NodeId> original_ids = {}) {
    Graph g;
    g.offsets_.clear();
    g.original_ids_ = std::move(original_ids);
    g.backing_ = std::move(backing);
    g.offsets_view_ = offsets;
    g.neighbors_view_ = neighbors;
    g.weights_view_ = weights;
    return g;
  }

  // Views point into our own vectors (in-memory backend), so copies and
  // moves must re-anchor them onto the destination's storage; for the
  // external backend the views target the shared backing and transfer
  // verbatim.
  Graph(const Graph& other)
      : id_(other.id_),
        offsets_(other.offsets_),
        neighbors_(other.neighbors_),
        weights_(other.weights_),
        original_ids_(other.original_ids_),
        backing_(other.backing_),
        offsets_view_(other.offsets_view_),
        neighbors_view_(other.neighbors_view_),
        weights_view_(other.weights_view_) {
    if (!backing_) RebindOwnedViews();
  }
  Graph& operator=(const Graph& other) {
    if (this != &other) {
      id_ = other.id_;
      offsets_ = other.offsets_;
      neighbors_ = other.neighbors_;
      weights_ = other.weights_;
      original_ids_ = other.original_ids_;
      backing_ = other.backing_;
      offsets_view_ = other.offsets_view_;
      neighbors_view_ = other.neighbors_view_;
      weights_view_ = other.weights_view_;
      if (!backing_) RebindOwnedViews();
    }
    return *this;
  }
  Graph(Graph&& other) noexcept
      : id_(other.id_),
        offsets_(std::move(other.offsets_)),
        neighbors_(std::move(other.neighbors_)),
        weights_(std::move(other.weights_)),
        original_ids_(std::move(other.original_ids_)),
        backing_(std::move(other.backing_)),
        offsets_view_(other.offsets_view_),
        neighbors_view_(other.neighbors_view_),
        weights_view_(other.weights_view_) {
    if (!backing_) RebindOwnedViews();
    other.ResetToEmpty();
  }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) {
      id_ = other.id_;
      offsets_ = std::move(other.offsets_);
      neighbors_ = std::move(other.neighbors_);
      weights_ = std::move(other.weights_);
      original_ids_ = std::move(other.original_ids_);
      backing_ = std::move(other.backing_);
      offsets_view_ = other.offsets_view_;
      neighbors_view_ = other.neighbors_view_;
      weights_view_ = other.weights_view_;
      if (!backing_) RebindOwnedViews();
      other.ResetToEmpty();
    }
    return *this;
  }

  /// Identity of this graph's contents, for caches keyed on a graph.
  /// Every constructor that builds new contents (the owning ones,
  /// FromExternal) and every reset to empty takes a fresh id from a
  /// process-wide counter, so two graphs alive at different times never
  /// share one, even over the same storage. Copies and moves keep the
  /// id: they hold the same arrays. Never 0.
  uint64_t id() const { return id_; }

  /// Number of nodes n.
  size_t num_nodes() const {
    return offsets_view_.empty() ? 0 : offsets_view_.size() - 1;
  }

  /// Number of undirected edges m.
  size_t num_edges() const { return neighbors_view_.size() / 2; }

  /// Degree of v.
  size_t Degree(NodeId v) const {
    return static_cast<size_t>(offsets_view_[v + 1] - offsets_view_[v]);
  }

  /// Sorted neighbors of v as a non-owning view.
  std::span<const NodeId> Neighbors(NodeId v) const {
    return {neighbors_view_.data() + offsets_view_[v],
            neighbors_view_.data() + offsets_view_[v + 1]};
  }

  /// True when this graph carries per-edge weights. Weightless graphs
  /// take the unweighted code path everywhere — this predicate is the
  /// only dispatch the weighted axis adds.
  bool is_weighted() const { return !weights_view_.empty(); }

  /// Weights of v's incident edges, aligned with Neighbors(v) entry for
  /// entry. EMPTY when the graph is unweighted — callers on a possibly
  /// unweighted graph must branch on is_weighted() first.
  std::span<const double> Weights(NodeId v) const {
    if (weights_view_.empty()) return {};
    return {weights_view_.data() + offsets_view_[v],
            weights_view_.data() + offsets_view_[v + 1]};
  }

  /// Weight of the edge {u, v}: the stored weight when weighted, 1.0
  /// for an unweighted graph, 0.0 when {u, v} is not an edge.
  /// O(log deg(u)).
  double EdgeWeight(NodeId u, NodeId v) const;

  /// Weighted degree of v: sum of incident edge weights in neighbor
  /// order (deterministic). Equals Degree(v) exactly when unweighted.
  /// O(deg).
  double WeightedDegree(NodeId v) const;

  /// Maximum weighted degree (the weighted Gershgorin row-sum bound for
  /// the adjacency spectrum). Equals MaxDegree() when unweighted. O(m).
  double MaxWeightedDegree() const;

  /// Total weight of all undirected edges (= m when unweighted). O(m).
  double TotalWeight() const;

  /// True when {u, v} is an edge. O(log deg) via binary search on the
  /// smaller endpoint's list.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Maximum degree over all nodes (0 for the empty graph).
  size_t MaxDegree() const;

  /// Average degree 2m/n (0 for the empty graph).
  double AverageDegree() const;

  /// Calls fn(u, v) once per undirected edge, with u < v, ascending order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (NodeId u = 0; u < num_nodes(); ++u) {
      for (NodeId v : Neighbors(u)) {
        if (v > u) fn(u, v);
      }
    }
  }

  /// Calls fn(u, v, w) once per undirected edge with its weight (1.0
  /// throughout when unweighted), u < v, ascending order.
  template <typename Fn>
  void ForEachWeightedEdge(Fn&& fn) const {
    const bool weighted = is_weighted();
    for (NodeId u = 0; u < num_nodes(); ++u) {
      auto nbrs = Neighbors(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] > u) {
          fn(u, nbrs[i],
             weighted ? weights_view_[offsets_view_[u] + i] : 1.0);
        }
      }
    }
  }

  /// Materializes the canonical (u < v) edge list.
  std::vector<Edge> Edges() const;

  /// Materializes the canonical weighted edge list (weights 1.0 when
  /// unweighted).
  std::vector<WeightedEdge> WeightedEdges() const;

  /// True when this graph's node ids were relabeled at build time (a
  /// cache-aware reordering pass, see GraphBuilder/ReorderGraph). All
  /// algorithms operate on the graph-local ids; results are translated
  /// back through OriginalId for reporting.
  bool is_reordered() const { return !original_ids_.empty(); }

  /// The external (pre-reorder) id of graph-local node v. Identity when
  /// the graph was never reordered. Reordering a reordered graph
  /// composes: OriginalId always refers to the ORIGINAL labeling.
  NodeId OriginalId(NodeId v) const {
    return original_ids_.empty() ? v : original_ids_[v];
  }

  /// new-id -> original-id permutation; empty means identity. Note the
  /// binary serialization format (io/graph_serialize) stores structure
  /// only — a round-trip drops the permutation.
  const std::vector<NodeId>& original_ids() const { return original_ids_; }

  /// Raw CSR accessors (serialization, kernels, tests). Views are valid
  /// as long as this Graph (or, for the mapped backend, any copy of it)
  /// is alive.
  std::span<const uint64_t> offsets() const { return offsets_view_; }
  std::span<const NodeId> neighbor_array() const { return neighbors_view_; }

  /// Raw per-edge weight array aligned with neighbor_array(); empty for
  /// unweighted graphs.
  std::span<const double> weight_array() const { return weights_view_; }

  /// True when the CSR arrays live in externally-backed storage (an
  /// mmap'd graph file) instead of owned heap vectors.
  bool is_mapped() const { return backing_ != nullptr; }

  /// Estimated HEAP-resident memory in bytes. For the mapped backend
  /// this counts only the owned side tables (original_ids) — the CSR
  /// arrays are file pages the OS can drop and refetch at will.
  size_t MemoryBytes() const {
    return offsets_.capacity() * sizeof(uint64_t) +
           neighbors_.capacity() * sizeof(NodeId) +
           weights_.capacity() * sizeof(double) +
           original_ids_.capacity() * sizeof(NodeId);
  }

 private:
  void RebindOwnedViews() {
    offsets_view_ = {offsets_.data(), offsets_.size()};
    neighbors_view_ = {neighbors_.data(), neighbors_.size()};
    weights_view_ = {weights_.data(), weights_.size()};
  }
  void ResetToEmpty() {
    id_ = NextId();
    offsets_.assign(1, 0);
    neighbors_.clear();
    weights_.clear();
    original_ids_.clear();
    backing_.reset();
    RebindOwnedViews();
  }

  static uint64_t NextId();

  uint64_t id_ = NextId();
  std::vector<uint64_t> offsets_;   // n+1 prefix offsets (in-memory backend)
  std::vector<NodeId> neighbors_;   // concatenated sorted adjacency lists
  std::vector<double> weights_;     // per-edge weights; empty = unweighted
  std::vector<NodeId> original_ids_;  // new -> original; empty = identity
  std::shared_ptr<const void> backing_;  // keep-alive for external storage
  std::span<const uint64_t> offsets_view_;   // the arrays every accessor reads
  std::span<const NodeId> neighbors_view_;
  std::span<const double> weights_view_;
};

}  // namespace oca

#endif  // OCA_GRAPH_GRAPH_H_

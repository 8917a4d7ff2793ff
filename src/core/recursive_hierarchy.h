// Recursive per-community hierarchy (the paper's stated future work:
// "now that the communities are identified, we will explore the
// hierarchies and relations among them").
//
// Where core/hierarchy.h sweeps the coupling constant over ONE graph
// (c as a resolution knob), this module recurses into the communities
// themselves: run OCA at the top level, extract each sufficiently large
// and sufficiently sparse community's induced subgraph, re-resolve the
// subgraph's own admissible coupling c = -1/lambda_min, run OCA inside
// it, and repeat until communities stop splitting. The result is a tree
// of nested communities in original node ids.
//
// The spectral piece that makes the recursion cheap is a cross-graph
// warm-start chain: every subgraph solve is seeded with the parent
// graph's converged lambda_min eigenvector restricted (through
// Subgraph::to_original) onto the subgraph's node set, so nested solves
// start from a physically informed vector instead of cold random. The
// per-node stats record what each solve cost and whether it was warm,
// so warm-vs-cold savings are measurable (bench_recursive_hierarchy).
//
// PARALLELISM. Sibling subtrees are independent: once a node's subgraph
// run has produced its children, each child's whole expansion (induced
// subgraph, coupling solve, inner OCA, stability filter) depends only on
// that child's community and its parent's published eigenvector. With
// `num_threads >= 1` the build therefore runs expansions as a work queue
// on util/thread_pool, one stateful SpectralEngine per worker
// (SpectralEngineSet); the warm-start chain crosses engines by value —
// ancestor eigenvectors travel with the task (an immutable chain of
// links), never through shared engine state. The queue is
// depth-prioritized: among pending expansions workers always pick the
// deepest, so a subtree is driven to its leaves (releasing its chain
// links) before workers fan across shallow siblings. Determinism is
// structural, not scheduled: every expansion is a pure function of
// (community, depth, ancestor chain, batch seed), and children get
// stable identities from (depth, parent, community index), so the arena
// is assembled in canonical BFS order regardless of completion order —
// serial (num_threads == 0) and N-thread builds are byte-identical
// (pinned by tests and the CI thread matrix).

#ifndef OCA_CORE_RECURSIVE_HIERARCHY_H_
#define OCA_CORE_RECURSIVE_HIERARCHY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/oca.h"

namespace oca {

struct RecursiveHierarchyOptions {
  /// Base OCA configuration (seed, halting, postprocessing), applied to
  /// the top-level run and to every subgraph run. The coupling constant
  /// is re-resolved per graph and must be left at "compute" (<= 0). One
  /// exception to the shared seed: a root that spans the whole graph
  /// runs with a seed derived from base.seed, since with base.seed
  /// itself its run would replay the top-level run.
  OcaOptions base;

  /// Communities smaller than this are leaves (stop reason "min_size").
  size_t min_split_size = 10;

  /// Communities whose internal edge density (2m / s(s-1)) is at least
  /// this are leaves (stop reason "density"): a near-clique has no inner
  /// structure for OCA to find.
  double max_split_density = 0.95;

  /// Maximum tree depth; top-level communities have depth 0, so at most
  /// max_depth + 1 community layers exist (stop reason "max_depth").
  size_t max_depth = 6;

  /// A found sub-community whose rho-similarity (Jaccard) to its parent
  /// is >= this is the parent re-found at the subgraph's own resolution,
  /// not a split, and is dropped; a node where nothing else was found is
  /// a leaf (stop reason "stable"). Children are always subsets of the
  /// parent, so every surviving child has rho = |child|/|parent| below
  /// this bound — strictly smaller than its parent — and the recursion
  /// terminates even without the depth cap.
  double stable_similarity = 0.9;

  /// Feed each subgraph solve the parent eigenvector restriction
  /// (SpectralEngine::WarmStartFromParent). Off = every subgraph solve
  /// starts cold; exists so benchmarks and tests can measure the chain.
  bool warm_start = true;

  /// Batch sibling warm-start seeds through the multi-vector CSR kernel:
  /// when a node splits into k children, all k restriction mat-vecs run
  /// as ONE SpMM pass over the parent subgraph (chunks of
  /// kMaxMatVecBatch), producing a shifted-power-polished seed per child
  /// — one adjacency sweep where the unbatched chain pays one per child,
  /// and a better seed than the raw restriction (one step of
  /// (sigma*I - A) amplifies the lambda_min component). Requires
  /// `warm_start`. NOTE: the polished seed changes each child solve's
  /// start vector, so iteration counts and low-order spectral bits —
  /// and therefore Digest() — are comparable only at a fixed setting of
  /// this flag (they stay invariant across threads and kernels as
  /// always). Off = the per-child WarmStartFromParent
  /// restriction, exactly the pre-batching behavior.
  bool batch_restrictions = true;

  /// Worker threads for sibling-subtree expansion. 0 runs the serial
  /// reference implementation (single engine, plain BFS loop); N >= 1
  /// runs the pooled scheduler with N workers and one engine per worker.
  /// NOTE: unlike OcaOptions::num_threads, 0 does NOT mean "hardware
  /// concurrency" here — the serial path is deliberately preserved as
  /// the reference the parallel path is pinned against. Output is
  /// byte-identical for every value (see Digest()). Worker engines run
  /// their mat-vec serially (sibling-level parallelism replaces it; the
  /// fixed-block reduction makes results identical either way), while
  /// base.num_threads still applies inside each subgraph's OCA run:
  /// base.num_threads > 1 gives every subgraph run its own pool, which
  /// climbs whole seed batches ahead, although a subgraph run typically
  /// halts a few seeds into its first batch (OcaRunStats::climbs).
  size_t num_threads = 0;

  /// Test-only fault injection: when set, called right before each
  /// subgraph coupling solve with the node's community (original ids)
  /// and depth; a non-OK status makes that solve fail. Exists so error
  /// propagation through the parallel scheduler is testable — a failing
  /// worker must surface its status without deadlocking the queue.
  /// Leave null outside tests.
  std::function<Status(const Community&, uint32_t depth)>
      solve_fault_for_testing;
};

/// One node of the recursion tree. `community` is in ORIGINAL graph ids
/// (mapped back through Subgraph::to_original), sorted ascending.
struct RecursiveCommunity {
  Community community;
  uint32_t parent = UINT32_MAX;    // arena index; kNoParent for roots
  std::vector<uint32_t> children;  // arena indices
  uint32_t depth = 0;              // 0 = found by the top-level run

  /// Why the recursion stopped here: "split" (has children), or a leaf
  /// reason: "min_size", "density", "max_depth", "stable",
  /// "no_communities" (subgraph run found nothing above the size floor),
  /// "edgeless" (induced subgraph has no internal edges).
  std::string stop_reason;

  /// Spectral record of THIS node's subgraph solve (set whenever the
  /// subgraph was solved, i.e. stop_reason is "split", "stable" or
  /// "no_communities"; zero otherwise). `subgraph_c` is the admissible
  /// coupling re-resolved on the induced subgraph and is what the inner
  /// OCA ran with.
  double subgraph_c = 0.0;
  double subgraph_lambda_min = 0.0;
  size_t spectral_iterations = 0;  // Lanczos steps of the coupling solve
  bool warm_started = false;       // parent-eigenvector restriction used
  /// How far up the ancestor chain the warm-start seed came from:
  /// 0 = cold (no usable seed), 1 = the immediate parent (batched polish
  /// or direct restriction), d >= 2 = the parent's restriction was
  /// degenerate (child carries ~no mass of the parent eigenvector) and
  /// the walk-up found usable mass d levels above instead.
  uint32_t warm_start_distance = 0;

  /// Full OcaRunStats of this node's subgraph run (same condition as
  /// above). For roots the run is the top-level one, recorded once in
  /// RecursiveHierarchy::root_stats instead.
  OcaRunStats split_stats;

  /// True when this node's induced subgraph was spectrally solved and
  /// searched (stop_reason "split", "stable" or "no_communities") — the
  /// condition under which the spectral record above is populated.
  bool SubgraphSolved() const { return subgraph_c > 0.0; }
};

/// Aggregate accounting of the warm-start chain across the whole build.
struct SpectralChainStats {
  size_t subgraph_solves = 0;        // coupling solves below the root
  size_t warm_started_solves = 0;    // of which seeded from a parent
  size_t total_iterations = 0;       // Lanczos steps summed over them
};

/// How the build was scheduled. Everything here except `max_concurrent`
/// is deterministic; `max_concurrent` depends on OS scheduling and is
/// therefore excluded from Digest() and determinism tests.
struct RecursiveSchedulingStats {
  size_t num_workers = 0;     // pool workers (0 = serial reference path)
  size_t tasks_run = 0;       // expansion tasks executed (== tree nodes)
  size_t max_concurrent = 0;  // peak simultaneously running expansions
  /// warm_started_solves / subgraph_solves (0 when nothing was solved).
  double warm_start_hit_rate = 0.0;
  /// Solves whose seed came from a non-parent ancestor (distance >= 2):
  /// the immediate parent's restriction was degenerate but the walk-up
  /// recovered a usable seed higher in the chain.
  size_t ancestor_warm_hits = 0;
  /// Deepest ancestor distance any solve's seed travelled (0 when every
  /// solve was cold).
  size_t max_warm_start_distance = 0;
};

/// Per-depth rollup (communities found at that depth and what producing
/// their NEXT level cost).
struct RecursiveLevelSummary {
  size_t depth = 0;
  size_t communities = 0;       // tree nodes at this depth
  size_t split = 0;             // of which have children
  size_t subgraph_solves = 0;   // coupling solves run on their subgraphs
  size_t warm_started = 0;
  size_t spectral_iterations = 0;
};

struct RecursiveHierarchy {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// Tree arena in BFS order: roots first, then depth 1, etc. Children
  /// of any node are contiguous in `children` order.
  std::vector<RecursiveCommunity> nodes;
  std::vector<uint32_t> roots;  // arena indices of the top-level cover

  /// Stats of the top-level whole-graph run (its lambda_min/c are the
  /// flat pipeline's).
  OcaRunStats root_stats;
  SpectralChainStats chain;
  RecursiveSchedulingStats scheduling;
  size_t max_depth_reached = 0;  // deepest populated depth

  /// All root-to-deepest membership chains of original node v: each path
  /// is a list of arena indices, starting at a root containing v and
  /// following children containing v to a node where no child does.
  /// Overlapping covers can give several paths; a node in no root
  /// community gets none.
  std::vector<std::vector<uint32_t>> MembershipPaths(NodeId v) const;

  /// Per-depth rollup of the tree, index == depth.
  std::vector<RecursiveLevelSummary> LevelSummaries() const;

  /// The tree's finest resolution as a flat canonical cover: one
  /// community per leaf (nodes without children). This is what
  /// downstream metrics compare against a planted fine scale.
  Cover LeafCover() const;

  /// FNV-1a fingerprint of every deterministic field of the tree: node
  /// communities, parents/depths/stop reasons, the spectral record
  /// (exact bit patterns of subgraph_c / lambda_min), the deterministic
  /// OcaRunStats fields of each split, and the chain totals. Wall-clock
  /// timings and scheduling stats are excluded. Equal trees — including
  /// a serial and an N-thread build of the same input — have equal
  /// digests; this is what the determinism tests and the CI thread
  /// matrix compare across thread counts.
  uint64_t Digest() const;

  /// Rewrites every community in the tree from graph-local ids into
  /// original ids (Graph::OriginalId), re-sorting each community.
  /// `graph` must be the (reordered) graph the tree was built on; a
  /// no-op when it carries no permutation. After mapping,
  /// MembershipPaths/LeafCover speak original ids, and Digest() is
  /// comparable across thread counts for the same reordered input. (It is NOT bit-comparable against a build on the
  /// un-reordered graph: relabeling reassociates the kernel's
  /// floating-point sums, so spectral quantities differ in low-order
  /// bits even though the recovered structure matches.)
  void MapToOriginalIds(const Graph& graph);
};

/// Runs the recursive build. Errors propagate from RunOca and on invalid
/// options (base.coupling_constant > 0, min_split_size < 2, stable or
/// density thresholds outside (0, 1]).
Result<RecursiveHierarchy> BuildRecursiveHierarchy(
    const Graph& graph, const RecursiveHierarchyOptions& options);

/// The cross-solve batcher (exposed for tests and benchmarks): computes
/// one warm-start seed per child community from a parent graph's
/// converged lambda_min `eigenvector`, fusing ALL children's restriction
/// mat-vecs through the multi-vector CSR kernel in chunks of
/// kMaxMatVecBatch — one adjacency sweep per chunk instead of one per
/// child.
///
/// Per child j the seed is one shifted-power polish of the masked
/// restriction: x_j = eigenvector masked to child j's nodes (in
/// `graph`-local ids), w_j = (sigma*I - A) x_j with sigma =
/// graph.MaxDegree() (so sigma - lambda > 0 weights the lambda_min
/// component hardest), restricted back to child j's nodes and
/// normalized. The returned seed is ordered by the child's SORTED
/// original ids — exactly the local order InducedSubgraph will assign —
/// so it can be fed to SpectralEngine::SetWarmStart for that child's
/// solve as-is.
///
/// `to_original` maps graph-local index -> original id (sorted
/// ascending; null = `graph` IS the original graph, identity map).
/// `children` are in original ids, each sorted ascending, each a subset
/// of the parent's node set. A child whose restricted mass is below the
/// usable-signal floor (same 1e-6 rule as WarmStartFromParent) gets an
/// EMPTY seed — the caller falls back to the ancestor walk-up. The
/// chunk split is deterministic and each output column's bits are
/// independent of the chunk width (multi-kernel column contract), so
/// seeds do not depend on sibling count or order.
std::vector<std::vector<double>> BatchRestrictionSeeds(
    const Graph& graph, const std::vector<double>& eigenvector,
    const std::vector<NodeId>* to_original,
    const std::vector<Community>& children);

}  // namespace oca

#endif  // OCA_CORE_RECURSIVE_HIERARCHY_H_

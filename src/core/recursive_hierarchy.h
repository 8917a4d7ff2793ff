// Recursive per-community hierarchy (the paper's stated future work:
// "now that the communities are identified, we will explore the
// hierarchies and relations among them").
//
// Lowering c over one graph barely refines its cover (c is a weak
// resolution knob; see bench_recursive_hierarchy's flat column), so
// this module recurses into the communities themselves: run OCA at the
// top level, extract each sufficiently large and sufficiently sparse
// community's induced subgraph, re-resolve the subgraph's own
// admissible coupling c = -1/lambda_min, run OCA inside it, and repeat
// until communities stop splitting. The result is a tree of nested
// communities in original node ids.
//
// Each subgraph's c is resolved by its own RunOca, on the engine the
// expansion runs with, from a random start vector like every other
// solve. Seeding children from the parent's eigenvector was tried and
// measured: it saved 5-10% of the Lanczos steps but rebuilding that
// eigenvector doubled the mat-vecs of every solve, so cold builds were
// faster with identical trees.
//
// PARALLELISM. Sibling subtrees are independent: once a node's subgraph
// run has produced its children, each child's whole expansion (induced
// subgraph, inner OCA with its coupling solve, stability filter)
// depends only on that child's community and depth. With
// `num_threads >= 1` the build therefore runs expansions as a work queue
// on util/thread_pool, one stateful SpectralEngine per worker
// (SpectralEngineSet). The root phase before them, the root solve and
// the top-level run, is one graph's work; it gets the workers' thread
// count for its mat-vec and its climbs instead. The queue is
// depth-prioritized: among pending expansions workers always pick the
// deepest, so a deep subtree is not left to run on alone after its
// shallow siblings finish. Determinism is structural, not scheduled:
// every expansion is a pure function of (community, depth), and
// children get stable identities from (depth, parent, community index),
// so the arena is assembled in canonical BFS order regardless of
// completion order — serial (num_threads == 0) and N-thread builds are
// byte-identical (pinned by tests and the CI thread matrix).

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

  /// Worker threads for sibling-subtree expansion. 0 runs the serial
  /// reference implementation (single engine, plain BFS loop); N >= 1
  /// runs the pooled scheduler with N workers and one engine per worker.
  /// NOTE: unlike OcaOptions::num_threads, 0 does NOT mean "hardware
  /// concurrency" here — the serial path is deliberately preserved as
  /// the reference the parallel path is pinned against. Output is
  /// byte-identical for every value (see Digest()). With N >= 1 the root
  /// phase, which runs before any worker has work, gets max(N, resolved
  /// base.num_threads) threads: the root solve's mat-vec on the build
  /// engine's pool and the root run's climbs on RunOca's own. Worker
  /// engines run their mat-vec serially (sibling-level parallelism
  /// replaces it; the fixed-block reduction makes results identical
  /// either way), while base.num_threads still applies inside each
  /// subgraph's OCA run: base.num_threads > 1 gives every subgraph run
  /// its own pool, which keeps up to 2 seeds per thread climbing ahead
  /// of the run's seed loop (OcaRunStats::climbs).
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
  /// coupling the inner OCA run resolved on the induced subgraph and ran
  /// with; the three fields copy split_stats' coupling_constant,
  /// lambda_min and spectral_iterations.
  double subgraph_c = 0.0;
  double subgraph_lambda_min = 0.0;
  size_t spectral_iterations = 0;  // Lanczos steps of the coupling solve

  /// Full OcaRunStats of this node's subgraph run (same condition as
  /// above). For roots the run is the top-level one, recorded once in
  /// RecursiveHierarchy::root_stats instead.
  OcaRunStats split_stats;

  /// True when this node's induced subgraph was spectrally solved and
  /// searched (stop_reason "split", "stable" or "no_communities") — the
  /// condition under which the spectral record above is populated.
  bool SubgraphSolved() const { return subgraph_c > 0.0; }
};

/// Aggregate accounting of the subgraph solves across the whole build.
struct SpectralChainStats {
  size_t subgraph_solves = 0;        // coupling solves below the root
  size_t total_iterations = 0;       // Lanczos steps summed over them
};

/// How the build was scheduled. Everything here except `max_concurrent`
/// is deterministic; `max_concurrent` depends on OS scheduling and is
/// therefore excluded from Digest() and determinism tests.
struct RecursiveSchedulingStats {
  size_t num_workers = 0;     // pool workers (0 = serial reference path)
  size_t tasks_run = 0;       // expansion tasks executed (== tree nodes)
  size_t max_concurrent = 0;  // peak simultaneously running expansions
  /// Always 0: every solve starts cold. Kept only because bench/e2e
  /// still reports it, until the next bench/e2e re-baseline drops it
  /// (ROADMAP.md).
  double warm_start_hit_rate = 0.0;
};

/// Per-depth rollup (communities found at that depth and what producing
/// their NEXT level cost).
struct RecursiveLevelSummary {
  size_t depth = 0;
  size_t communities = 0;       // tree nodes at this depth
  size_t split = 0;             // of which have children
  size_t subgraph_solves = 0;   // coupling solves run on their subgraphs
  size_t spectral_iterations = 0;
};

struct RecursiveHierarchy {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  /// Tree arena in BFS order: roots first, then depth 1, etc. Children
  /// of any node are contiguous in `children` order.
  std::vector<RecursiveCommunity> nodes;
  std::vector<uint32_t> roots;  // arena indices of the top-level cover

  /// Stats of the top-level whole-graph run (its lambda_min/c are the
  /// flat pipeline's, and its spectral fields record the root solve).
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

}  // namespace oca

#endif  // OCA_CORE_RECURSIVE_HIERARCHY_H_

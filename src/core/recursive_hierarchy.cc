#include "core/recursive_hierarchy.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>

#include "graph/subgraph.h"
#include "metrics/similarity.h"
#include "spectral/spectral_engine.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace oca {

namespace {

Status ValidateOptions(const RecursiveHierarchyOptions& options) {
  if (options.base.coupling_constant > 0.0) {
    return Status::InvalidArgument(
        "recursive hierarchy re-resolves c per subgraph; leave "
        "base.coupling_constant unset (<= 0)");
  }
  if (options.min_split_size < 2) {
    return Status::InvalidArgument("min_split_size must be at least 2");
  }
  if (options.max_split_density <= 0.0 || options.max_split_density > 1.0) {
    return Status::InvalidArgument("max_split_density must be in (0, 1]");
  }
  if (options.stable_similarity <= 0.0 || options.stable_similarity > 1.0) {
    return Status::InvalidArgument("stable_similarity must be in (0, 1]");
  }
  return Status::OK();
}

/// Everything one node's expansion attempt produces. An expansion is a
/// pure function of (community, depth, options) — engine history does
/// not leak in (start vectors derive from the configured seed, the
/// subgraph's cache entry is dropped before returning) — which is what
/// makes the serial and pooled schedulers byte-identical by
/// construction.
struct ExpandOutcome {
  Status status = Status::OK();
  std::string stop_reason;
  /// The subgraph run's stats, its coupling solve included; all zero
  /// when a leaf gate stopped the expansion before the run.
  OcaRunStats split_stats;
  /// Surviving children in canonical (cover) order, original ids. The
  /// index into this vector is the child's stable identity: together
  /// with (depth, parent) it fixes the child's arena id at merge time.
  std::vector<Community> children;
};

/// Attempts to split one community: leaf gates, induced subgraph, the
/// inner OCA run (whose own coupling solve re-resolves c on the
/// subgraph), and the stability filter. Runs on whichever engine the
/// caller owns (the single serial engine or a worker-local one).
ExpandOutcome ExpandNode(const Graph& graph,
                         const RecursiveHierarchyOptions& options,
                         const OcaOptions& run_options, SpectralEngine& engine,
                         const Community& community, uint32_t depth) {
  ExpandOutcome out;
  const size_t s = community.size();
  if (s < options.min_split_size) {
    out.stop_reason = "min_size";
    return out;
  }
  if (depth >= options.max_depth) {
    out.stop_reason = "max_depth";
    return out;
  }

  auto sub_result = InducedSubgraph(graph, community);
  if (!sub_result.ok()) {
    out.status = sub_result.status();
    return out;
  }
  Subgraph sub = std::move(sub_result).value();
  if (sub.graph.num_edges() == 0) {
    out.stop_reason = "edgeless";
    return out;
  }
  double density = 2.0 * static_cast<double>(sub.graph.num_edges()) /
                   (static_cast<double>(s) * static_cast<double>(s - 1));
  if (density >= options.max_split_density) {
    out.stop_reason = "density";
    return out;
  }

  if (options.solve_fault_for_testing) {
    if (Status fault = options.solve_fault_for_testing(community, depth);
        !fault.ok()) {
      out.status = std::move(fault);
      return out;
    }
  }

  // Each expansion runs with ITS worker's engine — never the root
  // engine a shared options copy might carry.
  OcaOptions sub_options = run_options;
  sub_options.engine = &engine;
  if (sub.graph.num_nodes() == graph.num_nodes()) {
    // A root that spans the whole graph: with the top-level seed this
    // run would replay the top-level run and re-find only the other
    // roots. Children are strictly smaller than their parents, so only
    // a root can get here. Draw from a stream RunOca never uses.
    sub_options.seed = Rng(run_options.seed).Fork(2).Next();
  }
  auto run_result = RunOca(sub.graph, sub_options);
  // The subgraph dies with this expansion; its cache entry must not
  // survive to alias a future subgraph at the same heap address.
  engine.Forget(sub.graph);
  if (!run_result.ok()) {
    out.status = run_result.status();
    return out;
  }
  OcaResult run = std::move(run_result).value();
  out.split_stats = run.stats;

  if (run.cover.empty()) {
    out.stop_reason = "no_communities";
    return out;
  }

  // Map children back to original ids (to_original is ascending, so
  // sorted local communities stay sorted) and apply the stability
  // rule: a child that rho-matches its parent is the parent re-found
  // at the subgraph's own resolution, not a split — drop it. What
  // remains are genuine sub-structures; if nothing remains, the node
  // is a stable leaf. Children are subsets of the parent, so every
  // surviving child has rho = |child| / |parent| < stable_similarity,
  // i.e. is strictly smaller — the recursion terminates even without
  // the depth cap.
  std::vector<Community> children;
  children.reserve(run.cover.size());
  for (const Community& local : run.cover) {
    Community original;
    original.reserve(local.size());
    for (NodeId v : local) original.push_back(sub.to_original[v]);
    if (RhoSimilarity(original, community) < options.stable_similarity) {
      children.push_back(std::move(original));
    }
  }
  if (children.empty()) {
    out.stop_reason = "stable";
    return out;
  }

  out.stop_reason = "split";
  out.children = std::move(children);
  return out;
}

/// Copies an expansion's per-node record into its arena node (children
/// are linked separately by whichever scheduler ran the expansion).
void ApplyOutcome(const ExpandOutcome& out, RecursiveCommunity* node) {
  node->stop_reason = out.stop_reason;
  node->subgraph_c = out.split_stats.coupling_constant;
  node->subgraph_lambda_min = out.split_stats.lambda_min;
  node->spectral_iterations = out.split_stats.spectral_iterations;
  node->split_stats = out.split_stats;
}

/// The serial reference scheduler: a plain FIFO over arena indices, one
/// engine for the whole build. This is the path the pooled scheduler is
/// pinned against — keep it boring.
Status ExpandSerial(const Graph& graph,
                    const RecursiveHierarchyOptions& options,
                    const OcaOptions& run_options, SpectralEngine* engine,
                    const Cover& root_cover, RecursiveHierarchy* tree) {
  // Work queue of arena nodes awaiting their split attempt.
  std::deque<uint32_t> queue;
  for (const Community& community : root_cover) {
    RecursiveCommunity node;
    node.community = community;
    node.depth = 0;
    uint32_t index = static_cast<uint32_t>(tree->nodes.size());
    tree->nodes.push_back(std::move(node));
    tree->roots.push_back(index);
    queue.push_back(index);
  }

  while (!queue.empty()) {
    const uint32_t pending = queue.front();
    queue.pop_front();
    const uint32_t depth = tree->nodes[pending].depth;
    ExpandOutcome out = ExpandNode(graph, options, run_options, *engine,
                                   tree->nodes[pending].community, depth);
    if (!out.status.ok()) return out.status;
    ApplyOutcome(out, &tree->nodes[pending]);
    for (Community& child : out.children) {
      RecursiveCommunity child_node;
      child_node.community = std::move(child);
      child_node.parent = pending;
      child_node.depth = depth + 1;
      uint32_t index = static_cast<uint32_t>(tree->nodes.size());
      tree->nodes.push_back(std::move(child_node));
      tree->nodes[pending].children.push_back(index);
      queue.push_back(index);
    }
  }

  tree->scheduling.num_workers = 0;
  tree->scheduling.max_concurrent = tree->nodes.empty() ? 0 : 1;
  return Status::OK();
}

/// The pooled scheduler: sibling subtrees run concurrently on a
/// thread_pool work queue, one SpectralEngine per worker. Tasks build a
/// result tree whose structure — not its completion order — determines
/// the final arena: the merge below walks it in canonical BFS order
/// (depth, parent, community index), which is exactly the serial arena
/// order, so the two paths are byte-identical.
Status ExpandParallel(const Graph& graph,
                      const RecursiveHierarchyOptions& options,
                      const OcaOptions& run_options,
                      const SpectralEngineOptions& engine_options,
                      const Cover& root_cover, RecursiveHierarchy* tree) {
  /// One expansion task and, after it ran, its surviving children in
  /// canonical order. Owned by its parent task (roots by the local
  /// vector below), so the whole result tree outlives the pool drain.
  struct TaskNode {
    Community community;
    uint32_t depth = 0;
    ExpandOutcome outcome;
    std::vector<std::unique_ptr<TaskNode>> children;
  };

  ThreadPool pool(options.num_threads);
  // Worker engines run their mat-vec serially: the parallelism budget is
  // spent across siblings, and fixed-block reductions make the mat-vec
  // result identical at any thread count anyway.
  SpectralEngineOptions worker_options = engine_options;
  worker_options.num_threads = 1;
  SpectralEngineSet engines(pool.num_threads(), worker_options);

  std::atomic<size_t> running{0};
  std::atomic<size_t> peak{0};

  // Expands `task` on the worker's own engine, then creates and submits
  // its children BEFORE returning — nested submission keeps the pool's
  // in-flight count covering the whole subtree, so Wait() below cannot
  // return early. A failed expansion simply submits nothing: the queue
  // drains, and the merge surfaces the status (no deadlock path).
  // Submission priority = node depth: among pending tasks workers
  // always pick the deepest. A deep node heads the longest chain of
  // expansions still to run, so starting it first keeps a skewed
  // subtree from running on alone after its shallow siblings finish.
  std::function<void(TaskNode*)> schedule = [&](TaskNode* task) {
    pool.Submit(static_cast<int>(task->depth), [&schedule, &graph, &options,
                                                &run_options, &engines,
                                                &running, &peak, task] {
      size_t now = running.fetch_add(1) + 1;
      size_t prev = peak.load();
      while (prev < now && !peak.compare_exchange_weak(prev, now)) {
      }
      int worker = ThreadPool::CurrentWorkerIndex();
      SpectralEngine& engine =
          engines.at(worker < 0 ? 0 : static_cast<size_t>(worker));
      task->outcome = ExpandNode(graph, options, run_options, engine,
                                 task->community, task->depth);
      if (task->outcome.status.ok()) {
        for (Community& child : task->outcome.children) {
          auto child_task = std::make_unique<TaskNode>();
          child_task->community = std::move(child);
          child_task->depth = task->depth + 1;
          task->children.push_back(std::move(child_task));
        }
        task->outcome.children.clear();
        for (auto& child_task : task->children) schedule(child_task.get());
      }
      running.fetch_sub(1);
    });
  };

  std::vector<std::unique_ptr<TaskNode>> root_tasks;
  root_tasks.reserve(root_cover.size());
  for (const Community& community : root_cover) {
    auto task = std::make_unique<TaskNode>();
    task->community = community;
    task->depth = 0;
    root_tasks.push_back(std::move(task));
  }
  for (auto& task : root_tasks) schedule(task.get());
  pool.Wait();

  // Deterministic merge: canonical BFS over the result tree. The first
  // non-OK status in this order is the build's error — the same node,
  // and therefore the same status, the serial path stops at.
  std::deque<std::pair<TaskNode*, uint32_t>> merge_queue;
  for (auto& task : root_tasks) {
    merge_queue.push_back({task.get(), RecursiveHierarchy::kNoParent});
  }
  while (!merge_queue.empty()) {
    auto [task, parent] = merge_queue.front();
    merge_queue.pop_front();
    if (!task->outcome.status.ok()) return task->outcome.status;
    RecursiveCommunity node;
    node.community = std::move(task->community);
    node.parent = parent;
    node.depth = task->depth;
    ApplyOutcome(task->outcome, &node);
    uint32_t index = static_cast<uint32_t>(tree->nodes.size());
    tree->nodes.push_back(std::move(node));
    if (parent == RecursiveHierarchy::kNoParent) {
      tree->roots.push_back(index);
    } else {
      tree->nodes[parent].children.push_back(index);
    }
    for (auto& child : task->children) {
      merge_queue.push_back({child.get(), index});
    }
  }

  tree->scheduling.num_workers = pool.num_threads();
  tree->scheduling.max_concurrent = peak.load();
  return Status::OK();
}

/// Rollups derivable from the finished arena, identical for both
/// schedulers: depth reach and solve totals.
void FinalizeTree(RecursiveHierarchy* tree) {
  tree->max_depth_reached = 0;
  tree->chain = {};
  for (const RecursiveCommunity& node : tree->nodes) {
    tree->max_depth_reached =
        std::max<size_t>(tree->max_depth_reached, node.depth);
    if (node.SubgraphSolved()) {
      ++tree->chain.subgraph_solves;
      tree->chain.total_iterations += node.spectral_iterations;
    }
  }
  tree->scheduling.tasks_run = tree->nodes.size();
}

/// Sequential FNV-1a accumulator for Digest(). Deliberately
/// order-SENSITIVE (Mix(a); Mix(b) != Mix(b); Mix(a)): the digest pins
/// the canonical arena order across schedulers, so hashing nodes in any
/// other order must change the value.
class Fnv1a {
 public:
  void Mix(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xFFu;
      hash_ *= 1099511628211ull;
    }
  }
  void MixDouble(double x) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(x));
    std::memcpy(&bits, &x, sizeof(bits));
    Mix(bits);
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

Result<RecursiveHierarchy> BuildRecursiveHierarchy(
    const Graph& graph, const RecursiveHierarchyOptions& options) {
  OCA_RETURN_IF_ERROR(ValidateOptions(options));

  // Every RunOca of the build resolves its own c on the engine it is
  // handed: the top-level run on this build-owned engine, which in
  // serial mode then serves the whole build; in pooled mode each worker
  // gets its own engine with the same configuration. Both produce the
  // same numbers because every solve's start vector derives from the
  // configured seed, not from engine history.
  SpectralEngineOptions engine_options =
      ValueSolveOptionsFrom(options.base.power_method);
  engine_options.seed ^= options.base.seed;
  engine_options.num_threads = options.base.num_threads;

  OcaOptions run_options = options.base;
  run_options.coupling_constant = 0.0;
  // A pooled build's workers would idle through the root phase, which
  // precedes every expansion: give the root solve's mat-vec and the root
  // run's climbs as many threads as the tree has workers. Neither moves
  // a result (fixed-block reductions; climbs read in slot order).
  OcaOptions root_options = run_options;
  if (options.num_threads > 0) {
    const size_t base_threads = options.base.num_threads == 0
                                    ? DefaultThreadCount()
                                    : options.base.num_threads;
    root_options.num_threads = std::max(base_threads, options.num_threads);
  }
  SpectralEngineOptions root_engine_options = engine_options;
  root_engine_options.num_threads = root_options.num_threads;
  SpectralEngine engine(root_engine_options);
  run_options.engine = &engine;
  root_options.engine = &engine;

  RecursiveHierarchy tree;
  OCA_ASSIGN_OR_RETURN(OcaResult root_run, RunOca(graph, root_options));
  tree.root_stats = root_run.stats;

  Status built =
      options.num_threads == 0
          ? ExpandSerial(graph, options, run_options, &engine,
                         root_run.cover, &tree)
          : ExpandParallel(graph, options, run_options, engine_options,
                           root_run.cover, &tree);
  OCA_RETURN_IF_ERROR(built);
  FinalizeTree(&tree);
  return tree;
}

std::vector<std::vector<uint32_t>> RecursiveHierarchy::MembershipPaths(
    NodeId v) const {
  std::vector<std::vector<uint32_t>> paths;
  std::vector<uint32_t> path;
  auto contains = [&](uint32_t index) {
    const Community& c = nodes[index].community;
    return std::binary_search(c.begin(), c.end(), v);
  };
  // Depth-first descent; recursion depth is bounded by max_depth.
  auto descend = [&](auto&& self, uint32_t index) -> void {
    path.push_back(index);
    bool any_child = false;
    for (uint32_t child : nodes[index].children) {
      if (contains(child)) {
        any_child = true;
        self(self, child);
      }
    }
    if (!any_child) paths.push_back(path);
    path.pop_back();
  };
  for (uint32_t root : roots) {
    if (contains(root)) descend(descend, root);
  }
  return paths;
}

std::vector<RecursiveLevelSummary> RecursiveHierarchy::LevelSummaries()
    const {
  std::vector<RecursiveLevelSummary> levels(
      nodes.empty() ? 0 : max_depth_reached + 1);
  for (size_t d = 0; d < levels.size(); ++d) levels[d].depth = d;
  for (const RecursiveCommunity& node : nodes) {
    RecursiveLevelSummary& level = levels[node.depth];
    ++level.communities;
    if (!node.children.empty()) ++level.split;
    if (node.SubgraphSolved()) {
      ++level.subgraph_solves;
      level.spectral_iterations += node.spectral_iterations;
    }
  }
  return levels;
}

Cover RecursiveHierarchy::LeafCover() const {
  Cover leaves;
  for (const RecursiveCommunity& node : nodes) {
    if (node.children.empty()) leaves.Add(node.community);
  }
  leaves.Canonicalize();
  return leaves;
}

void RecursiveHierarchy::MapToOriginalIds(const Graph& graph) {
  if (!graph.is_reordered()) return;
  for (RecursiveCommunity& node : nodes) {
    for (NodeId& v : node.community) v = graph.OriginalId(v);
    std::sort(node.community.begin(), node.community.end());
  }
}

uint64_t RecursiveHierarchy::Digest() const {
  Fnv1a h;
  h.Mix(nodes.size());
  h.Mix(roots.size());
  for (uint32_t root : roots) h.Mix(root);
  for (const RecursiveCommunity& node : nodes) {
    h.Mix(node.community.size());
    for (NodeId v : node.community) h.Mix(v);
    h.Mix(node.parent);
    h.Mix(node.depth);
    h.MixString(node.stop_reason);
    h.Mix(node.children.size());
    for (uint32_t child : node.children) h.Mix(child);
    h.MixDouble(node.subgraph_c);
    h.MixDouble(node.subgraph_lambda_min);
    h.Mix(node.spectral_iterations);
    const OcaRunStats& s = node.split_stats;
    h.MixDouble(s.coupling_constant);
    h.MixDouble(s.lambda_min);
    h.Mix(s.spectral_iterations);
    h.Mix(s.seeds_expanded);
    h.Mix(s.raw_communities);
    h.Mix(s.discarded_small);
    h.MixString(s.halting_reason);
    h.MixDouble(s.coverage_fraction);
  }
  h.MixDouble(root_stats.coupling_constant);
  h.MixDouble(root_stats.lambda_min);
  h.MixString(root_stats.halting_reason);
  h.Mix(chain.subgraph_solves);
  h.Mix(chain.total_iterations);
  return h.hash();
}

}  // namespace oca

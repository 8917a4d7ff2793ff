#include "core/recursive_hierarchy.h"

#include <algorithm>
#include <atomic>
#include <cmath>
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

/// Maps each of the subgraph's original ids to its local index in the
/// parent graph's id list (identity when parent_ids is null). Children
/// are subsets of their parent by construction, so every id is found.
std::vector<NodeId> ToParentLocal(const std::vector<NodeId>& to_original,
                                  const std::vector<NodeId>* parent_ids) {
  if (parent_ids == nullptr) return to_original;
  std::vector<NodeId> to_parent;
  to_parent.reserve(to_original.size());
  for (NodeId original : to_original) {
    auto it =
        std::lower_bound(parent_ids->begin(), parent_ids->end(), original);
    to_parent.push_back(static_cast<NodeId>(it - parent_ids->begin()));
  }
  return to_parent;
}

/// One link of the ancestor warm-start chain: an ancestor solve's
/// published eigenvector, the local->original map of the graph it lives
/// on (null = the whole input graph), and the next link up. Links are
/// immutable and shared by every descendant task, so the walk-up never
/// copies a vector; an ancestor's eigenvector stays alive exactly as
/// long as some unexpanded descendant could still need it as a
/// fallback seed.
struct AncestorLink {
  std::shared_ptr<const std::vector<double>> vec;
  std::shared_ptr<const std::vector<NodeId>> ids;  // null = whole graph
  std::shared_ptr<const AncestorLink> up;
};

/// Everything one node's expansion attempt produces. An expansion is a
/// pure function of (community, depth, ancestor chain, batch seed,
/// options) —
/// engine history does not leak in (start vectors derive from the
/// configured seed, the subgraph's cache entry is dropped before
/// returning) — which is what makes the serial and pooled schedulers
/// byte-identical by construction.
struct ExpandOutcome {
  Status status = Status::OK();
  std::string stop_reason;
  double subgraph_c = 0.0;
  double subgraph_lambda_min = 0.0;
  size_t spectral_iterations = 0;
  bool warm_started = false;
  uint32_t warm_start_distance = 0;
  OcaRunStats split_stats;
  /// Surviving children in canonical (cover) order, original ids. The
  /// index into this vector is the child's stable identity: together
  /// with (depth, parent) it fixes the child's arena id at merge time.
  std::vector<Community> children;
  /// Published with a "split" so the children's solves can warm-start
  /// from this node's eigenvector — the chain crosses engines by value.
  std::shared_ptr<const std::vector<double>> sub_vec;
  std::shared_ptr<const std::vector<NodeId>> sub_ids;
  /// Batched warm-start seeds, index-aligned with `children` (present
  /// only when warm_start && batch_restrictions and the node split):
  /// one fused SpMM pass over this node's subgraph polished every
  /// child's restriction at once. An empty entry means that child's
  /// restricted mass was degenerate — its solve falls back to the
  /// ancestor walk-up.
  std::vector<std::vector<double>> child_seeds;
};

/// Attempts to split one community: leaf gates, induced subgraph, the
/// warm-started coupling solve, the inner OCA run, and the stability
/// filter. Runs on whichever engine the caller owns (the single serial
/// engine or a worker-local one). `chain` is the ancestor eigenvector
/// chain (innermost = the graph this community was found in);
/// `batch_seed` is this node's pre-polished seed from its parent's
/// batched split, null when batching is off, empty when the batcher
/// found the restriction degenerate.
ExpandOutcome ExpandNode(const Graph& graph,
                         const RecursiveHierarchyOptions& options,
                         const OcaOptions& run_options, SpectralEngine& engine,
                         const Community& community, uint32_t depth,
                         const AncestorLink* chain,
                         const std::vector<double>* batch_seed) {
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

  // --- The cross-graph warm-start chain. ---
  bool warm = false;
  uint32_t warm_distance = 0;
  if (options.warm_start) {
    if (batch_seed != nullptr && !batch_seed->empty()) {
      // The parent's batched split already polished this child's
      // restriction through the fused SpMM pass — feed it directly.
      engine.SetWarmStart(*batch_seed);
      warm = true;
      warm_distance = 1;
    } else {
      // Walk up the ancestor chain to the nearest eigenvector with
      // usable mass on this community. When batching was attempted
      // (batch_seed non-null but empty) the parent's restriction is
      // already known degenerate, so start one level up.
      const AncestorLink* link = chain;
      uint32_t d = 1;
      if (batch_seed != nullptr && link != nullptr) {
        link = link->up.get();
        d = 2;
      }
      for (; link != nullptr; link = link->up.get(), ++d) {
        if (link->vec == nullptr) continue;
        if (engine.WarmStartFromParent(
                *link->vec,
                ToParentLocal(sub.to_original, link->ids.get()))) {
          warm = true;
          warm_distance = d;
          break;
        }
      }
    }
  }
  auto vec = std::make_shared<std::vector<double>>();
  auto coupling_result = engine.CouplingConstantWithVector(sub.graph,
                                                           vec.get());
  if (!coupling_result.ok()) {
    engine.Forget(sub.graph);
    out.status = coupling_result.status();
    return out;
  }
  const CouplingResult& coupling = coupling_result.value();
  out.subgraph_c = coupling.c;
  out.subgraph_lambda_min = coupling.lambda_min;
  out.spectral_iterations = coupling.iterations;
  out.warm_started = warm;
  out.warm_start_distance = warm_distance;

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
  if (options.warm_start && options.batch_restrictions) {
    // The cross-solve batcher: one fused SpMM pass over THIS subgraph
    // polishes every child's warm-start seed before the subtrees fan
    // out (serially or across workers).
    out.child_seeds =
        BatchRestrictionSeeds(sub.graph, *vec, &sub.to_original, children);
  }
  out.children = std::move(children);
  out.sub_vec = std::move(vec);
  out.sub_ids = std::make_shared<const std::vector<NodeId>>(
      std::move(sub.to_original));
  return out;
}

/// Copies an expansion's per-node record into its arena node (children
/// are linked separately by whichever scheduler ran the expansion).
void ApplyOutcome(const ExpandOutcome& out, RecursiveCommunity* node) {
  node->stop_reason = out.stop_reason;
  node->subgraph_c = out.subgraph_c;
  node->subgraph_lambda_min = out.subgraph_lambda_min;
  node->spectral_iterations = out.spectral_iterations;
  node->warm_started = out.warm_started;
  node->warm_start_distance = out.warm_start_distance;
  node->split_stats = out.split_stats;
}

/// The serial reference scheduler: a plain FIFO over arena indices, one
/// engine for the whole build. This is the path the pooled scheduler is
/// pinned against — keep it boring.
Status ExpandSerial(
    const Graph& graph, const RecursiveHierarchyOptions& options,
    const OcaOptions& run_options, SpectralEngine* engine,
    const Cover& root_cover, std::shared_ptr<const AncestorLink> root_chain,
    const std::vector<std::shared_ptr<const std::vector<double>>>& root_seeds,
    RecursiveHierarchy* tree) {
  /// Work-queue entry: an arena node awaiting its split attempt, plus
  /// the ancestor eigenvector chain of the graph its community was
  /// found in and (in batched mode) its pre-polished warm-start seed.
  struct Pending {
    uint32_t node = 0;
    std::shared_ptr<const AncestorLink> chain;
    std::shared_ptr<const std::vector<double>> seed;  // null = no batching
  };

  std::deque<Pending> queue;
  for (size_t i = 0; i < root_cover.size(); ++i) {
    RecursiveCommunity node;
    node.community = root_cover[i];
    node.depth = 0;
    uint32_t index = static_cast<uint32_t>(tree->nodes.size());
    tree->nodes.push_back(std::move(node));
    tree->roots.push_back(index);
    queue.push_back(
        {index, root_chain, root_seeds.empty() ? nullptr : root_seeds[i]});
  }

  while (!queue.empty()) {
    Pending pending = std::move(queue.front());
    queue.pop_front();
    const uint32_t depth = tree->nodes[pending.node].depth;
    ExpandOutcome out = ExpandNode(graph, options, run_options, *engine,
                                   tree->nodes[pending.node].community, depth,
                                   pending.chain.get(), pending.seed.get());
    if (!out.status.ok()) return out.status;
    ApplyOutcome(out, &tree->nodes[pending.node]);
    std::shared_ptr<const AncestorLink> link;
    if (!out.children.empty()) {
      link = std::make_shared<const AncestorLink>(
          AncestorLink{out.sub_vec, out.sub_ids, pending.chain});
    }
    for (size_t j = 0; j < out.children.size(); ++j) {
      RecursiveCommunity child_node;
      child_node.community = std::move(out.children[j]);
      child_node.parent = pending.node;
      child_node.depth = depth + 1;
      uint32_t index = static_cast<uint32_t>(tree->nodes.size());
      tree->nodes.push_back(std::move(child_node));
      tree->nodes[pending.node].children.push_back(index);
      std::shared_ptr<const std::vector<double>> seed;
      if (j < out.child_seeds.size()) {
        seed = std::make_shared<const std::vector<double>>(
            std::move(out.child_seeds[j]));
      }
      queue.push_back({index, link, std::move(seed)});
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
Status ExpandParallel(
    const Graph& graph, const RecursiveHierarchyOptions& options,
    const OcaOptions& run_options,
    const SpectralEngineOptions& engine_options, const Cover& root_cover,
    std::shared_ptr<const AncestorLink> root_chain,
    const std::vector<std::shared_ptr<const std::vector<double>>>& root_seeds,
    RecursiveHierarchy* tree) {
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
  // always pick the deepest, so a subtree is driven to its leaves
  // (releasing its chain links) before workers fan across shallow
  // siblings — the number of live ancestor eigenvectors tracks the
  // tree's depth, not its width.
  std::function<void(TaskNode*, std::shared_ptr<const AncestorLink>,
                     std::shared_ptr<const std::vector<double>>)>
      schedule = [&](TaskNode* task,
                     std::shared_ptr<const AncestorLink> chain,
                     std::shared_ptr<const std::vector<double>> seed) {
        pool.Submit(
            static_cast<int>(task->depth),
            [&schedule, &graph, &options, &run_options, &engines, &running,
             &peak, task, chain = std::move(chain), seed = std::move(seed)] {
              size_t now = running.fetch_add(1) + 1;
              size_t prev = peak.load();
              while (prev < now && !peak.compare_exchange_weak(prev, now)) {
              }
              int worker = ThreadPool::CurrentWorkerIndex();
              SpectralEngine& engine =
                  engines.at(worker < 0 ? 0 : static_cast<size_t>(worker));
              task->outcome =
                  ExpandNode(graph, options, run_options, engine,
                             task->community, task->depth, chain.get(),
                             seed.get());
              if (task->outcome.status.ok() &&
                  task->outcome.stop_reason == "split") {
                auto link = std::make_shared<const AncestorLink>(
                    AncestorLink{task->outcome.sub_vec,
                                 task->outcome.sub_ids, chain});
                for (Community& child : task->outcome.children) {
                  auto child_task = std::make_unique<TaskNode>();
                  child_task->community = std::move(child);
                  child_task->depth = task->depth + 1;
                  task->children.push_back(std::move(child_task));
                }
                task->outcome.children.clear();
                for (size_t j = 0; j < task->children.size(); ++j) {
                  std::shared_ptr<const std::vector<double>> child_seed;
                  if (j < task->outcome.child_seeds.size()) {
                    child_seed = std::make_shared<const std::vector<double>>(
                        std::move(task->outcome.child_seeds[j]));
                  }
                  schedule(task->children[j].get(), link,
                           std::move(child_seed));
                }
                task->outcome.child_seeds.clear();
                // Each child's task captured the chain link above; drop
                // this node's own references so the eigenvector/id map
                // die with the last descendant whose walk-up could
                // still reach them, instead of living in the result
                // tree until the merge.
                task->outcome.sub_vec.reset();
                task->outcome.sub_ids.reset();
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
  for (size_t i = 0; i < root_tasks.size(); ++i) {
    schedule(root_tasks[i].get(), root_chain,
             root_seeds.empty() ? nullptr : root_seeds[i]);
  }
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
/// schedulers: depth reach, chain totals, warm-start hit rate.
void FinalizeTree(RecursiveHierarchy* tree) {
  tree->max_depth_reached = 0;
  tree->chain = {};
  tree->scheduling.ancestor_warm_hits = 0;
  tree->scheduling.max_warm_start_distance = 0;
  for (const RecursiveCommunity& node : tree->nodes) {
    tree->max_depth_reached =
        std::max<size_t>(tree->max_depth_reached, node.depth);
    if (node.SubgraphSolved()) {
      ++tree->chain.subgraph_solves;
      if (node.warm_started) ++tree->chain.warm_started_solves;
      tree->chain.total_iterations += node.spectral_iterations;
      if (node.warm_start_distance >= 2) {
        ++tree->scheduling.ancestor_warm_hits;
      }
      tree->scheduling.max_warm_start_distance =
          std::max<size_t>(tree->scheduling.max_warm_start_distance,
                           node.warm_start_distance);
    }
  }
  tree->scheduling.tasks_run = tree->nodes.size();
  tree->scheduling.warm_start_hit_rate =
      tree->chain.subgraph_solves == 0
          ? 0.0
          : static_cast<double>(tree->chain.warm_started_solves) /
                static_cast<double>(tree->chain.subgraph_solves);
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

std::vector<std::vector<double>> BatchRestrictionSeeds(
    const Graph& graph, const std::vector<double>& eigenvector,
    const std::vector<NodeId>* to_original,
    const std::vector<Community>& children) {
  std::vector<std::vector<double>> seeds(children.size());
  const size_t n = graph.num_nodes();
  if (n == 0 || eigenvector.size() != n) return seeds;
  // Weighted graphs shift by the weighted Gershgorin bound (identical
  // to MaxDegree when weightless, so unweighted seeds are unchanged).
  const double sigma = graph.MaxWeightedDegree();

  // Graph-local indices of each child's nodes, in the child's
  // sorted-original order — exactly the local order InducedSubgraph
  // will assign, so the seed lines up with the future subgraph without
  // any reordering. A child with an id outside the parent's node set
  // keeps an empty index list (and therefore an empty seed).
  std::vector<std::vector<NodeId>> locals(children.size());
  for (size_t j = 0; j < children.size(); ++j) {
    std::vector<NodeId> local = ToParentLocal(children[j], to_original);
    bool in_range = true;
    for (NodeId p : local) {
      if (static_cast<size_t>(p) >= n) {
        in_range = false;
        break;
      }
    }
    if (in_range) locals[j] = std::move(local);
  }

  std::vector<double> x;
  std::vector<double> y;
  for (size_t base = 0; base < children.size(); base += kMaxMatVecBatch) {
    const size_t k = std::min(kMaxMatVecBatch, children.size() - base);
    // Column j = the eigenvector masked to child (base + j)'s nodes;
    // one multi-vector pass computes every column's A x at once. The
    // chunking is deterministic and each column's bits are independent
    // of k (the multi-kernel column contract), so seeds do not depend
    // on sibling count or order.
    x.assign(n * k, 0.0);
    for (size_t j = 0; j < k; ++j) {
      for (NodeId p : locals[base + j]) {
        x[static_cast<size_t>(p) * k + j] = eigenvector[p];
      }
    }
    AdjacencyMatVecMulti(graph, x, &y, k);
    for (size_t j = 0; j < k; ++j) {
      const std::vector<NodeId>& local = locals[base + j];
      if (local.empty()) continue;
      // One shifted-power polish: w = (sigma*I - A) x restricted back
      // to the child's nodes. sigma - lambda is largest at lambda_min,
      // so the polish amplifies exactly the component the child's
      // Lanczos solve is after.
      std::vector<double> seed(local.size());
      double norm_sq = 0.0;
      for (size_t t = 0; t < local.size(); ++t) {
        const size_t p = local[t];
        const double w = sigma * eigenvector[p] - y[p * k + j];
        seed[t] = w;
        norm_sq += w * w;
      }
      const double norm = std::sqrt(norm_sq);
      // Same usable-signal floor as WarmStartFromParent: below it the
      // polished restriction is numerically noise, and the caller's
      // ancestor walk-up takes over.
      if (!(norm > 1e-6) || !std::isfinite(norm)) continue;
      for (double& v : seed) v /= norm;
      seeds[base + j] = std::move(seed);
    }
  }
  return seeds;
}

Result<RecursiveHierarchy> BuildRecursiveHierarchy(
    const Graph& graph, const RecursiveHierarchyOptions& options) {
  OCA_RETURN_IF_ERROR(ValidateOptions(options));

  // The root solve runs on a build-owned engine either way. In serial
  // mode that engine then serves the whole build, chaining levels
  // through warm starts; in pooled mode each worker gets its own engine
  // with the same configuration, and the chain instead hands parent
  // eigenvectors to the child task by value — both produce the same
  // numbers because every solve's start vector derives from the
  // configured seed, not from engine history.
  SpectralEngineOptions engine_options =
      ValueSolveOptionsFrom(options.base.power_method);
  engine_options.seed ^= options.base.seed;
  engine_options.num_threads = options.base.num_threads;
  SpectralEngine engine(engine_options);

  auto root_vec = std::make_shared<std::vector<double>>();
  OCA_ASSIGN_OR_RETURN(
      CouplingResult root_coupling,
      engine.CouplingConstantWithVector(graph, root_vec.get()));
  (void)root_coupling;  // cached; the top-level run reports it in stats

  RecursiveHierarchy tree;
  OcaOptions run_options = options.base;
  run_options.coupling_constant = 0.0;  // engine cache answers the root
  run_options.engine = &engine;
  OCA_ASSIGN_OR_RETURN(OcaResult root_run, RunOca(graph, run_options));
  tree.root_stats = root_run.stats;

  // Root link of the ancestor chain: the whole-graph eigenvector, no
  // id map (the chain bottoms out at the original graph). In batched
  // mode the top-level cover's seeds are polished here, through the
  // same fused SpMM pass every split uses below.
  auto root_chain = std::make_shared<const AncestorLink>(
      AncestorLink{root_vec, nullptr, nullptr});
  std::vector<std::shared_ptr<const std::vector<double>>> root_seeds;
  if (options.warm_start && options.batch_restrictions &&
      !root_run.cover.empty()) {
    std::vector<std::vector<double>> polished = BatchRestrictionSeeds(
        graph, *root_vec, nullptr, root_run.cover.communities());
    root_seeds.reserve(polished.size());
    for (std::vector<double>& s : polished) {
      root_seeds.push_back(
          std::make_shared<const std::vector<double>>(std::move(s)));
    }
  }

  Status built =
      options.num_threads == 0
          ? ExpandSerial(graph, options, run_options, &engine,
                         root_run.cover, root_chain, root_seeds, &tree)
          : ExpandParallel(graph, options, run_options, engine_options,
                           root_run.cover, root_chain, root_seeds, &tree);
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
      if (node.warm_started) ++level.warm_started;
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
    h.Mix(node.warm_started ? 1u : 0u);
    h.Mix(node.warm_start_distance);
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
  h.Mix(chain.warm_started_solves);
  h.Mix(chain.total_iterations);
  return h.hash();
}

}  // namespace oca

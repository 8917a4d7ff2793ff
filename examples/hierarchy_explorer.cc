// Hierarchy explorer: the paper's future-work direction ("we will
// explore the hierarchies and relations among them"), runnable on a
// nested planted partition.
//
// The recursive per-community descent (BuildRecursiveHierarchy) runs
// OCA, extracts each community's induced subgraph, re-resolves its own
// admissible c = -1/lambda_min and recurses, so nested scales that one
// run over the whole graph mixes fall out as tree levels; each node
// prints what its subgraph solve cost.
//
//   $ ./build/examples/hierarchy_explorer [--seed=7] [--supers=4]
//         [--subs=3] [--sub_size=20] [--node=0] [--threads=N]
//         [--reorder=none|degree|rcm]
//
// --node prints that node's membership paths; --threads expands sibling
// subtrees on N pool workers (0 = the serial reference path); --reorder
// runs the recursive descent on a cache-reordered copy of the graph
// (results are mapped back to original ids before printing). The
// printed tree digest is identical for every --threads value at a
// fixed --reorder — CI's thread matrix pins exactly that.

#include <cstdio>
#include <string>
#include <utility>

#include "core/recursive_hierarchy.h"
#include "gen/nested_partition.h"
#include "graph/graph_builder.h"
#include "util/flags.h"

namespace {

void PrintSubtree(const oca::RecursiveHierarchy& tree, uint32_t index,
                  int indent) {
  const auto& node = tree.nodes[index];
  std::printf("%*scommunity %u: %zu nodes, depth %u, stop=%s", indent, "",
              index, node.community.size(), node.depth,
              node.stop_reason.c_str());
  if (node.SubgraphSolved()) {
    std::printf("  [subgraph c=%.4f, lambda_min=%.4f, %zu spectral iters]",
                node.subgraph_c, node.subgraph_lambda_min,
                node.spectral_iterations);
  }
  std::printf("\n");
  for (uint32_t child : node.children) PrintSubtree(tree, child, indent + 2);
}

}  // namespace

int main(int argc, char** argv) {
  oca::FlagParser flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7).value_or(7));
  oca::NestedPartitionOptions gen;
  gen.num_supers =
      static_cast<size_t>(flags.GetInt("supers", 4).value_or(4));
  gen.subs_per_super =
      static_cast<size_t>(flags.GetInt("subs", 3).value_or(3));
  gen.nodes_per_sub =
      static_cast<size_t>(flags.GetInt("sub_size", 20).value_or(20));
  // The interesting regime: strong blocks, moderate super glue, and
  // enough cross-super noise that the top-level run mixes scales — the
  // recursive descent then refines the coarse communities into their
  // planted blocks, which no single flat c can do.
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.08;
  gen.seed = seed;

  auto bench = oca::GenerateNestedPartition(gen);
  if (!bench.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 bench.status().ToString().c_str());
    return 1;
  }
  const oca::Graph& graph = bench.value().graph;
  std::printf("nested planted partition: %zu nodes, %zu edges; planted "
              "structure: %zu supers x %zu sub-blocks of %zu nodes\n\n",
              graph.num_nodes(), graph.num_edges(), gen.num_supers,
              gen.subs_per_super, gen.nodes_per_sub);

  // Optionally on a cache-reordered copy: the spectral mat-vecs run on
  // the relabeled CSR, and the finished tree is mapped back to original
  // ids below, so everything printed stays comparable.
  const std::string reorder = flags.GetString("reorder", "none");
  oca::Graph work = graph;
  if (reorder != "none") {
    oca::NodeOrdering ordering;
    if (reorder == "degree") {
      ordering = oca::NodeOrdering::kDegreeSort;
    } else if (reorder == "rcm") {
      ordering = oca::NodeOrdering::kRcm;
    } else {
      std::fprintf(stderr,
                   "unknown --reorder=%s (expected none|degree|rcm)\n",
                   reorder.c_str());
      return 1;
    }
    auto reordered = oca::ReorderGraph(
        graph, oca::ComputeNodeOrdering(graph, ordering));
    if (!reordered.ok()) {
      std::fprintf(stderr, "reorder failed: %s\n",
                   reordered.status().ToString().c_str());
      return 1;
    }
    work = std::move(reordered).value();
  }

  oca::RecursiveHierarchyOptions rec;
  rec.base.seed = seed;
  rec.base.halting.max_seeds = graph.num_nodes() * 3;
  rec.base.halting.target_coverage = 0.98;
  rec.base.halting.stagnation_window = 150;
  long threads_flag = flags.GetInt("threads", 0).value_or(0);
  rec.num_threads =
      threads_flag > 0 ? static_cast<size_t>(threads_flag) : 0;

  auto rec_result = oca::BuildRecursiveHierarchy(work, rec);
  if (!rec_result.ok()) {
    std::fprintf(stderr, "recursive hierarchy failed: %s\n",
                 rec_result.status().ToString().c_str());
    return 1;
  }
  auto& tree = rec_result.value();
  tree.MapToOriginalIds(work);
  std::printf("recursive descent (per-community subgraphs, %zu workers, "
              "%s order):\n",
              rec.num_threads, reorder.c_str());
  for (uint32_t root : tree.roots) PrintSubtree(tree, root, 2);
  std::printf("  solves: %zu subgraph solves, %zu total spectral "
              "iterations (root solve %zu); max depth %zu\n",
              tree.chain.subgraph_solves, tree.chain.total_iterations,
              tree.root_stats.spectral_iterations, tree.max_depth_reached);
  std::printf("  scheduling: %zu workers, %zu tasks, peak %zu concurrent\n",
              tree.scheduling.num_workers, tree.scheduling.tasks_run,
              tree.scheduling.max_concurrent);
  std::printf("  tree digest: %016llx\n",
              static_cast<unsigned long long>(tree.Digest()));
  for (const auto& level : tree.LevelSummaries()) {
    std::printf("  depth %zu: %zu communities (%zu split), %zu solves "
                "(%zu iters)\n",
                level.depth, level.communities, level.split,
                level.subgraph_solves, level.spectral_iterations);
  }

  long node_flag = flags.GetInt("node", -1).value_or(-1);
  if (node_flag >= 0 &&
      static_cast<size_t>(node_flag) < graph.num_nodes()) {
    auto v = static_cast<oca::NodeId>(node_flag);
    std::printf("\nmembership paths of node %u:\n", v);
    for (const auto& path : tree.MembershipPaths(v)) {
      std::printf("  ");
      for (size_t i = 0; i < path.size(); ++i) {
        std::printf("%s%u(%zu nodes)", i ? " -> " : "", path[i],
                    tree.nodes[path[i]].community.size());
      }
      std::printf("\n");
    }
  }
  return 0;
}

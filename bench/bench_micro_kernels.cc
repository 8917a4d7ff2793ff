// Micro-kernel benchmarks (DESIGN.md experiment A2): the primitives whose
// cost model justifies the paper's complexity claims.
//
//   - the CSR mat-vec and the coupling solve (c = -1/lambda_min)
//   - incremental delta-eval vs naive full re-evaluation of the fitness
//   - CommunityState add/remove churn
//   - Bron-Kerbosch clique enumeration (why CFinder is slow)
//   - greedy local search: per-climb cost against graph size, and the
//     weighted climber
//   - one early-halting RunOca, shaped like a recursive tree's subgraph run
//   - the .ocac snapshot writer
//   - full structural validation of an lfr_flat-shaped graph

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "baselines/bron_kerbosch.h"
#include "core/community_state.h"
#include "core/local_search.h"
#include "core/oca.h"
#include "core/recursive_hierarchy.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "graph/graph_builder.h"
#include "graph/graph_checks.h"
#include "graph/subgraph.h"
#include "io/community_serialize.h"
#include "spectral/csr_matvec.h"
#include "spectral/spectral_engine.h"
#include "util/random.h"

namespace {

const oca::Graph& LfrGraph() {
  static const oca::Graph* graph = [] {
    oca::LfrOptions opt;
    opt.num_nodes = 2000;
    opt.average_degree = 20.0;
    opt.max_degree = 50;
    opt.mixing = 0.25;
    opt.min_community = 20;
    opt.max_community = 80;
    opt.seed = 9;
    return new oca::Graph(oca::GenerateLfr(opt).value().graph);
  }();
  return *graph;
}

/// An LFR graph shaped like the e2e lfr_flat workload's (n = 100,000,
/// mean degree 20, max 60, mu = 0.3, 10% of nodes in two communities):
/// 49 mat-vec row blocks (MatVecBlockRows).
const oca::Graph& LfrFlatGraph() {
  static const oca::Graph* graph = [] {
    oca::LfrOptions opt;
    opt.num_nodes = 100000;
    opt.average_degree = 20.0;
    opt.max_degree = 60;
    opt.mixing = 0.3;
    opt.min_community = 20;
    opt.max_community = 100;
    opt.overlapping_nodes = opt.num_nodes / 10;
    opt.overlap_memberships = 2;
    opt.seed = 1;
    return new oca::Graph(oca::GenerateLfr(opt).value().graph);
  }();
  return *graph;
}

void BM_PowerMethodMatVec(benchmark::State& state) {
  const oca::Graph& g = LfrGraph();
  std::vector<double> x(g.num_nodes(), 1.0), y;
  for (auto _ : state) {
    oca::AdjacencyMatVec(g, x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges() * 2));
}
BENCHMARK(BM_PowerMethodMatVec);

/// Wide-row counterpart to the narrow LFR graph: mean degree ~80.
const oca::Graph& WideErGraph() {
  static const oca::Graph* graph = [] {
    oca::Rng rng(13);
    return new oca::Graph(oca::ErdosRenyi(2000, 0.04, &rng).value());
  }();
  return *graph;
}

/// One full-range product through the CSR row kernel; items = 2E.
void RunMatVecRows(benchmark::State& state, const oca::Graph& g) {
  std::vector<double> x(g.num_nodes(), 1.0), y(g.num_nodes());
  for (auto _ : state) {
    oca::AdjacencyMatVecRows(g, 0, g.num_nodes(), x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges() * 2));
  state.SetLabel(state.range(0) == 0 ? "narrow" : "wide");
}

// The CSR row kernel on short and long rows. Arg: 0 = narrow LFR (mean
// degree ~20), 1 = wide ER (mean degree ~80).
void BM_MatVecKernel(benchmark::State& state) {
  RunMatVecRows(state, state.range(0) == 0 ? LfrGraph() : WideErGraph());
}
BENCHMARK(BM_MatVecKernel)->Arg(0)->Arg(1);

/// The ISSUE acceptance graph for the batched-solve rows: 960 nodes in
/// a 6 x 4 x 40 nested planted partition, seed 7.
const oca::Graph& NestedBenchGraph() {
  static const oca::Graph* graph = [] {
    oca::NestedPartitionOptions gen;
    gen.num_supers = 6;
    gen.subs_per_super = 4;
    gen.nodes_per_sub = 40;
    gen.p_sub = 0.85;
    gen.p_super = 0.15;
    gen.p_out = 0.08;
    gen.seed = 7;
    return new oca::Graph(oca::GenerateNestedPartition(gen).value().graph);
  }();
  return *graph;
}

// k adjacency products in ONE sweep through the multi-vector (SpMM)
// kernel. items/sec counts k * 2E per iteration, so the ratio to
// BM_MatVecSequential at the same k is the fusion speedup (the
// acceptance bar is >= 1.5x at k = 4).
void BM_MatVecMulti(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  const oca::Graph& g = NestedBenchGraph();
  const size_t n = g.num_nodes();
  oca::Rng rng(7);
  std::vector<double> x(n * k);
  for (double& v : x) v = rng.NextDouble() * 2.0 - 1.0;
  std::vector<double> y;
  for (auto _ : state) {
    oca::AdjacencyMatVecMulti(g, x, &y, k);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k * g.num_edges() * 2));
}
BENCHMARK(BM_MatVecMulti)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The unfused baseline: the same k products as k independent
// single-vector sweeps (k passes over the adjacency stream).
void BM_MatVecSequential(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  const oca::Graph& g = NestedBenchGraph();
  const size_t n = g.num_nodes();
  oca::Rng rng(7);
  std::vector<std::vector<double>> x(k, std::vector<double>(n));
  for (auto& col : x) {
    for (double& v : col) v = rng.NextDouble() * 2.0 - 1.0;
  }
  std::vector<double> y(n);
  for (auto _ : state) {
    for (size_t j = 0; j < k; ++j) {
      oca::AdjacencyMatVecRows(g, 0, n, x[j].data(), y.data());
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k * g.num_edges() * 2));
}
BENCHMARK(BM_MatVecSequential)->Arg(4)->Arg(8);

// End-to-end recursive hierarchy on the 960-node nested graph. The arg
// toggles the cross-solve seed batcher; these rows record what one fused
// SpMM per split buys in wall time. items = total spectral iterations.
void BM_HierarchyBatchedSolves(benchmark::State& state) {
  const oca::Graph& g = NestedBenchGraph();
  oca::RecursiveHierarchyOptions opt;
  opt.base.seed = 7;
  opt.base.halting.max_seeds = g.num_nodes() * 3;
  opt.base.halting.target_coverage = 0.98;
  opt.base.halting.stagnation_window = 150;
  opt.batch_restrictions = state.range(0) != 0;
  int64_t iterations = 0;
  for (auto _ : state) {
    auto tree = oca::BuildRecursiveHierarchy(g, opt).value();
    iterations += static_cast<int64_t>(tree.chain.total_iterations);
    benchmark::DoNotOptimize(tree.Digest());
  }
  state.SetItemsProcessed(iterations);
}
BENCHMARK(BM_HierarchyBatchedSolves)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Mat-vec over the cache-reordered graph (degree-sort: hubs get the
// smallest ids, concentrating gathers in the first lines of x).
void BM_MatVecReordered(benchmark::State& state) {
  static const oca::Graph* reordered = [] {
    const oca::Graph& g = LfrGraph();
    return new oca::Graph(
        oca::ReorderGraph(
            g, oca::ComputeNodeOrdering(g, oca::NodeOrdering::kDegreeSort))
            .value());
  }();
  const oca::Graph& g = *reordered;
  std::vector<double> x(g.num_nodes(), 1.0), y;
  for (auto _ : state) {
    oca::AdjacencyMatVec(g, x, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges() * 2));
}
BENCHMARK(BM_MatVecReordered);

// Parallel mat-vec scaling: the engine's fixed-block pooled kernel at
// 1/2/4 workers over the lfr_flat-shaped graph (49 row blocks; a graph of
// one block never pools). Results are bit-identical across thread counts
// (fixed-block reductions), so this measures speed only. The bench
// container is often 1-core; the CI thread-matrix job on a multi-core
// runner is where the speedup is actually recorded.
void BM_EngineMatVecThreads(benchmark::State& state) {
  const oca::Graph& g = LfrFlatGraph();
  oca::SpectralEngineOptions opt;
  opt.num_threads = static_cast<size_t>(state.range(0));
  oca::SpectralEngine engine(opt);
  std::vector<double> x(g.num_nodes(), 1.0);
  std::vector<double> y(g.num_nodes(), 0.0);
  for (auto _ : state) {
    engine.MatVec(g, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges() * 2));
}
BENCHMARK(BM_EngineMatVecThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_CouplingConstant(benchmark::State& state) {
  const oca::Graph& g = LfrGraph();
  for (auto _ : state) {
    auto c = oca::ComputeCouplingConstant(g);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CouplingConstant);

// Same resolution through a persistent engine: after the first call the
// per-graph cache answers (the hierarchy / repeated-run path).
void BM_CouplingConstantCached(benchmark::State& state) {
  const oca::Graph& g = LfrGraph();
  oca::SpectralEngine engine;
  benchmark::DoNotOptimize(engine.CouplingConstant(g));
  for (auto _ : state) {
    auto c = engine.CouplingConstant(g);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CouplingConstantCached);

// The headline kernel: scoring one candidate move. Incremental delta
// evaluation is O(1); the naive alternative re-scans the subset.
void BM_DeltaEvalIncremental(benchmark::State& state) {
  const oca::Graph& g = LfrGraph();
  oca::CommunityState cs(g);
  for (oca::NodeId v = 0; v < 40; ++v) cs.Add(v);
  oca::FitnessParams params;
  params.c = 0.5;
  auto frontier = cs.Frontier();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [node, deg_in] = frontier[i++ % frontier.size()];
    double gain = oca::FitnessGainAdd(cs.stats(), deg_in, g.Degree(node),
                                      params);
    benchmark::DoNotOptimize(gain);
  }
}
BENCHMARK(BM_DeltaEvalIncremental);

void BM_DeltaEvalNaiveRecompute(benchmark::State& state) {
  const oca::Graph& g = LfrGraph();
  oca::Community members;
  for (oca::NodeId v = 0; v < 40; ++v) members.push_back(v);
  oca::FitnessParams params;
  params.c = 0.5;
  oca::NodeId candidate = 41;
  for (auto _ : state) {
    // Naive: recompute subset stats from scratch for S and S + {v}.
    oca::SubsetStats before = oca::ComputeSubsetStats(g, members);
    oca::Community grown = members;
    grown.push_back(candidate);
    oca::SubsetStats after = oca::ComputeSubsetStats(g, grown);
    double gain = oca::EvaluateFitness(after, params) -
                  oca::EvaluateFitness(before, params);
    benchmark::DoNotOptimize(gain);
  }
}
BENCHMARK(BM_DeltaEvalNaiveRecompute);

void BM_CommunityStateChurn(benchmark::State& state) {
  const oca::Graph& g = LfrGraph();
  oca::Rng rng(3);
  for (auto _ : state) {
    oca::CommunityState cs(g);
    for (int i = 0; i < 64; ++i) {
      cs.Add(static_cast<oca::NodeId>((i * 31) % g.num_nodes()));
    }
    for (int i = 63; i >= 0; --i) {
      cs.Remove(static_cast<oca::NodeId>((i * 31) % g.num_nodes()));
    }
    benchmark::DoNotOptimize(cs.stats());
  }
}
BENCHMARK(BM_CommunityStateChurn);

// Per-climb cost against graph size. One climb from each of LfrGraph()'s
// 2,000 nodes, seeded as RunOca seeds it (the node plus, here
// deterministically, every other neighbour). Arg: 0 = on LfrGraph()
// itself; 1 = on the same graph padded with 98,000 isolated nodes
// (n = 100,000). The climbs are identical, so /1 over /0 is the part of
// a climb's cost that grows with n, which should be none: a climb costs
// O(vol(S) + frontier). A single node alone never grows here (c is below
// the (sqrt(2) - 1) / 2 a lone node needs), hence the larger seeds.
void BM_ClimbVsGraphSize(benchmark::State& state) {
  static const oca::Graph* padded = [] {
    const oca::Graph& g = LfrGraph();
    std::vector<uint64_t> offsets(g.offsets().begin(), g.offsets().end());
    offsets.resize(100000 + 1, offsets.back());
    return new oca::Graph(
        std::move(offsets),
        std::vector<oca::NodeId>(g.neighbor_array().begin(),
                                 g.neighbor_array().end()));
  }();
  static const std::vector<oca::Community> seeds = [] {
    const oca::Graph& g = LfrGraph();
    std::vector<oca::Community> sets(g.num_nodes());
    for (oca::NodeId v = 0; v < g.num_nodes(); ++v) {
      sets[v].push_back(v);
      auto nbrs = g.Neighbors(v);
      for (size_t i = 0; i < nbrs.size(); i += 2) sets[v].push_back(nbrs[i]);
    }
    return sets;
  }();
  static const double c = oca::ComputeCouplingConstant(LfrGraph()).value();
  const oca::Graph& g = state.range(0) == 0 ? LfrGraph() : *padded;
  oca::LocalSearchOptions opt;
  opt.fitness.c = c;
  for (auto _ : state) {
    for (const oca::Community& seed : seeds) {
      auto result = oca::GreedyLocalSearch(g, seed, opt);
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seeds.size()));
  state.SetLabel(state.range(0) == 0 ? "n=2000" : "n=100000");
}
BENCHMARK(BM_ClimbVsGraphSize)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Weighted mat-vec (same args as BM_MatVecKernel; the graphs carry
// deterministic hash weights). The delta against the unweighted rows is
// the cost of the third CSR stream: one extra 8-byte load per edge, a
// mul instead of nothing.
void BM_MatVecWeighted(benchmark::State& state) {
  static const oca::Graph* narrow = [] {
    return new oca::Graph(oca::AssignWeights(LfrGraph()).value());
  }();
  static const oca::Graph* wide = [] {
    return new oca::Graph(oca::AssignWeights(WideErGraph()).value());
  }();
  RunMatVecRows(state, state.range(0) == 0 ? *narrow : *wide);
}
BENCHMARK(BM_MatVecWeighted)->Arg(0)->Arg(1);

// Local search on the 960-node nested graph, one climb per node, all
// through the one bucket-queue climber, seeded as RunOca seeds it: the
// node plus every other neighbour (a lone node never grows at this c).
// These are the dense, removal-heavy climbs of the tree workloads: one
// pass runs 88,819 steps unweighted (42% removals) and 97,464 with hash
// weights (38%). Arg: 0 = unweighted graph, keys are exact deg-ins; 1 = all-1.0
// weights with use_weights (the same climbs, by the equivalence
// invariant); 2 = hash weights (genuinely weighted search). Rows 1 and 2
// price the weighted key: the quantized weighted deg-in with an exact
// rescan of the extreme bucket.
void BM_LocalSearchWeighted(benchmark::State& state) {
  const oca::Graph& base = NestedBenchGraph();
  static const oca::Graph* unit = [] {
    oca::WeightAssignOptions opt;
    opt.scheme = oca::WeightScheme::kUnit;
    return new oca::Graph(oca::AssignWeights(NestedBenchGraph(), opt).value());
  }();
  static const oca::Graph* hashed = [] {
    return new oca::Graph(oca::AssignWeights(NestedBenchGraph()).value());
  }();
  const oca::Graph& g = state.range(0) == 0   ? base
                        : state.range(0) == 1 ? *unit
                                              : *hashed;
  static const std::vector<oca::Community> seeds = [] {
    const oca::Graph& nested = NestedBenchGraph();
    std::vector<oca::Community> sets(nested.num_nodes());
    for (oca::NodeId v = 0; v < nested.num_nodes(); ++v) {
      sets[v].push_back(v);
      auto nbrs = nested.Neighbors(v);
      for (size_t i = 0; i < nbrs.size(); i += 2) sets[v].push_back(nbrs[i]);
    }
    return sets;
  }();
  static const double c = oca::ComputeCouplingConstant(base).value();
  oca::LocalSearchOptions opt;
  opt.fitness.c = c;
  opt.fitness.use_weights = state.range(0) != 0;
  for (auto _ : state) {
    for (const oca::Community& seed : seeds) {
      auto result = oca::GreedyLocalSearch(g, seed, opt);
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_nodes()));
  state.SetLabel(state.range(0) == 0   ? "unweighted/exact-key"
                 : state.range(0) == 1 ? "unit-weights/quantized-key"
                                       : "hash-weights/quantized-key");
}
BENCHMARK(BM_LocalSearchWeighted)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Subgraph runs of a recursive tree: serial RunOca on the induced
// subgraph of NestedBenchGraph()'s first super community (nodes 0-159),
// with the tree's halting options and a supplied c, as the tree hands
// each subgraph run the c it solved. One iteration is 8 runs, seeds 1-8:
// such runs halt 5-24 seeds (10 on average) into their first 64-seed
// batch, so the row prices the seeds a run climbs past its halt (none,
// when a slot is climbed only once the loop reads it). Counters: climbs
// and seeds over the 8 runs.
void BM_RunOcaEarlyHalt(benchmark::State& state) {
  static const oca::Graph* super = [] {
    std::vector<oca::NodeId> nodes(160);
    for (oca::NodeId v = 0; v < nodes.size(); ++v) nodes[v] = v;
    return new oca::Graph(
        oca::InducedSubgraph(NestedBenchGraph(), nodes).value().graph);
  }();
  oca::OcaOptions opt;
  opt.coupling_constant = oca::ClampCouplingToAdmissible(
      oca::ComputeCouplingConstant(*super).value());
  opt.halting.max_seeds = super->num_nodes() * 3;
  opt.halting.target_coverage = 0.98;
  opt.halting.stagnation_window = 150;
  size_t climbs = 0;
  size_t seeds = 0;
  for (auto _ : state) {
    climbs = 0;
    seeds = 0;
    for (opt.seed = 1; opt.seed <= 8; ++opt.seed) {
      oca::OcaResult result = oca::RunOca(*super, opt).value();
      benchmark::DoNotOptimize(result.cover);
      climbs += result.stats.climbs;
      seeds += result.stats.seeds_expanded;
    }
  }
  state.counters["climbs"] = static_cast<double>(climbs);
  state.counters["seeds"] = static_cast<double>(seeds);
  state.SetLabel("n=" + std::to_string(super->num_nodes()) +
                 " m=" + std::to_string(super->num_edges()));
}
BENCHMARK(BM_RunOcaEarlyHalt)->Unit(benchmark::kMillisecond);

void BM_BronKerbosch(benchmark::State& state) {
  oca::Rng rng(11);
  oca::Graph g =
      oca::ErdosRenyi(static_cast<size_t>(state.range(0)), 0.1, &rng).value();
  for (auto _ : state) {
    size_t count = 0;
    auto stats = oca::EnumerateMaximalCliques(
        g, {}, [&count](const std::vector<oca::NodeId>&) { ++count; });
    benchmark::DoNotOptimize(stats);
    state.counters["cliques"] = static_cast<double>(count);
  }
}
BENCHMARK(BM_BronKerbosch)->Arg(100)->Arg(200)->Arg(400);

/// Discards what is written to it, so a row times the writer, not a disk.
class DiscardBuffer : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

struct SnapshotInput {
  oca::RecursiveHierarchy tree;
  uint64_t num_nodes;
  uint64_t num_edges;
};

/// A flat cover shaped like the e2e lfr_flat workload's: n = 100,000,
/// 10% of nodes in two roots, root sizes in [20, 100] with density
/// proportional to 1/s (LFR's size law at exponent 1, mean ~50), so
/// ~2,200 roots.
const SnapshotInput& LfrShapedFlatCover() {
  static const SnapshotInput* input = [] {
    constexpr oca::NodeId kNodes = 100000;
    oca::Rng rng(11);
    std::vector<oca::NodeId> slots;  // one per membership
    for (oca::NodeId v = 0; v < kNodes; ++v) {
      slots.push_back(v);
      if (v % 10 == 0) slots.push_back(v);
    }
    rng.Shuffle(&slots);
    oca::OcaResult result;
    for (size_t at = 0; at < slots.size();) {
      const auto drawn = static_cast<size_t>(
          std::lround(20.0 * std::pow(5.0, rng.NextDouble())));
      const size_t size = std::min(slots.size() - at, drawn);
      oca::Community community(slots.begin() + at, slots.begin() + at + size);
      std::sort(community.begin(), community.end());
      community.erase(std::unique(community.begin(), community.end()),
                      community.end());
      result.cover.Add(std::move(community));
      at += size;
    }
    return new SnapshotInput{oca::FlatHierarchyFromResult(result), kNodes, 0};
  }();
  return *input;
}

/// The tree examples/store_build writes by default (960 nodes).
const SnapshotInput& StoreBuildTree() {
  static const SnapshotInput* input = [] {
    const oca::Graph& g = NestedBenchGraph();
    oca::RecursiveHierarchyOptions opt;
    opt.base.seed = 7;
    opt.base.halting.max_seeds = g.num_nodes() * 3;
    opt.base.halting.target_coverage = 0.98;
    opt.base.halting.stagnation_window = 150;
    return new SnapshotInput{oca::BuildRecursiveHierarchy(g, opt).value(),
                             g.num_nodes(), g.num_edges()};
  }();
  return *input;
}

// The .ocac writer alone: arg 0 is the lfr_flat-shaped flat cover, arg 1
// the store_build tree. bytes/sec counts snapshot bytes.
void BM_WriteCommunityStore(benchmark::State& state) {
  const SnapshotInput& input =
      state.range(0) == 0 ? LfrShapedFlatCover() : StoreBuildTree();
  DiscardBuffer discard;
  std::ostream out(&discard);
  uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = oca::WriteCommunityStore(input.tree, input.num_nodes,
                                     input.num_edges, out)
                .value();
    benchmark::DoNotOptimize(bytes);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.SetLabel(std::to_string(input.tree.roots.size()) + " roots, " +
                 std::to_string(input.tree.nodes.size()) + " communities");
}
BENCHMARK(BM_WriteCommunityStore)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ValidateGraph, the deep check OpenMmapGraph runs on every open, on
// LfrFlatGraph(). Arg: 0 = unweighted; 1 = AssignWeights hash weights,
// which adds the weight checks and a third array. items/sec counts
// neighbor entries.
void BM_ValidateGraph(benchmark::State& state) {
  static const oca::Graph* weighted =
      new oca::Graph(oca::AssignWeights(LfrFlatGraph()).value());
  const oca::Graph& g = state.range(0) == 0 ? LfrFlatGraph() : *weighted;
  for (auto _ : state) {
    oca::Status status = oca::ValidateGraph(g);
    if (!status.ok()) {
      state.SkipWithError(status.message().c_str());
      break;
    }
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.neighbor_array().size()));
  state.SetLabel(state.range(0) == 0 ? "unweighted" : "hash-weights");
}
BENCHMARK(BM_ValidateGraph)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

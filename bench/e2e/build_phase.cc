// Input generation and the builds: graph open, build rounds (graph →
// cover or tree → .ocac), the traced replays, and the output checks.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "core/halting.h"
#include "core/parallel_driver.h"
#include "core/seeding.h"
#include "e2e.h"
#include "gen/lfr.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "graph/subgraph.h"
#include "metrics/onmi.h"
#include "spectral/spectral_engine.h"
#include "util/random.h"

namespace oca::e2e {

namespace {

// A tree's build time swings with its shape, so tree workloads build
// this many independently seeded graphs per round, which keeps the
// seed-to-seed swing out of build_s. One 100k-node LFR graph is input
// enough.
constexpr size_t kTreeInputs = 4;

constexpr int kGraphOpens = 9;  // traced run: samples of graph.open_s
constexpr size_t kMaxTracedPairs = 5;
constexpr size_t kTreeWorkers = 2;
// Communities at least this large are the ones a recursive build would
// try to split (RecursiveHierarchyOptions::min_split_size).
constexpr size_t kMinSplitSize = 10;

// The paper's Fig. 5 family at 100k nodes, overlapping variant.
LfrOptions LfrFor(uint64_t seed, bool toy) {
  LfrOptions lfr;
  lfr.num_nodes = toy ? 2000 : 100000;
  lfr.average_degree = 20.0;
  lfr.max_degree = 60;
  lfr.mixing = 0.3;
  lfr.min_community = 20;
  lfr.max_community = 100;
  lfr.overlapping_nodes = lfr.num_nodes / 10;
  lfr.overlap_memberships = 2;
  lfr.seed = seed;
  return lfr;
}

// Two planted scales: 24 supers of 4 subs of 40 nodes (3,840 nodes).
NestedPartitionOptions NestedFor(uint64_t seed, bool toy) {
  NestedPartitionOptions np;
  np.num_supers = toy ? 4 : 24;
  np.subs_per_super = toy ? 3 : 4;
  np.nodes_per_sub = toy ? 16 : 40;
  np.p_sub = 0.85;
  np.p_super = 0.15;
  np.p_out = 0.03;
  np.seed = seed;
  return np;
}

OcaOptions FlatOptions(const Workload& workload, uint64_t seed) {
  OcaOptions options;
  options.seed = seed;
  options.search.fitness.use_weights = workload.IsWeighted();
  return options;
}

RecursiveHierarchyOptions TreeOptions(uint64_t seed, size_t num_nodes,
                                      size_t threads) {
  RecursiveHierarchyOptions rec;
  rec.base.seed = seed;
  rec.base.halting.max_seeds = num_nodes * 3;
  rec.base.halting.target_coverage = 0.98;
  rec.base.halting.stagnation_window = 150;
  rec.num_threads = threads;
  return rec;
}

// The engine configuration RunOca and BuildRecursiveHierarchy give
// their own engines.
SpectralEngineOptions EngineOptionsFor(const OcaOptions& options) {
  SpectralEngineOptions engine = ValueSolveOptionsFrom(options.power_method);
  engine.seed ^= options.seed;
  engine.num_threads = options.num_threads;
  return engine;
}

size_t NumInputs(const Workload& workload, bool trace) {
  return workload.IsTree() && !trace ? kTreeInputs : 1;
}

/// Input 0 comes from the run's seed itself, the others from seeds
/// derived from it.
uint64_t InputSeed(uint64_t seed, size_t input) {
  return input == 0 ? seed : seed ^ (0x9E3779B97F4A7C15ull * input);
}

std::string InputFile(const std::string& dir, const char* stem, size_t input) {
  return dir + "/" + stem + "_" + std::to_string(input);
}
std::string GraphPath(const std::string& dir, size_t input) {
  return InputFile(dir, "graph", input) + ".ocag";
}
std::string TruthPath(const std::string& dir, size_t input) {
  return InputFile(dir, "truth", input) + ".cover";
}
std::string StorePath(const std::string& dir, size_t input) {
  return InputFile(dir, "communities", input) + ".ocac";
}

Result<Built> BuildOnce(const Workload& workload, const Graph& graph,
                        uint64_t seed, const std::string& store_path,
                        Trace* trace) {
  Built b;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(trace, "hierarchy");
    if (workload.IsTree()) {
      OCA_ASSIGN_OR_RETURN(
          b.tree, BuildRecursiveHierarchy(
                      graph, TreeOptions(seed, graph.num_nodes(), kTreeWorkers)));
    } else {
      OCA_ASSIGN_OR_RETURN(OcaResult result,
                           RunOca(graph, FlatOptions(workload, seed)));
      b.tree = FlatHierarchyFromResult(result);
    }
  }
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span(trace, "store_io");
    OCA_ASSIGN_OR_RETURN(b.bytes,
                         WriteCommunityStoreFile(b.tree, graph.num_nodes(),
                                                 graph.num_edges(), store_path));
  }
  const Clock::time_point t2 = Clock::now();
  b.build_s = SecondsBetween(t0, t1);
  b.write_s = SecondsBetween(t1, t2);
  b.total_s = SecondsBetween(t0, t2);
  b.digest = b.tree.Digest();
  return b;
}

// --- The traced replay of RunOca's seed loop ------------------------------

struct ReplayCounts {
  size_t lanczos_steps = 0;
  size_t seeds = 0;
  size_t climb_calls = 0;
  size_t climb_steps = 0;
  size_t climb_adds = 0;
  size_t climb_removes = 0;
  size_t raw_communities = 0;
  MergeStats merge;
};

// 64-bit FNV-1a over the sorted member list: RunOca's duplicate test.
uint64_t HashCommunity(const Community& c) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (NodeId v : c) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  h ^= c.size();
  h *= 0x100000001b3ull;
  return h;
}

/// RunOca's serial seed loop (core/oca.cc), step for step, through the
/// public calls, with a span around each layer. The caller checks that
/// the cover equals RunOca's: a replay that drifted would be measuring
/// a different program. Orphan assignment is off in every workload.
Result<Cover> ReplayRunOca(const Graph& graph, const OcaOptions& options,
                           Trace* trace, ReplayCounts* counts) {
  double c = 0.0;
  {
    ScopedSpan span(trace, "spectral");
    SpectralEngine engine(EngineOptionsFor(options));
    OCA_ASSIGN_OR_RETURN(CouplingResult coupling,
                         engine.CouplingConstant(graph));
    counts->lanczos_steps = coupling.iterations;
    c = ClampCouplingToAdmissible(coupling.c);
  }
  LocalSearchOptions search = options.search;
  search.fitness.c = c;

  Rng master(options.seed);
  Seeder seeder(graph, options.seeding, master.Fork(1));
  HaltingTracker halting(options.halting);
  const size_t batch = std::max<size_t>(options.batch_size, 1);
  std::unordered_set<uint64_t> seen_hashes;
  Cover raw_cover;
  while (!halting.ShouldStop()) {
    std::vector<Community> seed_sets;
    {
      ScopedSpan span(trace, "seeding");
      const size_t budget =
          options.halting.max_seeds == 0
              ? batch
              : std::min(batch, options.halting.max_seeds - halting.seeds_run());
      for (size_t i = 0; i < budget && !seeder.Exhausted(); ++i) {
        NodeId seed_node = seeder.NextSeedNode();
        seeder.MarkSeedSpent(seed_node);
        seed_sets.push_back(seeder.BuildSeedSet(seed_node));
      }
    }
    if (seed_sets.empty()) {
      if (seeder.Exhausted()) halting.NoteSeedsExhausted();
      break;
    }
    std::vector<LocalSearchResult> expansions;
    {
      ScopedSpan span(trace, "climb");
      expansions = ExpandSeedBatch(graph, seed_sets, search, nullptr);
    }
    counts->climb_calls += expansions.size();
    for (const LocalSearchResult& e : expansions) {
      counts->climb_steps += e.steps;
      counts->climb_adds += e.adds;
      counts->climb_removes += e.removes;
    }
    // Coverage and novelty bookkeeping is the seeder's state.
    ScopedSpan span(trace, "seeding");
    for (LocalSearchResult& expansion : expansions) {
      bool novel = false;
      if (expansion.community.size() >= options.min_community_size &&
          seen_hashes.insert(HashCommunity(expansion.community)).second) {
        novel = seeder.MarkCovered(expansion.community) > 0;
        raw_cover.Add(std::move(expansion.community));
      }
      halting.RecordSeed(novel, seeder.CoverageFraction());
      if (halting.ShouldStop()) break;
    }
  }
  counts->seeds = halting.seeds_run();
  counts->raw_communities = raw_cover.size();

  ScopedSpan span(trace, "merge");
  MergeOptions merge = options.merge;
  if (merge.min_community_size == 0) {
    merge.min_community_size = options.min_community_size;
  }
  return MergeSimilarCommunities(std::move(raw_cover), merge, &counts->merge);
}

// --- Checks ------------------------------------------------------------------

/// The reopened snapshot answers every node exactly as the tree does
/// (the same comparison as `store_build --verify`).
bool StoreMatchesTree(const CommunityStore& store, const RecursiveHierarchy& tree,
                      size_t num_nodes) {
  const auto& meta = store.metadata();
  if (meta.num_communities != tree.nodes.size() ||
      meta.num_roots != tree.roots.size() || meta.tree_digest != tree.Digest()) {
    return false;
  }
  for (uint32_t c = 0; c < tree.nodes.size(); ++c) {
    const RecursiveCommunity& node = tree.nodes[c];
    auto members = store.Members(c);
    auto children = store.Children(c);
    if (!std::equal(members.begin(), members.end(), node.community.begin(),
                    node.community.end()) ||
        !std::equal(children.begin(), children.end(), node.children.begin(),
                    node.children.end()) ||
        store.Parent(c) != node.parent || store.Depth(c) != node.depth ||
        store.StopReason(c) != node.stop_reason ||
        store.SubgraphC(c) != node.subgraph_c ||
        store.SubgraphLambdaMin(c) != node.subgraph_lambda_min) {
      return false;
    }
  }
  // Every node's membership paths, as RecursiveHierarchy::MembershipPaths
  // defines them (roots in order, then children containing the node,
  // depth first), walked from an inverted index: MembershipPaths itself
  // scans every root per node, which on a 100k-node flat cover costs as
  // much as a build.
  std::vector<std::vector<uint32_t>> containing(num_nodes);
  for (uint32_t c = 0; c < tree.nodes.size(); ++c) {
    for (NodeId v : tree.nodes[c].community) {
      if (v >= num_nodes) return false;
      containing[v].push_back(c);
    }
  }
  std::vector<uint32_t> root_rank(tree.nodes.size(), UINT32_MAX);
  for (uint32_t i = 0; i < tree.roots.size(); ++i) root_rank[tree.roots[i]] = i;
  std::vector<uint32_t> path;
  std::vector<uint32_t> my_roots;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::vector<uint32_t>& mine = containing[v];
    size_t next = 0;
    bool same = true;
    auto descend = [&](auto&& self, uint32_t c) -> void {
      path.push_back(c);
      bool any_child = false;
      for (uint32_t child : tree.nodes[c].children) {
        if (std::binary_search(mine.begin(), mine.end(), child)) {
          any_child = true;
          self(self, child);
        }
      }
      if (!any_child) {
        if (next < store.NumPaths(v)) {
          auto stored = store.MembershipPath(v, next);
          same = same && std::equal(stored.begin(), stored.end(), path.begin(),
                                    path.end());
        }
        ++next;
      }
      path.pop_back();
    };
    my_roots.clear();
    for (uint32_t c : mine) {
      if (root_rank[c] != UINT32_MAX) my_roots.push_back(c);
    }
    std::sort(my_roots.begin(), my_roots.end(), [&](uint32_t a, uint32_t b) {
      return root_rank[a] < root_rank[b];
    });
    for (uint32_t r : my_roots) descend(descend, r);
    if (!same || next != store.NumPaths(v)) return false;
  }
  auto levels = store.Levels();
  auto summaries = tree.LevelSummaries();
  if (levels.size() != summaries.size()) return false;
  for (size_t i = 0; i < levels.size(); ++i) {
    if (levels[i].communities != summaries[i].communities ||
        levels[i].split != summaries[i].split) {
      return false;
    }
  }
  return true;
}

/// Checks one input's last build; returns its ONMI against the truth.
double CheckOutputs(const Workload& w, const Graph& graph, const Cover& truth,
                    const Built& built, uint64_t seed,
                    const std::string& store_path, Report* report) {
  if (w.IsTree()) {
    // The serial reference build runs once, outside any timing.
    auto serial =
        BuildRecursiveHierarchy(graph, TreeOptions(seed, graph.num_nodes(), 0));
    report->Attempt(serial.ok() && serial->Digest() == built.digest,
                    "2-worker tree digest equals the serial build's");
  }
  auto reopened = CommunityStore::Open(store_path);
  report->Attempt(reopened.ok() && StoreMatchesTree(reopened.value(), built.tree,
                                                    graph.num_nodes()),
                  "reopened .ocac answers every node as the tree does");
  auto onmi = Onmi(built.tree.LeafCover(), truth, graph.num_nodes());
  const double value = onmi.ok() ? onmi.value() : 0.0;
  char what[96];
  std::snprintf(what, sizeof(what), "onmi %.4f meets its floor %.2f", value,
                w.onmi_floor);
  report->Attempt(onmi.ok() && value >= w.onmi_floor, what);
  return value;
}

// --- Traced build phase ----------------------------------------------------

/// Medians of the per-layer self times over the traced replays.
class LayerTimes {
 public:
  void Add(const Trace& trace, int root,
           std::initializer_list<const char*> names) {
    for (const char* name : names) {
      samples_[name].push_back(trace.SelfSeconds(name, root));
    }
  }
  double Median(const char* name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : e2e::Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

void ReportReplayLayers(const Graph& graph, const ReplayCounts& counts,
                        const LayerTimes& layers, Report* report) {
  const double solve_s = layers.Median("spectral");
  const double arr = 2.0 * static_cast<double>(graph.num_edges());
  const double n = static_cast<double>(graph.num_nodes());
  // Bytes one Lanczos step must stream: the CSR arrays (plus weights)
  // and the input and output vectors. Computed, not measured.
  const double step_bytes = (n + 1) * 8 + arr * 4 +
                            (graph.is_weighted() ? arr * 8 : 0) + 2 * n * 8;
  const double gb = static_cast<double>(counts.lanczos_steps) * step_bytes * 1e-9;
  report->Set("spectral.solve_s", solve_s);
  report->Set("spectral.lanczos_steps", static_cast<double>(counts.lanczos_steps));
  report->Set("spectral.matvec_gb_computed", gb);
  report->Set("spectral.gb_per_s_computed", solve_s > 0 ? gb / solve_s : 0.0);
  report->Set("seeding.s", layers.Median("seeding"));
  report->Set("seeding.seeds", static_cast<double>(counts.seeds));
  const double climb_s = layers.Median("climb");
  report->Set("climb.s", climb_s);
  report->Set("climb.calls", static_cast<double>(counts.climb_calls));
  report->Set("climb.steps", static_cast<double>(counts.climb_steps));
  report->Set("climb.adds", static_cast<double>(counts.climb_adds));
  report->Set("climb.removes", static_cast<double>(counts.climb_removes));
  report->Set("climb.us_per_seed",
              counts.climb_calls == 0
                  ? 0.0
                  : climb_s * 1e6 / static_cast<double>(counts.climb_calls));
  report->Set("climb.useful_ratio",
              counts.climb_calls == 0
                  ? 0.0
                  : static_cast<double>(counts.raw_communities) /
                        static_cast<double>(counts.climb_calls));
  report->Set("merge.s", layers.Median("merge"));
  report->Set("merge.rounds", static_cast<double>(counts.merge.rounds));
  report->Set("merge.merges", static_cast<double>(counts.merge.merges));
  report->Set("merge.in_communities",
              static_cast<double>(counts.raw_communities));
}

/// Layer self times must account for the replay's wall time: what the
/// root span keeps for itself is unattributed time.
void CheckAttribution(const Trace& trace, int root, Report* report) {
  const double wall = trace.WallSeconds(root);
  const double unattributed = trace.SpanSelfSeconds(root);
  char what[128];
  std::snprintf(what, sizeof(what),
                "layer self times cover the replay's wall time "
                "(%.2f%% unattributed, limit 5%%)",
                wall > 0 ? 100.0 * unattributed / wall : 100.0);
  report->Attempt(wall > 0 && unattributed <= 0.05 * wall, what);
}

/// InducedSubgraph plus a cold coupling solve on every community a
/// recursive build splits (tree workloads: every solved node; flat
/// workloads: every community a build would try to split).
void ReplaySubgraphs(const Graph& graph, const RecursiveHierarchy& tree,
                     bool is_tree, uint64_t seed, Trace* trace,
                     Report* report) {
  const ScopedSpan root(trace, "subgraph_replay");
  OcaOptions base = TreeOptions(seed, graph.num_nodes(), 0).base;
  SpectralEngine engine(EngineOptionsFor(base));
  size_t calls = 0;
  size_t cold_steps = 0;
  bool ok = true;
  for (const RecursiveCommunity& node : tree.nodes) {
    if (is_tree ? !node.SubgraphSolved()
                : node.community.size() < kMinSplitSize) {
      continue;
    }
    Result<Subgraph> sub = Status::Internal("unset");
    {
      ScopedSpan span(trace, "subgraph");
      sub = InducedSubgraph(graph, node.community);
    }
    ++calls;
    if (!sub.ok() || sub->graph.num_edges() == 0) {
      ok = ok && sub.ok();
      continue;
    }
    ScopedSpan span(trace, "spectral.cold");
    auto coupling = engine.CouplingConstant(sub->graph);
    engine.Forget(sub->graph);
    ok = ok && coupling.ok();
    if (coupling.ok()) cold_steps += coupling->iterations;
  }
  report->Attempt(ok, "subgraph replay extracts and solves every community");
  report->Set("graph.subgraph_s", trace->SelfSeconds("subgraph", root.id()));
  report->Set("graph.subgraph_calls", static_cast<double>(calls));
  report->Set("spectral.subgraph_cold_steps", static_cast<double>(cold_steps));
  report->Set("spectral.subgraph_solve_s",
              trace->SelfSeconds("spectral.cold", root.id()));
}

}  // namespace

Status GenerateInputs(const Workload& workload, uint64_t seed, bool toy,
                      const std::string& dir) {
  for (size_t i = 0; i < NumInputs(workload, false); ++i) {
    const uint64_t input_seed = InputSeed(seed, i);
    Graph graph;
    Cover truth;
    if (workload.IsTree()) {
      OCA_ASSIGN_OR_RETURN(NestedBenchmarkGraph nested,
                           GenerateNestedPartition(NestedFor(input_seed, toy)));
      graph = std::move(nested.graph);
      truth = std::move(nested.sub_truth);
    } else {
      OCA_ASSIGN_OR_RETURN(BenchmarkGraph lfr,
                           GenerateLfr(LfrFor(input_seed, toy)));
      graph = std::move(lfr.graph);
      truth = std::move(lfr.ground_truth);
      if (workload.IsWeighted()) {
        WeightAssignOptions weights;
        weights.seed = input_seed;
        weights.min_weight = 0.5;
        weights.max_weight = 2.0;
        OCA_ASSIGN_OR_RETURN(graph, AssignWeights(graph, weights));
      }
    }
    OCA_RETURN_IF_ERROR(WriteGraphBinaryFile(graph, GraphPath(dir, i)));
    OCA_RETURN_IF_ERROR(WriteCoverFile(truth, TruthPath(dir, i)).status());
  }
  return Status::OK();
}

Result<Builds> Builds::Open(const RunArgs& args) {
  Builds builds(args);
  const size_t inputs = NumInputs(*args.workload, args.trace);
  builds.graphs_.resize(inputs);
  OCA_RETURN_IF_ERROR(builds.Reopen().status());
  for (size_t i = 0; i < inputs; ++i) {
    OCA_ASSIGN_OR_RETURN(Cover truth, ReadCoverFile(TruthPath(args.data_dir, i)));
    builds.truths_.push_back(std::move(truth));
  }
  builds.last_.resize(inputs);
  return builds;
}

Result<double> Builds::Reopen() {
  std::vector<Graph> graphs(graphs_.size());
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < graphs.size(); ++i) {
    OCA_ASSIGN_OR_RETURN(graphs[i],
                         OpenMmapGraph(GraphPath(args_->data_dir, i), {}));
  }
  const double seconds = SecondsSince(t0);
  graphs_ = std::move(graphs);  // the old mappings go outside the timing
  return seconds;
}

Result<double> Builds::Round(Report* report) {
  Trace off(false);
  const bool first = digests_.empty();
  double seconds = 0.0;
  for (size_t i = 0; i < graphs_.size(); ++i) {
    OCA_ASSIGN_OR_RETURN(
        last_[i], BuildOnce(*args_->workload, graphs_[i], InputSeed(args_->seed, i),
                            StorePath(args_->data_dir, i), &off));
    if (first) {
      digests_.push_back(last_[i].digest);
    } else {
      report->Attempt(last_[i].digest == digests_[i],
                      "build reproduces the first round's digest");
    }
    seconds += last_[i].total_s;
  }
  return seconds / static_cast<double>(graphs_.size());
}

bool Builds::Traced(double budget_s, Trace* trace, Report* report) {
  const Workload& w = *args_->workload;
  const Clock::time_point start = Clock::now();
  std::vector<double> opens;
  for (int i = 0; i < kGraphOpens; ++i) {
    auto open = Reopen();
    report->Attempt(open.ok(), "graph reopens with validation");
    if (!open.ok()) return false;
    opens.push_back(open.value());
  }
  const double open_s = Median(opens);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(GraphPath(args_->data_dir, 0), ec);
  report->Set("graph.open_s", open_s);
  report->Set("graph.open_mb_per_s",
              ec ? 0.0 : static_cast<double>(bytes) * 1e-6 / open_s);

  // Untraced builds alternate with traced replays of the same work; the
  // difference between the two is the tracing overhead. The first
  // untraced build's digest is the one every later build must reproduce.
  const Graph& graph = graphs_[0];
  const std::string store_path = StorePath(args_->data_dir, 0);
  Trace off(false);
  std::vector<double> untraced, traced, build_s, write_s;
  LayerTimes layers;
  ReplayCounts counts;
  while (untraced.size() < kMaxTracedPairs &&
         (untraced.empty() ||
          SecondsSince(start) + untraced.back() + traced.back() <= budget_s)) {
    auto plain = BuildOnce(w, graph, args_->seed, store_path, &off);
    report->Attempt(plain.ok(), "untraced build");
    if (!plain.ok()) return false;
    if (digests_.empty()) digests_.push_back(plain->digest);
    report->Attempt(plain->digest == digests_[0],
                    "untraced build reproduces the first build's digest");
    untraced.push_back(plain->total_s);
    build_s.push_back(plain->build_s);
    write_s.push_back(plain->write_s);

    const Clock::time_point t0 = Clock::now();
    const int root = trace->Begin("build");
    if (w.IsTree()) {
      // The tree build is one span; its internals come from the
      // program's own counts and the replays below.
      auto b = BuildOnce(w, graph, args_->seed, store_path, trace);
      report->Attempt(b.ok() && b->digest == digests_[0],
                      "traced build reproduces the first build's digest");
    } else {
      ReplayCounts c;
      auto cover = ReplayRunOca(graph, FlatOptions(w, args_->seed), trace, &c);
      report->Attempt(cover.ok() && cover.value() == plain->tree.LeafCover(),
                      "traced replay reproduces RunOca's cover exactly");
      if (cover.ok()) {
        counts = c;
        ScopedSpan span(trace, "store_io");
        OcaResult result;
        result.cover = std::move(cover).value();
        auto written =
            WriteCommunityStoreFile(FlatHierarchyFromResult(result),
                                    graph.num_nodes(), graph.num_edges(),
                                    args_->data_dir + "/replay.ocac");
        report->Attempt(written.ok(), "replayed cover written");
      }
    }
    trace->End(root);
    traced.push_back(SecondsSince(t0));
    if (!w.IsTree()) {
      layers.Add(*trace, root, {"spectral", "seeding", "climb", "merge"});
      CheckAttribution(*trace, root, report);
    }
    last_[0] = std::move(plain).value();
  }
  const Built& last = last_[0];

  if (w.IsTree()) {
    // The top-level run of the tree, replayed: its seeding, climb and
    // merge layers, and a check that it reproduces the tree's roots.
    const int root = trace->Begin("root_replay");
    auto cover = ReplayRunOca(
        graph, TreeOptions(args_->seed, graph.num_nodes(), 0).base, trace, &counts);
    trace->End(root);
    Cover roots;
    for (uint32_t r : last.tree.roots) roots.Add(last.tree.nodes[r].community);
    report->Attempt(cover.ok() && cover.value() == roots,
                    "root replay reproduces the tree's top-level cover");
    layers.Add(*trace, root, {"spectral", "seeding", "climb", "merge"});
    CheckAttribution(*trace, root, report);
  }
  ReportReplayLayers(graph, counts, layers, report);
  ReplaySubgraphs(graph, last.tree, w.IsTree(), args_->seed, trace, report);

  const RecursiveHierarchy& tree = last.tree;
  double busy = tree.root_stats.seconds_search;
  for (const RecursiveCommunity& node : tree.nodes) {
    busy += node.split_stats.seconds_search;
  }
  report->Set("climb.tree_busy_s", busy);
  report->Set("spectral.tree_steps",
              static_cast<double>(tree.chain.total_iterations));
  report->Set("spectral.tree_warm_hit_rate", tree.scheduling.warm_start_hit_rate);
  report->Set("hierarchy.build_s", Median(build_s));
  report->Set("hierarchy.nodes", static_cast<double>(tree.nodes.size()));
  report->Set("hierarchy.max_depth", static_cast<double>(tree.max_depth_reached));
  report->Set("hierarchy.max_concurrent",
              static_cast<double>(tree.scheduling.max_concurrent));
  report->Set("store_io.write_s", Median(write_s));
  report->Set("store_io.bytes", static_cast<double>(last.bytes));
  const double base = Median(untraced);
  report->Set("trace.overhead_frac", base > 0 ? Median(traced) / base - 1.0 : 0.0);
  return true;
}

void Builds::Check(Report* report) const {
  double onmi = 0.0;
  for (size_t i = 0; i < graphs_.size(); ++i) {
    onmi += CheckOutputs(*args_->workload, graphs_[i], truths_[i], last_[i],
                         InputSeed(args_->seed, i), StorePath(args_->data_dir, i),
                         report);
  }
  report->Set("onmi", onmi / static_cast<double>(graphs_.size()));
}

std::string Builds::store_path() const { return StorePath(args_->data_dir, 0); }

}  // namespace oca::e2e

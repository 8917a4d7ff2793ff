// .ocac round-trip fidelity: a written-then-reopened CommunityStore
// must answer every query EXACTLY like the in-memory tree it was built
// from — members, children, parents, depths, stop reasons, the bitwise
// f64 solve records, postings, membership paths and level rollups. The
// byte-identical server contract (oca_serve answers == fresh in-memory
// build) rests on this equality, so it is pinned exhaustively here for
// a handcrafted overlapping tree, a real recursive build, the flat
// RunOca-cover wrapping and seeded random forests. The writer's tree
// validation (a malformed tree is an error before the first byte, not a
// bad file) and its atomic replacement of an existing snapshot are
// pinned too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/community_store.h"
#include "core/recursive_hierarchy.h"
#include "gen/nested_partition.h"
#include "io/community_format.h"
#include "io/community_serialize.h"
#include "testing/handcrafted_tree.h"
#include "util/random.h"

namespace oca {
namespace {

using testing::HandcraftedTree;

std::string TempStorePath(const std::string& tag) {
  return ::testing::TempDir() + "/oca_store_roundtrip_" + tag + ".ocac";
}

CommunityStore WriteAndOpen(const RecursiveHierarchy& tree,
                            uint64_t num_nodes, uint64_t num_edges,
                            const std::string& tag) {
  const std::string path = TempStorePath(tag);
  auto written = WriteCommunityStoreFile(tree, num_nodes, num_edges, path);
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  auto store = CommunityStore::Open(path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

/// The full store-vs-tree equality sweep. Every comparison is exact:
/// the snapshot is a serialization of the tree, not an approximation.
void ExpectStoreEqualsTree(const CommunityStore& store,
                           const RecursiveHierarchy& tree,
                           uint64_t num_nodes) {
  const auto& meta = store.metadata();
  EXPECT_EQ(meta.num_nodes, num_nodes);
  ASSERT_EQ(meta.num_communities, tree.nodes.size());
  ASSERT_EQ(meta.num_roots, tree.roots.size());
  EXPECT_EQ(meta.num_levels, tree.max_depth_reached + 1);
  EXPECT_EQ(meta.coupling_constant, tree.root_stats.coupling_constant);
  EXPECT_EQ(meta.lambda_min, tree.root_stats.lambda_min);
  EXPECT_EQ(meta.tree_digest, tree.Digest());

  auto roots = store.Roots();
  EXPECT_TRUE(std::equal(roots.begin(), roots.end(), tree.roots.begin()));

  for (uint32_t c = 0; c < tree.nodes.size(); ++c) {
    SCOPED_TRACE("community " + std::to_string(c));
    const RecursiveCommunity& node = tree.nodes[c];
    auto members = store.Members(c);
    ASSERT_EQ(members.size(), node.community.size());
    EXPECT_TRUE(
        std::equal(members.begin(), members.end(), node.community.begin()));
    auto children = store.Children(c);
    ASSERT_EQ(children.size(), node.children.size());
    EXPECT_TRUE(
        std::equal(children.begin(), children.end(), node.children.begin()));
    EXPECT_EQ(store.Parent(c), node.parent);
    EXPECT_EQ(store.Depth(c), node.depth);
    EXPECT_EQ(store.StopReason(c), node.stop_reason);
    EXPECT_EQ(store.SubgraphC(c), node.subgraph_c);
    EXPECT_EQ(store.SubgraphLambdaMin(c), node.subgraph_lambda_min);
  }

  // Postings: the roots containing v, ascending — derived independently
  // from the tree here, not from the writer's own code path.
  std::vector<uint32_t> sorted_roots(tree.roots.begin(), tree.roots.end());
  std::sort(sorted_roots.begin(), sorted_roots.end());
  for (NodeId v = 0; v < num_nodes; ++v) {
    SCOPED_TRACE("node " + std::to_string(v));
    std::vector<uint32_t> expected;
    for (uint32_t r : sorted_roots) {
      const Community& community = tree.nodes[r].community;
      if (std::binary_search(community.begin(), community.end(), v)) {
        expected.push_back(r);
      }
    }
    auto actual = store.CommunitiesOf(v);
    ASSERT_EQ(actual.size(), expected.size());
    EXPECT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin()));

    auto paths = tree.MembershipPaths(v);
    ASSERT_EQ(store.NumPaths(v), paths.size());
    for (size_t i = 0; i < paths.size(); ++i) {
      auto stored = store.MembershipPath(v, i);
      ASSERT_EQ(stored.size(), paths[i].size());
      EXPECT_TRUE(
          std::equal(stored.begin(), stored.end(), paths[i].begin()));
    }
  }

  auto levels = store.Levels();
  auto summaries = tree.LevelSummaries();
  ASSERT_EQ(levels.size(), summaries.size());
  for (size_t i = 0; i < levels.size(); ++i) {
    SCOPED_TRACE("level " + std::to_string(i));
    EXPECT_EQ(levels[i].depth, summaries[i].depth);
    EXPECT_EQ(levels[i].communities, summaries[i].communities);
    EXPECT_EQ(levels[i].split, summaries[i].split);
    EXPECT_EQ(levels[i].subgraph_solves, summaries[i].subgraph_solves);
    EXPECT_EQ(levels[i].reserved, 0u);
    EXPECT_EQ(levels[i].spectral_iterations,
              summaries[i].spectral_iterations);
  }
}

TEST(CommunityStoreRoundTrip, HandcraftedOverlappingTree) {
  RecursiveHierarchy tree = HandcraftedTree();
  CommunityStore store = WriteAndOpen(tree, 8, 11, "handcrafted");
  ExpectStoreEqualsTree(store, tree, 8);
}

TEST(CommunityStoreRoundTrip, UncoveredNodesAnswerEmpty) {
  // num_nodes larger than any member id: the extra nodes are covered by
  // no community and must answer empty, not crash.
  RecursiveHierarchy tree = HandcraftedTree();
  CommunityStore store = WriteAndOpen(tree, 12, 11, "uncovered");
  ExpectStoreEqualsTree(store, tree, 12);
  for (NodeId v = 8; v < 12; ++v) {
    EXPECT_TRUE(store.CommunitiesOf(v).empty());
    EXPECT_EQ(store.NumPaths(v), 0u);
  }
}

TEST(CommunityStoreRoundTrip, WriterReturnsExactByteSize) {
  RecursiveHierarchy tree = HandcraftedTree();
  const std::string path = TempStorePath("bytes");
  auto written = WriteCommunityStoreFile(tree, 8, 11, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_EQ(written.value(), static_cast<uint64_t>(in.tellg()));

  // The stream writer reports the same size for the same tree.
  std::ostringstream buffer;
  auto streamed = WriteCommunityStore(tree, 8, 11, buffer);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed.value(), written.value());
  EXPECT_EQ(buffer.str().size(), streamed.value());
}

TEST(CommunityStoreRoundTrip, BuiltRecursiveHierarchy) {
  // The real pipeline: mixed-scale nested partition, recursive build,
  // snapshot, reopen — the store answers exactly what the tree answers.
  NestedPartitionOptions gen;
  gen.num_supers = 4;
  gen.subs_per_super = 3;
  gen.nodes_per_sub = 20;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.08;
  gen.seed = 7;
  auto bench = GenerateNestedPartition(gen).value();

  RecursiveHierarchyOptions opt;
  opt.base.seed = 7;
  opt.base.halting.max_seeds = 720;
  opt.base.halting.target_coverage = 0.98;
  opt.base.halting.stagnation_window = 150;
  auto tree = BuildRecursiveHierarchy(bench.graph, opt).value();
  ASSERT_GE(tree.max_depth_reached, 1u) << "fixture no longer recurses";

  CommunityStore store =
      WriteAndOpen(tree, bench.graph.num_nodes(), bench.graph.num_edges(),
                   "recursive");
  ExpectStoreEqualsTree(store, tree, bench.graph.num_nodes());
  EXPECT_EQ(store.metadata().num_edges, bench.graph.num_edges());
}

TEST(CommunityStoreRoundTrip, FlatCoverThroughFlatHierarchy) {
  OcaResult result;
  result.cover.Add({0, 1, 2});
  result.cover.Add({2, 3, 4});  // overlapping
  result.stats.coupling_constant = 3.5;
  result.stats.lambda_min = -0.28571428571428571;

  RecursiveHierarchy flat = FlatHierarchyFromResult(result);
  ASSERT_EQ(flat.nodes.size(), 2u);
  ASSERT_EQ(flat.roots.size(), 2u);
  CommunityStore store = WriteAndOpen(flat, 5, 6, "flat");
  ExpectStoreEqualsTree(store, flat, 5);

  // Flat-specific shape: every community a depth-0 root with stop
  // reason "flat", one single-entry path per containing root.
  EXPECT_EQ(store.metadata().num_levels, 1u);
  for (uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(store.Depth(c), 0u);
    EXPECT_EQ(store.Parent(c), kCommunityFileNoParent);
    EXPECT_EQ(store.StopReason(c), "flat");
    EXPECT_TRUE(store.Children(c).empty());
  }
  EXPECT_EQ(store.NumPaths(2), 2u);  // node 2 is in both communities
  EXPECT_EQ(store.MembershipPath(2, 0).size(), 1u);
  EXPECT_EQ(store.metadata().coupling_constant, 3.5);
}

constexpr NodeId kRandomForestNodes = 40;

/// A seeded random forest of depth <= 4 in shapes the recursive builder
/// never produces: roots listed out of arena order, nodes in several
/// roots, overlapping siblings, members no child takes, child members
/// outside their parent, and nodes (the last four ids) in no community.
RecursiveHierarchy RandomForest(uint64_t seed) {
  constexpr NodeId kCovered = kRandomForestNodes - 4;
  constexpr uint32_t kMaxDepth = 4;
  Rng rng(seed);
  // `size` distinct members of `pool`, ascending.
  auto sample = [&](const Community& pool, size_t size) {
    Community drawn = rng.SampleWithoutReplacement(pool, size);
    std::sort(drawn.begin(), drawn.end());
    return drawn;
  };
  Community covered(kCovered);
  for (NodeId v = 0; v < kCovered; ++v) covered[v] = v;

  // Built breadth-first; roots larger than half the covered nodes
  // overlap pairwise.
  RecursiveHierarchy built;
  const size_t num_roots = 2 + rng.NextBounded(3);
  for (size_t r = 0; r < num_roots; ++r) {
    RecursiveCommunity root;
    root.community =
        sample(covered, kCovered / 2 + 1 + rng.NextBounded(kCovered / 2));
    built.nodes.push_back(std::move(root));
  }
  for (uint32_t i = 0; i < built.nodes.size(); ++i) {
    if (built.nodes[i].depth == kMaxDepth || !rng.NextBool(0.6)) continue;
    const Community parent = built.nodes[i].community;
    const size_t num_children = 1 + rng.NextBounded(3);
    for (size_t k = 0; k < num_children; ++k) {
      RecursiveCommunity child;
      child.community = sample(parent, 1 + rng.NextBounded(parent.size()));
      const NodeId outsider = static_cast<NodeId>(rng.NextBounded(kCovered));
      if (rng.NextBool(0.3) && !std::binary_search(child.community.begin(),
                                                   child.community.end(),
                                                   outsider)) {
        child.community.insert(std::upper_bound(child.community.begin(),
                                                child.community.end(),
                                                outsider),
                               outsider);
      }
      child.parent = i;
      child.depth = built.nodes[i].depth + 1;
      built.nodes[i].children.push_back(
          static_cast<uint32_t>(built.nodes.size()));
      built.nodes.push_back(std::move(child));
    }
  }

  // Scatter the arena so neither roots nor children follow arena order.
  std::vector<uint32_t> id(built.nodes.size());
  for (uint32_t i = 0; i < id.size(); ++i) id[i] = i;
  rng.Shuffle(&id);
  RecursiveHierarchy tree;
  tree.nodes.resize(built.nodes.size());
  for (uint32_t i = 0; i < built.nodes.size(); ++i) {
    RecursiveCommunity node = std::move(built.nodes[i]);
    if (node.parent != RecursiveHierarchy::kNoParent) {
      node.parent = id[node.parent];
    }
    for (uint32_t& ch : node.children) ch = id[ch];
    node.stop_reason = node.children.empty() ? "min_size" : "split";
    tree.max_depth_reached =
        std::max<size_t>(tree.max_depth_reached, node.depth);
    tree.nodes[id[i]] = std::move(node);
  }
  for (uint32_t r = 0; r < num_roots; ++r) tree.roots.push_back(id[r]);
  if (std::is_sorted(tree.roots.begin(), tree.roots.end())) {
    std::reverse(tree.roots.begin(), tree.roots.end());
  }
  return tree;
}

TEST(CommunityStoreRoundTrip, RandomForestsMatchMembershipPaths) {
  // The writer builds postings and paths with its own forest walk; the
  // sweep compares them with MembershipPaths on every node.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RecursiveHierarchy tree = RandomForest(seed);
    CommunityStore store =
        WriteAndOpen(tree, kRandomForestNodes, 0, "random_forest");
    ExpectStoreEqualsTree(store, tree, kRandomForestNodes);
  }
}

// ---------------------------------------------------------------------
// Replacing a snapshot: the file at a path changes only by a rename of
// a complete new snapshot over it.
// ---------------------------------------------------------------------

/// A fresh, empty directory for one test's snapshot.
std::filesystem::path EmptyDir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("oca_store_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CommunityStoreReplace, RejectedWriteKeepsOldFile) {
  const std::filesystem::path dir = EmptyDir("replace_rejected");
  const std::string path = (dir / "store.ocac").string();
  const RecursiveHierarchy tree = HandcraftedTree();
  ASSERT_TRUE(WriteCommunityStoreFile(tree, 8, 11, path).ok());

  RecursiveHierarchy bad = HandcraftedTree();
  bad.nodes[2].stop_reason = "because";
  EXPECT_TRUE(WriteCommunityStoreFile(bad, 8, 11, path)
                  .status()
                  .IsInvalidArgument());

  auto store = CommunityStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value().metadata().tree_digest, tree.Digest());
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"store.ocac"});
}

TEST(CommunityStoreReplace, OpenStoreKeepsItsSnapshot) {
  const std::string path = (EmptyDir("replace_open") / "store.ocac").string();
  const RecursiveHierarchy tree = HandcraftedTree();
  ASSERT_TRUE(WriteCommunityStoreFile(tree, 8, 11, path).ok());
  auto store = CommunityStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // A different, larger snapshot replaces the file while it is mapped.
  const RecursiveHierarchy other = RandomForest(1);
  ASSERT_TRUE(WriteCommunityStoreFile(other, kRandomForestNodes, 0, path).ok());
  ExpectStoreEqualsTree(store.value(), tree, 8);
}

// ---------------------------------------------------------------------
// Writer rejection: a malformed tree is a typed kInvalidArgument before
// any byte is written; a dead stream is kIOError.
// ---------------------------------------------------------------------

Status WriteStatus(const RecursiveHierarchy& tree, uint64_t num_nodes) {
  std::ostringstream out;
  return WriteCommunityStore(tree, num_nodes, 0, out).status();
}

TEST(CommunityStoreWriterErrors, ZeroNodeGraph) {
  auto s = WriteStatus(HandcraftedTree(), 0);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CommunityStoreWriterErrors, EmptyCommunity) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.nodes[2].community.clear();
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("empty"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, UnsortedMembers) {
  RecursiveHierarchy tree = HandcraftedTree();
  std::swap(tree.nodes[2].community[0], tree.nodes[2].community[2]);
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("sorted"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, DuplicateMembers) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.nodes[2].community = {0, 1, 1};
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CommunityStoreWriterErrors, MemberOutOfRange) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.nodes[2].community = {0, 1, 200};
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("out of range"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, RootArenaIdOutOfRange) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.roots.push_back(99);
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(CommunityStoreWriterErrors, ParentDepthLinkMalformed) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.nodes[2].depth = 3;  // parent is at depth 0
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("parent/depth"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, ChildLinkMalformed) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.nodes[0].children = {2, 4};  // 4's parent is 1, not 0
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("child link"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, NotAForest) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.nodes[0].children = {2};  // 3 still points at parent 0: orphaned
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("forest"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, ChildListedTwice) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.nodes[0].children = {2, 2};  // and 3 is listed nowhere
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("listed twice"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, RootListedTwice) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.roots = {0, 1, 1};
  tree.nodes[1].children.clear();  // and 4 is listed nowhere
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("listed twice"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, UnknownStopReason) {
  RecursiveHierarchy tree = HandcraftedTree();
  tree.nodes[2].stop_reason = "because";
  auto s = WriteStatus(tree, 8);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("stop reason"), std::string::npos);
}

TEST(CommunityStoreWriterErrors, DeadStreamIsIOError) {
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  auto s = WriteCommunityStore(HandcraftedTree(), 8, 11, out).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(CommunityStoreWriterErrors, UnwritablePathIsIOError) {
  auto s = WriteCommunityStoreFile(HandcraftedTree(), 8, 11,
                                   "/no/such/dir/store.ocac")
               .status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

}  // namespace
}  // namespace oca

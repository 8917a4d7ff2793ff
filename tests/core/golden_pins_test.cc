// Golden pins: literal values of the spectral solve, the flat cover and
// the recursive tree on two fixed graphs. Every other determinism test
// compares two runs of the current code (kernels x threads x backends);
// these compare against recorded numbers, so a change that shifted the
// scalar Lanczos recurrence in every leg at once still fails here.
//
// Nothing here hashes raw double bits. Start vectors come from
// Box-Muller draws through libm log/cos, which may differ in the last
// ulp between C libraries, so c is pinned to a relative 1e-12 and the
// hashes cover only discrete structure (members, links, stop reasons)
// or iteration counts. Likewise the .ocac snapshot pins hash a whole file
// only for the handcrafted tree, whose doubles are exact; for built
// covers and trees they hash the sections from roots up to the level
// rollups, which hold no doubles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/oca.h"
#include "core/recursive_hierarchy.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "io/community_format.h"
#include "io/community_serialize.h"
#include "spectral/spectral_engine.h"
#include "testing/handcrafted_tree.h"

namespace oca {
namespace {

class Fnv1a {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void MixBytes(std::string_view bytes) {
    for (char ch : bytes) {
      h_ ^= static_cast<unsigned char>(ch);
      h_ *= 0x100000001B3ull;
    }
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char ch : s) Mix(static_cast<unsigned char>(ch));
  }
  uint64_t hash() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

// The NestedGraph(21) fixture of tests/spectral/matvec_kernel_test.cc.
Graph NestedGraph21() {
  NestedPartitionOptions gen;
  gen.num_supers = 4;
  gen.subs_per_super = 3;
  gen.nodes_per_sub = 20;
  gen.p_sub = 0.85;
  gen.p_super = 0.15;
  gen.p_out = 0.08;
  gen.seed = 21;
  return GenerateNestedPartition(gen).value().graph;
}

struct Case {
  const char* name;
  bool weighted;
  size_t coupling_iterations;
  double c;
  uint64_t cover_hash;
  uint64_t tree_hash;
  size_t tree_iterations;  // Lanczos steps summed over the subgraph solves
  uint64_t tree_iterations_hash;
};

// The tree pin hashes structure alone: communities, links and stop
// reasons. The iteration pin holds what the tree's subgraph solves
// spent, which moves whenever their start vectors do, although no
// community moves with it: it was re-recorded once when subgraph solves
// stopped starting from the parent's eigenvector and started cold
// (500 -> 548 and 448 -> 516 steps). Earlier moves of the tree: the
// unweighted tree, and the recursive snapshot hash below, moved when
// the integer climber took up the smallest-id tie rule (exact deg-in
// ties in the subgraph climbs fall to the smallest id); the weighted
// top-level cover holds a root spanning the whole graph, and that
// root's run draws its own seed instead of replaying the top-level run.
// The flat covers did not move.
constexpr Case kCases[] = {
    {"nested21", false, 36, 0.10578983723657727, 0x27af20129aba5a7dull,
     0xb099da6f06f0d96bull, 548, 0x2e3e66ce374b2359ull},
    {"nested21_hashed_weights", true, 44, 0.077502395249435155,
     0x52928ca08d2a28a3ull, 0xacdc9a8b16f386eeull, 516, 0x2a9513227385b781ull},
};

Graph GraphFor(const Case& tc) {
  Graph g = NestedGraph21();
  if (!tc.weighted) return g;
  return AssignWeights(g).value();
}

OcaOptions RunOptions(const Case& tc) {
  OcaOptions opt;
  opt.seed = 21;
  opt.halting.max_seeds = 720;
  opt.halting.target_coverage = 0.98;
  opt.halting.stagnation_window = 150;
  opt.search.fitness.use_weights = tc.weighted;
  return opt;
}

uint64_t CoverHash(const Cover& cover) {
  std::vector<Community> sorted = cover.communities();
  for (Community& c : sorted) std::sort(c.begin(), c.end());
  std::sort(sorted.begin(), sorted.end());
  Fnv1a h;
  h.Mix(sorted.size());
  for (const Community& c : sorted) {
    h.Mix(c.size());
    for (NodeId v : c) h.Mix(v);
  }
  return h.hash();
}

uint64_t TreeStructureHash(const RecursiveHierarchy& tree) {
  Fnv1a h;
  h.Mix(tree.nodes.size());
  h.Mix(tree.roots.size());
  for (uint32_t root : tree.roots) h.Mix(root);
  for (const RecursiveCommunity& node : tree.nodes) {
    h.Mix(node.community.size());
    for (NodeId v : node.community) h.Mix(v);
    h.Mix(node.parent);
    h.Mix(node.depth);
    h.Mix(node.children.size());
    for (uint32_t child : node.children) h.Mix(child);
    h.MixString(node.stop_reason);
  }
  return h.hash();
}

/// The Lanczos steps of every node's subgraph solve, in arena order. Kept
/// apart from the structure hash: how a solve starts moves these counts
/// (and the low bits of c) without moving a single community.
uint64_t TreeIterationsHash(const RecursiveHierarchy& tree) {
  Fnv1a h;
  for (const RecursiveCommunity& node : tree.nodes) {
    h.Mix(node.spectral_iterations);
  }
  return h.hash();
}

TEST(GoldenPinsTest, CouplingConstant) {
  for (const Case& tc : kCases) {
    Graph g = GraphFor(tc);
    SpectralEngine engine;
    CouplingResult r = engine.CouplingConstant(g).value();
    EXPECT_TRUE(r.converged) << tc.name;
    EXPECT_EQ(r.iterations, tc.coupling_iterations) << tc.name;
    EXPECT_NEAR(r.c, tc.c, 1e-12 * tc.c)
        << tc.name << " c = " << ::testing::PrintToString(r.c);
  }
}

TEST(GoldenPinsTest, FlatCover) {
  for (const Case& tc : kCases) {
    Graph g = GraphFor(tc);
    OcaResult result = RunOca(g, RunOptions(tc)).value();
    EXPECT_EQ(CoverHash(result.cover), tc.cover_hash)
        << tc.name << std::hex << " got 0x" << CoverHash(result.cover);
  }
}

TEST(GoldenPinsTest, RecursiveTreeStructure) {
  for (const Case& tc : kCases) {
    Graph g = GraphFor(tc);
    RecursiveHierarchyOptions opt;
    opt.base = RunOptions(tc);
    RecursiveHierarchy tree = BuildRecursiveHierarchy(g, opt).value();
    ASSERT_GT(tree.nodes.size(), tree.roots.size())
        << tc.name << ": workload must genuinely recurse";
    EXPECT_EQ(TreeStructureHash(tree), tc.tree_hash)
        << tc.name << std::hex << " got 0x" << TreeStructureHash(tree);
  }
}

TEST(GoldenPinsTest, RecursiveTreeIterations) {
  for (const Case& tc : kCases) {
    Graph g = GraphFor(tc);
    RecursiveHierarchyOptions opt;
    opt.base = RunOptions(tc);
    RecursiveHierarchy tree = BuildRecursiveHierarchy(g, opt).value();
    EXPECT_EQ(tree.chain.total_iterations, tc.tree_iterations) << tc.name;
    EXPECT_EQ(TreeIterationsHash(tree), tc.tree_iterations_hash)
        << tc.name << std::hex << " got 0x" << TreeIterationsHash(tree);
  }
}

std::string Snapshot(const RecursiveHierarchy& tree, uint64_t num_nodes,
                     uint64_t num_edges) {
  std::ostringstream out;
  auto written = WriteCommunityStore(tree, num_nodes, num_edges, out);
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  return out.str();
}

uint64_t BytesHash(std::string_view bytes) {
  Fnv1a h;
  h.MixBytes(bytes);
  return h.hash();
}

/// Hash of [CommunityFileRootsStart, CommunityFileLevelsStart): roots,
/// members, children, postings and paths.
uint64_t LinkSectionsHash(const std::string& bytes) {
  // The header's ten u64 counts, from byte 8, are CommunityFileCounts'
  // fields in order.
  static_assert(sizeof(CommunityFileCounts) == 10 * sizeof(uint64_t));
  if (bytes.size() < kCommunityFileHeaderBytes) return 0;  // write failed
  CommunityFileCounts counts;
  std::memcpy(&counts, bytes.data() + 8, sizeof(counts));
  const uint64_t begin = CommunityFileRootsStart(counts);
  const uint64_t end = CommunityFileLevelsStart(counts);
  EXPECT_LE(end, bytes.size());
  return BytesHash(std::string_view(bytes).substr(begin, end - begin));
}

TEST(GoldenPinsTest, SnapshotBytes) {
  const uint64_t handcrafted =
      BytesHash(Snapshot(testing::HandcraftedTree(), 8, 11));
  // Re-recorded once, when Digest() stopped mixing the warm-start
  // fields: the file differs from the earlier one only in the header's
  // tree_digest, bytes 104-111.
  EXPECT_EQ(handcrafted, 0x17d5e6c7362993ull)
      << std::hex << " got 0x" << handcrafted;

  const Case& tc = kCases[0];
  Graph g = GraphFor(tc);
  OcaResult result = RunOca(g, RunOptions(tc)).value();
  const uint64_t flat = LinkSectionsHash(Snapshot(
      FlatHierarchyFromResult(result), g.num_nodes(), g.num_edges()));
  EXPECT_EQ(flat, 0x7c0159d10bf6cdbcull) << std::hex << " got 0x" << flat;

  RecursiveHierarchyOptions opt;
  opt.base = RunOptions(tc);
  RecursiveHierarchy tree = BuildRecursiveHierarchy(g, opt).value();
  const uint64_t recursive =
      LinkSectionsHash(Snapshot(tree, g.num_nodes(), g.num_edges()));
  EXPECT_EQ(recursive, 0xdae28746ea3aedf5ull)
      << std::hex << " got 0x" << recursive;
}

}  // namespace
}  // namespace oca

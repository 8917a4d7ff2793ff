// Golden pins: literal values of the spectral solve, the flat cover and
// the recursive tree on two fixed graphs. Every other determinism test
// compares two runs of the current code (kernels x threads x backends);
// these compare against recorded numbers, so a change that shifted the
// scalar Lanczos recurrence in every leg at once still fails here.
//
// Nothing here hashes raw double bits. Start vectors come from
// Box-Muller draws through libm log/cos, which may differ in the last
// ulp between C libraries, so c is pinned to a relative 1e-12 and the
// hashes cover only discrete structure (members, links, stop reasons,
// iteration counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/oca.h"
#include "core/recursive_hierarchy.h"
#include "gen/nested_partition.h"
#include "gen/weight_assign.h"
#include "spectral/spectral_engine.h"

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
};

constexpr Case kCases[] = {
    {"nested21", false, 36, 0.10578983723657727, 0x27af20129aba5a7dull,
     0xb8cf2680b87ef1ebull},
    {"nested21_hashed_weights", true, 44, 0.077502395249435155,
     0x52928ca08d2a28a3ull, 0x3364f625acdc0601ull},
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

}  // namespace
}  // namespace oca

#include "gen/nested_partition.h"

#include <limits>

#include "graph/graph_builder.h"
#include "util/random.h"

namespace oca {

Result<NestedBenchmarkGraph> GenerateNestedPartition(
    const NestedPartitionOptions& options) {
  if (options.num_supers == 0 || options.subs_per_super == 0 ||
      options.nodes_per_sub == 0) {
    return Status::InvalidArgument("nested partition needs nonzero counts");
  }
  for (double p : {options.p_sub, options.p_super, options.p_out}) {
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("probabilities must be in [0,1]");
    }
  }
  if (options.p_sub < options.p_super || options.p_super < options.p_out) {
    return Status::InvalidArgument(
        "nesting requires p_sub >= p_super >= p_out");
  }

  // n = supers x subs x nodes_per_sub must not exceed NodeId's max,
  // checked before any allocation: a wrapped product, or an n past
  // NodeId, would make the NodeId loop u < n below endless.
  constexpr size_t kMaxNodes = std::numeric_limits<NodeId>::max();
  if (options.subs_per_super > kMaxNodes / options.num_supers ||
      options.nodes_per_sub >
          kMaxNodes / (options.num_supers * options.subs_per_super)) {
    return Status::InvalidArgument(
        "nested partition node count exceeds the NodeId range");
  }
  const size_t num_subs = options.num_supers * options.subs_per_super;
  const size_t n = num_subs * options.nodes_per_sub;
  auto sub_of = [&](NodeId v) { return v / options.nodes_per_sub; };
  auto super_of = [&](NodeId v) {
    return sub_of(v) / options.subs_per_super;
  };

  Rng rng(options.seed);
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      double p = options.p_out;
      if (sub_of(u) == sub_of(v)) {
        p = options.p_sub;
      } else if (super_of(u) == super_of(v)) {
        p = options.p_super;
      }
      if (rng.NextBool(p)) builder.AddEdge(u, v);
    }
  }
  OCA_ASSIGN_OR_RETURN(Graph graph, builder.Build());

  Cover sub_truth;
  for (size_t b = 0; b < num_subs; ++b) {
    Community c;
    for (size_t i = 0; i < options.nodes_per_sub; ++i) {
      c.push_back(static_cast<NodeId>(b * options.nodes_per_sub + i));
    }
    sub_truth.Add(std::move(c));
  }
  sub_truth.Canonicalize();

  Cover super_truth;
  const size_t super_size = options.subs_per_super * options.nodes_per_sub;
  for (size_t s = 0; s < options.num_supers; ++s) {
    Community c;
    for (size_t i = 0; i < super_size; ++i) {
      c.push_back(static_cast<NodeId>(s * super_size + i));
    }
    super_truth.Add(std::move(c));
  }
  super_truth.Canonicalize();

  return NestedBenchmarkGraph{std::move(graph), std::move(super_truth),
                              std::move(sub_truth)};
}

}  // namespace oca

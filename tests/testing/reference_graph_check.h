// A brute-force restatement of ValidateGraph's contract, kept apart from
// the library so that tests judging parser output, and ValidateGraph
// itself, do not grade the library against its own code.

#ifndef OCA_TESTS_TESTING_REFERENCE_GRAPH_CHECK_H_
#define OCA_TESTS_TESTING_REFERENCE_GRAPH_CHECK_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "graph/graph.h"
#include "util/status.h"

namespace oca::testing {

/// OK iff `graph` is a simple undirected CSR graph: offsets start at 0,
/// never fall and end at the entry count; every entry is in range, not
/// a self-loop and above its row's previous entry; weights, if any, are
/// one per entry, finite and > 0; and every directed entry (u, v) has a
/// mirror (v, u) carrying the same weight bits. Errors are kInternal, as
/// ValidateGraph's are. Builds a map of all directed entries: for small
/// test graphs only.
inline Status ReferenceValidateGraph(const Graph& graph) {
  const auto offsets = graph.offsets();
  const auto nbrs = graph.neighbor_array();
  const auto weights = graph.weight_array();
  if (!weights.empty() && weights.size() != nbrs.size()) {
    return Status::Internal("reference: weight count differs");
  }
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != nbrs.size()) {
    return Status::Internal("reference: offsets frame");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i - 1] > offsets[i]) {
      return Status::Internal("reference: offsets fall at " +
                              std::to_string(i - 1));
    }
  }
  const uint64_t n = offsets.size() - 1;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> entry_bits;
  for (uint64_t u = 0; u < n; ++u) {
    for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const uint64_t v = nbrs[e];
      if (v >= n) return Status::Internal("reference: out of range");
      if (v == u) return Status::Internal("reference: self-loop");
      if (e > offsets[u] && nbrs[e - 1] >= v) {
        return Status::Internal("reference: order");
      }
      uint64_t bits = 0;
      if (!weights.empty()) {
        const double w = weights[e];
        if (std::isnan(w) || std::isinf(w) || w <= 0.0) {
          return Status::Internal("reference: weight value");
        }
        bits = std::bit_cast<uint64_t>(w);
      }
      entry_bits[{u, v}] = bits;
    }
  }
  for (const auto& [entry, bits] : entry_bits) {
    auto mirror = entry_bits.find({entry.second, entry.first});
    if (mirror == entry_bits.end()) {
      return Status::Internal("reference: missing mirror");
    }
    if (mirror->second != bits) {
      return Status::Internal("reference: mirror weight differs");
    }
  }
  return Status::OK();
}

}  // namespace oca::testing

#endif  // OCA_TESTS_TESTING_REFERENCE_GRAPH_CHECK_H_

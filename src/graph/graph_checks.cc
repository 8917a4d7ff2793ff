#include "graph/graph_checks.h"

#include <cmath>
#include <string>
#include <vector>

namespace oca {

namespace {

Status Asymmetric(uint64_t u, uint64_t v) {
  return Status::Internal("asymmetric edge " + std::to_string(u) + "-" +
                          std::to_string(v));
}

}  // namespace

// Two linear passes. Pass 1 streams every row and checks each entry on
// its own (range, self-loop, strict order, weight value). Pass 2 checks
// symmetry with one forward cursor per row: walking u upward, each entry
// v > u of row u must find u at row v's cursor, which then moves on.
// Rows are strictly sorted after pass 1, so row v's entries below v are
// met in the order their mirrors are walked, and on reaching row u every
// entry below u must already have been consumed. One probe per
// undirected edge and 4 bytes of heap per node, instead of a binary
// search per directed entry.
Status ValidateGraph(const Graph& graph) {
  const auto& offsets = graph.offsets();
  const auto& nbrs = graph.neighbor_array();
  const auto& weights = graph.weight_array();
  const size_t n = graph.num_nodes();

  if (!weights.empty() && weights.size() != nbrs.size()) {
    return Status::Internal(
        "weight array has " + std::to_string(weights.size()) +
        " entries for " + std::to_string(nbrs.size()) + " neighbor entries");
  }

  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != nbrs.size()) {
    return Status::Internal("CSR offsets malformed");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Internal("CSR offsets not monotone at node " +
                              std::to_string(i));
    }
  }

  // Pass 1: each entry on its own.
  for (size_t u = 0; u < n; ++u) {
    for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const NodeId v = nbrs[e];
      if (v >= n) {
        return Status::Internal("neighbor id out of range at node " +
                                std::to_string(u));
      }
      if (v == u) {
        return Status::Internal("self-loop at node " + std::to_string(u));
      }
      if (e > offsets[u] && nbrs[e - 1] >= v) {
        return Status::Internal("neighbors of node " + std::to_string(u) +
                                " not strictly sorted");
      }
      if (!weights.empty() &&
          !(std::isfinite(weights[e]) && weights[e] > 0.0)) {
        return Status::Internal("edge " + std::to_string(u) + "-" +
                                std::to_string(v) +
                                " has non-finite or non-positive weight");
      }
    }
  }

  // Pass 2: the cursor merge. cursor[v] counts the entries of row v
  // consumed so far; a strictly sorted loop-free row has fewer than 2^32.
  std::vector<uint32_t> cursor(n, 0);
  for (size_t u = 0; u < n; ++u) {
    const uint64_t end = offsets[u + 1];
    uint64_t e = offsets[u] + cursor[u];
    // Every entry below u has had its mirror walked, so an unconsumed
    // one has none.
    if (e < end && nbrs[e] < u) return Asymmetric(u, nbrs[e]);
    for (; e < end; ++e) {
      const NodeId v = nbrs[e];
      const uint64_t back = offsets[v] + cursor[v];
      if (back == offsets[v + 1] || nbrs[back] != u) {
        // Entries before the cursor are below u. One still below u at
        // the cursor was skipped by its own mirror's walk, so it is the
        // unmatched entry; otherwise row v has no u.
        if (back < offsets[v + 1] && nbrs[back] < u) {
          return Asymmetric(v, nbrs[back]);
        }
        return Asymmetric(u, v);
      }
      // Both directions of an undirected edge must carry the SAME
      // weight (bitwise: the arrays are mirrors, not approximations;
      // after pass 1, == on finite positive doubles is bit equality).
      if (!weights.empty() && weights[e] != weights[back]) {
        return Status::Internal("edge " + std::to_string(u) + "-" +
                                std::to_string(v) +
                                " weight asymmetric across directions");
      }
      ++cursor[v];
    }
  }
  return Status::OK();
}

}  // namespace oca

// Structural invariant checks for Graph instances. Used by tests,
// deserialization, and defensive validation of generator output.

#ifndef OCA_GRAPH_GRAPH_CHECKS_H_
#define OCA_GRAPH_GRAPH_CHECKS_H_

#include "graph/graph.h"
#include "util/status.h"

namespace oca {

/// Verifies CSR well-formedness: monotone offsets, in-range neighbor ids,
/// sorted neighbor lists, no self-loops, no duplicate neighbors, and
/// symmetry (u in N(v) iff v in N(u)); for a weighted graph, one finite
/// weight > 0 per entry, the same bits in both directions. Every failure
/// is kInternal. O(n + m) time: two passes over the rows and one probe
/// per undirected edge, with 4 bytes of heap per node.
Status ValidateGraph(const Graph& graph);

}  // namespace oca

#endif  // OCA_GRAPH_GRAPH_CHECKS_H_

// Graph connectivity as a test oracle: generators and the climber
// promise connected output, and tests check it with this one
// traversal.

#ifndef OCA_TESTS_TESTING_CONNECTIVITY_H_
#define OCA_TESTS_TESTING_CONNECTIVITY_H_

#include <vector>

#include "graph/graph.h"

namespace oca::testing {

/// True when every node is reachable from node 0 (an empty graph counts
/// as connected).
inline bool IsConnected(const Graph& graph) {
  const size_t n = graph.num_nodes();
  if (n == 0) return true;
  std::vector<bool> seen(n, false);
  std::vector<NodeId> stack = {0};
  seen[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : graph.Neighbors(u)) {
      if (seen[v]) continue;
      seen[v] = true;
      ++reached;
      stack.push_back(v);
    }
  }
  return reached == n;
}

}  // namespace oca::testing

#endif  // OCA_TESTS_TESTING_CONNECTIVITY_H_

// Greedy hill-climbing on a fitness function over the subset lattice
// (paper Section IV): starting from a seed set, repeatedly apply the
// single add-or-remove move with the greatest fitness increase until no
// move improves — a local maximum of the fitness, i.e. one community.

#ifndef OCA_CORE_LOCAL_SEARCH_H_
#define OCA_CORE_LOCAL_SEARCH_H_

#include <cstdint>

#include "core/community_state.h"
#include "core/cover.h"
#include "core/fitness.h"
#include "graph/graph.h"
#include "util/result.h"

namespace oca {

/// Controls for one greedy climb.
struct LocalSearchOptions {
  FitnessParams fitness;
  /// A move must improve fitness by more than this to be taken (guards
  /// against floating-point plateaus causing add/remove cycles).
  double epsilon = 1e-9;
  /// Hard cap on greedy steps (0 = no cap). A safety valve only; the
  /// strictly increasing fitness already guarantees termination.
  size_t max_steps = 0;
  /// Cap on community size during growth (0 = unbounded).
  size_t max_community_size = 0;
  /// Allow the removal move (the paper's search uses both directions).
  bool allow_remove = true;
};

/// Outcome of one climb.
struct LocalSearchResult {
  Community community;     // sorted members of the local maximum
  double fitness = 0.0;    // fitness at the maximum
  SubsetStats stats;       // statistics at the maximum
  size_t steps = 0;        // moves taken
  size_t adds = 0;
  size_t removes = 0;
  bool hit_step_cap = false;
};

/// Climbs from `seed_set` (must be non-empty, members in range, duplicate
/// free after canonicalization). Deterministic, with one tie rule: among
/// equal-best moves the smallest node id wins, and an add beats a
/// removal of equal gain. The directed Laplacian and raw phi climb on
/// two bucket queues, members and frontier, keyed by deg-in: the exact
/// count, or with use_weights on a weighted graph the weighted deg-in
/// in units of the graph's largest edge weight, the extreme bucket then
/// rescanned exactly. Both queues share one flat array sorted by key, so
/// a neighbour update moves a node one bucket with one swap, and a climb
/// touches only the nodes it reaches, never all n. The other fitness
/// kinds rescan every candidate at each step.
Result<LocalSearchResult> GreedyLocalSearch(const Graph& graph,
                                            const Community& seed_set,
                                            const LocalSearchOptions& options);

/// The rescanning climber alone, for every fitness kind: the reference
/// that GreedyLocalSearch's bucket queues are tested against. Same
/// contract and tie rule, hence the same climb, but every step rescores
/// all members and frontier nodes.
Result<LocalSearchResult> ReferenceLocalSearch(
    const Graph& graph, const Community& seed_set,
    const LocalSearchOptions& options);

}  // namespace oca

#endif  // OCA_CORE_LOCAL_SEARCH_H_

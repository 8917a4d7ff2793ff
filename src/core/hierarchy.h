// Community hierarchy exploration (the paper's stated future work:
// "now that the communities are identified, we will explore the
// hierarchies and relations among them").
//
// The coupling constant c acts as a resolution parameter: the fitness
// L(S) = s - sqrt(s(s-1)) + 2c*Ein(S)*(...) rewards internal edges in
// proportion to c, so small c only lets very dense cores reach a local
// maximum while c near the admissible maximum -1/lambda_min admits the
// loose, full-size communities of the flat algorithm. Sweeping c from
// fine to coarse and linking each community to the coarser community
// that best contains it yields a hierarchy, without any change to the
// core algorithm.

#ifndef OCA_CORE_HIERARCHY_H_
#define OCA_CORE_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "core/oca.h"

namespace oca {

/// One resolution level: the coupling value, the cover found at it, and
/// the run statistics of that level's OCA pass.
struct HierarchyLevel {
  double c = 0.0;
  Cover cover;
  OcaRunStats stats;
};

/// Link from a community to its best-containing community one level
/// coarser. `containment` = |child n parent| / |child| in [0, 1].
struct HierarchyLink {
  uint32_t parent_index = 0;
  double containment = 0.0;
};

/// The full hierarchy: levels ordered fine -> coarse (ascending c), and
/// for every level but the last, one link per community into the next
/// level (parent_index == kNoParent when nothing overlaps).
struct Hierarchy {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  std::vector<HierarchyLevel> levels;
  /// links[j][i]: community i of level j -> its parent in level j+1.
  /// links has levels.size()-1 entries.
  std::vector<std::vector<HierarchyLink>> links;
};

/// Links every community of `fine` to the community of `coarse` that
/// best contains it: highest containment |fine ∩ coarse| / |fine| wins,
/// and equal-containment ties resolve to the SMALLEST coarse index (a
/// deterministic rule independent of node-iteration order; two coarse
/// parents fully containing the same fine community always yield the
/// first). Communities overlapping nothing get kNoParent. Both covers
/// must be over node ids < num_nodes.
std::vector<HierarchyLink> LinkByContainment(const Cover& fine,
                                             const Cover& coarse,
                                             size_t num_nodes);

struct HierarchyOptions {
  /// Resolution fractions of the admissible maximum c = -1/lambda_min,
  /// ascending; each produces one level. Values must be in (0, 1].
  std::vector<double> resolution_fractions = {0.25, 0.5, 1.0};
  /// Base OCA configuration (seed, halting, postprocessing). The
  /// coupling constant is overwritten per level.
  OcaOptions base;
};

/// Runs OCA once per resolution level and links fine communities to
/// coarse ones by containment. Errors propagate from RunOca and on
/// malformed resolution lists.
///
/// Spectral work is shared across the whole build through one
/// SpectralEngine: the admissible maximum c = -1/lambda_min is resolved
/// once (a single minimum-end Lanczos sweep) and every level reuses the
/// engine's per-graph cache instead of recomputing from a cold random
/// vector; each level's stats record lambda_min for free.
Result<Hierarchy> BuildHierarchy(const Graph& graph,
                                 const HierarchyOptions& options);

}  // namespace oca

#endif  // OCA_CORE_HIERARCHY_H_

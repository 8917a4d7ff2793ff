// CommunityStore: the zero-copy read API over one immutable .ocac
// snapshot (io/community_format.h). This is the service half of the
// paper's value proposition — one expensive spectral/local-search build
// (RunOca / BuildRecursiveHierarchy), persisted once, answering many
// membership queries.
//
// Open() maps the file (util/mmap_file) and cross-checks the header and
// every structural link against the true file size BEFORE the store is
// returned, exactly the OpenMmapGraph discipline: kIOError for bytes
// that cannot be trusted (truncation, overrunning sections, trailing
// garbage), kInvalidArgument for well-read files that do not describe a
// usable snapshot (bad magic/version, non-monotone offsets, out-of-range
// community ids). Because every id the query path dereferences was
// range-checked at open, queries do no validation, no locking and no
// allocation: they return spans straight into the mapping. Any number
// of threads may query one store concurrently — the mapping is
// immutable and the store is state-free after Open. Copies share the
// mapping (same keep-alive discipline as Graph).

#ifndef OCA_CORE_COMMUNITY_STORE_H_
#define OCA_CORE_COMMUNITY_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "io/community_format.h"
#include "util/mmap_file.h"
#include "util/result.h"

namespace oca {

struct CommunityStoreOptions {
  /// Scan every member id against the node count at open (one O(M)
  /// pass). The structural checks that keep the QUERY path memory-safe
  /// — header/size cross-check, offset monotonicity, range checks on
  /// every community id the store itself dereferences — always run;
  /// this adds the checks that only protect downstream consumers of
  /// member lists. Turn off only for files this process just wrote.
  bool validate = true;
};

/// One membership path of a node: arena ids from a root containing it
/// down to the deepest community containing it along that branch.
using CommunityPath = std::span<const uint32_t>;

class CommunityStore {
 public:
  /// Snapshot-wide metadata, straight from the header.
  struct Metadata {
    uint64_t num_nodes = 0;
    uint64_t num_edges = 0;
    uint64_t num_communities = 0;
    uint64_t num_roots = 0;
    uint64_t num_levels = 0;
    uint64_t num_paths = 0;
    double coupling_constant = 0.0;
    double lambda_min = 0.0;
    uint64_t tree_digest = 0;
  };

  /// Maps and validates `path`. The returned store (and all copies) keep
  /// the mapping alive.
  static Result<CommunityStore> Open(const std::string& path,
                                     const CommunityStoreOptions& options = {});

  const Metadata& metadata() const { return meta_; }
  uint64_t num_nodes() const { return meta_.num_nodes; }
  uint64_t num_communities() const { return meta_.num_communities; }

  /// Arena ids of the top-level (root) communities, in cover order.
  std::span<const uint32_t> Roots() const {
    return {roots_, static_cast<size_t>(meta_.num_roots)};
  }

  /// Root communities containing `v`, ascending. Empty for uncovered
  /// nodes. Precondition: v < num_nodes().
  std::span<const uint32_t> CommunitiesOf(NodeId v) const {
    return {postings_ + posting_offsets_[v],
            static_cast<size_t>(posting_offsets_[v + 1] -
                                posting_offsets_[v])};
  }

  /// Number of membership paths of `v` (>= CommunitiesOf(v).size();
  /// overlap below the roots fans one root out into several paths).
  size_t NumPaths(NodeId v) const {
    return static_cast<size_t>(path_node_offsets_[v + 1] -
                               path_node_offsets_[v]);
  }

  /// The i-th membership path of `v` (root first, deepest containing
  /// community last). Precondition: i < NumPaths(v).
  CommunityPath MembershipPath(NodeId v, size_t i) const {
    const uint64_t p = path_node_offsets_[v] + i;
    return {path_entries_ + path_offsets_[p],
            static_cast<size_t>(path_offsets_[p + 1] - path_offsets_[p])};
  }

  /// All communities that share a parent with some community containing
  /// `v` at depth `k` (the containing communities themselves included;
  /// at k == 0 the siblings are all roots). Sorted ascending, deduped
  /// across v's paths, appended into `out` (cleared first) — the caller
  /// reuses the vector so steady-state queries allocate nothing.
  void SiblingsAtLevel(NodeId v, uint32_t k, std::vector<uint32_t>* out) const;

  /// Per-community accessors. Precondition: c < num_communities().
  std::span<const NodeId> Members(uint32_t c) const {
    return {members_ + records_[c].members_begin, records_[c].member_count};
  }
  std::span<const uint32_t> Children(uint32_t c) const {
    return {children_ + records_[c].children_begin, records_[c].child_count};
  }
  /// kCommunityFileNoParent for roots.
  uint32_t Parent(uint32_t c) const { return records_[c].parent; }
  uint32_t Depth(uint32_t c) const { return records_[c].depth; }
  std::string_view StopReason(uint32_t c) const {
    return CommunityStopReasonName(records_[c].stop_reason);
  }
  double SubgraphC(uint32_t c) const { return records_[c].subgraph_c; }
  double SubgraphLambdaMin(uint32_t c) const {
    return records_[c].subgraph_lambda_min;
  }

  /// Per-depth rollup records, index == depth.
  std::span<const CommunityLevelRecord> Levels() const {
    return {levels_, static_cast<size_t>(meta_.num_levels)};
  }

 private:
  CommunityStore() = default;

  std::shared_ptr<const MmapFile> mapping_;
  Metadata meta_;
  const CommunityRecord* records_ = nullptr;
  const uint32_t* roots_ = nullptr;
  const NodeId* members_ = nullptr;
  const uint32_t* children_ = nullptr;
  const uint64_t* posting_offsets_ = nullptr;
  const uint32_t* postings_ = nullptr;
  const uint64_t* path_node_offsets_ = nullptr;
  const uint64_t* path_offsets_ = nullptr;
  const uint32_t* path_entries_ = nullptr;
  const CommunityLevelRecord* levels_ = nullptr;
  bool roots_ascending_ = false;  // Roots() strictly ascending (set by Open)
};

}  // namespace oca

#endif  // OCA_CORE_COMMUNITY_STORE_H_

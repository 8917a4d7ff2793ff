#include "core/community_store.h"

#include <algorithm>
#include <cstring>

namespace oca {

namespace {

Status Malformed(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("community store '" + path + "' " + what);
}

/// Checks one u64 offset table: [0] == 0, [n] == total, monotone.
Status CheckOffsets(const std::string& path, const char* name,
                    const uint64_t* offsets, uint64_t n, uint64_t total) {
  if (offsets[0] != 0 || offsets[n] != total) {
    return Malformed(path, std::string(name) + " offsets malformed: [0]=" +
                               std::to_string(offsets[0]) + ", [end]=" +
                               std::to_string(offsets[n]) + ", expected 0 and " +
                               std::to_string(total));
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Malformed(path, std::string(name) +
                                 " offsets not monotone at entry " +
                                 std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace

Result<CommunityStore> CommunityStore::Open(
    const std::string& path, const CommunityStoreOptions& options) {
  OCA_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> mapping,
                       OpenMmapFile(path));
  const uint64_t file_bytes = mapping->size();
  if (file_bytes < kCommunityFileHeaderBytes) {
    return Status::IOError("community store '" + path + "' truncated: " +
                           std::to_string(file_bytes) +
                           " bytes, header needs " +
                           std::to_string(kCommunityFileHeaderBytes));
  }
  const char* bytes = mapping->data();

  // Header checks, strictly before any section access.
  if (std::memcmp(bytes, kCommunityFileMagic, sizeof(kCommunityFileMagic)) !=
      0) {
    return Status::InvalidArgument("bad magic: '" + path +
                                   "' is not an OCAC community store");
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes + 4, sizeof(version));
  if (version != kCommunityFileVersion) {
    return Status::InvalidArgument(
        "unsupported OCAC version " + std::to_string(version) + " in '" +
        path + "' (expected " + std::to_string(kCommunityFileVersion) + ")");
  }
  CommunityFileCounts c;
  std::memcpy(&c.num_nodes, bytes + 8, sizeof(uint64_t));
  std::memcpy(&c.num_edges, bytes + 16, sizeof(uint64_t));
  std::memcpy(&c.communities, bytes + 24, sizeof(uint64_t));
  std::memcpy(&c.roots, bytes + 32, sizeof(uint64_t));
  std::memcpy(&c.levels, bytes + 40, sizeof(uint64_t));
  std::memcpy(&c.paths, bytes + 48, sizeof(uint64_t));
  std::memcpy(&c.member_entries, bytes + 56, sizeof(uint64_t));
  std::memcpy(&c.child_entries, bytes + 64, sizeof(uint64_t));
  std::memcpy(&c.posting_entries, bytes + 72, sizeof(uint64_t));
  std::memcpy(&c.path_entries, bytes + 80, sizeof(uint64_t));

  if (c.num_nodes == 0) {
    return Malformed(path, "declares zero nodes");
  }
  // Overflow-safe size cross-check: bound every count by what the file
  // could possibly hold BEFORE CommunityFileBytes sums the (attacker-
  // controlled) section sizes; after the bounds each section is < 2^40-
  // ish bytes so the sum cannot wrap u64.
  if (c.communities > file_bytes / sizeof(CommunityRecord) ||
      c.roots > c.communities ||
      c.levels > file_bytes / sizeof(CommunityLevelRecord) ||
      c.num_nodes > file_bytes / sizeof(uint64_t) ||
      c.paths > file_bytes / sizeof(uint64_t) ||
      c.member_entries > file_bytes / sizeof(uint32_t) ||
      c.child_entries > file_bytes / sizeof(uint32_t) ||
      c.posting_entries > file_bytes / sizeof(uint32_t) ||
      c.path_entries > file_bytes / sizeof(uint32_t)) {
    return Status::IOError("community store '" + path +
                           "' header counts overrun the " +
                           std::to_string(file_bytes) + "-byte file");
  }
  if (CommunityFileBytes(c) != file_bytes) {
    return Status::IOError(
        "community store '" + path + "' size mismatch: header implies " +
        std::to_string(CommunityFileBytes(c)) + " bytes, file has " +
        std::to_string(file_bytes));
  }
  // A tree: every non-root is exactly one node's child.
  if (c.child_entries != c.communities - c.roots) {
    return Malformed(path, "child entries (" +
                               std::to_string(c.child_entries) +
                               ") != communities - roots (" +
                               std::to_string(c.communities - c.roots) + ")");
  }
  if ((c.levels == 0) != (c.communities == 0)) {
    return Malformed(path, "level count inconsistent with community count");
  }

  CommunityStore store;
  store.mapping_ = std::move(mapping);
  store.meta_.num_nodes = c.num_nodes;
  store.meta_.num_edges = c.num_edges;
  store.meta_.num_communities = c.communities;
  store.meta_.num_roots = c.roots;
  store.meta_.num_levels = c.levels;
  store.meta_.num_paths = c.paths;
  std::memcpy(&store.meta_.coupling_constant, bytes + 88, sizeof(double));
  std::memcpy(&store.meta_.lambda_min, bytes + 96, sizeof(double));
  std::memcpy(&store.meta_.tree_digest, bytes + 104, sizeof(uint64_t));

  store.records_ = reinterpret_cast<const CommunityRecord*>(
      bytes + CommunityFileRecordsStart());
  store.roots_ =
      reinterpret_cast<const uint32_t*>(bytes + CommunityFileRootsStart(c));
  store.members_ =
      reinterpret_cast<const NodeId*>(bytes + CommunityFileMembersStart(c));
  store.children_ =
      reinterpret_cast<const uint32_t*>(bytes + CommunityFileChildrenStart(c));
  store.posting_offsets_ = reinterpret_cast<const uint64_t*>(
      bytes + CommunityFilePostingOffsetsStart(c));
  store.postings_ =
      reinterpret_cast<const uint32_t*>(bytes + CommunityFilePostingsStart(c));
  store.path_node_offsets_ = reinterpret_cast<const uint64_t*>(
      bytes + CommunityFilePathNodeOffsetsStart(c));
  store.path_offsets_ = reinterpret_cast<const uint64_t*>(
      bytes + CommunityFilePathOffsetsStart(c));
  store.path_entries_ = reinterpret_cast<const uint32_t*>(
      bytes + CommunityFilePathEntriesStart(c));
  store.levels_ = reinterpret_cast<const CommunityLevelRecord*>(
      bytes + CommunityFileLevelsStart(c));

  // Structural checks that keep the lock-free query path memory-safe:
  // every id a query dereferences (records, children, postings, path
  // entries, parents) must be range-checked HERE, unconditionally.
  for (uint64_t i = 0; i < c.communities; ++i) {
    const CommunityRecord& rec = store.records_[i];
    if (rec.member_count == 0) {
      return Malformed(path, "community " + std::to_string(i) + " is empty");
    }
    if (rec.members_begin > c.member_entries ||
        rec.member_count > c.member_entries - rec.members_begin) {
      return Malformed(path, "community " + std::to_string(i) +
                                 " member range overruns the member array");
    }
    if (rec.children_begin > c.child_entries ||
        rec.child_count > c.child_entries - rec.children_begin) {
      return Malformed(path, "community " + std::to_string(i) +
                                 " child range overruns the child array");
    }
    if (rec.parent != kCommunityFileNoParent && rec.parent >= c.communities) {
      return Malformed(path, "community " + std::to_string(i) +
                                 " parent out of range");
    }
    if (rec.depth >= c.levels) {
      return Malformed(path, "community " + std::to_string(i) +
                                 " depth out of range");
    }
    if ((rec.parent == kCommunityFileNoParent) != (rec.depth == 0)) {
      return Malformed(path, "community " + std::to_string(i) +
                                 " parent/depth disagree about rootness");
    }
    if (rec.stop_reason >= kCommunityStopReasonCount) {
      return Malformed(path, "community " + std::to_string(i) +
                                 " stop reason code out of range");
    }
  }
  store.roots_ascending_ = true;
  for (uint64_t i = 0; i < c.roots; ++i) {
    const uint32_t r = store.roots_[i];
    if (r >= c.communities ||
        store.records_[r].parent != kCommunityFileNoParent) {
      return Malformed(path, "root list entry " + std::to_string(i) +
                                 " is not a root community");
    }
    if (i > 0 && store.roots_[i - 1] >= r) store.roots_ascending_ = false;
  }
  for (uint64_t i = 0; i < c.child_entries; ++i) {
    if (store.children_[i] >= c.communities) {
      return Malformed(path, "child entry " + std::to_string(i) +
                                 " out of range");
    }
  }
  OCA_RETURN_IF_ERROR(CheckOffsets(path, "posting", store.posting_offsets_,
                                   c.num_nodes, c.posting_entries));
  for (uint64_t i = 0; i < c.posting_entries; ++i) {
    const uint32_t r = store.postings_[i];
    if (r >= c.communities ||
        store.records_[r].parent != kCommunityFileNoParent) {
      return Malformed(path, "posting entry " + std::to_string(i) +
                                 " is not a root community");
    }
  }
  OCA_RETURN_IF_ERROR(CheckOffsets(path, "path-node", store.path_node_offsets_,
                                   c.num_nodes, c.paths));
  OCA_RETURN_IF_ERROR(CheckOffsets(path, "path", store.path_offsets_, c.paths,
                                   c.path_entries));
  for (uint64_t i = 0; i < c.path_entries; ++i) {
    if (store.path_entries_[i] >= c.communities) {
      return Malformed(path, "path entry " + std::to_string(i) +
                                 " out of range");
    }
  }
  // Paths must be genuine root-to-descendant chains: entry j sits at
  // depth j and is a child of entry j-1. SiblingsAtLevel dereferences
  // Children(parent of path[k]) with no further checks, so a dishonest
  // path (a root planted at k > 0) would otherwise read out of bounds.
  for (uint64_t p = 0; p < c.paths; ++p) {
    for (uint64_t j = store.path_offsets_[p]; j < store.path_offsets_[p + 1];
         ++j) {
      const uint32_t entry = store.path_entries_[j];
      const uint64_t depth_in_path = j - store.path_offsets_[p];
      if (store.records_[entry].depth != depth_in_path) {
        return Malformed(path, "path " + std::to_string(p) +
                                   " entry depth mismatch at position " +
                                   std::to_string(depth_in_path));
      }
      if (depth_in_path > 0 &&
          store.records_[entry].parent != store.path_entries_[j - 1]) {
        return Malformed(path, "path " + std::to_string(p) +
                                   " breaks the parent chain at position " +
                                   std::to_string(depth_in_path));
      }
    }
  }
  for (uint64_t i = 0; i < c.levels; ++i) {
    if (store.levels_[i].depth != i) {
      return Malformed(path, "level record " + std::to_string(i) +
                                 " depth mismatch");
    }
  }
  if (options.validate) {
    for (uint64_t i = 0; i < c.member_entries; ++i) {
      if (store.members_[i] >= c.num_nodes) {
        return Malformed(path, "member entry " + std::to_string(i) +
                                   " out of node range");
      }
    }
  }
  return store;
}

void CommunityStore::SiblingsAtLevel(NodeId v, uint32_t k,
                                     std::vector<uint32_t>* out) const {
  out->clear();
  const size_t paths = NumPaths(v);
  for (size_t i = 0; i < paths; ++i) {
    const CommunityPath path = MembershipPath(v, i);
    if (path.size() <= k) continue;
    const uint32_t at_k = path[k];
    if (k == 0) {
      // Root level: the sibling set is the whole top-level cover, the
      // same for every path — emit it once and stop scanning. Every tree
      // the library writes lists its roots strictly ascending (arena ids
      // are in BFS order, roots first), so the copy is already the
      // answer; only a file listing them out of order pays the sort.
      const auto roots = Roots();
      out->assign(roots.begin(), roots.end());
      if (roots_ascending_) return;
      break;
    }
    const auto siblings = Children(records_[at_k].parent);
    out->insert(out->end(), siblings.begin(), siblings.end());
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace oca

#include "io/community_serialize.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <utility>
#include <vector>

#include "io/community_format.h"
#include "io/replace_file.h"

namespace oca {

namespace {

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void WriteArray(std::ostream& out, const std::vector<T>& values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

/// Pads `out` with zero bytes from `at` up to the next 8-byte boundary.
void PadTo8(std::ostream& out, uint64_t at) {
  static constexpr char kZeros[8] = {0};
  out.write(kZeros, static_cast<std::streamsize>(CommunityFileAlign8(at) - at));
}

Result<uint32_t> StopReasonCode(const std::string& reason) {
  for (uint32_t code = 0; code < kCommunityStopReasonCount; ++code) {
    if (CommunityStopReasonName(code) == reason) return code;
  }
  return Status::InvalidArgument("stop reason '" + reason +
                                 "' has no OCAC on-disk code");
}

Status ListedTwice(size_t community) {
  return Status::InvalidArgument(
      "community " + std::to_string(community) +
      " is listed twice; a forest lists each community once");
}

/// Tree-shape validation, strictly before any byte is written: the
/// store trusts the snapshot's internal links on its zero-copy query
/// path, so a malformed tree must be an error here, not a bad file.
Status ValidateTree(const RecursiveHierarchy& tree, uint64_t num_nodes) {
  const size_t c = tree.nodes.size();
  std::vector<char> is_root(c, 0);
  for (uint32_t r : tree.roots) {
    if (r >= c) {
      return Status::InvalidArgument("root arena id " + std::to_string(r) +
                                     " out of range (" + std::to_string(c) +
                                     " communities)");
    }
    if (is_root[r]) return ListedTwice(r);
    is_root[r] = 1;
  }
  std::vector<char> is_child(c, 0);
  for (size_t i = 0; i < c; ++i) {
    const RecursiveCommunity& node = tree.nodes[i];
    if (node.community.empty()) {
      return Status::InvalidArgument("community " + std::to_string(i) +
                                     " is empty");
    }
    NodeId prev = 0;
    for (size_t j = 0; j < node.community.size(); ++j) {
      const NodeId v = node.community[j];
      if (v >= num_nodes) {
        return Status::InvalidArgument(
            "community " + std::to_string(i) + " member " + std::to_string(v) +
            " out of range (graph has " + std::to_string(num_nodes) +
            " nodes)");
      }
      if (j > 0 && v <= prev) {
        return Status::InvalidArgument("community " + std::to_string(i) +
                                       " members not sorted ascending");
      }
      prev = v;
    }
    const bool root = node.parent == RecursiveHierarchy::kNoParent;
    if (root != static_cast<bool>(is_root[i])) {
      return Status::InvalidArgument(
          "community " + std::to_string(i) +
          (root ? " has no parent but is not listed as a root"
                : " is listed as a root but has a parent"));
    }
    if (!root && (node.parent >= c || tree.nodes[node.parent].depth + 1 !=
                                          node.depth)) {
      return Status::InvalidArgument("community " + std::to_string(i) +
                                     " parent/depth link malformed");
    }
    if (root && node.depth != 0) {
      return Status::InvalidArgument("root community " + std::to_string(i) +
                                     " has nonzero depth");
    }
    for (uint32_t ch : node.children) {
      if (ch >= c || tree.nodes[ch].parent != i) {
        return Status::InvalidArgument("community " + std::to_string(i) +
                                       " child link malformed");
      }
      if (is_child[ch]) return ListedTwice(ch);
      is_child[ch] = 1;
    }
  }
  // Every community listed exactly once, as a root or in its parent's
  // children, so a walk from the roots reaches each exactly once.
  for (size_t i = 0; i < c; ++i) {
    if (!is_root[i] && !is_child[i]) {
      return Status::InvalidArgument(
          "tree is not a forest: community " + std::to_string(i) +
          " is missing from its parent's children");
    }
  }
  return Status::OK();
}

using NodePairs = std::vector<std::pair<NodeId, uint32_t>>;

/// Groups (node, value) pairs by node into the file's CSR layout: n + 1
/// offsets, then the values, in input order within each node.
void GroupByNode(const NodePairs& pairs, uint64_t num_nodes,
                 std::vector<uint64_t>* offsets,
                 std::vector<uint32_t>* values) {
  offsets->assign(num_nodes + 1, 0);
  for (const auto& [v, value] : pairs) ++(*offsets)[v + 1];
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  std::vector<uint64_t> next(offsets->begin(), offsets->end() - 1);
  values->resize(pairs.size());
  for (const auto& [v, value] : pairs) (*values)[next[v]++] = value;
}

/// (node, end community) of every membership path, each node's paths in
/// the order MembershipPaths gives them. One preorder walk of the forest
/// (roots, then children, in list order) hands every child the members
/// it shares with its parent and all further ancestors; a member no
/// child takes ends a path at that community. Each community's shared
/// list is marked once and each child's member list scanned once, so
/// the walk is O(n + M) for M member entries.
NodePairs MembershipPathEnds(const RecursiveHierarchy& tree,
                             uint64_t num_nodes) {
  // marked[v] == c: v is in c's shared list; taken[v] == c: some child
  // of c holds v. A validated forest visits each community once, so
  // these stamps never need clearing.
  std::vector<uint32_t> marked(num_nodes, RecursiveHierarchy::kNoParent);
  std::vector<uint32_t> taken(num_nodes, RecursiveHierarchy::kNoParent);
  // Pending communities with their shared lists, stacked in `shared` so
  // a frame's list ends where the lists of frames pushed after it begin.
  struct Frame {
    uint32_t community;
    size_t begin, end;
  };
  std::vector<Frame> stack;
  std::vector<NodeId> shared;
  NodePairs ends;
  for (uint32_t root : tree.roots) {
    shared = tree.nodes[root].community;
    stack.push_back({root, 0, shared.size()});
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      shared.resize(f.end);  // drop the lists of finished subtrees
      for (size_t i = f.begin; i < f.end; ++i) marked[shared[i]] = f.community;
      const std::vector<uint32_t>& children = tree.nodes[f.community].children;
      // Last child first, so the first child's frame is on top.
      for (auto ch = children.rbegin(); ch != children.rend(); ++ch) {
        const size_t begin = shared.size();
        for (NodeId v : tree.nodes[*ch].community) {
          if (marked[v] != f.community) continue;
          shared.push_back(v);
          taken[v] = f.community;
        }
        if (shared.size() > begin) stack.push_back({*ch, begin, shared.size()});
      }
      for (size_t i = f.begin; i < f.end; ++i) {
        if (taken[shared[i]] != f.community) {
          ends.emplace_back(shared[i], f.community);
        }
      }
    }
  }
  return ends;
}

}  // namespace

Result<uint64_t> WriteCommunityStore(const RecursiveHierarchy& tree,
                                     uint64_t num_nodes, uint64_t num_edges,
                                     std::ostream& out) {
  if (num_nodes == 0) {
    return Status::InvalidArgument(
        "community store needs a graph with at least one node");
  }
  if (num_nodes > kCommunityFileNoParent) {
    return Status::InvalidArgument("community store node ids are u32; " +
                                   std::to_string(num_nodes) +
                                   " nodes do not fit");
  }
  OCA_RETURN_IF_ERROR(ValidateTree(tree, num_nodes));

  CommunityFileCounts counts;
  counts.num_nodes = num_nodes;
  counts.num_edges = num_edges;
  counts.communities = tree.nodes.size();
  counts.roots = tree.roots.size();

  // Records. Every stop reason is resolved before the first byte goes
  // out, so an unknown reason is a clean error, not a truncated file.
  std::vector<CommunityRecord> records(tree.nodes.size());
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const RecursiveCommunity& node = tree.nodes[i];
    CommunityRecord& rec = records[i];
    OCA_ASSIGN_OR_RETURN(rec.stop_reason, StopReasonCode(node.stop_reason));
    rec.members_begin = counts.member_entries;
    rec.children_begin = counts.child_entries;
    rec.member_count = static_cast<uint32_t>(node.community.size());
    rec.child_count = static_cast<uint32_t>(node.children.size());
    rec.parent = node.parent;
    rec.depth = node.depth;
    rec.subgraph_c = node.subgraph_c;
    rec.subgraph_lambda_min = node.subgraph_lambda_min;
    counts.levels = std::max<uint64_t>(counts.levels, node.depth + 1);
    counts.member_entries += node.community.size();
    counts.child_entries += node.children.size();
  }

  // Node -> root-community postings, ascending per node because roots
  // are visited in ascending arena order.
  NodePairs root_members;
  for (uint32_t c = 0; c < tree.nodes.size(); ++c) {
    if (tree.nodes[c].parent != RecursiveHierarchy::kNoParent) continue;
    for (NodeId v : tree.nodes[c].community) root_members.emplace_back(v, c);
  }
  std::vector<uint64_t> posting_offsets;
  std::vector<uint32_t> postings;
  GroupByNode(root_members, num_nodes, &posting_offsets, &postings);
  counts.posting_entries = postings.size();

  // Membership paths, node by node. A path runs from its root down to
  // its end community, so its entries are the end's parent chain.
  std::vector<uint64_t> path_node_offsets;
  std::vector<uint32_t> path_ends;
  GroupByNode(MembershipPathEnds(tree, num_nodes), num_nodes,
              &path_node_offsets, &path_ends);
  std::vector<uint64_t> path_offsets(path_ends.size() + 1, 0);
  for (size_t p = 0; p < path_ends.size(); ++p) {
    path_offsets[p + 1] = path_offsets[p] + tree.nodes[path_ends[p]].depth + 1;
  }
  std::vector<uint32_t> path_entries(path_offsets.back());
  for (size_t p = 0; p < path_ends.size(); ++p) {
    uint32_t c = path_ends[p];
    for (uint64_t e = path_offsets[p + 1]; e > path_offsets[p];
         c = tree.nodes[c].parent) {
      path_entries[--e] = c;
    }
  }
  counts.paths = path_ends.size();
  counts.path_entries = path_entries.size();

  const std::vector<RecursiveLevelSummary> levels = tree.LevelSummaries();
  if (levels.size() != counts.levels) {
    return Status::Internal("level summary count " +
                            std::to_string(levels.size()) +
                            " disagrees with max depth " +
                            std::to_string(counts.levels));
  }

  // Header.
  out.write(kCommunityFileMagic, sizeof(kCommunityFileMagic));
  WritePod(out, kCommunityFileVersion);
  WritePod(out, counts.num_nodes);
  WritePod(out, counts.num_edges);
  WritePod(out, counts.communities);
  WritePod(out, counts.roots);
  WritePod(out, counts.levels);
  WritePod(out, counts.paths);
  WritePod(out, counts.member_entries);
  WritePod(out, counts.child_entries);
  WritePod(out, counts.posting_entries);
  WritePod(out, counts.path_entries);
  WritePod(out, tree.root_stats.coupling_constant);
  WritePod(out, tree.root_stats.lambda_min);
  WritePod(out, tree.Digest());

  WriteArray(out, records);

  // Roots (arena order, the canonical top-level cover order).
  WriteArray(out, tree.roots);
  PadTo8(out, CommunityFileRootsStart(counts) +
                  counts.roots * sizeof(uint32_t));

  for (const RecursiveCommunity& node : tree.nodes) {
    WriteArray(out, node.community);
  }
  PadTo8(out, CommunityFileMembersStart(counts) +
                  counts.member_entries * sizeof(uint32_t));

  for (const RecursiveCommunity& node : tree.nodes) {
    WriteArray(out, node.children);
  }
  PadTo8(out, CommunityFileChildrenStart(counts) +
                  counts.child_entries * sizeof(uint32_t));

  WriteArray(out, posting_offsets);
  WriteArray(out, postings);
  PadTo8(out, CommunityFilePostingsStart(counts) +
                  counts.posting_entries * sizeof(uint32_t));

  WriteArray(out, path_node_offsets);
  WriteArray(out, path_offsets);
  WriteArray(out, path_entries);
  PadTo8(out, CommunityFilePathEntriesStart(counts) +
                  counts.path_entries * sizeof(uint32_t));

  // Level rollups.
  for (const RecursiveLevelSummary& level : levels) {
    CommunityLevelRecord rec;
    rec.depth = level.depth;
    rec.communities = level.communities;
    rec.split = level.split;
    rec.subgraph_solves = level.subgraph_solves;
    rec.warm_started = level.warm_started;
    rec.spectral_iterations = level.spectral_iterations;
    WritePod(out, rec);
  }

  if (!out) return Status::IOError("community store write failed");
  return CommunityFileBytes(counts);
}

Result<uint64_t> WriteCommunityStoreFile(const RecursiveHierarchy& tree,
                                         uint64_t num_nodes,
                                         uint64_t num_edges,
                                         const std::string& path) {
  uint64_t bytes = 0;
  OCA_RETURN_IF_ERROR(ReplaceFile(path, [&](std::ostream& out) -> Status {
    OCA_ASSIGN_OR_RETURN(bytes,
                         WriteCommunityStore(tree, num_nodes, num_edges, out));
    return Status::OK();
  }));
  return bytes;
}

RecursiveHierarchy FlatHierarchyFromResult(const OcaResult& result) {
  RecursiveHierarchy tree;
  tree.nodes.reserve(result.cover.size());
  tree.roots.reserve(result.cover.size());
  for (size_t i = 0; i < result.cover.size(); ++i) {
    RecursiveCommunity node;
    node.community = result.cover[i];
    node.stop_reason = "flat";
    tree.nodes.push_back(std::move(node));
    tree.roots.push_back(static_cast<uint32_t>(i));
  }
  tree.root_stats = result.stats;
  return tree;
}

}  // namespace oca

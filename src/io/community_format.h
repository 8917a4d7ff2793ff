// The OCAC on-disk community-store format, shared by the writer
// (io/community_serialize) and the mmap reader (core/community_store).
// It persists one immutable snapshot of a recursive community hierarchy
// (a flat cover is the depth-0 special case) so one expensive
// spectral/local-search build can answer many membership queries.
//
// Little-endian, versioned header, then fixed-layout sections. All
// counts live in the header, so every section start is computable
// before any section is touched — the same "offset index in the
// header" convention .ocag v1/v2 use (io/graph_format.h):
//
//   byte 0    magic "OCAC"
//   byte 4    u32 version (1)
//   byte 8    u64 n        — nodes of the source graph
//   byte 16   u64 m        — edges of the source graph
//   byte 24   u64 C        — communities (tree arena size)
//   byte 32   u64 R        — roots (top-level communities)
//   byte 40   u64 L        — levels (max depth + 1; 0 iff C == 0)
//   byte 48   u64 P        — membership paths over all nodes
//   byte 56   u64 M        — member entries (sum of community sizes)
//   byte 64   u64 K        — child entries; a tree ⟹ K == C − R
//   byte 72   u64 Q        — posting entries (node→root memberships)
//   byte 80   u64 E        — path entries (sum of path lengths)
//   byte 88   f64 coupling_constant (root solve)
//   byte 96   f64 lambda_min        (root solve)
//   byte 104  u64 tree_digest (RecursiveHierarchy::Digest at write time)
//   byte 112  sections
//
// Sections, in file order (starts below; u32 arrays are padded to the
// next 8-byte boundary so every u64/f64 section stays 8-aligned at any
// page-aligned mapping base):
//
//   records    C × CommunityRecord (56 bytes, see below)
//   roots      R × u32   — arena ids of the top-level communities
//   members    M × u32   — node ids, grouped per record
//   children   K × u32   — arena ids, grouped per record
//   postings   (n+1) × u64 offsets, then Q × u32 root arena ids:
//              CSR from node to the ROOT communities containing it
//   paths      (n+1) × u64 node offsets (node → its paths), then
//              (P+1) × u64 path offsets (path → its entries), then
//              E × u32 arena ids (root first, leaf last)
//   levels     L × LevelRecord (48 bytes) — per-depth rollups
//
// A valid file's size is exactly CommunityFileBytes(counts); anything
// shorter is truncated, anything longer is trailing garbage — both are
// typed errors on open, same contract as the graph format.

#ifndef OCA_IO_COMMUNITY_FORMAT_H_
#define OCA_IO_COMMUNITY_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace oca {

inline constexpr char kCommunityFileMagic[4] = {'O', 'C', 'A', 'C'};
inline constexpr uint32_t kCommunityFileVersion = 1;

/// Parent sentinel for root communities (mirrors
/// RecursiveHierarchy::kNoParent, truncated to the on-disk u32).
inline constexpr uint32_t kCommunityFileNoParent = 0xFFFFFFFFu;

/// Stop reasons as a closed on-disk enum; RecursiveCommunity carries
/// them as strings, the store round-trips through these codes.
enum class CommunityStopReason : uint32_t {
  kSplit = 0,          // interior node: recursion split it further
  kMinSize = 1,        // leaf: below recursion size floor
  kDensity = 2,        // leaf: too dense to split profitably
  kMaxDepth = 3,       // leaf: recursion depth cap
  kStable = 4,         // leaf: subgraph solve reproduced the community
  kNoCommunities = 5,  // leaf: subgraph solve found nothing
  kEdgeless = 6,       // leaf: subgraph has no internal edges
  kFlat = 7,           // root of a flat (non-recursive) cover snapshot
};
inline constexpr uint32_t kCommunityStopReasonCount = 8;

/// Name for an on-disk stop-reason code; "" when out of range.
constexpr std::string_view CommunityStopReasonName(uint32_t code) {
  constexpr std::string_view kNames[kCommunityStopReasonCount] = {
      "split",     "min_size",       "density",  "max_depth",
      "stable",    "no_communities", "edgeless", "flat"};
  return code < kCommunityStopReasonCount ? kNames[code] : std::string_view{};
}

/// Per-community fixed record. members/children index into the shared
/// member and child arrays; f64 fields are the subgraph solve's tuned
/// coupling constant and smallest Laplacian eigenvalue (0 when the
/// community was never solved, e.g. flat-cover roots).
struct CommunityRecord {
  uint64_t members_begin;
  uint64_t children_begin;
  uint32_t member_count;
  uint32_t child_count;
  uint32_t parent;  // arena id, kCommunityFileNoParent for roots
  uint32_t depth;
  uint32_t stop_reason;  // CommunityStopReason
  uint32_t reserved;     // zero on write, ignored on read
  double subgraph_c;
  double subgraph_lambda_min;
};
static_assert(sizeof(CommunityRecord) == 56 &&
                  std::is_standard_layout_v<CommunityRecord> &&
                  std::is_trivially_copyable_v<CommunityRecord>,
              "CommunityRecord is the on-disk layout; no implicit padding");

/// Per-depth rollup, the on-disk mirror of RecursiveLevelSummary.
struct CommunityLevelRecord {
  uint64_t depth;  // == its index in the section
  uint64_t communities;
  uint64_t split;
  uint64_t subgraph_solves;
  /// Zero on write, ignored on read. Files written while subgraph solves
  /// could start from a parent's eigenvector count those solves here.
  uint64_t reserved;
  uint64_t spectral_iterations;
};
static_assert(sizeof(CommunityLevelRecord) == 48 &&
                  std::is_trivially_copyable_v<CommunityLevelRecord>,
              "CommunityLevelRecord is the on-disk layout");

/// The header counts as one bundle; section starts are pure functions
/// of these so readers can bounds-check before touching any section.
struct CommunityFileCounts {
  uint64_t num_nodes = 0;        // n
  uint64_t num_edges = 0;        // m
  uint64_t communities = 0;      // C
  uint64_t roots = 0;            // R
  uint64_t levels = 0;           // L
  uint64_t paths = 0;            // P
  uint64_t member_entries = 0;   // M
  uint64_t child_entries = 0;    // K
  uint64_t posting_entries = 0;  // Q
  uint64_t path_entries = 0;     // E
};

/// Fixed header size: magic + version + 10 counts + 2 f64 + digest.
inline constexpr uint64_t kCommunityFileHeaderBytes = 112;

inline constexpr uint64_t CommunityFileAlign8(uint64_t x) {
  return (x + 7) & ~uint64_t{7};
}

inline constexpr uint64_t CommunityFileRecordsStart() {
  return kCommunityFileHeaderBytes;
}
inline constexpr uint64_t CommunityFileRootsStart(
    const CommunityFileCounts& c) {
  return CommunityFileRecordsStart() + c.communities * sizeof(CommunityRecord);
}
inline constexpr uint64_t CommunityFileMembersStart(
    const CommunityFileCounts& c) {
  return CommunityFileAlign8(CommunityFileRootsStart(c) +
                             c.roots * sizeof(uint32_t));
}
inline constexpr uint64_t CommunityFileChildrenStart(
    const CommunityFileCounts& c) {
  return CommunityFileAlign8(CommunityFileMembersStart(c) +
                             c.member_entries * sizeof(uint32_t));
}
inline constexpr uint64_t CommunityFilePostingOffsetsStart(
    const CommunityFileCounts& c) {
  return CommunityFileAlign8(CommunityFileChildrenStart(c) +
                             c.child_entries * sizeof(uint32_t));
}
inline constexpr uint64_t CommunityFilePostingsStart(
    const CommunityFileCounts& c) {
  return CommunityFilePostingOffsetsStart(c) +
         (c.num_nodes + 1) * sizeof(uint64_t);
}
inline constexpr uint64_t CommunityFilePathNodeOffsetsStart(
    const CommunityFileCounts& c) {
  return CommunityFileAlign8(CommunityFilePostingsStart(c) +
                             c.posting_entries * sizeof(uint32_t));
}
inline constexpr uint64_t CommunityFilePathOffsetsStart(
    const CommunityFileCounts& c) {
  return CommunityFilePathNodeOffsetsStart(c) +
         (c.num_nodes + 1) * sizeof(uint64_t);
}
inline constexpr uint64_t CommunityFilePathEntriesStart(
    const CommunityFileCounts& c) {
  return CommunityFilePathOffsetsStart(c) + (c.paths + 1) * sizeof(uint64_t);
}
inline constexpr uint64_t CommunityFileLevelsStart(
    const CommunityFileCounts& c) {
  return CommunityFileAlign8(CommunityFilePathEntriesStart(c) +
                             c.path_entries * sizeof(uint32_t));
}

/// Exact size of a well-formed file with these counts.
inline constexpr uint64_t CommunityFileBytes(const CommunityFileCounts& c) {
  return CommunityFileLevelsStart(c) +
         c.levels * sizeof(CommunityLevelRecord);
}

}  // namespace oca

#endif  // OCA_IO_COMMUNITY_FORMAT_H_

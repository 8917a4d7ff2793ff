// Writers for the OCAC community-store format (io/community_format.h):
// persist one built RecursiveHierarchy — or a flat OcaResult cover via
// FlatHierarchyFromResult — as an immutable snapshot the mmap'd
// CommunityStore (core/community_store.h) answers queries from.
//
// Same family shape as io/graph_serialize: one stream writer, one file
// convenience wrapper, every failure a typed Status through Result<T> —
// kInvalidArgument when the tree itself is malformed (member ids out of
// range, unsorted communities, parent/child links inconsistent, a stop
// reason outside the on-disk enum), kIOError when the stream fails.
// Writers return the exact byte size of the snapshot written, which
// always equals CommunityFileBytes of the header counts.

#ifndef OCA_IO_COMMUNITY_SERIALIZE_H_
#define OCA_IO_COMMUNITY_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/recursive_hierarchy.h"
#include "util/result.h"

namespace oca {

/// Serializes `tree` for a source graph with `num_nodes` nodes and
/// `num_edges` edges (the store needs both for metadata and for sizing
/// the node→community posting index). Returns bytes written.
Result<uint64_t> WriteCommunityStore(const RecursiveHierarchy& tree,
                                     uint64_t num_nodes, uint64_t num_edges,
                                     std::ostream& out);

/// Same, to the file at `path`, replaced atomically: the snapshot goes
/// to a new file beside `path` (mode 0666 minus the umask) that is
/// renamed over `path` only after a complete write. On any error `path`
/// is left as it was and the new file is removed; a store that opened
/// the old file keeps reading the old snapshot.
Result<uint64_t> WriteCommunityStoreFile(const RecursiveHierarchy& tree,
                                         uint64_t num_nodes,
                                         uint64_t num_edges,
                                         const std::string& path);

/// Wraps a flat OCA cover as a depth-0 hierarchy (every community a
/// root, stop reason "flat", no solve record) so one writer and one
/// store serve both pipeline shapes. Root stats are carried over, so
/// the snapshot's coupling constant and lambda_min are the run's.
RecursiveHierarchy FlatHierarchyFromResult(const OcaResult& result);

}  // namespace oca

#endif  // OCA_IO_COMMUNITY_SERIALIZE_H_

// Compact binary graph serialization for fast reload of generated
// benchmark graphs. Little-endian, versioned header.
//
// Layout: magic "OCAG" | u32 version | u64 n | u64 2m |
//         u64 offsets[n+1] | u32 neighbors[2m]

#ifndef OCA_IO_GRAPH_SERIALIZE_H_
#define OCA_IO_GRAPH_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "graph/graph.h"
#include "util/result.h"

namespace oca {

Status WriteGraphBinary(const Graph& graph, std::ostream& out);
/// Same, to the file at `path`, replaced atomically (io/replace_file.h):
/// on error `path` keeps its old contents, and a graph that mapped the
/// old file (OpenMmapGraph) keeps reading it.
Status WriteGraphBinaryFile(const Graph& graph, const std::string& path);

/// Reads one graph and runs ValidateGraph on it. `in` must be seekable:
/// the header's counts are checked against the stream's length before
/// anything is allocated. kIOError for bytes that cannot be trusted
/// (bad magic or version, sizes that disagree with the length, an
/// unseekable stream, truncation); ValidateGraph's error for a CSR that
/// is not a simple undirected graph.
Result<Graph> ReadGraphBinary(std::istream& in);
Result<Graph> ReadGraphBinaryFile(const std::string& path);

}  // namespace oca

#endif  // OCA_IO_GRAPH_SERIALIZE_H_

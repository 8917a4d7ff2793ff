// The memory-mapped Graph backend: open an OCAG graph file (see
// io/graph_format.h) as a read-only mapping and present it through the
// ordinary Graph API without copying either CSR array into the heap.
//
// The returned Graph's offset/neighbor views point straight into the
// mapping; a shared keep-alive handle (Graph::is_mapped) holds the file
// open until the last copy of the Graph is gone. Because the Graph API
// is span-based end to end, every algorithm — k-core, OCA, the
// recursive hierarchy, the CSR mat-vec — runs on a mapped graph
// unchanged and produces bit-identical results to the in-memory backend
// (tests/graph/backend_equivalence_test.cc pins this, digest included).
//
// Error contract: every failure is a typed Status through Result<T> —
// kIOError for filesystem failures and files whose bytes cannot be
// trusted (truncation, overrunning section sizes, trailing garbage),
// kInvalidArgument for well-read files that do not describe a usable
// graph (bad magic, unsupported version, zero nodes, malformed CSR).
// Nothing aborts and nothing reads out of bounds: the header is fully
// cross-checked against the true file size before the arrays are
// touched.

#ifndef OCA_GRAPH_MMAP_GRAPH_H_
#define OCA_GRAPH_MMAP_GRAPH_H_

#include <string>

#include "graph/graph.h"
#include "util/result.h"

namespace oca {

struct MmapGraphOptions {
  /// Run the full structural validation (ValidateGraph: monotone
  /// offsets, sorted loop-free neighbor lists, symmetry) after the
  /// header checks. One sequential O(m log d) pass; turn off only for
  /// files this process just wrote. Header/size/offset-table checks
  /// always run regardless.
  bool validate = true;

  /// Advise the kernel the mapping will be read sequentially
  /// (madvise(MADV_SEQUENTIAL)); good for one-shot scans, leave off for
  /// the random-access patterns of OCA local search.
  bool sequential = false;
};

/// Maps `path` (an OCAG file) and returns a Graph whose CSR views alias
/// the mapping. The mapping is released when the last Graph copy dies.
Result<Graph> OpenMmapGraph(const std::string& path,
                            const MmapGraphOptions& options = {});

}  // namespace oca

#endif  // OCA_GRAPH_MMAP_GRAPH_H_

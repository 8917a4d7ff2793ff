// Streaming two-pass CSR construction: build an OCAG graph file (the
// mmap backend's format, io/graph_format.h) from an edge stream without
// ever materializing the edge list — or the neighbor array — in RAM.
//
// The classic GraphBuilder::Build holds three edge-linear structures at
// once (the accumulated edge vector, its sorted dedup copy, and the CSR
// arrays). This path replaces all of them with node-linear state plus
// one bounded gather buffer:
//
//   pass 1   one scan of the source counts per-node incidence
//            (degree before dedup) and validates endpoints;
//   pass 2   nodes are processed in ascending chunks sized so each
//            chunk's incidence fits the buffer; per chunk, one scan of
//            the source gathers the chunk's neighbors, each list is
//            sorted + deduped in the buffer, and the finished slice is
//            appended to the file at its final position while the
//            chunk's offsets are patched in place.
//
// Peak heap = O(n) incidence counters + the gather buffer
// (StreamBuildOptions::buffer_bytes) — never O(m). The price is one
// extra scan of the source per chunk; sources are expected to be cheap
// re-scannable streams (an edge file on disk, a generator).
//
// Determinism: the output file is a pure function of the edge MULTISET
// (self-loops dropped, duplicates deduped, lists sorted) — independent
// of edge order, chunking, and buffer size — and is byte-identical to
// WriteGraphBinaryFile(GraphBuilder::Build()) of the same edges.
// All I/O and validation failures are typed Status via Result<T>.

#ifndef OCA_GRAPH_GRAPH_STREAM_BUILD_H_
#define OCA_GRAPH_GRAPH_STREAM_BUILD_H_

#include <span>
#include <string>

#include "graph/graph.h"
#include "util/result.h"

namespace oca {

/// A re-scannable stream of undirected edges. Implementations must
/// replay the SAME edge sequence after each Rewind (the chunked builder
/// scans the source once per chunk); a source that mutates between
/// passes is detected and reported as an error, not UB.
///
/// Weighted sources override has_weights() to return true and implement
/// ReadBatchWeighted; the builder then collapses duplicate edges by
/// summing their weights and emits a format-v2 file with the weight
/// section. Unweighted sources inherit the defaults and the output is
/// the historical v1 file, byte for byte.
class EdgeSource {
 public:
  virtual ~EdgeSource() = default;

  /// Restarts the stream from the first edge.
  virtual Status Rewind() = 0;

  /// Fills `out` with up to out.size() edges; returns the count filled.
  /// Zero means end of stream. Orientation is free; self-loops allowed
  /// (the builder drops them).
  virtual Result<size_t> ReadBatch(std::span<Edge> out) = 0;

  /// True when the stream carries per-edge weights.
  virtual bool has_weights() const { return false; }

  /// Weighted batch read; `weights` parallels `out` and both spans have
  /// the same size. The default adapts ReadBatch with weight 1.0 so an
  /// unweighted source can always be read through the weighted path.
  virtual Result<size_t> ReadBatchWeighted(std::span<Edge> out,
                                           std::span<double> weights);
};

/// EdgeSource over an in-RAM edge span (adapter for GraphBuilder and
/// tests; the span must outlive the source).
class VectorEdgeSource final : public EdgeSource {
 public:
  explicit VectorEdgeSource(std::span<const Edge> edges) : edges_(edges) {}
  Status Rewind() override {
    cursor_ = 0;
    return Status::OK();
  }
  Result<size_t> ReadBatch(std::span<Edge> out) override;

 private:
  std::span<const Edge> edges_;
  size_t cursor_ = 0;
};

/// Weighted EdgeSource over parallel in-RAM spans (adapter for
/// GraphBuilder's weighted mode and tests; both spans must have the same
/// length and outlive the source).
class VectorWeightedEdgeSource final : public EdgeSource {
 public:
  VectorWeightedEdgeSource(std::span<const Edge> edges,
                           std::span<const double> weights)
      : edges_(edges), weights_(weights) {}
  Status Rewind() override {
    cursor_ = 0;
    return Status::OK();
  }
  Result<size_t> ReadBatch(std::span<Edge> out) override;
  bool has_weights() const override { return true; }
  Result<size_t> ReadBatchWeighted(std::span<Edge> out,
                                   std::span<double> weights) override;

 private:
  std::span<const Edge> edges_;
  std::span<const double> weights_;
  size_t cursor_ = 0;
};

struct StreamBuildOptions {
  /// Bound on the pass-2 gather buffer. Smaller buffers mean more
  /// chunks and thus more scans of the source; the output is identical.
  /// A single node whose incidence alone exceeds the budget gets a
  /// one-node chunk with a buffer sized to that node (the bound is
  /// per-chunk best effort, never a correctness limit).
  size_t buffer_bytes = 8u << 20;
};

struct StreamBuildStats {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;  // undirected, after dedup
  uint64_t self_loops_dropped = 0;
  uint64_t duplicates_dropped = 0;  // duplicate undirected edges
  uint64_t num_chunks = 0;
  uint64_t source_passes = 0;  // total scans of the source
  uint64_t file_bytes = 0;
};

/// Streams `source` into an OCAG graph file at `path` for a graph on
/// `num_nodes` nodes (must be > 0). See the file comment for the
/// algorithm and memory contract. The result opens with OpenMmapGraph
/// or ReadGraphBinaryFile. The file is built beside `path` and renamed
/// over it only when the build succeeds (io/replace_file.h): a failed
/// build leaves any existing file at `path` as it was, and a reader
/// that mapped the old file keeps its bytes. A weighted source
/// (has_weights() == true) produces a format-v2 file: duplicate
/// undirected edges collapse by summing weights, and because the weight
/// section's file position depends on the FINAL post-dedup neighbor
/// count, kept weights are staged sequentially in a ".wtmp" file beside
/// the one being built during pass 2 and spliced in after the last
/// chunk (the staging file is removed on every exit path).
Result<StreamBuildStats> BuildGraphFileFromEdges(
    size_t num_nodes, EdgeSource& source, const std::string& path,
    const StreamBuildOptions& options = {});

}  // namespace oca

#endif  // OCA_GRAPH_GRAPH_STREAM_BUILD_H_

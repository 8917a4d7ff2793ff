#include "graph/graph_stream_build.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "io/graph_format.h"
#include "io/replace_file.h"

namespace oca {

namespace {

constexpr size_t kScanBatchEdges = 1u << 14;

Status PWriteAll(int fd, const void* data, size_t len, uint64_t offset,
                 const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t w = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write to '" + path +
                             "' failed: " + std::strerror(errno));
    }
    p += w;
    len -= static_cast<size_t>(w);
    offset += static_cast<uint64_t>(w);
  }
  return Status::OK();
}

Status PReadAll(int fd, void* data, size_t len, uint64_t offset,
                const std::string& path) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    ssize_t r = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read from '" + path +
                             "' failed: " + std::strerror(errno));
    }
    if (r == 0) {
      return Status::IOError("read from '" + path +
                             "' hit unexpected end of file");
    }
    p += r;
    len -= static_cast<size_t>(r);
    offset += static_cast<uint64_t>(r);
  }
  return Status::OK();
}

/// One full scan of `source`, invoking fn(u, v) per raw edge.
template <typename Fn>
Status ScanSource(EdgeSource& source, std::vector<Edge>& batch, Fn&& fn) {
  OCA_RETURN_IF_ERROR(source.Rewind());
  for (;;) {
    auto got = source.ReadBatch({batch.data(), batch.size()});
    if (!got.ok()) return got.status();
    if (*got == 0) break;
    for (size_t i = 0; i < *got; ++i) {
      OCA_RETURN_IF_ERROR(fn(batch[i].first, batch[i].second));
    }
  }
  return Status::OK();
}

/// One full scan of a weighted `source`, invoking fn(u, v, w) per raw
/// edge.
template <typename Fn>
Status ScanSourceWeighted(EdgeSource& source, std::vector<Edge>& batch,
                          std::vector<double>& wbatch, Fn&& fn) {
  OCA_RETURN_IF_ERROR(source.Rewind());
  for (;;) {
    auto got = source.ReadBatchWeighted({batch.data(), batch.size()},
                                        {wbatch.data(), wbatch.size()});
    if (!got.ok()) return got.status();
    if (*got == 0) break;
    for (size_t i = 0; i < *got; ++i) {
      OCA_RETURN_IF_ERROR(fn(batch[i].first, batch[i].second, wbatch[i]));
    }
  }
  return Status::OK();
}

/// Weighted variant of the chunked two-pass build. Same structure as
/// the unweighted path below, with three differences: the gather buffer
/// holds (neighbor, weight) pairs, dedup sums weights in (neighbor,
/// weight)-sorted order, and kept weights are staged to a sequential
/// temp file because the v2 weight section's position depends on the
/// final post-dedup neighbor count. Writes a version-2 header into the
/// empty file at `path`.
Result<StreamBuildStats> BuildWeightedGraphFile(
    uint64_t n, EdgeSource& source, const std::string& path,
    const StreamBuildOptions& options) {
  StreamBuildStats stats;
  stats.num_nodes = n;

  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  const std::string wtmp_path = path + ".wtmp";
  int wfd =
      ::open(wtmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (wfd < 0) {
    Status s = Status::IOError("cannot create '" + wtmp_path +
                               "': " + std::strerror(errno));
    ::close(fd);
    return s;
  }

  Result<StreamBuildStats> result =
      Status::Internal("stream build did not complete");
  std::vector<Edge> batch(kScanBatchEdges);
  std::vector<double> wbatch(kScanBatchEdges);

  do {  // break-on-error scope, so both fds always close
    // Pass 1: per-node incidence + endpoint and weight validation.
    std::vector<uint32_t> incidence(n, 0);
    Status pass1 = ScanSourceWeighted(
        source, batch, wbatch, [&](NodeId u, NodeId v, double w) {
          if (u >= n || v >= n) {
            return Status::InvalidArgument(
                "edge endpoint " + std::to_string(std::max(u, v)) +
                " out of range for graph on " + std::to_string(n) + " nodes");
          }
          if (u == v) {
            ++stats.self_loops_dropped;
            return Status::OK();
          }
          if (!std::isfinite(w) || !(w > 0.0)) {
            return Status::InvalidArgument(
                "edge weights must be finite and positive");
          }
          ++incidence[u];
          ++incidence[v];
          return Status::OK();
        });
    ++stats.source_passes;
    if (!pass1.ok()) {
      result = pass1;
      break;
    }

    // Pass 2: chunked gather/sort/dedup-sum/append. Neighbors land at
    // their final positions; kept weights append sequentially to the
    // temp file.
    using Entry = std::pair<NodeId, double>;
    const size_t budget_entries =
        std::max<size_t>(options.buffer_bytes / sizeof(Entry), 1024);
    std::vector<Entry> buffer;
    std::vector<NodeId> nbr_out;
    std::vector<double> w_out;
    std::vector<uint64_t> local_offsets;  // chunk-local, reused
    std::vector<uint64_t> cursors;
    std::vector<uint64_t> offsets_out;
    uint64_t total_kept = 0;  // final neighbor entries written so far
    Status pass2 = Status::OK();

    for (uint64_t lo = 0; lo < n;) {
      uint64_t hi = lo;
      uint64_t chunk_inc = 0;
      while (hi < n) {
        const uint64_t next = chunk_inc + incidence[hi];
        if (hi > lo && (next > budget_entries || hi - lo >= budget_entries)) {
          break;
        }
        chunk_inc = next;
        ++hi;
      }
      const uint64_t chunk_n = hi - lo;
      ++stats.num_chunks;

      local_offsets.assign(chunk_n + 1, 0);
      for (uint64_t i = 0; i < chunk_n; ++i) {
        local_offsets[i + 1] = local_offsets[i] + incidence[lo + i];
      }
      buffer.resize(chunk_inc);
      cursors.assign(local_offsets.begin(), local_offsets.end() - 1);

      pass2 = ScanSourceWeighted(
          source, batch, wbatch, [&](NodeId u, NodeId v, double w) {
            if (u == v) return Status::OK();
            if (u >= lo && u < hi) {
              const uint64_t slot = cursors[u - lo]++;
              if (slot >= local_offsets[u - lo + 1]) {
                return Status::Internal(
                    "edge source changed between passes (node " +
                    std::to_string(u) + " grew)");
              }
              buffer[slot] = {v, w};
            }
            if (v >= lo && v < hi) {
              const uint64_t slot = cursors[v - lo]++;
              if (slot >= local_offsets[v - lo + 1]) {
                return Status::Internal(
                    "edge source changed between passes (node " +
                    std::to_string(v) + " grew)");
              }
              buffer[slot] = {u, w};
            }
            return Status::OK();
          });
      ++stats.source_passes;
      if (!pass2.ok()) break;

      // Sort each list by (neighbor, weight) — the weight tiebreak
      // makes the summation order, hence the sums, a pure function of
      // the edge multiset — collapse duplicates by summing, and record
      // this chunk's final offsets.
      offsets_out.assign(chunk_n, 0);
      nbr_out.clear();
      w_out.clear();
      for (uint64_t i = 0; i < chunk_n; ++i) {
        if (cursors[i] != local_offsets[i + 1]) {
          pass2 = Status::Internal("edge source changed between passes (node " +
                                   std::to_string(lo + i) + " shrank)");
          break;
        }
        auto begin = buffer.begin() + static_cast<ptrdiff_t>(local_offsets[i]);
        auto end = buffer.begin() + static_cast<ptrdiff_t>(cursors[i]);
        std::sort(begin, end);
        offsets_out[i] =
            total_kept + static_cast<uint64_t>(nbr_out.size());
        for (auto it = begin; it != end;) {
          NodeId nbr = it->first;
          double sum = it->second;
          ++it;
          while (it != end && it->first == nbr) {
            sum += it->second;
            ++it;
            ++stats.duplicates_dropped;
          }
          nbr_out.push_back(nbr);
          w_out.push_back(sum);
        }
      }
      if (!pass2.ok()) break;

      pass2 = PWriteAll(
          fd, nbr_out.data(), nbr_out.size() * sizeof(NodeId),
          GraphFileNeighborsStart(n) + total_kept * sizeof(NodeId), path);
      if (!pass2.ok()) break;
      pass2 = PWriteAll(wfd, w_out.data(), w_out.size() * sizeof(double),
                        total_kept * sizeof(double), wtmp_path);
      if (!pass2.ok()) break;
      pass2 = PWriteAll(fd, offsets_out.data(), chunk_n * sizeof(uint64_t),
                        kGraphFileOffsetsStart + lo * sizeof(uint64_t), path);
      if (!pass2.ok()) break;

      total_kept += static_cast<uint64_t>(nbr_out.size());
      lo = hi;
    }
    if (!pass2.ok()) {
      result = pass2;
      break;
    }
    if (total_kept % 2 != 0) {
      result = Status::Internal("stream build produced an odd neighbor count");
      break;
    }
    stats.duplicates_dropped /= 2;

    // Splice the staged weights in at their final section start, now
    // that the post-dedup neighbor count is known.
    const uint64_t weights_start = GraphFileWeightsStart(n, total_kept);
    Status tail = Status::OK();
    {
      std::vector<char> copy_buf(1u << 20);
      uint64_t remaining = total_kept * sizeof(double);
      uint64_t pos = 0;
      while (tail.ok() && remaining > 0) {
        const size_t take =
            static_cast<size_t>(std::min<uint64_t>(remaining, copy_buf.size()));
        tail = PReadAll(wfd, copy_buf.data(), take, pos, wtmp_path);
        if (!tail.ok()) break;
        tail = PWriteAll(fd, copy_buf.data(), take, weights_start + pos, path);
        pos += take;
        remaining -= take;
      }
    }
    if (tail.ok()) {
      tail = PWriteAll(fd, &total_kept, sizeof(total_kept),
                       kGraphFileOffsetsStart + n * sizeof(uint64_t), path);
    }
    if (tail.ok()) {
      // Header last, so a crashed build never leaves a valid magic.
      char header[kGraphFileHeaderBytes];
      std::memcpy(header, kGraphFileMagic, 4);
      std::memcpy(header + 4, &kGraphFileVersionWeighted, 4);
      std::memcpy(header + 8, &n, 8);
      std::memcpy(header + 16, &total_kept, 8);
      tail = PWriteAll(fd, header, sizeof(header), 0, path);
    }
    if (!tail.ok()) {
      result = tail;
      break;
    }
    stats.num_edges = total_kept / 2;
    stats.file_bytes = GraphFileBytes(n, total_kept, /*weighted=*/true);
    result = stats;
  } while (false);

  ::close(wfd);
  ::unlink(wtmp_path.c_str());
  if (::close(fd) != 0 && result.ok()) {
    return Status::IOError("close of '" + path +
                           "' failed: " + std::strerror(errno));
  }
  return result;
}

}  // namespace

Result<size_t> EdgeSource::ReadBatchWeighted(std::span<Edge> out,
                                             std::span<double> weights) {
  auto got = ReadBatch(out);
  if (!got.ok()) return got.status();
  std::fill_n(weights.begin(), *got, 1.0);
  return *got;
}

Result<size_t> VectorEdgeSource::ReadBatch(std::span<Edge> out) {
  const size_t take = std::min(out.size(), edges_.size() - cursor_);
  std::copy_n(edges_.begin() + static_cast<ptrdiff_t>(cursor_), take,
              out.begin());
  cursor_ += take;
  return take;
}

Result<size_t> VectorWeightedEdgeSource::ReadBatch(std::span<Edge> out) {
  const size_t take = std::min(out.size(), edges_.size() - cursor_);
  std::copy_n(edges_.begin() + static_cast<ptrdiff_t>(cursor_), take,
              out.begin());
  cursor_ += take;
  return take;
}

Result<size_t> VectorWeightedEdgeSource::ReadBatchWeighted(
    std::span<Edge> out, std::span<double> weights) {
  if (edges_.size() != weights_.size()) {
    return Status::InvalidArgument(
        "weighted edge source has " + std::to_string(edges_.size()) +
        " edges but " + std::to_string(weights_.size()) + " weights");
  }
  const size_t take = std::min(out.size(), edges_.size() - cursor_);
  std::copy_n(edges_.begin() + static_cast<ptrdiff_t>(cursor_), take,
              out.begin());
  std::copy_n(weights_.begin() + static_cast<ptrdiff_t>(cursor_), take,
              weights.begin());
  cursor_ += take;
  return take;
}

namespace {

/// The chunked two-pass build of an unweighted graph into the empty
/// file at `path`. Writes a version-1 header.
Result<StreamBuildStats> BuildUnweightedGraphFile(
    uint64_t n, EdgeSource& source, const std::string& path,
    const StreamBuildOptions& options) {
  StreamBuildStats stats;
  stats.num_nodes = n;

  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  // Single close point; success rewrites `result` before falling out.
  Result<StreamBuildStats> result =
      Status::Internal("stream build did not complete");
  std::vector<Edge> batch(kScanBatchEdges);

  do {  // break-on-error scope, so fd always closes
    // Pass 1: per-node incidence (pre-dedup degree) + endpoint checks.
    std::vector<uint32_t> incidence(n, 0);
    Status pass1 = ScanSource(source, batch, [&](NodeId u, NodeId v) {
      if (u >= n || v >= n) {
        return Status::InvalidArgument(
            "edge endpoint " + std::to_string(std::max(u, v)) +
            " out of range for graph on " + std::to_string(n) + " nodes");
      }
      if (u == v) {
        ++stats.self_loops_dropped;
        return Status::OK();
      }
      ++incidence[u];
      ++incidence[v];
      return Status::OK();
    });
    ++stats.source_passes;
    if (!pass1.ok()) {
      result = pass1;
      break;
    }

    // Pass 2: chunked gather/sort/dedup/append. Chunks are planned so
    // each one's incidence fits the buffer budget (single oversized
    // nodes get a chunk of their own).
    const size_t budget_entries =
        std::max<size_t>(options.buffer_bytes / sizeof(NodeId), 1024);
    std::vector<NodeId> buffer;
    std::vector<uint64_t> local_offsets;  // chunk-local, reused
    std::vector<uint64_t> cursors;
    std::vector<uint64_t> offsets_out;
    uint64_t total_kept = 0;  // final neighbor entries written so far
    Status pass2 = Status::OK();

    for (uint64_t lo = 0; lo < n;) {
      // Grow the chunk while it fits the budget.
      uint64_t hi = lo;
      uint64_t chunk_inc = 0;
      while (hi < n) {
        const uint64_t next = chunk_inc + incidence[hi];
        if (hi > lo && (next > budget_entries || hi - lo >= budget_entries)) {
          break;
        }
        chunk_inc = next;
        ++hi;
      }
      const uint64_t chunk_n = hi - lo;
      ++stats.num_chunks;

      local_offsets.assign(chunk_n + 1, 0);
      for (uint64_t i = 0; i < chunk_n; ++i) {
        local_offsets[i + 1] = local_offsets[i] + incidence[lo + i];
      }
      buffer.resize(chunk_inc);
      cursors.assign(local_offsets.begin(), local_offsets.end() - 1);

      pass2 = ScanSource(source, batch, [&](NodeId u, NodeId v) {
        if (u == v) return Status::OK();
        if (u >= lo && u < hi) {
          const uint64_t slot = cursors[u - lo]++;
          if (slot >= local_offsets[u - lo + 1]) {
            return Status::Internal(
                "edge source changed between passes (node " +
                std::to_string(u) + " grew)");
          }
          buffer[slot] = v;
        }
        if (v >= lo && v < hi) {
          const uint64_t slot = cursors[v - lo]++;
          if (slot >= local_offsets[v - lo + 1]) {
            return Status::Internal(
                "edge source changed between passes (node " +
                std::to_string(v) + " grew)");
          }
          buffer[slot] = u;
        }
        return Status::OK();
      });
      ++stats.source_passes;
      if (!pass2.ok()) break;

      // Sort + dedup each list, compacting the buffer in place, and
      // record this chunk's final offsets.
      offsets_out.assign(chunk_n, 0);
      uint64_t write_pos = 0;
      for (uint64_t i = 0; i < chunk_n; ++i) {
        if (cursors[i] != local_offsets[i + 1]) {
          pass2 = Status::Internal("edge source changed between passes (node " +
                                   std::to_string(lo + i) + " shrank)");
          break;
        }
        auto begin = buffer.begin() + static_cast<ptrdiff_t>(local_offsets[i]);
        auto end = buffer.begin() + static_cast<ptrdiff_t>(cursors[i]);
        std::sort(begin, end);
        auto kept_end = std::unique(begin, end);
        const uint64_t kept = static_cast<uint64_t>(kept_end - begin);
        stats.duplicates_dropped += static_cast<uint64_t>(end - kept_end);
        offsets_out[i] = total_kept + write_pos;
        std::move(begin, kept_end,
                  buffer.begin() + static_cast<ptrdiff_t>(write_pos));
        write_pos += kept;
      }
      if (!pass2.ok()) break;

      pass2 = PWriteAll(
          fd, buffer.data(), write_pos * sizeof(NodeId),
          GraphFileNeighborsStart(n) + total_kept * sizeof(NodeId), path);
      if (!pass2.ok()) break;
      pass2 = PWriteAll(fd, offsets_out.data(), chunk_n * sizeof(uint64_t),
                        kGraphFileOffsetsStart + lo * sizeof(uint64_t), path);
      if (!pass2.ok()) break;

      total_kept += write_pos;
      lo = hi;
    }
    if (!pass2.ok()) {
      result = pass2;
      break;
    }
    // Symmetric dedup sanity: every undirected edge contributes exactly
    // two kept entries.
    if (total_kept % 2 != 0) {
      result = Status::Internal("stream build produced an odd neighbor count");
      break;
    }
    stats.duplicates_dropped /= 2;

    // Closing offset entry, then the header (written last, so a crashed
    // build never leaves a file with a valid magic).
    Status tail = PWriteAll(fd, &total_kept, sizeof(total_kept),
                            kGraphFileOffsetsStart + n * sizeof(uint64_t),
                            path);
    if (tail.ok()) {
      char header[kGraphFileHeaderBytes];
      std::memcpy(header, kGraphFileMagic, 4);
      std::memcpy(header + 4, &kGraphFileVersion, 4);
      std::memcpy(header + 8, &n, 8);
      std::memcpy(header + 16, &total_kept, 8);
      tail = PWriteAll(fd, header, sizeof(header), 0, path);
    }
    if (!tail.ok()) {
      result = tail;
      break;
    }
    stats.num_edges = total_kept / 2;
    stats.file_bytes = GraphFileBytes(n, total_kept);
    result = stats;
  } while (false);

  if (::close(fd) != 0 && result.ok()) {
    return Status::IOError("close of '" + path +
                           "' failed: " + std::strerror(errno));
  }
  return result;
}

}  // namespace

Result<StreamBuildStats> BuildGraphFileFromEdges(
    size_t num_nodes, EdgeSource& source, const std::string& path,
    const StreamBuildOptions& options) {
  if (num_nodes == 0) {
    return Status::InvalidArgument(
        "cannot stream-build a graph file with zero nodes (the OCAG "
        "format requires n > 0)");
  }
  const uint64_t n = num_nodes;
  Result<StreamBuildStats> built =
      Status::Internal("stream build did not run");
  OCA_RETURN_IF_ERROR(ReplaceFile(path, [&](const std::string& tmp) {
    built = source.has_weights()
                ? BuildWeightedGraphFile(n, source, tmp, options)
                : BuildUnweightedGraphFile(n, source, tmp, options);
    return built.status();
  }));
  return built;
}

}  // namespace oca

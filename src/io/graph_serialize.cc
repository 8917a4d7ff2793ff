#include "io/graph_serialize.h"

#include <cstring>
#include <fstream>

#include "graph/graph_checks.h"
#include "io/graph_format.h"
#include "io/replace_file.h"

namespace oca {

namespace {

// The format lives in io/graph_format.h, shared with the mmap backend
// (graph/mmap_graph) and the streaming builder (graph/graph_stream_build):
// one writer family, three readers, zero drift.
constexpr const char (&kMagic)[4] = kGraphFileMagic;
constexpr uint32_t kVersion = kGraphFileVersion;
constexpr uint32_t kVersionWeighted = kGraphFileVersionWeighted;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status WriteGraphBinary(const Graph& graph, std::ostream& out) {
  // Unweighted graphs always write v1 so their bytes — and every digest
  // pinned on them — are unchanged from before weights existed.
  const bool weighted = graph.is_weighted();
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, weighted ? kVersionWeighted : kVersion);
  WritePod(out, static_cast<uint64_t>(graph.num_nodes()));
  WritePod(out, static_cast<uint64_t>(graph.neighbor_array().size()));
  const auto& offsets = graph.offsets();
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
  const auto& nbrs = graph.neighbor_array();
  out.write(reinterpret_cast<const char*>(nbrs.data()),
            static_cast<std::streamsize>(nbrs.size() * sizeof(NodeId)));
  if (weighted) {
    const auto& weights = graph.weight_array();
    out.write(reinterpret_cast<const char*>(weights.data()),
              static_cast<std::streamsize>(weights.size() * sizeof(double)));
  }
  if (!out) return Status::IOError("binary graph write failed");
  return Status::OK();
}

Status WriteGraphBinaryFile(const Graph& graph, const std::string& path) {
  return ReplaceFile(path, [&graph](std::ostream& out) {
    return WriteGraphBinary(graph, out);
  });
}

Result<Graph> ReadGraphBinary(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("bad magic: not an OCAG graph file");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version) ||
      (version != kVersion && version != kVersionWeighted)) {
    return Status::IOError("unsupported OCAG version");
  }
  const bool weighted = version == kVersionWeighted;
  uint64_t n = 0, arr = 0;
  if (!ReadPod(in, &n) || !ReadPod(in, &arr)) {
    return Status::IOError("truncated OCAG header");
  }
  if (arr % 2 != 0) {
    return Status::IOError("neighbor array length must be even");
  }
  // Sanity-check the header against the remaining stream size before
  // allocating: a corrupted size field must not trigger a multi-terabyte
  // allocation (found by the corruption-injection tests). Each count is
  // bounded by the bytes left before it is multiplied, so no product can
  // wrap round to the true length.
  const std::streampos cur = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(cur);
  if (cur < 0 || end < cur || !in) {
    return Status::IOError("cannot determine OCAG stream length");
  }
  const uint64_t remaining = static_cast<uint64_t>(end - cur);
  const uint64_t entry_bytes = sizeof(NodeId) + (weighted ? sizeof(double) : 0);
  if (n >= remaining / sizeof(uint64_t) ||
      arr > (remaining - (n + 1) * sizeof(uint64_t)) / entry_bytes ||
      (n + 1) * sizeof(uint64_t) + arr * entry_bytes != remaining) {
    return Status::IOError("OCAG header sizes inconsistent with stream length");
  }
  std::vector<uint64_t> offsets(n + 1);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
  std::vector<NodeId> neighbors(arr);
  in.read(reinterpret_cast<char*>(neighbors.data()),
          static_cast<std::streamsize>(neighbors.size() * sizeof(NodeId)));
  std::vector<double> weights(weighted ? arr : 0);
  if (weighted) {
    in.read(reinterpret_cast<char*>(weights.data()),
            static_cast<std::streamsize>(weights.size() * sizeof(double)));
  }
  if (!in) return Status::IOError("truncated OCAG body");

  Graph graph(std::move(offsets), std::move(neighbors), std::move(weights),
              {});
  OCA_RETURN_IF_ERROR(ValidateGraph(graph));
  return graph;
}

Result<Graph> ReadGraphBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadGraphBinary(in);
}

}  // namespace oca

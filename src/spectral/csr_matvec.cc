#include "spectral/csr_matvec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace oca {

namespace {

/// One edge's term of a row sum: x[nbr[p]], times w[p] on a weighted
/// graph. The weighted term is a separate multiply then add in the
/// caller; -ffp-contract=off (src/CMakeLists.txt) keeps the pair from
/// fusing into an FMA.
template <bool kWeighted>
inline double Term(const NodeId* nbr, const double* w, uint64_t p,
                   const double* x) {
  if constexpr (kWeighted) {
    return w[p] * x[nbr[p]];
  } else {
    return x[nbr[p]];
  }
}

/// The row loop every single-vector product runs. Per row: four
/// independent accumulator chains over the largest 4-multiple prefix
/// (lane j adds the terms at b + 4t + j), combined as
/// (a0 + a2) + (a1 + a3), then the remaining 0-3 terms added in order.
/// The chains break the serial add-latency dependency a single
/// accumulator is bound by and give the compiler a layout it can keep
/// in registers. The fused variant also returns
/// sum_{u in [begin, end)} y[u] * x[u], accumulated in row order.
template <bool kWeighted, bool kFused>
double RowLoop(const uint64_t* offs, const NodeId* nbr, const double* w,
               size_t begin, size_t end, const double* x, double* y) {
  double block_acc = 0.0;
  for (size_t u = begin; u < end; ++u) {
    const uint64_t b = offs[u];
    const uint64_t e = offs[u + 1];
    const uint64_t body_end = b + ((e - b) & ~uint64_t{3});
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (uint64_t p = b; p < body_end; p += 4) {
      a0 += Term<kWeighted>(nbr, w, p, x);
      a1 += Term<kWeighted>(nbr, w, p + 1, x);
      a2 += Term<kWeighted>(nbr, w, p + 2, x);
      a3 += Term<kWeighted>(nbr, w, p + 3, x);
    }
    double sum = (a0 + a2) + (a1 + a3);
    for (uint64_t p = body_end; p < e; ++p) {
      sum += Term<kWeighted>(nbr, w, p, x);
    }
    y[u] = sum;
    if constexpr (kFused) block_acc += sum * x[u];
  }
  return block_acc;
}

/// Adds edge p's k-wide strip x[nbr[p] * k + j] (times w[p] on a
/// weighted graph) into acc[0..k).
template <bool kWeighted, size_t kWidth>
inline void AddStrip(const NodeId* nbr, const double* w, uint64_t p,
                     const double* x, double* acc) {
  const double* xv = x + static_cast<size_t>(nbr[p]) * kWidth;
  for (size_t j = 0; j < kWidth; ++j) {
    if constexpr (kWeighted) {
      acc[j] += w[p] * xv[j];
    } else {
      acc[j] += xv[j];
    }
  }
}

/// Multi-vector (SpMM) row loop over k interleaved right-hand sides.
/// Each column keeps RowLoop's four striped chains, its combine and its
/// in-order tail, so column j of the result is bit-identical to a
/// single-vector product on that column.
template <bool kWeighted, size_t kWidth>
void MultiRowLoop(const uint64_t* offs, const NodeId* nbr, const double* w,
                  size_t begin, size_t end, const double* x, double* y) {
  for (size_t u = begin; u < end; ++u) {
    const uint64_t b = offs[u];
    const uint64_t e = offs[u + 1];
    const uint64_t body_end = b + ((e - b) & ~uint64_t{3});
    double acc[4][kWidth] = {};
    for (uint64_t p = b; p < body_end; p += 4) {
      for (int lane = 0; lane < 4; ++lane) {
        AddStrip<kWeighted, kWidth>(nbr, w, p + lane, x, acc[lane]);
      }
    }
    double sums[kWidth];
    for (size_t j = 0; j < kWidth; ++j) {
      sums[j] = (acc[0][j] + acc[2][j]) + (acc[1][j] + acc[3][j]);
    }
    for (uint64_t p = body_end; p < e; ++p) {
      AddStrip<kWeighted, kWidth>(nbr, w, p, x, sums);
    }
    double* yu = y + u * kWidth;
    for (size_t j = 0; j < kWidth; ++j) yu[j] = sums[j];
  }
}

/// MultiRowLoop at compile-time width k, 2 <= k <= kMaxMatVecBatch.
template <bool kWeighted>
void MultiRows(const uint64_t* offs, const NodeId* nbr, const double* w,
               size_t begin, size_t end, const double* x, double* y,
               size_t k) {
  switch (k) {
    case 2: return MultiRowLoop<kWeighted, 2>(offs, nbr, w, begin, end, x, y);
    case 3: return MultiRowLoop<kWeighted, 3>(offs, nbr, w, begin, end, x, y);
    case 4: return MultiRowLoop<kWeighted, 4>(offs, nbr, w, begin, end, x, y);
    case 5: return MultiRowLoop<kWeighted, 5>(offs, nbr, w, begin, end, x, y);
    case 6: return MultiRowLoop<kWeighted, 6>(offs, nbr, w, begin, end, x, y);
    case 7: return MultiRowLoop<kWeighted, 7>(offs, nbr, w, begin, end, x, y);
    default: return MultiRowLoop<kWeighted, 8>(offs, nbr, w, begin, end, x, y);
  }
}

template <bool kFused>
double Rows(const Graph& graph, size_t begin, size_t end, const double* x,
            double* y) {
  const uint64_t* offs = graph.offsets().data();
  const NodeId* nbr = graph.neighbor_array().data();
  if (graph.is_weighted()) {
    return RowLoop<true, kFused>(offs, nbr, graph.weight_array().data(),
                                 begin, end, x, y);
  }
  return RowLoop<false, kFused>(offs, nbr, nullptr, begin, end, x, y);
}

void CheckRowRange(const Graph& graph, size_t begin, size_t end,
                   const double* x, const double* y) {
  if (begin > end || end > graph.num_nodes()) {
    internal::KernelContractViolation(
        "AdjacencyMatVecRows: row range out of bounds");
  }
  if (begin == end) return;  // empty range needs no buffers
  if (x == nullptr || y == nullptr) {
    internal::KernelContractViolation(
        "AdjacencyMatVecRows: null vector argument");
  }
  if (x == y) {
    internal::KernelContractViolation(
        "AdjacencyMatVecRows: x and y must not alias (y[u] is written "
        "while x entries are still being read)");
  }
}

}  // namespace

namespace internal {

void KernelContractViolation(const char* what) {
  std::fprintf(stderr, "[FATAL] CSR mat-vec contract violation: %s\n", what);
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal

void AdjacencyMatVecRows(const Graph& graph, size_t begin, size_t end,
                         const double* x, double* y) {
  CheckRowRange(graph, begin, end, x, y);
  Rows<false>(graph, begin, end, x, y);
}

double AdjacencyMatVecRowsFused(const Graph& graph, size_t begin, size_t end,
                                const double* x, double* y) {
  CheckRowRange(graph, begin, end, x, y);
  return Rows<true>(graph, begin, end, x, y);
}

void AdjacencyMatVecMultiRows(const Graph& graph, size_t begin, size_t end,
                              const double* x, double* y, size_t k) {
  if (k < 1 || k > kMaxMatVecBatch) {
    internal::KernelContractViolation(
        "AdjacencyMatVecMultiRows: batch width k outside "
        "[1, kMaxMatVecBatch]");
  }
  CheckRowRange(graph, begin, end, x, y);
  if (k == 1) {  // identical layout; the single-vector loop is the fast path
    Rows<false>(graph, begin, end, x, y);
    return;
  }
  const uint64_t* offs = graph.offsets().data();
  const NodeId* nbr = graph.neighbor_array().data();
  if (graph.is_weighted()) {
    MultiRows<true>(offs, nbr, graph.weight_array().data(), begin, end, x, y,
                    k);
    return;
  }
  MultiRows<false>(offs, nbr, nullptr, begin, end, x, y, k);
}

void AdjacencyMatVec(const Graph& graph, const std::vector<double>& x,
                     std::vector<double>* y) {
  if (x.size() != graph.num_nodes()) {
    internal::KernelContractViolation(
        "AdjacencyMatVec: x.size() != graph.num_nodes()");
  }
  if (y == nullptr) {
    internal::KernelContractViolation("AdjacencyMatVec: output vector is null");
  }
  if (y == &x) {
    internal::KernelContractViolation(
        "AdjacencyMatVec: output must not alias x");
  }
  y->resize(graph.num_nodes());
  AdjacencyMatVecRows(graph, 0, graph.num_nodes(), x.data(), y->data());
}

void AdjacencyMatVecMulti(const Graph& graph, const std::vector<double>& x,
                          std::vector<double>* y, size_t k) {
  const size_t n = graph.num_nodes();
  if (k < 1 || x.size() != n * k) {
    internal::KernelContractViolation(
        "AdjacencyMatVecMulti: x.size() != graph.num_nodes() * k");
  }
  if (y == nullptr || y == &x) {
    internal::KernelContractViolation(
        "AdjacencyMatVecMulti: output vector is null or aliases x");
  }
  y->resize(n * k);
  AdjacencyMatVecMultiRows(graph, 0, n, x.data(), y->data(), k);
}

size_t MatVecBlockRows(size_t n) {
  // One block below the threshold: a 2048-row mat-vec is microseconds
  // of work, not worth partition bookkeeping. Above it, target ~64
  // blocks (ample parallel load balance at any realistic worker count)
  // rounded to a 512-row multiple, clamped so a block's y-range plus
  // row metadata stays comfortably cache-resident.
  constexpr size_t kMinBlock = 2048;
  constexpr size_t kMaxBlock = 65536;
  constexpr size_t kTargetBlocks = 64;
  if (n <= kMinBlock) return kMinBlock;
  size_t block = (n + kTargetBlocks - 1) / kTargetBlocks;
  block = ((block + 511) / 512) * 512;
  return std::clamp(block, kMinBlock, kMaxBlock);
}

}  // namespace oca

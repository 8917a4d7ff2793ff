// Internal: the single row-loop skeleton both CSR kernel TUs compile.
//
// Included only by csr_matvec.cc (portable body) and
// csr_matvec_avx2.cc (gather body). The row structure — body/tail
// split, tail accumulation order, fused Rayleigh partial — lives here
// exactly once; an implementation supplies only the four-accumulator
// body sum for a full 4-multiple span. Keeping the skeleton shared is
// what makes the bit-identity contract in csr_matvec.h checkable by
// inspection: a body returns (a0 + a2) + (a1 + a3) over the striped
// lanes, and everything around it is literally the same code.
//
// Both TUs are compiled with -ffp-contract=off (see src/CMakeLists.txt)
// so the fused `acc += sum * x[u]` update cannot be contracted into an
// FMA in one TU but not the other.

#ifndef OCA_SPECTRAL_CSR_MATVEC_ROWS_H_
#define OCA_SPECTRAL_CSR_MATVEC_ROWS_H_

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"
#include "spectral/csr_matvec.h"

namespace oca {
namespace internal {

/// `Body(nbr, b, body_end, x)` returns the striped four-accumulator sum
/// of x[nbr[e]] over [b, body_end), a span whose length is a multiple
/// of 4, combined as (a0 + a2) + (a1 + a3).
template <bool kFused, typename Body>
inline double CsrRowLoop(const uint64_t* offs, const NodeId* nbr,
                         size_t begin, size_t end, const double* x, double* y,
                         Body body) {
  double block_acc = 0.0;
  for (size_t u = begin; u < end; ++u) {
    const uint64_t b = offs[u];
    const uint64_t e = offs[u + 1];
    const uint64_t body_end = b + ((e - b) & ~uint64_t{3});
    double sum = body(nbr, b, body_end, x);
    for (uint64_t p = body_end; p < e; ++p) sum += x[nbr[p]];
    y[u] = sum;
    if constexpr (kFused) block_acc += sum * x[u];
  }
  return block_acc;
}

/// Weighted row loop: identical skeleton, but each edge contributes
/// w[e] * x[nbr[e]]. `Body(nbr, w, b, body_end, x)` returns the striped
/// four-accumulator weighted sum over the 4-multiple span, combined as
/// (a0 + a2) + (a1 + a3); every product is a separate multiply THEN add
/// (never an FMA — both TUs build with -ffp-contract=off) so the
/// portable and AVX2 weighted kernels stay bit-identical exactly like
/// the unweighted pair.
template <bool kFused, typename Body>
inline double CsrRowLoopW(const uint64_t* offs, const NodeId* nbr,
                          const double* w, size_t begin, size_t end,
                          const double* x, double* y, Body body) {
  double block_acc = 0.0;
  for (size_t u = begin; u < end; ++u) {
    const uint64_t b = offs[u];
    const uint64_t e = offs[u + 1];
    const uint64_t body_end = b + ((e - b) & ~uint64_t{3});
    double sum = body(nbr, w, b, body_end, x);
    for (uint64_t p = body_end; p < e; ++p) sum += w[p] * x[nbr[p]];
    y[u] = sum;
    if constexpr (kFused) block_acc += sum * x[u];
  }
  return block_acc;
}

/// Multi-vector (SpMM) row loop: k interleaved right-hand sides in one
/// CSR sweep. Layout is node-major — column j of node v lives at
/// x[v * k + j] — so one edge visit touches one contiguous k-wide
/// strip, which is what turns per-edge gathers into contiguous loads.
///
/// Column-wise bit-identity with k single CsrRowLoop passes holds by
/// the same construction as the scalar kernel: a multi body keeps the
/// four striped accumulators PER COLUMN, combines each column as
/// (a0 + a2) + (a1 + a3), and the scalar tail below appends to every
/// column in the same order the single-vector loop would.
/// `MultiBody(nbr, b, body_end, x, sums)` fills sums[0..k) with the
/// striped body sum of its column.
template <size_t kWidth, typename MultiBody>
inline void CsrMultiRowLoop(const uint64_t* offs, const NodeId* nbr,
                            size_t begin, size_t end, const double* x,
                            double* y, MultiBody body) {
  static_assert(kWidth >= 1 && kWidth <= kMaxMatVecBatch);
  double sums[kWidth];
  for (size_t u = begin; u < end; ++u) {
    const uint64_t b = offs[u];
    const uint64_t e = offs[u + 1];
    const uint64_t body_end = b + ((e - b) & ~uint64_t{3});
    body(nbr, b, body_end, x, sums);
    for (uint64_t p = body_end; p < e; ++p) {
      const double* xv = x + static_cast<size_t>(nbr[p]) * kWidth;
      for (size_t j = 0; j < kWidth; ++j) sums[j] += xv[j];
    }
    double* yu = y + u * kWidth;
    for (size_t j = 0; j < kWidth; ++j) yu[j] = sums[j];
  }
}

/// Weighted multi-vector row loop: the CsrMultiRowLoop skeleton with
/// each edge scaling its k-wide strip by w[e]. Same per-column
/// bit-identity construction; `MultiBody(nbr, w, b, body_end, x, sums)`.
template <size_t kWidth, typename MultiBody>
inline void CsrMultiRowLoopW(const uint64_t* offs, const NodeId* nbr,
                             const double* w, size_t begin, size_t end,
                             const double* x, double* y, MultiBody body) {
  static_assert(kWidth >= 1 && kWidth <= kMaxMatVecBatch);
  double sums[kWidth];
  for (size_t u = begin; u < end; ++u) {
    const uint64_t b = offs[u];
    const uint64_t e = offs[u + 1];
    const uint64_t body_end = b + ((e - b) & ~uint64_t{3});
    body(nbr, w, b, body_end, x, sums);
    for (uint64_t p = body_end; p < e; ++p) {
      const double* xv = x + static_cast<size_t>(nbr[p]) * kWidth;
      const double we = w[p];
      for (size_t j = 0; j < kWidth; ++j) sums[j] += we * xv[j];
    }
    double* yu = y + u * kWidth;
    for (size_t j = 0; j < kWidth; ++j) yu[j] = sums[j];
  }
}

/// Portable multi body: the scalar kernel's four striped accumulator
/// chains, kept independently per column. acc[lane][j] adds exactly the
/// elements the single-vector kernel's lane accumulator adds for column
/// j, in the same order, and the combine is the same
/// (a0 + a2) + (a1 + a3) per column — bit-identity by construction.
/// Lives here (not in csr_matvec.cc) because the AVX2 TU reuses it as
/// the fallback body for widths without a vector specialization.
template <size_t kWidth>
struct PortableMultiBody {
  void operator()(const NodeId* nbr, uint64_t b, uint64_t body_end,
                  const double* x, double* out) const {
    double acc[4][kWidth] = {};
    for (uint64_t p = b; p < body_end; p += 4) {
      for (int lane = 0; lane < 4; ++lane) {
        const double* xv = x + static_cast<size_t>(nbr[p + lane]) * kWidth;
        for (size_t j = 0; j < kWidth; ++j) acc[lane][j] += xv[j];
      }
    }
    for (size_t j = 0; j < kWidth; ++j) {
      out[j] = (acc[0][j] + acc[2][j]) + (acc[1][j] + acc[3][j]);
    }
  }
};

/// Weighted portable multi body: acc[lane][j] += w * x strips, same
/// striping and combine as PortableMultiBody with each strip scaled by
/// its edge weight (separate multiply, never contracted — see above).
template <size_t kWidth>
struct PortableWeightedMultiBody {
  void operator()(const NodeId* nbr, const double* w, uint64_t b,
                  uint64_t body_end, const double* x, double* out) const {
    double acc[4][kWidth] = {};
    for (uint64_t p = b; p < body_end; p += 4) {
      for (int lane = 0; lane < 4; ++lane) {
        const double* xv = x + static_cast<size_t>(nbr[p + lane]) * kWidth;
        const double we = w[p + lane];
        for (size_t j = 0; j < kWidth; ++j) acc[lane][j] += we * xv[j];
      }
    }
    for (size_t j = 0; j < kWidth; ++j) {
      out[j] = (acc[0][j] + acc[2][j]) + (acc[1][j] + acc[3][j]);
    }
  }
};

/// Runs the portable multi loop at compile-time width `k`. Shared by
/// both TUs: the portable dispatcher uses it for every width, the AVX2
/// one for widths without a gather-free specialization.
inline void PortableMultiRows(const uint64_t* offs, const NodeId* nbr,
                              size_t begin, size_t end, const double* x,
                              double* y, size_t k) {
  switch (k) {
    case 2:
      CsrMultiRowLoop<2>(offs, nbr, begin, end, x, y, PortableMultiBody<2>{});
      return;
    case 3:
      CsrMultiRowLoop<3>(offs, nbr, begin, end, x, y, PortableMultiBody<3>{});
      return;
    case 4:
      CsrMultiRowLoop<4>(offs, nbr, begin, end, x, y, PortableMultiBody<4>{});
      return;
    case 5:
      CsrMultiRowLoop<5>(offs, nbr, begin, end, x, y, PortableMultiBody<5>{});
      return;
    case 6:
      CsrMultiRowLoop<6>(offs, nbr, begin, end, x, y, PortableMultiBody<6>{});
      return;
    case 7:
      CsrMultiRowLoop<7>(offs, nbr, begin, end, x, y, PortableMultiBody<7>{});
      return;
    case 8:
      CsrMultiRowLoop<8>(offs, nbr, begin, end, x, y, PortableMultiBody<8>{});
      return;
    default:
      CsrMultiRowLoop<1>(offs, nbr, begin, end, x, y, PortableMultiBody<1>{});
      return;
  }
}

/// Weighted analogue of PortableMultiRows.
inline void PortableWeightedMultiRows(const uint64_t* offs, const NodeId* nbr,
                                      const double* w, size_t begin,
                                      size_t end, const double* x, double* y,
                                      size_t k) {
  switch (k) {
    case 2:
      CsrMultiRowLoopW<2>(offs, nbr, w, begin, end, x, y,
                          PortableWeightedMultiBody<2>{});
      return;
    case 3:
      CsrMultiRowLoopW<3>(offs, nbr, w, begin, end, x, y,
                          PortableWeightedMultiBody<3>{});
      return;
    case 4:
      CsrMultiRowLoopW<4>(offs, nbr, w, begin, end, x, y,
                          PortableWeightedMultiBody<4>{});
      return;
    case 5:
      CsrMultiRowLoopW<5>(offs, nbr, w, begin, end, x, y,
                          PortableWeightedMultiBody<5>{});
      return;
    case 6:
      CsrMultiRowLoopW<6>(offs, nbr, w, begin, end, x, y,
                          PortableWeightedMultiBody<6>{});
      return;
    case 7:
      CsrMultiRowLoopW<7>(offs, nbr, w, begin, end, x, y,
                          PortableWeightedMultiBody<7>{});
      return;
    case 8:
      CsrMultiRowLoopW<8>(offs, nbr, w, begin, end, x, y,
                          PortableWeightedMultiBody<8>{});
      return;
    default:
      CsrMultiRowLoopW<1>(offs, nbr, w, begin, end, x, y,
                          PortableWeightedMultiBody<1>{});
      return;
  }
}

#if defined(OCA_HAVE_AVX2)
// Defined in csr_matvec_avx2.cc (compiled with -mavx2); called by the
// dispatcher in csr_matvec.cc only after a runtime CPU check.
void Avx2Rows(const uint64_t* offs, const NodeId* nbr, size_t begin,
              size_t end, const double* x, double* y);
double Avx2RowsFused(const uint64_t* offs, const NodeId* nbr, size_t begin,
                     size_t end, const double* x, double* y);
void Avx2MultiRows(const uint64_t* offs, const NodeId* nbr, size_t begin,
                   size_t end, const double* x, double* y, size_t k);
void Avx2WeightedRows(const uint64_t* offs, const NodeId* nbr, const double* w,
                      size_t begin, size_t end, const double* x, double* y);
double Avx2WeightedRowsFused(const uint64_t* offs, const NodeId* nbr,
                             const double* w, size_t begin, size_t end,
                             const double* x, double* y);
void Avx2WeightedMultiRows(const uint64_t* offs, const NodeId* nbr,
                           const double* w, size_t begin, size_t end,
                           const double* x, double* y, size_t k);
#endif

}  // namespace internal
}  // namespace oca

#endif  // OCA_SPECTRAL_CSR_MATVEC_ROWS_H_

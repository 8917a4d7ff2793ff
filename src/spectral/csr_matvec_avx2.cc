// AVX2 implementation of the CSR row kernel. Compiled with -mavx2
// -ffp-contract=off only when OCA_ENABLE_AVX2 is on and the compiler
// supports the flag; csr_matvec.cc calls in here only after
// __builtin_cpu_supports("avx2") passes at runtime, so the library
// still runs on pre-AVX2 hardware.
//
// Bit-identity with the portable kernel (the whole point — see
// csr_matvec.h): lane j of the gather accumulator sums exactly the
// elements the portable kernel's accumulator a_j sums, in the same
// order, and the horizontal reduction (lo128 + hi128, then hadd)
// computes (a0 + a2) + (a1 + a3) — the portable combine expression.

#if defined(OCA_HAVE_AVX2)

// GCC's avx2intrin.h trips -Wmaybe-uninitialized on the
// _mm256_undefined_pd inside _mm256_i32gather_pd (a known false
// positive in the intrinsic header, not in this code).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "spectral/csr_matvec_rows.h"

namespace oca {
namespace internal {

namespace {

struct Avx2Body {
  double operator()(const NodeId* nbr, uint64_t b, uint64_t body_end,
                    const double* x) const {
    __m256d acc = _mm256_setzero_pd();
    for (uint64_t p = b; p < body_end; p += 4) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(nbr + p));
      acc = _mm256_add_pd(acc, _mm256_i32gather_pd(x, idx, 8));
    }
    const __m128d lo = _mm256_castpd256_pd128(acc);     // (a0, a1)
    const __m128d hi = _mm256_extractf128_pd(acc, 1);   // (a2, a3)
    const __m128d pair = _mm_add_pd(lo, hi);            // (a0+a2, a1+a3)
    return _mm_cvtsd_f64(_mm_hadd_pd(pair, pair));      // (a0+a2)+(a1+a3)
  }
};

// Multi-vector (SpMM) bodies. The node-major interleaved layout turns
// each lane's per-edge access into one CONTIGUOUS k-wide load — no
// gather at all, which is why the multi kernel scales past the scalar
// path even on short community-graph rows. Bit-identity per column:
// lane l's vector accumulator holds column j of the portable kernel's
// acc[l][j] (same elements, same order — vector lanes are independent
// adds), and the combine (acc0 + acc2) + (acc1 + acc3) is the portable
// per-column combine applied lanewise.

/// k = 2: four __m128d accumulators, one 16-byte load per edge.
struct Avx2MultiBody2 {
  void operator()(const NodeId* nbr, uint64_t b, uint64_t body_end,
                  const double* x, double* out) const {
    __m128d a0 = _mm_setzero_pd(), a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd(), a3 = _mm_setzero_pd();
    for (uint64_t p = b; p < body_end; p += 4) {
      a0 = _mm_add_pd(a0, _mm_loadu_pd(x + static_cast<size_t>(nbr[p]) * 2));
      a1 = _mm_add_pd(a1,
                      _mm_loadu_pd(x + static_cast<size_t>(nbr[p + 1]) * 2));
      a2 = _mm_add_pd(a2,
                      _mm_loadu_pd(x + static_cast<size_t>(nbr[p + 2]) * 2));
      a3 = _mm_add_pd(a3,
                      _mm_loadu_pd(x + static_cast<size_t>(nbr[p + 3]) * 2));
    }
    _mm_storeu_pd(out, _mm_add_pd(_mm_add_pd(a0, a2), _mm_add_pd(a1, a3)));
  }
};

/// k = 4: four __m256d accumulators, one 32-byte load per edge.
struct Avx2MultiBody4 {
  void operator()(const NodeId* nbr, uint64_t b, uint64_t body_end,
                  const double* x, double* out) const {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (uint64_t p = b; p < body_end; p += 4) {
      a0 = _mm256_add_pd(a0,
                         _mm256_loadu_pd(x + static_cast<size_t>(nbr[p]) * 4));
      a1 = _mm256_add_pd(
          a1, _mm256_loadu_pd(x + static_cast<size_t>(nbr[p + 1]) * 4));
      a2 = _mm256_add_pd(
          a2, _mm256_loadu_pd(x + static_cast<size_t>(nbr[p + 2]) * 4));
      a3 = _mm256_add_pd(
          a3, _mm256_loadu_pd(x + static_cast<size_t>(nbr[p + 3]) * 4));
    }
    _mm256_storeu_pd(
        out, _mm256_add_pd(_mm256_add_pd(a0, a2), _mm256_add_pd(a1, a3)));
  }
};

/// k = 8: the k = 4 body over two 256-bit halves (columns 0-3, 4-7);
/// eight ymm accumulators still leave registers for the loads.
struct Avx2MultiBody8 {
  void operator()(const NodeId* nbr, uint64_t b, uint64_t body_end,
                  const double* x, double* out) const {
    __m256d lo0 = _mm256_setzero_pd(), lo1 = _mm256_setzero_pd();
    __m256d lo2 = _mm256_setzero_pd(), lo3 = _mm256_setzero_pd();
    __m256d hi0 = _mm256_setzero_pd(), hi1 = _mm256_setzero_pd();
    __m256d hi2 = _mm256_setzero_pd(), hi3 = _mm256_setzero_pd();
    for (uint64_t p = b; p < body_end; p += 4) {
      const double* v0 = x + static_cast<size_t>(nbr[p]) * 8;
      const double* v1 = x + static_cast<size_t>(nbr[p + 1]) * 8;
      const double* v2 = x + static_cast<size_t>(nbr[p + 2]) * 8;
      const double* v3 = x + static_cast<size_t>(nbr[p + 3]) * 8;
      lo0 = _mm256_add_pd(lo0, _mm256_loadu_pd(v0));
      hi0 = _mm256_add_pd(hi0, _mm256_loadu_pd(v0 + 4));
      lo1 = _mm256_add_pd(lo1, _mm256_loadu_pd(v1));
      hi1 = _mm256_add_pd(hi1, _mm256_loadu_pd(v1 + 4));
      lo2 = _mm256_add_pd(lo2, _mm256_loadu_pd(v2));
      hi2 = _mm256_add_pd(hi2, _mm256_loadu_pd(v2 + 4));
      lo3 = _mm256_add_pd(lo3, _mm256_loadu_pd(v3));
      hi3 = _mm256_add_pd(hi3, _mm256_loadu_pd(v3 + 4));
    }
    _mm256_storeu_pd(
        out, _mm256_add_pd(_mm256_add_pd(lo0, lo2), _mm256_add_pd(lo1, lo3)));
    _mm256_storeu_pd(out + 4, _mm256_add_pd(_mm256_add_pd(hi0, hi2),
                                            _mm256_add_pd(hi1, hi3)));
  }
};

// Weighted bodies: each edge contributes w[e] * x[...]. Weights are
// CONTIGUOUS in the CSR weight array, so the scalar kernel pairs one
// plain weight load with the index gather; the multi kernels broadcast
// the edge weight across the k-wide strip. Every product is mul_pd
// followed by add_pd — never an FMA — matching the portable weighted
// bodies' separate multiply-then-add under -ffp-contract=off, so the
// weighted pair is bit-identical the same way the unweighted pair is.

struct Avx2WeightedBody {
  double operator()(const NodeId* nbr, const double* w, uint64_t b,
                    uint64_t body_end, const double* x) const {
    __m256d acc = _mm256_setzero_pd();
    for (uint64_t p = b; p < body_end; p += 4) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(nbr + p));
      const __m256d xv = _mm256_i32gather_pd(x, idx, 8);
      const __m256d wv = _mm256_loadu_pd(w + p);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(wv, xv));
    }
    const __m128d lo = _mm256_castpd256_pd128(acc);     // (a0, a1)
    const __m128d hi = _mm256_extractf128_pd(acc, 1);   // (a2, a3)
    const __m128d pair = _mm_add_pd(lo, hi);            // (a0+a2, a1+a3)
    return _mm_cvtsd_f64(_mm_hadd_pd(pair, pair));      // (a0+a2)+(a1+a3)
  }
};

/// k = 2 weighted: broadcast each edge weight over its 16-byte strip.
struct Avx2WeightedMultiBody2 {
  void operator()(const NodeId* nbr, const double* w, uint64_t b,
                  uint64_t body_end, const double* x, double* out) const {
    __m128d a0 = _mm_setzero_pd(), a1 = _mm_setzero_pd();
    __m128d a2 = _mm_setzero_pd(), a3 = _mm_setzero_pd();
    for (uint64_t p = b; p < body_end; p += 4) {
      a0 = _mm_add_pd(
          a0, _mm_mul_pd(_mm_set1_pd(w[p]),
                         _mm_loadu_pd(x + static_cast<size_t>(nbr[p]) * 2)));
      a1 = _mm_add_pd(
          a1,
          _mm_mul_pd(_mm_set1_pd(w[p + 1]),
                     _mm_loadu_pd(x + static_cast<size_t>(nbr[p + 1]) * 2)));
      a2 = _mm_add_pd(
          a2,
          _mm_mul_pd(_mm_set1_pd(w[p + 2]),
                     _mm_loadu_pd(x + static_cast<size_t>(nbr[p + 2]) * 2)));
      a3 = _mm_add_pd(
          a3,
          _mm_mul_pd(_mm_set1_pd(w[p + 3]),
                     _mm_loadu_pd(x + static_cast<size_t>(nbr[p + 3]) * 2)));
    }
    _mm_storeu_pd(out, _mm_add_pd(_mm_add_pd(a0, a2), _mm_add_pd(a1, a3)));
  }
};

/// k = 4 weighted: one broadcast + one 32-byte load per edge.
struct Avx2WeightedMultiBody4 {
  void operator()(const NodeId* nbr, const double* w, uint64_t b,
                  uint64_t body_end, const double* x, double* out) const {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (uint64_t p = b; p < body_end; p += 4) {
      a0 = _mm256_add_pd(
          a0,
          _mm256_mul_pd(_mm256_set1_pd(w[p]),
                        _mm256_loadu_pd(x + static_cast<size_t>(nbr[p]) * 4)));
      a1 = _mm256_add_pd(
          a1, _mm256_mul_pd(
                  _mm256_set1_pd(w[p + 1]),
                  _mm256_loadu_pd(x + static_cast<size_t>(nbr[p + 1]) * 4)));
      a2 = _mm256_add_pd(
          a2, _mm256_mul_pd(
                  _mm256_set1_pd(w[p + 2]),
                  _mm256_loadu_pd(x + static_cast<size_t>(nbr[p + 2]) * 4)));
      a3 = _mm256_add_pd(
          a3, _mm256_mul_pd(
                  _mm256_set1_pd(w[p + 3]),
                  _mm256_loadu_pd(x + static_cast<size_t>(nbr[p + 3]) * 4)));
    }
    _mm256_storeu_pd(
        out, _mm256_add_pd(_mm256_add_pd(a0, a2), _mm256_add_pd(a1, a3)));
  }
};

/// k = 8 weighted: one broadcast shared by the two 256-bit halves.
struct Avx2WeightedMultiBody8 {
  void operator()(const NodeId* nbr, const double* w, uint64_t b,
                  uint64_t body_end, const double* x, double* out) const {
    __m256d lo0 = _mm256_setzero_pd(), lo1 = _mm256_setzero_pd();
    __m256d lo2 = _mm256_setzero_pd(), lo3 = _mm256_setzero_pd();
    __m256d hi0 = _mm256_setzero_pd(), hi1 = _mm256_setzero_pd();
    __m256d hi2 = _mm256_setzero_pd(), hi3 = _mm256_setzero_pd();
    for (uint64_t p = b; p < body_end; p += 4) {
      const double* v0 = x + static_cast<size_t>(nbr[p]) * 8;
      const double* v1 = x + static_cast<size_t>(nbr[p + 1]) * 8;
      const double* v2 = x + static_cast<size_t>(nbr[p + 2]) * 8;
      const double* v3 = x + static_cast<size_t>(nbr[p + 3]) * 8;
      const __m256d w0 = _mm256_set1_pd(w[p]);
      const __m256d w1 = _mm256_set1_pd(w[p + 1]);
      const __m256d w2 = _mm256_set1_pd(w[p + 2]);
      const __m256d w3 = _mm256_set1_pd(w[p + 3]);
      lo0 = _mm256_add_pd(lo0, _mm256_mul_pd(w0, _mm256_loadu_pd(v0)));
      hi0 = _mm256_add_pd(hi0, _mm256_mul_pd(w0, _mm256_loadu_pd(v0 + 4)));
      lo1 = _mm256_add_pd(lo1, _mm256_mul_pd(w1, _mm256_loadu_pd(v1)));
      hi1 = _mm256_add_pd(hi1, _mm256_mul_pd(w1, _mm256_loadu_pd(v1 + 4)));
      lo2 = _mm256_add_pd(lo2, _mm256_mul_pd(w2, _mm256_loadu_pd(v2)));
      hi2 = _mm256_add_pd(hi2, _mm256_mul_pd(w2, _mm256_loadu_pd(v2 + 4)));
      lo3 = _mm256_add_pd(lo3, _mm256_mul_pd(w3, _mm256_loadu_pd(v3)));
      hi3 = _mm256_add_pd(hi3, _mm256_mul_pd(w3, _mm256_loadu_pd(v3 + 4)));
    }
    _mm256_storeu_pd(
        out, _mm256_add_pd(_mm256_add_pd(lo0, lo2), _mm256_add_pd(lo1, lo3)));
    _mm256_storeu_pd(out + 4, _mm256_add_pd(_mm256_add_pd(hi0, hi2),
                                            _mm256_add_pd(hi1, hi3)));
  }
};

void Avx2MultiDispatch(const uint64_t* offs, const NodeId* nbr, size_t begin,
                       size_t end, const double* x, double* y, size_t k) {
  switch (k) {
    case 2:
      CsrMultiRowLoop<2>(offs, nbr, begin, end, x, y, Avx2MultiBody2{});
      return;
    case 4:
      CsrMultiRowLoop<4>(offs, nbr, begin, end, x, y, Avx2MultiBody4{});
      return;
    case 8:
      CsrMultiRowLoop<8>(offs, nbr, begin, end, x, y, Avx2MultiBody8{});
      return;
    default:
      // Odd widths reuse the shared portable body — same bits (the
      // contract), no vector win worth a bespoke shuffle sequence.
      PortableMultiRows(offs, nbr, begin, end, x, y, k);
      return;
  }
}

void Avx2WeightedMultiDispatch(const uint64_t* offs, const NodeId* nbr,
                               const double* w, size_t begin, size_t end,
                               const double* x, double* y, size_t k) {
  switch (k) {
    case 2:
      CsrMultiRowLoopW<2>(offs, nbr, w, begin, end, x, y,
                          Avx2WeightedMultiBody2{});
      return;
    case 4:
      CsrMultiRowLoopW<4>(offs, nbr, w, begin, end, x, y,
                          Avx2WeightedMultiBody4{});
      return;
    case 8:
      CsrMultiRowLoopW<8>(offs, nbr, w, begin, end, x, y,
                          Avx2WeightedMultiBody8{});
      return;
    default:
      PortableWeightedMultiRows(offs, nbr, w, begin, end, x, y, k);
      return;
  }
}

}  // namespace

void Avx2Rows(const uint64_t* offs, const NodeId* nbr, size_t begin,
              size_t end, const double* x, double* y) {
  CsrRowLoop<false>(offs, nbr, begin, end, x, y, Avx2Body{});
}

double Avx2RowsFused(const uint64_t* offs, const NodeId* nbr, size_t begin,
                     size_t end, const double* x, double* y) {
  return CsrRowLoop<true>(offs, nbr, begin, end, x, y, Avx2Body{});
}

void Avx2MultiRows(const uint64_t* offs, const NodeId* nbr, size_t begin,
                   size_t end, const double* x, double* y, size_t k) {
  Avx2MultiDispatch(offs, nbr, begin, end, x, y, k);
}

void Avx2WeightedRows(const uint64_t* offs, const NodeId* nbr, const double* w,
                      size_t begin, size_t end, const double* x, double* y) {
  CsrRowLoopW<false>(offs, nbr, w, begin, end, x, y, Avx2WeightedBody{});
}

double Avx2WeightedRowsFused(const uint64_t* offs, const NodeId* nbr,
                             const double* w, size_t begin, size_t end,
                             const double* x, double* y) {
  return CsrRowLoopW<true>(offs, nbr, w, begin, end, x, y, Avx2WeightedBody{});
}

void Avx2WeightedMultiRows(const uint64_t* offs, const NodeId* nbr,
                           const double* w, size_t begin, size_t end,
                           const double* x, double* y, size_t k) {
  Avx2WeightedMultiDispatch(offs, nbr, w, begin, end, x, y, k);
}

}  // namespace internal
}  // namespace oca

#endif  // OCA_HAVE_AVX2

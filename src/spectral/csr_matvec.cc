#include "spectral/csr_matvec.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "spectral/csr_matvec_rows.h"

namespace oca {

namespace {

/// Portable body: four independent accumulator chains over the striped
/// lanes. The chains break the serial add-latency dependency the old
/// single-accumulator loop was bound by (~4 cycles per edge on current
/// cores) and give the compiler a layout it can auto-vectorize; the
/// combine order matches the AVX2 kernel's horizontal sum exactly.
struct PortableBody {
  double operator()(const NodeId* nbr, uint64_t b, uint64_t body_end,
                    const double* x) const {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (uint64_t p = b; p < body_end; p += 4) {
      a0 += x[nbr[p]];
      a1 += x[nbr[p + 1]];
      a2 += x[nbr[p + 2]];
      a3 += x[nbr[p + 3]];
    }
    return (a0 + a2) + (a1 + a3);
  }
};

/// Weighted portable body: the same four chains with each element
/// scaled by its edge weight. Separate multiply then add per lane —
/// -ffp-contract=off keeps it from fusing, preserving bit-identity
/// with the AVX2 weighted kernel's mul_pd/add_pd sequence.
struct PortableWeightedBody {
  double operator()(const NodeId* nbr, const double* w, uint64_t b,
                    uint64_t body_end, const double* x) const {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (uint64_t p = b; p < body_end; p += 4) {
      a0 += w[p] * x[nbr[p]];
      a1 += w[p + 1] * x[nbr[p + 1]];
      a2 += w[p + 2] * x[nbr[p + 2]];
      a3 += w[p + 3] * x[nbr[p + 3]];
    }
    return (a0 + a2) + (a1 + a3);
  }
};

bool CpuHasAvx2() {
#if defined(OCA_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Dispatch state: kUnresolved until first use, then either kAuto (the
/// per-graph heuristic) or a forced CsrKernelKind value (>= 0). Relaxed
/// atomics: every transition is to a state that produces bit-identical
/// results, so a racing reader at worst runs one block on the previous
/// kernel.
constexpr int kKernelUnresolved = -2;
constexpr int kKernelAuto = -1;

int ResolveKernelFromEnv() {
  if (const char* env = std::getenv("OCA_SIMD"); env != nullptr) {
    if (std::strcmp(env, "avx2") == 0) {
      return static_cast<int>(CpuHasAvx2() ? CsrKernelKind::kAvx2
                                           : CsrKernelKind::kPortable);
    }
    if (std::strcmp(env, "portable") == 0 || std::strcmp(env, "off") == 0) {
      return static_cast<int>(CsrKernelKind::kPortable);
    }
    // "auto" (or anything unrecognized) falls through to the heuristic.
  }
  // Auto dispatches per graph on mean row length (CsrKernelFor):
  // measured on the community-graph row profile (mean degree ~20, x
  // L1-resident), four independent scalar load chains sustain
  // ~2 loads/cycle while vgatherdpd manages ~1 — 14.5us vs 18.4us on
  // the 2000-node LFR mat-vec bench — so short rows stay portable and
  // only wide rows (>= kAvx2MeanRowThreshold) take the AVX2 path.
  // Results are bit-identical either way, so the choice never affects
  // digests; OCA_SIMD / SetCsrKernel stay authoritative when set.
  return kKernelAuto;
}

std::atomic<int> g_kernel_state{kKernelUnresolved};

int KernelState() {
  int state = g_kernel_state.load(std::memory_order_relaxed);
  if (state == kKernelUnresolved) {
    state = ResolveKernelFromEnv();
    g_kernel_state.store(state, std::memory_order_relaxed);
  }
  return state;
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

void CheckMultiArgs(const Graph& graph, size_t begin, size_t end,
                    const double* x, const double* y, size_t k) {
  if (k < 1 || k > kMaxMatVecBatch) {
    internal::KernelContractViolation(
        "AdjacencyMatVecMultiRows: batch width k outside "
        "[1, kMaxMatVecBatch]");
  }
  CheckRowRange(graph, begin, end, x, y);
}

}  // namespace

namespace internal {

void KernelContractViolation(const char* what) {
  std::fprintf(stderr, "[FATAL] CSR mat-vec contract violation: %s\n", what);
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal

const char* CsrKernelName(CsrKernelKind kind) {
  switch (kind) {
    case CsrKernelKind::kAvx2:
      return "avx2";
    case CsrKernelKind::kPortable:
      break;
  }
  return "portable";
}

bool CsrKernelAvailable(CsrKernelKind kind) {
  return kind == CsrKernelKind::kPortable || CpuHasAvx2();
}

CsrKernelKind ActiveCsrKernel() {
  const int state = KernelState();
  // In auto mode, report the heuristic's short-row answer: the
  // library's default workloads (community graphs) sit well below the
  // AVX2 threshold.
  return state >= 0 ? static_cast<CsrKernelKind>(state)
                    : CsrKernelKind::kPortable;
}

bool CsrKernelIsAuto() { return KernelState() == kKernelAuto; }

CsrKernelKind SetCsrKernel(CsrKernelKind kind) {
  if (!CsrKernelAvailable(kind)) kind = CsrKernelKind::kPortable;
  g_kernel_state.store(static_cast<int>(kind), std::memory_order_relaxed);
  return kind;
}

void SetCsrKernelAuto() {
  g_kernel_state.store(kKernelAuto, std::memory_order_relaxed);
}

CsrKernelKind CsrKernelForMeanDegree(double mean_row) {
  if (mean_row >= kAvx2MeanRowThreshold && CpuHasAvx2()) {
    return CsrKernelKind::kAvx2;
  }
  return CsrKernelKind::kPortable;
}

CsrKernelKind CsrKernelFor(const Graph& graph) {
  const int state = KernelState();
  if (state >= 0) return static_cast<CsrKernelKind>(state);
  const size_t n = graph.num_nodes();
  if (n == 0) return CsrKernelKind::kPortable;
  return CsrKernelForMeanDegree(
      static_cast<double>(graph.neighbor_array().size()) /
      static_cast<double>(n));
}

void AdjacencyMatVecRows(const Graph& graph, size_t begin, size_t end,
                         const double* x, double* y) {
  CheckRowRange(graph, begin, end, x, y);
  const uint64_t* offs = graph.offsets().data();
  const NodeId* nbr = graph.neighbor_array().data();
  if (graph.is_weighted()) {
    const double* w = graph.weight_array().data();
#if defined(OCA_HAVE_AVX2)
    if (CsrKernelFor(graph) == CsrKernelKind::kAvx2) {
      internal::Avx2WeightedRows(offs, nbr, w, begin, end, x, y);
      return;
    }
#endif
    internal::CsrRowLoopW<false>(offs, nbr, w, begin, end, x, y,
                                 PortableWeightedBody{});
    return;
  }
#if defined(OCA_HAVE_AVX2)
  if (CsrKernelFor(graph) == CsrKernelKind::kAvx2) {
    internal::Avx2Rows(offs, nbr, begin, end, x, y);
    return;
  }
#endif
  internal::CsrRowLoop<false>(offs, nbr, begin, end, x, y, PortableBody{});
}

double AdjacencyMatVecRowsFused(const Graph& graph, size_t begin, size_t end,
                                const double* x, double* y) {
  CheckRowRange(graph, begin, end, x, y);
  const uint64_t* offs = graph.offsets().data();
  const NodeId* nbr = graph.neighbor_array().data();
  if (graph.is_weighted()) {
    const double* w = graph.weight_array().data();
#if defined(OCA_HAVE_AVX2)
    if (CsrKernelFor(graph) == CsrKernelKind::kAvx2) {
      return internal::Avx2WeightedRowsFused(offs, nbr, w, begin, end, x, y);
    }
#endif
    return internal::CsrRowLoopW<true>(offs, nbr, w, begin, end, x, y,
                                       PortableWeightedBody{});
  }
#if defined(OCA_HAVE_AVX2)
  if (CsrKernelFor(graph) == CsrKernelKind::kAvx2) {
    return internal::Avx2RowsFused(offs, nbr, begin, end, x, y);
  }
#endif
  return internal::CsrRowLoop<true>(offs, nbr, begin, end, x, y,
                                    PortableBody{});
}

void AdjacencyMatVecMultiRows(const Graph& graph, size_t begin, size_t end,
                              const double* x, double* y, size_t k) {
  CheckMultiArgs(graph, begin, end, x, y, k);
  if (k == 1) {  // identical layout; the single kernel is the fast path
    AdjacencyMatVecRows(graph, begin, end, x, y);
    return;
  }
  const uint64_t* offs = graph.offsets().data();
  const NodeId* nbr = graph.neighbor_array().data();
  if (graph.is_weighted()) {
    const double* w = graph.weight_array().data();
#if defined(OCA_HAVE_AVX2)
    if (CsrKernelFor(graph) == CsrKernelKind::kAvx2) {
      internal::Avx2WeightedMultiRows(offs, nbr, w, begin, end, x, y, k);
      return;
    }
#endif
    internal::PortableWeightedMultiRows(offs, nbr, w, begin, end, x, y, k);
    return;
  }
#if defined(OCA_HAVE_AVX2)
  if (CsrKernelFor(graph) == CsrKernelKind::kAvx2) {
    internal::Avx2MultiRows(offs, nbr, begin, end, x, y, k);
    return;
  }
#endif
  internal::PortableMultiRows(offs, nbr, begin, end, x, y, k);
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

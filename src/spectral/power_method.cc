#include "spectral/power_method.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "spectral/spectral_engine.h"

namespace oca {

namespace {

void CheckVectorArgs(const char* entry, const Graph& graph,
                     const std::vector<double>& x,
                     const std::vector<double>* y) {
  if (x.size() != graph.num_nodes()) {
    internal::KernelContractViolation(
        (std::string(entry) + ": x.size() != graph.num_nodes()").c_str());
  }
  if (y == nullptr) {
    internal::KernelContractViolation(
        (std::string(entry) + ": output vector is null").c_str());
  }
  if (y == &x) {
    internal::KernelContractViolation(
        (std::string(entry) + ": output must not alias x").c_str());
  }
}

}  // namespace

void AdjacencyMatVec(const Graph& graph, const std::vector<double>& x,
                     std::vector<double>* y) {
  CheckVectorArgs("AdjacencyMatVec", graph, x, y);
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

double RayleighQuotient(const Graph& graph, const std::vector<double>& x,
                        std::vector<double>* workspace) {
  CheckVectorArgs("RayleighQuotient", graph, x, workspace);
  const size_t n = graph.num_nodes();
  workspace->resize(n);
  // One fused pass per block: the numerator partials accumulate in the
  // same deterministic block order as the engine's Lanczos alpha
  // reduction (MatVecBlockRows is a pure function of n).
  const size_t block = MatVecBlockRows(n);
  double num = 0.0;
  for (size_t begin = 0; begin < n; begin += block) {
    num += AdjacencyMatVecRowsFused(graph, begin, std::min(n, begin + block),
                                    x.data(), workspace->data());
  }
  double den = 0.0;
  for (size_t i = 0; i < n; ++i) den += x[i] * x[i];
  return den > 0.0 ? num / den : 0.0;
}

double RayleighQuotient(const Graph& graph, const std::vector<double>& x) {
  std::vector<double> workspace;
  return RayleighQuotient(graph, x, &workspace);
}

Result<EigenEstimate> DominantEigenpair(const Graph& graph,
                                        const PowerMethodOptions& options) {
  // Eigenpair entry point: pm.max_iterations caps Lanczos steps as-is.
  SpectralEngine engine(EngineOptionsFrom(options, options.max_iterations));
  return engine.Dominant(graph, options);
}

}  // namespace oca

// bench_e2e: the end-to-end benchmark of the whole user path — graph
// file → mmap open → cover or recursive tree → .ocac snapshot → store
// open → answers served over a loopback socket — with a separate traced
// pass that splits the same work into per-layer numbers.
//
// Every workload runs that whole path; the workloads differ in the graph
// they start from and in where their time goes (see kWorkloads in
// main.cc and README.md). The benchmark drives only the library's public
// calls: spans and counters are recorded here, around those calls, never
// inside the library.

#ifndef OCA_BENCH_E2E_E2E_H_
#define OCA_BENCH_E2E_E2E_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "oca/oca.h"
#include "util/result.h"
#include "util/status.h"

namespace oca::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}
inline uint64_t ToNs(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

/// Median of `v`; 0 for an empty vector.
double Median(std::vector<double> v);

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

enum class WorkloadKind { kLfrFlat, kLfrWeighted, kNestedTree, kServeZipf };

struct Workload {
  WorkloadKind kind;
  const char* name;
  /// Share of the build and serving time spent on builds; the rest goes
  /// to serving.
  double build_share;
  /// Lowest acceptable ONMI of the built cover against planted truth.
  double onmi_floor;

  bool IsTree() const {
    return kind == WorkloadKind::kNestedTree || kind == WorkloadKind::kServeZipf;
  }
  bool IsWeighted() const { return kind == WorkloadKind::kLfrWeighted; }
};

std::span<const Workload> AllWorkloads();
const Workload* FindWorkload(std::string_view name);

// ---------------------------------------------------------------------
// Metric definitions: the single source BENCHMARK.json must agree with
// (the smoke test checks it field by field).
// ---------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  double bound;  // relative regression bound; end-to-end metrics only
};

std::span<const MetricDef> EndToEndMetrics();
std::span<const MetricDef> PerLayerMetrics();

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written as JSON when the run ends.
// ---------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;      // index into the span list; -1 for a root
  uint64_t request;    // request id for served requests, 0 otherwise
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// tracing is off).
  int Begin(const char* name);
  void End(int id);

  /// Appends a span measured elsewhere (a client thread's request),
  /// under `parent`.
  void Add(const char* name, uint64_t start_ns, uint64_t end_ns, int parent,
           uint64_t request);

  /// Sum over spans named `name` of their self time (duration minus the
  /// part of it covered by their children), in seconds; only spans below
  /// span `under` when it is not -1.
  double SelfSeconds(std::string_view name, int under = -1) const;
  /// Self time and duration of span `id` (0 for id -1).
  double SpanSelfSeconds(int id) const;
  double WallSeconds(int id) const;

  Status WriteJson(const std::string& path) const;

 private:
  std::vector<double> SelfTimes() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled trace.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name)
      : trace_(trace), id_(trace->Begin(name)) {}
  ~ScopedSpan() { trace_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Trace* trace_;
  int id_;
};

// ---------------------------------------------------------------------
// What one run reports.
// ---------------------------------------------------------------------

struct HostContext {
  int nproc = 0;
  std::string cpu_model;
  std::string csr_kernel;       // kernel the measured graph dispatches to
  bool csr_kernel_auto = false;
  std::string build_type;
  std::string sanitizer;
  std::string commit;
  uint64_t seed = 0;
};

HostContext CollectHost(const std::string& commit, uint64_t seed);
/// Empty when the library build is fit to report numbers from.
std::string UnfitBuildReason(const HostContext& host);

class Report {
 public:
  /// Records a metric; its unit comes from its MetricDef on output.
  void Set(const std::string& name, double value);
  /// Records a timing's sample count, min and max (printed and kept in
  /// the result file, not in the result line).
  void Samples(const std::string& name, size_t count, double min, double max);

  /// Counts one attempted operation or check; a false `ok` is a failure
  /// and is printed with `what`.
  void Attempt(bool ok, const std::string& what);
  void Attempts(uint64_t attempted, uint64_t failed, const std::string& what);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

  /// The one-line result object: correct, attempted, failed and the
  /// metrics listed in `defs`.
  std::string ResultLine(std::span<const MetricDef> defs) const;
  /// Human-readable `name value unit` lines for `defs` plus samples.
  std::string HumanLines(std::span<const MetricDef> defs) const;
  /// The full result file: the result line's fields plus host context.
  std::string ResultFile(std::span<const MetricDef> defs,
                         const HostContext& host, const std::string& workload,
                         bool trace) const;

 private:
  struct SampleSummary {
    size_t count = 0;
    double min = 0.0;
    double max = 0.0;
  };
  std::map<std::string, double> metrics_;
  std::map<std::string, SampleSummary> samples_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// Phases: builds (build_phase.cc) and serving (serve_phase.cc). An
// untraced run interleaves them in rounds (RunWorkload, main.cc).
// ---------------------------------------------------------------------

struct RunArgs {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string data_dir;       // where `gen` wrote the inputs
  std::string out_dir;        // result and trace files; empty = none
  std::string commit = "unknown";
};

/// Generates the workload's inputs from the seed into `dir`: a graph file
/// and its planted truth per input.
Status GenerateInputs(const Workload& workload, uint64_t seed, bool toy,
                      const std::string& dir);

/// One build of the user path: graph → cover or tree → .ocac written.
/// A flat cover is wrapped as a depth-0 tree, so both shapes share the
/// writer, the store and the checks.
struct Built {
  RecursiveHierarchy tree;
  uint64_t digest = 0;
  uint64_t bytes = 0;
  double build_s = 0.0;  // the cover or tree
  double write_s = 0.0;  // the .ocac
  double total_s = 0.0;
};

/// A workload's inputs, opened, and the builds made from them. A traced
/// run uses input 0 only.
class Builds {
 public:
  /// Opens the inputs `gen` wrote to args.data_dir: every graph, with
  /// full validation, and its planted truth.
  static Result<Builds> Open(const RunArgs& args);

  /// Opens every input graph again with full validation, as a process
  /// that builds from the files must; returns the seconds it took.
  Result<double> Reopen();

  /// Builds every input once. Every round must reproduce the first
  /// round's digests. Returns the mean seconds per input.
  Result<double> Round(Report* report);

  /// The traced builds: untraced builds alternating with traced replays
  /// of the same work, within `budget_s`; reports the build layers.
  bool Traced(double budget_s, Trace* trace, Report* report);

  /// The output checks on the last build of every input; sets onmi.
  void Check(Report* report) const;

  const Graph& graph(size_t input) const { return graphs_[input]; }
  /// The snapshot of input 0, the one served.
  std::string store_path() const;

 private:
  explicit Builds(const RunArgs& args) : args_(&args) {}

  const RunArgs* args_;
  std::vector<Graph> graphs_;
  std::vector<Cover> truths_;
  std::vector<Built> last_;
  std::vector<uint64_t> digests_;  // of the first round
};

/// Serving one snapshot on loopback: a StoreServer with its reader
/// threads, client connections, and a request stream drawn from the seed.
class Serving {
 public:
  /// A closed-loop and an open-loop measurement on one server.
  struct Slice {
    double qps = 0.0;     // closed-loop capacity
    double p50_us = 0.0;  // open-loop median latency
  };

  /// Opens the snapshot at `store_path` once to draw the request stream
  /// and the responses the served ones are checked against. The file may
  /// be rewritten between slices, but only with the same contents.
  static Result<Serving> Make(const std::string& store_path, uint64_t seed);
  Serving(Serving&&) noexcept;
  Serving& operator=(Serving&&) noexcept;
  ~Serving();

  /// Serving set-up as a client sees it: snapshot open, server start,
  /// every connection made and PINGed. Any earlier server is shut down
  /// first, outside the timing. Returns the seconds it took.
  Result<double> Setup();

  /// On the server Setup started: a closed loop, then an open loop at
  /// the fixed rate, each after a warm-up, `seconds` in all; then shuts
  /// the server down, so that the snapshot file is free to rewrite.
  Result<Slice> Measure(double seconds, Report* report);

  /// Prints the open-loop p99 over every Measure so far against the
  /// latency limit.
  void PrintOpenTail() const;

  /// The traced serving pass within `budget_s`: store and protocol
  /// replays of the stream, traced loops, the serving layers.
  bool Traced(double budget_s, double build_share, Trace* trace,
              Report* report);

 private:
  struct State;
  explicit Serving(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

/// One whole run; fills `report`. False when it could not finish.
bool RunWorkload(const RunArgs& args, HostContext* host, Report* report);

/// One workload x end-to-end metric row of `bench_e2e compare`.
struct ComparisonRow {
  std::string workload;
  std::string metric;
  std::vector<double> a;  // quartiles of the parent's runs (q1, median, q3)
  std::vector<double> b;  // quartiles of the change's runs
  size_t wins = 0;        // pairs in which the change read better
  size_t pairs = 0;
  double change = 0.0;    // relative change of the median; > 0 is better
  std::string verdict;    // better, worse, unresolved or same
};

struct Comparison {
  std::vector<ComparisonRow> rows;
  std::vector<std::string> short_of_pairs;  // workloads not compared
};

/// Pairs the untraced result files of a parent (A_DIR) and a change
/// (B_DIR) run by run and judges every workload x end-to-end metric.
Result<Comparison> CompareRuns(const std::string& a_dir,
                               const std::string& b_dir);
/// `bench_e2e compare A_DIR B_DIR`: prints CompareRuns as a table.
int Compare(const std::string& a_dir, const std::string& b_dir);

}  // namespace oca::e2e

#endif  // OCA_BENCH_E2E_E2E_H_

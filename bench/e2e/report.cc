// Metric tables, tracing, host context and result formatting.

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "e2e.h"
#include "json.h"
#include "spectral/csr_matvec.h"

namespace oca::e2e {

namespace {

// End-to-end metrics, as a user of the system sees them. Bounds are
// relative to the parent commit's median; README.md gives the measured
// run-to-run spread each was sized against.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", false, 0.25},
    {"build_s", "s", false, 0.25},
    {"onmi", "ratio", true, 0.05},
    {"peak_rss_mb", "MB", false, 0.10},
    {"served_qps", "req/s", true, 0.25},
    {"open_p50_us", "us", false, 0.25},
};

// Per-layer metrics from the traced run. metrics.json names the
// end-to-end metric and workloads each one should move.
constexpr MetricDef kPerLayer[] = {
    {"graph.open_s", "s", false, 0},
    {"graph.open_mb_per_s", "MB/s", true, 0},
    {"graph.subgraph_s", "s", false, 0},
    {"graph.subgraph_calls", "count", false, 0},
    {"spectral.solve_s", "s", false, 0},
    {"spectral.lanczos_steps", "count", false, 0},
    {"spectral.matvec_gb_computed", "GB", false, 0},
    {"spectral.gb_per_s_computed", "GB/s", true, 0},
    {"spectral.tree_steps", "count", false, 0},
    {"spectral.tree_warm_hit_rate", "ratio", true, 0},
    {"spectral.subgraph_cold_steps", "count", false, 0},
    {"spectral.subgraph_solve_s", "s", false, 0},
    {"seeding.s", "s", false, 0},
    {"seeding.seeds", "count", false, 0},
    {"climb.s", "s", false, 0},
    {"climb.calls", "count", false, 0},
    {"climb.steps", "count", false, 0},
    {"climb.adds", "count", false, 0},
    {"climb.removes", "count", false, 0},
    {"climb.us_per_seed", "us", false, 0},
    {"climb.useful_ratio", "ratio", true, 0},
    {"climb.tree_busy_s", "s", false, 0},
    {"merge.s", "s", false, 0},
    {"merge.rounds", "count", false, 0},
    {"merge.merges", "count", false, 0},
    {"merge.in_communities", "count", false, 0},
    {"hierarchy.build_s", "s", false, 0},
    {"hierarchy.nodes", "count", false, 0},
    {"hierarchy.max_depth", "count", false, 0},
    {"hierarchy.max_concurrent", "count", true, 0},
    {"store_io.write_s", "s", false, 0},
    {"store_io.bytes", "bytes", false, 0},
    {"store.open_s", "s", false, 0},
    {"store.ns_per_query", "ns", false, 0},
    {"protocol.ns_per_query", "ns", false, 0},
    {"protocol.bytes_per_response", "bytes", false, 0},
    {"wire.rtt_p50_us", "us", false, 0},
    {"wire.overhead_us", "us", false, 0},
    {"server.requests", "count", true, 0},
    {"server.errors", "count", false, 0},
    {"server.timeouts", "count", false, 0},
    {"server.connections", "count", false, 0},
    {"loadgen.lag_p99_us", "us", false, 0},
    {"loadgen.p999_us", "us", false, 0},
    {"trace.overhead_frac", "ratio", false, 0},
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::span<const MetricDef> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricDef> PerLayerMetrics() { return kPerLayer; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// --- Trace -------------------------------------------------------------

int Trace::Begin(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, ToNs(Clock::now()), 0, open_.empty() ? -1 : open_.back(), 0});
  open_.push_back(id);
  return id;
}

void Trace::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = ToNs(Clock::now());
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything opened after it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Trace::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                int parent, uint64_t request) {
  if (!enabled_) return;
  spans_.push_back({name, start_ns, end_ns, parent, request});
}

std::vector<double> Trace::SelfTimes() const {
  // Children of one parent may overlap (concurrent requests), so the
  // covered part is the union of their intervals, not the sum.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t run_start = 0;
    uint64_t run_end = 0;
    bool in_run = false;
    for (const auto& [start, end] : kids) {
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    const double wall =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    self[i] = (wall - static_cast<double>(covered)) * 1e-9;
  }
  return self;
}

double Trace::SelfSeconds(std::string_view name, int under) const {
  const std::vector<double> self = SelfTimes();
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    int p = spans_[i].parent;
    while (under >= 0 && p >= 0 && p != under) p = spans_[p].parent;
    if (under < 0 || p == under) total += self[i];
  }
  return total;
}

double Trace::SpanSelfSeconds(int id) const {
  return id < 0 ? 0.0 : SelfTimes()[id];
}

double Trace::WallSeconds(int id) const {
  if (id < 0) return 0.0;
  return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
}

Status Trace::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  const std::vector<double> self = SelfTimes();
  std::map<std::string, double> self_by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_by_name[spans_[i].name] += self[i];
  }
  out << "{\"self_s\": {";
  bool first = true;
  for (const auto& [name, seconds] : self_by_name) {
    out << (first ? "" : ", ") << JsonQuote(name) << ": " << JsonNumber(seconds);
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": " << JsonQuote(s.name) << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

// --- Host context --------------------------------------------------------

HostContext CollectHost(const std::string& commit, uint64_t seed) {
  HostContext host;
  cpu_set_t set;
  CPU_ZERO(&set);
  host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  host.cpu_model = CpuModel();
  host.csr_kernel = CsrKernelName(ActiveCsrKernel());
  host.csr_kernel_auto = CsrKernelIsAuto();
  host.build_type = OCA_E2E_BUILD_TYPE;
  host.sanitizer = OCA_E2E_SANITIZE;
  host.commit = commit;
  host.seed = seed;
  return host;
}

std::string UnfitBuildReason(const HostContext& host) {
  if (host.build_type != "Release") {
    return "library built as '" + host.build_type + "', not Release";
  }
  if (!host.sanitizer.empty()) {
    return "library built with sanitizer '" + host.sanitizer + "'";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#else
  return "";
#endif
}

// --- Report --------------------------------------------------------------

void Report::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::Samples(const std::string& name, size_t count, double min,
                     double max) {
  samples_[name] = {count, min, max};
}

void Report::Attempt(bool ok, const std::string& what) {
  Attempts(1, ok ? 0 : 1, what);
}

void Report::Attempts(uint64_t attempted, uint64_t failed,
                      const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "check failed: %s (%" PRIu64 " of %" PRIu64 ")\n",
                 what.c_str(), failed, attempted);
  }
}

namespace {

std::string MetricsObject(const std::map<std::string, double>& metrics,
                          std::span<const MetricDef> defs) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = metrics.find(d.name);
    if (it == metrics.end()) continue;
    out += first ? "" : ", ";
    out += JsonQuote(d.name) + ": {\"value\": " + JsonNumber(it->second) +
           ", \"unit\": " + JsonQuote(d.unit) + "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

std::string Report::ResultLine(std::span<const MetricDef> defs) const {
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"metrics\": " + MetricsObject(metrics_, defs) + "}";
}

std::string Report::HumanLines(std::span<const MetricDef> defs) const {
  std::ostringstream out;
  char buf[256];
  for (const MetricDef& d : defs) {
    auto it = metrics_.find(d.name);
    if (it == metrics_.end()) continue;
    std::snprintf(buf, sizeof(buf), "%-30s %16.6g %s\n", d.name, it->second,
                  d.unit);
    out << buf;
    auto s = samples_.find(d.name);
    if (s != samples_.end()) {
      std::snprintf(buf, sizeof(buf),
                    "%-30s %16zu samples, min %.6g, max %.6g %s\n", "",
                    s->second.count, s->second.min, s->second.max, d.unit);
      out << buf;
    }
  }
  const double failed_frac =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::snprintf(buf, sizeof(buf),
                "%-30s %16.6g ratio (%" PRIu64 " failed of %" PRIu64 ")\n",
                "failed_frac", failed_frac, failed_, attempted_);
  out << buf;
  return out.str();
}

std::string Report::ResultFile(std::span<const MetricDef> defs,
                               const HostContext& host,
                               const std::string& workload, bool trace) const {
  std::ostringstream out;
  out << "{\"workload\": " << JsonQuote(workload)
      << ", \"seed\": " << host.seed << ", \"trace\": " << (trace ? 1 : 0)
      << ",\n \"host\": {\"nproc\": " << host.nproc
      << ", \"cpu_model\": " << JsonQuote(host.cpu_model)
      << ", \"csr_kernel\": " << JsonQuote(host.csr_kernel)
      << ", \"csr_kernel_auto\": " << (host.csr_kernel_auto ? "true" : "false")
      << ", \"library_build_type\": " << JsonQuote(host.build_type)
      << ", \"sanitizer\": " << JsonQuote(host.sanitizer)
      << ", \"commit\": " << JsonQuote(host.commit) << "},\n"
      << " \"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ",\n \"metrics\": " << MetricsObject(metrics_, defs)
      << ",\n \"samples\": {";
  bool first = true;
  for (const auto& [name, s] : samples_) {
    out << (first ? "" : ", ") << JsonQuote(name) << ": {\"count\": " << s.count
        << ", \"min\": " << JsonNumber(s.min)
        << ", \"max\": " << JsonNumber(s.max) << "}";
    first = false;
  }
  out << "}}\n";
  return out.str();
}

}  // namespace oca::e2e

// `bench_e2e compare A_DIR B_DIR`: judges a change (B) against its
// parent (A) from untraced result files, one row per workload and
// end-to-end metric.
//
// The k-th run of A and the k-th run of B of one workload form a pair;
// run them alternately (A first in odd pairs, B first in even ones) so
// that drift in the machine lands on both sides. Verdicts:
//   better      B wins at least 9 of every 10 pairs (ties count for
//               neither) and the medians differ by more than A's own
//               quartile spread;
//   unresolved  A's spread (IQR / median) is wider than the metric's
//               bound, unless every run of B reads better than every
//               run of A;
//   worse       B's median is worse than A's by more than the bound;
//   same        none of the above.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "e2e.h"
#include "json.h"

namespace oca::e2e {

namespace {

constexpr size_t kMinPairs = 10;

/// Untraced runs of each workload, in run order: metric name → value.
using Runs = std::map<std::string, std::vector<std::map<std::string, double>>>;

Result<Runs> LoadRuns(const std::string& dir) {
  std::map<std::string, std::map<int, std::map<std::string, double>>> ordered;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("result_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    OCA_ASSIGN_OR_RETURN(JsonValue run, ReadJsonFile(entry.path().string()));
    const JsonValue* workload = run.Find("workload");
    const JsonValue* trace = run.Find("trace");
    const JsonValue* metrics = run.Find("metrics");
    if (!workload || !trace || !metrics) {
      return Status::InvalidArgument(file + ": not a bench_e2e result file");
    }
    if (trace->number != 0) continue;
    // result_<workload>_t0_<k>.json
    const size_t underscore = file.rfind('_');
    const int k = std::atoi(file.c_str() + underscore + 1);
    auto& values = ordered[workload->string][k];
    for (const auto& [name, m] : metrics->object) {
      if (const JsonValue* v = m.Find("value")) values[name] = v->number;
    }
  }
  if (ec) return Status::IOError("cannot list " + dir + ": " + ec.message());
  Runs runs;
  for (auto& [workload, by_k] : ordered) {
    for (auto& [k, values] : by_k) runs[workload].push_back(std::move(values));
  }
  return runs;
}

/// Python's statistics.quantiles(values, n=4) ("exclusive" method).
std::vector<double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t ld = v.size();
  if (ld < 2) return {v.empty() ? 0.0 : v[0], v.empty() ? 0.0 : v[0],
                      v.empty() ? 0.0 : v[0]};
  std::vector<double> q;
  const size_t m = ld + 1;
  for (size_t i = 1; i < 4; ++i) {
    size_t j = std::clamp<size_t>(i * m / 4, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q.push_back((v[j - 1] * (4 - delta) + v[j] * delta) / 4);
  }
  return q;
}

}  // namespace

Result<Comparison> CompareRuns(const std::string& a_dir,
                               const std::string& b_dir) {
  OCA_ASSIGN_OR_RETURN(Runs a, LoadRuns(a_dir));
  OCA_ASSIGN_OR_RETURN(Runs b, LoadRuns(b_dir));
  Comparison out;
  for (const Workload& w : AllWorkloads()) {
    const auto& ra = a[w.name];
    const auto& rb = b[w.name];
    const size_t pairs = std::min(ra.size(), rb.size());
    if (pairs < kMinPairs) {
      out.short_of_pairs.push_back(std::string(w.name) + " has " +
                                   std::to_string(pairs) + " pairs");
      continue;
    }
    for (const MetricDef& d : EndToEndMetrics()) {
      std::vector<double> va, vb;
      for (size_t i = 0; i < pairs; ++i) {
        auto ia = ra[i].find(d.name);
        auto ib = rb[i].find(d.name);
        if (ia == ra[i].end() || ib == rb[i].end()) continue;
        va.push_back(ia->second);
        vb.push_back(ib->second);
      }
      if (va.empty()) continue;
      ComparisonRow row;
      row.workload = w.name;
      row.metric = d.name;
      row.pairs = va.size();
      // Orient every comparison so that a positive `change` means B is
      // better.
      const double sign = d.higher_is_better ? 1.0 : -1.0;
      for (size_t i = 0; i < va.size(); ++i) {
        if (sign * (vb[i] - va[i]) > 0) ++row.wins;
      }
      row.a = Quartiles(va);
      row.b = Quartiles(vb);
      const double med_a = row.a[1];
      const double med_b = row.b[1];
      const double iqr_a = row.a[2] - row.a[0];
      const double spread_a = med_a != 0 ? iqr_a / std::abs(med_a) : 0;
      row.change = med_a != 0 ? sign * (med_b - med_a) / std::abs(med_a) : 0;
      const bool all_better =
          d.higher_is_better
              ? *std::min_element(vb.begin(), vb.end()) >
                    *std::max_element(va.begin(), va.end())
              : *std::max_element(vb.begin(), vb.end()) <
                    *std::min_element(va.begin(), va.end());
      if (row.wins * 10 >= row.pairs * 9 && std::abs(med_b - med_a) > iqr_a) {
        row.verdict = "better";
      } else if (spread_a > d.bound && !all_better) {
        row.verdict = "unresolved";
      } else if (-row.change > d.bound) {
        row.verdict = "worse";
      } else {
        row.verdict = "same";
      }
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

int Compare(const std::string& a_dir, const std::string& b_dir) {
  auto comparison = CompareRuns(a_dir, b_dir);
  if (!comparison.ok()) {
    std::fprintf(stderr, "error: %s\n", comparison.status().ToString().c_str());
    return 2;
  }
  std::printf("%-13s %-12s %12s %25s %12s %25s %7s %8s  %s\n", "workload",
              "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]",
              "B wins", "change", "verdict");
  bool any_worse = false;
  for (const ComparisonRow& r : comparison->rows) {
    char range_a[64], range_b[64];
    std::snprintf(range_a, sizeof(range_a), "[%.6g, %.6g]", r.a[0], r.a[2]);
    std::snprintf(range_b, sizeof(range_b), "[%.6g, %.6g]", r.b[0], r.b[2]);
    std::printf("%-13s %-12s %12.6g %25s %12.6g %25s %3zu/%-3zu %+7.2f%%  %s\n",
                r.workload.c_str(), r.metric.c_str(), r.a[1], range_a, r.b[1],
                range_b, r.wins, r.pairs, 100.0 * r.change, r.verdict.c_str());
    any_worse = any_worse || r.verdict == "worse";
  }
  for (const std::string& s : comparison->short_of_pairs) {
    std::printf("not compared: %s (need >= %zu)\n", s.c_str(), kMinPairs);
  }
  if (!comparison->short_of_pairs.empty()) return 2;
  return any_worse ? 1 : 0;
}

}  // namespace oca::e2e

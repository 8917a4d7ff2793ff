// bench_e2e command line: gen, run, compare and smoke.
//
//   bench_e2e gen --workload W --seed N --dir D
//   bench_e2e run --workload W --seed N --data D [--seconds S] [--trace 0|1]
//                 [--out DIR] [--commit C]
//   bench_e2e compare A_DIR B_DIR
//   bench_e2e smoke --benchmark-json PATH --metrics-json PATH --dir D
//
// `gen` runs in its own process so that input generation stays out of
// the run's time and memory figures. bench/e2e/run.sh drives all of it.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>

#include "e2e.h"
#include "json.h"
#include "spectral/csr_matvec.h"

namespace oca::e2e {

namespace {

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {WorkloadKind::kLfrFlat, "lfr_flat", 0.8, 0.7},
    {WorkloadKind::kLfrWeighted, "lfr_weighted", 0.8, 0.7},
    {WorkloadKind::kNestedTree, "nested_tree", 0.6, 0.9},
    {WorkloadKind::kServeZipf, "serve_zipf", 0.15, 0.9},
};

// An untraced run is a sequence of rounds. A round builds every input
// once, then sets up serving and serves a slice of the load, one or more
// times. Every end-to-end metric is the median of its samples over the
// run: the host's speed drifts over tens of seconds, and samples spread
// over the whole run carry less of that drift than a measurement made in
// one window of it.
constexpr size_t kMinRounds = 3;
constexpr size_t kMaxRounds = 200;
constexpr double kServeSamples = 15;  // set-ups and slices a run aims at

constexpr char kUsage[] =
    "usage:\n"
    "  bench_e2e gen --workload W --seed N --dir D\n"
    "  bench_e2e run --workload W --seed N --data D [--seconds S] "
    "[--trace 0|1] [--out DIR] [--commit C]\n"
    "  bench_e2e compare A_DIR B_DIR\n"
    "  bench_e2e smoke --benchmark-json PATH --metrics-json PATH --dir D\n"
    "workloads: lfr_flat lfr_weighted nested_tree serve_zipf\n";

using Flags = std::map<std::string, std::string>;

/// `--name value` or `--name=value`; every name must be in `allowed`
/// and given once, and no positional argument is accepted.
Result<Flags> ParseFlags(const std::vector<std::string>& args,
                         const std::set<std::string>& allowed) {
  Flags flags;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string value;
    if (const size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return Status::InvalidArgument("flag --" + name + " needs a value");
    }
    if (allowed.count(name) == 0) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (!flags.emplace(name, value).second) {
      return Status::InvalidArgument("flag --" + name + " given twice");
    }
  }
  return flags;
}

Result<uint64_t> ParseUint(const std::string& name, const std::string& text) {
  uint64_t value = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || text.empty()) {
    return Status::InvalidArgument("--" + name + " wants a whole number, got '" +
                                   text + "'");
  }
  return value;
}

Result<const Workload*> ParseWorkload(const Flags& flags) {
  auto it = flags.find("workload");
  if (it == flags.end()) return Status::InvalidArgument("--workload is required");
  const Workload* w = FindWorkload(it->second);
  if (w == nullptr) {
    return Status::InvalidArgument("unknown workload '" + it->second + "'");
  }
  return w;
}

std::string Get(const Flags& flags, const std::string& name,
                const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

Result<RunArgs> ParseRunArgs(const std::vector<std::string>& args) {
  OCA_ASSIGN_OR_RETURN(
      Flags flags, ParseFlags(args, {"workload", "seed", "data", "seconds",
                                     "trace", "out", "commit"}));
  RunArgs run;
  OCA_ASSIGN_OR_RETURN(run.workload, ParseWorkload(flags));
  OCA_ASSIGN_OR_RETURN(run.seed, ParseUint("seed", Get(flags, "seed", "1")));
  OCA_ASSIGN_OR_RETURN(uint64_t seconds,
                       ParseUint("seconds", Get(flags, "seconds", "25")));
  if (seconds < 1 || seconds > 600) {
    return Status::InvalidArgument("--seconds must be in [1, 600]");
  }
  run.seconds = static_cast<double>(seconds);
  const std::string trace = Get(flags, "trace", "0");
  if (trace != "0" && trace != "1") {
    return Status::InvalidArgument("--trace must be 0 or 1");
  }
  run.trace = trace == "1";
  run.data_dir = Get(flags, "data", "");
  if (run.data_dir.empty()) return Status::InvalidArgument("--data is required");
  run.out_dir = Get(flags, "out", "");
  run.commit = Get(flags, "commit", "unknown");
  return run;
}

std::span<const MetricDef> DefsFor(bool trace) {
  return trace ? PerLayerMetrics() : EndToEndMetrics();
}

/// result_<workload>_t<trace>_<k>.json with the first unused k, so that
/// repeated runs into one directory keep every result in run order.
std::string NextResultPath(const std::string& dir, const RunArgs& args) {
  for (int k = 1;; ++k) {
    std::string path = dir + "/result_" + args.workload->name + "_t" +
                       (args.trace ? "1" : "0") + "_" + std::to_string(k) +
                       ".json";
    if (!std::filesystem::exists(path)) return path;
  }
}

int Gen(const std::vector<std::string>& args) {
  auto flags = ParseFlags(args, {"workload", "seed", "dir"});
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n%s", flags.status().message().c_str(), kUsage);
    return 2;
  }
  auto workload = ParseWorkload(flags.value());
  auto seed = ParseUint("seed", Get(flags.value(), "seed", "1"));
  const std::string dir = Get(flags.value(), "dir", "");
  if (!workload.ok() || !seed.ok() || dir.empty()) {
    std::fprintf(stderr, "error: %s\n%s",
                 !workload.ok() ? workload.status().message().c_str()
                 : !seed.ok()   ? seed.status().message().c_str()
                                : "--dir is required",
                 kUsage);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  Status status = GenerateInputs(*workload.value(), seed.value(), false, dir);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

int Run(const std::vector<std::string>& args) {
  auto parsed = ParseRunArgs(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n%s", parsed.status().message().c_str(), kUsage);
    return 2;
  }
  const RunArgs& run = parsed.value();
  HostContext host = CollectHost(run.commit, run.seed);
  if (std::string reason = UnfitBuildReason(host); !reason.empty()) {
    std::fprintf(stderr, "error: refusing to report numbers: %s\n",
                 reason.c_str());
    return 3;
  }
  std::printf("workload %s, seed %" PRIu64 ", %s run, %.0f s\n",
              run.workload->name, run.seed, run.trace ? "traced" : "untraced",
              run.seconds);
  Report report;
  const bool finished = RunWorkload(run, &host, &report);
  const auto defs = DefsFor(run.trace);
  std::printf("host: nproc %d, cpu '%s', csr kernel %s (%s), library %s%s%s, "
              "commit %s\n",
              host.nproc, host.cpu_model.c_str(), host.csr_kernel.c_str(),
              host.csr_kernel_auto ? "auto" : "forced", host.build_type.c_str(),
              host.sanitizer.empty() ? "" : " + ", host.sanitizer.c_str(),
              host.commit.c_str());
  std::fputs(report.HumanLines(defs).c_str(), stdout);
  if (!run.out_dir.empty()) {
    const std::string path = NextResultPath(run.out_dir, run);
    std::ofstream out(path, std::ios::trunc);
    out << report.ResultFile(defs, host, run.workload->name, run.trace);
    if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  std::printf("%s\n", report.ResultLine(defs).c_str());
  std::fflush(stdout);
  return finished && report.correct() ? 0 : 1;
}

// --- smoke -------------------------------------------------------------------

class SmokeChecks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures_;
      std::fprintf(stderr, "smoke: FAILED %s\n", what.c_str());
    }
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

void CheckMetricList(const JsonValue* list, std::span<const MetricDef> defs,
                     bool with_bound, const char* key, SmokeChecks* checks) {
  checks->Expect(list != nullptr && list->type == JsonValue::Type::kArray &&
                     list->array.size() == defs.size(),
                 std::string("BENCHMARK.json lists every ") + key + " metric");
  if (list == nullptr || list->array.size() != defs.size()) return;
  for (size_t i = 0; i < defs.size(); ++i) {
    const JsonValue& m = list->array[i];
    const JsonValue* name = m.Find("name");
    const JsonValue* unit = m.Find("unit");
    const JsonValue* better = m.Find("better");
    const JsonValue* bound = m.Find("bound");
    checks->Expect(
        name && name->string == defs[i].name && unit &&
            unit->string == defs[i].unit && better &&
            better->string == (defs[i].higher_is_better ? "higher" : "lower") &&
            (with_bound ? bound && std::abs(bound->number - defs[i].bound) < 1e-12
                        : bound == nullptr) &&
            m.object.size() == (with_bound ? 4u : 3u),
        std::string("BENCHMARK.json ") + key + " entry " + std::to_string(i) +
            " matches " + defs[i].name);
  }
}

bool IsStringList(const JsonValue* v) {
  if (v == nullptr || v->type != JsonValue::Type::kArray) return false;
  return std::all_of(v->array.begin(), v->array.end(), [](const JsonValue& e) {
    return e.type == JsonValue::Type::kString && !e.string.empty();
  });
}

/// metrics.json holds what BENCHMARK.json has no keys for: which
/// end-to-end metric each per-layer metric should move and on which
/// workloads, and why figures were dropped from or lengthened among the
/// end-to-end metrics.
void CheckMetricsNotes(const JsonValue& notes, SmokeChecks* checks) {
  std::set<std::string> end_to_end;
  for (const MetricDef& d : EndToEndMetrics()) end_to_end.insert(d.name);
  std::set<std::string> workloads;
  for (const Workload& w : AllWorkloads()) workloads.insert(w.name);

  std::set<std::string> dropped;
  const JsonValue* drops = notes.Find("dropped");
  checks->Expect(drops && drops->type == JsonValue::Type::kArray,
                 "metrics.json lists dropped figures");
  for (size_t i = 0; drops && i < drops->array.size(); ++i) {
    const JsonValue* name = drops->array[i].Find("name");
    const JsonValue* reason = drops->array[i].Find("reason");
    checks->Expect(name && !name->string.empty() &&
                       end_to_end.count(name->string) == 0 && reason &&
                       !reason->string.empty(),
                   "metrics.json dropped entry " + std::to_string(i) +
                       " names a figure outside end_to_end, with a reason");
    if (name) dropped.insert(name->string);
  }
  const JsonValue* lengthened = notes.Find("lengthened");
  checks->Expect(lengthened && lengthened->type == JsonValue::Type::kArray,
                 "metrics.json lists lengthened metrics");
  for (size_t i = 0; lengthened && i < lengthened->array.size(); ++i) {
    const JsonValue* name = lengthened->array[i].Find("name");
    const JsonValue* reason = lengthened->array[i].Find("reason");
    checks->Expect(name && end_to_end.count(name->string) == 1 && reason &&
                       !reason->string.empty(),
                   "metrics.json lengthened entry " + std::to_string(i) +
                       " names an end-to-end metric, with a reason");
  }

  const JsonValue* layers = notes.Find("per_layer");
  const auto defs = PerLayerMetrics();
  checks->Expect(layers && layers->type == JsonValue::Type::kArray &&
                     layers->array.size() == defs.size(),
                 "metrics.json maps every per-layer metric");
  if (!layers || layers->array.size() != defs.size()) return;
  for (size_t i = 0; i < defs.size(); ++i) {
    const JsonValue& m = layers->array[i];
    const JsonValue* name = m.Find("name");
    const JsonValue* moves = m.Find("moves");
    const JsonValue* on = m.Find("on");
    bool ok = name && name->string == defs[i].name && IsStringList(moves) &&
              IsStringList(on) && !on->array.empty();
    for (size_t k = 0; ok && k < moves->array.size(); ++k) {
      const std::string& target = moves->array[k].string;
      ok = end_to_end.count(target) == 1 || dropped.count(target) == 1;
    }
    for (size_t k = 0; ok && k < on->array.size(); ++k) {
      ok = workloads.count(on->array[k].string) == 1;
    }
    checks->Expect(ok, "metrics.json per_layer entry " + std::to_string(i) +
                           " maps " + defs[i].name +
                           " to end-to-end metrics and workloads");
  }
}

int Smoke(const std::vector<std::string>& args) {
  auto flags = ParseFlags(args, {"benchmark-json", "metrics-json", "dir"});
  if (!flags.ok() || Get(flags.value(), "benchmark-json", "").empty() ||
      Get(flags.value(), "metrics-json", "").empty() ||
      Get(flags.value(), "dir", "").empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string dir = Get(flags.value(), "dir", "");
  SmokeChecks checks;

  // BENCHMARK.json agrees with the tables the binary reports from.
  auto bench = ReadJsonFile(Get(flags.value(), "benchmark-json", ""));
  checks.Expect(bench.ok(), "BENCHMARK.json parses");
  if (bench.ok()) {
    const JsonValue* workloads = bench->Find("workloads");
    checks.Expect(workloads != nullptr &&
                      workloads->array.size() == AllWorkloads().size(),
                  "BENCHMARK.json lists every workload");
    for (size_t i = 0; workloads && i < workloads->array.size() &&
                       i < AllWorkloads().size();
         ++i) {
      const JsonValue* name = workloads->array[i].Find("name");
      checks.Expect(name && name->string == AllWorkloads()[i].name,
                    "workload " + std::to_string(i) + " is " +
                        AllWorkloads()[i].name);
    }
    CheckMetricList(bench->Find("end_to_end"), EndToEndMetrics(), true,
                    "end_to_end", &checks);
    CheckMetricList(bench->Find("per_layer"), PerLayerMetrics(), false,
                    "per_layer", &checks);
  }
  auto notes = ReadJsonFile(Get(flags.value(), "metrics-json", ""));
  checks.Expect(notes.ok(), "metrics.json parses");
  if (notes.ok()) CheckMetricsNotes(notes.value(), &checks);

  // Bad command lines are refused, not mapped to a default.
  const std::vector<std::vector<std::string>> bad = {
      {"--workload", "nope", "--data", "d"},
      {"--workload", "lfr_flat", "--data", "d", "--bogus", "1"},
      {"--workload", "lfr_flat", "--data", "d", "--seconds", "abc"},
      {"--workload", "lfr_flat", "--data", "d", "--trace", "2"},
      {"--workload", "lfr_flat", "--data", "d", "--seed", "-1"},
      {"--workload", "lfr_flat", "--data", "d", "stray"},
      {"--workload", "lfr_flat"},
  };
  for (const auto& b : bad) {
    checks.Expect(!ParseRunArgs(b).ok(), "rejects '" + b.back() + "'");
  }
  checks.Expect(ParseRunArgs({"--workload=serve_zipf", "--data", "d"}).ok(),
                "accepts a well-formed command line");

  // Every workload end to end at toy size: every metric printed, every
  // check passed.
  for (const Workload& w : AllWorkloads()) {
    const std::string data = dir + "/" + w.name;
    std::error_code ec;
    std::filesystem::create_directories(data, ec);
    const Status gen = GenerateInputs(w, 1, true, data);
    checks.Expect(gen.ok(), std::string(w.name) + " inputs generate");
    if (!gen.ok()) continue;
    for (bool trace : {false, true}) {
      RunArgs run;
      run.workload = &w;
      run.seconds = 0.25;
      run.trace = trace;
      run.data_dir = data;
      run.out_dir = data;
      HostContext host = CollectHost("smoke", 1);
      Report report;
      const std::string label =
          std::string(w.name) + (trace ? " traced" : " untraced");
      checks.Expect(RunWorkload(run, &host, &report), label + " run finishes");
      checks.Expect(report.correct(), label + " passes every check");
      for (const MetricDef& d : DefsFor(trace)) {
        auto it = report.metrics().find(d.name);
        checks.Expect(it != report.metrics().end() && std::isfinite(it->second),
                      label + " prints " + d.name);
      }
    }
  }
  // compare judges runs the way README.md says: B's build_s is better in
  // every pair, its served_qps worse by half, open_p50_us swings wider
  // than its bound on both sides, and onmi does not move.
  const std::string a_dir = dir + "/compare_a";
  const std::string b_dir = dir + "/compare_b";
  for (const std::string& d : {a_dir, b_dir}) {
    std::error_code ec;
    std::filesystem::remove_all(d, ec);
    std::filesystem::create_directories(d, ec);
  }
  for (int k = 1; k <= 10; ++k) {
    for (int side = 0; side < 2; ++side) {
      const double build = (side == 0 ? 10.0 : 5.0) + 0.01 * k;
      const double qps = (side == 0 ? 1000.0 : 500.0) + k;
      const double p50 = k % 2 == 0 ? 10.0 : 30.0;
      std::ofstream out((side == 0 ? a_dir : b_dir) + "/result_lfr_flat_t0_" +
                        std::to_string(k) + ".json");
      out << "{\"workload\": \"lfr_flat\", \"trace\": 0, \"metrics\": {"
          << "\"build_s\": {\"value\": " << build << ", \"unit\": \"s\"}, "
          << "\"served_qps\": {\"value\": " << qps << ", \"unit\": \"req/s\"}, "
          << "\"open_p50_us\": {\"value\": " << p50 << ", \"unit\": \"us\"}, "
          << "\"onmi\": {\"value\": 0.9, \"unit\": \"ratio\"}}}\n";
    }
  }
  auto comparison = CompareRuns(a_dir, b_dir);
  checks.Expect(comparison.ok(), "compare reads result files");
  if (comparison.ok()) {
    std::map<std::string, std::string> verdicts;
    for (const ComparisonRow& r : comparison->rows) verdicts[r.metric] = r.verdict;
    checks.Expect(verdicts["build_s"] == "better", "compare: build_s is better");
    checks.Expect(verdicts["served_qps"] == "worse", "compare: served_qps is worse");
    checks.Expect(verdicts["open_p50_us"] == "unresolved",
                  "compare: open_p50_us is unresolved");
    checks.Expect(verdicts["onmi"] == "same", "compare: onmi is the same");
    checks.Expect(comparison->short_of_pairs.size() == AllWorkloads().size() - 1,
                  "compare: workloads without 10 pairs are not compared");
  }

  if (checks.failures() == 0) std::printf("smoke: all checks passed\n");
  return checks.failures() == 0 ? 0 : 1;
}

// --- run ---------------------------------------------------------------------

void SetMedian(const char* name, const std::vector<double>& samples,
               Report* report) {
  report->Set(name, Median(samples));
  report->Samples(name, samples.size(),
                  *std::min_element(samples.begin(), samples.end()),
                  *std::max_element(samples.begin(), samples.end()));
}

bool RunRounds(const RunArgs& args, Builds* builds, Report* report) {
  const Workload& w = *args.workload;
  const Clock::time_point start = Clock::now();
  std::optional<Serving> serving;
  double slice_s = 0.0;
  size_t slices_per_round = 1;
  std::vector<double> build_s, setup_s, qps, p50;
  for (;;) {
    const Clock::time_point round_start = Clock::now();
    auto built = builds->Round(report);
    report->Attempt(built.ok(), "every input builds");
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
      return false;
    }
    build_s.push_back(built.value());
    if (!serving) {
      // The first round plans the rest: serving gets the workload's share
      // of each round, cut into enough slices for a median.
      const double round_build_s = SecondsSince(round_start);
      const double serve_s = round_build_s * (1 - w.build_share) / w.build_share;
      const double rounds = std::max(static_cast<double>(kMinRounds),
                                     args.seconds / (round_build_s + serve_s));
      slices_per_round =
          static_cast<size_t>(std::ceil(kServeSamples / rounds));
      slice_s = serve_s / static_cast<double>(slices_per_round);
      auto made = Serving::Make(builds->store_path(), args.seed);
      report->Attempt(made.ok(), "request stream drawn from the snapshot");
      if (!made.ok()) {
        std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
        return false;
      }
      serving.emplace(std::move(made).value());
    }
    for (size_t i = 0; i < slices_per_round; ++i) {
      // Set-up as a user pays it before the first answer: the graphs
      // opened with validation, then the snapshot opened and served.
      auto graphs = builds->Reopen();
      auto server = serving->Setup();
      report->Attempt(graphs.ok() && server.ok(), "set-up");
      if (!graphs.ok() || !server.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     (graphs.ok() ? server.status() : graphs.status())
                         .ToString().c_str());
        return false;
      }
      setup_s.push_back(graphs.value() + server.value());
      auto slice = serving->Measure(slice_s, report);
      report->Attempt(slice.ok(), "serving slice");
      if (!slice.ok()) {
        std::fprintf(stderr, "error: %s\n", slice.status().ToString().c_str());
        return false;
      }
      qps.push_back(slice->qps);
      p50.push_back(slice->p50_us);
    }
    // Stop where the budget ends nearest a round boundary, so that runs
    // average --seconds whatever the size of their rounds.
    const double round_s = SecondsSince(round_start);
    if (build_s.size() >= kMaxRounds ||
        (build_s.size() >= kMinRounds &&
         SecondsSince(start) + round_s / 2 > args.seconds)) {
      break;
    }
  }
  SetMedian("setup_s", setup_s, report);
  SetMedian("build_s", build_s, report);
  SetMedian("served_qps", qps, report);
  SetMedian("open_p50_us", p50, report);
  serving->PrintOpenTail();
  return true;
}

bool RunTraced(const RunArgs& args, Builds* builds, Trace* trace,
               Report* report) {
  const Workload& w = *args.workload;
  const Clock::time_point start = Clock::now();
  if (!builds->Traced(args.seconds * w.build_share, trace, report)) return false;
  auto serving = Serving::Make(builds->store_path(), args.seed);
  report->Attempt(serving.ok(), "request stream drawn from the snapshot");
  if (!serving.ok()) {
    std::fprintf(stderr, "error: %s\n", serving.status().ToString().c_str());
    return false;
  }
  return serving->Traced(std::max(0.0, args.seconds - SecondsSince(start)),
                         w.build_share, trace, report);
}

}  // namespace

std::span<const Workload> AllWorkloads() { return kWorkloads; }

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool RunWorkload(const RunArgs& args, HostContext* host, Report* report) {
  auto builds = Builds::Open(args);
  report->Attempt(builds.ok(), "inputs open, graphs validated");
  if (!builds.ok()) {
    std::fprintf(stderr, "error: %s\n", builds.status().ToString().c_str());
    return false;
  }
  host->csr_kernel = CsrKernelName(CsrKernelFor(builds->graph(0)));
  Trace trace(args.trace);
  const Clock::time_point start = Clock::now();
  const bool finished = args.trace
                            ? RunTraced(args, &builds.value(), &trace, report)
                            : RunRounds(args, &builds.value(), report);
  const double measured_s = SecondsSince(start);
  const Clock::time_point checks = Clock::now();
  if (finished) builds->Check(report);
  std::printf("measured for %.1f s, output checks took %.1f s\n", measured_s,
              SecondsSince(checks));
  if (!args.trace) {
    struct rusage usage;
    if (::getrusage(RUSAGE_SELF, &usage) == 0) {
      report->Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    }
  }
  if (args.trace && !args.out_dir.empty()) {
    const std::string path =
        args.out_dir + "/trace_" + args.workload->name + ".json";
    if (Status s = trace.WriteJson(path); !s.ok()) {
      std::fprintf(stderr, "warning: %s\n", s.ToString().c_str());
    }
  }
  return finished;
}

}  // namespace oca::e2e

int main(int argc, char** argv) {
  using namespace oca::e2e;
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "gen") return Gen(args);
  if (command == "run") return Run(args);
  if (command == "smoke") return Smoke(args);
  if (command == "compare") {
    if (args.size() != 2) {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
    return Compare(args[0], args[1]);
  }
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}

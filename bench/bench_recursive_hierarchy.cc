// Recursive hierarchy vs one flat run on nested planted partitions.
//
// Two questions, one workload:
//   1. QUALITY — can the recursive per-community descent recover the
//      planted FINE scale that a run over the whole graph mixes with the
//      coarse scale? The flat column runs OCA once at a fifth of the
//      root's admissible c: c is a weak resolution knob, and even that
//      low a c leaves the fine scale mixed. Scored by ONMI and the omega
//      index of the flat cover and of the recursive leaves against the
//      planted sub-blocks.
//   2. PARALLEL SPEEDUP — sibling subtrees expand concurrently on the
//      thread pool (one engine per worker); we time the serial
//      reference against an N-worker build, and pin that both produce
//      the SAME tree (Digest()). N comes from OCA_THREADS (unset/0 =
//      hardware concurrency). On a 1-core box expect speedup ~<= 1 —
//      the CI thread-matrix job is the multi-core testbed. The pooled
//      build's time is split into its root phase (the root solve and
//      the root run, both on N threads) and the expansion below it, and
//      the root run's climbs are set against the seeds it recorded. The
//      24x4x40 config (3,840 nodes) is the one whose root solve spans
//      two mat-vec row blocks, so only there can the pooled root solve
//      split its mat-vec across threads.
//
// Set OCA_BENCH_JSON=path to also write the per-config metrics as JSON
// (uploaded as a CI artifact so baselines compare without a local
// rerun).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/recursive_hierarchy.h"
#include "gen/nested_partition.h"
#include "metrics/omega_index.h"
#include "metrics/onmi.h"
#include "util/thread_pool.h"

namespace {

struct Config {
  size_t supers, subs, sub_size;
  double p_sub, p_super, p_out;
};

struct Row {
  std::string name;
  size_t nodes = 0;
  double flat_onmi = 0.0, flat_omega = 0.0;
  double rec_onmi = 0.0, rec_omega = 0.0;
  size_t spectral_iters = 0;
  double serial_seconds = 0.0, parallel_seconds = 0.0;
  // The pooled build's split: root solve, root run, and the rest.
  double root_solve_seconds = 0.0, root_run_seconds = 0.0;
  double expansion_seconds = 0.0;
  size_t root_climbs = 0, root_seeds = 0;
  size_t threads = 0;
  bool digest_match = false;
  unsigned long long digest = 0;
};

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void WriteJson(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "OCA_BENCH_JSON: cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"bench_recursive_hierarchy\",\n");
  std::fprintf(f, "  \"configs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"nodes\": %zu, \"flat_onmi\": %.4f, "
        "\"flat_omega\": %.4f, \"rec_onmi\": %.4f, \"rec_omega\": %.4f, "
        "\"spectral_iters\": %zu, "
        "\"serial_seconds\": %.4f, \"parallel_seconds\": %.4f, "
        "\"root_solve_seconds\": %.4f, \"root_run_seconds\": %.4f, "
        "\"expansion_seconds\": %.4f, \"root_climbs\": %zu, "
        "\"root_seeds\": %zu, "
        "\"threads\": %zu, \"speedup\": %.3f, \"digest_match\": %s, "
        "\"digest\": \"%016llx\"}%s\n",
        r.name.c_str(), r.nodes, r.flat_onmi, r.flat_omega, r.rec_onmi,
        r.rec_omega, r.spectral_iters, r.serial_seconds,
        r.parallel_seconds, r.root_solve_seconds, r.root_run_seconds,
        r.expansion_seconds, r.root_climbs, r.root_seeds, r.threads,
        r.parallel_seconds > 0.0 ? r.serial_seconds / r.parallel_seconds
                                 : 0.0,
        r.digest_match ? "true" : "false", r.digest,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  oca::bench::Banner(
      "Recursive hierarchy vs one flat run on nested planted partitions",
      "paper future work: hierarchies among identified communities");

  std::vector<Config> configs;
  switch (oca::bench::GetScale()) {
    case oca::bench::Scale::kQuick:
      configs = {{4, 3, 20, 0.85, 0.15, 0.08}};
      break;
    case oca::bench::Scale::kDefault:
      configs = {{4, 3, 20, 0.85, 0.15, 0.08},
                 {5, 3, 40, 0.60, 0.12, 0.05},
                 {6, 4, 40, 0.60, 0.12, 0.05},
                 {24, 4, 40, 0.85, 0.15, 0.03}};
      break;
    case oca::bench::Scale::kPaper:
      configs = {{4, 3, 20, 0.85, 0.15, 0.08},
                 {5, 3, 40, 0.60, 0.12, 0.05},
                 {6, 4, 40, 0.60, 0.12, 0.05},
                 {8, 4, 60, 0.50, 0.10, 0.04},
                 {24, 4, 40, 0.85, 0.15, 0.03}};
      break;
  }

  const size_t threads =
      oca::ThreadCountFromEnv("OCA_THREADS", oca::DefaultThreadCount());
  std::vector<Row> rows;
  bool failed = false;

  std::printf("%-16s %6s | %-21s | %-21s | %-8s\n", "", "",
              "flat, c = 0.2 c_max", "recursive leaves", "subgraph");
  std::printf("%-16s %6s | %10s %10s | %10s %10s | %8s\n", "graph", "nodes",
              "ONMI", "omega", "ONMI", "omega", "lanczos");

  for (const Config& config : configs) {
    oca::NestedPartitionOptions gen;
    gen.num_supers = config.supers;
    gen.subs_per_super = config.subs;
    gen.nodes_per_sub = config.sub_size;
    gen.p_sub = config.p_sub;
    gen.p_super = config.p_super;
    gen.p_out = config.p_out;
    gen.seed = 7;
    auto bench = oca::GenerateNestedPartition(gen).value();
    const size_t n = bench.graph.num_nodes();

    oca::OcaOptions base;
    base.seed = 7;
    base.halting.max_seeds = n * 3;
    base.halting.target_coverage = 0.98;
    base.halting.stagnation_window = 150;

    // Recursive descent: serial reference and parallel, both timed, the
    // parallel build digest-pinned against the serial one.
    oca::RecursiveHierarchyOptions rec;
    rec.base = base;
    auto t0 = std::chrono::steady_clock::now();
    auto serial = oca::BuildRecursiveHierarchy(bench.graph, rec).value();
    auto t1 = std::chrono::steady_clock::now();
    rec.num_threads = threads;
    auto t2 = std::chrono::steady_clock::now();
    auto parallel = oca::BuildRecursiveHierarchy(bench.graph, rec).value();
    auto t3 = std::chrono::steady_clock::now();

    // One flat run over the whole graph at a fifth of the root's
    // admissible c, to set against the recursive leaves.
    oca::OcaOptions flat = base;
    flat.coupling_constant = oca::ClampCouplingToAdmissible(
        0.2 * serial.root_stats.coupling_constant);
    oca::Cover flat_cover = oca::RunOca(bench.graph, flat).value().cover;
    double flat_onmi = oca::Onmi(flat_cover, bench.sub_truth, n).value();
    double flat_omega =
        oca::OmegaIndex(flat_cover, bench.sub_truth, n).value();

    oca::Cover leaves = serial.LeafCover();
    double rec_onmi = oca::Onmi(leaves, bench.sub_truth, n).value();
    double rec_omega = oca::OmegaIndex(leaves, bench.sub_truth, n).value();
    const bool digest_match = serial.Digest() == parallel.Digest();

    char name[64];
    std::snprintf(name, sizeof(name), "%zux%zux%zu", config.supers,
                  config.subs, config.sub_size);
    std::printf("%-16s %6zu | %10.3f %10.3f | %10.3f %10.3f | %8zu\n", name, n,
                flat_onmi, flat_omega, rec_onmi, rec_omega,
                serial.chain.total_iterations);
    std::printf("%-16s %6s | tree: %zu roots, %zu nodes, depth %zu, "
                "%zu subgraph solves\n", "", "", serial.roots.size(),
                serial.nodes.size(), serial.max_depth_reached,
                serial.chain.subgraph_solves);
    double serial_s = Seconds(t0, t1);
    double parallel_s = Seconds(t2, t3);
    std::printf("%-16s %6s | parallel: %zu workers, serial %.3fs vs "
                "pooled %.3fs, speedup %.2fx, peak %zu concurrent, "
                "digest %s\n", "", "", threads, serial_s, parallel_s,
                parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
                parallel.scheduling.max_concurrent,
                digest_match ? "match" : "MISMATCH!");
    const oca::OcaRunStats& root = parallel.root_stats;
    const double root_solve_s = root.seconds_spectral;
    const double root_run_s = root.seconds_search + root.seconds_postprocess;
    const double expansion_s = parallel_s - root_solve_s - root_run_s;
    std::printf("%-16s %6s | pooled split: root solve %.4fs, root run "
                "%.4fs (%zu climbs for %zu seeds), expansion %.4fs\n",
                "", "", root_solve_s, root_run_s, root.climbs,
                root.seeds_expanded, expansion_s);

    Row row;
    row.name = name;
    row.nodes = n;
    row.flat_onmi = flat_onmi;
    row.flat_omega = flat_omega;
    row.rec_onmi = rec_onmi;
    row.rec_omega = rec_omega;
    row.spectral_iters = serial.chain.total_iterations;
    row.serial_seconds = serial_s;
    row.parallel_seconds = parallel_s;
    row.root_solve_seconds = root_solve_s;
    row.root_run_seconds = root_run_s;
    row.expansion_seconds = expansion_s;
    row.root_climbs = root.climbs;
    row.root_seeds = root.seeds_expanded;
    row.threads = threads;
    row.digest_match = digest_match;
    row.digest = static_cast<unsigned long long>(serial.Digest());
    rows.push_back(std::move(row));
    // Hard-fail AFTER the loop and the JSON write: the per-config
    // timings and digests are exactly the evidence a mismatch needs.
    if (!digest_match) failed = true;
  }

  if (const char* json = std::getenv("OCA_BENCH_JSON")) {
    WriteJson(json, rows);
  }
  return failed ? 1 : 0;
}

// Shared helpers for the experiment harness binaries.

#ifndef OCA_BENCH_BENCH_COMMON_H_
#define OCA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>

namespace oca::bench {

/// Experiment scale knob: OCA_BENCH_SCALE=quick|default|paper.
///   quick   — CI-sized, a few seconds total
///   default — laptop-sized, tens of seconds
///   paper   — the paper's exact parameters (minutes)
enum class Scale { kQuick, kDefault, kPaper };

/// The scale OCA_BENCH_SCALE names; unset means default. Any other value
/// prints one error line and exits 2.
inline Scale GetScale() {
  const char* env = std::getenv("OCA_BENCH_SCALE");
  if (env == nullptr) return Scale::kDefault;
  std::string v = env;
  if (v == "quick") return Scale::kQuick;
  if (v == "default") return Scale::kDefault;
  if (v == "paper") return Scale::kPaper;
  std::fprintf(stderr,
               "error: OCA_BENCH_SCALE=%s is not one of quick|default|paper\n",
               env);
  std::exit(2);
}

inline const char* ScaleName(Scale scale) {
  switch (scale) {
    case Scale::kQuick:
      return "quick";
    case Scale::kDefault:
      return "default";
    case Scale::kPaper:
      return "paper";
  }
  return "?";
}

/// Prints the standard experiment banner.
inline void Banner(const char* experiment, const char* paper_artifact) {
  std::printf("=== %s ===\n", experiment);
  std::printf("reproduces: %s | scale: %s (set OCA_BENCH_SCALE=quick|"
              "default|paper)\n\n",
              paper_artifact, ScaleName(GetScale()));
}

}  // namespace oca::bench

#endif  // OCA_BENCH_BENCH_COMMON_H_

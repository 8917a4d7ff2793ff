// A minimal JSON reader for the benchmark's own files (BENCHMARK.json
// and result files), so that comparing runs needs no tool beyond the
// benchmark itself.

#ifndef OCA_BENCH_E2E_JSON_H_
#define OCA_BENCH_E2E_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace oca::e2e {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Member `key` of an object, or null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

Result<JsonValue> ParseJson(std::string_view text);
Result<JsonValue> ReadJsonFile(const std::string& path);

/// `s` as a quoted JSON string.
std::string JsonQuote(std::string_view s);
/// A finite double with every significant digit (null when not finite).
std::string JsonNumber(double v);

}  // namespace oca::e2e

#endif  // OCA_BENCH_E2E_JSON_H_

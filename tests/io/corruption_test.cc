// Failure injection: no corrupted or truncated input may crash, loop, or
// silently yield an invalid graph — every failure must surface as a
// Status. Sweeps corruption positions with parameterized gtest. Accepted
// graphs are judged by the brute-force reference, not by ValidateGraph,
// which the binary reader itself calls.

#include <gtest/gtest.h>

#include <sstream>

#include "io/cover_io.h"
#include "io/edge_list.h"
#include "io/graph_serialize.h"
#include "io/metis.h"
#include "testing/reference_graph_check.h"
#include "testing/test_graphs.h"
#include "util/random.h"

namespace oca {
namespace {

std::string SerializedKarate() {
  std::stringstream buffer;
  EXPECT_TRUE(WriteGraphBinary(testing::KarateClub(), buffer).ok());
  return buffer.str();
}

class BinaryCorruptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(BinaryCorruptionSweep, TruncationAlwaysErrorsCleanly) {
  std::string bytes = SerializedKarate();
  size_t cut = bytes.size() * static_cast<size_t>(GetParam()) / 16;
  if (cut >= bytes.size()) GTEST_SKIP();
  std::stringstream in(bytes.substr(0, cut));
  auto result = ReadGraphBinary(in);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError() || result.status().IsInternal());
}

TEST_P(BinaryCorruptionSweep, BitFlipsNeverYieldInvalidGraphs) {
  // Flip one byte at a pseudo-random position; the read must either fail
  // with a Status or produce a graph that passes full validation (a flip
  // confined to padding or to a still-consistent neighbor id is legal).
  std::string bytes = SerializedKarate();
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 32; ++trial) {
    std::string corrupted = bytes;
    size_t pos = static_cast<size_t>(rng.NextBounded(corrupted.size()));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^
                                       (1 << rng.NextBounded(8)));
    std::stringstream in(corrupted);
    auto result = ReadGraphBinary(in);
    if (result.ok()) {
      EXPECT_TRUE(testing::ReferenceValidateGraph(result.value()).ok())
          << "byte " << pos << " flip produced an invalid graph";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, BinaryCorruptionSweep,
                         ::testing::Range(1, 16));

class TextGarbageSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextGarbageSweep, EdgeListNeverCrashesOnRandomBytes) {
  Rng rng(GetParam());
  std::string garbage;
  for (int i = 0; i < 400; ++i) {
    garbage.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    if (rng.NextBool(0.05)) garbage.push_back('\n');
  }
  std::istringstream in(garbage);
  auto result = ReadEdgeListStream(in);
  if (result.ok()) {
    EXPECT_TRUE(testing::ReferenceValidateGraph(result.value().graph).ok());
  }
}

TEST_P(TextGarbageSweep, CoverReaderNeverCrashesOnRandomBytes) {
  Rng rng(GetParam() ^ 0xC0FFEE);
  std::string garbage;
  for (int i = 0; i < 400; ++i) {
    garbage.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    if (rng.NextBool(0.05)) garbage.push_back('\n');
  }
  std::istringstream in(garbage);
  auto result = ReadCoverStream(in);  // ok or IOError, never UB
  if (!result.ok()) {
    EXPECT_TRUE(result.status().IsIOError());
  }
}

TEST_P(TextGarbageSweep, MetisReaderNeverCrashesOnMangledValid) {
  // Start from a valid file, splice random digits/spaces somewhere.
  std::stringstream buffer;
  ASSERT_TRUE(WriteMetisStream(testing::KarateClub(), buffer).ok());
  std::string text = buffer.str();
  Rng rng(GetParam() ^ 0xBEEF);
  size_t pos = static_cast<size_t>(rng.NextBounded(text.size()));
  text.insert(pos, "9999 ");
  std::istringstream in(text);
  auto result = ReadMetisStream(in);
  if (result.ok()) {
    EXPECT_TRUE(testing::ReferenceValidateGraph(result.value()).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextGarbageSweep,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace oca

#include "util/timer.h"

#include <gtest/gtest.h>

namespace oca {
namespace {

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait a tiny amount; elapsed must be non-negative and monotone.
  double first = t.ElapsedSeconds();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  double second = t.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  t.Restart();
  EXPECT_LT(t.ElapsedSeconds(), second + 1.0);
}

TEST(FormatDurationTest, PicksSensibleUnits) {
  EXPECT_EQ(FormatDuration(0.000001), "1us");
  EXPECT_EQ(FormatDuration(0.00052), "520us");
  EXPECT_EQ(FormatDuration(0.0052), "5.2ms");
  EXPECT_EQ(FormatDuration(0.25), "250.0ms");
  EXPECT_EQ(FormatDuration(3.21), "3.21s");
  EXPECT_EQ(FormatDuration(125.0), "2m05s");
}

}  // namespace
}  // namespace oca

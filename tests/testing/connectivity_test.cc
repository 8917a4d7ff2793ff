#include "testing/connectivity.h"

#include <gtest/gtest.h>

#include "testing/test_graphs.h"

namespace oca {
namespace {

using testing::IsConnected;
using testing::KarateClub;
using testing::ThreeComponents;

TEST(IsConnectedTest, RecognizesConnectivity) {
  EXPECT_TRUE(IsConnected(KarateClub()));
  EXPECT_FALSE(IsConnected(ThreeComponents()));
  EXPECT_TRUE(IsConnected(Graph()));  // vacuously connected
}

}  // namespace
}  // namespace oca

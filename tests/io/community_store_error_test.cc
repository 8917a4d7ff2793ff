// Error discipline of the .ocac community store: every way a snapshot
// file can be wrong — missing, truncated, wrong magic, wrong version,
// header counts that overrun the file, malformed offset tables, records
// whose ranges or links are out of bounds, dishonest membership paths —
// must come back as a typed Result<CommunityStore> error (kIOError for
// byte-level trust failures, kInvalidArgument for semantic ones), never
// a crash or a silently wrong store. Each case starts from a VALID
// serialized file and corrupts exactly one thing, so a failure
// pinpoints the check (same discipline as mmap_graph_error_test).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/community_store.h"
#include "core/recursive_hierarchy.h"
#include "io/community_format.h"
#include "io/community_serialize.h"
#include "testing/handcrafted_tree.h"

namespace oca {
namespace {

using testing::HandcraftedTree;

constexpr uint64_t kNodes = 8;
constexpr uint64_t kEdges = 11;

class CommunityStoreErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = HandcraftedTree();
    // One base file per test: ctest runs the cases of this fixture as
    // concurrent processes, and a shared path lets one case read the
    // file while another rewrites it.
    path_ = ::testing::TempDir() + "/oca_store_error_base_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ocac";
    auto written = WriteCommunityStoreFile(tree_, kNodes, kEdges, path_);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());

    // The exact section geometry the patches below rely on; a format
    // change that breaks these counts should fail HERE, not in a patch.
    counts_.num_nodes = kNodes;
    counts_.num_edges = kEdges;
    counts_.communities = 5;
    counts_.roots = 2;
    counts_.levels = 2;
    counts_.paths = 10;
    counts_.member_entries = 18;
    counts_.child_entries = 3;
    counts_.posting_entries = 10;
    counts_.path_entries = 18;
    ASSERT_EQ(written.value(), bytes_.size());
    ASSERT_EQ(bytes_.size(), CommunityFileBytes(counts_));
  }

  /// Writes `bytes` to a fresh file and returns CommunityStore::Open.
  Result<CommunityStore> OpenBytes(const std::vector<char>& bytes,
                                   const std::string& tag,
                                   const CommunityStoreOptions& options = {}) {
    const std::string path =
        ::testing::TempDir() + "/oca_store_error_" + tag + ".ocac";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return CommunityStore::Open(path, options);
  }

  static void Patch(std::vector<char>* bytes, uint64_t pos, uint64_t value,
                    size_t width) {
    ASSERT_LE(pos + width, bytes->size());
    std::memcpy(bytes->data() + pos, &value, width);
  }

  /// Byte offset of field `field_offset` inside record `i`.
  uint64_t RecordField(uint64_t i, uint64_t field_offset) const {
    return CommunityFileRecordsStart() + i * sizeof(CommunityRecord) +
           field_offset;
  }

  RecursiveHierarchy tree_;
  CommunityFileCounts counts_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(CommunityStoreErrorTest, ValidFileOpens) {
  auto store = CommunityStore::Open(path_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->num_nodes(), kNodes);
  EXPECT_EQ(store->num_communities(), 5u);
  EXPECT_EQ(store->metadata().tree_digest, tree_.Digest());
}

TEST_F(CommunityStoreErrorTest, MissingFile) {
  auto r = CommunityStore::Open(::testing::TempDir() + "/oca_no_such.ocac");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(CommunityStoreErrorTest, EmptyAndSubHeaderFiles) {
  for (uint64_t keep : {uint64_t{0}, uint64_t{4},
                        kCommunityFileHeaderBytes - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    std::vector<char> t(bytes_.begin(),
                        bytes_.begin() + static_cast<ptrdiff_t>(keep));
    auto r = OpenBytes(t, "subheader" + std::to_string(keep));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    EXPECT_NE(r.status().message().find("truncated"), std::string::npos);
  }
}

TEST_F(CommunityStoreErrorTest, TruncatedBody) {
  std::vector<char> t(bytes_.begin(), bytes_.end() - 8);
  auto r = OpenBytes(t, "truncated_body");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("size mismatch"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, TrailingGarbage) {
  std::vector<char> t = bytes_;
  t.insert(t.end(), 16, '\0');
  auto r = OpenBytes(t, "trailing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(CommunityStoreErrorTest, BadMagic) {
  std::vector<char> t = bytes_;
  t[0] = 'X';
  auto r = OpenBytes(t, "magic");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, BadVersion) {
  std::vector<char> t = bytes_;
  Patch(&t, 4, kCommunityFileVersion + 9, sizeof(uint32_t));
  auto r = OpenBytes(t, "version");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, ZeroNodes) {
  std::vector<char> t = bytes_;
  Patch(&t, 8, 0, sizeof(uint64_t));
  auto r = OpenBytes(t, "zero_nodes");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CommunityStoreErrorTest, HeaderCountOverruns) {
  // Every count field, each blown past what the file can hold —
  // including the near-overflow values that would wrap the byte-size
  // sum if the bound checks ran after it.
  for (uint64_t at : {uint64_t{24}, uint64_t{40}, uint64_t{48}, uint64_t{56},
                      uint64_t{64}, uint64_t{72}, uint64_t{80}}) {
    for (uint64_t value : {uint64_t{1} << 40, UINT64_MAX / 8}) {
      SCOPED_TRACE("at=" + std::to_string(at) +
                   " value=" + std::to_string(value));
      std::vector<char> t = bytes_;
      Patch(&t, at, value, sizeof(uint64_t));
      auto r = OpenBytes(t, "overrun");
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kIOError);
      EXPECT_NE(r.status().message().find("overrun"), std::string::npos);
    }
  }
}

TEST_F(CommunityStoreErrorTest, MoreRootsThanCommunities) {
  std::vector<char> t = bytes_;
  Patch(&t, 32, counts_.communities + 1, sizeof(uint64_t));
  auto r = OpenBytes(t, "roots_overrun");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(CommunityStoreErrorTest, ChildEntriesBreakForestInvariant) {
  // 3 -> 4 child entries keeps the (8-aligned) children section the
  // same size, so the file-size cross-check passes and the forest
  // check (child entries == communities - roots) must catch it.
  std::vector<char> t = bytes_;
  Patch(&t, 64, counts_.child_entries + 1, sizeof(uint64_t));
  auto r = OpenBytes(t, "forest");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("child entries"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, ZeroLevelsWithCommunities) {
  // Chop the level section off AND declare zero levels: the size check
  // passes, the level/community consistency check must not.
  std::vector<char> t(bytes_.begin(),
                      bytes_.begin() + static_cast<ptrdiff_t>(
                                           CommunityFileLevelsStart(counts_)));
  Patch(&t, 40, 0, sizeof(uint64_t));
  auto r = OpenBytes(t, "zero_levels");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("level count"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, EmptyCommunityRecord) {
  std::vector<char> t = bytes_;
  Patch(&t, RecordField(0, 16), 0, sizeof(uint32_t));  // member_count
  auto r = OpenBytes(t, "empty_community");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("empty"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, MemberRangeOverrunsMemberArray) {
  std::vector<char> t = bytes_;
  Patch(&t, RecordField(0, 0), 1000, sizeof(uint64_t));  // members_begin
  auto r = OpenBytes(t, "member_range");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("member range"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, ChildRangeOverrunsChildArray) {
  std::vector<char> t = bytes_;
  Patch(&t, RecordField(0, 8), 1000, sizeof(uint64_t));  // children_begin
  auto r = OpenBytes(t, "child_range");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("child range"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, ParentOutOfRange) {
  std::vector<char> t = bytes_;
  Patch(&t, RecordField(2, 24), 1000, sizeof(uint32_t));  // parent
  auto r = OpenBytes(t, "parent_range");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("parent out of range"),
            std::string::npos);
}

TEST_F(CommunityStoreErrorTest, DepthOutOfRange) {
  std::vector<char> t = bytes_;
  Patch(&t, RecordField(2, 28), 5, sizeof(uint32_t));  // depth
  auto r = OpenBytes(t, "depth_range");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("depth out of range"),
            std::string::npos);
}

TEST_F(CommunityStoreErrorTest, ParentAndDepthDisagreeAboutRootness) {
  // Record 0 keeps its no-parent sentinel but claims depth 1.
  std::vector<char> t = bytes_;
  Patch(&t, RecordField(0, 28), 1, sizeof(uint32_t));
  auto r = OpenBytes(t, "rootness");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("rootness"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, StopReasonCodeOutOfRange) {
  std::vector<char> t = bytes_;
  Patch(&t, RecordField(0, 32), 99, sizeof(uint32_t));
  auto r = OpenBytes(t, "stop_reason");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("stop reason"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, RootListEntryIsNotARoot) {
  std::vector<char> t = bytes_;
  // roots[1] rewritten to community 2, which has a parent.
  Patch(&t, CommunityFileRootsStart(counts_) + 4, 2, sizeof(uint32_t));
  auto r = OpenBytes(t, "root_list");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("not a root"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, ChildEntryOutOfRange) {
  std::vector<char> t = bytes_;
  Patch(&t, CommunityFileChildrenStart(counts_), 1000, sizeof(uint32_t));
  auto r = OpenBytes(t, "child_entry");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("child entry"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, NonMonotonePostingOffsets) {
  std::vector<char> t = bytes_;
  // offsets[1] = 5 > offsets[2] = 2.
  Patch(&t, CommunityFilePostingOffsetsStart(counts_) + 8, 5,
        sizeof(uint64_t));
  auto r = OpenBytes(t, "posting_monotone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("not monotone"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, FirstPostingOffsetNotZero) {
  std::vector<char> t = bytes_;
  Patch(&t, CommunityFilePostingOffsetsStart(counts_), 1, sizeof(uint64_t));
  auto r = OpenBytes(t, "posting_first");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("offsets malformed"),
            std::string::npos);
}

TEST_F(CommunityStoreErrorTest, PostingEntryIsNotARoot) {
  std::vector<char> t = bytes_;
  Patch(&t, CommunityFilePostingsStart(counts_), 2, sizeof(uint32_t));
  auto r = OpenBytes(t, "posting_entry");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("posting entry"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, NonMonotonePathOffsets) {
  std::vector<char> t = bytes_;
  // Path offsets start [0, 2, 4, ...]; [1] = 9 > [2] = 4.
  Patch(&t, CommunityFilePathOffsetsStart(counts_) + 8, 9, sizeof(uint64_t));
  auto r = OpenBytes(t, "path_monotone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("not monotone"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, PathEntryOutOfRange) {
  std::vector<char> t = bytes_;
  Patch(&t, CommunityFilePathEntriesStart(counts_), 1000, sizeof(uint32_t));
  auto r = OpenBytes(t, "path_entry");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("path entry"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, DishonestPathDepth) {
  // Node 0's path is [0, 2]; plant root 1 (depth 0) at position 1. The
  // path-honesty pass must reject — SiblingsAtLevel dereferences
  // Children(parent(path[k])) with no further checks.
  std::vector<char> t = bytes_;
  Patch(&t, CommunityFilePathEntriesStart(counts_) + 4, 1, sizeof(uint32_t));
  auto r = OpenBytes(t, "path_depth");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("depth mismatch"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, PathBreaksParentChain) {
  // Same position rewritten to community 4: right depth (1), wrong
  // parent (1, but the path starts at root 0).
  std::vector<char> t = bytes_;
  Patch(&t, CommunityFilePathEntriesStart(counts_) + 4, 4, sizeof(uint32_t));
  auto r = OpenBytes(t, "path_chain");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("parent chain"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, LevelRecordDepthMismatch) {
  std::vector<char> t = bytes_;
  Patch(&t, CommunityFileLevelsStart(counts_) + sizeof(CommunityLevelRecord),
        7, sizeof(uint64_t));
  auto r = OpenBytes(t, "level_depth");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("level record"), std::string::npos);
}

TEST_F(CommunityStoreErrorTest, MemberOutOfRangeCaughtByValidationOnly) {
  // A member id >= n is invisible to the structural checks (the store
  // itself never dereferences member ids); the O(M) validate pass (on
  // by default) must catch it, and validate=false must let the caller
  // opt out — the documented escape hatch for files this process wrote.
  std::vector<char> t = bytes_;
  Patch(&t, CommunityFileMembersStart(counts_), 100, sizeof(uint32_t));
  auto r = OpenBytes(t, "bad_member");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("node range"), std::string::npos);

  CommunityStoreOptions lax;
  lax.validate = false;
  auto lax_r = OpenBytes(t, "bad_member", lax);
  ASSERT_TRUE(lax_r.ok()) << lax_r.status().ToString();
  EXPECT_EQ(lax_r->Members(0)[0], 100u);
}

}  // namespace
}  // namespace oca

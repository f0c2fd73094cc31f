#include "storage/block_store.h"

#include <vector>

#include "gtest/gtest.h"

namespace rsmi {
namespace {

TEST(BlockStoreTest, AllocChainsSequentially) {
  BlockStore store(4);
  const int a = store.Alloc();
  const int b = store.Alloc();
  const int c = store.Alloc();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 2);
  EXPECT_EQ(store.Peek(a).next, b);
  EXPECT_EQ(store.Peek(b).next, c);
  EXPECT_EQ(store.Peek(c).next, -1);
  EXPECT_EQ(store.Peek(c).prev, b);
  EXPECT_EQ(store.Peek(a).prev, -1);
  EXPECT_LT(store.Peek(a).seq, store.Peek(b).seq);
  EXPECT_LT(store.Peek(b).seq, store.Peek(c).seq);
}

TEST(BlockStoreTest, AccessCounting) {
  BlockStore store(4);
  const int a = store.Alloc();
  QueryContext ctx;
  EXPECT_EQ(ctx.block_accesses, 0u);
  store.Access(a, ctx);
  store.Access(a, ctx);
  EXPECT_EQ(ctx.block_accesses, 2u);
  ctx.CountBlockAccess(3);
  EXPECT_EQ(ctx.block_accesses, 5u);
  store.MutableBlock(a);  // uncounted
  store.Peek(a);          // uncounted
  EXPECT_EQ(ctx.block_accesses, 5u);
}

TEST(BlockStoreTest, InsertedBlockSplicesMidChain) {
  BlockStore store(2);
  const int a = store.Alloc();
  const int b = store.Alloc();
  const int o = store.AllocInsertedAfter(a);
  EXPECT_TRUE(store.Peek(o).inserted);
  EXPECT_EQ(store.Peek(a).next, o);
  EXPECT_EQ(store.Peek(o).next, b);
  EXPECT_EQ(store.Peek(o).prev, a);
  EXPECT_EQ(store.Peek(b).prev, o);
  EXPECT_GT(store.Peek(o).seq, store.Peek(a).seq);
  EXPECT_LT(store.Peek(o).seq, store.Peek(b).seq);
}

TEST(BlockStoreTest, InsertedBlockAtTail) {
  BlockStore store(2);
  const int a = store.Alloc();
  const int o = store.AllocInsertedAfter(a);
  EXPECT_EQ(store.Peek(a).next, o);
  EXPECT_EQ(store.Peek(o).next, -1);
  EXPECT_GT(store.Peek(o).seq, store.Peek(a).seq);
  // Subsequent Alloc() appends after the inserted tail.
  const int b = store.Alloc();
  EXPECT_EQ(store.Peek(o).next, b);
}

TEST(BlockStoreTest, RepeatedInsertsKeepStrictOrder) {
  BlockStore store(2);
  const int a = store.Alloc();
  store.Alloc();
  // Splice many overflow blocks after `a`; seq keys must stay strictly
  // increasing along the chain (fractional midpoints).
  for (int i = 0; i < 40; ++i) store.AllocInsertedAfter(a);
  double prev = -1.0;
  int count = 0;
  for (int cur = 0; cur >= 0; cur = store.Peek(cur).next) {
    EXPECT_GT(store.Peek(cur).seq, prev);
    prev = store.Peek(cur).seq;
    ++count;
  }
  EXPECT_EQ(count, 42);
}

TEST(BlockStoreTest, ScanRangeVisitsSplicedBlocks) {
  BlockStore store(2);
  std::vector<int> build;
  for (int i = 0; i < 5; ++i) build.push_back(store.Alloc());
  const int o1 = store.AllocInsertedAfter(build[1]);
  const int o2 = store.AllocInsertedAfter(build[3]);
  store.MutableBlock(o1).entries.push_back({{0.1, 0.1}, 100});
  store.MutableBlock(o2).entries.push_back({{0.2, 0.2}, 200});

  std::vector<int64_t> ids;
  QueryContext ctx;
  store.ScanRange(build[1], build[4], ctx, [&](const Block& blk) {
    for (const auto& e : blk.entries) ids.push_back(e.id);
  });
  // Visits blocks 1, o1, 2, 3, o2, 4 -> 6 accesses, both overflow entries.
  EXPECT_EQ(ctx.block_accesses, 6u);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 100);
  EXPECT_EQ(ids[1], 200);
}

TEST(BlockStoreTest, ScanRangeHandlesReversedEndpoints) {
  BlockStore store(2);
  for (int i = 0; i < 4; ++i) store.Alloc();
  int visited = 0;
  QueryContext ctx;
  store.ScanRange(3, 1, ctx, [&](const Block&) { ++visited; });
  EXPECT_EQ(visited, 3);  // blocks 1, 2, 3
}

TEST(BlockStoreTest, ScanSingleBlock) {
  BlockStore store(2);
  const int a = store.Alloc();
  int visited = 0;
  QueryContext ctx;
  store.ScanRange(a, a, ctx, [&](const Block&) { ++visited; });
  EXPECT_EQ(visited, 1);
}

TEST(BlockStoreTest, UnlinkAndSpliceReplaceRange) {
  // The RSMIr subtree-rebuild pattern: unlink a mid-chain range, allocate
  // a replacement run at the tail, splice it into the hole.
  BlockStore store(2);
  for (int i = 0; i < 6; ++i) store.Alloc();  // chain 0..5
  store.UnlinkRange(2, 3);
  EXPECT_EQ(store.Peek(1).next, 4);
  EXPECT_EQ(store.Peek(4).prev, 1);

  const int r0 = store.Alloc();  // lands after 5 (tail)
  const int r1 = store.Alloc();
  const int r2 = store.Alloc();
  store.UnlinkRange(r0, r2);
  store.SpliceRun(r0, r2, 1, 4);

  // Chain order: 0 1 r0 r1 r2 4 5 with strictly increasing seq.
  std::vector<int> order;
  double prev_seq = -1e300;
  for (int cur = 0; cur >= 0; cur = store.Peek(cur).next) {
    order.push_back(cur);
    EXPECT_GT(store.Peek(cur).seq, prev_seq);
    prev_seq = store.Peek(cur).seq;
  }
  const std::vector<int> expect = {0, 1, r0, r1, r2, 4, 5};
  EXPECT_EQ(order, expect);

  // ScanRange across the spliced run sees all of it: 1, r0, r1, r2, 4.
  int visited = 0;
  QueryContext ctx;
  store.ScanRange(1, 4, ctx, [&](const Block&) { ++visited; });
  EXPECT_EQ(visited, 5);
}

TEST(BlockStoreTest, SpliceRunAtHeadAndTail) {
  BlockStore store(2);
  store.Alloc();  // 0
  store.Alloc();  // 1
  const int a = store.Alloc();
  store.UnlinkRange(a, a);
  store.SpliceRun(a, a, -1, 0);  // new head
  EXPECT_EQ(store.Peek(a).next, 0);
  EXPECT_EQ(store.Peek(0).prev, a);
  EXPECT_LT(store.Peek(a).seq, store.Peek(0).seq);

  const int b = store.Alloc();
  store.UnlinkRange(b, b);
  store.SpliceRun(b, b, 1, -1);  // new tail
  EXPECT_EQ(store.Peek(1).next, b);
  EXPECT_GT(store.Peek(b).seq, store.Peek(1).seq);
  // Tail tracking: the next Alloc chains after b.
  const int c = store.Alloc();
  EXPECT_EQ(store.Peek(b).next, c);
}

TEST(BlockStoreTest, ScanRangeIncludesTrailingOverflowRun) {
  // Overflow blocks spliced after `end` belong to `end`'s overflow run
  // and must be visited (point/window queries rely on this).
  BlockStore store(2);
  const int a = store.Alloc();
  const int b = store.Alloc();
  store.Alloc();  // c, after b
  const int o = store.AllocInsertedAfter(b);  // b's overflow
  store.MutableBlock(o).entries.push_back({{0.5, 0.5}, 7});

  std::vector<int64_t> seen;
  QueryContext ctx;
  store.ScanRange(a, b, ctx, [&](const Block& blk) {
    for (const auto& e : blk.entries) seen.push_back(e.id);
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 7);
}

TEST(BlockStoreTest, ScanRangeUntilStopsEarly) {
  BlockStore store(2);
  for (int i = 0; i < 5; ++i) store.Alloc();
  QueryContext ctx;
  int visited = 0;
  store.ScanRangeUntil(0, 4, ctx, [&](const Block&) {
    ++visited;
    return visited == 2;  // stop after two blocks
  });
  EXPECT_EQ(visited, 2);
  EXPECT_EQ(ctx.block_accesses, 2u);
}

TEST(BlockStoreTest, SizeBytesScalesWithBlocks) {
  BlockStore store(100);
  EXPECT_EQ(store.SizeBytes(), 0u);
  store.Alloc();
  const size_t one = store.SizeBytes();
  EXPECT_GE(one, 100 * sizeof(PointEntry));
  store.Alloc();
  EXPECT_EQ(store.SizeBytes(), 2 * one);
}

}  // namespace
}  // namespace rsmi

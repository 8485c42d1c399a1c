// Copyright 2026 The DOD Authors.

#include "io/block_store.h"

#include <gtest/gtest.h>

#include <set>

#include "data/generators.h"

namespace dod {
namespace {

TEST(BlockStoreTest, EveryPointInExactlyOneBlock) {
  const Dataset data = GenerateUniform(1000, Rect::Cube(2, 0.0, 10.0), 1);
  BlockStore store(data, 7, 42);
  std::set<PointId> seen;
  size_t total = 0;
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    for (PointId id : store.block(b)) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      ++total;
    }
  }
  EXPECT_EQ(total, data.size());
}

TEST(BlockStoreTest, BlocksAreBalancedInCardinality) {
  const Dataset data = GenerateUniform(1003, Rect::Cube(2, 0.0, 10.0), 2);
  BlockStore store(data, 10, 42);
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    EXPECT_GE(store.block(b).size(), 100u);
    EXPECT_LE(store.block(b).size(), 101u);
  }
}

TEST(BlockStoreTest, AssignmentIsRandomNotPositional) {
  // The HDFS contract: points are randomly distributed over blocks, so the
  // first block must not simply hold the first n/b point ids.
  const Dataset data = GenerateUniform(1000, Rect::Cube(2, 0.0, 10.0), 3);
  BlockStore store(data, 4, 42);
  size_t low_ids_in_block0 = 0;
  for (PointId id : store.block(0)) {
    if (id < 250) ++low_ids_in_block0;
  }
  EXPECT_LT(low_ids_in_block0, 200u);
  EXPECT_GT(low_ids_in_block0, 20u);
}

TEST(BlockStoreTest, DeterministicGivenSeed) {
  const Dataset data = GenerateUniform(200, Rect::Cube(2, 0.0, 10.0), 4);
  BlockStore a(data, 5, 77);
  BlockStore b(data, 5, 77);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(a.block(i), b.block(i));
}

TEST(BlockStoreTest, DifferentSeedsShuffleDifferently) {
  const Dataset data = GenerateUniform(200, Rect::Cube(2, 0.0, 10.0), 5);
  BlockStore a(data, 5, 1);
  BlockStore b(data, 5, 2);
  EXPECT_NE(a.block(0), b.block(0));
}

TEST(BlockStoreTest, SingleBlockHoldsEverything) {
  const Dataset data = GenerateUniform(100, Rect::Cube(2, 0.0, 10.0), 6);
  BlockStore store(data, 1, 42);
  EXPECT_EQ(store.block(0).size(), 100u);
}

TEST(BlockStoreTest, MoreBlocksThanPoints) {
  const Dataset data = GenerateUniform(3, Rect::Cube(2, 0.0, 10.0), 7);
  BlockStore store(data, 10, 42);
  size_t total = 0;
  for (size_t b = 0; b < store.num_blocks(); ++b) total += store.block(b).size();
  EXPECT_EQ(total, 3u);
}

TEST(BlockStoreTest, ByteAccounting) {
  const Dataset data = GenerateUniform(10, Rect::Cube(2, 0.0, 10.0), 8);
  BlockStore store(data, 2, 42);
  EXPECT_EQ(store.BytesPerRecord(), 2 * sizeof(double) + 8);
}

}  // namespace
}  // namespace dod

// Copyright 2026 The DOD Authors.
//
// HDFS-like block layout. The paper's input contract is: "The input dataset,
// which resides in HDFS, has no prior partitioning properties, i.e., the data
// points are randomly distributed over the HDFS blocks" (Sec. III-B). A
// BlockStore reproduces that contract in-process: it assigns point ids of a
// Dataset to `num_blocks` blocks in random order; each block becomes one map
// task's input split.

#ifndef DOD_IO_BLOCK_STORE_H_
#define DOD_IO_BLOCK_STORE_H_

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/point.h"

namespace dod {

class BlockStore {
 public:
  // Distributes the ids of `dataset` over `num_blocks` blocks using the
  // permutation generated from `seed`. The dataset must outlive the store.
  BlockStore(const Dataset& dataset, size_t num_blocks, uint64_t seed);

  const Dataset& dataset() const { return *dataset_; }
  size_t num_blocks() const { return blocks_.size(); }

  // Point ids stored in block `b`.
  const std::vector<PointId>& block(size_t b) const { return blocks_[b]; }

  // Approximate on-disk size of one record (used by shuffle accounting):
  // coordinates as fixed64 plus a small framing overhead.
  size_t BytesPerRecord() const {
    return sizeof(double) * dataset_->dims() + 8;
  }

 private:
  const Dataset* dataset_;
  std::vector<std::vector<PointId>> blocks_;
};

}  // namespace dod

#endif  // DOD_IO_BLOCK_STORE_H_

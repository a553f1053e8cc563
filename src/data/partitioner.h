// Block partitioning for the sample-and-aggregate framework.
//
// Plain SAF (paper Algorithm 1) randomly partitions the n records into
// disjoint blocks. GUPT's resampling extension (paper §4.2) places each
// record into gamma blocks instead: we realise it as gamma independent
// disjoint partitions ("groups"), which guarantees (a) every record appears
// in exactly gamma blocks and (b) no block holds two copies of one record.
// One record change therefore touches exactly gamma blocks, matching the
// sensitivity argument of Claim 1.
//
// A partition is a BlockSet: the selected rows gathered once into a
// block-shuffled columnar store, so every block is a zero-copy
// offset+length view. Each group draws one Rng::Permutation of the n rows,
// and the layout follows from it: the disjoint partition deals it
// round-robin (row r of block b is perm[r * l + b]); resampled group g is
// the g-th permutation cut into block_size-row slices. The layout fixes
// which rows each block sees for a seed, which keeps query outputs
// reproducible bit for bit.

#ifndef GUPT_DATA_PARTITIONER_H_
#define GUPT_DATA_PARTITIONER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace gupt {

/// One block's window into a BlockSet's gathered store.
struct BlockSlice {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// A block-shuffled materialization of a dataset: the partitioned rows,
/// gathered once into a single contiguous columnar store in block order.
/// Each block is then an offset+length view — handing a block to a chamber
/// copies nothing (in-process) or ships contiguous column slices (pooled
/// workers). Exactly one gather of the selected rows happens per query,
/// independent of the number of blocks.
struct BlockSet {
  std::shared_ptr<const ColumnStore> store;
  std::vector<BlockSlice> slices;
  /// How many blocks each record appears in (1 without resampling).
  std::size_t gamma = 1;

  std::size_t num_blocks() const { return slices.size(); }
  bool empty() const { return slices.empty(); }

  /// Non-owning zero-copy view of block b; caller keeps *this alive.
  DatasetView view(std::size_t b) const {
    return DatasetView(store.get(), slices[b].offset, slices[b].length);
  }

  /// Owning zero-copy handle to block b (shares the gathered store).
  Dataset block(std::size_t b) const {
    return Dataset::FromStore(store, slices[b].offset, slices[b].length);
  }
};

/// Randomly partitions data's n rows into `num_blocks` disjoint blocks
/// whose sizes differ by at most one, gathered into a BlockSet with gamma 1.
/// Errors when the dataset is empty or num_blocks is 0 or exceeds n.
/// `scratch`, when given, supplies the permutation/gather scratch
/// (recycled across queries by Reset()). Bytes copied are counted in the
/// gupt_data_partition_copied_bytes_total metric.
Result<BlockSet> PartitionDisjointView(const Dataset& data,
                                       std::size_t num_blocks, Rng* rng,
                                       Arena* scratch = nullptr);

/// Resampled partition: gamma independent disjoint partitions of data's n
/// rows into blocks of `block_size` rows (the final block of each group is
/// smaller when block_size does not divide n). Errors when the dataset is
/// empty, block_size is 0 or exceeds n, or gamma is 0. `scratch` and the
/// byte count as for PartitionDisjointView.
Result<BlockSet> PartitionResampledView(const Dataset& data,
                                        std::size_t block_size,
                                        std::size_t gamma, Rng* rng,
                                        Arena* scratch = nullptr);

/// The paper's default block count: l = n^0.4 (Algorithm 1, line 1),
/// i.e. blocks of size ~n^0.6. Always at least 1 and at most n.
std::size_t DefaultNumBlocks(std::size_t n);

}  // namespace gupt

#endif  // GUPT_DATA_PARTITIONER_H_

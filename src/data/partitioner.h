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
// A partition is a BlockSet: the block layout as source-row indices, with
// no cell copied. Each group draws one Rng::Permutation of the n rows, and
// the layout follows from it: the disjoint partition deals it round-robin
// (row r of block b is perm[r * l + b]); resampled group g is the g-th
// permutation cut into block_size-row slices. The layout fixes which rows
// each block sees for a seed, which keeps query outputs reproducible bit
// for bit. Each block is gathered where it runs, just before it runs: into
// a pool worker's input segment (GatherInto) or into a fresh store
// (block).
//
// Aliasing rules (see docs/architecture.md "Memory layout"):
//   * A BlockSet holds a Dataset handle on its source, so the source (an
//     amplified query's subsample included) lives as long as the set.
//   * A gathered block shares nothing with the source or with another
//     block except the column names; gathering one block never changes
//     another, and a later partition never changes an earlier set.

#ifndef GUPT_DATA_PARTITIONER_H_
#define GUPT_DATA_PARTITIONER_H_

#include <cstddef>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace gupt {

/// One block's window into a BlockSet's row indices.
struct BlockSlice {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// A partition of a dataset's rows into blocks, kept as indices: block b
/// is source rows rows[offset, offset + length) of slices[b], in that
/// order. Gathering a block copies its cells once, where it runs; the
/// gupt_data_partition_copied_bytes_total counter counts every gather.
struct BlockSet {
  /// The partitioned rows (an amplified query's subsample, if drawn).
  Dataset source;
  /// Source-row indices in block order.
  std::vector<std::size_t> rows;
  std::vector<BlockSlice> slices;
  /// How many blocks each record appears in (1 without resampling).
  std::size_t gamma = 1;

  std::size_t num_blocks() const { return slices.size(); }
  bool empty() const { return slices.empty(); }

  /// Writes block b column-major to `out`, which has room for
  /// slices[b].length * source.num_dims() values.
  void GatherInto(std::size_t b, double* out) const;

  /// Block b gathered into a fresh store with one allocation.
  Dataset block(std::size_t b) const;
};

/// Randomly partitions data's n rows into `num_blocks` disjoint blocks
/// whose sizes differ by at most one, laid out as a BlockSet with gamma 1.
/// Errors when the dataset is empty or num_blocks is 0 or exceeds n.
/// `scratch`, when given, supplies the permutation scratch (recycled
/// across queries by Reset()); the BlockSet never points into it.
Result<BlockSet> PartitionDisjointView(const Dataset& data,
                                       std::size_t num_blocks, Rng* rng,
                                       Arena* scratch = nullptr);

/// Resampled partition: gamma independent disjoint partitions of data's n
/// rows into blocks of `block_size` rows (the final block of each group is
/// smaller when block_size does not divide n). Errors when the dataset is
/// empty, block_size is 0 or exceeds n, or gamma is 0. The permutations
/// are drawn straight into the BlockSet's indices, so no scratch is
/// needed.
Result<BlockSet> PartitionResampledView(const Dataset& data,
                                        std::size_t block_size,
                                        std::size_t gamma, Rng* rng);

/// The paper's default block count: l = n^0.4 (Algorithm 1, line 1),
/// i.e. blocks of size ~n^0.6. Always at least 1 and at most n.
std::size_t DefaultNumBlocks(std::size_t n);

}  // namespace gupt

#endif  // GUPT_DATA_PARTITIONER_H_

#include "data/partitioner.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace gupt {
namespace {

obs::Counter* CopiedBytesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Get().GetCounter(
      "gupt_data_partition_copied_bytes_total",
      "Bytes of row data copied while gathering partition blocks into the "
      "block-shuffled columnar store");
  return counter;
}

// Gathers data's rows at window-local indices gather[0..total) into a
// fresh store, one contiguous pass per column, and charges the copied
// bytes to the partition metric.
std::shared_ptr<const ColumnStore> GatherStore(const Dataset& data,
                                               const std::size_t* gather,
                                               std::size_t total) {
  auto store = std::make_shared<ColumnStore>();
  store->num_rows = total;
  store->column_names = data.column_names();
  const std::size_t dims = data.num_dims();
  store->columns.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const double* src = data.col(d);
    std::vector<double>& out = store->columns[d];
    out.resize(total);
    for (std::size_t j = 0; j < total; ++j) out[j] = src[gather[j]];
  }
  CopiedBytesCounter()->Increment(
      static_cast<double>(total * dims * sizeof(double)));
  return store;
}

}  // namespace

Result<BlockSet> PartitionDisjointView(const Dataset& data,
                                       std::size_t num_blocks, Rng* rng,
                                       Arena* scratch) {
  const std::size_t n = data.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("cannot partition an empty dataset");
  }
  if (num_blocks == 0 || num_blocks > n) {
    return Status::InvalidArgument(
        "num_blocks must be in [1, n]; got " + std::to_string(num_blocks) +
        " for n=" + std::to_string(n));
  }
  Arena local;
  Arena* arena = scratch != nullptr ? scratch : &local;
  std::size_t* perm = arena->AllocateArray<std::size_t>(n);
  rng->PermutationInto(n, perm);

  // Round-robin deal: permutation entry i = r * num_blocks + b lands in
  // block b at position r, dealt one round r at a time.
  std::size_t* offsets = arena->AllocateArray<std::size_t>(num_blocks);
  const std::size_t base = n / num_blocks;
  const std::size_t rem = n % num_blocks;
  BlockSet set;
  set.gamma = 1;
  set.slices.resize(num_blocks);
  std::size_t cursor = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t len = base + (b < rem ? 1 : 0);
    offsets[b] = cursor;
    set.slices[b] = BlockSlice{cursor, len};
    cursor += len;
  }
  std::size_t* gather = arena->AllocateArray<std::size_t>(n);
  for (std::size_t r = 0, i = 0; i < n; ++r) {
    const std::size_t dealt = std::min(num_blocks, n - i);
    for (std::size_t b = 0; b < dealt; ++b, ++i) {
      gather[offsets[b] + r] = perm[i];
    }
  }
  set.store = GatherStore(data, gather, n);
  return set;
}

Result<BlockSet> PartitionResampledView(const Dataset& data,
                                        std::size_t block_size,
                                        std::size_t gamma, Rng* rng,
                                        Arena* scratch) {
  const std::size_t n = data.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("cannot partition an empty dataset");
  }
  if (block_size == 0 || block_size > n) {
    return Status::InvalidArgument(
        "block_size must be in [1, n]; got " + std::to_string(block_size) +
        " for n=" + std::to_string(n));
  }
  if (gamma == 0) {
    return Status::InvalidArgument("resampling factor gamma must be >= 1");
  }
  const std::size_t blocks_per_group = (n + block_size - 1) / block_size;
  Arena local;
  Arena* arena = scratch != nullptr ? scratch : &local;
  // Each group's blocks are contiguous slices of that group's permutation,
  // so the gathered row order is simply the concatenated permutations.
  std::size_t* gather = arena->AllocateArray<std::size_t>(gamma * n);
  BlockSet set;
  set.gamma = gamma;
  set.slices.reserve(gamma * blocks_per_group);
  for (std::size_t g = 0; g < gamma; ++g) {
    rng->PermutationInto(n, gather + g * n);
    for (std::size_t start = 0; start < n; start += block_size) {
      const std::size_t end = std::min(start + block_size, n);
      set.slices.push_back(BlockSlice{g * n + start, end - start});
    }
  }
  set.store = GatherStore(data, gather, gamma * n);
  return set;
}

std::size_t DefaultNumBlocks(std::size_t n) {
  if (n == 0) return 1;
  double l = std::pow(static_cast<double>(n), 0.4);
  std::size_t blocks = static_cast<std::size_t>(std::llround(l));
  return std::clamp<std::size_t>(blocks, 1, n);
}

}  // namespace gupt

#include "data/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "obs/metrics.h"

namespace gupt {
namespace {

// Two-column dataset whose values encode their row index, so gather order
// is directly checkable: row i = {i, 1000 + i}.
Dataset IndexedDataset(std::size_t n) {
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<double>(i);
    b[i] = 1000.0 + static_cast<double>(i);
  }
  return Dataset::FromColumns({a, b}).value();
}

// The source row indices of each block of a set gathered from an
// IndexedDataset, in block order.
std::vector<std::vector<std::size_t>> BlockRows(const BlockSet& set) {
  std::vector<std::vector<std::size_t>> blocks(set.num_blocks());
  for (std::size_t b = 0; b < set.num_blocks(); ++b) {
    Dataset block = set.block(b);
    for (std::size_t r = 0; r < block.num_rows(); ++r) {
      blocks[b].push_back(static_cast<std::size_t>(block.at(r, 0)));
    }
  }
  return blocks;
}

double CopiedBytes() {
  return obs::MetricsRegistry::Get()
      .GetCounter("gupt_data_partition_copied_bytes_total", "")
      ->Value();
}

// The index plan the partitioner's documented layout implies, computed
// straight from the permutations `rng` draws: block b's row indices in
// order. Disjoint: perm[r * l + b] is row r of block b.
std::vector<std::vector<std::size_t>> DisjointPlan(std::size_t n,
                                                   std::size_t l, Rng* rng) {
  const std::vector<std::size_t> perm = rng->Permutation(n);
  std::vector<std::vector<std::size_t>> plan(l);
  for (std::size_t i = 0; i < n; ++i) plan[i % l].push_back(perm[i]);
  return plan;
}

// Resampled: group g is the g-th permutation drawn, cut into beta-row
// slices (the last one shorter when beta does not divide n).
std::vector<std::vector<std::size_t>> ResampledPlan(std::size_t n,
                                                    std::size_t beta,
                                                    std::size_t gamma,
                                                    Rng* rng) {
  std::vector<std::vector<std::size_t>> plan;
  for (std::size_t g = 0; g < gamma; ++g) {
    const std::vector<std::size_t> perm = rng->Permutation(n);
    for (std::size_t start = 0; start < n; start += beta) {
      const std::size_t end = std::min(start + beta, n);
      plan.emplace_back(perm.begin() + static_cast<std::ptrdiff_t>(start),
                        perm.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return plan;
}

// Asserts that every block of `set` holds exactly its plan's rows, in
// order and in every column: data.Subset(plan[b]) of the source, both as
// block(b) and as GatherInto's column-major buffer.
void ExpectMatchesPlan(const Dataset& data, const BlockSet& set,
                       const std::vector<std::vector<std::size_t>>& plan) {
  ASSERT_EQ(set.num_blocks(), plan.size());
  for (std::size_t b = 0; b < plan.size(); ++b) {
    Dataset expected = data.Subset(plan[b]).value();
    Dataset block = set.block(b);
    std::vector<double> gathered(expected.num_rows() * expected.num_dims());
    set.GatherInto(b, gathered.data());
    ASSERT_EQ(block.num_rows(), expected.num_rows()) << "block " << b;
    ASSERT_EQ(block.num_dims(), expected.num_dims());
    for (std::size_t d = 0; d < block.num_dims(); ++d) {
      for (std::size_t r = 0; r < block.num_rows(); ++r) {
        ASSERT_EQ(block.at(r, d), expected.at(r, d))
            << "block " << b << " row " << r << " dim " << d;
        ASSERT_EQ(gathered[d * block.num_rows() + r], expected.at(r, d))
            << "block " << b << " row " << r << " dim " << d;
      }
    }
  }
}

TEST(PartitionDisjointTest, CoversEveryIndexExactlyOnce) {
  Rng rng(1);
  auto set = PartitionDisjointView(IndexedDataset(100), 7, &rng).value();
  EXPECT_EQ(set.num_blocks(), 7u);
  EXPECT_EQ(set.gamma, 1u);
  std::map<std::size_t, int> counts;
  for (const auto& block : BlockRows(set)) {
    for (std::size_t i : block) ++counts[i];
  }
  EXPECT_EQ(counts.size(), 100u);
  for (const auto& [idx, count] : counts) {
    EXPECT_EQ(count, 1) << "index " << idx;
    EXPECT_LT(idx, 100u);
  }
}

TEST(PartitionDisjointTest, BlockSizesDifferByAtMostOne) {
  Rng rng(2);
  auto set = PartitionDisjointView(IndexedDataset(100), 7, &rng).value();
  std::size_t min_size = 100, max_size = 0;
  for (const BlockSlice& slice : set.slices) {
    min_size = std::min(min_size, slice.length);
    max_size = std::max(max_size, slice.length);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(PartitionDisjointTest, SingleBlockHoldsEverything) {
  Rng rng(3);
  auto set = PartitionDisjointView(IndexedDataset(10), 1, &rng).value();
  EXPECT_EQ(set.block(0).num_rows(), 10u);
}

TEST(PartitionDisjointTest, NBlocksOfOne) {
  Rng rng(4);
  auto set = PartitionDisjointView(IndexedDataset(10), 10, &rng).value();
  for (const BlockSlice& slice : set.slices) EXPECT_EQ(slice.length, 1u);
}

TEST(PartitionDisjointTest, RejectsBadArguments) {
  Rng rng(5);
  EXPECT_FALSE(PartitionDisjointView(Dataset(), 1, &rng).ok());
  EXPECT_FALSE(PartitionDisjointView(IndexedDataset(10), 0, &rng).ok());
  EXPECT_FALSE(PartitionDisjointView(IndexedDataset(10), 11, &rng).ok());
}

TEST(PartitionDisjointTest, IsRandomized) {
  Rng rng(6);
  Dataset data = IndexedDataset(50);
  auto a = PartitionDisjointView(data, 5, &rng).value();
  auto b = PartitionDisjointView(data, 5, &rng).value();
  EXPECT_NE(BlockRows(a), BlockRows(b));
}

TEST(PartitionResampledTest, EveryRecordAppearsExactlyGammaTimes) {
  Rng rng(7);
  const std::size_t n = 60, beta = 10, gamma = 4;
  auto set =
      PartitionResampledView(IndexedDataset(n), beta, gamma, &rng).value();
  EXPECT_EQ(set.gamma, gamma);
  EXPECT_EQ(set.num_blocks(), gamma * (n / beta));
  std::map<std::size_t, std::size_t> counts;
  for (const auto& block : BlockRows(set)) {
    for (std::size_t i : block) ++counts[i];
  }
  EXPECT_EQ(counts.size(), n);
  for (const auto& [idx, count] : counts) {
    EXPECT_EQ(count, gamma) << "index " << idx;
  }
}

TEST(PartitionResampledTest, NoDuplicateWithinAnyBlock) {
  Rng rng(8);
  auto set = PartitionResampledView(IndexedDataset(50), 7, 5, &rng).value();
  for (const auto& block : BlockRows(set)) {
    std::set<std::size_t> unique(block.begin(), block.end());
    EXPECT_EQ(unique.size(), block.size());
  }
}

TEST(PartitionResampledTest, BlockSizeRespected) {
  Rng rng(9);
  const std::size_t n = 53, beta = 10;  // does not divide evenly
  auto set = PartitionResampledView(IndexedDataset(n), beta, 3, &rng).value();
  // Each group has ceil(53/10) = 6 blocks: five of size 10, one of size 3.
  EXPECT_EQ(set.num_blocks(), 3u * 6u);
  for (const BlockSlice& slice : set.slices) {
    EXPECT_LE(slice.length, beta);
    EXPECT_GE(slice.length, 1u);
  }
}

TEST(PartitionResampledTest, GammaOneMatchesDisjointSemantics) {
  Rng rng(10);
  auto set = PartitionResampledView(IndexedDataset(40), 8, 1, &rng).value();
  EXPECT_EQ(set.num_blocks(), 5u);
  std::map<std::size_t, int> counts;
  for (const auto& block : BlockRows(set)) {
    for (std::size_t i : block) ++counts[i];
  }
  for (const auto& [idx, count] : counts) EXPECT_EQ(count, 1) << idx;
}

TEST(PartitionResampledTest, RejectsBadArguments) {
  Rng rng(11);
  EXPECT_FALSE(PartitionResampledView(Dataset(), 1, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(IndexedDataset(10), 0, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(IndexedDataset(10), 11, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(IndexedDataset(10), 2, 0, &rng).ok());
}

TEST(DefaultNumBlocksTest, FollowsNToThePointFour) {
  // 26733^0.4 ~= 58.7 -> 59 blocks.
  EXPECT_EQ(DefaultNumBlocks(26733), 59u);
  // 10000^0.4 ~= 39.8 -> 40.
  EXPECT_EQ(DefaultNumBlocks(10000), 40u);
}

TEST(DefaultNumBlocksTest, EdgeCases) {
  EXPECT_EQ(DefaultNumBlocks(0), 1u);
  EXPECT_EQ(DefaultNumBlocks(1), 1u);
  EXPECT_GE(DefaultNumBlocks(2), 1u);
  EXPECT_LE(DefaultNumBlocks(2), 2u);
}

// MaterializeBlocksTest: gathering a partition's blocks where they run.
TEST(MaterializeBlocksTest, BlocksMatchSubsetGatherOrder) {
  Dataset data = IndexedDataset(40);
  Rng plan_rng(21), view_rng(21);
  const auto plan = ResampledPlan(40, 7, 2, &plan_rng);
  BlockSet set = PartitionResampledView(data, 7, 2, &view_rng).value();
  EXPECT_EQ(set.gamma, 2u);
  ExpectMatchesPlan(data, set, plan);
}

TEST(MaterializeBlocksTest, PartitionCopiesNothingAndEachGatherItsBlock) {
  Rng rng(22);
  Dataset data = Dataset::Create(IndexedDataset(30).MaterializeRows(),
                                 {"index", "shifted"})
                     .value();
  const double before = CopiedBytes();
  BlockSet set = PartitionDisjointView(data, 5, &rng).value();
  // The set holds a handle on the source's own store and copies no cell.
  EXPECT_EQ(set.source.store(), data.store());
  EXPECT_EQ(CopiedBytes(), before);
  // Each gather copies exactly its own block's cells, into a store of its
  // own; the column names are shared, not copied.
  double copied = 0.0;
  for (std::size_t b = 0; b < set.num_blocks(); ++b) {
    Dataset block = set.block(b);
    EXPECT_NE(block.store(), data.store());
    EXPECT_EQ(block.store()->column_names, data.store()->column_names);
    copied += static_cast<double>(set.slices[b].length * 2 * sizeof(double));
    EXPECT_EQ(CopiedBytes() - before, copied) << "block " << b;
  }
  EXPECT_EQ(copied, 30.0 * 2 * sizeof(double));
}

TEST(PartitionViewTest, DisjointViewMatchesPlanPathExactly) {
  Dataset data = IndexedDataset(53);
  // Same seed on both sides: the partition must draw exactly the plan's
  // one permutation and lay rows out as the plan says.
  Rng plan_rng(33), view_rng(33);
  const auto plan = DisjointPlan(53, 7, &plan_rng);
  BlockSet set = PartitionDisjointView(data, 7, &view_rng).value();
  EXPECT_EQ(set.gamma, 1u);
  EXPECT_EQ(plan_rng.UniformUint64(1u << 30), view_rng.UniformUint64(1u << 30))
      << "the partition consumed a different number of RNG draws";
  ExpectMatchesPlan(data, set, plan);
}

TEST(PartitionViewTest, ResampledViewMatchesPlanPathExactly) {
  Dataset data = IndexedDataset(53);
  Rng plan_rng(34), view_rng(34);
  const auto plan = ResampledPlan(53, 10, 3, &plan_rng);
  BlockSet set = PartitionResampledView(data, 10, 3, &view_rng).value();
  EXPECT_EQ(set.gamma, 3u);
  EXPECT_EQ(plan_rng.UniformUint64(1u << 30), view_rng.UniformUint64(1u << 30))
      << "the partition consumed a different number of RNG draws";
  ExpectMatchesPlan(data, set, plan);
}

TEST(PartitionViewTest, ArenaScratchIsReusableAcrossQueries) {
  Dataset data = IndexedDataset(100);
  Arena scratch;
  Rng rng(35);
  BlockSet first = PartitionDisjointView(data, 9, &rng, &scratch).value();
  // The BlockSet owns its row indices — resetting the scratch arena (as
  // PartitionStage does at the start of the next query) and partitioning
  // again in it must not change the first set's blocks.
  const std::vector<std::vector<std::size_t>> before = BlockRows(first);
  scratch.Reset();
  BlockSet second = PartitionDisjointView(data, 20, &rng, &scratch).value();
  EXPECT_EQ(BlockRows(first), before);
  EXPECT_EQ(second.num_blocks(), 2u * 10u);
}

TEST(PartitionViewTest, RejectsBadArguments) {
  Dataset data = IndexedDataset(10);
  Rng rng(36);
  EXPECT_FALSE(PartitionDisjointView(data, 0, &rng).ok());
  EXPECT_FALSE(PartitionDisjointView(data, 11, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 0, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 11, 1, &rng).ok());
  EXPECT_FALSE(PartitionResampledView(data, 2, 0, &rng).ok());
}

// Property sweep: the resampled partition invariants hold across shapes.
struct ResampleParam {
  std::size_t n, beta, gamma;
};

class ResampleSweep : public ::testing::TestWithParam<ResampleParam> {};

TEST_P(ResampleSweep, MultiplicityAndBlockInvariants) {
  const auto& p = GetParam();
  Rng rng(99);
  auto set =
      PartitionResampledView(IndexedDataset(p.n), p.beta, p.gamma, &rng)
          .value();
  std::map<std::size_t, std::size_t> counts;
  for (const auto& block : BlockRows(set)) {
    std::set<std::size_t> unique(block.begin(), block.end());
    ASSERT_EQ(unique.size(), block.size());  // no within-block duplicates
    for (std::size_t i : block) ++counts[i];
  }
  ASSERT_EQ(counts.size(), p.n);
  for (const auto& [idx, count] : counts) {
    EXPECT_EQ(count, p.gamma) << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ResampleSweep,
    ::testing::Values(ResampleParam{10, 1, 1}, ResampleParam{10, 10, 3},
                      ResampleParam{100, 9, 2}, ResampleParam{1000, 33, 7},
                      ResampleParam{17, 5, 4}));

}  // namespace
}  // namespace gupt

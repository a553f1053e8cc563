#include "data/dataset_manager.h"

#include <gtest/gtest.h>

#include <limits>

namespace gupt {
namespace {

Dataset MakeCounting(std::size_t n) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back({static_cast<double>(i)});
  }
  return Dataset::Create(std::move(rows)).value();
}

TEST(DatasetManagerTest, RegisterAndGet) {
  DatasetManager mgr;
  DatasetOptions opts;
  opts.total_epsilon = 3.0;
  ASSERT_TRUE(mgr.Register("census", MakeCounting(10), opts).ok());
  auto ds = mgr.Get("census");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ((*ds)->name(), "census");
  EXPECT_EQ((*ds)->data().num_rows(), 10u);
  EXPECT_DOUBLE_EQ((*ds)->accountant().total_epsilon(), 3.0);
  EXPECT_EQ((*ds)->aged(), nullptr);
  EXPECT_EQ((*ds)->input_ranges(), nullptr);
}

TEST(DatasetManagerTest, GetUnknownIsNotFound) {
  DatasetManager mgr;
  EXPECT_EQ(mgr.Get("missing").status().code(), StatusCode::kNotFound);
}

TEST(DatasetManagerTest, DuplicateNameRejected) {
  DatasetManager mgr;
  DatasetOptions opts;
  ASSERT_TRUE(mgr.Register("d", MakeCounting(5), opts).ok());
  EXPECT_EQ(mgr.Register("d", MakeCounting(5), opts).code(),
            StatusCode::kAlreadyExists);
}

TEST(DatasetManagerTest, EmptyNameRejected) {
  DatasetManager mgr;
  EXPECT_FALSE(mgr.Register("", MakeCounting(5), DatasetOptions{}).ok());
}

TEST(DatasetManagerTest, NonPositiveBudgetRejected) {
  DatasetManager mgr;
  DatasetOptions opts;
  opts.total_epsilon = 0.0;
  EXPECT_FALSE(mgr.Register("d", MakeCounting(5), opts).ok());
}

TEST(DatasetManagerTest, NonFiniteBudgetRejected) {
  // The accountant only asserts finiteness, and a Release build compiles
  // the assert out; registration must refuse these itself.
  for (double total : {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    DatasetManager mgr;
    DatasetOptions opts;
    opts.total_epsilon = total;
    EXPECT_EQ(mgr.Register("d", MakeCounting(5), opts).code(),
              StatusCode::kInvalidArgument)
        << total;
    EXPECT_FALSE(mgr.Get("d").ok()) << total;
  }
}

TEST(DatasetManagerTest, AgedFractionPeelsOldestRows) {
  DatasetManager mgr;
  DatasetOptions opts;
  opts.aged_fraction = 0.2;
  ASSERT_TRUE(mgr.Register("d", MakeCounting(10), opts).ok());
  auto ds = mgr.Get("d").value();
  ASSERT_NE(ds->aged(), nullptr);
  EXPECT_EQ(ds->aged()->num_rows(), 2u);
  EXPECT_EQ(ds->data().num_rows(), 8u);
  // Oldest (front) rows go to the aged slice.
  EXPECT_EQ(ds->aged()->row(0), (Row{0.0}));
  EXPECT_EQ(ds->data().row(0), (Row{2.0}));
}

TEST(DatasetManagerTest, AgedFractionBoundsChecked) {
  DatasetManager mgr;
  DatasetOptions opts;
  opts.aged_fraction = -0.1;
  EXPECT_FALSE(mgr.Register("a", MakeCounting(10), opts).ok());
  opts.aged_fraction = 1.0;
  EXPECT_FALSE(mgr.Register("b", MakeCounting(10), opts).ok());
  // A fraction that rounds up to the full dataset must also fail.
  opts.aged_fraction = 0.95;
  EXPECT_FALSE(mgr.Register("c", MakeCounting(2), opts).ok());
}

TEST(DatasetManagerTest, InputRangesValidated) {
  DatasetManager mgr;
  DatasetOptions opts;
  opts.input_ranges = std::vector<Range>{{0.0, 1.0}, {0.0, 1.0}};
  EXPECT_FALSE(mgr.Register("d", MakeCounting(5), opts).ok());  // arity 1 != 2

  opts.input_ranges = std::vector<Range>{{5.0, 1.0}};  // lo > hi
  EXPECT_FALSE(mgr.Register("d", MakeCounting(5), opts).ok());

  opts.input_ranges = std::vector<Range>{{0.0, 10.0}};
  ASSERT_TRUE(mgr.Register("d", MakeCounting(5), opts).ok());
  auto ds = mgr.Get("d").value();
  ASSERT_NE(ds->input_ranges(), nullptr);
  EXPECT_DOUBLE_EQ((*ds->input_ranges())[0].hi, 10.0);
}

TEST(DatasetManagerTest, UnregisterRemoves) {
  DatasetManager mgr;
  ASSERT_TRUE(mgr.Register("d", MakeCounting(5), DatasetOptions{}).ok());
  ASSERT_TRUE(mgr.Unregister("d").ok());
  EXPECT_FALSE(mgr.Get("d").ok());
  EXPECT_EQ(mgr.Unregister("d").code(), StatusCode::kNotFound);
}

TEST(DatasetManagerTest, ListNamesSorted) {
  DatasetManager mgr;
  ASSERT_TRUE(mgr.Register("zeta", MakeCounting(3), DatasetOptions{}).ok());
  ASSERT_TRUE(mgr.Register("alpha", MakeCounting(3), DatasetOptions{}).ok());
  EXPECT_EQ(mgr.ListNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(DatasetManagerTest, AccountantIsSharedAcrossGets) {
  DatasetManager mgr;
  DatasetOptions opts;
  opts.total_epsilon = 1.0;
  ASSERT_TRUE(mgr.Register("d", MakeCounting(5), opts).ok());
  ASSERT_TRUE(mgr.Get("d").value()->accountant().Charge(0.6, "q1").ok());
  // A fresh Get sees the spent budget: there is one ledger per dataset.
  EXPECT_DOUBLE_EQ(mgr.Get("d").value()->accountant().spent_epsilon(), 0.6);
  EXPECT_FALSE(mgr.Get("d").value()->accountant().Charge(0.6, "q2").ok());
}

}  // namespace
}  // namespace gupt

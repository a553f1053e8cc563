#include "dp/accountant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace gupt {
namespace dp {
namespace {

TEST(AccountantTest, StartsFull) {
  PrivacyAccountant acc(2.0);
  EXPECT_DOUBLE_EQ(acc.total_epsilon(), 2.0);
  EXPECT_DOUBLE_EQ(acc.spent_epsilon(), 0.0);
  EXPECT_DOUBLE_EQ(acc.remaining_epsilon(), 2.0);
  EXPECT_EQ(acc.num_charges(), 0u);
}

TEST(AccountantTest, ChargeDebits) {
  PrivacyAccountant acc(2.0);
  ASSERT_TRUE(acc.Charge(0.5, "q1").ok());
  EXPECT_DOUBLE_EQ(acc.spent_epsilon(), 0.5);
  EXPECT_DOUBLE_EQ(acc.remaining_epsilon(), 1.5);
  EXPECT_EQ(acc.num_charges(), 1u);
}

TEST(AccountantTest, SequentialCompositionAccumulates) {
  PrivacyAccountant acc(1.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(acc.Charge(0.1, "q").ok()) << "charge " << i;
  }
  EXPECT_NEAR(acc.spent_epsilon(), 1.0, 1e-9);
  // Budget is now exhausted.
  EXPECT_EQ(acc.Charge(0.1, "over").code(), StatusCode::kBudgetExhausted);
}

TEST(AccountantTest, OverchargeRejectedAndNotDebited) {
  PrivacyAccountant acc(1.0);
  EXPECT_EQ(acc.Charge(1.5, "big").code(), StatusCode::kBudgetExhausted);
  EXPECT_DOUBLE_EQ(acc.spent_epsilon(), 0.0);
  EXPECT_EQ(acc.num_charges(), 0u);
}

TEST(AccountantTest, ExactTotalChargeAdmitted) {
  PrivacyAccountant acc(1.0);
  EXPECT_TRUE(acc.Charge(1.0, "all").ok());
  EXPECT_DOUBLE_EQ(acc.remaining_epsilon(), 0.0);
}

TEST(AccountantTest, RejectsNonPositiveCharges) {
  PrivacyAccountant acc(1.0);
  EXPECT_EQ(acc.Charge(0.0, "zero").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(acc.Charge(-0.5, "neg").code(), StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(acc.spent_epsilon(), 0.0);
}

TEST(AccountantTest, LedgerRecordsLabelsInOrder) {
  PrivacyAccountant acc(5.0);
  ASSERT_TRUE(acc.Charge(1.0, "alpha").ok());
  ASSERT_TRUE(acc.Charge(2.0, "beta").ok());
  auto charges = acc.charges();
  ASSERT_EQ(charges.size(), 2u);
  EXPECT_EQ(charges[0].label, "alpha");
  EXPECT_DOUBLE_EQ(charges[0].epsilon, 1.0);
  EXPECT_EQ(charges[1].label, "beta");
  EXPECT_DOUBLE_EQ(charges[1].epsilon, 2.0);
}

using Pairs = std::vector<std::pair<std::string, double>>;

void ExpectPairs(const std::vector<BudgetCharge>& got, const Pairs& want,
                 std::size_t first, const std::string& what) {
  ASSERT_EQ(got.size(), want.size() - std::min(first, want.size())) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].label, want[first + i].first) << what << " at " << i;
    ASSERT_EQ(got[i].epsilon, want[first + i].second) << what << " at " << i;
  }
}

std::string SeventeenDigits(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

TEST(AccountantTest, MillionChargesOverFourLabelsStoreFourLabels) {
  const std::string labels[] = {"mean [tight]", "quantile [tight]",
                                "histogram [tight]", "trimmed_mean [tight]"};
  PrivacyAccountant acc(1e9);
  Rng rng(5);
  Pairs tail;
  double sum = 0.0;
  constexpr std::size_t kCharges = 1000000;
  for (std::size_t i = 0; i < kCharges; ++i) {
    const std::string& label = labels[rng.UniformUint64(4)];
    const double epsilon = rng.UniformDouble(1e-4, 1.0);
    ASSERT_TRUE(acc.Charge(epsilon, label).ok());
    sum += epsilon;
    if (i >= kCharges - 1000) tail.emplace_back(label, epsilon);
  }
  EXPECT_EQ(acc.num_labels(), 4u);
  EXPECT_EQ(acc.num_charges(), kCharges);
  EXPECT_EQ(acc.spent_epsilon(), sum);
  EXPECT_EQ(SeventeenDigits(acc.Totals().spent_epsilon), SeventeenDigits(sum));
  ExpectPairs(acc.ChargesSince(kCharges - 1000), tail, 0, "ChargesSince");
  const RecentCharges recent = acc.Recent(1000);
  EXPECT_EQ(recent.totals.spent_epsilon, sum);
  ExpectPairs(recent.recent, tail, 0, "Recent");
}

TEST(AccountantTest, CopiesReproduceEveryChargeInOrder) {
  // Enough distinct labels to rehash the label table many times; short
  // ones, long ones and the empty label.
  std::vector<std::string> pool = {"", "x"};
  for (int i = 0; i < 700; ++i) {
    std::string label = i % 2 == 0 ? "q" : "a label longer than sso ";
    label += std::to_string(i);
    pool.push_back(label);
  }
  PrivacyAccountant acc(1e9);
  Rng rng(6);
  Pairs want;
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const std::string& label = pool[rng.UniformUint64(pool.size())];
    const double epsilon = rng.UniformDouble(1e-3, 2.0);
    ASSERT_TRUE(acc.Charge(epsilon, label).ok());
    want.emplace_back(label, epsilon);
    sum += epsilon;
  }
  ExpectPairs(acc.charges(), want, 0, "charges");
  const AccountantSnapshot snapshot = acc.Snapshot();
  EXPECT_EQ(snapshot.spent_epsilon, sum);
  EXPECT_EQ(snapshot.total_epsilon, 1e9);
  ExpectPairs(snapshot.charges, want, 0, "Snapshot");
  for (std::size_t first : {0u, 1u, 2500u, 4999u, 5000u, 6000u}) {
    ExpectPairs(acc.ChargesSince(first), want, first,
                "ChargesSince " + std::to_string(first));
  }
  for (std::size_t limit : {0u, 1u, 100u, 5000u, 10000u}) {
    const RecentCharges recent = acc.Recent(limit);
    EXPECT_EQ(recent.totals.num_charges, 5000u);
    EXPECT_EQ(recent.totals.spent_epsilon, sum);
    ExpectPairs(recent.recent, want, 5000 - std::min<std::size_t>(limit, 5000),
                "Recent " + std::to_string(limit));
  }
}

TEST(AccountantTest, RefusedChargeAddsNoLabel) {
  PrivacyAccountant acc(1.0);
  ASSERT_TRUE(acc.Charge(0.5, "kept").ok());
  EXPECT_FALSE(acc.Charge(0.75, "refused").ok());
  EXPECT_FALSE(acc.Charge(-1.0, "invalid").ok());
  EXPECT_EQ(acc.num_labels(), 1u);
  ASSERT_TRUE(acc.Charge(0.25, "kept").ok());
  EXPECT_EQ(acc.num_labels(), 1u);
  EXPECT_EQ(acc.num_charges(), 2u);
}

TEST(AccountantTest, ConcurrentChargesNeverOverdraw) {
  PrivacyAccountant acc(10.0);
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 1000;
  // 8 * 1000 * 0.01 = 80 attempted; only 1000 of them (10 / 0.01) can land.
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&acc, &successes] {
      for (int i = 0; i < kChargesPerThread; ++i) {
        if (acc.Charge(0.01, "c").ok()) successes.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(acc.spent_epsilon(), 10.0 + 1e-6);
  EXPECT_NEAR(successes.load(), 1000, 1);
  EXPECT_EQ(static_cast<std::size_t>(successes.load()), acc.num_charges());
}

}  // namespace
}  // namespace dp
}  // namespace gupt

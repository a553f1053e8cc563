// Fault-injection coverage for the chamber stack: every failpoint in the
// exec layer is driven through its full blast radius — injected program
// faults degrade to the clamped fallback (the DP-preserving path of §4.1 /
// §6.2), injected latency consumes the real deadline, and infrastructure
// faults surface as errors rather than silent data loss.

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/queries.h"
#include "common/rng.h"
#include "exec/chamber.h"
#include "exec/computation_manager.h"
#include "exec/process_chamber.h"
#include "testing/failpoints/failpoints.h"

namespace gupt {
namespace {

using failpoints::Action;
using failpoints::CompiledIn;
using failpoints::Config;
using failpoints::ScopedFailpoint;

Dataset OneColumn(std::vector<double> values) {
  return Dataset::FromColumn(values).value();
}

ProgramFactory Constant(double value) {
  return MakeProgramFactory("const", 1, [value](const Dataset&) -> Result<Row> {
    return Row{value};
  });
}

Config FireAlways(Action action = Action::kError) {
  Config config;
  config.every_nth = 1;
  config.action = action;
  return config;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CompiledIn()) {
      GTEST_SKIP() << "built with GUPT_FAILPOINTS_ENABLED=OFF";
    }
    failpoints::DisarmAll();
  }
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(FaultInjectionTest, ChamberEntryFaultFailsTheRun) {
  ScopedFailpoint fp("exec.chamber.entry", FireAlways());
  ExecutionChamber chamber{ChamberPolicy{}};
  auto run = chamber.Execute(Constant(1.0), OneColumn({1, 2}), Row{0.0});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(failpoints::IsInjected(run.status()));
  EXPECT_EQ(fp.fires(), 1u);
}

TEST_F(FaultInjectionTest, ChamberProgramFaultFallsBackInsideRange) {
  // An injected program fault must take the §6.2 path: the output is the
  // data-independent fallback, never garbage.
  ScopedFailpoint fp("exec.chamber.program", FireAlways());
  ExecutionChamber chamber{ChamberPolicy{}};
  auto run = chamber.Execute(Constant(99.0), OneColumn({1, 2}), Row{0.5});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.5}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kPolicyViolation);
  EXPECT_TRUE(failpoints::IsInjected(run->program_status));
}

TEST_F(FaultInjectionTest, ChamberCrashActionAlsoFallsBack) {
  // The in-thread chamber cannot crash safely; kCrash degrades to the
  // same fallback path.
  ScopedFailpoint fp("exec.chamber.program", FireAlways(Action::kCrash));
  ExecutionChamber chamber{ChamberPolicy{}};
  auto run = chamber.Execute(Constant(99.0), OneColumn({1}), Row{0.25});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.25}));
}

TEST_F(FaultInjectionTest, InjectedLatencyTripsTheDeadline) {
  // The delay fires on the chamber's worker thread, so it consumes the
  // real deadline budget exactly like a hung program.
  Config config = FireAlways(Action::kNoop);
  config.delay = std::chrono::milliseconds(200);
  ScopedFailpoint fp("exec.chamber.program", config);
  ChamberPolicy policy;
  policy.deadline = std::chrono::microseconds(20000);  // 20ms
  ExecutionChamber chamber{policy};
  auto run = chamber.Execute(Constant(1.0), OneColumn({1}), Row{7.0});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->deadline_exceeded);
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{7.0}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, ChamberExitFaultFailsAfterTheProgramRan) {
  ScopedFailpoint fp("exec.chamber.exit", FireAlways());
  ExecutionChamber chamber{ChamberPolicy{}};
  auto run = chamber.Execute(Constant(1.0), OneColumn({1}), Row{0.0});
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(failpoints::IsInjected(run.status()));
}

TEST_F(FaultInjectionTest, ProcessChamberEntryFaultFailsTheRun) {
  ScopedFailpoint fp("exec.process_chamber.entry", FireAlways());
  ProcessChamber chamber{ChamberPolicy{}};
  auto run = chamber.Execute(Constant(1.0), OneColumn({1}), Row{0.0});
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(failpoints::IsInjected(run.status()));
}

TEST_F(FaultInjectionTest, ChildCrashIsObservedAsEofAndFallsBack) {
  // The child _exits before writing a frame byte: the parent sees EOF,
  // exactly like a real SIGSEGV, and substitutes the fallback.
  ScopedFailpoint fp("exec.process_chamber.child",
                     FireAlways(Action::kCrash));
  ProcessChamber chamber{ChamberPolicy{}};
  auto run = chamber.Execute(Constant(99.0), OneColumn({1, 2}), Row{0.5});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.5}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kPolicyViolation);
  EXPECT_EQ(fp.fires(), 1u);
}

TEST_F(FaultInjectionTest, ChildErrorReportsAProgramErrorFrame) {
  ScopedFailpoint fp("exec.process_chamber.child", FireAlways());
  ProcessChamber chamber{ChamberPolicy{}};
  auto run = chamber.Execute(Constant(99.0), OneColumn({1}), Row{0.5});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{0.5}));
  EXPECT_EQ(run->program_status.code(), StatusCode::kNumericalError);
}

TEST_F(FaultInjectionTest, ChildDelayTripsTheProcessDeadline) {
  Config config = FireAlways(Action::kNoop);
  config.delay = std::chrono::milliseconds(300);
  ScopedFailpoint fp("exec.process_chamber.child", config);
  ChamberPolicy policy;
  policy.process_isolation = true;
  policy.deadline = std::chrono::microseconds(30000);  // 30ms
  ProcessChamber chamber{policy};
  auto run = chamber.Execute(Constant(1.0), OneColumn({1}), Row{3.0});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->deadline_exceeded);
  EXPECT_TRUE(run->used_fallback);
  EXPECT_EQ(run->output, (Row{3.0}));
}

TEST_F(FaultInjectionTest, ChildEveryNthIsDrawnInTheParent) {
  // Determinism across forks: the verdict is drawn pre-fork by the
  // parent, so every-2nd means runs 2 and 4 crash — exactly.
  Config config = FireAlways(Action::kCrash);
  config.every_nth = 2;
  ScopedFailpoint fp("exec.process_chamber.child", config);
  ProcessChamber chamber{ChamberPolicy{}};
  std::vector<bool> fell_back;
  for (int i = 0; i < 4; ++i) {
    auto run = chamber.Execute(Constant(8.0), OneColumn({1}), Row{0.0});
    ASSERT_TRUE(run.ok());
    fell_back.push_back(run->used_fallback);
  }
  EXPECT_EQ(fell_back, (std::vector<bool>{false, true, false, true}));
  EXPECT_EQ(fp.fires(), 2u);
  EXPECT_EQ(fp.evaluations(), 4u);
}

TEST_F(FaultInjectionTest, ManagerBlockFaultFailsTheWholeFanOut) {
  // An injected manager fault is infrastructure, not program misbehaviour:
  // it must error the fan-out rather than silently substitute data.
  Config config;
  config.every_nth = 3;
  ScopedFailpoint fp("exec.computation_manager.block", config);
  ComputationManager manager(nullptr, ChamberPolicy{});
  Rng rng(1);
  BlockSet blocks =
      PartitionDisjointView(OneColumn({1, 2, 3, 4, 5, 6, 7, 8}), 4, &rng)
          .value();
  auto report = manager.ExecuteOnBlocks(Constant(1.0), blocks, Row{0.0});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(failpoints::IsInjected(report.status()));
  EXPECT_EQ(fp.evaluations(), 4u);
  EXPECT_EQ(fp.fires(), 1u);
}

TEST_F(FaultInjectionTest, EveryFourthBlockCrashYieldsExactFallbackCount) {
  // 8 blocks, every-4th program fault => exactly 2 fallbacks, and every
  // block output is either the true constant or the fallback — both
  // inside the clamp range. This is the per-fanout version of the
  // mechanism-level guarantee asserted end-to-end in
  // tests/core/pipeline_fault_test.cc.
  Config config;
  config.every_nth = 4;
  ScopedFailpoint fp("exec.chamber.program", config);
  ComputationManager manager(nullptr, ChamberPolicy{});
  Rng rng(2);
  std::vector<double> values(64, 3.0);
  BlockSet blocks = PartitionDisjointView(OneColumn(values), 8, &rng).value();
  const Row fallback{0.5};
  auto report = manager.ExecuteOnBlocks(Constant(3.0), blocks, fallback);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fallback_count, 2u);
  EXPECT_EQ(fp.fires(), 2u);
  EXPECT_EQ(fp.evaluations(), 8u);
  std::size_t fallbacks_seen = 0;
  for (const ChamberRun& run : report->runs) {
    ASSERT_EQ(run.output.size(), 1u);
    EXPECT_TRUE(run.output[0] == 3.0 || run.output[0] == 0.5)
        << "block output escaped the known-value set: " << run.output[0];
    if (run.used_fallback) ++fallbacks_seen;
  }
  EXPECT_EQ(fallbacks_seen, 2u);
}

}  // namespace
}  // namespace gupt

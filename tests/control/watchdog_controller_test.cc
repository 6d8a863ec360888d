#include "wsq/control/watchdog_controller.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "wsq/control/controller_factory.h"
#include "wsq/control/fixed_controller.h"

namespace wsq {
namespace {

/// A deliberately broken control law: emits a scripted sequence of raw
/// outputs (possibly absurd) and records what measurements it was fed.
class ScriptedController : public Controller {
 public:
  explicit ScriptedController(std::vector<int64_t> outputs)
      : outputs_(std::move(outputs)) {}

  int64_t initial_block_size() const override { return initial_; }
  int64_t NextBlockSize(double response_time_ms) override {
    fed_.push_back(response_time_ms);
    ++steps_;
    if (outputs_.empty()) return 1000;
    const int64_t out = outputs_[next_ % outputs_.size()];
    ++next_;
    return out;
  }
  int64_t adaptivity_steps() const override { return steps_; }
  void Reset() override {
    ++resets_;
    next_ = 0;
  }
  std::string name() const override { return "scripted"; }

  int64_t initial_ = 1000;
  std::vector<int64_t> outputs_;
  std::vector<double> fed_;
  size_t next_ = 0;
  int64_t steps_ = 0;
  int64_t resets_ = 0;
};

TEST(WatchdogControllerTest, PassesThroughSaneDecisions) {
  auto inner = std::make_unique<ScriptedController>(
      std::vector<int64_t>{500, 900, 1500});
  WatchdogController watchdog(std::move(inner), WatchdogConfig{});
  EXPECT_EQ(watchdog.initial_block_size(), 1000);
  EXPECT_EQ(watchdog.NextBlockSize(10.0), 500);
  EXPECT_EQ(watchdog.NextBlockSize(12.0), 900);
  EXPECT_EQ(watchdog.NextBlockSize(11.0), 1500);
  EXPECT_EQ(watchdog.bad_inputs(), 0);
  EXPECT_EQ(watchdog.clamped_outputs(), 0);
  EXPECT_EQ(watchdog.watchdog_resets(), 0);
  EXPECT_EQ(watchdog.name(), "watchdog(scripted)");
}

TEST(WatchdogControllerTest, ClampsOutOfRangeOutputs) {
  auto inner = std::make_unique<ScriptedController>(
      std::vector<int64_t>{-50, 1000000});
  WatchdogController watchdog(std::move(inner), WatchdogConfig{});
  EXPECT_EQ(watchdog.NextBlockSize(10.0), 100);    // limits.min_size
  EXPECT_EQ(watchdog.NextBlockSize(10.0), 20000);  // limits.max_size
  EXPECT_EQ(watchdog.clamped_outputs(), 2);
}

TEST(WatchdogControllerTest, ClampsInitialCommand) {
  auto inner =
      std::make_unique<ScriptedController>(std::vector<int64_t>{1000});
  inner->initial_ = 999999;
  WatchdogController watchdog(std::move(inner), WatchdogConfig{});
  EXPECT_EQ(watchdog.initial_block_size(), 20000);
}

TEST(WatchdogControllerTest, SanitizesNonFiniteMeasurements) {
  auto inner =
      std::make_unique<ScriptedController>(std::vector<int64_t>{1000});
  ScriptedController* raw = inner.get();
  WatchdogController watchdog(std::move(inner), WatchdogConfig{});

  watchdog.NextBlockSize(25.0);
  watchdog.NextBlockSize(std::numeric_limits<double>::quiet_NaN());
  watchdog.NextBlockSize(std::numeric_limits<double>::infinity());
  watchdog.NextBlockSize(-3.0);

  EXPECT_EQ(watchdog.bad_inputs(), 3);
  ASSERT_EQ(raw->fed_.size(), 4u);
  // The inner law never sees the poison — each bad measurement is
  // replaced with the last good one.
  EXPECT_DOUBLE_EQ(raw->fed_[1], 25.0);
  EXPECT_DOUBLE_EQ(raw->fed_[2], 25.0);
  EXPECT_DOUBLE_EQ(raw->fed_[3], 25.0);
  for (double fed : raw->fed_) EXPECT_TRUE(std::isfinite(fed));
}

TEST(WatchdogControllerTest, BadMeasurementBeforeAnyGoodOneUsesFallback) {
  auto inner =
      std::make_unique<ScriptedController>(std::vector<int64_t>{1000});
  ScriptedController* raw = inner.get();
  WatchdogController watchdog(std::move(inner), WatchdogConfig{});
  watchdog.NextBlockSize(std::numeric_limits<double>::quiet_NaN());
  ASSERT_EQ(raw->fed_.size(), 1u);
  EXPECT_DOUBLE_EQ(raw->fed_[0], 1.0);
}

TEST(WatchdogControllerTest, SustainedDivergenceTriggersReset) {
  WatchdogConfig config;
  config.window = 4;
  config.max_clamps_in_window = 3;
  config.min_steps_between_resets = 4;
  auto inner = std::make_unique<ScriptedController>(
      std::vector<int64_t>{-1, -1, -1, -1, -1, -1});
  ScriptedController* raw = inner.get();
  WatchdogController watchdog(std::move(inner), config);

  watchdog.NextBlockSize(10.0);
  watchdog.NextBlockSize(10.0);
  watchdog.NextBlockSize(10.0);
  EXPECT_EQ(raw->resets_, 0);
  // Fourth clamp in the window and past the refractory period: reset,
  // and the command restarts from the (clamped) initial size.
  const int64_t after_reset = watchdog.NextBlockSize(10.0);
  EXPECT_EQ(raw->resets_, 1);
  EXPECT_EQ(watchdog.watchdog_resets(), 1);
  EXPECT_EQ(after_reset, 1000);
}

TEST(WatchdogControllerTest, RefractoryPeriodSpacesResets) {
  WatchdogConfig config;
  config.window = 2;
  config.max_clamps_in_window = 2;
  config.min_steps_between_resets = 6;
  auto inner = std::make_unique<ScriptedController>(
      std::vector<int64_t>{-1});  // diverges on every step
  ScriptedController* raw = inner.get();
  WatchdogController watchdog(std::move(inner), config);

  for (int i = 0; i < 12; ++i) watchdog.NextBlockSize(10.0);
  // Divergence is continuous, but resets are spaced >= 6 steps apart:
  // the first fires at step 6, the second at step 12.
  EXPECT_EQ(raw->resets_, 2);
}

TEST(WatchdogControllerTest, ResetClearsCountersAndForwards) {
  auto inner = std::make_unique<ScriptedController>(
      std::vector<int64_t>{-1, 1000});
  ScriptedController* raw = inner.get();
  WatchdogController watchdog(std::move(inner), WatchdogConfig{});
  watchdog.NextBlockSize(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(watchdog.bad_inputs(), 1);
  EXPECT_EQ(watchdog.clamped_outputs(), 1);
  watchdog.Reset();
  EXPECT_EQ(raw->resets_, 1);
  EXPECT_EQ(watchdog.bad_inputs(), 0);
  EXPECT_EQ(watchdog.clamped_outputs(), 0);
  EXPECT_EQ(watchdog.watchdog_resets(), 0);
}

TEST(WatchdogControllerTest, DebugStateExposesCountersAndInnerState) {
  auto inner =
      std::make_unique<ScriptedController>(std::vector<int64_t>{-1});
  WatchdogController watchdog(std::move(inner), WatchdogConfig{});
  watchdog.NextBlockSize(std::numeric_limits<double>::quiet_NaN());

  const StateSnapshot state = watchdog.DebugState();
  EXPECT_EQ(state.Number("bad_inputs").value(), 1.0);
  EXPECT_EQ(state.Number("clamped_outputs").value(), 1.0);
  EXPECT_EQ(state.Number("watchdog_resets").value(), 0.0);
  // Inner controller state is nested under the "inner_" prefix.
  ASSERT_NE(state.Find("inner_name"), nullptr);
  EXPECT_EQ(*state.Find("inner_name"), "scripted");
}

TEST(WatchdogControllerTest, AdaptivityStepsForwardToInner) {
  auto inner =
      std::make_unique<ScriptedController>(std::vector<int64_t>{500});
  WatchdogController watchdog(std::move(inner), WatchdogConfig{});
  EXPECT_EQ(watchdog.adaptivity_steps(), 0);
  watchdog.NextBlockSize(10.0);
  watchdog.NextBlockSize(10.0);
  EXPECT_EQ(watchdog.adaptivity_steps(), 2);
}

TEST(WithWatchdogFactoryTest, WrapsAndPropagatesNull) {
  ControllerFactoryFn wrapped =
      WithWatchdog(FixedFactory(700));
  std::unique_ptr<Controller> controller = wrapped();
  ASSERT_NE(controller, nullptr);
  EXPECT_EQ(controller->name(), "watchdog(fixed_700)");

  ControllerFactoryFn null_inner = WithWatchdog([] {
    return std::unique_ptr<Controller>();
  });
  EXPECT_EQ(null_inner(), nullptr);
}

}  // namespace
}  // namespace wsq

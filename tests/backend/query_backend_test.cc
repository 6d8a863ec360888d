// Conformance tests for the QueryBackend adapters: whichever stack
// executes the query, the same controller must drive the paper's
// Algorithm 1 pull loop and report a consistent canonical RunTrace.

#include "wsq/backend/query_backend.h"

#include <gtest/gtest.h>

#include <memory>

#include "wsq/backend/empirical_backend.h"
#include "wsq/backend/eventsim_backend.h"
#include "wsq/backend/experiment.h"
#include "wsq/backend/profile_backend.h"
#include "wsq/control/controller_factory.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/netsim/presets.h"
#include "wsq/relation/tpch_gen.h"

namespace wsq {
namespace {

ParametricProfile::Params SmallProfile() {
  ParametricProfile::Params p;
  p.name = "small";
  p.dataset_tuples = 20000;
  p.overhead_ms = 50.0;
  p.per_tuple_ms = 0.5;
  return p;
}

std::shared_ptr<const ResponseProfile> SharedSmallProfile() {
  return std::make_shared<ParametricProfile>(SmallProfile());
}

EventSimConfig SmallEventConfig() {
  EventSimConfig config;
  config.jitter_sigma = 0.05;
  config.seed = 3;
  return config;
}

EmpiricalSetup SmallEmpiricalSetup() {
  TpchGenOptions gen;
  gen.scale = 0.02;  // 3000 customers
  EmpiricalSetup setup;
  setup.table = GenerateCustomer(gen).value();
  setup.query.table_name = "customer";
  setup.link = Lan1Gbps();
  setup.seed = 5;
  return setup;
}

/// The shared conformance contract: a fixed controller drains the
/// backend's query and the trace upholds every RunTrace invariant.
void ExpectConformant(QueryBackend& backend, int64_t expected_tuples) {
  FixedController controller(700);
  Result<RunTrace> trace = backend.RunQuery(&controller, RunSpec{});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace.value().backend_name, backend.name());
  EXPECT_EQ(trace.value().controller_name, "fixed_700");
  EXPECT_EQ(trace.value().total_tuples, expected_tuples);
  // 700 does not divide the datasets: the last block must be short.
  EXPECT_EQ(trace.value().total_blocks, (expected_tuples + 699) / 700);
  EXPECT_GT(trace.value().total_time_ms, 0.0);
  Status consistent = trace.value().CheckConsistent();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
  // Every block but the ragged last one is commanded at full size.
  // (Backends differ on the last request: the event sim clamps it to the
  // remaining tuples client-side, the others request full size and
  // receive a short block.)
  for (size_t i = 0; i + 1 < trace.value().steps.size(); ++i) {
    EXPECT_EQ(trace.value().steps[i].requested_size, 700);
    EXPECT_EQ(trace.value().steps[i].received_tuples, 700);
  }
}

TEST(QueryBackendConformanceTest, ProfileBackend) {
  ProfileBackend backend(SharedSmallProfile(), SimOptions{});
  EXPECT_EQ(backend.name(), "profile");
  ExpectConformant(backend, 20000);
}

TEST(QueryBackendConformanceTest, EventSimBackend) {
  EventSimBackend backend(SmallEventConfig(), /*dataset_tuples=*/10000);
  EXPECT_EQ(backend.name(), "eventsim");
  ExpectConformant(backend, 10000);
}

TEST(QueryBackendConformanceTest, EmpiricalBackend) {
  EmpiricalBackend backend(SmallEmpiricalSetup());
  EXPECT_EQ(backend.name(), "empirical");
  ExpectConformant(backend, 3000);
}

TEST(QueryBackendConformanceTest, AdaptiveControllerTracksAdaptivitySteps) {
  // The canonical trace must carry adaptivity steps on every backend;
  // with a one-measurement-per-step controller they grow monotonically.
  std::vector<std::unique_ptr<QueryBackend>> backends;
  backends.push_back(
      std::make_unique<ProfileBackend>(SharedSmallProfile(), SimOptions{}));
  backends.push_back(std::make_unique<EventSimBackend>(SmallEventConfig(),
                                                       /*dataset_tuples=*/20000));
  backends.push_back(
      std::make_unique<EmpiricalBackend>(SmallEmpiricalSetup()));
  for (const auto& backend : backends) {
    std::unique_ptr<Controller> controller =
        ControllerFactory::FromName("constant").value();
    Result<RunTrace> trace = backend->RunQuery(controller.get(), RunSpec{});
    ASSERT_TRUE(trace.ok()) << backend->name() << ": "
                            << trace.status().ToString();
    ASSERT_GT(trace.value().steps.size(), 1u) << backend->name();
    EXPECT_TRUE(trace.value().CheckConsistent().ok()) << backend->name();
    EXPECT_GT(trace.value().steps.back().adaptivity_step, 0)
        << backend->name();
  }
}

TEST(QueryBackendTest, NullControllerRejectedEverywhere) {
  ProfileBackend profile(SharedSmallProfile(), SimOptions{});
  EventSimBackend eventsim(SmallEventConfig(), 1000);
  EmpiricalBackend empirical(SmallEmpiricalSetup());
  for (QueryBackend* backend :
       std::initializer_list<QueryBackend*>{&profile, &eventsim, &empirical}) {
    EXPECT_FALSE(backend->RunQuery(nullptr, RunSpec{}).ok());
  }
}

TEST(QueryBackendTest, SeedOverrideChangesNoiseReproducibly) {
  SimOptions options;
  options.noise_amplitude = 0.2;
  options.seed = 1;
  ProfileBackend backend(SharedSmallProfile(), options);
  FixedController controller(1000);
  RunSpec seed_a;
  seed_a.seed = 17;
  RunSpec seed_b;
  seed_b.seed = 18;
  const double time_a =
      backend.RunQuery(&controller, seed_a).value().total_time_ms;
  const double time_b =
      backend.RunQuery(&controller, seed_b).value().total_time_ms;
  const double time_a_again =
      backend.RunQuery(&controller, seed_a).value().total_time_ms;
  EXPECT_NE(time_a, time_b);
  EXPECT_DOUBLE_EQ(time_a, time_a_again);
}

TEST(QueryBackendTest, OnlyProfileBackendRunsSchedules) {
  ParametricProfile profile(SmallProfile());
  RunSpec spec;
  spec.schedule = {&profile};
  spec.steps_per_profile = 5;
  spec.total_steps = 12;

  ProfileBackend profile_backend(nullptr, SimOptions{});
  EXPECT_TRUE(profile_backend.SupportsSchedules());
  FixedController controller(1000);
  Result<RunTrace> trace = profile_backend.RunQuery(&controller, spec);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().total_blocks, 12);
  EXPECT_TRUE(trace.value().CheckConsistent().ok());

  EventSimBackend eventsim(SmallEventConfig(), 1000);
  EmpiricalBackend empirical(SmallEmpiricalSetup());
  EXPECT_FALSE(eventsim.SupportsSchedules());
  EXPECT_FALSE(empirical.SupportsSchedules());
  EXPECT_EQ(eventsim.RunQuery(&controller, spec).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(empirical.RunQuery(&controller, spec).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryBackendTest, ScheduleWithoutProfileFailsOnProfileBackend) {
  ProfileBackend backend(nullptr, SimOptions{});
  FixedController controller(1000);
  EXPECT_EQ(backend.RunQuery(&controller, RunSpec{}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryBackendTest, BackgroundClientsSlowTheTrackedQuery) {
  EventSimConfig config;
  config.seed = 9;
  EventSimBackend solo(config, 30000);
  std::vector<BackgroundClientSpec> crowd;
  crowd.push_back({FixedFactory(3000), 30000, 0.0});
  crowd.push_back({FixedFactory(3000), 30000, 0.0});
  EventSimBackend contended(config, 30000, 0.0, std::move(crowd));

  FixedController a(3000);
  FixedController b(3000);
  const double solo_ms = solo.RunQuery(&a, RunSpec{}).value().total_time_ms;
  const double contended_ms =
      contended.RunQuery(&b, RunSpec{}).value().total_time_ms;
  EXPECT_GT(contended_ms, solo_ms);
}

TEST(GenericRunRepeatedTest, WorksOnEventSimBackend) {
  EventSimBackend backend(SmallEventConfig(), 20000);
  Result<RepeatedRunSummary> summary =
      RunRepeated(FixedFactory(2000), backend, 3, /*base_seed=*/21);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().controller_name, "fixed_2000");
  EXPECT_EQ(summary.value().total_time_ms.count(), 3u);
  // Jitter across per-run seeds -> nonzero spread.
  EXPECT_GT(summary.value().total_time_ms.stddev(), 0.0);
  EXPECT_EQ(summary.value().mean_decision_per_step.size(), 10u);
}

TEST(GenericRunRepeatedTest, WorksOnEmpiricalBackend) {
  EmpiricalBackend backend(SmallEmpiricalSetup());
  Result<RepeatedRunSummary> summary =
      RunRepeated(NamedFactory("hybrid"), backend, 2, /*base_seed=*/7);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().total_time_ms.count(), 2u);
  EXPECT_GT(summary.value().final_block_size.mean(), 0.0);
}

TEST(GenericRunRepeatedTest, ScheduleRejectedOnNonProfileBackend) {
  ParametricProfile profile(SmallProfile());
  EventSimBackend backend(SmallEventConfig(), 1000);
  Result<RepeatedRunSummary> summary = RunRepeatedSchedule(
      FixedFactory(1000), backend, {&profile}, 10, 30, 2, /*base_seed=*/1);
  EXPECT_EQ(summary.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GenericRunRepeatedTest, NamedFactoryUnknownNameSurfacesError) {
  ProfileBackend backend(SharedSmallProfile(), SimOptions{});
  Result<RepeatedRunSummary> summary =
      RunRepeated(NamedFactory("no_such_controller"), backend, 2, 1);
  EXPECT_EQ(summary.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wsq

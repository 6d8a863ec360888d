// Determinism contract of the parallel experiment engine: the RunTrace
// stream and every repeated-run summary are a pure function of
// (backend config, controller factory, seeds) — never of the lane
// count. Serial (--jobs=1, the historical path) and parallel fan-out
// must agree byte for byte on all three backends.

#include "wsq/exec/parallel_runner.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "wsq/backend/empirical_backend.h"
#include "wsq/backend/eventsim_backend.h"
#include "wsq/backend/experiment.h"
#include "wsq/backend/profile_backend.h"
#include "wsq/control/controller_factory.h"
#include "wsq/exec/exec_context.h"
#include "wsq/netsim/presets.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/sim/profile.h"

namespace wsq::exec {
namespace {

/// Exact textual image of a trace stream: doubles rendered as hex
/// floats ("%a"), so two fingerprints match iff every field matches to
/// the last bit. This is the "byte-identical" half of the acceptance
/// criterion, applied to the in-memory traces the figure code folds.
std::string Fingerprint(const std::vector<RunTrace>& traces) {
  std::string out;
  char buf[160];
  for (const RunTrace& trace : traces) {
    std::snprintf(buf, sizeof(buf), "%s|%s|%a|%" PRId64 "|%" PRId64
                                    "|%" PRId64 "\n",
                  trace.backend_name.c_str(), trace.controller_name.c_str(),
                  trace.total_time_ms, trace.total_blocks, trace.total_tuples,
                  trace.total_retries);
    out += buf;
    for (const RunStep& s : trace.steps) {
      std::snprintf(buf, sizeof(buf),
                    "  %" PRId64 "|%" PRId64 "|%" PRId64 "|%a|%a|%" PRId64
                    "|%" PRId64 "\n",
                    s.step, s.requested_size, s.received_tuples,
                    s.per_tuple_ms, s.block_time_ms, s.retries,
                    s.adaptivity_step);
      out += buf;
    }
  }
  return out;
}

std::string SummaryFingerprint(const RepeatedRunSummary& s) {
  std::string out = s.controller_name;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "|%a|%a|%a|%a|%a|%a", s.total_time_ms.mean(),
                s.total_time_ms.stddev(), s.total_time_ms.min(),
                s.total_time_ms.max(), s.final_block_size.mean(),
                s.final_block_size.stddev());
  out += buf;
  for (double d : s.mean_decision_per_step) {
    std::snprintf(buf, sizeof(buf), "|%a", d);
    out += buf;
  }
  return out;
}

std::shared_ptr<const ResponseProfile> NoisyProfile() {
  ParametricProfile::Params p;
  p.name = "parallel_test";
  p.dataset_tuples = 20000;
  p.overhead_ms = 50.0;
  p.per_tuple_ms = 0.5;
  return std::make_shared<ParametricProfile>(p);
}

SimOptions NoisyOptions() {
  SimOptions options;
  options.noise_amplitude = 0.2;  // per-run seeds must matter
  options.seed = 11;
  return options;
}

EventSimConfig JitteryEventConfig() {
  EventSimConfig config;
  config.jitter_sigma = 0.08;
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

/// Shared check: serial and 4-lane runs of an adaptive controller yield
/// bit-identical trace streams.
void ExpectParallelMatchesSerial(QueryBackend& backend, int runs) {
  const ControllerFactoryFn factory = NamedFactory("hybrid");
  Result<std::vector<RunTrace>> serial = RunTraces(
      factory, backend, RunSpec{}, runs, /*base_seed=*/17,
      /*seed_stride=*/104729, /*jobs=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  Result<std::vector<RunTrace>> parallel = RunTraces(
      factory, backend, RunSpec{}, runs, /*base_seed=*/17,
      /*seed_stride=*/104729, /*jobs=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(serial.value().size(), static_cast<size_t>(runs));
  ASSERT_EQ(parallel.value().size(), static_cast<size_t>(runs));
  EXPECT_EQ(Fingerprint(serial.value()), Fingerprint(parallel.value()));

  // The seeds genuinely vary across runs: with noise/jitter on, at
  // least two runs must differ (guards against a fingerprint that
  // passes because the backend ignored the seed entirely).
  bool any_differ = false;
  for (int r = 1; r < runs; ++r) {
    if (serial.value()[r].total_time_ms !=
        serial.value()[0].total_time_ms) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ) << "per-run seeds had no effect";
}

TEST(ParallelRunnerTest, ProfileBackendParallelMatchesSerial) {
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  ExpectParallelMatchesSerial(backend, 8);
}

TEST(ParallelRunnerTest, EventSimBackendParallelMatchesSerial) {
  EventSimBackend backend(JitteryEventConfig(), /*dataset_tuples=*/20000);
  ExpectParallelMatchesSerial(backend, 6);
}

TEST(ParallelRunnerTest, EmpiricalBackendParallelMatchesSerial) {
  EmpiricalBackend backend(SmallEmpiricalSetup());
  ExpectParallelMatchesSerial(backend, 4);
}

TEST(ParallelRunnerTest, SeedOverrideReproducibleUnderManyLanes) {
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  const ControllerFactoryFn factory = NamedFactory("adaptive");

  Result<std::vector<RunTrace>> first = RunTraces(
      factory, backend, RunSpec{}, 8, /*base_seed=*/99, 104729, /*jobs=*/8);
  Result<std::vector<RunTrace>> second = RunTraces(
      factory, backend, RunSpec{}, 8, /*base_seed=*/99, 104729, /*jobs=*/8);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Fingerprint(first.value()), Fingerprint(second.value()));

  // A different base seed shifts every run's seed; the stream changes.
  Result<std::vector<RunTrace>> other = RunTraces(
      factory, backend, RunSpec{}, 8, /*base_seed=*/100, 104729, /*jobs=*/8);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(Fingerprint(first.value()), Fingerprint(other.value()));
}

TEST(ParallelRunnerTest, MoreLanesThanRunsIsFine) {
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  Result<std::vector<RunTrace>> traces = RunTraces(
      FixedFactory(700), backend, RunSpec{}, 2, 1, 104729, /*jobs=*/16);
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  EXPECT_EQ(traces.value().size(), 2u);
  for (const RunTrace& t : traces.value()) {
    EXPECT_TRUE(t.CheckConsistent().ok());
  }
}

TEST(ParallelRunnerTest, NullFactoryFailsOnEveryLaneCount) {
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  const ControllerFactoryFn broken = [] {
    return std::unique_ptr<Controller>();
  };
  for (int jobs : {1, 4}) {
    Result<std::vector<RunTrace>> traces =
        RunTraces(broken, backend, RunSpec{}, 4, 1, 104729, jobs);
    ASSERT_FALSE(traces.ok()) << "jobs=" << jobs;
    EXPECT_EQ(traces.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ParallelRunnerTest, ZeroRunsRejected) {
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  Result<std::vector<RunTrace>> traces =
      RunTraces(FixedFactory(700), backend, RunSpec{}, 0, 1, 104729, 4);
  EXPECT_FALSE(traces.ok());
}

TEST(ParallelRunnerTest, RunRepeatedSummaryInvariantUnderDefaultJobs) {
  // The figure-level check: the whole RunRepeated harness — traces plus
  // all folds — is invariant under exec::DefaultJobs(), which is what
  // --jobs wires through in the bench binaries.
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  const ControllerFactoryFn factory = NamedFactory("hybrid");

  Result<RepeatedRunSummary> serial =
      RunRepeated(factory, backend, /*runs=*/6, /*base_seed=*/11);
  ASSERT_TRUE(serial.ok());

  Result<RepeatedRunSummary> parallel = [&] {
    ScopedDefaultJobs scoped(8);
    return RunRepeated(factory, backend, /*runs=*/6, /*base_seed=*/11);
  }();
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(SummaryFingerprint(serial.value()),
            SummaryFingerprint(parallel.value()));
  EXPECT_EQ(serial.value().total_time_ms.count(),
            parallel.value().total_time_ms.count());
}

TEST(ParallelRunnerTest, ScheduleRunsMatchSerialUnderDefaultJobs) {
  // Schedules exercise the profile-switching path (paper Fig. 8); the
  // compatibility overload builds its own ProfileBackend internally, so
  // this also covers the profile clone path end to end.
  ParametricProfile::Params a = {};
  a.name = "sched_a";
  a.dataset_tuples = 20000;
  a.overhead_ms = 40.0;
  a.per_tuple_ms = 0.4;
  ParametricProfile pa(a);
  ParametricProfile::Params b = a;
  b.name = "sched_b";
  b.per_tuple_ms = 0.9;
  ParametricProfile pb(b);
  std::vector<const ResponseProfile*> schedule = {&pa, &pb};

  SimOptions options = NoisyOptions();
  Result<RepeatedRunSummary> serial = RunRepeatedSchedule(
      NamedFactory("hybrid"), schedule, /*steps_per_profile=*/20,
      /*total_steps=*/60, /*runs=*/5, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  Result<RepeatedRunSummary> parallel = [&] {
    ScopedDefaultJobs scoped(4);
    return RunRepeatedSchedule(NamedFactory("hybrid"), schedule, 20, 60, 5,
                               options);
  }();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(SummaryFingerprint(serial.value()),
            SummaryFingerprint(parallel.value()));
}

TEST(ParallelRunnerTest, CloneIsIndependentOfOriginal) {
  // A clone must replay the original's runs exactly (shared immutable
  // inputs, private mutable state) — the property the lane fan-out
  // relies on.
  ProfileBackend original(NoisyProfile(), NoisyOptions());
  std::unique_ptr<QueryBackend> clone = original.Clone();
  ASSERT_NE(clone, nullptr);

  RunSpec spec;
  spec.seed = 123;
  std::unique_ptr<Controller> c1 = NamedFactory("hybrid")();
  std::unique_ptr<Controller> c2 = NamedFactory("hybrid")();
  Result<RunTrace> from_original = original.RunQuery(c1.get(), spec);
  Result<RunTrace> from_clone = clone->RunQuery(c2.get(), spec);
  ASSERT_TRUE(from_original.ok());
  ASSERT_TRUE(from_clone.ok());
  EXPECT_EQ(Fingerprint({from_original.value()}),
            Fingerprint({from_clone.value()}));
}

}  // namespace
}  // namespace wsq::exec

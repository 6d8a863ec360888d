// Fault plans compose with the parallel experiment engine: every lane
// derives its fault RNG stream from the same per-run seed
// (base + run * stride) as the serial path, so chaos fan-out stays
// byte-identical to --jobs=1 — including the fault event logs and the
// resilience accounting.

#include "wsq/exec/parallel_runner.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "wsq/backend/empirical_backend.h"
#include "wsq/backend/eventsim_backend.h"
#include "wsq/backend/profile_backend.h"
#include "wsq/control/controller_factory.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/netsim/presets.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/sim/profile.h"

namespace wsq::exec {
namespace {

/// Trace fingerprint including every chaos field; "%a" renders doubles
/// bit-exactly.
std::string ChaosFingerprint(const std::vector<RunTrace>& traces) {
  std::string out;
  char buf[200];
  for (const RunTrace& trace : traces) {
    std::snprintf(buf, sizeof(buf),
                  "%s|%a|%" PRId64 "|%" PRId64 "|%" PRId64 "|%" PRId64
                  "|%a|%" PRId64 "\n",
                  trace.controller_name.c_str(), trace.total_time_ms,
                  trace.total_blocks, trace.total_tuples, trace.total_retries,
                  trace.session_retries, trace.total_retry_time_ms,
                  trace.breaker_trips);
    out += buf;
    for (const InjectedFault& fault : trace.fault_log) {
      std::snprintf(buf, sizeof(buf), "  f %" PRId64 " %d\n",
                    fault.block_index, static_cast<int>(fault.kind));
      out += buf;
    }
    for (const RunStep& s : trace.steps) {
      std::snprintf(buf, sizeof(buf), "  s %" PRId64 "|%" PRId64 "|%a|%" PRId64
                                      "\n",
                    s.step, s.requested_size, s.block_time_ms, s.retries);
      out += buf;
    }
  }
  return out;
}

std::shared_ptr<const ResponseProfile> NoisyProfile() {
  ParametricProfile::Params p;
  p.name = "chaos_parallel";
  p.dataset_tuples = 20000;
  p.overhead_ms = 50.0;
  p.per_tuple_ms = 0.5;
  return std::make_shared<ParametricProfile>(p);
}

SimOptions NoisyOptions() {
  SimOptions options;
  options.noise_amplitude = 0.2;
  options.seed = 11;
  return options;
}

void ExpectChaosParallelMatchesSerial(QueryBackend& backend, int runs,
                                      const FaultPlan& plan) {
  const ResilienceConfig resilience = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.fault_plan = &plan;
  spec.resilience = &resilience;
  const ControllerFactoryFn factory = NamedFactory("hybrid");

  Result<std::vector<RunTrace>> serial = RunTraces(
      factory, backend, spec, runs, /*base_seed=*/17,
      /*seed_stride=*/104729, /*jobs=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  Result<std::vector<RunTrace>> parallel = RunTraces(
      factory, backend, spec, runs, /*base_seed=*/17,
      /*seed_stride=*/104729, /*jobs=*/4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(serial.value().size(), static_cast<size_t>(runs));
  EXPECT_EQ(ChaosFingerprint(serial.value()),
            ChaosFingerprint(parallel.value()));

  // The chaos machinery genuinely engaged on every run.
  for (const RunTrace& trace : serial.value()) {
    EXPECT_FALSE(trace.fault_log.empty());
    EXPECT_TRUE(trace.CheckConsistent().ok());
  }
}

TEST(ChaosParallelTest, ProfileBackendBurstMatchesSerial) {
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  ExpectChaosParallelMatchesSerial(backend, 8,
                                   FaultPlan::FromName("burst").value());
}

TEST(ChaosParallelTest, ProfileBackendFlakyMatchesSerial) {
  // "flaky" is probabilistic: this is the test that per-lane fault RNG
  // streams derive from the run seed, not from lane identity or order.
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  ExpectChaosParallelMatchesSerial(backend, 8,
                                   FaultPlan::FromName("flaky").value());
}

TEST(ChaosParallelTest, EventSimBackendFlakyMatchesSerial) {
  EventSimConfig config;
  config.jitter_sigma = 0.08;
  config.seed = 3;
  EventSimBackend backend(config, /*dataset_tuples=*/20000);
  ExpectChaosParallelMatchesSerial(backend, 6,
                                   FaultPlan::FromName("flaky").value());
}

TEST(ChaosParallelTest, EmpiricalBackendResetsMatchesSerial) {
  TpchGenOptions gen;
  gen.scale = 0.02;
  EmpiricalSetup setup;
  setup.table = GenerateCustomer(gen).value();
  setup.query.table_name = "customer";
  setup.link = Lan1Gbps();
  setup.seed = 5;
  EmpiricalBackend backend(setup);
  // "resets" starts at block 1 — the small empirical dataset is drained
  // in two hybrid-controller blocks, so a plan addressing later blocks
  // would never fire.
  ExpectChaosParallelMatchesSerial(backend, 4,
                                   FaultPlan::FromName("resets").value());
}

TEST(ChaosParallelTest, FaultStreamsDifferAcrossRuns) {
  // Probabilistic plans must not replay the same fault sequence on every
  // run of a repeated experiment — the per-run seed feeds the stream.
  ProfileBackend backend(NoisyProfile(), NoisyOptions());
  const FaultPlan plan = FaultPlan::FromName("flaky").value();
  const ResilienceConfig resilience = ResilienceConfig::Chaos();
  RunSpec spec;
  spec.fault_plan = &plan;
  spec.resilience = &resilience;

  Result<std::vector<RunTrace>> traces = RunTraces(
      NamedFactory("hybrid"), backend, spec, 6, /*base_seed=*/17, 104729,
      /*jobs=*/4);
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  bool any_differ = false;
  for (size_t r = 1; r < traces.value().size(); ++r) {
    if (traces.value()[r].fault_log != traces.value()[0].fault_log) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ) << "per-run seeds had no effect on the fault stream";
}

}  // namespace
}  // namespace wsq::exec

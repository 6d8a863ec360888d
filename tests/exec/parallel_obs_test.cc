// Observability under concurrent run lanes: shard merges must equal
// the single-threaded totals, trace event counts must not depend on
// the lane count, and the thread-local observer override must layer
// correctly under the process-global fallback.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "wsq/backend/profile_backend.h"
#include "wsq/control/controller_factory.h"
#include "wsq/exec/parallel_runner.h"
#include "wsq/exec/thread_pool.h"
#include "wsq/obs/metrics.h"
#include "wsq/obs/run_observer.h"
#include "wsq/obs/thread_shard.h"
#include "wsq/obs/trace.h"
#include "wsq/sim/profile.h"

namespace wsq {
namespace {

TEST(ThreadShardTest, StableWithinAThreadAndInRange) {
  const int here = ThreadShardIndex();
  EXPECT_EQ(here, ThreadShardIndex());
  EXPECT_GE(here, 0);
  EXPECT_LT(here, kMetricShards);

  int other = -1;
  std::thread t([&other] { other = ThreadShardIndex(); });
  t.join();
  EXPECT_GE(other, 0);
  EXPECT_LT(other, kMetricShards);
}

TEST(ShardedCounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(ShardedHistogramTest, ConcurrentRecordsMergeToSingleThreadedTotals) {
  // Reference: every sample recorded from one thread.
  Histogram reference(Histogram::LatencyBucketsMs());
  constexpr int kThreads = 6;
  constexpr int kPerThread = 2000;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      reference.Record(0.5 + (i % 400) * 0.75);
    }
  }

  // Same samples, fanned over threads (each thread lands on some shard).
  Histogram sharded(Histogram::LatencyBucketsMs());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded] {
      for (int i = 0; i < kPerThread; ++i) {
        sharded.Record(0.5 + (i % 400) * 0.75);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(sharded.count(), reference.count());
  EXPECT_EQ(sharded.bucket_counts(), reference.bucket_counts());
  EXPECT_DOUBLE_EQ(sharded.min(), reference.min());
  EXPECT_DOUBLE_EQ(sharded.max(), reference.max());
  EXPECT_NEAR(sharded.mean(), reference.mean(), 1e-9);
  // Quantiles depend only on bucket counts, which match exactly.
  EXPECT_DOUBLE_EQ(sharded.p50(), reference.p50());
  EXPECT_DOUBLE_EQ(sharded.p99(), reference.p99());
}

TEST(ShardedTracerTest, EventCountInvariantUnderThreads) {
  Tracer tracer;
  constexpr int kThreads = 5;
  constexpr int kPerThread = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.AddInstant("tick", "test", i, TraceLane::kPullLoop);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.size(), size_t{kThreads} * kPerThread);
  EXPECT_EQ(tracer.events().size(), size_t{kThreads} * kPerThread);

  // Lane offsetting: every tid is kPullLoop plus a whole number of lane
  // strides, within the shard range.
  for (const TraceEvent& event : tracer.events()) {
    const int offset = event.tid - TraceLane::kPullLoop;
    EXPECT_EQ(offset % TraceLane::kLaneStride, 0);
    EXPECT_GE(offset / TraceLane::kLaneStride, 0);
    EXPECT_LT(offset / TraceLane::kLaneStride, kMetricShards);
  }
}

TEST(ShardedTracerTest, MainThreadKeepsBaseLanes) {
  // Shard 0 is the first-registered thread; in a test binary that is
  // the main thread, whose events must keep the historical tids so
  // single-threaded trace output is byte-identical to the unsharded
  // tracer. (Guard: only meaningful when we really are shard 0.)
  if (ThreadShardIndex() != 0) GTEST_SKIP() << "main thread not shard 0";
  Tracer tracer;
  tracer.AddInstant("tick", "test", 1, TraceLane::kController);
  ASSERT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].tid, TraceLane::kController);
}

TEST(RunObserverOverrideTest, ThreadLocalOverrideLayersUnderGlobal) {
  ASSERT_EQ(GlobalRunObserver(), nullptr);
  MetricsRegistry metrics;
  Tracer tracer;
  RunObserver global_observer(&metrics, &tracer);
  RunObserver thread_observer(&metrics, &tracer);

  SetGlobalRunObserver(&global_observer);
  EXPECT_EQ(GlobalRunObserver(), &global_observer);
  {
    ScopedThreadRunObserver scoped(&thread_observer);
    EXPECT_EQ(GlobalRunObserver(), &thread_observer);
    EXPECT_EQ(ThreadRunObserver(), &thread_observer);
  }
  EXPECT_EQ(GlobalRunObserver(), &global_observer);
  EXPECT_EQ(ThreadRunObserver(), nullptr);

  // The override is per thread: another thread still sees the global.
  RunObserver* seen_on_other_thread = nullptr;
  {
    ScopedThreadRunObserver scoped(&thread_observer);
    std::thread t([&seen_on_other_thread] {
      seen_on_other_thread = GlobalRunObserver();
    });
    t.join();
  }
  EXPECT_EQ(seen_on_other_thread, &global_observer);
  SetGlobalRunObserver(nullptr);
  EXPECT_EQ(GlobalRunObserver(), nullptr);
}

TEST(ParallelObservabilityTest, MetricsTotalsInvariantUnderLaneCount) {
  // End to end: the same repeated-run experiment observed at one lane
  // and at four lanes must register identical counter totals (blocks,
  // tuples, decisions are exact counts; they cannot depend on which
  // thread emitted them).
  ParametricProfile::Params p;
  p.name = "obs_test";
  p.dataset_tuples = 20000;
  p.overhead_ms = 50.0;
  p.per_tuple_ms = 0.5;
  auto profile = std::make_shared<ParametricProfile>(p);
  SimOptions options;
  options.noise_amplitude = 0.2;
  options.seed = 7;

  auto run_observed = [&](int jobs, MetricsRegistry* metrics,
                          Tracer* tracer) {
    RunObserver observer(metrics, tracer);
    SetGlobalRunObserver(&observer);
    ProfileBackend backend(profile, options);
    Result<std::vector<RunTrace>> traces =
        exec::RunTraces(NamedFactory("hybrid"), backend, RunSpec{},
                        /*runs=*/6, /*base_seed=*/5, 104729, jobs);
    SetGlobalRunObserver(nullptr);
    ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  };

  MetricsRegistry serial_metrics;
  Tracer serial_tracer;
  run_observed(1, &serial_metrics, &serial_tracer);

  MetricsRegistry parallel_metrics;
  Tracer parallel_tracer;
  run_observed(4, &parallel_metrics, &parallel_tracer);

  for (const char* name :
       {"wsq.pull.blocks_total", "wsq.pull.tuples_total",
        "wsq.controller.decisions_total"}) {
    EXPECT_EQ(parallel_metrics.GetCounter(name)->value(),
              serial_metrics.GetCounter(name)->value())
        << name;
  }
  EXPECT_EQ(parallel_tracer.size(), serial_tracer.size());
}

}  // namespace
}  // namespace wsq

// perfbench: the repository benchmark. One binary runs one workload for
// a given time and prints its end-to-end metrics (untraced run) or its
// per-layer metrics (traced run); see perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 when every query and world verified, 1 when any failed
// (the result line is still printed), 2 on bad arguments or set-up
// failure (no result line).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fleet.h"
#include "layers.h"
#include "live.h"
#include "replay.h"
#include "stats.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Workload {
  const char* name;
  bool fleet;
  LiveOptions live;
};

std::vector<Workload> Workloads() {
  Workload adaptive{"pull-adaptive", false, {}};
  adaptive.live.controller = "hybrid";
  adaptive.live.client_codec = {wsq::codec::CodecKind::kBinary, false};
  adaptive.live.crc = true;

  Workload fleet{"fleet-sim", true, {}};
  return {adaptive, fleet};
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// A controller that commands recorded block sizes in turn: the call
/// replay drives the live stack at another workload's block sizes.
class ReplayController final : public wsq::Controller {
 public:
  ReplayController(std::vector<int64_t> sizes, size_t offset)
      : sizes_(std::move(sizes)), next_(offset % sizes_.size()) {}

  int64_t initial_block_size() const override { return sizes_[next_]; }
  int64_t NextBlockSize(double response_time_ms) override {
    (void)response_time_ms;
    next_ = (next_ + 1) % sizes_.size();
    return sizes_[next_];
  }
  int64_t adaptivity_steps() const override { return 0; }
  void Reset() override { next_ = 0; }
  std::string name() const override { return "replay"; }

 private:
  std::vector<int64_t> sizes_;
  size_t next_;
};

// Set-ups timed per run. Half come before the measured interval and half
// after it, so their median spans two moments of a shared host, whose
// single-core speed shifts by up to a third from second to second.
constexpr int kLiveSetups = 16;
constexpr int kFleetSetups = 32;
constexpr size_t kSpanCap = 100000;

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

void PrintSeeds(const Args& args) {
  std::printf("workload %s seed %llu: table seed %llu, controller and world "
              "seeds wsq::fleet::FleetMix64(seed ^ k), %g s measured, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(wsq::fleet::FleetMix64(args.seed ^ 0x7AB1Eull)),
              args.seconds, args.trace ? 1 : 0);
}

/// The end-to-end metrics, in the order BENCHMARK.json lists them.
struct EndToEnd {
  double queries_per_s = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double mean = 0.0;
  double jain = 0.0;
  double setup_s = 0.0;

  std::vector<Metric> Metrics() const {
    return {{"queries_per_s", queries_per_s, "1/s"},
            {"query_ms_p50", p50, "ms"},
            {"query_ms_p90", p90, "ms"},
            {"query_ms_mean", mean, "ms"},
            {"fairness_jain", jain, "ratio"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", PeakRssMb(), "MB"}};
  }
};

/// Windows the live measured interval is cut into.
constexpr int kWindows = 5;

/// Live throughput and latency as the median over kWindows equal windows
/// of the measured interval, each query placed by its completion time. The
/// host is shared: a stall there moves one window, not the result.
EndToEnd LiveEndToEnd(const LoopResult& run, double seconds) {
  std::vector<double> qps, p50, p90, mean;
  const double width = seconds / kWindows;
  for (int w = 0; w < kWindows; ++w) {
    std::vector<double> ms;
    for (size_t i = 0; i < run.query_ms.size(); ++i) {
      if (run.done_s[i] >= w * width && run.done_s[i] < (w + 1) * width) {
        ms.push_back(run.query_ms[i]);
      }
    }
    qps.push_back(static_cast<double>(ms.size()) / width);
    mean.push_back(Mean(ms));
    p50.push_back(Quantile(&ms, 0.5));
    p90.push_back(Quantile(&ms, 0.9));
  }
  EndToEnd e;
  e.queries_per_s = Median(qps);
  e.p50 = Median(p50);
  e.p90 = Median(p90);
  e.mean = Median(mean);
  e.jain = wsq::fleet::JainIndex(run.per_client);
  return e;
}

void AddLayer(std::vector<Metric>* out, const char* name, double value,
              const char* unit) {
  out->push_back({name, value, unit});
}

void AddCallLayers(const LayerLog& log, double traced_wall_s,
                   std::vector<Metric>* out) {
  std::vector<double> call = log.call_ms.Snapshot();
  std::vector<double> handle = log.handle_ms.Snapshot();
  const double calls = static_cast<double>(log.call_ms.count());
  AddLayer(out, "client.call.count", calls, "count");
  AddLayer(out, "client.call.ms_p50", Quantile(&call, 0.5), "ms");
  AddLayer(out, "client.call.ms_p99", Quantile(&call, 0.99), "ms");
  AddLayer(out, "client.call.failed", static_cast<double>(log.call_failed.load()),
           "count");
  AddLayer(out, "server.handle.count", static_cast<double>(log.handle_ms.count()),
           "count");
  AddLayer(out, "server.handle.ms_p50", Quantile(&handle, 0.5), "ms");
  AddLayer(out, "server.handle.ms_p99", Quantile(&handle, 0.99), "ms");
  AddLayer(out, "server.handle.faults",
           static_cast<double>(log.handle_faults.load()), "count");
  AddLayer(out, "server.handle.busy_frac",
           log.handle_ms.sum() * 1e-3 / traced_wall_s, "frac");
  AddLayer(out, "net.residual.ms_mean",
           calls > 0 ? (log.call_ms.sum() - log.handle_ms.sum()) / calls : 0.0,
           "ms");
}

void AddKernelLayers(const KernelCosts& k, std::vector<Metric>* out) {
  AddLayer(out, "net.frame.encode_ns_per_kb", k.frame_encode_ns_per_kb, "ns/KB");
  AddLayer(out, "net.frame.parse_ns_per_kb", k.frame_parse_ns_per_kb, "ns/KB");
  AddLayer(out, "net.crc32c.ns_per_kb", k.crc32c_ns_per_kb, "ns/KB");
  AddLayer(out, "codec.binary.encode_ns_per_row", k.binary_encode_ns_per_row,
           "ns/row");
  AddLayer(out, "codec.binary.decode_ns_per_row", k.binary_decode_ns_per_row,
           "ns/row");
  AddLayer(out, "codec.binary.bytes_per_row", k.binary_bytes_per_row, "B/row");
  AddLayer(out, "codec.soap.encode_ns_per_row", k.soap_encode_ns_per_row,
           "ns/row");
  AddLayer(out, "codec.soap.decode_ns_per_row", k.soap_decode_ns_per_row,
           "ns/row");
  AddLayer(out, "codec.soap.bytes_per_row", k.soap_bytes_per_row, "B/row");
  AddLayer(out, "relation.fetch.ns_per_row", k.fetch_ns_per_row, "ns/row");
}

void AddControlLayers(const LayerLog& log, std::vector<Metric>* out) {
  std::vector<double> step = log.step_ns.Snapshot();
  const double steps = static_cast<double>(log.step_ns.count());
  const double queries = static_cast<double>(std::max<int64_t>(1, log.queries.load()));
  AddLayer(out, "control.step.ns_p50", Quantile(&step, 0.5), "ns");
  AddLayer(out, "control.steps", steps, "count");
  AddLayer(out, "control.block_rows_mean",
           log.block_rows.sum() / std::max(1.0, static_cast<double>(log.block_rows.count())),
           "rows");
  AddLayer(out, "control.blocks_per_query", steps / queries, "count");
}

void AddFleetLayers(const FleetLoop& lanes, const FleetLoop& outcome,
                    std::vector<Metric>* out) {
  std::vector<double> world_ms = lanes.world_ms;
  AddLayer(out, "fleet.world.ms_p50", Quantile(&world_ms, 0.5), "ms");
  AddLayer(out, "fleet.blocks_per_s",
           static_cast<double>(lanes.blocks) / lanes.wall_s, "1/s");
  AddLayer(out, "fleet.analytics.ms", Mean(outcome.analytics_ms), "ms");
  AddLayer(out, "exec.lane_busy_frac",
           lanes.lane_busy_s / (lanes.wall_s * lanes.lanes), "frac");
}

/// Checked outcome of a run: what the result line reports. Every query
/// and world a run attempts counts, warm-up and replays included.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;

  void Add(const LoopResult& loop) {
    Add(loop.attempted, loop.failed, loop.first_error);
  }
  void Add(const FleetLoop& loop) {
    Add(loop.worlds, loop.failed, loop.first_error);
  }
  void Add(int64_t n, int64_t bad, const std::string& error) {
    attempted += n;
    failed += bad;
    if (first_error.empty()) first_error = error;
  }
};

int Finish(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("attempted %lld, failed %lld, failed_frac %.6g\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                        static_cast<double>(tally.attempted)
                                  : 0.0);
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", tally.first_error.c_str());
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  PrintResult(correct, std::max<int64_t>(1, tally.attempted), tally.failed,
              metrics);
  return correct ? 0 : 1;
}

bool WriteTrace(const Args& args, LayerLog& log) {
  if (args.trace_out.empty()) return true;
  wsq::Status status = log.tracer().WriteChromeJson(args.trace_out);
  if (!status.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", status.ToString().c_str());
    return false;
  }
  std::printf("trace: %zu spans written to %s\n", log.tracer().size(),
              args.trace_out.c_str());
  return true;
}

/// Warm-up before any timing. Each client first drains two queries in the
/// largest blocks a controller may command, so the allocator has already
/// served the largest buffers a run allocates (glibc raises its mmap
/// threshold only after freeing such a buffer, and before that each one
/// costs fresh page faults); then the workload's own loop runs briefly.
void WarmUp(LiveStack& stack, const QueryControllerFn& make_controller,
            double seconds, Tally* tally) {
  const QueryControllerFn largest = NamedControllerFn(
      "fixed:" + std::to_string(wsq::BlockSizeLimits{}.max_size));
  tally->Add(stack.Run(0.0, 2, largest, nullptr));
  tally->Add(stack.Run(seconds, 0, make_controller, nullptr));
}

int RunLive(const Args& args, const Workload& workload) {
  const QueryControllerFn make_controller =
      NamedControllerFn(workload.live.controller);
  const double warmup_s = std::min(1.0, 0.1 * args.seconds);

  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<LiveStack> stack;
    // Replaces `stack` by `count` fresh set-ups in turn, timing each.
    auto set_up = [&](int count) {
      for (int i = 0; i < count; ++i) {
        stack.reset();
        const int64_t start = NowNs();
        wsq::Result<std::unique_ptr<LiveStack>> made =
            LiveStack::Create(workload.live, args.seed, /*timed=*/false);
        if (!made.ok()) {
          std::fprintf(stderr, "set-up failed: %s\n",
                       made.status().ToString().c_str());
          return false;
        }
        stack = std::move(made).value();
        setup_s.push_back(SecondsSince(start));
      }
      return true;
    };
    if (!set_up(kLiveSetups / 2)) return 2;
    Tally tally;
    WarmUp(*stack, make_controller, warmup_s, &tally);
    const LoopResult run = stack->Run(args.seconds, 0, make_controller, nullptr);
    tally.Add(run);
    std::printf("%zu queries drained over %d clients in %.3f s (%lld rows "
                "each); metrics are medians over %d windows\n",
                run.query_ms.size(), kClients, run.wall_s,
                static_cast<long long>(stack->rows_per_query()), kWindows);
    if (!set_up(kLiveSetups - kLiveSetups / 2)) return 2;
    EndToEnd e = LiveEndToEnd(run, args.seconds);
    e.setup_s = Median(setup_s);
    return Finish(tally, e.Metrics());
  }

  wsq::Result<std::unique_ptr<LiveStack>> made =
      LiveStack::Create(workload.live, args.seed, /*timed=*/true);
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<LiveStack> stack = std::move(made).value();
  Tally tally;
  WarmUp(*stack, make_controller, warmup_s, &tally);

  // Untraced and traced segments alternate, so drift hits both alike;
  // the throughput they lose to each other is the tracing overhead.
  LayerLog log(kSpanCap);
  double plain_queries = 0.0;
  double plain_wall = 0.0;
  double traced_queries = 0.0;
  double traced_wall = 0.0;
  for (int segment = 0; segment < 4; ++segment) {
    const bool traced = segment % 2 == 1;
    const LoopResult r = stack->Run(args.seconds / 4.0, 0, make_controller,
                                    traced ? &log : nullptr);
    tally.Add(r);
    (traced ? traced_queries : plain_queries) +=
        static_cast<double>(r.attempted - r.failed);
    (traced ? traced_wall : plain_wall) += r.wall_s;
  }

  std::vector<Metric> metrics;
  AddCallLayers(log, traced_wall, &metrics);
  wsq::Result<KernelCosts> kernels = ReplayKernels(
      stack->table(), stack->replay_query(), log.block_rows.Snapshot(),
      log.response_bytes.Snapshot(), args.seed, 1.5);
  if (!kernels.ok()) {
    std::fprintf(stderr, "kernel replay failed: %s\n",
                 kernels.status().ToString().c_str());
    return 2;
  }
  AddKernelLayers(kernels.value(), &metrics);
  AddControlLayers(log, &metrics);

  // The fleet layer, replayed on a fleet shaped like this workload.
  int64_t world = 0;
  const FleetWorkload shaped = ShapedFleet(
      workload.live.controller, kClients, stack->rows_per_query());
  const FleetLoop lanes = RunFleetLanes(shaped, wsq::fleet::FleetMix64(args.seed ^ 0xF1EE7ull),
                                        0.5, nullptr, &world);
  tally.Add(lanes);
  AddFleetLayers(lanes, lanes, &metrics);

  const double overhead = 1.0 - (traced_queries / traced_wall) /
                                    (plain_queries / plain_wall);
  AddLayer(&metrics, "obs.trace_overhead_frac", overhead, "frac");
  if (!WriteTrace(args, log)) return 2;
  return Finish(tally, metrics);
}

int RunFleet(const Args& args) {
  const uint64_t base_seed = wsq::fleet::FleetMix64(args.seed ^ 0xF1EE7ull);
  std::printf("world seeds: %llu + w * 104729\n",
              static_cast<unsigned long long>(base_seed));
  std::vector<double> setup_s;
  FleetWorkload workload;
  // Replaces `workload` by `count` fresh set-ups in turn, timing each.
  auto set_up = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int64_t start = NowNs();
      workload = MixedAdaptiveFleet();
      wsq::Status valid = workload.world.Validate();
      if (valid.ok()) valid = workload.spec.Validate();
      wsq::Result<std::vector<wsq::fleet::TenantSpec>> tenants =
          workload.spec.BuildTenants(base_seed);
      if (!valid.ok() || !tenants.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     (valid.ok() ? tenants.status() : valid).ToString().c_str());
        return false;
      }
      setup_s.push_back(SecondsSince(start));
    }
    return true;
  };
  if (!set_up(kFleetSetups / 2)) return 2;

  // The outcome worlds come first, untimed; they also warm the lanes.
  Tally tally;
  int64_t world = 0;
  const FleetLoop outcome = RunFleetBatches(workload, base_seed, 0.0, &world);
  tally.Add(outcome);

  if (!args.trace) {
    const FleetLoop run = RunFleetBatches(workload, base_seed, args.seconds, &world);
    tally.Add(run);
    if (!set_up(kFleetSetups - kFleetSetups / 2)) return 2;
    // Throughput is the median over batches; the outcome metrics are
    // sorted before summing so they repeat bit for bit at a fixed seed.
    EndToEnd e;
    e.queries_per_s = Median(run.batch_rate);
    std::printf("%lld worlds of %d tenants in %.3f s in %zu batches: "
                "sim_worlds_per_s %.6g (batch median); outcome over the "
                "first %lld worlds\n",
                static_cast<long long>(run.worlds), workload.spec.TenantCount(),
                run.wall_s, run.batch_rate.size(),
                e.queries_per_s / workload.spec.TenantCount(),
                static_cast<long long>(kOutcomeWorlds));
    std::vector<double> tenant_ms = outcome.tenant_ms;
    e.p50 = Quantile(&tenant_ms, 0.5);
    e.p90 = Quantile(&tenant_ms, 0.9);
    e.mean = Mean(tenant_ms);
    std::vector<double> jain = outcome.jain;
    std::sort(jain.begin(), jain.end());
    e.jain = Mean(jain);
    e.setup_s = Median(setup_s);
    return Finish(tally, e.Metrics());
  }

  // Untraced and traced segments alternate on the same lane loop; they
  // differ only in whether every tenant controller is wrapped.
  LayerLog log(kSpanCap);
  double plain_queries = 0.0;
  double plain_wall = 0.0;
  FleetLoop traced;
  for (int segment = 0; segment < 4; ++segment) {
    const bool timed = segment % 2 == 1;
    FleetLoop r = RunFleetLanes(workload, base_seed, args.seconds / 4.0,
                                timed ? &log : nullptr, &world);
    tally.Add(r);
    if (!timed) {
      plain_queries += static_cast<double>(r.tenant_queries);
      plain_wall += r.wall_s;
    } else {
      traced.wall_s += r.wall_s;
      traced.worlds += r.worlds;
      traced.tenant_queries += r.tenant_queries;
      traced.blocks += r.blocks;
      traced.lane_busy_s += r.lane_busy_s;
      traced.lanes = r.lanes;
      traced.world_ms.insert(traced.world_ms.end(), r.world_ms.begin(),
                             r.world_ms.end());
    }
  }

  // The call layers, replayed through the pull-adaptive stack at the
  // block sizes the fleet's controllers chose.
  std::vector<int64_t> sizes;
  for (double rows : log.block_rows.Snapshot()) {
    sizes.push_back(static_cast<int64_t>(rows));
    if (sizes.size() == 4096) break;
  }
  Workload replay = Workloads().front();
  wsq::Result<std::unique_ptr<LiveStack>> made =
      LiveStack::Create(replay.live, args.seed, /*timed=*/true);
  if (!made.ok() || sizes.empty()) {
    std::fprintf(stderr, "call replay set-up failed\n");
    return 2;
  }
  std::unique_ptr<LiveStack> stack = std::move(made).value();
  LayerLog call_log(0);
  const LoopResult calls = stack->Run(
      1.0, 0,
      [&sizes](uint64_t query_seed) -> std::unique_ptr<wsq::Controller> {
        return std::make_unique<ReplayController>(sizes, query_seed);
      },
      &call_log);
  tally.Add(calls);

  std::vector<Metric> metrics;
  AddCallLayers(call_log, calls.wall_s, &metrics);
  wsq::Result<KernelCosts> kernels = ReplayKernels(
      stack->table(), stack->replay_query(), log.block_rows.Snapshot(),
      call_log.response_bytes.Snapshot(), args.seed, 1.5);
  if (!kernels.ok()) {
    std::fprintf(stderr, "kernel replay failed: %s\n",
                 kernels.status().ToString().c_str());
    return 2;
  }
  AddKernelLayers(kernels.value(), &metrics);
  AddControlLayers(log, &metrics);
  AddFleetLayers(traced, outcome, &metrics);
  const double overhead =
      1.0 - (static_cast<double>(traced.tenant_queries) / traced.wall_s) /
                (plain_queries / plain_wall);
  AddLayer(&metrics, "obs.trace_overhead_frac", overhead, "frac");
  if (!WriteTrace(args, log)) return 2;
  return Finish(tally, metrics);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  for (const Workload& workload : Workloads()) {
    if (args.workload != workload.name) continue;
    PrintSeeds(args);
    return workload.fleet ? RunFleet(args) : RunLive(args, workload);
  }
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Live-loopback benchmark: a wsqd-style server on an ephemeral TCP port
// with N concurrent clients pulling the customer table through the
// LiveBackend — the whole stack (framing, sockets, session isolation,
// controllers, resilience, observability) over a real network path.
//
// Flags: see --help. --codec picks the codec the clients advertise;
// the in-process server always offers binary+lz, so the flag alone
// decides what the wire carries.
//
// With --trace-out the clients negotiate trace-context propagation, so
// the exported Chrome trace carries the server-side stage spans (clock-
// aligned onto the client timeline) alongside the client block spans.
//
// With --fault-plan=<preset> (in-process server only) the server replays
// the preset per session, and the bench first demonstrates the paper's
// resilience contrast on live TCP: a Legacy() client must exhaust its
// retry budget, then the chaos-configured fleet must still drain every
// query. Exit status is non-zero if any lane fails, any trace violates
// CheckConsistent(), or the Legacy run unexpectedly survives the plan.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace wsq {
namespace {

struct LiveBenchFlags {
  int clients = 4;
  int runs = 2;
  int port = 0;  // 0 = in-process server
  std::string controller = "hybrid";
  double scale = 0.02;
  std::string stats_out;
};

struct LaneOutcome {
  int ok_runs = 0;
  int failed_runs = 0;
  int64_t tuples = 0;
  int64_t blocks = 0;
  int64_t retries = 0;
  std::string first_error;
};

/// One lane: its own backend clone, a fresh controller and connection
/// per run — the multi-client shape of the paper's testbed, over TCP.
LaneOutcome RunLane(const LiveSetup& setup, const LiveBenchFlags& flags,
                    const ResilienceConfig* resilience, uint64_t lane) {
  LaneOutcome out;
  LiveBackend backend(setup);
  for (int run = 0; run < flags.runs; ++run) {
    Result<std::unique_ptr<Controller>> controller =
        ControllerFactory::FromName(flags.controller);
    if (!controller.ok()) {
      out.failed_runs++;
      out.first_error = controller.status().ToString();
      return out;
    }
    RunSpec spec;
    spec.seed = lane * 1000 + run + 1;
    spec.resilience = resilience;
    const auto start = std::chrono::steady_clock::now();
    Result<RunTrace> trace = backend.RunQuery(controller.value().get(), spec);
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - start;
    if (trace.ok()) {
      Status consistent = trace.value().CheckConsistent();
      if (!consistent.ok()) {
        out.failed_runs++;
        if (out.first_error.empty()) out.first_error = consistent.ToString();
        continue;
      }
      out.ok_runs++;
      out.tuples += trace.value().total_tuples;
      out.blocks += trace.value().total_blocks;
      out.retries += trace.value().total_retries;
      if (exec::RunTimings* timings = exec::GlobalRunTimings()) {
        timings->RecordRunMs(wall.count());
      }
    } else {
      out.failed_runs++;
      if (out.first_error.empty()) out.first_error = trace.status().ToString();
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  LiveBenchFlags flags;
  bench::BenchSession session(
      argc, argv,
      FlagTable()
          .Add("clients", &flags.clients, "concurrent client lanes")
          .Add("runs", &flags.runs, "queries per lane")
          .Add("port", &flags.port, "external wsqd; 0 = in-process server")
          .Add("controller", &flags.controller, "controller per run")
          .Add("scale", &flags.scale, "TPC-H scale of the served table")
          .Add("stats-out", &flags.stats_out,
               "after the fleet drains, fetch the server's stats JSON here"));
  if (flags.clients < 1) flags.clients = 1;
  if (flags.runs < 1) flags.runs = 1;

  bench::PrintHeader(
      "live_loopback",
      "N concurrent clients pulling TPC-H customer over real TCP "
      "(framing + sockets + wsqd server frontend + LiveBackend)",
      "every client drains its query; with --fault-plan, Legacy() "
      "exhausts while Chaos() completes (paper Sec. V over a live wire)");

  // Server: in-process unless --port points at an external wsqd.
  std::shared_ptr<Table> customer;
  Dbms dbms;
  std::unique_ptr<DataService> service;
  std::unique_ptr<ServiceContainer> container;
  std::unique_ptr<net::WsqServer> server;
  int port = flags.port;
  const bool fault_mode =
      !session.fault_plan().empty() && session.fault_plan() != "none";
  if (port == 0) {
    TpchGenOptions gen;
    gen.scale = flags.scale;
    gen.seed = 7;
    customer = GenerateCustomer(gen).value();
    if (Status s = dbms.RegisterTable(customer); !s.ok()) {
      std::fprintf(stderr, "table registration failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    service = std::make_unique<DataService>(&dbms);
    LoadModelConfig load;
    load.noise_sigma = 0.0;
    container = std::make_unique<ServiceContainer>(service.get(), load, 7);
    net::WsqServerOptions options;
    options.codec =
        codec::CodecChoice{codec::CodecKind::kBinary, /*compress_blocks=*/true};
    if (fault_mode) {
      Result<FaultPlan> plan = FaultPlan::FromName(session.fault_plan());
      if (!plan.ok()) {
        std::fprintf(stderr, "bad --fault-plan: %s\n",
                     plan.status().ToString().c_str());
        return 1;
      }
      options.fault_plan = std::move(plan).value();
    }
    server = std::make_unique<net::WsqServer>(container.get(),
                                              std::move(options));
    if (Status s = server->Start(); !s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    port = server->port();
    std::printf("in-process wsqd on 127.0.0.1:%d (scale=%g, fault-plan=%s)\n",
                port, flags.scale, fault_mode ? session.fault_plan().c_str()
                                              : "none");
  } else {
    std::printf("external wsqd at 127.0.0.1:%d\n", port);
  }

  LiveSetup setup;
  setup.host = "127.0.0.1";
  setup.port = port;
  setup.query.table_name = "customer";
  setup.client_options.codec = session.wire_codec();
  setup.client_options.enable_tracing = session.tracing_requested();
  std::printf("wire codec: %s%s\n", session.wire_codec().ToString().c_str(),
              session.tracing_requested() ? " (+trace)" : "");

  // Fault mode, act one: the resilience contrast. A Legacy() client
  // must die inside the burst...
  ResilienceConfig legacy = ResilienceConfig::Legacy();
  ResilienceConfig chaos = session.ChaosResilience();
  if (fault_mode) {
    FixedController fixed(100);
    RunSpec spec;
    spec.seed = 999;
    spec.resilience = &legacy;
    LiveBackend probe(setup);
    Result<RunTrace> trace = probe.RunQuery(&fixed, spec);
    if (trace.ok()) {
      std::fprintf(stderr,
                   "FAIL: Legacy() survived --fault-plan=%s — the plan "
                   "injected nothing\n",
                   session.fault_plan().c_str());
      return 1;
    }
    std::printf("legacy probe: exhausted as expected (%s)\n",
                trace.status().ToString().c_str());
  }

  // Act two: the concurrent fleet (chaos-configured when faults are on).
  const ResilienceConfig* fleet_resilience = fault_mode ? &chaos : nullptr;
  std::vector<LaneOutcome> lanes(flags.clients);
  std::vector<std::thread> threads;
  threads.reserve(flags.clients);
  for (int c = 0; c < flags.clients; ++c) {
    threads.emplace_back([&, c] {
      lanes[c] = RunLane(setup, flags, fleet_resilience,
                         static_cast<uint64_t>(c) + 1);
    });
  }
  for (std::thread& t : threads) t.join();

  int failures = 0;
  TextTable table({"client", "ok", "failed", "tuples", "blocks", "retries"});
  for (int c = 0; c < flags.clients; ++c) {
    const LaneOutcome& lane = lanes[c];
    failures += lane.failed_runs;
    table.AddRow({std::to_string(c), std::to_string(lane.ok_runs),
                  std::to_string(lane.failed_runs),
                  std::to_string(lane.tuples), std::to_string(lane.blocks),
                  std::to_string(lane.retries)});
    if (!lane.first_error.empty()) {
      std::fprintf(stderr, "client %d first error: %s\n", c,
                   lane.first_error.c_str());
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  // Live telemetry: pull the server's stats snapshot over the wire
  // (kStats) while the sessions it describes are still in its tables.
  if (!flags.stats_out.empty()) {
    Result<std::string> stats =
        net::FetchServerStats("127.0.0.1", port, /*timeout_ms=*/2000.0);
    if (!stats.ok()) {
      std::fprintf(stderr, "FAIL: stats fetch failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::FILE* out = std::fopen(flags.stats_out.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "FAIL: cannot open --stats-out=%s\n",
                   flags.stats_out.c_str());
      return 1;
    }
    std::fwrite(stats.value().data(), 1, stats.value().size(), out);
    std::fclose(out);
    std::fprintf(stderr, "(server stats written to %s)\n",
                 flags.stats_out.c_str());
  }

  if (server != nullptr) {
    server->Stop();
    std::printf(
        "server: %lld connections, %lld exchanges, %lld faults injected\n",
        static_cast<long long>(server->connections_accepted()),
        static_cast<long long>(server->exchanges_served()),
        static_cast<long long>(server->faults_injected()));
  }
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d run(s) failed\n", failures);
    return 1;
  }
  std::printf("all %d clients x %d runs drained their queries\n",
              flags.clients, flags.runs);
  return 0;
}

}  // namespace
}  // namespace wsq

int main(int argc, char** argv) { return wsq::Main(argc, argv); }

// Fleet-scale multi-tenant co-scheduling: N adaptive clients sharing
// one world.
//
// Sim phase: controller-mix fleets of several sizes run inside the
// shared FleetWorld (one clock, one LoadModel priced at the live
// in-flight count) and are ranked by fleet response time, reporting the
// fairness / convergence / oscillation analytics the paper's
// multi-client discussion motivates: when many adaptive clients share a
// server, does adaptation still converge, and who pays the tail?
//
// Live phase: a small fleet of real TcpWsClient sessions against a wsqd
// server whose admission control sheds under load — client-side
// adaptation (plus the chaos ResilienceConfig) must absorb the sheds
// and every tenant must still drain its query.
//
// Flags: see --help.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace wsq {
namespace {

struct FleetFlags {
  int runs = 3;
  int live_tenants = 6;
  int live_port = 0;
  bool skip_live = false;
};

struct SimCell {
  std::string label;
  fleet::FleetSpec spec;
};

struct SimRow {
  std::string label;
  int tenants = 0;
  double mean_makespan_ms = 0.0;
  fleet::FleetAnalytics analytics;  // of the first (seed-pinned) run
};

int RunSimPhase(const FleetFlags& flags, int jobs) {
  std::printf("--- sim: controller-mix fleets in one shared world ---\n");

  fleet::FleetWorldConfig world;
  world.one_way_latency_ms = 5.0;
  world.bandwidth_mbps = 50.0;
  // Service-dominated blocks so tenants genuinely contend for the
  // server instead of idling on the wire.
  world.load.per_tuple_cpu_ms = 0.03;

  std::vector<SimCell> cells;
  for (int tenants : {32, 256}) {
    const int third = tenants / 3;
    SimCell hybrid;
    hybrid.label = "all-hybrid";
    hybrid.spec.mix = {{"hybrid", tenants}};
    SimCell mimd;
    mimd.label = "all-mimd";
    mimd.spec.mix = {{"mimd", tenants}};
    SimCell mixed;
    mixed.label = "mixed-adaptive";
    mixed.spec.mix = {{"hybrid", tenants - 2 * third},
                      {"mimd", third},
                      {"self_tuning", third}};
    for (SimCell cell : {hybrid, mimd, mixed}) {
      cell.spec.tuples_per_tenant = 20000;
      cell.spec.arrival = fleet::ArrivalProcess::kJittered;
      cell.spec.stagger_interval_ms = 2.0;
      cell.spec.arrival_jitter_ms = 10.0;
      cells.push_back(std::move(cell));
    }
  }

  std::vector<SimRow> rows;
  for (const SimCell& cell : cells) {
    Result<std::vector<fleet::FleetTrace>> fleets =
        fleet::RunFleetRepeated(world, cell.spec, flags.runs, /*base_seed=*/42,
                                jobs);
    if (!fleets.ok()) {
      std::fprintf(stderr, "sim fleet %s failed: %s\n", cell.label.c_str(),
                   fleets.status().ToString().c_str());
      return 1;
    }
    SimRow row;
    row.label = cell.label;
    row.tenants = cell.spec.TenantCount();
    for (const fleet::FleetTrace& trace : fleets.value()) {
      if (Status s = trace.CheckConsistent(); !s.ok()) {
        std::fprintf(stderr, "inconsistent fleet trace (%s): %s\n",
                     cell.label.c_str(), s.ToString().c_str());
        return 1;
      }
      row.mean_makespan_ms += trace.makespan_ms;
    }
    row.mean_makespan_ms /= static_cast<double>(fleets.value().size());
    row.analytics = fleet::AnalyzeFleet(fleets.value().front());
    rows.push_back(std::move(row));
  }

  // Ranked by mean fleet makespan: who co-schedules best at each size.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const SimRow& a, const SimRow& b) {
                     if (a.tenants != b.tenants) return a.tenants < b.tenants;
                     return a.mean_makespan_ms < b.mean_makespan_ms;
                   });
  TextTable table({"mix", "tenants", "makespan_ms", "jain", "p99_spread_ms",
                   "conv_frac", "conv_ms", "oscillation", "xcorr"});
  CsvWriter csv({"mix", "tenants", "makespan_ms", "jain", "p99_spread_ms",
                 "conv_frac", "conv_ms", "oscillation", "xcorr"});
  for (const SimRow& row : rows) {
    const fleet::FleetAnalytics& a = row.analytics;
    table.AddRow({row.label, std::to_string(row.tenants),
                  FormatDouble(row.mean_makespan_ms, 1),
                  FormatDouble(a.jain_index, 3),
                  FormatDouble(a.p99_spread_ms, 1),
                  FormatDouble(a.converged_fraction, 2),
                  FormatDouble(a.mean_convergence_time_ms, 1),
                  FormatDouble(a.mean_oscillation, 3),
                  FormatDouble(a.cross_correlation, 3)});
    csv.AddRow({row.label, std::to_string(row.tenants),
                FormatDouble(row.mean_makespan_ms, 3),
                FormatDouble(a.jain_index, 4),
                FormatDouble(a.p99_spread_ms, 3),
                FormatDouble(a.converged_fraction, 3),
                FormatDouble(a.mean_convergence_time_ms, 3),
                FormatDouble(a.mean_oscillation, 4),
                FormatDouble(a.cross_correlation, 4)});
    fleet::PublishFleetMetrics(a, &MetricsRegistry::Global());
  }
  std::printf("%s\n", table.ToString().c_str());
  bench::MaybeDumpCsv(csv, "fleet_tenancy_sim");
  return 0;
}

int RunLivePhase(const FleetFlags& flags, bench::BenchSession& session) {
  std::printf(
      "--- live: %d adapting tenants vs wsqd admission control ---\n",
      flags.live_tenants);

  // Server: in-process with a deliberately hair-trigger shed watermark,
  // unless --live-port points at an external wsqd (the CI job starts
  // one with --shed-watermark itself).
  std::shared_ptr<Table> customer;
  Dbms dbms;
  std::unique_ptr<DataService> service;
  std::unique_ptr<ServiceContainer> container;
  std::unique_ptr<net::WsqServer> server;
  int port = flags.live_port;
  if (port == 0) {
    TpchGenOptions gen;
    gen.scale = 0.4;
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
    options.codec = codec::CodecChoice{codec::CodecKind::kBinary,
                                       /*compress_blocks=*/true};
    // Shed once four dispatches are in flight: the fleet's thundering
    // herd must trip admission control, and resilience must absorb it.
    options.admission.shed_queue_watermark = 4;
    server =
        std::make_unique<net::WsqServer>(container.get(), std::move(options));
    if (Status s = server->Start(); !s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    port = server->port();
    std::printf("in-process wsqd on 127.0.0.1:%d (shed watermark 4)\n", port);
  } else {
    std::printf("external wsqd at 127.0.0.1:%d\n", port);
  }

  fleet::LiveFleetOptions live;
  live.port = port;
  live.spec.mix = {{"hybrid", (flags.live_tenants + 1) / 2},
                   {"mimd", flags.live_tenants / 2}};
  // A light stagger keeps the launch a burst (the watermark still
  // trips) without making the very first exchange a coin flip a tenant
  // can lose max_retries times in a row.
  live.spec.arrival = fleet::ArrivalProcess::kStaggered;
  live.spec.stagger_interval_ms = 25.0;
  // Sheds surface as retryable faults; the chaos policy (with any
  // --max-retries / --breaker-threshold overrides) must absorb them. A
  // roomier default retry budget than Chaos(): a fleet-sized burst can
  // shed the same tenant several times back to back.
  ResilienceConfig chaos = session.ChaosResilience();
  if (session.max_retries() < 0) chaos.max_retries_per_call = 10;
  live.spec.resilience = chaos;
  live.client_options.codec = session.wire_codec();
  live.seed = 1;

  Result<fleet::FleetTrace> trace = fleet::RunLiveFleet(live);
  if (!trace.ok()) {
    std::fprintf(stderr, "live fleet failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }

  int64_t tuples = 0;
  int64_t retries = 0;
  for (const fleet::TenantTrace& lane : trace.value().tenants) {
    if (lane.trace.total_tuples <= 0) {
      std::fprintf(stderr, "tenant %s drained no tuples\n",
                   lane.tenant.c_str());
      return 1;
    }
    tuples += lane.trace.total_tuples;
    retries += lane.trace.total_retries;
  }
  const fleet::FleetAnalytics analytics = fleet::AnalyzeFleet(trace.value());
  fleet::PublishFleetMetrics(analytics, &MetricsRegistry::Global());

  const int64_t sheds = server != nullptr ? server->sheds() : -1;
  std::printf(
      "tenants=%zu tuples=%lld retries=%lld sheds=%s makespan=%.1fms "
      "jain=%.3f p99_spread=%.1fms\n",
      trace.value().tenants.size(), static_cast<long long>(tuples),
      static_cast<long long>(retries),
      sheds >= 0 ? std::to_string(sheds).c_str() : "external",
      trace.value().makespan_ms, analytics.jain_index,
      analytics.p99_spread_ms);
  if (server != nullptr) {
    if (sheds <= 0) {
      std::fprintf(stderr,
                   "FAIL: admission control never shed — the watermark did "
                   "not bite\n");
      return 1;
    }
    if (retries <= 0) {
      std::fprintf(stderr,
                   "FAIL: fleet absorbed no sheds (no retries recorded)\n");
      return 1;
    }
    // The server's own fairness section is what a live operator reads.
    const std::string stats = server->StatsJson();
    const size_t at = stats.find("\"fairness\"");
    if (at == std::string::npos) {
      std::fprintf(stderr, "FAIL: server stats carry no fairness section\n");
      return 1;
    }
    std::printf("server fairness: %.120s...\n", stats.c_str() + at);
  }
  std::printf("PASS: every tenant drained through %s sheds\n",
              sheds >= 0 ? std::to_string(sheds).c_str() : "external");

  // One wall-clock sample for the live phase's BENCH row.
  if (exec::RunTimings* timings = exec::GlobalRunTimings()) {
    timings->RecordRunMs(trace.value().makespan_ms);
  }
  return 0;
}

int Main(int argc, char** argv) {
  FleetFlags flags;
  bench::BenchSession session(
      argc, argv,
      FlagTable()
          .Add("runs", &flags.runs, "fleet repetitions per sim cell")
          .Add("live-tenants", &flags.live_tenants, "tenants in the live fleet")
          .Add("live-port", &flags.live_port,
               "external wsqd for the live phase; 0 = in-process server")
          .Add("skip-live", &flags.skip_live, "sim phase only"));
  if (flags.runs < 1) flags.runs = 1;
  if (flags.live_tenants < 1) flags.live_tenants = 1;

  bench::PrintHeader(
      "fleet_tenancy",
      "N tenant sessions co-scheduled in one shared world (sim) and "
      "against wsqd admission control (live)",
      "adaptive fleets converge and share fairly (Jain ~1) while "
      "interference shows up as correlated block-size motion; live "
      "sheds are absorbed by resilient adaptation");

  session.BeginPhase("sim");
  if (int rc = RunSimPhase(flags, session.jobs()); rc != 0) return rc;

  if (!flags.skip_live) {
    session.BeginPhase("live");
    if (int rc = RunLivePhase(flags, session); rc != 0) return rc;
  }
  return 0;
}

}  // namespace
}  // namespace wsq

int main(int argc, char** argv) { return wsq::Main(argc, argv); }

// wsqd — the standalone wsq data-service daemon.
//
// Hosts the same DataService/ServiceContainer stack the simulated
// transport dispatches into, behind the framed TCP wire protocol
// (net/frame.h), so any TcpWsClient / LiveBackend / `--live` example can
// run the paper's pull protocol over a real network:
//
//   wsqd --port=9090 --scale=0.1 --profile=loaded --fault-plan=burst
//
// The daemon prints "wsqd listening on port N" once ready (scripts
// scrape the ephemeral port from it) and serves until SIGINT (immediate
// stop) or SIGTERM (graceful drain: stop accepting, kGoaway idle
// connections, finish in-flight work, then stop — bounded by
// --drain-timeout-s).

#include <csignal>
#include <cstdint>
#include <ctime>
#include <cstdio>
#include <string>

#include "wsq/codec/codec.h"
#include "wsq/common/flags.h"
#include "wsq/fault/fault_plan.h"
#include "wsq/net/server.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/server/container.h"
#include "wsq/server/data_service.h"
#include "wsq/server/dbms.h"
#include "wsq/server/load_model.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_drain = 0;
volatile std::sig_atomic_t g_dump_stats = 0;

void HandleSignal(int) { g_stop = 1; }
void HandleDrainSignal(int) { g_drain = 1; }
void HandleStatsSignal(int) { g_dump_stats = 1; }

/// The daemon's settings, at their defaults; main's FlagTable documents
/// each one.
struct WsqdFlags {
  int port = 9090;
  double scale = 0.05;
  int64_t seed = 7;
  std::string profile = "unloaded";
  std::string fault_plan = "none";
  std::string codec = "binary";
  int worker_threads = 8;
  bool no_service_sleep = false;
  std::string port_file;
  std::string stats_out;
  int stats_interval_s = 0;
  int max_connections = 0;
  double rate_limit = 0.0;
  double rate_limit_burst = 0.0;
  int shed_watermark = 0;
  double drain_timeout_s = 10.0;
  double idle_timeout_s = 0.0;
  double session_ttl_s = 0.0;
};

/// One stats snapshot to `path` (atomic enough for pollers: write to a
/// temp name, then rename over the target).
void WriteStatsSnapshot(wsq::net::WsqServer& server, const std::string& path) {
  const std::string body = server.StatsJson();
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "wsqd: cannot open %s\n", tmp.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "wsqd: cannot rename %s -> %s\n", tmp.c_str(),
                 path.c_str());
  }
}

/// The paper's server-side configurations as LoadModelConfig presets:
/// "unloaded" (conf1.1), "loaded" (conf1.2: concurrent queries sharing
/// CPU/memory), "memory" (conf1.3: memory-intensive jobs shrinking the
/// buffer).
bool LoadProfileByName(const std::string& name, wsq::LoadModelConfig* out) {
  wsq::LoadModelConfig config;
  if (name == "unloaded") {
    *out = config;
    return true;
  }
  if (name == "loaded") {
    config.concurrent_queries = 3;
    *out = config;
    return true;
  }
  if (name == "memory") {
    config.concurrent_jobs = 4;
    config.memory_pressure = 0.5;
    *out = config;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  WsqdFlags flags;
  wsq::FlagTable table;
  table.Add("port", &flags.port, "TCP port to listen on; 0 = ephemeral")
      .Add("port-file", &flags.port_file, "also write the bound port here")
      .Add("scale", &flags.scale, "TPC-H scale of the Customer/Orders tables")
      .Add("seed", &flags.seed, "data + load-noise seed")
      .Add("profile", &flags.profile,
           "server load: unloaded | loaded | memory (conf1.1/1.2/1.3)")
      .Add("fault-plan", &flags.fault_plan,
           "server-side chaos preset: none | burst | latency | stall | "
           "flaky | outage | resets")
      .Add("codec", &flags.codec,
           "richest codec offered: soap | binary | binary+lz")
      .Add("workers", &flags.worker_threads, "dispatch worker threads")
      .Add("no-service-sleep", &flags.no_service_sleep,
           "serve at raw dispatch speed, no modeled service-time sleep")
      .Add("stats-out", &flags.stats_out,
           "write the stats JSON here on SIGUSR1, periodically, at exit")
      .Add("stats-interval-s", &flags.stats_interval_s,
           "periodic stats snapshot interval; 0 = off")
      .Add("max-connections", &flags.max_connections,
           "reject connections beyond N (retryable); 0 = unlimited")
      .Add("rate-limit", &flags.rate_limit,
           "per-client-IP new connections per second; 0 = unlimited")
      .Add("rate-limit-burst", &flags.rate_limit_burst,
           "token-bucket burst; 0 = max(1, rate)")
      .Add("shed-watermark", &flags.shed_watermark,
           "shed requests (retryable) at N queued dispatches; 0 = never")
      .Add("drain-timeout-s", &flags.drain_timeout_s,
           "SIGTERM grace for in-flight work before a hard stop")
      .Add("idle-timeout-s", &flags.idle_timeout_s,
           "evict connections idle F seconds (ping at F/2); 0 = never")
      .Add("session-ttl-s", &flags.session_ttl_s,
           "evict sessions untouched F seconds; 0 = never");
  wsq::ParseFlagsOrExit(table, argc, argv);

  wsq::LoadModelConfig load;
  if (!LoadProfileByName(flags.profile, &load)) {
    std::fprintf(stderr, "wsqd: unknown --profile=%s\n",
                 flags.profile.c_str());
    return 2;
  }
  wsq::Result<wsq::FaultPlan> plan =
      wsq::FaultPlan::FromName(flags.fault_plan);
  if (!plan.ok()) {
    std::fprintf(stderr, "wsqd: %s\n", plan.status().ToString().c_str());
    return 2;
  }
  wsq::Result<wsq::codec::CodecChoice> codec =
      wsq::codec::CodecChoice::FromName(flags.codec);
  if (!codec.ok()) {
    std::fprintf(stderr, "wsqd: %s\n", codec.status().ToString().c_str());
    return 2;
  }

  wsq::TpchGenOptions gen;
  gen.scale = flags.scale;
  gen.seed = static_cast<uint64_t>(flags.seed);
  wsq::Result<std::shared_ptr<wsq::Table>> customer =
      wsq::GenerateCustomer(gen);
  wsq::Result<std::shared_ptr<wsq::Table>> orders = wsq::GenerateOrders(gen);
  if (!customer.ok() || !orders.ok()) {
    std::fprintf(stderr, "wsqd: table generation failed\n");
    return 1;
  }

  wsq::Dbms dbms;
  if (!dbms.RegisterTable(customer.value()).ok() ||
      !dbms.RegisterTable(orders.value()).ok()) {
    std::fprintf(stderr, "wsqd: table registration failed\n");
    return 1;
  }
  wsq::DataService service(&dbms);
  wsq::ServiceContainer container(&service, load,
                                  static_cast<uint64_t>(flags.seed));

  wsq::net::WsqServerOptions server_options;
  server_options.port = flags.port;
  server_options.worker_threads = flags.worker_threads;
  server_options.fault_plan = std::move(plan).value();
  server_options.fault_seed = static_cast<uint64_t>(flags.seed);
  server_options.simulate_service_time = !flags.no_service_sleep;
  server_options.codec = codec.value();
  server_options.admission.max_connections = flags.max_connections;
  server_options.admission.rate_limit_per_sec = flags.rate_limit;
  server_options.admission.rate_limit_burst = flags.rate_limit_burst;
  server_options.admission.shed_queue_watermark = flags.shed_watermark;
  server_options.idle_timeout_ms = flags.idle_timeout_s * 1000.0;
  server_options.session_ttl_ms = flags.session_ttl_s * 1000.0;
  wsq::net::WsqServer server(&container, server_options);

  wsq::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "wsqd: %s\n", started.ToString().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "wsqd: profile=%s fault-plan=%s codec<=%s scale=%g (%lld "
               "customer rows)\n",
               flags.profile.c_str(), flags.fault_plan.c_str(),
               flags.codec.c_str(), flags.scale,
               static_cast<long long>(customer.value()->num_rows()));
  // The machine-readable ready line scripts wait for and scrape.
  std::printf("wsqd listening on port %d\n", server.port());
  std::fflush(stdout);
  if (!flags.port_file.empty()) {
    std::FILE* out = std::fopen(flags.port_file.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "wsqd: cannot open --port-file=%s\n",
                   flags.port_file.c_str());
      return 1;
    }
    std::fprintf(out, "%d\n", server.port());
    std::fclose(out);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGUSR1, HandleStatsSignal);
  int64_t ticks = 0;  // 100 ms each
  while (g_stop == 0 && g_drain == 0) {
    struct timespec ts {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
    ++ticks;
    const bool periodic_due =
        !flags.stats_out.empty() && flags.stats_interval_s > 0 &&
        ticks % (static_cast<int64_t>(flags.stats_interval_s) * 10) == 0;
    if (g_dump_stats != 0 || periodic_due) {
      g_dump_stats = 0;
      if (!flags.stats_out.empty()) {
        WriteStatsSnapshot(server, flags.stats_out);
      } else {
        // SIGUSR1 without --stats-out: dump to stderr — still useful
        // for a quick look at a running daemon.
        std::fprintf(stderr, "%s\n", server.StatsJson().c_str());
      }
    }
  }

  // Final snapshot before teardown, so a consumer always sees the
  // complete run even when it never signaled.
  if (!flags.stats_out.empty()) WriteStatsSnapshot(server, flags.stats_out);
  if (g_drain != 0) {
    // SIGTERM: graceful drain. Clients mid-query see a retryable
    // goodbye (kGoaway / shed fault / FIN) and resume against the
    // replacement daemon; sessions would persist across a Start in the
    // same process.
    std::fprintf(stderr, "wsqd: draining (timeout %gs)\n",
                 flags.drain_timeout_s);
    const bool clean = server.Drain(flags.drain_timeout_s);
    std::fprintf(stderr, "wsqd: drain %s\n",
                 clean ? "complete" : "timed out; stopped hard");
  } else {
    server.Stop();
  }
  if (!flags.port_file.empty()) {
    // A stale port file must not point a launcher at a dead (or worse,
    // someone else's) port.
    std::remove(flags.port_file.c_str());
  }
  std::fprintf(stderr, "wsqd: served %lld exchanges on %lld connections "
                       "(%lld injected faults)\n",
               static_cast<long long>(server.exchanges_served()),
               static_cast<long long>(server.connections_accepted()),
               static_cast<long long>(server.faults_injected()));
  return 0;
}

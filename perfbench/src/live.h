// The live workloads: closed-loop clients against an in-process WsqServer
// over loopback TCP, with the simulated service-time sleep off.

#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "wsq/api.h"

namespace perfbench {

/// What one live workload sets. Everything not listed keeps the
/// library's (client) or wsqd's (server) default.
struct LiveOptions {
  /// Controller name as ControllerFactory::FromName spells it.
  std::string controller;
  /// Codec the clients advertise, and whether they ask for CRC-32C.
  wsq::codec::CodecChoice client_codec;
  bool crc = false;
};

/// Client threads, each owning one connection: one core of the 4-core
/// host stays for the server's event loop and dispatch.
inline constexpr int kClients = 3;

/// TPC-H scale of the generated customer table: 30,000 rows.
inline constexpr double kTableScale = 0.2;

/// Builds a fresh controller for one query from a per-query seed.
using QueryControllerFn =
    std::function<std::unique_ptr<wsq::Controller>(uint64_t query_seed)>;

/// The controller a live workload names, seeded per query: "hybrid"
/// gets the paper's parameters with its dither stream seeded from
/// `query_seed`; other names go through ControllerFactory::FromName.
QueryControllerFn NamedControllerFn(const std::string& name);

/// Result of one closed-loop segment.
struct LoopResult {
  double wall_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> query_ms;
  /// When each of those queries completed, in seconds since the loop
  /// started.
  std::vector<double> done_s;
  /// Each client's drain rate (queries per second of its own drain
  /// time), for the fairness index.
  std::vector<double> per_client;
  std::string first_error;
};

/// One set-up of a live workload: the table, the local oracle, the
/// server and one connected client per thread.
class LiveStack {
 public:
  /// Generates the table from `seed` and starts the server; `timed`
  /// installs the TimedService decorator (traced runs only).
  static wsq::Result<std::unique_ptr<LiveStack>> Create(
      const LiveOptions& options, uint64_t seed, bool timed);
  ~LiveStack();

  LiveStack(const LiveStack&) = delete;
  LiveStack& operator=(const LiveStack&) = delete;

  /// Runs every client in a closed loop until `seconds` have passed and
  /// it drained at least `min_queries` queries: each client starts its
  /// next query only when the previous one drained and was verified
  /// against the oracle. With a non-null `log` the client transport, the
  /// service and the controller are timed.
  LoopResult Run(double seconds, int min_queries,
                 const QueryControllerFn& make_controller, LayerLog* log);

  /// The relation the query scans, and the query (for the kernel
  /// replays).
  const wsq::Table& table() const;
  wsq::ScanProjectQuery replay_query() const;
  int64_t rows_per_query() const { return expected_rows_; }

 private:
  LiveStack() = default;

  /// Drains one query through `transport`, collecting its result rows.
  wsq::Status Drain(wsq::Controller* controller,
                    wsq::WsCallTransport* transport,
                    std::vector<wsq::Tuple>* rows) const;

  /// The oracle: row count and order-sensitive checksum against the
  /// local QueryCursor scan computed at set-up.
  wsq::Status Verify(const std::vector<wsq::Tuple>& rows) const;

  uint64_t seed_ = 0;
  std::shared_ptr<wsq::Table> customer_;
  wsq::ScanProjectQuery query_;
  std::unique_ptr<wsq::Schema> output_schema_;
  std::unique_ptr<wsq::TupleSerializer> serializer_;
  std::unique_ptr<wsq::Dbms> dbms_;
  std::unique_ptr<wsq::Service> service_;
  std::unique_ptr<TimedService> timed_service_;
  std::unique_ptr<wsq::ServiceContainer> container_;
  std::unique_ptr<wsq::net::WsqServer> server_;
  std::vector<std::unique_ptr<wsq::TcpWsClient>> clients_;
  int64_t expected_rows_ = 0;
  uint64_t expected_checksum_ = 0;
  uint64_t next_query_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_

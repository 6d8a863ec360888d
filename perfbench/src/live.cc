#include "live.h"

#include <atomic>
#include <thread>

namespace perfbench {

QueryControllerFn NamedControllerFn(const std::string& name) {
  return [name](uint64_t query_seed) -> std::unique_ptr<wsq::Controller> {
    wsq::Result<std::unique_ptr<wsq::Controller>> made =
        wsq::Status::Internal("unset");
    if (name == "hybrid") {
      wsq::HybridConfig config = wsq::PaperHybridConfig();
      config.base.seed = query_seed;
      made = wsq::ControllerFactory::MakeHybrid(config);
    } else {
      made = wsq::ControllerFactory::FromName(name);
    }
    if (!made.ok()) return nullptr;
    return std::move(made).value();
  };
}

wsq::Result<std::unique_ptr<LiveStack>> LiveStack::Create(
    const LiveOptions& options, uint64_t seed, bool timed) {
  std::unique_ptr<LiveStack> stack(new LiveStack());
  stack->seed_ = seed;

  wsq::TpchGenOptions gen;
  gen.scale = kTableScale;
  gen.seed = wsq::fleet::FleetMix64(seed ^ 0x7AB1Eull);
  wsq::Result<std::shared_ptr<wsq::Table>> customer =
      wsq::GenerateCustomer(gen);
  if (!customer.ok()) return customer.status();
  stack->customer_ = std::move(customer).value();

  RowChecksum oracle;
  // The oracle: the same scan, every column, done locally.
  stack->query_.table_name = stack->customer_->name();
  wsq::Result<std::unique_ptr<wsq::QueryCursor>> cursor =
      wsq::QueryCursor::Open(stack->customer_.get(), stack->query_);
  if (!cursor.ok()) return cursor.status();
  wsq::Result<std::vector<wsq::Tuple>> rows = cursor.value()->FetchBlock(
      static_cast<int64_t>(stack->customer_->num_rows()));
  if (!rows.ok()) return rows.status();
  for (const wsq::Tuple& row : rows.value()) oracle.Add(row);
  stack->output_schema_ =
      std::make_unique<wsq::Schema>(cursor.value()->output_schema());
  stack->dbms_ = std::make_unique<wsq::Dbms>();
  WSQ_RETURN_IF_ERROR(stack->dbms_->RegisterTable(stack->customer_));
  stack->service_ = std::make_unique<wsq::DataService>(stack->dbms_.get());
  stack->serializer_ =
      std::make_unique<wsq::TupleSerializer>(*stack->output_schema_);
  stack->expected_rows_ = oracle.rows();
  stack->expected_checksum_ = oracle.value();

  wsq::Service* hosted = stack->service_.get();
  if (timed) {
    stack->timed_service_ = std::make_unique<TimedService>(hosted);
    hosted = stack->timed_service_.get();
  }
  stack->container_ = std::make_unique<wsq::ServiceContainer>(
      hosted, wsq::LoadModelConfig{}, wsq::fleet::FleetMix64(seed ^ 0xC0117A1ull));

  // wsqd's defaults, except: the service-time sleep is off, and the
  // richest codec offered is binary (wsqd's --codec default).
  wsq::net::WsqServerOptions server_options;
  server_options.simulate_service_time = false;
  server_options.codec = wsq::codec::CodecChoice{wsq::codec::CodecKind::kBinary,
                                                 /*compress_blocks=*/false};
  stack->server_ = std::make_unique<wsq::net::WsqServer>(
      stack->container_.get(), std::move(server_options));
  WSQ_RETURN_IF_ERROR(stack->server_->Start());

  for (int c = 0; c < kClients; ++c) {
    wsq::TcpWsClientOptions client_options;
    client_options.codec = options.client_codec;
    client_options.enable_crc = options.crc;
    auto client = std::make_unique<wsq::TcpWsClient>(
        "127.0.0.1", stack->server_->port(), client_options);
    WSQ_RETURN_IF_ERROR(client->Connect());
    stack->clients_.push_back(std::move(client));
  }
  return stack;
}

LiveStack::~LiveStack() {
  clients_.clear();
  if (server_ != nullptr) server_->Stop();
}

const wsq::Table& LiveStack::table() const { return *customer_; }

wsq::ScanProjectQuery LiveStack::replay_query() const { return query_; }

wsq::Status LiveStack::Drain(wsq::Controller* controller,
                             wsq::WsCallTransport* transport,
                             std::vector<wsq::Tuple>* rows) const {
  wsq::BlockFetcher fetcher(transport, controller);
  return fetcher.Run(query_, serializer_.get(), rows).status();
}

wsq::Status LiveStack::Verify(const std::vector<wsq::Tuple>& rows) const {
  RowChecksum got;
  for (const wsq::Tuple& row : rows) got.Add(row);
  if (got.rows() != expected_rows_ || got.value() != expected_checksum_) {
    return wsq::Status::Internal(
        "result mismatch: " + std::to_string(got.rows()) + " rows, " +
        std::to_string(expected_rows_) + " expected, checksums " +
        (got.value() == expected_checksum_ ? "equal" : "differ"));
  }
  return wsq::Status::Ok();
}

LoopResult LiveStack::Run(double seconds, int min_queries,
                          const QueryControllerFn& make_controller,
                          LayerLog* log) {
  LoopResult result;
  const size_t n = clients_.size();
  std::vector<std::vector<double>> query_ms(n);
  std::vector<std::vector<double>> done_s(n);
  std::vector<int64_t> attempted(n, 0);
  std::vector<int64_t> failed(n, 0);
  std::vector<std::string> errors(n);
  std::atomic<uint64_t> next_query{next_query_};
  if (timed_service_ != nullptr) timed_service_->set_log(log);

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<TimedTransport> timed;
      wsq::WsCallTransport* transport = clients_[c].get();
      if (log != nullptr) {
        timed = std::make_unique<TimedTransport>(transport, log);
        transport = timed.get();
      }
      while (NowNs() < deadline || attempted[c] < min_queries) {
        const uint64_t q = next_query.fetch_add(1);
        std::unique_ptr<wsq::Controller> controller =
            make_controller(wsq::fleet::FleetMix64(seed_ ^ (q + 1)));
        if (log != nullptr && controller != nullptr) {
          controller = std::make_unique<TimedController>(
              std::move(controller), log, static_cast<int64_t>(q));
          timed->set_query(static_cast<int64_t>(q));
        }
        ++attempted[c];
        if (controller == nullptr) {
          ++failed[c];
          errors[c] = "unknown controller";
          continue;
        }
        std::vector<wsq::Tuple> rows;
        const int64_t t0 = NowNs();
        wsq::Status status = Drain(controller.get(), transport, &rows);
        const int64_t t1 = NowNs();
        if (status.ok()) status = Verify(rows);
        if (status.ok()) {
          query_ms[c].push_back(static_cast<double>(t1 - t0) * 1e-6);
          done_s[c].push_back(static_cast<double>(t1 - start) * 1e-9);
        } else {
          ++failed[c];
          if (errors[c].empty()) errors[c] = status.ToString();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = SecondsSince(start);
  if (timed_service_ != nullptr) timed_service_->set_log(nullptr);
  next_query_ = next_query.load();

  for (size_t c = 0; c < n; ++c) {
    result.attempted += attempted[c];
    result.failed += failed[c];
    result.query_ms.insert(result.query_ms.end(), query_ms[c].begin(),
                           query_ms[c].end());
    result.done_s.insert(result.done_s.end(), done_s[c].begin(),
                         done_s[c].end());
    double busy_ms = 0.0;
    for (double ms : query_ms[c]) busy_ms += ms;
    result.per_client.push_back(
        busy_ms > 0.0 ? 1e3 * static_cast<double>(query_ms[c].size()) / busy_ms
                      : 0.0);
    if (result.first_error.empty()) result.first_error = errors[c];
  }
  return result;
}

}  // namespace perfbench

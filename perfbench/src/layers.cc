#include "layers.h"

namespace perfbench {

void LayerLog::Span(const char* name, int lane, int64_t start_ns,
                    int64_t end_ns, int64_t query) {
  if (spans_.fetch_add(1, std::memory_order_relaxed) >= span_cap_) return;
  std::string args;
  if (query >= 0) args = "{\"query\":" + std::to_string(query) + "}";
  tracer_.AddComplete(name, "perfbench", (start_ns - epoch_ns_) / 1000,
                      (end_ns - start_ns) / 1000, lane, std::move(args));
}

TimedTransport::~TimedTransport() {
  log_->call_ms.AddAll(call_ms_);
  log_->response_bytes.AddAll(response_bytes_);
}

wsq::Result<wsq::CallResult> TimedTransport::Call(const std::string& request) {
  const int64_t start = NowNs();
  wsq::Result<wsq::CallResult> result = inner_->Call(request);
  const int64_t end = NowNs();
  call_ms_.push_back(static_cast<double>(end - start) * 1e-6);
  if (result.ok()) {
    response_bytes_.push_back(
        static_cast<double>(result.value().response.size()));
  } else {
    log_->call_failed.fetch_add(1, std::memory_order_relaxed);
  }
  log_->Span("client.call", kClientLane, start, end, query_);
  return result;
}

template <typename Fn>
wsq::ServiceResult TimedService::Timed(Fn&& handle) {
  LayerLog* log = log_.load(std::memory_order_acquire);
  if (log == nullptr) return handle();
  const int64_t start = NowNs();
  wsq::ServiceResult result = handle();
  const int64_t end = NowNs();
  log->handle_ms.Add(static_cast<double>(end - start) * 1e-6);
  if (result.is_fault) {
    log->handle_faults.fetch_add(1, std::memory_order_relaxed);
  }
  log->Span("server.handle", kServerLane, start, end, -1);
  return result;
}

wsq::ServiceResult TimedService::Handle(const std::string& request) {
  return Timed([&] { return inner_->Handle(request); });
}

wsq::ServiceResult TimedService::Handle(
    const std::string& request, const wsq::codec::BlockCodec* response_codec) {
  return Timed([&] { return inner_->Handle(request, response_codec); });
}

TimedController::~TimedController() {
  // A controller that never chose a block (the fleet world builds one per
  // tenant just to validate its factory) drove no query.
  if (initial_rows_ < 0 && step_ns_.empty()) return;
  if (initial_rows_ >= 0) rows_.push_back(static_cast<double>(initial_rows_));
  log_->step_ns.AddAll(step_ns_);
  log_->block_rows.AddAll(rows_);
  log_->queries.fetch_add(1, std::memory_order_relaxed);
}

int64_t TimedController::initial_block_size() const {
  initial_rows_ = inner_->initial_block_size();
  return initial_rows_;
}

int64_t TimedController::NextBlockSize(double response_time_ms) {
  const int64_t start = NowNs();
  const int64_t size = inner_->NextBlockSize(response_time_ms);
  const int64_t end = NowNs();
  step_ns_.push_back(static_cast<double>(end - start));
  rows_.push_back(static_cast<double>(size));
  log_->Span("control.step", kControlLane, start, end, query_);
  return size;
}

}  // namespace perfbench

// Layer decorators: the benchmark times each layer from outside, by
// wrapping the library's public interfaces. The program under test is
// unchanged; a traced run installs these wrappers, an untraced run does
// not.
//
//   TimedTransport  around WsCallTransport::Call  (TcpWsClient::Call)
//   TimedService    around Service::Handle        (DataService)
//   TimedController around Controller::NextBlockSize
//
// Every wrapped call records one span into a wsq::Tracer (kept in
// memory, written as a Chrome trace at the end of the run) and its
// duration into a LayerLog.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats.h"
#include "wsq/client/call_transport.h"
#include "wsq/control/controller.h"
#include "wsq/obs/trace.h"
#include "wsq/server/service.h"

namespace perfbench {

/// Everything one traced run observed at the layer boundaries.
class LayerLog {
 public:
  /// At most `span_cap` spans are kept in the tracer; counts and
  /// durations are recorded for every call regardless.
  explicit LayerLog(size_t span_cap) : span_cap_(span_cap) {}

  /// Adds one complete span [start_ns, end_ns) on `lane` unless the cap
  /// is reached. `query` (>= 0) names the query the span belongs to.
  void Span(const char* name, int lane, int64_t start_ns, int64_t end_ns,
            int64_t query);

  wsq::Tracer& tracer() { return tracer_; }

  /// Client side (TimedTransport).
  Samples call_ms;
  std::atomic<int64_t> call_failed{0};
  Samples response_bytes;

  /// Server side (TimedService).
  Samples handle_ms;
  std::atomic<int64_t> handle_faults{0};

  /// Controller (TimedController): per-step ns and commanded rows.
  Samples step_ns;
  Samples block_rows;
  std::atomic<int64_t> queries{0};

 private:
  const size_t span_cap_;
  std::atomic<size_t> spans_{0};
  const int64_t epoch_ns_ = NowNs();
  wsq::Tracer tracer_;
};

/// Tracer lanes of the three decorators.
inline constexpr int kClientLane = wsq::TraceLane::kPullLoop;
inline constexpr int kControlLane = wsq::TraceLane::kController;
inline constexpr int kServerLane = wsq::TraceLane::kServer;

/// WsCallTransport decorator: times Call, forwards everything else.
/// Durations are batched per instance and flushed to the log when the
/// decorator is destroyed.
class TimedTransport final : public wsq::WsCallTransport {
 public:
  /// `inner` and `log` must outlive the decorator.
  TimedTransport(wsq::WsCallTransport* inner, LayerLog* log)
      : inner_(inner), log_(log) {}
  ~TimedTransport() override;

  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  /// Query the following calls belong to (span argument only).
  void set_query(int64_t query) { query_ = query; }

  wsq::Result<wsq::CallResult> Call(const std::string& request) override;
  void AdvanceClockMs(double ms) override { inner_->AdvanceClockMs(ms); }
  const wsq::Clock* clock() const override { return inner_->clock(); }
  double LastFailureCostMs() const override {
    return inner_->LastFailureCostMs();
  }
  void SetCallDeadlineMs(double deadline_ms) override {
    inner_->SetCallDeadlineMs(deadline_ms);
  }
  wsq::codec::CodecKind wire_codec() const override {
    return inner_->wire_codec();
  }
  bool SequencedRetriesSafe() const override {
    return inner_->SequencedRetriesSafe();
  }
  bool TracingNegotiated() const override {
    return inner_->TracingNegotiated();
  }
  void SetNextCallTrace(uint64_t trace_id, uint64_t span_id) override {
    inner_->SetNextCallTrace(trace_id, span_id);
  }
  std::vector<wsq::RemoteSpan> TakeRemoteSpans() override {
    return inner_->TakeRemoteSpans();
  }

 private:
  wsq::WsCallTransport* inner_;
  LayerLog* log_;
  int64_t query_ = -1;
  std::vector<double> call_ms_;
  std::vector<double> response_bytes_;
};

/// Service decorator: times both Handle overloads. The log is switched
/// between segments of a traced run; a null log forwards untimed.
class TimedService final : public wsq::Service {
 public:
  /// `inner` must outlive the decorator.
  explicit TimedService(wsq::Service* inner) : inner_(inner) {}

  void set_log(LayerLog* log) { log_.store(log, std::memory_order_release); }

  wsq::ServiceResult Handle(const std::string& request) override;
  wsq::ServiceResult Handle(
      const std::string& request,
      const wsq::codec::BlockCodec* response_codec) override;
  int64_t ActiveSessions() const override { return inner_->ActiveSessions(); }
  int64_t EvictIdleSessions(int64_t now_micros, int64_t idle_micros) override {
    return inner_->EvictIdleSessions(now_micros, idle_micros);
  }

 private:
  /// Runs `handle` (one forwarded Handle call), timed when a log is set.
  template <typename Fn>
  wsq::ServiceResult Timed(Fn&& handle);

  wsq::Service* inner_;
  std::atomic<LayerLog*> log_{nullptr};
};

/// Controller decorator: times NextBlockSize and records the commanded
/// block sizes. Samples are batched per instance and flushed to the log
/// when the controller is destroyed (one query or one tenant run).
class TimedController final : public wsq::Controller {
 public:
  TimedController(std::unique_ptr<wsq::Controller> inner, LayerLog* log,
                  int64_t query)
      : inner_(std::move(inner)), log_(log), query_(query) {}
  ~TimedController() override;

  TimedController(const TimedController&) = delete;
  TimedController& operator=(const TimedController&) = delete;

  int64_t initial_block_size() const override;
  int64_t NextBlockSize(double response_time_ms) override;
  int64_t adaptivity_steps() const override {
    return inner_->adaptivity_steps();
  }
  void Reset() override { inner_->Reset(); }
  std::string name() const override { return inner_->name(); }
  wsq::StateSnapshot DebugState() const override {
    return inner_->DebugState();
  }

 private:
  std::unique_ptr<wsq::Controller> inner_;
  LayerLog* log_;
  int64_t query_;
  std::vector<double> step_ns_;
  std::vector<double> rows_;
  /// initial_block_size() is a const query the pull loop may call more
  /// than once; its size is recorded once, at destruction.
  mutable int64_t initial_rows_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

#include "wsq/net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "wsq/codec/binary_codec.h"
#include "wsq/common/clock.h"
#include "wsq/net/frame.h"
#include "wsq/obs/json_lite.h"
#include "wsq/soap/envelope.h"
#include "wsq/soap/message.h"

namespace wsq::net {

namespace {

void SleepMs(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

/// epoll tags for the two non-connection fds. Connection ids count up
/// from 0, so the top of the u64 range can never collide.
constexpr uint64_t kListenerTag = ~0ull;
constexpr uint64_t kWakeupTag = ~0ull - 1;

/// Events per epoll_wait batch. Level-triggered: anything beyond the
/// batch stays ready and surfaces next iteration.
constexpr int kEpollBatch = 256;

/// Loop wakeup cadence when nothing is ready — the Stop() latency floor.
constexpr int kLoopTickMs = 100;

/// Read chunks per EPOLLIN event before yielding to the rest of the
/// batch (level-triggered re-fires for the remainder): one slow loop
/// iteration must not let a single fat connection starve thousands.
constexpr int kMaxReadsPerEvent = 8;

/// Pipelined frames a connection may queue behind its in-flight
/// dispatch before it is considered abusive and dropped.
constexpr size_t kMaxPendingFrames = 1024;

/// Housekeeping cadence floor: under load the loop iterates far faster
/// than the idle tick, and the idle/drain/TTL sweeps are O(conns).
constexpr int64_t kHousekeepingIntervalMicros = 50 * 1000;

}  // namespace

WsqServer::WsqServer(ServiceContainer* container, WsqServerOptions options)
    : container_(container), options_(std::move(options)) {}

WsqServer::~WsqServer() { Stop(); }

Status WsqServer::Start() {
  if (running_.load()) return Status::Ok();
  Result<Socket> listener =
      TcpListen(pinned_port_ != 0 ? pinned_port_ : options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  Result<int> port = LocalPort(listener_);
  if (!port.ok()) return port.status();
  pinned_port_ = port.value();
  SetNonBlocking(listener_.fd(), true);

  epoll_ = std::make_unique<Epoll>();
  wakeup_ = std::make_unique<EventFd>();
  if (!epoll_->valid() || !wakeup_->valid()) {
    listener_.Close();
    return Status::Internal("failed to create epoll/eventfd");
  }
  Status st = epoll_->Add(listener_.fd(), EPOLLIN, kListenerTag);
  if (st.ok()) st = epoll_->Add(wakeup_->fd(), EPOLLIN, kWakeupTag);
  if (!st.ok()) {
    listener_.Close();
    return st;
  }

  admission_ = std::make_unique<AdmissionController>(options_.admission);
  pool_ = std::make_unique<exec::ThreadPool>(options_.worker_threads);
  draining_.store(false);
  last_housekeeping_micros_ = 0;
  running_.store(true);
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::Ok();
}

void WsqServer::Stop() {
  if (!running_.exchange(false)) return;
  if (wakeup_) wakeup_->Signal();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop's epilogue closed the listener and every connection (the
  // FIN wakes clients blocked mid-read). Workers may still be finishing
  // dispatches; joining them here is what makes Stop() a full barrier.
  pool_.reset();
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.clear();
  }
  dispatch_inflight_.store(0);
  draining_.store(false);
}

void WsqServer::BeginDrain() {
  if (!running_.load()) return;
  draining_.store(true);
  if (wakeup_) wakeup_->Signal();
}

bool WsqServer::Drain(double timeout_s) {
  if (!running_.load()) return true;
  BeginDrain();
  const int64_t deadline =
      WallClock().NowMicros() + static_cast<int64_t>(timeout_s * 1'000'000.0);
  bool clean = false;
  for (;;) {
    if (live_connections_.load() == 0 && dispatch_inflight_.load() == 0) {
      clean = true;
      break;
    }
    if (WallClock().NowMicros() >= deadline) break;
    SleepMs(5.0);
  }
  Stop();
  return clean;
}

void WsqServer::EventLoop() {
  std::vector<struct epoll_event> events(kEpollBatch);
  while (running_.load()) {
    Result<int> ready = epoll_->Wait(events.data(), kEpollBatch, kLoopTickMs);
    if (!ready.ok()) break;
    ready_queue_depth_.store(ready.value());
    for (int i = 0; i < ready.value(); ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeupTag) {
        wakeup_->Drain();
        continue;
      }
      if (tag == kListenerTag) {
        AcceptReady();
        continue;
      }
      HandleConnEvent(tag, events[i].events);
    }
    DrainCompletions();
    Housekeeping();
  }
  // Teardown belongs to the loop thread, the connections' only owner.
  // A graceful close sends FIN, which is exactly what wakes a client
  // blocked in a read ("connection closed" → retryable kUnavailable).
  for (auto& [id, conn] : conns_) {
    conn->alive->store(false);
    conn->socket.Close();
  }
  conns_.clear();
  live_connections_.store(0);
  listener_.Close();
}

void WsqServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: drained. Anything else (EMFILE under fd pressure,
      // a connection that died in the backlog): give up this round,
      // the listener stays armed.
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetNonBlocking(fd, true);
    connections_accepted_.fetch_add(1);

    Socket socket(fd);
    std::string peer_ip;
    if (Result<std::string> ip = PeerIp(socket); ip.ok()) {
      peer_ip = std::move(ip).value();
    }
    const AdmitDecision decision = admission_->AdmitConnection(
        peer_ip, static_cast<int>(conns_.size()), WallClock().NowMicros());
    if (decision == AdmitDecision::kRejectCapacity) {
      connections_rejected_.fetch_add(1);
    } else if (decision == AdmitDecision::kRejectRate) {
      rate_limited_.fetch_add(1);
    }

    auto conn = std::make_unique<Connection>();
    conn->rejecting = decision != AdmitDecision::kAdmit;
    conn->alive = std::make_shared<std::atomic<bool>>(true);
    conn->interest = EPOLLIN | EPOLLRDHUP;
    conn->last_activity_micros = WallClock().NowMicros();
    const int64_t id = next_connection_id_++;
    conn->id = id;
    if (!epoll_->Add(fd, conn->interest, static_cast<uint64_t>(id)).ok()) {
      continue;  // socket closes via RAII
    }
    conn->socket = std::move(socket);
    conns_.emplace(id, std::move(conn));
    live_connections_.store(static_cast<int64_t>(conns_.size()));
  }
}

void WsqServer::MarkDead(Connection& conn, bool hard) {
  conn.dead = true;
  conn.dead_hard = conn.dead_hard || hard;
}

void WsqServer::CloseConn(int64_t id, bool hard) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  conn.alive->store(false);
  if (hard) {
    conn.socket.CloseHard();
  } else {
    conn.socket.Close();
  }
  conns_.erase(it);
  live_connections_.store(static_cast<int64_t>(conns_.size()));
}

void WsqServer::HandleConnEvent(uint64_t tag, uint32_t events) {
  const int64_t id = static_cast<int64_t>(tag);
  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // closed earlier in this batch
  Connection& conn = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    conn.alive->store(false);
    CloseConn(id, /*hard=*/false);
    return;
  }
  if ((events & EPOLLIN) != 0) ReadReady(conn);
  if (!conn.dead && (events & EPOLLOUT) != 0) FlushWrites(conn);
  if (!conn.dead && (events & EPOLLRDHUP) != 0 &&
      (conn.interest & EPOLLIN) == 0) {
    // Reads are paused (backpressure) so ReadReady will not observe the
    // hangup; without this the connection would linger forever.
    conn.alive->store(false);
    MarkDead(conn, /*hard=*/false);
  }
  FinishConn(id);
}

void WsqServer::ReadReady(Connection& conn) {
  char buf[64 * 1024];
  for (int round = 0; round < kMaxReadsPerEvent && !conn.dead; ++round) {
    const ssize_t n = ::recv(conn.socket.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn.last_activity_micros = WallClock().NowMicros();
      conn.ping_pending = false;
      std::vector<Frame> frames;
      const Status st =
          conn.parser.Consume(buf, static_cast<size_t>(n), &frames);
      for (Frame& frame : frames) {
        if (conn.dead) break;
        ProcessFrame(conn, std::move(frame));
      }
      if (!st.ok()) {
        // Garbage speaker: framing is unrecoverable. Frames completed
        // before the poison were served; the connection is done.
        MarkDead(conn, /*hard=*/false);
        return;
      }
      if (static_cast<size_t>(n) < sizeof(buf)) return;  // drained
      // Large responses queued meanwhile? Stop reading under
      // backpressure; level-triggered EPOLLIN resumes us later.
      if (conn.write_buf.size() - conn.write_cursor >=
          options_.write_buffer_limit) {
        return;
      }
      continue;
    }
    if (n == 0) {
      // Peer FIN. Any in-flight dispatch is abandoned (the alive flag
      // tells a stalled worker); its completion is dropped by id.
      conn.alive->store(false);
      MarkDead(conn, /*hard=*/false);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn.alive->store(false);
    MarkDead(conn, /*hard=*/false);
    return;
  }
}

void WsqServer::ProcessFrame(Connection& conn, Frame frame) {
  if (conn.close_after_flush) return;  // already saying goodbye
  // Liveness control frames bypass the dispatch queue entirely: a
  // heartbeat must answer even while a long dispatch is in flight, or
  // the probe would measure queue depth instead of liveness.
  if (frame.type == FrameType::kPing) {
    Frame pong;
    pong.type = FrameType::kPong;
    SendFrame(conn, std::move(pong));
    return;
  }
  if (frame.type == FrameType::kPong) return;  // ReadReady cleared the flag
  if (frame.type == FrameType::kGoaway) {
    // The peer is going away; finish the goodbye with a plain FIN.
    MarkDead(conn, /*hard=*/false);
    return;
  }
  if (conn.dispatch_inflight || !conn.pending.empty()) {
    if (conn.pending.size() >= kMaxPendingFrames) {
      MarkDead(conn, /*hard=*/false);
      return;
    }
    conn.pending.push_back(std::move(frame));
    return;
  }
  HandleFrameNow(conn, std::move(frame));
}

void WsqServer::HandleFrameNow(Connection& conn, Frame frame) {
  if (frame.type == FrameType::kHello) {
    const codec::CodecKind picked =
        codec::NegotiateCodec(frame.payload, options_.codec.kind);
    codec::CodecChoice choice;
    choice.kind = picked;
    choice.compress_blocks = picked == codec::CodecKind::kBinary &&
                             options_.codec.compress_blocks;
    conn.negotiated = codec::MakeBlockCodec(choice);
    Frame ack;
    ack.type = FrameType::kHelloAck;
    ack.payload = std::string(codec::CodecKindName(picked));
    if (codec::AdvertisesFeature(frame.payload, codec::kTraceFeatureToken)) {
      conn.trace_negotiated = true;
      trace_connections_.fetch_add(1);
      ack.payload += '+';
      ack.payload += codec::kTraceFeatureToken;
    }
    // crc/live flip on *before* the ack goes out, so the ack itself is
    // integrity-protected — safe, because only a peer that advertised
    // the token (and so parses flagged frames) ever sees it.
    if (codec::AdvertisesFeature(frame.payload, codec::kCrcFeatureToken)) {
      conn.crc_negotiated = true;
      ack.payload += '+';
      ack.payload += codec::kCrcFeatureToken;
    }
    if (codec::AdvertisesFeature(frame.payload, codec::kLiveFeatureToken)) {
      conn.live_negotiated = true;
      ack.payload += '+';
      ack.payload += codec::kLiveFeatureToken;
    }
    SendFrame(conn, std::move(ack));
    return;
  }
  if (frame.type == FrameType::kStats) {
    stats_requests_.fetch_add(1);
    Frame ack;
    ack.type = FrameType::kStatsAck;
    ack.payload = StatsJson();
    SendFrame(conn, std::move(ack));
    return;
  }
  if (frame.type != FrameType::kRequest) {
    MarkDead(conn, /*hard=*/false);
    return;
  }
  HandleRequestFrame(conn, std::move(frame));
}

void WsqServer::HandleRequestFrame(Connection& conn, Frame frame) {
  if (conn.rejecting) {
    // Admission said no at accept time; the first exchange carries the
    // verdict as a retryable fault and the connection closes. (Hello
    // was still answered normally above — a fault there would read as
    // a legacy-server signal and wrongly downgrade the client to SOAP.)
    SendBackpressureFault(conn, "connection rejected (admission control)");
    conn.close_after_flush = true;
    return;
  }
  if (draining_.load()) {
    // Draining: in-flight work finishes, new work does not start. The
    // retryable fault sends the client back to reconnect — which the
    // closed listener refuses until the restarted server takes over.
    SendBackpressureFault(conn, "server draining (restart in progress)");
    conn.close_after_flush = true;
    return;
  }
  if (admission_->ShouldShed(
          static_cast<size_t>(dispatch_inflight_.load()))) {
    // Overload: answer now from the loop, never touching the workers.
    // The connection survives — shedding is backpressure, not eviction.
    sheds_.fetch_add(1);
    SendBackpressureFault(conn, "request shed (worker queue over watermark)");
    return;
  }
  conn.dispatch_inflight = true;
  dispatch_inflight_.fetch_add(1);
  DispatchJob job;
  job.conn_id = conn.id;
  job.request = std::move(frame);
  job.codec = conn.negotiated;
  job.trace_negotiated = conn.trace_negotiated;
  job.alive = conn.alive;
  pool_->Submit([this, job = std::move(job)]() mutable {
    Completion done = RunExchange(job);
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(done));
    }
    wakeup_->Signal();
  });
}

void WsqServer::SendFrame(Connection& conn, Frame frame) {
  frame.has_crc = conn.crc_negotiated;
  if (!AppendFrameBytes(frame, &conn.write_buf).ok()) {
    MarkDead(conn, /*hard=*/false);
  }
}

void WsqServer::SendBackpressureFault(Connection& conn,
                                      const std::string& detail) {
  Frame response;
  response.type = FrameType::kResponse;
  // Transient: the client maps this to kUnavailable — retry, the
  // session cursor did not move — exactly like an injected chaos fault.
  response.flags = kFrameFlagSoapFault | kFrameFlagTransientFault;
  response.payload = BuildFaultEnvelope({"Server", detail});
  SendFrame(conn, std::move(response));
}

void WsqServer::FlushWrites(Connection& conn) {
  while (conn.write_cursor < conn.write_buf.size()) {
    const ssize_t n = ::send(conn.socket.fd(),
                             conn.write_buf.data() + conn.write_cursor,
                             conn.write_buf.size() - conn.write_cursor,
                             MSG_NOSIGNAL);
    if (n >= 0) {
      conn.write_cursor += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.alive->store(false);
    MarkDead(conn, errno == ECONNRESET);
    return;
  }
  if (conn.write_cursor == conn.write_buf.size()) {
    conn.write_buf.clear();
    conn.write_cursor = 0;
    if (conn.close_after_flush) MarkDead(conn, /*hard=*/false);
  } else if (conn.write_cursor > 64 * 1024) {
    // Compact so a long-lived slow reader does not pin every byte it
    // ever lagged behind on.
    conn.write_buf.erase(0, conn.write_cursor);
    conn.write_cursor = 0;
  }
}

void WsqServer::UpdateInterest(int64_t id, Connection& conn) {
  uint32_t want = EPOLLRDHUP;
  const size_t unsent = conn.write_buf.size() - conn.write_cursor;
  if (unsent > 0) want |= EPOLLOUT;
  const bool paused = conn.close_after_flush ||
                      unsent >= options_.write_buffer_limit ||
                      conn.pending.size() >= kMaxPendingFrames;
  if (!paused) want |= EPOLLIN;
  if (want != conn.interest) {
    if (epoll_->Modify(conn.socket.fd(), want, static_cast<uint64_t>(id))
            .ok()) {
      conn.interest = want;
    }
  }
}

void WsqServer::FinishConn(int64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (!conn.dead) FlushWrites(conn);
  if (conn.dead) {
    CloseConn(id, conn.dead_hard);
    return;
  }
  UpdateInterest(id, conn);
}

void WsqServer::DrainCompletions() {
  std::deque<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    done.swap(completions_);
  }
  for (Completion& completion : done) {
    dispatch_inflight_.fetch_sub(1);
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-dispatch
    Connection& conn = *it->second;
    conn.dispatch_inflight = false;
    switch (completion.outcome) {
      case ExchangeOutcome::kContinue:
        if (completion.has_response) {
          SendFrame(conn, std::move(completion.response));
        }
        break;
      case ExchangeOutcome::kClose:
        MarkDead(conn, /*hard=*/false);
        break;
      case ExchangeOutcome::kCloseHard:
        MarkDead(conn, /*hard=*/true);
        break;
    }
    // The dispatch slot freed up: pump frames that queued behind it.
    while (!conn.dead && !conn.dispatch_inflight && !conn.close_after_flush &&
           !conn.pending.empty()) {
      Frame next = std::move(conn.pending.front());
      conn.pending.pop_front();
      HandleFrameNow(conn, std::move(next));
    }
    FinishConn(completion.conn_id);
  }
}

void WsqServer::Housekeeping() {
  const int64_t now = WallClock().NowMicros();
  if (now - last_housekeeping_micros_ < kHousekeepingIntervalMicros) return;
  last_housekeeping_micros_ = now;

  const bool draining = draining_.load();
  if (draining && listener_.valid()) {
    // Stop accepting first: a drain must be a shrinking set.
    epoll_->Remove(listener_.fd());
    listener_.Close();
  }

  const int64_t idle_timeout_micros =
      static_cast<int64_t>(options_.idle_timeout_ms * 1000.0);
  if (draining || idle_timeout_micros > 0) {
    std::vector<int64_t> touched;
    for (auto& [id, conn_ptr] : conns_) {
      Connection& conn = *conn_ptr;
      if (conn.dead || conn.close_after_flush) continue;
      const bool busy = conn.dispatch_inflight || !conn.pending.empty() ||
                        conn.write_buf.size() - conn.write_cursor > 0;
      if (draining) {
        // In-flight work finishes; the moment a connection goes quiet
        // it gets its goodbye — explicit kGoaway for a "live" peer
        // (mapped to retryable kUnavailable), plain FIN otherwise
        // (same client-side observable).
        if (busy) continue;
        if (conn.live_negotiated) {
          Frame goaway;
          goaway.type = FrameType::kGoaway;
          SendFrame(conn, std::move(goaway));
          goaways_sent_.fetch_add(1);
          conn.close_after_flush = true;
        } else {
          conn.alive->store(false);
          MarkDead(conn, /*hard=*/false);
        }
        touched.push_back(id);
        continue;
      }
      if (busy) {
        // An in-flight dispatch (possibly a long simulated service
        // sleep) is proof of life; don't let the probe clock run.
        conn.last_activity_micros = now;
        continue;
      }
      const int64_t idle = now - conn.last_activity_micros;
      if (idle >= idle_timeout_micros) {
        // Half-open (or just dead quiet past the budget): evict. For a
        // "live" peer this fires only after an unanswered ping.
        idle_evicted_.fetch_add(1);
        conn.alive->store(false);
        MarkDead(conn, /*hard=*/false);
        touched.push_back(id);
      } else if (conn.live_negotiated && !conn.ping_pending &&
                 idle >= idle_timeout_micros / 2) {
        Frame ping;
        ping.type = FrameType::kPing;
        SendFrame(conn, std::move(ping));
        pings_sent_.fetch_add(1);
        conn.ping_pending = true;
        touched.push_back(id);
      }
    }
    for (int64_t id : touched) FinishConn(id);
  }

  const int64_t ttl_micros =
      static_cast<int64_t>(options_.session_ttl_ms * 1000.0);
  if (ttl_micros > 0) {
    const int64_t evicted = container_->EvictIdleSessions(now, ttl_micros);
    if (evicted > 0) evicted_sessions_.fetch_add(evicted);
    {
      std::lock_guard<std::mutex> lock(fault_mu_);
      for (auto it = session_faults_.begin(); it != session_faults_.end();) {
        if (now - it->second->last_touch_micros >= ttl_micros) {
          it = session_faults_.erase(it);
        } else {
          ++it;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      for (auto it = session_stats_.begin(); it != session_stats_.end();) {
        if (now - it->second.last_touch_micros >= ttl_micros) {
          it = session_stats_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

std::shared_ptr<WsqServer::SessionFaultState> WsqServer::FaultStateForSession(
    int64_t session_id) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  auto it = session_faults_.find(session_id);
  if (it == session_faults_.end()) {
    auto state = std::make_shared<SessionFaultState>();
    state->injector = std::make_unique<FaultInjector>(
        options_.fault_plan,
        options_.fault_seed + static_cast<uint64_t>(session_id));
    state->start_micros = WallClock().NowMicros();
    it = session_faults_.emplace(session_id, std::move(state)).first;
  }
  it->second->last_touch_micros = WallClock().NowMicros();
  return it->second;
}

int64_t WsqServer::BlockRequestSessionId(const std::string& payload) {
  if (codec::SniffPayloadCodec(payload) == codec::CodecKind::kBinary) {
    static const codec::BinaryCodec sniffer;
    Result<RequestBlockRequest> block = sniffer.DecodeRequestBlock(payload);
    return block.ok() ? block.value().session_id : -1;
  }
  Result<XmlNode> parsed = ParseEnvelope(payload);
  if (!parsed.ok()) return -1;
  Result<RequestKind> kind = ClassifyRequest(parsed.value());
  if (!kind.ok() || kind.value() != RequestKind::kRequestBlock) return -1;
  Result<RequestBlockRequest> block = DecodeRequestBlock(parsed.value());
  return block.ok() ? block.value().session_id : -1;
}

void WsqServer::RecordExchangeStats(int64_t session_id, size_t request_bytes,
                                    size_t response_bytes, bool replayed,
                                    bool fault, double latency_ms) {
  bytes_in_.fetch_add(static_cast<int64_t>(request_bytes));
  bytes_out_.fetch_add(static_cast<int64_t>(response_bytes));
  if (replayed) replay_hits_.fetch_add(1);
  if (session_id < 0) return;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    SessionStats& stats = session_stats_[session_id];
    stats.last_touch_micros = WallClock().NowMicros();
    ++stats.blocks;
    stats.bytes_in += static_cast<int64_t>(request_bytes);
    stats.bytes_out += static_cast<int64_t>(response_bytes);
    if (replayed) ++stats.replay_hits;
    if (fault) ++stats.faults;
    if (stats.latency_ms == nullptr) {
      stats.latency_ms =
          std::make_unique<Histogram>(Histogram::LatencyBucketsMs());
    }
    stats.latency_ms->Record(latency_ms);
  }
  // Labeled mirrors: the same rollups as per-session counter families,
  // so the registry's SumCounters aggregation and every exporter see
  // them without knowing about the map above.
  const std::string id = std::to_string(session_id);
  stats_registry_
      .GetCounter(LabeledName("wsq.server.session.blocks", "session", id))
      ->Increment();
  stats_registry_
      .GetCounter(LabeledName("wsq.server.session.bytes_out", "session", id))
      ->Increment(static_cast<int64_t>(response_bytes));
  if (replayed) {
    stats_registry_
        .GetCounter(
            LabeledName("wsq.server.session.replay_hits", "session", id))
        ->Increment();
  }
  stats_registry_
      .GetHistogram(LabeledName("wsq.server.session.block_ms", "session", id),
                    Histogram::LatencyBucketsMs())
      ->Record(latency_ms);
}

WsqServer::Completion WsqServer::RunExchange(const DispatchJob& job) {
  Completion done;
  done.conn_id = job.conn_id;
  const Frame& request = job.request;

  // Session attribution: block exchanges carry their session id in the
  // payload (binary or SOAP); session management and garbage do not. A
  // parse failure is fine; the container will answer with a SOAP fault.
  const int64_t session_id = BlockRequestSessionId(request.payload);

  // Chaos targeting: only data-block exchanges are scripted (session
  // management is never faulted — plans address data transfer). A
  // shared_ptr: the TTL sweep may forget the map entry mid-exchange,
  // and this reference keeps the state alive until we're done.
  std::shared_ptr<SessionFaultState> state;
  if (!options_.fault_plan.empty() && session_id >= 0) {
    state = FaultStateForSession(session_id);
  }

  const WallClock wall;
  const int64_t t0 = wall.NowMicros();

  // Server-side spans: collected only when the connection negotiated
  // tracing AND this request carries a context to parent them under.
  // spans[0] is the root "server.request" span; its duration is patched
  // when the response is stamped.
  const bool tracing = job.trace_negotiated && request.has_trace;
  std::vector<RemoteSpan> spans;
  uint64_t root_span_id = 0;
  const auto add_span = [&](std::string_view name, int64_t ts_micros,
                            int64_t dur_micros, uint64_t parent) {
    const uint64_t id = next_span_id_.fetch_add(1);
    RemoteSpan span;
    span.span_id = id;
    span.parent_span_id = parent;
    span.ts_micros = ts_micros;
    span.dur_micros = dur_micros;
    span.name = std::string(name);
    spans.push_back(std::move(span));
    return id;
  };
  if (tracing) {
    root_span_id = add_span("server.request", t0, 0, request.trace.span_id);
  }
  const auto stamp_trace = [&](Frame& response, int64_t t_end) {
    if (!tracing) return;
    spans[0].dur_micros = t_end - t0;
    response.has_trace = true;
    response.trace.trace_id = request.trace.trace_id;
    response.trace.span_id = root_span_id;
    // The server clock reading paired with this response's
    // service_micros — the client's clock-offset sample.
    response.trace.clock_micros = static_cast<uint64_t>(t_end);
    response.span_block = EncodeRemoteSpans(spans);
  };

  double injected_sleep_ms = 0.0;
  if (state != nullptr) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    const double now_ms =
        static_cast<double>(t0 - state->start_micros) / 1000.0;
    const AttemptFault fault =
        state->injector->NextAttempt(state->blocks_served, now_ms);
    if (fault.faulted) {
      faults_injected_.fetch_add(1);
      if (fault.kind == FaultKind::kSoapFaultBurst) {
        // The service "answers" with a transient fault. The transient
        // flag tells the client this maps to kUnavailable (retry, the
        // cursor did not move), not to a terminal kRemoteFault.
        Frame response;
        response.type = FrameType::kResponse;
        response.flags = kFrameFlagSoapFault | kFrameFlagTransientFault;
        const int64_t t_fault = wall.NowMicros();
        response.service_micros = static_cast<uint64_t>(t_fault - t0);
        response.payload = BuildFaultEnvelope(
            {"Server", "injected transient fault (server-side chaos)"});
        if (tracing) {
          add_span("server.fault_injected", t_fault, 0, root_span_id);
        }
        stamp_trace(response, t_fault);
        RecordExchangeStats(session_id, request.payload.size(),
                            response.payload.size(), /*replayed=*/false,
                            /*fault=*/true,
                            static_cast<double>(t_fault - t0) / 1000.0);
        done.has_response = true;
        done.response = std::move(response);
        done.outcome = ExchangeOutcome::kContinue;
        return done;
      }
      // kUnavailability drops the connection quietly (FIN); the client
      // sees "connection closed" and retries. kConnectionReset slams it
      // (RST) — the same observable as the sim's reset fault. No
      // response frame travels, so these spans are simply lost —
      // telemetry shares the fate of the exchange it describes.
      done.outcome = fault.kind == FaultKind::kConnectionReset
                         ? ExchangeOutcome::kCloseHard
                         : ExchangeOutcome::kClose;
      return done;
    }
    const SuccessPerturbation perturb =
        state->injector->OnSuccess(state->blocks_served, now_ms);
    if (perturb.active()) {
      injected_sleep_ms = perturb.stall_ms + perturb.latency_add_ms;
    }
  }

  // Injected stalls happen BEFORE dispatch, and we re-check the peer
  // afterwards: a client whose deadline fired during the stall has
  // abandoned the exchange (the loop flipped `alive` on its hangup),
  // and dispatching anyway would advance the session cursor for a block
  // the client never received (it would then silently skip that block
  // on retry).
  if (injected_sleep_ms > 0.0) {
    const int64_t stall_begin = wall.NowMicros();
    SleepMs(injected_sleep_ms);
    if (tracing) {
      add_span("server.stall", stall_begin, wall.NowMicros() - stall_begin,
               root_span_id);
    }
  }
  if (!job.alive->load()) {
    done.outcome = ExchangeOutcome::kClose;
    return done;
  }

  const int64_t dispatch_begin = wall.NowMicros();
  DispatchResult result =
      container_->Dispatch(request.payload, job.codec.get());
  if (tracing) {
    add_span("server.dispatch", dispatch_begin,
             wall.NowMicros() - dispatch_begin, root_span_id);
    if (result.replayed) {
      add_span("server.replay_hit", dispatch_begin, 0, root_span_id);
    }
  }
  if (options_.simulate_service_time) {
    const int64_t sleep_begin = wall.NowMicros();
    SleepMs(result.service_time_ms);
    if (tracing && result.service_time_ms > 0.0) {
      add_span("server.service_sleep", sleep_begin,
               wall.NowMicros() - sleep_begin, root_span_id);
    }
  }

  if (state != nullptr && !result.is_fault) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    ++state->blocks_served;
  }

  Frame response;
  response.type = FrameType::kResponse;
  response.flags = result.is_fault ? kFrameFlagSoapFault : 0;
  // Measured residence (request fully read -> reply), which includes
  // both the simulated service sleep and any injected stall.
  const int64_t t_end = wall.NowMicros();
  response.service_micros = static_cast<uint64_t>(t_end - t0);
  response.payload = std::move(result.response);
  stamp_trace(response, t_end);
  exchanges_served_.fetch_add(1);
  if (codec::SniffPayloadCodec(response.payload) ==
      codec::CodecKind::kBinary) {
    binary_responses_.fetch_add(1);
  } else {
    soap_responses_.fetch_add(1);
  }
  RecordExchangeStats(session_id, request.payload.size(),
                      response.payload.size(), result.replayed,
                      result.is_fault,
                      static_cast<double>(t_end - t0) / 1000.0);
  done.has_response = true;
  done.response = std::move(response);
  done.outcome = ExchangeOutcome::kContinue;
  return done;
}

std::string WsqServer::StatsJson() {
  const int64_t active_sessions = container_->active_sessions();
  std::string out = "{\"schema_version\":1";
  const auto field = [&out](std::string_view name, int64_t value) {
    out += ",\"";
    out += name;
    out += "\":";
    out += std::to_string(value);
  };
  field("active_sessions", active_sessions);
  field("connections_accepted", connections_accepted_.load());
  field("exchanges_served", exchanges_served_.load());
  field("faults_injected", faults_injected_.load());
  field("replay_hits", replay_hits_.load());
  field("stats_requests", stats_requests_.load());
  field("trace_connections", trace_connections_.load());
  field("bytes_in", bytes_in_.load());
  field("bytes_out", bytes_out_.load());
  field("worker_queue_depth",
        pool_ ? static_cast<int64_t>(pool_->queue_depth()) : 0);
  // Event-loop gauges: what the frontend looks like *right now* —
  // connection census, last ready-batch size, the dispatch load the
  // shed watermark compares against, and the admission verdicts.
  out += ",\"event_loop\":{";
  out += "\"live_connections\":" + std::to_string(live_connections_.load());
  out += ",\"ready_queue_depth\":" + std::to_string(ready_queue_depth_.load());
  out +=
      ",\"dispatch_inflight\":" + std::to_string(dispatch_inflight_.load());
  out += ",\"sheds\":" + std::to_string(sheds_.load());
  out += ",\"rejected_capacity\":" +
         std::to_string(connections_rejected_.load());
  out += ",\"rejected_rate\":" + std::to_string(rate_limited_.load());
  out += ",\"draining\":";
  out += draining_.load() ? "true" : "false";
  out += ",\"idle_evicted\":" + std::to_string(idle_evicted_.load());
  out += ",\"pings_sent\":" + std::to_string(pings_sent_.load());
  out += ",\"goaways_sent\":" + std::to_string(goaways_sent_.load());
  out += ",\"evicted_sessions\":" + std::to_string(evicted_sessions_.load());
  out += '}';
  out += ",\"codec_mix\":{\"soap\":" + std::to_string(soap_responses_.load()) +
         ",\"binary\":" + std::to_string(binary_responses_.load()) + '}';
  out += ",\"sessions\":{";
  std::vector<double> session_p99s;
  std::vector<double> session_blocks;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    bool first = true;
    for (const auto& [id, stats] : session_stats_) {
      if (!first) out += ',';
      first = false;
      out += '"' + std::to_string(id) + "\":{";
      out += "\"blocks\":" + std::to_string(stats.blocks);
      out += ",\"bytes_in\":" + std::to_string(stats.bytes_in);
      out += ",\"bytes_out\":" + std::to_string(stats.bytes_out);
      out += ",\"replay_hits\":" + std::to_string(stats.replay_hits);
      out += ",\"faults\":" + std::to_string(stats.faults);
      if (stats.latency_ms != nullptr && stats.latency_ms->count() > 0) {
        out += ",\"latency_ms\":{";
        out += "\"count\":" + std::to_string(stats.latency_ms->count());
        out += ",\"mean\":" + JsonNumber(stats.latency_ms->mean());
        out += ",\"p50\":" + JsonNumber(stats.latency_ms->p50());
        out += ",\"p99\":" + JsonNumber(stats.latency_ms->p99());
        out += '}';
        session_p99s.push_back(stats.latency_ms->p99());
        session_blocks.push_back(static_cast<double>(stats.blocks));
      }
      out += '}';
    }
  }
  out += '}';
  // Fairness across the sessions with recorded latency: the tail-latency
  // spread an operator compares against an SLO, and Jain's index over
  // per-session served blocks (1.0 = every session got an equal share of
  // the server). A live fleet reads this instead of merging client-side.
  out += ",\"fairness\":{";
  out += "\"sessions\":" + std::to_string(session_p99s.size());
  if (!session_p99s.empty()) {
    const double p99_max =
        *std::max_element(session_p99s.begin(), session_p99s.end());
    const double p99_min =
        *std::min_element(session_p99s.begin(), session_p99s.end());
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double b : session_blocks) {
      sum += b;
      sum_sq += b * b;
    }
    const double jain =
        sum_sq > 0.0 ? (sum * sum) / (static_cast<double>(session_blocks.size()) *
                                      sum_sq)
                     : 1.0;
    out += ",\"p99_max_ms\":" + JsonNumber(p99_max);
    out += ",\"p99_min_ms\":" + JsonNumber(p99_min);
    out += ",\"p99_spread_ms\":" + JsonNumber(p99_max - p99_min);
    out += ",\"jain_index\":" + JsonNumber(jain);
  }
  out += '}';
  out += ",\"metrics\":" + stats_registry_.ToJson();
  out += '}';
  return out;
}

Result<std::string> FetchServerStats(const std::string& host, int port,
                                     double timeout_ms) {
  Result<Socket> conn = TcpConnect(host, port, timeout_ms);
  if (!conn.ok()) return conn.status();
  Socket socket = std::move(conn).value();
  socket.set_io_timeout_ms(timeout_ms);
  Frame request;
  request.type = FrameType::kStats;
  WSQ_RETURN_IF_ERROR(WriteFrame(socket, request));
  Result<Frame> response = ReadFrame(socket);
  if (!response.ok()) return response.status();
  if (response.value().type != FrameType::kStatsAck) {
    return Status::InvalidArgument(
        "peer answered a stats request with frame type " +
        std::to_string(static_cast<int>(response.value().type)));
  }
  return std::move(response.value().payload);
}

}  // namespace wsq::net

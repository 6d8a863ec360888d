// Concurrent dispatch: the live server's workers call
// ServiceContainer::Dispatch with no lock of their own, so the hosted
// services must be safe under any interleaving. DataService locks the
// session map briefly and each session for a whole block request; these
// tests drive that from several threads and check every byte served
// against a local scan. The suite also runs under TSan in CI.

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "wsq/codec/binary_codec.h"
#include "wsq/codec/codec.h"
#include "wsq/common/clock.h"
#include "wsq/relation/query.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/server/container.h"
#include "wsq/server/data_service.h"
#include "wsq/server/processing_service.h"
#include "wsq/soap/envelope.h"

namespace wsq {
namespace {

constexpr int64_t kEvictNothing = std::numeric_limits<int64_t>::max() / 4;

/// One client's query: what it opens and how it pulls.
struct ClientPlan {
  std::vector<std::string> columns;
  std::string filter;
  codec::CodecChoice codec;
  int64_t block_size = 100;
};

ClientPlan PlanFor(int client) {
  static const ClientPlan kPlans[] = {
      {{}, "", {codec::CodecKind::kBinary, false}, 97},
      {{"c_name", "c_acctbal"}, "", {codec::CodecKind::kSoap, false}, 130},
      {{"c_comment", "c_custkey"},
       "c_acctbal >= 0",
       {codec::CodecKind::kBinary, true},
       211},
      {{}, "c_nationkey < 10", {codec::CodecKind::kBinary, false}, 64},
  };
  return kPlans[client % 4];
}

class DispatchConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchGenOptions gen;
    gen.scale = 0.01;  // 1,500 customers
    table_ = GenerateCustomer(gen).value();
    ASSERT_TRUE(dbms_.RegisterTable(table_).ok());
  }

  /// Opens a session for `plan`; -1 (and a test failure) on a fault.
  int64_t Open(const ClientPlan& plan) {
    OpenSessionRequest request;
    request.table = table_->name();
    request.columns = plan.columns;
    request.filter = plan.filter;
    DispatchResult opened = container_.Dispatch(EncodeOpenSession(request));
    EXPECT_FALSE(opened.is_fault) << opened.response;
    if (opened.is_fault) return -1;
    return DecodeOpenSessionResponse(ParseEnvelope(opened.response).value())
        .value()
        .session_id;
  }

  /// Sends one block request in the plan's wire form.
  DispatchResult Fetch(const ClientPlan& plan, const codec::BlockCodec& wire,
                       int64_t session, int64_t sequence) {
    RequestBlockRequest request;
    request.session_id = session;
    request.block_size = plan.block_size;
    request.sequence = sequence;
    return container_.Dispatch(wire.EncodeRequestBlock(request).value(),
                               &wire);
  }

  DispatchResult Close(int64_t session) {
    CloseSessionRequest request;
    request.session_id = session;
    return container_.Dispatch(EncodeCloseSession(request));
  }

  /// What a local scan of `plan` encodes, block by block, under session
  /// id `session`: the bytes the service must serve.
  std::vector<std::string> ExpectedBlocks(const ClientPlan& plan,
                                          const codec::BlockCodec& wire,
                                          int64_t session) const {
    ScanProjectQuery query;
    query.table_name = table_->name();
    query.projected_columns = plan.columns;
    query.filter = plan.filter;
    std::unique_ptr<QueryCursor> cursor =
        QueryCursor::Open(table_.get(), query).value();
    std::vector<std::string> blocks;
    do {
      std::vector<Tuple> rows = cursor->FetchBlock(plan.block_size).value();
      blocks.push_back(wire.EncodeBlockResponse(session, cursor->exhausted(),
                                                cursor->output_schema(), rows)
                           .value());
    } while (!cursor->exhausted());
    return blocks;
  }

  std::shared_ptr<Table> table_;
  Dbms dbms_;
  DataService service_{&dbms_};
  ServiceContainer container_{&service_, LoadModelConfig{}, 11};
};

TEST_F(DispatchConcurrencyTest, ThreadsDrainTheirOwnSessionsConcurrently) {
  constexpr int kThreads = 6;
  constexpr int kRounds = 3;
  struct Drained {
    int64_t session = -1;
    std::vector<std::string> blocks;
  };
  std::vector<std::vector<Drained>> drained(kThreads);
  std::vector<int64_t> calls(kThreads, 0);
  std::barrier start(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ClientPlan plan = PlanFor(t);
      const std::unique_ptr<codec::BlockCodec> wire =
          codec::MakeBlockCodec(plan.codec);
      start.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        Drained out;
        out.session = Open(plan);
        ++calls[t];
        if (out.session < 0) return;
        // Pull until the service says end-of-results (or a sanity cap).
        for (int64_t seq = 0; seq < 10000; ++seq) {
          DispatchResult block = Fetch(plan, *wire, out.session, seq);
          ++calls[t];
          out.blocks.push_back(block.response);
          if (block.is_fault ||
              wire->DecodeBlockResponse(block.response).value()
                  .end_of_results) {
            break;
          }
        }
        EXPECT_FALSE(Close(out.session).is_fault);
        ++calls[t];
        drained[t].push_back(std::move(out));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  int64_t total_calls = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_calls += calls[t];
    const ClientPlan plan = PlanFor(t);
    const std::unique_ptr<codec::BlockCodec> wire =
        codec::MakeBlockCodec(plan.codec);
    ASSERT_EQ(drained[t].size(), static_cast<size_t>(kRounds));
    for (const Drained& d : drained[t]) {
      EXPECT_EQ(d.blocks, ExpectedBlocks(plan, *wire, d.session))
          << "client " << t << " session " << d.session;
    }
  }
  EXPECT_EQ(container_.requests_served(), total_calls);
  EXPECT_GT(container_.total_busy_ms(), 0.0);
  EXPECT_EQ(service_.open_sessions(), 0u);
}

TEST_F(DispatchConcurrencyTest, OpenCloseAndEvictionRaceInFlightFetches) {
  constexpr int kDrainers = 3;
  constexpr int kRounds = 6;
  std::atomic<bool> done{false};
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> unexpected_faults{0};
  std::atomic<int64_t> evicted_mid_query{0};
  std::atomic<int64_t> completed{0};

  std::vector<std::thread> drainers;
  for (int d = 0; d < kDrainers; ++d) {
    drainers.emplace_back([&, d] {
      const ClientPlan plan = PlanFor(d);
      const std::unique_ptr<codec::BlockCodec> wire =
          codec::MakeBlockCodec(plan.codec);
      for (int round = 0; round < kRounds; ++round) {
        const int64_t session = Open(plan);
        calls.fetch_add(1);
        if (session < 0) return;
        const std::vector<std::string> expected =
            ExpectedBlocks(plan, *wire, session);
        size_t got = 0;
        for (; got < expected.size(); ++got) {
          DispatchResult block =
              Fetch(plan, *wire, session, static_cast<int64_t>(got));
          calls.fetch_add(1);
          if (block.is_fault) {
            // The evictor may drop the session between two requests; a
            // request already past the lookup still completes normally.
            if (block.response.find("unknown session id") ==
                std::string::npos) {
              unexpected_faults.fetch_add(1);
            }
            evicted_mid_query.fetch_add(1);
            break;
          }
          if (block.response != expected[got]) mismatches.fetch_add(1);
        }
        if (got == expected.size()) {
          completed.fetch_add(1);
          Close(session);  // may already be evicted: either answer is fine
          calls.fetch_add(1);
        }
      }
    });
  }

  // Opens and closes short-lived sessions of its own.
  std::thread churner([&] {
    const ClientPlan plan = PlanFor(0);
    while (!done.load()) {
      const int64_t session = Open(plan);
      calls.fetch_add(1);
      if (session < 0) return;
      DispatchResult closed = Close(session);
      calls.fetch_add(1);
      if (closed.is_fault &&
          closed.response.find("unknown session id") == std::string::npos) {
        unexpected_faults.fetch_add(1);
      }
    }
  });

  // Sweeps like the server's TTL timer, and every few sweeps evicts
  // every session outright — including ones with a fetch in flight.
  std::thread evictor([&] {
    for (int sweep = 0; !done.load(); ++sweep) {
      const int64_t now = WallClock().NowMicros();
      container_.EvictIdleSessions(now, sweep % 8 == 0 ? 0 : kEvictNothing);
      EXPECT_GE(container_.active_sessions(), 0);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (std::thread& thread : drainers) thread.join();
  done.store(true);
  churner.join();
  evictor.join();

  RecordProperty("completed", static_cast<int>(completed.load()));
  RecordProperty("evicted_mid_query",
                 static_cast<int>(evicted_mid_query.load()));
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(unexpected_faults.load(), 0);
  EXPECT_EQ(completed.load() + evicted_mid_query.load(),
            int64_t{kDrainers} * kRounds);
  EXPECT_EQ(container_.requests_served(), calls.load());
  container_.EvictIdleSessions(kEvictNothing, 0);
  EXPECT_EQ(service_.open_sessions(), 0u);
}

TEST_F(DispatchConcurrencyTest, ConcurrentRetriesOfOneSequenceAdvanceOnce) {
  const ClientPlan plan = PlanFor(3);
  const codec::BinaryCodec wire;
  const int64_t session = Open(plan);
  ASSERT_GE(session, 0);
  const std::vector<std::string> expected =
      ExpectedBlocks(plan, wire, session);
  ASSERT_GT(expected.size(), 5u);

  // Two connections retry the same (session, sequence) at the same
  // moment, for every block of the query.
  const size_t blocks = expected.size();
  std::vector<std::vector<DispatchResult>> results(
      2, std::vector<DispatchResult>(blocks));
  std::barrier step(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (size_t seq = 0; seq < blocks; ++seq) {
        step.arrive_and_wait();
        results[t][seq] =
            Fetch(plan, wire, session, static_cast<int64_t>(seq));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t seq = 0; seq < blocks; ++seq) {
    const DispatchResult& a = results[0][seq];
    const DispatchResult& b = results[1][seq];
    EXPECT_FALSE(a.is_fault);
    EXPECT_FALSE(b.is_fault);
    // Exactly one advanced the cursor; the other was replayed the same
    // bytes, which are the local scan's block for this sequence.
    EXPECT_NE(a.replayed, b.replayed) << "sequence " << seq;
    EXPECT_EQ(a.response, b.response) << "sequence " << seq;
    EXPECT_EQ(a.response, expected[seq]) << "sequence " << seq;
  }
  EXPECT_EQ(container_.requests_served(),
            1 + 2 * static_cast<int64_t>(blocks));
}

TEST(ProcessingServiceConcurrencyTest, TransformsNeverRunConcurrently) {
  const Schema schema({{"id", ColumnType::kInt64}});
  std::atomic<int> in_transform{0};
  std::atomic<int> overlaps{0};
  ProcessingFunction function;
  function.input_schema = schema;
  function.output_schema = schema;
  // Deliberately thread-hostile: a transform may assume it runs alone.
  int64_t unguarded_sum = 0;
  function.transform = [&](const Tuple& input) -> Result<Tuple> {
    if (in_transform.fetch_add(1) != 0) overlaps.fetch_add(1);
    unguarded_sum += std::get<int64_t>(input.value(0));
    in_transform.fetch_sub(1);
    return input;
  };
  ProcessingService service;
  ASSERT_TRUE(service.RegisterFunction("id", function).ok());
  ServiceContainer container(&service, LoadModelConfig{}, 5);

  std::vector<Tuple> block;
  for (int64_t i = 1; i <= 50; ++i) block.push_back(Tuple({Value(i)}));
  ProcessBlockRequest request;
  request.function = "id";
  request.num_tuples = static_cast<int64_t>(block.size());
  request.payload = TupleSerializer(schema).SerializeBlock(block).value();
  const std::string document = EncodeProcessBlock(request);

  constexpr int kThreads = 4;
  constexpr int kCalls = 25;
  std::atomic<int64_t> faults{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        if (container.Dispatch(document).is_fault) faults.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(faults.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(unguarded_sum, int64_t{kThreads} * kCalls * (50 * 51 / 2));
  EXPECT_EQ(service.tuples_processed(), int64_t{kThreads} * kCalls * 50);
  EXPECT_EQ(container.requests_served(), int64_t{kThreads} * kCalls);
}

}  // namespace
}  // namespace wsq

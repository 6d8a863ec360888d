#include <memory>

#include <gtest/gtest.h>

#include "wsq/client/block_fetcher.h"
#include "wsq/client/query_session.h"
#include "wsq/client/ws_client.h"
#include "wsq/control/fixed_controller.h"
#include "wsq/netsim/presets.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

std::shared_ptr<Table> MakeNums(int rows) {
  auto table = std::make_shared<Table>(
      "nums", Schema({{"id", ColumnType::kInt64},
                      {"label", ColumnType::kString}}));
  for (int i = 0; i < rows; ++i) {
    const std::string label = std::string("r").append(std::to_string(i));
    table->AppendUnchecked(
        Tuple({Value(static_cast<int64_t>(i)), Value(label)}));
  }
  return table;
}

EmpiricalSetup MakeSetup(int rows) {
  EmpiricalSetup setup;
  setup.table = MakeNums(rows);
  setup.query.table_name = "nums";
  setup.link = Lan1Gbps();
  setup.link.jitter_sigma = 0.0;
  setup.load.noise_sigma = 0.0;
  setup.seed = 5;
  return setup;
}

TEST(WsClientTest, CallAdvancesClockAndReturnsResponse) {
  EmpiricalSetup setup = MakeSetup(10);
  Dbms dbms;
  ASSERT_TRUE(dbms.RegisterTable(setup.table).ok());
  DataService service(&dbms);
  ServiceContainer container(&service, setup.load, 1);
  SimClock clock;
  WsClient client(&container, setup.link, &clock, 2);

  OpenSessionRequest request;
  request.table = "nums";
  Result<CallResult> result = client.Call(EncodeOpenSession(request));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().elapsed_ms, 0.0);
  EXPECT_GT(clock.NowMicros(), 0);
  EXPECT_EQ(client.calls_made(), 1);
}

TEST(WsClientTest, FaultSurfacesAsRemoteFaultButCostsTime) {
  EmpiricalSetup setup = MakeSetup(1);
  Dbms dbms;
  ASSERT_TRUE(dbms.RegisterTable(setup.table).ok());
  DataService service(&dbms);
  ServiceContainer container(&service, setup.load, 1);
  SimClock clock;
  WsClient client(&container, setup.link, &clock, 2);

  OpenSessionRequest request;
  request.table = "ghost";
  Result<CallResult> result = client.Call(EncodeOpenSession(request));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRemoteFault);
  EXPECT_GT(clock.NowMicros(), 0);
}

TEST(QuerySessionTest, CreateValidatesSetup) {
  EmpiricalSetup bad = MakeSetup(1);
  bad.table = nullptr;
  EXPECT_FALSE(QuerySession::Create(std::move(bad)).ok());

  EmpiricalSetup bad_link = MakeSetup(1);
  bad_link.link.bandwidth_mbps = 0.0;
  EXPECT_FALSE(QuerySession::Create(std::move(bad_link)).ok());

  EmpiricalSetup bad_query = MakeSetup(1);
  bad_query.query.projected_columns = {"ghost_column"};
  EXPECT_FALSE(QuerySession::Create(std::move(bad_query)).ok());
}

TEST(QuerySessionTest, FixedControllerDrainsAllTuples) {
  auto session = QuerySession::Create(MakeSetup(103));
  ASSERT_TRUE(session.ok());
  FixedController controller(10);
  Result<FetchOutcome> outcome = session.value()->Execute(&controller);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().total_tuples, 103);
  EXPECT_EQ(outcome.value().total_blocks, 11);  // 10 full + 1 tail of 3
  EXPECT_GT(outcome.value().total_time_ms, 0.0);
  ASSERT_EQ(outcome.value().trace.size(), 11u);
  EXPECT_EQ(outcome.value().trace.back().received_tuples, 3);
}

TEST(QuerySessionTest, KeepTuplesReturnsData) {
  auto session = QuerySession::Create(MakeSetup(25));
  ASSERT_TRUE(session.ok());
  FixedController controller(7);
  std::vector<Tuple> tuples;
  Result<FetchOutcome> outcome =
      session.value()->Execute(&controller, &tuples);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(tuples.size(), 25u);
  EXPECT_EQ(std::get<int64_t>(tuples[0].value(0)), 0);
  EXPECT_EQ(std::get<std::string>(tuples[24].value(1)), "r24");
}

TEST(QuerySessionTest, ProjectionFlowsEndToEnd) {
  EmpiricalSetup setup = MakeSetup(5);
  setup.query.projected_columns = {"label"};
  auto session = QuerySession::Create(std::move(setup));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value()->output_schema().num_columns(), 1u);

  FixedController controller(2);
  std::vector<Tuple> tuples;
  Result<FetchOutcome> outcome =
      session.value()->Execute(&controller, &tuples);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(tuples.size(), 5u);
  EXPECT_EQ(tuples[3].num_values(), 1u);
  EXPECT_EQ(std::get<std::string>(tuples[3].value(0)), "r3");
}

TEST(QuerySessionTest, NullControllerRejected) {
  auto session = QuerySession::Create(MakeSetup(3));
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.value()->Execute(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuerySessionTest, LargerBlocksMeanFewerBlocks) {
  auto session_small = QuerySession::Create(MakeSetup(1000));
  auto session_large = QuerySession::Create(MakeSetup(1000));
  ASSERT_TRUE(session_small.ok());
  ASSERT_TRUE(session_large.ok());
  FixedController small(10);
  FixedController large(250);
  const auto outcome_small = session_small.value()->Execute(&small);
  const auto outcome_large = session_large.value()->Execute(&large);
  ASSERT_TRUE(outcome_small.ok());
  ASSERT_TRUE(outcome_large.ok());
  EXPECT_GT(outcome_small.value().total_blocks,
            outcome_large.value().total_blocks);
  // On a latency-bearing link, fewer round trips should be faster for
  // this small dataset.
  EXPECT_GT(outcome_small.value().total_time_ms,
            outcome_large.value().total_time_ms);
}

TEST(QuerySessionTest, AdaptivityStepsRecordedInTrace) {
  auto session = QuerySession::Create(MakeSetup(100));
  ASSERT_TRUE(session.ok());
  FixedController controller(10);
  Result<FetchOutcome> outcome = session.value()->Execute(&controller);
  ASSERT_TRUE(outcome.ok());
  for (const BlockTrace& trace : outcome.value().trace) {
    EXPECT_EQ(trace.adaptivity_steps, 0);  // fixed controller never adapts
    EXPECT_GT(trace.response_time_ms, 0.0);
    EXPECT_EQ(trace.requested_size, 10);
  }
}

TEST(QuerySessionTest, TpchCustomerEndToEnd) {
  EmpiricalSetup setup;
  TpchGenOptions gen;
  gen.scale = 0.002;  // 300 rows
  auto customer = GenerateCustomer(gen);
  ASSERT_TRUE(customer.ok());
  setup.table = customer.value();
  setup.query.table_name = "customer";
  setup.query.projected_columns = {"c_custkey", "c_name", "c_acctbal"};
  setup.link = WanUkToGreece();
  setup.load.noise_sigma = 0.05;
  setup.seed = 9;

  auto session = QuerySession::Create(std::move(setup));
  ASSERT_TRUE(session.ok());
  FixedController controller(64);
  std::vector<Tuple> tuples;
  Result<FetchOutcome> outcome =
      session.value()->Execute(&controller, &tuples);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().total_tuples, 300);
  ASSERT_EQ(tuples.size(), 300u);
  EXPECT_EQ(tuples[0].num_values(), 3u);
}

}  // namespace
}  // namespace wsq

// BlockFetcher materializes each binary block while the next exchange
// is in flight. Over a real loopback server, the kept rows must still
// equal a local scan of the same query, row for row and in order, for
// every codec, projection, filter and block-size policy.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../net/live_test_util.h"
#include "wsq/client/block_fetcher.h"
#include "wsq/client/tcp_ws_client.h"
#include "wsq/codec/codec.h"
#include "wsq/control/controller_factory.h"
#include "wsq/relation/query.h"
#include "wsq/relation/tuple_serializer.h"

namespace wsq {
namespace {

struct QueryCase {
  std::vector<std::string> columns;
  std::string filter;
};

/// The rows a local scan of `query` yields; with `text_round_trip`, as
/// the SOAP text form delivers them (doubles at 2 decimals).
std::vector<Tuple> LocalScan(const Table& table, const ScanProjectQuery& query,
                             bool text_round_trip) {
  std::unique_ptr<QueryCursor> cursor =
      QueryCursor::Open(&table, query).value();
  const TupleSerializer serializer(cursor->output_schema());
  std::vector<Tuple> out;
  for (;;) {
    std::vector<Tuple> block = cursor->FetchBlock(1000).value();
    if (block.empty()) break;
    for (Tuple& row : block) {
      out.push_back(text_round_trip ? serializer
                                          .Deserialize(
                                              serializer.Serialize(row).value())
                                          .value()
                                    : std::move(row));
    }
  }
  return out;
}

TEST(OverlapFetchTest, KeptRowsEqualALocalScan) {
  net::WsqServerOptions options = LiveServerHarness::QuickOptions();
  options.codec = codec::CodecChoice{codec::CodecKind::kBinary, false};
  LiveServerHarness plain(options);
  options.codec.compress_blocks = true;
  LiveServerHarness compressed(options);
  ASSERT_TRUE(plain.start_status().ok());
  ASSERT_TRUE(compressed.start_status().ok());

  const QueryCase cases[] = {
      {{}, ""},
      {{"c_comment", "c_custkey", "c_acctbal"}, "c_acctbal >= 1000"},
      {{"c_name", "c_phone"}, "c_nationkey < 5"},
  };
  struct Wire {
    const char* name;
    LiveServerHarness* server;
    codec::CodecKind client_codec;
  };
  const Wire wires[] = {
      {"binary", &plain, codec::CodecKind::kBinary},
      {"binary+lz", &compressed, codec::CodecKind::kBinary},
      {"soap", &plain, codec::CodecKind::kSoap},
  };
  for (const Wire& wire : wires) {
    TcpWsClientOptions client_options;
    client_options.codec = codec::CodecChoice{wire.client_codec, false};
    TcpWsClient client("127.0.0.1", wire.server->port(), client_options);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_EQ(client.wire_codec(), wire.client_codec);
    for (const QueryCase& c : cases) {
      ScanProjectQuery query;
      query.table_name = "customer";
      query.projected_columns = c.columns;
      query.filter = c.filter;
      const std::vector<Tuple> expected =
          LocalScan(wire.server->customer(), query,
                    wire.client_codec == codec::CodecKind::kSoap);
      ASSERT_FALSE(expected.empty());
      const Schema schema =
          QueryCursor::Open(&wire.server->customer(), query)
              .value()
              ->output_schema();
      const TupleSerializer serializer(schema);
      for (const char* policy : {"fixed:1", "fixed:100", "hybrid"}) {
        SCOPED_TRACE(std::string(wire.name) + " filter '" + c.filter +
                     "' " + policy);
        std::unique_ptr<Controller> controller = NamedFactory(policy)();
        ASSERT_NE(controller, nullptr);
        BlockFetcher fetcher(&client, controller.get());
        std::vector<Tuple> rows;
        Result<FetchOutcome> outcome = fetcher.Run(query, &serializer, &rows);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_EQ(outcome.value().total_tuples,
                  static_cast<int64_t>(expected.size()));
        ASSERT_EQ(rows.size(), expected.size());
        EXPECT_TRUE(rows == expected);
      }
    }
  }
}

}  // namespace
}  // namespace wsq

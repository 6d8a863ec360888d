// Property tests: random tuples over random schemas must round-trip
// through the wire format, and random TPC-H blocks must survive the
// whole payload path (serialize -> SOAP envelope -> parse -> deserialize).

#include <gtest/gtest.h>

#include "wsq/common/random.h"
#include "wsq/relation/tpch_gen.h"
#include "wsq/relation/tuple_serializer.h"
#include "wsq/soap/message.h"

namespace wsq {
namespace {

Schema RandomSchema(Random& rng) {
  std::vector<Column> columns;
  const int64_t n = rng.UniformInt(1, 6);
  for (int64_t i = 0; i < n; ++i) {
    const ColumnType type = static_cast<ColumnType>(rng.UniformInt(0, 2));
    columns.push_back({std::string("c").append(std::to_string(i)), type});
  }
  return Schema(std::move(columns));
}

std::string RandomString(Random& rng) {
  // Deliberately hostile: field separators, escapes, newlines, XML
  // specials, spaces.
  static constexpr std::string_view kChars =
      "abcXYZ019|\\\n<>&\"' .,;:!";
  std::string s;
  const int64_t len = rng.UniformInt(0, 24);
  for (int64_t i = 0; i < len; ++i) {
    s += kChars[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kChars.size()) - 1))];
  }
  return s;
}

Tuple RandomTuple(Random& rng, const Schema& schema) {
  std::vector<Value> values;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    switch (schema.column(i).type) {
      case ColumnType::kInt64:
        values.emplace_back(rng.UniformInt(-1000000, 1000000));
        break;
      case ColumnType::kDouble:
        // Two-decimals values round-trip exactly through the money
        // format.
        values.emplace_back(
            static_cast<double>(rng.UniformInt(-99999, 99999)) / 100.0);
        break;
      case ColumnType::kString:
        values.emplace_back(RandomString(rng));
        break;
    }
  }
  return Tuple(std::move(values));
}

class SerializerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializerPropertyTest, RandomTuplesRoundTrip) {
  Random rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const Schema schema = RandomSchema(rng);
    TupleSerializer serializer(schema);
    std::vector<Tuple> block;
    const int64_t rows = rng.UniformInt(0, 8);
    for (int64_t i = 0; i < rows; ++i) {
      block.push_back(RandomTuple(rng, schema));
    }

    Result<std::string> payload = serializer.SerializeBlock(block);
    ASSERT_TRUE(payload.ok());
    Result<std::vector<Tuple>> back =
        serializer.DeserializeBlock(payload.value());
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\npayload:\n"
                           << payload.value();
    ASSERT_EQ(back.value().size(), block.size());
    for (size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(back.value()[i], block[i]) << "row " << i;
    }
  }
}

TEST_P(SerializerPropertyTest, FullSoapPayloadPathRoundTrips) {
  Random rng(GetParam() * 31 + 7);
  const Schema schema = RandomSchema(rng);
  TupleSerializer serializer(schema);
  std::vector<Tuple> block;
  for (int i = 0; i < 5; ++i) block.push_back(RandomTuple(rng, schema));

  BlockResponse response;
  response.session_id = 3;
  response.num_tuples = 5;
  response.payload = serializer.SerializeBlock(block).value();

  // Through the envelope: encode, parse, decode, deserialize.
  const std::string doc = EncodeBlockResponse(response);
  Result<XmlNode> payload_node = ParseEnvelope(doc);
  ASSERT_TRUE(payload_node.ok());
  Result<BlockResponse> decoded = DecodeBlockResponse(payload_node.value());
  ASSERT_TRUE(decoded.ok());
  Result<std::vector<Tuple>> back =
      serializer.DeserializeBlock(decoded.value().payload);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(back.value()[i], block[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerPropertyTest,
                         ::testing::Values(3, 9, 27, 81, 243, 729));

TEST(SerializerTpchTest, FullCustomerBlockSurvivesWirePath) {
  TpchGenOptions gen;
  gen.scale = 0.004;  // 600 rows
  auto table = GenerateCustomer(gen).value();
  TupleSerializer serializer(CustomerSchema());

  std::vector<Tuple> block(table->rows().begin(), table->rows().end());
  const std::string payload = serializer.SerializeBlock(block).value();
  const std::vector<Tuple> back =
      serializer.DeserializeBlock(payload).value();
  ASSERT_EQ(back.size(), block.size());
  for (size_t i = 0; i < block.size(); i += 37) {
    // Doubles are rounded to 2 decimals on the wire; compare fields.
    EXPECT_EQ(std::get<int64_t>(back[i].value(0)),
              std::get<int64_t>(block[i].value(0)));
    EXPECT_EQ(std::get<std::string>(back[i].value(1)),
              std::get<std::string>(block[i].value(1)));
    EXPECT_NEAR(std::get<double>(back[i].value(5)),
                std::get<double>(block[i].value(5)), 0.005);
  }
}

}  // namespace
}  // namespace wsq

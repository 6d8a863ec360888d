// The binary codec encodes a block in two row-major passes (size every
// column, then write every value at its column's cursor). These tests
// hold it to a column-by-column reference encoder, kept here verbatim
// in the shape the format is specified in (see BinaryCodec): every
// byte, and every type-mismatch error, must be the same.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "wsq/codec/binary_codec.h"
#include "wsq/codec/lz.h"
#include "wsq/codec/varint.h"
#include "wsq/relation/query.h"
#include "wsq/relation/table.h"
#include "wsq/relation/tpch_gen.h"

namespace wsq::codec {
namespace {

void RefPutDoubleBits(std::string* out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

Status RefMismatch(const Schema& schema, size_t col) {
  return Status::InvalidArgument(
      "binary codec: row value does not match schema column " +
      schema.column(col).name);
}

/// The reference body: one column at a time, each value appended.
Status RefEncodeBody(const Schema& schema, const RowView& rows,
                     std::string* body) {
  const size_t num_cols = schema.num_columns();
  if (rows.columns.size() != num_cols) {
    return Status::InvalidArgument(
        "binary codec: row view has " + std::to_string(rows.columns.size()) +
        " columns, schema has " + std::to_string(num_cols));
  }
  const size_t bitmap_bytes = (rows.rows.size() + 7) / 8;
  PutUVarint(body, num_cols);
  for (size_t col = 0; col < num_cols; ++col) {
    const size_t source = rows.columns[col];
    const ColumnType type = schema.column(col).type;
    body->push_back(static_cast<char>(type));
    body->append(bitmap_bytes, '\0');
    switch (type) {
      case ColumnType::kInt64:
        for (const Tuple* row : rows.rows) {
          const int64_t* v = std::get_if<int64_t>(&row->value(source));
          if (v == nullptr) return RefMismatch(schema, col);
          PutVarint(body, *v);
        }
        break;
      case ColumnType::kDouble:
        for (const Tuple* row : rows.rows) {
          const double* v = std::get_if<double>(&row->value(source));
          if (v == nullptr) return RefMismatch(schema, col);
          RefPutDoubleBits(body, *v);
        }
        break;
      case ColumnType::kString:
        for (const Tuple* row : rows.rows) {
          const std::string* v =
              std::get_if<std::string>(&row->value(source));
          if (v == nullptr) return RefMismatch(schema, col);
          PutUVarint(body, v->size());
        }
        for (const Tuple* row : rows.rows) {
          body->append(std::get<std::string>(row->value(source)));
        }
        break;
    }
  }
  return Status::Ok();
}

/// The reference message: prelude, header, body, optional LZ re-pack.
Result<std::string> RefEncode(int64_t session_id, bool end_of_results,
                              const Schema& schema, const RowView& rows,
                              bool compress) {
  std::string out(kBinaryMagic);
  out.push_back(static_cast<char>(kBinaryVersion));
  out.push_back(static_cast<char>(kBinaryMsgBlockResponse));
  out.push_back(0);
  out.push_back(0);
  PutVarint(&out, session_id);
  out.push_back(end_of_results ? 1 : 0);
  PutUVarint(&out, rows.rows.size());
  const size_t body_start = out.size();
  WSQ_RETURN_IF_ERROR(RefEncodeBody(schema, rows, &out));
  const size_t body_size = out.size() - body_start;
  if (compress && body_size >= BinaryCodecOptions{}.min_compress_bytes) {
    std::string compressed;
    LzCompress(std::string_view(out.data() + body_start, body_size),
               &compressed);
    if (compressed.size() + 10 < body_size) {
      out[6] = static_cast<char>(kBinaryFlagCompressedBody);
      out.resize(body_start);
      PutUVarint(&out, body_size);
      out.append(compressed);
    }
  }
  return out;
}

std::vector<const Tuple*> Pointers(const std::vector<Tuple>& rows) {
  std::vector<const Tuple*> out;
  out.reserve(rows.size());
  for (const Tuple& row : rows) out.push_back(&row);
  return out;
}

/// Both encoders, plain and compressed, over the same view.
void ExpectSameBytes(const Schema& schema, const RowView& rows,
                     bool end_of_results = false) {
  for (bool compress : {false, true}) {
    SCOPED_TRACE(compress ? "binary+lz" : "binary");
    BinaryCodecOptions options;
    options.compress_blocks = compress;
    const BinaryCodec codec(options);
    Result<std::string> want =
        RefEncode(-3, end_of_results, schema, rows, compress);
    Result<std::string> got =
        codec.EncodeBlockResponseView(-3, end_of_results, schema, rows);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value(), want.value());
  }
}

std::shared_ptr<Table> Customer() {
  TpchGenOptions gen;
  gen.scale = 0.001;  // 150 rows
  return GenerateCustomer(gen).value();
}

TEST(EncodeEquivalenceTest, EveryColumnSubsetOfCustomer) {
  const std::shared_ptr<Table> table = Customer();
  const Schema& full = table->schema();
  const size_t n = full.num_columns();
  const std::vector<const Tuple*> rows = Pointers(table->rows());
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<size_t> columns;
    for (size_t col = 0; col < n; ++col) {
      if ((mask >> col) & 1u) columns.push_back(col);
    }
    SCOPED_TRACE("mask " + std::to_string(mask));
    const Schema schema = full.Project(columns).value();
    ExpectSameBytes(schema, RowView{rows, columns});
    // The same subset in reverse column order.
    std::vector<size_t> reversed(columns.rbegin(), columns.rend());
    ExpectSameBytes(full.Project(reversed).value(),
                    RowView{rows, reversed});
  }
}

TEST(EncodeEquivalenceTest, FilteredScansInZeroOneAndRaggedBlocks) {
  const std::shared_ptr<Table> table = Customer();
  struct Case {
    std::vector<std::string> columns;
    std::string filter;
  };
  const Case cases[] = {
      {{}, ""},
      {{"c_comment", "c_custkey", "c_acctbal"}, "c_acctbal >= 1000"},
      {{"c_name", "c_nationkey"}, "c_nationkey < 5"},
      {{"c_custkey"}, "c_custkey > 100000"},  // nothing qualifies
  };
  for (const Case& c : cases) {
    ScanProjectQuery query;
    query.table_name = table->name();
    query.projected_columns = c.columns;
    query.filter = c.filter;
    for (int64_t block_size : {1, 7, 64, 1000}) {
      SCOPED_TRACE("filter '" + c.filter + "' block " +
                   std::to_string(block_size));
      std::unique_ptr<QueryCursor> cursor =
          QueryCursor::Open(table.get(), query).value();
      std::vector<const Tuple*> rows;
      for (int blocks = 0;; ++blocks) {
        ASSERT_LT(blocks, 10000);
        ASSERT_TRUE(cursor->ScanBlock(block_size, &rows).ok());
        ExpectSameBytes(cursor->output_schema(),
                        RowView{rows, cursor->projection()},
                        cursor->exhausted());
        if (rows.empty()) break;  // the 0-row block ends every scan
      }
    }
  }
}

Schema MixedSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"score", ColumnType::kDouble},
                 {"name", ColumnType::kString},
                 {"count", ColumnType::kInt64}});
}

TEST(EncodeEquivalenceTest, EveryVarintWidthAndTheInt64Extremes) {
  // Zigzag values at both ends of every LEB128 width 1..10, decoded
  // back to the int64 that encodes to each, plus the extremes.
  std::vector<int64_t> values = {0, -1, 1,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  for (int width = 1; width <= 10; ++width) {
    const uint64_t low = width == 1 ? 0 : uint64_t{1} << (7 * (width - 1));
    const uint64_t high =
        width == 10 ? ~uint64_t{0} : (uint64_t{1} << (7 * width)) - 1;
    values.push_back(ZigZagDecode(low));
    values.push_back(ZigZagDecode(high));
    ASSERT_EQ(UVarintSize(low), static_cast<size_t>(width));
    ASSERT_EQ(UVarintSize(high), static_cast<size_t>(width));
  }
  std::vector<Tuple> rows;
  for (size_t i = 0; i < values.size(); ++i) {
    rows.push_back(Tuple({Value(values[i]), Value(0.5 * static_cast<double>(i)),
                          Value(std::string("r") + std::to_string(i)),
                          Value(values[values.size() - 1 - i])}));
  }
  const std::vector<const Tuple*> views = Pointers(rows);
  const std::vector<size_t> columns = {0, 1, 2, 3};
  ExpectSameBytes(MixedSchema(), RowView{views, columns});
}

TEST(EncodeEquivalenceTest, EmptyAndKilobyteStrings) {
  const std::vector<std::string> strings = {
      "", std::string(1024, 'k'), std::string(127, 'a'),
      std::string(128, 'b'), "", std::string(1, '\0')};
  std::vector<Tuple> rows;
  for (size_t i = 0; i < strings.size(); ++i) {
    rows.push_back(Tuple({Value(static_cast<int64_t>(i)), Value(-1.25),
                          Value(strings[i]),
                          Value(static_cast<int64_t>(-static_cast<int64_t>(i)))}));
  }
  const std::vector<const Tuple*> views = Pointers(rows);
  const std::vector<size_t> columns = {0, 1, 2, 3};
  ExpectSameBytes(MixedSchema(), RowView{views, columns});
  // 0-row and 1-row blocks of the same schema.
  ExpectSameBytes(MixedSchema(), RowView{{}, columns});
  ExpectSameBytes(MixedSchema(),
                  RowView{std::span<const Tuple* const>(views.data(), 1),
                          columns});
}

TEST(EncodeEquivalenceTest, TypeMismatchInEachColumnGivesTheSameError) {
  const Schema schema = MixedSchema();
  const std::vector<size_t> columns = {0, 1, 2, 3};
  std::vector<Tuple> good;
  for (int64_t i = 0; i < 9; ++i) {
    good.push_back(Tuple({Value(i), Value(1.5), Value(std::string("s")),
                          Value(i * 1000)}));
  }
  // A value of the wrong type for each column.
  const Value wrong[] = {Value(std::string("x")), Value(int64_t{3}),
                         Value(2.5), Value(std::string("y"))};
  const BinaryCodec codec;
  for (size_t col = 0; col < columns.size(); ++col) {
    for (size_t at : {size_t{0}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE("column " + std::to_string(col) + " row " +
                   std::to_string(at));
      std::vector<Tuple> rows = good;
      std::vector<Value> values = rows[at].values();
      values[col] = wrong[col];
      rows[at] = Tuple(values);
      const std::vector<const Tuple*> views = Pointers(rows);
      Result<std::string> want =
          RefEncode(1, false, schema, RowView{views, columns}, false);
      Result<std::string> got =
          codec.EncodeBlockResponseView(1, false, schema,
                                        RowView{views, columns});
      ASSERT_FALSE(want.ok());
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status(), want.status());
    }
  }
  // Mismatches in two columns: the lower-index column is reported even
  // when its bad value sits in a later row.
  std::vector<Tuple> rows = good;
  std::vector<Value> early = rows[1].values();
  early[3] = wrong[3];
  rows[1] = Tuple(early);
  std::vector<Value> late = rows[7].values();
  late[1] = wrong[1];
  rows[7] = Tuple(late);
  const std::vector<const Tuple*> views = Pointers(rows);
  Result<std::string> want =
      RefEncode(1, false, schema, RowView{views, columns}, false);
  Result<std::string> got =
      codec.EncodeBlockResponseView(1, false, schema, RowView{views, columns});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status(), want.status());
  EXPECT_NE(got.status().message().find("column score"), std::string::npos);
}

}  // namespace
}  // namespace wsq::codec

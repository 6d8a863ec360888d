// The server encodes blocks straight from the table: QueryCursor::ScanBlock
// hands out row pointers and the codec applies the cursor's projection
// while it encodes (EncodeBlockResponseView). These tests hold that fused
// path to the materializing one it replaced — FetchBlock, then
// EncodeBlockResponse over the projected tuples — byte for byte, for
// every codec, across projections, filters, empty and ragged blocks.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "wsq/codec/codec.h"
#include "wsq/common/random.h"
#include "wsq/relation/query.h"
#include "wsq/relation/table.h"
#include "wsq/relation/tpch_gen.h"

namespace wsq::codec {
namespace {

/// Strings that exercise every escape of the SOAP text form ('|', '\',
/// newline) and XML escaping of the envelope ('<', '&'), plus empties.
std::shared_ptr<Table> MixedTable(size_t rows) {
  auto table = std::make_shared<Table>(
      "mixed", Schema({{"id", ColumnType::kInt64},
                       {"score", ColumnType::kDouble},
                       {"name", ColumnType::kString},
                       {"note", ColumnType::kString}}));
  const std::vector<std::string> notes = {"", "a|b", "back\\slash",
                                          "two\nlines", "<tag>&amp;",
                                          std::string(300, 'x')};
  Random rng(77);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t id = static_cast<int64_t>(i) * (i % 2 == 0 ? 1 : -1);
    const double score = rng.Uniform(-1e6, 1e6);
    std::string name = std::string("n").append(std::to_string(i));
    table->AppendUnchecked(Tuple({Value(id), Value(score), Value(name),
                                  Value(notes[i % notes.size()])}));
  }
  return table;
}

struct Case {
  std::vector<std::string> columns;
  std::string filter;
};

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      {{}, ""},
      {{"note"}, ""},
      {{"note", "id"}, ""},
      {{"score", "name", "id"}, "id >= 0"},
      {{}, "score < 0 AND note != 'a|b'"},
      {{"id"}, "id > 1000000"},  // matches nothing: only empty blocks
  };
  return cases;
}

std::vector<CodecChoice> AllCodecs() {
  return {{CodecKind::kSoap, false},
          {CodecKind::kBinary, false},
          {CodecKind::kBinary, true}};
}

ScanProjectQuery QueryFor(const Table& table, const Case& c) {
  ScanProjectQuery query;
  query.table_name = table.name();
  query.projected_columns = c.columns;
  query.filter = c.filter;
  return query;
}

// Drains one query twice in lockstep — once through FetchBlock plus the
// vector encoder, once through ScanBlock plus the view encoder — and
// requires identical bytes for every block, including the empty block
// a drained cursor returns.
void ExpectViewMatchesVector(const Table& table, const Case& c,
                             const BlockCodec& codec, int64_t block_size) {
  SCOPED_TRACE(std::string(codec.name()) + " filter='" + c.filter +
               "' block=" + std::to_string(block_size));
  const ScanProjectQuery query = QueryFor(table, c);
  std::unique_ptr<QueryCursor> fetched =
      QueryCursor::Open(&table, query).value();
  std::unique_ptr<QueryCursor> scanned =
      QueryCursor::Open(&table, query).value();
  const Schema& schema = fetched->output_schema();

  std::vector<const Tuple*> rows;
  for (int blocks = 0;; ++blocks) {
    ASSERT_LT(blocks, 100000);
    Result<std::vector<Tuple>> block = fetched->FetchBlock(block_size);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    ASSERT_TRUE(scanned->ScanBlock(block_size, &rows).ok());
    ASSERT_EQ(rows.size(), block.value().size());

    Result<std::string> expected = codec.EncodeBlockResponse(
        7, fetched->exhausted(), schema, block.value());
    Result<std::string> got = codec.EncodeBlockResponseView(
        7, scanned->exhausted(), schema,
        RowView{rows, scanned->projection()});
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value(), expected.value()) << "block " << blocks;
    if (block.value().empty()) break;
  }
  EXPECT_EQ(scanned->rows_scanned(), fetched->rows_scanned());
  EXPECT_EQ(scanned->rows_produced(), fetched->rows_produced());
}

TEST(RowViewEncodeTest, ViewBytesEqualVectorBytesForEveryCodec) {
  const std::shared_ptr<Table> table = MixedTable(257);
  for (const CodecChoice& choice : AllCodecs()) {
    const std::unique_ptr<BlockCodec> codec = MakeBlockCodec(choice);
    for (const Case& c : Cases()) {
      // 64 divides nothing evenly here (a ragged last block); 257 and
      // 1000 take the table in one block; 1 is the per-row extreme.
      for (int64_t block_size : {1, 64, 257, 1000}) {
        ExpectViewMatchesVector(*table, c, *codec, block_size);
      }
    }
  }
}

TEST(RowViewEncodeTest, ViewBytesEqualVectorBytesOnTpchCustomer) {
  TpchGenOptions gen;
  gen.scale = 0.01;  // 1,500 rows of every column type
  const std::shared_ptr<Table> table = GenerateCustomer(gen).value();
  const Case cases[] = {
      {{}, ""},
      {{"c_comment", "c_custkey", "c_acctbal"}, "c_acctbal >= 1000"},
  };
  for (const CodecChoice& choice : AllCodecs()) {
    const std::unique_ptr<BlockCodec> codec = MakeBlockCodec(choice);
    for (const Case& c : cases) {
      ExpectViewMatchesVector(*table, c, *codec, 400);
    }
  }
}

TEST(RowViewEncodeTest, EmptyViewEncodesLikeAnEmptyVector) {
  const std::shared_ptr<Table> table = MixedTable(1);
  for (const CodecChoice& choice : AllCodecs()) {
    const std::unique_ptr<BlockCodec> codec = MakeBlockCodec(choice);
    const std::vector<size_t> all = {0, 1, 2, 3};
    EXPECT_EQ(codec->EncodeBlockResponseView(3, true, table->schema(),
                                             RowView{{}, all})
                  .value(),
              codec->EncodeBlockResponse(3, true, table->schema(), {}).value())
        << codec->name();
  }
}

TEST(RowViewEncodeTest, MistypedColumnFailsOnBothPaths) {
  const std::shared_ptr<Table> table = MixedTable(4);
  // Columns 0 (int64) and 2 (string) declared under swapped types.
  const Schema wrong({{"id", ColumnType::kString},
                      {"name", ColumnType::kInt64}});
  std::vector<const Tuple*> rows;
  std::vector<Tuple> projected;
  for (size_t i = 0; i < table->num_rows(); ++i) {
    rows.push_back(&table->row(i));
    projected.push_back(table->row(i).Project({0, 2}).value());
  }
  const std::vector<size_t> columns = {0, 2};
  for (const CodecChoice& choice : AllCodecs()) {
    const std::unique_ptr<BlockCodec> codec = MakeBlockCodec(choice);
    Result<std::string> view = codec->EncodeBlockResponseView(
        1, false, wrong, RowView{rows, columns});
    Result<std::string> vec =
        codec->EncodeBlockResponse(1, false, wrong, projected);
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(vec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(view.status().ToString(), vec.status().ToString());
  }
}

TEST(RowViewEncodeTest, VectorOfTheWrongArityIsRejected) {
  const std::shared_ptr<Table> table = MixedTable(2);
  const Schema two({{"id", ColumnType::kInt64},
                    {"score", ColumnType::kDouble}});
  // Whole 4-value rows against a 2-column schema.
  const std::vector<Tuple> rows = {table->row(0), table->row(1)};
  for (const CodecChoice& choice : AllCodecs()) {
    const std::unique_ptr<BlockCodec> codec = MakeBlockCodec(choice);
    EXPECT_EQ(codec->EncodeBlockResponse(1, false, two, rows).status().code(),
              StatusCode::kInvalidArgument)
        << codec->name();
  }
}

TEST(ScanBlockTest, ScanPlusProjectionEqualsFetchBlock) {
  const std::shared_ptr<Table> table = MixedTable(300);
  for (const Case& c : Cases()) {
    for (int64_t block_size : {1, 7, 300, 301}) {
      SCOPED_TRACE("filter='" + c.filter + "' block=" +
                   std::to_string(block_size));
      const ScanProjectQuery query = QueryFor(*table, c);
      std::unique_ptr<QueryCursor> fetched =
          QueryCursor::Open(table.get(), query).value();
      std::unique_ptr<QueryCursor> scanned =
          QueryCursor::Open(table.get(), query).value();
      std::vector<const Tuple*> rows;
      while (true) {
        std::vector<Tuple> block = fetched->FetchBlock(block_size).value();
        ASSERT_TRUE(scanned->ScanBlock(block_size, &rows).ok());
        ASSERT_EQ(rows.size(), block.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          EXPECT_EQ(rows[i]->Project(scanned->projection()).value(),
                    block[i]);
        }
        EXPECT_EQ(scanned->exhausted(), fetched->exhausted());
        if (block.empty()) break;
      }
    }
  }
}

TEST(ScanBlockTest, RejectsNonPositiveBlockSizes) {
  const std::shared_ptr<Table> table = MixedTable(3);
  ScanProjectQuery query;
  query.table_name = table->name();
  std::unique_ptr<QueryCursor> cursor =
      QueryCursor::Open(table.get(), query).value();
  std::vector<const Tuple*> rows;
  EXPECT_EQ(cursor->ScanBlock(0, &rows).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cursor->rows_scanned(), 0u);
}

}  // namespace
}  // namespace wsq::codec

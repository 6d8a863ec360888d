// Codec microbenchmark: the full block data path — encode a result
// block, decode it, then *read every value* — through each BlockCodec,
// on realistic TPC-H Customer rows. This is the number behind the PR's
// "binary wire" claim: the columnar codec must beat the seed-era
// SOAP/XML round-trip by >= 10x.
//
// Both codecs are measured to the same endpoint: every value of the
// block read back out. To get there SOAP has to parse its text payload
// into tuples; binary reads straight through the zero-copy WireRows
// views — that asymmetry is the design being measured, not an
// unfairness. Correctness is validated untimed on the warm-up rep: the
// codecs must agree on a checksum at SOAP's documented 2-decimal
// double precision, and binary must additionally round-trip the source
// doubles bit-exactly (the precision SOAP drops).
//
// Flags: see --help.
//
// Output ends with the machine-readable line CI's codec-smoke step
// asserts on:
//
//   codec-speedup: binary vs soap = 25.3x (encode+decode+scan)
//
// --bench-json records one sample per *binary* repetition, so
// BENCH_codec.json tracks the shipped codec's round-trip latency.

#include <chrono>
#include <cmath>

#include "bench/bench_util.h"

namespace wsq::bench {
namespace {

struct CodecBenchFlags {
  int rows = 10000;
  int reps = 30;
};

struct CodecTiming {
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double scan_ms = 0.0;  // read every value (SOAP: includes text parse)
  size_t wire_bytes = 0;
  uint64_t checksum = 0;
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t Fold(uint64_t hash, uint64_t value) {
  return hash * 1099511628211ull ^ value;
}

uint64_t FoldDouble(uint64_t hash, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fold(hash, bits);
}

uint64_t FoldBytes(uint64_t hash, std::string_view bytes) {
  hash = Fold(hash, bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    hash = Fold(hash, word);
  }
  uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Fold(hash, tail);
}

/// Reads every value of the decoded block, folding raw values (doubles
/// by bit pattern). For binary this walks the zero-copy views;
/// text-mode (SOAP) rows must be materialized first. The hash exists
/// so the reads can't be optimized away; cross-codec agreement is
/// checked separately at SOAP's precision.
Result<uint64_t> ScanAll(const codec::WireRows& rows,
                         const TupleSerializer& serializer) {
  uint64_t hash = 1469598103934665603ull;
  if (rows.text_mode()) {
    Result<std::vector<Tuple>> tuples = rows.Materialize(&serializer);
    if (!tuples.ok()) return tuples.status();
    const Schema& schema = serializer.schema();
    for (const Tuple& tuple : tuples.value()) {
      for (size_t col = 0; col < schema.num_columns(); ++col) {
        switch (schema.column(col).type) {
          case ColumnType::kInt64:
            hash = Fold(hash,
                        static_cast<uint64_t>(std::get<int64_t>(tuple.value(col))));
            break;
          case ColumnType::kDouble:
            hash = FoldDouble(hash, std::get<double>(tuple.value(col)));
            break;
          case ColumnType::kString:
            hash = FoldBytes(hash, std::get<std::string>(tuple.value(col)));
            break;
        }
      }
    }
    return hash;
  }
  for (size_t row = 0; row < rows.num_rows(); ++row) {
    for (size_t col = 0; col < rows.num_columns(); ++col) {
      switch (rows.column_type(col)) {
        case ColumnType::kInt64:
          hash = Fold(hash, static_cast<uint64_t>(rows.Int64At(row, col)));
          break;
        case ColumnType::kDouble:
          hash = FoldDouble(hash, rows.DoubleAt(row, col));
          break;
        case ColumnType::kString:
          hash = FoldBytes(hash, rows.StringAt(row, col));
          break;
      }
    }
  }
  return hash;
}

/// Untimed validation checksum at SOAP's wire precision: doubles fold
/// as their 2-decimal rendering, everything else exactly — the one
/// representation every codec can agree on.
Result<uint64_t> ValidationChecksum(const codec::WireRows& rows,
                                    const TupleSerializer& serializer) {
  Result<std::vector<Tuple>> tuples = rows.Materialize(&serializer);
  if (!tuples.ok()) return tuples.status();
  const Schema& schema = serializer.schema();
  uint64_t hash = 1469598103934665603ull;
  for (const Tuple& tuple : tuples.value()) {
    for (size_t col = 0; col < schema.num_columns(); ++col) {
      switch (schema.column(col).type) {
        case ColumnType::kInt64:
          hash = Fold(hash,
                      static_cast<uint64_t>(std::get<int64_t>(tuple.value(col))));
          break;
        case ColumnType::kDouble:
          hash = FoldBytes(hash,
                           FormatDouble(std::get<double>(tuple.value(col)), 2));
          break;
        case ColumnType::kString:
          hash = FoldBytes(hash, std::get<std::string>(tuple.value(col)));
          break;
      }
    }
  }
  return hash;
}

/// Untimed encode→decode→checksum pass for the cross-codec agreement
/// check.
uint64_t ValidateCodec(const codec::BlockCodec& codec, const Schema& schema,
                       const std::vector<Tuple>& block,
                       const TupleSerializer& serializer) {
  Result<std::string> encoded = codec.EncodeBlockResponse(
      /*session_id=*/1, /*end_of_results=*/false, schema, block);
  if (!encoded.ok()) std::exit(1);
  Result<codec::DecodedBlock> decoded =
      codec.DecodeBlockResponse(std::move(encoded).value());
  if (!decoded.ok()) std::exit(1);
  Result<uint64_t> checksum =
      ValidationChecksum(decoded.value().rows, serializer);
  if (!checksum.ok()) {
    std::fprintf(stderr, "%s validation failed: %s\n",
                 std::string(codec.name()).c_str(),
                 checksum.status().ToString().c_str());
    std::exit(1);
  }
  return checksum.value();
}

/// Binary must preserve what SOAP cannot: every source double comes
/// back bit-identical through the binary wire.
void CheckBitExactDoubles(const codec::BlockCodec& codec, const Schema& schema,
                          const std::vector<Tuple>& block) {
  Result<std::string> encoded = codec.EncodeBlockResponse(
      /*session_id=*/1, /*end_of_results=*/false, schema, block);
  if (!encoded.ok()) std::exit(1);
  Result<codec::DecodedBlock> decoded =
      codec.DecodeBlockResponse(std::move(encoded).value());
  if (!decoded.ok()) std::exit(1);
  for (size_t col = 0; col < schema.num_columns(); ++col) {
    if (schema.column(col).type != ColumnType::kDouble) continue;
    for (size_t row = 0; row < block.size(); ++row) {
      const double sent = std::get<double>(block[row].value(col));
      const double got = decoded.value().rows.DoubleAt(row, col);
      uint64_t sent_bits, got_bits;
      std::memcpy(&sent_bits, &sent, sizeof(sent_bits));
      std::memcpy(&got_bits, &got, sizeof(got_bits));
      if (sent_bits != got_bits) {
        std::fprintf(stderr,
                     "FAIL: %s double row %zu col %zu not bit-exact\n",
                     std::string(codec.name()).c_str(), row, col);
        std::exit(1);
      }
    }
  }
}

/// One timed round-trip; validates the decode so a broken codec can't
/// post a great number.
CodecTiming RoundTrip(const codec::BlockCodec& codec, const Schema& schema,
                      const std::vector<Tuple>& block,
                      const TupleSerializer& serializer) {
  CodecTiming timing;

  const double encode_start = NowMs();
  Result<std::string> encoded =
      codec.EncodeBlockResponse(/*session_id=*/1, /*end_of_results=*/false,
                                schema, block);
  timing.encode_ms = NowMs() - encode_start;
  if (!encoded.ok()) {
    std::fprintf(stderr, "%s encode failed: %s\n",
                 std::string(codec.name()).c_str(),
                 encoded.status().ToString().c_str());
    std::exit(1);
  }
  timing.wire_bytes = encoded.value().size();

  const double decode_start = NowMs();
  Result<codec::DecodedBlock> decoded =
      codec.DecodeBlockResponse(std::move(encoded).value());
  timing.decode_ms = NowMs() - decode_start;
  if (!decoded.ok() ||
      decoded.value().num_tuples != static_cast<int64_t>(block.size())) {
    std::fprintf(stderr, "%s decode failed\n",
                 std::string(codec.name()).c_str());
    std::exit(1);
  }

  const double scan_start = NowMs();
  Result<uint64_t> checksum = ScanAll(decoded.value().rows, serializer);
  timing.scan_ms = NowMs() - scan_start;
  if (!checksum.ok()) {
    std::fprintf(stderr, "%s scan failed: %s\n",
                 std::string(codec.name()).c_str(),
                 checksum.status().ToString().c_str());
    std::exit(1);
  }
  timing.checksum = checksum.value();
  return timing;
}

void Run(const CodecBenchFlags& flags) {
  PrintHeader(
      "codec round-trip",
      "encode+decode+scan one " + std::to_string(flags.rows) +
          "-row Customer block per codec, " + std::to_string(flags.reps) +
          " reps",
      "binary beats the SOAP/XML round-trip by >= 10x; binary+lz trades "
      "encode time for fewer wire bytes");

  TpchGenOptions gen;
  gen.scale = 1.0;  // 150000 rows available; we slice what we need
  auto customer = GenerateCustomer(gen);
  if (!customer.ok()) std::exit(1);
  const Table& table = *customer.value();
  const size_t rows =
      std::min<size_t>(static_cast<size_t>(flags.rows), table.num_rows());
  const std::vector<Tuple> block(table.rows().begin(),
                                 table.rows().begin() + rows);
  const Schema& schema = table.schema();
  const TupleSerializer serializer(schema);

  const codec::CodecChoice choices[] = {
      {codec::CodecKind::kSoap, false},
      {codec::CodecKind::kBinary, false},
      {codec::CodecKind::kBinary, true},
  };

  TextTable table_out({"codec", "encode ms", "decode ms", "scan ms",
                       "total ms", "wire KiB", "vs soap"});
  CsvWriter csv({"codec", "encode_ms", "decode_ms", "scan_ms", "total_ms",
                 "wire_bytes", "speedup_vs_soap"});
  double soap_total = 0.0;
  double binary_speedup = 0.0;
  uint64_t reference_checksum = 0;
  for (const codec::CodecChoice& choice : choices) {
    std::unique_ptr<codec::BlockCodec> codec = codec::MakeBlockCodec(choice);
    // Warm-up rep (pages in the slice and lazy allocations), then the
    // untimed correctness gates: cross-codec agreement at SOAP's
    // 2-decimal precision, and bit-exact doubles for binary.
    RoundTrip(*codec, schema, block, serializer);
    const uint64_t checksum = ValidateCodec(*codec, schema, block, serializer);
    if (choice.kind == codec::CodecKind::kSoap) {
      reference_checksum = checksum;
    } else if (checksum != reference_checksum) {
      std::fprintf(stderr,
                   "FAIL: %s checksum mismatch vs soap — codecs disagree on "
                   "the block's values\n",
                   choice.ToString().c_str());
      std::exit(1);
    }
    if (choice.kind == codec::CodecKind::kBinary) {
      CheckBitExactDoubles(*codec, schema, block);
    }

    RunningStats encode, decode, scan;
    size_t wire_bytes = 0;
    const bool is_plain_binary =
        choice.kind == codec::CodecKind::kBinary && !choice.compress_blocks;
    for (int rep = 0; rep < flags.reps; ++rep) {
      const CodecTiming timing = RoundTrip(*codec, schema, block, serializer);
      encode.Add(timing.encode_ms);
      decode.Add(timing.decode_ms);
      scan.Add(timing.scan_ms);
      wire_bytes = timing.wire_bytes;
      if (is_plain_binary) {
        if (exec::RunTimings* timings = exec::GlobalRunTimings()) {
          timings->RecordRunMs(timing.encode_ms + timing.decode_ms +
                               timing.scan_ms);
        }
      }
    }

    const double total = encode.mean() + decode.mean() + scan.mean();
    if (choice.kind == codec::CodecKind::kSoap) soap_total = total;
    const double speedup = soap_total / total;
    if (is_plain_binary) binary_speedup = speedup;
    table_out.AddRow({choice.ToString(), FormatDouble(encode.mean(), 3),
                      FormatDouble(decode.mean(), 3),
                      FormatDouble(scan.mean(), 3), FormatDouble(total, 3),
                      FormatDouble(static_cast<double>(wire_bytes) / 1024.0, 1),
                      FormatDouble(speedup, 1) + "x"});
    csv.AddRow({choice.ToString(), FormatDouble(encode.mean(), 4),
                FormatDouble(decode.mean(), 4), FormatDouble(scan.mean(), 4),
                FormatDouble(total, 4), std::to_string(wire_bytes),
                FormatDouble(speedup, 2)});
  }
  std::printf("%s\n", table_out.ToString().c_str());
  MaybeDumpCsv(csv, "codec_roundtrip");

  // The line CI asserts on. Keep the format stable.
  std::printf("codec-speedup: binary vs soap = %.1fx (encode+decode+scan)\n",
              binary_speedup);
  if (!(binary_speedup >= 10.0)) {
    std::fprintf(stderr, "FAIL: binary codec speedup %.1fx is below 10x\n",
                 binary_speedup);
    std::exit(1);
  }
}

}  // namespace
}  // namespace wsq::bench

int main(int argc, char** argv) {
  wsq::bench::CodecBenchFlags flags;
  wsq::bench::BenchSession session(
      argc, argv,
      wsq::FlagTable()
          .Add("rows", &flags.rows, "tuples per block")
          .Add("reps", &flags.reps, "measured repetitions per codec"));
  if (flags.rows < 1) flags.rows = 1;
  if (flags.reps < 1) flags.reps = 1;
  wsq::bench::Run(flags);
  return 0;
}

#include "wsq/codec/binary_codec.h"

#include <bit>
#include <cstring>
#include <utility>
#include <variant>
#include <vector>

#include "wsq/codec/lz.h"
#include "wsq/codec/varint.h"

namespace wsq::codec {
namespace {

// Hostile-input guards: a decoded block may not claim more rows or
// columns than any legitimate payload under the 64 MiB frame cap could
// carry.
constexpr uint64_t kMaxRows = uint64_t{1} << 26;
constexpr uint64_t kMaxColumns = 4096;

void PutPrelude(std::string* out, uint8_t kind, uint8_t flags) {
  out->append(kBinaryMagic);
  out->push_back(static_cast<char>(kBinaryVersion));
  out->push_back(static_cast<char>(kind));
  out->push_back(static_cast<char>(flags));
  out->push_back(0);  // reserved
}

/// Parses the prelude and returns the flags byte after validating
/// magic, version, kind and the reserved byte.
Result<uint8_t> ReadPrelude(ByteCursor* cursor, uint8_t expected_kind) {
  Result<const char*> magic = cursor->ReadBytes(kBinaryMagic.size());
  if (!magic.ok()) return magic.status();
  if (std::string_view(magic.value(), kBinaryMagic.size()) != kBinaryMagic) {
    return Status::InvalidArgument("binary codec: bad magic");
  }
  Result<uint8_t> version = cursor->ReadByte();
  if (!version.ok()) return version.status();
  if (version.value() != kBinaryVersion) {
    return Status::InvalidArgument("binary codec: unsupported version " +
                                   std::to_string(version.value()));
  }
  Result<uint8_t> kind = cursor->ReadByte();
  if (!kind.ok()) return kind.status();
  if (kind.value() != expected_kind) {
    return Status::InvalidArgument("binary codec: unexpected message kind " +
                                   std::to_string(kind.value()));
  }
  Result<uint8_t> flags = cursor->ReadByte();
  if (!flags.ok()) return flags.status();
  Result<uint8_t> reserved = cursor->ReadByte();
  if (!reserved.ok()) return reserved.status();
  if (reserved.value() != 0) {
    return Status::InvalidArgument("binary codec: non-zero reserved byte");
  }
  return flags;
}

Status MismatchedColumn(const Schema& schema, size_t col) {
  return Status::InvalidArgument(
      "binary codec: row value does not match schema column " +
      schema.column(col).name);
}

/// One body column: where its values come from and where they land.
struct ColumnPlan {
  ColumnType type = ColumnType::kInt64;
  size_t source = 0;        // index into each row
  size_t length_bytes = 0;  // kString: the varint lengths
  size_t data_bytes = 0;    // values (kString: the string bytes)
  char* cursor = nullptr;   // next value (kString: next length)
  char* bytes_cursor = nullptr;  // kString: next string byte
};

/// Writes `value`'s IEEE-754 bits little-endian at `p`.
void WriteDoubleBits(char* p, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if constexpr (std::endian::native != std::endian::little) {
    bits = __builtin_bswap64(bits);
  }
  std::memcpy(p, &bits, sizeof(bits));
}

/// Appends the columnar body in two row-major passes over the rows.
/// Pass 1 type-checks every value and sizes every column exactly; pass 2
/// writes each value at its column's cursor in one exact-size buffer.
/// The bytes are those of the column-by-column layout (see
/// BinaryCodec), and a mismatch names the lowest-index mismatching
/// column, as a column-by-column encoder would.
Status EncodeBody(const Schema& schema, const RowView& rows,
                  std::string* body) {
  const size_t num_cols = schema.num_columns();
  if (rows.columns.size() != num_cols) {
    return Status::InvalidArgument(
        "binary codec: row view has " + std::to_string(rows.columns.size()) +
        " columns, schema has " + std::to_string(num_cols));
  }
  const size_t num_rows = rows.rows.size();
  std::vector<ColumnPlan> plan(num_cols);
  for (size_t col = 0; col < num_cols; ++col) {
    plan[col].type = schema.column(col).type;
    plan[col].source = rows.columns[col];
    if (plan[col].type == ColumnType::kDouble) {
      plan[col].data_bytes = 8 * num_rows;
    }
  }

  size_t mismatched = num_cols;
  for (const Tuple* row : rows.rows) {
    for (size_t col = 0; col < num_cols; ++col) {
      ColumnPlan& c = plan[col];
      const Value& value = row->value(c.source);
      bool ok = true;
      switch (c.type) {
        case ColumnType::kInt64:
          if (const int64_t* v = std::get_if<int64_t>(&value)) {
            c.data_bytes += UVarintSize(ZigZagEncode(*v));
          } else {
            ok = false;
          }
          break;
        case ColumnType::kDouble:
          ok = std::holds_alternative<double>(value);
          break;
        case ColumnType::kString:
          if (const std::string* v = std::get_if<std::string>(&value)) {
            c.length_bytes += UVarintSize(v->size());
            c.data_bytes += v->size();
          } else {
            ok = false;
          }
          break;
      }
      if (!ok && col < mismatched) mismatched = col;
    }
  }
  if (mismatched < num_cols) return MismatchedColumn(schema, mismatched);

  const size_t bitmap_bytes = (num_rows + 7) / 8;
  size_t total = UVarintSize(num_cols);
  for (const ColumnPlan& c : plan) {
    total += 1 + bitmap_bytes + c.length_bytes + c.data_bytes;
  }
  const size_t start = body->size();
  body->resize(start + total);  // zero-filled: the null bitmaps stay 0
  char* p = WriteUVarint(body->data() + start, num_cols);
  for (ColumnPlan& c : plan) {
    *p++ = static_cast<char>(c.type);
    p += bitmap_bytes;
    c.cursor = p;
    c.bytes_cursor = p + c.length_bytes;
    p += c.length_bytes + c.data_bytes;
  }

  for (const Tuple* row : rows.rows) {
    for (ColumnPlan& c : plan) {
      const Value& value = row->value(c.source);
      switch (c.type) {
        case ColumnType::kInt64:
          c.cursor = WriteUVarint(
              c.cursor, ZigZagEncode(*std::get_if<int64_t>(&value)));
          break;
        case ColumnType::kDouble:
          WriteDoubleBits(c.cursor, *std::get_if<double>(&value));
          c.cursor += 8;
          break;
        case ColumnType::kString: {
          const std::string& v = *std::get_if<std::string>(&value);
          c.cursor = WriteUVarint(c.cursor, v.size());
          std::memcpy(c.bytes_cursor, v.data(), v.size());
          c.bytes_cursor += v.size();
          break;
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status BinaryCodec::DecodeBody(ByteCursor* cursor, const char* buffer_base,
                               size_t num_rows, WireRows* rows) {
  Result<uint64_t> num_cols = cursor->ReadUVarint();
  if (!num_cols.ok()) return num_cols.status();
  if (num_cols.value() > kMaxColumns) {
    return Status::InvalidArgument("binary codec: implausible column count");
  }
  const size_t bitmap_bytes = (num_rows + 7) / 8;
  rows->columns_.resize(num_cols.value());
  for (WireRows::ColumnView& column : rows->columns_) {
    Result<uint8_t> type = cursor->ReadByte();
    if (!type.ok()) return type.status();
    if (type.value() > static_cast<uint8_t>(ColumnType::kString)) {
      return Status::InvalidArgument("binary codec: unknown column type " +
                                     std::to_string(type.value()));
    }
    column.type = static_cast<ColumnType>(type.value());
    Result<const char*> bitmap = cursor->ReadBytes(bitmap_bytes);
    if (!bitmap.ok()) return bitmap.status();
    for (size_t i = 0; i < bitmap_bytes; ++i) {
      if (bitmap.value()[i] != 0) {
        return Status::InvalidArgument(
            "binary codec: null values are not supported");
      }
    }
    switch (column.type) {
      case ColumnType::kInt64: {
        // Each varint is at least one byte, so `remaining` bounds the
        // honest row count — a hostile header can't force a huge
        // allocation before the cursor runs dry.
        column.ints.reserve(
            num_rows < cursor->remaining() ? num_rows : cursor->remaining());
        for (size_t i = 0; i < num_rows; ++i) {
          Result<int64_t> v = cursor->ReadVarint();
          if (!v.ok()) return v.status();
          column.ints.push_back(v.value());
        }
        break;
      }
      case ColumnType::kDouble: {
        Result<const char*> data = cursor->ReadBytes(8 * num_rows);
        if (!data.ok()) return data.status();
        column.data_offset = static_cast<size_t>(data.value() - buffer_base);
        break;
      }
      case ColumnType::kString: {
        const size_t plausible =
            num_rows < cursor->remaining() ? num_rows : cursor->remaining();
        column.str_offsets.reserve(plausible + 1);
        uint64_t total = 0;
        std::vector<uint64_t> lengths;
        lengths.reserve(plausible);
        for (size_t i = 0; i < num_rows; ++i) {
          Result<uint64_t> len = cursor->ReadUVarint();
          if (!len.ok()) return len.status();
          // Reject each length on its own before accumulating: a single
          // near-2^64 value would wrap `total` right past the running
          // check below and turn the offsets into out-of-buffer views.
          // With both checks `total` stays <= remaining() (itself far
          // below 2^32), so the sum can never wrap.
          if (len.value() > cursor->remaining()) {
            return Status::InvalidArgument(
                "binary codec: string data overruns payload");
          }
          total += len.value();
          if (total > cursor->remaining()) {
            return Status::InvalidArgument(
                "binary codec: string data overruns payload");
          }
          lengths.push_back(len.value());
        }
        Result<const char*> data = cursor->ReadBytes(total);
        if (!data.ok()) return data.status();
        uint64_t offset = static_cast<uint64_t>(data.value() - buffer_base);
        column.str_offsets.push_back(static_cast<uint32_t>(offset));
        for (uint64_t len : lengths) {
          offset += len;
          column.str_offsets.push_back(static_cast<uint32_t>(offset));
        }
        break;
      }
    }
  }
  rows->num_rows_ = num_rows;
  return Status::Ok();
}

Result<std::string> BinaryCodec::EncodeRequestBlock(
    const RequestBlockRequest& request) const {
  std::string out;
  out.reserve(32);
  PutPrelude(&out, kBinaryMsgRequestBlock, 0);
  PutVarint(&out, request.session_id);
  PutVarint(&out, request.block_size);
  PutVarint(&out, request.sequence);
  return out;
}

Result<RequestBlockRequest> BinaryCodec::DecodeRequestBlock(
    const std::string& payload) const {
  ByteCursor cursor(payload);
  Result<uint8_t> flags = ReadPrelude(&cursor, kBinaryMsgRequestBlock);
  if (!flags.ok()) return flags.status();
  if (flags.value() != 0) {
    return Status::InvalidArgument("binary codec: request carries flags");
  }
  RequestBlockRequest request;
  Result<int64_t> session = cursor.ReadVarint();
  if (!session.ok()) return session.status();
  request.session_id = session.value();
  Result<int64_t> size = cursor.ReadVarint();
  if (!size.ok()) return size.status();
  request.block_size = size.value();
  Result<int64_t> sequence = cursor.ReadVarint();
  if (!sequence.ok()) return sequence.status();
  request.sequence = sequence.value();
  if (!cursor.exhausted()) {
    return Status::InvalidArgument("binary codec: trailing request bytes");
  }
  return request;
}

Result<std::string> BinaryCodec::EncodeBlockResponseView(
    int64_t session_id, bool end_of_results, const Schema& schema,
    RowView rows) const {
  std::string out;
  PutPrelude(&out, kBinaryMsgBlockResponse, 0);
  PutVarint(&out, session_id);
  out.push_back(end_of_results ? 1 : 0);
  PutUVarint(&out, rows.rows.size());

  // Encode the body in place — the uncompressed path is one buffer, no
  // copy. Compression (opt-in) re-packs from the encoded tail.
  const size_t body_start = out.size();
  WSQ_RETURN_IF_ERROR(EncodeBody(schema, rows, &out));
  const size_t body_size = out.size() - body_start;

  if (options_.compress_blocks && body_size >= options_.min_compress_bytes) {
    std::string compressed;
    LzCompress(std::string_view(out.data() + body_start, body_size),
               &compressed);
    // Varint overhead for the raw size; keep compression only when it
    // actually wins.
    if (compressed.size() + 10 < body_size) {
      out[6] = static_cast<char>(kBinaryFlagCompressedBody);
      out.resize(body_start);
      PutUVarint(&out, body_size);
      out.append(compressed);
    }
  }
  return out;
}

Result<DecodedBlock> BinaryCodec::DecodeBlockResponse(
    std::string payload) const {
  ByteCursor cursor(payload);
  Result<uint8_t> flags = ReadPrelude(&cursor, kBinaryMsgBlockResponse);
  if (!flags.ok()) return flags.status();
  if ((flags.value() & ~kBinaryFlagCompressedBody) != 0) {
    return Status::InvalidArgument("binary codec: unknown response flags");
  }

  DecodedBlock block;
  Result<int64_t> session = cursor.ReadVarint();
  if (!session.ok()) return session.status();
  block.session_id = session.value();
  Result<uint8_t> eof = cursor.ReadByte();
  if (!eof.ok()) return eof.status();
  if (eof.value() > 1) {
    return Status::InvalidArgument("binary codec: bad endOfResults byte");
  }
  block.end_of_results = eof.value() == 1;
  Result<uint64_t> num_rows = cursor.ReadUVarint();
  if (!num_rows.ok()) return num_rows.status();
  if (num_rows.value() > kMaxRows) {
    return Status::InvalidArgument("binary codec: implausible row count");
  }
  block.num_tuples = static_cast<int64_t>(num_rows.value());

  if ((flags.value() & kBinaryFlagCompressedBody) != 0) {
    Result<uint64_t> raw_size = cursor.ReadUVarint();
    if (!raw_size.ok()) return raw_size.status();
    // A compressed body cannot legitimately inflate past what the frame
    // cap allows on the wire.
    if (raw_size.value() > uint64_t{256} * 1024 * 1024) {
      return Status::InvalidArgument(
          "binary codec: implausible uncompressed body size");
    }
    const size_t compressed_len = cursor.remaining();
    Result<const char*> data = cursor.ReadBytes(compressed_len);
    if (!data.ok()) return data.status();
    Result<std::string> body =
        LzDecompress(std::string_view(data.value(), compressed_len),
                     raw_size.value());
    if (!body.ok()) return body.status();
    ByteCursor body_cursor(body.value());
    WSQ_RETURN_IF_ERROR(DecodeBody(&body_cursor, body.value().data(),
                                   num_rows.value(), &block.rows));
    if (!body_cursor.exhausted()) {
      return Status::InvalidArgument("binary codec: trailing body bytes");
    }
    block.rows.buffer_ = std::move(body).value();
  } else {
    WSQ_RETURN_IF_ERROR(DecodeBody(&cursor, payload.data(),
                                   num_rows.value(), &block.rows));
    if (!cursor.exhausted()) {
      return Status::InvalidArgument("binary codec: trailing body bytes");
    }
    block.rows.buffer_ = std::move(payload);
  }
  return block;
}

}  // namespace wsq::codec

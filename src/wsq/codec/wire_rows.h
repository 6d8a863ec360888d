#ifndef WSQ_CODEC_WIRE_ROWS_H_
#define WSQ_CODEC_WIRE_ROWS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "wsq/common/status.h"
#include "wsq/relation/schema.h"
#include "wsq/relation/tuple.h"
#include "wsq/relation/tuple_serializer.h"

namespace wsq::codec {

class BinaryCodec;

/// A decoded result block, viewed in place. In *view mode* (built by
/// BinaryCodec) the object owns the raw body bytes and every string
/// accessor returns a string_view into that buffer — no per-row string
/// materialization ever happens unless the caller asks for Tuples.
/// Doubles are read as raw IEEE-754 bits (bit-exact round-trip); ints
/// are varint-decoded once at block decode time. In *text mode* (built
/// by SoapCodec) the object just carries the delimited text payload and
/// Materialize() defers to the TupleSerializer, preserving the legacy
/// 2-decimal behaviour byte for byte.
///
/// All offsets are indices into the owned buffer, not pointers, so
/// moving a WireRows never invalidates its views.
class WireRows {
 public:
  WireRows() = default;

  /// Wraps a delimited-text payload (SOAP path). `num_rows` comes from
  /// the response header, not from re-scanning the text.
  static WireRows FromText(std::string text, size_t num_rows);

  bool text_mode() const { return text_mode_; }

  /// Text-mode payload, exactly as it crossed the wire.
  const std::string& text() const { return buffer_; }

  size_t num_rows() const { return num_rows_; }

  /// Columnar accessors — view mode only. Callers must respect the
  /// column type; these do no dynamic checking on the hot path.
  size_t num_columns() const { return columns_.size(); }
  ColumnType column_type(size_t col) const { return columns_[col].type; }

  int64_t Int64At(size_t row, size_t col) const {
    return columns_[col].ints[row];
  }

  double DoubleAt(size_t row, size_t col) const;

  std::string_view StringAt(size_t row, size_t col) const {
    const ColumnView& c = columns_[col];
    const uint32_t begin = c.str_offsets[row];
    return std::string_view(buffer_.data() + begin,
                            c.str_offsets[row + 1] - begin);
  }

  /// The wire model has a null slot per column but the Value model has
  /// no null, so decoders reject set bits; this is always false today.
  bool IsNull(size_t row, size_t col) const {
    (void)row;
    (void)col;
    return false;
  }

  /// Copies the block out into owned Tuples. View mode builds values
  /// directly; text mode parses via `text_serializer` (which must be
  /// non-null for text-mode blocks).
  Result<std::vector<Tuple>> Materialize(
      const TupleSerializer* text_serializer) const;

  /// View mode only: appends rows [begin, end) as owned Tuples to `out`,
  /// built in place. The one row builder — Materialize wraps it, and the
  /// client uses it to materialize a block a slice at a time.
  void AppendRows(size_t begin, size_t end, std::vector<Tuple>* out) const;

  /// Size of the owned backing buffer (decoded body or text payload).
  size_t buffer_bytes() const { return buffer_.size(); }

 private:
  friend class BinaryCodec;

  struct ColumnView {
    ColumnType type = ColumnType::kInt64;
    std::vector<int64_t> ints;          // kInt64: decoded values
    size_t data_offset = 0;             // kDouble: first of 8*num_rows bytes
    std::vector<uint32_t> str_offsets;  // kString: num_rows + 1 boundaries
  };

  std::string buffer_;
  std::vector<ColumnView> columns_;
  size_t num_rows_ = 0;
  bool text_mode_ = false;
};

}  // namespace wsq::codec

#endif  // WSQ_CODEC_WIRE_ROWS_H_

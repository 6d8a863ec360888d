#include "wsq/codec/wire_rows.h"

#include <cstring>
#include <utility>

namespace wsq::codec {

WireRows WireRows::FromText(std::string text, size_t num_rows) {
  WireRows rows;
  rows.buffer_ = std::move(text);
  rows.num_rows_ = num_rows;
  rows.text_mode_ = true;
  return rows;
}

double WireRows::DoubleAt(size_t row, size_t col) const {
  // Assemble the little-endian wire bytes explicitly so the result is
  // bit-exact regardless of host endianness.
  const unsigned char* p = reinterpret_cast<const unsigned char*>(
      buffer_.data() + columns_[col].data_offset + 8 * row);
  uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) bits = (bits << 8) | p[i];
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Result<std::vector<Tuple>> WireRows::Materialize(
    const TupleSerializer* text_serializer) const {
  if (text_mode_) {
    if (text_serializer == nullptr) {
      return Status::FailedPrecondition(
          "text-mode WireRows need a TupleSerializer to materialize");
    }
    return text_serializer->DeserializeBlock(buffer_);
  }
  std::vector<Tuple> out;
  out.reserve(num_rows_);
  AppendRows(0, num_rows_, &out);
  return out;
}

void WireRows::AppendRows(size_t begin, size_t end,
                          std::vector<Tuple>* out) const {
  for (size_t row = begin; row < end; ++row) {
    std::vector<Value> values;
    values.reserve(columns_.size());
    for (size_t col = 0; col < columns_.size(); ++col) {
      switch (columns_[col].type) {
        case ColumnType::kInt64:
          values.emplace_back(Int64At(row, col));
          break;
        case ColumnType::kDouble:
          values.emplace_back(DoubleAt(row, col));
          break;
        case ColumnType::kString:
          values.emplace_back(std::in_place_type<std::string>,
                              StringAt(row, col));
          break;
      }
    }
    out->emplace_back(std::move(values));
  }
}

}  // namespace wsq::codec

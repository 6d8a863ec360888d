#include "wsq/relation/tuple_serializer.h"

#include <charconv>
#include <cstdlib>

namespace wsq {
namespace {

/// Splits an escaped line on unescaped '|'.
Result<std::vector<std::string>> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        return Status::InvalidArgument("dangling escape in serialized tuple");
      }
      const char next = line[++i];
      if (next == 'n') {
        current += '\n';
      } else {
        current += next;
      }
    } else if (c == '|') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

Result<Value> ParseValue(const std::string& text, ColumnType type) {
  switch (type) {
    case ColumnType::kInt64: {
      int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::InvalidArgument("bad int64 field: " + text);
      }
      return Value(v);
    }
    case ColumnType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size() || text.empty()) {
        return Status::InvalidArgument("bad double field: " + text);
      }
      return Value(v);
    }
    case ColumnType::kString:
      return Value(text);
  }
  return Status::Internal("unreachable column type");
}

}  // namespace

std::string EscapeField(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '|':
        out += "\\|";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeField(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\') {
      if (i + 1 >= escaped.size()) {
        return Status::InvalidArgument("dangling escape");
      }
      const char next = escaped[++i];
      out += next == 'n' ? '\n' : next;
    } else {
      out += escaped[i];
    }
  }
  return out;
}

TupleSerializer::TupleSerializer(Schema schema)
    : schema_(std::move(schema)), all_columns_(schema_.num_columns()) {
  for (size_t i = 0; i < all_columns_.size(); ++i) all_columns_[i] = i;
}

Status TupleSerializer::AppendTuple(const Tuple& tuple,
                                    std::string* out) const {
  if (tuple.num_values() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.num_values()) +
        " does not match schema arity " +
        std::to_string(schema_.num_columns()));
  }
  return AppendRow(tuple, all_columns_, out);
}

Result<std::string> TupleSerializer::Serialize(const Tuple& tuple) const {
  std::string out;
  WSQ_RETURN_IF_ERROR(AppendTuple(tuple, &out));
  out.pop_back();  // the row terminator
  return out;
}

Result<std::string> TupleSerializer::SerializeBlock(
    const std::vector<Tuple>& block) const {
  std::string out;
  for (const Tuple& tuple : block) {
    WSQ_RETURN_IF_ERROR(AppendTuple(tuple, &out));
  }
  return out;
}

Status TupleSerializer::AppendRow(const Tuple& row,
                                  std::span<const size_t> columns,
                                  std::string* out) const {
  if (columns.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row view arity " + std::to_string(columns.size()) +
        " does not match schema arity " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (TypeOf(row.value(columns[i])) != schema_.column(i).type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     schema_.column(i).name);
    }
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) *out += '|';
    *out += EscapeField(ValueToString(row.value(columns[i])));
  }
  *out += '\n';
  return Status::Ok();
}

Result<Tuple> TupleSerializer::Deserialize(const std::string& line) const {
  Result<std::vector<std::string>> fields = SplitFields(line);
  if (!fields.ok()) return fields.status();
  if (fields.value().size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "field count " + std::to_string(fields.value().size()) +
        " does not match schema arity " +
        std::to_string(schema_.num_columns()));
  }
  std::vector<Value> values;
  values.reserve(fields.value().size());
  for (size_t i = 0; i < fields.value().size(); ++i) {
    Result<Value> v = ParseValue(fields.value()[i], schema_.column(i).type);
    if (!v.ok()) return v.status();
    values.push_back(std::move(v).value());
  }
  return Tuple(std::move(values));
}

Result<std::vector<Tuple>> TupleSerializer::DeserializeBlock(
    const std::string& data) const {
  std::vector<Tuple> out;
  size_t start = 0;
  while (start < data.size()) {
    // Find the next row terminator (escaped newlines are "\\n", i.e.
    // never a literal '\n' byte in the stream). Every '\n'-terminated
    // segment is a row — including an empty one, which is the valid
    // serialization of a single-string-column tuple holding "".
    const size_t end = data.find('\n', start);
    if (end == std::string::npos) {
      // Trailing unterminated bytes: parse only if non-empty (a
      // well-formed block always terminates its last row).
      Result<Tuple> t = Deserialize(data.substr(start));
      if (!t.ok()) return t.status();
      out.push_back(std::move(t).value());
      break;
    }
    Result<Tuple> t = Deserialize(data.substr(start, end - start));
    if (!t.ok()) return t.status();
    out.push_back(std::move(t).value());
    start = end + 1;
  }
  return out;
}

}  // namespace wsq

// Typed cell values for the relational store. Small tagged union over
// int64 / string with a total ordering (type tag first, then value) so a
// single B+tree implementation serves every column type. A string cell can
// also be read as a list of '|'-separated elements (empty = no elements),
// which kHas tests and an element index files under.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gdpr::rel {

enum class ValueType { kNull, kInt64, kString };

// kHas: the cell's element list holds the value.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kHas };

class Value {
 public:
  Value() : type_(ValueType::kNull), i_(0) {}
  Value(int64_t v) : type_(ValueType::kInt64), i_(v) {}            // NOLINT
  Value(std::string v) : type_(ValueType::kString), s_(std::move(v)) {}  // NOLINT
  Value(const char* v) : type_(ValueType::kString), s_(v) {}       // NOLINT

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t AsInt64() const { return type_ == ValueType::kInt64 ? i_ : 0; }
  const std::string& AsString() const { return s_; }

  int Compare(const Value& o) const {
    if (type_ != o.type_) return type_ < o.type_ ? -1 : 1;
    switch (type_) {
      case ValueType::kNull: return 0;
      case ValueType::kInt64: return i_ < o.i_ ? -1 : (i_ > o.i_ ? 1 : 0);
      case ValueType::kString: return s_.compare(o.s_) < 0 ? -1
                                       : (s_ == o.s_ ? 0 : 1);
    }
    return 0;
  }

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  bool Matches(CompareOp op, const Value& rhs) const {
    if (op == CompareOp::kHas) {
      const std::vector<Value> e = Elements();
      return std::binary_search(e.begin(), e.end(), rhs);
    }
    const int c = Compare(rhs);
    switch (op) {
      case CompareOp::kEq: return c == 0;
      case CompareOp::kNe: return c != 0;
      case CompareOp::kLt: return c < 0;
      case CompareOp::kLe: return c <= 0;
      case CompareOp::kGt: return c > 0;
      case CompareOp::kGe: return c >= 0;
      case CompareOp::kHas: break;
    }
    return false;
  }

  // The distinct elements of a string cell, sorted; none for other types.
  std::vector<Value> Elements() const {
    std::vector<Value> out;
    if (type_ != ValueType::kString || s_.empty()) return out;
    for (size_t at = 0; at <= s_.size();) {
      const size_t end = std::min(s_.find('|', at), s_.size());
      out.emplace_back(s_.substr(at, end - at));
      at = end + 1;
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  std::string ToString() const {
    switch (type_) {
      case ValueType::kNull: return "NULL";
      case ValueType::kInt64: return std::to_string(i_);
      case ValueType::kString: return s_;
    }
    return "";
  }

  size_t ByteSize() const {
    return type_ == ValueType::kString ? s_.size() + 8 : 8;
  }

 private:
  ValueType type_;
  int64_t i_ = 0;
  std::string s_;
};

}  // namespace gdpr::rel

// Varint / fixed-width little-endian binary coding for the compact record
// format and the append-only log framing.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gdpr {

inline void PutFixed64(std::string* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) dst->push_back(char(uint8_t(v >> (8 * i))));
}

// Returns false on truncation. Advances *input past the consumed bytes.
inline bool GetFixed64(std::string_view* input, uint64_t* v) {
  if (input->size() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= uint64_t(uint8_t((*input)[i])) << (8 * i);
  }
  *v = out;
  input->remove_prefix(8);
  return true;
}

inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(char(uint8_t(v) | 0x80));
    v >>= 7;
  }
  dst->push_back(char(uint8_t(v)));
}

inline bool GetVarint64(std::string_view* input, uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (input->empty()) return false;
    const uint8_t byte = uint8_t(input->front());
    input->remove_prefix(1);
    out |= uint64_t(byte & 0x7f) << shift;
    if (!(byte & 0x80)) {
      *v = out;
      return true;
    }
  }
  return false;
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

inline bool GetLengthPrefixed(std::string_view* input, std::string_view* out) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len) || input->size() < len) return false;
  *out = input->substr(0, size_t(len));
  input->remove_prefix(size_t(len));
  return true;
}

// A varint count, then each string length-prefixed: the one list layout the
// record format and the wire share.
inline void PutStringList(std::string* dst, const std::vector<std::string>& v) {
  PutVarint64(dst, v.size());
  for (const auto& s : v) PutLengthPrefixed(dst, s);
}

// Returns false on truncation, or when the count exceeds the bytes left.
inline bool GetStringList(std::string_view* input,
                          std::vector<std::string>* out) {
  uint64_t n = 0;
  if (!GetVarint64(input, &n) || n > input->size()) return false;
  out->clear();
  out->reserve(size_t(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view s;
    if (!GetLengthPrefixed(input, &s)) return false;
    out->emplace_back(s);
  }
  return true;
}

}  // namespace gdpr

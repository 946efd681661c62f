#include "crypto/chacha20.h"

#include <cstring>

namespace gdpr {

namespace {

inline uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline uint32_t Load32(const uint8_t* p) {
  return uint32_t(p[0]) | (uint32_t(p[1]) << 8) | (uint32_t(p[2]) << 16) |
         (uint32_t(p[3]) << 24);
}

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = Rotl(d, 16);
  c += d; b ^= c; b = Rotl(b, 12);
  a += b; d ^= a; d = Rotl(d, 8);
  c += d; b ^= c; b = Rotl(b, 7);
}

}  // namespace

ChaCha20::ChaCha20(const uint8_t key[32], const uint8_t nonce[12],
                   uint32_t counter) {
  static const char kSigma[] = "expand 32-byte k";
  state_[0] = Load32(reinterpret_cast<const uint8_t*>(kSigma));
  state_[1] = Load32(reinterpret_cast<const uint8_t*>(kSigma + 4));
  state_[2] = Load32(reinterpret_cast<const uint8_t*>(kSigma + 8));
  state_[3] = Load32(reinterpret_cast<const uint8_t*>(kSigma + 12));
  for (int i = 0; i < 8; ++i) state_[4 + i] = Load32(key + 4 * i);
  state_[12] = counter;
  state_[13] = Load32(nonce);
  state_[14] = Load32(nonce + 4);
  state_[15] = Load32(nonce + 8);
}

void ChaCha20::NextBlock() {
  uint32_t x[16];
  memcpy(x, state_, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const uint32_t v = x[i] + state_[i];
    block_[4 * i + 0] = uint8_t(v);
    block_[4 * i + 1] = uint8_t(v >> 8);
    block_[4 * i + 2] = uint8_t(v >> 16);
    block_[4 * i + 3] = uint8_t(v >> 24);
  }
  state_[12]++;  // block counter
  block_pos_ = 0;
}

void ChaCha20::Process(uint8_t* data, size_t len) {
  // The rest of a block an earlier call began, a byte at a time.
  for (; len != 0 && block_pos_ != 64; --len) *data++ ^= block_[block_pos_++];
  // Whole blocks, eight 64-bit words each; memcpy keeps byte order and
  // alignment out of it.
  for (; len >= 64; len -= 64, data += 64) {
    NextBlock();
    for (int i = 0; i < 64; i += 8) {
      uint64_t d, k;
      memcpy(&d, data + i, 8);
      memcpy(&k, block_ + i, 8);
      d ^= k;
      memcpy(data + i, &d, 8);
    }
    block_pos_ = 64;
  }
  if (len == 0) return;
  NextBlock();  // the tail: the front of a fresh block
  for (size_t i = 0; i < len; ++i) data[i] ^= block_[i];
  block_pos_ = len;
}

}  // namespace gdpr

#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GDPR_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace gdpr {

namespace {

alignas(16) const uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void CompressScalar(uint32_t state[8], const uint8_t* block, size_t n) {
  for (; n > 0; --n, block += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t(block[4 * i]) << 24) |
             (uint32_t(block[4 * i + 1]) << 16) |
             (uint32_t(block[4 * i + 2]) << 8) | uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#ifdef GDPR_SHA_NI
// The state lives in two registers as (A,B,E,F) and (C,D,G,H), the layout
// sha256rnds2 works on. Each group of four rounds adds K to four schedule
// words and runs two rnds2 steps; msg1/msg2 extend the schedule four words
// at a time, w[0..3] holding the last sixteen words as a ring.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* block, size_t n) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // C D A B
  state1 = _mm_shuffle_epi32(state1, 0x1B);          // E F G H
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // A B E F
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // C D G H

  for (; n > 0; --n, block += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
            kByteSwap);
      }
      const __m128i k =
          _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
      __m128i msg = _mm_add_epi32(w[g & 3], k);
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g <= 14) {
        const __m128i prev = w[(g + 3) & 3];
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[g & 3], prev, 4));
        next = _mm_sha256msg2_epu32(next, w[g & 3]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g <= 12) {
        w[(g + 3) & 3] = _mm_sha256msg1_epu32(w[(g + 3) & 3], w[g & 3]);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // F E B A
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // D C H G
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // D C B A
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // H G F E
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

bool CpuHasShaNi() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = c & bit_SSSE3;
  const bool sse41 = c & bit_SSE4_1;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return ssse3 && sse41 && (b & bit_SHA);
}
#endif

}  // namespace

Sha256::Kernel Sha256::SelectedKernel() {
  static const Kernel k =
      KernelAvailable(Kernel::kShaNi) ? Kernel::kShaNi : Kernel::kScalar;
  return k;
}

bool Sha256::KernelAvailable(Kernel k) {
#ifdef GDPR_SHA_NI
  static const bool sha_ni = CpuHasShaNi();
  if (k == Kernel::kShaNi) return sha_ni;
#endif
  return k == Kernel::kScalar;
}

const char* Sha256::KernelName(Kernel k) {
  return k == Kernel::kShaNi ? "sha-ni" : "scalar";
}

Sha256::Sha256(Kernel k) : compress_(CompressScalar) {
#ifdef GDPR_SHA_NI
  if (k == Kernel::kShaNi) compress_ = CompressShaNi;
#else
  (void)k;
#endif
  h_[0] = 0x6a09e667; h_[1] = 0xbb67ae85; h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a; h_[4] = 0x510e527f; h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab; h_[7] = 0x5be0cd19;
}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buf_len_ > 0) {
    const size_t take = len < 64 - buf_len_ ? len : 64 - buf_len_;
    memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    len -= take;
    if (buf_len_ < 64) return;
    compress_(h_, buf_, 1);
    buf_len_ = 0;
  }
  if (len >= 64) {
    compress_(h_, p, len / 64);
    p += len & ~size_t(63);
    len &= 63;
  }
  if (len > 0) {
    memcpy(buf_, p, len);
    buf_len_ = len;
  }
}

Sha256::Digest Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = (buf_len_ < 56) ? 56 - buf_len_ : 120 - buf_len_;
  memset(pad, 0, sizeof(pad));
  pad[0] = 0x80;
  for (int i = 0; i < 8; ++i) pad[pad_len + i] = uint8_t(bit_len >> (56 - 8 * i));
  Update(pad, pad_len + 8);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = uint8_t(h_[i] >> 24);
    out[4 * i + 1] = uint8_t(h_[i] >> 16);
    out[4 * i + 2] = uint8_t(h_[i] >> 8);
    out[4 * i + 3] = uint8_t(h_[i]);
  }
  return out;
}

std::string Sha256::ToHex(const Digest& d) {
  static const char kHex[] = "0123456789abcdef";
  std::string out(64, '0');
  for (size_t i = 0; i < d.size(); ++i) {
    out[2 * i] = kHex[d[i] >> 4];
    out[2 * i + 1] = kHex[d[i] & 0xf];
  }
  return out;
}

std::string Sha256::HexDigest(std::string_view data) {
  return ToHex(Hash(data));
}

HmacSha256Key::HmacSha256Key(std::string_view key) {
  constexpr uint8_t kIpad = 0x36, kOpad = 0x5c;
  uint8_t pad[64] = {};
  if (key.size() > 64) {
    const Sha256::Digest kd = Sha256::Hash(key);
    memcpy(pad, kd.data(), kd.size());
  } else {
    memcpy(pad, key.data(), key.size());
  }
  for (uint8_t& b : pad) b ^= kIpad;
  inner_.Update(pad, 64);
  for (uint8_t& b : pad) b ^= kIpad ^ kOpad;
  outer_.Update(pad, 64);
}

Sha256::Digest HmacSha256Key::Mac(std::string_view message) const {
  Sha256 inner = inner_;
  inner.Update(message);
  const Sha256::Digest id = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(id.data(), id.size());
  return outer.Finish();
}

}  // namespace gdpr

// SHA-256 (FIPS 180-4) with a streaming interface, for the audit log's hash
// chain and export checksums, plus HMAC-SHA256 for the AEAD tag.
//
// Block kernel. Update hands every run of whole 64-byte blocks to one
// compress entry point. On x86-64, when CPUID reports SHA, SSE4.1 and SSSE3,
// that is a SHA-NI kernel (the sha256rnds2/msg1/msg2 instructions);
// elsewhere it is the portable scalar code, which also stays as the
// reference the SHA-NI kernel is tested against. The choice is made once per
// process from CPUID: no build flag or option, so one binary runs anywhere.
// Both kernels compute the same function, so digests, MAC tags and every
// sealed byte on disk are unchanged by which one runs.
//
// Cached key schedule. HmacSha256Key absorbs the key's ipad and opad blocks
// once; each Mac() starts from copies of those two states, so a short
// message costs two compressions instead of four.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gdpr {

class Sha256 {
 public:
  using Digest = std::array<uint8_t, 32>;

  enum class Kernel { kScalar, kShaNi };
  // The kernel a default-constructed hasher runs on this CPU.
  static Kernel SelectedKernel();
  static bool KernelAvailable(Kernel k);
  static const char* KernelName(Kernel k);

  Sha256() : Sha256(SelectedKernel()) {}
  // Pins the block kernel (tests compare the two); k must be available.
  explicit Sha256(Kernel k);
  void Update(const void* data, size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }
  Digest Finish();

  static Digest Hash(std::string_view data) {
    Sha256 h;
    h.Update(data);
    return h.Finish();
  }
  static std::string HexDigest(std::string_view data);
  static std::string ToHex(const Digest& d);

 private:
  // Compresses n consecutive 64-byte blocks into state.
  using BlockFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                           size_t n);

  BlockFn compress_;
  uint32_t h_[8];
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

// HMAC-SHA256 under one key, with the padded key blocks absorbed once.
// Mac() is const and copies the cached states, so threads may share a key.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::string_view key);
  Sha256::Digest Mac(std::string_view message) const;

 private:
  Sha256 inner_;  // after the ipad block
  Sha256 outer_;  // after the opad block
};

}  // namespace gdpr

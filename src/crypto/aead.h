// Authenticated encryption: ChaCha20 + HMAC-SHA256 (encrypt-then-MAC).
// This is the at-rest encryption primitive the GDPR retrofit pays for on
// every data touch. Seal is deterministic given (key, seq, plaintext); the
// caller supplies a unique sequence number per message (nonce).
//
// The MAC key's padded blocks are absorbed once, at construction
// (HmacSha256Key), and SHA-256 runs on the fastest block kernel the CPU
// offers (see sha256.h). Neither changes a byte of Seal's output for a
// given (key, seq, plaintext), so sealed cells already in WAL, snapshot and
// AOF files open unchanged. Seal and Open are const and safe to call from
// many threads at once.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "crypto/sha256.h"

namespace gdpr {

class Aead {
 public:
  // Any key material; independent cipher and MAC keys are derived from it.
  explicit Aead(std::string_view key_material);

  // Wire format: [8B LE seq][ciphertext][16B tag].
  std::string Seal(std::string_view plaintext, uint64_t seq) const;

  // Verifies the tag before decrypting; any bit flip => DataLoss.
  StatusOr<std::string> Open(std::string_view sealed) const;

  // Size of Seal() output for an n-byte plaintext.
  static size_t SealedSize(size_t n) { return n + kOverhead; }
  static constexpr size_t kOverhead = 8 + 16;

 private:
  uint8_t enc_key_[32];
  HmacSha256Key mac_key_;
};

}  // namespace gdpr

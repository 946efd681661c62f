// Authenticated encryption: ChaCha20 + HMAC-SHA256 (encrypt-then-MAC).
// This is the at-rest encryption primitive the GDPR retrofit pays for on
// every data touch. Seal is deterministic given (key, seq, plaintext); the
// caller supplies a unique sequence number per message (nonce), from the
// key's SealCounter.
//
// The MAC key's padded blocks are absorbed once, at construction
// (HmacSha256Key), and SHA-256 runs on the fastest block kernel the CPU
// offers (see sha256.h). Neither changes a byte of Seal's output for a
// given (key, seq, plaintext), so sealed cells already in WAL, snapshot and
// AOF files open unchanged. Seal and Open are const and safe to call from
// many threads at once.

#pragma once

#include <atomic>
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
  // The seq a sealed blob leads with; sealed.size() >= 8.
  static uint64_t SeqOf(std::string_view sealed);

  // Verifies the tag before decrypting; any bit flip => DataLoss.
  StatusOr<std::string> Open(std::string_view sealed) const;

  // Size of Seal() output for an n-byte plaintext.
  static size_t SealedSize(size_t n) { return n + kOverhead; }
  static constexpr size_t kOverhead = 8 + 16;

 private:
  uint8_t enc_key_[32];
  HmacSha256Key mac_key_;
};

// The seq source of one at-rest key's Seal calls. Resume rule: recovery
// raises the counter above every seq it replays — each sealed value's
// leading seq, and the high-water mark a log rewrite or checkpoint recorded
// for the values it dropped — so no (key, seq) nonce is ever sealed twice
// (ChaCha20 keystream reuse => plaintext recovery).
class SealCounter {
 public:
  uint64_t Next() { return next_.fetch_add(1); }
  // Every seq handed out so far is below this mark.
  uint64_t mark() const { return next_.load(); }
  // Resumes above seq. UINT64_MAX has no successor and is ignored: the
  // counter never reaches it, so only a plaintext or tampered value leads
  // with it, and raising to its wrapped successor (0) would rewind the
  // counter onto seqs already sealed.
  void RaiseAbove(uint64_t seq) {
    if (seq == UINT64_MAX) return;
    uint64_t cur = next_.load();
    while (seq >= cur && !next_.compare_exchange_weak(cur, seq + 1)) {
    }
  }
  // Resumes above the seq a replayed value leads with if it is sealed. Any
  // value of at least 8 bytes counts, sealed or not: a resume that is too
  // high only skips seqs, it never reuses one.
  void RaiseAboveSealed(std::string_view value) {
    if (value.size() >= 8) RaiseAbove(Aead::SeqOf(value));
  }

 private:
  std::atomic<uint64_t> next_{1};
};

}  // namespace gdpr

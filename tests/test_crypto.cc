#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace gdpr {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[uint8_t(c) >> 4]);
    out.push_back(kDigits[uint8_t(c) & 0xf]);
  }
  return out;
}

TEST(ChaCha20, Rfc8439Vector) {
  // RFC 8439 §2.4.2 test vector.
  uint8_t key[32];
  for (int i = 0; i < 32; ++i) key[i] = uint8_t(i);
  const uint8_t nonce[12] = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20 cipher(key, nonce, /*counter=*/1);
  cipher.Process(reinterpret_cast<uint8_t*>(plaintext.data()),
                 plaintext.size());
  const uint8_t expected_head[16] = {0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68,
                                     0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
                                     0xdd, 0x0d, 0x69, 0x81};
  EXPECT_EQ(memcmp(plaintext.data(), expected_head, 16), 0);
  const uint8_t expected_tail[4] = {0x5e, 0x42, 0x87, 0x4d};
  EXPECT_EQ(memcmp(plaintext.data() + plaintext.size() - 4, expected_tail, 4),
            0);
}

TEST(ChaCha20, RoundTripAndStreaming) {
  uint8_t key[32] = {9};
  uint8_t nonce[12] = {3};
  std::string msg(1000, '\0');
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = char(i * 31);
  std::string enc = msg;
  ChaCha20 a(key, nonce);
  a.Process(reinterpret_cast<uint8_t*>(enc.data()), enc.size());
  EXPECT_NE(enc, msg);
  // Decrypt in uneven chunks: the stream position must carry over.
  ChaCha20 b(key, nonce);
  b.Process(reinterpret_cast<uint8_t*>(enc.data()), 13);
  b.Process(reinterpret_cast<uint8_t*>(enc.data()) + 13, 700);
  b.Process(reinterpret_cast<uint8_t*>(enc.data()) + 713, enc.size() - 713);
  EXPECT_EQ(enc, msg);
}

// Process XORs whole blocks as words and the rest byte by byte, so every
// split of one buffer into two calls, on and off a block edge, must give
// the bytes of one call over the whole buffer.
TEST(ChaCha20, EverySplitPointEqualsOneCall) {
  uint8_t key[32];
  for (int i = 0; i < 32; ++i) key[i] = uint8_t(7 * i + 1);
  const uint8_t nonce[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  std::string msg(300, '\0');
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = char(i * 13 + 5);
  std::string whole = msg;
  ChaCha20 one(key, nonce, /*counter=*/1);
  one.Process(reinterpret_cast<uint8_t*>(whole.data()), whole.size());
  for (size_t split = 0; split <= msg.size(); ++split) {
    std::string parts = msg;
    ChaCha20 two(key, nonce, /*counter=*/1);
    two.Process(reinterpret_cast<uint8_t*>(parts.data()), split);
    two.Process(reinterpret_cast<uint8_t*>(parts.data()) + split,
                parts.size() - split);
    ASSERT_EQ(parts, whole) << "split at " << split;
  }
}

// FIPS 180-4 / NIST CAVP example messages.
TEST(Sha256, KnownVectors) {
  EXPECT_EQ(Sha256::HexDigest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::HexDigest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::HexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(Sha256::HexDigest(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  const std::string a(1000000, 'a');
  EXPECT_EQ(Sha256::HexDigest(a),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  // The same message fed in odd-sized pieces.
  Sha256 h;
  for (size_t off = 0; off < a.size(); off += 997) {
    h.Update(std::string_view(a).substr(off, 997));
  }
  EXPECT_EQ(Sha256::ToHex(h.Finish()), Sha256::HexDigest(a));
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string data(100000, 'q');
  Sha256 h;
  h.Update(data.substr(0, 1));
  h.Update(data.substr(1, 62));
  h.Update(data.substr(63));
  EXPECT_EQ(Sha256::ToHex(h.Finish()), Sha256::HexDigest(data));
}

TEST(Sha256, SelectedKernelIsAvailable) {
  EXPECT_TRUE(Sha256::KernelAvailable(Sha256::Kernel::kScalar));
  EXPECT_TRUE(Sha256::KernelAvailable(Sha256::SelectedKernel()));
}

// The SHA-NI kernel against the scalar reference: every length 0-1024 in one
// Update, and each length split at every block-relevant boundary.
TEST(Sha256, ShaNiMatchesScalar) {
  if (!Sha256::KernelAvailable(Sha256::Kernel::kShaNi)) {
    GTEST_SKIP() << "CPU has no SHA extensions";
  }
  std::string msg(1024, '\0');
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = char(i * 131 + (i >> 5));
  auto digest = [&](Sha256::Kernel k, size_t len, size_t split) {
    Sha256 h(k);
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, len - split);
    return h.Finish();
  };
  for (size_t len = 0; len <= msg.size(); ++len) {
    const Sha256::Digest ref = digest(Sha256::Kernel::kScalar, len, 0);
    EXPECT_EQ(digest(Sha256::Kernel::kShaNi, len, 0), ref) << len;
    for (const size_t split : {size_t(1), size_t(55), size_t(63), size_t(64),
                               size_t(65), size_t(128), len / 2, len}) {
      if (split > len) continue;
      EXPECT_EQ(digest(Sha256::Kernel::kShaNi, len, split), ref)
          << len << " split at " << split;
      EXPECT_EQ(digest(Sha256::Kernel::kScalar, len, split), ref)
          << len << " split at " << split;
    }
  }
}

std::string Mac(std::string_view key, std::string_view msg) {
  return Sha256::ToHex(HmacSha256Key(key).Mac(msg));
}

std::string Bytes(size_t n, uint8_t b) { return std::string(n, char(b)); }

// RFC 4231 section 4 (case 5 truncates the tag, which the AEAD does itself).
TEST(HmacSha256, Rfc4231Case1) {
  EXPECT_EQ(Mac(Bytes(20, 0x0b), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(Mac("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  EXPECT_EQ(Mac(Bytes(20, 0xaa), Bytes(50, 0xdd)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  std::string key;
  for (int i = 1; i <= 25; ++i) key.push_back(char(i));
  EXPECT_EQ(Mac(key, Bytes(50, 0xcd)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// Cases 6 and 7: a 131-byte key, longer than a block, is hashed first.
TEST(HmacSha256, Rfc4231Case6) {
  EXPECT_EQ(Mac(Bytes(131, 0xaa),
                "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, Rfc4231Case7) {
  EXPECT_EQ(
      Mac(Bytes(131, 0xaa),
          "This is a test using a larger than block-size key and a larger "
          "than block-size data. The key needs to be hashed before being "
          "used by the HMAC algorithm."),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// Mac is const over cached states: two threads sharing one key get the
// single-threaded answers (run under TSAN in CI).
TEST(HmacSha256, SharedKeyAcrossThreads) {
  const HmacSha256Key key("shared-key");
  const std::string expect_a = Sha256::ToHex(key.Mac("message-a"));
  const std::string expect_b = Sha256::ToHex(key.Mac("message-b"));
  std::atomic<int> mismatches{0};
  auto worker = [&](std::string_view msg, const std::string& expect) {
    for (int i = 0; i < 2000; ++i) {
      if (Sha256::ToHex(key.Mac(msg)) != expect) mismatches.fetch_add(1);
    }
  };
  std::thread a(worker, "message-a", std::cref(expect_a));
  std::thread b(worker, "message-b", std::cref(expect_b));
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Aead, SealOpenRoundTrip) {
  Aead aead("secret-key-material");
  const std::string msg = "personal data: 123-456-7890";
  const std::string sealed = aead.Seal(msg, 42);
  EXPECT_EQ(sealed.size(), Aead::SealedSize(msg.size()));
  auto opened = aead.Open(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), msg);
}

TEST(Aead, DetectsTampering) {
  Aead aead("key");
  const std::string sealed = aead.Seal("payload-payload", 7);
  for (const size_t flip : {size_t(0), sealed.size() / 2, sealed.size() - 1}) {
    std::string bad = sealed;
    bad[flip] = char(bad[flip] ^ 1);
    EXPECT_FALSE(aead.Open(bad).ok()) << "flip at " << flip;
  }
  EXPECT_FALSE(aead.Open("short").ok());
}

// The seven string cells of a reldb customer row (key, user, 100-byte
// datum, origin, purposes, objections, shared_with), shaped like the
// GDPRbench dataset's.
std::vector<std::string> CustomerCells() {
  std::string datum;
  for (int i = 0; i < 100; ++i) datum.push_back(char('!' + (i * 7) % 90));
  return {"rec-0000000042", "user-000042", datum, "first-party",
          "pur-042",        "",            "partner-10"};
}

// Seal's bytes for those cells, captured before the SHA-256 kernels changed:
// sealed cells already in WAL, snapshot and AOF files must still open.
TEST(Aead, SealedCustomerCellsArePinned) {
  const Aead aead("reldb-at-rest-key");
  const std::vector<std::string> cells = CustomerCells();
  const std::vector<std::string> expected = {
      "e803000000000000b774510e2c6777e199ec8e6aadd4bcefa0c5e28aba105301"
      "661f33807dd1",
      "e903000000000000981783f183c7310d92c1dfcb2c1d644469fe8228947dbcdb"
      "28958f",
      "ea030000000000001cdd43d96cb814a97c84cd5034d0f3eb9da04b253a44f8f3"
      "92def0d96c6eac3585d85722bd5edcb10bb0e70f5200ad54f9dd5d988dd311d6"
      "1cde72069edad325129d5af63e6eb41965b911af8bc3aece3773bd1efcf5becf"
      "c2a3e9a9505ca314c4ada42ab4a2dd08bae990ca945bec59f5b0e37c",
      "eb03000000000000653ef78f51f9fcb98c81650d83218703dca848761f4581ba"
      "b31309",
      "ec03000000000000fde71f510a2d08a2369e385e5dc81dc586f9630865255e",
      "ed0300000000000004ff04e0362edc561d5787b69c163fb1",
      "ee03000000000000b3221bffdf729b6bf12e93144f829db8fd856eab0d49b587"
      "0976"};
  ASSERT_EQ(cells.size(), expected.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string sealed = aead.Seal(cells[i], 1000 + i);
    EXPECT_EQ(Hex(sealed), expected[i]) << "cell " << i;
    auto opened = aead.Open(sealed);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value(), cells[i]);
  }
}

TEST(Aead, DistinctSequencesDistinctCiphertexts) {
  Aead aead("key");
  EXPECT_NE(aead.Seal("same message", 1), aead.Seal("same message", 2));
  // Wrong key fails to open.
  Aead other("other-key");
  EXPECT_FALSE(other.Open(aead.Seal("msg", 3)).ok());
}

TEST(SealCounter, ResumesAboveEveryReplayedSeq) {
  SealCounter counter;
  EXPECT_EQ(counter.Next(), 1u);
  counter.RaiseAbove(41);
  EXPECT_EQ(counter.mark(), 42u);
  counter.RaiseAbove(7);  // lower seqs never rewind it
  EXPECT_EQ(counter.Next(), 42u);
  Aead aead("key");
  counter.RaiseAboveSealed(aead.Seal("v", 100));
  EXPECT_EQ(counter.mark(), 101u);
  counter.RaiseAboveSealed("short");  // under 8 bytes: no seq to read
  EXPECT_EQ(counter.mark(), 101u);
}

TEST(SealCounter, MaxSeqNeverWrapsTheCounter) {
  // A value leading with eight 0xFF bytes (a plaintext or tampered one)
  // carries seq UINT64_MAX, whose successor wraps to 0.
  SealCounter counter;
  counter.RaiseAbove(99);
  counter.RaiseAboveSealed(std::string(8, '\xff') + "tail");
  counter.RaiseAbove(UINT64_MAX);
  EXPECT_GT(counter.mark(), 99u);
  counter.RaiseAbove(5);
  EXPECT_GT(counter.mark(), 99u);
  EXPECT_EQ(counter.Next(), 100u);
}

}  // namespace
}  // namespace gdpr

// The GDPRbench dataset the benchmark loads: every record is a pure function
// of its ordinal, so the loader, the churn re-creates and the answer checks
// all derive the same record without asking the store.
//
// Every attribute is assigned by ordinal modulo its vocabulary, which makes
// the exact population of each user, purpose and partner computable — the
// completeness checks compare query answers against these counts.
//
// Keys, users, purposes and payloads match bench/generator.h's
// RecordGenerator. Two rules differ: shared records cycle through all 16
// partners (RecordGenerator's i % partners, on multiples of 4, reaches only
// partners 0, 4, 8 and 12), and every TTL is 30 days (RecordGenerator's
// random horizon can let a record expire mid-run, turning its reads into
// NotFound).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "gdpr/record.h"

namespace perfbench {

struct Dataset {
  size_t records = 100000;
  size_t users = 10000;  // each user owns records / users ordinals
  size_t purposes = 64;
  size_t partners = 16;
  size_t share_every = 4;  // every 4th record is shared with one partner
  size_t ttl_every = 2;    // every 2nd record carries a retention deadline
  size_t data_bytes = 100;
  // A fixed 30-day TTL: long enough that no record expires during a run,
  // so a read never misses because of the clock.
  static constexpr int64_t kTtlMicros = 30ll * 86400 * 1000000;

  std::string Key(size_t i) const { return gdpr::StringPrintf("rec-%010zu", i); }
  std::string User(size_t u) const { return gdpr::StringPrintf("user-%06zu", u); }
  std::string Purpose(size_t p) const {
    return gdpr::StringPrintf("pur-%03zu", p);
  }
  std::string Partner(size_t t) const {
    return gdpr::StringPrintf("partner-%02zu", t);
  }

  size_t UserIndexOf(size_t i) const { return i % users; }
  std::string UserOf(size_t i) const { return User(UserIndexOf(i)); }
  std::string PurposeOf(size_t i) const { return Purpose(i % purposes); }
  bool Shared(size_t i) const { return i % share_every == 0; }
  // Shared records cycle through every partner (i / share_every), so all
  // partners hold records, not only those congruent to share_every.
  std::string PartnerOf(size_t i) const {
    return Partner((i / share_every) % partners);
  }

  // The personal datum: 100 printable bytes seeded by the ordinal alone.
  std::string Data(size_t i) const {
    gdpr::Random rng(0xda7a5e7 + uint64_t(i));
    return rng.NextAsciiField(data_bytes);
  }

  gdpr::GdprRecord Make(size_t i, int64_t now_micros) const {
    gdpr::GdprRecord rec;
    rec.key = Key(i);
    rec.data = Data(i);
    rec.metadata.user = UserOf(i);
    rec.metadata.purposes = {PurposeOf(i)};
    rec.metadata.origin = (i % 2) ? "first-party" : "third-party";
    if (Shared(i)) rec.metadata.shared_with = {PartnerOf(i)};
    rec.metadata.created_micros = now_micros;
    if (i % ttl_every == 0) rec.metadata.expiry_micros = now_micros + kTtlMicros;
    return rec;
  }

  // Every ordinal user u owns, ascending.
  std::vector<size_t> OrdinalsOfUser(size_t u) const {
    std::vector<size_t> out;
    for (size_t i = u; i < records; i += users) out.push_back(i);
    return out;
  }

  // Records whose single purpose is Purpose(p).
  size_t PurposeCount(size_t p) const {
    return records / purposes + (p < records % purposes ? 1 : 0);
  }

  // Records shared with Partner(t) as loaded (before any update rotates
  // sharing): the k-th shared record (k = i / share_every) goes to
  // partner k % partners.
  size_t PartnerCount(size_t t) const {
    const size_t shared = (records + share_every - 1) / share_every;
    return shared / partners + (t < shared % partners ? 1 : 0);
  }
};

}  // namespace perfbench

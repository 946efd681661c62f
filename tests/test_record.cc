#include <gtest/gtest.h>

#include "gdpr/record.h"

namespace gdpr {
namespace {

GdprRecord FullRecord() {
  GdprRecord rec;
  rec.key = "ph-1x4b";
  rec.data = "123-456-7890";
  rec.metadata.user = "neo";
  rec.metadata.purposes = {"ads", "2fa"};
  rec.metadata.objections = {"ads"};
  rec.metadata.origin = "first-party";
  rec.metadata.shared_with = {"partner-1", "partner-2"};
  rec.metadata.expiry_micros = 1234567890123ll;
  rec.metadata.created_micros = 987654321ll;
  return rec;
}

TEST(GdprRecord, RoundTrip) {
  const GdprRecord rec = FullRecord();
  auto parsed = GdprRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok());
  const GdprRecord& p = parsed.value();
  EXPECT_EQ(p.key, rec.key);
  EXPECT_EQ(p.data, rec.data);
  EXPECT_EQ(p.metadata.user, rec.metadata.user);
  EXPECT_EQ(p.metadata.purposes, rec.metadata.purposes);
  EXPECT_EQ(p.metadata.objections, rec.metadata.objections);
  EXPECT_EQ(p.metadata.origin, rec.metadata.origin);
  EXPECT_EQ(p.metadata.shared_with, rec.metadata.shared_with);
  EXPECT_EQ(p.metadata.expiry_micros, rec.metadata.expiry_micros);
  EXPECT_EQ(p.metadata.created_micros, rec.metadata.created_micros);
}

TEST(GdprRecord, RoundTripEmptyFields) {
  GdprRecord rec;
  rec.key = "k";
  auto parsed = GdprRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().key, "k");
  EXPECT_TRUE(parsed.value().data.empty());
  EXPECT_TRUE(parsed.value().metadata.purposes.empty());
  EXPECT_EQ(parsed.value().metadata.expiry_micros, 0);
}

TEST(GdprRecord, RoundTripBinaryData) {
  GdprRecord rec;
  rec.key = std::string("k\0ey", 4);
  rec.data = std::string("\x00\xff\x01\x80", 4);
  auto parsed = GdprRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().key, rec.key);
  EXPECT_EQ(parsed.value().data, rec.data);
}

TEST(GdprRecord, RejectsGarbage) {
  EXPECT_FALSE(GdprRecord::Parse("").ok());
  EXPECT_FALSE(GdprRecord::Parse("not a record").ok());
  const std::string wire = FullRecord().Serialize();
  // Truncations at every prefix length must error, never crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(GdprRecord::Parse(wire.substr(0, len)).ok()) << len;
  }
}

void ExpectSameRecord(const GdprRecord& got, const GdprRecord& want) {
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.data, want.data);
  EXPECT_EQ(got.metadata.user, want.metadata.user);
  EXPECT_EQ(got.metadata.purposes, want.metadata.purposes);
  EXPECT_EQ(got.metadata.objections, want.metadata.objections);
  EXPECT_EQ(got.metadata.origin, want.metadata.origin);
  EXPECT_EQ(got.metadata.shared_with, want.metadata.shared_with);
  EXPECT_EQ(got.metadata.expiry_micros, want.metadata.expiry_micros);
  EXPECT_EQ(got.metadata.created_micros, want.metadata.created_micros);
}

// ParseInto over a slot that already holds a record (data, two purposes, a
// partner) leaves exactly what Parse builds: nothing of the old record
// survives, and a masked decode leaves data empty.
TEST(GdprRecord, ParseIntoOverwritesAHeldRecordLikeParse) {
  GdprRecord next;
  next.key = "em-9";
  next.data = "x";
  next.metadata.user = "trinity";
  next.metadata.purposes = {"fraud"};
  next.metadata.created_micros = 5;
  const std::string wire = next.Serialize();
  for (const bool with_data : {true, false}) {
    SCOPED_TRACE(with_data ? "with data" : "masked");
    GdprRecord slot = FullRecord();
    ASSERT_TRUE(GdprRecord::ParseInto(wire, with_data, &slot).ok());
    auto parsed = GdprRecord::Parse(wire, with_data);
    ASSERT_TRUE(parsed.ok());
    ExpectSameRecord(slot, parsed.value());
    EXPECT_EQ(slot.data, with_data ? "x" : "");
  }
}

TEST(GdprRecord, ParseIntoRejectsTruncationAsDataLoss) {
  const std::string wire = FullRecord().Serialize();
  for (size_t len = 0; len < wire.size(); ++len) {
    GdprRecord slot;
    EXPECT_TRUE(
        GdprRecord::ParseInto(wire.substr(0, len), true, &slot).IsDataLoss())
        << len;
  }
}

TEST(GdprRecord, SerializeToAppendsSerialize) {
  const GdprRecord rec = FullRecord();
  std::string buf = "held";
  rec.SerializeTo(&buf);
  EXPECT_EQ(buf, "held" + rec.Serialize());
}

TEST(GdprRecord, MetadataHelpers) {
  const GdprRecord rec = FullRecord();
  EXPECT_TRUE(rec.metadata.HasPurpose("ads"));
  EXPECT_FALSE(rec.metadata.HasPurpose("fraud"));
  EXPECT_TRUE(rec.metadata.HasObjection("ads"));
  EXPECT_FALSE(rec.metadata.HasObjection("2fa"));
  EXPECT_TRUE(rec.metadata.SharedWith("partner-2"));
  EXPECT_FALSE(rec.metadata.SharedWith("partner-9"));
}

}  // namespace
}  // namespace gdpr

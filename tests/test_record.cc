#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/random.h"
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

// ---- RecordView against the reference decoder ------------------------------

// The record decoder as it stood before RecordView: the layout written out
// field by field. RecordView::Read must accept exactly what it accepts and
// agree with it on every field.
Status ReferenceParse(std::string_view wire, GdprRecord* rec) {
  if (wire.size() < 2 || wire[0] != '\x47') {
    return Status::DataLoss("bad record magic");
  }
  if (wire[1] != 1) return Status::DataLoss("bad record version");
  wire.remove_prefix(2);
  std::string_view key, data, user, origin;
  if (!GetLengthPrefixed(&wire, &key) || !GetLengthPrefixed(&wire, &data) ||
      !GetLengthPrefixed(&wire, &user) || !GetLengthPrefixed(&wire, &origin)) {
    return Status::DataLoss("truncated record header");
  }
  rec->key.assign(key);
  rec->data.assign(data);
  GdprMetadata& m = rec->metadata;
  m.user.assign(user);
  m.origin.assign(origin);
  if (!GetStringList(&wire, &m.purposes) ||
      !GetStringList(&wire, &m.objections) ||
      !GetStringList(&wire, &m.shared_with)) {
    return Status::DataLoss("truncated record lists");
  }
  uint64_t expiry = 0, created = 0;
  if (!GetFixed64(&wire, &expiry) || !GetFixed64(&wire, &created)) {
    return Status::DataLoss("truncated record timestamps");
  }
  m.expiry_micros = int64_t(expiry);
  m.created_micros = int64_t(created);
  return Status::OK();
}

// The records the view cases run over: empty data and empty lists with zero
// timestamps, data long enough for a two-byte length varint, and lists of
// one and several elements.
std::vector<GdprRecord> CodecRecords() {
  std::vector<GdprRecord> recs;
  GdprRecord bare;
  bare.key = "k";
  recs.push_back(bare);
  recs.push_back(FullRecord());
  GdprRecord wide = FullRecord();
  wide.data = std::string(300, 'd');
  wide.metadata.purposes = {"a", "bb", "ccc", "dddd"};
  wide.metadata.objections = {};
  wide.metadata.shared_with = {"only"};
  wide.metadata.expiry_micros = 0;
  wide.metadata.created_micros = 0;
  recs.push_back(wide);
  GdprRecord at_edge = FullRecord();
  at_edge.data = std::string(128, 'e');
  at_edge.metadata.user.clear();
  recs.push_back(at_edge);
  return recs;
}

// A view that read wire agrees with the reference record on every field,
// and its membership tests find exactly the reference lists' elements.
void ExpectViewMatches(const RecordView& v, const GdprRecord& ref) {
  EXPECT_EQ(v.key(), ref.key);
  EXPECT_EQ(v.data(), ref.data);
  EXPECT_EQ(v.user(), ref.metadata.user);
  EXPECT_EQ(v.origin(), ref.metadata.origin);
  EXPECT_EQ(v.expiry_micros(), ref.metadata.expiry_micros);
  EXPECT_EQ(v.created_micros(), ref.metadata.created_micros);
  for (const auto& p : ref.metadata.purposes) EXPECT_TRUE(v.HasPurpose(p));
  for (const auto& o : ref.metadata.objections) EXPECT_TRUE(v.HasObjection(o));
  for (const auto& t : ref.metadata.shared_with) EXPECT_TRUE(v.SharedWith(t));
  EXPECT_EQ(v.HasPurpose("absent"), ref.metadata.HasPurpose("absent"));
  EXPECT_EQ(v.HasObjection("absent"), ref.metadata.HasObjection("absent"));
  EXPECT_EQ(v.SharedWith("absent"), ref.metadata.SharedWith("absent"));
  GdprRecord copy = FullRecord();  // every field held, so CopyTo must overwrite
  v.CopyTo(&copy);
  ExpectSameRecord(copy, ref);
}

// Read on wire, with and without a copy, succeeds exactly when the
// reference does, with the same code, and then agrees with it.
void ExpectReadLikeReference(std::string_view wire) {
  GdprRecord ref;
  const Status want = ReferenceParse(wire, &ref);
  RecordView v;
  const Status got = v.Read(wire);
  ASSERT_EQ(got.ok(), want.ok()) << got.ToString() << " vs " << want.ToString();
  GdprRecord copy = FullRecord();  // every field held, so Read must overwrite
  RecordView copied;
  const Status got_copy = copied.Read(wire, &copy);
  ASSERT_EQ(got_copy.ok(), want.ok()) << got_copy.ToString();
  if (!want.ok()) {
    EXPECT_TRUE(got.IsDataLoss());
    EXPECT_EQ(got.message(), want.message());
    EXPECT_EQ(got_copy.message(), want.message());
    return;
  }
  ExpectViewMatches(v, ref);
  ExpectViewMatches(copied, ref);
  ExpectSameRecord(copy, ref);
}

TEST(RecordView, ReadsEveryFieldInPlace) {
  for (const GdprRecord& rec : CodecRecords()) {
    SCOPED_TRACE(rec.key + "/" + std::to_string(rec.data.size()));
    const std::string wire = rec.Serialize();
    RecordView v;
    ASSERT_TRUE(v.Read(wire).ok());
    ExpectViewMatches(v, rec);
    // The fields are views into wire, not copies.
    EXPECT_GE(v.key().data(), wire.data());
    EXPECT_LE(v.key().data() + v.key().size(), wire.data() + wire.size());
    EXPECT_EQ(v.ImageSize(), wire.size());
    std::string image = "held";
    v.AppendImage(&image);
    EXPECT_EQ(image, "held" + wire);
  }
}

TEST(RecordView, EveryTruncationFailsWhereTheReferenceFails) {
  for (const GdprRecord& rec : CodecRecords()) {
    const std::string wire = rec.Serialize();
    for (size_t len = 0; len <= wire.size(); ++len) {
      SCOPED_TRACE(rec.key + " cut at " + std::to_string(len));
      ExpectReadLikeReference(std::string_view(wire).substr(0, len));
    }
  }
}

TEST(RecordView, ByteFlipsReadLikeTheReference) {
  Random rng(20240607);
  for (const GdprRecord& rec : CodecRecords()) {
    const std::string wire = rec.Serialize();
    for (int trial = 0; trial < 400; ++trial) {
      std::string flipped = wire;
      const size_t at = rng.Uniform(flipped.size());
      flipped[at] = char(uint8_t(flipped[at]) ^ uint8_t(1 + rng.Uniform(255)));
      SCOPED_TRACE(rec.key + " flipped at " + std::to_string(at));
      ExpectReadLikeReference(flipped);
    }
  }
}

TEST(RecordView, BytesAfterTheImageAreNotPartOfIt) {
  const std::string wire = FullRecord().Serialize();
  const std::string held = wire + "trailing";
  RecordView v;
  ASSERT_TRUE(v.Read(held).ok());
  EXPECT_EQ(v.ImageSize(), wire.size());
  std::string image;
  v.AppendImage(&image);
  EXPECT_EQ(image, wire);
}

TEST(RecordView, AMaskedImageIsTheSerializedMaskedRecord) {
  for (const GdprRecord& rec : CodecRecords()) {
    SCOPED_TRACE(rec.key + "/" + std::to_string(rec.data.size()));
    const std::string wire = rec.Serialize();
    RecordView v;
    ASSERT_TRUE(v.Read(wire).ok());
    v.Mask();
    EXPECT_TRUE(v.data().empty());
    GdprRecord masked;
    ASSERT_TRUE(GdprRecord::ParseInto(wire, /*with_data=*/false, &masked).ok());
    const std::string want = masked.Serialize();
    std::string image = "held";
    v.AppendImage(&image);
    EXPECT_EQ(image, "held" + want);
    EXPECT_EQ(v.ImageSize(), want.size());
    GdprRecord copy = FullRecord();
    v.CopyTo(&copy);
    ExpectSameRecord(copy, masked);
  }
}

}  // namespace
}  // namespace gdpr

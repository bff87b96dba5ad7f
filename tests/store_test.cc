// Unit layer of the snapshot store (store/binstream.h, store/crc32.h and
// the container half of store/snapshot.h):
//
//  * the wire primitives round-trip and their EXACT bytes are pinned --
//    little-endian fixed-width integers, LEB128 varints, zigzag signed
//    values, IEEE-754 doubles -- so the format is host-endianness
//    independent by construction, not by luck;
//  * every malformed input (truncation, overlong varints, out-of-range
//    bool bytes or bounded values, trailing bytes) fails with
//    Status::DataLoss, and the reader keeps that first failure;
//  * CRC32 matches the IEEE reference vector and chains like zlib;
//  * the section-table arithmetic survives >4 GiB offsets (u64
//    round-trip on synthetic entries -- no file that size is built);
//  * SnapshotFileBuilder/SnapshotFile round-trip whole containers,
//    carry unknown sections, and reject unknown format versions plus
//    every truncation point and every single-byte corruption.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/binstream.h"
#include "store/crc32.h"
#include "store/snapshot.h"

namespace uclean {
namespace store {
namespace {

// ---------------------------------------------------------------- binstream

/// The status a fresh reader over `bytes` holds after `read` runs on it.
template <typename Fn>
Status ReadStatus(std::string_view bytes, Fn read) {
  BinReader r(bytes);
  read(r);
  return r.status();
}

TEST(BinStreamTest, VarintRoundTripEdgeValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             (1ull << 63) - 1,
                             1ull << 63,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    BinWriter w;
    w.Varint(v);
    BinReader r(w.bytes());
    uint64_t got = 0;
    r.Varint(got);
    ASSERT_TRUE(r.ok()) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(r.ExpectEnd("varint").ok());
  }
}

TEST(BinStreamTest, VarintWireLengths) {
  const struct {
    uint64_t value;
    size_t bytes;
  } cases[] = {{0, 1},           {127, 1},
               {128, 2},         {16383, 2},
               {16384, 3},       {(1ull << 63) - 1, 9},
               {1ull << 63, 10}, {std::numeric_limits<uint64_t>::max(), 10}};
  for (const auto& c : cases) {
    BinWriter w;
    w.Varint(c.value);
    EXPECT_EQ(w.size(), c.bytes) << c.value;
  }
}

TEST(BinStreamTest, VarintRejectsOverflowAndTruncation) {
  uint64_t out = 0;
  const auto varint = [&](BinReader& r) { r.Varint(out); };
  // 10 continuation bytes: longer than any u64 varint.
  std::string eleven(10, '\x80');
  eleven.push_back('\x01');
  EXPECT_EQ(ReadStatus(eleven, varint).code(), StatusCode::kDataLoss);

  // The 10th byte may only carry the top single bit.
  std::string overflow(9, '\x80');
  overflow.push_back('\x02');
  EXPECT_EQ(ReadStatus(overflow, varint).code(), StatusCode::kDataLoss);

  // Continuation bit set but the stream ends.
  EXPECT_EQ(ReadStatus(std::string("\x80", 1), varint).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(ReadStatus(std::string_view(), varint).code(),
            StatusCode::kDataLoss);
}

TEST(BinStreamTest, ZigzagRoundTripAndShortSmallMagnitudes) {
  const int64_t values[] = {0,
                            -1,
                            1,
                            -64,
                            63,
                            -65,
                            64,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    BinWriter w;
    w.Zigzag(v);
    BinReader r(w.bytes());
    int64_t got = 0;
    r.Zigzag(got);
    ASSERT_TRUE(r.ok()) << v;
    EXPECT_EQ(got, v);
  }
  // Small magnitudes of either sign stay one byte -- the point of zigzag.
  for (int64_t v : {-64, -1, 0, 1, 63}) {
    BinWriter w;
    w.Zigzag(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
}

TEST(BinStreamTest, FixedWidthBytesAreLittleEndian) {
  // The encoded bytes are pinned, so a host producing different bytes (a
  // big-endian port taking a shortcut) fails here -- the
  // endianness-independence contract.
  BinWriter w;
  w.U32(0x01020304u);
  w.U64(0x0102030405060708ull);
  const std::string& b = w.bytes();
  ASSERT_EQ(b.size(), 12u);
  const unsigned char expect[12] = {0x04, 0x03, 0x02, 0x01, 0x08, 0x07,
                                    0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(b[i]), expect[i]) << i;
  }
  BinReader r(b);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  r.U32(u32);
  r.U64(u64);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x0102030405060708ull);
}

TEST(BinStreamTest, DoubleIsIeeeBitPattern) {
  BinWriter w;
  w.F64(1.0);
  const std::string& b = w.bytes();
  ASSERT_EQ(b.size(), 8u);
  // 1.0 = 0x3FF0000000000000, little-endian on the wire.
  const unsigned char expect[8] = {0, 0, 0, 0, 0, 0, 0xF0, 0x3F};
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(b[i]), expect[i]) << i;
  }
  double got = 0.0;
  BinReader r(b);
  r.F64(got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(got, 1.0);
}

TEST(BinStreamTest, BoolRejectsOutOfRangeByte) {
  bool out = false;
  const auto read_bool = [&](BinReader& r) { r.Bool(out); };
  EXPECT_EQ(ReadStatus(std::string("\x02", 1), read_bool).code(),
            StatusCode::kDataLoss);
  BinWriter w;
  w.Bool(true);
  w.Bool(false);
  BinReader r(w.bytes());
  r.Bool(out);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(out);
  r.Bool(out);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(out);
}

TEST(BinStreamTest, StringRoundTripAndTruncation) {
  BinWriter w;
  w.String("");
  w.String(std::string("a\0b", 3));  // embedded NUL survives
  BinReader r(w.bytes());
  std::string got;
  r.String(got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(got, "");
  r.String(got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(got, std::string("a\0b", 3));
  EXPECT_TRUE(r.ExpectEnd("strings").ok());

  // Length says 5, body holds 2.
  BinWriter bad;
  bad.Varint(5);
  bad.U8('x');
  bad.U8('y');
  const auto read_string = [&](BinReader& r) { r.String(got); };
  EXPECT_EQ(ReadStatus(bad.bytes(), read_string).code(), StatusCode::kDataLoss);
}

TEST(BinStreamTest, F64ArrayRoundTripAndCountGuard) {
  std::vector<double> values = {0.0, -1.5, 3.25e300, -0.0, 1e-300};
  BinWriter w;
  w.F64Array(values);
  w.F64Array({});
  BinReader r(w.bytes());
  std::vector<double> got;
  r.F64Array(got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(got, values);
  r.F64Array(got);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(r.ExpectEnd("double arrays").ok());

  // A count larger than the remaining bytes could hold must fail before
  // any attacker-sized resize.
  BinWriter bad;
  bad.Varint(std::numeric_limits<uint64_t>::max() / 8);
  const auto read_array = [&](BinReader& r) { r.F64Array(got); };
  EXPECT_EQ(ReadStatus(bad.bytes(), read_array).code(), StatusCode::kDataLoss);
}

TEST(BinStreamTest, VarintArrayRoundTrip) {
  std::vector<size_t> values = {0, 1, 127, 128, 1u << 20};
  BinWriter w;
  w.VarintArray(values);
  BinReader r(w.bytes());
  std::vector<size_t> got;
  r.VarintArray(got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(got, values);
}

TEST(BinStreamTest, ExpectEndReportsTrailingBytes) {
  BinWriter w;
  w.U8(1);
  w.U8(2);
  BinReader r(w.bytes());
  uint8_t v = 0;
  r.U8(v);
  ASSERT_TRUE(r.ok());
  Status tail = r.ExpectEnd("payload");
  EXPECT_EQ(tail.code(), StatusCode::kDataLoss);
  EXPECT_NE(tail.message().find("payload"), std::string::npos);
}

TEST(BinStreamTest, FirstFailureIsSticky) {
  BinWriter w;
  w.Varint(7);
  w.Varint(300);
  w.Varint(9);
  BinReader r(w.bytes());
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  r.Varint(a, 10);
  r.Varint(b, 10);  // out of range: the first failure
  const Status first = r.status();
  EXPECT_EQ(first.code(), StatusCode::kDataLoss);
  // Later calls read and assign nothing, and the first failure stays.
  const size_t stopped_at = r.offset();
  r.Varint(c);
  r.Check(false, "a later check");
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(r.offset(), stopped_at);
  EXPECT_EQ(r.status(), first);
  EXPECT_EQ(r.ExpectEnd("payload"), first);
}

TEST(BinStreamTest, BoundsDefaultToTheDestinationRange) {
  // A value past the destination type's range fails instead of wrapping.
  BinWriter w;
  w.Zigzag(int64_t{1} << 31);
  w.Zigzag(-(int64_t{1} << 31) - 1);
  w.Varint(uint64_t{1} << 31);
  w.U8(3);
  int32_t narrow = 0;
  const auto read_narrow = [&](BinReader& r) { r.Zigzag(narrow); };
  EXPECT_EQ(ReadStatus(w.bytes(), read_narrow).code(), StatusCode::kDataLoss);
  BinReader r(w.bytes());
  int64_t wide = 0;
  r.Zigzag(wide);
  r.Zigzag(narrow);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(narrow, 0);
  BinReader unsigned_narrow(std::string_view(w.bytes()).substr(10));
  unsigned_narrow.Varint(narrow);
  EXPECT_EQ(unsigned_narrow.status().code(), StatusCode::kDataLoss);

  // Explicit bounds: a max, a [min, max] range, an element count.
  BinReader bounded(std::string_view(w.bytes()).substr(15));
  uint8_t state = 0;
  bounded.U8(state, 0, 2);
  EXPECT_EQ(bounded.status().code(), StatusCode::kDataLoss);
  // An empty signed range, as an id bound over zero x-tuples gives.
  BinWriter zero;
  zero.Zigzag(0);
  BinReader empty_range(zero.bytes());
  empty_range.Zigzag(narrow, 0, -1);
  EXPECT_EQ(empty_range.status().code(), StatusCode::kDataLoss);
  BinWriter counts;
  counts.Varint(3);
  counts.Varint(0);
  std::vector<int> three;
  BinReader exact(counts.bytes());
  exact.Size(three, 2, 2);
  EXPECT_EQ(exact.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(three.empty());
  // A count past the bytes left fails before any resize.
  BinReader short_list(counts.bytes());
  short_list.Size(three);
  EXPECT_EQ(short_list.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(three.empty());
}

// ---------------------------------------------------------------- crc32

TEST(Crc32Test, IeeeReferenceVector) {
  const char check[] = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, UpdateChainsLikeOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split : {size_t(0), size_t(1), size_t(7), data.size()}) {
    uint32_t crc = Crc32Update(0, data.data(), split);
    crc = Crc32Update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << split;
  }
}

// ------------------------------------------------------------- section table

TEST(SectionTableTest, EntryRoundTripsPast4GiB) {
  // No multi-GiB file is built; the synthetic entry proves the table
  // arithmetic is u64 end to end (a u32 offset would wrap here).
  SectionEntry entry;
  entry.id = kSectionEngine;
  entry.version = 3;
  entry.offset = (5ull << 30) + 17;  // > 4 GiB
  entry.size = (6ull << 30) + 4095;  // > 4 GiB
  entry.crc = 0xDEADBEEFu;
  BinWriter w;
  Transfer(w, entry);
  EXPECT_EQ(w.size(), kSectionEntrySize);
  BinReader r(w.bytes());
  SectionEntry got;
  Transfer(r, got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(got.id, entry.id);
  EXPECT_EQ(got.version, entry.version);
  EXPECT_EQ(got.offset, entry.offset);
  EXPECT_EQ(got.size, entry.size);
  EXPECT_EQ(got.crc, entry.crc);
  EXPECT_TRUE(r.ExpectEnd("entry").ok());
}

TEST(SectionTableTest, ParseEntryRejectsTruncation) {
  const SectionEntry entry;
  BinWriter w;
  Transfer(w, entry);
  std::string bytes = w.bytes();
  bytes.resize(bytes.size() - 1);
  BinReader r(bytes);
  SectionEntry got;
  Transfer(r, got);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(SectionTableTest, SectionNames) {
  EXPECT_STREQ(SectionName(kSectionMeta), "meta");
  EXPECT_STREQ(SectionName(kSectionDatabase), "database");
  EXPECT_STREQ(SectionName(kSectionEngine), "engine");
  EXPECT_STREQ(SectionName(kSectionSessions), "sessions");
  EXPECT_STREQ(SectionName(kSectionCampaign), "campaign");
  EXPECT_STREQ(SectionName(999), "unknown");
}

// ---------------------------------------------------------------- container

std::string BuildTwoSectionFile() {
  SnapshotFileBuilder builder;
  builder.AddSection(kSectionMeta, 1, "meta-payload");
  builder.AddSection(kSectionDatabase, 1, std::string("db\0payload", 10));
  return builder.Finish();
}

TEST(SnapshotFileTest, BuildParseRoundTrip) {
  const std::string bytes = BuildTwoSectionFile();
  Result<SnapshotFile> file = SnapshotFile::Parse(bytes);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ(file->format_version(), kSnapshotFormatVersion);
  EXPECT_EQ(file->feature_flags(), 0u);
  EXPECT_EQ(file->file_size(), bytes.size());
  ASSERT_EQ(file->sections().size(), 2u);
  const SectionEntry* meta = file->Find(kSectionMeta);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(file->payload(*meta), "meta-payload");
  const SectionEntry* db = file->Find(kSectionDatabase);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(file->payload(*db), std::string_view("db\0payload", 10));
  // Payloads are packed back to back from the header.
  EXPECT_EQ(meta->offset, kSnapshotHeaderSize);
  EXPECT_EQ(db->offset, meta->offset + meta->size);
  EXPECT_EQ(file->Find(kSectionCampaign), nullptr);
}

TEST(SnapshotFileTest, EmptySectionsRoundTrip) {
  SnapshotFileBuilder builder;
  builder.AddSection(kSectionMeta, 1, "");
  builder.AddSection(kSectionEngine, 1, "");
  Result<SnapshotFile> file = SnapshotFile::Parse(builder.Finish());
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_EQ(file->sections().size(), 2u);
  for (const SectionEntry& entry : file->sections()) {
    EXPECT_EQ(entry.size, 0u);
    EXPECT_EQ(file->payload(entry), "");
  }
}

TEST(SnapshotFileTest, UnknownSectionIdIsCarried) {
  SnapshotFileBuilder builder;
  builder.AddSection(kSectionMeta, 1, "m");
  builder.AddSection(999, 7, "future bytes");
  Result<SnapshotFile> file = SnapshotFile::Parse(builder.Finish());
  ASSERT_TRUE(file.ok()) << file.status().message();
  const SectionEntry* unknown = file->Find(999);
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->version, 7u);
  EXPECT_EQ(file->payload(*unknown), "future bytes");
}

TEST(SnapshotFileTest, RejectsUnknownFormatVersion) {
  SnapshotFileBuilder builder;
  builder.set_format_version(kSnapshotFormatVersion + 1);
  builder.AddSection(kSectionMeta, 1, "m");
  Result<SnapshotFile> file = SnapshotFile::Parse(builder.Finish());
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotFileTest, RejectsBadMagic) {
  std::string bytes = BuildTwoSectionFile();
  bytes[0] = 'X';
  EXPECT_EQ(SnapshotFile::Parse(bytes).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotFileTest, RejectsEveryTruncationPoint) {
  const std::string bytes = BuildTwoSectionFile();
  // Every prefix of the file is a truncation the parser must reject; the
  // full sweep covers every section boundary by construction.
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<SnapshotFile> file = SnapshotFile::Parse(bytes.substr(0, len));
    EXPECT_EQ(file.status().code(), StatusCode::kDataLoss) << len;
  }
  EXPECT_TRUE(SnapshotFile::Parse(bytes).ok());
}

TEST(SnapshotFileTest, RejectsTrailingGarbage) {
  std::string bytes = BuildTwoSectionFile();
  bytes.push_back('\0');
  EXPECT_EQ(SnapshotFile::Parse(bytes).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotFileTest, RejectsEverySingleByteCorruption) {
  const std::string good = BuildTwoSectionFile();
  // Flip one bit in every byte: header, payloads, table and CRCs. Each
  // variant must fail -- there is no byte the checksums do not cover.
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    Result<SnapshotFile> file = SnapshotFile::Parse(bad);
    EXPECT_EQ(file.status().code(), StatusCode::kDataLoss) << "byte " << i;
  }
}

}  // namespace
}  // namespace store
}  // namespace uclean

// Unit tests for the WAL: record codec, append/flush semantics, group
// commit, torn-tail detection and reader iteration.
#include <gtest/gtest.h>

#include <vector>

#include "device/mem_device.h"
#include "wal/wal.h"

namespace sias {
namespace {

WalRecord MakeInsert(Xid xid, RelationId rel, Tid tid, const std::string& body,
                     uint64_t aux = 0) {
  WalRecord r;
  r.type = WalRecordType::kHeapInsert;
  r.xid = xid;
  r.relation = rel;
  r.tid = tid;
  r.aux = aux;
  r.body = body;
  return r;
}

class WalTest : public ::testing::Test {
 protected:
  WalTest() : device_(64ull << 20), writer_(&device_, 0, 64ull << 20) {}
  MemDevice device_;
  WalWriter writer_;
  VirtualClock clk_;
};

std::string Hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// The on-log record format is durable: these bytes must never change, or
// logs written by earlier builds stop replaying.
TEST(WalCodecTest, EncodedBytesAreGolden) {
  std::string out = "prefix";
  EncodeWalRecord(MakeInsert(0x0102030405060708ull, 7, Tid{0x0a0b0c0d, 0x0e0f},
                             "siasdb", 0x1122334455667788ull),
                  &out);
  EXPECT_EQ(Hex(out),
            "707265666978"                      // untouched prefix
            "29000000" "bc95134c"               // total length, masked CRC
            "03" "0807060504030201" "07000000"  // type, xid, relation
            "0d0c0b0a" "0f0e" "8877665544332211"  // page, slot, aux
            "736961736462");                    // body
  WalRecord commit;
  commit.type = WalRecordType::kTxnCommit;
  commit.xid = 42;
  std::string c;
  EncodeWalRecord(commit, &c);
  EXPECT_EQ(Hex(c),
            "23000000" "6535ba8f" "01" "2a00000000000000" "00000000"
            "ffffffff" "0000" "0000000000000000");
}

TEST_F(WalTest, AppendFlushReadRoundTrip) {
  auto lsn1 = writer_.Append(MakeInsert(10, 1, Tid{5, 2}, "tuple-a", 42));
  auto lsn2 = writer_.Append(MakeInsert(11, 2, Tid{6, 3}, "tuple-bb", 43));
  ASSERT_TRUE(lsn1.ok());
  ASSERT_TRUE(lsn2.ok());
  EXPECT_GT(*lsn2, *lsn1);
  ASSERT_TRUE(writer_.FlushTo(*lsn2, &clk_).ok());
  EXPECT_EQ(writer_.flushed_lsn(), *lsn2);

  WalReader reader(&device_, 0, 64ull << 20);
  auto r1 = reader.Next();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1->has_value());
  EXPECT_EQ((*r1)->xid, 10u);
  EXPECT_EQ((*r1)->relation, 1u);
  EXPECT_EQ((*r1)->tid, (Tid{5, 2}));
  EXPECT_EQ((*r1)->aux, 42u);
  EXPECT_EQ((*r1)->body, "tuple-a");
  auto r2 = reader.Next();
  ASSERT_TRUE(r2.ok() && r2->has_value());
  EXPECT_EQ((*r2)->body, "tuple-bb");
  auto r3 = reader.Next();
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(r3->has_value());  // end of log
  EXPECT_EQ(reader.lsn(), *lsn2);
}

TEST_F(WalTest, UnflushedRecordsInvisibleToReader) {
  auto lsn1 = writer_.Append(MakeInsert(1, 1, Tid{0, 0}, "flushed"));
  ASSERT_TRUE(writer_.FlushTo(*lsn1, &clk_).ok());
  ASSERT_TRUE(writer_.Append(MakeInsert(2, 1, Tid{0, 1}, "buffered")).ok());

  WalReader reader(&device_, 0, 64ull << 20);
  auto r1 = reader.Next();
  ASSERT_TRUE(r1.ok() && r1->has_value());
  EXPECT_EQ((*r1)->body, "flushed");
  auto r2 = reader.Next();
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->has_value());
}

TEST_F(WalTest, GroupCommitFlushesEverythingBelow) {
  std::vector<Lsn> lsns;
  for (int i = 0; i < 10; ++i) {
    auto l = writer_.Append(MakeInsert(i + 2, 1, Tid{0, 0}, "r"));
    ASSERT_TRUE(l.ok());
    lsns.push_back(*l);
  }
  // One flush to the last LSN covers all ten records.
  ASSERT_TRUE(writer_.FlushTo(lsns.back(), &clk_).ok());
  WalReader reader(&device_, 0, 64ull << 20);
  int count = 0;
  for (;;) {
    auto r = reader.Next();
    ASSERT_TRUE(r.ok());
    if (!r->has_value()) break;
    count++;
  }
  EXPECT_EQ(count, 10);
}

TEST_F(WalTest, FlushToIsMonotoneAndIdempotent) {
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "x"));
  ASSERT_TRUE(writer_.FlushTo(*l1, &clk_).ok());
  uint64_t w = writer_.written_bytes();
  ASSERT_TRUE(writer_.FlushTo(*l1, &clk_).ok());  // no-op
  ASSERT_TRUE(writer_.FlushTo(5, &clk_).ok());    // below: no-op
  EXPECT_EQ(writer_.written_bytes(), w);
}

TEST_F(WalTest, LargeBodiesSpanBlocks) {
  std::string big(3 * kPageSize, 'z');
  auto l = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, big));
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(writer_.FlushTo(*l, &clk_).ok());
  WalReader reader(&device_, 0, 64ull << 20);
  auto r = reader.Next();
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->body, big);
}

TEST_F(WalTest, TornTailStopsReader) {
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "good"));
  auto l2 = writer_.Append(MakeInsert(3, 1, Tid{0, 1}, "will-be-torn"));
  ASSERT_TRUE(writer_.FlushTo(*l2, &clk_).ok());
  // Corrupt a byte inside the second record on the device.
  uint64_t torn_offset = *l1 + 12;
  std::vector<uint8_t> blk(kPageSize);
  ASSERT_TRUE(device_.Read(0, kPageSize, blk.data(), nullptr).ok());
  blk[static_cast<size_t>(torn_offset)] ^= 0xff;
  ASSERT_TRUE(device_.Write(0, kPageSize, blk.data(), nullptr).ok());

  WalReader reader(&device_, 0, 64ull << 20);
  auto r1 = reader.Next();
  ASSERT_TRUE(r1.ok() && r1->has_value());
  EXPECT_EQ((*r1)->body, "good");
  auto r2 = reader.Next();
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->has_value());  // CRC mismatch ends the log
  EXPECT_EQ(reader.lsn(), *l1);
}

TEST_F(WalTest, MidLogCorruptionIsLoud) {
  // Damage *before* the last synced record must not read as a torn tail:
  // silently truncating there would lose durable commits. Regression test
  // for the reader classifying every CRC failure as end-of-log.
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "first"));
  auto l2 = writer_.Append(MakeInsert(3, 1, Tid{0, 1}, "second"));
  auto l3 = writer_.Append(MakeInsert(4, 1, Tid{0, 2}, "third"));
  ASSERT_TRUE(writer_.FlushTo(*l3, &clk_).ok());
  // Corrupt a byte inside the FIRST record; two intact records follow.
  std::vector<uint8_t> blk(kPageSize);
  ASSERT_TRUE(device_.Read(0, kPageSize, blk.data(), nullptr).ok());
  blk[12] ^= 0xff;
  ASSERT_TRUE(device_.Write(0, kPageSize, blk.data(), nullptr).ok());
  (void)l1;
  (void)l2;

  WalReader reader(&device_, 0, 64ull << 20);
  auto r = reader.Next();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
}

TEST_F(WalTest, ResumeZeroesStaleTailForCorruptionDetection) {
  // A shorter recovered log must not leave the previous generation's
  // records beyond its end — they would later read as "intact records past
  // the damage" and turn every benign torn tail into a false corruption
  // report. Resume() zeroes them.
  std::string big(3000, 'z');
  std::vector<Lsn> ends;
  for (int i = 0; i < 10; ++i) {
    auto l = writer_.Append(MakeInsert(2 + i, 1, Tid{0, 0}, big));
    ASSERT_TRUE(l.ok());
    ends.push_back(*l);
  }
  ASSERT_TRUE(writer_.FlushTo(ends.back(), &clk_).ok());

  // Pretend recovery only found the first four records valid.
  WalWriter resumed(&device_, 0, 64ull << 20);
  ASSERT_TRUE(resumed.Resume(ends[3]).ok());

  // The reader now sees records 1-4, then a benign end of log — record 5's
  // head may survive in the resume block, but nothing valid follows it.
  WalReader reader(&device_, 0, 64ull << 20);
  int n = 0;
  for (;;) {
    auto r = reader.Next();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (!r->has_value()) break;
    n++;
  }
  EXPECT_EQ(n, 4);
}

TEST_F(WalTest, RegionFullReported) {
  WalWriter tiny(&device_, 0, 256);
  auto l1 = tiny.Append(MakeInsert(2, 1, Tid{0, 0}, std::string(100, 'a')));
  EXPECT_TRUE(l1.ok());
  auto l2 = tiny.Append(MakeInsert(3, 1, Tid{0, 0}, std::string(200, 'b')));
  EXPECT_FALSE(l2.ok());
  EXPECT_EQ(l2.status().code(), StatusCode::kOutOfSpace);
}

TEST_F(WalTest, PartialBlockRewriteAmplifiesPhysicalWrites) {
  // Two tiny flushes rewrite the same 8 KB block twice.
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "a"));
  ASSERT_TRUE(writer_.FlushTo(*l1, &clk_).ok());
  auto l2 = writer_.Append(MakeInsert(3, 1, Tid{0, 0}, "b"));
  ASSERT_TRUE(writer_.FlushTo(*l2, &clk_).ok());
  EXPECT_EQ(writer_.written_bytes(), 2 * kPageSize);
  EXPECT_LT(writer_.appended_bytes(), kPageSize);
}

TEST_F(WalTest, ReaderStartsMidLog) {
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "first"));
  auto l2 = writer_.Append(MakeInsert(3, 1, Tid{0, 0}, "second"));
  ASSERT_TRUE(writer_.FlushTo(*l2, &clk_).ok());
  WalReader reader(&device_, 0, 64ull << 20, /*start_lsn=*/*l1);
  auto r = reader.Next();
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->body, "second");
}

}  // namespace
}  // namespace sias

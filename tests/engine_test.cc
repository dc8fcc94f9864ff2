// Engine-level tests: row codec, tables with secondary indexes under all
// three schemes, maintenance policies, checkpointing and crash recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "device/mem_device.h"
#include "core/sias_table.h"
#include "engine/database.h"
#include "index/key_codec.h"
#include "obs/metrics.h"
#include "wal/wal.h"

namespace sias {
namespace {

Schema AccountSchema() {
  return Schema{{"id", ColumnType::kInt64},
                {"owner", ColumnType::kString},
                {"balance", ColumnType::kDouble}};
}

Row Account(int64_t id, const std::string& owner, double balance) {
  return Row{{id, owner, balance}};
}

TEST(SchemaTest, RowCodecRoundTrip) {
  Schema schema = AccountSchema();
  Row row = Account(42, "alice", 99.5);
  std::string bytes;
  ASSERT_TRUE(row.Encode(schema, &bytes).ok());
  auto decoded = Row::Decode(schema, Slice(bytes));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
  EXPECT_EQ(decoded->GetInt(0), 42);
  EXPECT_EQ(decoded->GetString(1), "alice");
  EXPECT_DOUBLE_EQ(decoded->GetDouble(2), 99.5);
}

TEST(SchemaTest, CodecRejectsMismatches) {
  Schema schema = AccountSchema();
  std::string bytes;
  Row short_row{{int64_t{1}}};
  EXPECT_FALSE(short_row.Encode(schema, &bytes).ok());  // arity
  Row bad_types{{std::string("x"), std::string("y"), 1.0}};
  EXPECT_FALSE(bad_types.Encode(schema, &bytes).ok());  // type
  EXPECT_FALSE(Row::Decode(schema, Slice("short")).ok());
}

TEST(SchemaTest, EmptyStringAndNegatives) {
  Schema schema = AccountSchema();
  Row row = Account(-7, "", -0.25);
  std::string bytes;
  ASSERT_TRUE(row.Encode(schema, &bytes).ok());
  auto decoded = Row::Decode(schema, Slice(bytes));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
}

std::string SchemeTestName(
    const ::testing::TestParamInfo<VersionScheme>& info) {
  std::string n = ToString(info.param);
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

class EngineTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    data_ = std::make_unique<MemDevice>(1ull << 30);
    wal_ = std::make_unique<MemDevice>(1ull << 30);
    Reopen();
  }

  void Reopen() {
    DatabaseOptions opts;
    opts.data_device = data_.get();
    opts.wal_device = wal_.get();
    opts.pool_frames = 512;
    opts.flush_policy = flush_policy_;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    DeclareCatalog();
  }

  void DeclareCatalog() {
    auto t = db_->CreateTable("accounts", AccountSchema(), GetParam());
    ASSERT_TRUE(t.ok());
    accounts_ = *t;
    ASSERT_TRUE(db_->CreateIndex(accounts_, "accounts_by_id",
                                 [](const Row& r) {
                                   return IntKey(r.GetInt(0));
                                 })
                    .ok());
    ASSERT_TRUE(db_->CreateIndex(accounts_, "accounts_by_owner",
                                 [](const Row& r) {
                                   return KeyBuilder()
                                       .AddString(Slice(r.GetString(1)))
                                       .Take();
                                 })
                    .ok());
  }

  Vid InsertAccount(int64_t id, const std::string& owner, double balance) {
    auto txn = db_->Begin(&clk_);
    auto vid = accounts_->Insert(txn.get(), Account(id, owner, balance));
    EXPECT_TRUE(vid.ok()) << vid.status().ToString();
    EXPECT_TRUE(db_->Commit(txn.get()).ok());
    return *vid;
  }

  std::unique_ptr<MemDevice> data_, wal_;
  std::unique_ptr<Database> db_;
  Table* accounts_ = nullptr;
  VirtualClock clk_;
  FlushPolicy flush_policy_ = FlushPolicy::kT2Checkpoint;
};

TEST_P(EngineTest, InsertGetRoundTrip) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  auto txn = db_->Begin(&clk_);
  auto row = accounts_->Get(txn.get(), vid);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((*row)->GetString(1), "alice");
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, IndexLookupFindsRow) {
  InsertAccount(1, "alice", 10.0);
  InsertAccount(2, "bob", 20.0);
  InsertAccount(3, "alice", 30.0);
  auto txn = db_->Begin(&clk_);
  auto by_id = accounts_->IndexLookup(txn.get(), 0, IntKey(2));
  ASSERT_TRUE(by_id.ok());
  ASSERT_EQ(by_id->size(), 1u);
  EXPECT_EQ((*by_id)[0].second.GetString(1), "bob");

  auto by_owner = accounts_->IndexLookup(
      txn.get(), 1, KeyBuilder().AddString(Slice("alice")).Take());
  ASSERT_TRUE(by_owner.ok());
  EXPECT_EQ(by_owner->size(), 2u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, IndexSeesCommittedUpdates) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vid, Account(1, "alice", 55.0)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto txn = db_->Begin(&clk_);
  auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(1));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_DOUBLE_EQ((*hits)[0].second.GetDouble(2), 55.0);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, KeyChangingUpdateMovesIndexEntry) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vid, Account(1, "carol", 10.0)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto txn = db_->Begin(&clk_);
  auto old_hits = accounts_->IndexLookup(
      txn.get(), 1, KeyBuilder().AddString(Slice("alice")).Take());
  ASSERT_TRUE(old_hits.ok());
  EXPECT_TRUE(old_hits->empty());  // stale entry filtered (or absent)
  auto new_hits = accounts_->IndexLookup(
      txn.get(), 1, KeyBuilder().AddString(Slice("carol")).Take());
  ASSERT_TRUE(new_hits.ok());
  EXPECT_EQ(new_hits->size(), 1u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, OldSnapshotStillFindsOldKeyThroughIndex) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  auto old_txn = db_->Begin(&clk_);  // snapshot before the rename
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vid, Account(1, "carol", 10.0)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto hits = accounts_->IndexLookup(
      old_txn.get(), 1, KeyBuilder().AddString(Slice("alice")).Take());
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u) << "old snapshot must see the old key";
  EXPECT_EQ(hits->at(0).second.GetString(1), "alice");
  ASSERT_TRUE(db_->Commit(old_txn.get()).ok());
}

TEST_P(EngineTest, IndexRangeScansInOrder) {
  for (int64_t i = 10; i > 0; --i) {
    std::string owner = "o";
    owner += std::to_string(i);
    InsertAccount(i, owner, 1.0 * static_cast<double>(i));
  }
  auto txn = db_->Begin(&clk_);
  std::vector<int64_t> ids;
  ASSERT_TRUE(accounts_
                  ->IndexRange(txn.get(), 0, IntKey(3), IntKey(8),
                               [&](Vid, const Row& row) {
                                 ids.push_back(row.GetInt(0));
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{3, 4, 5, 6, 7}));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, DeleteHidesFromIndex) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Delete(txn.get(), vid).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto txn = db_->Begin(&clk_);
  auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(1));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, TickRunsMaintenanceByVirtualTime) {
  InsertAccount(1, "alice", 10.0);
  uint64_t cps_before = db_->stats().checkpoints;
  clk_.Advance(DatabaseOptions{}.checkpoint_interval + kVSecond);
  ASSERT_TRUE(db_->Tick(&clk_).ok());
  EXPECT_GT(db_->stats().bgwriter_passes, 0u);
  EXPECT_GT(db_->stats().checkpoints, cps_before);
}

TEST_P(EngineTest, VacuumAfterChurnKeepsDataCorrect) {
  std::vector<Vid> vids;
  for (int i = 0; i < 20; ++i) {
    vids.push_back(InsertAccount(i, "own" + std::to_string(i), 1.0));
  }
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      auto txn = db_->Begin(&clk_);
      ASSERT_TRUE(accounts_
                      ->Update(txn.get(), vids[i],
                               Account(i, "own" + std::to_string(i),
                                       round + 0.5))
                      .ok());
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
  }
  GcStats gc;
  ASSERT_TRUE(db_->Vacuum(&clk_, &gc).ok());
  EXPECT_GT(gc.versions_discarded, 0u);
  auto txn = db_->Begin(&clk_);
  for (int i = 0; i < 20; ++i) {
    auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(i));
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u) << "id " << i;
    EXPECT_DOUBLE_EQ(hits->at(0).second.GetDouble(2), 4.5);
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, RecoveryAfterCleanCheckpoint) {
  for (int i = 0; i < 50; ++i) {
    InsertAccount(i, "owner" + std::to_string(i), 2.0 * i);
  }
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  // "Crash": drop the Database object, reopen over the same devices.
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());
  auto txn = db_->Begin(&clk_);
  int count = 0;
  ASSERT_TRUE(accounts_->Scan(txn.get(), [&](Vid, const Row& row) {
    EXPECT_EQ(row.GetString(1), "owner" + std::to_string(row.GetInt(0)));
    count++;
    return true;
  }).ok());
  EXPECT_EQ(count, 50);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, RecoveryReplaysPostCheckpointWal) {
  for (int i = 0; i < 10; ++i) InsertAccount(i, "pre", 1.0);
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  // Post-checkpoint committed work, never flushed to data pages.
  std::vector<Vid> vids;
  for (int i = 10; i < 20; ++i) {
    vids.push_back(InsertAccount(i, "post", 2.0));
  }
  {  // An update too.
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vids[0], Account(10, "post2", 3.0)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  // A transaction in flight at crash time must be aborted by recovery.
  auto in_flight = db_->Begin(&clk_);
  ASSERT_TRUE(
      accounts_->Insert(in_flight.get(), Account(99, "ghost", 0.0)).ok());
  // Crash WITHOUT checkpoint: data pages lost, WAL survives.
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());

  auto txn = db_->Begin(&clk_);
  int count = 0;
  bool saw_ghost = false;
  std::string v10_owner;
  ASSERT_TRUE(accounts_->Scan(txn.get(), [&](Vid, const Row& row) {
    count++;
    if (row.GetString(1) == "ghost") saw_ghost = true;
    if (row.GetInt(0) == 10) v10_owner = row.GetString(1);
    return true;
  }).ok());
  EXPECT_EQ(count, 20);
  EXPECT_FALSE(saw_ghost) << "uncommitted insert resurrected";
  EXPECT_EQ(v10_owner, "post2") << "committed update lost";
  // Index lookups work after rebuild.
  auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(15));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());

  // New transactions get fresh xids (no reuse of replayed ones).
  Vid nv = InsertAccount(200, "fresh", 1.0);
  auto txn2 = db_->Begin(&clk_);
  auto row = accounts_->Get(txn2.get(), nv);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->has_value());
  ASSERT_TRUE(db_->Commit(txn2.get()).ok());
}

TEST_P(EngineTest, RecoveryIdempotentAcrossDoubleCrash) {
  for (int i = 0; i < 5; ++i) InsertAccount(i, "x", 1.0);
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  InsertAccount(5, "y", 2.0);
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());
  // Crash again immediately after recovery (no checkpoint in between).
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());
  auto txn = db_->Begin(&clk_);
  int count = 0;
  ASSERT_TRUE(accounts_->Scan(txn.get(), [&](Vid, const Row&) {
    count++;
    return true;
  }).ok());
  EXPECT_EQ(count, 6);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EngineTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeTestName);

// --- SI version order rebuilt after a restart -----------------------------

// Recovery rebuilds each SI item's version list from a page scan and must
// order it oldest to newest, since reads and writes walk it newest-first.
// A transaction that updates a row twice creates two versions with the same
// xmin, and SI placement may put the second on a lower page than the first.
TEST(SiRecoveryTest, RowUpdatedTwiceInOneTransactionStaysWritable) {
  MemDevice data(1ull << 30), wal(1ull << 30);
  VirtualClock clk;
  std::unique_ptr<Database> db;
  Table* table = nullptr;
  auto open = [&] {
    DatabaseOptions opts;
    opts.data_device = &data;
    opts.wal_device = &wal;
    opts.pool_frames = 64;
    auto r = Database::Open(opts);
    ASSERT_TRUE(r.ok());
    db = std::move(*r);
    auto t = db->CreateTable("accounts", AccountSchema(), VersionScheme::kSi);
    ASSERT_TRUE(t.ok());
    table = *t;
  };
  auto insert = [&](int64_t id, const std::string& owner) {
    auto txn = db->Begin(&clk);
    auto vid = table->Insert(txn.get(), Account(id, owner, 0.0));
    EXPECT_TRUE(vid.ok()) << vid.status().ToString();
    EXPECT_TRUE(db->Commit(txn.get()).ok());
    return *vid;
  };
  open();
  // Page 0 takes the row and three ~2 KB fillers; the fourth filler opens
  // page 1 and leaves page 0 room for small rows only. One more small row
  // moves the placement cursor to page 1, so the first update below lands
  // on page 1 and the second wraps around to page 0.
  const Vid vid = insert(1, "row");
  for (int i = 0; i < 4; ++i) insert(100 + i, std::string(2000, 'f'));
  insert(2, "small");
  {
    auto txn = db->Begin(&clk);
    ASSERT_TRUE(table->Update(txn.get(), vid, Account(1, "row", 1.0)).ok());
    ASSERT_TRUE(table->Update(txn.get(), vid, Account(1, "row", 2.0)).ok());
    ASSERT_TRUE(db->Commit(txn.get()).ok());
  }
  db.reset();
  open();
  ASSERT_TRUE(db->Recover().ok());

  auto txn = db->Begin(&clk);
  auto row = table->Get(txn.get(), vid);
  ASSERT_TRUE(row.ok() && row->has_value());
  EXPECT_DOUBLE_EQ((*row)->GetDouble(2), 2.0);
  Status s = table->Update(txn.get(), vid, Account(1, "row", 3.0));
  EXPECT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

// --- Vacuum's garbage hints start empty after a restart -----------------

class GcHintRecoveryTest : public EngineTest {};

// The per-page hints live in memory only, so after recovery vacuum must
// classify every page written before the crash (and reclaim the garbage on
// them); its exact re-derivation then lets the next pass skip the
// mostly-live pages without fetching them.
TEST_P(GcHintRecoveryTest, FirstVacuumAfterRecoveryClassifiesEveryPage) {
  std::vector<Vid> vids;
  for (int i = 0; i < 200; ++i) {
    vids.push_back(InsertAccount(i, "owner" + std::to_string(i), 1.0));
  }
  // The first hundred accounts churn: their original pages and the pages
  // of their intermediate versions end up all garbage.
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      auto txn = db_->Begin(&clk_);
      ASSERT_TRUE(accounts_
                      ->Update(txn.get(), vids[i],
                               Account(i, "owner" + std::to_string(i), round))
                      .ok());
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
  }
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());

  GcStats first;
  ASSERT_TRUE(db_->Vacuum(&clk_, &first).ok());
  EXPECT_GT(first.pages_examined, 0u);
  EXPECT_EQ(first.pages_skipped, 0u);
  EXPECT_EQ(first.pages_classified, first.pages_examined);
  EXPECT_GT(first.pages_reclaimed, 0u);
  EXPECT_GE(first.versions_discarded, 200u);

  GcStats second;
  ASSERT_TRUE(db_->Vacuum(&clk_, &second).ok());
  // Every page but the freed ones is skipped by its hint, none fetched.
  EXPECT_EQ(second.pages_examined, 0u);
  EXPECT_GE(second.pages_skipped + first.pages_reclaimed,
            first.pages_examined);
  EXPECT_EQ(second.pages_classified, 0u);
  EXPECT_EQ(second.pages_reclaimed, 0u);

  auto txn = db_->Begin(&clk_);
  for (int i = 0; i < 200; ++i) {
    auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(i));
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u) << "id " << i;
    EXPECT_DOUBLE_EQ(hits->at(0).second.GetDouble(2), i < 100 ? 3.0 : 1.0);
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(SiasSchemes, GcHintRecoveryTest,
                         ::testing::Values(VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeTestName);

// --- Reclaimed append pages are logged and trimmed, never written --------

/// MemDevice that records which offsets it read and wrote, and counts
/// writes of SIAS append pages with no slot.
class RecordingDevice : public MemDevice {
 public:
  using MemDevice::MemDevice;

  Status Read(uint64_t offset, size_t len, uint8_t* out,
              VirtualClock* clk) override {
    reads.insert(offset);
    return MemDevice::Read(offset, len, out, clk);
  }

  Status Write(uint64_t offset, size_t len, const uint8_t* data,
               VirtualClock* clk, bool background) override {
    writes.insert(offset);
    if (len == kPageSize) {
      SlottedPage page(const_cast<uint8_t*>(data));
      if ((page.header()->flags & kPageFlagAppendRegion) != 0 &&
          page.slot_count() == 0) {
        empty_append_writes++;
      }
    }
    return MemDevice::Write(offset, len, data, clk, background);
  }

  std::set<uint64_t> reads;
  std::set<uint64_t> writes;
  int empty_append_writes = 0;
};

/// Whether the recorded I/O `io` hit any of `offsets`.
bool Touches(const std::set<uint64_t>& io, const std::set<uint64_t>& offsets) {
  for (uint64_t o : offsets) {
    if (io.count(o) != 0) return true;
  }
  return false;
}

class ReclaimTest : public EngineTest {
 protected:
  void SetUp() override {
    auto data = std::make_unique<RecordingDevice>(1ull << 30);
    rec_ = data.get();
    data_ = std::move(data);
    wal_ = std::make_unique<MemDevice>(1ull << 30);
    Reopen();
  }

  void TearDown() override {
    // No data-page write carries an append page without a slot.
    EXPECT_EQ(rec_->empty_append_writes, 0);
  }

  SiasTable* heap() { return static_cast<SiasTable*>(accounts_->heap()); }
  RelationId relation() { return heap()->relation(); }
  PageNumber PageCount() { return *db_->disk()->PageCount(relation()); }

  /// 200 accounts; the first hundred churn three times, which leaves their
  /// original pages and those of their intermediate versions all garbage.
  void Churn() {
    for (int i = 0; i < 200; ++i) {
      vids_.push_back(InsertAccount(i, "owner" + std::to_string(i), 1.0));
    }
    for (int round = 1; round <= 3; ++round) {
      for (int i = 0; i < 100; ++i) SetBalance(i, round);
    }
  }

  void SetBalance(int i, double balance) {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_
                    ->Update(txn.get(), vids_[i],
                             Account(i, "owner" + std::to_string(i), balance))
                    .ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  /// Device offsets of `pages`.
  std::set<uint64_t> Offsets(const std::vector<PageNumber>& pages) {
    std::set<uint64_t> out;
    for (PageNumber p : pages) {
      out.insert(*db_->disk()->PageOffset(relation(), p));
    }
    return out;
  }

  /// Every account reads its last balance through the id index.
  void ExpectBalances(double churned) {
    auto txn = db_->Begin(&clk_);
    for (int i = 0; i < 200; ++i) {
      auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(i));
      ASSERT_TRUE(hits.ok());
      ASSERT_EQ(hits->size(), 1u) << "id " << i;
      EXPECT_DOUBLE_EQ(hits->at(0).second.GetDouble(2),
                       i < 100 ? churned : 1.0);
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  /// Updates churned accounts until every free page is back in use and
  /// checks that the relation did not grow before. Returns the updates.
  int ReuseFreePages(double balance) {
    const PageNumber count = PageCount();
    int updates = 0;
    while (!heap()->region().FreePages().empty()) {
      EXPECT_EQ(PageCount(), count) << "grew with free pages left";
      SetBalance(updates % 100, balance);
      updates++;
      if (updates > 100000) break;
    }
    EXPECT_EQ(PageCount(), count);
    return updates;
  }

  RecordingDevice* rec_ = nullptr;
  std::vector<Vid> vids_;
};

// A reclaim costs a WAL record: the page's frame is dropped unwritten, so
// neither a background-writer pass nor a checkpoint writes it, and
// recycling formats a fresh frame, so reuse reads nothing back.
TEST_P(ReclaimTest, ReclaimedPagesAreNeitherWrittenNorReadBack) {
  Churn();
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  const int64_t discarded = CounterValue("buffer.frames_discarded");
  GcStats gc;
  ASSERT_TRUE(db_->Vacuum(&clk_, &gc).ok());
  ASSERT_GT(gc.pages_reclaimed, 0u);
  const std::vector<PageNumber> freed = heap()->region().FreePages();
  ASSERT_EQ(freed.size(), gc.pages_reclaimed);
  EXPECT_EQ(CounterValue("buffer.frames_discarded") - discarded,
            static_cast<int64_t>(freed.size()));
  const std::set<uint64_t> offsets = Offsets(freed);

  rec_->writes.clear();
  ASSERT_TRUE(db_->BgWriterPass(&clk_).ok());
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  EXPECT_FALSE(Touches(rec_->writes, offsets));

  const uint64_t misses = db_->pool()->stats().misses;
  const uint64_t reads = rec_->stats().read_ops;
  const uint64_t recycled = heap()->append_stats().pages_recycled;
  const int64_t formatted = CounterValue("buffer.pages_formatted");
  ReuseFreePages(4.0);
  EXPECT_EQ(heap()->append_stats().pages_recycled - recycled, freed.size());
  EXPECT_EQ(CounterValue("buffer.pages_formatted") - formatted,
            static_cast<int64_t>(freed.size()));
  EXPECT_EQ(db_->pool()->stats().misses, misses);
  EXPECT_EQ(rec_->stats().read_ops, reads);
  EXPECT_FALSE(Touches(rec_->reads, offsets));

  // The recycled pages' new generations reach the device as usual.
  rec_->writes.clear();
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  EXPECT_TRUE(Touches(rec_->writes, offsets));
}

// Vacuum and the full-relation scan skip free pages: their device images
// are dead generations.
TEST_P(ReclaimTest, VacuumAndScanSkipFreePages) {
  Churn();
  GcStats first;
  ASSERT_TRUE(db_->Vacuum(&clk_, &first).ok());
  ASSERT_GT(first.pages_reclaimed, 0u);
  const std::vector<PageNumber> freed = heap()->region().FreePages();
  const std::set<uint64_t> offsets = Offsets(freed);

  rec_->reads.clear();
  GcStats second;
  ASSERT_TRUE(db_->Vacuum(&clk_, &second).ok());
  EXPECT_LE(second.pages_examined + second.pages_skipped + freed.size(),
            PageCount());
  EXPECT_EQ(second.pages_reclaimed, 0u);

  auto txn = db_->Begin(&clk_);
  int rows = 0;
  ASSERT_TRUE(heap()
                  ->FullRelationScan(txn.get(),
                                     [&](Vid, Slice) {
                                       rows++;
                                       return true;
                                     })
                  .ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_EQ(rows, 200);
  EXPECT_FALSE(Touches(rec_->reads, offsets));
}

// Vacuum fetches only the pages its hint cannot clear: with the heap's
// frames dropped, a pass over pages whose hints the previous pass set
// exactly reads nothing from the device.
TEST_P(ReclaimTest, VacuumReadsNoPageItsHintClears) {
  Churn();
  GcStats first;
  ASSERT_TRUE(db_->Vacuum(&clk_, &first).ok());
  ASSERT_GT(first.pages_reclaimed, 0u);
  // Every page is clean after the checkpoint, so dropping the frames loses
  // nothing.
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  for (PageNumber p = 0; p < PageCount(); ++p) {
    db_->pool()->DiscardPage(PageId{relation(), p});
  }

  const uint64_t reads = rec_->stats().read_ops;
  GcStats second;
  ASSERT_TRUE(db_->Vacuum(&clk_, &second).ok());
  EXPECT_GT(second.pages_skipped, 0u);
  EXPECT_EQ(second.pages_examined, 0u);
  EXPECT_EQ(rec_->stats().read_ops, reads);
  ExpectBalances(3.0);
}

// The free list survives a restart: a checkpoint logs it, and redo of the
// reclaim records after the checkpoint adds to it. New versions reuse
// every free page before the relation grows.
TEST_P(ReclaimTest, FreePagesSurviveARestart) {
  for (bool checkpoint_after_vacuum : {true, false}) {
    SCOPED_TRACE(checkpoint_after_vacuum ? "logged by the checkpoint"
                                         : "redone from reclaim records");
    db_.reset();
    SetUp();
    vids_.clear();
    Churn();
    if (!checkpoint_after_vacuum) {
      ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
    }
    GcStats gc;
    ASSERT_TRUE(db_->Vacuum(&clk_, &gc).ok());
    ASSERT_GT(gc.pages_reclaimed, 0u);
    std::vector<PageNumber> freed = heap()->region().FreePages();
    if (checkpoint_after_vacuum) {
      ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
    } else {
      // A commit makes the reclaim records durable.
      SetBalance(150, 1.0);
      ASSERT_EQ(heap()->region().FreePages(), freed);
    }
    const PageNumber count = PageCount();

    db_.reset();  // crash
    Reopen();
    ASSERT_TRUE(db_->Recover().ok());
    std::vector<PageNumber> restored = heap()->region().FreePages();
    std::sort(freed.begin(), freed.end());
    EXPECT_EQ(restored, freed);
    EXPECT_EQ(PageCount(), count);
    ExpectBalances(3.0);

    const uint64_t recycled = heap()->append_stats().pages_recycled;
    ReuseFreePages(5.0);
    EXPECT_EQ(heap()->append_stats().pages_recycled - recycled, freed.size());
    EXPECT_EQ(rec_->empty_append_writes, 0);
  }
}

// A page that was open across the checkpoint, then reclaimed, trimmed and
// recycled: redo must not replay the inserts of its old generation that
// follow the checkpoint, since the device no longer holds the slots before
// them. They are moot — the page's last reclaim follows them in the log.
TEST_P(ReclaimTest, RedoSkipsRecordsOfAPageReclaimedLater) {
  for (int i = 0; i < 100; ++i) {
    vids_.push_back(InsertAccount(i, "owner" + std::to_string(i), 1.0));
  }
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());  // the open page goes out part-full
  for (int round = 1; round <= 4; ++round) {
    for (int i = 0; i < 100; ++i) SetBalance(i, round);
  }
  GcStats gc;
  ASSERT_TRUE(db_->Vacuum(&clk_, &gc).ok());
  ASSERT_GT(gc.pages_reclaimed, 0u);
  ReuseFreePages(5.0);  // trims and recycles every freed page

  db_.reset();  // crash
  Reopen();
  Status s = db_->Recover();
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto txn = db_->Begin(&clk_);
  for (int i = 0; i < 100; ++i) {
    auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(i));
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u) << "id " << i;
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(SiasSchemes, ReclaimTest,
                         ::testing::Values(VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeTestName);

// --- The t2 background writer writes an in-place page once per cycle ----

class BgWriterCycleTest : public EngineTest {
 protected:
  /// A fresh database under `policy` on a recording device.
  void Open(FlushPolicy policy) {
    db_.reset();
    auto data = std::make_unique<RecordingDevice>(1ull << 30);
    rec_ = data.get();
    data_ = std::move(data);
    wal_ = std::make_unique<MemDevice>(1ull << 30);
    flush_policy_ = policy;
    Reopen();
  }

  /// Device offsets of the dirty pages outside the append region (index
  /// pages; under SI also heap pages).
  std::set<uint64_t> DirtyInPlaceOffsets() {
    std::set<uint64_t> out;
    for (const auto& info : db_->pool()->DirtyPagesWithFlags()) {
      if ((info.page_flags & kPageFlagAppendRegion) == 0) {
        out.insert(*db_->disk()->PageOffset(info.id.relation, info.id.page));
      }
    }
    return out;
  }

  /// Two background-writer passes: the first consumes the reference bits
  /// of pages touched since the previous pass, the second writes the pages
  /// that stayed cold. Returns the offsets the second pass wrote.
  std::set<uint64_t> TwoPasses() {
    EXPECT_TRUE(db_->BgWriterPass(&clk_).ok());
    rec_->writes.clear();
    EXPECT_TRUE(db_->BgWriterPass(&clk_).ok());
    return rec_->writes;
  }

  RecordingDevice* rec_ = nullptr;
};

TEST_P(BgWriterCycleTest, T2WritesAnInPlacePageOncePerCheckpointCycle) {
  for (FlushPolicy policy :
       {FlushPolicy::kT1BackgroundWriter, FlushPolicy::kT2Checkpoint}) {
    const bool t2 = policy == FlushPolicy::kT2Checkpoint;
    SCOPED_TRACE(t2 ? "t2" : "t1");
    Open(policy);
    for (int i = 0; i < 50; ++i) {
      InsertAccount(i, "owner" + std::to_string(i), 1.0);
    }
    // The first write of a page in the cycle is the bgwriter's under both
    // policies.
    const std::set<uint64_t> dirty = DirtyInPlaceOffsets();
    const std::set<uint64_t> written = TwoPasses();
    std::set<uint64_t> first;
    for (uint64_t o : dirty) {
      if (written.count(o) != 0) first.insert(o);
    }
    ASSERT_FALSE(first.empty());

    // Each round's new rows re-dirty the rightmost index leaves among
    // them: t1 rewrites them every time, t2 leaves them to the checkpoint.
    std::set<uint64_t> again;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      for (int i = 0; i < 5; ++i) {
        const int id = 50 + 5 * round + i;
        InsertAccount(id, "owner" + std::to_string(id), 1.0);
      }
      again.clear();
      for (uint64_t o : DirtyInPlaceOffsets()) {
        if (first.count(o) != 0) again.insert(o);
      }
      ASSERT_FALSE(again.empty());
      EXPECT_EQ(Touches(TwoPasses(), again), !t2);
    }
    if (t2) {
      rec_->writes.clear();
      ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
      EXPECT_TRUE(Touches(rec_->writes, again));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, BgWriterCycleTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeTestName);

// --- Read-only transactions commit and abort without the log ------------

/// Everything the log and the clock would show of one commit or abort.
struct LogMark {
  Lsn current;
  Lsn flushed;
  int64_t flushes;
  VTime now;
};

class ReadOnlyCommitTest : public EngineTest {
 protected:
  // A WAL device whose writes take virtual time, so a commit's durability
  // wait shows on the terminal's clock.
  static constexpr VDuration kWalWriteLatency = 60 * kVMicrosecond;

  void SetUp() override {
    data_ = std::make_unique<MemDevice>(1ull << 30);
    wal_ = std::make_unique<MemDevice>(1ull << 30, 0, kWalWriteLatency);
    Reopen();
  }

  LogMark Mark() {
    return LogMark{db_->wal()->current_lsn(), db_->wal()->flushed_lsn(),
                   CounterValue("wal.flushes"), clk_.now()};
  }

  void ExpectLogUntouched(const LogMark& before) {
    LogMark after = Mark();
    EXPECT_EQ(after.current, before.current) << "a record was appended";
    EXPECT_EQ(after.flushed, before.flushed);
    EXPECT_EQ(after.flushes, before.flushes) << "the WAL was flushed";
    EXPECT_EQ(after.now, before.now) << "the clock waited for durability";
  }

  /// Counts the log records of `type` carrying `xid`.
  int RecordsOf(WalRecordType type, Xid xid) {
    WalReader reader(wal_.get(), 0, db_->options().wal_limit_bytes);
    int n = 0;
    for (;;) {
      auto rec = reader.Next();
      EXPECT_TRUE(rec.ok()) << rec.status().ToString();
      if (!rec.ok() || !rec->has_value()) return n;
      if ((*rec)->type == type && (*rec)->xid == xid) n++;
    }
  }

  /// Commits `txn`, which wrote, and checks it logged and flushed a commit.
  void CommitWriter(Transaction* txn) {
    LogMark before = Mark();
    int64_t read_only = CounterValue("txn.commit.read_only");
    ASSERT_TRUE(db_->Commit(txn).ok());
    EXPECT_EQ(RecordsOf(WalRecordType::kTxnCommit, txn->xid()), 1);
    EXPECT_GT(db_->wal()->current_lsn(), before.current);
    EXPECT_EQ(db_->wal()->flushed_lsn(), db_->wal()->current_lsn());
    EXPECT_GT(CounterValue("wal.flushes"), before.flushes);
    EXPECT_GE(clk_.now(), before.now + kWalWriteLatency);
    EXPECT_EQ(CounterValue("txn.commit.read_only"), read_only);
  }

  std::string Encoded(int64_t id, const std::string& owner, double balance) {
    std::string bytes;
    EXPECT_TRUE(Account(id, owner, balance).Encode(AccountSchema(), &bytes)
                    .ok());
    return bytes;
  }
};

TEST_P(ReadOnlyCommitTest, ReadOnlyCommitSkipsTheLog) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  auto reader = db_->Begin(&clk_);
  auto row = accounts_->Get(reader.get(), vid);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  LogMark before = Mark();
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
  ExpectLogUntouched(before);
  EXPECT_EQ(RecordsOf(WalRecordType::kTxnCommit, reader->xid()), 0);

  auto writer = db_->Begin(&clk_);
  ASSERT_TRUE(
      accounts_->Update(writer.get(), vid, Account(1, "alice", 11.0)).ok());
  CommitWriter(writer.get());
}

TEST_P(ReadOnlyCommitTest, HeapWriteWithoutTableLogsCommit) {
  MvccTable* heap = accounts_->heap();
  auto inserter = db_->Begin(&clk_);
  auto vid = heap->Insert(inserter.get(), Slice(Encoded(1, "raw", 1.0)));
  ASSERT_TRUE(vid.ok());
  CommitWriter(inserter.get());

  auto updater = db_->Begin(&clk_);
  ASSERT_TRUE(
      heap->Update(updater.get(), *vid, Slice(Encoded(1, "raw", 2.0))).ok());
  CommitWriter(updater.get());

  auto deleter = db_->Begin(&clk_);
  ASSERT_TRUE(heap->Delete(deleter.get(), *vid).ok());
  CommitWriter(deleter.get());
}

TEST_P(ReadOnlyCommitTest, FailedWriteLeavesTransactionReadOnly) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Delete(txn.get(), vid).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto txn = db_->Begin(&clk_);
  LogMark before_write = Mark();
  Status s = accounts_->heap()->Update(txn.get(), vid,
                                       Slice(Encoded(1, "ghost", 0.0)));
  ASSERT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_FALSE(txn->wrote());
  EXPECT_EQ(db_->wal()->current_lsn(), before_write.current);
  LogMark before = Mark();
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  ExpectLogUntouched(before);
  EXPECT_EQ(RecordsOf(WalRecordType::kTxnCommit, txn->xid()), 0);
}

TEST_P(ReadOnlyCommitTest, ReadOnlyAbortAppendsNothing) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  auto reader = db_->Begin(&clk_);
  ASSERT_TRUE(accounts_->Get(reader.get(), vid).ok());
  LogMark before = Mark();
  ASSERT_TRUE(db_->Abort(reader.get()).ok());
  ExpectLogUntouched(before);

  // A writer's abort still appends its (unflushed) abort record.
  auto writer = db_->Begin(&clk_);
  ASSERT_TRUE(
      accounts_->Update(writer.get(), vid, Account(1, "alice", 0.0)).ok());
  ASSERT_TRUE(db_->Abort(writer.get()).ok());
  ASSERT_TRUE(db_->wal()->FlushTo(db_->wal()->current_lsn(), &clk_).ok());
  EXPECT_EQ(RecordsOf(WalRecordType::kTxnAbort, writer->xid()), 1);
  EXPECT_EQ(RecordsOf(WalRecordType::kTxnAbort, reader->xid()), 0);
}

TEST_P(ReadOnlyCommitTest, CounterCountsExactlyTheReadOnlyCommits) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  int64_t read_only = CounterValue("txn.commit.read_only");
  int64_t commits = CounterValue("txn.commit");
  for (int i = 0; i < 9; ++i) {
    auto txn = db_->Begin(&clk_);
    if (i % 3 == 0) {
      ASSERT_TRUE(
          accounts_->Update(txn.get(), vid, Account(1, "alice", i)).ok());
    } else {
      ASSERT_TRUE(accounts_->Get(txn.get(), vid).ok());
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  {  // Aborts count in neither.
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(db_->Abort(txn.get()).ok());
  }
  EXPECT_EQ(CounterValue("txn.commit.read_only") - read_only, 6);
  EXPECT_EQ(CounterValue("txn.commit") - commits, 9);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ReadOnlyCommitTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeTestName);

// --- Index probes remove entries dead to every snapshot -----------------

class IndexKillTest : public EngineTest {
 protected:
  int64_t Killed() { return CounterValue("index.entries_killed"); }
  uint64_t IdEntries() { return accounts_->index(0)->entries(); }

  void SetBalance(Vid vid, int64_t id, const std::string& owner,
                  double balance) {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vid, Account(id, owner, balance)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  void DeleteAccount(Vid vid) {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Delete(txn.get(), vid).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  /// Balances of the rows `txn` finds under id `id` (index 0).
  std::vector<double> Lookup(Transaction* txn, int64_t id) {
    auto hits = accounts_->IndexLookup(txn, 0, IntKey(id));
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    std::vector<double> out;
    if (hits.ok()) {
      for (const auto& [vid, row] : *hits) out.push_back(row.GetDouble(2));
    }
    return out;
  }

  /// Ids `txn` finds by range-scanning index 0 over [0, 100).
  std::vector<int64_t> Range(Transaction* txn) {
    std::vector<int64_t> ids;
    EXPECT_TRUE(accounts_
                    ->IndexRange(txn, 0, IntKey(0), IntKey(100),
                                 [&](Vid, const Row& row) {
                                   ids.push_back(row.GetInt(0));
                                   return true;
                                 })
                    .ok());
    return ids;
  }
};

// SI keeps one entry per version. Once vacuum has reclaimed a hot key's old
// versions, the first probe removes their entries, and the next one finds
// only the live entry. SIAS keeps one entry per item, so nothing dies.
TEST_P(IndexKillTest, ProbeOfHotKeyKillsItsDeadEntries) {
  const bool si = GetParam() == VersionScheme::kSi;
  constexpr int kUpdates = 20;
  Vid hot = InsertAccount(1, "alice", 0.0);
  InsertAccount(2, "bob", 0.0);
  for (int i = 1; i <= kUpdates; ++i) SetBalance(hot, 1, "alice", i);
  ASSERT_TRUE(db_->Vacuum(&clk_).ok());
  EXPECT_EQ(IdEntries(), si ? kUpdates + 2u : 2u);

  const int64_t killed = Killed();
  {
    auto txn = db_->Begin(&clk_);
    EXPECT_EQ(Lookup(txn.get(), 1), std::vector<double>{kUpdates});
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  EXPECT_EQ(Killed() - killed, si ? kUpdates : 0);
  EXPECT_EQ(IdEntries(), 2u);
  {
    auto txn = db_->Begin(&clk_);
    EXPECT_EQ(Lookup(txn.get(), 1), std::vector<double>{kUpdates});
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  EXPECT_EQ(Killed() - killed, si ? kUpdates : 0);
  auto* tree = static_cast<BTreeIndex*>(accounts_->index(0))->tree();
  auto under_key = tree->Lookup(IntKey(1), &clk_);
  ASSERT_TRUE(under_key.ok());
  EXPECT_EQ(under_key->size(), 1u);
}

// A snapshot held open keeps the horizon below every later write: probes
// by newer snapshots must leave it every entry it needs, updated and
// deleted rows alike. Once it ends, the next probes remove them.
TEST_P(IndexKillTest, HeldSnapshotStillReachesEveryVersionItSees) {
  Vid alice = InsertAccount(1, "alice", 1.0);
  Vid bob = InsertAccount(2, "bob", 1.0);
  auto held = db_->Begin(&clk_);
  for (int i = 2; i <= 5; ++i) SetBalance(alice, 1, "alice", i);
  DeleteAccount(bob);
  ASSERT_TRUE(db_->Vacuum(&clk_).ok());
  {
    auto txn = db_->Begin(&clk_);
    EXPECT_EQ(Lookup(txn.get(), 1), std::vector<double>{5.0});
    EXPECT_TRUE(Lookup(txn.get(), 2).empty());
    EXPECT_EQ(Range(txn.get()), std::vector<int64_t>{1});
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  EXPECT_EQ(Lookup(held.get(), 1), std::vector<double>{1.0});
  EXPECT_EQ(Lookup(held.get(), 2), std::vector<double>{1.0});
  EXPECT_EQ(Range(held.get()), (std::vector<int64_t>{1, 2}));
  ASSERT_TRUE(db_->Commit(held.get()).ok());

  const int64_t killed = Killed();
  {
    auto txn = db_->Begin(&clk_);
    EXPECT_EQ(Range(txn.get()), std::vector<int64_t>{1});
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  // SI: alice's four superseded versions and bob's deleted one; SIAS: bob.
  EXPECT_EQ(Killed() - killed, GetParam() == VersionScheme::kSi ? 5 : 1);
  EXPECT_EQ(IdEntries(), 1u);
}

// A deleted row's entry survives while any snapshot could still see the
// row, and the first range scan after its delete passes the horizon
// removes it. An aborted insert's entry is dead at once.
TEST_P(IndexKillTest, DeletedEntrySurvivesUntilBelowHorizonAbortedDiesAtOnce) {
  for (int64_t id = 1; id <= 3; ++id) InsertAccount(id, "o", 1.0);
  Vid doomed = InsertAccount(4, "o", 1.0);
  const int64_t killed = Killed();
  auto holder = db_->Begin(&clk_);  // predates the delete
  DeleteAccount(doomed);
  {
    auto txn = db_->Begin(&clk_);
    EXPECT_EQ(Range(txn.get()), (std::vector<int64_t>{1, 2, 3}));
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  EXPECT_EQ(Killed(), killed);
  EXPECT_EQ(IdEntries(), 4u);
  ASSERT_TRUE(db_->Commit(holder.get()).ok());
  {
    auto txn = db_->Begin(&clk_);
    EXPECT_EQ(Range(txn.get()), (std::vector<int64_t>{1, 2, 3}));
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  EXPECT_EQ(Killed() - killed, 1);
  EXPECT_EQ(IdEntries(), 3u);

  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Insert(txn.get(), Account(9, "o", 1.0)).ok());
    ASSERT_TRUE(db_->Abort(txn.get()).ok());
  }
  auto busy = db_->Begin(&clk_);  // the horizon does not matter here
  EXPECT_EQ(IdEntries(), 4u);
  EXPECT_TRUE(Lookup(busy.get(), 9).empty());
  EXPECT_EQ(Killed() - killed, 2);
  EXPECT_EQ(IdEntries(), 3u);
  ASSERT_TRUE(db_->Commit(busy.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, IndexKillTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeTestName);

}  // namespace
}  // namespace sias

// Scheme-parameterized MVCC tests: the same battery runs against the SI
// baseline, SIAS-Chains and SIAS-V, checking that all three provide
// identical Snapshot Isolation semantics while differing in their physical
// behaviour (verified by the scheme-specific tests at the bottom).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "mvcc/visibility.h"
#include "obs/metrics.h"
#include "tests/test_env.h"

namespace sias {
namespace {

// "<prefix><n>". Appending to a named string avoids `"literal" +
// std::string&&`, which GCC 12 flags with a false -Wrestrict when
// optimizing.
std::string Numbered(std::string prefix, int64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

class MvccSchemeTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    env_ = std::make_unique<TestEnv>();
    table_ = env_->MakeTable(GetParam(), /*relation=*/1);
  }

  std::unique_ptr<Transaction> Begin() { return env_->txns_.Begin(&clk_); }
  Status Commit(Transaction* t) { return env_->txns_.Commit(t); }
  Status Abort(Transaction* t) { return env_->txns_.Abort(t); }

  /// Insert + commit helper; returns the VID.
  Vid InsertCommitted(const std::string& row) {
    auto t = Begin();
    auto vid = table_->Insert(t.get(), Slice(row));
    EXPECT_TRUE(vid.ok());
    EXPECT_TRUE(Commit(t.get()).ok());
    return *vid;
  }

  std::optional<std::string> ReadIn(Transaction* t, Vid vid) {
    auto r = table_->Read(t, vid);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  std::unique_ptr<TestEnv> env_;
  std::unique_ptr<MvccTable> table_;
  VirtualClock clk_;
};

TEST_P(MvccSchemeTest, InsertReadBack) {
  Vid vid = InsertCommitted("row-zero");
  auto t = Begin();
  auto row = ReadIn(t.get(), vid);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(*row, "row-zero");
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, OwnUncommittedWritesVisibleToSelfOnly) {
  auto t1 = Begin();
  auto vid = table_->Insert(t1.get(), Slice("mine"));
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(ReadIn(t1.get(), *vid).value_or(""), "mine");

  auto t2 = Begin();
  EXPECT_FALSE(ReadIn(t2.get(), *vid).has_value());
  ASSERT_TRUE(Commit(t1.get()).ok());
  // t2's snapshot predates the commit: still invisible.
  EXPECT_FALSE(ReadIn(t2.get(), *vid).has_value());
  ASSERT_TRUE(Commit(t2.get()).ok());

  auto t3 = Begin();
  EXPECT_TRUE(ReadIn(t3.get(), *vid).has_value());
  ASSERT_TRUE(Commit(t3.get()).ok());
}

TEST_P(MvccSchemeTest, UpdateCreatesNewVisibleVersion) {
  Vid vid = InsertCommitted("v0");
  auto t = Begin();
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("v1")).ok());
  EXPECT_EQ(ReadIn(t.get(), vid).value_or(""), "v1");  // own write
  ASSERT_TRUE(Commit(t.get()).ok());

  auto t2 = Begin();
  EXPECT_EQ(ReadIn(t2.get(), vid).value_or(""), "v1");
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, SnapshotReadersSeeOldVersionDuringUpdate) {
  Vid vid = InsertCommitted("old");
  auto reader = Begin();  // snapshot taken now

  auto writer = Begin();
  ASSERT_TRUE(table_->Update(writer.get(), vid, Slice("new")).ok());
  ASSERT_TRUE(Commit(writer.get()).ok());

  // Reader started before the update committed: sees the old version.
  EXPECT_EQ(ReadIn(reader.get(), vid).value_or(""), "old");
  ASSERT_TRUE(Commit(reader.get()).ok());

  auto later = Begin();
  EXPECT_EQ(ReadIn(later.get(), vid).value_or(""), "new");
  ASSERT_TRUE(Commit(later.get()).ok());
}

TEST_P(MvccSchemeTest, LongVersionHistoryEachSnapshotSeesItsVersion) {
  Vid vid = InsertCommitted("v0");
  std::vector<std::unique_ptr<Transaction>> readers;
  for (int i = 1; i <= 5; ++i) {
    readers.push_back(Begin());  // snapshot before update i
    auto t = Begin();
    ASSERT_TRUE(table_->Update(t.get(), vid, Slice(Numbered("v", i))).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  // Reader i (0-based) was started when version v{i} was newest.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ReadIn(readers[i].get(), vid).value_or(""), Numbered("v", i));
  }
  for (auto& r : readers) ASSERT_TRUE(Commit(r.get()).ok());
}

TEST_P(MvccSchemeTest, AbortedUpdateInvisible) {
  Vid vid = InsertCommitted("keep");
  auto t = Begin();
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("discard")).ok());
  ASSERT_TRUE(Abort(t.get()).ok());
  auto t2 = Begin();
  EXPECT_EQ(ReadIn(t2.get(), vid).value_or(""), "keep");
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, AbortedInsertInvisible) {
  auto t = Begin();
  auto vid = table_->Insert(t.get(), Slice("phantom"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(Abort(t.get()).ok());
  auto t2 = Begin();
  EXPECT_FALSE(ReadIn(t2.get(), *vid).has_value());
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, FirstUpdaterWinsOnConflict) {
  Vid vid = InsertCommitted("base");
  auto t1 = Begin();
  auto t2 = Begin();
  ASSERT_TRUE(table_->Update(t1.get(), vid, Slice("t1-wins")).ok());
  ASSERT_TRUE(Commit(t1.get()).ok());
  // t2 started before t1 committed; its update must fail (SI rules).
  Status s = table_->Update(t2.get(), vid, Slice("t2-loses"));
  EXPECT_TRUE(s.IsSerializationFailure() || s.IsLockTimeout())
      << s.ToString();
  ASSERT_TRUE(Abort(t2.get()).ok());
  auto t3 = Begin();
  EXPECT_EQ(ReadIn(t3.get(), vid).value_or(""), "t1-wins");
  ASSERT_TRUE(Commit(t3.get()).ok());
}

TEST_P(MvccSchemeTest, WaitingUpdaterAbortsAfterHolderCommits) {
  Vid vid = InsertCommitted("base");
  auto t1 = Begin();
  ASSERT_TRUE(table_->Update(t1.get(), vid, Slice("held")).ok());

  std::thread waiter([&] {
    VirtualClock clk;
    auto t2 = env_->txns_.Begin(&clk);
    // Blocks on the row lock until t1 commits, then must lose.
    Status s = table_->Update(t2.get(), vid, Slice("late"));
    EXPECT_TRUE(s.IsSerializationFailure() || s.IsLockTimeout())
        << s.ToString();
    EXPECT_TRUE(env_->txns_.Abort(t2.get()).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(Commit(t1.get()).ok());
  waiter.join();
}

TEST_P(MvccSchemeTest, WaitingUpdaterProceedsAfterHolderAborts) {
  Vid vid = InsertCommitted("base");
  auto t1 = Begin();
  ASSERT_TRUE(table_->Update(t1.get(), vid, Slice("doomed")).ok());

  std::thread waiter([&] {
    VirtualClock clk;
    auto t2 = env_->txns_.Begin(&clk);
    Status s = table_->Update(t2.get(), vid, Slice("winner"));
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(env_->txns_.Commit(t2.get()).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(Abort(t1.get()).ok());
  waiter.join();

  auto t3 = Begin();
  EXPECT_EQ(ReadIn(t3.get(), vid).value_or(""), "winner");
  ASSERT_TRUE(Commit(t3.get()).ok());
}

TEST_P(MvccSchemeTest, DeleteHidesFromNewSnapshotsKeepsForOld) {
  Vid vid = InsertCommitted("to-delete");
  auto old_reader = Begin();
  auto deleter = Begin();
  ASSERT_TRUE(table_->Delete(deleter.get(), vid).ok());
  ASSERT_TRUE(Commit(deleter.get()).ok());

  // Old snapshot still sees the last committed state before the delete.
  EXPECT_EQ(ReadIn(old_reader.get(), vid).value_or(""), "to-delete");
  ASSERT_TRUE(Commit(old_reader.get()).ok());

  auto new_reader = Begin();
  EXPECT_FALSE(ReadIn(new_reader.get(), vid).has_value());
  ASSERT_TRUE(Commit(new_reader.get()).ok());
}

TEST_P(MvccSchemeTest, UpdateOfDeletedItemFails) {
  Vid vid = InsertCommitted("gone");
  auto t = Begin();
  ASSERT_TRUE(table_->Delete(t.get(), vid).ok());
  ASSERT_TRUE(Commit(t.get()).ok());
  auto t2 = Begin();
  Status s = table_->Update(t2.get(), vid, Slice("zombie"));
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  ASSERT_TRUE(Abort(t2.get()).ok());
}

TEST_P(MvccSchemeTest, UpdateNonexistentVidFails) {
  auto t = Begin();
  Status s = table_->Update(t.get(), 424242, Slice("x"));
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_TRUE(Abort(t.get()).ok());
}

TEST_P(MvccSchemeTest, MultipleUpdatesInOneTransaction) {
  Vid vid = InsertCommitted("a");
  auto t = Begin();
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("b")).ok());
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("c")).ok());
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("d")).ok());
  EXPECT_EQ(ReadIn(t.get(), vid).value_or(""), "d");
  ASSERT_TRUE(Commit(t.get()).ok());
  auto t2 = Begin();
  EXPECT_EQ(ReadIn(t2.get(), vid).value_or(""), "d");
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, InsertAndUpdateSameTransaction) {
  auto t = Begin();
  auto vid = table_->Insert(t.get(), Slice("fresh"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(table_->Update(t.get(), *vid, Slice("updated")).ok());
  ASSERT_TRUE(Commit(t.get()).ok());
  auto t2 = Begin();
  EXPECT_EQ(ReadIn(t2.get(), *vid).value_or(""), "updated");
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, ReadMultiMatchesHistory) {
  // The batched read path (up to io_depth page reads in flight) and Read()
  // must both return each item's value as of the reader's snapshot, derived
  // here from the test's own history: version histories, tombstones, and an
  // old snapshot that predates the churn.
  constexpr int kItems = 64;
  std::vector<Vid> vids;
  for (int i = 0; i < kItems; ++i) {
    vids.push_back(InsertCommitted(Numbered("base", i)));
  }
  auto old_snap = Begin();
  // Expected value of item i in the old snapshot and in a fresh one.
  std::vector<std::optional<std::string>> old_rows, new_rows;
  for (int i = 0; i < kItems; ++i) {
    old_rows.push_back(Numbered("base", i));
    auto t = Begin();
    if (i % 5 == 0) {
      ASSERT_TRUE(table_->Delete(t.get(), vids[i]).ok());
      new_rows.push_back(std::nullopt);
    } else if (i % 2 == 0) {
      ASSERT_TRUE(
          table_->Update(t.get(), vids[i], Slice(Numbered("new", i))).ok());
      new_rows.push_back(Numbered("new", i));
    } else {
      new_rows.push_back(Numbered("base", i));
    }
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  auto fresh = Begin();

  // Batch with repeats and shuffled order, so result[i] must track input
  // order, not storage order.
  std::vector<int> batch_items;
  for (int i = kItems - 1; i >= 0; --i) batch_items.push_back(i);
  for (int i = 0; i < kItems; i += 7) batch_items.push_back(i);
  std::vector<Vid> batch;
  for (int i : batch_items) batch.push_back(vids[i]);

  for (auto [reader, want] : {std::pair{old_snap.get(), &old_rows},
                              std::pair{fresh.get(), &new_rows}}) {
    for (size_t depth : {size_t{1}, size_t{4}, size_t{8}}) {
      std::vector<std::optional<std::string>> rows;
      ASSERT_TRUE(table_->ReadMulti(reader, batch, depth, &rows).ok());
      ASSERT_EQ(rows.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(rows[i], (*want)[batch_items[i]])
            << "vid " << batch[i] << " depth " << depth;
      }
    }
    for (int i = 0; i < kItems; ++i) {
      EXPECT_EQ(ReadIn(reader, vids[i]), (*want)[i]) << "item " << i;
    }
    ASSERT_TRUE(Commit(reader).ok());
  }
}

TEST_P(MvccSchemeTest, ScanSeesExactlyVisibleItems) {
  Vid a = InsertCommitted("alpha");
  Vid b = InsertCommitted("beta");
  Vid c = InsertCommitted("gamma");
  // Delete b; update c; leave one uncommitted insert.
  {
    auto t = Begin();
    ASSERT_TRUE(table_->Delete(t.get(), b).ok());
    ASSERT_TRUE(table_->Update(t.get(), c, Slice("gamma2")).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  auto pending = Begin();
  ASSERT_TRUE(table_->Insert(pending.get(), Slice("invisible")).ok());

  auto t = Begin();
  std::map<Vid, std::string> seen;
  ASSERT_TRUE(table_
                  ->Scan(t.get(),
                         [&](Vid vid, Slice row) {
                           seen[vid] = row.ToString();
                           return true;
                         })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[a], "alpha");
  EXPECT_EQ(seen[c], "gamma2");
  ASSERT_TRUE(Commit(t.get()).ok());
  ASSERT_TRUE(Abort(pending.get()).ok());
}

TEST_P(MvccSchemeTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) InsertCommitted(Numbered("row", i));
  auto t = Begin();
  int count = 0;
  ASSERT_TRUE(table_->Scan(t.get(), [&](Vid, Slice) {
    return ++count < 3;
  }).ok());
  EXPECT_EQ(count, 3);
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, ManyItemsStressWithInterleavedSnapshots) {
  constexpr int kItems = 200;
  std::vector<Vid> vids;
  for (int i = 0; i < kItems; ++i) {
    vids.push_back(InsertCommitted(Numbered("i", i)));
  }
  auto snap_before = Begin();
  for (int i = 0; i < kItems; i += 2) {
    auto t = Begin();
    ASSERT_TRUE(
        table_->Update(t.get(), vids[i], Slice(Numbered("u", i))).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  // Old snapshot: all originals. New snapshot: evens updated.
  for (int i = 0; i < kItems; i += 37) {
    EXPECT_EQ(ReadIn(snap_before.get(), vids[i]).value_or(""),
              Numbered("i", i));
  }
  ASSERT_TRUE(Commit(snap_before.get()).ok());
  auto snap_after = Begin();
  for (int i = 0; i < kItems; i += 37) {
    std::string expect = Numbered(i % 2 == 0 ? "u" : "i", i);
    EXPECT_EQ(ReadIn(snap_after.get(), vids[i]).value_or(""), expect);
  }
  ASSERT_TRUE(Commit(snap_after.get()).ok());
}

TEST_P(MvccSchemeTest, GarbageCollectionPreservesVisibleState) {
  constexpr int kItems = 50;
  std::vector<Vid> vids;
  for (int i = 0; i < kItems; ++i) {
    vids.push_back(InsertCommitted("x"));
  }
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < kItems; ++i) {
      auto t = Begin();
      ASSERT_TRUE(table_
                      ->Update(t.get(), vids[i],
                               Slice(Numbered(Numbered("r", round) + "-", i)))
                      .ok());
      ASSERT_TRUE(Commit(t.get()).ok());
    }
  }
  GcStats gc;
  ASSERT_TRUE(
      table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_, &gc).ok());
  EXPECT_GT(gc.versions_discarded, 0u);

  auto t = Begin();
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(ReadIn(t.get(), vids[i]).value_or(""),
              Numbered("r5-", i))
        << "item " << i;
  }
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, GcRespectsOldSnapshots) {
  Vid vid = InsertCommitted("ancient");
  auto old_reader = Begin();  // holds the horizon back
  for (int i = 0; i < 5; ++i) {
    auto t = Begin();
    ASSERT_TRUE(table_->Update(t.get(), vid, Slice("new")).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  GcStats gc;
  ASSERT_TRUE(
      table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_, &gc).ok());
  // The old reader must still see its version.
  EXPECT_EQ(ReadIn(old_reader.get(), vid).value_or(""), "ancient");
  ASSERT_TRUE(Commit(old_reader.get()).ok());
}

TEST_P(MvccSchemeTest, GcRemovesTombstonedItems) {
  Vid vid = InsertCommitted("die");
  {
    auto t = Begin();
    ASSERT_TRUE(table_->Delete(t.get(), vid).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  GcStats gc;
  ASSERT_TRUE(
      table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_, &gc).ok());
  EXPECT_GT(gc.versions_discarded, 0u);
  auto t = Begin();
  EXPECT_FALSE(ReadIn(t.get(), vid).has_value());
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, GcOfTombstonePageDoesNotResurrectOlderVersion) {
  // The deleted item's only data version shares a page with live items,
  // so that page is kept; the tombstone sits alone on a later page, which
  // GC reclaims. Dropping the tombstone must unpublish the item entirely.
  constexpr int kItems = 8;
  std::vector<Vid> vids;
  for (int i = 0; i < kItems; ++i) {
    vids.push_back(InsertCommitted(Numbered("v", i)));
  }
  GcStats gc;
  // Seals the open page, so the tombstone below lands on a fresh one.
  ASSERT_TRUE(
      table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_, &gc).ok());
  {
    auto t = Begin();
    ASSERT_TRUE(table_->Delete(t.get(), vids[0]).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(
        table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_, &gc).ok());
    auto t = Begin();
    EXPECT_FALSE(ReadIn(t.get(), vids[0]).has_value()) << "round " << round;
    for (int i = 1; i < kItems; ++i) {
      EXPECT_EQ(ReadIn(t.get(), vids[i]).value_or(""), Numbered("v", i));
    }
    ASSERT_TRUE(Commit(t.get()).ok());
  }
}

TEST_P(MvccSchemeTest, ConcurrentDisjointWritersAllSucceed) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::vector<Vid>> vids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      vids[t].push_back(InsertCommitted("init"));
    }
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      VirtualClock clk;
      for (int i = 0; i < kPerThread; ++i) {
        auto txn = env_->txns_.Begin(&clk);
        Status s =
            table_->Update(txn.get(), vids[t][i], Slice(Numbered("t", t)));
        if (s.ok()) {
          if (!env_->txns_.Commit(txn.get()).ok()) failures++;
        } else {
          failures++;
          (void)env_->txns_.Abort(txn.get());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto t = Begin();
  for (int th = 0; th < kThreads; ++th) {
    for (int i = 0; i < kPerThread; i += 7) {
      EXPECT_EQ(ReadIn(t.get(), vids[th][i]).value_or(""),
                Numbered("t", th));
    }
  }
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, ConcurrentContendedWritersSerialize) {
  Vid vid = InsertCommitted("contended");
  constexpr int kThreads = 4;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      VirtualClock clk;
      for (int i = 0; i < 25; ++i) {
        auto txn = env_->txns_.Begin(&clk);
        Status s = table_->Update(txn.get(), vid, Slice("w"));
        if (s.ok() && env_->txns_.Commit(txn.get()).ok()) {
          committed++;
        } else if (txn->state() == TxnState::kActive) {
          (void)env_->txns_.Abort(txn.get());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // At least some must commit; the item must end in a consistent state.
  EXPECT_GT(committed.load(), 0);
  auto t = Begin();
  EXPECT_EQ(ReadIn(t.get(), vid).value_or(""), "w");
  ASSERT_TRUE(Commit(t.get()).ok());
}

// "SIAS-V" -> "SIAS_V": gtest parameter names must be identifiers.
std::string SchemeName(const ::testing::TestParamInfo<VersionScheme>& info) {
  std::string n = ToString(info.param);
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MvccSchemeTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeName);

// ---------------------------------------------------------------------------
// Scheme-specific physical behaviour.
// ---------------------------------------------------------------------------

class PhysicalBehaviourTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = std::make_unique<TestEnv>(); }
  std::unique_ptr<TestEnv> env_;
  VirtualClock clk_;
};

TEST_F(PhysicalBehaviourTest, SiDirtiesOldPageSiasDoesNot) {
  // The paper's Figure 1 in miniature: after updates, SI must have dirtied
  // the page holding the OLD version (in-place xmax); SIAS must not.
  for (VersionScheme scheme :
       {VersionScheme::kSi, VersionScheme::kSiasChains}) {
    TestEnv env;
    auto table = env.MakeTable(scheme, 1);
    auto t0 = env.txns_.Begin(&clk_);
    auto vid = table->Insert(t0.get(), Slice("v0"));
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(env.txns_.Commit(t0.get()).ok());
    // Flush everything so all pages start clean.
    ASSERT_TRUE(env.pool_.FlushAll(&clk_).ok());
    size_t dirty_before = env.pool_.DirtyPages().size();
    ASSERT_EQ(dirty_before, 0u);

    auto t1 = env.txns_.Begin(&clk_);
    ASSERT_TRUE(table->Update(t1.get(), *vid, Slice("v1")).ok());
    ASSERT_TRUE(env.txns_.Commit(t1.get()).ok());

    size_t dirty_after = env.pool_.DirtyPages().size();
    TableStats ts = table->stats();
    if (scheme == VersionScheme::kSi) {
      // Old version's page stamped in place + new version placed: the heap
      // page(s) are dirty and an in-place invalidation was recorded.
      EXPECT_GE(ts.inplace_invalidations, 1u);
      EXPECT_GE(dirty_after, 1u);
    } else {
      // SIAS: only the append page is dirty; zero in-place invalidations.
      EXPECT_EQ(ts.inplace_invalidations, 0u);
      EXPECT_EQ(dirty_after, 1u);
    }
  }
}

TEST_F(PhysicalBehaviourTest, SiasChainsHaveCorrectStructure) {
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  auto t0 = env.txns_.Begin(&clk_);
  auto vid = table->Insert(t0.get(), Slice("v0"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(env.txns_.Commit(t0.get()).ok());
  for (int i = 1; i <= 4; ++i) {
    auto t = env.txns_.Begin(&clk_);
    ASSERT_TRUE(table->Update(t.get(), *vid, Slice(Numbered("v", i))).ok());
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  auto chain = table->ChainOf(*vid, &clk_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->size(), 5u);  // v4 -> v3 -> v2 -> v1 -> v0
  // Entrypoint is the newest version; creation timestamps strictly decrease
  // along the chain (chronological order invariant).
  Xid prev_xmin = ~0ull;
  for (Tid tid : *chain) {
    auto page = env.pool_.FetchPage(PageId{1, tid.page}, &clk_);
    ASSERT_TRUE(page.ok());
    page->LatchShared();
    TupleHeader h;
    ASSERT_TRUE(DecodeTupleHeader(page->page().GetTuple(tid.slot), &h));
    page->Unlatch();
    EXPECT_LT(h.xmin, prev_xmin);
    prev_xmin = h.xmin;
    EXPECT_EQ(h.vid, *vid);
    EXPECT_EQ(h.xmax, kInvalidXid);  // never stamped: no in-place invalidation
  }
}

TEST_F(PhysicalBehaviourTest, SiasVVectorTracksVersionsNewestFirst) {
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasV, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  auto t0 = env.txns_.Begin(&clk_);
  auto vid = table->Insert(t0.get(), Slice("v0"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(env.txns_.Commit(t0.get()).ok());
  for (int i = 1; i <= 3; ++i) {
    auto t = env.txns_.Begin(&clk_);
    ASSERT_TRUE(table->Update(t.get(), *vid, Slice(Numbered("v", i))).ok());
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  std::vector<Tid> vec = table->vid_map_v().Get(*vid);
  ASSERT_EQ(vec.size(), 4u);
  // Newest first: the entrypoint resolves to "v3".
  auto t = env.txns_.Begin(&clk_);
  auto row = table->Read(t.get(), *vid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->value_or(""), "v3");
  ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
}

TEST_F(PhysicalBehaviourTest, SiasCoLocatesRecentVersions) {
  // Versions created together land on the same append page (co-location),
  // while SI scatters them by free space.
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  std::vector<Vid> vids;
  auto t = env.txns_.Begin(&clk_);
  for (int i = 0; i < 20; ++i) {
    auto vid = table->Insert(t.get(), Slice("co-located-row"));
    ASSERT_TRUE(vid.ok());
    vids.push_back(*vid);
  }
  ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  std::set<PageNumber> pages;
  for (Vid v : vids) {
    pages.insert(table->vid_map().Get(v).page);
  }
  EXPECT_EQ(pages.size(), 1u);  // all 20 small rows fit one append page
}

TEST_F(PhysicalBehaviourTest, SiasVidMapScanTouchesFewerPagesThanFullScan) {
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  // 50 items, 10 update rounds => 550 versions over many pages, only 50 live.
  std::vector<Vid> vids;
  for (int i = 0; i < 50; ++i) {
    auto t = env.txns_.Begin(&clk_);
    auto vid = table->Insert(t.get(), Slice(std::string(300, 'x')));
    ASSERT_TRUE(vid.ok());
    vids.push_back(*vid);
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  for (int round = 0; round < 10; ++round) {
    for (Vid v : vids) {
      auto t = env.txns_.Begin(&clk_);
      ASSERT_TRUE(table->Update(t.get(), v, Slice(std::string(300, 'y'))).ok());
      ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
    }
  }
  auto t1 = env.txns_.Begin(&clk_);
  int vidmap_rows = 0, full_rows = 0;
  uint64_t misses_before = env.pool_.stats().misses;
  ASSERT_TRUE(table->Scan(t1.get(), [&](Vid, Slice) {
    vidmap_rows++;
    return true;
  }).ok());
  ASSERT_TRUE(table->FullRelationScan(t1.get(), [&](Vid, Slice) {
    full_rows++;
    return true;
  }).ok());
  (void)misses_before;
  EXPECT_EQ(vidmap_rows, 50);
  EXPECT_EQ(full_rows, 50);
  ASSERT_TRUE(env.txns_.Commit(t1.get()).ok());
}

TEST_F(PhysicalBehaviourTest, SiasGcReclaimsAndRecyclesPages) {
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  std::vector<Vid> vids;
  for (int i = 0; i < 30; ++i) {
    auto t = env.txns_.Begin(&clk_);
    auto vid = table->Insert(t.get(), Slice(std::string(200, 'a')));
    ASSERT_TRUE(vid.ok());
    vids.push_back(*vid);
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  for (int round = 0; round < 20; ++round) {
    for (Vid v : vids) {
      auto t = env.txns_.Begin(&clk_);
      ASSERT_TRUE(
          table->Update(t.get(), v, Slice(std::string(200, 'b'))).ok());
      ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
    }
  }
  GcStats gc;
  ASSERT_TRUE(table->GarbageCollect(env.txns_.GcHorizon(), &clk_, &gc).ok());
  EXPECT_GT(gc.pages_reclaimed, 0u);
  EXPECT_GT(gc.versions_discarded, 100u);

  // Recycled pages get reused by further appends.
  uint64_t recycled_before = table->append_stats().pages_recycled;
  for (int i = 0; i < 200; ++i) {
    auto t = env.txns_.Begin(&clk_);
    ASSERT_TRUE(
        table->Update(t.get(), vids[0], Slice(std::string(200, 'c'))).ok());
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  EXPECT_GT(table->append_stats().pages_recycled, recycled_before);

  // All data still correct.
  auto t = env.txns_.Begin(&clk_);
  auto row = table->Read(t.get(), vids[0]);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->value_or(""), std::string(200, 'c'));
  ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
}

// ---------------------------------------------------------------------------
// Golden read-path figures. A fixed history (updates, deletes, an old
// snapshot) on a 16-frame pool with device read latency; a Read loop and a
// Scan must advance the virtual clock and the traversal and buffer counters
// by exactly these amounts. Any change to the CPU charged per read, the pages
// a read fetches or the pool's victim choice moves one of them.
// ---------------------------------------------------------------------------

struct ReadFigures {
  VDuration clock = 0;
  int64_t visibility_checks = 0;
  int64_t version_hops = 0;
  int64_t read_misses = 0;
  uint64_t depth_count = 0;
  double depth_sum = 0;
  uint64_t buffer_misses = 0;
};

ReadFigures Capture(const VirtualClock& clk, const BufferPool& pool) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  Histogram depth = reg.GetHistogram("mvcc.traversal_depth")->Snapshot();
  return ReadFigures{clk.now(),
                     reg.GetCounter("mvcc.visibility_checks")->Value(),
                     reg.GetCounter("mvcc.version_hops")->Value(),
                     reg.GetCounter("mvcc.read_misses")->Value(),
                     depth.count(),
                     depth.Sum(),
                     pool.stats().misses};
}

void ExpectDelta(const ReadFigures& before, const ReadFigures& after,
                 const ReadFigures& want, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(after.clock - before.clock, want.clock);
  EXPECT_EQ(after.visibility_checks - before.visibility_checks,
            want.visibility_checks);
  EXPECT_EQ(after.version_hops - before.version_hops, want.version_hops);
  EXPECT_EQ(after.read_misses - before.read_misses, want.read_misses);
  EXPECT_EQ(after.depth_count - before.depth_count, want.depth_count);
  EXPECT_EQ(after.depth_sum - before.depth_sum, want.depth_sum);
  EXPECT_EQ(after.buffer_misses - before.buffer_misses, want.buffer_misses);
}

class ReadPathGoldenTest : public ::testing::TestWithParam<VersionScheme> {};

// Both schemes examine the same versions in the same order, so they share
// one set of figures.
TEST_P(ReadPathGoldenTest, ReadLoopAndScanFigures) {
  TestEnv env(/*pool_frames=*/16, /*with_wal=*/true, /*lock_timeout_ms=*/200,
              /*read_latency=*/50'000);
  auto table = env.MakeTable(GetParam(), /*relation=*/1);
  VirtualClock clk;

  // 200 items of 400 bytes (~11 pages), 10 more after the old snapshot,
  // then four rounds that each update a third of the items with 400-byte
  // rows and delete a tenth of them: ~24 heap pages.
  constexpr int kItems = 200;
  std::vector<Vid> vids;
  {
    auto t = env.txns_.Begin(&clk);
    for (int i = 0; i < kItems; ++i) {
      auto vid = table->Insert(t.get(), Slice(std::string(400, 'a' + i % 26)));
      ASSERT_TRUE(vid.ok());
      vids.push_back(*vid);
    }
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  auto old_snap = env.txns_.Begin(&clk);
  // Items the old snapshot cannot see at all: its read misses.
  constexpr int kLate = 10;
  {
    auto t = env.txns_.Begin(&clk);
    for (int i = 0; i < kLate; ++i) {
      auto vid = table->Insert(t.get(), Slice(std::string(400, 'z')));
      ASSERT_TRUE(vid.ok());
      vids.push_back(*vid);
    }
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  std::vector<bool> deleted(kItems, false);
  for (int round = 0; round < 4; ++round) {
    auto t = env.txns_.Begin(&clk);
    for (int i = 0; i < kItems; ++i) {
      if (deleted[i]) continue;
      if (i % 10 == round) {
        ASSERT_TRUE(table->Delete(t.get(), vids[i]).ok());
        deleted[i] = true;
      } else if ((i + round) % 3 == 0) {
        ASSERT_TRUE(table
                        ->Update(t.get(), vids[i],
                                 Slice(std::string(400, 'A' + round)))
                        .ok());
      }
    }
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  auto fresh = env.txns_.Begin(&clk);

  {
    const ReadFigures before = Capture(clk, env.pool_);
    // A strided order, so consecutive reads land on different pages.
    for (Transaction* reader : {old_snap.get(), fresh.get()}) {
      for (size_t i = 0; i < vids.size(); ++i) {
        ASSERT_TRUE(table->Read(reader, vids[(i * 37) % vids.size()]).ok());
      }
    }
    ExpectDelta(before, Capture(clk, env.pool_),
                ReadFigures{7'313'300, 700, 80, 10, 420, 700, 144},
                "read loop");
  }
  {
    const ReadFigures before = Capture(clk, env.pool_);
    size_t rows = 0;
    for (Transaction* reader : {old_snap.get(), fresh.get()}) {
      ASSERT_TRUE(table
                      ->Scan(reader,
                             [&](Vid, Slice) {
                               rows++;
                               return true;
                             })
                      .ok());
    }
    EXPECT_EQ(rows, size_t{kItems} + kItems + kLate - kItems * 4 / 10);
    ExpectDelta(before, Capture(clk, env.pool_),
                ReadFigures{513'300, 700, 80, 10, 420, 700, 8}, "scan");
  }
  ASSERT_TRUE(env.txns_.Commit(old_snap.get()).ok());
  ASSERT_TRUE(env.txns_.Commit(fresh.get()).ok());
}

// An index-entry read runs Read's walk and takes its dead-item verdict from
// the entrypoint header the walk holds anyway. On the same history it costs
// exactly what Read costs: clock, version checks and page misses.
TEST_P(ReadPathGoldenTest, IndexEntryReadCostsWhatReadCosts) {
  constexpr int kItems = 200;
  constexpr int kRounds = 3;
  // Builds the history on a fresh engine and resolves every item under an
  // old snapshot, then under one begun after it ended. Returns the figures
  // the resolutions moved; `dead` counts the items judged dead.
  auto run = [](bool index_entry, int* dead) {
    TestEnv env(/*pool_frames=*/16, /*with_wal=*/true,
                /*lock_timeout_ms=*/200, /*read_latency=*/50'000);
    auto table = env.MakeTable(GetParam(), /*relation=*/1);
    VirtualClock clk;
    std::vector<Vid> vids;
    {
      auto t = env.txns_.Begin(&clk);
      for (int i = 0; i < kItems; ++i) {
        auto vid = table->Insert(t.get(), Slice(std::string(400, 'a')));
        EXPECT_TRUE(vid.ok());
        vids.push_back(*vid);
      }
      EXPECT_TRUE(env.txns_.Commit(t.get()).ok());
    }
    auto old_snap = env.txns_.Begin(&clk);
    for (int round = 0; round < kRounds; ++round) {
      auto t = env.txns_.Begin(&clk);
      for (int i = 0; i < kItems; ++i) {
        if (i % 10 == round) {
          EXPECT_TRUE(table->Delete(t.get(), vids[i]).ok());
        } else if (i % 10 >= kRounds && (i + round) % 3 == 0) {
          EXPECT_TRUE(
              table->Update(t.get(), vids[i], Slice(std::string(400, 'b')))
                  .ok());
        }
      }
      EXPECT_TRUE(env.txns_.Commit(t.get()).ok());
    }
    auto resolve_all = [&](Transaction* reader) {
      for (size_t i = 0; i < vids.size(); ++i) {
        Vid vid = vids[(i * 37) % vids.size()];
        if (index_entry) {
          ProbeHorizon horizon;
          IndexEntryRead read;
          EXPECT_TRUE(table->ReadIndexEntry(reader, vid, &horizon, &read).ok());
          *dead += read.dead ? 1 : 0;
        } else {
          EXPECT_TRUE(table->Read(reader, vid).ok());
        }
      }
    };
    const ReadFigures before = Capture(clk, env.pool_);
    resolve_all(old_snap.get());
    EXPECT_TRUE(env.txns_.Commit(old_snap.get()).ok());
    // A snapshot begun now sees the deletes below the GC horizon.
    auto fresh = env.txns_.Begin(&clk);
    resolve_all(fresh.get());
    const ReadFigures after = Capture(clk, env.pool_);
    EXPECT_TRUE(env.txns_.Commit(fresh.get()).ok());
    return ReadFigures{after.clock - before.clock,
                       after.visibility_checks - before.visibility_checks,
                       after.version_hops - before.version_hops,
                       after.read_misses - before.read_misses,
                       after.depth_count - before.depth_count,
                       after.depth_sum - before.depth_sum,
                       after.buffer_misses - before.buffer_misses};
  };
  int dead = 0;
  const ReadFigures read = run(/*index_entry=*/false, &dead);
  const ReadFigures entry = run(/*index_entry=*/true, &dead);
  ExpectDelta(ReadFigures{}, entry, read, "index-entry reads vs reads");
  EXPECT_GT(read.buffer_misses, 0u);
  // Only the fresh snapshot sees the deletes below the horizon.
  EXPECT_EQ(dead, kRounds * kItems / 10);
}

// mvcc.read_latch_acquisitions counts version fetches that miss the
// latch-free probe, batched reads included: zero over a warm pool, rising on
// a cold one.
class ReadLatchCounterTest : public ::testing::TestWithParam<VersionScheme> {};

TEST_P(ReadLatchCounterTest, BatchedReadsCountProbeMisses) {
  obs::Counter* fallbacks = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.read_latch_acquisitions");
  for (bool warm : {true, false}) {
    SCOPED_TRACE(warm ? "warm pool" : "cold pool");
    // 200 rows of 1000 bytes fill ~29 pages.
    TestEnv env(/*pool_frames=*/warm ? 256 : 16);
    auto table = env.MakeTable(GetParam(), /*relation=*/1);
    VirtualClock clk;
    std::vector<Vid> vids;
    auto t = env.txns_.Begin(&clk);
    for (int i = 0; i < 200; ++i) {
      auto vid = table->Insert(t.get(), Slice(std::string(1000, 'v')));
      ASSERT_TRUE(vid.ok());
      vids.push_back(*vid);
    }
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
    auto reader = env.txns_.Begin(&clk);
    std::vector<std::optional<std::string>> rows;
    if (warm) {  // a first pass leaves every page resident
      ASSERT_TRUE(table->ReadMulti(reader.get(), vids, 4, &rows).ok());
    }
    const int64_t before = fallbacks->Value();
    ASSERT_TRUE(table->ReadMulti(reader.get(), vids, 4, &rows).ok());
    if (warm) {
      EXPECT_EQ(fallbacks->Value(), before);
    } else {
      EXPECT_GT(fallbacks->Value(), before);
    }
    ASSERT_TRUE(env.txns_.Commit(reader.get()).ok());
  }
}

// ---------------------------------------------------------------------------
// Vacuum's per-page garbage hint. After every pass, each hinted page's tuple
// count must equal its occupied slots, and its dead bound must cover every
// version a full classification would discard now; otherwise a page the
// hint lets vacuum skip could hide a relocation. The seeded history mixes
// inserts, updates, deletes and aborted writes under a long-lived
// snapshot, so relocations and (SIAS-V) mid-vector reclamation happen.
// ---------------------------------------------------------------------------

class GcHintTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    owned_ = env_.MakeTable(GetParam(), /*relation=*/1);
    table_ = static_cast<SiasTable*>(owned_.get());
  }

  /// Occupied slots of every page, in page order.
  std::vector<size_t> Occupied() {
    std::vector<size_t> out;
    auto pages = env_.disk_.PageCount(1);
    EXPECT_TRUE(pages.ok());
    for (PageNumber p = 0; p < *pages; ++p) {
      auto c = table_->ClassifyPageForTest(p, env_.txns_.GcHorizon());
      EXPECT_TRUE(c.ok());
      out.push_back(c->first);
    }
    return out;
  }

  /// Checks every hinted page against a full classification now.
  void ExpectSoundHints(int pass) {
    const Xid horizon = env_.txns_.GcHorizon();
    auto pages = env_.disk_.PageCount(1);
    ASSERT_TRUE(pages.ok());
    for (PageNumber p = 0; p < *pages; ++p) {
      auto hint = table_->region().GcHintForTest(p);
      if (!hint.has_value()) continue;
      auto c = table_->ClassifyPageForTest(p, horizon);
      ASSERT_TRUE(c.ok());
      const auto [occupied, dead] = *c;
      ASSERT_EQ(hint->tuples, occupied) << "page " << p << ", pass " << pass;
      ASSERT_GE(hint->dead_bound, dead) << "page " << p << ", pass " << pass;
    }
  }

  Status Vacuum(GcStats* gc) {
    return table_->GarbageCollect(env_.txns_.GcHorizon(), &clk_, gc);
  }

  TestEnv env_;
  std::unique_ptr<MvccTable> owned_;
  SiasTable* table_ = nullptr;
  VirtualClock clk_;
};

TEST_P(GcHintTest, HintCountsTuplesAndBoundsDeadVersions) {
  Random rng(20260611);
  // Live items and their last committed value.
  std::vector<Vid> items;
  std::unordered_map<Vid, std::string> value;
  // Per live item: versions its vector must keep while `old` holds the
  // horizon back, unless mid-vector reclamation drops the middle ones (the
  // version `old` sees, or the insert, plus one per later update).
  std::unordered_map<Vid, size_t> unshadowed;
  std::unique_ptr<Transaction> old;
  GcStats total;
  bool mid_vector = false;

  for (int pass = 0; pass < 40; ++pass) {
    for (int op = 0; op < 120; ++op) {
      auto t = env_.txns_.Begin(&clk_);
      const uint64_t dice = rng.Uniform(0, 99);
      const bool abort = dice >= 90;
      std::string row = Numbered(std::string(120, 'r'), pass * 1000 + op);
      if (items.size() < 60 || dice < 12 || (dice >= 90 && dice < 94)) {
        auto vid = table_->Insert(t.get(), Slice(row));
        ASSERT_TRUE(vid.ok());
        if (!abort) {
          items.push_back(*vid);
          value[*vid] = row;
          unshadowed[*vid] = 1;
        }
      } else {
        const size_t i = rng.Uniform(0, items.size() - 1);
        const Vid v = items[i];
        if (dice < 20 || dice >= 97) {
          ASSERT_TRUE(table_->Delete(t.get(), v).ok());
          if (!abort) {
            items[i] = items.back();
            items.pop_back();
            value.erase(v);
            unshadowed.erase(v);
          }
        } else {
          ASSERT_TRUE(table_->Update(t.get(), v, Slice(row)).ok());
          if (!abort) {
            value[v] = row;
            unshadowed[v]++;
          }
        }
      }
      ASSERT_TRUE((abort ? env_.txns_.Abort(t.get())
                         : env_.txns_.Commit(t.get()))
                      .ok());
    }
    if (pass % 6 == 0) {
      if (old != nullptr) {
        ASSERT_TRUE(env_.txns_.Commit(old.get()).ok());
      }
      old = env_.txns_.Begin(&clk_);
      for (auto& [v, n] : unshadowed) n = 1;
    }

    GcStats gc;
    ASSERT_TRUE(Vacuum(&gc).ok());
    total.pages_examined += gc.pages_examined;
    total.pages_skipped += gc.pages_skipped;
    total.pages_classified += gc.pages_classified;
    total.pages_reclaimed += gc.pages_reclaimed;
    total.versions_relocated += gc.versions_relocated;
    ExpectSoundHints(pass);
    if (HasFatalFailure()) return;
    if (GetParam() == VersionScheme::kSiasV) {
      for (const auto& [v, n] : unshadowed) {
        auto chain = table_->ChainOf(v, &clk_);
        ASSERT_TRUE(chain.ok());
        if (chain->size() < n) mid_vector = true;
      }
    }
  }
  if (old != nullptr) {
    ASSERT_TRUE(env_.txns_.Commit(old.get()).ok());
  }

  EXPECT_GT(total.pages_reclaimed, 0u);
  EXPECT_GT(total.versions_relocated, 0u);
  if (GetParam() == VersionScheme::kSiasV) {
    EXPECT_TRUE(mid_vector);
  }
  // The hint skipped pages, and vacuum still classified some.
  EXPECT_GT(total.pages_classified, 0u);
  EXPECT_GT(total.pages_skipped, 0u);

  auto t = env_.txns_.Begin(&clk_);
  for (const auto& [v, row] : value) {
    auto r = table_->Read(t.get(), v);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value_or("<none>"), row) << "vid " << v;
  }
  ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
}

// Relocation moves live versions to a fresh page. Those already superseded
// (kept for an old snapshot) and those whose creator is still running must
// count on their new page: nothing bumps it when they die later.
TEST_P(GcHintTest, RelocatedVersionsKeepTheirBound) {
  const std::string row(60, 'r');
  auto insert_committed = [&] {
    auto t = env_.txns_.Begin(&clk_);
    auto vid = table_->Insert(t.get(), Slice(row));
    EXPECT_TRUE(vid.ok());
    EXPECT_TRUE(env_.txns_.Commit(t.get()).ok());
    return *vid;
  };
  auto update_committed = [&](Vid v) {
    auto t = env_.txns_.Begin(&clk_);
    ASSERT_TRUE(table_->Update(t.get(), v, Slice(row)).ok());
    ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
  };
  // Page 0: 10 items updated after the old snapshot begins, 45 aborted
  // inserts, and one insert still in flight.
  std::vector<Vid> kept;
  for (int i = 0; i < 10; ++i) kept.push_back(insert_committed());
  for (int i = 0; i < 45; ++i) {
    auto t = env_.txns_.Begin(&clk_);
    ASSERT_TRUE(table_->Insert(t.get(), Slice(row)).ok());
    ASSERT_TRUE(env_.txns_.Abort(t.get()).ok());
  }
  auto writer = env_.txns_.Begin(&clk_);
  ASSERT_TRUE(table_->Insert(writer.get(), Slice(row)).ok());
  ASSERT_EQ(Occupied(), std::vector<size_t>{56});
  table_->region().SealOpenPage();
  auto old = env_.txns_.Begin(&clk_);
  for (Vid v : kept) update_committed(v);

  // Page 0 is over three quarters dead: its 10 superseded versions that
  // `old` still sees and the in-flight insert move to a fresh page.
  GcStats gc;
  ASSERT_TRUE(Vacuum(&gc).ok());
  ASSERT_EQ(gc.pages_reclaimed, 1u);
  ASSERT_EQ(gc.versions_relocated, 11u);
  ExpectSoundHints(1);
  // Live rows fill the fresh page, so the next pass will skip it; then the
  // relocated versions die without a bump of that page.
  for (int i = 0; i < 30; ++i) insert_committed();
  ASSERT_TRUE(env_.txns_.Abort(writer.get()).ok());
  ASSERT_TRUE(env_.txns_.Commit(old.get()).ok());
  ASSERT_TRUE(Vacuum(&gc).ok());
  ExpectSoundHints(2);
}

// A page vacuum classifies but does not reclaim stays as it is on the
// device: killing its dead slots in place would rewrite a sealed page and
// free no appendable space.
TEST_P(GcHintTest, VacuumNeverRewritesAPageItKeeps) {
  const std::string row(60, 'r');
  std::vector<Vid> items;
  for (int i = 0; i < 40; ++i) {
    auto t = env_.txns_.Begin(&clk_);
    auto vid = table_->Insert(t.get(), Slice(row));
    ASSERT_TRUE(vid.ok());
    items.push_back(*vid);
    ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
  }
  ASSERT_EQ(Occupied(), std::vector<size_t>{40});
  table_->region().SealOpenPage();
  auto update = [&](Vid v) {
    auto t = env_.txns_.Begin(&clk_);
    ASSERT_TRUE(table_->Update(t.get(), v, Slice(row)).ok());
    ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
  };
  // 24 versions die now and 8 stay visible to `old`: 16 of page 0's 40
  // versions are live, too many to relocate, and the 32 bumps make the
  // hint ask for a classification.
  for (int i = 0; i < 24; ++i) update(items[i]);
  auto old = env_.txns_.Begin(&clk_);
  for (int i = 24; i < 32; ++i) update(items[i]);
  ASSERT_TRUE(env_.pool_.FlushAll(&clk_).ok());

  GcStats gc;
  ASSERT_TRUE(Vacuum(&gc).ok());
  EXPECT_GE(gc.pages_classified, 1u);
  EXPECT_EQ(gc.pages_reclaimed, 0u);
  EXPECT_EQ(gc.versions_discarded, 0u);
  EXPECT_EQ(Occupied()[0], 40u);
  for (const PageId& id : env_.pool_.DirtyPages()) {
    EXPECT_FALSE(id.relation == 1 && id.page == 0) << "page 0 was rewritten";
  }
  ExpectSoundHints(1);
  ASSERT_TRUE(env_.txns_.Commit(old.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(SiasSchemes, GcHintTest,
                         ::testing::Values(VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeName);
INSTANTIATE_TEST_SUITE_P(SiasSchemes, ReadPathGoldenTest,
                         ::testing::Values(VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeName);
INSTANTIATE_TEST_SUITE_P(SiasSchemes, ReadLatchCounterTest,
                         ::testing::Values(VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         SchemeName);

}  // namespace
}  // namespace sias

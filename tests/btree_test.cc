// B+-tree tests: ordering, splits across multiple levels, duplicates,
// deletes, range scans, persistence through the buffer pool and randomized
// property checks against a reference model.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "device/mem_device.h"
#include "index/btree.h"
#include "index/key_codec.h"

namespace sias {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest()
      : device_(1ull << 30), disk_(&device_), pool_(&disk_, 512) {
    EXPECT_TRUE(disk_.CreateRelation(1).ok());
    tree_ = std::make_unique<BTree>(1, &pool_);
    EXPECT_TRUE(tree_->Create(&clk_).ok());
  }

  MemDevice device_;
  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<BTree> tree_;
  VirtualClock clk_;
};

TEST_F(BTreeTest, EmptyLookup) {
  auto r = tree_->Lookup(IntKey(42), &clk_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(tree_->size(), 0u);
}

TEST_F(BTreeTest, InsertAndLookup) {
  ASSERT_TRUE(tree_->Insert(IntKey(5), 500, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(3), 300, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(7), 700, &clk_).ok());
  auto r = tree_->Lookup(IntKey(3), &clk_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], 300u);
  EXPECT_EQ(tree_->size(), 3u);
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
}

TEST_F(BTreeTest, DuplicateKeysAllValuesReturned) {
  for (uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(tree_->Insert(IntKey(9), v * 10, &clk_).ok());
  }
  auto r = tree_->Lookup(IntKey(9), &clk_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
  EXPECT_EQ(std::set<uint64_t>(r->begin(), r->end()),
            (std::set<uint64_t>{10, 20, 30, 40, 50}));
}

TEST_F(BTreeTest, ExactPairInsertIsIdempotent) {
  ASSERT_TRUE(tree_->Insert(IntKey(1), 11, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(1), 11, &clk_).ok());
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BTreeTest, DeleteExactPair) {
  ASSERT_TRUE(tree_->Insert(IntKey(1), 11, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(1), 12, &clk_).ok());
  ASSERT_TRUE(tree_->Delete(IntKey(1), 11, &clk_).ok());
  auto r = tree_->Lookup(IntKey(1), &clk_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], 12u);
  EXPECT_TRUE(tree_->Delete(IntKey(1), 11, &clk_).IsNotFound());
  EXPECT_TRUE(tree_->Delete(IntKey(99), 1, &clk_).IsNotFound());
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  // Enough sequential entries to force multiple leaf and internal splits.
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), static_cast<uint64_t>(i), &clk_).ok());
  }
  EXPECT_EQ(tree_->size(), static_cast<uint64_t>(kN));
  EXPECT_GE(tree_->height(), 2u);
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
  for (int i = 0; i < kN; i += 101) {
    auto r = tree_->Lookup(IntKey(i), &clk_);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 1u) << i;
    EXPECT_EQ((*r)[0], static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, ReverseInsertionOrder) {
  constexpr int kN = 2000;
  for (int i = kN - 1; i >= 0; --i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), static_cast<uint64_t>(i), &clk_).ok());
  }
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
  int count = 0;
  int expect = 0;
  ASSERT_TRUE(tree_
                  ->Range(IntKey(0), Slice(), &clk_,
                          [&](Slice, uint64_t v) {
                            EXPECT_EQ(v, static_cast<uint64_t>(expect++));
                            count++;
                            return true;
                          })
                  .ok());
  EXPECT_EQ(count, kN);
}

TEST_F(BTreeTest, RangeScanBounds) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), static_cast<uint64_t>(i), &clk_).ok());
  }
  std::vector<uint64_t> got;
  ASSERT_TRUE(tree_
                  ->Range(IntKey(10), IntKey(20), &clk_,
                          [&](Slice, uint64_t v) {
                            got.push_back(v);
                            return true;
                          })
                  .ok());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 10u);
  EXPECT_EQ(got.back(), 19u);
}

TEST_F(BTreeTest, RangeEarlyStop) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), static_cast<uint64_t>(i), &clk_).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_->Range(IntKey(0), Slice(), &clk_, [&](Slice, uint64_t) {
    return ++count < 5;
  }).ok());
  EXPECT_EQ(count, 5);
}

TEST_F(BTreeTest, CompositeStringKeysOrderCorrectly) {
  auto key = [](int w, const std::string& last) {
    return KeyBuilder().AddInt(w).AddString(last).Take();
  };
  ASSERT_TRUE(tree_->Insert(key(1, "SMITH"), 1, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(key(1, "SMITHSON"), 2, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(key(2, "ADAMS"), 3, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(key(1, "ADAMS"), 4, &clk_).ok());
  std::vector<uint64_t> order;
  ASSERT_TRUE(tree_->Range(key(1, ""), Slice(), &clk_,
                           [&](Slice, uint64_t v) {
                             order.push_back(v);
                             return true;
                           })
                  .ok());
  // (1,ADAMS) < (1,SMITH) < (1,SMITHSON) < (2,ADAMS)
  EXPECT_EQ(order, (std::vector<uint64_t>{4, 1, 2, 3}));
  // Exact lookup does not confuse SMITH with SMITHSON.
  auto r = tree_->Lookup(key(1, "SMITH"), &clk_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], 1u);
}

TEST_F(BTreeTest, KeyTooLongRejected) {
  std::string long_key(BTree::kMaxKeyLen + 1, 'k');
  EXPECT_FALSE(tree_->Insert(Slice(long_key), 1, &clk_).ok());
}

TEST_F(BTreeTest, ManyDuplicatesAcrossLeafSplits) {
  // 1000 entries under ten keys forces duplicate runs to span leaves.
  for (int k = 0; k < 10; ++k) {
    for (uint64_t v = 0; v < 100; ++v) {
      ASSERT_TRUE(tree_->Insert(IntKey(k), k * 1000 + v, &clk_).ok());
    }
  }
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
  for (int k = 0; k < 10; ++k) {
    auto r = tree_->Lookup(IntKey(k), &clk_);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 100u) << "key " << k;
  }
}

// Golden figures for the sync read entries: a fixed set of Range/Lookup
// calls on a 16-frame pool with read latency must advance the clock and the
// pool's miss and eviction counts by exactly these amounts. Which leaf stays
// pinned while the next one is fetched steers the pool's victim choice, so a
// change to the leaf walk's pin order moves these figures.
TEST(BTreeGoldenTest, RangeAndLookupFigures) {
  MemDevice device(1ull << 30, /*read_latency=*/50'000,
                   /*write_latency=*/50'000);
  DiskManager disk(&device);
  ASSERT_TRUE(disk.CreateRelation(1).ok());
  BufferPool pool(&disk, 16);
  BTree tree(1, &pool);
  VirtualClock clk;
  ASSERT_TRUE(tree.Create(&clk).ok());
  for (int64_t k = 0; k < 4000; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k * 2), k, &clk).ok());
    if (k % 13 == 0) {  // duplicate runs
      for (uint64_t d = 1; d <= 3; ++d) {
        ASSERT_TRUE(tree.Insert(IntKey(k * 2), k + d * 100000, &clk).ok());
      }
    }
  }
  ASSERT_GE(tree.height(), 2u);

  const VTime start = clk.now();
  const BufferPoolStats before = pool.stats();
  size_t entries = 0;
  for (int64_t lo : {0, 3100, 7000, 1500, 5200, 100}) {
    ASSERT_TRUE(tree.Range(IntKey(lo), IntKey(lo + 900), &clk,
                           [&](Slice, uint64_t) {
                             entries++;
                             return true;
                           })
                    .ok());
  }
  for (int64_t k = 0; k < 8000; k += 97) {
    auto r = tree.Lookup(IntKey(k), &clk);
    ASSERT_TRUE(r.ok());
    entries += r->size();
  }
  const BufferPoolStats after = pool.stats();
  EXPECT_EQ(entries, 3378u);
  EXPECT_EQ(clk.now() - start, 5'800'000);
  EXPECT_EQ(after.misses - before.misses, 114u);
  EXPECT_EQ(after.evictions - before.evictions, 114u);
}

// Randomized model check, parameterized over operation mixes.
class BTreeRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BTreeRandomTest, MatchesReferenceModel) {
  auto [seed, ops] = GetParam();
  MemDevice device(1ull << 30);
  DiskManager disk(&device);
  ASSERT_TRUE(disk.CreateRelation(1).ok());
  BufferPool pool(&disk, 256);
  BTree tree(1, &pool);
  VirtualClock clk;
  ASSERT_TRUE(tree.Create(&clk).ok());

  Random rng(seed);
  std::set<std::pair<int64_t, uint64_t>> model;
  for (int i = 0; i < ops; ++i) {
    int64_t k = rng.UniformInt(0, 300);
    uint64_t v = rng.Uniform(0, 3);
    if (rng.OneIn(3) && !model.empty()) {
      // Delete a random existing pair half the time, a random pair else.
      if (rng.OneIn(2)) {
        auto it = model.lower_bound({k, v});
        if (it == model.end()) it = model.begin();
        ASSERT_TRUE(tree.Delete(IntKey(it->first), it->second, &clk).ok());
        model.erase(it);
      } else {
        Status s = tree.Delete(IntKey(k), v, &clk);
        bool existed = model.erase({k, v}) > 0;
        EXPECT_EQ(s.ok(), existed);
      }
    } else {
      ASSERT_TRUE(tree.Insert(IntKey(k), v, &clk).ok());
      model.insert({k, v});
    }
  }
  ASSERT_TRUE(tree.CheckInvariants(&clk).ok());
  EXPECT_EQ(tree.size(), model.size());
  // Full scan must equal the model exactly.
  std::vector<std::pair<std::string, uint64_t>> scanned;
  ASSERT_TRUE(tree.Range(IntKey(-1000), Slice(), &clk,
                         [&](Slice key, uint64_t v) {
                           scanned.emplace_back(key.ToString(), v);
                           return true;
                         })
                  .ok());
  ASSERT_EQ(scanned.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(scanned[i].first, IntKey(k));
    EXPECT_EQ(scanned[i].second, v);
    i++;
  }
}

INSTANTIATE_TEST_SUITE_P(Mixes, BTreeRandomTest,
                         ::testing::Values(std::make_tuple(1, 500),
                                           std::make_tuple(2, 2000),
                                           std::make_tuple(3, 5000),
                                           std::make_tuple(4, 8000)));

// The scan tests' reference: the distinct <key, value> pairs inserted
// (the tree deduplicates exact pairs), in the tree's (key, value) order.
using PairSet = std::set<std::pair<std::string, uint64_t>>;
using Entries = std::vector<std::pair<std::string, uint64_t>>;

// The reference entries of one range: lo <= key < hi (empty hi =
// unbounded).
Entries ExpectedRange(const PairSet& model, const BTree::ScanRange& r) {
  Entries out;
  for (auto it = model.lower_bound({r.lo, 0}); it != model.end(); ++it) {
    if (!r.hi.empty() && it->first >= r.hi) break;
    out.push_back(*it);
  }
  return out;
}

std::vector<Entries> ScanAll(BTree* tree,
                             const std::vector<BTree::ScanRange>& ranges,
                             size_t io_depth, VirtualClock* clk) {
  std::vector<Entries> got(ranges.size());
  Status s = tree->ScanMulti(ranges, io_depth, clk,
                             [&](size_t r, Slice k, uint64_t v) {
                               got[r].emplace_back(k.ToString(), v);
                               return true;
                             });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return got;
}

// Oracle check for the batched resumable range scan: ScanMulti over random
// ranges must deliver, per range, exactly the inserted pairs in that range,
// in order — under a pool small enough that scans genuinely suspend on cold
// pages and overlap their reads.
TEST(BTreeScanMultiTest, MatchesInsertedPairs) {
  MemDevice device(1ull << 30);
  DiskManager disk(&device);
  ASSERT_TRUE(disk.CreateRelation(1).ok());
  // 32 frames vs a ~200-page tree: most leaf fetches miss.
  BufferPool pool(&disk, 32);
  BTree tree(1, &pool);
  VirtualClock clk;
  ASSERT_TRUE(tree.Create(&clk).ok());

  Random rng(7);
  PairSet model;
  for (int i = 0; i < 20000; ++i) {
    std::string key = IntKey(rng.UniformInt(0, 100000));
    uint64_t value = rng.Uniform(0, 4);
    ASSERT_TRUE(tree.Insert(Slice(key), value, &clk).ok());
    model.emplace(std::move(key), value);
  }

  std::vector<BTree::ScanRange> ranges;
  for (int i = 0; i < 40; ++i) {
    int64_t lo = rng.UniformInt(0, 100000);
    int64_t hi = lo + rng.UniformInt(0, 5000);
    BTree::ScanRange r;
    r.lo = IntKey(lo);
    r.hi = rng.OneIn(8) ? std::string() : IntKey(hi);  // some unbounded
    ranges.push_back(std::move(r));
  }
  std::vector<Entries> expected;
  for (const auto& r : ranges) expected.push_back(ExpectedRange(model, r));

  for (size_t io_depth : {1, 2, 4, 8}) {
    EXPECT_EQ(ScanAll(&tree, ranges, io_depth, &clk), expected)
        << "io_depth=" << io_depth;
  }

  // Early-stop: a callback returning false ends only that range's scan.
  std::vector<size_t> counts(ranges.size(), 0);
  ASSERT_TRUE(tree.ScanMulti(ranges, 4, &clk,
                             [&](size_t r, Slice, uint64_t) {
                               counts[r]++;
                               return counts[r] < 5;
                             })
                  .ok());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(counts[i], std::min<size_t>(expected[i].size(), 5));
  }
}

// Point ranges [key, key + "\0") hold exactly the entries of one key: the
// batched form of Lookup(). Covers duplicate runs spanning leaves, a key
// repeated in one batch and a guaranteed miss. A 16-frame pool under a
// multi-level tree forces cold-page suspends mid-descent, with read latency
// so in-flight fetches overlap.
TEST(BTreeScanMultiTest, PointRangesMatchInsertedPairs) {
  MemDevice device(1ull << 30, /*read_latency=*/50, /*write_latency=*/50);
  DiskManager disk(&device);
  ASSERT_TRUE(disk.CreateRelation(1).ok());
  BufferPool pool(&disk, 16);
  BTree tree(1, &pool);
  VirtualClock clk;
  ASSERT_TRUE(tree.Create(&clk).ok());
  PairSet model;
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k * 3), k, &clk).ok());
    model.emplace(IntKey(k * 3), k);
    if (k % 11 == 0) {  // duplicate runs
      ASSERT_TRUE(tree.Insert(IntKey(k * 3), k + 100000, &clk).ok());
      model.emplace(IntKey(k * 3), k + 100000);
    }
  }
  ASSERT_GE(tree.height(), 2u) << "the scans must descend through inner "
                                  "pages for suspends to occur";

  std::vector<BTree::ScanRange> ranges;
  auto add_point = [&](int64_t k) {
    BTree::ScanRange r;
    r.lo = IntKey(k);
    r.hi = r.lo + std::string(1, '\0');
    ranges.push_back(std::move(r));
  };
  for (int64_t k = 5990; k >= 0; k -= 7) add_point(k);
  add_point(3);       // repeated key
  add_point(999999);  // guaranteed miss

  std::vector<Entries> expected;
  for (const auto& r : ranges) expected.push_back(ExpectedRange(model, r));
  ASSERT_EQ(expected[ranges.size() - 2].size(), 1u);
  ASSERT_TRUE(expected.back().empty());

  for (size_t depth : {size_t{1}, size_t{4}, size_t{8}}) {
    EXPECT_EQ(ScanAll(&tree, ranges, depth, &clk), expected)
        << "depth=" << depth;
  }
  for (size_t i = 0; i < ranges.size(); ++i) {
    auto r = tree.Lookup(Slice(ranges[i].lo), &clk);
    ASSERT_TRUE(r.ok());
    std::vector<uint64_t> want;
    for (const auto& e : expected[i]) want.push_back(e.second);
    EXPECT_EQ(*r, want) << "slot " << i;
  }
}

}  // namespace
}  // namespace sias

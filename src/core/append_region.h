// Per-relation append region (the paper's LbSM in tuple granularity).
//
// Newly created tuple versions are appended to the relation's currently
// open page, which sits *sticky* in the buffer pool while it fills. Once
// full it is sealed (eviction-eligible, still dirty); a fresh page is
// opened. When the page actually reaches the device is decided by the
// flush-threshold policy (paper §5.2): t1 = background-writer pass,
// t2 = checkpoint piggyback. Pages freed by SIAS garbage collection are
// recycled before new pages are allocated.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/types.h"
#include "txn/transaction.h"
#include "wal/wal.h"

namespace sias {

struct AppendRegionStats {
  uint64_t versions_appended = 0;
  uint64_t pages_opened = 0;
  uint64_t pages_sealed = 0;
  uint64_t pages_recycled = 0;
};

/// GC's reclaim threshold: a page is relocated and recycled once at most a
/// quarter of its `slots` occupied slots hold live versions.
inline bool WorthRelocating(size_t live, size_t slots) {
  return live * 4 <= slots;
}

/// In-memory garbage hint of one append page, kept only for pages this
/// process opened: `tuples` is the number of occupied slots, and
/// `dead_bound` an upper bound on how many of those versions are or can
/// ever become dead without another bump (superseded, tombstone, aborted
/// or possibly aborting). GC needs to classify a page only when
/// tuples - dead_bound live versions would pass `WorthRelocating`; any
/// other page cannot reach the threshold.
struct PageGcHint {
  uint32_t tuples = 0;
  uint32_t dead_bound = 0;
};

/// Thread-safe tuple-version appender for one relation.
class AppendRegion {
 public:
  AppendRegion(RelationId relation, BufferPool* pool, WalWriter* wal)
      : relation_(relation), pool_(pool), wal_(wal) {}

  /// Appends an encoded tuple version; returns its TID. Logs a
  /// kHeapInsert WAL record with `aux` (the VID) when WAL is attached.
  /// In the same critical section it bumps the dead bound of `superseded`
  /// (the page of the version this one replaces, if any) and, when
  /// `born_dead`, of the new version's own page.
  Result<Tid> Append(Slice tuple, Xid xid, uint64_t aux, VirtualClock* clk,
                     PageNumber superseded = kInvalidPageNumber,
                     bool born_dead = false);

  /// Bumps the dead bound of `page` (an aborted version's page).
  void NoteDead(PageNumber page);

  /// False only if `page` has a hint that rules out `WorthRelocating`.
  bool MayNeedGc(PageNumber page) const;

  /// Replaces the hint of `page` with an exact classification.
  void SetGcHint(PageNumber page, PageGcHint hint);

  /// Drops the hint of a reclaimed page; reopening gives it a fresh one.
  void ForgetGcHint(PageNumber page);

  /// The hint of `page`, if it has one (tests).
  std::optional<PageGcHint> GcHintForTest(PageNumber page) const;

  /// Hands a GC-reclaimed page back for reuse.
  void AddFreePage(PageNumber page);

  /// Seals the open page (used before clean shutdown and at the start of
  /// every GC pass). Returns a mark for OpenedSince: every page opened
  /// after the seal compares newer than it.
  uint64_t SealOpenPage();

  /// True if `page` was opened (fresh or recycled) after `mark` was taken,
  /// i.e. it may be receiving appends that a GC pass must not touch.
  bool OpenedSince(PageNumber page, uint64_t mark) const;

  AppendRegionStats stats() const;

 private:
  Status OpenNewPageLocked(VirtualClock* clk) SIAS_REQUIRES(mu_);
  void BumpDeadLocked(PageNumber page) SIAS_REQUIRES(mu_);

  RelationId relation_;
  BufferPool* pool_;
  WalWriter* wal_;

  /// Rank kAppendRegion: held across the whole append (page fetch + latch +
  /// WAL), so it sits below kPage in the order.
  mutable Mutex mu_{LatchRank::kAppendRegion};
  PageNumber open_page_ SIAS_GUARDED_BY(mu_) = kInvalidPageNumber;
  std::deque<PageNumber> free_pages_ SIAS_GUARDED_BY(mu_);
  struct PageState {
    /// Value of stats_.pages_opened right after the page's latest open.
    uint64_t opened_at = 0;
    bool hinted = false;
    PageGcHint hint;
  };
  /// Indexed by page number.
  std::vector<PageState> pages_ SIAS_GUARDED_BY(mu_);
  AppendRegionStats stats_ SIAS_GUARDED_BY(mu_);
};

}  // namespace sias

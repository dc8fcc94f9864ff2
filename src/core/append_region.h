// Per-relation append region (the paper's LbSM in tuple granularity).
//
// Newly created tuple versions are appended to the relation's currently
// open page, which sits *sticky* in the buffer pool while it fills. Once
// full it is sealed (eviction-eligible, still dirty); a fresh page is
// opened. When the page actually reaches the device is decided by the
// flush-threshold policy (paper §5.2): t1 = background-writer pass,
// t2 = checkpoint piggyback. Pages freed by SIAS garbage collection are
// recycled before new pages are allocated.
//
// A reclaimed page costs one small WAL record (kPageReclaim), never a page
// write: its frame is dropped unwritten, the device trims it once the log
// is durable past the record, and recycling formats a fresh frame without
// reading the device. Every checkpoint logs the free list (kFreePages), so
// recovery rebuilds it from the log.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
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

  /// Frees a GC-reclaimed page (the epoch-deferred wipe): logs a
  /// kPageReclaim record, drops the page's frame without writing it and
  /// queues the page for its trim. The trim waits until the log is durable
  /// past the record — the inserts of the page's relocated versions come
  /// before it — and the page is recycled only after its trim. Without a
  /// WAL the trim is immediate.
  Status Reclaim(PageNumber page);

  /// True if `page` is free or awaiting its trim. Its device image is then
  /// a dead generation (or zeros), which scans and GC must skip.
  bool IsFree(PageNumber page) const;

  /// Free pages, trimmed ones first, in recycle order.
  std::vector<PageNumber> FreePages() const;

  /// Logs FreePages() in a kFreePages record. Checkpoints call it right
  /// after taking their redo LSN, so redo from there knows every free page.
  Status LogFreePages();

  /// Recovery: replaces the free list with `pages` (rebuilt from the log)
  /// and drops their frames. Pages at or past the relation's end are left
  /// out: growth allocates them again.
  void RestoreFreePages(const std::vector<PageNumber>& pages);

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
  /// Trims every queued page whose kPageReclaim record is durable and
  /// moves it to the free list.
  Status TrimDurableLocked() SIAS_REQUIRES(mu_);
  std::vector<PageNumber> FreePagesLocked() const SIAS_REQUIRES(mu_);

  RelationId relation_;
  BufferPool* pool_;
  WalWriter* wal_;

  /// Rank kAppendRegion: held across the whole append (page fetch + latch +
  /// WAL), so it sits below kPage in the order.
  mutable Mutex mu_{LatchRank::kAppendRegion};
  PageNumber open_page_ SIAS_GUARDED_BY(mu_) = kInvalidPageNumber;
  /// True while the open page is a recycled one that has not taken its
  /// first insert yet.
  bool open_recycled_ SIAS_GUARDED_BY(mu_) = false;
  /// Trimmed pages, ready for reuse.
  std::deque<PageNumber> free_pages_ SIAS_GUARDED_BY(mu_);
  /// Reclaimed pages and the LSN of their kPageReclaim record, awaiting
  /// the trim (see Reclaim).
  std::deque<std::pair<PageNumber, Lsn>> untrimmed_ SIAS_GUARDED_BY(mu_);
  struct PageState {
    /// Value of stats_.pages_opened right after the page's latest open.
    uint64_t opened_at = 0;
    bool hinted = false;
    /// On free_pages_ or untrimmed_.
    bool free = false;
    PageGcHint hint;
  };
  /// Indexed by page number.
  std::vector<PageState> pages_ SIAS_GUARDED_BY(mu_);
  AppendRegionStats stats_ SIAS_GUARDED_BY(mu_);
};

}  // namespace sias

#include "core/append_region.h"

#include "common/coding.h"
#include "common/logging.h"
#include "fault/crash_point.h"
#include "fault/debug_ring.h"
#include "storage/page.h"

namespace sias {

Status AppendRegion::OpenNewPageLocked(VirtualClock* clk) {
  // Seal the previous page: it stays dirty in the pool but becomes
  // eviction-eligible; the flush policy decides when it hits the device.
  SIAS_CRASH_POINT("region.pre_seal");
  if (open_page_ != kInvalidPageNumber) {
    (void)pool_->SetSticky(PageId{relation_, open_page_}, false);
    stats_.pages_sealed++;
  }
  SIAS_RETURN_NOT_OK(TrimDurableLocked());
  if (free_pages_.empty() && !untrimmed_.empty()) {
    // Reuse beats growth: one group-commit flush makes every queued
    // reclaim record durable, so those pages can be trimmed and reused.
    SIAS_RETURN_NOT_OK(wal_->FlushTo(untrimmed_.back().second, clk));
    SIAS_RETURN_NOT_OK(TrimDurableLocked());
  }
  // The guard keeps the new open page pinned until it is marked sticky, so
  // a concurrent eviction cannot snatch the frame in between.
  PageGuard guard;
  if (!free_pages_.empty()) {
    // Recycle a GC-reclaimed page. Its old generation is dead and trimmed,
    // so a fresh frame is formatted instead of reading the page back.
    PageNumber page = free_pages_.front();
    auto r = pool_->FormatPage(PageId{relation_, page}, clk,
                               kPageFlagAppendRegion);
    if (!r.ok()) return r.status();
    free_pages_.pop_front();
    guard = std::move(*r);
    fault::DebugRingLog("region_recycle", relation_, page);
    open_page_ = page;
    open_recycled_ = true;
    stats_.pages_recycled++;
  } else {
    auto r = pool_->NewPage(relation_, clk, kPageFlagAppendRegion);
    if (!r.ok()) return r.status();
    guard = std::move(*r);
    open_page_ = guard.id().page;
    open_recycled_ = false;
  }
  stats_.pages_opened++;
  if (pages_.size() <= open_page_) pages_.resize(open_page_ + 1);
  pages_[open_page_] = PageState{stats_.pages_opened, /*hinted=*/true,
                                 /*free=*/false, {}};
  SIAS_RETURN_NOT_OK(pool_->SetSticky(PageId{relation_, open_page_}, true));
  // The fresh open page exists only in memory until a flush policy persists
  // it; a cut here loses the page but not the WAL records that fill it.
  SIAS_CRASH_POINT("region.post_open");
  return Status::OK();
}

Result<Tid> AppendRegion::Append(Slice tuple, Xid xid, uint64_t aux,
                                 VirtualClock* clk, PageNumber superseded,
                                 bool born_dead) {
  MutexLock g(&mu_);
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (open_page_ == kInvalidPageNumber) {
      SIAS_RETURN_NOT_OK(OpenNewPageLocked(clk));
    }
    if (open_recycled_) {
      // A cut before the first insert of a recycled page: its old
      // generation is trimmed, and only the log says the page is free.
      open_recycled_ = false;
      SIAS_CRASH_POINT("gc.recycle.first_insert");
    }
    auto r = pool_->FetchPage(PageId{relation_, open_page_}, clk);
    if (!r.ok()) return r.status();
    PageGuard guard = std::move(*r);
    guard.LatchExclusive();
    SlottedPage page = guard.page();
    uint16_t slot = page.InsertTuple(tuple);
    if (slot == SlottedPage::kInvalidSlot) {
      guard.Unlatch();
      SIAS_RETURN_NOT_OK(OpenNewPageLocked(clk));
      continue;  // retry on the fresh page
    }
    Tid tid{open_page_, slot};
    PageGcHint& hint = pages_[open_page_].hint;
    hint.tuples++;
    if (born_dead) hint.dead_bound++;
    BumpDeadLocked(superseded);
    Lsn lsn = kInvalidLsn;
    if (wal_ != nullptr) {
      WalRecord rec;
      rec.type = WalRecordType::kHeapInsert;
      rec.xid = xid;
      rec.relation = relation_;
      rec.tid = tid;
      rec.aux = aux;
      rec.body.assign(reinterpret_cast<const char*>(tuple.data()),
                      tuple.size());
      auto lr = wal_->Append(rec);
      if (!lr.ok()) {
        if (!born_dead) hint.dead_bound++;  // the slot stays, unreferenced
        return lr.status();
      }
      lsn = *lr;
    }
    guard.MarkDirty(lsn);
    guard.Unlatch();
    stats_.versions_appended++;
    return tid;
  }
  return Status::Internal("tuple too large for an append page");
}

Status AppendRegion::Reclaim(PageNumber page) {
  // Recycle-after-epoch-drain invariant: GC reclaims a page only from its
  // epoch-deferred wipe callback, i.e. after every reader that could still
  // hold a stale pointer into the page has exited its epoch
  // (src/mvcc/epoch.h). Its frame can go and new appends may overwrite the
  // page without racing any latch-free reader.
  MutexLock g(&mu_);
  Lsn lsn = kInvalidLsn;
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecordType::kPageReclaim;
    rec.relation = relation_;
    rec.tid = Tid{page, 0};
    SIAS_ASSIGN_OR_RETURN(lsn, wal_->Append(rec));
    SIAS_CRASH_POINT("gc.reclaim.logged");
  }
  // Every version on the page is dead or relocated: drop the frame, dirty
  // or not, instead of writing an image nobody will read.
  pool_->DiscardPage(PageId{relation_, page});
  if (pages_.size() <= page) pages_.resize(page + 1);
  pages_[page].free = true;
  fault::DebugRingLog("gc_reclaim", relation_, page, lsn);
  untrimmed_.emplace_back(page, lsn);
  return TrimDurableLocked();
}

Status AppendRegion::TrimDurableLocked() {
  // WAL before trim: once the device forgets the old generation, only the
  // log says its versions moved, so the reclaim record must be durable.
  const Lsn durable = wal_ != nullptr ? wal_->flushed_lsn() : ~Lsn{0};
  while (!untrimmed_.empty() && untrimmed_.front().second <= durable) {
    const PageNumber page = untrimmed_.front().first;
    SIAS_CRASH_POINT("gc.reclaim.trim");
    // §6: GC is deterministic and engine-driven; hint the FTL that the old
    // physical blocks are dead so device GC need not relocate them
    // ("transfers yet more control over the Flash storage into the
    // MV-DBMS").
    auto offset = pool_->disk()->PageOffset(relation_, page);
    if (offset.ok()) {
      (void)pool_->disk()->device()->Trim(*offset, kPageSize);
    }
    untrimmed_.pop_front();
    free_pages_.push_back(page);
  }
  return Status::OK();
}

bool AppendRegion::IsFree(PageNumber page) const {
  MutexLock g(&mu_);
  return page < pages_.size() && pages_[page].free;
}

std::vector<PageNumber> AppendRegion::FreePagesLocked() const {
  std::vector<PageNumber> out(free_pages_.begin(), free_pages_.end());
  for (const auto& entry : untrimmed_) out.push_back(entry.first);
  return out;
}

std::vector<PageNumber> AppendRegion::FreePages() const {
  MutexLock g(&mu_);
  return FreePagesLocked();
}

Status AppendRegion::LogFreePages() {
  if (wal_ == nullptr) return Status::OK();
  // Under mu_, so no reclaim or recycle slips between the snapshot and
  // its place in the log.
  MutexLock g(&mu_);
  WalRecord rec;
  rec.type = WalRecordType::kFreePages;
  rec.relation = relation_;
  for (PageNumber page : FreePagesLocked()) PutFixed32(&rec.body, page);
  return wal_->Append(rec).status();
}

void AppendRegion::RestoreFreePages(const std::vector<PageNumber>& pages) {
  auto count = pool_->disk()->PageCount(relation_);
  MutexLock g(&mu_);
  for (PageState& st : pages_) st.free = false;
  free_pages_.clear();
  untrimmed_.clear();
  for (PageNumber page : pages) {
    if (!count.ok() || page >= *count) continue;
    pool_->DiscardPage(PageId{relation_, page});
    if (pages_.size() <= page) pages_.resize(page + 1);
    pages_[page].free = true;
    free_pages_.push_back(page);
  }
}

uint64_t AppendRegion::SealOpenPage() {
  MutexLock g(&mu_);
  if (open_page_ != kInvalidPageNumber) {
    (void)pool_->SetSticky(PageId{relation_, open_page_}, false);
    stats_.pages_sealed++;
    open_page_ = kInvalidPageNumber;
  }
  return stats_.pages_opened;
}

bool AppendRegion::OpenedSince(PageNumber page, uint64_t mark) const {
  MutexLock g(&mu_);
  return page < pages_.size() && pages_[page].opened_at > mark;
}

void AppendRegion::BumpDeadLocked(PageNumber page) {
  if (page < pages_.size() && pages_[page].hinted) {
    pages_[page].hint.dead_bound++;
  }
}

void AppendRegion::NoteDead(PageNumber page) {
  MutexLock g(&mu_);
  BumpDeadLocked(page);
}

bool AppendRegion::MayNeedGc(PageNumber page) const {
  MutexLock g(&mu_);
  if (page >= pages_.size() || !pages_[page].hinted) return true;
  const PageGcHint& hint = pages_[page].hint;
  const uint32_t min_live =
      hint.tuples > hint.dead_bound ? hint.tuples - hint.dead_bound : 0;
  return WorthRelocating(min_live, hint.tuples);
}

void AppendRegion::SetGcHint(PageNumber page, PageGcHint hint) {
  MutexLock g(&mu_);
  if (pages_.size() <= page) pages_.resize(page + 1);
  pages_[page].hinted = true;
  pages_[page].hint = hint;
}

void AppendRegion::ForgetGcHint(PageNumber page) {
  MutexLock g(&mu_);
  if (page < pages_.size()) pages_[page].hinted = false;
}

std::optional<PageGcHint> AppendRegion::GcHintForTest(PageNumber page) const {
  MutexLock g(&mu_);
  if (page >= pages_.size() || !pages_[page].hinted) return std::nullopt;
  return pages_[page].hint;
}

AppendRegionStats AppendRegion::stats() const {
  MutexLock g(&mu_);
  return stats_;
}

}  // namespace sias

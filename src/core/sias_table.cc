#include "core/sias_table.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "buffer/fetch_tasks.h"
#include "common/logging.h"
#include "mvcc/epoch.h"
#include "mvcc/visibility.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sias {

namespace {
/// Same metric names as SiHeap: the registry resolves both schemes onto the
/// shared mvcc.* counters, keeping bench comparisons apples-to-apples.
struct MvccCounters {
  obs::Counter* reads;
  obs::Counter* read_misses;
  /// Snapshot-read version fetches that missed the latch-free probe and
  /// fell back to the pool's mutex-guarded fetch (cold page, probe
  /// overflow, lost optimistic race). 0 on a warm read-only workload.
  obs::Counter* read_latch_acquisitions;
  obs::Counter* versions_appended;
  obs::Counter* version_hops;
  obs::Counter* visibility_checks;
  obs::Counter* ww_conflicts;
  obs::HistogramMetric* traversal_depth;
  obs::Counter* gc_pages_examined;
  obs::Counter* gc_pages_skipped;
  obs::Counter* gc_pages_classified;
  obs::Counter* gc_pages_reclaimed;
  obs::Counter* gc_versions_discarded;
  obs::Counter* gc_versions_relocated;

  MvccCounters() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    reads = reg.GetCounter("mvcc.reads");
    read_misses = reg.GetCounter("mvcc.read_misses");
    read_latch_acquisitions = reg.GetCounter("mvcc.read_latch_acquisitions");
    versions_appended = reg.GetCounter("mvcc.versions_appended");
    version_hops = reg.GetCounter("mvcc.version_hops");
    visibility_checks = reg.GetCounter("mvcc.visibility_checks");
    ww_conflicts = reg.GetCounter("mvcc.ww_conflicts");
    traversal_depth = reg.GetHistogram("mvcc.traversal_depth");
    gc_pages_examined = reg.GetCounter("mvcc.gc.pages_examined");
    gc_pages_skipped = reg.GetCounter("mvcc.gc.pages_skipped");
    gc_pages_classified = reg.GetCounter("mvcc.gc.pages_classified");
    gc_pages_reclaimed = reg.GetCounter("mvcc.gc.pages_reclaimed");
    gc_versions_discarded = reg.GetCounter("mvcc.gc.versions_discarded");
    gc_versions_relocated = reg.GetCounter("mvcc.gc.versions_relocated");
  }
};

MvccCounters& Obs() {
  static MvccCounters* c = new MvccCounters();
  return *c;
}

/// See SiasTable::SetReadPauseHookForTest.
std::atomic<void (*)(Vid)> g_read_pause_hook{nullptr};

inline void ReadPausePoint(Vid vid) {
  if (void (*hook)(Vid) = g_read_pause_hook.load(std::memory_order_relaxed)) {
    hook(vid);
  }
}
}  // namespace

void SiasTable::SetReadPauseHookForTest(void (*hook)(Vid)) {
  g_read_pause_hook.store(hook, std::memory_order_seq_cst);
}

SiasTable::SiasTable(RelationId relation, TableEnv env, VersionScheme scheme)
    : relation_(relation),
      env_(env),
      scheme_(scheme),
      region_(relation, env.pool, env.wal) {
  SIAS_CHECK(scheme == VersionScheme::kSiasChains ||
             scheme == VersionScheme::kSiasV);
}

SiasTable::~SiasTable() {
  // Run every deferred wipe / vector free while this table, its append
  // region and the buffer pool are still alive. The queue is global, so
  // this also drains other tables' work — safe, because every table drains
  // before it dies.
  EpochManager::Global().Quiesce();
}

Tid SiasTable::Entrypoint(Vid vid) const {
  return scheme_ == VersionScheme::kSiasChains ? map_.Get(vid)
                                               : map_v_.Entrypoint(vid);
}

Status SiasTable::FetchVersion(Tid tid, VirtualClock* clk,
                               TupleHeader* header, std::string* payload) {
  auto r = env_.pool->FetchPage(PageId{relation_, tid.page}, clk);
  if (!r.ok()) return r.status();
  PageGuard guard = std::move(*r);
  guard.LatchShared();
  Slice tuple = guard.page().GetTuple(tid.slot);
  if (tuple.empty() || !DecodeTupleHeader(tuple, header)) {
    guard.Unlatch();
    return Status::NotFound("version slot dead");
  }
  if (payload != nullptr) {
    Slice p = TuplePayload(tuple);
    payload->assign(reinterpret_cast<const char*>(p.data()), p.size());
    if (clk != nullptr) clk->Cpu(kCpuTupleCopy);
  }
  guard.Unlatch();
  return Status::OK();
}

bool SiasTable::ProbeCached(Tid tid, PageGuard* out) {
  if (env_.pool->TryFetchCached(PageId{relation_, tid.page}, out)) {
    return true;
  }
  Obs().read_latch_acquisitions->Increment();
  return false;
}

Status SiasTable::FetchVersionReadPath(Tid tid, VirtualClock* clk,
                                       TupleHeader* header) {
  PageGuard guard;
  if (!ProbeCached(tid, &guard)) return FetchVersion(tid, clk, header, nullptr);
  // Pinned but unlatched: every read below must go through an atomic
  // accessor or target bytes that are immutable while this page is
  // reachable. Slot publication is an atomic slot-count release store,
  // slot kills are one atomic word, and chain GC rewrites the header's
  // pred word atomically (tuple.h).
  Slice tuple = SlottedPage(guard.data()).GetTupleAtomic(tid.slot);
  if (tuple.empty() || !DecodeTupleHeaderAtomic(tuple, header)) {
    return Status::NotFound("version slot dead");
  }
  return Status::OK();
}

/// One resumable snapshot read: the walk over one item's versions, newest
/// first, to the version visible in the reader's snapshot.
struct SiasTable::ReadTask {
  Vid vid = 0;
  std::optional<std::string>* row = nullptr;  ///< payload destination
  Tid visible{};              ///< the visible version; invalid if none
  bool loaded = false;        ///< map state loaded for this attempt
  std::vector<Tid> versions;  ///< SIAS-V map copy, newest first
  size_t pos = 0;             ///< SIAS-V cursor
  Tid tid{};                  ///< chains cursor
  bool first = true;
  Xid newer_xmin = kInvalidXid;
  int retries = 0;
  size_t examined = 0;
  BufferPool::AsyncFetch fetch;      ///< demand read the task waits on
  BufferPool::AsyncFetch lookahead;  ///< SIAS-V next-version prefetch
  /// Index-entry reads only: judges whether the item is dead to every
  /// snapshot (an empty map entry, or a committed tombstone below the GC
  /// horizon as the entrypoint) into *dead, from the entrypoint header the
  /// walk reads anyway.
  ProbeHorizon* horizon = nullptr;
  bool* dead = nullptr;
};

Status SiasTable::StepRead(ReadTask* t, Transaction* txn, size_t io_depth,
                           size_t* inflight, bool* done) {
  VirtualClock* clk = txn->clock();
  // A lookahead that outlives its usefulness (item resolved, walk ended or
  // restarted from a fresh map copy) is cancelled so its window slot and
  // claim pin free up immediately.
  auto drop_lookahead = [&] {
    if (t->lookahead.valid && !t->lookahead.resident) --*inflight;
    env_.pool->AbandonFetch(&t->lookahead);
  };
  // Traversal telemetry: depth = versions examined before resolving (or
  // exhausting) the walk; a walk that resolves no visible version is a
  // read miss.
  auto finish = [&] {
    drop_lookahead();
    Obs().traversal_depth->Record(static_cast<VDuration>(t->examined));
    if (!t->visible.valid()) Obs().read_misses->Increment();
    *done = true;
    return Status::OK();
  };
  // Raced walk (stale anchor / wiped slot): reload the map, up to three
  // attempts in all.
  auto restart = [&] {
    drop_lookahead();
    if (++t->retries >= 3) {
      return Status::Internal("version walk raced with GC repeatedly");
    }
    t->loaded = false;
    return Status::OK();
  };

  for (;;) {
    if (!t->loaded) {
      if (clk != nullptr) clk->Cpu(kCpuVidMapProbe);
      if (scheme_ == VersionScheme::kSiasChains) {
        t->tid = map_.Get(t->vid);
      } else {
        map_v_.Get(t->vid, &t->versions);
        t->pos = 0;
      }
      ReadPausePoint(t->vid);
      t->loaded = true;
      t->first = true;
      t->newer_xmin = kInvalidXid;
    }

    // Current version to examine; an exhausted walk is a miss. Chains
    // (Algorithm 1) follow *ptr from the entrypoint; SIAS-V walks the
    // vector. An item whose map entry is empty (an aborted insert, or
    // vacuumed whole) is dead: VIDs are never reused.
    Tid tid;
    if (scheme_ == VersionScheme::kSiasChains) {
      tid = t->tid;
      if (!tid.valid()) {
        if (t->first && t->dead != nullptr) *t->dead = true;
        return finish();
      }
    } else {
      if (t->pos >= t->versions.size()) {
        if (t->versions.empty() && t->dead != nullptr) *t->dead = true;
        return finish();
      }
      tid = t->versions[t->pos];
    }

    // Obtain the version's page: a finished demand fetch, the matching
    // lookahead, the latch-free resident path, or — cold — submit the read
    // and suspend. Pinned-but-unlatched access is safe because the caller's
    // epoch pin keeps the bytes a stale map copy points at intact (vacuum's
    // wipes and vector frees queue behind it, src/mvcc/epoch.h), and all
    // reads below go through the atomic tuple accessors.
    const PageId page_id{relation_, tid.page};
    PageGuard guard;
    if (t->fetch.valid) {
      SIAS_CHECK(t->fetch.id == page_id);
      auto g = env_.pool->FinishFetch(&t->fetch, clk);
      if (!g.ok()) return g.status();
      --*inflight;
      guard = std::move(*g);
    } else if (t->lookahead.valid && t->lookahead.id == page_id) {
      auto g = env_.pool->FinishFetch(&t->lookahead, clk);
      if (!g.ok()) return g.status();
      --*inflight;
      guard = std::move(*g);
    } else if (!ProbeCached(tid, &guard)) {
      auto f = env_.pool->StartFetch(page_id, clk);
      if (!f.ok()) return f.status();
      if (f->resident) {
        guard = std::move(f->guard);
        f->valid = false;
      } else {
        t->fetch = std::move(*f);
        ++*inflight;
        // In-walk lookahead (SIAS-V): also submit the NEXT version's page
        // while this one is in flight — if this version turns out
        // invisible, the walk resumes without paying a second full device
        // latency.
        if (scheme_ == VersionScheme::kSiasV && !t->lookahead.valid &&
            *inflight < io_depth && t->pos + 1 < t->versions.size()) {
          const PageId next{relation_, t->versions[t->pos + 1].page};
          if (next.page != page_id.page) {
            auto lf = env_.pool->StartFetch(next, clk);
            if (lf.ok()) {
              if (lf->resident) {
                lf->guard.Release();
                lf->valid = false;
              } else {
                t->lookahead = std::move(*lf);
                ++*inflight;
              }
            }
            // A failed lookahead submit is not an error: the walk will
            // fetch the page on demand if it gets there.
          }
        }
        return Status::OK();  // suspended
      }
    }

    Slice tuple = SlottedPage(guard.data()).GetTupleAtomic(tid.slot);
    TupleHeader h;
    const bool dead = tuple.empty() || !DecodeTupleHeaderAtomic(tuple, &h);
    if (dead || h.vid != t->vid) {
      // SIAS-V: the vector raced with a concurrent reclaim — restart from the
      // map. Chains split the case: a stale anchor is a race, but a
      // *predecessor* resolving dead or foreign is the durable dangling-tail
      // state (the anchor's pred may dangle into a reclaimed, recycled page
      // by design; ChainOf has the same guard): nothing visible there.
      if (scheme_ == VersionScheme::kSiasChains && !t->first) return finish();
      SIAS_RETURN_NOT_OK(restart());
      continue;
    }
    if (scheme_ == VersionScheme::kSiasChains) {
      if (t->newer_xmin != kInvalidXid && h.xmin > t->newer_xmin) {
        // A predecessor is never newer; this is a recycled slot holding the
        // item again. Equal xmin is a real link — one transaction may stack
        // several versions of the same item (e.g. a New-Order with a
        // duplicate item id updates the same stock row twice).
        return finish();
      }
      t->newer_xmin = h.xmin;
    }
    t->examined++;
    if (clk != nullptr) clk->Cpu(kCpuVisibilityCheck);
    Obs().visibility_checks->Increment();
    const Clog& clog = *env_.txns->clog();
    if (t->first && t->dead != nullptr) {
      *t->dead = SiasTombstoneDead(
          h, clog, [&] { return t->horizon->Get(*env_.txns); });
    }
    if (SiasVersionVisible(h, txn->snapshot(), clog)) {
      t->visible = tid;
      if (!h.is_tombstone()) {
        Slice p = TuplePayload(tuple);
        t->row->emplace(reinterpret_cast<const char*>(p.data()), p.size());
      }
      // Charged for every visible version, a tombstone's empty payload too.
      if (clk != nullptr) clk->Cpu(kCpuTupleCopy);
      return finish();
    }
    if (!t->first) {
      Obs().version_hops->Increment();
      read_version_hops_.fetch_add(1, std::memory_order_relaxed);
    }
    t->first = false;
    if (scheme_ == VersionScheme::kSiasChains) {
      t->tid = h.pred();
    } else {
      t->pos++;
    }
  }
}

Status SiasTable::RunReads(Transaction* txn, ReadTask* tasks, size_t n,
                           size_t io_depth) {
  size_t inflight = 0;  // cold-page reads outstanding (demand + prefetch)
  Status s = RunFetchTasks(n, io_depth, inflight, [&](size_t i, bool* done) {
    return StepRead(&tasks[i], txn, io_depth, &inflight, done);
  });
  if (!s.ok()) {
    for (size_t i = 0; i < n; ++i) {
      env_.pool->AbandonFetch(&tasks[i].fetch);
      env_.pool->AbandonFetch(&tasks[i].lookahead);
    }
  }
  return s;
}

Status SiasTable::ReadOne(Transaction* txn, Vid vid,
                          std::optional<std::string>* row, Tid* visible,
                          ProbeHorizon* horizon, bool* dead) {
  // Version walk span: whatever virtual time the walk spends outside nested
  // io_wait spans is this transaction's traversal phase.
  obs::SpanScope trav_span(obs::SpanPhase::kTraversal, "mvcc", "read", vid);
  // Epoch pin for the whole walk: the map copy loaded by the task, every
  // page it references and every predecessor those versions point at stay
  // physically intact until this thread exits the epoch. No page latch is
  // taken.
  EpochGuard epoch;
  ReadTask t;
  t.vid = vid;
  t.row = row;
  t.horizon = horizon;
  t.dead = dead;
  SIAS_RETURN_NOT_OK(RunReads(txn, &t, 1, /*io_depth=*/1));
  if (visible != nullptr) *visible = t.visible;
  return Status::OK();
}

Result<Vid> SiasTable::Insert(Transaction* txn, Slice row, Tid* tid_out) {
  Vid vid = scheme_ == VersionScheme::kSiasChains ? map_.AllocateVid()
                                                  : map_v_.AllocateVid();
  TupleHeader h;
  h.xmin = txn->xid();
  h.vid = vid;
  // No older version: *ptr = NULL (Algorithm 2).
  std::string encoded;
  EncodeTuple(h, row, &encoded);
  txn->MarkWrite();
  SIAS_ASSIGN_OR_RETURN(
      Tid tid, region_.Append(Slice(encoded), txn->xid(), vid, txn->clock()));
  if (scheme_ == VersionScheme::kSiasChains) {
    map_.Set(vid, tid);
    txn->AddUndo([this, vid, tid] {
      map_.CompareAndSet(vid, tid, Tid{});
      region_.NoteDead(tid.page);
    });
  } else {
    SIAS_CHECK(map_v_.PushFront(vid, Tid{}, tid));
    txn->AddUndo([this, vid, tid] {
      map_v_.PopFrontIf(vid, tid);
      region_.NoteDead(tid.page);
    });
  }
  {
    MutexLock g(&stats_mu_);
    stats_.inserts++;
  }
  Obs().versions_appended->Increment();
  if (tid_out != nullptr) *tid_out = tid;
  return vid;
}

Result<SiasTable::VersionRef> SiasTable::ValidateForWrite(Transaction* txn,
                                                          Vid vid) {
  // Under the row lock: the entrypoint can only be an aborted leftover (a
  // racing abort's undo runs before its lock release, so by the time we got
  // the lock the map is restored), our own version, or a committed version.
  const Clog& clog = *env_.txns->clog();
  Tid tid = Entrypoint(vid);
  if (!tid.valid()) return Status::NotFound("no such data item");
  TupleHeader h;
  Status s = FetchVersion(tid, txn->clock(), &h, nullptr);
  if (s.IsNotFound()) return Status::NotFound("data item vanished");
  SIAS_RETURN_NOT_OK(s);

  if (h.xmin != txn->xid()) {
    TxnStatus creator = clog.Get(h.xmin);
    if (creator == TxnStatus::kInProgress) {
      // Item being inserted by a concurrent transaction: not ours to see.
      return Status::NotFound("data item not yet committed");
    }
    if (creator == TxnStatus::kAborted) {
      return Status::NotFound("data item creation aborted");
    }
    // Committed: first-updater-wins (Algorithm 3 line 4): the entrypoint
    // must be visible in our snapshot, otherwise a concurrent transaction
    // committed a newer version after we started and we must roll back.
    if (!txn->snapshot().Contains(h.xmin)) {
      Obs().ww_conflicts->Increment();
      MutexLock g(&stats_mu_);
      stats_.ww_conflicts++;
      return Status::SerializationFailure(
          "entrypoint updated by concurrent transaction");
    }
  }
  if (h.is_tombstone()) {
    return Status::NotFound("data item deleted");
  }
  return VersionRef{tid, h};
}

Result<Tid> SiasTable::AppendAndInstall(Transaction* txn, Vid vid,
                                        const TupleHeader& header,
                                        Slice payload, Tid expected_entry) {
  std::string encoded;
  EncodeTuple(header, payload, &encoded);
  txn->MarkWrite();
  // The append bumps the GC hint of the superseded version's page, and of
  // its own page when it is a tombstone.
  SIAS_ASSIGN_OR_RETURN(
      Tid tid, region_.Append(Slice(encoded), txn->xid(), vid, txn->clock(),
                              expected_entry.page, header.is_tombstone()));
  if (scheme_ == VersionScheme::kSiasChains) {
    if (!map_.CompareAndSet(vid, expected_entry, tid)) {
      return Status::Internal("entrypoint CAS failed under row lock");
    }
    txn->AddUndo([this, vid, tid, expected_entry] {
      map_.CompareAndSet(vid, tid, expected_entry);
      region_.NoteDead(tid.page);
    });
  } else {
    if (!map_v_.PushFront(vid, expected_entry, tid)) {
      return Status::Internal("vector push failed under row lock");
    }
    txn->AddUndo([this, vid, tid] {
      map_v_.PopFrontIf(vid, tid);
      region_.NoteDead(tid.page);
    });
  }
  return tid;
}

Status SiasTable::Update(Transaction* txn, Vid vid, Slice row, Tid* new_tid) {
  // Algorithm 3: lock (first-updater-wins), validate entrypoint, append.
  SIAS_RETURN_NOT_OK(env_.txns->locks()->AcquireExclusive(
      relation_, vid, txn->xid(), txn->clock()));
  txn->AddLock(relation_, vid);
  SIAS_ASSIGN_OR_RETURN(VersionRef base, ValidateForWrite(txn, vid));

  TupleHeader h;
  h.xmin = txn->xid();
  h.vid = vid;
  if (scheme_ == VersionScheme::kSiasChains) {
    h.set_pred(base.tid);  // *ptr -> old entrypoint (Algorithm 3 line 11)
  }
  auto r = AppendAndInstall(txn, vid, h, row, base.tid);
  SIAS_RETURN_NOT_OK(r.status());
  if (new_tid != nullptr) *new_tid = *r;
  {
    MutexLock g(&stats_mu_);
    stats_.updates++;
  }
  Obs().versions_appended->Increment();
  return Status::OK();
}

Status SiasTable::Delete(Transaction* txn, Vid vid) {
  // §4.2.2: deletion appends a tombstone version; older versions stay
  // reachable for transactions that still need them.
  SIAS_RETURN_NOT_OK(env_.txns->locks()->AcquireExclusive(
      relation_, vid, txn->xid(), txn->clock()));
  txn->AddLock(relation_, vid);
  SIAS_ASSIGN_OR_RETURN(VersionRef base, ValidateForWrite(txn, vid));

  TupleHeader h;
  h.xmin = txn->xid();
  h.vid = vid;
  h.flags = kTupleFlagTombstone;
  if (scheme_ == VersionScheme::kSiasChains) {
    h.set_pred(base.tid);
  }
  auto r = AppendAndInstall(txn, vid, h, Slice(), base.tid);
  SIAS_RETURN_NOT_OK(r.status());
  {
    MutexLock g(&stats_mu_);
    stats_.deletes++;
  }
  return Status::OK();
}

Result<std::optional<std::string>> SiasTable::Read(Transaction* txn,
                                                   Vid vid) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  Obs().reads->Increment();
  std::optional<std::string> row;
  SIAS_RETURN_NOT_OK(ReadOne(txn, vid, &row, nullptr));
  return row;
}

Status SiasTable::ReadIndexEntry(Transaction* txn, uint64_t value,
                                 ProbeHorizon* horizon, IndexEntryRead* out) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  Obs().reads->Increment();
  out->vid = value;
  return ReadOne(txn, value, &out->row, nullptr, horizon, &out->dead);
}

Status SiasTable::ReadMulti(Transaction* txn, const std::vector<Vid>& vids,
                            size_t io_depth,
                            std::vector<std::optional<std::string>>* rows) {
  obs::SpanScope trav_span(obs::SpanPhase::kTraversal, "mvcc", "read_multi",
                           vids.size());
  reads_.fetch_add(vids.size(), std::memory_order_relaxed);
  Obs().reads->Add(static_cast<int64_t>(vids.size()));
  rows->assign(vids.size(), std::optional<std::string>{});
  // One epoch pin for the whole batch: the same reclamation argument as
  // ReadOne's, stretched over every task.
  EpochGuard epoch;
  std::vector<ReadTask> tasks(vids.size());
  for (size_t i = 0; i < vids.size(); ++i) {
    tasks[i].vid = vids[i];
    tasks[i].row = &(*rows)[i];
  }
  return RunReads(txn, tasks.data(), tasks.size(), io_depth);
}

Status SiasTable::Scan(Transaction* txn, const ScanCallback& cb) {
  // Algorithm 1: iterate the VidMap; for each VID resolve the visible
  // version. More selective I/O than reading the full relation.
  Vid bound = vid_bound();
  for (Vid v = 0; v < bound; ++v) {
    std::optional<std::string> row;
    SIAS_RETURN_NOT_OK(ReadOne(txn, v, &row, nullptr));
    if (row.has_value() && !cb(v, Slice(*row))) return Status::OK();
  }
  return Status::OK();
}

Status SiasTable::FullRelationScan(Transaction* txn, const ScanCallback& cb) {
  // The traditional scan path described in §4.2.1: fetch ALL tuple
  // versions; each becomes a candidate whose visibility is decided by
  // resolving its data item's visible version and comparing.
  auto count = env_.pool->disk()->PageCount(relation_);
  if (!count.ok()) return count.status();
  for (PageNumber p = 0; p < *count; ++p) {
    // A free page's device image is a dead generation.
    if (region_.IsFree(p)) continue;
    auto r = env_.pool->FetchPage(PageId{relation_, p}, txn->clock());
    if (!r.ok()) return r.status();
    PageGuard guard = std::move(*r);
    guard.LatchShared();
    SlottedPage page = guard.page();
    struct Candidate {
      Vid vid;
      Tid tid;
    };
    std::vector<Candidate> candidates;
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      Slice tuple = page.GetTuple(s);
      if (tuple.empty()) continue;
      TupleHeader h;
      if (!DecodeTupleHeader(tuple, &h)) continue;
      candidates.push_back(Candidate{h.vid, Tid{p, s}});
    }
    guard.Unlatch();
    for (const auto& c : candidates) {
      std::optional<std::string> row;
      Tid visible;
      SIAS_RETURN_NOT_OK(ReadOne(txn, c.vid, &row, &visible));
      // Emit only the candidate that IS the visible version.
      if (row.has_value() && visible == c.tid && !cb(c.vid, Slice(*row))) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status SiasTable::ScanWithTid(Transaction* txn,
                              const VersionScanCallback& cb) {
  Vid bound = vid_bound();
  for (Vid v = 0; v < bound; ++v) {
    std::optional<std::string> row;
    Tid visible;
    SIAS_RETURN_NOT_OK(ReadOne(txn, v, &row, &visible));
    if (row.has_value() && !cb(v, visible, Slice(*row))) return Status::OK();
  }
  return Status::OK();
}

Vid SiasTable::vid_bound() const {
  return scheme_ == VersionScheme::kSiasChains ? map_.bound()
                                               : map_v_.bound();
}

Result<std::vector<Tid>> SiasTable::ChainOf(Vid vid, VirtualClock* clk) {
  std::vector<Tid> chain;
  // Same latch-free traversal as the read path (epoch pin, no page latch);
  // the guards below keep it well-defined even across a dangling anchor
  // predecessor into a recycled page.
  EpochGuard epoch;
  if (scheme_ == VersionScheme::kSiasV) {
    return map_v_.Get(vid);
  }
  Tid tid = map_.Get(vid);
  Xid newer_xmin = kInvalidXid;  // xmin of the previously visited version
  while (tid.valid()) {
    // A link into a free page dangles: its device image is a dead
    // generation (see LiveVersions).
    if (!chain.empty() && region_.IsFree(tid.page)) break;
    TupleHeader h;
    Status s = FetchVersionReadPath(tid, clk, &h);
    if (!s.ok()) break;  // dangling tail: rest already reclaimed
    if (h.vid != vid && !chain.empty()) {
      // The anchor's predecessor pointer is allowed to dangle into a page
      // GC reclaimed and recycled (see LiveVersions): the slot now holds an
      // unrelated item. Treat it like a reclaimed tail, not a link.
      break;
    }
    if (h.vid != vid) {
      return Status::Corruption("vid map entry resolves to wrong item");
    }
    if (newer_xmin != kInvalidXid && h.xmin > newer_xmin) {
      // A predecessor is never newer; this is a recycled slot that happens
      // to hold the same item again. Equal xmin stays a link (one txn can
      // stack versions); preds always reference earlier appends, so no
      // cycle arises. Stop before a newer-xmin recycled slot loops.
      break;
    }
    chain.push_back(tid);
    newer_xmin = h.xmin;
    tid = h.pred();
    if (chain.size() > 1u << 20) {
      return Status::Corruption("version chain cycle");
    }
  }
  return chain;
}

Status SiasTable::LiveVersions(Vid vid, Xid horizon,
                               const std::vector<std::pair<Xid, Xid>>* bounds,
                               VirtualClock* clk,
                               std::vector<VersionRef>* live,
                               bool* whole_item_dead) {
  live->clear();
  *whole_item_dead = false;
  const Clog& clog = *env_.txns->clog();
  auto fixed_horizon = [horizon] { return horizon; };

  // Walk newest-to-oldest and STOP at the horizon anchor: the predecessor
  // pointer of the anchor may dangle into a page reclaimed by an earlier GC
  // cycle (by design — no live snapshot ever walks past its anchor), so the
  // walk must never follow it.
  if (scheme_ == VersionScheme::kSiasChains) {
    Tid tid = map_.Get(vid);
    if (!tid.valid()) {
      *whole_item_dead = true;
      return Status::OK();
    }
    while (tid.valid()) {
      TupleHeader h;
      Status s = FetchVersion(tid, clk, &h, nullptr);
      if (s.IsNotFound()) break;  // dangling tail: rest already reclaimed
      SIAS_RETURN_NOT_OK(s);
      TxnStatus creator = clog.Get(h.xmin);
      if (creator == TxnStatus::kAborted) {
        tid = h.pred();  // unreachable leftover: skip it
        continue;
      }
      live->push_back(VersionRef{tid, h});
      if (live->size() == 1 && SiasTombstoneDead(h, clog, fixed_horizon)) {
        // The item is deleted and no snapshot can see pre-delete versions:
        // even the tombstone can go.
        live->clear();
        *whole_item_dead = true;
        return Status::OK();
      }
      // Anchor: first committed version below the horizon. Everything older
      // is invisible to every live and future snapshot.
      if (creator == TxnStatus::kCommitted && h.xmin < horizon) {
        return Status::OK();  // anchor reached: never follow its pred
      }
      tid = h.pred();
    }
    return Status::OK();
  }

  // SIAS-V: the map vector is kept in sync by GC, so it never dangles.
  std::vector<Tid> order = map_v_.Get(vid);
  if (order.empty()) {
    *whole_item_dead = true;
    return Status::OK();
  }
  for (Tid tid : order) {
    TupleHeader h;
    Status s = FetchVersion(tid, clk, &h, nullptr);
    if (s.IsNotFound()) continue;
    SIAS_RETURN_NOT_OK(s);
    TxnStatus creator = clog.Get(h.xmin);
    if (creator == TxnStatus::kAborted) continue;
    live->push_back(VersionRef{tid, h});
    if (live->size() == 1 && SiasTombstoneDead(h, clog, fixed_horizon)) {
      live->clear();
      *whole_item_dead = true;
      return Status::OK();
    }
    if (creator == TxnStatus::kCommitted && h.xmin < horizon) {
      break;  // anchor reached: never follow older entries
    }
  }

  // Mid-vector reclamation (range tracking): a committed version v that has
  // a newer kept committed version s is the visible version of an active
  // transaction (lo = oldest xid its snapshot holds in-progress,
  // hi = xid + 1) only if v could be visible (v.xmin < hi) while s might
  // not definitely shadow it (s.xmin >= lo; s.xmin < lo means s committed
  // before every transaction that snapshot considers concurrent, so s is
  // certainly visible and hides v). Future snapshots always resolve to s
  // or newer. If no active pair needs v, it is dead despite sitting above
  // the horizon anchor — this also retires the anchor itself once nothing
  // old enough remains. The newest version is always kept.
  if (bounds != nullptr && live->size() > 1) {
    std::vector<VersionRef> kept;
    kept.reserve(live->size());
    kept.push_back(live->front());
    // Index into `kept` of the newest kept committed version, if any.
    size_t shadow = clog.Get(live->front().header.xmin) ==
                            TxnStatus::kCommitted
                        ? 0
                        : SIZE_MAX;
    for (size_t i = 1; i < live->size(); ++i) {
      const VersionRef& v = (*live)[i];
      bool committed = clog.Get(v.header.xmin) == TxnStatus::kCommitted;
      bool drop = false;
      if (committed && shadow != SIZE_MAX) {
        Xid s_xmin = kept[shadow].header.xmin;
        drop = true;
        for (const auto& [lo, hi] : *bounds) {
          if (v.header.xmin < hi && s_xmin >= lo) {
            drop = false;
            break;
          }
        }
      }
      if (!drop) {
        kept.push_back(v);
        if (committed) shadow = kept.size() - 1;
      }
    }
    *live = std::move(kept);
  }
  return Status::OK();
}

std::vector<std::pair<Xid, Xid>> SiasTable::GcSnapshotBounds() const {
  // Active snapshot bounds for SIAS-V mid-vector reclamation, sampled once
  // per pass. A transaction starting later sees every version committed by
  // then, but not one committed after the sampling: a shadow from a
  // transaction still running then is covered by that transaction's own
  // pair, and one from a transaction not yet begun by the extra
  // (first_unsampled, max) pair. Reading the next xid first keeps every
  // transaction that begins in between inside one of the two.
  const Xid first_unsampled = env_.txns->NextXid();
  std::vector<std::pair<Xid, Xid>> bounds = env_.txns->ActiveSnapshotBounds();
  bounds.emplace_back(first_unsampled, std::numeric_limits<Xid>::max());
  return bounds;
}

void SiasTable::InventorySlots(PageGuard* guard, std::vector<SlotInfo>* slots) {
  guard->LatchShared();
  SlottedPage page = guard->page();
  for (uint16_t s = 0; s < page.slot_count(); ++s) {
    Slice tuple = page.GetTuple(s);
    if (tuple.empty()) continue;
    TupleHeader h;
    if (!DecodeTupleHeader(tuple, &h)) continue;
    slots->push_back(SlotInfo{s, h.vid});
  }
  guard->Unlatch();
}

Status SiasTable::ClassifyPage(PageNumber p, const std::vector<SlotInfo>& slots,
                               const std::unordered_set<Vid>& vids,
                               Xid horizon,
                               const std::vector<std::pair<Xid, Xid>>& bounds,
                               VirtualClock* clk, PageClass* out) {
  for (Vid v : vids) {
    std::vector<VersionRef> live;
    bool dead = false;
    SIAS_RETURN_NOT_OK(LiveVersions(v, horizon, &bounds, clk, &live, &dead));
    out->live_sets[v] = std::move(live);
    out->item_dead[v] = dead;
  }
  out->live_pos.clear();
  out->live_on_page = 0;
  for (const auto& s : slots) {
    const std::vector<VersionRef>& live = out->live_sets[s.vid];
    int pos = -1;
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i].tid == Tid{p, s.slot}) {
        pos = static_cast<int>(i);
        break;
      }
    }
    out->live_pos.push_back(pos);
    if (pos >= 0) out->live_on_page++;
  }
  return Status::OK();
}

bool SiasTable::MayDie(const std::vector<VersionRef>& live, size_t i) const {
  // Only superseding the newest version bumps its page (AppendAndInstall)
  // and only an abort bumps an aborted one, so a surviving version must be
  // counted now if it is already superseded, a tombstone, or its creator
  // may still abort.
  return i > 0 || live[i].header.is_tombstone() ||
         env_.txns->clog()->Get(live[i].header.xmin) != TxnStatus::kCommitted;
}

Result<std::pair<size_t, size_t>> SiasTable::ClassifyPageForTest(
    PageNumber p, Xid horizon) {
  auto r = env_.pool->FetchPage(PageId{relation_, p}, nullptr);
  if (!r.ok()) return r.status();
  PageGuard guard = std::move(*r);
  std::vector<SlotInfo> slots;
  InventorySlots(&guard, &slots);
  std::unordered_set<Vid> vids;
  for (const auto& s : slots) vids.insert(s.vid);
  PageClass pc;
  SIAS_RETURN_NOT_OK(ClassifyPage(p, slots, vids, horizon, GcSnapshotBounds(),
                                  nullptr, &pc));
  return std::make_pair(slots.size(), slots.size() - pc.live_on_page);
}

Status SiasTable::GarbageCollect(Xid horizon, VirtualClock* clk,
                                 GcStats* stats) {
  // §6 Space Reclamation: (i) pick victim pages, (ii) re-insert live
  // versions, (iii) discard dead versions; reclaimed pages are recycled by
  // the append region.
  auto count = env_.pool->disk()->PageCount(relation_);
  if (!count.ok()) return count.status();
  // Seal the open append page so every page is GC-eligible; the next append
  // opens a fresh (possibly recycled) page. A page opened after the seal —
  // by a concurrent writer or by this pass's own relocations — may be
  // receiving appends the inventory below never saw, so the pass skips it.
  const uint64_t sealed_at = region_.SealOpenPage();
  LockManager* locks = env_.txns->locks();
  const std::vector<std::pair<Xid, Xid>> bounds = GcSnapshotBounds();

  for (PageNumber p = 0; p < *count; ++p) {
    if (region_.OpenedSince(p, sealed_at)) continue;  // still filling
    // Free or awaiting its trim: nothing on it, whatever the device holds.
    if (region_.IsFree(p)) continue;
    bool pending;
    {
      MutexLock g(&stats_mu_);
      pending = gc_pending_.count(p) != 0;
    }
    // Logically empty, physical wipe still queued behind the epoch
    // horizon: re-examining would double-reclaim.
    if (pending) continue;

    // Too few possibly dead versions to reach the relocate threshold below:
    // the page is neither classified nor fetched. A page without a hint
    // (written before a restart) still reports true.
    if (!region_.MayNeedGc(p)) {
      if (stats != nullptr) stats->pages_skipped++;
      Obs().gc_pages_skipped->Increment();
      continue;
    }
    // Pass 1: inventory of the page.
    std::vector<SlotInfo> slots;
    {
      auto r = env_.pool->FetchPage(PageId{relation_, p}, clk);
      if (!r.ok()) return r.status();
      if (stats != nullptr) stats->pages_examined++;
      Obs().gc_pages_examined->Increment();
      InventorySlots(&*r, &slots);
    }
    if (slots.empty()) continue;
    // Recycled from the free list and filled while it was inventoried.
    // Otherwise it is sealed for the rest of the pass: only an empty,
    // wiped page ever returns to the free list.
    if (region_.OpenedSince(p, sealed_at)) continue;

    // Lock every item referenced by the page; skip the page if any item is
    // being written right now (retry on the next GC cycle).
    std::unordered_set<Vid> vids;
    for (const auto& s : slots) vids.insert(s.vid);
    std::vector<Vid> locked;
    bool all_locked = true;
    for (Vid v : vids) {
      if (locks->TryAcquireExclusive(relation_, v, kGcXid).ok()) {
        locked.push_back(v);
      } else {
        all_locked = false;
        break;
      }
    }
    auto unlock_all = [&] {
      for (Vid v : locked) locks->Release(relation_, v, kGcXid, 0);
    };
    if (!all_locked) {
      unlock_all();
      continue;
    }

    // Pass 2: classify versions via per-item live sets.
    if (stats != nullptr) stats->pages_classified++;
    Obs().gc_pages_classified->Increment();
    PageClass pc;
    Status cs = ClassifyPage(p, slots, vids, horizon, bounds, clk, &pc);
    if (!cs.ok()) {
      unlock_all();
      return cs;
    }
    auto& live_sets = pc.live_sets;
    auto& item_dead = pc.item_dead;
    const size_t live_on_page = pc.live_on_page;

    // Policy: reclaim the whole page once its live share is small enough to
    // be worth relocating; leave every other page as it is. Dead slots are
    // never killed in place: that dirties a sealed page — an 8 KB device
    // rewrite at the next flush — yet frees no appendable space, and on a
    // tight device those rewrites alone raised SIAS-V's write amplification
    // above SI's. Their map entries stay until the page is reclaimed.
    const bool relocate = WorthRelocating(live_on_page, slots.size());
    if (!relocate) {
      // Re-derive the hint exactly while the item locks keep every
      // supersede of this page's versions out: every slot stays, and those
      // that are dead or can still die count toward the bound.
      PageGcHint hint;
      hint.tuples = static_cast<uint32_t>(slots.size());
      for (size_t k = 0; k < slots.size(); ++k) {
        const int pos = pc.live_pos[k];
        if (pos < 0 || MayDie(live_sets[slots[k].vid], pos)) {
          hint.dead_bound++;
        }
      }
      region_.SetGcHint(p, hint);
    } else {
      // Re-insert live versions (oldest-first per chain so predecessor
      // pointers can be remapped) and fix their successors.
      std::unordered_map<uint64_t, Tid> remap;  // old tid.Pack() -> new tid
      for (Vid v : vids) {
        auto& live = live_sets[v];
        // live is newest-first; walk from the back (oldest).
        for (auto it = live.rbegin(); it != live.rend(); ++it) {
          if (it->tid.page != p) continue;
          // Read the full tuple.
          TupleHeader h;
          std::string payload;
          Status s = FetchVersion(it->tid, clk, &h, &payload);
          if (!s.ok()) continue;
          if (scheme_ == VersionScheme::kSiasChains) {
            auto rm = remap.find(h.pred().Pack());
            if (it == live.rbegin()) {
              // No snapshot needs a version older than the oldest live
              // one, whose page may since have been reclaimed and
              // recycled: a copy keeping the pointer could land on the
              // very slot it names and point at itself. Cut the link.
              h.set_pred(Tid{});
            } else if (h.pred().valid() && rm != remap.end()) {
              h.set_pred(rm->second);
            }
          }
          std::string encoded;
          EncodeTuple(h, Slice(payload), &encoded);
          const size_t idx = static_cast<size_t>(live.rend() - it) - 1;
          auto nr = region_.Append(Slice(encoded), h.xmin, v, clk,
                                   kInvalidPageNumber, MayDie(live, idx));
          if (!nr.ok()) {
            unlock_all();
            return nr.status();
          }
          Tid new_tid = *nr;
          remap[it->tid.Pack()] = new_tid;
          if (stats != nullptr) stats->versions_relocated++;
          Obs().gc_versions_relocated->Increment();

          // Fix the reference to this version.
          if (scheme_ == VersionScheme::kSiasV) {
            map_v_.ReplaceTid(v, it->tid, new_tid);
          } else {
            // Successor is the next-newer live version, or the VidMap.
            if (it + 1 == live.rend()) {
              // This is the newest live version => entrypoint.
              map_.CompareAndSet(v, it->tid, new_tid);
            } else {
              auto newer = it + 1;  // next reverse element = next newer
              Tid succ = newer->tid;
              Tid succ_now = succ;
              auto rs = remap.find(succ.Pack());
              if (rs != remap.end()) succ_now = rs->second;
              // In-place pointer fix on the successor (maintenance write).
              auto pr = env_.pool->FetchPage(
                  PageId{relation_, succ_now.page}, clk);
              if (!pr.ok()) {
                unlock_all();
                return pr.status();
              }
              PageGuard sg = std::move(*pr);
              sg.LatchExclusive();
              Slice stuple = sg.page().GetTuple(succ_now.slot);
              TupleHeader sh;
              if (!stuple.empty() && DecodeTupleHeader(stuple, &sh)) {
                sh.set_pred(new_tid);
                // Only the pred word changes, and latch-free readers load
                // it atomically (tuple.h): swing it with one atomic store.
                OverwritePredWord(const_cast<uint8_t*>(stuple.data()),
                                  sh.pred_page, sh.pred_slot, sh.flags);
                Lsn lsn = kInvalidLsn;
                if (env_.wal != nullptr) {
                  WalRecord rec;
                  rec.type = WalRecordType::kHeapOverwrite;
                  rec.relation = relation_;
                  rec.tid = succ_now;
                  std::string body;
                  EncodeTuple(sh, TuplePayload(stuple), &body);
                  rec.body = std::move(body);
                  auto lr = env_.wal->Append(rec);
                  if (lr.ok()) lsn = *lr;
                }
                sg.MarkDirty(lsn);
              }
              sg.Unlatch();
            }
          }
        }
        if (item_dead[v]) {
          if (scheme_ == VersionScheme::kSiasChains) {
            Tid cur = map_.Get(v);
            if (cur.valid() && cur.page == p) map_.Clear(v);
          } else {
            // Drop the whole vector, not just this page's entries: the
            // older versions may sit on other pages, and leaving them
            // published without the tombstone would resurrect the item.
            // Their slots become unreferenced garbage for those pages' GC.
            map_v_.Clear(v);
          }
        } else if (scheme_ == VersionScheme::kSiasV) {
          // Rebuild the vector to exactly the kept live set — mid-vector
          // reclamation can punch holes, so a suffix truncation is not
          // enough — with relocated versions remapped to their new homes.
          std::vector<Tid> vec;
          vec.reserve(live.size());
          for (const auto& ref : live) {
            auto rm = remap.find(ref.tid.Pack());
            vec.push_back(rm == remap.end() ? ref.tid : rm->second);
          }
          map_v_.Set(v, std::move(vec));
        }
      }
      // Unpublish is complete: no map path references this page any more.
      // The physical wipe must wait until every reader pinned in an epoch
      // that may still hold a stale vector copy or chain pointer has
      // exited, so it is retired through the epoch queue. Until the
      // callback runs, the page keeps its old bytes (stale readers see
      // consistent data) and stays out of the append region's free list
      // (no premature recycling under a pinned reader). Stats are counted
      // at enqueue: the reclamation decision is made here.
      {
        MutexLock g(&stats_mu_);
        bool inserted = gc_pending_.insert(p).second;
        SIAS_CHECK(inserted);
      }
      region_.ForgetGcHint(p);
      if (stats != nullptr) {
        stats->versions_discarded += slots.size() - live_on_page;
        stats->pages_reclaimed++;
      }
      Obs().gc_versions_discarded->Add(
          static_cast<int64_t>(slots.size() - live_on_page));
      Obs().gc_pages_reclaimed->Increment();
      EpochManager::Global().Retire([this, p] {
        // Logs the reclaim and drops the page's frame unwritten; the trim
        // and the reuse follow once the log is durable (AppendRegion). On
        // a failure the page is not freed, and the erase below lets the
        // next GC cycle retry it (its map references are gone, so it
        // classifies as fully dead again).
        (void)region_.Reclaim(p);
        MutexLock g(&stats_mu_);
        gc_pending_.erase(p);
      });
    }
    unlock_all();
  }
  // Eager cleanup when no reader is pinned: single-threaded vacuums (and
  // the existing GC tests) observe reclamation immediately; with pinned
  // readers the work simply stays queued for the next reclaim point.
  EpochManager::Global().Advance();
  EpochManager::Global().TryReclaim();
  return Status::OK();
}

TableStats SiasTable::stats() const {
  TableStats out;
  {
    MutexLock g(&stats_mu_);
    out = stats_;
  }
  out.reads += reads_.load(std::memory_order_relaxed);
  out.version_hops += read_version_hops_.load(std::memory_order_relaxed);
  return out;
}

Status SiasTable::ApplyInsert(Tid tid, uint64_t vid_aux, Slice tuple,
                              Lsn lsn) {
  (void)vid_aux;
  PageGuard guard;
  if (tid.slot == 0) {
    // After any (re)open an append page fills from slot 0, so a slot-0
    // insert marks a (re)open: what the device holds for the page is a
    // dead generation (trimmed, perhaps), or an image that this record
    // and the ones after it rebuild. Format the page instead of reading
    // it.
    DiskManager* disk = env_.pool->disk();
    auto count = disk->PageCount(relation_);
    if (!count.ok()) return count.status();
    for (PageNumber n = *count; n <= tid.page; ++n) {
      SIAS_RETURN_NOT_OK(disk->AllocatePage(relation_).status());
    }
    auto r = env_.pool->FormatPage(PageId{relation_, tid.page}, nullptr,
                                   kPageFlagAppendRegion);
    if (!r.ok()) return r.status();
    guard = std::move(*r);
    guard.LatchExclusive();
  } else {
    auto r = env_.pool->FetchPage(PageId{relation_, tid.page}, nullptr);
    if (!r.ok()) return r.status();
    guard = std::move(*r);
    guard.LatchExclusive();
    if (guard.page().header()->lsn >= lsn) {
      guard.Unlatch();
      return Status::OK();
    }
  }
  SlottedPage page = guard.page();
  Status result = Status::OK();
  if (tid.slot < page.slot_count()) {
    result = page.OverwriteTuple(tid.slot, tuple);
  } else if (tid.slot == page.slot_count()) {
    uint16_t slot = page.InsertTuple(tuple);
    if (slot != tid.slot) result = Status::Corruption("redo slot mismatch");
  } else {
    result = Status::Corruption(
        "redo slot gap page=" + std::to_string(tid.page) +
        " slot=" + std::to_string(tid.slot) +
        " slot_count=" + std::to_string(page.slot_count()) +
        " page_lsn=" + std::to_string(page.header()->lsn) +
        " rec_lsn=" + std::to_string(lsn));
  }
  if (result.ok()) guard.MarkDirty(lsn);
  guard.Unlatch();
  return result;
}

Status SiasTable::ApplyOverwrite(Tid tid, Slice tuple, Lsn lsn) {
  auto r = env_.pool->FetchPage(PageId{relation_, tid.page}, nullptr);
  if (!r.ok()) return r.status();
  PageGuard guard = std::move(*r);
  guard.LatchExclusive();
  SlottedPage page = guard.page();
  if (page.header()->lsn >= lsn) {
    guard.Unlatch();
    return Status::OK();
  }
  Status s = page.OverwriteTuple(tid.slot, tuple);
  if (s.ok()) guard.MarkDirty(lsn);
  guard.Unlatch();
  return s;
}

Status SiasTable::ApplySlotDelete(Tid tid, Lsn lsn) {
  auto r = env_.pool->FetchPage(PageId{relation_, tid.page}, nullptr);
  if (!r.ok()) return r.status();
  PageGuard guard = std::move(*r);
  guard.LatchExclusive();
  SlottedPage page = guard.page();
  if (page.header()->lsn >= lsn) {
    guard.Unlatch();
    return Status::OK();
  }
  Status s = page.DeleteTuple(tid.slot);
  if (s.ok() || s.IsNotFound()) guard.MarkDirty(lsn);
  guard.Unlatch();
  return s.IsNotFound() ? Status::OK() : s;
}

Status SiasTable::RebuildMap() {
  const Clog& clog = *env_.txns->clog();
  auto count = env_.pool->disk()->PageCount(relation_);
  if (!count.ok()) return count.status();

  // Collect committed versions per item, then order by xmin descending
  // (version chains are chronological, so this reproduces them exactly).
  struct V {
    Tid tid;
    Xid xmin;
  };
  std::unordered_map<Vid, std::vector<V>> items;
  Vid max_vid = 0;
  for (PageNumber p = 0; p < *count; ++p) {
    // Free pages hold a dead generation (or zeros) on the device.
    if (region_.IsFree(p)) continue;
    auto r = env_.pool->FetchPage(PageId{relation_, p}, nullptr);
    if (!r.ok()) return r.status();
    PageGuard guard = std::move(*r);
    guard.LatchShared();
    SlottedPage page = guard.page();
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      Slice tuple = page.GetTuple(s);
      if (tuple.empty()) continue;
      TupleHeader h;
      if (!DecodeTupleHeader(tuple, &h)) continue;
      max_vid = std::max(max_vid, h.vid + 1);
      if (!clog.IsCommitted(h.xmin)) continue;  // crashed/aborted: garbage
      items[h.vid].push_back(V{Tid{p, s}, h.xmin});
    }
    guard.Unlatch();
  }
  for (auto& [vid, versions] : items) {
    std::sort(versions.begin(), versions.end(),
              [](const V& a, const V& b) { return a.xmin > b.xmin; });
    if (scheme_ == VersionScheme::kSiasChains) {
      map_.Set(vid, versions.front().tid);
    } else {
      std::vector<Tid> vec;
      vec.reserve(versions.size());
      for (const auto& v : versions) vec.push_back(v.tid);
      map_v_.Set(vid, std::move(vec));
    }
  }
  // Preserve the VID allocation high-water mark even for fully-aborted vids.
  if (max_vid > 0) {
    if (scheme_ == VersionScheme::kSiasChains) {
      if (map_.bound() < max_vid) {
        map_.Set(max_vid - 1, map_.Get(max_vid - 1));
      }
    } else if (map_v_.bound() < max_vid) {
      map_v_.Set(max_vid - 1, map_v_.Get(max_vid - 1));
    }
  }
  return Status::OK();
}

}  // namespace sias

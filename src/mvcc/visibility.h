// Visibility kernels for both version schemes.
#pragma once

#include "common/types.h"
#include "mvcc/tuple.h"
#include "txn/clog.h"
#include "txn/snapshot.h"

namespace sias {

/// Classical SI visibility over an (xmin, xmax)-stamped tuple version:
/// the creator must be in-snapshot and committed, and the invalidator (if
/// any) must NOT be — exactly PostgreSQL's HeapTupleSatisfiesMVCC shape.
inline bool SiTupleVisible(const TupleHeader& h, const Snapshot& snap,
                           const Clog& clog) {
  if (!snap.CreatorVisible(h.xmin, clog)) return false;
  if (h.xmax == kInvalidXid) return true;
  if (h.xmax == snap.xid) return false;  // deleted/updated by self
  // Invalidator effective only if committed within our snapshot.
  if (snap.Contains(h.xmax) && clog.IsCommitted(h.xmax)) return false;
  return true;
}

/// SIAS visibility of one version (paper Algorithm 1, ISVISIBLE): the
/// creating transaction committed before we started. There is no xmax; the
/// *first* version satisfying this along the newest-to-oldest chain is the
/// visible one (its successor's creation implicitly invalidated it).
inline bool SiasVersionVisible(const TupleHeader& h, const Snapshot& snap,
                               const Clog& clog) {
  return snap.CreatorVisible(h.xmin, clog);
}

// Dead-to-every-snapshot rules. `horizon()` yields the GC horizon
// (TransactionManager::GcHorizon): every current and future snapshot sees
// each committed xid below it. It is called only when the verdict depends
// on it, so an index probe whose hits are all live never reads it.

/// SI: the version is dead if its creator aborted or a transaction that
/// committed below the horizon invalidated it. Vacuum reclaims such a
/// version; an index probe removes its entry.
template <typename HorizonFn>
inline bool SiVersionDead(const TupleHeader& h, const Clog& clog,
                          HorizonFn&& horizon) {
  if (clog.Get(h.xmin) == TxnStatus::kAborted) return true;
  return h.xmax != kInvalidXid && clog.IsCommitted(h.xmax) &&
         h.xmax < horizon();
}

/// SIAS: a tombstone committed below the horizon deletes its item for every
/// snapshot. When it is the item's newest version, vacuum drops the whole
/// item and an index probe removes the item's entries.
template <typename HorizonFn>
inline bool SiasTombstoneDead(const TupleHeader& h, const Clog& clog,
                              HorizonFn&& horizon) {
  return h.is_tombstone() && clog.IsCommitted(h.xmin) && h.xmin < horizon();
}

}  // namespace sias

// Transaction handle: xid, snapshot, held locks, undo hooks and the
// terminal's virtual clock.
#pragma once

#include <functional>
#include <vector>

#include "common/types.h"
#include "common/vclock.h"
#include "txn/snapshot.h"

namespace sias {

enum class TxnState {
  kActive,
  kCommitted,
  kAborted,
};

/// A running transaction. Created by TransactionManager::Begin and finished
/// by Commit/Abort. Not thread-safe: owned by one terminal.
class Transaction {
 public:
  Transaction(Xid xid, Snapshot snapshot, VirtualClock* clock)
      : xid_(xid), snapshot_(std::move(snapshot)), clock_(clock) {}

  Xid xid() const { return xid_; }
  const Snapshot& snapshot() const { return snapshot_; }
  TxnState state() const { return state_; }
  VirtualClock* clock() { return clock_; }

  /// Registers an action to run if the transaction aborts (e.g. restore a
  /// VidMap entrypoint). Run in reverse registration order.
  void AddUndo(std::function<void()> undo) {
    undo_.push_back(std::move(undo));
  }

  /// Registers a row lock for release at end-of-transaction.
  void AddLock(RelationId relation, Vid vid) {
    locks_.push_back({relation, vid});
  }
  const std::vector<std::pair<RelationId, Vid>>& locks() const {
    return locks_;
  }

  /// Records that a version was created or invalidated under this xid. The
  /// heap marks it right before it appends or stamps anything, so a write
  /// attempt that failed earlier (e.g. a NotFound from validation) leaves
  /// the transaction read-only. A read-only transaction commits and aborts
  /// without a WAL record (see the hooks in Database::Open).
  void MarkWrite() { wrote_ = true; }
  bool wrote() const { return wrote_; }

 private:
  friend class TransactionManager;

  Xid xid_;
  Snapshot snapshot_;
  VirtualClock* clock_;
  TxnState state_ = TxnState::kActive;
  bool wrote_ = false;
  std::vector<std::function<void()>> undo_;
  std::vector<std::pair<RelationId, Vid>> locks_;
};

}  // namespace sias

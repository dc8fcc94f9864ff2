// Shared wiring for MVCC-layer tests: device + disk + pool + txn machinery,
// and a factory producing a table of any version scheme.
#pragma once

#include <memory>

#include "buffer/buffer_pool.h"
#include "core/sias_table.h"
#include "device/mem_device.h"
#include "mvcc/mvcc_table.h"
#include "mvcc/si_heap.h"
#include "storage/disk_manager.h"
#include "txn/clog.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace sias {

/// Self-contained mini engine for tests.
class TestEnv {
 public:
  explicit TestEnv(size_t pool_frames = 256, bool with_wal = true,
                   int lock_timeout_ms = 200, VDuration read_latency = 0)
      : device_(1ull << 30, read_latency),
        wal_device_(1ull << 30),
        disk_(&device_),
        pool_(&disk_, pool_frames,
              [this](Lsn lsn, VirtualClock* clk) {
                return wal_ ? wal_->FlushTo(lsn, clk) : Status::OK();
              }),
        locks_(lock_timeout_ms),
        txns_(&clog_, &locks_) {
    if (with_wal) {
      wal_ = std::make_unique<WalWriter>(&wal_device_, 0, 1ull << 30);
    }
  }

  std::unique_ptr<MvccTable> MakeTable(VersionScheme scheme,
                                       RelationId relation) {
    EXPECT_TRUE(disk_.CreateRelation(relation).ok());
    TableEnv env{&pool_, &txns_, wal_.get()};
    if (scheme == VersionScheme::kSi) {
      return std::make_unique<SiHeap>(relation, env);
    }
    return std::make_unique<SiasTable>(relation, env, scheme);
  }

  MemDevice device_;
  MemDevice wal_device_;
  DiskManager disk_;
  BufferPool pool_;
  Clog clog_;
  LockManager locks_;
  TransactionManager txns_;
  std::unique_ptr<WalWriter> wal_;
};

}  // namespace sias

// Driver for resumable page-reading tasks: the SIAS snapshot read (one task
// per item) and the B-tree range scan (one task per range).
//
// A task walks pages; where it needs a page that is not resident it submits
// the read (BufferPool::StartFetch) and suspends, and when resumed it
// finishes the fetch (BufferPool::FinishFetch) and walks on. The driver keeps
// up to `io_depth` reads in flight across a batch of tasks, so their device
// reads overlap on the channels. A blocking call is a batch of one at depth
// 1: its task is resumed as soon as it suspends, which is exactly a blocking
// FetchPage.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>

#include "common/status.h"

namespace sias {

/// Runs tasks 0..n-1 to completion. `step(i, &done)` advances task i until
/// it completes (sets done) or suspends on a submitted page read; the steps
/// keep `inflight`, the caller's count of outstanding reads, up to date.
/// Tasks are admitted in order while fewer than `io_depth` reads are
/// outstanding, then resumed in the order they suspended (completions are
/// reaped in virtual time, so FIFO resume is simple and deterministic).
/// Returns the first error; the caller then abandons the tasks' fetches.
template <typename Step>
Status RunFetchTasks(size_t n, size_t io_depth, const size_t& inflight,
                     const Step& step) {
  io_depth = std::max<size_t>(io_depth, 1);
  if (n == 1) {  // a batch of one needs no queue
    for (bool done = false; !done;) SIAS_RETURN_NOT_OK(step(0, &done));
    return Status::OK();
  }
  std::deque<size_t> suspended;
  size_t next_admit = 0;
  for (;;) {
    while (next_admit < n && inflight < io_depth) {
      bool done = false;
      SIAS_RETURN_NOT_OK(step(next_admit, &done));
      if (!done) suspended.push_back(next_admit);
      next_admit++;
    }
    if (suspended.empty()) {
      if (next_admit >= n) return Status::OK();
      continue;  // the window held only prefetches; admission resumes
    }
    size_t i = suspended.front();
    suspended.pop_front();
    bool done = false;
    SIAS_RETURN_NOT_OK(step(i, &done));
    if (!done) suspended.push_back(i);
  }
}

}  // namespace sias

#include "index/secondary_index.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace sias {

Status BTreeIndex::Probe(const Snapshot&, Slice key, VirtualClock* clk,
                         const HitCallback& cb) {
  SIAS_ASSIGN_OR_RETURN(std::vector<uint64_t> values,
                        tree_.Lookup(key, clk));
  IndexHit hit;
  hit.key = key.ToString();
  hit.visibility_resolved = false;
  for (uint64_t v : values) {
    hit.value = v;
    if (!cb(hit)) return Status::OK();
  }
  return Status::OK();
}

Status BTreeIndex::ProbeRange(const Snapshot&, Slice lo, Slice hi,
                              VirtualClock* clk, const HitCallback& cb) {
  // Collect under the tree latch (Range's callback runs latched), emit
  // after: the interface promises hit callbacks run latch-free, because
  // callers resolve hits against the heap (page latches would invert the
  // kBTree < kPage order on re-entry).
  std::vector<IndexHit> hits;
  SIAS_RETURN_NOT_OK(tree_.Range(lo, hi, clk, [&](Slice k, uint64_t v) {
    IndexHit hit;
    hit.key = k.ToString();
    hit.value = v;
    hit.visibility_resolved = false;
    hits.push_back(std::move(hit));
    return true;
  }));
  for (const IndexHit& hit : hits) {
    if (!cb(hit)) return Status::OK();
  }
  return Status::OK();
}

Status BTreeIndex::Kill(Slice key, uint64_t value, VirtualClock* clk) {
  static obs::Counter* killed =
      obs::MetricsRegistry::Default().GetCounter("index.entries_killed");
  Status s = tree_.Delete(key, value, clk);
  if (s.IsNotFound()) return Status::OK();  // a concurrent probe won
  SIAS_RETURN_NOT_OK(s);
  killed->Increment();
  return Status::OK();
}

}  // namespace sias

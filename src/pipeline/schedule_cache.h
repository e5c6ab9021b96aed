// The process-wide schedule memo. GenerateSchedule() builds and validates a
// schedule from scratch on every call — O(P * Nm) work plus the full
// ValidateSchedule() contract check, 60-100 ms for a P=47, Nm=4096 shape — yet
// the sweep, the manager and the trainers keep asking for the same shapes:
// every morph event needs (kVaruna, P, Nm) for each candidate depth, and a
// spot trace revisits the same cluster sizes for hours. The memo keys on
// (kind, depth, num_microbatches) — the complete input of GenerateSchedule —
// so each shape is generated and validated exactly once per process, and
// every ConfigSearch, ElasticTrainer and SyncPipelineTrainer shares the one
// copy through Shared(). It is the only schedule memo: GenerateSchedule()
// itself keeps none.
//
// The index is a flat sorted vector of packed 64-bit keys (the sweep hot path
// may not touch node-based containers — varuna_analyze rule "hot-path"): lookups
// binary-search, misses insert in key order (cold path only). Entries are
// heap-allocated, so returned references survive later insertions.
//
// Thread-safe: Get() may be called concurrently from ThreadPool workers and
// from independent searches; a miss generates under the lock, so a shape is
// never generated twice. Entries are never evicted and there is no Clear():
// a schedule is a pure function of its key, and other holders' references
// must stay valid for the life of the process.
#ifndef SRC_PIPELINE_SCHEDULE_CACHE_H_
#define SRC_PIPELINE_SCHEDULE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/pipeline/schedule.h"

namespace varuna {

struct ScheduleCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

class ScheduleCache {
 public:
  // The one instance.
  static ScheduleCache& Shared();

  // Returns the cached schedule for the shape, generating (and validating) it
  // on first use. The reference is stable for the life of the process.
  const Schedule& Get(ScheduleKind kind, int depth, int num_microbatches);

  // Process-wide totals since start-up.
  ScheduleCacheStats stats() const;

 private:
  ScheduleCache() = default;

  struct Entry {
    uint64_t key = 0;  // PackKey(kind, depth, num_microbatches).
    std::unique_ptr<Schedule> schedule;
  };

  // depth and num_microbatches are bounded far below 2^30 (depth <= cut-point
  // count, Nm <= M_total), so the packing is collision-free.
  static uint64_t PackKey(ScheduleKind kind, int depth, int num_microbatches);

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  // Sorted ascending by key.
  ScheduleCacheStats stats_;
};

}  // namespace varuna

#endif  // SRC_PIPELINE_SCHEDULE_CACHE_H_

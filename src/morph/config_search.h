// Auto-configuration (§4.4): given G available GPUs and the one-time
// calibration, pick the best (P, D, m, Nm). The exploration is O(G * |m|):
//   1. The top micro-batch candidates are ranked once — the lowest m at which
//      F_i(m)/m stops improving, plus the next larger profiled sizes (larger m
//      trades pipeline-bubble fraction for per-example compute efficiency, so
//      the winner couples to P and must be explored jointly, §4.4).
//   2. P sweeps from the smallest memory-feasible depth up to the number of
//      cut-points (or G); D = G / P; for each (P, m) one balanced cut-point
//      assignment is evaluated with the fast simulator.
// M_total stays fixed across configurations (correctness-preserving
// morphing, §4.2): Nm = ceil(M_total / (m * D)) via gradient accumulation.
//
// The sweep is the hot path of every morph decision (§7.2), so it is built to
// be re-run at every preemption/arrival event, with reuse at three grains:
//   * Individual FastSimulator evaluations are memoized per candidate,
//     keyed (P, D, m, Nm, schedule kind) within a context fingerprint over
//     the calibration and every constraint field. Nm depends only on (D, m),
//     so sweeps at neighboring G share almost all candidates: a morph from
//     G=128 to a previously-unseen G=120 re-simulates only the handful of
//     genuinely new (P, D, m) tuples. Any recalibration or constraint change
//     rotates the context fingerprint and clears the table — a stale hit
//     would be a silent wrong morph.
//   * A cheap analytic lower bound (FastSimulator::LowerBoundMinibatch:
//     zero-bubble compute + minimal allreduce from calibrated scalars) prunes
//     candidates that provably cannot beat the incumbent best before they are
//     simulated. Pruning never changes Best(); it thins Sweep()'s list.
//   * Un-memoized, un-pruned candidates are simulated in fixed-size rounds
//     fanned out over the optional ThreadPool (one FastSimulator per worker,
//     stall RNG seeded per candidate) and merged in ascending (P, m) order.
//     Round size is a constant — never the worker count — so pruning
//     decisions, and therefore the full result vector, are bit-identical
//     across serial and pooled sweeps (property-tested).
// Whole sweeps are additionally memoized by (G, calibration fingerprint,
// constraints): an exact revisit of a cluster size resolves without touching
// the candidate table at all. A ScheduleCache generates+validates each
// (kind, P, Nm) shape once; hits on the candidate memo never need a schedule.
// All sweep-path tables are flat (sorted vectors / open addressing) per the
// varuna_lint hot-path rule.
//
// Both memos are keyed on the sweep's own inputs and nothing else: a sweep is
// a pure function of (G, calibration, SearchConstraints), its stall RNG seeded
// per candidate from (P, Nm). The liveput policy re-scores the returned list
// with its predictor and recovery pricing after Sweep() returns, so that state
// can never make a hit stale and is in no key. Unpruned, a warm search's
// Sweep() equals a cold one's bit for bit (property-tested).
#ifndef SRC_MORPH_CONFIG_SEARCH_H_
#define SRC_MORPH_CONFIG_SEARCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/model/cutpoints.h"
#include "src/model/transformer.h"
#include "src/morph/calibration.h"
#include "src/morph/fast_sim.h"
#include "src/pipeline/memory.h"
#include "src/pipeline/schedule_cache.h"

namespace varuna {

struct JobConfig {
  int pipeline_depth = 0;   // P
  int data_parallel = 0;    // D
  int microbatch_size = 0;  // m
  int num_microbatches = 0; // Nm per replica per mini-batch.
  double est_minibatch_s = 0.0;
  double est_examples_per_s = 0.0;
  int gpus_used = 0;        // P * D (<= G).

  double ActualBatch() const {
    return static_cast<double>(microbatch_size) * num_microbatches * data_parallel;
  }

  // Exact comparison (doubles included): the parallel-sweep property tests
  // assert pooled results are bit-identical to serial ones.
  bool operator==(const JobConfig&) const = default;
};

// Every sweep input besides G and the calibration. Each field keys the memos,
// so state used only to rank the returned list (liveput) does not belong here.
struct SearchConstraints {
  double total_batch = 0.0;           // M_total, fixed by the user.
  MemoryBudget budget;                // Per-GPU memory.
  int gpus_per_node = 1;              // Placement packing for the fast sim.
  double shared_sync_bytes = 0.0;     // From the tracer.
  bool cpu_offload_optimizer = false;
  // Relative throughput improvement below which F(m)/m has "stopped
  // improving" when picking m (§4.4).
  double microbatch_tolerance = 0.05;
  // How many micro-batch sizes the joint P x m sweep explores: the saturating
  // m plus up to this many - 1 larger profiled sizes. 1 recovers the old
  // fixed-m sweep.
  int microbatch_candidates = 3;
  // Skip simulating candidates whose analytic lower bound already exceeds the
  // incumbent best. Sound: the bound never exceeds the simulated time, so the
  // winner — and Best() — are bit-identical with or without pruning; only
  // Sweep()'s returned list thins. Disable for exhaustive diagnostics.
  bool prune = true;
};

// Cumulative cache/workload counters (monotone; snapshot and subtract to
// meter one call).
struct ConfigSearchStats {
  uint64_t sweeps = 0;                  // Sweep() calls (cached or not).
  uint64_t sweep_cache_hits = 0;
  uint64_t sweep_cache_misses = 0;
  uint64_t candidates_simulated = 0;    // FastSimulator invocations.
  // Candidate-grain reuse: probes of the per-candidate fast-sim memo during
  // un-memoized sweeps, and candidates skipped by the bound check (a pruned
  // candidate is a memo miss that never reaches the simulator).
  uint64_t candidate_memo_hits = 0;
  uint64_t candidate_memo_misses = 0;
  uint64_t candidates_pruned = 0;
};

// Identity of one fast-sim evaluation within a fixed (calibration,
// constraints) context. The context itself is not part of the key: the memo
// stores a context fingerprint and clears wholesale when it rotates.
struct CandidateKey {
  int32_t depth = 0;             // P
  int32_t replicas = 0;          // D
  int32_t microbatch = 0;        // m
  int32_t num_microbatches = 0;  // Nm = ceil(M_total / (m * D)).
  int32_t schedule_kind = 0;

  bool operator==(const CandidateKey&) const = default;
};

// Flat open-addressing (linear-probe, power-of-two capacity) table from
// CandidateKey to FastSimResult. Not thread-safe: ConfigSearch only touches
// it from the serial phases of a sweep (probes before the fan-out, inserts
// after each round's join), which is what keeps the hit path lock-free.
class CandidateMemo {
 public:
  // Clears the table when `context_fingerprint` differs from the stored one
  // (recalibration or changed constraints). Returns true if it cleared.
  bool SyncContext(uint64_t context_fingerprint);

  // Null on miss. The pointer is invalidated by the next Insert().
  const FastSimResult* Find(const CandidateKey& key) const;
  void Insert(const CandidateKey& key, const FastSimResult& result);

  size_t size() const { return size_; }
  void Clear();

 private:
  struct Slot {
    CandidateKey key;
    FastSimResult result;
    bool occupied = false;
  };

  static uint64_t Hash(const CandidateKey& key);
  void Grow();

  std::vector<Slot> slots_;  // Capacity a power of two (or empty).
  size_t size_ = 0;
  uint64_t context_fingerprint_ = 0;
};

class ConfigSearch {
 public:
  // `pool` is optional: null (or a 1-worker pool) keeps the sweep serial.
  // Pooled and serial sweeps return bit-identical results.
  ConfigSearch(const TransformerSpec* spec, const ModelSections* sections,
               const Calibration* calibration, ThreadPool* pool = nullptr)
      : spec_(spec), sections_(sections), calibration_(calibration), pool_(pool) {}

  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  // Lowest profiled m whose per-example forward time is within `tolerance` of
  // the next profiled size's. Done once; reused across morphs.
  int PickMicrobatchSize(double tolerance) const;

  // The joint-sweep candidate set: the saturating m plus up to
  // `max_candidates` - 1 larger profiled sizes, ascending.
  std::vector<int> PickMicrobatchCandidates(double tolerance, int max_candidates) const;

  // Best configuration for `gpus` available GPUs. Returns an error when even
  // the deepest pipeline cannot fit (too few GPUs or memory).
  Result<JobConfig> Best(int gpus, const SearchConstraints& constraints) const;

  // The feasible configurations evaluated during the sweep (for diagnostics
  // and the Table 3 bench), ascending by (P, m). With constraints.prune set,
  // bound-pruned candidates are omitted (they are provably not the best);
  // disable pruning for the exhaustive list.
  Result<std::vector<JobConfig>> Sweep(int gpus, const SearchConstraints& constraints) const;

  // The shared schedule memo (also used by the manager for executor runs).
  ScheduleCache* schedule_cache() const { return &schedule_cache_; }

  ConfigSearchStats stats() const;

  // Drops memoized sweeps, candidate evaluations, partitions and schedules
  // (for cold-start benchmarking).
  void ClearCaches() const;

 private:
  bool StageMemoryFits(const Partition& partition, int m, int num_microbatches,
                       const SearchConstraints& constraints) const;

  // Balanced partition for `depth`, computed once per depth and cached
  // (it depends only on the fixed model sections). Null when infeasible.
  const Partition* PartitionForDepth(int depth) const;

  // FNV-1a over `calibration_fingerprint` and every constraint field that
  // can influence a candidate's enumeration or simulated time. The candidate
  // memo clears when this rotates (conservative: a budget change cannot alter
  // sim results, but forcing re-simulation keeps the memo exact by
  // construction and is covered by the invalidation tests).
  static uint64_t ContextFingerprint(uint64_t calibration_fingerprint,
                                     const SearchConstraints& constraints);

  // (G, calibration fingerprint, every constraint field): the complete input
  // of Sweep. An empty cached vector records an infeasible sweep.
  using SweepKey =
      std::tuple<int, uint64_t, double, double, double, int, double, bool, double, int, bool>;
  static SweepKey MakeSweepKey(int gpus, uint64_t calibration_fingerprint,
                               const SearchConstraints& constraints);

  const TransformerSpec* spec_;
  const ModelSections* sections_;
  const Calibration* calibration_;
  ThreadPool* pool_;

  // Serialises whole sweeps: the per-worker simulators, the candidate memo
  // and the partition cache are shared state, so two externally concurrent
  // Sweep() calls on one instance must not overlap (the internal fan-out is
  // unaffected).
  mutable std::mutex sweep_mutex_;
  mutable ScheduleCache schedule_cache_;
  mutable std::mutex cache_mutex_;  // Guards sweep_cache_, stats_, simulators_.
  // Whole-sweep memo, sorted by key (flat: binary-search hits, O(n) miss-only
  // inserts — a session sees hundreds of sweeps, not millions).
  mutable std::vector<std::pair<SweepKey, std::vector<JobConfig>>> sweep_cache_;
  mutable ConfigSearchStats stats_;
  // One simulator per worker, constructed once and reused across sweeps so
  // the scratch buffers amortise (hoisted out of the per-candidate loop).
  mutable std::vector<FastSimulator> simulators_;
  // Candidate-grain fast-sim memo (guarded by sweep_mutex_, not cache_mutex_:
  // it is only touched from the serial phases of a sweep).
  mutable CandidateMemo candidate_memo_;
  // partitions_[depth] once computed; partition_known_[depth] distinguishes
  // "not yet tried" from "infeasible" (null entry).
  mutable std::vector<std::unique_ptr<Partition>> partitions_;
  mutable std::vector<uint8_t> partition_known_;
};

}  // namespace varuna

#endif  // SRC_MORPH_CONFIG_SEARCH_H_

// The incremental-morph-decision contract: candidate-level memoization plus
// bound pruning must be pure speed — never behaviour.
//   * Over seeded spot traces, the incremental sweep's chosen JobConfig at
//     every G is bit-identical (operator==, doubles included) to a
//     from-scratch cold sweep at that G, serial and pooled.
//   * Pruned sweeps are bit-identical across serial and pooled execution
//     (pruning rounds are a fixed size, never the worker count).
//   * The analytic lower bound never exceeds the simulated time (the
//     pruning-soundness invariant).
//   * Stale-hit safety: recalibration and any constraint change (budget,
//     micro-batch tolerance/candidates, M_total) clear the candidate memo
//     and force re-simulation — a stale hit would be a silent wrong morph.
//   * Memo purity: with pruning off, every sweep from one long-lived search
//     (memos warmed by pruned and unpruned sweeps at other G) equals a cold
//     search's sweep, doubles included. This is what lets the liveput
//     policy re-score cached sweeps without keying the memos on its state.
//   * Invalid input: a non-positive or NaN M_total is an error, not an abort.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/op_graph.h"
#include "src/morph/calibration.h"
#include "src/morph/config_search.h"

namespace varuna {
namespace {

struct Fixture {
  TransformerSpec spec;
  OpGraph graph;
  ModelSections sections;
  Cluster cluster;
  Calibration calibration;

  explicit Fixture(uint64_t calibration_seed = 99)
      : spec(Gpt2_2_5B()),
        graph(BuildTransformerOpGraph(spec)),
        sections(IdentifyCutPoints(graph, spec.num_layers).value()),
        cluster(CommodityFabric()) {
    cluster.AddVms(Nc6V3(), 16);
    Rng rng(calibration_seed);
    calibration = Calibrate(sections, cluster, CalibrationOptions(), &rng).value();
  }
};

SearchConstraints DefaultConstraints() {
  SearchConstraints constraints;
  constraints.total_batch = 2400;
  constraints.budget.gpu_memory_bytes = Nc6V3().gpu.memory_bytes;
  return constraints;
}

// Number of memory-feasible candidates a fresh unpruned sweep at G simulates
// (== its candidate-memo misses on a cold instance).
uint64_t ColdCandidateCount(const Fixture& fx, int gpus, const SearchConstraints& constraints) {
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  EXPECT_TRUE(search.Sweep(gpus, constraints).ok());
  return search.stats().candidates_simulated;
}

// --- Spot-trace property: incremental == from-scratch, at every G. ----------

TEST(ConfigSearchIncrementalTest, SpotTraceWinnersBitIdenticalToColdSweeps) {
  Fixture fx;
  const SearchConstraints constraints = DefaultConstraints();  // prune on.
  SearchConstraints unpruned = constraints;
  unpruned.prune = false;

  // Cold oracle: Best at each distinct G from a fresh, unpruned instance.
  // Computed once per G and shared across traces (a trace revisiting G must
  // match the same oracle anyway).
  std::map<int, JobConfig> oracle;
  const auto oracle_best = [&](int gpus) -> const JobConfig& {
    const auto it = oracle.find(gpus);
    if (it != oracle.end()) {
      return it->second;
    }
    ConfigSearch cold(&fx.spec, &fx.sections, &fx.calibration);
    return oracle.emplace(gpus, cold.Best(gpus, unpruned).value()).first->second;
  };

  ThreadPool pool(4);
  Rng rng(0x5707ULL);
  constexpr int kTraces = 50;
  constexpr int kPointsPerTrace = 5;
  for (int trace = 0; trace < kTraces; ++trace) {
    // One incremental searcher per trace: its candidate memo accumulates
    // across the trace's morph events, exactly like a live session's.
    ConfigSearch serial(&fx.spec, &fx.sections, &fx.calibration);
    ConfigSearch pooled(&fx.spec, &fx.sections, &fx.calibration, &pool);
    for (int point = 0; point < kPointsPerTrace; ++point) {
      const int gpus = static_cast<int>(rng.UniformInt(12, 40));
      const JobConfig& expected = oracle_best(gpus);
      const auto serial_best = serial.Best(gpus, constraints);
      const auto pooled_best = pooled.Best(gpus, constraints);
      ASSERT_TRUE(serial_best.ok()) << "trace=" << trace << " G=" << gpus;
      ASSERT_TRUE(pooled_best.ok()) << "trace=" << trace << " G=" << gpus;
      EXPECT_TRUE(serial_best.value() == expected)
          << "trace=" << trace << " G=" << gpus << " serial winner diverged from cold sweep";
      EXPECT_TRUE(pooled_best.value() == expected)
          << "trace=" << trace << " G=" << gpus << " pooled winner diverged from cold sweep";
    }
    // The traces genuinely exercise the incremental path, not 50 cold runs.
    if (trace == 0) {
      EXPECT_GT(serial.stats().candidate_memo_hits, 0u);
    }
  }
}

TEST(ConfigSearchIncrementalTest, PrunedSweepBitIdenticalSerialVsPooled) {
  const SearchConstraints constraints = DefaultConstraints();  // prune on.
  Fixture fx(7);
  for (const int gpus : {16, 36, 100}) {
    ConfigSearch serial(&fx.spec, &fx.sections, &fx.calibration);
    const auto serial_sweep = serial.Sweep(gpus, constraints);
    ASSERT_TRUE(serial_sweep.ok());
    for (const int threads : {1, 2, 4}) {
      ThreadPool pool(threads);
      ConfigSearch pooled(&fx.spec, &fx.sections, &fx.calibration, &pool);
      const auto pooled_sweep = pooled.Sweep(gpus, constraints);
      ASSERT_TRUE(pooled_sweep.ok());
      EXPECT_EQ(pooled_sweep.value(), serial_sweep.value())
          << "G=" << gpus << " threads=" << threads;
    }
  }
}

TEST(ConfigSearchIncrementalTest, PrunedWinnerEqualsUnprunedWinner) {
  Fixture fx;
  SearchConstraints pruned = DefaultConstraints();
  SearchConstraints unpruned = DefaultConstraints();
  unpruned.prune = false;
  ConfigSearch pruned_search(&fx.spec, &fx.sections, &fx.calibration);
  ConfigSearch unpruned_search(&fx.spec, &fx.sections, &fx.calibration);
  for (const int gpus : {12, 16, 36, 64, 100}) {
    const auto a = pruned_search.Best(gpus, pruned);
    const auto b = unpruned_search.Best(gpus, unpruned);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.value() == b.value()) << "G=" << gpus;
  }
  // And pruning actually pruned something somewhere, or the test is vacuous.
  EXPECT_GT(pruned_search.stats().candidates_pruned, 0u);
  // The pruned list is a subset containing the winner; the unpruned list is
  // exhaustive.
  EXPECT_LT(pruned_search.stats().candidates_simulated,
            unpruned_search.stats().candidates_simulated);
}

TEST(ConfigSearchIncrementalTest, LowerBoundNeverExceedsSimulatedTime) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;  // Exhaustive list.
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  FastSimulator simulator(&fx.calibration);
  for (const int gpus : {16, 36, 100}) {
    const auto sweep = search.Sweep(gpus, constraints);
    ASSERT_TRUE(sweep.ok());
    for (const JobConfig& config : sweep.value()) {
      const Partition partition =
          PartitionModel(fx.sections, config.pipeline_depth).value();
      FastSimConfig sim_config;
      sim_config.sections = &fx.sections;
      sim_config.partition = &partition;
      sim_config.data_parallel = config.data_parallel;
      sim_config.microbatch_size = config.microbatch_size;
      sim_config.gpus_per_node = constraints.gpus_per_node;
      sim_config.shared_sync_bytes = constraints.shared_sync_bytes;
      const double bound =
          simulator.LowerBoundMinibatch(sim_config, config.num_microbatches);
      EXPECT_LE(bound, config.est_minibatch_s)
          << "G=" << gpus << " P=" << config.pipeline_depth << " m=" << config.microbatch_size;
      EXPECT_GT(bound, 0.0);
    }
  }
}

// --- Stale-hit safety: every memo-relevant input change re-simulates. -------

// Runs `mutate` between two identical unpruned sweeps and asserts the second
// sweep served nothing from the candidate memo.
template <typename Mutate>
void ExpectFullResimulation(Mutate&& mutate) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;  // Exact counter arithmetic, no pruning noise.
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  const ConfigSearchStats before = search.stats();
  ASSERT_GT(before.candidates_simulated, 0u);

  mutate(&fx, &constraints);

  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  const ConfigSearchStats after = search.stats();
  // No stale hits: every probed candidate missed and was re-simulated.
  EXPECT_EQ(after.candidate_memo_hits, before.candidate_memo_hits);
  EXPECT_GT(after.candidates_simulated, before.candidates_simulated);
  EXPECT_EQ(after.candidates_simulated - before.candidates_simulated,
            after.candidate_memo_misses - before.candidate_memo_misses);
}

TEST(ConfigSearchIncrementalTest, RecalibrationForcesResimulation) {
  ExpectFullResimulation([](Fixture* fx, SearchConstraints*) {
    const uint64_t fingerprint = fx->calibration.Fingerprint();
    fx->calibration.sections[0].forward_s.begin()->second *= 1.5;
    ASSERT_NE(fx->calibration.Fingerprint(), fingerprint);
  });
}

TEST(ConfigSearchIncrementalTest, BudgetChangeForcesResimulation) {
  ExpectFullResimulation([](Fixture*, SearchConstraints* constraints) {
    constraints->budget.gpu_memory_bytes *= 2.0;
  });
}

TEST(ConfigSearchIncrementalTest, ToleranceChangeForcesResimulation) {
  ExpectFullResimulation([](Fixture*, SearchConstraints* constraints) {
    constraints->microbatch_tolerance = 0.25;
  });
}

TEST(ConfigSearchIncrementalTest, MicrobatchCandidatesChangeForcesResimulation) {
  ExpectFullResimulation([](Fixture*, SearchConstraints* constraints) {
    constraints->microbatch_candidates = 1;
  });
}

TEST(ConfigSearchIncrementalTest, TotalBatchChangeForcesResimulation) {
  ExpectFullResimulation([](Fixture*, SearchConstraints* constraints) {
    constraints->total_batch = 1200;
  });
}

// Positive control: with nothing mutated, a new G reuses candidates instead
// of re-simulating them all — the counters can tell reuse from invalidation.
TEST(ConfigSearchIncrementalTest, UnchangedContextReusesCandidatesAtNewG) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.prune = false;
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  const ConfigSearchStats before = search.stats();
  ASSERT_TRUE(search.Sweep(35, constraints).ok());
  const ConfigSearchStats after = search.stats();
  EXPECT_GT(after.candidate_memo_hits, before.candidate_memo_hits);
  EXPECT_LT(after.candidates_simulated - before.candidates_simulated,
            ColdCandidateCount(fx, 35, constraints));
}

// --- Memo purity: a warm sweep is the cold sweep. ---------------------------

TEST(ConfigSearchIncrementalTest, WarmUnprunedSweepsEqualColdSweeps) {
  Fixture fx;
  const SearchConstraints pruned = DefaultConstraints();
  SearchConstraints unpruned = pruned;
  unpruned.prune = false;
  ConfigSearch warm(&fx.spec, &fx.sections, &fx.calibration);
  Rng rng(0x9a2eULL);
  constexpr int kPoints = 40;
  for (int point = 0; point < kPoints; ++point) {
    // Neighbouring and repeated G exercise both memo grains; the interleaved
    // pruned Best() mirrors a session flipping between the reactive and the
    // liveput policy on one search.
    const int gpus = static_cast<int>(rng.UniformInt(12, 40));
    if (point % 2 == 1) {
      ASSERT_TRUE(warm.Best(static_cast<int>(rng.UniformInt(12, 40)), pruned).ok());
    }
    const auto warm_sweep = warm.Sweep(gpus, unpruned);
    ConfigSearch cold(&fx.spec, &fx.sections, &fx.calibration);
    const auto cold_sweep = cold.Sweep(gpus, unpruned);
    ASSERT_TRUE(warm_sweep.ok()) << "point=" << point << " G=" << gpus;
    ASSERT_TRUE(cold_sweep.ok()) << "point=" << point << " G=" << gpus;
    EXPECT_EQ(warm_sweep.value(), cold_sweep.value()) << "point=" << point << " G=" << gpus;
  }
  // Both memo grains were exercised, or the property is vacuous.
  const ConfigSearchStats stats = warm.stats();
  EXPECT_GT(stats.sweep_cache_hits, 0u);
  EXPECT_GT(stats.candidate_memo_hits, 0u);
}

// --- Invalid input is an error, not an abort. --------------------------------

TEST(ConfigSearchIncrementalTest, NonPositiveTotalBatchIsAnError) {
  Fixture fx;
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  for (const double total_batch : {0.0, -64.0, std::nan("")}) {
    SearchConstraints constraints = DefaultConstraints();
    constraints.total_batch = total_batch;
    const auto best = search.Best(36, constraints);
    const auto sweep = search.Sweep(36, constraints);
    ASSERT_FALSE(best.ok()) << "total_batch=" << total_batch;
    ASSERT_FALSE(sweep.ok()) << "total_batch=" << total_batch;
    EXPECT_NE(best.error().find("total_batch"), std::string::npos) << best.error();
    EXPECT_NE(sweep.error().find("total_batch"), std::string::npos) << sweep.error();
  }
  // Rejected before any memo is touched.
  EXPECT_EQ(search.stats().sweeps, 0u);
}

}  // namespace
}  // namespace varuna

// The parallel-sweep determinism contract: a ConfigSearch with a ThreadPool
// attached must return results bit-identical to a serial sweep — same
// JobConfig vectors, doubles included — across calibration seeds, GPU counts
// and pool sizes. Also pins the memoization semantics: repeated sweeps hit the
// memo, recalibration invalidates it, and schedule shapes are generated once
// per process, shared by every search.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/op_graph.h"
#include "src/morph/calibration.h"
#include "src/morph/config_search.h"
#include "src/pipeline/schedule_cache.h"
#include "src/varuna/determinism.h"

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

TEST(ConfigSearchParallelTest, PooledSweepBitIdenticalToSerial) {
  const SearchConstraints constraints = DefaultConstraints();
  for (const uint64_t seed : {1ULL, 7ULL}) {
    Fixture fx(seed);
    for (const int gpus : {16, 36, 100}) {
      // Separate instances per variant: a shared instance would serve the
      // pooled run from the serial run's memo and make the comparison vacuous.
      ConfigSearch serial(&fx.spec, &fx.sections, &fx.calibration);
      const auto serial_sweep = serial.Sweep(gpus, constraints);
      ASSERT_TRUE(serial_sweep.ok()) << "seed=" << seed << " G=" << gpus;
      ASSERT_FALSE(serial_sweep.value().empty());
      for (const int threads : {2, 4}) {
        ThreadPool pool(threads);
        ConfigSearch pooled(&fx.spec, &fx.sections, &fx.calibration, &pool);
        const auto pooled_sweep = pooled.Sweep(gpus, constraints);
        ASSERT_TRUE(pooled_sweep.ok());
        EXPECT_EQ(pooled_sweep.value(), serial_sweep.value())
            << "seed=" << seed << " G=" << gpus << " threads=" << threads;
      }
    }
  }
}

TEST(ConfigSearchParallelTest, PooledBestMatchesSerialBest) {
  Fixture fx;
  const SearchConstraints constraints = DefaultConstraints();
  ConfigSearch serial(&fx.spec, &fx.sections, &fx.calibration);
  ThreadPool pool(4);
  ConfigSearch pooled(&fx.spec, &fx.sections, &fx.calibration, &pool);
  for (const int gpus : {16, 100}) {
    const auto serial_best = serial.Best(gpus, constraints);
    const auto pooled_best = pooled.Best(gpus, constraints);
    ASSERT_TRUE(serial_best.ok());
    ASSERT_TRUE(pooled_best.ok());
    EXPECT_TRUE(serial_best.value() == pooled_best.value()) << "G=" << gpus;
  }
}

TEST(ConfigSearchParallelTest, RepeatedSweepHitsMemo) {
  Fixture fx;
  const SearchConstraints constraints = DefaultConstraints();
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  const auto first = search.Sweep(36, constraints);
  ASSERT_TRUE(first.ok());
  const uint64_t simulated_cold = search.stats().candidates_simulated;
  EXPECT_GT(simulated_cold, 0u);

  const auto second = search.Sweep(36, constraints);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(search.stats().sweeps, 2u);
  EXPECT_EQ(search.stats().sweep_cache_misses, 1u);
  EXPECT_EQ(search.stats().sweep_cache_hits, 1u);
  // The memo hit re-simulated nothing.
  EXPECT_EQ(search.stats().candidates_simulated, simulated_cold);
}

TEST(ConfigSearchParallelTest, DistinctInputsMissTheMemo) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  ASSERT_TRUE(search.Sweep(40, constraints).ok());  // Different G.
  constraints.microbatch_candidates = 1;
  ASSERT_TRUE(search.Sweep(36, constraints).ok());  // Different constraints.
  EXPECT_EQ(search.stats().sweep_cache_misses, 3u);
  EXPECT_EQ(search.stats().sweep_cache_hits, 0u);
}

TEST(ConfigSearchParallelTest, RecalibrationInvalidatesMemo) {
  Fixture fx;
  const SearchConstraints constraints = DefaultConstraints();
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  const auto before = search.Sweep(36, constraints);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(search.stats().sweep_cache_misses, 1u);

  // An in-place recalibration (even one profiled point) changes the
  // fingerprint, so the next sweep must re-simulate, not serve stale configs.
  const uint64_t fingerprint_before = fx.calibration.Fingerprint();
  fx.calibration.sections[0].forward_s.begin()->second *= 1.5;
  EXPECT_NE(fx.calibration.Fingerprint(), fingerprint_before);

  const uint64_t simulated_before = search.stats().candidates_simulated;
  const auto after = search.Sweep(36, constraints);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(search.stats().sweep_cache_misses, 2u);
  EXPECT_EQ(search.stats().sweep_cache_hits, 0u);
  EXPECT_GT(search.stats().candidates_simulated, simulated_before);
}

TEST(ConfigSearchParallelTest, InfeasibleSweepsAreMemoizedToo) {
  Fixture fx;
  SearchConstraints constraints = DefaultConstraints();
  constraints.budget.gpu_memory_bytes = 1.0;  // Nothing fits.
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  EXPECT_FALSE(search.Best(16, constraints).ok());
  EXPECT_FALSE(search.Best(16, constraints).ok());
  EXPECT_EQ(search.stats().sweep_cache_misses, 1u);
  EXPECT_EQ(search.stats().sweep_cache_hits, 1u);
}

TEST(ScheduleCacheTest, GeneratesEachShapeOnce) {
  ScheduleCache& cache = ScheduleCache::Shared();
  const Schedule& a = cache.Get(ScheduleKind::kVaruna, 4, 8);
  const ScheduleCacheStats first = cache.stats();
  const Schedule& b = cache.Get(ScheduleKind::kVaruna, 4, 8);
  EXPECT_EQ(&a, &b);  // Stable reference, no regeneration.
  EXPECT_EQ(cache.stats().misses, first.misses);
  EXPECT_EQ(cache.stats().hits, first.hits + 1);
  const Schedule& c = cache.Get(ScheduleKind::kVaruna, 4, 9);
  EXPECT_NE(&a, &c);
  // The memo hands back exactly what generation produces.
  EXPECT_EQ(a.ops, GenerateSchedule(ScheduleKind::kVaruna, 4, 8).ops);
  // Every search serves its sweeps from the one shared instance.
  Fixture fx;
  const ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  const ConfigSearch other(&fx.spec, &fx.sections, &fx.calibration);
  EXPECT_EQ(search.schedule_cache(), &cache);
  EXPECT_EQ(other.schedule_cache(), &cache);
  // ClearCaches() drops the search's memos, never the shared schedules.
  search.ClearCaches();
  EXPECT_EQ(&cache.Get(ScheduleKind::kVaruna, 4, 8), &a);
}

// Independent searches (the shape of a campaign fan-out) sweep concurrently
// on ThreadPool workers over cluster sizes whose candidates overlap, so their
// first requests for a schedule shape collide in the one shared memo. Results
// must be bit-identical to a serial search's, and every search must be handed
// the very same schedule object for a shape. The TSan leg runs this test.
TEST(ConfigSearchParallelTest, ConcurrentSearchesShareOneScheduleMemo) {
  Fixture fx;
  const SearchConstraints constraints = DefaultConstraints();
  const std::vector<int> sizes = {36, 35, 32, 40};
  constexpr int kSearches = 4;
  std::vector<std::unique_ptr<ConfigSearch>> searches;
  for (int i = 0; i < kSearches; ++i) {
    searches.push_back(std::make_unique<ConfigSearch>(&fx.spec, &fx.sections, &fx.calibration));
  }
  // concurrent[i][k]: search i's sweep at sizes[k] (empty when it failed).
  std::vector<std::vector<std::vector<JobConfig>>> concurrent(
      kSearches, std::vector<std::vector<JobConfig>>(sizes.size()));
  ThreadPool pool(kSearches);
  // Every search walks the sizes in the same order (a pruned sweep's list
  // depends on what the search has memoized, so the serial reference walks it
  // too), which makes their first requests for each shape arrive together.
  pool.ParallelFor(kSearches, [&](int item, int) {
    for (size_t k = 0; k < sizes.size(); ++k) {
      const auto sweep = searches[static_cast<size_t>(item)]->Sweep(sizes[k], constraints);
      if (sweep.ok()) {
        concurrent[static_cast<size_t>(item)][k] = sweep.value();
      }
    }
  });

  ConfigSearch serial(&fx.spec, &fx.sections, &fx.calibration);
  const uint64_t misses_before = serial.schedule_cache()->stats().misses;
  for (size_t k = 0; k < sizes.size(); ++k) {
    const auto sweep = serial.Sweep(sizes[k], constraints);
    ASSERT_TRUE(sweep.ok()) << "G=" << sizes[k];
    ASSERT_FALSE(sweep.value().empty());
    for (int i = 0; i < kSearches; ++i) {
      EXPECT_EQ(concurrent[static_cast<size_t>(i)][k], sweep.value())
          << "search " << i << " G=" << sizes[k];
    }
  }
  // The concurrent searches already generated every shape the serial one needs.
  EXPECT_EQ(serial.schedule_cache()->stats().misses, misses_before);

  for (const auto& row : concurrent) {
    for (const auto& sweep : row) {
      for (const JobConfig& config : sweep) {
        const Schedule* shared = &serial.schedule_cache()->Get(
            ScheduleKind::kVaruna, config.pipeline_depth, config.num_microbatches);
        for (const auto& search : searches) {
          EXPECT_EQ(&search->schedule_cache()->Get(ScheduleKind::kVaruna, config.pipeline_depth,
                                                   config.num_microbatches),
                    shared)
              << "P=" << config.pipeline_depth << " Nm=" << config.num_microbatches;
        }
      }
    }
  }
}

TEST(ConfigSearchParallelTest, SweepReusesCandidatesAcrossClusterSizes) {
  Fixture fx;
  const SearchConstraints constraints = DefaultConstraints();
  ConfigSearch search(&fx.spec, &fx.sections, &fx.calibration);
  ASSERT_TRUE(search.Sweep(36, constraints).ok());
  const ConfigSearchStats cold = search.stats();
  EXPECT_GT(cold.candidates_simulated, 0u);
  EXPECT_EQ(cold.candidate_memo_hits, 0u);
  // A second cluster size re-derives many of the same (P, D, m, Nm) tuples
  // (D = G/P is unchanged for most P); those must come from the candidate
  // memo without re-simulation — and a memoized candidate never even needs
  // its schedule, so the schedule cache is not touched for it either.
  const ScheduleCacheStats schedules_cold = search.schedule_cache()->stats();
  ASSERT_TRUE(search.Sweep(35, constraints).ok());
  const ConfigSearchStats warm = search.stats();
  EXPECT_GT(warm.candidate_memo_hits, 0u);
  const uint64_t resimulated = warm.candidates_simulated - cold.candidates_simulated;
  EXPECT_LT(resimulated, cold.candidates_simulated);
  // Only freshly simulated candidates may generate schedules.
  const ScheduleCacheStats schedules_warm = search.schedule_cache()->stats();
  EXPECT_LE(schedules_warm.misses - schedules_cold.misses, resimulated);
}

// End-to-end: an elastic session whose morph decisions run on a 4-worker pool
// produces the *same* training trace, event for event at full precision, as
// the serial session — pooled search must never alter behaviour.
TEST(ConfigSearchParallelTest, ElasticTrainerTraceUnchangedByPooledSearch) {
  DeterminismScenario serial_scenario = DefaultDeterminismScenario(7);
  serial_scenario.options.search_threads = 1;
  DeterminismScenario pooled_scenario = DefaultDeterminismScenario(7);
  pooled_scenario.options.search_threads = 4;

  const ElasticTrace serial_trace = RunElasticScenario(serial_scenario);
  const ElasticTrace pooled_trace = RunElasticScenario(pooled_scenario);
  EXPECT_TRUE(serial_trace == pooled_trace);
  EXPECT_EQ(serial_trace.Fingerprint(), pooled_trace.Fingerprint());
  EXPECT_GT(serial_trace.minibatches_done, 0);
}

}  // namespace
}  // namespace varuna

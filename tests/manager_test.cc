#include <gtest/gtest.h>

#include <cmath>

#include "src/cluster/cluster.h"
#include "src/cluster/vm.h"
#include "src/manager/checkpoint.h"
#include "src/manager/elastic_trainer.h"
#include "src/model/transformer.h"
#include "src/sim/engine.h"

namespace varuna {
namespace {

TEST(CheckpointStoreTest, LocalThenCloud) {
  SimEngine engine;
  CheckpointOptions options;
  CheckpointStore store(&engine, options);
  EXPECT_EQ(store.LatestRestorable(true), -1);
  const double stall = store.BeginCheckpoint(7, 2.5e9, 5);
  // Sharded write: 14 B/param * 2.5e9 / 5 replicas / 1 GB/s = 7 s.
  EXPECT_NEAR(stall, 7.0, 0.1);
  EXPECT_EQ(store.latest_local(), 7);
  EXPECT_EQ(store.LatestRestorable(/*local_shards_lost=*/false), 7);
  EXPECT_EQ(store.LatestRestorable(/*local_shards_lost=*/true), -1);
  engine.Run();  // Background upload completes.
  EXPECT_EQ(store.LatestRestorable(/*local_shards_lost=*/true), 7);
}

TEST(CheckpointStoreTest, MoreReplicasShardFaster) {
  SimEngine engine;
  CheckpointStore store(&engine, CheckpointOptions());
  const double d1 = store.BeginCheckpoint(0, 1e9, 1);
  const double d8 = store.BeginCheckpoint(1, 1e9, 8);
  EXPECT_NEAR(d1 / d8, 8.0, 0.01);
}

TEST(CheckpointStoreTest, RestoreIncludesSetupCost) {
  SimEngine engine;
  CheckpointOptions options;
  CheckpointStore store(&engine, options);
  EXPECT_GE(store.RestoreDuration(1e9, 4), options.restore_setup_s);
}

struct SessionFixture {
  SimEngine engine;
  Cluster cluster{CommodityFabric()};
  SpotMarket market{&engine, Rng(17), 60.0};
  int pool = 0;
  std::unique_ptr<ElasticTrainer> trainer;

  explicit SessionFixture(const TransformerSpec& spec, int max_vms, TrainerOptions options,
                          SpotPoolDynamics dynamics = {}) {
    pool = market.AddPool(Nc6V3(), max_vms, dynamics);
    trainer = std::make_unique<ElasticTrainer>(&engine, &cluster, &market, pool, Nc6V3(), spec,
                                               options);
    trainer->Start();
    market.Start();
  }
};

SpotPoolDynamics StableDynamics() {
  SpotPoolDynamics dynamics;
  dynamics.mean_availability = 1.0;
  dynamics.volatility = 0.0;
  dynamics.preemption_hazard = 0.0;
  dynamics.max_grants_per_tick = 64;
  return dynamics;
}

TEST(ElasticTrainerTest, BootstrapsAndTrains) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 40;
  SessionFixture fx(Gpt2_2_5B(), 40, options, StableDynamics());
  fx.engine.RunUntil(4.0 * kHour);
  EXPECT_TRUE(fx.trainer->job_running());
  EXPECT_GT(fx.trainer->stats().minibatches_done, 10);
  EXPECT_GT(fx.trainer->stats().examples_processed, 10 * 2400.0);
  ASSERT_TRUE(fx.trainer->current_config().has_value());
  EXPECT_LE(fx.trainer->current_config()->gpus_used, 40);
}

// A non-positive or NaN M_total makes every sweep an error; the trainer must
// refuse it at construction instead of running to the horizon unplaced.
TEST(ElasticTrainerDeathTest, RejectsNonPositiveOrNanTotalBatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const double total_batch : {0.0, -64.0, std::nan("")}) {
    TrainerOptions options;
    options.total_batch = total_batch;
    EXPECT_DEATH(SessionFixture(Gpt2_2_5B(), 8, options, StableDynamics()), "total_batch")
        << "total_batch = " << total_batch;
  }
}

TEST(ElasticTrainerTest, WritesCheckpointsPeriodically) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 30;
  options.checkpoint_every_minibatches = 5;
  SessionFixture fx(Gpt2_2_5B(), 30, options, StableDynamics());
  fx.engine.RunUntil(4.0 * kHour);
  const auto& stats = fx.trainer->stats();
  EXPECT_GT(stats.checkpoints, 3);
  EXPECT_NEAR(static_cast<double>(stats.minibatches_done) / stats.checkpoints, 5.0, 2.0);
}

TEST(ElasticTrainerTest, SurvivesPreemptions) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 40;
  options.checkpoint_every_minibatches = 5;
  SpotPoolDynamics dynamics = StableDynamics();
  dynamics.preemption_hazard = 1.0 / (6.0 * kHour);  // Aggressive churn.
  SessionFixture fx(Gpt2_2_5B(), 40, options, dynamics);
  fx.engine.RunUntil(12.0 * kHour);
  const auto& stats = fx.trainer->stats();
  EXPECT_GT(stats.preemptions_hit, 0);
  EXPECT_GT(stats.morphs, 1);
  EXPECT_GT(stats.minibatches_done, 20);
  EXPECT_GE(stats.examples_processed, 0.0);
}

TEST(ElasticTrainerTest, DetectsFailStutter) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 36;
  SessionFixture fx(Gpt2_2_5B(), 36, options, StableDynamics());
  fx.engine.RunUntil(2.0 * kHour);
  ASSERT_TRUE(fx.trainer->job_running());
  // Degrade one VM by 30%; the manager should notice within a mini-batch or
  // two and replace it.
  fx.cluster.SetSlowFactor(3, 1.3);
  fx.engine.RunUntil(4.0 * kHour);
  EXPECT_GT(fx.trainer->stats().stutters_detected, 0);
  bool replaced = false;
  for (const auto& event : fx.trainer->stats().events) {
    replaced |= event.kind == "replace";
  }
  EXPECT_TRUE(replaced);
}

TEST(ElasticTrainerTest, GrowsWhenCapacityArrives) {
  TrainerOptions options;
  options.total_batch = 8192;
  options.demand_vms = 20;
  options.provision_check_interval_s = 600.0;
  SessionFixture fx(Gpt2_2_5B(), 80, options, StableDynamics());
  fx.engine.RunUntil(2.0 * kHour);
  ASSERT_TRUE(fx.trainer->current_config().has_value());
  const int gpus_before = fx.trainer->current_config()->gpus_used;
  // Raise demand; the market grants more VMs; the provision tick should morph
  // into a bigger configuration.
  fx.market.SetDemand(fx.pool, 80);
  fx.engine.RunUntil(6.0 * kHour);
  ASSERT_TRUE(fx.trainer->current_config().has_value());
  EXPECT_GT(fx.trainer->current_config()->gpus_used, gpus_before);
  EXPECT_GT(fx.trainer->stats().morphs, 1);
}

TEST(ElasticTrainerTest, TimelineRecordsSamplesAndEvents) {
  TrainerOptions options;
  options.total_batch = 2400;
  options.demand_vms = 30;
  SessionFixture fx(Gpt2_2_5B(), 30, options, StableDynamics());
  fx.engine.RunUntil(2.0 * kHour);
  const auto& stats = fx.trainer->stats();
  ASSERT_FALSE(stats.samples.empty());
  ASSERT_FALSE(stats.events.empty());
  EXPECT_EQ(stats.events.front().kind, "configure");
  for (const auto& sample : stats.samples) {
    EXPECT_GT(sample.examples_per_s, 0.0);
    EXPECT_GT(sample.gpus_in_use, 0);
  }
}

}  // namespace
}  // namespace varuna

// Liveput policy battery (src/morph/liveput.h): the online availability
// predictor converges to the true Markov transition parameters of a
// synthetic chain, the oracle mode reproduces the true hazard, the liveput
// objective is monotone in survival, and — the headline — every policy mode
// (reactive, proactive, oracle-proactive) is bit-replayable on seeded chaos
// campaigns, with a ≥20-campaign head-to-head asserting the proactive policy
// actually pays: at least as many mini-batches as reactive, strictly fewer
// rolled back, and the oracle as an upper bound on what prediction buys.
// Cold and degenerate regimes (empty history, stable market, capacity
// collapse) must fall back to the reactive decision sequence *exactly* —
// identical ElasticTrace fingerprints, not merely similar outcomes.
#include "src/morph/liveput.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/common/rng.h"

namespace varuna {
namespace {

// --- AvailabilityPredictor: convergence on a synthetic Markov chain. --------

TEST(AvailabilityPredictorTest, ConvergesToTrueMarkovParameters) {
  // True 2-state chain, discretized at the predictor's window: each window an
  // up node dies w.p. p and a down node restores w.p. q. The predictor sees
  // only the event stream; decay is disabled so the cumulative estimator's
  // convergence is what is on trial.
  constexpr int kNodes = 24;
  constexpr double kTrueP = 0.04;
  constexpr double kTrueQ = 0.30;
  constexpr int kWindows = 4000;

  PredictorOptions options;
  options.window_s = 60.0;
  options.decay_tau_s = 0.0;  // Pure cumulative estimator.
  AvailabilityPredictor predictor(options);
  predictor.SetDemandHint(kNodes);

  Rng rng(0x11fe);
  int up = 0;
  for (int window = 0; window < kWindows; ++window) {
    const double now_s = options.window_s * static_cast<double>(window);
    predictor.ObserveQuiet(now_s);  // Accrue the window's exposure first.
    int died = 0;
    int restored = 0;
    for (int node = 0; node < up; ++node) {
      died += rng.NextDouble() < kTrueP ? 1 : 0;
    }
    for (int node = 0; node < kNodes - up; ++node) {
      restored += rng.NextDouble() < kTrueQ ? 1 : 0;
    }
    for (int i = 0; i < died; ++i) {
      predictor.ObservePreemption(now_s);
    }
    for (int i = 0; i < restored; ++i) {
      predictor.ObserveGrant(now_s);
    }
    up += restored - died;
  }

  EXPECT_FALSE(predictor.Cold());
  EXPECT_EQ(predictor.up_vms(), up);
  EXPECT_NEAR(predictor.PreemptProbabilityPerWindow(), kTrueP, 0.15 * kTrueP);
  EXPECT_NEAR(predictor.RestoreProbabilityPerWindow(), kTrueQ, 0.15 * kTrueQ);
  // Survival over a horizon is the per-window estimate compounded.
  const double horizon_s = 10.0 * options.window_s;
  EXPECT_NEAR(predictor.NodeSurvival(horizon_s),
              std::pow(1.0 - kTrueP, 10.0), 0.05);
}

TEST(AvailabilityPredictorTest, EmptyHistoryIsColdWithPriorEstimates) {
  AvailabilityPredictor predictor;
  EXPECT_TRUE(predictor.Cold());
  // Laplace priors: alpha / 2 alpha = 0.5 per window — pure prior, no data.
  EXPECT_DOUBLE_EQ(predictor.PreemptProbabilityPerWindow(), 0.5);
  EXPECT_DOUBLE_EQ(predictor.RestoreProbabilityPerWindow(), 0.5);
  const double survival = predictor.NodeSurvival(600.0);
  EXPECT_GE(survival, 0.0);
  EXPECT_LE(survival, 1.0);
  EXPECT_DOUBLE_EQ(predictor.PlacementSurvival(0, 600.0), 1.0);
}

TEST(AvailabilityPredictorTest, WarmupGatesRequireBothEventsAndExposure) {
  PredictorOptions options;
  options.min_exposure_windows = 10.0;
  options.min_preemption_events = 3;
  AvailabilityPredictor predictor(options);
  predictor.SetDemandHint(4);
  for (int i = 0; i < 4; ++i) {
    predictor.ObserveGrant(static_cast<double>(i));
  }
  // Plenty of exposure, zero preemptions: still cold.
  predictor.ObserveQuiet(4.0 + 20.0 * options.window_s);
  EXPECT_TRUE(predictor.Cold());
  predictor.ObservePreemption(4.0 + 21.0 * options.window_s);
  predictor.ObservePreemption(4.0 + 22.0 * options.window_s);
  EXPECT_TRUE(predictor.Cold());  // Two events < the three required.
  predictor.ObservePreemption(4.0 + 23.0 * options.window_s);
  EXPECT_FALSE(predictor.Cold());
}

// --- Oracle mode. ------------------------------------------------------------

TEST(AvailabilityPredictorTest, OracleReproducesTrueHazard) {
  AvailabilityPredictor predictor;
  const double hazard = 1.0 / 3600.0;
  predictor.EnableOracle(hazard);
  EXPECT_TRUE(predictor.oracle());
  EXPECT_FALSE(predictor.Cold());  // Oracle is never cold.
  const double horizon_s = 900.0;
  EXPECT_NEAR(predictor.NodeSurvival(horizon_s), std::exp(-hazard * horizon_s), 1e-12);
  EXPECT_NEAR(predictor.PlacementSurvival(8, horizon_s),
              std::pow(std::exp(-hazard * horizon_s), 8.0), 1e-12);
}

TEST(AvailabilityPredictorTest, OracleForecastStormsDiscountSurvival) {
  AvailabilityPredictor predictor;
  predictor.EnableOracle(1.0 / 3600.0);
  predictor.SetDemandHint(8);
  for (int i = 0; i < 8; ++i) {
    predictor.ObserveGrant(0.0);
  }
  const double calm = predictor.NodeSurvival(900.0);
  predictor.ForecastStorm(/*at_s=*/600.0, /*vms=*/4);
  const double stormy = predictor.NodeSurvival(900.0);
  EXPECT_LT(stormy, calm);
  // A forecast beyond the horizon does not discount it.
  AvailabilityPredictor far;
  far.EnableOracle(1.0 / 3600.0);
  far.ObserveGrant(0.0);
  const double before = far.NodeSurvival(300.0);
  far.ForecastStorm(/*at_s=*/1200.0, /*vms=*/4);
  EXPECT_DOUBLE_EQ(far.NodeSurvival(300.0), before);
  // Fired storms are history: once time passes the forecast, it drops.
  predictor.ObserveQuiet(700.0);
  EXPECT_NEAR(predictor.NodeSurvival(900.0), calm, 1e-12);
}

// --- LiveputObjective: monotonicity and amortization. ------------------------

TEST(LiveputObjectiveTest, LiveputAndScoreAreMonotoneInSurvival) {
  AvailabilityPredictor predictor;
  const LiveputObjective amortized(&predictor, /*horizon_s=*/900.0,
                                   /*gpus_per_vm=*/1, /*recovery_cost_s=*/120.0);
  const LiveputObjective full_loss(&predictor, 900.0, 1);  // recovery < 0.
  double previous_liveput = -1.0;
  double previous_score = -1.0;
  for (double survival = 0.0; survival <= 1.0; survival += 0.05) {
    const double liveput = LiveputObjective::Liveput(100.0, survival);
    const double score = amortized.Score(100.0, survival);
    EXPECT_GT(liveput, previous_liveput);
    EXPECT_GT(score, previous_score);
    // Amortizing can only help, and survival-weighting can only discount.
    EXPECT_GE(score, liveput - 1e-12);
    EXPECT_LE(score, 100.0 + 1e-12);
    // Full-horizon recovery degrades the score to the pure liveput product.
    EXPECT_NEAR(full_loss.Score(100.0, survival), liveput, 1e-12);
    previous_liveput = liveput;
    previous_score = score;
  }
}

TEST(LiveputObjectiveTest, PlacementSurvivalIsMonotoneInVmsUsed) {
  AvailabilityPredictor predictor;
  predictor.SetDemandHint(8);
  predictor.ObserveGrant(0.0);
  predictor.ObservePreemption(3600.0);
  double previous = 2.0;
  for (int vms = 1; vms <= 16; ++vms) {
    const double survival = predictor.PlacementSurvival(vms, 900.0);
    EXPECT_GT(survival, 0.0);
    EXPECT_LT(survival, previous);  // Strictly more VMs, strictly more risk.
    previous = survival;
  }
}

// --- Fingerprint: rotation on learning, stability on quiet accrual. ----------

TEST(AvailabilityPredictorTest, FingerprintRotatesOnObservationsOnly) {
  AvailabilityPredictor predictor;
  predictor.SetDemandHint(4);
  predictor.ObserveGrant(0.0);
  const uint64_t after_grant = predictor.Fingerprint();
  // Quiet accrual within one window (and one decay quantum) is not a
  // learning step: the candidate-memo context must hold still.
  predictor.ObserveQuiet(1.0);
  EXPECT_EQ(predictor.Fingerprint(), after_grant);
  predictor.ObservePreemption(2.0);
  EXPECT_NE(predictor.Fingerprint(), after_grant);
  // Forecasts are decision-relevant state too (oracle pre-migration).
  const uint64_t before_forecast = predictor.Fingerprint();
  predictor.ForecastStorm(500.0, 2);
  EXPECT_NE(predictor.Fingerprint(), before_forecast);
}

// --- Campaign helpers. -------------------------------------------------------

ChaosCampaignSpec StormySpec(uint64_t seed, MorphPolicy policy) {
  ChaosCampaignSpec spec = StormyChaosCampaign(seed);
  spec.options.morph_policy = policy;
  return spec;
}

// --- Bit-identical replay of every policy mode. ------------------------------

TEST(LiveputReplayTest, ProactivePoliciesReplayBitIdentically) {
  for (const MorphPolicy policy :
       {MorphPolicy::kProactive, MorphPolicy::kOracleProactive}) {
    for (const uint64_t seed : {5u, 23u}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                   " seed " + std::to_string(seed));
      const ChaosReport first = RunChaosCampaign(StormySpec(seed, policy));
      const ChaosReport second = RunChaosCampaign(StormySpec(seed, policy));
      EXPECT_EQ(first.fingerprint, second.fingerprint);
      EXPECT_EQ(first.stats.minibatches_done, second.stats.minibatches_done);
      EXPECT_EQ(first.stats.premigrated_shards, second.stats.premigrated_shards);
      EXPECT_EQ(first.stats.proactive_morphs, second.stats.proactive_morphs);
    }
  }
}

TEST(LiveputReplayTest, PooledSearchMatchesSerialUnderProactivePolicy) {
  // The liveput argmax runs over the (possibly pooled) sweep: thread count
  // must never leak into the decision sequence.
  for (const MorphPolicy policy :
       {MorphPolicy::kProactive, MorphPolicy::kOracleProactive}) {
    SCOPED_TRACE(static_cast<int>(policy));
    ChaosCampaignSpec serial = StormySpec(11, policy);
    serial.options.search_threads = 1;
    ChaosCampaignSpec pooled = StormySpec(11, policy);
    pooled.options.search_threads = 3;
    EXPECT_EQ(RunChaosCampaign(serial).fingerprint,
              RunChaosCampaign(pooled).fingerprint);
  }
}

// --- The head-to-head: does prediction actually pay? -------------------------

struct PolicyTotals {
  int64_t minibatches = 0;
  int64_t rolled_back = 0;
  int64_t restarts = 0;
  int64_t premigrated_shards = 0;
  int64_t proactive_morphs = 0;
};

PolicyTotals RunPolicy(MorphPolicy policy, int seeds) {
  PolicyTotals totals;
  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
    const ChaosReport report = RunChaosCampaign(StormySpec(seed, policy));
    totals.minibatches += report.stats.minibatches_done;
    totals.rolled_back += report.stats.minibatches_rolled_back;
    totals.restarts += report.stats.restarts;
    totals.premigrated_shards += report.stats.premigrated_shards;
    totals.proactive_morphs += report.stats.proactive_morphs;
  }
  return totals;
}

TEST(LiveputHeadToHeadTest, ProactiveBeatsReactiveOverTwentyStormCampaigns) {
  constexpr int kSeeds = 20;
  const PolicyTotals reactive = RunPolicy(MorphPolicy::kReactive, kSeeds);
  const PolicyTotals proactive = RunPolicy(MorphPolicy::kProactive, kSeeds);
  const PolicyTotals oracle = RunPolicy(MorphPolicy::kOracleProactive, kSeeds);

  // Reactive never pre-migrates; the proactive policies demonstrably do.
  EXPECT_EQ(reactive.premigrated_shards, 0);
  EXPECT_EQ(reactive.proactive_morphs, 0);
  EXPECT_GT(proactive.premigrated_shards, 0);
  EXPECT_GT(oracle.premigrated_shards, 0);

  // The acceptance bar: across the batch the online proactive policy
  // completes at least as many mini-batches as reactive while strictly
  // reducing the rolled-back count.
  EXPECT_GE(proactive.minibatches, reactive.minibatches);
  EXPECT_LT(proactive.rolled_back, reactive.rolled_back);

  // The oracle upper-bounds what prediction buys: with the true hazard and
  // the storm schedule in hand it avoids at least as much re-work as the
  // online estimator, without giving up reactive-level throughput.
  EXPECT_LE(oracle.rolled_back, proactive.rolled_back);
  EXPECT_GE(oracle.minibatches, reactive.minibatches);
}

// A single full campaign's trace fingerprint, pinned: any change to the
// proactive decision sequence — predictor estimates, objective scoring,
// pre-migration trigger arithmetic — must be a conscious golden update, not
// an accident. (Seed 7 premigrates and morphs on today's tuning.)
TEST(LiveputHeadToHeadTest, GoldenProactiveCampaignFingerprint) {
  const ChaosReport report = RunChaosCampaign(StormySpec(7, MorphPolicy::kProactive));
  EXPECT_GT(report.stats.premigrated_shards, 0);  // The policy is exercised.
  // Golden updated when live_handoffs joined the ElasticTrace serialization
  // (fast-recovery PR): the decision sequence itself was verified unchanged —
  // every other replay/equivalence test passed without modification.
  EXPECT_EQ(report.fingerprint, 0x1388bd578a6004bfULL)
      << "proactive decision sequence changed: new fingerprint 0x" << std::hex
      << report.fingerprint;
}

// The liveput objective re-scores sweeps after they return, so predictor
// learning steps and checkpoint progress must not cost re-simulation: a
// proactive fast-recovery campaign keeps both search memos warm.
TEST(LiveputHeadToHeadTest, ProactiveCampaignReusesSearchMemos) {
  ChaosCampaignSpec spec = FastRecoveryStormCampaign(1);
  spec.options.morph_policy = MorphPolicy::kProactive;
  const ChaosReport report = RunChaosCampaign(spec);
  EXPECT_GT(report.stats.proactive_morphs + report.stats.premigrated_shards, 0);
  const uint64_t lookups = report.stats.candidate_memo_hits + report.stats.candidate_memo_misses;
  ASSERT_GT(lookups, 0u);
  EXPECT_GE(static_cast<double>(report.stats.candidate_memo_hits) / static_cast<double>(lookups),
            0.5)
      << report.stats.candidate_memo_hits << " hits of " << lookups << " candidate lookups";
  EXPECT_GT(report.stats.sweep_cache_hits, 0u);
}

// --- Cold and degenerate regimes fall back to reactive, exactly. -------------

TEST(LiveputFallbackTest, StableMarketKeepsPredictorColdAndMatchesReactive) {
  // No hazard, no storms, no volatility: the predictor never observes a
  // preemption, stays cold, and the proactive session's decision sequence is
  // the reactive one bit-for-bit.
  auto make = [](MorphPolicy policy) {
    ChaosCampaignSpec spec = DefaultChaosCampaign(77);
    spec.preemption_hazard_per_s = 0.0;
    spec.volatility = 0.0;
    spec.options.morph_policy = policy;
    return spec;
  };
  const ChaosReport reactive = RunChaosCampaign(make(MorphPolicy::kReactive));
  const ChaosReport proactive = RunChaosCampaign(make(MorphPolicy::kProactive));
  EXPECT_EQ(proactive.fingerprint, reactive.fingerprint);
  EXPECT_EQ(proactive.stats.premigrated_shards, 0);
  EXPECT_EQ(proactive.stats.proactive_morphs, 0);
  EXPECT_GT(proactive.stats.minibatches_done, 0);
}

TEST(LiveputFallbackTest, CapacityCollapseBelowWarmupMatchesReactive) {
  // A capacity crash that reclaims only two VMs stays under the predictor's
  // three-preemption warm-up gate: still cold, still exactly reactive —
  // including the degraded-mode machinery the crash exercises.
  auto make = [](MorphPolicy policy) {
    ChaosCampaignSpec spec = DefaultChaosCampaign(78);
    spec.preemption_hazard_per_s = 0.0;
    spec.volatility = 0.0;
    ChaosAction crash;
    crash.at_s = 1800.0;
    crash.kind = ChaosActionKind::kCapacityCrash;
    crash.magnitude = 0.9;  // ceil(0.1 * 20) = 2 reclaimed < 3 required.
    crash.duration_s = 900.0;
    spec.plan = ChaosPlan::Scripted({crash});
    spec.options.morph_policy = policy;
    return spec;
  };
  const ChaosReport reactive = RunChaosCampaign(make(MorphPolicy::kReactive));
  const ChaosReport proactive = RunChaosCampaign(make(MorphPolicy::kProactive));
  EXPECT_EQ(proactive.fingerprint, reactive.fingerprint);
  EXPECT_EQ(proactive.stats.premigrated_shards, 0);
}

}  // namespace
}  // namespace varuna

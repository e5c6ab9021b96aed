// The two campaign workloads. Each op is one whole chaos campaign
// (RunChaosCampaign: engine, cluster, market, manager, checkpoint store and
// injectors built, run to the horizon, invariants checked). A round is a
// fixed list of campaign seeds derived from the run seed, so every round
// replays the same campaigns and must reproduce round 0 bit for bit.
//   chaos_random     RandomChaosCampaign: all seven fault kinds, reactive
//                    policy, legacy recovery.
//   storm_proactive  FastRecoveryStormCampaign under MorphPolicy::kProactive:
//                    predictor, liveput rescoring, premigration, delta
//                    chains, record-aware restore pricing, live handoff.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "src/chaos/chaos.h"

namespace perfbench {
namespace {

using varuna::ChaosCampaignSpec;
using varuna::ChaosReport;
using varuna::SessionStats;

// Campaigns per round. Enough that the simulated metrics, which are sums and
// medians over one round, vary little from seed to seed.
constexpr int kChaosRound = 128;
constexpr int kStormRound = 64;
constexpr int kSmokeRound = 3;
// Set-up (building the round's specs) takes microseconds, so each round
// times it several times for a steadier median.
constexpr int kSetupRepeats = 8;

// Checks the properties every finished campaign must have, recomputed from
// its SessionStats. Returns an empty string when all hold.
std::string CheckCampaign(const ChaosReport& report) {
  const SessionStats& stats = report.stats;
  if (stats.minibatches_attempted != stats.minibatches_done + stats.minibatches_rolled_back) {
    return "mini-batch ledger: attempted != done + rolled back";
  }
  const double drift =
      stats.examples_attempted - (stats.examples_processed + stats.examples_rolled_back);
  if (std::abs(drift) > 1e-6 * std::max(1.0, stats.examples_attempted)) {
    return "example ledger: attempted != processed + rolled back";
  }
  if (stats.minibatches_done <= 0) {
    return "no forward progress";
  }
  for (size_t i = 1; i < stats.events.size(); ++i) {
    if (stats.events[i].time_s < stats.events[i - 1].time_s) {
      return "timeline events out of order";
    }
  }
  for (size_t i = 1; i < stats.samples.size(); ++i) {
    if (stats.samples[i].time_s < stats.samples[i - 1].time_s) {
      return "throughput samples out of order";
    }
  }
  return "";
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

WorkloadResult RunCampaigns(Harness* harness, const Args& args, bool storm) {
  const int n = args.smoke ? kSmokeRound : (storm ? kStormRound : kChaosRound);
  std::vector<ChaosCampaignSpec> specs;
  std::vector<uint64_t> first_fingerprints(static_cast<size_t>(n));
  // Round 0's reports, from the replay in `checks` below.
  std::vector<ChaosReport> first(static_cast<size_t>(n));

  const auto setup = [&](int) {
    specs.clear();
    specs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const uint64_t seed = MixSeed(args.seed, static_cast<uint64_t>(i));
      if (storm) {
        ChaosCampaignSpec spec = varuna::FastRecoveryStormCampaign(seed);
        spec.options.morph_policy = varuna::MorphPolicy::kProactive;
        specs.push_back(std::move(spec));
      } else {
        specs.push_back(varuna::RandomChaosCampaign(seed));
      }
    }
  };
  const auto round = [&](int r) {
    for (int i = 0; i < n; ++i) {
      ChaosReport report;
      harness->Op([&] { report = varuna::RunChaosCampaign(specs[static_cast<size_t>(i)]); });
      std::string problem = CheckCampaign(report);
      const ChaosReport& reference = first[static_cast<size_t>(i)];
      if (r == 0) {
        first_fingerprints[static_cast<size_t>(i)] = report.fingerprint;
      } else if (problem.empty() && (report.fingerprint != reference.fingerprint ||
                                     !(report.trace == reference.trace))) {
        problem = "replay diverged from round 0";
      }
      if (!problem.empty()) {
        harness->FailOp("campaign " + std::to_string(i) + ": " + problem);
      }
    }
  };
  // Round 0 keeps only its fingerprints, so the peak RSS the harness samples
  // after it is the campaigns' own. The full reports that later rounds must
  // reproduce come from one replay of round 0, run here after that sample;
  // the replay must match round 0's fingerprints.
  const auto checks = [&](int r) {
    if (r != 0) {
      return;
    }
    const PauseRecording pause;
    for (int i = 0; i < n; ++i) {
      ChaosReport& reference = first[static_cast<size_t>(i)];
      reference = varuna::RunChaosCampaign(specs[static_cast<size_t>(i)]);
      harness->Check(reference.fingerprint == first_fingerprints[static_cast<size_t>(i)],
                     "campaign " + std::to_string(i) + ": replay diverged from round 0");
    }
  };
  harness->RunRounds(setup, kSetupRepeats, round, checks);

  WorkloadResult result;
  std::vector<double> downtime;
  double morphs = 0.0, rolled_back = 0.0, handoff_bytes = 0.0, deltas = 0.0, pruned = 0.0;
  double restore_s = 0.0, predictor = 0.0, events = 0.0;
  double ring_hits = 0.0, ring_misses = 0.0, sweep_hits = 0.0, sweep_misses = 0.0;
  double cand_hits = 0.0, cand_misses = 0.0, cand_pruned = 0.0;
  for (int i = 0; i < n; ++i) {
    const ChaosReport& report = first[static_cast<size_t>(i)];
    const SessionStats& s = report.stats;
    result.sim_goodput += s.examples_processed / specs[static_cast<size_t>(i)].horizon_s;
    downtime.push_back(s.stalled_s);
    morphs += s.morphs;
    rolled_back += static_cast<double>(s.minibatches_rolled_back);
    handoff_bytes += s.handoff_bytes;
    deltas += static_cast<double>(s.delta_checkpoints);
    pruned += static_cast<double>(s.checkpoint_records_pruned);
    restore_s += s.restore_setup_s + s.restore_ssd_s + s.restore_peer_s + s.restore_cloud_s;
    predictor += static_cast<double>(s.predictor_updates);
    // Both engines: the campaign's own (heartbeats, market ticks,
    // checkpoints, faults) and the pipeline executor's inner one.
    events += static_cast<double>(report.trace.events_processed + s.executor_events);
    ring_hits += static_cast<double>(s.net_ring_cache_hits);
    ring_misses += static_cast<double>(s.net_ring_cache_misses);
    sweep_hits += static_cast<double>(s.sweep_cache_hits);
    sweep_misses += static_cast<double>(s.sweep_cache_misses);
    cand_hits += static_cast<double>(s.candidate_memo_hits);
    cand_misses += static_cast<double>(s.candidate_memo_misses);
    cand_pruned += static_cast<double>(s.candidates_pruned);
  }
  result.sim_downtime_s = Quantile(downtime, 0.5);
  const double per = 1.0 / n;
  result.layer["manager.morphs"] = morphs * per;
  result.layer["manager.rolled_back_minibatches"] = rolled_back * per;
  result.layer["manager.handoff_gb"] = handoff_bytes / 1e9 * per;
  result.layer["checkpoint.delta_records"] = deltas * per;
  result.layer["checkpoint.records_pruned"] = pruned * per;
  result.layer["checkpoint.restore_sim_s"] = restore_s * per;
  result.layer["morph.predictor_updates"] = predictor * per;
  result.layer["sim.events"] = events * per;
  result.layer["net.ring_hit_ratio"] = Ratio(ring_hits, ring_hits + ring_misses);
  result.layer["morph.sweep_hit_ratio"] = Ratio(sweep_hits, sweep_hits + sweep_misses);
  result.layer["morph.sweep_lookups"] = (sweep_hits + sweep_misses) * per;
  result.layer["morph.candidate_hit_ratio"] = Ratio(cand_hits, cand_hits + cand_misses);
  result.layer["morph.candidate_lookups"] = (cand_hits + cand_misses) * per;
  result.layer["morph.pruned_ratio"] = Ratio(cand_pruned, cand_misses);
  result.layer["morph.pruned_base"] = cand_misses * per;
  result.notes.push_back(std::to_string(n) +
                         " campaigns per round; simulated metrics from round 0");
  return result;
}

}  // namespace

WorkloadResult RunChaosRandom(Harness* harness, const Args& args) {
  return RunCampaigns(harness, args, /*storm=*/false);
}

WorkloadResult RunStormProactive(Harness* harness, const Args& args) {
  return RunCampaigns(harness, args, /*storm=*/true);
}

}  // namespace perfbench

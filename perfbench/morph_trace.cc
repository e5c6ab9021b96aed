// morph_trace: §7.2 morph-decision latency. Set-up is a job start: trace
// GPT-2 8.3B, find its cut-points, calibrate on a 42-VM cluster and run the
// cold first sweep at G = 128. Each op is one ConfigSearch::Best(G) on that
// persistent search, at every change of G along a seeded spot-market trace
// (see MakeWalk): revisited sizes are whole-sweep memo hits, new ones are
// served by candidate-memo reuse and pruning. Every round rebuilds the
// search from scratch, so every round does the same work.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "src/cluster/cluster.h"
#include "src/cluster/spot_market.h"
#include "src/cluster/vm.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/manager/checkpoint.h"
#include "src/model/cutpoints.h"
#include "src/model/op_graph.h"
#include "src/model/transformer.h"
#include "src/morph/calibration.h"
#include "src/morph/config_search.h"
#include "src/morph/fast_sim.h"
#include "src/sim/engine.h"
#include "src/varuna/experiment.h"

namespace perfbench {
namespace {

using varuna::ConfigSearch;
using varuna::JobConfig;
using varuna::SearchConstraints;

constexpr int kWalkLength = 720;
constexpr int kSmokeWalkLength = 6;
constexpr int kMinGpus = 40;
constexpr int kMaxGpus = 200;
constexpr int kStartGpus = 128;
// Spot-market trace: one pool of 1-GPU VMs (the calibrated VM type) with the
// repository's default SpotPoolDynamics, polled every tick.
constexpr int kPoolVms = kMaxGpus;
constexpr double kTickS = 60.0;
constexpr int kMaxTicks = 100000;
// Capacity regimes: the pool's long-run mean availability alternates between
// these every kRegimeS (SpotMarket::SetMeanAvailability, a datacenter-wide
// load shift), so every seed's trace spans [40, 200] and not only the
// neighbourhood of one mean.
constexpr double kRegimeMeans[] = {0.2, 1.0};
constexpr double kRegimeS = 2.0 * varuna::kHour;
constexpr double kTotalBatch = 8192.0;
// Largest relative gap allowed between the fast-sim estimate of a winner and
// the discrete-event testbed's mini-batch time. Table 7 shows <= 4.1% on its
// twelve configurations; sampled winners measure 1-2%.
constexpr double kDesBand = 0.05;
// Rounds whose sampled decision gets the independent checks. The cold
// unpruned sweep they need costs 1-4 s, so later rounds skip them and only
// replay-check every decision against round 0.
constexpr int kCheckedRounds = 2;

// A job start: everything ConfigSearch points at, at stable addresses.
struct Job {
  varuna::TransformerSpec spec = varuna::Gpt2_8_3B();
  varuna::OpGraph graph;
  varuna::ModelSections sections;
  std::unique_ptr<varuna::Cluster> cluster;
  varuna::Calibration calibration;
  std::unique_ptr<ConfigSearch> search;
};

SearchConstraints Constraints() {
  SearchConstraints constraints;
  constraints.total_batch = kTotalBatch;
  constraints.budget.gpu_memory_bytes = varuna::Nc6V3().gpu.memory_bytes;
  return constraints;
}

std::unique_ptr<Job> StartJob() {
  auto job = std::make_unique<Job>();
  job->graph = varuna::BuildTransformerOpGraph(job->spec);
  job->sections = varuna::IdentifyCutPoints(job->graph, job->spec.num_layers).value();
  job->cluster = std::make_unique<varuna::Cluster>(varuna::CommodityFabric());
  job->cluster->AddVms(varuna::Nc6V3(), 42);
  varuna::Rng rng(99);
  job->calibration =
      varuna::Calibrate(job->sections, *job->cluster, varuna::CalibrationOptions(), &rng).value();
  job->search = std::make_unique<ConfigSearch>(&job->spec, &job->sections, &job->calibration);
  (void)job->search->Best(kStartGpus, Constraints());
  return job;
}

// The cluster sizes a manager on the spot market would decide for: a seeded
// SpotMarket with standing demand for the whole pool, warmed up for an hour
// at the job-start size, then polled every tick; each change of the granted
// GPU count, clamped to [40, 200], is one decision. The market's own noise
// (availability drift, grant limits, eviction bursts, baseline preemptions)
// comes from the seed, so seeds differ in order and timing; the regime
// schedule is fixed, so every trace sweeps the whole range several times.
// Over 720 decisions about 150-160 sizes are new and the rest revisits.
std::vector<int> MakeWalk(uint64_t seed, int length) {
  const PauseRecording pause;  // Input generation: the market's engine is not the workload's.
  varuna::SimEngine engine;
  varuna::SpotMarket market(&engine, varuna::Rng(seed), kTickS);
  varuna::SpotPoolDynamics dynamics;
  dynamics.mean_availability = static_cast<double>(kStartGpus) / kPoolVms;
  const int pool = market.AddPool(varuna::Nc6V3(), kPoolVms, dynamics);
  market.SetDemand(pool, kPoolVms);
  market.Start();
  const double start_s = varuna::kHour;
  engine.RunUntil(start_s);
  const int regime_ticks = static_cast<int>(kRegimeS / kTickS);
  std::vector<int> walk;
  int g = kStartGpus;
  for (int tick = 0; static_cast<int>(walk.size()) < length && tick < kMaxTicks; ++tick) {
    if (tick % regime_ticks == 0) {
      const size_t regime = static_cast<size_t>(tick / regime_ticks) % std::size(kRegimeMeans);
      market.SetMeanAvailability(pool, kRegimeMeans[regime]);
    }
    engine.RunUntil(start_s + (tick + 1) * kTickS);
    const int next = std::clamp(market.GrantedGpus(pool), kMinGpus, kMaxGpus);
    if (next != g) {
      g = next;
      walk.push_back(g);
    }
  }
  return walk;
}

// The winner at `gpus` against properties any correct decision has. Returns
// an empty string when all hold.
std::string CheckWinner(const Job& job, int gpus, const JobConfig& winner) {
  const SearchConstraints constraints = Constraints();
  if (winner.pipeline_depth * winner.data_parallel > gpus ||
      winner.gpus_used != winner.pipeline_depth * winner.data_parallel) {
    return "winner uses more GPUs than available";
  }
  if (winner.ActualBatch() < constraints.total_batch) {
    return "winner's batch is below the total batch";
  }
  // Argmax over a fresh, cold, unpruned sweep, with Best()'s tie rule (the
  // first of equal throughputs in ascending (P, m) order wins).
  ConfigSearch fresh(&job.spec, &job.sections, &job.calibration);
  SearchConstraints unpruned = constraints;
  unpruned.prune = false;
  const auto sweep = fresh.Sweep(gpus, unpruned);
  if (!sweep.ok() || sweep.value().empty()) {
    return "fresh sweep found no configuration";
  }
  const JobConfig* best = &sweep.value().front();
  for (const JobConfig& config : sweep.value()) {
    if (config.est_examples_per_s > best->est_examples_per_s) {
      best = &config;
    }
  }
  if (!(*best == winner)) {
    return "winner differs from the cold unpruned sweep's argmax";
  }
  const varuna::Partition partition =
      varuna::PartitionModel(job.sections, winner.pipeline_depth).value();
  varuna::FastSimConfig sim_config;
  sim_config.sections = &job.sections;
  sim_config.partition = &partition;
  sim_config.data_parallel = winner.data_parallel;
  sim_config.microbatch_size = winner.microbatch_size;
  varuna::FastSimulator simulator(&job.calibration);
  if (simulator.LowerBoundMinibatch(sim_config, winner.num_microbatches) >
      winner.est_minibatch_s) {
    return "lower bound exceeds the estimate";
  }
  varuna::PipelineEvalRequest request;
  request.spec = job.spec;
  request.pipeline_depth = winner.pipeline_depth;
  request.data_parallel = winner.data_parallel;
  request.microbatch_size = winner.microbatch_size;
  request.total_batch = kTotalBatch;
  request.runs = 2;
  const varuna::PipelineEvalResult des = varuna::EvaluatePipeline(request);
  if (!des.feasible) {
    return "testbed finds the winner infeasible: " + des.infeasible_reason;
  }
  const double gap = std::abs(winner.est_minibatch_s - des.minibatch_s) / des.minibatch_s;
  if (gap > kDesBand) {
    return "fast-sim estimate " + std::to_string(winner.est_minibatch_s) + " s is " +
           std::to_string(100.0 * gap) + "% from the testbed's " +
           std::to_string(des.minibatch_s) + " s";
  }
  return "";
}

}  // namespace

WorkloadResult RunMorphTrace(Harness* harness, const Args& args) {
  const std::vector<int> walk = MakeWalk(args.seed, args.smoke ? kSmokeWalkLength : kWalkLength);
  const SearchConstraints constraints = Constraints();
  std::unique_ptr<Job> job;
  std::vector<JobConfig> first;
  varuna::ConfigSearchStats stats;
  uint64_t schedules = 0;

  const auto setup = [&](int) {
    job.reset();  // One job alive at a time: peak memory is one search's.
    job = StartJob();
  };
  const auto round = [&](int r) {
    for (size_t i = 0; i < walk.size(); ++i) {
      varuna::Result<JobConfig> winner = varuna::Result<JobConfig>::Error("not run");
      harness->Op([&] { winner = job->search->Best(walk[i], constraints); });
      const JobConfig decision = winner.ok() ? winner.value() : JobConfig();
      if (r == 0) {
        first.push_back(decision);
      }
      if (!winner.ok()) {
        harness->FailOp("no configuration at G=" + std::to_string(walk[i]));
      } else if (!(first[i] == decision)) {
        harness->FailOp("decision at G=" + std::to_string(walk[i]) + " differs from round 0");
      }
    }
    if (r == 0) {
      stats = job->search->stats();
      schedules = job->search->schedule_cache()->stats().misses;
    }
  };
  // One sampled decision in each of the first kCheckedRounds rounds against
  // the independent checks.
  const auto checks = [&](int r) {
    if (r >= kCheckedRounds) {
      return;
    }
    const size_t index = MixSeed(args.seed ^ 0x5A17ULL, static_cast<uint64_t>(r)) % walk.size();
    const PauseRecording pause;
    const std::string problem = CheckWinner(*job, walk[index], first[index]);
    harness->Check(problem.empty(),
                   "morph_trace G=" + std::to_string(walk[index]) + ": " + problem);
  };
  harness->RunRounds(setup, /*setup_repeats=*/1, round, checks);

  // Simulated metrics of round 0: the chosen configurations' throughput, and
  // the legacy checkpoint-restore stall of every morph along the walk.
  const PauseRecording pause;
  WorkloadResult result;
  std::vector<double> goodput;
  std::vector<double> downtime;
  varuna::SimEngine engine;
  const varuna::CheckpointStore store(&engine, varuna::CheckpointOptions());
  const double params = job->spec.TotalParams();
  for (size_t i = 0; i < first.size(); ++i) {
    // Per available GPU, scaled to the job-start size: decisions at large
    // and small G weigh alike, so the median moves with decision quality
    // rather than with how long a seed's walk lingers at large G.
    goodput.push_back(first[i].est_examples_per_s * kStartGpus / walk[i]);
    if (i > 0 && walk[i] != walk[i - 1]) {
      downtime.push_back(store.RestoreDuration(params, first[i].data_parallel));
    }
  }
  result.sim_goodput = Quantile(goodput, 0.5);
  // Mean, not median: restore time takes few distinct values (one per D),
  // so a median would read the same on most seeds and hide changes.
  result.sim_downtime_s = std::accumulate(downtime.begin(), downtime.end(), 0.0) /
                          static_cast<double>(std::max<size_t>(1, downtime.size()));
  const double ops = static_cast<double>(walk.size());
  const double sweep_lookups =
      static_cast<double>(stats.sweep_cache_hits + stats.sweep_cache_misses);
  const double cand_lookups =
      static_cast<double>(stats.candidate_memo_hits + stats.candidate_memo_misses);
  result.layer["morph.sweep_hit_ratio"] =
      sweep_lookups > 0 ? static_cast<double>(stats.sweep_cache_hits) / sweep_lookups : 0.0;
  result.layer["morph.sweep_lookups"] = sweep_lookups / ops;
  result.layer["morph.candidate_hit_ratio"] =
      cand_lookups > 0 ? static_cast<double>(stats.candidate_memo_hits) / cand_lookups : 0.0;
  result.layer["morph.candidate_lookups"] = cand_lookups / ops;
  const double misses = static_cast<double>(stats.candidate_memo_misses);
  result.layer["morph.pruned_ratio"] =
      misses > 0 ? static_cast<double>(stats.candidates_pruned) / misses : 0.0;
  result.layer["morph.pruned_base"] = misses / ops;
  std::vector<int> sizes = walk;
  sizes.push_back(kStartGpus);
  std::sort(sizes.begin(), sizes.end());
  const int64_t new_sizes = std::unique(sizes.begin(), sizes.end()) - sizes.begin() - 1;
  result.notes.push_back(std::to_string(walk.size()) + " decisions per round, " +
                         std::to_string(new_sizes) + " at new sizes (" +
                         std::to_string(100.0 * static_cast<double>(new_sizes) / ops) +
                         "%), the rest revisits; " + std::to_string(schedules) +
                         " schedules cached at round end");
  return result;
}

}  // namespace perfbench

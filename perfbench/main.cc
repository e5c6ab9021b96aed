// perfbench: runs one workload for a time budget and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S [--smoke]
//             [--chrome-trace PATH]
//
// NAME is chaos_random, storm_proactive, morph_trace or train_step. The last
// line of standard output is one JSON object: correct, attempted, failed,
// the end-to-end metrics, the per-layer metrics (complete only in the traced
// build, perfbench_trace) and an "info" object with the raw (uncorrected)
// figures. run.py turns it into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (arg == "--chrome-trace" && has_value) {
      args->chrome_trace = argv[++i];
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds >= 0.0;
}

void AppendMetric(std::string* out, const std::string& name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name.c_str(), value, unit);
  *out += buf;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

// Per-layer metrics: span times (corrected ms per op) and call counts per op
// over the timed rounds, and the workload's own exact counts. Set-up work is
// included in the totals; correctness checks are not (recording is paused
// around them).
std::string LayerMetrics(const Harness& harness, const WorkloadResult& result) {
  const Recorder& rec = GlobalRecorder();
  const double ops = static_cast<double>(harness.timed_ops());
  const double factor = harness.MeanFactor();
  const auto ms = [&](SpanKind kind, bool self) {
    const SpanTotals& t = rec.totals(kind);
    return static_cast<double>(self ? t.self_ns : t.total_ns) / 1e6 * factor / ops;
  };
  const auto calls = [&](SpanKind kind) {
    return static_cast<double>(rec.totals(kind).calls) / ops;
  };
  std::map<std::string, std::pair<double, const char*>> m;
  m["manager.heartbeat_ms"] = {ms(SpanKind::kHeartbeat, false), "ms"};
  m["manager.heartbeat_calls"] = {calls(SpanKind::kHeartbeat), "count"};
  m["checkpoint.ms"] = {ms(SpanKind::kCheckpoint, false), "ms"};
  m["checkpoint.calls"] = {calls(SpanKind::kCheckpoint), "count"};
  m["morph.search_ms"] = {ms(SpanKind::kSearch, true), "ms"};
  m["morph.search_calls"] = {calls(SpanKind::kSearch), "count"};
  m["morph.fastsim_ms"] = {ms(SpanKind::kFastSim, false), "ms"};
  m["morph.fastsim_calls"] = {calls(SpanKind::kFastSim), "count"};
  m["rng.lognormal_calls"] = {static_cast<double>(rec.counter(CounterKind::kLogNormal)) / ops,
                              "count"};
  m["morph.fingerprint_calls"] = {
      static_cast<double>(rec.counter(CounterKind::kFingerprint)) / ops, "count"};
  m["morph.liveput_ms"] = {ms(SpanKind::kLiveput, false), "ms"};
  m["pipeline.schedule_ms"] = {ms(SpanKind::kSchedule, false), "ms"};
  m["pipeline.schedule_cache_entries"] = {
      static_cast<double>(rec.totals(SpanKind::kSchedule).calls) / harness.timed_rounds(),
      "count"};
  m["pipeline.executor_ms"] = {ms(SpanKind::kExecutor, false), "ms"};
  m["pipeline.executor_runs"] = {calls(SpanKind::kExecutor), "count"};
  m["sim.engine_self_ms"] = {ms(SpanKind::kEngine, true), "ms"};
  m["tensor.gemm_ms"] = {ms(SpanKind::kGemm, false), "ms"};
  m["tensor.gemm_calls"] = {calls(SpanKind::kGemm), "count"};
  m["train.optimizer_ms"] = {ms(SpanKind::kOptimizer, false), "ms"};
  // Exact counts the workloads read from program statistics; a workload that
  // does not exercise a layer reports 0.
  for (const char* name :
       {"manager.morphs", "manager.rolled_back_minibatches", "manager.handoff_gb",
        "checkpoint.delta_records", "checkpoint.records_pruned", "checkpoint.restore_sim_s",
        "morph.predictor_updates", "sim.events", "net.ring_hit_ratio", "morph.sweep_hit_ratio",
        "morph.sweep_lookups", "morph.candidate_hit_ratio", "morph.candidate_lookups",
        "morph.pruned_ratio", "morph.pruned_base", "train.heap_allocs_per_step"}) {
    m[name] = {0.0, "count"};
  }
  m["manager.handoff_gb"].second = "GB";
  m["checkpoint.restore_sim_s"].second = "s";
  for (const char* ratio : {"net.ring_hit_ratio", "morph.sweep_hit_ratio",
                            "morph.candidate_hit_ratio", "morph.pruned_ratio"}) {
    m[ratio].second = "ratio";
  }
  for (const auto& [name, value] : result.layer) {
    m[name].first = value;
  }
  std::string out;
  for (const auto& [name, entry] : m) {
    AppendMetric(&out, name, entry.first, entry.second);
  }
  return out;
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload chaos_random|storm_proactive|morph_trace|"
                 "train_step --seed N --seconds S [--smoke] [--chrome-trace PATH]\n");
    return 2;
  }
  using Runner = WorkloadResult (*)(Harness*, const Args&);
  const std::map<std::string, Runner> runners = {
      {"chaos_random", RunChaosRandom},
      {"storm_proactive", RunStormProactive},
      {"morph_trace", RunMorphTrace},
      {"train_step", RunTrainStep},
  };
  const auto it = runners.find(args.workload);
  if (it == runners.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  GlobalRecorder().set_enabled(kTraced);
  Harness harness(args);
  const WorkloadResult result = it->second(&harness, args);

  const std::vector<double> op_ms = harness.CorrectedOpMs();
  const std::vector<double> raw_ms = harness.RawOpMs();
  const double p90 = Quantile(op_ms, 0.9);
  int64_t above_p90 = 0;
  for (const double v : op_ms) {
    above_p90 += v > p90 ? 1 : 0;
  }

  std::string e2e;
  AppendMetric(&e2e, "setup_s", Quantile(harness.CorrectedSetupS(), 0.5), "s");
  AppendMetric(&e2e, "ops_per_s", 1e3 * static_cast<double>(op_ms.size()) / Sum(op_ms), "1/s");
  AppendMetric(&e2e, "op_ms_p50", Quantile(op_ms, 0.5), "ms");
  AppendMetric(&e2e, "op_ms_p90", p90, "ms");
  AppendMetric(&e2e, "peak_rss_mb", harness.peak_rss_mb(), "MB");
  AppendMetric(&e2e, "sim_goodput", result.sim_goodput, "examples/s");
  AppendMetric(&e2e, "sim_downtime_s", result.sim_downtime_s, "s");

  std::string info;
  AppendMetric(&info, "rounds", harness.rounds(), "count");
  AppendMetric(&info, "ops_above_p90", static_cast<double>(above_p90), "count");
  AppendMetric(&info, "raw_setup_s", Quantile(harness.RawSetupS(), 0.5), "s");
  AppendMetric(&info, "raw_ops_per_s", 1e3 * static_cast<double>(raw_ms.size()) / Sum(raw_ms),
               "1/s");
  AppendMetric(&info, "raw_op_ms_p50", Quantile(raw_ms, 0.5), "ms");
  AppendMetric(&info, "raw_op_ms_p90", Quantile(raw_ms, 0.9), "ms");
  AppendMetric(&info, "mean_op_ms", Sum(op_ms) / static_cast<double>(op_ms.size()), "ms");
  AppendMetric(&info, "reference_ns_median", Quantile(harness.reference_ns(), 0.5), "ns");
  AppendMetric(&info, "reference_ns_min", Quantile(harness.reference_ns(), 0.0), "ns");
  AppendMetric(&info, "reference_ns_max", Quantile(harness.reference_ns(), 1.0), "ns");

  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string round_s;
  for (const double s : harness.round_op_s()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", s);
    round_s += buf;
  }
  std::printf("# raw op seconds per round (the first is the warm-up):%s\n", round_s.c_str());
  std::printf("# %s: %lld ops in %d rounds (%zu timed after the warm-up round), %lld failed, "
              "%lld timed ops above p90\n",
              args.workload.c_str(), static_cast<long long>(harness.attempted()), harness.rounds(),
              op_ms.size(), static_cast<long long>(harness.failed()),
              static_cast<long long>(above_p90));
  if (kTraced && !args.chrome_trace.empty() &&
      !GlobalRecorder().WriteChromeTrace(args.chrome_trace)) {
    std::fprintf(stderr, "could not write %s\n", args.chrome_trace.c_str());
    return 1;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}, "
      "\"layers\": {%s}, \"info\": {%s}}\n",
      harness.correct() ? "true" : "false", static_cast<long long>(harness.attempted()),
      static_cast<long long>(harness.failed()), e2e.c_str(),
      LayerMetrics(harness, result).c_str(), info.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }

// Measurement harness shared by every workload.
//
// Host-speed correction. The benchmark host is a shared guest whose vCPU
// speed drifts by tens of percent within and between runs, and thread CPU
// time drifts with it. So the harness times a fixed reference kernel (no
// code from src/, frozen: later program changes cannot move it) between
// blocks of ops, and reports every host time as
//     corrected = raw * kRefNominalNs / reference_ns,
// i.e. milliseconds at the reference host speed, with the reference taken
// as the mean of the kernel timings that bracket the block. Raw times are
// kept beside the corrected ones and printed.
//
// A run is made of whole rounds. Each round is a timed set-up followed by the
// same list of ops; the run stops at the first round boundary after the
// measured time (ops and set-ups, not checks) reaches the budget, and after
// at least kMinTimedRounds timed rounds. So every run attempts a whole number
// of identical rounds, and runs measure about the same amount of work however
// long their correctness checks take.
//
// The first round is a warm-up: its ops run and are checked (and count as
// attempted), but they are not timed. A fresh process pays page faults for
// every byte the program allocates the first time; on morph_trace that makes
// round 0 several times slower than the rounds after it, which reuse the
// freed heap, as a running manager does after its job start.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

// Reference-kernel time on the host the benchmark was calibrated on
// (nanoseconds). Corrected times are expressed at this speed.
constexpr double kRefNominalNs = 4.5e6;

// Runs the frozen reference kernel once and returns its duration in ns.
double TimeReferenceKernel();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string chrome_trace;  // Empty: no trace file.
};

// Quantile of `values` with linear interpolation (q in [0, 1]).
double Quantile(std::vector<double> values, double q);

// SplitMix64 step: derives independent per-item seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t index);

class Harness {
 public:
  static constexpr int kWarmupRounds = 1;
  static constexpr int kMinTimedRounds = 2;
  // Ops are bracketed by a reference-kernel timing at least this often.
  static constexpr int64_t kBlockNs = 100'000'000;

  explicit Harness(const Args& args) : args_(args) {}

  // Runs rounds of setup(round), round_body(round) and checks(round) until
  // the measured time reaches the budget. setup runs `setup_repeats` times
  // per round, each timed as one set-up sample (so it must rebuild, not add
  // to, the round's state). round_body calls Op() for each op of the round; checks
  // (optional) holds correctness checks too heavy to run per op. The
  // process's peak RSS (VmHWM) is sampled after round 0's body, before any
  // checks; workloads build whatever only their checks need in `checks`, so
  // the figure is the workload's and not the checks'.
  void RunRounds(const std::function<void(int)>& setup, int setup_repeats,
                 const std::function<void(int)>& round_body,
                 const std::function<void(int)>& checks = nullptr);

  // Times one op. Work done outside Op() (correctness checks, bookkeeping)
  // is not op time.
  void Op(const std::function<void()>& body);
  // Marks the op just timed as failed (one of its correctness checks did
  // not hold). `what` is printed to stderr.
  void FailOp(const std::string& what);

  // Records a run-level check (not tied to one op); `correct` turns false
  // when any fails.
  void Check(bool ok, const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t timed_ops() const { return static_cast<int64_t>(op_raw_ns_.size()); }
  int timed_rounds() const { return rounds_ - kWarmupRounds; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  int rounds() const { return rounds_; }
  double peak_rss_mb() const { return peak_rss_mb_; }
  // Raw op time of each round, the warm-up round included (seconds).
  const std::vector<double>& round_op_s() const { return round_op_s_; }

  // Corrected per-op times (ms) and per-setup times (s), after RunRounds.
  std::vector<double> CorrectedOpMs() const;
  std::vector<double> RawOpMs() const;
  std::vector<double> CorrectedSetupS() const;
  std::vector<double> RawSetupS() const;
  // Mean correction factor over the run (nominal / measured reference).
  double MeanFactor() const;
  const std::vector<double>& reference_ns() const { return ref_ns_; }

 private:
  enum class SampleKind : uint8_t { kOp, kSetup };
  void Reference();
  void Record(SampleKind kind, int64_t raw_ns);
  // Correction factor for a sample taken between reference timings `block`
  // and `block` + 1: nominal over the mean of the two.
  double BlockFactor(size_t block) const;

  Args args_;
  // Timed samples, each with the index of the last reference timing before it.
  std::vector<int64_t> op_raw_ns_;
  std::vector<size_t> op_block_;
  std::vector<int64_t> setup_raw_ns_;
  std::vector<size_t> setup_block_;
  int64_t block_ns_ = 0;     // Timed sample time since the last reference timing.
  int64_t measured_ns_ = 0;  // Timed sample time since the run started.
  std::vector<double> ref_ns_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
  int rounds_ = 0;
  double peak_rss_mb_ = 0.0;
  std::vector<double> round_op_s_;
};

// A workload's result: the end-to-end simulated metrics and the exact
// per-layer counts it gathered itself (from program statistics).
struct WorkloadResult {
  double sim_goodput = 0.0;
  double sim_downtime_s = 0.0;
  // Per-layer values that do not come from the span recorder (counts and
  // ratios from program statistics), already normalised as reported.
  std::map<std::string, double> layer;
  // Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

WorkloadResult RunChaosRandom(Harness* harness, const Args& args);
WorkloadResult RunStormProactive(Harness* harness, const Args& args);
WorkloadResult RunMorphTrace(Harness* harness, const Args& args);
WorkloadResult RunTrainStep(Harness* harness, const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

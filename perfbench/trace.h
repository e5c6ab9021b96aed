// In-memory span recorder for the traced benchmark binary.
//
// A span is one call across a layer boundary: its kind, start, end and the
// enclosing span. Spans are kept on a stack while open; when one closes, its
// duration is added to its kind's total and to the parent's child time, so a
// kind's self time is its duration minus the part its wrapped children cover.
// Per-kind totals cover every span of the run; the first kMaxEvents spans are
// also kept as events for a Chrome trace-event JSON file (Perfetto opens it).
//
// Recording is off unless set_enabled(true) is called, which only the traced binary
// (PERFBENCH_TRACED) does. A ScopedSpan on a disabled recorder costs one
// branch. Single-threaded: every workload runs on the calling thread.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kOp,          // One benchmark op (recorded by the harness).
  kSetup,       // One workload set-up (recorded by the harness).
  kRefKernel,   // The reference kernel between ops.
  kHeartbeat,   // Percentile() outside calibration: heartbeat evaluation.
  kCalibrate,   // Calibrate().
  kSearch,      // ConfigSearch::Best / Sweep.
  kFastSim,     // FastSimulator::EstimateMinibatch.
  kLiveput,     // LiveputObjective::BestLiveput / Score.
  kSchedule,    // GenerateSchedule (generation + validation).
  kExecutor,    // PipelineExecutor::Run.
  kEngine,      // SimEngine::Run / RunUntil.
  kCheckpoint,  // Public CheckpointStore methods.
  kGemm,        // MatMul*Into.
  kOptimizer,   // AdamOptimizer::Step (recorded by the train_step workload).
  kCount,
};

enum class CounterKind : uint8_t {
  kLogNormal,    // Rng::LogNormalMedian calls.
  kFingerprint,  // Calibration::Fingerprint calls.
  kCount,
};

const char* SpanName(SpanKind kind);

struct SpanTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Recorder {
 public:
  static constexpr size_t kMaxEvents = 100000;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Begin(SpanKind kind);
  void End();
  void Count(CounterKind kind) {
    if (enabled_) {
      ++counters_[static_cast<size_t>(kind)];
    }
  }
  // Kind of the innermost open span (kCount when none is open).
  SpanKind Top() const { return stack_.empty() ? SpanKind::kCount : stack_.back().kind; }

  const SpanTotals& totals(SpanKind kind) const { return totals_[static_cast<size_t>(kind)]; }
  int64_t counter(CounterKind kind) const { return counters_[static_cast<size_t>(kind)]; }

  // Writes the kept events as Chrome trace-event JSON. Returns false on an
  // I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    int64_t start_ns;
    int64_t child_ns;
    int64_t event;  // Index into events_, or -1 once the buffer is full.
  };
  struct Event {
    SpanKind kind;
    int64_t start_ns;
    int64_t dur_ns;
    int64_t parent;  // Event index of the enclosing span, -1 at top level.
  };

  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<Event> events_;
  SpanTotals totals_[static_cast<size_t>(SpanKind::kCount)] = {};
  int64_t counters_[static_cast<size_t>(CounterKind::kCount)] = {};
  int64_t origin_ns_ = -1;
};

Recorder& GlobalRecorder();

// Nanoseconds on the monotonic clock.
int64_t NowNs();

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : active_(GlobalRecorder().enabled()) {
    if (active_) {
      GlobalRecorder().Begin(kind);
    }
  }
  ~ScopedSpan() {
    if (active_) {
      GlobalRecorder().End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

// Suspends recording for its lifetime: correctness checks call wrapped
// functions too, and their work is not the workload's.
class PauseRecording {
 public:
  PauseRecording() : was_enabled_(GlobalRecorder().enabled()) {
    GlobalRecorder().set_enabled(false);
  }
  ~PauseRecording() { GlobalRecorder().set_enabled(was_enabled_); }
  PauseRecording(const PauseRecording&) = delete;
  PauseRecording& operator=(const PauseRecording&) = delete;

 private:
  bool was_enabled_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

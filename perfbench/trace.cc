#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kSetup:
      return "setup";
    case SpanKind::kRefKernel:
      return "reference_kernel";
    case SpanKind::kHeartbeat:
      return "manager.heartbeat";
    case SpanKind::kCalibrate:
      return "morph.calibrate";
    case SpanKind::kSearch:
      return "morph.search";
    case SpanKind::kFastSim:
      return "morph.fastsim";
    case SpanKind::kLiveput:
      return "morph.liveput";
    case SpanKind::kSchedule:
      return "pipeline.schedule";
    case SpanKind::kExecutor:
      return "pipeline.executor";
    case SpanKind::kEngine:
      return "sim.engine";
    case SpanKind::kCheckpoint:
      return "checkpoint";
    case SpanKind::kGemm:
      return "tensor.gemm";
    case SpanKind::kOptimizer:
      return "train.optimizer";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder& GlobalRecorder() {
  static Recorder recorder;
  return recorder;
}

void Recorder::Begin(SpanKind kind) {
  const int64_t now = NowNs();
  if (origin_ns_ < 0) {
    origin_ns_ = now;
  }
  int64_t event = -1;
  if (events_.size() < kMaxEvents) {
    const int64_t parent = stack_.empty() ? -1 : stack_.back().event;
    event = static_cast<int64_t>(events_.size());
    events_.push_back(Event{kind, now - origin_ns_, 0, parent});
  }
  stack_.push_back(Open{kind, now, 0, event});
}

void Recorder::End() {
  const int64_t now = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now - open.start_ns;
  SpanTotals& totals = totals_[static_cast<size_t>(open.kind)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (open.event >= 0) {
    events_[static_cast<size_t>(open.event)].dur_ns = duration;
  }
}

bool Recorder::WriteChromeTrace(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& event = events_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", SpanName(event.kind), event.start_ns / 1e3,
                 event.dur_ns / 1e3, i, static_cast<long long>(event.parent));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

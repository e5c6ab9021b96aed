#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstddef>
#include <fstream>
#include <functional>
#include <memory_resource>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

// Reference-kernel shape. Frozen: changing any of these changes what a
// corrected millisecond means, and invalidates comparisons with earlier runs.
constexpr int kRefEvents = 15000;      // Mini discrete-event loop.
constexpr int kRefBuckets = 997;       // Hash-map keys it touches.
constexpr int kRefVectorFloats = 8192; // 32 KiB float streams.
constexpr int kRefVectorPasses = 80;
constexpr int kRefSortKeys = 8192;
constexpr size_t kRefArenaBytes = size_t{4} << 20;  // Backs every kernel allocation.

// The process's peak resident set (VmHWM) in MB, or -1 if unreadable. Not
// getrusage's ru_maxrss: Linux carries the parent's peak across exec into
// it, so a process started from run.py would report the Python
// interpreter's memory whenever its own is smaller.
double ReadPeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = -1.0;
      status >> kib;
      return kib < 0.0 ? -1.0 : kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return -1.0;
}

uint64_t XorShift(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

}  // namespace

// The reference kernel imitates the kinds of work the workloads do, with
// standard-library code only: a small discrete-event loop (binary-heap event
// queue, indirect calls through std::function, hash-map updates, short-lived
// allocations, nth_element medians), a streaming float loop the compiler
// vectorises, and a comparison sort with unpredictable branches. Measured
// on the benchmark host, its slowdowns track those of the campaign and
// training-step ops far better than a pure-ALU or pure-cache kernel does.
// Its allocations come from a pool over a static buffer, so the state the
// workload leaves in the process heap (fragmentation, trimmed pages) cannot
// change its cost.
double TimeReferenceKernel() {
  static std::vector<float> a(kRefVectorFloats, 1.0f);
  static std::vector<float> b(kRefVectorFloats, 0.5f);
  static std::vector<float> c(kRefVectorFloats, 0.0f);
  static std::vector<double> keys(kRefSortKeys);
  static std::vector<std::byte> arena(kRefArenaBytes);
  static double sink = 0.0;
  uint64_t state = 0x2545F4914F6CDD1DULL;
  for (double& key : keys) {
    key = static_cast<double>(XorShift(&state) >> 11);
  }
  const int64_t start = NowNs();

  std::pmr::monotonic_buffer_resource upstream(arena.data(), arena.size(),
                                               std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&upstream);
  double sum = 0.0;
  std::pmr::unordered_map<int, std::pmr::vector<double>> buckets(&pool);
  const std::function<void(int)> handlers[3] = {
      [&](int k) {
        std::pmr::vector<double>& bucket = buckets[k % kRefBuckets];
        bucket.push_back(k * 0.5);
        if (bucket.size() > 8) {
          bucket.clear();
        }
      },
      [&](int k) {
        const auto it = buckets.find(k % kRefBuckets);
        if (it != buckets.end()) {
          for (const double v : it->second) {
            sum += v;
          }
        }
      },
      [&](int k) {
        std::pmr::vector<double> tmp(static_cast<size_t>(16 + k % 32), &pool);
        for (size_t j = 0; j < tmp.size(); ++j) {
          tmp[j] = static_cast<double>(j) * k;
        }
        std::nth_element(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(tmp.size() / 2),
                         tmp.end());
        sum += tmp[tmp.size() / 2];
      },
  };
  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::pmr::vector<Event>, std::greater<>> queue{
      std::greater<>(), std::pmr::vector<Event>(&pool)};
  for (int i = 0; i < 64; ++i) {
    queue.push({static_cast<double>(i), i});
  }
  for (int e = 0; e < kRefEvents; ++e) {
    const double when = queue.top().first;
    queue.pop();
    const uint64_t x = XorShift(&state);
    handlers[x % 3](static_cast<int>((x >> 8) & 0xffffff));
    queue.push({when + static_cast<double>(x % 1000) * 1e-3, static_cast<int>(x >> 40)});
  }

  for (int pass = 0; pass < kRefVectorPasses; ++pass) {
    for (int i = 0; i < kRefVectorFloats; ++i) {
      c[i] = a[i] * b[i] + c[i] * 0.5f;
    }
    for (int i = 0; i < kRefVectorFloats; ++i) {
      a[i] = c[i] * 0.25f + b[i];
    }
  }

  std::sort(keys.begin(), keys.end());
  sink += sum + a[0] + keys[kRefSortKeys / 2];
  return static_cast<double>(NowNs() - start);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

uint64_t MixSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Harness::RunRounds(const std::function<void(int)>& setup, int setup_repeats,
                        const std::function<void(int)>& round_body,
                        const std::function<void(int)>& checks) {
  const int64_t budget = static_cast<int64_t>(args_.seconds * 1e9);
  // Spans cover the timed rounds only, like the end-to-end metrics.
  const bool tracing = GlobalRecorder().enabled();
  GlobalRecorder().set_enabled(false);
  for (int round = 0;; ++round) {
    round_op_s_.push_back(0.0);
    if (round == kWarmupRounds) {
      GlobalRecorder().set_enabled(tracing);
      Reference();  // Opens the first timed block.
    }
    for (int repeat = 0; repeat < setup_repeats; ++repeat) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(SpanKind::kSetup);
        setup(round);
      }
      Record(SampleKind::kSetup, NowNs() - t0);
    }
    round_body(round);
    if (round == 0) {
      peak_rss_mb_ = ReadPeakRssMb();
      Check(peak_rss_mb_ > 0.0, "cannot read VmHWM from /proc/self/status");
    }
    if (checks) {
      checks(round);
    }
    ++rounds_;
    if (rounds_ >= kWarmupRounds + kMinTimedRounds && measured_ns_ >= budget) {
      break;
    }
  }
  Reference();
}

void Harness::Op(const std::function<void()>& body) {
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(SpanKind::kOp);
    body();
  }
  ++attempted_;
  const int64_t ns = NowNs() - t0;
  if (!round_op_s_.empty()) {
    round_op_s_.back() += static_cast<double>(ns) / 1e9;
  }
  Record(SampleKind::kOp, ns);
}

void Harness::FailOp(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "op %lld failed: %s\n", static_cast<long long>(attempted()),
               what.c_str());
}

void Harness::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

void Harness::Record(SampleKind kind, int64_t raw_ns) {
  if (rounds_ < kWarmupRounds) {
    return;
  }
  if (kind == SampleKind::kOp) {
    op_raw_ns_.push_back(raw_ns);
    op_block_.push_back(ref_ns_.size() - 1);
  } else {
    setup_raw_ns_.push_back(raw_ns);
    setup_block_.push_back(ref_ns_.size() - 1);
  }
  block_ns_ += raw_ns;
  measured_ns_ += raw_ns;
  if (block_ns_ >= kBlockNs) {
    Reference();
  }
}

void Harness::Reference() {
  double ns = 0.0;
  {
    ScopedSpan span(SpanKind::kRefKernel);
    ns = TimeReferenceKernel();
  }
  block_ns_ = 0;
  ref_ns_.push_back(ns);
}

double Harness::BlockFactor(size_t block) const {
  const double after = block + 1 < ref_ns_.size() ? ref_ns_[block + 1] : ref_ns_[block];
  return kRefNominalNs / (0.5 * (ref_ns_[block] + after));
}

std::vector<double> Harness::CorrectedOpMs() const {
  std::vector<double> out(op_raw_ns_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(op_raw_ns_[i]) * BlockFactor(op_block_[i]) / 1e6;
  }
  return out;
}

std::vector<double> Harness::RawOpMs() const {
  std::vector<double> out(op_raw_ns_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(op_raw_ns_[i]) / 1e6;
  }
  return out;
}

std::vector<double> Harness::CorrectedSetupS() const {
  std::vector<double> out(setup_raw_ns_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(setup_raw_ns_[i]) * BlockFactor(setup_block_[i]) / 1e9;
  }
  return out;
}

std::vector<double> Harness::RawSetupS() const {
  std::vector<double> out(setup_raw_ns_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(setup_raw_ns_[i]) / 1e9;
  }
  return out;
}

double Harness::MeanFactor() const {
  if (ref_ns_.empty()) {
    return 1.0;
  }
  const double mean =
      std::accumulate(ref_ns_.begin(), ref_ns_.end(), 0.0) / static_cast<double>(ref_ns_.size());
  return kRefNominalNs / mean;
}

}  // namespace perfbench

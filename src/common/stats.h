// Running statistics (Welford) and small helpers used by the profiler, the
// fail-stutter detector and experiment harnesses.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace varuna {

// Numerically stable streaming mean/variance/min/max.
class RunningStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double mean() const { return mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile of a sample set (linear interpolation between order statistics).
// `q` in [0, 1]. Requires a non-empty sample vector; selects the two order
// statistics around q with nth_element (no full sort).
double Percentile(std::vector<double> samples, double q);

// Mean of a sample set. Requires non-empty.
double Mean(const std::vector<double>& samples);

}  // namespace varuna

#endif  // SRC_COMMON_STATS_H_

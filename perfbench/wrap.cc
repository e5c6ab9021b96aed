// Link-time wrappers for the traced binary (perfbench_trace). The linker is
// given -Wl,--wrap=<mangled name> for every function below (CMakeLists.txt),
// so each reference to it from another object file lands in __wrap_<name>,
// which opens a span (or bumps a counter) and calls the original through
// __real_<name>. Member functions take `this` as their first parameter,
// which on the Itanium C++ ABI is exactly how the member call passes it.
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/manager/checkpoint.h"
#include "src/morph/calibration.h"
#include "src/morph/config_search.h"
#include "src/morph/fast_sim.h"
#include "src/morph/liveput.h"
#include "src/pipeline/executor.h"
#include "src/pipeline/schedule.h"
#include "src/sim/engine.h"
#include "src/tensor/tensor.h"
#include "trace.h"

using namespace varuna;  // NOLINT: the wrapper signatures name many types.
using perfbench::CounterKind;
using perfbench::GlobalRecorder;
using perfbench::ScopedSpan;
using perfbench::SpanKind;

// WRAP(kind, ret, mangled, params, args): declares __real_<mangled> and
// defines __wrap_<mangled> that times the call as a `kind` span.
#define WRAP(kind, ret, mangled, params, args) \
  extern "C" ret __real_##mangled params;      \
  extern "C" ret __wrap_##mangled params {     \
    ScopedSpan span(kind);                     \
    return __real_##mangled args;              \
  }

// Percentile: the heartbeat median (elastic_trainer.cc) and calibration's
// noise filter share it; only calls outside Calibrate() count as heartbeat.
extern "C" double __real__ZN6varuna10PercentileESt6vectorIdSaIdEEd(std::vector<double> samples,
                                                                   double q);
extern "C" double __wrap__ZN6varuna10PercentileESt6vectorIdSaIdEEd(std::vector<double> samples,
                                                                   double q) {
  if (GlobalRecorder().Top() == SpanKind::kCalibrate) {
    return __real__ZN6varuna10PercentileESt6vectorIdSaIdEEd(std::move(samples), q);
  }
  ScopedSpan span(SpanKind::kHeartbeat);
  return __real__ZN6varuna10PercentileESt6vectorIdSaIdEEd(std::move(samples), q);
}

extern "C" double __real__ZN6varuna3Rng15LogNormalMedianEdd(Rng* self, double median,
                                                            double sigma);
extern "C" double __wrap__ZN6varuna3Rng15LogNormalMedianEdd(Rng* self, double median,
                                                            double sigma) {
  GlobalRecorder().Count(CounterKind::kLogNormal);
  return __real__ZN6varuna3Rng15LogNormalMedianEdd(self, median, sigma);
}

extern "C" uint64_t __real__ZNK6varuna11Calibration11FingerprintEv(const Calibration* self);
extern "C" uint64_t __wrap__ZNK6varuna11Calibration11FingerprintEv(const Calibration* self) {
  GlobalRecorder().Count(CounterKind::kFingerprint);
  return __real__ZNK6varuna11Calibration11FingerprintEv(self);
}

WRAP(SpanKind::kCalibrate, Result<Calibration>,
     _ZN6varuna9CalibrateERKNS_13ModelSectionsERKNS_7ClusterERKNS_18CalibrationOptionsEPNS_3RngE,
     (const ModelSections& sections, const Cluster& cluster, const CalibrationOptions& options,
      Rng* rng),
     (sections, cluster, options, rng))

WRAP(SpanKind::kSearch, Result<JobConfig>,
     _ZNK6varuna12ConfigSearch4BestEiRKNS_17SearchConstraintsE,
     (const ConfigSearch* self, int gpus, const SearchConstraints& constraints),
     (self, gpus, constraints))
WRAP(SpanKind::kSearch, Result<std::vector<JobConfig>>,
     _ZNK6varuna12ConfigSearch5SweepEiRKNS_17SearchConstraintsE,
     (const ConfigSearch* self, int gpus, const SearchConstraints& constraints),
     (self, gpus, constraints))
WRAP(SpanKind::kFastSim, FastSimResult,
     _ZN6varuna13FastSimulator17EstimateMinibatchERKNS_8ScheduleERKNS_13FastSimConfigE,
     (FastSimulator* self, const Schedule& schedule, const FastSimConfig& config),
     (self, schedule, config))
WRAP(SpanKind::kLiveput, const JobConfig*,
     _ZNK6varuna16LiveputObjective11BestLiveputERKSt6vectorINS_9JobConfigESaIS2_EE,
     (const LiveputObjective* self, const std::vector<JobConfig>& sweep), (self, sweep))
WRAP(SpanKind::kLiveput, double, _ZNK6varuna16LiveputObjective5ScoreERKNS_9JobConfigE,
     (const LiveputObjective* self, const JobConfig& config), (self, config))

WRAP(SpanKind::kSchedule, Schedule, _ZN6varuna16GenerateScheduleENS_12ScheduleKindEii,
     (ScheduleKind kind, int depth, int num_microbatches), (kind, depth, num_microbatches))
WRAP(SpanKind::kExecutor, MinibatchResult,
     _ZN6varuna16PipelineExecutor3RunERKNS_8ScheduleERKNS_9PlacementERKSt6vectorINS_11StageTimingESaIS8_EEiRKNS_15ExecutorOptionsE,
     (PipelineExecutor* self, const Schedule& schedule, const Placement& placement,
      const std::vector<StageTiming>& timings, int microbatch_size,
      const ExecutorOptions& options),
     (self, schedule, placement, timings, microbatch_size, options))
WRAP(SpanKind::kEngine, void, _ZN6varuna9SimEngine3RunEv, (SimEngine* self), (self))
WRAP(SpanKind::kEngine, void, _ZN6varuna9SimEngine8RunUntilEd, (SimEngine* self, SimTime until),
     (self, until))

WRAP(SpanKind::kGemm, void, _ZN6varuna10MatMulIntoEPNS_6TensorERKS0_S3_,
     (Tensor* out, const Tensor& a, const Tensor& b), (out, a, b))
WRAP(SpanKind::kGemm, void, _ZN6varuna20MatMulTransposeAIntoEPNS_6TensorERKS0_S3_,
     (Tensor* out, const Tensor& a, const Tensor& b), (out, a, b))
WRAP(SpanKind::kGemm, void, _ZN6varuna20MatMulTransposeBIntoEPNS_6TensorERKS0_S3_,
     (Tensor* out, const Tensor& a, const Tensor& b), (out, a, b))

WRAP(SpanKind::kCheckpoint, double,
     _ZN6varuna15CheckpointStore15BeginCheckpointEldiRKSt6vectorIiSaIiEEb,
     (CheckpointStore* self, int64_t minibatch_id, double total_params, int data_parallel,
      const std::vector<VmId>& shard_owners, bool premigration),
     (self, minibatch_id, total_params, data_parallel, shard_owners, premigration))
WRAP(SpanKind::kCheckpoint, bool, _ZN6varuna15CheckpointStore12CorruptShardEli,
     (CheckpointStore* self, int64_t minibatch_id, int shard), (self, minibatch_id, shard))
WRAP(SpanKind::kCheckpoint, void, _ZN6varuna15CheckpointStore8OnVmLostEi,
     (CheckpointStore* self, VmId vm), (self, vm))
WRAP(SpanKind::kCheckpoint, int64_t, _ZNK6varuna15CheckpointStore12LatestUsableEv,
     (const CheckpointStore* self), (self))
WRAP(SpanKind::kCheckpoint, int64_t, _ZNK6varuna15CheckpointStore14LatestCompleteEv,
     (const CheckpointStore* self), (self))
WRAP(SpanKind::kCheckpoint, double,
     _ZNK6varuna15CheckpointStore14RestoreSecondsEldiRKSt6vectorIiSaIiEEiPNS_16RestoreBreakdownE,
     (const CheckpointStore* self, int64_t minibatch_id, double total_params, int data_parallel,
      const std::vector<VmId>& target_vms, int warm_vms, RestoreBreakdown* breakdown),
     (self, minibatch_id, total_params, data_parallel, target_vms, warm_vms, breakdown))
WRAP(SpanKind::kCheckpoint, double, _ZNK6varuna15CheckpointStore15RestoreDurationEdi,
     (const CheckpointStore* self, double total_params, int data_parallel),
     (self, total_params, data_parallel))
WRAP(SpanKind::kCheckpoint, std::vector<VmId>,
     _ZNK6varuna15CheckpointStore19ShardOwnersInFlightEv, (const CheckpointStore* self), (self))
WRAP(SpanKind::kCheckpoint, double, _ZNK6varuna15CheckpointStore23CheckpointStallEstimateEdi,
     (const CheckpointStore* self, double total_params, int data_parallel),
     (self, total_params, data_parallel))
WRAP(SpanKind::kCheckpoint, uint64_t, _ZNK6varuna15CheckpointStore25RestoreContextFingerprintEv,
     (const CheckpointStore* self), (self))
WRAP(SpanKind::kCheckpoint, const CheckpointRecord*, _ZNK6varuna15CheckpointStore6RecordEl,
     (const CheckpointStore* self, int64_t minibatch_id), (self, minibatch_id))

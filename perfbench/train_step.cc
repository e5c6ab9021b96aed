// train_step: one full training step of the Fig. 9 block model per op
// (ReferenceTrainer::TrainStep over 16 micro-batches of 8, then the Adam
// update). A round trains kSequences fresh models, one after the other, each
// from the same fixed initial weights on its own seeded data stream; set-up
// builds their trainers and optimizers. Every round trains on the same
// batches, so rounds after the first must reproduce round 0's losses bit for
// bit. Several sequences per round average out the data-order noise of any
// one training curve, which the simulated metrics below are computed from.
//
// No simulator runs here, so the two simulated end-to-end metrics price the
// round's training outcome with the repository's GPU model (GpuSpec, one
// kernel per GEMM of the step on the modelled V100):
//   sim_downtime_s  a sequence's simulated time weighted by the share of
//                   the achievable log-perplexity reduction (initial to
//                   MarkovTask::OptimalPerplexity) still missing, i.e. the
//                   seconds the job is worth nothing, integrated over its
//                   validation curve; mean over the round's sequences;
//   sim_goodput     modelled examples/s times the share of that achievable
//                   reduction a sequence realises; mean over sequences.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "naive_block_model.h"
#include "src/cluster/vm.h"
#include "src/nn/layers.h"
#include "src/nn/optimizer.h"
#include "src/nn/synthetic_task.h"
#include "src/train/trainers.h"

namespace perfbench {
namespace {

constexpr int kVocab = 16;
constexpr int kWidth = 24;
constexpr int kBlocks = 6;
constexpr int kBatch = 128;
constexpr int kMicrobatch = 8;
constexpr int kSequences = 16;
constexpr int kSteps = 32;
constexpr int kSmokeSequences = 1;
constexpr int kSmokeSteps = 4;
constexpr int kEvalEvery = 4;
constexpr int kSetupRepeats = 4;  // Set-up samples per round.
constexpr int kValidationRows = 2048;
constexpr float kLearningRate = 3e-3f;
// The model's initial weights are fixed (the Fig. 9 seed); the run seed
// draws the data, so seeds vary the inputs and not the starting point.
constexpr uint64_t kInitSeed = 42;
constexpr uint64_t kValidationSeed = 77;
// Oracle tolerances: the program computes in float, the oracle in double.
constexpr double kLossTolerance = 1e-4;
constexpr double kGradTolerance = 2e-3;  // Relative to the tensor's largest |grad|.

// Modelled seconds of one training step: every GEMM of forward and backward
// (three per Linear per micro-batch) as one kernel on the modelled GPU.
double ModelledStepSeconds() {
  const varuna::GpuSpec gpu = varuna::Nc6V3().gpu;
  std::vector<std::pair<int, int>> linears = {{kVocab, kWidth}};
  for (int b = 0; b < kBlocks; ++b) {
    linears.push_back({kWidth, 4 * kWidth});
    linears.push_back({4 * kWidth, kWidth});
  }
  linears.push_back({kWidth, kVocab});
  double seconds = 0.0;
  for (const auto& [in, out] : linears) {
    seconds += 3.0 * gpu.ComputeTime(2.0 * kMicrobatch * in * out);
  }
  return seconds * (kBatch / kMicrobatch);
}

// Compares the program's loss and gradients with the naive oracle. Returns
// an empty string when they agree.
std::string CheckAgainstOracle(const std::vector<varuna::Tensor*>& params_before,
                               const varuna::Batch& batch, double loss,
                               const std::vector<varuna::Tensor*>& grads) {
  const NaiveStep oracle = NaiveForwardBackward(params_before, batch);
  if (std::abs(loss - oracle.loss) > kLossTolerance * std::max(1.0, oracle.loss)) {
    return "loss " + std::to_string(loss) + " vs oracle " + std::to_string(oracle.loss);
  }
  for (size_t t = 0; t < grads.size(); ++t) {
    const std::vector<double>& want = oracle.grads[t];
    double scale = 0.0;
    for (const double g : want) {
      scale = std::max(scale, std::abs(g));
    }
    for (size_t i = 0; i < want.size(); ++i) {
      const double got = (*grads[t])[static_cast<int64_t>(i)];
      if (std::abs(got - want[i]) > kGradTolerance * scale + 1e-9) {
        return "gradient tensor " + std::to_string(t) + " element " + std::to_string(i) +
               ": " + std::to_string(got) + " vs oracle " + std::to_string(want[i]);
      }
    }
  }
  return "";
}

}  // namespace

WorkloadResult RunTrainStep(Harness* harness, const Args& args) {
  const int sequences = args.smoke ? kSmokeSequences : kSequences;
  const int steps = args.smoke ? kSmokeSteps : kSteps;
  const varuna::MarkovTask task(kVocab, 99, 1.5);
  // Inputs: each sequence draws one batch per step from its own stream,
  // seeded from the run seed and restarted every round, just before the step
  // (outside the op), so one batch is held at a time, as a data loader would.
  const auto data_rng = [&](int k) {
    return varuna::Rng(MixSeed(args.seed, 1 + static_cast<uint64_t>(k)));
  };

  struct Sequence {
    std::unique_ptr<varuna::ReferenceTrainer> trainer;
    std::unique_ptr<varuna::AdamOptimizer> optimizer;
  };
  std::vector<Sequence> runs(static_cast<size_t>(sequences));
  std::vector<double> first_losses;
  // Validation log-perplexity of round 0, every kEvalEvery steps (and at the
  // last step), one curve per sequence.
  std::vector<std::vector<std::pair<int, double>>> curves(static_cast<size_t>(sequences));
  int64_t allocs_per_round = 0;

  const auto setup = [&](int) {
    for (Sequence& run : runs) {
      run.optimizer.reset();
      run.trainer.reset();
      varuna::Rng init_rng(kInitSeed);
      run.trainer = std::make_unique<varuna::ReferenceTrainer>(
          varuna::BuildBlockModel(kVocab, kWidth, kBlocks, &init_rng));
      run.optimizer = std::make_unique<varuna::AdamOptimizer>(
          run.trainer->Parameters(), run.trainer->Gradients(), kLearningRate);
    }
  };
  // Round 0's body holds the training state only: the harness samples peak
  // RSS after it. The oracle checks start at round 1 and validation runs in
  // the checks below, so neither adds to the workload's memory figure.
  const auto round = [&](int r) {
    const int sampled = static_cast<int>(MixSeed(args.seed ^ 0x7124ULL, static_cast<uint64_t>(r)) %
                                         static_cast<uint64_t>(sequences * steps));
    int64_t allocs = 0;
    for (int k = 0; k < sequences; ++k) {
      varuna::ReferenceTrainer* trainer = runs[static_cast<size_t>(k)].trainer.get();
      varuna::AdamOptimizer* optimizer = runs[static_cast<size_t>(k)].optimizer.get();
      varuna::Rng rng = data_rng(k);
      const int64_t allocs_before = trainer->heap_allocations();
      for (int s = 0; s < steps; ++s) {
        const varuna::Batch batch = task.Sample(kBatch, &rng);
        const int index = k * steps + s;
        const bool check = r > 0 && (index == 0 || index == sampled);
        std::vector<varuna::Tensor> snapshot;
        std::vector<varuna::Tensor*> params_before;
        if (check) {
          for (varuna::Tensor* p : trainer->Parameters()) {
            snapshot.push_back(*p);
          }
          for (varuna::Tensor& t : snapshot) {
            params_before.push_back(&t);
          }
        }
        double loss = 0.0;
        harness->Op([&] {
          optimizer->ZeroGradients();
          loss = trainer->TrainStep(batch, kMicrobatch);
          ScopedSpan span(SpanKind::kOptimizer);
          optimizer->Step();
        });
        std::string problem;
        if (check) {
          const PauseRecording pause;
          // Adam reads the gradients and leaves them in place, so they are
          // still the ones computed at the snapshot parameters.
          problem = CheckAgainstOracle(params_before, batch, loss, trainer->Gradients());
        }
        if (r == 0) {
          first_losses.push_back(loss);
        } else if (problem.empty() && loss != first_losses[static_cast<size_t>(index)]) {
          problem = "loss differs from round 0";
        }
        if (!problem.empty()) {
          harness->FailOp("sequence " + std::to_string(k) + " step " + std::to_string(s) +
                          ": " + problem);
        }
      }
      allocs += trainer->heap_allocations() - allocs_before;
    }
    if (r == 0) {
      allocs_per_round = allocs;
    }
  };
  // Round 0's validation curves. Every round reproduces round 0's losses bit
  // for bit, so one replay of round 0 serves them all: each sequence trains
  // again from its initial weights on the same batches, must reproduce its
  // losses exactly, and is validated every kEvalEvery steps on a shared model
  // that takes a copy of the weights.
  const auto checks = [&](int r) {
    if (r != 0) {
      return;
    }
    const PauseRecording pause;
    varuna::Rng val_rng(kValidationSeed);
    const varuna::Batch validation = task.Sample(kValidationRows, &val_rng);
    varuna::Rng eval_rng(kInitSeed);
    const std::unique_ptr<varuna::Sequential> eval_model =
        varuna::BuildBlockModel(kVocab, kWidth, kBlocks, &eval_rng);
    const auto validation_loss = [&](varuna::ReferenceTrainer* trainer) {
      const std::vector<varuna::Tensor*> from = trainer->Parameters();
      const std::vector<varuna::Tensor*> to = eval_model->Parameters();
      for (size_t i = 0; i < from.size(); ++i) {
        *to[i] = *from[i];
      }
      varuna::SoftmaxCrossEntropy loss;
      return loss.Loss(eval_model->Forward(validation.inputs), validation.targets);
    };
    for (int k = 0; k < sequences; ++k) {
      varuna::Rng init_rng(kInitSeed);
      varuna::ReferenceTrainer trainer(varuna::BuildBlockModel(kVocab, kWidth, kBlocks, &init_rng));
      varuna::AdamOptimizer optimizer(trainer.Parameters(), trainer.Gradients(), kLearningRate);
      varuna::Rng rng = data_rng(k);
      std::vector<std::pair<int, double>>& curve = curves[static_cast<size_t>(k)];
      curve.push_back({0, validation_loss(&trainer)});
      for (int s = 0; s < steps; ++s) {
        const varuna::Batch batch = task.Sample(kBatch, &rng);
        optimizer.ZeroGradients();
        const double loss = trainer.TrainStep(batch, kMicrobatch);
        optimizer.Step();
        harness->Check(loss == first_losses[static_cast<size_t>(k * steps + s)],
                       "sequence " + std::to_string(k) + " step " + std::to_string(s) +
                           ": validation replay differs from round 0");
        if ((s + 1) % kEvalEvery == 0 || s + 1 == steps) {
          curve.push_back({s + 1, validation_loss(&trainer)});
        }
      }
      const double initial = std::exp(curve.front().second);
      const double final_ppl = std::exp(curve.back().second);
      harness->Check(final_ppl > task.OptimalPerplexity() && final_ppl < initial,
                     "final validation perplexity " + std::to_string(final_ppl) +
                         " outside (optimal " + std::to_string(task.OptimalPerplexity()) +
                         ", initial " + std::to_string(initial) + ")");
    }
  };
  harness->RunRounds(setup, kSetupRepeats, round, checks);

  // Simulated training outcome of round 0 (see file comment).
  const double step_s = ModelledStepSeconds();
  const double log_optimal = std::log(task.OptimalPerplexity());
  double missing_steps = 0.0;
  double realised = 0.0;
  for (const auto& curve : curves) {
    const double achievable = curve.front().second - log_optimal;
    // Trapezoid integral, in steps, of the missing share of the reduction.
    for (size_t i = 1; i < curve.size(); ++i) {
      const auto [s0, l0] = curve[i - 1];
      const auto [s1, l1] = curve[i];
      missing_steps += 0.5 * ((l0 - log_optimal) + (l1 - log_optimal)) / achievable * (s1 - s0);
    }
    realised += (curve.front().second - curve.back().second) / achievable;
  }
  missing_steps /= sequences;
  realised /= sequences;
  WorkloadResult result;
  result.sim_downtime_s = missing_steps * step_s;
  result.sim_goodput = kBatch / step_s * realised;
  result.layer["train.heap_allocs_per_step"] =
      static_cast<double>(allocs_per_round) / (sequences * steps);
  result.notes.push_back(std::to_string(sequences) + " sequences of " + std::to_string(steps) +
                         " steps per round; " + std::to_string(100.0 * realised) +
                         "% of the achievable log-perplexity reduction realised, " +
                         std::to_string(missing_steps) + " steps' worth missing");
  return result;
}

}  // namespace perfbench

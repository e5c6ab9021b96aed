// Independent oracle for the train_step workload: the Fig. 9 block model
// (Linear embedding, pre-norm residual MLP blocks x + W2 gelu(W1 ln(x)) with
// a 4x hidden layer, Linear head, softmax cross-entropy averaged over the
// batch) written out as plain loops in double precision, sharing no code
// with src/nn or src/tensor. It reads the program's parameters and batch and
// returns the loss and every parameter gradient, in the program's parameter
// order.
#ifndef PERFBENCH_NAIVE_BLOCK_MODEL_H_
#define PERFBENCH_NAIVE_BLOCK_MODEL_H_

#include <vector>

#include "src/nn/synthetic_task.h"
#include "src/tensor/tensor.h"

namespace perfbench {

struct NaiveStep {
  double loss = 0.0;
  std::vector<std::vector<double>> grads;  // One per parameter tensor.
};

// `params` in BuildBlockModel order: embed W, b; per block LayerNorm gain,
// bias, up W, b, down W, b; head W, b. Linear weights are [in, out].
NaiveStep NaiveForwardBackward(const std::vector<varuna::Tensor*>& params,
                               const varuna::Batch& batch);

}  // namespace perfbench

#endif  // PERFBENCH_NAIVE_BLOCK_MODEL_H_

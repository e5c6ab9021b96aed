#include "naive_block_model.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

constexpr double kGeluC = 0.7978845608028654;  // sqrt(2/pi)
constexpr double kLayerNormEpsilon = 1e-5;

// Row-major matrix of doubles.
struct Mat {
  int rows = 0;
  int cols = 0;
  std::vector<double> v;

  Mat() = default;
  Mat(int r, int c) : rows(r), cols(c), v(static_cast<size_t>(r) * c, 0.0) {}
  double& at(int i, int j) { return v[static_cast<size_t>(i) * cols + j]; }
  double at(int i, int j) const { return v[static_cast<size_t>(i) * cols + j]; }
};

Mat FromTensor(const varuna::Tensor& t) {
  const int rows = t.shape().size() == 2 ? t.dim(0) : 1;
  const int cols = t.shape().size() == 2 ? t.dim(1) : t.dim(0);
  Mat m(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    m.v[static_cast<size_t>(i)] = t[i];
  }
  return m;
}

// y = x W + b.
Mat Affine(const Mat& x, const Mat& w, const Mat& b) {
  Mat y(x.rows, w.cols);
  for (int i = 0; i < x.rows; ++i) {
    for (int j = 0; j < w.cols; ++j) {
      double sum = b.v[static_cast<size_t>(j)];
      for (int p = 0; p < x.cols; ++p) {
        sum += x.at(i, p) * w.at(p, j);
      }
      y.at(i, j) = sum;
    }
  }
  return y;
}

// Backward of y = x W + b: accumulates dW, db and returns dx.
Mat AffineBackward(const Mat& x, const Mat& w, const Mat& dy, Mat* dw, Mat* db) {
  Mat dx(x.rows, x.cols);
  for (int i = 0; i < x.rows; ++i) {
    for (int j = 0; j < w.cols; ++j) {
      const double g = dy.at(i, j);
      db->v[static_cast<size_t>(j)] += g;
      for (int p = 0; p < x.cols; ++p) {
        dw->at(p, j) += x.at(i, p) * g;
        dx.at(i, p) += g * w.at(p, j);
      }
    }
  }
  return dx;
}

struct Block {
  Mat xhat, inv_std, n, u, g;  // Forward state kept for backward.
};

}  // namespace

NaiveStep NaiveForwardBackward(const std::vector<varuna::Tensor*>& params,
                               const varuna::Batch& batch) {
  std::vector<Mat> p;
  for (const varuna::Tensor* t : params) {
    p.push_back(FromTensor(*t));
  }
  std::vector<Mat> d;
  for (const Mat& m : p) {
    d.emplace_back(m.rows, m.cols);
  }
  const int num_blocks = static_cast<int>((p.size() - 4) / 6);
  const int rows = batch.inputs.dim(0);

  // Forward.
  Mat h = Affine(FromTensor(batch.inputs), p[0], p[1]);
  std::vector<Block> blocks(static_cast<size_t>(num_blocks));
  for (int b = 0; b < num_blocks; ++b) {
    const size_t base = 2 + 6 * static_cast<size_t>(b);
    Block& s = blocks[static_cast<size_t>(b)];
    s.xhat = Mat(rows, h.cols);
    s.inv_std = Mat(rows, 1);
    s.n = Mat(rows, h.cols);
    for (int i = 0; i < rows; ++i) {
      double mean = 0.0;
      for (int j = 0; j < h.cols; ++j) {
        mean += h.at(i, j);
      }
      mean /= h.cols;
      double var = 0.0;
      for (int j = 0; j < h.cols; ++j) {
        var += (h.at(i, j) - mean) * (h.at(i, j) - mean);
      }
      var /= h.cols;
      const double inv_std = 1.0 / std::sqrt(var + kLayerNormEpsilon);
      s.inv_std.at(i, 0) = inv_std;
      for (int j = 0; j < h.cols; ++j) {
        s.xhat.at(i, j) = (h.at(i, j) - mean) * inv_std;
        s.n.at(i, j) = s.xhat.at(i, j) * p[base].v[static_cast<size_t>(j)] +
                       p[base + 1].v[static_cast<size_t>(j)];
      }
    }
    s.u = Affine(s.n, p[base + 2], p[base + 3]);
    s.g = Mat(s.u.rows, s.u.cols);
    for (size_t k = 0; k < s.u.v.size(); ++k) {
      const double x = s.u.v[k];
      s.g.v[k] = 0.5 * x * (1.0 + std::tanh(kGeluC * (x + 0.044715 * x * x * x)));
    }
    const Mat branch = Affine(s.g, p[base + 4], p[base + 5]);
    for (size_t k = 0; k < h.v.size(); ++k) {
      h.v[k] += branch.v[k];
    }
  }
  const size_t head = p.size() - 2;
  const Mat logits = Affine(h, p[head], p[head + 1]);

  // Softmax cross-entropy, mean over rows.
  NaiveStep step;
  Mat dlogits(logits.rows, logits.cols);
  for (int i = 0; i < rows; ++i) {
    double max_logit = logits.at(i, 0);
    for (int j = 1; j < logits.cols; ++j) {
      max_logit = std::max(max_logit, logits.at(i, j));
    }
    double sum = 0.0;
    for (int j = 0; j < logits.cols; ++j) {
      sum += std::exp(logits.at(i, j) - max_logit);
    }
    const int target = batch.targets[static_cast<size_t>(i)];
    for (int j = 0; j < logits.cols; ++j) {
      const double prob = std::exp(logits.at(i, j) - max_logit) / sum;
      dlogits.at(i, j) = (prob - (j == target ? 1.0 : 0.0)) / rows;
      if (j == target) {
        step.loss -= std::log(prob);
      }
    }
  }
  step.loss /= rows;

  // Backward.
  Mat dh = AffineBackward(h, p[head], dlogits, &d[head], &d[head + 1]);
  for (int b = num_blocks - 1; b >= 0; --b) {
    const size_t base = 2 + 6 * static_cast<size_t>(b);
    const Block& s = blocks[static_cast<size_t>(b)];
    Mat du = AffineBackward(s.g, p[base + 4], dh, &d[base + 4], &d[base + 5]);
    for (size_t k = 0; k < du.v.size(); ++k) {
      const double x = s.u.v[k];
      const double t = std::tanh(kGeluC * (x + 0.044715 * x * x * x));
      du.v[k] *= 0.5 * (1.0 + t) +
                 0.5 * x * (1.0 - t * t) * kGeluC * (1.0 + 3.0 * 0.044715 * x * x);
    }
    const Mat dn = AffineBackward(s.n, p[base + 2], du, &d[base + 2], &d[base + 3]);
    const int cols = dn.cols;
    for (int i = 0; i < rows; ++i) {
      double mean_dxhat = 0.0;
      double mean_dxhat_xhat = 0.0;
      for (int j = 0; j < cols; ++j) {
        const double dxhat = dn.at(i, j) * p[base].v[static_cast<size_t>(j)];
        d[base].v[static_cast<size_t>(j)] += dn.at(i, j) * s.xhat.at(i, j);
        d[base + 1].v[static_cast<size_t>(j)] += dn.at(i, j);
        mean_dxhat += dxhat;
        mean_dxhat_xhat += dxhat * s.xhat.at(i, j);
      }
      mean_dxhat /= cols;
      mean_dxhat_xhat /= cols;
      for (int j = 0; j < cols; ++j) {
        const double dxhat = dn.at(i, j) * p[base].v[static_cast<size_t>(j)];
        dh.at(i, j) += s.inv_std.at(i, 0) *
                       (dxhat - mean_dxhat - s.xhat.at(i, j) * mean_dxhat_xhat);
      }
    }
  }
  (void)AffineBackward(FromTensor(batch.inputs), p[0], dh, &d[0], &d[1]);

  for (const Mat& m : d) {
    step.grads.push_back(m.v);
  }
  return step;
}

}  // namespace perfbench

#include "ml/gradient.h"

#include "common/logging.h"

namespace sketchml::ml {

void AddLazyL2(const DenseVector& w, double lambda,
               common::SparseGradient* grad) {
  size_t out = 0;
  for (const auto& [key, value] : *grad) {
    const double with_reg = value + lambda * w[key];
    if (with_reg != 0.0) (*grad)[out++] = {key, with_reg};
  }
  grad->resize(out);
}

common::SparseGradient ComputeBatchGradient(const Loss& loss,
                                            const DenseVector& w,
                                            const Dataset& data, size_t begin,
                                            size_t end, double lambda) {
  SKETCHML_CHECK_LE(begin, end);
  SKETCHML_CHECK_LE(end, data.size());
  const auto& rows = data.instances();
  size_t max_pairs = 0;
  for (size_t i = begin; i < end; ++i) max_pairs += rows[i].features.size();
  common::SparseGradient grad;
  grad.reserve(max_pairs);
  const double inv_batch = end > begin ? 1.0 / (end - begin) : 0.0;
  for (size_t i = begin; i < end; ++i) {
    const Instance& x = rows[i];
    const double margin = Dot(w, x);
    const double scale = loss.PointGradientScale(margin, x.label) * inv_batch;
    if (scale == 0.0) continue;
    for (const auto& f : x.features) {
      grad.push_back({f.index, scale * static_cast<double>(f.value)});
    }
  }
  common::SumByKey(0, data.dim(), &grad);
  AddLazyL2(w, lambda, &grad);
  return grad;
}

double ComputeMeanLoss(const Loss& loss, const DenseVector& w,
                       const Dataset& data, double lambda) {
  if (data.size() == 0) return 0.0;
  double total = 0.0;
  for (const auto& x : data.instances()) {
    total += loss.PointLoss(Dot(w, x), x.label);
  }
  double reg = 0.0;
  if (lambda > 0.0) {
    for (double wi : w) reg += wi * wi;
    reg *= lambda / 2.0;
  }
  return total / static_cast<double>(data.size()) + reg;
}

double ComputeAccuracy(const DenseVector& w, const Dataset& data) {
  if (data.size() == 0) return 0.0;
  size_t correct = 0;
  for (const auto& x : data.instances()) {
    const double margin = Dot(w, x);
    if ((margin >= 0 ? 1.0 : -1.0) == x.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace sketchml::ml

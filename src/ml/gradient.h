#ifndef SKETCHML_ML_GRADIENT_H_
#define SKETCHML_ML_GRADIENT_H_

#include <cstddef>

#include "common/sparse.h"
#include "ml/dataset.h"
#include "ml/loss.h"
#include "ml/types.h"

namespace sketchml::ml {

/// Computes the mini-batch gradient of `loss` over instances
/// `[begin, end)` of `data` at weights `w`, as sorted key-value pairs —
/// the exact object SketchML compresses (§2.2).
///
/// The ℓ2 term `lambda * w_k` is applied lazily on the touched dimensions
/// only (the standard sparse-SGD treatment); the data term is averaged
/// over the batch.
common::SparseGradient ComputeBatchGradient(const Loss& loss,
                                            const DenseVector& w,
                                            const Dataset& data, size_t begin,
                                            size_t end, double lambda);

/// Adds the lazy ℓ2 term `lambda * w_k` to each summed data term of `grad`
/// and drops the pairs that come out exactly zero.
void AddLazyL2(const DenseVector& w, double lambda,
               common::SparseGradient* grad);

/// Mean loss of `w` over all of `data` plus the ℓ2 penalty
/// (lambda/2)||w||^2 evaluated over touched dimensions of the dataset.
double ComputeMeanLoss(const Loss& loss, const DenseVector& w,
                       const Dataset& data, double lambda);

/// Classification accuracy (sign of margin vs ±1 label) of `w` on `data`.
double ComputeAccuracy(const DenseVector& w, const Dataset& data);

}  // namespace sketchml::ml

#endif  // SKETCHML_ML_GRADIENT_H_

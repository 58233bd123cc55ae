#include "ml/csr_matrix.h"

#include "common/logging.h"
#include "ml/gradient.h"

namespace sketchml::ml {

CsrMatrix CsrMatrix::FromDataset(const Dataset& data) {
  CsrMatrix matrix;
  matrix.cols_ = data.dim();
  size_t total_nnz = 0;
  for (const auto& inst : data.instances()) {
    total_nnz += inst.features.size();
  }
  matrix.row_offsets_.reserve(data.size() + 1);
  matrix.indices_.reserve(total_nnz);
  matrix.values_.reserve(total_nnz);
  matrix.labels_.reserve(data.size());

  matrix.row_offsets_.push_back(0);
  for (const auto& inst : data.instances()) {
    for (const auto& f : inst.features) {
      matrix.indices_.push_back(f.index);
      matrix.values_.push_back(f.value);
    }
    matrix.row_offsets_.push_back(matrix.indices_.size());
    matrix.labels_.push_back(inst.label);
  }
  return matrix;
}

double CsrMatrix::RowDot(size_t row, const DenseVector& w) const {
  const RowView view = Row(row);
  double sum = 0.0;
  for (size_t i = 0; i < view.nnz; ++i) {
    sum += w[view.indices[i]] * static_cast<double>(view.values[i]);
  }
  return sum;
}

common::SparseGradient ComputeBatchGradientCsr(const Loss& loss,
                                               const DenseVector& w,
                                               const CsrMatrix& matrix,
                                               size_t begin, size_t end,
                                               double lambda) {
  SKETCHML_CHECK_LE(begin, end);
  SKETCHML_CHECK_LE(end, matrix.rows());
  size_t max_pairs = 0;
  for (size_t row = begin; row < end; ++row) max_pairs += matrix.Row(row).nnz;
  common::SparseGradient grad;
  grad.reserve(max_pairs);
  const double inv_batch = end > begin ? 1.0 / (end - begin) : 0.0;
  for (size_t row = begin; row < end; ++row) {
    const double margin = matrix.RowDot(row, w);
    const double scale =
        loss.PointGradientScale(margin, matrix.label(row)) * inv_batch;
    if (scale == 0.0) continue;
    const CsrMatrix::RowView view = matrix.Row(row);
    for (size_t i = 0; i < view.nnz; ++i) {
      grad.push_back(
          {view.indices[i], scale * static_cast<double>(view.values[i])});
    }
  }
  common::SumByKey(0, matrix.cols(), &grad);
  AddLazyL2(w, lambda, &grad);
  return grad;
}

}  // namespace sketchml::ml

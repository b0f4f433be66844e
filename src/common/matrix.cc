#include "common/matrix.h"

#include <cmath>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/check.h"

namespace docs {

Matrix::Matrix(MatrixView view)
    : rows_(view.rows()),
      cols_(view.cols()),
      data_(view.data().begin(), view.data().end()) {}

std::vector<double> Matrix::Row(size_t r) const {
  DOCS_DCHECK_LT(r, rows_);
  return std::vector<double>(data_.begin() + r * cols_,
                             data_.begin() + (r + 1) * cols_);
}

void Matrix::SetRow(size_t r, const std::vector<double>& values) {
  DOCS_DCHECK_LT(r, rows_);
  DOCS_DCHECK_GE(values.size(), cols_);
  for (size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = values[c];
}

void Matrix::NormalizeRows() {
  for (size_t r = 0; r < rows_; ++r) {
    double total = 0.0;
    for (size_t c = 0; c < cols_; ++c) total += data_[r * cols_ + c];
    if (total <= 0.0) {
      const double u = cols_ == 0 ? 0.0 : 1.0 / static_cast<double>(cols_);
      for (size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = u;
    } else {
      for (size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] /= total;
    }
  }
}

std::vector<double> Matrix::LeftMultiply(const std::vector<double>& v) const {
  DOCS_DCHECK_EQ(v.size(), rows_);
  std::vector<double> out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    for (size_t c = 0; c < cols_; ++c) out[c] += vr * data_[r * cols_ + c];
  }
  return out;
}

void Matrix::LeftMultiplyInto(const std::vector<double>& v,
                              std::vector<double>* out) const {
  MatrixView(*this).LeftMultiplyInto(v, out);
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::Fill(double value) {
  for (auto& x : data_) x = value;
}

double Matrix::MaxAbsDiff(MatrixView other) const {
  const std::span<const double> theirs = other.data();
  DOCS_CHECK_EQ(data_.size(), theirs.size())
      << "MaxAbsDiff over mismatched shapes";
  double mx = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    mx = std::max(mx, std::fabs(data_[i] - theirs[i]));
  }
  return mx;
}

void MatrixView::LeftMultiplyInto(const std::vector<double>& v,
                                  std::vector<double>* out) const {
  DOCS_DCHECK_EQ(v.size(), rows_);
  out->assign(cols_, 0.0);
  std::vector<double>& result = *out;
  for (size_t r = 0; r < rows_; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    for (size_t c = 0; c < cols_; ++c) result[c] += vr * data_[r * cols_ + c];
  }
}

namespace {

constexpr size_t kHugePage = size_t{2} << 20;

}  // namespace

void* AllocateHugePageBacked(size_t bytes) {
  if (bytes < kHugePage / 2) return ::operator new(bytes);
  const size_t rounded = (bytes + kHugePage - 1) / kHugePage * kHugePage;
  void* data = std::aligned_alloc(kHugePage, rounded);
  if (data == nullptr) throw std::bad_alloc();
#if defined(__linux__)
  // Before the first touch, so the faults can map huge pages. A refusal
  // (huge pages off, an old kernel) leaves ordinary pages: not an error.
  (void)madvise(data, rounded, MADV_HUGEPAGE);
#endif
  return data;
}

void FreeHugePageBacked(void* data, size_t bytes) {
  if (bytes < kHugePage / 2) {
    ::operator delete(data);
  } else {
    std::free(data);
  }
}

void MatrixArena::Reserve(size_t blocks, size_t elements) {
  data_.reserve(elements);
  begin_.reserve(blocks + 1);
  rows_.reserve(blocks);
  cols_.reserve(blocks);
}

void MatrixArena::Append(size_t rows, size_t cols, double fill) {
  DOCS_CHECK_LE(rows, size_t{0xffffffff});
  DOCS_CHECK_LE(cols, size_t{0xffffffff});
  data_.resize(data_.size() + rows * cols, fill);
  begin_.push_back(data_.size());
  rows_.push_back(static_cast<uint32_t>(rows));
  cols_.push_back(static_cast<uint32_t>(cols));
}

}  // namespace docs

#ifndef DOCS_COMMON_MATRIX_H_
#define DOCS_COMMON_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace docs {

class MatrixView;

/// Dense row-major matrix of doubles. Used for the per-task truth matrices
/// M^(i) (m x l_ti) of the paper and for worker confusion matrices in the
/// Dawid-Skene baseline.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Copies the viewed block.
  explicit Matrix(MatrixView view);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Returns row `r` as a vector copy.
  std::vector<double> Row(size_t r) const;

  /// Overwrites row `r` with `values` (must have cols() entries).
  void SetRow(size_t r, const std::vector<double>& values);

  /// Normalizes each row to sum to 1 (rows summing to <= 0 become uniform).
  void NormalizeRows();

  /// Left-multiplies by a row vector: returns v * M, where v has rows()
  /// entries and the result has cols() entries. This is exactly the paper's
  /// s_i = r^{t_i} x M^(i) operation.
  std::vector<double> LeftMultiply(const std::vector<double>& v) const;

  /// LeftMultiply into a caller-provided buffer: `*out` is resized to cols()
  /// and overwritten. Accumulation order is identical to LeftMultiply, so the
  /// result is bit-identical; the point is that hot loops can reuse `*out`
  /// across calls instead of allocating a fresh vector each time.
  void LeftMultiplyInto(const std::vector<double>& v,
                        std::vector<double>* out) const;

  /// Reshapes to rows x cols. Element values are unspecified afterwards —
  /// callers overwrite every cell (this exists so hot loops can reuse one
  /// Matrix's storage instead of allocating a fresh one per call).
  void Resize(size_t rows, size_t cols);

  /// Fills the whole matrix with `value`.
  void Fill(double value);

  /// Max absolute elementwise difference against `other`; requires equal
  /// shapes.
  double MaxAbsDiff(MatrixView other) const;

  const std::vector<double>& data() const { return data_; }
  double* mutable_data() { return data_.data(); }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Read-only view of a dense row-major block: a Matrix, or one block of a
/// MatrixArena. Cheap to copy; the viewed storage must outlive it.
class MatrixView {
 public:
  MatrixView(const double* data, size_t rows, size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  // Implicit, so every reader of a view also takes a Matrix.
  MatrixView(const Matrix& matrix)  // NOLINT(google-explicit-constructor)
      : data_(matrix.data().data()), rows_(matrix.rows()),
        cols_(matrix.cols()) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  std::span<const double> data() const { return {data_, rows_ * cols_}; }

  /// Matrix::LeftMultiplyInto on the viewed block: the same products in the
  /// same order, so the result is bit-identical.
  void LeftMultiplyInto(const std::vector<double>& v,
                        std::vector<double>* out) const;

 private:
  const double* data_;
  size_t rows_;
  size_t cols_;
};

/// Storage for a large buffer that is read at random: a request of at least
/// half a huge page (2 MiB) is rounded up to whole huge pages, aligned to
/// one and, on Linux, advised for transparent huge pages, so a random read
/// needs one TLB entry per 2 MiB instead of one per 4 KiB. Smaller requests
/// go to operator new. The advice is a hint: where huge pages are off, the
/// buffer keeps 4 KiB pages and only its alignment differs.
void* AllocateHugePageBacked(size_t bytes);
void FreeHugePageBacked(void* data, size_t bytes);

template <typename T>
struct HugePageAllocator {
  using value_type = T;
  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}  // NOLINT: rebind
  T* allocate(size_t n) {
    return static_cast<T*>(AllocateHugePageBacked(n * sizeof(T)));
  }
  void deallocate(T* data, size_t n) { FreeHugePageBacked(data, n * sizeof(T)); }
  friend bool operator==(HugePageAllocator, HugePageAllocator) { return true; }
};

/// Many row-major matrices in one contiguous buffer, block after block, so
/// a reader that walks them in order (or knows the next block it needs) can
/// prefetch without loading a per-matrix heap pointer first. The buffer is
/// huge-page backed (HugePageAllocator) once it is large enough.
class MatrixArena {
 public:
  /// Reserves room for `blocks` blocks of `elements` doubles in total, so
  /// an arena built block by block allocates each buffer once.
  void Reserve(size_t blocks, size_t elements);
  /// Appends a rows x cols block filled with `fill`.
  void Append(size_t rows, size_t cols, double fill = 0.0);

  size_t size() const { return rows_.size(); }
  MatrixView operator[](size_t i) const {
    return {data_.data() + begin_[i], rows_[i], cols_[i]};
  }
  /// First element of block i, row-major, for writing it in place.
  double* block(size_t i) { return data_.data() + begin_[i]; }

 private:
  std::vector<double, HugePageAllocator<double>> data_;
  std::vector<size_t> begin_ = {0};  // block starts, size() + 1
  std::vector<uint32_t> rows_;
  std::vector<uint32_t> cols_;
};

}  // namespace docs

#endif  // DOCS_COMMON_MATRIX_H_

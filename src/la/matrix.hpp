// Dense row-major matrix supporting the decompositions in lu/qr/cholesky.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "la/vector.hpp"

namespace fepia::la {

/// Dense row-major matrix of doubles with value semantics.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a `rows x cols` matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a matrix from nested braces, e.g. `Matrix{{1,2},{3,4}}`.
  /// All rows must have the same length; throws std::invalid_argument.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Unchecked element access.
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws std::out_of_range.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;
  [[nodiscard]] double& at(std::size_t r, std::size_t c);

  /// Underlying row-major storage.
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator-(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator*(Matrix m, double s);
[[nodiscard]] Matrix operator*(double s, Matrix m);

/// Matrix-matrix product; throws std::invalid_argument on shape mismatch.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// Matrix-vector product `A x`; throws std::invalid_argument on shape mismatch.
[[nodiscard]] Vector matvec(const Matrix& a, const Vector& x);

/// `A^T x` without forming the transpose.
[[nodiscard]] Vector matTvec(const Matrix& a, const Vector& x);

/// Transpose.
[[nodiscard]] Matrix transpose(const Matrix& a);

/// n x n identity.
[[nodiscard]] Matrix identity(std::size_t n);

/// Outer product `a b^T`.
[[nodiscard]] Matrix outer(const Vector& a, const Vector& b);

/// Frobenius norm.
[[nodiscard]] double normFrobenius(const Matrix& a) noexcept;

/// True when `|a_ij − b_ij| <= tol` for all entries and shapes match.
[[nodiscard]] bool approxEqual(const Matrix& a, const Matrix& b, double tol);

/// Streams row by row as "[[..],[..]]".
std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace fepia::la

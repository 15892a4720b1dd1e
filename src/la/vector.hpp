// Dense real vector used throughout the robustness library.
//
// The robustness radius of the paper is a Euclidean distance in a
// perturbation space (R^n for a single kind, P-space for merged kinds),
// so the library needs a small, predictable dense-vector kernel:
// elementwise arithmetic, dot products, and the l1/l2/l-inf norms.
// This replaces the Eigen dependency of the original authors' tooling
// (see DESIGN.md, substitutions table).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

namespace fepia::la {

/// Dense vector of doubles with value semantics.
///
/// Sizes in this library are small (perturbation spaces of up to a few
/// thousand dimensions), so the implementation favours clarity and
/// exact reproducibility over blocking/vectorisation tricks.
class Vector {
 public:
  /// Creates an empty (0-dimensional) vector.
  Vector() = default;

  /// Creates an `n`-dimensional vector with every element set to `fill`.
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}

  /// Creates a vector from an explicit element list, e.g. `Vector{1.0, 2.0}`.
  Vector(std::initializer_list<double> init) : data_(init) {}

  /// Creates a vector by copying `values`.
  explicit Vector(std::span<const double> values)
      : data_(values.begin(), values.end()) {}

  /// Creates a vector by taking ownership of `values`.
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  /// Number of elements.
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  /// True when the vector has no elements.
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Unchecked element access.
  [[nodiscard]] double operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] double& operator[](std::size_t i) noexcept { return data_[i]; }

  /// Bounds-checked element access; throws std::out_of_range.
  [[nodiscard]] double at(std::size_t i) const { return data_.at(i); }
  [[nodiscard]] double& at(std::size_t i) { return data_.at(i); }

  /// Read-only view of the underlying storage.
  [[nodiscard]] std::span<const double> span() const noexcept { return data_; }

  /// Mutable view of the underlying storage.
  [[nodiscard]] std::span<double> span() noexcept { return data_; }

  /// Underlying storage (useful for interop with <algorithm>).
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }

  [[nodiscard]] auto begin() noexcept { return data_.begin(); }
  [[nodiscard]] auto end() noexcept { return data_.end(); }
  [[nodiscard]] auto begin() const noexcept { return data_.begin(); }
  [[nodiscard]] auto end() const noexcept { return data_.end(); }

  /// Appends an element (used by the concatenation operator of the paper).
  void push_back(double v) { data_.push_back(v); }

  /// Resizes, zero-filling any new elements.
  void resize(std::size_t n) { data_.resize(n, 0.0); }

  // Compound elementwise arithmetic. All binary forms require equal sizes
  // and throw std::invalid_argument otherwise.
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s) noexcept;
  Vector& operator/=(double s);

  /// Elementwise product (Hadamard), in place.
  Vector& cwiseMulInPlace(const Vector& rhs);

  /// Elementwise quotient, in place; throws on division by zero element.
  Vector& cwiseDivInPlace(const Vector& rhs);

  friend bool operator==(const Vector&, const Vector&) = default;

 private:
  std::vector<double> data_;
};

[[nodiscard]] Vector operator+(Vector lhs, const Vector& rhs);
[[nodiscard]] Vector operator-(Vector lhs, const Vector& rhs);
[[nodiscard]] Vector operator*(Vector v, double s);
[[nodiscard]] Vector operator*(double s, Vector v);
[[nodiscard]] Vector operator/(Vector v, double s);
[[nodiscard]] Vector operator-(Vector v);  // unary negation

/// Elementwise (Hadamard) product.
[[nodiscard]] Vector cwiseMul(Vector lhs, const Vector& rhs);

/// Elementwise quotient; throws std::domain_error on a zero divisor element.
[[nodiscard]] Vector cwiseDiv(Vector lhs, const Vector& rhs);

/// Inner product `sum_i a_i b_i`; throws std::invalid_argument on size mismatch.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

/// Euclidean norm, the `l2` norm used in Eq. (1)/(2) of the paper.
[[nodiscard]] double norm2(const Vector& v) noexcept;

/// Squared Euclidean norm (avoids the sqrt when comparing distances).
[[nodiscard]] double normSq(const Vector& v) noexcept;

/// Chebyshev norm.
[[nodiscard]] double normInf(const Vector& v) noexcept;

/// Euclidean distance `‖a − b‖₂` between two points.
[[nodiscard]] double distance(const Vector& a, const Vector& b);

/// Sum of all elements.
[[nodiscard]] double sum(const Vector& v) noexcept;

/// Returns `v / ‖v‖₂`; throws std::domain_error when `‖v‖₂ == 0`.
[[nodiscard]] Vector normalized(const Vector& v);

/// True when `‖a − b‖∞ <= tol`.
[[nodiscard]] bool approxEqual(const Vector& a, const Vector& b, double tol);

/// Vector of `n` ones — `P^orig` under the paper's normalized scheme.
[[nodiscard]] Vector ones(std::size_t n);

/// i-th standard basis vector in R^n.
[[nodiscard]] Vector unitAxis(std::size_t n, std::size_t i);

/// Streams as "[v0, v1, ...]".
std::ostream& operator<<(std::ostream& os, const Vector& v);

}  // namespace fepia::la

#include "la/matrix.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

namespace fepia::la {

namespace {

void requireSameShape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("la::Matrix ") + op +
                                ": shape mismatch");
  }
}

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("la::Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("la::Matrix::at");
  return (*this)(r, c);
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("la::Matrix::at");
  return (*this)(r, c);
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  requireSameShape(*this, rhs, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  requireSameShape(*this, rhs, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("la::matmul: inner dimensions differ");
  }
  Matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += aik * b(k, j);
      }
    }
  }
  return out;
}

Vector matvec(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("la::matvec: dimension mismatch");
  }
  Vector out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    out[i] = acc;
  }
  return out;
}

Vector matTvec(const Matrix& a, const Vector& x) {
  if (a.rows() != x.size()) {
    throw std::invalid_argument("la::matTvec: dimension mismatch");
  }
  Vector out(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += a(i, j) * xi;
  }
  return out;
}

Matrix transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) out(j, i) = a(i, j);
  }
  return out;
}

Matrix identity(std::size_t n) {
  Matrix out(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix outer(const Vector& a, const Vector& b) {
  Matrix out(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) out(i, j) = a[i] * b[j];
  }
  return out;
}

double normFrobenius(const Matrix& a) noexcept {
  double acc = 0.0;
  for (double x : a.data()) acc += x * x;
  return std::sqrt(acc);
}

bool approxEqual(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (std::abs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << '[';
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (i != 0) os << ",";
    os << '[';
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (j != 0) os << ", ";
      os << m(i, j);
    }
    os << ']';
  }
  return os << ']';
}

}  // namespace fepia::la

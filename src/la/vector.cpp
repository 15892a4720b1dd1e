#include "la/vector.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace fepia::la {

namespace {

void requireSameSize(const Vector& a, const Vector& b, const char* op) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string("la::Vector ") + op +
                                ": size mismatch (" + std::to_string(a.size()) +
                                " vs " + std::to_string(b.size()) + ")");
  }
}

}  // namespace

Vector& Vector::operator+=(const Vector& rhs) {
  requireSameSize(*this, rhs, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  requireSameSize(*this, rhs, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Vector& Vector::operator/=(double s) {
  if (s == 0.0) throw std::domain_error("la::Vector /=: division by zero");
  for (double& x : data_) x /= s;
  return *this;
}

Vector& Vector::cwiseMulInPlace(const Vector& rhs) {
  requireSameSize(*this, rhs, "cwiseMul");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= rhs.data_[i];
  return *this;
}

Vector& Vector::cwiseDivInPlace(const Vector& rhs) {
  requireSameSize(*this, rhs, "cwiseDiv");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (rhs.data_[i] == 0.0) {
      throw std::domain_error("la::Vector cwiseDiv: zero divisor at index " +
                              std::to_string(i));
    }
    data_[i] /= rhs.data_[i];
  }
  return *this;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(Vector v, double s) { return v *= s; }
Vector operator*(double s, Vector v) { return v *= s; }
Vector operator/(Vector v, double s) { return v /= s; }

Vector operator-(Vector v) {
  for (double& x : v) x = -x;
  return v;
}

Vector cwiseMul(Vector lhs, const Vector& rhs) { return lhs.cwiseMulInPlace(rhs); }
Vector cwiseDiv(Vector lhs, const Vector& rhs) { return lhs.cwiseDivInPlace(rhs); }

double dot(const Vector& a, const Vector& b) {
  requireSameSize(a, b, "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double normSq(const Vector& v) noexcept {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return acc;
}

double norm2(const Vector& v) noexcept { return std::sqrt(normSq(v)); }

double normInf(const Vector& v) noexcept {
  double acc = 0.0;
  for (double x : v) acc = std::max(acc, std::abs(x));
  return acc;
}

double distance(const Vector& a, const Vector& b) {
  requireSameSize(a, b, "distance");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double sum(const Vector& v) noexcept {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

Vector normalized(const Vector& v) {
  const double n = norm2(v);
  if (n == 0.0) throw std::domain_error("la::normalized: zero vector");
  return v / n;
}

bool approxEqual(const Vector& a, const Vector& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

Vector ones(std::size_t n) { return Vector(n, 1.0); }

Vector unitAxis(std::size_t n, std::size_t i) {
  if (i >= n) throw std::out_of_range("la::unitAxis: axis index out of range");
  Vector e(n, 0.0);
  e[i] = 1.0;
  return e;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << v[i];
  }
  return os << ']';
}

}  // namespace fepia::la

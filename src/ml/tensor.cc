#include "ml/tensor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.h"

namespace esim::ml {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_{rows}, cols_{cols}, data_(rows * cols, 0.0) {}

Tensor::Tensor(std::size_t rows, std::size_t cols,
               std::vector<double> values)
    : rows_{rows}, cols_{cols}, data_{std::move(values)} {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Tensor: values size mismatch");
  }
}

void Tensor::zero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Tensor::fill_normal(sim::Rng& rng, double stddev) {
  for (auto& v : data_) v = rng.normal(0.0, stddev);
}

void Tensor::fill_xavier(sim::Rng& rng) {
  // Glorot uniform: U(-a, a), a = sqrt(6 / (fan_in + fan_out)).
  const double a =
      std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (auto& v : data_) v = rng.uniform(-a, a);
}

void Tensor::add(const Tensor& other) { add_scaled(other, 1.0); }

void Tensor::add_scaled(const Tensor& other, double scale) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("Tensor::add: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void Tensor::scale(double k) {
  for (auto& v : data_) v *= k;
}

void Tensor::map(const std::function<double(double)>& fn) {
  for (auto& v : data_) v = fn(v);
}

double Tensor::sum() const {
  double s = 0;
  for (double v : data_) s += v;
  return s;
}

double Tensor::abs_max() const {
  double m = 0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimensions differ");
  }
  Tensor c{a.rows(), b.cols()};
  kernels::matmul_skip_zero(a.data(), a.cols(), 1, b.data(), a.rows(),
                            a.cols(), b.cols(), c.data());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt: inner dimensions differ");
  }
  Tensor c{a.rows(), b.rows()};
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  // B's rows are the weight rows of the packed inference kernels: pack
  // whole groups of eight into a per-thread scratch buffer and run the
  // rows of A as lanes; the ragged tail rows take the scalar dot. A
  // one-row A (the reference step) gains nothing from lanes that the
  // pack pass does not cost, so it keeps the scalar dot throughout.
  const std::size_t groups = m > 1 ? n / kernels::kGroup : 0;
  const std::size_t full = groups * kernels::kGroup;
  thread_local std::vector<double> packed;
  packed.resize(full * k);
  kernels::pack_rows(b.data(), groups, k, packed.data());
  kernels::matmul_packed(packed.data(), groups, k, a.data(), k, m, c.data(),
                         n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = full; j < n; ++j) {
      c.at(i, j) = kernels::dot(b.data() + j * k, k, a.data() + i * k);
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_tn: inner dimensions differ");
  }
  Tensor c{a.cols(), b.cols()};
  kernels::matmul_skip_zero(a.data(), 1, a.cols(), b.data(), a.cols(),
                            a.rows(), b.cols(), c.data());
  return c;
}

void add_row_bias(Tensor& m, const Tensor& bias) {
  if (bias.rows() != 1 || bias.cols() != m.cols()) {
    throw std::invalid_argument("add_row_bias: bias shape mismatch");
  }
  const std::size_t n = m.cols();
  const double* b = bias.data();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* row = m.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) row[j] += b[j];
  }
}

}  // namespace esim::ml

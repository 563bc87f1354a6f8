#include "gp/kernel.hpp"

#include <cmath>
#include <stdexcept>

namespace gptc::gp {

Kernel::Kernel(KernelKind kind, std::size_t dim) : kind_(kind), dim_(dim) {
  if (dim == 0) throw std::invalid_argument("Kernel: dim == 0");
  // Default: lengthscale 0.3 (a third of the unit cube), unit variance.
  la::Vector h(num_hyper(), 0.0);
  for (std::size_t i = 0; i < dim_; ++i) h[i] = std::log(0.3);
  set_log_hyper(std::move(h));
}

void Kernel::set_log_hyper(la::Vector h) {
  if (h.size() != num_hyper())
    throw std::invalid_argument("Kernel::set_log_hyper: size mismatch");
  log_hyper_ = std::move(h);
  lengthscale_.resize(dim_);
  for (std::size_t i = 0; i < dim_; ++i)
    lengthscale_[i] = std::exp(log_hyper_[i]);
  sf2_ = std::exp(log_hyper_[dim_]);
}

void Kernel::check_dim(std::size_t n) const {
  if (n != dim_) throw std::invalid_argument("Kernel: point dimension mismatch");
}

double Kernel::scaled_r2(std::span<const double> x,
                         std::span<const double> y) const {
  double r2 = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double d = (x[i] - y[i]) / lengthscale_[i];
    r2 += d * d;
  }
  return r2;
}

double Kernel::correlation(double r2) const {
  switch (kind_) {
    case KernelKind::SquaredExponential:
      return sf2_ * std::exp(-0.5 * r2);
    case KernelKind::Matern52: {
      const double r = std::sqrt(r2);
      const double a = std::sqrt(5.0) * r;
      return sf2_ * (1.0 + a + 5.0 * r2 / 3.0) * std::exp(-a);
    }
  }
  return 0.0;
}

double Kernel::operator()(std::span<const double> x,
                          std::span<const double> y) const {
  check_dim(x.size());
  check_dim(y.size());
  return correlation(scaled_r2(x, y));
}

la::Matrix Kernel::gram(const la::Matrix& x) const {
  const std::size_t n = x.rows();
  la::Matrix k(n, n);
  if (n == 0) return k;
  check_dim(x.cols());
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = correlation(scaled_r2(x.row(i), x.row(i)));
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = correlation(scaled_r2(x.row(i), x.row(j)));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

la::Matrix Kernel::cross(const la::Matrix& x, const la::Matrix& z) const {
  la::Matrix k(x.rows(), z.rows());
  if (x.rows() == 0 || z.rows() == 0) return k;
  check_dim(x.cols());
  check_dim(z.cols());
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < z.rows(); ++j)
      k(i, j) = correlation(scaled_r2(x.row(i), z.row(j)));
  return k;
}

}  // namespace gptc::gp

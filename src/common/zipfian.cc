#include "src/common/zipfian.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rocksteady {

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n > 0);
  if (theta_ <= 0) {
    theta_ = 0;  // Uniform.
    return;
  }
  if (theta_ < 1.0) {
    // YCSB closed form (Gray et al., "Quickly Generating Billion-Record
    // Synthetic Databases").
    zetan_ = Zeta(n_, theta_);
    zeta2theta_ = Zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2theta_ / zetan_);
    return;
  }
  // theta >= 1: the closed form diverges; build an explicit CDF table. For
  // the table to be practical we cap it; ranks beyond the cap have vanishing
  // probability at theta >= 1 anyway.
  const uint64_t table_size = std::min<uint64_t>(n_, 1u << 20);
  cdf_.resize(table_size);
  double sum = 0;
  for (uint64_t i = 0; i < table_size; i++) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta_);
    cdf_[i] = sum;
  }
  for (auto& v : cdf_) {
    v /= sum;
  }
}

double ZipfianGenerator::Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 0; i < n; i++) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  return sum;
}

uint64_t ZipfianGenerator::Next(Random& rng) const {
  if (theta_ == 0) {
    return rng.Uniform(n_);
  }
  if (!cdf_.empty()) {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint64_t>(it - cdf_.begin());
  }
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  return static_cast<uint64_t>(static_cast<double>(n_) *
                               std::pow(eta_ * u - eta_ + 1.0, alpha_));
}

}  // namespace rocksteady

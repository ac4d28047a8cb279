// Zipfian key-popularity generator (YCSB's "zipfian" and "scrambled zipfian").
//
// The paper's evaluation uses YCSB-B with Zipfian theta = 0.99 (Figures 9-11,
// 13-14) and sweeps theta in {0, 0.5, 0.99, 1.5} (Figure 12). Figure 4 uses
// theta = 0.5 over index scan start keys. This implements Gray et al.'s
// rejection-free inverse-CDF approximation exactly as YCSB does, plus a
// scrambled variant that decorrelates rank from key id.
#ifndef ROCKSTEADY_SRC_COMMON_ZIPFIAN_H_
#define ROCKSTEADY_SRC_COMMON_ZIPFIAN_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"

namespace rocksteady {

class ZipfianGenerator {
 public:
  // Generates ranks in [0, n). theta in [0, 1) uses the YCSB closed form;
  // theta == 0 degenerates to uniform; theta >= 1 (e.g. Figure 12's 1.5)
  // falls back to inverse-CDF sampling over a precomputed table.
  ZipfianGenerator(uint64_t n, double theta);

  // Next rank, most popular item is rank 0. Holds no state between draws,
  // so one generator may be shared by every client.
  uint64_t Next(Random& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  // YCSB closed-form parameters (theta in (0,1)).
  double alpha_ = 0;
  double zetan_ = 0;
  double eta_ = 0;
  double zeta2theta_ = 0;
  // Inverse CDF table for theta >= 1.
  std::vector<double> cdf_;
};

// Decorrelates Zipfian rank from key id so "hot" keys are spread uniformly
// over the key space (YCSB's ScrambledZipfianGenerator). This matters for
// migration experiments: hot records land uniformly across the hash space,
// so both halves of a table carry hot keys.
class ScrambledZipfianGenerator {
 public:
  ScrambledZipfianGenerator(uint64_t n, double theta) : zipf_(n, theta) {}

  uint64_t Next(Random& rng) const { return Mix64(zipf_.Next(rng)) % zipf_.n(); }

  uint64_t n() const { return zipf_.n(); }

 private:
  ZipfianGenerator zipf_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_COMMON_ZIPFIAN_H_

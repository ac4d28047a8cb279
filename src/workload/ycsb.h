// YCSB workload generation (Cooper et al., SoCC'10), as used in §4.1:
// "8 client machines run the YCSB-B workload (95% reads, 5% writes, keys
// chosen according to a Zipfian distribution with theta = 0.99)".
#ifndef ROCKSTEADY_SRC_WORKLOAD_YCSB_H_
#define ROCKSTEADY_SRC_WORKLOAD_YCSB_H_

#include <string>

#include "src/common/random.h"
#include "src/common/zipfian.h"
#include "src/common/types.h"

namespace rocksteady {

struct YcsbConfig {
  uint64_t num_records = 1'000'000;
  size_t key_length = 30;    // §4.1: 30 B primary keys.
  size_t value_length = 100;  // §4.1: 100 B record payloads.
  double read_fraction = 0.95;
  double theta = 0.99;

  static YcsbConfig WorkloadA() { return YcsbConfig{.read_fraction = 0.5}; }
  static YcsbConfig WorkloadB() { return YcsbConfig{.read_fraction = 0.95}; }
  static YcsbConfig WorkloadC() { return YcsbConfig{.read_fraction = 1.0}; }
};

class YcsbWorkload {
 public:
  struct Op {
    bool is_read = true;
    std::string key;
  };

  explicit YcsbWorkload(const YcsbConfig& config)
      : config_(config), zipf_(config.num_records, config.theta) {}

  Op NextOp(Random& rng) const {
    const bool is_read = rng.NextDouble() < config_.read_fraction;
    return Op{.is_read = is_read, .key = KeyAt(zipf_.Next(rng))};
  }

  std::string KeyAt(uint64_t id) const;

  const YcsbConfig& config() const { return config_; }

 private:
  YcsbConfig config_;
  ScrambledZipfianGenerator zipf_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_WORKLOAD_YCSB_H_

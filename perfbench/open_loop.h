// Open-loop YCSB-style load for the benchmark, generated from the
// benchmark's own seed and fed to the public RamCloudClient API.
//
// Nothing here draws from the program's RNG streams or uses its workload
// library: the inputs (arrival times, op types, keys, values) depend only on
// the seed, so a change to the program cannot change what it is asked to do.
// Arrivals are Poisson in simulated time; each request's latency counts from
// its intended arrival, so a stall also charges the requests queued behind it.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/cluster.h"

namespace perfbench {

using rocksteady::Tick;

// SplitMix64: small, fast, and good enough for load generation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1].
  double Unit() { return static_cast<double>((Next() >> 11) + 1) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

inline uint64_t MixSeed(uint64_t a, uint64_t b) { return Rng(a * 0x100000001B3ull ^ b).Next(); }

// YCSB's scrambled Zipfian: ranks follow Zipf(theta) by Gray et al.'s closed
// form, then an FNV-1a hash of the rank picks the key, so hot keys are spread
// over the key space (and hence over tablets and hash-table buckets).
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; i++) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan);
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.Unit();
    const double uz = u * zetan_;
    uint64_t rank = 0;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    return Fnv(std::min(rank, n_ - 1)) % n_;
  }

 private:
  static uint64_t Fnv(uint64_t v) {
    uint64_t h = 0xCBF29CE484222325ull;
    for (int i = 0; i < 8; i++) {
      h = (h ^ (v & 0xFF)) * 0x100000001B3ull;
      v >>= 8;
    }
    return h;
  }

  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

inline constexpr size_t kKeyLength = 12;
inline constexpr size_t kValueLength = 100;
// Tags identify which write produced a stored value: (client << 32) | op.
inline constexpr uint64_t kInitialTag = ~0ull;         // The bulk-loaded value.
inline constexpr uint64_t kUnreadableTag = ~0ull - 1;  // Neither loaded nor written.

inline std::string InitialValue() { return std::string(kValueLength, 'v'); }

// A written value: "T" + 16 hex digits of the tag, padded to kValueLength.
inline void FormatValue(uint64_t tag, std::string* out) {
  out->assign(kValueLength, 'w');
  char head[18];
  std::snprintf(head, sizeof(head), "T%016llx", static_cast<unsigned long long>(tag));
  out->replace(0, 17, head, 17);
}

inline uint64_t ParseTag(const std::string& value) {
  if (value.size() != kValueLength) {
    return kUnreadableTag;
  }
  if (value[0] == 'v') {
    return value == InitialValue() ? kInitialTag : kUnreadableTag;
  }
  if (value[0] != 'T') {
    return kUnreadableTag;
  }
  uint64_t tag = 0;
  for (size_t i = 1; i <= 16; i++) {
    const char c = value[i];
    const int digit = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
    if (digit < 0) {
      return kUnreadableTag;
    }
    tag = tag << 4 | static_cast<uint64_t>(digit);
  }
  return tag;
}

struct LoadSpec {
  uint64_t records = 0;
  double read_fraction = 0.95;
  double zipf_theta = 0.99;
  double ops_per_second = 0;  // Per client.
  size_t max_outstanding = 64;
};

// One op of a client's history. Written only on the client's own event lane
// during the run, and read only after it.
struct OpRecord {
  Tick arrival = 0;  // Intended (Poisson) arrival.
  Tick issued = 0;   // When the client library was called.
  Tick done = 0;     // 0 until the callback ran.
  uint64_t key = 0;
  uint64_t tag = 0;  // Writes: own tag. Reads: tag of the value returned.
  bool is_read = true;
  rocksteady::Status status = rocksteady::Status::kOk;
};

// Drives one RamCloudClient with Poisson arrivals until `stop`. At most
// `max_outstanding` requests are in flight; later arrivals wait in a backlog
// (their latency still counts from arrival).
class OpenLoopClient {
 public:
  OpenLoopClient(rocksteady::RamCloudClient* client, rocksteady::TableId table,
                 const ScrambledZipf* zipf, const LoadSpec& spec, uint64_t seed, uint32_t index,
                 bool time_calls)
      : client_(client),
        table_(table),
        zipf_(zipf),
        spec_(spec),
        rng_(MixSeed(seed, index + 1)),
        index_(index),
        time_calls_(time_calls) {}

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  // Call before the run, from setup or a safe point.
  void Start(Tick stop) {
    stop_ = stop;
    ScheduleNext();
  }

  const std::vector<OpRecord>& ops() const { return ops_; }
  const std::vector<double>& read_call_ns() const { return read_call_ns_; }
  const std::vector<double>& write_call_ns() const { return write_call_ns_; }

 private:
  void ScheduleNext() {
    rocksteady::Simulator& sim = client_->sim();
    const double gap_s = -std::log(rng_.Unit()) / spec_.ops_per_second;
    const Tick at = sim.now() + std::max<Tick>(1, static_cast<Tick>(gap_s * 1e9));
    if (at >= stop_) {
      return;
    }
    sim.At(at, [this] { Arrive(); });
  }

  void Arrive() {
    OpRecord op;
    op.arrival = client_->sim().now();
    op.is_read = rng_.Unit() <= spec_.read_fraction;
    op.key = zipf_->Next(rng_);
    const auto i = static_cast<uint32_t>(ops_.size());
    if (!op.is_read) {
      op.tag = static_cast<uint64_t>(index_) << 32 | i;
    }
    ops_.push_back(op);
    if (outstanding_ < spec_.max_outstanding) {
      Issue(i);
    } else {
      backlog_.push_back(i);
    }
    ScheduleNext();
  }

  void Issue(uint32_t i) {
    outstanding_++;
    ops_[i].issued = client_->sim().now();
    const bool is_read = ops_[i].is_read;
    rocksteady::Cluster::MakeKeyInto(ops_[i].key, kKeyLength, &key_);
    if (!is_read) {
      FormatValue(ops_[i].tag, &value_);
    }
    const auto start = time_calls_ ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
    if (is_read) {
      client_->Read(table_, key_, [this, i](rocksteady::Status status, const std::string& value) {
        ops_[i].tag = status == rocksteady::Status::kOk ? ParseTag(value) : kUnreadableTag;
        Complete(i, status);
      });
    } else {
      client_->Write(table_, key_, value_,
                     [this, i](rocksteady::Status status) { Complete(i, status); });
    }
    if (time_calls_) {
      const double ns =
          std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start).count();
      (is_read ? read_call_ns_ : write_call_ns_).push_back(ns);
    }
  }

  void Complete(uint32_t i, rocksteady::Status status) {
    ops_[i].done = client_->sim().now();
    ops_[i].status = status;
    outstanding_--;
    if (!backlog_.empty()) {
      const uint32_t next = backlog_.front();
      backlog_.pop_front();
      Issue(next);
    }
  }

  rocksteady::RamCloudClient* client_;
  rocksteady::TableId table_;
  const ScrambledZipf* zipf_;
  LoadSpec spec_;
  Rng rng_;
  uint32_t index_;
  bool time_calls_;
  Tick stop_ = 0;
  size_t outstanding_ = 0;
  std::deque<uint32_t> backlog_;
  std::vector<OpRecord> ops_;
  std::string key_;
  std::string value_;
  std::vector<double> read_call_ns_;
  std::vector<double> write_call_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_

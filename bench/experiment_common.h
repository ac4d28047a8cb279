// Shared helpers for the figure/table reproduction drivers.
#ifndef ROCKSTEADY_BENCH_EXPERIMENT_COMMON_H_
#define ROCKSTEADY_BENCH_EXPERIMENT_COMMON_H_

#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/client_history.h"
#include "src/cluster/cluster.h"
#include "src/common/dcheck.h"
#include "src/common/timeseries.h"
#include "src/workload/ycsb.h"

namespace rocksteady {

// Unit conversions for printing simulated times and rates.
inline double ToUs(Tick t) { return static_cast<double>(t) / 1'000.0; }
inline double ToSeconds(Tick t) { return static_cast<double>(t) / 1e9; }
// Rate of `count` events over `span` simulated time, per second.
inline double PerSecond(double count, Tick span) {
  return span == 0 ? 0 : count * 1e9 / static_cast<double>(span);
}
inline double MBps(uint64_t bytes, Tick span) {
  return PerSecond(static_cast<double>(bytes), span) / 1e6;
}

inline ClusterConfig MakeConfig(int masters, int clients, uint64_t seed = 42) {
  ClusterConfig config;
  config.num_masters = masters;
  config.num_clients = clients;
  config.seed = seed;
  config.master.hash_table_log2_buckets = 20;
  config.master.segment_size = 256 * 1024;
  return config;
}

// Splits `table` (initially fully on master 0) into `n` equal hash-range
// tablets across masters [0, n); call before LoadTable. Every split and
// reassignment must succeed: a failed one would leave the table (partly) on
// master 0, and every audit and read-back after it would still pass.
inline void SpreadTableAcross(Cluster& cluster, TableId table, int n) {
  for (int i = 1; i < n; i++) {
    const KeyHash split = static_cast<KeyHash>((~0ull / static_cast<uint64_t>(n)) *
                                               static_cast<uint64_t>(i));
    ROCKSTEADY_CHECK(cluster.coordinator().SplitTablet(table, split) == Status::kOk);
  }
  const auto tablets = cluster.coordinator().GetTableConfig(table);
  for (size_t i = 0; i < tablets.size(); i++) {
    const auto& t = tablets[i];
    const ServerId owner = cluster.master(i % static_cast<size_t>(n)).id();
    if (t.owner != owner) {
      // ReassignTablet installs the tablet on the new owner before touching
      // the map, so the cross-layer coverage audit holds mid-spread.
      ROCKSTEADY_CHECK(cluster.coordinator().ReassignTablet(t.table, t.start_hash, t.end_hash,
                                                            owner) == Status::kOk);
    }
  }
}

// Prints the fabric's loss accounting after a run. All zeros on a healthy
// fabric; injected_* move only when a FaultInjector is installed, and the
// down-node counters move only when crashes were simulated — printing them
// makes a lossy or crashy run visibly so in every experiment summary.
inline void PrintNetworkFaultCounters(Cluster& cluster) {
  const Network& net = cluster.net();
  std::printf(
      "network faults: injected drops %llu, dups %llu, delays %llu; "
      "dropped to/from down nodes %llu/%llu\n",
      static_cast<unsigned long long>(net.injected_drops()),
      static_cast<unsigned long long>(net.injected_duplicates()),
      static_cast<unsigned long long>(net.injected_delays()),
      static_cast<unsigned long long>(net.dropped_to_down_node()),
      static_cast<unsigned long long>(net.dropped_from_down_node()));
}

// Closed-loop multiget driver (Figure 3): issues back-to-back multigets of
// `keys_per_get` keys drawn from `spread` consecutive servers' key pools.
class MultiGetLoop {
 public:
  MultiGetLoop(RamCloudClient* client, TableId table,
               const std::vector<std::vector<std::string>>* pools, int spread, int keys_per_get,
               uint64_t* completed_objects)
      : client_(client),
        table_(table),
        pools_(pools),
        spread_(spread),
        keys_per_get_(keys_per_get),
        completed_objects_(completed_objects) {}

  void Run(int concurrency) {
    for (int i = 0; i < concurrency; i++) {
      IssueNext();
    }
  }

  // Stops re-issuing; in-flight multigets drain.
  void Stop() { stopped_ = true; }

 private:
  void IssueNext() {
    if (stopped_) {
      return;
    }
    const size_t servers = pools_->size();
    const size_t primary = next_primary_++ % servers;
    std::vector<std::string> keys;
    keys.reserve(static_cast<size_t>(keys_per_get_));
    // Paper: spread 2 = 6 keys from one server + 1 from another, etc.
    const int from_primary = keys_per_get_ - (spread_ - 1);
    auto pick = [&](size_t server, int count) {
      const auto& pool = (*pools_)[server];
      for (int k = 0; k < count; k++) {
        keys.push_back(pool[client_->rng().Uniform(pool.size())]);
      }
    };
    pick(primary, from_primary);
    for (int s = 1; s < spread_; s++) {
      pick((primary + static_cast<size_t>(s)) % servers, 1);
    }
    client_->MultiGet(table_, std::move(keys), [this](Status status) {
      if (status == Status::kOk) {
        *completed_objects_ += static_cast<uint64_t>(keys_per_get_);
      }
      IssueNext();
    });
  }

  RamCloudClient* client_;
  TableId table_;
  const std::vector<std::vector<std::string>>* pools_;
  int spread_;
  int keys_per_get_;
  uint64_t* completed_objects_;
  size_t next_primary_ = 0;
  bool stopped_ = false;
};

// Open-loop secondary-index scan driver (Figure 4).
// Nearly open load, like ClientHistory's (§4.1): Poisson arrivals at the
// offered rate, at most kMaxOutstanding scans in flight per actor, and
// arrivals beyond that queued in the client. Latency is measured from the intended
// arrival, so client-side queueing past the knee shows in the tail. The
// bound matters past the knee: with every arrival in flight, lookups queue
// at the server until their callers time out and retry, and the retries
// and retransmissions crowd out the work anyone still waits for.
class IndexScanActor {
 public:
  static constexpr size_t kMaxOutstanding = 8;

  IndexScanActor(RamCloudClient* client, TableId table, uint8_t index_id,
                 uint64_t num_secondary_keys, double theta, double scans_per_second,
                 Tick stop_time, LatencyTimeline* latency)
      : client_(client),
        table_(table),
        index_id_(index_id),
        zipf_(num_secondary_keys, theta),
        gap_(PoissonGap(scans_per_second)),
        stop_time_(stop_time),
        latency_(latency) {}

  static std::string SecondaryKey(uint64_t id) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "sec%027llu", static_cast<unsigned long long>(id));
    return buffer;
  }

  void Start() { ScheduleNext(); }

  uint64_t completed() const { return completed_; }

 private:
  struct Arrival {
    Tick at = 0;
    std::string start_key;
  };

  void ScheduleNext() {
    // Arrivals, keys and timers all belong to the issuing client's node.
    Simulator& sim = client_->sim();
    const Tick at = sim.now() + gap_(client_->rng(), sim.now());
    if (at >= stop_time_) {
      return;
    }
    sim.At(at, [this, at] {
      backlog_.push_back(Arrival{at, SecondaryKey(zipf_.Next(client_->rng()))});
      Pump();
      ScheduleNext();
    });
  }

  void Pump() {
    while (outstanding_ < kMaxOutstanding && !backlog_.empty()) {
      Arrival arrival = std::move(backlog_.front());
      backlog_.pop_front();
      outstanding_++;
      client_->IndexScan(table_, index_id_, std::move(arrival.start_key), 4,
                         [this, at = arrival.at](Status status) {
                           outstanding_--;
                           if (status == Status::kOk) {
                             completed_++;
                             if (latency_ != nullptr) {
                               const Tick now = client_->sim().now();
                               latency_->Record(now, now - at);
                             }
                           }
                           Pump();
                         });
    }
  }

  RamCloudClient* client_;
  TableId table_;
  uint8_t index_id_;
  ZipfianGenerator zipf_;
  ClientHistory::OpGap gap_;
  Tick stop_time_;
  LatencyTimeline* latency_;
  size_t outstanding_ = 0;
  std::deque<Arrival> backlog_;
  uint64_t completed_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_BENCH_EXPERIMENT_COMMON_H_

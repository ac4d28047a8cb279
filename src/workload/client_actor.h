// Open-loop workload actors.
//
// §4.1: "Clients offer a nearly open load to the cluster". Each actor draws
// Poisson arrivals at its configured rate; arrivals beyond the pipeline
// depth queue in the client (the backlog whose drain produces the paper's
// post-migration throughput overshoot, Figure 9). Latency is measured from
// *intended arrival* to completion, so client-side queueing counts — the
// open-load convention.
#ifndef ROCKSTEADY_SRC_WORKLOAD_CLIENT_ACTOR_H_
#define ROCKSTEADY_SRC_WORKLOAD_CLIENT_ACTOR_H_

#include <deque>
#include <memory>

#include "src/cluster/client.h"
#include "src/common/timeseries.h"
#include "src/workload/ycsb.h"

namespace rocksteady {

struct ClientActorConfig {
  double ops_per_second = 10'000;
  // Maximum requests in flight per actor; arrivals beyond this backlog.
  size_t max_outstanding = 8;
  Tick stop_time = 0;  // No arrivals at/after this time.
};

class ClientActor {
 public:
  ClientActor(TableId table, RamCloudClient* client, YcsbWorkload* workload,
              const ClientActorConfig& config)
      : table_(table), client_(client), workload_(workload), config_(config) {}

  // Optional recorders; any may be null.
  void set_read_latency(LatencyTimeline* timeline) { read_latency_ = timeline; }
  void set_write_latency(LatencyTimeline* timeline) { write_latency_ = timeline; }
  void set_throughput(LatencyTimeline* timeline) { throughput_ = timeline; }

  void Start();

  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }
  size_t backlog() const { return backlog_.size(); }

 private:
  struct PendingOp {
    YcsbWorkload::Op op;
    Tick arrival = 0;
  };

  void ScheduleNextArrival();
  void PumpBacklog();
  void Issue(const PendingOp& op);
  void Completed(Tick arrival, bool is_read, Status status);

  TableId table_;
  RamCloudClient* client_;
  YcsbWorkload* workload_;
  ClientActorConfig config_;
  LatencyTimeline* read_latency_ = nullptr;
  LatencyTimeline* write_latency_ = nullptr;
  LatencyTimeline* throughput_ = nullptr;

  size_t outstanding_ = 0;
  // Reused when an arrival issues immediately (the common case): the op key
  // is formatted into scratch_'s buffer and the write value is built once,
  // so steady-state op generation allocates nothing. Backlogged arrivals
  // still get their own PendingOp (they must outlive the arrival event).
  PendingOp scratch_;
  std::string write_value_;
  std::deque<PendingOp> backlog_;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_WORKLOAD_CLIENT_ACTOR_H_

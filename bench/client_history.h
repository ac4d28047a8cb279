// The client-side read/write load generator: every figure, chaos suite,
// example and test that offers key-value load drives it, and it keeps the
// op log and reference model that the durability check reads.
//
// A ClientHistory drives one client. It runs on that client's own node and
// draws from client.rng(), so every event touches only its own node and the
// suites run at any lane count. Per-suite inputs are the op choice,
// (rng, now) -> {key, is_read}, the gap between the suite's arrivals,
// (rng, now) -> Tick, and a bound on ops in flight. With N clients each one
// offers 1/N of the rate, staggered by one gap, so the aggregate arrival
// curve is the suite's. A constant or square-wave gap draws nothing from
// the RNG; PoissonGap draws exponential gaps (§4.1: "Clients offer a nearly
// open load to the cluster").
//
// Arrivals past the bound on ops in flight wait in a client-side backlog
// and issue as earlier ops complete. An op's `issued` time is its arrival,
// so its latency counts the time it waited in the backlog: the open-load
// convention, under which a backlog that builds during a migration shows
// in the tail and its drain shows as the post-migration overshoot
// (Figure 9).
//
// Write ownership: a client writes only the keys it owns
// (HashKey(table, key) % N == index), at most one write in flight per key,
// so per key the ack order IS the apply order. Without that, two concurrent
// acked writes whose responses reorder under injected delay or
// retransmission would make "last acked" ambiguous. A drawn write to a key
// the client does not own takes its key from the next draw until it owns
// one (so the suite's read/write mix does not shrink with the client
// count); a write to a key with a write in flight when it issues becomes a
// read.
//
// Each client records one OpRecord per op (arrival time, completion time,
// kind, status). After the run, in root context, suites compute their
// latency tables from the records, and VerifyReadBack checks that no acked
// write was lost.
#ifndef ROCKSTEADY_BENCH_CLIENT_HISTORY_H_
#define ROCKSTEADY_BENCH_CLIENT_HISTORY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/timeseries.h"
#include "src/workload/ycsb.h"

namespace rocksteady {

// What a key's read-back may return: its last acked value, or any value of
// a write that failed (the client gave up, but the write may still have
// applied at any later point: a sound over-approximation). A key no acked
// write reached may also still hold its loaded value.
struct KeyState {
  bool acked = false;
  std::string last_acked;
  std::set<std::string> failed_values;
};

// One client op, as the client saw it.
struct OpRecord {
  Tick issued = 0;     // The op's arrival, before any wait in the backlog.
  Tick completed = 0;  // 0 until the op completes.
  bool is_read = true;
  Status status = Status::kOk;

  // Acked write, or a read that got an answer (a read that found no object
  // still succeeded). An op still backlogged or in flight is neither.
  bool ok() const {
    return completed != 0 &&
           (status == Status::kOk || (is_read && status == Status::kObjectNotFound));
  }
};

class ClientHistory {
 public:
  // The suite's op choice at `now`, drawn from the client's RNG.
  using ChooseOp = std::function<YcsbWorkload::Op(Random& rng, Tick now)>;
  // Gap to the suite's next arrival at `now`, over all clients together.
  using OpGap = std::function<Tick(Random& rng, Tick now)>;
  // No bound on ops in flight: every arrival issues at once.
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  // At most `max_in_flight` ops in flight; later arrivals backlog.
  ClientHistory(RamCloudClient* client, TableId table, size_t index, size_t clients, Tick stop,
                ChooseOp choose, OpGap gap, size_t max_in_flight);

  ClientHistory(const ClientHistory&) = delete;
  ClientHistory& operator=(const ClientHistory&) = delete;

  // From root context: the first arrival is (index + 1) gaps in.
  void Start();

  const std::vector<OpRecord>& ops() const { return ops_; }
  // Reference model of every key this client wrote (all keys it owns).
  const std::map<std::string, KeyState>& writes() const { return writes_; }
  // Arrivals waiting for an op in flight to complete.
  size_t backlog() const { return backlog_.size(); }

 private:
  bool Owns(const std::string& key) const;
  void Arrive();
  void Issue(size_t op, std::string key);
  void Complete(size_t op, Status status);

  RamCloudClient* client_;
  TableId table_;
  size_t index_;
  size_t clients_;
  Tick stop_;
  ChooseOp choose_;
  OpGap gap_;
  size_t max_in_flight_;
  size_t ops_in_flight_ = 0;
  std::deque<std::pair<size_t, std::string>> backlog_;  // {op, key}, by arrival.
  std::vector<OpRecord> ops_;
  std::map<std::string, KeyState> writes_;
  std::set<std::string> in_flight_;  // Keys with a write in flight.
};

using ClientHistories = std::vector<std::unique_ptr<ClientHistory>>;

// Starts one ClientHistory per client of `cluster`, from root context.
// Each client gets its own copy of `choose`, which draws only from that
// client's RNG; whatever it captures is shared by every client and must
// hold no state between draws (a shared read-only generator, say). Arrivals
// stop at `stop`; each client keeps at most `max_in_flight` ops in flight.
ClientHistories StartClientHistories(Cluster& cluster, TableId table, Tick stop,
                                     const ClientHistory::ChooseOp& choose,
                                     const ClientHistory::OpGap& gap, size_t max_in_flight);

// Poisson arrivals at `aggregate_ops_per_second` over all clients: each
// gap is an exponential draw from the client's RNG.
ClientHistory::OpGap PoissonGap(double aggregate_ops_per_second);

// YCSB-B over `records` loaded keys at Zipfian skew `theta`. The
// YcsbWorkload is built once and shared, read-only, by every copy.
ClientHistory::ChooseOp YcsbBChoice(uint64_t records, double theta = YcsbConfig{}.theta);

// Op-log totals of the completed ops, split by OpRecord::ok().
struct OpCounts {
  uint64_t acked_writes = 0;
  uint64_t failed_writes = 0;
  uint64_t reads_ok = 0;
  uint64_t reads_failed = 0;

  uint64_t ok() const { return acked_writes + reads_ok; }
  uint64_t failed() const { return failed_writes + reads_failed; }
  bool operator==(const OpCounts&) const = default;
};
OpCounts CountOps(const ClientHistories& histories);

// Calls `fn` on every op of every client (root context, after the run).
void ForEachOp(const ClientHistories& histories, const std::function<void(const OpRecord&)>& fn);

// Records every ok() read in `reads` and, unless null, every ok() op in
// `all`: at its completion, with its latency from its arrival.
void RecordLatencies(const ClientHistories& histories, LatencyTimeline* reads,
                     LatencyTimeline* all = nullptr);

// The exact q-quantile of `values` (0 when empty).
Tick Quantile(std::vector<Tick> values, double q);

// Keys MakeKey(i, 30) for i < `records`: what LoadTable(table, records, 30,
// ...) loaded.
std::vector<std::string> LoadedKeys(uint64_t records);

struct ReadBackResult {
  uint64_t mismatches = 0;  // Lost acked writes or lost records: must be 0.
  std::string detail;       // One line per mismatch.
};

// Reads every key back through client 0 in root context and judges it
// against the owning client's reference model. The keys were loaded by
// LoadTable(table, records, 30, 100): 100-byte values, the record size
// ClientHistory writes too.
ReadBackResult VerifyReadBack(Cluster& cluster, TableId table,
                              const std::vector<std::string>& keys,
                              const ClientHistories& histories);

}  // namespace rocksteady

#endif  // ROCKSTEADY_BENCH_CLIENT_HISTORY_H_

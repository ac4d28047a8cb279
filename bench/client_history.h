// Client-side load generator and durability check shared by every chaos suite
// and by the figures that drive open-loop load (overload pacing, rebalance,
// the scenario matrix).
//
// A ClientHistory drives one client. It runs on that client's own node and
// draws from client.rng(), so every event touches only its own node and the
// suites run at any lane count. Per-suite inputs are only the op choice,
// (rng, now) -> {key, is_read}, and the gap between the suite's arrivals,
// now -> Tick. With N clients each one offers 1/N of the rate, staggered by
// one gap, so the aggregate arrival curve is the suite's.
//
// Write ownership: a client writes only the keys it owns
// (HashKey(table, key) % N == index), at most one write in flight per key,
// so per key the ack order IS the apply order. Without that, two concurrent
// acked writes whose responses reorder under injected delay or
// retransmission would make "last acked" ambiguous. A drawn write to a key
// the client does not own takes its key from the next draw until it owns
// one (so the suite's read/write mix does not shrink with the client
// count); a write to a key with a write in flight becomes a read.
//
// Each client records one OpRecord per op (issue time, completion time,
// kind, status). After the run, in root context, suites compute their
// latency tables from the records, and VerifyReadBack checks that no acked
// write was lost.
#ifndef ROCKSTEADY_BENCH_CLIENT_HISTORY_H_
#define ROCKSTEADY_BENCH_CLIENT_HISTORY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
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
  Tick issued = 0;
  Tick completed = 0;  // 0 until the op completes.
  bool is_read = true;
  Status status = Status::kOk;

  // Acked write, or a read that got an answer (a read that found no object
  // still succeeded).
  bool ok() const {
    return status == Status::kOk || (is_read && status == Status::kObjectNotFound);
  }
};

class ClientHistory {
 public:
  // The suite's op choice at `now`, drawn from the client's RNG.
  using ChooseOp = std::function<YcsbWorkload::Op(Random& rng, Tick now)>;
  // Gap to the suite's next arrival at `now`, over all clients together.
  using OpGap = std::function<Tick(Tick now)>;

  ClientHistory(RamCloudClient* client, TableId table, size_t index, size_t clients, Tick stop,
                ChooseOp choose, OpGap gap);

  ClientHistory(const ClientHistory&) = delete;
  ClientHistory& operator=(const ClientHistory&) = delete;

  // From root context: the first arrival is (index + 1) gaps in.
  void Start();

  const std::vector<OpRecord>& ops() const { return ops_; }
  // Reference model of every key this client wrote (all keys it owns).
  const std::map<std::string, KeyState>& writes() const { return writes_; }

 private:
  bool Owns(const std::string& key) const;
  void Step();
  void Complete(size_t op, Status status);

  RamCloudClient* client_;
  TableId table_;
  size_t index_;
  size_t clients_;
  Tick stop_;
  ChooseOp choose_;
  OpGap gap_;
  std::vector<OpRecord> ops_;
  std::map<std::string, KeyState> writes_;
  std::set<std::string> in_flight_;
};

using ClientHistories = std::vector<std::unique_ptr<ClientHistory>>;

// Starts one ClientHistory per client of `cluster`, from root context.
// `make_choose` runs once per client, so per-client generator state (a
// YcsbWorkload, say) belongs to that client's node alone. Arrivals stop at
// `stop`.
ClientHistories StartClientHistories(Cluster& cluster, TableId table, Tick stop,
                                     const std::function<ClientHistory::ChooseOp()>& make_choose,
                                     const ClientHistory::OpGap& gap);

// YCSB-B over `records` loaded keys. Each call builds its own YcsbWorkload,
// so each client gets one.
ClientHistory::ChooseOp YcsbBChoice(uint64_t records);

// Op-log totals, split by OpRecord::ok().
struct OpCounts {
  uint64_t acked_writes = 0;
  uint64_t failed_writes = 0;
  uint64_t reads_ok = 0;
  uint64_t reads_failed = 0;

  bool operator==(const OpCounts&) const = default;
};
OpCounts CountOps(const ClientHistories& histories);

// Calls `fn` on every op of every client (root context, after the run).
void ForEachOp(const ClientHistories& histories, const std::function<void(const OpRecord&)>& fn);

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

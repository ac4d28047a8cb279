// Client-side library (the RAMCloud client facade).
//
// Caches the tablet map; on kWrongServer it refreshes from the coordinator
// and retries (the paper's "client re-fetches the tablet mapping"); on
// kRetryLater it retries after the target's hint plus random backoff (§3:
// "retry the operation after randomly waiting a few tens of microseconds").
// Client machines' CPUs are not modeled (the paper never bottlenecks them),
// so the client endpoint has no CoreSet.
#ifndef ROCKSTEADY_SRC_CLUSTER_CLIENT_H_
#define ROCKSTEADY_SRC_CLUSTER_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/common/dcheck.h"
#include "src/common/hash.h"
#include "src/common/inline_function.h"
#include "src/rpc/rpc_system.h"

namespace rocksteady {

class RamCloudClient {
 public:
  using DoneCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Status, const std::string& value)>;

  // `lane` places this client machine's events on that event lane.
  RamCloudClient(Coordinator* coordinator, const CostModel* costs, int lane = 0);

  RamCloudClient(const RamCloudClient&) = delete;
  RamCloudClient& operator=(const RamCloudClient&) = delete;

  NodeId node() const { return endpoint_->node(); }
  Coordinator& coordinator() const { return *coordinator_; }
  // This client's lane simulator (bound to the client's node, so setup code
  // may schedule client work through it) and RNG stream — everything the
  // client (or a workload actor driving it) schedules or draws must go
  // through these, never the coordinator's lane.
  Simulator& sim() { return sim_->ForNode(node()); }
  Random& rng() { return *rng_; }

  // Key/value parameters are views: the client copies them into pooled
  // per-op buffers before returning, so callers may pass temporaries and the
  // steady-state path reuses string capacity instead of allocating.
  void Read(TableId table, std::string_view key, ReadCallback done);
  void Write(TableId table, std::string_view key, std::string_view value, DoneCallback done,
             std::string_view secondary_key = {});
  void Remove(TableId table, std::string_view key, DoneCallback done);

  // Fetches all keys; they may live on several servers — one kMultiGet RPC
  // per involved server, issued in parallel (Figure 3's "Spread").
  void MultiGet(TableId table, std::vector<std::string> keys, DoneCallback done);

  // Secondary-index short scan (Figure 4): one kIndexLookup to the indexlet
  // owner, then kMultiGetHash RPCs to the backing tablet owners.
  void IndexScan(TableId table, uint8_t index_id, std::string start_key, uint32_t count,
                 DoneCallback done);

  // --- Statistics. ---
  uint64_t wrong_server_retries() const { return wrong_server_retries_; }
  uint64_t retry_later_retries() const { return retry_later_retries_; }
  // Retries caused by RPC timeouts (apparent server death).
  uint64_t server_down_retries() const { return server_down_retries_; }
  uint64_t ops_completed() const { return ops_completed_; }
  uint64_t ops_failed() const { return ops_failed_; }

  // Ops that exhaust this many attempts fail with kServerDown (prevents
  // infinite retry loops if the cluster is wedged).
  static constexpr int kMaxAttempts = 1000;

 private:
  // One attempt of an op. Point ops park their strings in the RetryState and
  // capture only {this, state, hash} (24 bytes); the widest closure is
  // IndexScan's {this, state, index_id, start key, count} at ~56 bytes.
  // Re-invoked, not rebuilt, on retries.
  using GoFn = InlineFunction<void(), 64>;

  // Per-op retry state. One pooled object replaces the per-op make_shared
  // holders (go wrapper, done holder, read value) the old retry wrapper
  // allocated: ops are issued and retired through the free list with zero
  // steady-state allocations beyond the RPC messages themselves. The string
  // fields are assigned (never move-replaced), so their buffers are reused
  // across the ops that flow through the slot.
  struct RetryState {
    TableId table = 0;
    int attempts_left = 0;
    GoFn go;
    DoneCallback done;       // Terminal continuation (non-read ops).
    ReadCallback read_done;  // Terminal continuation (reads; sees payload).
    std::string key;         // Op key (owned here so retries can resend it).
    std::string value;       // Write payload.
    std::string secondary;   // Write secondary index key.
    std::string payload;     // Read result parked between reply and done.
    RetryState* next_free = nullptr;
  };

  // Looks up the cached owner node for (table, hash); invalid NodeId if the
  // cache has no covering entry.
  bool CachedOwner(TableId table, KeyHash hash, NodeId* node) const;
  void RefreshConfig(TableId table, std::function<void()> then);

  // An event touches only its own node: debug builds abort when another
  // node's event issues an op through this client. Every op (Read, Write,
  // Remove, MultiGet, IndexScan) enters through AllocState, which checks.
  void CheckOwner() const { ROCKSTEADY_DCHECK(sim_->InRootOrOn(node())); }

  // Retry-with-policy core: each attempt reports its status (and, for
  // kRetryLater, a time hint) via Report, which refreshes/backs off and
  // re-invokes the state's go closure, or finishes the op.
  RetryState* AllocState(TableId table);
  void FreeState(RetryState* s);
  void Report(RetryState* s, Status status, Tick hint);
  void Retry(RetryState* s);
  void Finish(RetryState* s, Status status);

  Coordinator* coordinator_;
  const CostModel* costs_;
  RpcEndpoint* endpoint_;
  Simulator* sim_ = nullptr;  // This client's lane simulator.
  Random* rng_ = nullptr;     // This client's RNG stream.
  std::vector<TabletConfigEntry> cache_;
  // RetryState pool: states_ owns storage for the life of the client (so a
  // raw RetryState* captured in an in-flight closure can never dangle);
  // free_states_ threads the recycled slots.
  std::vector<std::unique_ptr<RetryState>> states_;
  RetryState* free_states_ = nullptr;
  uint64_t wrong_server_retries_ = 0;
  uint64_t retry_later_retries_ = 0;
  uint64_t server_down_retries_ = 0;
  uint64_t ops_completed_ = 0;
  uint64_t ops_failed_ = 0;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_CLUSTER_CLIENT_H_

// Tests for the RPC layer: dispatch integration, timing, timeouts, crash
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/rpc/rpc_system.h"
#include "src/sim/fault_injector.h"

namespace rocksteady {
namespace {

struct Fixture {
  LaneSet lanes{LaneSet::Config{.seed = 7}};
  Simulator& sim = lanes.lane_sim(0);  // The one lane: in-event clock, CoreSet home.
  CostModel costs;
  Network net{&lanes, &costs};
  RpcSystem rpc{&lanes, &net, &costs};
};

TEST(RpcTest, RoundTripThroughDispatch) {
  Fixture f;
  CoreSet server_cores(&f.sim, 2);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);

  server->Register(Opcode::kRead, [](RpcContext context) {
    auto& request = context.As<ReadRequest>();
    auto response = std::make_unique<ReadResponse>();
    response->value = "value-for-" + request.key;
    context.reply(std::move(response));
  });

  std::string got;
  auto request = std::make_unique<ReadRequest>();
  request->key = "k1";
  f.rpc.Call(client->node(), server->node(), std::move(request),
             [&](Status status, std::unique_ptr<RpcResponse> response) {
               ASSERT_EQ(status, Status::kOk);
               got = static_cast<ReadResponse&>(*response).value;
             });
  f.lanes.Run();
  EXPECT_EQ(got, "value-for-k1");
}

TEST(RpcTest, LatencyIncludesDispatchAndNetwork) {
  Fixture f;
  CoreSet server_cores(&f.sim, 2);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  Tick completed_at = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status, std::unique_ptr<RpcResponse>) { completed_at = f.sim.now(); });
  f.lanes.Run();
  // At minimum: two propagation delays + dispatch rx + dispatch tx.
  const Tick floor = 2 * f.costs.net_propagation_ns + f.costs.dispatch_per_rpc_ns +
                     f.costs.dispatch_tx_ns;
  EXPECT_GE(completed_at, floor);
  EXPECT_LT(completed_at, floor + 5'000);
}

TEST(RpcTest, ConcurrentCallsSerializeOnDispatch) {
  Fixture f;
  CoreSet server_cores(&f.sim, 4);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  int handled = 0;
  server->Register(Opcode::kRead, [&](RpcContext context) {
    handled++;
    context.reply(std::make_unique<ReadResponse>());
  });
  int completed = 0;
  for (int i = 0; i < 10; i++) {
    f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
               [&](Status status, std::unique_ptr<RpcResponse>) {
                 EXPECT_EQ(status, Status::kOk);
                 completed++;
               });
  }
  f.lanes.Run();
  EXPECT_EQ(handled, 10);
  EXPECT_EQ(completed, 10);
}

TEST(RpcTest, TimeoutFiresWhenServerDown) {
  Fixture f;
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  f.net.SetNodeDown(server->node(), true);
  Status got = Status::kOk;
  bool fired = false;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse> response) {
               got = status;
               fired = true;
               EXPECT_EQ(response, nullptr);
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(got, Status::kServerDown);
  EXPECT_EQ(f.lanes.now(), kMillisecond);
}

TEST(RpcTest, NoTimeoutAfterResponse) {
  Fixture f;
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  int callbacks = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) {
               callbacks++;
               EXPECT_EQ(status, Status::kOk);
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(callbacks, 1);  // The timeout must not double-fire.
}

// A completed call withdraws its deadline and its armed retransmission, so
// nothing of it stays queued and the run ends with its response, not at the
// deadline.
TEST(RpcTest, CompletedCallLeavesNoTimersQueued) {
  Fixture f;
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  const uint64_t live_before = f.sim.pool_stats().live_events;
  uint64_t live_at_completion = ~uint64_t{0};
  Tick completed_at = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) {
               EXPECT_EQ(status, Status::kOk);
               live_at_completion = f.sim.pool_stats().live_events;
               completed_at = f.sim.now();
             },
             /*timeout=*/5 * kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(live_at_completion, live_before);
  EXPECT_EQ(f.lanes.now(), completed_at);
  EXPECT_LT(completed_at, 20 * kMicrosecond);
}

// Regression: a response to a call that already gave up is dropped at the
// caller's NIC, before its dispatch core polls it. Charging stale responses
// a poll let a congested recovery master's retransmissions feed on
// themselves (the rebalance chaos suite's event storm).
TEST(RpcTest, StaleResponseSkipsTheCallersDispatchPoll) {
  Fixture f;
  CoreSet server_cores(&f.sim, 1);
  CoreSet caller_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* caller = f.rpc.CreateEndpoint(&caller_cores);
  // The handler answers after 2 ms of work: past the caller's deadline.
  server->Register(Opcode::kRead, [&server_cores](RpcContext context) {
    auto reply = std::make_shared<ReplyFn>(std::move(context.reply));
    server_cores.EnqueueWorker({Priority::kClient, [] { return 2 * kMillisecond; },
                                [reply] { (*reply)(std::make_unique<ReadResponse>()); }});
  });
  int callbacks = 0;
  Status got = Status::kOk;
  f.rpc.Call(caller->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) {
               callbacks++;
               got = status;
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(got, Status::kServerDown);
  EXPECT_GT(f.rpc.retransmissions(), 0u);  // Duplicates the server suppressed.
  EXPECT_GE(f.lanes.now(), 2 * kMillisecond);  // The late response was sent...
  EXPECT_EQ(caller_cores.total_dispatch_busy(), 0u);  // ...and never polled.
}

TEST(RpcTest, HaltedServerNeverReplies) {
  Fixture f;
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  server_cores.Halt();  // NIC up, cores dead.
  Status got = Status::kOk;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) { got = status; },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(got, Status::kServerDown);
}

TEST(RpcTest, RetransmitDeliversThroughRequestDrop) {
  Fixture f;
  FaultInjector injector({.seed = 3});
  f.net.SetFaultInjector(&injector);
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  injector.DropNext(client->node(), server->node(), 1);  // Lose the request.
  Status got = Status::kServerDown;
  f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) { got = status; },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(got, Status::kOk);
  EXPECT_GE(f.rpc.retransmissions(), 1u);
  EXPECT_EQ(f.net.injected_drops(), 1u);
}

TEST(RpcTest, DuplicateRequestExecutesHandlerOnce) {
  Fixture f;
  FaultInjector injector({.seed = 3});
  f.net.SetFaultInjector(&injector);
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  int executions = 0;
  server->Register(Opcode::kWrite, [&](RpcContext context) {
    executions++;
    context.reply(std::make_unique<WriteResponse>());
  });
  injector.DuplicateNext(client->node(), server->node(), 1);
  int callbacks = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) {
               EXPECT_EQ(status, Status::kOk);
               callbacks++;
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(callbacks, 1);
  EXPECT_GE(server->duplicates_suppressed() + server->responses_replayed(), 1u);
  EXPECT_EQ(f.net.injected_duplicates(), 1u);
}

// Regression (the classic at-least-once hazard): the server applies a write,
// but the *response* is lost. The client retransmits; the server must replay
// its cached response instead of applying the write a second time.
TEST(RpcTest, LostResponseDoesNotDoubleApplyWrite) {
  Fixture f;
  FaultInjector injector({.seed = 3});
  f.net.SetFaultInjector(&injector);
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  int applied = 0;
  server->Register(Opcode::kWrite, [&](RpcContext context) {
    applied++;
    context.reply(std::make_unique<WriteResponse>());
  });
  injector.DropNext(server->node(), client->node(), 1);  // Lose the response.
  Status got = Status::kServerDown;
  int callbacks = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) {
               got = status;
               callbacks++;
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(applied, 1);  // Executed exactly once despite the retransmission.
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(got, Status::kOk);
  EXPECT_GE(server->responses_replayed(), 1u);
  EXPECT_GE(f.rpc.retransmissions(), 1u);
}

// Log bytes in a response are frozen once filled, so a clone (what the
// dedup cache keeps) shares them instead of copying them.
ByteSlice Records(size_t length) {
  ByteSliceBuilder builder;
  for (size_t i = 0; i < length; i++) {
    const auto byte = static_cast<uint8_t>(i * 13 + 1);
    builder.Append(&byte, 1);
  }
  return builder.Finish();
}

TEST(RpcTest, ResponseClonesShareTheirLogBytes) {
  PullResponse pull;
  pull.records = Records(300);
  auto pull_clone = pull.Clone();
  EXPECT_EQ(static_cast<PullResponse&>(*pull_clone).records.data(), pull.records.data());

  PriorityPullResponse priority;
  priority.records = Records(40);
  auto priority_clone = priority.Clone();
  EXPECT_EQ(static_cast<PriorityPullResponse&>(*priority_clone).records.data(),
            priority.records.data());

  GetRecoveryDataResponse recovery;
  recovery.segments.push_back(RecoverySegment{4, Records(500)});
  auto recovery_clone = recovery.Clone();
  const auto& cloned = static_cast<GetRecoveryDataResponse&>(*recovery_clone);
  ASSERT_EQ(cloned.segments.size(), 1u);
  EXPECT_EQ(cloned.segments[0].data.data(), recovery.segments[0].data.data());
  EXPECT_EQ(cloned.WireSize(), recovery.WireSize());
}

// A pull whose response is lost is retransmitted and answered from the
// dedup cache: the replayed records are the handler's bytes, shared.
TEST(RpcTest, DedupReplayOfALostPullReturnsIdenticalSharedRecords) {
  Fixture f;
  FaultInjector injector({.seed = 3});
  f.net.SetFaultInjector(&injector);
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  int executed = 0;
  ByteSlice sent;
  server->Register(Opcode::kPull, [&](RpcContext context) {
    executed++;
    auto response = std::make_unique<PullResponse>();
    response->records = Records(20 * 1024);
    response->record_count = 7;
    sent = response->records;
    context.reply(std::move(response));
  });
  injector.DropNext(server->node(), client->node(), 1);  // Lose the response.
  ByteSlice got;
  uint32_t got_count = 0;
  f.rpc.Call(client->node(), server->node(), std::make_unique<PullRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse> response) {
               ASSERT_EQ(status, Status::kOk);
               auto& pull = static_cast<PullResponse&>(*response);
               got = pull.records;
               got_count = pull.record_count;
             },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(executed, 1);
  EXPECT_GE(server->responses_replayed(), 1u);
  EXPECT_EQ(got_count, 7u);
  EXPECT_EQ(std::vector<uint8_t>(got.begin(), got.end()),
            std::vector<uint8_t>(sent.begin(), sent.end()));
  EXPECT_EQ(got.data(), sent.data());
}

TEST(RpcTest, ServerToServerCallsChargeBothDispatches) {
  Fixture f;
  CoreSet a_cores(&f.sim, 1);
  CoreSet b_cores(&f.sim, 1);
  RpcEndpoint* a = f.rpc.CreateEndpoint(&a_cores);
  RpcEndpoint* b = f.rpc.CreateEndpoint(&b_cores);
  b->Register(Opcode::kRead,
              [](RpcContext context) { context.reply(std::make_unique<ReadResponse>()); });
  bool done = false;
  f.rpc.Call(a->node(), b->node(), std::make_unique<ReadRequest>(),
             [&](Status, std::unique_ptr<RpcResponse>) { done = true; });
  f.lanes.Run();
  EXPECT_TRUE(done);
  // Caller's dispatch polled the response off its NIC.
  EXPECT_GE(a_cores.total_dispatch_busy(), f.costs.dispatch_per_rpc_ns);
  EXPECT_GE(b_cores.total_dispatch_busy(),
            f.costs.dispatch_per_rpc_ns + f.costs.dispatch_tx_ns);
}

// Regression: the dedup cache must stay bounded under sustained traffic.
// Each request carries its caller's first incomplete call_id, so the server
// holds entries only for calls its caller has not finished (plus the last
// window, until a later request moves the mark), however long the run.
TEST(RpcTest, DedupCacheStaysBoundedUnderSustainedTraffic) {
  Fixture f;
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  int issued = 0;
  int completed = 0;
  size_t peak = 0;
  // Bursts of kBurst writes, each burst's calls overlapping one another.
  constexpr int kBurst = 4;
  server->Register(Opcode::kWrite, [&](RpcContext context) {
    // Every entry is an unfinished call or one of the previous burst's,
    // which the next burst's first request releases.
    EXPECT_LE(server->dedup_size(), static_cast<size_t>(issued - completed + kBurst));
    peak = std::max(peak, server->dedup_size());
    context.reply(std::make_unique<WriteResponse>());
  });
  const Tick spacing = kMillisecond;
  const int bursts = 1000;
  for (int i = 0; i < bursts; i++) {
    f.sim.At(static_cast<Tick>(i) * spacing, client->node(), [&] {
      for (int j = 0; j < kBurst; j++) {
        issued++;
        f.rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
                   [&](Status status, std::unique_ptr<RpcResponse>) {
                     EXPECT_EQ(status, Status::kOk);
                     completed++;
                   },
                   /*timeout=*/10 * kMillisecond);
      }
    });
  }
  f.lanes.Run();
  EXPECT_EQ(completed, bursts * kBurst);
  // Counted calls made entries, and no more than two bursts ever coexisted.
  EXPECT_GE(peak, 1u);
  EXPECT_LE(peak, static_cast<size_t>(2 * kBurst));
  // Only the last burst's window remains: no later request released it.
  EXPECT_EQ(server->dedup_size(), static_cast<size_t>(kBurst));
}

// Regression: an execution wiped by a crash leaves a dedup entry that never
// completes (no reply). It goes once the caller's timed-out call falls below
// a later request's watermark — without that, every crash leaks entries for
// the lifetime of the process.
TEST(RpcTest, DedupCacheExpiresCrashOrphanedEntries) {
  Fixture f;
  CoreSet server_cores(&f.sim, 1);
  RpcEndpoint* server = f.rpc.CreateEndpoint(&server_cores);
  RpcEndpoint* client = f.rpc.CreateEndpoint(nullptr);
  // The handler swallows the request: models work in flight when the server
  // dies (the reply never happens).
  server->Register(Opcode::kWrite, [](RpcContext) {});
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  Status got = Status::kOk;
  f.rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
             [&](Status status, std::unique_ptr<RpcResponse>) { got = status; },
             /*timeout=*/kMillisecond);
  f.lanes.Run();
  EXPECT_EQ(got, Status::kServerDown);  // The caller finished it by timing out.
  EXPECT_EQ(server->dedup_size(), 1u);  // Undone entry parked in the cache.
  // Crash-restart bumps the core epoch: the entry is now orphaned, not
  // in flight. Time alone never expires it.
  server_cores.Halt();
  server_cores.Restart();
  f.sim.After(kSecond, client->node(), [] {});
  f.lanes.Run();
  EXPECT_EQ(server->dedup_size(), 1u);
  // The caller's next request carries a watermark past the timed-out call.
  // It has no deadline on a fault-free fabric, so it makes no entry itself.
  f.sim.After(kMillisecond, client->node(), [&] {
    f.rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
               [](Status status, std::unique_ptr<RpcResponse>) {
                 EXPECT_EQ(status, Status::kOk);
               });
  });
  f.lanes.Run();
  EXPECT_EQ(server->dedup_size(), 0u);
}

// --- First-incomplete watermarks: a caller's next call to a server tells it
// which calls the caller finished, and the server drops their dedup entries
// and cached clones. ---

// A response that counts its live and ever-built instances (the handler's
// original and every clone), so a test sees when the dedup cache lets go.
struct CountedResponse : RpcResponse {
  static constexpr size_t kWire = 8 * 1024;
  static inline std::atomic<int> live{0};
  static inline std::atomic<int> built{0};

  CountedResponse() { Count(); }
  CountedResponse(const CountedResponse& other) : RpcResponse(other) { Count(); }
  ~CountedResponse() override { live--; }

  static void Reset() {
    live = 0;
    built = 0;
  }
  size_t WireSize() const override { return kWire; }
  ROCKSTEADY_CLONEABLE_RESPONSE(CountedResponse)

 private:
  static void Count() {
    live++;
    built++;
  }
};

// The caller sits on lane 0 and the servers on the last lane: at two lanes,
// with worker threads, each server reads its requests' watermarks on
// another thread than the one that wrote them.
class RpcAckTest : public ::testing::TestWithParam<int> {
 protected:
  CostModel costs;
  LaneSet lanes{LaneSet::Config{.lanes = GetParam(),
                                .threads = GetParam() > 1,
                                .lookahead = costs.net_per_message_ns + costs.net_propagation_ns,
                                .seed = 7}};
  int server_lane = lanes.lanes() - 1;
  Simulator& server_sim = lanes.lane_sim(server_lane);
};

// An injector seed whose draws delay the duplicated request past call 1's
// round trip and call 2's request (found by search; per-sender fault
// streams make it lane-invariant).
constexpr uint64_t kLateDuplicateSeed = 39;
// An injector seed (max_extra_delay_ns = 400 ms) whose draws complete the
// call in one attempt and land its duplicate over 100 ms after the reply
// (found by search, like the one above).
constexpr uint64_t kVeryLateDuplicateSeed = 3;

// Server-side handler replying with a CountedResponse.
void ReplyCounted(RpcContext context) { context.reply(std::make_unique<CountedResponse>()); }

// Issues one call whose callback checks it got a full CountedResponse.
void CallCounted(RpcSystem& rpc, NodeId from, NodeId to, int* callbacks) {
  rpc.Call(from, to, std::make_unique<WriteRequest>(),
           [callbacks](Status status, std::unique_ptr<RpcResponse> response) {
             EXPECT_EQ(status, Status::kOk);
             EXPECT_NE(dynamic_cast<CountedResponse*>(response.get()), nullptr);
             (*callbacks)++;
           },
           /*timeout=*/10 * kMillisecond);
}

TEST_P(RpcAckTest, CachedCloneIsReleasedOnlyOnceItsCallersWatermarkPassesIt) {
  CountedResponse::Reset();
  Network net(&lanes, &costs);
  RpcSystem rpc(&lanes, &net, &costs);
  RpcEndpoint* client = rpc.CreateEndpoint(nullptr, 0);
  CoreSet a_cores(&server_sim, 1);
  CoreSet b_cores(&server_sim, 1);
  RpcEndpoint* a = rpc.CreateEndpoint(&a_cores, server_lane);
  RpcEndpoint* b = rpc.CreateEndpoint(&b_cores, server_lane);
  a->Register(Opcode::kWrite, ReplyCounted);
  b->Register(Opcode::kWrite, ReplyCounted);
  int callbacks = 0;

  CallCounted(rpc, client->node(), a->node(), &callbacks);
  lanes.Run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(CountedResponse::live, 1);  // A's cached clone; A has no later request.

  // A call to another server moves no watermark at A.
  CallCounted(rpc, client->node(), b->node(), &callbacks);
  lanes.Run();
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(CountedResponse::live, 2);  // Both clones held.
  EXPECT_EQ(a->dedup_size(), 1u);

  // The next call to A carries a watermark past the first: its entry and
  // clone go.
  CallCounted(rpc, client->node(), a->node(), &callbacks);
  lanes.Run();
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(CountedResponse::live, 2);  // B's clone and A's second.
  EXPECT_EQ(a->dedup_size(), 1u);
  EXPECT_EQ(b->dedup_size(), 1u);
  EXPECT_EQ(CountedResponse::built, 6);  // Three replies, three clones.
}

// A network duplicate of call 1's request lands after call 2's request
// moved the caller's watermark past call 1: the server drops it unexecuted
// and unreplayed, so the handler runs once and no replay crosses the wire.
TEST_P(RpcAckTest, DuplicateArrivingAfterTheWatermarkIsDroppedAtTheServer) {
  CountedResponse::Reset();
  // The checks below fail if the seed stops delaying the duplicate enough.
  FaultInjector injector({.seed = kLateDuplicateSeed, .max_extra_delay_ns = 40'000});
  Network net(&lanes, &costs);
  net.SetFaultInjector(&injector);
  RpcSystem rpc(&lanes, &net, &costs);
  RpcEndpoint* client = rpc.CreateEndpoint(nullptr, 0);
  CoreSet server_cores(&server_sim, 1);
  RpcEndpoint* server = rpc.CreateEndpoint(&server_cores, server_lane);
  int executions = 0;
  server->Register(Opcode::kWrite, [&](RpcContext context) {
    executions++;
    ReplyCounted(std::move(context));
  });
  server->Register(Opcode::kRead, [](RpcContext context) {
    context.reply(std::make_unique<ReadResponse>());
  });
  injector.DuplicateNext(client->node(), server->node(), 1);

  int callbacks = 0;
  int later_callbacks = 0;
  const size_t write_wire = WriteRequest().WireSize();
  const size_t read_wire = ReadRequest().WireSize();
  const size_t read_reply_wire = ReadResponse().WireSize();
  rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
           [&](Status status, std::unique_ptr<RpcResponse> response) {
             EXPECT_EQ(status, Status::kOk);
             EXPECT_NE(dynamic_cast<CountedResponse*>(response.get()), nullptr);
             callbacks++;
             // Call 2's watermark passes call 1.
             rpc.Call(client->node(), server->node(), std::make_unique<ReadRequest>(),
                      [&](Status status2, std::unique_ptr<RpcResponse> response2) {
                        EXPECT_EQ(status2, Status::kOk);
                        EXPECT_NE(dynamic_cast<ReadResponse*>(response2.get()), nullptr);
                        later_callbacks++;
                      },
                      /*timeout=*/10 * kMillisecond);
           },
           /*timeout=*/10 * kMillisecond);
  lanes.Run();

  EXPECT_EQ(net.injected_duplicates(), 1u);
  EXPECT_EQ(rpc.retransmissions(), 0u);
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(later_callbacks, 1);
  EXPECT_EQ(server->responses_replayed(), 0u);
  EXPECT_EQ(server->duplicates_suppressed(), 1u);
  // The reply and its cache clone, and the clone went with call 1's entry.
  EXPECT_EQ(CountedResponse::built, 2);
  EXPECT_EQ(CountedResponse::live, 0);
  // Two requests and two replies; the dropped duplicate sent nothing back.
  EXPECT_EQ(net.total_bytes_sent(),
            write_wire + read_wire + CountedResponse::kWire + read_reply_wire);
}

// A network duplicate of a completed write, delayed well past any
// round trip, with no later request to move the caller's watermark: its
// entry is still there, so the server replays the reply and the handler
// does not run again, however late the copy lands.
TEST_P(RpcAckTest, LateDuplicateOfACompletedWriteNeverRunsTwice) {
  CountedResponse::Reset();
  // One long attempt: the call completes without retransmitting, so the
  // duplicate is the only extra copy.
  costs.rpc_retransmit_base_ns = kSecond;
  costs.rpc_retransmit_cap_ns = kSecond;
  FaultInjector injector(
      {.seed = kVeryLateDuplicateSeed, .max_extra_delay_ns = 400 * kMillisecond});
  Network net(&lanes, &costs);
  net.SetFaultInjector(&injector);
  RpcSystem rpc(&lanes, &net, &costs);
  RpcEndpoint* client = rpc.CreateEndpoint(nullptr, 0);
  CoreSet server_cores(&server_sim, 1);
  RpcEndpoint* server = rpc.CreateEndpoint(&server_cores, server_lane);
  int executions = 0;
  uint64_t extra_copies_at_probe = 1;
  server->Register(Opcode::kWrite, [&](RpcContext context) {
    if (executions++ == 0) {
      // A probe on the server's node, just over 100 ms after the reply.
      context.sim->After(101 * kMillisecond, server->node(), [&] {
        extra_copies_at_probe = server->responses_replayed() + server->duplicates_suppressed();
      });
    }
    ReplyCounted(std::move(context));
  });
  injector.DuplicateNext(client->node(), server->node(), 1);
  int callbacks = 0;
  rpc.Call(client->node(), server->node(), std::make_unique<WriteRequest>(),
           [&](Status status, std::unique_ptr<RpcResponse> response) {
             EXPECT_EQ(status, Status::kOk);
             EXPECT_NE(dynamic_cast<CountedResponse*>(response.get()), nullptr);
             callbacks++;
           },
           /*timeout=*/2 * kSecond);
  lanes.Run();

  EXPECT_EQ(net.injected_duplicates(), 1u);
  EXPECT_EQ(rpc.retransmissions(), 0u);
  EXPECT_EQ(callbacks, 1);
  // The seed lands the duplicate after the probe.
  EXPECT_EQ(extra_copies_at_probe, 0u);
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(server->responses_replayed(), 1u);
}

// The event cost of one round trip, pinned: a client read on an idle
// one-master cluster dispatches the request's delivery, the master's
// dispatch poll, its worker's completion, the dispatch core's response
// transmission and the response's delivery at the client (which has no
// dispatch core to poll it). The read's deadline and first retransmission
// are withdrawn unrun.
TEST(RpcTest, OneReadRoundTripDispatchesFiveEvents) {
  ClusterConfig config;
  config.num_masters = 1;
  config.num_clients = 1;
  config.master.hash_table_log2_buckets = 10;
  config.master.segment_size = 64 * 1024;
  Cluster cluster(config);
  cluster.CreateTable(1, 0);
  cluster.LoadTable(1, 10, 30, 100);
  // Warm the client's tablet map, then let every replication leg settle.
  cluster.client(0).Read(1, Cluster::MakeKey(0, 30), [](Status, const std::string&) {});
  cluster.Run();
  const size_t before = cluster.events_processed();
  Status status = Status::kInvalidState;
  cluster.client(0).Read(1, Cluster::MakeKey(1, 30),
                         [&](Status s, const std::string&) { status = s; });
  cluster.Run();
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(cluster.events_processed() - before, 5u);
}

INSTANTIATE_TEST_SUITE_P(Lanes, RpcAckTest, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "lanes";
                         });

}  // namespace
}  // namespace rocksteady

// Sharded event lanes with a partition-invariant event order (ROADMAP item 1).
//
// Partitions the simulation into N lanes, each owning one calendar-queue
// Simulator and a disjoint set of simulated nodes (servers, cores, NICs).
// Lanes execute conservatively in lookahead windows: with L = the minimum
// cross-lane link latency (per-message cost + propagation), every event in
// [start, start + L) can only schedule cross-lane work at or past the
// horizon, so lanes run a whole window without seeing each other. Cross-lane
// Network sends land in per-(src-lane, dst-lane) mailboxes and are adopted
// by the destination lane after the window.
//
// Determinism is exact and needs no merge: every event carries a key fixed
// when it is scheduled — (time, origin node, origin-local counter), plus the
// node it executes on — so each node sees its events in an order that
// depends only on node histories, and the trace digest is kept per node and
// folded in node-id order. --lanes=1 and --lanes=N, threaded or not,
// produce bit-identical trace hashes (DESIGN.md "Sharded execution" has the
// proof sketch).
//
// Threading: with threads enabled, lane 0 runs on the driving thread and
// lanes 1..N-1 on persistent workers. Each window ends in one barrier:
// before it every lane publishes its queue minimum and the earliest delivery
// it mailed; after it every lane computes the same next horizon, adopts its
// inbound mail and runs on. Waiting threads spin kSpinRounds rounds, then
// park on std::atomic::wait. Without threads the same loop runs the lanes in turn —
// the schedule is identical either way. With one lane there is no cross-lane
// link, so a window runs to the next safe point or RunUntil bound.
#ifndef ROCKSTEADY_SRC_SIM_LANE_SET_H_
#define ROCKSTEADY_SRC_SIM_LANE_SET_H_

#include <atomic>   // lint:allow-nondeterminism — barrier epochs; the event schedule they guard is deterministic.
#include <deque>
#include <functional>
#include <memory>
#include <thread>   // lint:allow-nondeterminism — lane workers; conservative windows keep the schedule exact.
#include <vector>

#include "src/common/annotations.h"
#include "src/common/random.h"
#include "src/sim/simulator.h"

namespace rocksteady {

class LaneSet {
 public:
  struct Config {
    int lanes = 1;
    bool threads = false;
    // Conservative safe horizon: the minimum cross-lane delivery latency.
    // Clusters pass CostModel::net_per_message_ns + net_propagation_ns.
    Tick lookahead = 1;
    uint64_t seed = 1;
  };

  // Barrier and hand-off waits spin this many rounds (~0.4 ms) before
  // parking: a window is a few microseconds of work, so the other lanes
  // nearly always arrive within the spin, while an idle lane stops burning
  // its core. Every kYieldInterval-th round yields the core instead.
  static constexpr int kSpinRounds = 20'000;
  static constexpr int kYieldInterval = 256;

  explicit LaneSet(const Config& config);
  ~LaneSet();

  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  int lanes() const { return static_cast<int>(sims_.size()); }
  bool threads() const { return config_.threads; }
  Simulator& lane_sim(int lane) { return *sims_[static_cast<size_t>(lane)]; }

  // --- Node placement (setup time, before any Run). ---
  // Assigns a simulated node to a lane and seeds its private RNG stream.
  // Nodes must be assigned in id order (0, 1, 2, ...).
  void AssignNode(NodeId node, int lane);
  int lane_of(NodeId node) const { return lane_of_[node]; }
  Simulator* SimFor(NodeId node) { return sims_[static_cast<size_t>(lane_of_[node])].get(); }
  // The node's private RNG stream. Draws happen in the node's event order,
  // which is lane-count- and thread-invariant, unlike sharing a lane rng.
  Random& NodeRng(NodeId node) { return node_rng_[node].rng; }

  // --- Cross-lane mail (called by Network::Send). ---
  // Schedules a delivery onto node `to`, on another lane than `src`, at
  // `deliver` — at or past the current window's horizon when called
  // in-window: lanes never see intra-window traffic.
  void PostCrossLane(Simulator* src, NodeId to, Tick deliver, EventFn fn);

  // --- Safe-point tasks. ---
  // Runs `fn` on the driving thread once every event before time `t` has
  // executed and before any event at or after `t` does, with all lanes
  // parked — the lane-mode home for cross-cutting control actions
  // (migration kickoff, operator actions) that legacy code runs as plain
  // events. Placement depends only on the global event timeline, so it is
  // lane-count- and thread-invariant.
  void AtSafePoint(Tick t, std::function<void()> fn);  // lint:allow-churn — cold, a handful per run.

  // --- Execution (same contract as Simulator::Run / RunUntil). ---
  size_t Run();
  size_t RunUntil(Tick t);

  Tick now() const { return now_; }
  // The per-node dispatch digests folded in node-id order.
  uint64_t trace_hash() const;
  size_t events_processed() const;
  uint64_t windows_run() const { return windows_run_; }

  // Per-window instrumentation for the benches (invoked only when threads
  // are off; wall-clock timing stays outside src/): lane_begin/lane_end
  // bracket each lane's slice of a window, merge_begin/merge_end the
  // sequential step between windows (horizon computation and mail adoption).
  struct PhaseHooks {
    std::function<void(int lane)> lane_begin;  // lint:allow-churn — bench-only, per window.
    std::function<void(int lane)> lane_end;    // lint:allow-churn — bench-only, per window.
    std::function<void()> merge_begin;         // lint:allow-churn — bench-only, per window.
    std::function<void()> merge_end;           // lint:allow-churn — bench-only, per window.
  };
  void set_phase_hooks(PhaseHooks hooks) { hooks_ = std::move(hooks); }

 private:
  friend class Simulator;

  // One cross-lane delivery waiting for adoption. The sender fixed its key,
  // so the order entries are adopted in does not matter.
  struct CrossEntry {
    Tick time = 0;
    uint64_t key = 0;
    EventFn fn;
  };

  // What a lane publishes before each barrier, double-buffered by window
  // parity: slot p is written before barrier w (p = w % 2) and read after
  // it; its next write comes after barrier w + 1, which no lane passes
  // before every lane has finished reading.
  struct alignas(64) LaneFront {
    Tick queue_min = 0;  // Earliest event left in the lane's queue.
    Tick mail_min = 0;   // Earliest delivery the lane mailed this window.
  };

  // A lane's own window state: the parity and horizon of the window it is
  // running and the earliest delivery it has mailed in it.
  struct alignas(64) Outbox {
    int parity = 0;
    Tick horizon = 0;
    Tick mail_min = 0;
  };

  struct SafePoint {
    Tick t;
    uint64_t order;  // Insertion order: same-tick tasks run FIFO.
    std::function<void()> fn;  // lint:allow-churn — cold, driver-thread only.
  };

  static constexpr Tick kNoEvent = ~Tick{0};
  static constexpr int kAllLanes = -1;

  using Epoch = std::atomic<uint32_t>;  // lint:allow-nondeterminism — barrier and run epochs.
  // Returns once `word` no longer holds `old`: spins, then parks.
  static void AwaitChange(const Epoch& word, uint32_t old);

  void RunLoop(bool bounded, Tick until);
  // Runs windows until the next one would start at or past cap_. `lane` is
  // the calling thread's lane (threaded), or kAllLanes to run every lane in
  // turn on this thread.
  void RunWindows(int lane, Tick horizon);
  Tick Horizon(Tick global_min) const;
  void Adopt(int lane, int parity);
  void Barrier();
  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(int lane, uint32_t seen);
  Tick GlobalMinEventTime();  // kNoEvent when every lane is idle.

  Config config_;
  Tick lookahead_;  // kNoEvent with one lane: nothing crosses a lane.
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<int> lane_of_;      // NodeId -> lane.
  struct alignas(64) NodeStream {  // One cache line per node: no false sharing.
    Random rng;
  };
  std::deque<NodeStream> node_rng_;  // NodeId -> private stream (stable addrs).

  // NodeId -> counter and digest.
  ROCKSTEADY_SHARED_GUARDED("entry i: node i's lane only; folded with every lane parked")
  std::vector<Simulator::NodeClock> clocks_;
  ROCKSTEADY_SHARED_GUARDED("root context only: setup and safe points, lanes parked")
  uint64_t root_next_ = 0;

  // Mailboxes, flattened [(parity * lanes + src) * lanes + dst]. Cell
  // (p, s, d) is written only by lane s in a window of parity p and drained
  // only by lane d after that window's barrier.
  ROCKSTEADY_SHARED_GUARDED("cell (p,s,d): s fills before the barrier, d drains after")
  std::vector<std::vector<CrossEntry>> mail_;
  ROCKSTEADY_SHARED_GUARDED("slot (p,l): l writes before the barrier, all read after")
  std::vector<LaneFront> fronts_;
  ROCKSTEADY_SHARED_GUARDED("entry l touched only by lane l's thread")
  std::vector<Outbox> outbox_;

  // The current run's bound (next safe point or RunUntil limit), first
  // horizon, window parity and shutdown flag: written by the main thread while
  // the workers wait for the start signal, read-only while lanes run.
  ROCKSTEADY_SHARED_GUARDED("main thread writes with workers parked; read-only in runs")
  Tick cap_ = kNoEvent;
  ROCKSTEADY_SHARED_GUARDED("main thread writes with workers parked; read-only in runs")
  Tick start_horizon_ = 0;
  ROCKSTEADY_SHARED_GUARDED("main thread writes with workers parked; read-only in runs")
  int parity_ = 0;
  ROCKSTEADY_SHARED_GUARDED("main thread writes with workers parked; read-only in runs")
  bool stopping_ = false;

  alignas(64) Epoch start_{0};       // Bumped to start a run segment (or stop).
  alignas(64) Epoch arrived_{0};     // Lanes at the current barrier.
  alignas(64) Epoch generation_{0};  // Bumped as each barrier opens.

  std::vector<std::thread> workers_;  // lint:allow-nondeterminism — persistent lane workers.

  std::vector<SafePoint> safe_points_;  // Sorted by (t, order); bounded: drained every Run.
  uint64_t safe_point_order_ = 0;

  Tick now_ = 0;
  uint64_t windows_run_ = 0;

  PhaseHooks hooks_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_LANE_SET_H_

// Deterministic fault injection for the simulated fabric and cores.
//
// FoundationDB-style: all faults are drawn from seeded RNG streams in
// deterministic event order, so a chaos run is a pure function of its seed —
// a failing seed replays bit-identically under a debugger. Every sender has
// its own stream, so each draw sequence depends only on that node's send
// order, which is lane-count- and thread-invariant. The injector is
// consulted by Network::Send (per-message drop / duplication / extra delay)
// and drives straggler and crash/restart schedules through callbacks the
// cluster installs. With no injector installed (the default), the fabric
// behaves exactly as before: zero drops, zero jitter.
//
// OnMessage is on the per-message hot path, so the link tables are flat
// open-addressed maps keyed on the packed (from, to) pair and the Decision
// is a fixed-size value (at most two copies exist) — no per-message
// allocation.
#ifndef ROCKSTEADY_SRC_SIM_FAULT_INJECTOR_H_
#define ROCKSTEADY_SRC_SIM_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <deque>

#include "src/common/annotations.h"
#include "src/common/flat_map.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/common/types.h"

namespace rocksteady {

class FaultInjector {
 public:
  struct Config {
    uint64_t seed = 1;
    // Per-message probabilities applied to every link unless overridden.
    double drop_probability = 0.0;       // Message vanishes in flight.
    double duplicate_probability = 0.0;  // Message delivered twice.
    // Uniform extra in-flight delay in [0, max_extra_delay_ns]; 0 = never.
    Tick max_extra_delay_ns = 0;
  };

  // What Network::Send should do with one message: deliver `copies` times
  // (0 = drop, at most 2 = original + duplicate), copy i delayed by
  // extra_delay_ns[i].
  struct Decision {
    int copies = 1;
    std::array<Tick, 2> extra_delay_ns{};
  };

  explicit FaultInjector(const Config& config) : config_(config) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Draws the fate of one message on link from->to from the sender's
  // stream. Called by Network::Send in the sender's event order, which
  // keeps the draw sequence deterministic. Network::SetFaultInjector sizes
  // the streams; the one-shot DropNext/DuplicateNext helpers and
  // SetLinkOverride are setup-time-only with more than one lane (their
  // tables are read-only while lanes run).
  Decision OnMessage(uint32_t from, uint32_t to);

  // Overrides the link-level probabilities for one directed link (regression
  // tests use this to lose exactly the response path of an RPC).
  void SetLinkOverride(uint32_t from, uint32_t to, double drop_probability,
                       double duplicate_probability) {
    link_overrides_[PackLink(from, to)] = {drop_probability, duplicate_probability};
  }
  void ClearLinkOverride(uint32_t from, uint32_t to) { link_overrides_.Erase(PackLink(from, to)); }

  // One-shot deterministic drop/duplicate of the next `n` messages on a
  // directed link, regardless of probabilities. Used by targeted tests.
  void DropNext(uint32_t from, uint32_t to, int n) { drop_next_[PackLink(from, to)] += n; }
  void DuplicateNext(uint32_t from, uint32_t to, int n) {
    duplicate_next_[PackLink(from, to)] += n;
  }

  const Config& config() const { return config_; }

 private:
  friend class Network;

  // One seeded stream per sender node; installing on a Network calls this.
  void SizeSenderStreams(size_t num_nodes) {
    for (size_t node = sender_rng_.size(); node < num_nodes; node++) {
      sender_rng_.emplace_back(Mix64(config_.seed + 0x9E3779B97F4A7C15ull * (node + 1)));
    }
  }

  struct LinkOverride {
    double drop_probability = 0.0;
    double duplicate_probability = 0.0;
  };

  Config config_;
  // Per-sender streams (stable addresses; draws happen on the sender's lane
  // only). Fault draws never perturb a node's workload stream.
  ROCKSTEADY_SHARED_GUARDED("per-sender slots; stream i drawn only from node i's lane")
  std::deque<Random> sender_rng_;
  ROCKSTEADY_SHARED_GUARDED("all lanes read on the send path; mutated only at setup (lanes parked)")
  FlatMap64<LinkOverride> link_overrides_;
  FlatMap64<int> drop_next_;
  FlatMap64<int> duplicate_next_;
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_FAULT_INJECTOR_H_

// Benchmark program: runs one workload on the simulated Rocksteady cluster,
// checks its outputs, and prints every metric as one JSON object.
//
// perfbench/run.py builds and runs this program; README.md describes the
// workloads and metrics. Host quantities (wall clock, CPU time, RSS, per-call
// and per-layer timings) are measured here, around calls into the program's
// public API. Simulated quantities come from the program's counters and from
// the benchmark's own op history.
//
// A run repeats set-up + run until --seconds have passed (at least a few
// times) and reports medians. Every repetition uses the same seed, so every
// simulated quantity and the trace hash must repeat exactly; a mismatch fails
// the output check.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.h"
#include "open_loop.h"
#include "spans.h"
#include "src/migration/rocksteady_target.h"

namespace perfbench {
namespace {

using rocksteady::Cluster;
using rocksteady::KeyHash;
using rocksteady::kMillisecond;
using rocksteady::MigrationStats;
using rocksteady::Status;
using rocksteady::TableId;

constexpr TableId kTable = 1;
// migrate_b moves the upper hash half [kMid, ~0] from master 0 to master 1.
constexpr KeyHash kMid = 1ull << 63;
constexpr int kMaxReps = 40;
constexpr size_t kProbeKeys = 20'000;
constexpr size_t kReadbackConcurrency = 32;
constexpr Tick kNever = ~Tick{0};

volatile uint64_t g_probe_sink = 0;  // Keeps timed loops from being optimized away.

struct Workload {
  int masters = 4;
  int clients = 2;
  int lanes = 1;
  bool lane_threads = false;
  bool spread = true;  // Even hash split over all masters; otherwise all on master 0.
  bool migrate = false;
  int hash_log2_buckets = 15;
  LoadSpec load;
  Tick migrate_at = 0;
  Tick stop = 0;  // Arrivals stop here; the run then drains.
};

// Each repetition takes on the order of a second of host time on a 4-core
// host. `tiny` shrinks every workload for the self-test.
std::optional<Workload> MakeWorkload(const std::string& name, bool tiny) {
  Workload w;
  if (name == "migrate_b") {
    // Master 0's log (~85 MB for 600k records) and hash table together are
    // larger than a 105 MB last-level cache (a 4-vCPU Xeon share of one).
    w.spread = false;
    w.migrate = true;
    w.hash_log2_buckets = tiny ? 15 : 18;
    w.load.records = tiny ? 20'000 : 600'000;
    w.load.read_fraction = 0.95;
    w.load.ops_per_second = 200'000;
    w.migrate_at = 5 * kMillisecond;
    w.stop = tiny ? 20 * kMillisecond : 200 * kMillisecond;
  } else if (name == "write_a") {
    // ~3 MB of log: the table fits in the host's cache.
    w.load.records = tiny ? 4'000 : 20'000;
    w.load.read_fraction = 0.5;
    w.load.ops_per_second = 200'000;
    w.stop = tiny ? 10 * kMillisecond : 200 * kMillisecond;
  } else if (name == "scale24_lanes4") {
    w.masters = 24;
    w.clients = 8;
    w.lanes = 4;
    w.lane_threads = true;
    w.load.records = tiny ? 9'600 : 96'000;
    w.load.read_fraction = 0.95;
    w.load.ops_per_second = 500'000;
    w.stop = tiny ? 4 * kMillisecond : 40 * kMillisecond;
  } else {
    return std::nullopt;
  }
  return w;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

double RssMb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const size_t i = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}

// A fixed host workload, timed between repetitions. The shared hosts this
// runs on speed up and slow down by tens of percent over minutes (other
// tenants contend for cores and caches). The kernel is the benchmark's own
// code, shaped like the simulator's hot path (a binary heap of timed events,
// a node-based hash map with insert/erase churn, random reads of a
// cache-sized table), so program changes cannot move it. Under contention it
// slows about twice as much, in relative terms, as the simulator does
// (measured across runs on a shared 4-vCPU Xeon host), so every host-time metric is
// scaled by Scale() = sqrt(kNominalS / kernel time around the repetition):
// reported as if on a host where the kernel takes kNominalS. The raw kernel
// time is reported as host.reference_s.
class ReferenceKernel {
 public:
  static constexpr double kNominalS = 0.05;

  static double Scale(double kernel_s) { return std::sqrt(kNominalS / kernel_s); }

  ReferenceKernel() : table_(kSlots) {
    Rng rng(1);
    for (uint64_t& v : table_) {
      v = rng.Next();
    }
  }

  double Seconds() const {
    const Clock::time_point begin = Clock::now();
    std::vector<uint64_t> heap;
    std::unordered_map<uint64_t, uint64_t> map;
    Rng rng(2);
    uint64_t h = 0;
    for (uint32_t i = 0; i < kEvents; i++) {
      heap.push_back(rng.Next() >> 8);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      if (heap.size() > 4096) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        h += heap.back();
        heap.pop_back();
      }
      const uint64_t key = rng.Next() & 0xFFFF;
      if ((i & 3) == 0) {
        map.erase(key);
      } else {
        map[key] += h;
      }
      h ^= table_[(h + i) & (kSlots - 1)];
    }
    g_probe_sink = h + map.size();
    return perfbench::Seconds(begin, Clock::now());
  }

 private:
  static constexpr uint32_t kSlots = 1u << 19;  // 4 MB.
  static constexpr uint32_t kEvents = 300'000;
  std::vector<uint64_t> table_;
};

class Errors {
 public:
  __attribute__((format(printf, 2, 3))) void Add(const char* format, ...) {
    count_++;
    if (messages_.size() >= kMaxMessages) {
      return;
    }
    char buffer[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buffer, sizeof(buffer), format, args);
    va_end(args);
    messages_.emplace_back(buffer);
  }
  uint64_t count() const { return count_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr size_t kMaxMessages = 20;
  uint64_t count_ = 0;
  std::vector<std::string> messages_;
};

using Metrics = std::map<std::string, double>;
using Clients = std::vector<std::unique_ptr<OpenLoopClient>>;

bool Acked(const OpRecord& op) { return op.done != 0 && op.status == Status::kOk; }

// --- Output check: the op history against what the store returned. ---

struct WriteRef {
  Tick issued = 0;
  Tick acked = kNever;  // kNever: failed, so it may or may not have applied.
  uint64_t tag = 0;
};

// One key's writes sorted by issue time, with the suffix minimum of their ack
// times, so "was a write issued after t acknowledged before u?" is one
// binary search.
struct KeyHistory {
  std::vector<WriteRef> writes;
  std::vector<Tick> min_ack_from;

  bool AckedBetween(Tick issued_after, Tick acked_before) const {
    const auto it = std::upper_bound(writes.begin(), writes.end(), issued_after,
                                     [](Tick t, const WriteRef& w) { return t < w.issued; });
    return min_ack_from[static_cast<size_t>(it - writes.begin())] < acked_before;
  }
};

using History = std::unordered_map<uint64_t, KeyHistory>;

History BuildHistory(const Clients& clients) {
  History history;
  for (const auto& client : clients) {
    for (const OpRecord& op : client->ops()) {
      if (!op.is_read) {
        history[op.key].writes.push_back({op.issued, Acked(op) ? op.done : kNever, op.tag});
      }
    }
  }
  for (auto& [key, kh] : history) {
    std::sort(kh.writes.begin(), kh.writes.end(), [](const WriteRef& a, const WriteRef& b) {
      return a.issued != b.issued ? a.issued < b.issued : a.tag < b.tag;
    });
    kh.min_ack_from.assign(kh.writes.size() + 1, kNever);
    for (size_t i = kh.writes.size(); i-- > 0;) {
      kh.min_ack_from[i] = std::min(kh.min_ack_from[i + 1], kh.writes[i].acked);
    }
  }
  return history;
}

// Every successful read returned the loaded value or a write to its key that
// had been issued by the time the read finished, and no write acknowledged
// before the read was issued had overwritten it.
void CheckReads(const Clients& clients, const History& history, Errors* errors) {
  for (const auto& client : clients) {
    for (const OpRecord& r : client->ops()) {
      if (!r.is_read || !Acked(r)) {
        continue;
      }
      const auto it = history.find(r.key);
      if (r.tag == kUnreadableTag) {
        errors->Add("read of key %llu returned a value no write produced",
                    static_cast<unsigned long long>(r.key));
      } else if (r.tag == kInitialTag) {
        if (it != history.end() && it->second.AckedBetween(0, r.issued)) {
          errors->Add("stale read of key %llu: loaded value after an acknowledged write",
                      static_cast<unsigned long long>(r.key));
        }
      } else {
        const uint64_t c = r.tag >> 32;
        const uint64_t i = r.tag & 0xFFFFFFFFull;
        const OpRecord* w = c < clients.size() && i < clients[c]->ops().size() ? &clients[c]->ops()[i]
                                                                              : nullptr;
        if (w == nullptr || w->is_read || w->key != r.key || w->issued > r.done) {
          errors->Add("read of key %llu returned a value not written to it before the read ended",
                      static_cast<unsigned long long>(r.key));
        } else if (Acked(*w) && it->second.AckedBetween(w->done, r.issued)) {
          errors->Add("stale read of key %llu: value overwritten before the read was issued",
                      static_cast<unsigned long long>(r.key));
        }
      }
    }
  }
}

// Reads every written key back through client 0 once the run has drained.
class Readback {
 public:
  Readback(rocksteady::RamCloudClient* client, std::vector<uint64_t> keys)
      : client_(client), keys_(std::move(keys)), tags_(keys_.size(), kUnreadableTag) {}

  Readback(const Readback&) = delete;
  Readback& operator=(const Readback&) = delete;

  void Start() {
    for (size_t i = 0; i < kReadbackConcurrency; i++) {
      Next();
    }
  }
  const std::vector<uint64_t>& keys() const { return keys_; }
  const std::vector<uint64_t>& tags() const { return tags_; }

 private:
  void Next() {
    if (next_ >= keys_.size()) {
      return;
    }
    const size_t i = next_++;
    Cluster::MakeKeyInto(keys_[i], kKeyLength, &key_);
    client_->Read(kTable, key_, [this, i](Status status, const std::string& value) {
      tags_[i] = status == Status::kOk ? ParseTag(value) : kUnreadableTag;
      Next();
    });
  }

  rocksteady::RamCloudClient* client_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> tags_;
  size_t next_ = 0;
  std::string key_;
};

// Every written key reads back as its last acknowledged write, or as a write
// that overlapped that one (or failed, and so may have applied).
void CheckReadback(Cluster& cluster, const History& history, Errors* errors) {
  std::vector<uint64_t> keys;
  keys.reserve(history.size());
  for (const auto& [key, kh] : history) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  Readback readback(&cluster.client(0), std::move(keys));
  cluster.AtSafePoint(cluster.now() + 1, [&readback] { readback.Start(); });
  cluster.Run();
  for (size_t i = 0; i < readback.keys().size(); i++) {
    const KeyHistory& kh = history.at(readback.keys()[i]);
    const uint64_t tag = readback.tags()[i];
    const WriteRef* last = nullptr;
    for (const WriteRef& w : kh.writes) {
      if (w.acked != kNever && (last == nullptr || w.acked > last->acked)) {
        last = &w;
      }
    }
    bool ok = tag == kInitialTag && last == nullptr;
    for (const WriteRef& w : kh.writes) {
      if (w.tag == tag) {
        ok = w.acked == kNever || last == nullptr || w.acked > last->issued;
        break;
      }
    }
    if (!ok) {
      errors->Add("key %llu reads back %016llx, not its last acknowledged write",
                  static_cast<unsigned long long>(readback.keys()[i]),
                  static_cast<unsigned long long>(tag));
    }
  }
}

struct MigrationProbe {
  rocksteady::RocksteadyMigrationManager* manager = nullptr;
  std::optional<MigrationStats> stats;
  Clock::time_point host_start;
  Clock::time_point host_done;
};

// The migration committed without aborting and the coordinator maps the
// moved range to master 1 (and the rest to master 0).
void CheckMigration(Cluster& cluster, const MigrationProbe& probe, Errors* errors) {
  if (probe.manager == nullptr || !probe.stats.has_value()) {
    errors->Add("migration did not finish");
    return;
  }
  if (probe.manager->aborted() || probe.stats->aborted_over_budget) {
    errors->Add("migration aborted");
  }
  bool moved = false;
  for (const auto& t : cluster.coordinator().GetTableConfig(kTable)) {
    const rocksteady::ServerId expected = cluster.master(t.start_hash >= kMid ? 1 : 0).id();
    moved = moved || (t.start_hash == kMid && t.end_hash == ~0ull && t.owner == expected);
    if (t.owner != expected) {
      errors->Add("coordinator maps [%016llx, %016llx] to server %u, expected %u",
                  static_cast<unsigned long long>(t.start_hash),
                  static_cast<unsigned long long>(t.end_hash), t.owner, expected);
    }
  }
  if (!moved) {
    errors->Add("coordinator has no tablet [%016llx, ~0] on master 1",
                static_cast<unsigned long long>(kMid));
  }
}

// Times the store's layers directly on each master's live ObjectManager,
// with the run's own keys (client 0's ops: hot keys repeat as in the run).
void ProbeStore(Cluster& cluster, const OpenLoopClient& client, Metrics* m) {
  uint64_t allocated = 0;
  uint64_t live = 0;
  for (size_t i = 0; i < cluster.num_masters(); i++) {
    allocated += cluster.master(i).objects().log().allocated_bytes();
    live += cluster.master(i).objects().log().live_bytes();
  }
  (*m)["log.bytes_per_live_byte"] =
      live > 0 ? static_cast<double>(allocated) / static_cast<double>(live) : 0;

  struct Probe {
    rocksteady::ObjectManager* objects;
    std::string key;
    KeyHash hash;
  };
  std::vector<Probe> probes;
  for (const OpRecord& op : client.ops()) {
    if (probes.size() == kProbeKeys) {
      break;
    }
    std::string key = Cluster::MakeKey(op.key, kKeyLength);
    const KeyHash hash = rocksteady::HashKey(kTable, key);
    rocksteady::MasterServer* owner =
        cluster.coordinator().master(cluster.coordinator().OwnerOf(kTable, hash));
    probes.push_back({&owner->objects(), std::move(key), hash});
  }
  if (probes.empty()) {
    return;
  }
  uint64_t sink = 0;
  auto ns_per_probe = [&probes](auto&& body) {
    std::vector<double> passes;
    for (int pass = 0; pass < 3; pass++) {
      const Clock::time_point begin = Clock::now();
      for (Probe& p : probes) {
        body(p);
      }
      passes.push_back(Seconds(begin, Clock::now()) * 1e9 / static_cast<double>(probes.size()));
    }
    return Percentile(passes, 0.5);
  };
  (*m)["hashtable.lookup_ns"] =
      ns_per_probe([&](Probe& p) { sink += p.objects->hash_table().Lookup(p.hash).raw; });
  (*m)["store.read_ns"] = ns_per_probe([&](Probe& p) {
    const auto read = p.objects->Read(kTable, p.key, p.hash);
    sink += read.ok() ? read->value.size() : 0;
  });
  const std::string value = InitialValue();
  (*m)["store.write_ns"] = ns_per_probe([&](Probe& p) {
    sink += p.objects->Write(kTable, p.key, p.hash, value).ok() ? 1 : 0;
  });
  g_probe_sink = sink;
}

void SpreadTable(Cluster& cluster, int n, Errors* errors) {
  for (int i = 1; i < n; i++) {
    const auto split =
        static_cast<KeyHash>(~0ull / static_cast<uint64_t>(n) * static_cast<uint64_t>(i));
    if (cluster.coordinator().SplitTablet(kTable, split) != Status::kOk) {
      errors->Add("SplitTablet failed");
    }
  }
  const auto tablets = cluster.coordinator().GetTableConfig(kTable);
  for (size_t i = 0; i < tablets.size(); i++) {
    const rocksteady::ServerId owner = cluster.master(i % static_cast<size_t>(n)).id();
    if (tablets[i].owner != owner &&
        cluster.coordinator().ReassignTablet(kTable, tablets[i].start_hash, tablets[i].end_hash,
                                             owner) != Status::kOk) {
      errors->Add("ReassignTablet failed");
    }
  }
}

struct RepOptions {
  bool traced = false;   // Phase hooks, per-call timing, allocation count, store probes.
  bool threads = false;  // Lanes on worker threads.
  bool check = false;    // Output check: op history, read-back, migration.
  SpanLog* spans = nullptr;
};

struct Rep {
  Metrics metrics;
  uint64_t trace_hash = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t read_samples = 0;
  size_t write_samples = 0;
};

const char* const kMigrationMetrics[] = {
    "migration.sim_mbps",
    "migration.sim_pull_ms",
    "migration.sim_rereplicate_ms",
    "migration.bytes_pulled",
    "migration.pulls",
    "migration.priority_pull_batches",
    "migration.priority_pull_records",
    "migration.pacing_backoffs",
    "migration.pull_rejections",
};

// Host-time metrics, scaled by the reference kernel.
const char* const kHostSeconds[] = {
    "setup_s",
    "setup.construct_s",
    "setup.load_s",
    "host_run_s",
    "host_cpu_s",
    "sim.lane_busy_s",
    "sim.merge_s",
    "sim.host_s_per_sim_ms.steady",
    "sim.host_s_per_sim_ms.migrating",
    "migration.host_s",
    "client.read_call_ns",
    "client.write_call_ns",
    "hashtable.lookup_ns",
    "store.read_ns",
    "store.write_ns",
};

// One repetition: set up a fresh cluster, run the workload to completion,
// and measure it.
Rep RunRep(const Workload& w, const ScrambledZipf& zipf, uint64_t seed, const RepOptions& opt,
           Errors* errors) {
  Rep rep;
  Metrics& m = rep.metrics;
  LaneWindowClock lane_clock;
  MigrationProbe probe;

  rocksteady::ClusterConfig config;
  config.num_masters = w.masters;
  config.num_clients = w.clients;
  config.seed = seed;
  config.master.hash_table_log2_buckets = w.hash_log2_buckets;
  config.master.segment_size = 256 * 1024;
  config.lanes = w.lanes;
  config.lane_threads = opt.threads;

  // --- Set-up: construct, create (and spread) the table, load it. ---
  const double rss0 = RssMb();
  const Clock::time_point t0 = Clock::now();
  Cluster cluster(config);
  const Clock::time_point t1 = Clock::now();
  const double rss1 = RssMb();
  if (w.migrate) {
    rocksteady::EnableMigration(&cluster);
  }
  cluster.CreateTable(kTable, 0);
  if (w.spread) {
    SpreadTable(cluster, w.masters, errors);
  }
  const Clock::time_point t2 = Clock::now();
  cluster.LoadTable(kTable, w.load.records, kKeyLength, kValueLength);
  const Clock::time_point t3 = Clock::now();
  m["setup_s"] = Seconds(t0, t3);
  m["setup.construct_s"] = Seconds(t0, t1);
  m["setup.load_s"] = Seconds(t2, t3);
  m["setup.rss_construct_mb"] = rss1 - rss0;
  m["setup.rss_load_mb"] = RssMb() - rss1;
  if (opt.spans != nullptr) {
    opt.spans->Host("setup", "repetition", SpanLog::kMainTrack, t0, t3);
    opt.spans->Host("setup.construct", "setup", SpanLog::kMainTrack, t0, t1);
    opt.spans->Host("setup.create_table", "setup", SpanLog::kMainTrack, t1, t2);
    opt.spans->Host("setup.load", "setup", SpanLog::kMainTrack, t2, t3);
  }

  Clients clients;
  for (int c = 0; c < w.clients; c++) {
    clients.push_back(std::make_unique<OpenLoopClient>(&cluster.client(static_cast<size_t>(c)),
                                                       kTable, &zipf, w.load, seed,
                                                       static_cast<uint32_t>(c), opt.traced));
    clients.back()->Start(w.stop);
  }
  if (w.migrate) {
    cluster.AtSafePoint(w.migrate_at, [&cluster, &probe] {
      probe.host_start = Clock::now();
      probe.manager = rocksteady::StartRocksteadyMigration(
          &cluster, kTable, kMid, ~0ull, 0, 1, rocksteady::RocksteadyOptions{},
          [&probe](const MigrationStats& s) {
            probe.stats = s;
            probe.host_done = Clock::now();
          });
    });
  }
  if (opt.traced) {
    lane_clock.Install(cluster.lanes(), opt.spans);
  }

  // --- The timed run. ---
  const size_t events0 = cluster.events_processed();
  CountAllocations(opt.traced);
  const double cpu0 = CpuSeconds();
  const Clock::time_point t4 = Clock::now();
  cluster.Run();
  const Clock::time_point t5 = Clock::now();
  const double cpu1 = CpuSeconds();
  CountAllocations(false);
  const double run_s = Seconds(t4, t5);
  const auto events = static_cast<double>(cluster.events_processed() - events0);
  const Tick sim_end = cluster.now();
  rep.trace_hash = cluster.trace_hash();
  m["host_run_s"] = run_s;
  m["host_cpu_s"] = cpu1 - cpu0;
  m["sim.events"] = events;
  m["sim.events_per_host_s"] = events / run_s;
  if (opt.spans != nullptr) {
    opt.spans->Host("repetition", "", SpanLog::kMainTrack, t0, t5);
    opt.spans->Host("run", "repetition", SpanLog::kMainTrack, t4, t5);
  }

  // --- Client-observed latency in simulated time, from intended arrival. ---
  Tick window_begin = 0;
  Tick window_end = kNever;
  if (probe.stats.has_value()) {
    window_begin = probe.stats->start_time;
    window_end = probe.stats->end_time;
  }
  std::vector<double> reads;
  std::vector<double> writes;
  std::vector<double> before;
  std::vector<double> after;
  std::vector<double> lag;
  for (const auto& client : clients) {
    for (const OpRecord& op : client->ops()) {
      rep.attempted++;
      lag.push_back(op.issued >= op.arrival ? static_cast<double>(op.issued - op.arrival) / 1e3 : 0);
      if (!Acked(op)) {
        rep.failed++;
        continue;
      }
      const double us = static_cast<double>(op.done - op.arrival) / 1e3;
      const bool in_window = op.arrival >= window_begin && op.arrival <= window_end;
      if (!op.is_read) {
        if (in_window) {
          writes.push_back(us);
        }
      } else if (in_window) {
        reads.push_back(us);
      } else {
        (op.arrival < window_begin ? before : after).push_back(us);
      }
    }
  }
  const double arrived = static_cast<double>(std::max<uint64_t>(1, rep.attempted));
  rep.read_samples = reads.size();
  rep.write_samples = writes.size();
  m["sim_read_mean_us"] = Mean(reads);
  m["sim_read_p999_us"] = Percentile(reads, 0.999);
  // migrate_b has ~3k writes in its window: too few for a 99.9th percentile
  // with ten samples beyond it, and their 99th percentile swings by ~20%
  // from seed to seed, so the end-to-end write metric is the mean.
  m["sim_write_mean_us"] = Mean(writes);
  m["client.sim_write_p99_us"] = Percentile(writes, 0.99);
  m["client.completed_op_frac"] = static_cast<double>(rep.attempted - rep.failed) / arrived;
  m["client.sim_read_p50_us"] = Percentile(reads, 0.5);
  m["client.sim_read_p999_us.before"] = Percentile(before, 0.999);
  m["client.sim_read_p999_us.after"] = Percentile(after, 0.999);
  m["client.generator_lag_us"] = Percentile(lag, 0.999);

  // --- Layer counters. ---
  m["net.messages_per_op"] = static_cast<double>(cluster.net().total_messages()) / arrived;
  m["net.bytes_per_op"] = static_cast<double>(cluster.net().total_bytes_sent()) / arrived;
  m["rpc.calls_per_op"] = static_cast<double>(cluster.rpc().calls_issued()) / arrived;
  m["rpc.retransmissions"] = static_cast<double>(cluster.rpc().retransmissions());
  double retry_later = 0;
  double wrong_server = 0;
  double ops_failed = 0;
  for (size_t i = 0; i < cluster.num_clients(); i++) {
    retry_later += static_cast<double>(cluster.client(i).retry_later_retries());
    wrong_server += static_cast<double>(cluster.client(i).wrong_server_retries());
    ops_failed += static_cast<double>(cluster.client(i).ops_failed());
  }
  m["client.retry_later"] = retry_later;
  m["client.wrong_server"] = wrong_server;
  m["client.ops_failed"] = ops_failed;
  double dispatch_max = 0;
  double worker_max = 0;
  const double sim_ns = static_cast<double>(std::max<Tick>(1, sim_end));
  for (size_t i = 0; i < cluster.num_masters(); i++) {
    const rocksteady::CoreSet& cores = cluster.master(i).cores();
    dispatch_max = std::max(dispatch_max, static_cast<double>(cores.total_dispatch_busy()) / sim_ns);
    worker_max = std::max(worker_max, static_cast<double>(cores.total_worker_busy()) /
                                          (cores.num_workers() * sim_ns));
  }
  m["server.dispatch_util_max"] = dispatch_max;
  m["server.worker_util_max"] = worker_max;

  // --- Migration. ---
  double migration_host_s = 0;
  Tick migration_sim = 0;
  for (const char* name : kMigrationMetrics) {
    m[name] = 0;
  }
  if (probe.stats.has_value()) {
    const MigrationStats& s = *probe.stats;
    migration_sim = s.end_time - s.start_time;
    migration_host_s = Seconds(probe.host_start, probe.host_done);
    m["migration.sim_mbps"] = s.RateMBps();
    m["migration.sim_pull_ms"] = static_cast<double>(s.last_pull_time - s.start_time) / 1e6;
    m["migration.sim_rereplicate_ms"] = static_cast<double>(s.end_time - s.last_pull_time) / 1e6;
    m["migration.bytes_pulled"] = static_cast<double>(s.bytes_pulled);
    m["migration.pulls"] = static_cast<double>(s.pulls_completed);
    m["migration.priority_pull_batches"] = static_cast<double>(s.priority_pull_batches);
    m["migration.priority_pull_records"] = static_cast<double>(s.priority_pull_records);
    m["migration.pacing_backoffs"] = static_cast<double>(s.pacing_backoffs);
    m["migration.pull_rejections"] = static_cast<double>(s.pull_rejections);
    if (opt.spans != nullptr) {
      opt.spans->Host("migration", "run", SpanLog::kMainTrack, probe.host_start, probe.host_done);
      opt.spans->Sim("migration", "run", s.start_time, s.end_time);
      opt.spans->Sim("migration.pull", "migration", s.start_time, s.last_pull_time);
      opt.spans->Sim("migration.rereplicate", "migration", s.last_pull_time, s.end_time);
    }
  }
  m["migration.host_s"] = migration_host_s;
  m["sim.host_s_per_sim_ms.steady"] =
      (run_s - migration_host_s) / std::max(1e-9, static_cast<double>(sim_end - migration_sim) / 1e6);
  m["sim.host_s_per_sim_ms.migrating"] =
      migration_sim > 0 ? migration_host_s / (static_cast<double>(migration_sim) / 1e6) : 0;

  // --- Engine layers, traced repetitions only. ---
  if (opt.traced) {
    const auto windows = static_cast<double>(lane_clock.windows());
    const double hooked = lane_clock.lane_busy_s() + lane_clock.merge_s();
    m["sim.windows"] = windows;
    m["sim.events_per_window"] = windows > 0 ? events / windows : 0;
    m["sim.lane_busy_s"] = lane_clock.lane_busy_s();
    m["sim.merge_s"] = lane_clock.merge_s();
    m["sim.merge_share"] = hooked > 0 ? lane_clock.merge_s() / hooked : 0;
    m["sim.lane_imbalance"] = lane_clock.imbalance();
    m["sim.hooked_share"] = hooked / run_s;
    m["sim.allocs_per_event"] = static_cast<double>(Allocations()) / std::max(1.0, events);
    std::vector<double> read_ns;
    std::vector<double> write_ns;
    for (const auto& client : clients) {
      read_ns.insert(read_ns.end(), client->read_call_ns().begin(), client->read_call_ns().end());
      write_ns.insert(write_ns.end(), client->write_call_ns().begin(), client->write_call_ns().end());
    }
    m["client.read_call_ns"] = Percentile(read_ns, 0.5);
    m["client.write_call_ns"] = Percentile(write_ns, 0.5);
  }

  // --- Output check (before the probes, which write to the store). ---
  if (opt.check) {
    const History history = BuildHistory(clients);
    CheckReads(clients, history, errors);
    CheckReadback(cluster, history, errors);
    if (w.migrate) {
      CheckMigration(cluster, probe, errors);
    }
  }
  if (opt.traced) {
    ProbeStore(cluster, *clients.front(), &m);
  }
  return rep;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload migrate_b|write_a|scale24_lanes4 --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--out DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string size = "full";
  std::string out_dir = ".";
  uint64_t seed = 42;
  double seconds = 10;
  int trace = 0;
  if (argc % 2 == 0) {
    return Usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--size") {
      size = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  const std::optional<Workload> w = MakeWorkload(workload, size == "tiny");
  if (!w.has_value() || (size != "full" && size != "tiny") || (trace != 0 && trace != 1) ||
      !(seconds > 0)) {
    return Usage();
  }

  const ScrambledZipf zipf(w->load.records, w->load.zipf_theta);
  Errors errors;
  SpanLog spans;
  // Repetition 0 is the warm-up: it pays first-touch page faults and cold
  // caches, runs the output check, and alone gives the memory figures. Its
  // times are not reported.
  std::optional<Rep> first;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  double peak_rss_mb = 0;
  const ReferenceKernel reference;
  double reference_before = reference.Seconds();
  const Clock::time_point begin = Clock::now();
  // A traced run alternates untraced and traced repetitions, so both see the
  // same host conditions and their trace hashes can be compared.
  for (int i = 0; i < kMaxReps; i++) {
    RepOptions opt;
    opt.traced = trace == 1 && i % 2 == 1;
    opt.threads = w->lane_threads && !opt.traced;
    opt.check = i == 0;
    opt.spans = opt.traced && traced.empty() ? &spans : nullptr;
    Rep rep = RunRep(*w, zipf, seed, opt, &errors);
    if (i == 0) {
      // Later repetitions reuse memory the allocator kept, so their peak
      // depends on how many ran.
      peak_rss_mb = PeakRssMb();
    }
    // The host's speed during a repetition: the kernel timed just before and
    // just after it.
    const double reference_after = reference.Seconds();
    const double reference_s = (reference_before + reference_after) / 2;
    reference_before = reference_after;
    rep.metrics["host.reference_s"] = reference_s;
    for (const char* name : kHostSeconds) {
      const auto it = rep.metrics.find(name);
      if (it != rep.metrics.end()) {
        it->second *= ReferenceKernel::Scale(reference_s);
      }
    }
    rep.metrics["sim.events_per_host_s"] /= ReferenceKernel::Scale(reference_s);
    if (i == 0) {
      first = std::move(rep);
      continue;
    }
    if (rep.trace_hash != first->trace_hash) {
      errors.Add("repetition %d (%s, %s) has trace hash %016llx; repetition 0 has %016llx", i,
                 opt.traced ? "traced" : "untraced", opt.threads ? "threaded" : "unthreaded",
                 static_cast<unsigned long long>(rep.trace_hash),
                 static_cast<unsigned long long>(first->trace_hash));
    }
    (opt.traced ? traced : plain).push_back(std::move(rep));
    const bool enough = trace == 1 ? traced.size() >= 2 && !plain.empty() : plain.size() >= 3;
    if (enough && Seconds(begin, Clock::now()) >= seconds) {
      break;
    }
  }

  const std::vector<Rep>& reps = trace == 1 ? traced : plain;
  Metrics metrics;
  for (const auto& [name, unused] : reps.front().metrics) {
    std::vector<double> values;
    for (const Rep& rep : reps) {
      const auto it = rep.metrics.find(name);
      if (it != rep.metrics.end()) {
        values.push_back(it->second);
      }
    }
    metrics[name] = Percentile(values, 0.5);
  }
  metrics["setup.rss_construct_mb"] = first->metrics.at("setup.rss_construct_mb");
  metrics["setup.rss_load_mb"] = first->metrics.at("setup.rss_load_mb");
  metrics["peak_rss_mb"] = peak_rss_mb;
  std::string trace_file;
  if (trace == 1) {
    std::vector<double> plain_run;
    for (const Rep& rep : plain) {
      plain_run.push_back(rep.metrics.at("host_run_s"));
    }
    metrics["sim.trace_overhead"] = metrics["host_run_s"] / Percentile(plain_run, 0.5) - 1;
    trace_file = out_dir + "/" + workload + "-seed" + std::to_string(seed) + ".trace.json";
    if (!spans.Write(trace_file)) {
      errors.Add("cannot write %s", trace_file.c_str());
    }
  }

  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"size\":%s,\"correct\":%s,",
              Quote(workload).c_str(), static_cast<unsigned long long>(seed), trace,
              Quote(size).c_str(), errors.count() == 0 ? "true" : "false");
  std::printf("\"errors\":[");
  for (size_t i = 0; i < errors.messages().size(); i++) {
    std::printf("%s%s", i == 0 ? "" : ",", Quote(errors.messages()[i]).c_str());
  }
  std::printf("],\"error_count\":%llu,\"attempted\":%llu,\"failed\":%llu,",
              static_cast<unsigned long long>(errors.count()),
              static_cast<unsigned long long>(first->attempted),
              static_cast<unsigned long long>(first->failed));
  std::printf("\"samples\":{\"read\":%zu,\"write\":%zu},", first->read_samples, first->write_samples);
  std::printf(
      "\"stamp\":{\"nproc\":%ld,\"build_type\":%s,\"compiler\":%s,\"seed\":%llu,"
      "\"trace_hash\":\"%016llx\",\"lanes\":%d,\"lane_threads\":%s,\"reps\":%zu,"
      "\"traced_reps\":%zu,\"spans\":%s},",
      sysconf(_SC_NPROCESSORS_ONLN), Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(kCompiler).c_str(),
      static_cast<unsigned long long>(seed), static_cast<unsigned long long>(first->trace_hash),
      w->lanes, w->lane_threads ? "true" : "false", plain.size(), traced.size(),
      Quote(trace_file).c_str());
  std::printf("\"metrics\":{");
  bool comma = false;
  for (const auto& [name, value] : metrics) {
    if (std::isfinite(value)) {
      std::printf("%s%s:%.17g", comma ? "," : "", Quote(name).c_str(), value);
    } else {
      std::printf("%s%s:null", comma ? "," : "", Quote(name).c_str());
    }
    comma = true;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Calibrated service-time model for the simulated cluster.
//
// Every constant in the simulation lives here, next to the paper measurement
// it was calibrated against. The defaults reproduce (in shape and roughly in
// magnitude) the numbers in the paper's evaluation:
//   * ~6 us unloaded end-to-end reads, ~15 us durable writes      (Table 1 / §2)
//   * source pull logic ~5.7 GB/s and target replay ~3 GB/s at 16
//     cores for 128 B records; source/target ratio 1.8-2.4x       (Figure 15)
//   * baseline migration bottleneck ladder 130 / 180 / 600 / 710 /
//     1150 MB/s                                                   (Figure 5)
//   * log replication path saturating around ~380 MB/s            (§2.3)
//   * 40 Gbps (5 GB/s) links                                       (Table 1)
#ifndef ROCKSTEADY_SRC_SIM_COST_MODEL_H_
#define ROCKSTEADY_SRC_SIM_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "src/common/types.h"

namespace rocksteady {

struct CostModel {
  // --- Network (Table 1: Mellanox CX3 40 Gbps, DPDK kernel bypass). ---
  // Link bandwidth, bytes per second. 40 Gbps = 5 GB/s.
  double net_bandwidth_bps = 5.0e9;
  // One-way propagation + NIC/PHY latency. Calibrated so an unloaded
  // dispatch->dispatch round trip plus service lands near the paper's 6 us
  // end-to-end read.
  Tick net_propagation_ns = 1'000;
  // Fixed per-message NIC processing (descriptor handling, doorbell).
  Tick net_per_message_ns = 150;

  // --- Dispatch core (§3.1: one polling dispatch core per server). ---
  // Cost to poll, validate, and hand off one inbound RPC. Calibrated so one
  // server saturates around ~1M small RPCs/s (the paper's YCSB-B source
  // runs ~700 KOps/s at 80% dispatch load, §4.1/Figure 9).
  Tick dispatch_per_rpc_ns = 700;
  // Cost to post one outbound response to the transport.
  Tick dispatch_tx_ns = 300;
  // Migration-manager continuation on the target's dispatch core (§3.1.2:
  // "the migration manager runs as an asynchronous continuation on the
  // target's dispatch core"; §4.3: "requires little CPU").
  Tick dispatch_manager_ns = 120;

  // --- Worker ops (§2: 6 us reads, 15 us durable writes end to end). ---
  // Base worker time to service a read (hash lookup, copy-out, checksum).
  Tick read_op_ns = 1'700;
  // Per-byte copy-out cost for reads.
  double read_per_byte_ns = 0.5;
  // Base worker time for a write before replication (log append, hash
  // table update, index hooks).
  Tick write_op_ns = 2'200;
  double write_per_byte_ns = 1.0;
  // Additional per-key cost inside a multiget beyond the first key. A
  // multiget amortizes dispatch: one RPC, many lookups (Figure 3's premise:
  // worker-bound at spread 1, dispatch-bound at spread 7). Calibrated to
  // Figure 3's ~4M objects/s single-server plateau.
  Tick multiget_per_key_ns = 3'300;
  // Index lookup for short scans (Figure 4). Calibrated against Figure 4's
  // knee: one indexlet saturates around ~325K 4-record scans/s on 12
  // workers, implying ~20 us of per-scan index work (SLIK tree descent,
  // hash collection, response build).
  Tick index_lookup_ns = 20'000;
  Tick index_per_result_ns = 500;

  // --- Replication (§2.3: "RAMCloud's existing log replication mechanism
  //     bottlenecks at around 380 MB/s"). ---
  // Worker CPU to post a replication (checksum, build RPCs).
  double replication_src_per_byte_ns = 0.5;
  Tick replication_src_base_ns = 1'000;
  // The per-master replication *pipeline*: all of a master's replication
  // traffic serializes through this resource (RPC windows, copyset fan-out)
  // at 2.6 ns/B => ~380 MB/s, the paper's measured ceiling.
  double replication_pipeline_per_byte_ns = 2.6;
  // Backup-side worker cost to ingest a replica write.
  Tick backup_write_base_ns = 1'200;
  double backup_write_per_byte_ns = 0.5;

  // --- Rocksteady pulls (Figure 15 source curve: 5.7 GB/s @ 16 cores,
  //     128 B records => ~356 MB/s/core => ~358 ns/record). ---
  Tick pull_per_record_ns = 320;
  double pull_per_byte_ns = 0.30;
  // Fixed source-side cost per Pull RPC (locate partition cursor, build
  // gather list header).
  Tick pull_base_ns = 900;
  // PriorityPull: per-batch fixed + per-record hash-table probe cost.
  Tick priority_pull_base_ns = 700;
  Tick priority_pull_per_record_ns = 400;

  // --- Replay (Figure 15 target curve: 3 GB/s @ 16 cores, 128 B records
  //     => ~187 MB/s/core => ~670 ns/record; ratio vs. source 1.8-2.4x). ---
  Tick replay_per_record_ns = 600;
  double replay_per_byte_ns = 0.55;
  Tick replay_base_ns = 800;

  // --- Baseline (pre-existing RAMCloud) migration (Figure 5 ladder). ---
  // Source-side log scan: identify live objects to migrate.
  // 0.87 ns per *matched* byte plus a small per-entry skip cost
  // => ~1150 MB/s of migrated data ("Skip Copy for Tx").
  double baseline_scan_per_byte_ns = 0.87;
  Tick baseline_scan_per_skipped_entry_ns = 8;
  // Copying identified objects into staging buffers: +0.54 ns/B
  // (1150 -> 710 MB/s, "Skip Tx to Target").
  double baseline_copy_per_byte_ns = 0.54;
  // Posting staged buffers to the transport: +0.26 ns/B (710 -> 600 MB/s,
  // "Skip Replay on Target").
  double baseline_tx_per_byte_ns = 0.26;
  // Target-side single-threaded logical replay: 5.3 ns/B => ~188 MB/s
  // ("Skip Re-replication" plateau ~180 MB/s).
  double baseline_replay_per_byte_ns = 5.3;

  // --- Log cleaner (emergency cleaning under memory pressure). ---
  // Worker cost to clean one segment: fixed scan/selection overhead plus a
  // per-relocated-byte copy cost (same order as replay, it is the same kind
  // of log-append work).
  Tick cleaner_base_ns = 2'000;
  double cleaner_per_byte_ns = 0.6;

  // --- Overload protection. ---
  // Retry hint returned with a kRetryLater pull rejection: how long the
  // target should wait before re-issuing the shed pull.
  Tick overload_retry_hint_ns = 50'000;
  // Windowing for each master's recent client-latency tracker (the p99.9
  // signal piggybacked on pull replies): sub-window span and count.
  Tick latency_window_ns = 500'000;
  size_t latency_window_buckets = 4;

  // --- Client behaviour / protocol timing. ---
  // Paper §3: on kRetryLater the client retries "after randomly waiting a
  // few tens of microseconds".
  Tick retry_backoff_min_ns = 10'000;
  Tick retry_backoff_max_ns = 40'000;
  // Data RPC timeout (crash detection) and migration-control RPC timeout.
  Tick rpc_timeout_ns = 5 * kMillisecond;
  Tick migration_rpc_timeout_ns = 20 * kMillisecond;
  // Retry hint for reads hitting a tablet still being recovered.
  Tick recovering_retry_hint_ns = kMillisecond;
  // Escalating client backoff on repeated kWrongServer.
  Tick wrong_server_backoff_step_ns = 20'000;
  Tick wrong_server_backoff_max_ns = 500'000;
  // Expected PriorityPull batch turnaround (client retry hint, §3.3).
  Tick priority_pull_turnaround_ns = 25'000;
  // Retry hint when PriorityPulls are disabled (Figure 9b mode): the client
  // can only wait for background Pulls, so the hint is long — aggressive
  // retries would melt the target's dispatch core for nothing.
  Tick no_priority_pull_retry_ns = 1'000'000;

  // --- At-least-once RPC transport (fault-injection hardening). ---
  // Per-attempt retransmission timer: an unacked attempt is retransmitted
  // with the *same* call_id after base * 2^attempt (capped) plus seeded
  // jitter; the caller-visible timeout above is the overall deadline.
  Tick rpc_retransmit_base_ns = 100'000;
  Tick rpc_retransmit_cap_ns = 2'000'000;
  // Max jitter added to each retransmission delay (uniform, seeded).
  Tick rpc_retransmit_jitter_ns = 20'000;
  // Migration-manager heartbeat to the coordinator, and the lease the
  // coordinator grants: miss a whole lease and the migration is considered
  // stalled (crashed target) and is re-driven through recovery.
  Tick migration_heartbeat_interval_ns = 2 * kMillisecond;
  Tick migration_lease_ns = 50 * kMillisecond;
  // Coordinator ping-based failure detector (chaos runs): period between
  // ping sweeps and the per-ping timeout that declares a server dead.
  Tick ping_interval_ns = 10 * kMillisecond;
  Tick ping_timeout_ns = 5 * kMillisecond;

  // Derived helpers. -----------------------------------------------------
  Tick Serialization(size_t bytes) const {
    return static_cast<Tick>(static_cast<double>(bytes) / net_bandwidth_bps * 1e9);
  }
  Tick ReadCost(size_t value_bytes) const {
    return read_op_ns + static_cast<Tick>(read_per_byte_ns * static_cast<double>(value_bytes));
  }
  Tick WriteCost(size_t value_bytes) const {
    return write_op_ns + static_cast<Tick>(write_per_byte_ns * static_cast<double>(value_bytes));
  }
  Tick PullCost(size_t records, size_t bytes) const {
    return pull_base_ns + pull_per_record_ns * static_cast<Tick>(records) +
           static_cast<Tick>(pull_per_byte_ns * static_cast<double>(bytes));
  }
  Tick ReplayCost(size_t records, size_t bytes) const {
    return replay_base_ns + replay_per_record_ns * static_cast<Tick>(records) +
           static_cast<Tick>(replay_per_byte_ns * static_cast<double>(bytes));
  }
  Tick PriorityPullCost(size_t records) const {
    return priority_pull_base_ns + priority_pull_per_record_ns * static_cast<Tick>(records);
  }
  Tick ReplicationSrcCost(size_t bytes) const {
    return replication_src_base_ns +
           static_cast<Tick>(replication_src_per_byte_ns * static_cast<double>(bytes));
  }
  Tick BackupWriteCost(size_t bytes) const {
    return backup_write_base_ns +
           static_cast<Tick>(backup_write_per_byte_ns * static_cast<double>(bytes));
  }
  Tick CleanSegmentCost(size_t relocated_bytes) const {
    return cleaner_base_ns +
           static_cast<Tick>(cleaner_per_byte_ns * static_cast<double>(relocated_bytes));
  }
};

}  // namespace rocksteady

#endif  // ROCKSTEADY_SRC_SIM_COST_MODEL_H_

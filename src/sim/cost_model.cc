#include "src/sim/cost_model.h"

namespace rocksteady {

void CostModel::Dilate(double factor) {
  auto scale_tick = [factor](Tick& t) { t = static_cast<Tick>(static_cast<double>(t) * factor); };
  auto scale_rate = [factor](double& r) { r *= factor; };

  net_bandwidth_bps /= factor;
  scale_tick(net_propagation_ns);
  scale_tick(net_per_message_ns);
  scale_tick(dispatch_per_rpc_ns);
  scale_tick(dispatch_tx_ns);
  scale_tick(dispatch_manager_ns);
  scale_tick(read_op_ns);
  scale_rate(read_per_byte_ns);
  scale_tick(write_op_ns);
  scale_rate(write_per_byte_ns);
  scale_tick(multiget_per_key_ns);
  scale_tick(index_lookup_ns);
  scale_tick(index_per_result_ns);
  scale_rate(replication_src_per_byte_ns);
  scale_tick(replication_src_base_ns);
  scale_rate(replication_pipeline_per_byte_ns);
  scale_tick(backup_write_base_ns);
  scale_rate(backup_write_per_byte_ns);
  scale_tick(pull_per_record_ns);
  scale_rate(pull_per_byte_ns);
  scale_tick(pull_base_ns);
  scale_tick(priority_pull_base_ns);
  scale_tick(priority_pull_per_record_ns);
  scale_tick(replay_per_record_ns);
  scale_rate(replay_per_byte_ns);
  scale_tick(replay_base_ns);
  scale_rate(baseline_scan_per_byte_ns);
  scale_rate(baseline_copy_per_byte_ns);
  scale_rate(baseline_tx_per_byte_ns);
  scale_rate(baseline_replay_per_byte_ns);
  scale_tick(cleaner_base_ns);
  scale_rate(cleaner_per_byte_ns);
  scale_tick(overload_retry_hint_ns);
  scale_tick(latency_window_ns);
  scale_tick(retry_backoff_min_ns);
  scale_tick(retry_backoff_max_ns);
  scale_tick(rpc_timeout_ns);
  scale_tick(migration_rpc_timeout_ns);
  scale_tick(recovering_retry_hint_ns);
  scale_tick(wrong_server_backoff_step_ns);
  scale_tick(wrong_server_backoff_max_ns);
  scale_tick(priority_pull_turnaround_ns);
  scale_tick(no_priority_pull_retry_ns);
  scale_tick(rpc_retransmit_base_ns);
  scale_tick(rpc_retransmit_cap_ns);
  scale_tick(rpc_retransmit_jitter_ns);
  scale_tick(migration_heartbeat_interval_ns);
  scale_tick(migration_lease_ns);
  scale_tick(ping_interval_ns);
  scale_tick(ping_timeout_ns);
}

}  // namespace rocksteady

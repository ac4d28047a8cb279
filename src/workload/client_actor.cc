#include "src/workload/client_actor.h"

#include <cmath>

namespace rocksteady {

void ClientActor::Start() { ScheduleNextArrival(); }

void ClientActor::ScheduleNextArrival() {
  Simulator& sim = client_->sim();
  // Poisson arrivals: exponential interarrival at the configured rate.
  const double u = std::max(1e-12, client_->rng().NextDouble());
  const double gap_seconds = -std::log(u) / config_.ops_per_second;
  const Tick gap = std::max<Tick>(1, static_cast<Tick>(gap_seconds * static_cast<double>(kSecond)));
  const Tick at = sim.now() + gap;
  if (config_.stop_time != 0 && at >= config_.stop_time) {
    return;
  }
  sim.At(at, client_->node(), [this] {
    Simulator& sim2 = client_->sim();
    if (outstanding_ < config_.max_outstanding) {
      workload_->NextOpInto(client_->rng(), &scratch_.op);
      scratch_.arrival = sim2.now();
      Issue(scratch_);
    } else {
      PendingOp pending;
      pending.op = workload_->NextOp(client_->rng());
      pending.arrival = sim2.now();
      backlog_.push_back(std::move(pending));
    }
    ScheduleNextArrival();
  });
}

void ClientActor::PumpBacklog() {
  while (outstanding_ < config_.max_outstanding && !backlog_.empty()) {
    Issue(backlog_.front());
    backlog_.pop_front();
  }
}

void ClientActor::Issue(const PendingOp& op) {
  outstanding_++;
  issued_++;
  // Completion closures capture only {this, arrival} — 16 bytes, inside
  // std::function's inline buffer — and the key/value go down as views the
  // client copies into pooled buffers, so issuing an op allocates nothing.
  const Tick arrival = op.arrival;
  if (op.op.is_read) {
    client_->Read(table_, op.op.key, [this, arrival](Status status, const std::string&) {
      Completed(arrival, /*is_read=*/true, status);
    });
  } else {
    if (write_value_.size() != workload_->config().value_length) {
      write_value_.assign(workload_->config().value_length, 'w');
    }
    client_->Write(table_, op.op.key, write_value_,
                   [this, arrival](Status status) { Completed(arrival, /*is_read=*/false, status); });
  }
}

void ClientActor::Completed(Tick arrival, bool is_read, Status status) {
  Simulator& sim = client_->sim();
  outstanding_--;
  if (status == Status::kOk || (is_read && status == Status::kObjectNotFound)) {
    completed_++;
    const Tick latency = sim.now() - arrival;
    if (is_read) {
      if (read_latency_ != nullptr) {
        read_latency_->Record(sim.now(), latency);
      }
    } else if (write_latency_ != nullptr) {
      write_latency_->Record(sim.now(), latency);
    }
    if (throughput_ != nullptr) {
      throughput_->Record(sim.now(), latency);
    }
  } else {
    failed_++;
  }
  PumpBacklog();
}

}  // namespace rocksteady

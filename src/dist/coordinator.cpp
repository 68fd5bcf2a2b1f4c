#include "dist/coordinator.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics_serde.hpp"
#include "obs/span_serde.hpp"
#include "rcdc/contract_gen.hpp"

namespace dcv::dist {

std::string_view to_string(ShardStatus status) {
  switch (status) {
    case ShardStatus::kValidated:
      return "validated";
    case ShardStatus::kRecovered:
      return "recovered";
    case ShardStatus::kFailed:
      return "failed";
  }
  return "?";
}

Coordinator::Coordinator(const topo::MetadataService& metadata,
                         CoordinatorConfig config)
    : metadata_(&metadata),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : &default_clock_),
      merger_(std::make_unique<obs::TraceMerger>(config.trace, "coordinator")) {
  obs::MetricsRegistry* metrics = config_.metrics;
  if (metrics != nullptr) {
    workers_live_gauge_ = &metrics->gauge(
        "dcv_dist_workers_live", "Workers currently admitted to the fleet");
    workers_lost_disconnect_ = &metrics->counter(
        "dcv_dist_workers_lost_total", "Workers lost, by detection path",
        {{"reason", "disconnect"}});
    workers_lost_lease_ = &metrics->counter(
        "dcv_dist_workers_lost_total", "Workers lost, by detection path",
        {{"reason", "lease_expired"}});
    workers_lost_deadline_ = &metrics->counter(
        "dcv_dist_workers_lost_total", "Workers lost, by detection path",
        {{"reason", "shard_deadline"}});
    workers_rejected_ = &metrics->counter(
        "dcv_dist_workers_rejected_total",
        "Connections dropped before admission (bad hello, protocol, "
        "topology-epoch or topology-digest mismatch, handshake timeout)");
    shards_validated_ = &metrics->counter(
        "dcv_dist_shards_total", "Shard cycle outcomes",
        {{"status", "validated"}});
    shards_recovered_ = &metrics->counter(
        "dcv_dist_shards_total", "Shard cycle outcomes",
        {{"status", "recovered"}});
    shards_failed_counter_ = &metrics->counter(
        "dcv_dist_shards_total", "Shard cycle outcomes",
        {{"status", "failed"}});
    reassignments_ = &metrics->counter(
        "dcv_dist_reassignments_total",
        "Shard deliveries beyond each shard's first assignment");
    stale_results_ = &metrics->counter(
        "dcv_dist_stale_results_total",
        "Results ignored because their shard attempt was already "
        "reassigned or finished");
    decode_errors_ = &metrics->counter(
        "dcv_dist_decode_errors_total",
        "Well-framed messages whose payload failed to decode");
    trace_decode_errors_ = &metrics->counter(
        "dcv_dist_trace_decode_errors_total",
        "Result trace blobs that failed dcv-trace-v1 decoding (the shard "
        "result itself still counted)");
    cycle_coverage_ = &metrics->gauge(
        "dcv_dist_cycle_coverage",
        "Device coverage of the latest distributed cycle");
    shard_elapsed_ns_ = &metrics->histogram(
        "dcv_dist_shard_elapsed_ns",
        "Worker-reported wall time per validated shard");
  }
}

void Coordinator::add_worker(std::unique_ptr<Transport> transport) {
  Worker worker;
  worker.id = transport->peer();
  worker.transport = std::move(transport);
  worker.admitted_at = clock_->now();
  workers_.push_back(std::move(worker));
}

std::size_t Coordinator::live_workers() const {
  std::size_t live = 0;
  for (const Worker& worker : workers_) {
    if (!worker.dead && worker.hello_done) ++live;
  }
  return live;
}

std::size_t Coordinator::pump(std::size_t target_workers,
                              std::chrono::nanoseconds deadline) {
  const auto until = clock_->now() + deadline;
  while (true) {
    bool progress = false;
    process_frames(progress);
    detect_failures();
    const std::size_t live = live_workers();
    if (live >= target_workers || clock_->now() >= until) {
      std::erase_if(workers_, [](const Worker& w) { return w.dead; });
      return live;
    }
    if (!progress) clock_->sleep_for(config_.poll_interval);
  }
}

void Coordinator::handle_hello(std::size_t worker_index, const Frame& frame) {
  Worker& worker = workers_[worker_index];
  const std::optional<HelloMsg> hello = decode_hello(frame.payload);
  // The worker plans contracts from its own copy of the expected topology:
  // admit it only if that plan is this coordinator's.
  if (!hello.has_value() || hello->protocol != kProtocolVersion ||
      hello->topology_epoch != metadata_->epoch() ||
      hello->topology_digest != rcdc::expected_topology_digest(*metadata_)) {
    if (workers_rejected_ != nullptr) workers_rejected_->inc();
    lose_worker(worker_index, "rejected");
    return;
  }
  worker.id = hello->worker_id;
  // Keep ids unique so worker-labeled metric series never collide.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (i != worker_index && !workers_[i].dead && workers_[i].hello_done &&
        workers_[i].id == worker.id) {
      worker.id += "#" + std::to_string(worker_index);
      break;
    }
  }
  const auto now = clock_->now();
  // A zero stamp means the peer opted out of clock sync (pre-v2 style
  // fakes and test drivers); never seed from it.
  if (hello->send_ns != 0) {
    worker.clock_sync.seed_one_way(
        static_cast<std::int64_t>(hello->send_ns),
        now.time_since_epoch().count());
  }
  if (config_.metrics != nullptr) {
    worker.offset_gauge = &config_.metrics->gauge(
        "dcv_dist_clock_offset_ns",
        "Estimated worker steady-clock offset (worker minus coordinator), "
        "from min-RTT midpoint-of-round-trip samples",
        {{"worker", worker.id}});
    worker.offset_gauge->set(
        static_cast<double>(worker.clock_sync.offset_ns()));
  }
  WelcomeMsg welcome;
  welcome.heartbeat_interval_ns =
      static_cast<std::uint64_t>(config_.heartbeat_interval.count());
  welcome.lease_ns = static_cast<std::uint64_t>(config_.lease.count());
  welcome.send_ns =
      static_cast<std::uint64_t>(now.time_since_epoch().count());
  if (!worker.transport->send(encode(welcome))) {
    lose_worker(worker_index, "disconnect");
    return;
  }
  worker.hello_done = true;
  ++workers_admitted_total_;
  workers_live_.fetch_add(1, std::memory_order_relaxed);
  if (workers_live_gauge_ != nullptr) {
    workers_live_gauge_->set(
        static_cast<double>(workers_live_.load(std::memory_order_relaxed)));
  }
}

void Coordinator::observe_clock_echo(Worker& worker, std::uint64_t send_ns,
                                     std::uint64_t peer_tx_ns,
                                     std::uint64_t peer_rx_ns) {
  if (send_ns == 0 || peer_tx_ns == 0 || peer_rx_ns == 0) return;
  worker.clock_sync.add_sample(static_cast<std::int64_t>(peer_tx_ns),
                               static_cast<std::int64_t>(peer_rx_ns),
                               static_cast<std::int64_t>(send_ns),
                               clock_->now().time_since_epoch().count());
  if (worker.offset_gauge != nullptr) {
    worker.offset_gauge->set(
        static_cast<double>(worker.clock_sync.offset_ns()));
  }
}

void Coordinator::record_assign_span(const Shard& shard,
                                     std::string_view name) {
  if (config_.trace == nullptr || shard.assign_span == 0) return;
  config_.trace->record_span(name, shard.assign_span, cycle_span_,
                             current_cycle_id_, shard.assign_sent_at,
                             clock_->now() - shard.assign_sent_at);
}

void Coordinator::handle_heartbeat(std::size_t worker_index,
                                   const HeartbeatMsg& msg) {
  Worker& worker = workers_[worker_index];
  observe_clock_echo(worker, msg.send_ns, msg.peer_tx_ns, msg.peer_rx_ns);
  if (!worker.active_shard.has_value()) return;
  Shard& shard = shards_[*worker.active_shard];
  if (shard.id != msg.shard_id || shard.attempt != msg.attempt) return;
  // Renew the lease, but never past the per-delivery hard deadline.
  shard.lease_deadline =
      std::min(clock_->now() + config_.lease, shard.hard_deadline);
}

void Coordinator::handle_result(std::size_t worker_index, ResultMsg msg) {
  Worker& worker = workers_[worker_index];
  observe_clock_echo(worker, msg.send_ns, msg.peer_tx_ns, msg.peer_rx_ns);
  const bool current = worker.active_shard.has_value() &&
                       msg.shard_id < shards_.size() &&
                       shards_[msg.shard_id].owner == worker_index &&
                       shards_[msg.shard_id].attempt == msg.attempt &&
                       !shards_[msg.shard_id].done();
  if (!current) {
    if (stale_results_ != nullptr) stale_results_->inc();
    return;
  }
  Shard& shard = shards_[msg.shard_id];
  if (shard_elapsed_ns_ != nullptr) {
    shard_elapsed_ns_->observe(static_cast<double>(msg.elapsed_ns));
  }
  // Feed the shard's wall time back into the carving cost model: the next
  // cycle sizes shards by estimated time, not device count.
  balancer_.record(shard.devices, msg.elapsed_ns);
  if (config_.metrics != nullptr && !msg.registry_blob.empty()) {
    // Fold the worker's own registry into ours under {worker=<id>}; a
    // malformed blob is dropped (the validation result still counts).
    (void)obs::merge_serialized(*config_.metrics, msg.registry_blob,
                                {{"worker", worker.id}});
  }
  // The assign span must land in the local ring before the worker's tree
  // is merged under it, so no snapshot ever sees children without their
  // parent.
  record_assign_span(shard, "assign");
  // An untraced coordinator sends no trace context and keeps no remote
  // spans; a blob arriving anyway has no assign span to hang under.
  if (config_.trace != nullptr && !msg.trace_blob.empty()) {
    obs::DecodedTrace remote;
    if (obs::deserialize_trace(msg.trace_blob, remote)) {
      // Merger offset is local − remote; the estimator reports remote −
      // local. The floor pins the tree to start no earlier than its
      // assign, absorbing the ±rtt/2 estimation error.
      const std::chrono::nanoseconds floor =
          shard.assign_sent_at - config_.trace->epoch();
      merger_->add_remote(worker.id, std::move(remote),
                          -worker.clock_sync.offset_ns(), shard.assign_span,
                          floor);
    } else if (trace_decode_errors_ != nullptr) {
      // Malformed telemetry never fails the shard: the validation result
      // is already decoded and counted.
      trace_decode_errors_->inc();
    }
  }
  msg.trace_blob.clear();
  shard.result = std::move(msg);
  shard.result_worker = worker.id;
  shard.owner.reset();
  worker.active_shard.reset();
}

void Coordinator::process_frames(bool& progress) {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    // Indexed loop: handlers may push nothing, but lose_worker mutates
    // workers_[i] in place; the vector itself is stable during a cycle.
    while (!workers_[i].dead) {
      std::optional<Frame> frame = workers_[i].transport->poll();
      if (!frame.has_value()) break;
      progress = true;
      if (!workers_[i].hello_done) {
        if (frame->type == MsgType::kHello) {
          handle_hello(i, *frame);
        } else {
          if (workers_rejected_ != nullptr) workers_rejected_->inc();
          lose_worker(i, "rejected");
        }
        continue;
      }
      switch (frame->type) {
        case MsgType::kHeartbeat: {
          const auto msg = decode_heartbeat(frame->payload);
          if (msg.has_value()) {
            handle_heartbeat(i, *msg);
          } else if (decode_errors_ != nullptr) {
            decode_errors_->inc();
          }
          break;
        }
        case MsgType::kResult: {
          auto msg = decode_result(frame->payload);
          if (msg.has_value()) {
            handle_result(i, std::move(*msg));
          } else if (decode_errors_ != nullptr) {
            decode_errors_->inc();
          }
          break;
        }
        default:
          // A worker has no business sending coordinator-role messages.
          if (decode_errors_ != nullptr) decode_errors_->inc();
          lose_worker(i, "disconnect");
          break;
      }
    }
  }
}

void Coordinator::detect_failures() {
  const auto now = clock_->now();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& worker = workers_[i];
    if (worker.dead) continue;
    if (worker.transport->closed()) {
      lose_worker(i, "disconnect");
      continue;
    }
    if (!worker.hello_done &&
        now - worker.admitted_at >= config_.hello_deadline) {
      if (workers_rejected_ != nullptr) workers_rejected_->inc();
      lose_worker(i, "rejected");
      continue;
    }
    if (worker.active_shard.has_value()) {
      const Shard& shard = shards_[*worker.active_shard];
      if (now >= shard.hard_deadline) {
        lose_worker(i, "deadline");
      } else if (now >= shard.lease_deadline) {
        lose_worker(i, "lease");
      }
    }
  }
}

void Coordinator::lose_worker(std::size_t worker_index,
                              std::string_view reason) {
  Worker& worker = workers_[worker_index];
  if (worker.dead) return;
  worker.dead = true;
  if (worker.hello_done) {
    workers_live_.fetch_sub(1, std::memory_order_relaxed);
    workers_lost_total_.fetch_add(1, std::memory_order_relaxed);
    if (workers_live_gauge_ != nullptr) {
      workers_live_gauge_->set(
          static_cast<double>(workers_live_.load(std::memory_order_relaxed)));
    }
    obs::Counter* counter = reason == "lease"      ? workers_lost_lease_
                            : reason == "deadline" ? workers_lost_deadline_
                            : reason == "rejected" ? nullptr
                                                   : workers_lost_disconnect_;
    if (counter != nullptr) counter->inc();
  }
  if (worker.active_shard.has_value()) {
    const std::size_t shard_index = *worker.active_shard;
    worker.active_shard.reset();
    shards_[shard_index].owner.reset();
    requeue_or_fail(shard_index);
  }
}

void Coordinator::requeue_or_fail(std::size_t shard_index) {
  Shard& shard = shards_[shard_index];
  if (shard.done()) return;
  record_assign_span(shard, "assign_lost");
  shard.assign_span = 0;
  shard.lost_once = true;
  if (shard.deliveries >= 1 + config_.shard_retry_budget) {
    shard.failed = true;
    if (shards_failed_counter_ != nullptr) shards_failed_counter_->inc();
    return;
  }
  ++shard.attempt;
  pending_shards_.push_back(shard_index);
}

bool Coordinator::assign_pending_shards() {
  bool assigned = false;
  while (!pending_shards_.empty()) {
    std::size_t idle_worker = workers_.size();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].dead && workers_[i].hello_done &&
          !workers_[i].active_shard.has_value()) {
        idle_worker = i;
        break;
      }
    }
    if (idle_worker == workers_.size()) break;
    const std::size_t shard_index = pending_shards_.front();
    pending_shards_.pop_front();
    Shard& shard = shards_[shard_index];
    if (shard.done()) continue;
    Worker& worker = workers_[idle_worker];
    shard.owner = idle_worker;
    ++shard.deliveries;
    if (shard.deliveries > 1 && reassignments_ != nullptr) {
      reassignments_->inc();
    }
    const auto now = clock_->now();
    shard.hard_deadline = now + config_.shard_deadline;
    shard.lease_deadline = std::min(now + config_.lease, shard.hard_deadline);
    worker.active_shard = shard_index;
    shard.assign_span =
        config_.trace != nullptr ? obs::allocate_span_id() : 0;
    shard.assign_sent_at = now;
    AssignMsg assign;
    assign.shard_id = shard.id;
    assign.attempt = shard.attempt;
    assign.plan_epoch = metadata_->epoch();
    assign.devices.reserve(shard.devices.size());
    for (const topo::DeviceId device : shard.devices) {
      assign.devices.push_back({device, verdicts_.fingerprint(device)});
    }
    if (config_.trace != nullptr) {
      assign.cycle_id = current_cycle_id_;
      assign.parent_span = shard.assign_span;
    }
    assign.send_ns = static_cast<std::uint64_t>(now.time_since_epoch().count());
    if (!worker.transport->send(encode(assign))) {
      // lose_worker sees active_shard and requeues (or fails) the shard.
      lose_worker(idle_worker, "disconnect");
      continue;
    }
    assigned = true;
  }
  return assigned;
}

bool Coordinator::any_admissible_worker() const {
  for (const Worker& worker : workers_) {
    if (!worker.dead) return true;
  }
  return false;
}

void Coordinator::fail_all_pending() {
  for (Shard& shard : shards_) {
    if (!shard.done()) {
      shard.failed = true;
      if (shards_failed_counter_ != nullptr) shards_failed_counter_->inc();
    }
  }
  pending_shards_.clear();
}

DistributedSummary Coordinator::run_cycle() {
  cycle_in_progress_.store(true, std::memory_order_relaxed);
  const auto start = clock_->now();
  current_cycle_id_ = cycles_completed_.load(std::memory_order_relaxed) + 1;
  cycle_span_ = obs::allocate_span_id();
  const std::uint64_t lost_before =
      workers_lost_total_.load(std::memory_order_relaxed);
  std::erase_if(workers_, [](const Worker& w) { return w.dead; });
  for (Worker& worker : workers_) worker.active_shard.reset();

  // Cached verdicts hold only while the plan they were checked against
  // does.
  const auto& devices = metadata_->topology().devices();
  verdicts_.adopt(metadata_->epoch(), devices.size());

  // Carve the device space into shards at a per-shard *cost* budget from
  // the feedback balancer: per-device EWMA estimates derived from prior
  // cycles' shard wall times. Before any feedback exists every device
  // costs the same and the carve is equal-device-count chunking.
  const std::size_t shard_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.shards_per_worker) *
             std::max<std::size_t>(1, live_workers()));
  double total_cost = 0.0;
  for (const auto& device : devices) total_cost += balancer_.cost(device.id);
  const double cost_budget =
      total_cost / static_cast<double>(std::max<std::size_t>(1, shard_count));
  shards_.clear();
  pending_shards_.clear();
  Shard shard;
  double shard_cost = 0.0;
  const auto cut_shard = [this, &shard, &shard_cost] {
    if (shard.devices.empty()) return;
    shard.id = static_cast<std::uint32_t>(shards_.size());
    shards_.push_back(std::move(shard));
    shard = Shard{};
    shard_cost = 0.0;
  };
  for (const auto& device : devices) {
    // Cut *before* exceeding the budget (uniform costs: this is exactly the
    // `size >= ceil(n / shard_count)` device-count cut).
    if (shard_cost >= cost_budget) cut_shard();
    shard.devices.push_back(device.id);
    shard_cost += balancer_.cost(device.id);
  }
  cut_shard();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    pending_shards_.push_back(i);
  }

  while (true) {
    bool progress = false;
    process_frames(progress);
    detect_failures();
    if (assign_pending_shards()) progress = true;
    const bool all_done =
        std::all_of(shards_.begin(), shards_.end(),
                    [](const Shard& s) { return s.done(); });
    if (all_done) break;
    if (!any_admissible_worker()) {
      // The whole fleet is gone: complete degraded instead of waiting for
      // workers that can never come back.
      fail_all_pending();
      break;
    }
    if (!progress) clock_->sleep_for(config_.poll_interval);
  }

  DistributedSummary summary = finish_cycle(start);
  summary.workers_lost =
      workers_lost_total_.load(std::memory_order_relaxed) - lost_before;
  return summary;
}

DistributedSummary Coordinator::finish_cycle(
    std::chrono::steady_clock::time_point start) {
  DistributedSummary summary;
  summary.workers_connected = workers_admitted_total_;
  for (Shard& shard : shards_) {
    ShardOutcome outcome;
    outcome.shard_id = shard.id;
    outcome.devices = shard.devices.size();
    outcome.attempts = shard.deliveries;
    if (shard.result.has_value()) {
      const ResultMsg& result = *shard.result;
      outcome.worker = shard.result_worker;
      outcome.elapsed_ns = result.elapsed_ns;
      outcome.status =
          shard.lost_once ? ShardStatus::kRecovered : ShardStatus::kValidated;
      // A recovered shard was fully re-validated, but it sits behind a
      // failure event; keep the reduced-trust mark for operators.
      outcome.degraded_confidence = shard.lost_once;
      if (shard.lost_once) {
        if (shards_recovered_ != nullptr) shards_recovered_->inc();
      } else if (shards_validated_ != nullptr) {
        shards_validated_->inc();
      }
      summary.merged.devices_checked += result.devices_checked;
      summary.merged.contracts_checked += result.contracts_checked;
      summary.merged.devices_failed += result.devices_failed;
      summary.merged.devices_stale += result.devices_stale;
      summary.merged.retries += result.retries;
      summary.merged.breaker_opens += result.breaker_opens;
      merge_result(*shard.result, summary);
    } else {
      // Failed shard: its devices were never validated; count every one
      // against coverage, exactly like per-device fetch failures.
      outcome.status = ShardStatus::kFailed;
      outcome.degraded_confidence = true;
      summary.merged.devices_checked += shard.devices.size();
      summary.merged.devices_failed += shard.devices.size();
      ++summary.shards_failed;
    }
    summary.reassignments +=
        shard.deliveries > 0 ? shard.deliveries - 1 : 0;
    summary.shards.push_back(std::move(outcome));
  }
  std::stable_sort(summary.merged.violations.begin(),
                   summary.merged.violations.end(),
                   [](const rcdc::Violation& a, const rcdc::Violation& b) {
                     return a.device < b.device;
                   });
  summary.merged.elapsed = clock_->now() - start;
  if (config_.trace != nullptr) {
    config_.trace->record_span("cycle", cycle_span_, /*parent=*/0,
                               current_cycle_id_, start,
                               summary.merged.elapsed);
  }

  const double coverage = summary.coverage();
  last_coverage_.store(coverage, std::memory_order_relaxed);
  shards_failed_last_.store(summary.shards_failed, std::memory_order_relaxed);
  cycles_completed_.fetch_add(1, std::memory_order_relaxed);
  cycle_in_progress_.store(false, std::memory_order_relaxed);
  if (cycle_coverage_ != nullptr) cycle_coverage_->set(coverage);
  std::erase_if(workers_, [](const Worker& w) { return w.dead; });
  return summary;
}

void Coordinator::merge_result(ResultMsg& result,
                               DistributedSummary& summary) {
  // The worker emits violations in device order; a device's fresh verdict
  // is its run of them. Violations of devices it did not report as verified
  // cannot be attributed and are dropped.
  std::vector<rcdc::Violation>& fresh = result.violations;
  const auto by_device = [](const rcdc::Violation& a,
                            const rcdc::Violation& b) {
    return a.device < b.device;
  };
  std::stable_sort(fresh.begin(), fresh.end(), by_device);
  const std::size_t device_count = metadata_->topology().device_count();
  for (const DeviceReport& report : result.reports) {
    if (report.device >= device_count) continue;
    if (report.replayed) {
      // Only a verdict this coordinator holds can be replayed; a claim
      // against anything else leaves the device unvalidated.
      if (!verdicts_.hit(report.device, report.fingerprint)) {
        ++summary.merged.devices_failed;
        continue;
      }
    } else {
      rcdc::Violation key;
      key.device = report.device;
      const auto [first, last] =
          std::equal_range(fresh.begin(), fresh.end(), key, by_device);
      verdicts_.store(report.device, report.fingerprint,
                      {std::make_move_iterator(first),
                       std::make_move_iterator(last)});
    }
    const rcdc::VerdictCache::Replay verdict =
        verdicts_.replay(report.device, report.degraded);
    summary.merged.violations.insert(summary.merged.violations.end(),
                                     verdict.violations.begin(),
                                     verdict.violations.end());
    summary.merged.violations_degraded += verdict.violations_degraded;
  }
}

void Coordinator::shutdown_workers() {
  for (Worker& worker : workers_) {
    if (!worker.dead && worker.hello_done) {
      (void)worker.transport->send(encode_shutdown());
    }
  }
}

Coordinator::Health Coordinator::health() const {
  Health health;
  health.workers_live = workers_live_.load(std::memory_order_relaxed);
  health.workers_lost_total =
      workers_lost_total_.load(std::memory_order_relaxed);
  health.cycles_completed = cycles_completed_.load(std::memory_order_relaxed);
  health.last_coverage = last_coverage_.load(std::memory_order_relaxed);
  health.shards_failed_last_cycle =
      shards_failed_last_.load(std::memory_order_relaxed);
  health.cycle_in_progress = cycle_in_progress_.load(std::memory_order_relaxed);
  return health;
}

obs::HealthProbe make_fleet_probe(const Coordinator& coordinator,
                                  FleetReadinessRules rules) {
  return [&coordinator, rules]() -> obs::HealthSnapshot {
    const Coordinator::Health health = coordinator.health();
    obs::HealthSnapshot snapshot;
    std::ostringstream detail;
    bool ready = true;
    if (health.workers_live < rules.min_workers) ready = false;
    detail << "workers_live: " << health.workers_live << " (min "
           << rules.min_workers << ")\n";
    if (health.cycles_completed == 0) ready = false;
    detail << "cycles_completed: " << health.cycles_completed << "\n";
    if (health.last_coverage < rules.min_coverage) ready = false;
    detail << "last_coverage: " << health.last_coverage << " (min "
           << rules.min_coverage << ")\n";
    if (health.shards_failed_last_cycle > rules.max_failed_shards) {
      ready = false;
    }
    detail << "shards_failed_last_cycle: " << health.shards_failed_last_cycle
           << " (max " << rules.max_failed_shards << ")\n";
    detail << "workers_lost_total: " << health.workers_lost_total << "\n";
    snapshot.ready = ready;
    snapshot.detail = detail.str();
    return snapshot;
  };
}

}  // namespace dcv::dist

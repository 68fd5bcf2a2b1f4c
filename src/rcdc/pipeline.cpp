#include "rcdc/pipeline.hpp"

#include <atomic>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "rcdc/notification_queue.hpp"

namespace dcv::rcdc {

namespace {

/// Cycle correlation ids are process-unique (not per-pipeline), so several
/// pipelines sharing one trace ring never alias each other's cycles.
std::atomic<std::uint64_t> g_next_cycle_id{1};

struct Notification {
  topo::DeviceId device = topo::kInvalidDevice;
  routing::ForwardingTable fib;
  std::chrono::nanoseconds simulated_fetch{0};
  /// The table is degraded (stale fallback or truncated/corrupted pull):
  /// violations found on it are reported at degraded confidence.
  bool degraded = false;
  /// When the puller enqueued this notification (for queue-wait metrics).
  std::chrono::steady_clock::time_point enqueued_at{};
};

/// Per-cycle handles into the registry; all null when metrics are off, so
/// the hot paths pay one branch per record and nothing else.
struct CycleMetrics {
  obs::Histogram* fetch_latency_ns = nullptr;
  obs::Histogram* fetch_sim_ns = nullptr;
  obs::Histogram* validate_latency_ns = nullptr;
  obs::Histogram* queue_wait_ns = nullptr;
  obs::Histogram* queue_push_block_ns = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* coverage = nullptr;
  obs::Counter* cycles_total = nullptr;
  obs::Counter* devices_fresh = nullptr;
  obs::Counter* devices_stale = nullptr;
  obs::Counter* devices_failed = nullptr;
  obs::Counter* retries_total = nullptr;
  obs::Counter* breaker_opens_total = nullptr;
  obs::Counter* violations_total = nullptr;
  obs::Histogram* fingerprint_ns = nullptr;
  obs::Counter* devices_revalidated = nullptr;
  obs::Counter* devices_skipped = nullptr;
  obs::Gauge* revalidation_ratio = nullptr;

  explicit CycleMetrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    fetch_latency_ns = &registry->histogram(
        "dcv_pipeline_fetch_latency_ns",
        "Per-device table acquisition wall time (scaled sleep + pull)");
    fetch_sim_ns = &registry->histogram(
        "dcv_pipeline_fetch_sim_ns",
        "Per-device simulated (production-magnitude) fetch latency");
    validate_latency_ns = &registry->histogram(
        "dcv_pipeline_validate_latency_ns",
        "Per-device contract validation time");
    queue_wait_ns = &registry->histogram(
        "dcv_pipeline_queue_wait_ns",
        "Time a notification spent in the puller->validator queue");
    queue_push_block_ns = &registry->histogram(
        "dcv_pipeline_queue_push_block_ns",
        "Time a puller spent blocked on a full notification queue");
    queue_depth = &registry->gauge("dcv_pipeline_queue_depth",
                                   "Notification queue depth (sampled)");
    coverage = &registry->gauge(
        "dcv_pipeline_coverage",
        "Fraction of devices that produced a table in the latest cycle");
    cycles_total = &registry->counter("dcv_pipeline_cycles_total",
                                      "Monitoring cycles completed");
    devices_fresh =
        &registry->counter("dcv_pipeline_devices_total",
                           "Devices processed, by pull result",
                           {{"result", "fresh"}});
    devices_stale =
        &registry->counter("dcv_pipeline_devices_total",
                           "Devices processed, by pull result",
                           {{"result", "stale"}});
    devices_failed =
        &registry->counter("dcv_pipeline_devices_total",
                           "Devices processed, by pull result",
                           {{"result", "failed"}});
    retries_total = &registry->counter(
        "dcv_pipeline_retries_total",
        "Extra pull attempts beyond the first, summed over devices");
    breaker_opens_total = &registry->counter(
        "dcv_pipeline_breaker_opens_total",
        "Circuit-breaker open transitions observed by pullers");
    violations_total = &registry->counter("dcv_pipeline_violations_total",
                                          "Contract violations found");
    fingerprint_ns = &registry->histogram(
        "dcv_incremental_fingerprint_ns",
        "Time to fingerprint one device's forwarding table");
    devices_revalidated = &registry->counter(
        "dcv_incremental_devices_revalidated_total",
        "Devices re-verified because their FIB fingerprint changed");
    devices_skipped = &registry->counter(
        "dcv_incremental_devices_skipped_total",
        "Devices whose cached verdicts were reused (fingerprint unchanged)");
    revalidation_ratio = &registry->gauge(
        "dcv_incremental_revalidation_ratio",
        "Fraction of devices re-verified in the latest cycle");
  }
};

}  // namespace

MonitoringPipeline::MonitoringPipeline(const topo::MetadataService& metadata,
                                       const FibSource& fibs,
                                       VerifierFactory verifier_factory,
                                       PipelineConfig config)
    : metadata_(&metadata),
      fibs_(&fibs),
      verifier_factory_(std::move(verifier_factory)),
      config_(config),
      generator_(metadata) {}

PipelineStats MonitoringPipeline::run_cycle() {
  const auto start = std::chrono::steady_clock::now();
  PipelineStats stats;
  CycleMetrics metrics(config_.metrics);
  const std::uint64_t cycle_id =
      g_next_cycle_id.fetch_add(1, std::memory_order_relaxed);
  cycle_in_progress_.store(true, std::memory_order_relaxed);
  const obs::CycleScope cycle_scope(cycle_id);
  obs::Span cycle_span("cycle", nullptr, config_.trace);

  // Stage 1 — device contract generator: capture this cycle's immutable
  // contract plan. In steady state the plan is cached for the current
  // topology epoch, so this is a lock + pointer copy rather than a full
  // regeneration; a concurrent epoch bump can only affect the *next*
  // cycle's plan, never the one captured here.
  obs::Span contracts_span("contracts", nullptr, config_.trace);
  const ContractPlanPtr plan = generator_.plan();
  // Contracts may have changed for any device on an epoch change: every
  // cached verdict is dropped.
  verdicts_.adopt(plan->epoch(), metadata_->topology().device_count());
  std::vector<topo::DeviceId> devices;
  for (const DeviceContracts& entry : plan->devices()) {
    if (!entry.contracts.empty()) devices.push_back(entry.device);
  }
  contracts_span.stop();
  stats.devices = devices.size();

  NotificationQueue<Notification> queue(config_.queue_capacity);
  std::atomic<std::size_t> next_device{0};
  std::atomic<std::uint64_t> fetch_sim_total_ns{0};
  std::atomic<std::uint64_t> fetch_scaled_total_ns{0};
  std::atomic<std::uint64_t> validate_total_ns{0};
  std::atomic<std::size_t> contracts_checked{0};
  std::atomic<std::size_t> violation_count{0};
  std::atomic<std::size_t> alerts_high{0};
  std::atomic<std::size_t> alerts_low{0};
  std::atomic<std::size_t> violations_degraded{0};
  std::atomic<std::size_t> devices_failed{0};
  std::atomic<std::size_t> devices_stale{0};
  std::atomic<std::size_t> devices_revalidated{0};
  std::atomic<std::size_t> devices_skipped{0};
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> breaker_opens{0};
  std::mutex sink_mutex;
  const RiskPolicy risk(metadata_->topology());

  // Stage 2 — routing-table puller: fetch each device's table (with the
  // production fetch latency, scaled) and post a notification. A failed
  // fetch costs the cycle coverage, never the cycle.
  const auto puller = [&](unsigned worker) {
    const obs::CycleScope cycle_tag(cycle_id);
    std::mt19937_64 rng(config_.seed * 1315423911u + worker);
    std::uniform_int_distribution<std::int64_t> latency_us(
        config_.fetch_latency_min.count(), config_.fetch_latency_max.count());
    while (true) {
      const std::size_t i =
          next_device.fetch_add(1, std::memory_order_relaxed);
      if (i >= devices.size()) break;
      const auto simulated = std::chrono::microseconds(latency_us(rng));
      const auto scaled = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double, std::micro>(
              static_cast<double>(simulated.count())) *
          config_.time_scale);
      obs::Span fetch_span("fetch", metrics.fetch_latency_ns, config_.trace);
      if (scaled.count() > 0) std::this_thread::sleep_for(scaled);
      FetchOutcome outcome = fibs_->try_fetch(devices[i]);
      fetch_span.stop();
      if (outcome.attempts > 1) {
        retries.fetch_add(outcome.attempts - 1, std::memory_order_relaxed);
        if (metrics.retries_total != nullptr) {
          metrics.retries_total->inc(outcome.attempts - 1);
        }
      }
      if (outcome.breaker_tripped) {
        breaker_opens.fetch_add(1, std::memory_order_relaxed);
        if (metrics.breaker_opens_total != nullptr) {
          metrics.breaker_opens_total->inc();
        }
      }
      if (!outcome.has_table()) {
        devices_failed.fetch_add(1, std::memory_order_relaxed);
        if (metrics.devices_failed != nullptr) metrics.devices_failed->inc();
        continue;
      }
      if (outcome.stale) {
        devices_stale.fetch_add(1, std::memory_order_relaxed);
        if (metrics.devices_stale != nullptr) metrics.devices_stale->inc();
      } else if (metrics.devices_fresh != nullptr) {
        metrics.devices_fresh->inc();
      }
      Notification n{.device = devices[i],
                     .fib = std::move(*outcome.table),
                     .simulated_fetch = simulated,
                     .degraded = outcome.degraded()};
      fetch_sim_total_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(simulated)
                  .count()),
          std::memory_order_relaxed);
      fetch_scaled_total_ns.fetch_add(
          static_cast<std::uint64_t>(scaled.count()),
          std::memory_order_relaxed);
      if (metrics.fetch_sim_ns != nullptr) {
        metrics.fetch_sim_ns->observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(simulated)
                .count()));
      }
      obs::ScopedTimer push_timer(metrics.queue_push_block_ns);
      n.enqueued_at = std::chrono::steady_clock::now();
      queue.push(std::move(n));
      push_timer.stop();
      const std::size_t depth = queue.size();
      live_queue_depth_.store(depth, std::memory_order_relaxed);
      if (metrics.queue_depth != nullptr) {
        metrics.queue_depth->set(static_cast<double>(depth));
      }
    }
  };

  // Stage 3 — routing-table validator: join table + contracts, verify,
  // classify, alert.
  const auto validator = [&] {
    const obs::CycleScope cycle_tag(cycle_id);
    const auto verifier = verifier_factory_();
    while (true) {
      auto notification = queue.pop();
      if (!notification) break;
      live_queue_depth_.store(queue.size(), std::memory_order_relaxed);
      if (metrics.queue_wait_ns != nullptr) {
        metrics.queue_wait_ns->observe(static_cast<std::uint64_t>(
            (std::chrono::steady_clock::now() - notification->enqueued_at)
                .count()));
      }
      obs::Span validate_span("validate", nullptr, config_.trace);
      const topo::DeviceId device = notification->device;

      // Incremental skip: an unchanged fingerprint means the cached verdict
      // for this table content is still exact — replay it through the same
      // risk/alert path instead of re-verifying. The "cached" vs "verify"
      // child span distinguishes the two outcomes in traces. With
      // incremental mode off the table is not fingerprinted, and a 0
      // fingerprint never hits.
      std::uint64_t print = 0;
      if (config_.incremental) {
        obs::ScopedTimer fingerprint_timer(metrics.fingerprint_ns);
        print = fingerprint(notification->fib);
        fingerprint_timer.stop();
      }
      if (verdicts_.hit(device, print)) {
        obs::Span cached_span("cached", nullptr, config_.trace);
        devices_skipped.fetch_add(1, std::memory_order_relaxed);
        if (metrics.devices_skipped != nullptr) metrics.devices_skipped->inc();
        cached_span.stop();
      } else {
        const std::span<const Contract> contracts =
            plan->contracts_for(device);
        obs::Span verify_span("verify", metrics.validate_latency_ns,
                              config_.trace);
        std::vector<Violation> fresh =
            verifier->check(notification->fib, contracts, device);
        const auto verify_elapsed = verify_span.stop();
        validate_total_ns.fetch_add(
            static_cast<std::uint64_t>(verify_elapsed.count()),
            std::memory_order_relaxed);
        contracts_checked.fetch_add(contracts.size(),
                                    std::memory_order_relaxed);
        devices_revalidated.fetch_add(1, std::memory_order_relaxed);
        if (metrics.devices_revalidated != nullptr) {
          metrics.devices_revalidated->inc();
        }
        verdicts_.store(device, print, std::move(fresh));
      }
      const VerdictCache::Replay verdict =
          verdicts_.replay(device, notification->degraded);
      violation_count.fetch_add(verdict.violations.size(),
                                std::memory_order_relaxed);
      if (metrics.violations_total != nullptr && !verdict.violations.empty()) {
        metrics.violations_total->inc(verdict.violations.size());
      }
      violations_degraded.fetch_add(verdict.violations_degraded,
                                    std::memory_order_relaxed);
      obs::Span report_span("report", nullptr, config_.trace);
      for (const Violation& v : verdict.violations) {
        const RiskAssessment assessment =
            risk.assess(v, notification->degraded);
        if (assessment.level == RiskLevel::kHigh) {
          alerts_high.fetch_add(1, std::memory_order_relaxed);
        } else {
          alerts_low.fetch_add(1, std::memory_order_relaxed);
        }
        if (alert_sink_) {
          const std::lock_guard lock(sink_mutex);
          alert_sink_(v, assessment);
        }
      }
      report_span.stop();
      validate_span.stop();
    }
  };

  {
    std::vector<std::jthread> validators;
    validators.reserve(config_.validator_workers);
    for (unsigned w = 0; w < std::max(1u, config_.validator_workers); ++w) {
      validators.emplace_back(validator);
    }
    {
      std::vector<std::jthread> pullers;
      pullers.reserve(config_.puller_workers);
      for (unsigned w = 0; w < std::max(1u, config_.puller_workers); ++w) {
        pullers.emplace_back(puller, w);
      }
    }  // pullers joined: every notification has been posted
    queue.close();
  }  // validators joined: queue drained

  stats.contracts_checked = contracts_checked.load();
  stats.violations = violation_count.load();
  stats.alerts_high = alerts_high.load();
  stats.alerts_low = alerts_low.load();
  stats.violations_degraded = violations_degraded.load();
  stats.devices_failed = devices_failed.load();
  stats.devices_stale = devices_stale.load();
  stats.devices_revalidated = devices_revalidated.load();
  stats.devices_skipped = devices_skipped.load();
  stats.retries = retries.load();
  stats.breaker_opens = breaker_opens.load();
  stats.fetch_sim_total = std::chrono::nanoseconds(fetch_sim_total_ns.load());
  stats.fetch_scaled_total =
      std::chrono::nanoseconds(fetch_scaled_total_ns.load());
  stats.validate_total = std::chrono::nanoseconds(validate_total_ns.load());
  stats.wall = std::chrono::steady_clock::now() - start;
  if (metrics.cycles_total != nullptr) {
    metrics.cycles_total->inc();
    metrics.coverage->set(stats.coverage());
    const std::size_t validated =
        stats.devices_revalidated + stats.devices_skipped;
    metrics.revalidation_ratio->set(
        validated == 0 ? 0.0
                       : static_cast<double>(stats.devices_revalidated) /
                             static_cast<double>(validated));
  }
  cycle_span.stop();

  // Publish the completed cycle to the telemetry plane.
  last_coverage_.store(stats.coverage(), std::memory_order_relaxed);
  last_breaker_opens_.store(stats.breaker_opens, std::memory_order_relaxed);
  last_devices_failed_.store(stats.devices_failed,
                             std::memory_order_relaxed);
  live_queue_depth_.store(0, std::memory_order_relaxed);
  last_cycle_end_ns_.store(std::chrono::steady_clock::now()
                               .time_since_epoch()
                               .count(),
                           std::memory_order_relaxed);
  cycles_completed_.fetch_add(1, std::memory_order_relaxed);
  cycle_in_progress_.store(false, std::memory_order_relaxed);
  return stats;
}

PipelineHealth MonitoringPipeline::health() const {
  PipelineHealth health;
  health.cycles_completed = cycles_completed_.load(std::memory_order_relaxed);
  health.cycle_in_progress =
      cycle_in_progress_.load(std::memory_order_relaxed);
  health.coverage = last_coverage_.load(std::memory_order_relaxed);
  health.queue_depth = live_queue_depth_.load(std::memory_order_relaxed);
  health.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  health.breaker_opens_last_cycle =
      last_breaker_opens_.load(std::memory_order_relaxed);
  health.devices_failed_last_cycle =
      last_devices_failed_.load(std::memory_order_relaxed);
  const std::int64_t end_ns =
      last_cycle_end_ns_.load(std::memory_order_relaxed);
  health.since_last_cycle =
      end_ns < 0 ? std::chrono::nanoseconds{-1}
                 : std::chrono::steady_clock::now().time_since_epoch() -
                       std::chrono::nanoseconds(end_ns);
  return health;
}

obs::HealthProbe make_pipeline_probe(const MonitoringPipeline& pipeline,
                                     ReadinessRules rules) {
  return [&pipeline, rules]() -> obs::HealthSnapshot {
    const PipelineHealth health = pipeline.health();
    obs::HealthSnapshot snapshot;
    char line[160];

    std::snprintf(line, sizeof(line),
                  "cycles_completed: %llu\ncycle_in_progress: %s\n"
                  "coverage: %.4f\nqueue: %zu/%zu\n"
                  "breaker_opens_last_cycle: %zu\n",
                  static_cast<unsigned long long>(health.cycles_completed),
                  health.cycle_in_progress ? "true" : "false",
                  health.coverage, health.queue_depth, health.queue_capacity,
                  health.breaker_opens_last_cycle);
    snapshot.detail = line;
    if (health.since_last_cycle.count() >= 0) {
      std::snprintf(
          line, sizeof(line), "cycle_age_s: %.3f\n",
          std::chrono::duration<double>(health.since_last_cycle).count());
      snapshot.detail += line;
    }

    const auto fail = [&](const char* reason) {
      snapshot.ready = false;
      snapshot.detail += std::string("not-ready: ") + reason + "\n";
    };
    if (health.cycles_completed == 0) {
      fail("no monitoring cycle has completed yet");
    } else {
      if (health.coverage < rules.min_coverage) {
        std::snprintf(line, sizeof(line),
                      "coverage %.4f below threshold %.4f", health.coverage,
                      rules.min_coverage);
        fail(line);
      }
      if (health.breaker_opens_last_cycle > rules.max_breaker_opens) {
        std::snprintf(line, sizeof(line),
                      "circuit breakers opened last cycle: %zu (max %zu)",
                      health.breaker_opens_last_cycle,
                      rules.max_breaker_opens);
        fail(line);
      }
      const double saturation =
          static_cast<double>(health.queue_depth) /
          static_cast<double>(health.queue_capacity);
      if (saturation > rules.max_queue_saturation) {
        std::snprintf(line, sizeof(line),
                      "notification queue saturated: %zu/%zu",
                      health.queue_depth, health.queue_capacity);
        fail(line);
      }
      if (rules.max_cycle_age.count() > 0 &&
          health.since_last_cycle > rules.max_cycle_age) {
        std::snprintf(
            line, sizeof(line), "last cycle is stale: %.3f s old (max %.3f)",
            std::chrono::duration<double>(health.since_last_cycle).count(),
            std::chrono::duration<double>(rules.max_cycle_age).count());
        fail(line);
      }
    }
    return snapshot;
  };
}

}  // namespace dcv::rcdc

// Coordinator failure-domain tests. Workers here are scripted in-process
// Transports (obedient / crash-after-assign / silent / heartbeat-forever)
// driven by a ManualFetchClock, so every crash, hang, and partition
// scenario — including lease expiry and the hard shard deadline — runs
// deterministically with zero wall-clock sleeping.
#include "dist/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/messages.hpp"
#include "dist/worker.hpp"
#include "obs/metrics_serde.hpp"
#include "obs/span.hpp"
#include "obs/span_serde.hpp"
#include "obs/trace_merge.hpp"
#include "rcdc/contract_gen.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/validator.hpp"
#include "routing/bgp_sim.hpp"
#include "topology/clos_builder.hpp"

namespace dcv::dist {
namespace {

using namespace std::chrono_literals;

/// The fabric as scripted workers see it: each device's current table
/// (by fingerprint) and what verifying that table finds. Tests edit
/// `tables` between cycles to model FIB churn.
struct FakeFabric {
  static constexpr std::uint64_t kContractsPerDevice = 3;

  explicit FakeFabric(std::size_t devices) : tables(devices) {
    for (std::size_t d = 0; d < devices; ++d) {
      tables[d] = 0x9E3779B9u ^ (d * 2654435761u);
    }
  }

  /// Every third device violates one contract; the violation names the
  /// table it was found on, so a stale replay is distinguishable from a
  /// fresh verdict.
  [[nodiscard]] std::vector<rcdc::Violation> verify(
      topo::DeviceId device) const {
    if (device % 3 != 0) return {};
    rcdc::Violation violation;
    violation.device = device;
    violation.kind = rcdc::ViolationKind::kWrongNextHops;
    violation.actual_next_hops = {
        static_cast<topo::DeviceId>(tables[device] & 0xFFFF)};
    return {violation};
  }

  std::vector<std::uint64_t> tables;
};

/// The hello a worker loading `metadata` sends.
HelloMsg hello_for(std::string id, const topo::MetadataService& metadata) {
  HelloMsg hello;
  hello.worker_id = std::move(id);
  hello.topology_epoch = metadata.epoch();
  hello.topology_digest = rcdc::expected_topology_digest(metadata);
  return hello;
}

/// An in-process fake worker implementing the wire protocol from the
/// worker's side, with scriptable misbehavior.
class ScriptedWorker final : public Transport {
 public:
  enum class Mode {
    /// Handshakes, then answers every assignment the way a real worker
    /// does over the FakeFabric: devices whose table still matches the
    /// expected fingerprint are reported replayed, the rest verified (a
    /// small metrics registry rides along).
    kObedient,
    /// Like kObedient, but claims every device replayed, cached verdict or
    /// not.
    kClaimsReplay,
    /// Handshakes, accepts one assignment, then the process "dies": the
    /// connection closes without a result.
    kCrashAfterAssign,
    /// Handshakes, accepts assignments, then goes silent — the connection
    /// stays open but nothing ever comes back (hang/partition). Detected
    /// only by lease expiry.
    kSilentAfterAssign,
    /// Keeps heartbeating its assignment forever without ever producing a
    /// result — the pathological worker the hard shard deadline exists for.
    kHeartbeatForever,
  };

  ScriptedWorker(HelloMsg hello, const FakeFabric& fabric, Mode mode,
                 rcdc::FetchClock* clock = nullptr)
      : id_(hello.worker_id), fabric_(&fabric), mode_(mode), clock_(clock) {
    outbox_.push_back(encode(hello));
  }

  bool send(const Frame& frame) override {
    if (closed_) return false;
    switch (frame.type) {
      case MsgType::kWelcome:
        welcomed_ = true;
        return true;
      case MsgType::kAssign: {
        const auto assign = decode_assign(frame.payload);
        EXPECT_TRUE(assign.has_value()) << id_ << ": malformed assign";
        if (!assign) return true;
        ++assignments_received_;
        trace_contexts_.emplace_back(assign->cycle_id, assign->parent_span);
        switch (mode_) {
          case Mode::kObedient:
          case Mode::kClaimsReplay:
            outbox_.push_back(encode(synthesize_result(*assign)));
            break;
          case Mode::kCrashAfterAssign:
            closed_ = true;
            break;
          case Mode::kSilentAfterAssign:
            break;
          case Mode::kHeartbeatForever:
            active_ = *assign;
            if (clock_ != nullptr) last_heartbeat_ = clock_->now();
            break;
        }
        return true;
      }
      case MsgType::kShutdown:
        shutdown_received_ = true;
        return true;
      default:
        ADD_FAILURE() << id_ << ": unexpected frame " << to_string(frame.type);
        return true;
    }
  }

  std::optional<Frame> poll() override {
    if (!outbox_.empty()) {
      Frame frame = std::move(outbox_.front());
      outbox_.erase(outbox_.begin());
      return frame;
    }
    // Heartbeat-forever mode: one heartbeat per elapsed interval, paced on
    // the injected clock so the coordinator's idle sleeps (which advance
    // simulated time) are what release the next beat.
    if (mode_ == Mode::kHeartbeatForever && active_.has_value() &&
        clock_ != nullptr && clock_->now() - last_heartbeat_ >= 500ms) {
      last_heartbeat_ = clock_->now();
      return encode(HeartbeatMsg{active_->shard_id, active_->attempt, 1});
    }
    return std::nullopt;
  }

  bool closed() const override { return closed_; }
  std::string peer() const override { return id_; }

  [[nodiscard]] bool shutdown_received() const { return shutdown_received_; }
  [[nodiscard]] int assignments_received() const {
    return assignments_received_;
  }
  /// (cycle_id, parent_span) of every assignment received, in order.
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
  trace_contexts() const {
    return trace_contexts_;
  }
  /// Devices this worker verified (not replayed), over its lifetime.
  [[nodiscard]] std::size_t devices_verified() const {
    return devices_verified_;
  }

  /// Overrides the fixed 1ms result timing with a per-assignment model —
  /// the knob the feedback-balancing tests use to fake slow devices.
  void set_elapsed_model(
      std::function<std::uint64_t(const AssignMsg&)> model) {
    elapsed_model_ = std::move(model);
  }

 private:
  ResultMsg synthesize_result(const AssignMsg& assign) {
    ResultMsg result;
    result.shard_id = assign.shard_id;
    result.attempt = assign.attempt;
    result.devices_checked = assign.devices.size();
    result.elapsed_ns =
        elapsed_model_ ? elapsed_model_(assign) : 1'000'000;
    for (const DeviceWork& work : assign.devices) {
      DeviceReport& report = result.reports.emplace_back();
      report.device = work.device;
      report.fingerprint = fabric_->tables[work.device];
      report.replayed =
          mode_ == Mode::kClaimsReplay ||
          (work.expected_fingerprint != 0 &&
           report.fingerprint == work.expected_fingerprint);
      if (report.replayed) continue;
      ++devices_verified_;
      result.contracts_checked += FakeFabric::kContractsPerDevice;
      for (rcdc::Violation& v : fabric_->verify(work.device)) {
        result.violations.push_back(std::move(v));
      }
    }
    obs::MetricsRegistry registry;
    registry.counter("dcv_worker_shards_validated_total", "shards").inc();
    result.registry_blob = obs::serialize_registry(registry);
    return result;
  }

  std::string id_;
  const FakeFabric* fabric_;
  Mode mode_;
  rcdc::FetchClock* clock_;
  std::function<std::uint64_t(const AssignMsg&)> elapsed_model_;
  bool closed_ = false;
  bool welcomed_ = false;
  bool shutdown_received_ = false;
  int assignments_received_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> trace_contexts_;
  std::size_t devices_verified_ = 0;
  std::optional<AssignMsg> active_;
  std::chrono::steady_clock::time_point last_heartbeat_{};
  std::vector<Frame> outbox_;
};

/// A v2-fluent fake worker whose steady clock runs `skew` away from the
/// coordinator's: it stamps hellos/results in its own (skewed) time, echoes
/// the coordinator's send stamps for RTT sampling, and ships a small span
/// tree (shard → fetch + validate) on every result, with starts in its own
/// clock. Exercises the full clock-alignment + trace-merge path.
class SkewedTracedWorker final : public Transport {
 public:
  SkewedTracedWorker(HelloMsg hello, std::chrono::nanoseconds skew,
                     rcdc::FetchClock* clock)
      : id_(hello.worker_id), skew_(skew), clock_(clock) {
    hello.send_ns = remote_now();
    outbox_.push_back(encode(hello));
  }

  bool send(const Frame& frame) override {
    switch (frame.type) {
      case MsgType::kWelcome: {
        const auto welcome = decode_welcome(frame.payload);
        if (welcome.has_value() && welcome->send_ns != 0) {
          peer_tx_ns_ = welcome->send_ns;
          peer_rx_ns_ = remote_now();
        }
        return true;
      }
      case MsgType::kAssign: {
        const auto assign = decode_assign(frame.payload);
        EXPECT_TRUE(assign.has_value()) << id_ << ": malformed assign";
        if (!assign) return true;
        if (assign->send_ns != 0) {
          peer_tx_ns_ = assign->send_ns;
          peer_rx_ns_ = remote_now();
        }
        outbox_.push_back(encode(synthesize_result(*assign)));
        return true;
      }
      default:
        return true;
    }
  }

  std::optional<Frame> poll() override {
    if (outbox_.empty()) return std::nullopt;
    Frame frame = std::move(outbox_.front());
    outbox_.erase(outbox_.begin());
    return frame;
  }

  bool closed() const override { return false; }
  std::string peer() const override { return id_; }

 private:
  [[nodiscard]] std::uint64_t remote_now() const {
    return static_cast<std::uint64_t>(
        (clock_->now() + skew_).time_since_epoch().count());
  }

  ResultMsg synthesize_result(const AssignMsg& assign) {
    ResultMsg result;
    result.shard_id = assign.shard_id;
    result.attempt = assign.attempt;
    result.devices_checked = assign.devices.size();
    result.elapsed_ns = 2'000'000;
    for (const DeviceWork& work : assign.devices) {
      result.reports.push_back({work.device, 0x1234u ^ work.device});
    }
    using std::chrono::nanoseconds;
    // Absolute starts in the *worker's* clock, as span_serde ships them;
    // ids live in the worker's span space (the merger re-keys them).
    const auto base = static_cast<std::int64_t>(remote_now());
    const std::uint64_t shard_span = 100 + assign.shard_id * 10;
    const std::vector<obs::TraceEvent> events = {
        {"fetch", shard_span + 1, shard_span, assign.cycle_id, 0,
         nanoseconds(base + 100), nanoseconds(300)},
        {"validate", shard_span + 2, shard_span, assign.cycle_id, 0,
         nanoseconds(base + 500), nanoseconds(200)},
        {"shard", shard_span, 0, assign.cycle_id, 0, nanoseconds(base),
         nanoseconds(900)},
    };
    result.trace_blob = obs::serialize_trace(events, nanoseconds(0), 0);
    result.send_ns = remote_now();
    result.peer_tx_ns = peer_tx_ns_;
    result.peer_rx_ns = peer_rx_ns_;
    return result;
  }

  std::string id_;
  std::chrono::nanoseconds skew_;
  rcdc::FetchClock* clock_;
  std::uint64_t peer_tx_ns_ = 0;
  std::uint64_t peer_rx_ns_ = 0;
  std::vector<Frame> outbox_;
};

class CoordinatorTest : public testing::Test {
 protected:
  CoordinatorTest()
      : topology_(topo::build_clos(topo::ClosParams{.clusters = 2,
                                                    .tors_per_cluster = 3,
                                                    .leaves_per_cluster = 3,
                                                    .spines_per_plane = 1,
                                                    .regional_spines = 2})),
        metadata_(topology_),
        fabric_(topology_.device_count()) {}

  CoordinatorConfig config() {
    CoordinatorConfig cfg;
    cfg.clock = &clock_;
    cfg.metrics = &registry_;
    cfg.lease = 2s;
    cfg.heartbeat_interval = 500ms;
    cfg.poll_interval = 50ms;
    cfg.shard_deadline = 30s;
    return cfg;
  }

  /// Adds a scripted worker and returns a borrowed pointer (the
  /// coordinator owns the transport).
  ScriptedWorker* add(Coordinator& coordinator, const std::string& id,
                      ScriptedWorker::Mode mode) {
    auto worker = std::make_unique<ScriptedWorker>(hello_for(id, metadata_),
                                                   fabric_, mode, &clock_);
    ScriptedWorker* raw = worker.get();
    coordinator.add_worker(std::move(worker));
    return raw;
  }

  /// Merged violations of a cycle, in a canonical order.
  static std::vector<rcdc::Violation> sorted(
      std::vector<rcdc::Violation> violations) {
    std::sort(violations.begin(), violations.end(),
              [](const rcdc::Violation& a, const rcdc::Violation& b) {
                return a.device < b.device;
              });
    return violations;
  }

  topo::Topology topology_;
  topo::MetadataService metadata_;
  FakeFabric fabric_;
  rcdc::ManualFetchClock clock_;
  obs::MetricsRegistry registry_;
};

TEST_F(CoordinatorTest, HappyPathThreeWorkers) {
  Coordinator coordinator(metadata_, config());
  std::vector<ScriptedWorker*> workers = {
      add(coordinator, "w0", ScriptedWorker::Mode::kObedient),
      add(coordinator, "w1", ScriptedWorker::Mode::kObedient),
      add(coordinator, "w2", ScriptedWorker::Mode::kObedient)};
  EXPECT_EQ(coordinator.pump(3, 5s), 3u);

  const DistributedSummary summary = coordinator.run_cycle();
  EXPECT_EQ(summary.workers_connected, 3u);
  EXPECT_EQ(summary.workers_lost, 0u);
  EXPECT_EQ(summary.shards_failed, 0u);
  EXPECT_EQ(summary.reassignments, 0u);
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);
  EXPECT_FALSE(summary.degraded());
  EXPECT_EQ(summary.merged.devices_checked, topology_.device_count());
  EXPECT_GT(summary.merged.contracts_checked, 0u);
  // Shards are carved at ~4 per live worker (ceil-division may merge the
  // tail, but there are always enough to spread across the fleet).
  EXPECT_GE(summary.shards.size(), 3u);
  EXPECT_LE(summary.shards.size(), 12u);
  for (const ShardOutcome& shard : summary.shards) {
    EXPECT_EQ(shard.status, ShardStatus::kValidated);
    EXPECT_FALSE(shard.degraded_confidence);
    EXPECT_EQ(shard.attempts, 1u);
  }
  // Every device's verdict is cached at the coordinator.
  EXPECT_EQ(coordinator.verdicts().size(), topology_.device_count());
  EXPECT_EQ(summary.merged.contracts_checked,
            topology_.device_count() * FakeFabric::kContractsPerDevice);
  // All three workers did work (queue-stealing may skew the split, but
  // nobody is idle with 4 shards each carved for them).
  for (ScriptedWorker* worker : workers) {
    EXPECT_GT(worker->assignments_received(), 0);
  }
  // Worker registries were folded in under {worker=<id>} labels.
  EXPECT_GT(registry_
                .counter("dcv_worker_shards_validated_total", "",
                         {{"worker", "w1"}})
                .value(),
            0u);
  EXPECT_EQ(coordinator.cycles_completed(), 1u);

  coordinator.shutdown_workers();
  for (ScriptedWorker* worker : workers) {
    EXPECT_TRUE(worker->shutdown_received());
  }
}

TEST_F(CoordinatorTest, FeedbackRebalancesShardsTowardEqualTime) {
  Coordinator coordinator(metadata_, config());
  ScriptedWorker* worker =
      add(coordinator, "w0", ScriptedWorker::Mode::kObedient);
  // Synthetic skew: the five lowest-id devices are 10x slower to validate.
  worker->set_elapsed_model([](const AssignMsg& assign) {
    std::uint64_t total = 0;
    for (const DeviceWork& work : assign.devices) {
      total += work.device < 5 ? 10'000'000 : 1'000'000;
    }
    return total;
  });
  EXPECT_EQ(coordinator.pump(1, 5s), 1u);

  const DistributedSummary first = coordinator.run_cycle();
  ASSERT_EQ(first.shards_failed, 0u);
  // Cold carve is count-balanced: the lead shard holds ceil(17/4) devices
  // — all five of the slow ones.
  EXPECT_EQ(first.shards.front().devices, 5u);

  const DistributedSummary second = coordinator.run_cycle();
  ASSERT_EQ(second.shards_failed, 0u);
  // The balancer learned where the time went: slow devices get carved into
  // smaller shards, the cheap tail into bigger ones.
  EXPECT_LT(second.shards.front().devices, first.shards.front().devices);
  EXPECT_GT(second.shards.back().devices, second.shards.front().devices);
  std::size_t total_devices = 0;
  for (const ShardOutcome& shard : second.shards) {
    total_devices += shard.devices;
  }
  EXPECT_EQ(total_devices, topology_.device_count());
  EXPECT_GT(coordinator.balancer().cost(0),
            4.0 * coordinator.balancer().cost(16));
}

TEST_F(CoordinatorTest, CrashReassignedWithinCycle) {
  Coordinator coordinator(metadata_, config());
  add(coordinator, "steady", ScriptedWorker::Mode::kObedient);
  add(coordinator, "crasher", ScriptedWorker::Mode::kCrashAfterAssign);
  EXPECT_EQ(coordinator.pump(2, 5s), 2u);

  const DistributedSummary summary = coordinator.run_cycle();
  // The crasher's shard moved to the survivor: full coverage, no failed
  // shards, but the event is visible as a loss + reassignment and the
  // recovered shard carries degraded confidence.
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);
  EXPECT_FALSE(summary.degraded());
  EXPECT_EQ(summary.workers_lost, 1u);
  EXPECT_GE(summary.reassignments, 1u);
  std::size_t recovered = 0;
  for (const ShardOutcome& shard : summary.shards) {
    if (shard.status == ShardStatus::kRecovered) {
      ++recovered;
      EXPECT_TRUE(shard.degraded_confidence);
      EXPECT_EQ(shard.worker, "steady");
      EXPECT_GE(shard.attempts, 2u);
    }
  }
  EXPECT_GE(recovered, 1u);
  EXPECT_EQ(coordinator.live_workers(), 1u);
}

TEST_F(CoordinatorTest, CrashBudgetExhaustedDegradesThenRecovers) {
  // Retry budget 0: a lost shard fails immediately. This is the
  // deterministic twin of the kill-one-of-three process test.
  CoordinatorConfig cfg = config();
  cfg.shard_retry_budget = 0;
  Coordinator coordinator(metadata_, cfg);
  add(coordinator, "w0", ScriptedWorker::Mode::kObedient);
  add(coordinator, "w1", ScriptedWorker::Mode::kObedient);
  add(coordinator, "crasher", ScriptedWorker::Mode::kCrashAfterAssign);
  EXPECT_EQ(coordinator.pump(3, 5s), 3u);

  const DistributedSummary degraded = coordinator.run_cycle();
  EXPECT_LT(degraded.coverage(), 1.0);
  EXPECT_TRUE(degraded.degraded());
  EXPECT_GE(degraded.shards_failed, 1u);
  std::size_t failed_devices = 0;
  for (const ShardOutcome& shard : degraded.shards) {
    if (shard.status == ShardStatus::kFailed) {
      EXPECT_TRUE(shard.degraded_confidence);
      EXPECT_TRUE(shard.worker.empty());
      failed_devices += shard.devices;
    }
  }
  // Coverage dropped by exactly the failed shards' devices.
  EXPECT_EQ(degraded.merged.devices_failed, failed_devices);
  EXPECT_DOUBLE_EQ(
      degraded.coverage(),
      1.0 - static_cast<double>(failed_devices) /
                static_cast<double>(topology_.device_count()));

  // Next cycle the survivors carry the whole fleet: coverage back to 1.0.
  const DistributedSummary recovered = coordinator.run_cycle();
  EXPECT_DOUBLE_EQ(recovered.coverage(), 1.0);
  EXPECT_FALSE(recovered.degraded());
  EXPECT_EQ(coordinator.cycles_completed(), 2u);
}

TEST_F(CoordinatorTest, HangDetectedByLeaseExpiry) {
  Coordinator coordinator(metadata_, config());
  add(coordinator, "steady", ScriptedWorker::Mode::kObedient);
  add(coordinator, "hung", ScriptedWorker::Mode::kSilentAfterAssign);
  EXPECT_EQ(coordinator.pump(2, 5s), 2u);

  const DistributedSummary summary = coordinator.run_cycle();
  // The silent worker holds its shard until the lease (2 s simulated)
  // expires, then the shard is reassigned. No wall time passed. (The
  // coordinator frees lost workers at cycle end, so don't touch the
  // ScriptedWorker pointer after run_cycle — a lease can only expire on
  // an assigned shard, which workers_lost + reassignments already prove.)
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);
  EXPECT_EQ(summary.workers_lost, 1u);
  EXPECT_GE(summary.reassignments, 1u);
  EXPECT_EQ(coordinator.live_workers(), 1u);
  EXPECT_GT(
      registry_
          .counter("dcv_dist_workers_lost_total", "",
                   {{"reason", "lease_expired"}})
          .value(),
      0u);
}

TEST_F(CoordinatorTest, HeartbeatCannotExtendPastShardDeadline) {
  CoordinatorConfig cfg = config();
  cfg.shard_deadline = 6s;  // a few lease renewals, then the axe
  Coordinator coordinator(metadata_, cfg);
  add(coordinator, "steady", ScriptedWorker::Mode::kObedient);
  add(coordinator, "stuck", ScriptedWorker::Mode::kHeartbeatForever);
  EXPECT_EQ(coordinator.pump(2, 5s), 2u);

  const DistributedSummary summary = coordinator.run_cycle();
  // The stuck worker renewed its lease via heartbeats yet still lost the
  // shard at the hard deadline; the cycle completed with full coverage.
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);
  EXPECT_EQ(summary.workers_lost, 1u);
  EXPECT_GT(registry_
                .counter("dcv_dist_workers_lost_total", "",
                         {{"reason", "shard_deadline"}})
                .value(),
            0u);
}

TEST_F(CoordinatorTest, AllWorkersLostFailsEveryShardWithoutHanging) {
  CoordinatorConfig cfg = config();
  cfg.shard_retry_budget = 1;
  Coordinator coordinator(metadata_, cfg);
  add(coordinator, "c0", ScriptedWorker::Mode::kCrashAfterAssign);
  add(coordinator, "c1", ScriptedWorker::Mode::kCrashAfterAssign);
  EXPECT_EQ(coordinator.pump(2, 5s), 2u);

  const DistributedSummary summary = coordinator.run_cycle();
  EXPECT_EQ(summary.workers_lost, 2u);
  EXPECT_EQ(summary.shards_failed, summary.shards.size());
  EXPECT_DOUBLE_EQ(summary.coverage(), 0.0);
  EXPECT_TRUE(summary.degraded());
  EXPECT_EQ(summary.merged.devices_failed, topology_.device_count());
  EXPECT_EQ(coordinator.live_workers(), 0u);
}

TEST_F(CoordinatorTest, NoWorkersYieldsFullyFailedCycle) {
  Coordinator coordinator(metadata_, config());
  const DistributedSummary summary = coordinator.run_cycle();
  EXPECT_EQ(summary.workers_connected, 0u);
  EXPECT_TRUE(summary.degraded());
  EXPECT_DOUBLE_EQ(summary.coverage(), 0.0);
}

TEST_F(CoordinatorTest, RejectsWrongEpochAndWrongProtocol) {
  Coordinator coordinator(metadata_, config());
  HelloMsg wrong_epoch = hello_for("time-traveler", metadata_);
  ++wrong_epoch.topology_epoch;
  HelloMsg wrong_protocol = hello_for("alien", metadata_);
  wrong_protocol.protocol = kProtocolVersion + 7;
  HelloMsg v2 = hello_for("v2", metadata_);
  v2.protocol = 2;
  for (const HelloMsg& hello : {wrong_epoch, wrong_protocol, v2}) {
    coordinator.add_worker(std::make_unique<ScriptedWorker>(
        hello, fabric_, ScriptedWorker::Mode::kObedient));
  }
  EXPECT_EQ(coordinator.pump(3, 1s), 0u);
  EXPECT_EQ(coordinator.live_workers(), 0u);
  EXPECT_EQ(registry_.counter("dcv_dist_workers_rejected_total", "").value(),
            3u);
}

TEST_F(CoordinatorTest, RejectsMismatchedTopologyDigest) {
  // Same epoch (the same count of edits), different facts: the worker
  // would plan other contracts, so it must not join.
  Coordinator coordinator(metadata_, config());
  HelloMsg other_topology = hello_for("elsewhere", metadata_);
  ++other_topology.topology_digest;
  coordinator.add_worker(std::make_unique<ScriptedWorker>(
      other_topology, fabric_, ScriptedWorker::Mode::kObedient));
  add(coordinator, "local", ScriptedWorker::Mode::kObedient);
  EXPECT_EQ(coordinator.pump(2, 1s), 1u);
  EXPECT_EQ(registry_.counter("dcv_dist_workers_rejected_total", "").value(),
            1u);
}

TEST_F(CoordinatorTest, WarmCycleChecksNothingAndReplaysVerdicts) {
  Coordinator coordinator(metadata_, config());
  std::vector<ScriptedWorker*> workers = {
      add(coordinator, "w0", ScriptedWorker::Mode::kObedient),
      add(coordinator, "w1", ScriptedWorker::Mode::kObedient)};
  EXPECT_EQ(coordinator.pump(2, 5s), 2u);

  const DistributedSummary cold = coordinator.run_cycle();
  ASSERT_DOUBLE_EQ(cold.coverage(), 1.0);
  ASSERT_FALSE(cold.merged.violations.empty());
  EXPECT_EQ(cold.merged.contracts_checked,
            topology_.device_count() * FakeFabric::kContractsPerDevice);

  const DistributedSummary warm = coordinator.run_cycle();
  EXPECT_DOUBLE_EQ(warm.coverage(), 1.0);
  EXPECT_EQ(warm.merged.devices_checked, topology_.device_count());
  EXPECT_EQ(warm.merged.contracts_checked, 0u);
  EXPECT_EQ(sorted(warm.merged.violations), sorted(cold.merged.violations));
  EXPECT_EQ(workers[0]->devices_verified() + workers[1]->devices_verified(),
            topology_.device_count());
}

TEST_F(CoordinatorTest, ChangedFibReverifiesExactlyThatDevice) {
  Coordinator coordinator(metadata_, config());
  std::vector<ScriptedWorker*> workers = {
      add(coordinator, "w0", ScriptedWorker::Mode::kObedient),
      add(coordinator, "w1", ScriptedWorker::Mode::kObedient)};
  EXPECT_EQ(coordinator.pump(2, 5s), 2u);
  const DistributedSummary cold = coordinator.run_cycle();
  ASSERT_DOUBLE_EQ(cold.coverage(), 1.0);

  // Device 6 violates a contract; its table changes, and so does what
  // verifying it finds.
  constexpr topo::DeviceId kChanged = 6;
  fabric_.tables[kChanged] ^= 0xBEEF;
  const DistributedSummary warm = coordinator.run_cycle();
  EXPECT_DOUBLE_EQ(warm.coverage(), 1.0);
  EXPECT_EQ(warm.merged.contracts_checked, FakeFabric::kContractsPerDevice);
  EXPECT_EQ(workers[0]->devices_verified() + workers[1]->devices_verified(),
            topology_.device_count() + 1);
  EXPECT_EQ(coordinator.verdicts().fingerprint(kChanged),
            fabric_.tables[kChanged]);

  // The merged picture is the cold one with device 6's verdict refreshed.
  std::vector<rcdc::Violation> expected = sorted(cold.merged.violations);
  for (rcdc::Violation& v : expected) {
    if (v.device == kChanged) v = fabric_.verify(kChanged).front();
  }
  EXPECT_EQ(sorted(warm.merged.violations), expected);
}

TEST_F(CoordinatorTest, ShardReassignedMidCycleStillReplays) {
  Coordinator coordinator(metadata_, config());
  ScriptedWorker* steady =
      add(coordinator, "steady", ScriptedWorker::Mode::kObedient);
  EXPECT_EQ(coordinator.pump(1, 5s), 1u);
  const DistributedSummary cold = coordinator.run_cycle();
  ASSERT_DOUBLE_EQ(cold.coverage(), 1.0);
  ASSERT_EQ(steady->devices_verified(), topology_.device_count());

  // A new worker takes a shard of the warm cycle and dies holding it; the
  // survivor gets the shard again, with the same expected fingerprints,
  // and replays it: the cache lives at the coordinator.
  add(coordinator, "crasher", ScriptedWorker::Mode::kCrashAfterAssign);
  EXPECT_EQ(coordinator.pump(2, 5s), 2u);
  const DistributedSummary warm = coordinator.run_cycle();
  EXPECT_DOUBLE_EQ(warm.coverage(), 1.0);
  EXPECT_EQ(warm.workers_lost, 1u);
  EXPECT_GE(warm.reassignments, 1u);
  EXPECT_EQ(warm.merged.contracts_checked, 0u);
  EXPECT_EQ(steady->devices_verified(), topology_.device_count());
  EXPECT_EQ(sorted(warm.merged.violations), sorted(cold.merged.violations));
}

TEST_F(CoordinatorTest, ReplayClaimWithoutCachedVerdictLeavesDeviceFailed) {
  Coordinator coordinator(metadata_, config());
  add(coordinator, "liar", ScriptedWorker::Mode::kClaimsReplay);
  EXPECT_EQ(coordinator.pump(1, 5s), 1u);
  // Nothing is cached yet, so no claimed replay can be honoured.
  const DistributedSummary summary = coordinator.run_cycle();
  EXPECT_EQ(summary.merged.devices_failed, topology_.device_count());
  EXPECT_DOUBLE_EQ(summary.coverage(), 0.0);
  EXPECT_TRUE(summary.merged.violations.empty());
  EXPECT_EQ(coordinator.verdicts().size(), 0u);
}

TEST_F(CoordinatorTest, FleetProbeTracksReadiness) {
  Coordinator coordinator(metadata_, config());
  FleetReadinessRules rules;
  rules.min_workers = 1;
  rules.min_coverage = 0.95;
  const obs::HealthProbe probe = make_fleet_probe(coordinator, rules);

  // No workers, no cycles: alive but not ready.
  obs::HealthSnapshot snapshot = probe();
  EXPECT_TRUE(snapshot.alive);
  EXPECT_FALSE(snapshot.ready);

  add(coordinator, "w0", ScriptedWorker::Mode::kObedient);
  EXPECT_EQ(coordinator.pump(1, 5s), 1u);
  snapshot = probe();
  EXPECT_FALSE(snapshot.ready) << "no completed cycle yet";

  (void)coordinator.run_cycle();
  snapshot = probe();
  EXPECT_TRUE(snapshot.ready) << snapshot.detail;

  // A degraded cycle (worker gone, every shard failed) flips it back.
  coordinator.shutdown_workers();
  CoordinatorConfig cfg = config();
  cfg.shard_retry_budget = 0;
  Coordinator degraded_coordinator(metadata_, cfg);
  const obs::HealthProbe degraded_probe =
      make_fleet_probe(degraded_coordinator, rules);
  add(degraded_coordinator, "c", ScriptedWorker::Mode::kCrashAfterAssign);
  EXPECT_EQ(degraded_coordinator.pump(1, 5s), 1u);
  (void)degraded_coordinator.run_cycle();
  snapshot = degraded_probe();
  EXPECT_FALSE(snapshot.ready);
  EXPECT_NE(snapshot.detail.find("coverage"), std::string::npos);
}

TEST_F(CoordinatorTest, MergedTraceNestsWorkerSpansUnderAssignSpans) {
  obs::TraceRing trace(4096);
  CoordinatorConfig cfg = config();
  cfg.trace = &trace;
  Coordinator coordinator(metadata_, cfg);
  // The worker's steady clock runs 250 ms ahead of the coordinator's.
  constexpr auto kSkew = 250ms;
  coordinator.add_worker(std::make_unique<SkewedTracedWorker>(
      hello_for("skewed", metadata_), kSkew, &clock_));
  EXPECT_EQ(coordinator.pump(1, 5s), 1u);

  const DistributedSummary summary = coordinator.run_cycle();
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);
  for (const ShardOutcome& shard : summary.shards) {
    EXPECT_GT(shard.elapsed_ns, 0u);
  }

  // The estimator learned the skew (worker minus coordinator, positive):
  // midpoint-of-RTT is only good to half the poll latency, so the bound is
  // loose but the sign and magnitude must be right.
  const double offset_ns =
      registry_
          .gauge("dcv_dist_clock_offset_ns", "", {{"worker", "skewed"}})
          .value();
  EXPECT_GT(offset_ns, 0.0);
  EXPECT_NEAR(offset_ns, 2.5e8, 1.5e8);

  const obs::MergedTrace merged = coordinator.merger().snapshot();
  ASSERT_GE(merged.tracks.size(), 2u);
  EXPECT_EQ(merged.tracks[0].process, "coordinator");
  EXPECT_EQ(merged.truncated, 0u);
  EXPECT_EQ(merged.remote_dropped, 0u);

  // Index the coordinator's own spans: one "cycle" root, one "assign" per
  // delivered shard.
  std::map<std::uint64_t, const obs::TraceEvent*> assigns;
  bool saw_cycle = false;
  for (const obs::TraceEvent& event : merged.tracks[0].events) {
    if (event.name == "assign") assigns[event.id] = &event;
    if (event.name == "cycle") saw_cycle = true;
  }
  EXPECT_TRUE(saw_cycle);
  ASSERT_FALSE(assigns.empty());

  const obs::MergedTrack* worker_track = nullptr;
  for (const obs::MergedTrack& track : merged.tracks) {
    if (track.process == "skewed") worker_track = &track;
  }
  ASSERT_NE(worker_track, nullptr);
  ASSERT_FALSE(worker_track->events.empty());

  std::map<std::uint64_t, const obs::TraceEvent*> worker_spans;
  for (const obs::TraceEvent& event : worker_track->events) {
    worker_spans[event.id] = &event;
  }
  std::size_t shard_roots = 0;
  for (const obs::TraceEvent& event : worker_track->events) {
    if (event.name == "shard") {
      // The batch root was re-parented under the owning shard's assign
      // span, and — after the offset rewrite + causal clamp — never starts
      // before it on the merged timeline.
      ++shard_roots;
      const auto assign = assigns.find(event.parent);
      ASSERT_NE(assign, assigns.end())
          << "shard span's parent is not an assign span";
      EXPECT_GE(event.start.count(), assign->second->start.count());
      EXPECT_EQ(event.cycle, assign->second->cycle);
    } else {
      // fetch/validate keep their in-batch parent (the shard root).
      const auto parent = worker_spans.find(event.parent);
      ASSERT_NE(parent, worker_spans.end())
          << event.name << " has an unresolvable parent";
      EXPECT_EQ(parent->second->name, "shard");
      EXPECT_GE(event.start.count(), parent->second->start.count());
    }
  }
  EXPECT_EQ(shard_roots, assigns.size());
}

/// Drives a real WorkerSession without a coordinator: hands it a welcome,
/// the queued assignments and a shutdown, and keeps what it sends back.
class ReplayTransport final : public Transport {
 public:
  explicit ReplayTransport(const std::vector<AssignMsg>& assignments) {
    inbox_.push_back(encode(WelcomeMsg{}));
    for (const AssignMsg& assign : assignments) {
      inbox_.push_back(encode(assign));
    }
    inbox_.push_back(encode_shutdown());
  }

  bool send(const Frame& frame) override {
    if (frame.type == MsgType::kResult) {
      const auto result = decode_result(frame.payload);
      EXPECT_TRUE(result.has_value()) << "malformed result";
      if (result) results.push_back(*result);
    }
    return true;
  }

  std::optional<Frame> poll() override {
    if (inbox_.empty()) return std::nullopt;
    Frame frame = std::move(inbox_.front());
    inbox_.erase(inbox_.begin());
    return frame;
  }

  bool closed() const override { return inbox_.empty(); }
  std::string peer() const override { return "replay"; }

  std::vector<ResultMsg> results;

 private:
  std::vector<Frame> inbox_;
};

// An untraced coordinator stamps no trace context on its assignments (as
// messages.hpp documents), and a real worker answering such an assignment
// ships no spans; a traced one still gets the worker's span tree, which
// merges under the assign span (MergedTraceNestsWorkerSpansUnderAssignSpans
// and the real-TCP ThreeWorkerCycleMergesOneCausalTimeline cover the merge).
TEST_F(CoordinatorTest, UntracedCycleCarriesNoTraceContextOrSpans) {
  {
    Coordinator untraced(metadata_, config());
    ScriptedWorker* worker =
        add(untraced, "plain", ScriptedWorker::Mode::kObedient);
    EXPECT_EQ(untraced.pump(1, 5s), 1u);
    EXPECT_DOUBLE_EQ(untraced.run_cycle().coverage(), 1.0);
    ASSERT_FALSE(worker->trace_contexts().empty());
    for (const auto& [cycle_id, parent_span] : worker->trace_contexts()) {
      EXPECT_EQ(cycle_id, 0u);
      EXPECT_EQ(parent_span, 0u);
    }
  }
  {
    obs::TraceRing trace(1024);
    CoordinatorConfig cfg = config();
    cfg.trace = &trace;
    Coordinator traced(metadata_, cfg);
    ScriptedWorker* worker =
        add(traced, "traced", ScriptedWorker::Mode::kObedient);
    EXPECT_EQ(traced.pump(1, 5s), 1u);
    EXPECT_DOUBLE_EQ(traced.run_cycle().coverage(), 1.0);
    ASSERT_FALSE(worker->trace_contexts().empty());
    for (const auto& [cycle_id, parent_span] : worker->trace_contexts()) {
      EXPECT_NE(cycle_id, 0u);
      EXPECT_NE(parent_span, 0u);
    }
  }

  // The real worker, fed one untraced and one traced assignment of the
  // same devices.
  const routing::BgpSimulator simulator(topology_);
  const rcdc::SimulatorFibSource fibs(simulator);
  WorkerSession session(metadata_, fibs, rcdc::make_trie_verifier_factory());
  AssignMsg untraced;
  untraced.plan_epoch = metadata_.epoch();
  for (topo::DeviceId d = 0; d < topology_.device_count(); ++d) {
    untraced.devices.push_back({d, 0});
  }
  AssignMsg traced = untraced;
  traced.shard_id = 1;
  traced.cycle_id = 7;
  traced.parent_span = 99;
  ReplayTransport transport({untraced, traced});
  EXPECT_EQ(session.run(transport), SessionEnd::kShutdown);
  ASSERT_EQ(transport.results.size(), 2u);

  const ResultMsg& plain = transport.results[0];
  EXPECT_EQ(plain.devices_checked, topology_.device_count());
  EXPECT_GT(plain.contracts_checked, 0u);
  EXPECT_TRUE(plain.trace_blob.empty());

  const ResultMsg& with_spans = transport.results[1];
  EXPECT_EQ(with_spans.contracts_checked, plain.contracts_checked);
  obs::DecodedTrace spans;
  ASSERT_TRUE(obs::deserialize_trace(with_spans.trace_blob, spans));
  std::size_t shard_roots = 0;
  std::size_t fetches = 0;
  for (const obs::TraceEvent& event : spans.events) {
    EXPECT_EQ(event.cycle, 7u);
    if (event.name == "shard") ++shard_roots;
    if (event.name == "fetch") ++fetches;
  }
  EXPECT_EQ(shard_roots, 1u);
  EXPECT_GT(fetches, 0u);
}

TEST_F(CoordinatorTest, DuplicateWorkerIdsStayDistinguishable) {
  Coordinator coordinator(metadata_, config());
  add(coordinator, "twin", ScriptedWorker::Mode::kObedient);
  add(coordinator, "twin", ScriptedWorker::Mode::kObedient);
  EXPECT_EQ(coordinator.pump(2, 5s), 2u);
  const DistributedSummary summary = coordinator.run_cycle();
  EXPECT_DOUBLE_EQ(summary.coverage(), 1.0);
  // The second "twin" was renamed on admission, so shard outcomes never
  // ambiguously attribute work.
  bool saw_suffixed = false;
  for (const ShardOutcome& shard : summary.shards) {
    if (shard.worker != "twin") {
      EXPECT_EQ(shard.worker.rfind("twin#", 0), 0u) << shard.worker;
      saw_suffixed = true;
    }
  }
  EXPECT_TRUE(saw_suffixed);
}

}  // namespace
}  // namespace dcv::dist

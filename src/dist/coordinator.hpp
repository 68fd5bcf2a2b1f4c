#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/clock_sync.hpp"
#include "dist/messages.hpp"
#include "dist/shard_balancer.hpp"
#include "dist/transport.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_merge.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/validator.hpp"
#include "rcdc/verdict_cache.hpp"
#include "topology/metadata.hpp"

namespace dcv::dist {

struct CoordinatorConfig {
  /// A shard assignment not renewed (heartbeat/result) within this window
  /// is considered lost: the owning worker is declared dead and the shard
  /// is reassigned. Should be several multiples of heartbeat_interval.
  std::chrono::nanoseconds lease{std::chrono::seconds(5)};
  /// Advertised to workers in kWelcome; workers heartbeat at this cadence
  /// while validating.
  std::chrono::nanoseconds heartbeat_interval{std::chrono::seconds(1)};
  /// Event-loop idle sleep between polls when nothing is arriving.
  std::chrono::nanoseconds poll_interval{std::chrono::milliseconds(2)};
  /// A worker that connects but never completes the hello handshake is
  /// dropped after this long.
  std::chrono::nanoseconds hello_deadline{std::chrono::seconds(10)};
  /// Hard per-delivery cap: heartbeats renew the lease but can never push
  /// one shard delivery past this, so a worker that heartbeats forever
  /// without producing a result still cannot hang the cycle.
  std::chrono::nanoseconds shard_deadline{std::chrono::minutes(5)};
  /// Extra deliveries a shard may consume after its first assignment is
  /// lost. Once exhausted the shard is marked failed and the cycle
  /// completes with coverage < 1.0 instead of retrying forever.
  std::uint32_t shard_retry_budget = 2;
  /// Shards carved per connected worker at cycle start; > 1 keeps the unit
  /// of loss/reassignment smaller than a whole worker's load and lets
  /// fast workers steal from the queue.
  std::uint32_t shards_per_worker = 4;
  /// When non-null (must outlive the coordinator), receives dcv_dist_*
  /// series plus every worker's merged registry labeled {worker=<id>}.
  obs::MetricsRegistry* metrics = nullptr;
  /// When non-null (must outlive the coordinator), receives the
  /// coordinator's own cycle/assign spans, and anchors the merged fleet
  /// timeline: worker span trees arriving in results are re-parented under
  /// their shard's assign span and rebased onto this ring's epoch (see
  /// merger()).
  obs::TraceRing* trace = nullptr;
  /// Injected time source; defaults to the shared SystemFetchClock. Tests
  /// drive lease expiry and idle sleeps with a ManualFetchClock so no
  /// failure scenario ever wall-sleeps.
  rcdc::FetchClock* clock = nullptr;
};

enum class ShardStatus : std::uint8_t {
  /// A worker returned a result for the shard's current attempt.
  kValidated,
  /// Validated, but only after at least one assignment was lost to a
  /// worker crash/hang and the shard was re-delivered.
  kRecovered,
  /// Retry budget exhausted (or no workers left): the shard's devices were
  /// never validated this cycle and count against coverage.
  kFailed,
};

[[nodiscard]] std::string_view to_string(ShardStatus status);

/// Per-shard account of one cycle, carried into the distributed report.
struct ShardOutcome {
  std::uint32_t shard_id = 0;
  /// Worker that produced the accepted result ("" for failed shards).
  std::string worker;
  std::size_t devices = 0;
  /// Deliveries consumed (1 = clean first-assignment validation).
  std::uint32_t attempts = 0;
  /// Worker-reported wall time of the accepted validation (0 for failed
  /// shards) — the same figure feeding dcv_dist_shard_elapsed_ns, carried
  /// per shard so slow shards are attributable from the report alone.
  std::uint64_t elapsed_ns = 0;
  ShardStatus status = ShardStatus::kFailed;
  /// True for results that warrant reduced trust: the shard failed
  /// outright, or was validated only via reassignment after a loss (its
  /// first observation window is unknown territory).
  bool degraded_confidence = true;
};

/// Merged result of one distributed validation cycle. Failed shards'
/// devices are folded into merged.devices_failed, so merged.coverage()
/// reflects fleet losses the same way single-process coverage reflects
/// fetch failures.
struct DistributedSummary {
  rcdc::ValidationSummary merged;
  std::vector<ShardOutcome> shards;
  std::size_t workers_connected = 0;
  std::size_t workers_lost = 0;
  std::size_t shards_failed = 0;
  std::size_t reassignments = 0;

  [[nodiscard]] double coverage() const { return merged.coverage(); }
  [[nodiscard]] bool degraded() const { return shards_failed > 0; }
};

/// Readiness thresholds for the fleet /readyz probe.
struct FleetReadinessRules {
  /// Fewer live workers than this fails readiness.
  std::size_t min_workers = 1;
  /// Last cycle's coverage below this fails readiness.
  double min_coverage = 0.9;
  /// More shards failed last cycle than this fails readiness.
  std::size_t max_failed_shards = 0;
};

/// The distribution layer of the paper's §2.6 deployment story: one
/// coordinator owns shard assignment and the fleet's verdict cache; N
/// worker processes each plan contracts from the same expected topology
/// (checked at the handshake by epoch and digest), run fetch→validate over
/// their shard and stream results back. The coordinator is the only
/// component that sees the whole run.
///
/// Warm cycles skip unchanged devices: each assignment names, per device,
/// the fingerprint of the table behind its cached verdict. A worker whose
/// fetched table still has that fingerprint reports the device as replayed
/// without verifying it, and the coordinator replays the cached violations.
/// The cache lives here, not on the workers, so a shard re-delivered to
/// another worker after a loss replays just the same.
///
/// Failure handling is the point of this class: worker crashes (closed
/// transport), hangs and partitions (lease expiry) all funnel into the
/// same path — the lost shard is reassigned to a surviving worker with an
/// incremented attempt counter, up to shard_retry_budget extra deliveries,
/// after which the shard is marked failed and the cycle *completes* with
/// coverage < 1.0. run_cycle() never hangs and never throws on worker
/// failure; losing the whole fleet yields a summary with every pending
/// shard failed.
///
/// Single-threaded event loop; not thread-safe. health() is the one
/// exception: it reads atomics and may be called from a telemetry thread.
class Coordinator {
 public:
  Coordinator(const topo::MetadataService& metadata,
              CoordinatorConfig config = {});

  /// Adopts a connected worker channel. The worker joins the fleet once
  /// its kHello arrives (validated during pump()/run_cycle()); a hello
  /// with the wrong protocol, topology epoch or topology digest gets the
  /// connection closed.
  void add_worker(std::unique_ptr<Transport> transport);

  /// Processes handshakes/heartbeats while idle, sleeping on the injected
  /// clock, until `deadline` elapses or `target_workers` are live.
  /// Returns the live worker count.
  std::size_t pump(std::size_t target_workers,
                   std::chrono::nanoseconds deadline);

  /// Runs one full validation cycle over every device in the topology.
  /// Blocks until every shard is validated or failed; total time is
  /// bounded by shards × (1 + retry budget) × lease even if every worker
  /// misbehaves.
  [[nodiscard]] DistributedSummary run_cycle();

  /// Broadcasts kShutdown to every live worker (best effort).
  void shutdown_workers();

  [[nodiscard]] std::size_t live_workers() const;
  [[nodiscard]] std::uint64_t cycles_completed() const {
    return cycles_completed_.load(std::memory_order_relaxed);
  }

  /// The fleet's verdict cache: per device, the fingerprint of the table
  /// behind its latest verdict and that verdict's violations (devices
  /// never fetched successfully hold none). Keyed to the topology epoch.
  [[nodiscard]] const rcdc::VerdictCache& verdicts() const {
    return verdicts_;
  }

  /// The feedback cost model steering next-cycle shard carving. Exposed
  /// for inspection: cost estimates are internal state, not a report.
  [[nodiscard]] const ShardBalancer& balancer() const { return balancer_; }

  /// Thread-safe snapshot for the fleet /readyz probe.
  struct Health {
    std::size_t workers_live = 0;
    std::uint64_t workers_lost_total = 0;
    std::uint64_t cycles_completed = 0;
    double last_coverage = 1.0;
    std::uint64_t shards_failed_last_cycle = 0;
    bool cycle_in_progress = false;
  };
  [[nodiscard]] Health health() const;

  /// The fleet trace: the coordinator's local spans plus every worker span
  /// tree merged onto the coordinator timeline. Thread-safe (snapshot());
  /// valid for the coordinator's lifetime, useful only when config.trace
  /// was set.
  [[nodiscard]] const obs::TraceMerger& merger() const { return *merger_; }

 private:
  struct Worker {
    std::string id;          // from hello; peer address until then
    std::unique_ptr<Transport> transport;
    bool hello_done = false;
    std::chrono::steady_clock::time_point admitted_at;  // hello deadline
    /// Index into shards_ of the assignment in flight, or nullopt.
    std::optional<std::size_t> active_shard;
    bool dead = false;
    /// Offset of this worker's steady clock, estimated from timestamp
    /// echoes on its heartbeats/results (zero-stamped peers stay
    /// unsynchronized and merge with offset 0).
    ClockSyncEstimator clock_sync;
    obs::Gauge* offset_gauge = nullptr;
  };

  struct Shard {
    std::uint32_t id = 0;
    std::vector<topo::DeviceId> devices;
    std::uint32_t attempt = 0;      // next delivery's attempt counter
    std::uint32_t deliveries = 0;   // assignments actually sent
    bool lost_once = false;         // any assignment was lost
    std::optional<std::size_t> owner;  // index into workers_
    std::chrono::steady_clock::time_point lease_deadline{};
    std::chrono::steady_clock::time_point hard_deadline{};
    std::optional<ResultMsg> result;
    std::string result_worker;
    bool failed = false;
    /// Trace identity of the delivery in flight: the assign span's id
    /// (minted per delivery) and when it was sent, so the span interval
    /// can be recorded once the result (or the loss) is known.
    std::uint64_t assign_span = 0;
    std::chrono::steady_clock::time_point assign_sent_at{};

    [[nodiscard]] bool done() const { return result.has_value() || failed; }
  };

  void process_frames(bool& progress);
  void handle_hello(std::size_t worker_index, const Frame& frame);
  void handle_heartbeat(std::size_t worker_index, const HeartbeatMsg& msg);
  void handle_result(std::size_t worker_index, ResultMsg msg);
  void detect_failures();
  void lose_worker(std::size_t worker_index, std::string_view reason);
  void requeue_or_fail(std::size_t shard_index);
  bool assign_pending_shards();
  void fail_all_pending();
  [[nodiscard]] bool any_admissible_worker() const;
  DistributedSummary finish_cycle(std::chrono::steady_clock::time_point start);

  /// Records one completed assign-delivery span (or "assign_lost") into
  /// the local trace ring; no-op when untraced.
  void record_assign_span(const Shard& shard, std::string_view name);
  /// Feeds a worker frame's clock-sync triple into its estimator (t4 =
  /// receipt, on the coordinator clock) and refreshes the offset gauge.
  /// Zero stamps — peers not participating in sync — are ignored.
  void observe_clock_echo(Worker& worker, std::uint64_t send_ns,
                          std::uint64_t peer_tx_ns, std::uint64_t peer_rx_ns);

  /// Folds one accepted shard result into the cycle summary and the
  /// verdict cache.
  void merge_result(ResultMsg& result, DistributedSummary& summary);

  const topo::MetadataService* metadata_;
  CoordinatorConfig config_;
  rcdc::SystemFetchClock default_clock_;
  rcdc::FetchClock* clock_;
  std::unique_ptr<obs::TraceMerger> merger_;
  /// Trace identity of the cycle in progress (1-based id + root span).
  std::uint64_t current_cycle_id_ = 0;
  std::uint64_t cycle_span_ = 0;

  std::vector<Worker> workers_;
  std::vector<Shard> shards_;
  std::deque<std::size_t> pending_shards_;
  rcdc::VerdictCache verdicts_;
  /// Per-device cost estimates from last cycles' shard timings; biases the
  /// next cycle's carve toward equal estimated time per shard.
  ShardBalancer balancer_;

  std::atomic<std::size_t> workers_live_{0};
  std::atomic<std::uint64_t> workers_lost_total_{0};
  std::atomic<std::uint64_t> cycles_completed_{0};
  std::atomic<double> last_coverage_{1.0};
  std::atomic<std::uint64_t> shards_failed_last_{0};
  std::atomic<bool> cycle_in_progress_{false};

  // Registry handles; all null when uninstrumented.
  obs::Gauge* workers_live_gauge_ = nullptr;
  obs::Counter* workers_lost_disconnect_ = nullptr;
  obs::Counter* workers_lost_lease_ = nullptr;
  obs::Counter* workers_lost_deadline_ = nullptr;
  std::size_t workers_admitted_total_ = 0;
  obs::Counter* workers_rejected_ = nullptr;
  obs::Counter* shards_validated_ = nullptr;
  obs::Counter* shards_recovered_ = nullptr;
  obs::Counter* shards_failed_counter_ = nullptr;
  obs::Counter* reassignments_ = nullptr;
  obs::Counter* stale_results_ = nullptr;
  obs::Counter* decode_errors_ = nullptr;
  obs::Counter* trace_decode_errors_ = nullptr;
  obs::Gauge* cycle_coverage_ = nullptr;
  obs::Histogram* shard_elapsed_ns_ = nullptr;
};

/// /readyz probe over a coordinator fleet: not ready while fewer than
/// rules.min_workers are live, last cycle's coverage is below
/// rules.min_coverage, or more than rules.max_failed_shards shards failed
/// last cycle. The detail text names every violated rule. The coordinator
/// must outlive the probe.
[[nodiscard]] obs::HealthProbe make_fleet_probe(
    const Coordinator& coordinator, FleetReadinessRules rules = {});

}  // namespace dcv::dist

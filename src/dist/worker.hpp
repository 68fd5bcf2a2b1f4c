#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "dist/messages.hpp"
#include "dist/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rcdc/contract_gen.hpp"
#include "rcdc/fib_source.hpp"
#include "rcdc/resilient_fib_source.hpp"
#include "rcdc/validator.hpp"
#include "topology/metadata.hpp"

namespace dcv::dist {

struct WorkerSessionConfig {
  /// Identity sent in kHello; labels this worker's metric series at the
  /// coordinator.
  std::string id = "worker";
  /// Simulated per-device table-acquisition latency on top of the fib
  /// source's own behavior (the paper's 200-800 ms pull cost). Slept on
  /// the injected clock, scaled by time_scale.
  std::chrono::nanoseconds fetch_latency{0};
  double time_scale = 1.0;
  /// How long to wait for kWelcome after sending hello.
  std::chrono::nanoseconds handshake_deadline{std::chrono::seconds(10)};
  /// Idle poll sleep while waiting for frames.
  std::chrono::nanoseconds poll_interval{std::chrono::milliseconds(2)};
  /// When non-null (must outlive the session), local validation metrics
  /// accumulate here and a dcv-metrics-v1 snapshot rides on every result
  /// frame for the coordinator to merge under {worker=<id>}.
  obs::MetricsRegistry* metrics = nullptr;
  /// When non-null (must outlive the session), the shard/fetch/validate
  /// spans shipped to the coordinator are also mirrored here, so a lone
  /// worker can dump its own timeline (dcv_worker --trace-out) without a
  /// coordinator merge.
  obs::TraceRing* trace = nullptr;
  /// Injected time source; defaults to the shared SystemFetchClock.
  rcdc::FetchClock* clock = nullptr;
};

/// Why a session over one connection ended.
enum class SessionEnd : std::uint8_t {
  /// Coordinator sent kShutdown: do not reconnect.
  kShutdown,
  /// Transport closed or handshake failed: reconnect with backoff.
  kConnectionLost,
};

/// One worker's side of the protocol, over one connected transport:
/// hello → welcome → (assign → validate shard → result)* until shutdown or
/// connection loss. The worker plans contracts itself from the expected
/// topology it loaded; its hello carries that topology's epoch and digest
/// so the coordinator admits only workers that plan alike. The
/// fetch→validate inner loop is the same per-device discipline as
/// DatacenterValidator::run — fetch through the FibSource (failures count
/// against coverage, never throw), fingerprint each fetched table — except
/// that a table whose fingerprint matches the assignment's expectation is
/// reported as replayed instead of verified. Heartbeats go out at the
/// coordinator-advertised cadence so the shard lease stays alive.
class WorkerSession {
 public:
  /// `metadata`, `fibs` and `verifier_factory` must outlive the session.
  WorkerSession(const topo::MetadataService& metadata,
                const rcdc::FibSource& fibs,
                rcdc::VerifierFactory verifier_factory,
                WorkerSessionConfig config = {});

  /// Serves one connection to completion. Never throws on protocol or
  /// peer failure; returns why the session ended.
  SessionEnd run(Transport& transport);

  /// Shards validated over this session's lifetime (all connections).
  [[nodiscard]] std::uint64_t shards_validated() const {
    return shards_validated_;
  }

 private:
  bool validate_shard(const AssignMsg& assignment, Transport& transport,
                      std::chrono::nanoseconds heartbeat_interval);

  const topo::MetadataService* metadata_;
  rcdc::ContractGenerator generator_;
  const rcdc::FibSource* fibs_;
  rcdc::VerifierFactory verifier_factory_;
  WorkerSessionConfig config_;
  rcdc::SystemFetchClock default_clock_;
  rcdc::FetchClock* clock_;
  std::uint64_t shards_validated_ = 0;
  /// Newest coordinator send stamp seen on this connection and its local
  /// receive time, echoed on every outgoing frame for the coordinator's
  /// clock-offset estimation. 0 until a stamped frame arrives.
  std::uint64_t peer_tx_ns_ = 0;
  std::uint64_t peer_rx_ns_ = 0;
};

/// Reconnect schedule for a worker that lost its coordinator: exponential
/// backoff, capped, no jitter (workers are few; decorrelation comes from
/// their differing shard timing).
struct ReconnectPolicy {
  /// Consecutive failed connection attempts before the worker gives up.
  std::uint32_t max_attempts = 10;
  std::chrono::nanoseconds initial_backoff{std::chrono::milliseconds(100)};
  double multiplier = 2.0;
  std::chrono::nanoseconds max_backoff{std::chrono::seconds(5)};
};

/// Backoff to sleep before reconnect attempt `attempt` (1-based; attempt 1
/// happens immediately, attempt 2 waits initial_backoff, then ×multiplier
/// per further attempt, capped at max_backoff). Pure so tests verify the
/// schedule without sleeping.
[[nodiscard]] std::chrono::nanoseconds reconnect_backoff(
    const ReconnectPolicy& policy, std::uint32_t attempt);

}  // namespace dcv::dist

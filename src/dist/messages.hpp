#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/wire.hpp"
#include "rcdc/contract.hpp"

namespace dcv::dist {

/// Protocol revision carried inside kHello, independent of the frame
/// version: the frame layer can stay at v1 while message payloads evolve.
/// v2 added trace propagation and clock-sync timestamps: every message
/// carries the sender's steady-clock send time, worker→coordinator
/// messages echo the last coordinator timestamp seen (plus its local
/// receive time) for NTP-style offset estimation, AssignMsg names the
/// coordinator's cycle and parent span, and ResultMsg ships the worker's
/// serialized span tree (dcv-trace-v1). v3 moved contract planning to the
/// workers: Hello carries a digest of the expected topology, AssignMsg
/// names each device with the fingerprint of the table behind its cached
/// verdict instead of shipping contracts, and ResultMsg reports per device
/// whether that verdict was replayed.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// worker → coordinator on connect.
struct HelloMsg {
  std::string worker_id;
  std::uint32_t protocol = kProtocolVersion;
  /// Epoch and digest (rcdc::expected_topology_digest) of the expected
  /// topology the worker loaded and plans contracts from; the coordinator
  /// refuses workers whose plan would differ from its own topology's.
  std::uint64_t topology_epoch = 0;
  std::uint64_t topology_digest = 0;
  /// Sender's steady clock at send (ns since its clock epoch); 0 = sender
  /// does not participate in clock sync.
  std::uint64_t send_ns = 0;
};

/// coordinator → worker acknowledging the hello.
struct WelcomeMsg {
  std::uint64_t heartbeat_interval_ns = 0;
  std::uint64_t lease_ns = 0;
  /// Sender's steady clock at send; 0 = no clock sync.
  std::uint64_t send_ns = 0;
};

/// One device's work item inside an assignment. Workers derive the
/// device's contracts from their own plan of the (digest-checked) expected
/// topology; the coordinator sends only what the worker cannot know: the
/// fingerprint of the table behind the device's cached verdict.
struct DeviceWork {
  topo::DeviceId device = topo::kInvalidDevice;
  /// 0 = no cached verdict: the worker must verify.
  std::uint64_t expected_fingerprint = 0;
};

/// coordinator → worker: one shard to fetch and validate.
struct AssignMsg {
  std::uint32_t shard_id = 0;
  /// 0-based delivery attempt; results echo it so a late answer from a
  /// worker the coordinator already gave up on is recognizably stale.
  std::uint32_t attempt = 0;
  std::uint64_t plan_epoch = 0;
  std::vector<DeviceWork> devices;
  /// Trace context: the coordinator's monitoring-cycle id and the span id
  /// the worker's shard tree should hang under in the merged timeline.
  /// Both 0 when the coordinator is not tracing.
  std::uint64_t cycle_id = 0;
  std::uint64_t parent_span = 0;
  /// Sender's steady clock at send; 0 = no clock sync.
  std::uint64_t send_ns = 0;
};

/// worker → coordinator while validating: renews the shard lease.
struct HeartbeatMsg {
  std::uint32_t shard_id = 0;
  std::uint32_t attempt = 0;
  std::uint32_t devices_done = 0;
  /// Clock-sync triple: the worker's steady clock at send, plus an echo of
  /// the newest coordinator timestamp it has seen (peer_tx_ns) and the
  /// worker-clock instant that frame arrived (peer_rx_ns). All 0 when the
  /// worker has nothing to echo yet.
  std::uint64_t send_ns = 0;
  std::uint64_t peer_tx_ns = 0;
  std::uint64_t peer_rx_ns = 0;
};

/// One device's outcome inside a result, for every device that yielded a
/// table.
struct DeviceReport {
  topo::DeviceId device = topo::kInvalidDevice;
  /// Fingerprint of the table fetched this cycle.
  std::uint64_t fingerprint = 0;
  /// The fingerprint matched the assignment's expectation: the worker
  /// skipped verification and the coordinator replays its cached verdict.
  /// Otherwise the device was verified and its violations are in the
  /// result.
  bool replayed = false;
  /// The table was degraded (stale fallback, truncated or corrupted pull):
  /// the device's violations count at degraded confidence.
  bool degraded = false;

  friend bool operator==(const DeviceReport&, const DeviceReport&) = default;
};

/// worker → coordinator: everything the coordinator needs to merge one
/// validated shard into the run: summary counts, the violations of the
/// devices verified this time, a report per device that yielded a table,
/// and the worker's serialized obs::MetricsRegistry (dcv-metrics-v1,
/// possibly empty).
struct ResultMsg {
  std::uint32_t shard_id = 0;
  std::uint32_t attempt = 0;
  std::uint64_t devices_checked = 0;
  std::uint64_t contracts_checked = 0;
  std::uint64_t devices_failed = 0;
  std::uint64_t devices_stale = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t elapsed_ns = 0;
  /// Violations of the verified (not replayed) devices, in device order.
  std::vector<rcdc::Violation> violations;
  std::vector<DeviceReport> reports;
  std::vector<std::uint8_t> registry_blob;
  /// The worker's span tree for this shard, serialized as dcv-trace-v1
  /// (obs::span_serde); empty when the worker recorded nothing. A blob
  /// decode_result accepts but span_serde rejects degrades to a trace
  /// decode error at the coordinator — it never fails the shard.
  std::vector<std::uint8_t> trace_blob;
  /// Clock-sync triple (see HeartbeatMsg).
  std::uint64_t send_ns = 0;
  std::uint64_t peer_tx_ns = 0;
  std::uint64_t peer_rx_ns = 0;
};

// Encoders produce a complete Frame (payload + type); decoders parse a
// frame payload and return nullopt on any malformed input — wrong counts,
// truncation, out-of-range enum values, prefix lengths beyond /32 — never
// throwing and never reading out of bounds.

[[nodiscard]] Frame encode(const HelloMsg& msg);
[[nodiscard]] Frame encode(const WelcomeMsg& msg);
[[nodiscard]] Frame encode(const AssignMsg& msg);
[[nodiscard]] Frame encode(const HeartbeatMsg& msg);
[[nodiscard]] Frame encode(const ResultMsg& msg);
[[nodiscard]] Frame encode_shutdown();

[[nodiscard]] std::optional<HelloMsg> decode_hello(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<WelcomeMsg> decode_welcome(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<AssignMsg> decode_assign(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<HeartbeatMsg> decode_heartbeat(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<ResultMsg> decode_result(
    std::span<const std::uint8_t> payload);

}  // namespace dcv::dist

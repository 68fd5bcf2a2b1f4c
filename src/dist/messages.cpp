#include "dist/messages.hpp"

#include <span>

#include "net/bytes.hpp"

namespace dcv::dist {

namespace {

// DeviceReport flag bits; any other bit set is malformed.
constexpr std::uint8_t kReplayedBit = 1;
constexpr std::uint8_t kDegradedBit = 2;

void put_prefix(net::ByteWriter& writer, const net::Prefix& prefix) {
  writer.u32(prefix.network().value());
  writer.u8(static_cast<std::uint8_t>(prefix.length()));
}

bool get_prefix(net::ByteReader& reader, net::Prefix& out) {
  std::uint32_t network = 0;
  std::uint8_t length = 0;
  if (!reader.u32(network) || !reader.u8(length) || length > 32) return false;
  out = net::Prefix(net::Ipv4Address(network), length);
  return true;
}

// Accepts any contiguous hop view (Rule vectors, arena-backed Rib slices)
// so encoding never forces a copy of compact route state.
void put_hops(net::ByteWriter& writer, std::span<const topo::DeviceId> hops) {
  writer.u32(static_cast<std::uint32_t>(hops.size()));
  for (const topo::DeviceId hop : hops) writer.u32(hop);
}

bool get_hops(net::ByteReader& reader, std::vector<topo::DeviceId>& out) {
  std::uint32_t n = 0;
  if (!reader.count(n, 4)) return false;
  out.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!reader.u32(out[i])) return false;
  }
  return true;
}

void put_contract(net::ByteWriter& writer, const rcdc::Contract& contract) {
  writer.u8(static_cast<std::uint8_t>(contract.kind));
  put_prefix(writer, contract.prefix);
  put_hops(writer, contract.expected_next_hops);
  writer.u8(static_cast<std::uint8_t>(contract.mode));
  writer.u64(contract.min_next_hops);
  writer.u8(contract.allow_default_route ? 1 : 0);
}

bool get_contract(net::ByteReader& reader, rcdc::Contract& out) {
  std::uint8_t kind = 0;
  std::uint8_t mode = 0;
  std::uint8_t allow_default = 0;
  std::uint64_t min_hops = 0;
  if (!reader.u8(kind) ||
      kind > static_cast<std::uint8_t>(rcdc::ContractKind::kSpecific)) {
    return false;
  }
  if (!get_prefix(reader, out.prefix) ||
      !get_hops(reader, out.expected_next_hops)) {
    return false;
  }
  if (!reader.u8(mode) ||
      mode > static_cast<std::uint8_t>(rcdc::MatchMode::kSubsetAtLeast)) {
    return false;
  }
  if (!reader.u64(min_hops) || !reader.u8(allow_default) ||
      allow_default > 1) {
    return false;
  }
  out.kind = static_cast<rcdc::ContractKind>(kind);
  out.mode = static_cast<rcdc::MatchMode>(mode);
  out.min_next_hops = static_cast<std::size_t>(min_hops);
  out.allow_default_route = allow_default != 0;
  return true;
}

void put_violation(net::ByteWriter& writer, const rcdc::Violation& v) {
  writer.u32(v.device);
  put_contract(writer, v.contract);
  writer.u8(static_cast<std::uint8_t>(v.kind));
  put_prefix(writer, v.rule_prefix);
  put_hops(writer, v.actual_next_hops);
}

bool get_violation(net::ByteReader& reader, rcdc::Violation& out) {
  std::uint8_t kind = 0;
  if (!reader.u32(out.device) || !get_contract(reader, out.contract)) {
    return false;
  }
  if (!reader.u8(kind) ||
      kind > static_cast<std::uint8_t>(
                 rcdc::ViolationKind::kSpecificViaDefaultRoute)) {
    return false;
  }
  out.kind = static_cast<rcdc::ViolationKind>(kind);
  return get_prefix(reader, out.rule_prefix) &&
         get_hops(reader, out.actual_next_hops);
}

}  // namespace

Frame encode(const HelloMsg& msg) {
  net::ByteWriter writer;
  writer.str(msg.worker_id);
  writer.u32(msg.protocol);
  writer.u64(msg.topology_epoch);
  writer.u64(msg.topology_digest);
  writer.u64(msg.send_ns);
  return Frame{MsgType::kHello, writer.take()};
}

std::optional<HelloMsg> decode_hello(std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  HelloMsg msg;
  if (!reader.str(msg.worker_id) || !reader.u32(msg.protocol) ||
      !reader.u64(msg.topology_epoch) || !reader.u64(msg.topology_digest) ||
      !reader.u64(msg.send_ns) || !reader.done()) {
    return std::nullopt;
  }
  return msg;
}

Frame encode(const WelcomeMsg& msg) {
  net::ByteWriter writer;
  writer.u64(msg.heartbeat_interval_ns);
  writer.u64(msg.lease_ns);
  writer.u64(msg.send_ns);
  return Frame{MsgType::kWelcome, writer.take()};
}

std::optional<WelcomeMsg> decode_welcome(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  WelcomeMsg msg;
  if (!reader.u64(msg.heartbeat_interval_ns) || !reader.u64(msg.lease_ns) ||
      !reader.u64(msg.send_ns) || !reader.done()) {
    return std::nullopt;
  }
  return msg;
}

Frame encode(const AssignMsg& msg) {
  net::ByteWriter writer;
  writer.u32(msg.shard_id);
  writer.u32(msg.attempt);
  writer.u64(msg.plan_epoch);
  writer.u32(static_cast<std::uint32_t>(msg.devices.size()));
  for (const DeviceWork& work : msg.devices) {
    writer.u32(work.device);
    writer.u64(work.expected_fingerprint);
  }
  writer.u64(msg.cycle_id);
  writer.u64(msg.parent_span);
  writer.u64(msg.send_ns);
  return Frame{MsgType::kAssign, writer.take()};
}

std::optional<AssignMsg> decode_assign(std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  AssignMsg msg;
  std::uint32_t devices = 0;
  // A device entry is 12 bytes on the wire.
  if (!reader.u32(msg.shard_id) || !reader.u32(msg.attempt) ||
      !reader.u64(msg.plan_epoch) || !reader.count(devices, 12)) {
    return std::nullopt;
  }
  msg.devices.resize(devices);
  for (DeviceWork& work : msg.devices) {
    if (!reader.u32(work.device) || !reader.u64(work.expected_fingerprint)) {
      return std::nullopt;
    }
  }
  if (!reader.u64(msg.cycle_id) || !reader.u64(msg.parent_span) ||
      !reader.u64(msg.send_ns) || !reader.done()) {
    return std::nullopt;
  }
  return msg;
}

Frame encode(const HeartbeatMsg& msg) {
  net::ByteWriter writer;
  writer.u32(msg.shard_id);
  writer.u32(msg.attempt);
  writer.u32(msg.devices_done);
  writer.u64(msg.send_ns);
  writer.u64(msg.peer_tx_ns);
  writer.u64(msg.peer_rx_ns);
  return Frame{MsgType::kHeartbeat, writer.take()};
}

std::optional<HeartbeatMsg> decode_heartbeat(
    std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  HeartbeatMsg msg;
  if (!reader.u32(msg.shard_id) || !reader.u32(msg.attempt) ||
      !reader.u32(msg.devices_done) || !reader.u64(msg.send_ns) ||
      !reader.u64(msg.peer_tx_ns) || !reader.u64(msg.peer_rx_ns) ||
      !reader.done()) {
    return std::nullopt;
  }
  return msg;
}

Frame encode(const ResultMsg& msg) {
  net::ByteWriter writer;
  writer.u32(msg.shard_id);
  writer.u32(msg.attempt);
  writer.u64(msg.devices_checked);
  writer.u64(msg.contracts_checked);
  writer.u64(msg.devices_failed);
  writer.u64(msg.devices_stale);
  writer.u64(msg.retries);
  writer.u64(msg.breaker_opens);
  writer.u64(msg.elapsed_ns);
  writer.u32(static_cast<std::uint32_t>(msg.violations.size()));
  for (const rcdc::Violation& violation : msg.violations) {
    put_violation(writer, violation);
  }
  writer.u32(static_cast<std::uint32_t>(msg.reports.size()));
  for (const DeviceReport& report : msg.reports) {
    writer.u32(report.device);
    writer.u64(report.fingerprint);
    writer.u8(static_cast<std::uint8_t>((report.replayed ? kReplayedBit : 0) |
                                        (report.degraded ? kDegradedBit : 0)));
  }
  writer.bytes(msg.registry_blob);
  writer.bytes(msg.trace_blob);
  writer.u64(msg.send_ns);
  writer.u64(msg.peer_tx_ns);
  writer.u64(msg.peer_rx_ns);
  return Frame{MsgType::kResult, writer.take()};
}

std::optional<ResultMsg> decode_result(std::span<const std::uint8_t> payload) {
  net::ByteReader reader(payload);
  ResultMsg msg;
  std::uint32_t violations = 0;
  if (!reader.u32(msg.shard_id) || !reader.u32(msg.attempt) ||
      !reader.u64(msg.devices_checked) || !reader.u64(msg.contracts_checked) ||
      !reader.u64(msg.devices_failed) || !reader.u64(msg.devices_stale) ||
      !reader.u64(msg.retries) || !reader.u64(msg.breaker_opens) ||
      !reader.u64(msg.elapsed_ns) ||
      // A violation is ≥ 34 bytes on the wire.
      !reader.count(violations, 34)) {
    return std::nullopt;
  }
  msg.violations.resize(violations);
  for (rcdc::Violation& violation : msg.violations) {
    if (!get_violation(reader, violation)) return std::nullopt;
  }
  std::uint32_t reports = 0;
  if (!reader.count(reports, 13)) return std::nullopt;
  msg.reports.resize(reports);
  for (DeviceReport& report : msg.reports) {
    std::uint8_t flags = 0;
    if (!reader.u32(report.device) || !reader.u64(report.fingerprint) ||
        !reader.u8(flags) || (flags & ~(kReplayedBit | kDegradedBit)) != 0) {
      return std::nullopt;
    }
    report.replayed = (flags & kReplayedBit) != 0;
    report.degraded = (flags & kDegradedBit) != 0;
  }
  if (!reader.bytes(msg.registry_blob) || !reader.bytes(msg.trace_blob) ||
      !reader.u64(msg.send_ns) || !reader.u64(msg.peer_tx_ns) ||
      !reader.u64(msg.peer_rx_ns) || !reader.done()) {
    return std::nullopt;
  }
  return msg;
}

Frame encode_shutdown() { return Frame{MsgType::kShutdown, {}}; }

}  // namespace dcv::dist

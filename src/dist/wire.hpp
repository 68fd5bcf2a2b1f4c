#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace dcv::dist {

/// Message types of the coordinator/worker protocol (dcv-dist wire v1).
enum class MsgType : std::uint16_t {
  /// worker → coordinator, once per connection: worker id + capabilities.
  kHello = 1,
  /// coordinator → worker: accepted; carries heartbeat interval + epoch.
  kWelcome = 2,
  /// coordinator → worker: one shard of devices with the fingerprints of
  /// their cached verdicts.
  kAssign = 3,
  /// worker → coordinator: lease renewal + progress while validating.
  kHeartbeat = 4,
  /// worker → coordinator: the shard's verdicts, device reports, metrics.
  kResult = 5,
  /// coordinator → worker: drain and exit cleanly.
  kShutdown = 6,
};

[[nodiscard]] std::string_view to_string(MsgType type);

/// One protocol frame: a typed payload. On the wire a frame is
///
///   [magic u32][version u16][type u16][payload_len u32][payload][crc32 u32]
///
/// with the CRC taken over version+type+payload_len+payload. Length-first
/// framing lets the receiver bound the read before buffering; the checksum
/// catches truncation and bit rot; the version field keeps mixed-build
/// fleets from silently misparsing each other.
struct Frame {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> payload;
};

inline constexpr std::uint32_t kWireMagic = 0x57564344;  // "DCVW" on the wire
inline constexpr std::uint16_t kWireVersion = 1;
/// Hard payload bound (64 MiB): a corrupted or hostile length field must
/// never drive an unbounded allocation.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;
/// Bytes of framing around the payload (header + trailing checksum).
inline constexpr std::size_t kFrameOverhead = 4 + 2 + 2 + 4 + 4;

/// CRC-32 (IEEE, reflected) of a byte span.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Encodes a frame into its wire representation.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Why a buffer failed to decode as a frame.
enum class DecodeError : std::uint8_t {
  /// Not enough bytes yet — read more and retry (not a protocol error).
  kNeedMoreData,
  kBadMagic,
  kBadVersion,
  /// Payload length exceeds kMaxPayload.
  kOversized,
  kBadChecksum,
  /// Type field is not a known MsgType.
  kUnknownType,
};

[[nodiscard]] std::string_view to_string(DecodeError error);

/// Result of one streaming decode attempt over a receive buffer.
struct DecodeResult {
  /// Engaged on success; payload bytes are copied out of the buffer.
  std::optional<Frame> frame;
  std::optional<DecodeError> error;
  /// Bytes the caller must drop from the front of its buffer: the whole
  /// frame on success, 0 for kNeedMoreData, and the rest of the buffer for
  /// every fatal error (a stream that framed wrong cannot be resynced —
  /// the connection is the recovery unit).
  std::size_t consumed = 0;

  [[nodiscard]] bool ok() const { return frame.has_value(); }
};

/// Attempts to decode one frame from the front of `buffer`. Total across
/// all inputs: returns a frame, kNeedMoreData, or a fatal error — it never
/// throws, never reads past the span, and never allocates more than the
/// declared (bounded) payload length. Exercised against the malformed
/// -frame corpus under ASan+UBSan.
[[nodiscard]] DecodeResult try_decode_frame(
    std::span<const std::uint8_t> buffer);

}  // namespace dcv::dist

// Wire-format tests: frame round-trips, streaming decode, every framing
// error, message codec round-trips, hostile-input rejection, the checked-in
// malformed-frame corpus, and a seeded mutation fuzz pass. The decode path
// must never crash, never read out of bounds (ASan/UBSan enforce this in
// CI), and never accept a frame whose checksum or structure lies.
#include "dist/messages.hpp"
#include "dist/wire.hpp"
#include "net/bytes.hpp"
#include "obs/span_serde.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace dcv::dist {
namespace {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Runs every payload decoder that could apply to the frame; the point is
/// that none of them crashes or over-reads, whatever the bytes say.
void exercise_payload_decoders(const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHello:
      (void)decode_hello(frame.payload);
      break;
    case MsgType::kWelcome:
      (void)decode_welcome(frame.payload);
      break;
    case MsgType::kAssign:
      (void)decode_assign(frame.payload);
      break;
    case MsgType::kHeartbeat:
      (void)decode_heartbeat(frame.payload);
      break;
    case MsgType::kResult: {
      // A decodable result may still carry a hostile trace blob; the span
      // deserializer faces the same adversary as the message codecs.
      const auto result = decode_result(frame.payload);
      if (result.has_value() && !result->trace_blob.empty()) {
        obs::DecodedTrace trace;
        (void)obs::deserialize_trace(result->trace_blob, trace);
      }
      break;
    }
    case MsgType::kShutdown:
      break;
  }
}

TEST(Crc32Test, MatchesIeeeCheckValue) {
  // The standard CRC-32 check string.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(WireFrameTest, RoundTripsEveryType) {
  for (const MsgType type :
       {MsgType::kHello, MsgType::kWelcome, MsgType::kAssign,
        MsgType::kHeartbeat, MsgType::kResult, MsgType::kShutdown}) {
    Frame frame{type, {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42}};
    const auto encoded = encode_frame(frame);
    EXPECT_EQ(encoded.size(), frame.payload.size() + kFrameOverhead);
    const DecodeResult result = try_decode_frame(encoded);
    ASSERT_TRUE(result.ok()) << to_string(type);
    EXPECT_EQ(result.frame->type, type);
    EXPECT_EQ(result.frame->payload, frame.payload);
    EXPECT_EQ(result.consumed, encoded.size());
  }
}

TEST(WireFrameTest, EmptyPayloadRoundTrips) {
  const auto encoded = encode_frame(Frame{MsgType::kShutdown, {}});
  const DecodeResult result = try_decode_frame(encoded);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.frame->payload.empty());
}

TEST(WireFrameTest, StreamingDecodeSplitsAndConcatenations) {
  const auto first = encode_frame(Frame{MsgType::kHello, {1, 2, 3}});
  const auto second = encode_frame(Frame{MsgType::kHeartbeat, {9}});
  std::vector<std::uint8_t> stream = first;
  stream.insert(stream.end(), second.begin(), second.end());

  // Every prefix shorter than the first frame wants more data.
  for (std::size_t cut = 0; cut < first.size(); ++cut) {
    const DecodeResult partial =
        try_decode_frame(std::span(stream.data(), cut));
    EXPECT_FALSE(partial.ok());
    EXPECT_EQ(partial.error, DecodeError::kNeedMoreData);
    EXPECT_EQ(partial.consumed, 0u);
  }
  // The full buffer yields frame one, then frame two from the remainder.
  const DecodeResult one = try_decode_frame(stream);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.frame->type, MsgType::kHello);
  const DecodeResult two = try_decode_frame(
      std::span(stream.data() + one.consumed, stream.size() - one.consumed));
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two.frame->type, MsgType::kHeartbeat);
}

TEST(WireFrameTest, RejectsCorruptHeadersAndChecksums) {
  const auto good = encode_frame(Frame{MsgType::kHello, {1, 2, 3, 4}});

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(try_decode_frame(bad_magic).error, DecodeError::kBadMagic);

  auto bad_version = good;
  bad_version[4] ^= 0xFF;
  EXPECT_EQ(try_decode_frame(bad_version).error, DecodeError::kBadVersion);

  auto bad_payload = good;
  bad_payload[12] ^= 0x01;
  EXPECT_EQ(try_decode_frame(bad_payload).error, DecodeError::kBadChecksum);

  auto bad_crc = good;
  bad_crc.back() ^= 0x01;
  EXPECT_EQ(try_decode_frame(bad_crc).error, DecodeError::kBadChecksum);

  // A fatal error consumes the whole buffer: the stream cannot resync.
  EXPECT_EQ(try_decode_frame(bad_magic).consumed, bad_magic.size());
}

TEST(WireFrameTest, RejectsOversizedDeclaredLength) {
  std::vector<std::uint8_t> header(kFrameOverhead, 0);
  const std::uint32_t magic = kWireMagic;
  const std::uint16_t version = kWireVersion;
  const std::uint16_t type = 1;
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(header.data(), &magic, 4);
  std::memcpy(header.data() + 4, &version, 2);
  std::memcpy(header.data() + 6, &type, 2);
  std::memcpy(header.data() + 8, &huge, 4);
  EXPECT_EQ(try_decode_frame(header).error, DecodeError::kOversized);
}

TEST(WireFrameTest, RejectsUnknownTypeOnlyAfterChecksum) {
  Frame frame{MsgType::kHello, {7, 7}};
  auto encoded = encode_frame(frame);
  // Patch type to 99 and recompute the CRC so only the type is wrong.
  const std::uint16_t unknown = 99;
  std::memcpy(encoded.data() + 6, &unknown, 2);
  const std::uint32_t crc = crc32(
      std::span(encoded).subspan(4, encoded.size() - 8));
  std::memcpy(encoded.data() + encoded.size() - 4, &crc, 4);
  EXPECT_EQ(try_decode_frame(encoded).error, DecodeError::kUnknownType);
}

using rcdc::Contract;

Contract sample_contract() {
  Contract contract;
  contract.kind = rcdc::ContractKind::kSpecific;
  contract.prefix = net::Prefix(net::Ipv4Address(0x0A010200u), 24);
  contract.expected_next_hops = {4, 9, 17};
  contract.mode = rcdc::MatchMode::kSubsetAtLeast;
  contract.min_next_hops = 2;
  contract.allow_default_route = true;
  return contract;
}

TEST(MessageCodecTest, HelloRoundTrips) {
  HelloMsg msg;
  msg.worker_id = "worker-7";
  msg.topology_epoch = 42;
  msg.topology_digest = 0xD16E57D16E57ull;
  const Frame frame = encode(msg);
  EXPECT_EQ(frame.type, MsgType::kHello);
  const auto decoded = decode_hello(frame.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->worker_id, "worker-7");
  EXPECT_EQ(decoded->protocol, kProtocolVersion);
  EXPECT_EQ(decoded->topology_epoch, 42u);
  EXPECT_EQ(decoded->topology_digest, 0xD16E57D16E57ull);
}

TEST(MessageCodecTest, V2HelloIsRefused) {
  // A v2 hello has no topology digest: the v3 decoder finds it short.
  net::ByteWriter writer;
  writer.str("old-worker");
  writer.u32(2);
  writer.u64(7);    // topology epoch
  writer.u64(123);  // send_ns
  EXPECT_FALSE(decode_hello(writer.take()).has_value());
}

TEST(MessageCodecTest, WelcomeRoundTrips) {
  WelcomeMsg msg;
  msg.heartbeat_interval_ns = 123456789;
  msg.lease_ns = 5000000000;
  const auto decoded = decode_welcome(encode(msg).payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->heartbeat_interval_ns, msg.heartbeat_interval_ns);
  EXPECT_EQ(decoded->lease_ns, msg.lease_ns);
}

TEST(MessageCodecTest, AssignRoundTripsDevicesAndExpectedFingerprints) {
  AssignMsg msg;
  msg.shard_id = 3;
  msg.attempt = 2;
  msg.plan_epoch = 7;
  msg.devices.push_back({11, 0xFEEDFACECAFEBEEFull});
  msg.devices.push_back({12, 0});  // no cached verdict: must verify
  msg.devices.push_back({13, 1});

  const Frame frame = encode(msg);
  // Each device costs 12 bytes: id + expected fingerprint.
  EXPECT_EQ(frame.payload.size(), 4u + 4 + 8 + 4 + 3 * 12 + 3 * 8);
  const auto decoded = decode_assign(frame.payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard_id, 3u);
  EXPECT_EQ(decoded->attempt, 2u);
  EXPECT_EQ(decoded->plan_epoch, 7u);
  ASSERT_EQ(decoded->devices.size(), 3u);
  EXPECT_EQ(decoded->devices[0].device, 11u);
  EXPECT_EQ(decoded->devices[0].expected_fingerprint, 0xFEEDFACECAFEBEEFull);
  EXPECT_EQ(decoded->devices[1].device, 12u);
  EXPECT_EQ(decoded->devices[1].expected_fingerprint, 0u);
  EXPECT_EQ(decoded->devices[2].expected_fingerprint, 1u);
}

TEST(MessageCodecTest, ResultRoundTripsViolationsFingerprintsAndBlob) {
  ResultMsg msg;
  msg.shard_id = 5;
  msg.attempt = 1;
  msg.devices_checked = 100;
  msg.contracts_checked = 900;
  msg.devices_failed = 3;
  msg.devices_stale = 2;
  msg.retries = 7;
  msg.breaker_opens = 1;
  msg.elapsed_ns = 123456;
  rcdc::Violation violation;
  violation.device = 42;
  violation.contract = sample_contract();
  violation.kind = rcdc::ViolationKind::kUnreachableRange;
  violation.rule_prefix = net::Prefix(net::Ipv4Address(0x0A000000u), 8);
  violation.actual_next_hops = {5};
  msg.violations.push_back(violation);
  msg.reports = {{1, 0x1111, /*replayed=*/true, /*degraded=*/false},
                 {2, 0x2222, false, true},
                 {42, 0x4242, false, false}};
  msg.registry_blob = {1, 2, 3, 4, 5};

  const auto decoded = decode_result(encode(msg).payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->devices_checked, 100u);
  EXPECT_EQ(decoded->contracts_checked, 900u);
  EXPECT_EQ(decoded->devices_failed, 3u);
  EXPECT_EQ(decoded->devices_stale, 2u);
  EXPECT_EQ(decoded->retries, 7u);
  EXPECT_EQ(decoded->breaker_opens, 1u);
  EXPECT_EQ(decoded->elapsed_ns, 123456u);
  ASSERT_EQ(decoded->violations.size(), 1u);
  EXPECT_EQ(decoded->violations[0].device, 42u);
  EXPECT_EQ(decoded->violations[0].kind,
            rcdc::ViolationKind::kUnreachableRange);
  EXPECT_EQ(decoded->violations[0].actual_next_hops,
            (std::vector<topo::DeviceId>{5}));
  const Contract& c = decoded->violations[0].contract;
  EXPECT_EQ(c.kind, rcdc::ContractKind::kSpecific);
  EXPECT_EQ(c.prefix.to_string(), "10.1.2.0/24");
  EXPECT_EQ(c.expected_next_hops, (std::vector<topo::DeviceId>{4, 9, 17}));
  EXPECT_EQ(c.mode, rcdc::MatchMode::kSubsetAtLeast);
  EXPECT_EQ(c.min_next_hops, 2u);
  EXPECT_TRUE(c.allow_default_route);
  EXPECT_EQ(decoded->reports, msg.reports);
  EXPECT_EQ(decoded->registry_blob, msg.registry_blob);
}

TEST(MessageCodecTest, V2TraceContextFieldsRoundTrip) {
  // Hello/Welcome carry send timestamps for the clock-sync handshake.
  HelloMsg hello;
  hello.worker_id = "w";
  hello.send_ns = 111;
  EXPECT_EQ(decode_hello(encode(hello).payload)->send_ns, 111u);

  WelcomeMsg welcome;
  welcome.send_ns = 222;
  EXPECT_EQ(decode_welcome(encode(welcome).payload)->send_ns, 222u);

  // Assign propagates the trace context: cycle id + parent span.
  AssignMsg assign;
  assign.shard_id = 1;
  assign.plan_epoch = 1;
  assign.devices.push_back({7, 0x77});
  assign.cycle_id = 33;
  assign.parent_span = 0xABCDEF;
  assign.send_ns = 444;
  const auto decoded_assign = decode_assign(encode(assign).payload);
  ASSERT_TRUE(decoded_assign.has_value());
  EXPECT_EQ(decoded_assign->cycle_id, 33u);
  EXPECT_EQ(decoded_assign->parent_span, 0xABCDEFu);
  EXPECT_EQ(decoded_assign->send_ns, 444u);

  // Heartbeat echoes the coordinator's newest send for RTT sampling.
  HeartbeatMsg heartbeat;
  heartbeat.shard_id = 1;
  heartbeat.send_ns = 555;
  heartbeat.peer_tx_ns = 444;
  heartbeat.peer_rx_ns = 500;
  const auto decoded_hb = decode_heartbeat(encode(heartbeat).payload);
  ASSERT_TRUE(decoded_hb.has_value());
  EXPECT_EQ(decoded_hb->send_ns, 555u);
  EXPECT_EQ(decoded_hb->peer_tx_ns, 444u);
  EXPECT_EQ(decoded_hb->peer_rx_ns, 500u);
}

TEST(MessageCodecTest, ResultCarriesDecodableTraceBlob) {
  using std::chrono::nanoseconds;
  std::vector<obs::TraceEvent> events = {
      {"fetch", 2, 1, 9, 0, nanoseconds(100), nanoseconds(40)},
      {"shard", 1, 0, 9, 0, nanoseconds(50), nanoseconds(300)},
  };
  ResultMsg msg;
  msg.shard_id = 4;
  msg.trace_blob = obs::serialize_trace(events, nanoseconds(0), 2);
  msg.send_ns = 777;
  msg.peer_tx_ns = 700;
  msg.peer_rx_ns = 750;

  const auto decoded = decode_result(encode(msg).payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->send_ns, 777u);
  EXPECT_EQ(decoded->peer_tx_ns, 700u);
  EXPECT_EQ(decoded->peer_rx_ns, 750u);
  obs::DecodedTrace trace;
  ASSERT_TRUE(obs::deserialize_trace(decoded->trace_blob, trace));
  EXPECT_EQ(trace.dropped, 2u);
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.events[0].name, "fetch");
  EXPECT_EQ(trace.events[1].name, "shard");

  // A garbage blob still rides the frame fine — the *message* decodes, and
  // only the span layer rejects it.
  ResultMsg hostile;
  hostile.shard_id = 4;
  hostile.trace_blob = {0xFF, 0xFE, 0xFD, 0xFC, 0x01, 0x02};
  const auto decoded_hostile = decode_result(encode(hostile).payload);
  ASSERT_TRUE(decoded_hostile.has_value());
  EXPECT_FALSE(obs::deserialize_trace(decoded_hostile->trace_blob, trace));
}

TEST(MessageCodecTest, RejectsTruncationsOfEveryMessage) {
  const std::vector<Frame> frames = {
      encode(HelloMsg{"w", kProtocolVersion, 1, 0xD1}),
      encode(WelcomeMsg{100, 200}),
      encode(AssignMsg{1, 0, 1, {{7, 9}}}),
      encode(HeartbeatMsg{1, 0, 5}),
      [] {
        ResultMsg r;
        r.shard_id = 1;
        r.violations.resize(1);
        r.violations[0].contract = sample_contract();
        r.reports = {{3, 9, true, true}};
        r.registry_blob = {1, 2};
        r.trace_blob = obs::serialize_trace(
            std::vector<obs::TraceEvent>{
                {"shard", 1, 0, 1, 0, std::chrono::nanoseconds(1),
                 std::chrono::nanoseconds(2)}},
            std::chrono::nanoseconds(0), 0);
        return encode(r);
      }(),
  };
  for (const Frame& frame : frames) {
    for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
      const std::span<const std::uint8_t> truncated(frame.payload.data(), cut);
      Frame partial{frame.type, {truncated.begin(), truncated.end()}};
      exercise_payload_decoders(partial);  // must not crash
      switch (frame.type) {
        case MsgType::kHello:
          EXPECT_FALSE(decode_hello(truncated).has_value());
          break;
        case MsgType::kWelcome:
          EXPECT_FALSE(decode_welcome(truncated).has_value());
          break;
        case MsgType::kAssign:
          EXPECT_FALSE(decode_assign(truncated).has_value());
          break;
        case MsgType::kHeartbeat:
          EXPECT_FALSE(decode_heartbeat(truncated).has_value());
          break;
        case MsgType::kResult:
          EXPECT_FALSE(decode_result(truncated).has_value());
          break;
        case MsgType::kShutdown:
          break;
      }
    }
  }
}

TEST(MessageCodecTest, RejectsTrailingJunk) {
  Frame frame = encode(HeartbeatMsg{1, 2, 3});
  frame.payload.push_back(0xAA);
  EXPECT_FALSE(decode_heartbeat(frame.payload).has_value());
}

TEST(MessageCodecTest, RejectsOutOfRangeEnumsAndPrefixes) {
  ResultMsg msg;
  msg.violations.resize(1);
  msg.violations[0].device = 7;
  msg.violations[0].contract = sample_contract();
  msg.reports = {{7, 0xAB, false, false}};
  const Frame frame = encode(msg);
  ASSERT_TRUE(decode_result(frame.payload).has_value());
  // The violation's contract kind byte sits after shard(4) + attempt(4) +
  // seven u64 counters(56) + violation count(4) + device id(4) = 72 bytes.
  Frame bad_kind = frame;
  ASSERT_GT(bad_kind.payload.size(), 72u);
  bad_kind.payload[72] = 200;
  EXPECT_FALSE(decode_result(bad_kind.payload).has_value());
  // Its prefix length byte follows the kind and the network (4 bytes).
  Frame bad_length = frame;
  bad_length.payload[77] = 33;
  EXPECT_FALSE(decode_result(bad_length.payload).has_value());
  // The report's flag byte ends the report list, ahead of the two empty
  // blobs (4 + 4) and three u64 stamps (24): only bits 0-1 are defined.
  Frame bad_flags = frame;
  const std::size_t flags_at = bad_flags.payload.size() - 8 - 24 - 1;
  ASSERT_EQ(bad_flags.payload[flags_at], 0u);
  bad_flags.payload[flags_at] = 4;
  EXPECT_FALSE(decode_result(bad_flags.payload).has_value());
}

TEST(CorpusTest, EveryCheckedInFrameDecodesSafely) {
  const std::filesystem::path dir =
      std::filesystem::path(DCV_TEST_DATA_DIR) / "dist" / "corpus";
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t files = 0;
  std::size_t decoded_ok = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".bin") continue;
    ++files;
    const auto bytes = read_file(entry.path());
    const DecodeResult result = try_decode_frame(bytes);
    if (result.ok()) {
      ++decoded_ok;
      exercise_payload_decoders(*result.frame);
    }
    // Named expectations for the deliberately-broken files.
    const std::string name = entry.path().filename().string();
    if (name == "valid_hello.bin") {
      ASSERT_TRUE(result.ok()) << name;
      const auto hello = decode_hello(result.frame->payload);
      ASSERT_TRUE(hello.has_value());
      EXPECT_EQ(hello->protocol, kProtocolVersion);
    } else if (name == "bad_magic.bin") {
      EXPECT_EQ(result.error, DecodeError::kBadMagic);
    } else if (name == "bad_version.bin") {
      EXPECT_EQ(result.error, DecodeError::kBadVersion);
    } else if (name == "bad_crc.bin") {
      EXPECT_EQ(result.error, DecodeError::kBadChecksum);
    } else if (name == "unknown_type.bin") {
      EXPECT_EQ(result.error, DecodeError::kUnknownType);
    } else if (name == "oversized_length.bin") {
      EXPECT_EQ(result.error, DecodeError::kOversized);
    } else if (name == "empty.bin" || name == "truncated_header.bin" ||
               name == "truncated_payload.bin") {
      EXPECT_EQ(result.error, DecodeError::kNeedMoreData);
    } else if (name == "hostile_string_len.bin" ||
               name == "hostile_count_assign.bin" ||
               name == "hostile_count_devices.bin" ||
               name == "hostile_count_result.bin" ||
               name == "bad_prefix_len.bin" ||
               name == "bad_report_flags.bin" ||
               name == "trailing_junk.bin" || name == "hello_v2.bin" ||
               name == "assign_v2.bin") {
      // Well-framed, hostile payload (or a protocol-v2 message): the frame
      // decodes, the message must not.
      ASSERT_TRUE(result.ok()) << name;
      switch (result.frame->type) {
        case MsgType::kHello:
          EXPECT_FALSE(decode_hello(result.frame->payload)) << name;
          break;
        case MsgType::kAssign:
          EXPECT_FALSE(decode_assign(result.frame->payload)) << name;
          break;
        case MsgType::kResult:
          EXPECT_FALSE(decode_result(result.frame->payload)) << name;
          break;
        case MsgType::kHeartbeat:
          EXPECT_FALSE(decode_heartbeat(result.frame->payload)) << name;
          break;
        default:
          break;
      }
    } else if (name == "result_garbage_trace.bin" ||
               name == "result_truncated_trace.bin") {
      // Well-framed result whose embedded trace blob is hostile: frame and
      // message decode, the span layer must reject the blob.
      ASSERT_TRUE(result.ok()) << name;
      const auto msg = decode_result(result.frame->payload);
      ASSERT_TRUE(msg.has_value()) << name;
      ASSERT_FALSE(msg->trace_blob.empty()) << name;
      obs::DecodedTrace trace;
      EXPECT_FALSE(obs::deserialize_trace(msg->trace_blob, trace)) << name;
    }
  }
  EXPECT_GE(files, 25u) << "corpus went missing";
  EXPECT_GE(decoded_ok, 1u);
}

TEST(MutationFuzzTest, TenThousandMutationsNeverCrash) {
  // Seeded: failures reproduce. Start from real frames so mutations
  // explore the interesting neighborhoods of the format, not just noise.
  std::mt19937 rng(0xDC5F00D);
  AssignMsg assign{3, 1, 1, {{7, 0xAB}, {8, 0}}};
  ResultMsg result;
  result.shard_id = 3;
  result.violations.resize(2);
  result.violations[0].contract = sample_contract();
  result.violations[1].contract = sample_contract();
  result.reports = {{7, 0xAB, true, false}, {8, 0xCD, false, true}};
  result.registry_blob = {0x44, 0x43, 0x56, 0x4D, 1, 0};
  ResultMsg traced = result;
  traced.trace_blob = obs::serialize_trace(
      std::vector<obs::TraceEvent>{
          {"shard", 1, 0, 1, 0, std::chrono::nanoseconds(5),
           std::chrono::nanoseconds(9)},
          {"fetch", 2, 1, 1, 0, std::chrono::nanoseconds(6),
           std::chrono::nanoseconds(3)}},
      std::chrono::nanoseconds(0), 0);
  const std::vector<std::vector<std::uint8_t>> seeds = {
      encode_frame(encode(assign)),
      encode_frame(encode(result)),
      encode_frame(encode(traced)),
      encode_frame(encode(HelloMsg{"fuzz", kProtocolVersion, 9, 0xD1})),
      encode_frame(encode_shutdown()),
  };

  for (int iteration = 0; iteration < 10000; ++iteration) {
    std::vector<std::uint8_t> bytes = seeds[rng() % seeds.size()];
    switch (rng() % 4) {
      case 0:  // bit flips
        for (int n = 1 + static_cast<int>(rng() % 8); n > 0; --n) {
          bytes[rng() % bytes.size()] ^= 1u << (rng() % 8);
        }
        break;
      case 1:  // truncate
        bytes.resize(rng() % (bytes.size() + 1));
        break;
      case 2:  // extend with junk
        for (int n = 1 + static_cast<int>(rng() % 32); n > 0; --n) {
          bytes.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
      case 3: {  // splice two seeds
        const auto& other = seeds[rng() % seeds.size()];
        const std::size_t cut = rng() % (bytes.size() + 1);
        bytes.resize(cut);
        bytes.insert(bytes.end(), other.begin() + rng() % other.size(),
                     other.end());
        break;
      }
    }
    const DecodeResult decoded = try_decode_frame(bytes);
    if (decoded.ok()) {
      exercise_payload_decoders(*decoded.frame);
      EXPECT_LE(decoded.consumed, bytes.size());
    } else if (decoded.error != DecodeError::kNeedMoreData) {
      EXPECT_EQ(decoded.consumed, bytes.size());
    } else {
      EXPECT_EQ(decoded.consumed, 0u);
    }
  }
}

}  // namespace
}  // namespace dcv::dist

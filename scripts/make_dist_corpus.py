#!/usr/bin/env python3
"""Writes the malformed-frame corpus of the coordinator/worker wire protocol.

    python3 scripts/make_dist_corpus.py [--out tests/data/dist/corpus]

Every file is one byte stream that tests/dist/wire_test.cpp
(CorpusTest.EveryCheckedInFrameDecodesSafely) feeds to the frame decoder
and, when the frame decodes, to the payload decoders. The encoder here is
written independently of src/dist so the corpus also pins the byte layout
of protocol v3:

  frame   magic u32 | version u16 | type u16 | len u32 | payload | crc32 u32
          (little endian; IEEE CRC over everything after the magic)
  Hello   str id | u32 protocol | u64 epoch | u64 digest | u64 send_ns
  Assign  u32 shard | u32 attempt | u64 epoch | u32 n | n x (u32 device,
          u64 expected fingerprint) | u64 cycle | u64 parent | u64 send_ns
  Result  u32 shard | u32 attempt | 7 x u64 counters | u32 n violations |
          violations | u32 n reports | n x (u32 device, u64 fingerprint,
          u8 flags) | bytes registry | bytes trace | 3 x u64 stamps

The output is deterministic: rerunning the script reproduces the checked-in
files byte for byte.
"""

import argparse
import pathlib
import random
import struct
import zlib

MAGIC = 0x57564344
WIRE_VERSION = 1
PROTOCOL = 3
HELLO, WELCOME, ASSIGN, HEARTBEAT, RESULT, SHUTDOWN = 1, 2, 3, 4, 5, 6
TRACE_MAGIC = 0x54564344


def u8(v):
    return struct.pack("<B", v)


def u16(v):
    return struct.pack("<H", v)


def u32(v):
    return struct.pack("<I", v)


def u64(v):
    return struct.pack("<Q", v)


def lp(data):
    """Length-prefixed byte string."""
    return u32(len(data)) + data


def frame(msg_type, payload, version=WIRE_VERSION, magic=MAGIC,
          length=None):
    body = u16(version) + u16(msg_type) + u32(
        len(payload) if length is None else length) + payload
    return u32(magic) + body + u32(zlib.crc32(body))


def hello(worker="corpus-worker", protocol=PROTOCOL, epoch=7,
          digest=0x5EEDD16E57, send_ns=123456789):
    return (lp(worker.encode()) + u32(protocol) + u64(epoch) + u64(digest) +
            u64(send_ns))


def assign(devices, shard=3, attempt=1, epoch=7):
    payload = u32(shard) + u32(attempt) + u64(epoch) + u32(len(devices))
    for device, expected in devices:
        payload += u32(device) + u64(expected)
    return payload + u64(9) + u64(0xABCDEF) + u64(444)


def contract(kind=1, network=0x0A010200, length=24, hops=(4, 9, 17)):
    out = u8(kind) + u32(network) + u8(length) + u32(len(hops))
    for hop in hops:
        out += u32(hop)
    return out + u8(1) + u64(1) + u8(0)


def violation(device=42, prefix_length=24, kind=3):
    return (u32(device) + contract(length=prefix_length) + u8(kind) +
            u32(0x0A000000) + u8(8) + u32(1) + u32(5))


def result(violations=(), reports=(), trace=b"", violation_count=None):
    payload = u32(4) + u32(0)
    for counter in (len(reports), 9 * len(reports), 0, 0, 0, 0, 123456):
        payload += u64(counter)
    payload += u32(len(violations) if violation_count is None
                   else violation_count)
    for v in violations:
        payload += v
    payload += u32(len(reports))
    for device, fingerprint, flags in reports:
        payload += u32(device) + u64(fingerprint) + u8(flags)
    return payload + lp(b"") + lp(trace) + u64(777) + u64(700) + u64(750)


def trace_blob():
    events = [("shard", 1, 0), ("fetch", 2, 1), ("validate", 3, 1)]
    out = u32(TRACE_MAGIC) + u16(1) + u64(0) + u32(len(events))
    for name, span_id, parent in events:
        out += (lp(name.encode()) + u64(span_id) + u64(parent) + u64(9) +
                u32(0) + u64(1000 * span_id) + u64(300))
    return out


def v2_assign():
    """A protocol-v2 assignment: per device a contract list, no
    fingerprint. A v3 decoder must refuse it."""
    payload = u32(3) + u32(1) + u64(7) + u32(2)
    payload += u32(11) + u32(1) + contract()
    payload += u32(12) + u32(2) + contract(kind=0, hops=()) + contract()
    return payload + u64(9) + u64(0xABCDEF) + u64(444)


def corpus():
    files = {}
    valid_hello = frame(HELLO, hello())
    files["valid_hello.bin"] = valid_hello

    # Framing errors, around a valid v3 hello.
    body = hello(worker="w0")
    files["bad_magic.bin"] = frame(HELLO, body, magic=0xDEADBEEF)
    files["bad_version.bin"] = frame(HELLO, body, version=9)
    bad_crc = bytearray(frame(HELLO, body))
    bad_crc[-4] ^= 0x01
    files["bad_crc.bin"] = bytes(bad_crc)
    files["unknown_type.bin"] = frame(99, body)
    files["oversized_length.bin"] = (u32(MAGIC) + u16(WIRE_VERSION) +
                                     u16(HELLO) + u32(0x7FFFFFFF) +
                                     b"x" * 16)
    files["empty.bin"] = b""
    whole = frame(HELLO, body)
    files["truncated_header.bin"] = whole[:8]
    files["truncated_payload.bin"] = whole[:len(whole) - 10]
    rng = random.Random(0xDC5)
    files["garbage.bin"] = bytes(rng.randrange(256) for _ in range(64))

    # Well-framed, hostile payloads: the frame decodes, the message must not.
    files["hostile_string_len.bin"] = frame(HELLO, u32(0xFFFFFF00) + b"ab")
    files["hostile_count_assign.bin"] = frame(
        ASSIGN, u32(0) + u32(0) + u64(1) + u32(0xFFFFFFFF))
    # Five devices claimed, two present: enough bytes for five 8-byte
    # entries once the trailer is counted, never for five 12-byte ones.
    hostile_devices = bytearray(assign([(7, 0xAB), (8, 0xCD)]))
    hostile_devices[16:20] = u32(5)
    files["hostile_count_devices.bin"] = frame(ASSIGN, bytes(hostile_devices))
    files["hostile_count_result.bin"] = frame(
        RESULT, result(violation_count=0x7FFFFFFF))
    files["bad_prefix_len.bin"] = frame(
        RESULT, result(violations=[violation(prefix_length=200)],
                       reports=[(42, 0x42, 0)]))
    files["bad_report_flags.bin"] = frame(
        RESULT, result(reports=[(7, 0xAB, 0x80)]))
    files["trailing_junk.bin"] = frame(
        HEARTBEAT, u32(0) + u32(0) + u32(0) + u64(0) + u64(0) + u64(0) +
        b"JUNKJUNK")
    # Protocol v2 messages: refused by the v3 decoders.
    files["hello_v2.bin"] = frame(
        HELLO, lp(b"v2-worker") + u32(2) + u64(7) + u64(123456789))
    files["assign_v2.bin"] = frame(ASSIGN, v2_assign())

    # Well-framed results whose trace blob is hostile: frame and message
    # decode, the span layer must reject the blob.
    files["result_garbage_trace.bin"] = frame(
        RESULT, result(reports=[(1, 0x11, 1)],
                       trace=b"\xff\xfe\xfd\xfc\x01\x02"))
    files["result_truncated_trace.bin"] = frame(
        RESULT, result(violations=[violation()],
                       reports=[(42, 0x42, 2)],
                       trace=trace_blob()[:-5]))

    # Seeded mutations of a valid v3 assignment.
    seed = frame(ASSIGN, assign([(7, 0xAB), (8, 0)]))
    for i in range(4):
        mutated = bytearray(seed)
        for _ in range(1 + rng.randrange(4)):
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        files[f"mutated_{i}.bin"] = bytes(mutated)
    return files


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent /
                    "tests" / "data" / "dist" / "corpus"))
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in sorted(corpus().items()):
        (out / name).write_bytes(data)
    print(f"wrote {len(corpus())} files to {out}")


if __name__ == "__main__":
    main()

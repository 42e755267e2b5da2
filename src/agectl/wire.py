"""Datagram frame codec for age-control update and ACK packets.

Frame layout (all integers big-endian):

  0               1               2               3
  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
 +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
 |     magic 0xAC50              |    version    |     kind      |
 +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
 |                     sequence number (u32)                     |
 +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
 |            generation / echoed timestamp, microseconds (u64)  |
 |                                                               |
 +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
 |              payload (updates only, 0..65000 bytes)           |

Updates carry an opaque payload whose length is implied by the datagram
length.  ACK frames are exactly HEADER_LEN bytes and echo both the
acknowledged sequence number and the update's generation timestamp, so
staleness checks never depend on timestamp uniqueness.  Encoders always
write ``VERSION`` and decoders reject any other.  One frame per UDP
datagram; no fragmentation handling.  ``encode_update(seq, gen_ts_us,
payload=b"")`` and ``encode_ack(seq, echo_ts_us)`` return a frame;
``decode_update(frame)`` returns ``(seq, gen_ts_us)``, the payload being
``frame[HEADER_LEN:]``, and ``decode_ack(frame)`` returns ``(seq, echo_ts_us)``.
"""

from __future__ import annotations

import struct

MAGIC = b"\xacP"  # 0xAC 0x50
VERSION = 1
KIND_UPDATE = 0
KIND_ACK = 1

HEADER = struct.Struct("!2sBBIQ")
HEADER_LEN = HEADER.size  # 16

MAX_PAYLOAD = 65_000
MAX_SEQ = 2**32 - 1
MAX_TS_US = 2**64 - 1


class WireError(Exception):
    """Base class for codec failures."""


class EncodeError(WireError):
    """Frame fields out of range (oversize payload, seq/timestamp overflow)."""


class DecodeError(WireError):
    """Base class for malformed inbound frames."""


class ShortBufferError(DecodeError):
    """Buffer shorter than the fixed header."""


class BadMagicError(DecodeError):
    """Leading magic bytes are not 0xAC50."""


class BadVersionError(DecodeError):
    """Unsupported protocol version."""


class BadKindError(DecodeError):
    """Frame kind does not match the decoder that was called."""


class LengthMismatchError(DecodeError):
    """ACK frame with trailing bytes (ACKs are fixed-size)."""


def _check_fields(seq: int, ts_us: int) -> None:
    if not 0 <= seq <= MAX_SEQ:
        raise EncodeError(f"seq {seq} out of u32 range")
    if not 0 <= ts_us <= MAX_TS_US:
        raise EncodeError(f"timestamp {ts_us} out of u64 range")


def encode_update(seq: int, gen_ts_us: int, payload: bytes = b"") -> bytes:
    """Serialize an update frame; raises EncodeError on oversize payload."""
    if len(payload) > MAX_PAYLOAD:
        raise EncodeError(f"payload {len(payload)} exceeds {MAX_PAYLOAD} bytes")
    _check_fields(seq, gen_ts_us)
    return HEADER.pack(MAGIC, VERSION, KIND_UPDATE, seq, gen_ts_us) + payload


def encode_ack(seq: int, echo_ts_us: int) -> bytes:
    """Serialize a fixed-size ACK frame."""
    _check_fields(seq, echo_ts_us)
    return HEADER.pack(MAGIC, VERSION, KIND_ACK, seq, echo_ts_us)


def _decode_header(b: bytes, want_kind: int) -> tuple[int, int]:
    if len(b) < HEADER_LEN:
        raise ShortBufferError(f"frame is {len(b)} bytes, need at least {HEADER_LEN}")
    magic, version, kind, seq, ts_us = HEADER.unpack_from(b)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if kind != want_kind:
        raise BadKindError(f"expected kind {want_kind}, got {kind}")
    return seq, ts_us


def decode_update(b: bytes) -> tuple[int, int]:
    """Parse an update frame into ``(seq, gen_ts_us)``; the payload is ``b[HEADER_LEN:]``, uncopied."""
    return _decode_header(b, KIND_UPDATE)


def decode_ack(b: bytes) -> tuple[int, int]:
    """Parse an ACK frame into ``(seq, echo_ts_us)``; rejects trailing bytes."""
    seq_ts = _decode_header(b, KIND_ACK)
    if len(b) != HEADER_LEN:
        raise LengthMismatchError(f"ACK frame is {len(b)} bytes, expected {HEADER_LEN}")
    return seq_ts

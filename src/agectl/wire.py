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
A decoder accepts a frame by its length and its first four bytes read as
one word; only a frame that fails that check is taken apart field by
field, to raise the error that names what is wrong with it.
"""

from __future__ import annotations

import struct

MAGIC = b"\xacP"  # 0xAC 0x50
VERSION = 1
KIND_UPDATE = 0
KIND_ACK = 1

HEADER = struct.Struct("!2sBBIQ")
HEADER_LEN = HEADER.size  # 16
# the same 16 bytes with magic, version and kind read as one big-endian word
_FRAME = struct.Struct("!IIQ")
_UPDATE_WORD = int.from_bytes(MAGIC + bytes((VERSION, KIND_UPDATE)), "big")
_ACK_WORD = int.from_bytes(MAGIC + bytes((VERSION, KIND_ACK)), "big")

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
    try:
        return _FRAME.pack(_UPDATE_WORD, seq, gen_ts_us) + payload
    except struct.error:
        _check_fields(seq, gen_ts_us)  # names an out-of-range field
        raise


def encode_ack(seq: int, echo_ts_us: int) -> bytes:
    """Serialize a fixed-size ACK frame."""
    try:
        return _FRAME.pack(_ACK_WORD, seq, echo_ts_us)
    except struct.error:
        _check_fields(seq, echo_ts_us)
        raise


def _rejected(b: bytes, want_kind: int) -> DecodeError:
    """The error of a frame the one-word check turned away, found by the
    full check order: length, magic, version, kind, then an ACK's length."""
    if len(b) < HEADER_LEN:
        return ShortBufferError(f"frame is {len(b)} bytes, need at least {HEADER_LEN}")
    magic, version, kind, _, _ = HEADER.unpack_from(b)
    if magic != MAGIC:
        return BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        return BadVersionError(f"unsupported version {version}")
    if kind != want_kind:
        return BadKindError(f"expected kind {want_kind}, got {kind}")
    return LengthMismatchError(f"ACK frame is {len(b)} bytes, expected {HEADER_LEN}")


def decode_update(b: bytes) -> tuple[int, int]:
    """Parse an update frame into ``(seq, gen_ts_us)``; the payload is ``b[HEADER_LEN:]``, uncopied."""
    if len(b) >= HEADER_LEN:
        word, seq, ts_us = _FRAME.unpack_from(b)
        if word == _UPDATE_WORD:
            return seq, ts_us
    raise _rejected(b, KIND_UPDATE)


def decode_ack(b: bytes) -> tuple[int, int]:
    """Parse an ACK frame into ``(seq, echo_ts_us)``; rejects trailing bytes."""
    if len(b) == HEADER_LEN:
        word, seq, ts_us = _FRAME.unpack(b)
        if word == _ACK_WORD:
            return seq, ts_us
    raise _rejected(b, KIND_ACK)

"""Codec round-trips, layout contract, and malformed-input handling."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agectl import wire


def test_zero_update_frame_layout():
    frame = wire.encode_update(0, 0, b"")
    assert len(frame) == 16
    assert frame[:2] == b"\xacP"
    assert frame[2] == 1  # version
    assert frame[3] == 0  # update kind
    assert frame[4:] == bytes(12)


def test_zero_ack_round_trip():
    assert wire.decode_ack(wire.encode_ack(0, 0)) == (0, 0)


def test_update_round_trip_identity():
    frame = wire.encode_update(1234, 987654321, b"hello world")
    assert wire.decode_update(frame) == (1234, 987654321)
    assert frame[wire.HEADER_LEN:] == b"hello world"


def test_ack_round_trip():
    frame = wire.encode_ack(7, 123)
    assert len(frame) == 16
    assert wire.decode_ack(frame) == (7, 123)


def test_encoded_length_is_header_plus_payload():
    for n in (0, 1, 17, 1024, 65_000):
        assert len(wire.encode_update(1, 2, bytes(n))) == 16 + n


def test_oversize_payload_rejected():
    with pytest.raises(wire.EncodeError):
        wire.encode_update(1, 1, bytes(65_001))


def test_field_range_rejected():
    with pytest.raises(wire.EncodeError):
        wire.encode_update(2**32, 0)
    with pytest.raises(wire.EncodeError):
        wire.encode_ack(1, 2**64)
    with pytest.raises(wire.EncodeError):
        wire.encode_ack(-1, 0)


def test_short_buffer_error():
    with pytest.raises(wire.ShortBufferError):
        wire.decode_update(b"\xacP\x01\x00\x00\x00")  # 10 bytes short of header
    with pytest.raises(wire.ShortBufferError):
        wire.decode_ack(b"")


def test_kind_mismatch_error():
    upd = wire.encode_update(1, 1)
    ack = wire.encode_ack(1, 1)
    with pytest.raises(wire.BadKindError):
        wire.decode_update(ack)
    with pytest.raises(wire.BadKindError):
        wire.decode_ack(upd)


def test_bad_magic_and_version():
    frame = bytearray(wire.encode_ack(1, 1))
    frame[0] = 0x00
    with pytest.raises(wire.BadMagicError):
        wire.decode_ack(bytes(frame))
    frame = bytearray(wire.encode_ack(1, 1))
    frame[2] = 9
    with pytest.raises(wire.BadVersionError):
        wire.decode_ack(bytes(frame))


def test_ack_length_mismatch():
    frame = wire.encode_ack(1, 1) + b"x"
    with pytest.raises(wire.LengthMismatchError):
        wire.decode_ack(frame)


@given(
    seq=st.integers(0, 2**32 - 1),
    ts=st.integers(0, 2**64 - 1),
    payload=st.binary(max_size=2048),
)
def test_update_round_trip_fuzz(seq, ts, payload):
    frame = wire.encode_update(seq, ts, payload)
    assert wire.decode_update(frame) == (seq, ts)
    assert frame[wire.HEADER_LEN:] == payload


@given(seq=st.integers(0, 2**32 - 1), ts=st.integers(0, 2**64 - 1))
def test_ack_round_trip_fuzz(seq, ts):
    assert wire.decode_ack(wire.encode_ack(seq, ts)) == (seq, ts)


@given(junk=st.binary(max_size=64))
@settings(max_examples=300)
def test_decoder_never_raises_unexpected(junk):
    for decoder in (wire.decode_update, wire.decode_ack):
        try:
            decoder(junk)
        except wire.DecodeError:
            pass  # malformed input must fail with a codec error, nothing else


def test_random_frames_bulk_round_trip():
    rng = random.Random(0xACE)
    for _ in range(20_000):
        seq, ts = rng.getrandbits(32), rng.getrandbits(64)
        payload = rng.randbytes(rng.randrange(0, 64))
        frame = wire.encode_update(seq, ts, payload)
        assert wire.decode_update(frame) == (seq, ts) and frame[wire.HEADER_LEN:] == payload
        seq, ts = rng.getrandbits(32), rng.getrandbits(64)
        assert wire.decode_ack(wire.encode_ack(seq, ts)) == (seq, ts)


# -- the one-word header check against the full field-by-field check --------------


def reference_decode(b: bytes, want_kind: int) -> tuple[int, int]:
    """Decode by the documented check order: length, magic, version, kind,
    then (ACKs only) no trailing bytes."""
    if len(b) < 16:
        raise wire.ShortBufferError(f"frame is {len(b)} bytes, need at least 16")
    magic, version, kind, seq, ts_us = struct.unpack_from("!2sBBIQ", b)
    if magic != b"\xacP":
        raise wire.BadMagicError(f"bad magic {magic!r}")
    if version != 1:
        raise wire.BadVersionError(f"unsupported version {version}")
    if kind != want_kind:
        raise wire.BadKindError(f"expected kind {want_kind}, got {kind}")
    if want_kind == wire.KIND_ACK and len(b) != 16:
        raise wire.LengthMismatchError(f"ACK frame is {len(b)} bytes, expected 16")
    return seq, ts_us


def _outcome(decode, frame):
    """The value ``decode`` returns, or the class and message of its DecodeError."""
    try:
        return decode(frame)
    except wire.DecodeError as err:
        return type(err), str(err)


def _mutated(kind, seq, ts_us, tail, index, value):
    """A well-formed header of ``kind`` with ``tail`` after it and the byte at
    ``index`` (within the header) set to ``value``."""
    frame = bytearray(struct.pack("!2sBBIQ", b"\xacP", 1, kind, seq, ts_us) + tail)
    frame[index] = value
    return bytes(frame)


_FRAMES = st.binary(max_size=40) | st.builds(
    _mutated,
    st.sampled_from((wire.KIND_UPDATE, wire.KIND_ACK)),
    st.integers(0, wire.MAX_SEQ),
    st.integers(0, wire.MAX_TS_US),
    st.just(b"") | st.binary(max_size=8),
    st.integers(0, 15),
    st.integers(0, 255) | st.sampled_from((0xAC, 0x50, 1, 0)),
)


@given(frame=_FRAMES)
@settings(max_examples=500)
def test_decoders_agree_with_the_full_check(frame):
    for decode, kind in ((wire.decode_update, wire.KIND_UPDATE), (wire.decode_ack, wire.KIND_ACK)):
        assert _outcome(decode, frame) == _outcome(lambda b: reference_decode(b, kind), frame)


@pytest.mark.parametrize(
    "seq, ts_us, message",
    [
        (2**32, 0, "seq 4294967296 out of u32 range"),
        (-1, 0, "seq -1 out of u32 range"),
        (0, 2**64, "timestamp 18446744073709551616 out of u64 range"),
        (-1, 2**64, "seq -1 out of u32 range"),  # seq is checked first
    ],
)
def test_encoders_name_the_out_of_range_field(seq, ts_us, message):
    for encode in (lambda: wire.encode_update(seq, ts_us, b"x"), lambda: wire.encode_ack(seq, ts_us)):
        with pytest.raises(wire.EncodeError) as err:
            encode()
        assert str(err.value) == message


def test_non_integer_fields_raise_struct_error():
    with pytest.raises(struct.error):
        wire.encode_update(1.5, 0)
    with pytest.raises(struct.error):
        wire.encode_ack(1, 2.0)

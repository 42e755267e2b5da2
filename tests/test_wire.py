"""Codec round-trips, layout contract, and malformed-input handling."""

import random

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

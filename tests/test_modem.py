"""Bit serialization convention and differential modem tests."""

import numpy as np
import pytest

from gblink import framing, modem, sync
from gblink.framing import P32


def diff_decode(enc: np.ndarray) -> np.ndarray:
    """Test-local inverse of diff_encode: d_k = e_k xor e_{k-1}, e_{-1} = 0."""
    return enc ^ np.concatenate(([0], enc[:-1])).astype(np.uint8)


def test_serialize_msb_first():
    """The link serializes bytes MSB-first: the first preamble bit sent is
    the top bit of the frozen first byte."""
    assert list(np.unpackbits(np.frombuffer(b"\xa5", np.uint8))) == [1, 0, 1, 0, 0, 1, 0, 1]
    assert list(framing.gen_preamble(P32)[:8]) == [1, 1, 1, 1, 1, 0, 0, 1]  # 0xf9
    frame = framing.build_frames(np.zeros(P32.payload_bytes, np.uint8), P32)
    assert np.array_equal(np.unpackbits(frame[0, :4]), framing.gen_preamble(P32))


@pytest.mark.parametrize("offset", range(8))
def test_deserialize_offsets(offset):
    """Frames behind `offset` junk bits: the synchronizer finds the offset
    and each frame of bytes realigned there parses to its payload."""
    rng = np.random.default_rng(offset)
    payloads = rng.integers(0, 256, (3, P32.payload_bytes), dtype=np.uint8)
    junk = rng.integers(0, 2, offset).astype(np.uint8)
    frames = np.unpackbits(framing.build_frames(payloads, P32).reshape(-1))
    bits = np.concatenate([junk, frames, framing.gen_preamble(P32)])
    located, _ = sync.FrameSynchronizer(P32, 28).locate_frames(sync.pack(bits), bits.size)
    assert located.tolist() == [offset + k * P32.frame_bits for k in range(3)]
    realigned = np.packbits(bits[offset: offset + frames.size]).reshape(3, -1)
    for frame, payload in zip(realigned, payloads):
        assert framing.parse_frame(frame.tobytes(), P32) == (payload.tobytes(), 0)


def test_diff_encode_hand_values():
    assert list(modem.diff_encode(np.zeros(5, np.uint8))) == [0, 0, 0, 0, 0]
    assert list(modem.diff_encode(np.array([1, 0, 1], np.uint8))) == [1, 1, 0]


def test_diff_encode_decode_inverse():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 5000).astype(np.uint8)
    assert np.array_equal(diff_decode(modem.diff_encode(bits)), bits)


def test_bpsk_map():
    out = modem.bpsk_map(np.array([0, 1, 0], np.uint8))
    assert list(out) == [1.0, -1.0, 1.0]
    assert (np.abs(out) == 1.0).all()


def test_diff_demod_hand_values():
    assert list(modem.diff_demod(np.array([1.0, 1.0, -1.0, -1.0, 1.0]))) == [0, 1, 0, 1]


def test_diff_demod_requires_reference():
    with pytest.raises(ValueError):
        modem.diff_demod(np.array([1.0]))


def test_noiseless_chain_identity_and_sign_flip():
    rng = np.random.default_rng(2)
    data = rng.integers(0, 256, 500, dtype=np.uint8)
    bits = np.unpackbits(data)
    samples = np.concatenate(([1.0], modem.bpsk_map(modem.diff_encode(bits))))
    for sign in (1.0, -1.0):
        out = modem.diff_demod(sign * samples)
        assert np.array_equal(np.packbits(out), data)


def test_single_symbol_flip_doubles():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 1000).astype(np.uint8)
    samples = np.concatenate(([1.0], modem.bpsk_map(modem.diff_encode(bits))))
    flipped = samples.copy()
    flipped[500] = -flipped[500]
    errors = int(np.sum(modem.diff_demod(flipped) != bits))
    assert errors == 2


def test_diff_demod_complex_matches_real_for_real_inputs():
    rng = np.random.default_rng(4)
    samples = rng.normal(0, 1, 100)
    assert np.array_equal(modem.diff_demod(samples),
                          modem.diff_demod(samples.astype(np.complex128)))

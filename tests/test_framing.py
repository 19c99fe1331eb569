"""Frame format, preamble/scrambler, and assembly/parsing tests."""

import numpy as np
import pytest

import framing_oracle
from gblink import channel, framing, rs, sync
from gblink.framing import P32, P64

# Worst-case score per cyclic phase of the P32 scrambler candidate set,
# recorded from the selection procedure (phases 11 and 14 score 24, the
# rest 22; phase 0 wins on the lowest-index tie-break).
P32_SCORE_TABLE = [22] * 32
P32_SCORE_TABLE[11] = 24
P32_SCORE_TABLE[14] = 24


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
class TestFrameKind:
    def test_sizes(self, kind):
        expected = {"P32": (260, 264, 4, 32, 239, 1), "P64": (518, 526, 8, 64, 478, 2)}[kind.tag]
        frame_bytes, span, pre_bytes, pre_bits, payload, ncw = expected
        assert kind.frame_bytes == frame_bytes
        assert kind.span_bytes == span
        assert kind.preamble_bytes == len(kind.preamble) == len(kind.scrambler) == pre_bytes
        assert kind.preamble_bits == pre_bits
        assert kind.payload_bytes == payload
        assert kind.codewords_per_frame == ncw

    def test_rates(self, kind):
        mbps = kind.source_rate_bps / 1e6
        printed = {"P32": 804.33, "P64": 807.43}[kind.tag]
        assert abs(mbps - printed) <= 0.01
        assert channel.CHANNEL_RATE_BPS == 875e6

    def test_layout_identity(self, kind):
        assert kind.preamble_bytes + kind.body_bytes == kind.frame_bytes
        assert kind.body_bytes == kind.codewords_per_frame * 255 + kind.dummy_bytes


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
class TestPreamble:
    def test_length_and_constant(self, kind):
        pre = framing.gen_preamble(kind)
        assert pre.size == kind.preamble_bits
        assert np.array_equal(pre, framing_oracle.preamble(kind))
        assert np.packbits(pre).tobytes() == kind.preamble

    def test_balanced(self, kind):
        # m-sequence has 2^(n-1) ones; the zero pad balances the count exactly
        pre = framing.gen_preamble(kind)
        assert int(pre.sum()) == kind.preamble_bits // 2

    def test_self_correlation(self, kind):
        pre = framing.gen_preamble(kind)
        assert sync.correlate(pre, pre) == kind.preamble_bits

    def test_msequence_period(self, kind):
        taps = framing_oracle.PREAMBLE_TAPS[kind.preamble_bits]
        period = 2 ** max(taps) - 1
        seq = framing_oracle.lfsr_sequence(taps, 2 * period)
        assert np.array_equal(seq[:period], seq[period:])
        rotations = {tuple(np.roll(seq[:period], r)) for r in range(period)}
        assert len(rotations) == period  # full period, no shorter cycle


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
class TestScrambler:
    def test_length_and_distinct(self, kind):
        seq = kind.scrambler
        assert len(seq) == kind.preamble_bytes
        assert seq != kind.preamble

    def test_selection_reproduces_frozen_constant(self, kind):
        pre = framing_oracle.preamble(kind)
        winner = framing_oracle.select_scrambler(pre, framing_oracle.scrambler_candidates(kind))
        assert winner == kind.scrambler

    def test_worst_case_correlation_below_gamma(self, kind):
        pre = framing.gen_preamble(kind)
        score = framing_oracle.scrambler_score(kind.scrambler, pre)
        assert score < kind.default_gamma


def test_p32_selection_score_table():
    pre = framing.gen_preamble(P32)
    candidates = framing_oracle.scrambler_candidates(P32)
    scores = [framing_oracle.scrambler_score(c, pre) for c in candidates]
    assert scores == P32_SCORE_TABLE


def test_select_scrambler_orders_preamble_below_complement():
    pre = framing.gen_preamble(P32)
    pre_bytes = np.packbits(pre).tobytes()
    complement = bytes(b ^ 0xFF for b in pre_bytes)
    # the self-matching candidate scores a full 32 and must lose
    assert framing_oracle.select_scrambler(pre, [pre_bytes, complement]) == complement
    assert framing_oracle.select_scrambler(pre, [complement]) == complement


def test_select_scrambler_empty():
    with pytest.raises(ValueError):
        framing_oracle.select_scrambler(framing.gen_preamble(P32), [])


def as_array(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8)


def build_frame(payload: bytes, kind) -> bytes:
    return framing.build_frames(as_array(payload), kind)[0].tobytes()


class TestScramble:
    def test_involution(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, 256, dtype=np.uint8)
        seq = P32.scrambler
        assert np.array_equal(framing.scramble(framing.scramble(data, seq), seq), data)

    def test_zeros_give_sequence(self):
        seq = P32.scrambler
        assert framing.scramble(np.zeros(12, np.uint8), seq).tobytes() == seq * 3

    def test_sequence_gives_zeros(self):
        seq = P64.scrambler
        assert not framing.scramble(as_array(seq * 4), seq).any()

    def test_truncated_tail(self):
        # P64 bodies are 510 bytes against an 8-byte sequence
        seq = P64.scrambler
        out = framing.scramble(np.zeros(510, np.uint8), seq)
        assert out.tobytes() == (seq * 64)[:510]

    def test_rows_scrambled_along_last_axis(self):
        seq = P32.scrambler
        data = np.random.default_rng(1).integers(0, 256, (3, 10), dtype=np.uint8)
        out = framing.scramble(data, seq)
        for row_in, row_out in zip(data, out):
            assert np.array_equal(row_out, framing.scramble(row_in, seq))


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
class TestFrameRoundTrip:
    def test_zero_payload(self, kind):
        frame = build_frame(bytes(kind.payload_bytes), kind)
        assert len(frame) == kind.frame_bytes
        assert frame[: kind.preamble_bytes] == kind.preamble
        # zero payload encodes to the all-zero codeword, so the body is the
        # bare scrambling pattern
        seq = kind.scrambler
        reps = -(-kind.body_bytes // len(seq))
        assert frame[kind.preamble_bytes:] == (seq * reps)[: kind.body_bytes]
        assert framing.parse_frame(frame, kind) == (bytes(kind.payload_bytes), 0)

    def test_random_round_trip(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(50):
            payload = rng.integers(0, 256, kind.payload_bytes, dtype=np.uint8).tobytes()
            frame = build_frame(payload, kind)
            assert framing.parse_frame(frame, kind) == (payload, 0)

    def test_round_trip_bulk(self, kind):
        rng = np.random.default_rng(6)
        n = 10_000 // (2 if kind is P64 else 1)
        payloads = rng.integers(0, 256, (n, kind.payload_bytes), dtype=np.uint8)
        frames = framing.build_frames(payloads, kind)
        for frame, payload in zip(frames, payloads):
            assert framing.parse_frame(frame.tobytes(), kind) == (payload.tobytes(), 0)

    def test_corrections_reported(self, kind):
        rng = np.random.default_rng(8)
        payload = rng.integers(0, 256, kind.payload_bytes, dtype=np.uint8).tobytes()
        frame = bytearray(build_frame(payload, kind))
        body = range(kind.preamble_bytes, kind.preamble_bytes + 255)
        for pos in rng.choice(list(body), 5, replace=False):
            frame[pos] ^= int(rng.integers(1, 256))
        parsed, corrected = framing.parse_frame(bytes(frame), kind)
        assert parsed == payload
        assert corrected == 5

    def test_unparseable_frame(self, kind):
        rng = np.random.default_rng(9)
        payload = rng.integers(0, 256, kind.payload_bytes, dtype=np.uint8).tobytes()
        frame = bytearray(build_frame(payload, kind))
        for pos in rng.choice(range(kind.preamble_bytes, kind.preamble_bytes + 255),
                              20, replace=False):
            frame[pos] ^= int(rng.integers(1, 256))
        with pytest.raises(framing.FrameError):
            framing.parse_frame(bytes(frame), kind)

    def test_length_validation(self, kind):
        with pytest.raises(ValueError):
            framing.build_frames(np.zeros((1, 10), np.uint8), kind)
        with pytest.raises(ValueError):
            framing.parse_frame(bytes(10), kind)
        with pytest.raises(ValueError):
            framing.parse_frame(bytes(kind.frame_bytes + 1), kind)
        with pytest.raises(ValueError, match=f"{kind.frame_bytes} bytes"):
            kind.codewords(np.zeros((2, kind.frame_bytes + 1), np.uint8))


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
@pytest.mark.parametrize("fill", [0x00, 0xFF], ids=["zeros", "ones"])
def test_preamble_never_inside_scrambled_body(kind, fill):
    """Constant payloads are the scrambler's worst case; even then no bit
    alignment of the body may look like the sync word."""
    frame = build_frame(bytes([fill]) * kind.payload_bytes, kind)
    body_bits = np.unpackbits(np.frombuffer(frame[kind.preamble_bytes:], np.uint8))
    every_bit = np.arange(body_bits.size - kind.preamble_bits + 1)
    counts = sync.match_counts(sync.pack(body_bits), every_bit, framing.gen_preamble(kind))
    assert int(counts.max()) < kind.default_gamma


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
def test_codewords_view(kind):
    """The codeword bytes of built frames, descrambled by the zero payload's
    frame (the preamble and the scrambled zero body), are the RS codewords of
    the payloads; the view shares the frames' memory, so writes through it
    land in the codeword region and nowhere else."""
    rng = np.random.default_rng(12)
    payloads = rng.integers(0, 256, (6, kind.payload_bytes), dtype=np.uint8)
    frames = framing.build_frames(payloads, kind)
    body = framing.scramble(np.zeros(kind.body_bytes, np.uint8), kind.scrambler)
    zero = np.concatenate([as_array(kind.preamble), body])
    view = kind.codewords(frames)
    assert view.shape == (6, kind.codewords_per_frame, 255)
    encoded = rs.encode_blocks(payloads.reshape(-1, 239)).reshape(view.shape)
    assert np.array_equal(view ^ kind.codewords(zero), encoded)
    assert kind.codewords(frames.reshape(2, 3, -1)).shape == (2, 3, kind.codewords_per_frame, 255)
    outside = np.ones(kind.frame_bytes, bool)
    outside[kind.preamble_bytes: kind.preamble_bytes + 255 * kind.codewords_per_frame] = False
    before = frames.copy()
    view[...] = 0
    assert not frames[:, ~outside].any() and np.array_equal(frames[:, outside], before[:, outside])

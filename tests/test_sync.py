"""Synchronizer tests: correlators, dual-bank detection, tracking against a
per-frame reference loop, and the analytic probabilities against exhaustive
and exact-rational oracles."""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gblink import channel, framing, sync
from gblink.framing import P32, P64
from gblink.sync import FrameSynchronizer


def exact_tail_ge(n: int, k: int, p: float) -> Fraction:
    """P[Bin(n, p) >= k] in exact rational arithmetic (p taken bit-exactly)."""
    pf = Fraction(p)
    return sum((Fraction(math.comb(n, i)) * pf ** i * (1 - pf) ** (n - i)
                for i in range(k, n + 1)), Fraction(0))


def build_stream(kind, payload_seed, nframes, prefix_bits=0):
    rng = np.random.default_rng(payload_seed)
    payloads = rng.integers(0, 256, (nframes, kind.payload_bytes), dtype=np.uint8)
    bits = np.unpackbits(framing.build_frames(payloads, kind).reshape(-1))
    junk = rng.integers(0, 2, prefix_bits).astype(np.uint8)
    return np.concatenate([junk, bits])


def located(synchronizer, packed, nbits, first=0):
    """`locate_frames` with its int64 starts as a list, to compare with lists."""
    starts, losses = synchronizer.locate_frames(packed, nbits, first)
    assert starts.dtype == np.int64 and starts.ndim == 1
    return starts.tolist(), losses


def locate(stream, kind, gamma):
    return located(FrameSynchronizer(kind, gamma), sync.pack(stream), stream.size)


def reference_locate_frames(bits, synchronizer):
    """Frame-at-a-time tracker: after each dual-bank lock, check one preamble
    per frame, ride out a single miss, and after two misses in a row count a
    loss and re-acquire one bit past the second missed preamble."""
    bits = np.asarray(bits, dtype=np.uint8)
    pre = framing.gen_preamble(synchronizer.kind)
    n, frame_bits = pre.size, synchronizer.kind.frame_bits
    last = bits.size - (frame_bits + n)
    if last < 0:
        return [], 0
    counts = (np.lib.stride_tricks.sliding_window_view(bits, n) == pre).sum(axis=1)
    locks = np.flatnonzero((counts[: last + 1] >= synchronizer.gamma)
                           & (counts[frame_bits: frame_bits + last + 1] >= synchronizer.gamma))
    starts: list[int] = []
    losses = 0
    pos = 0
    while True:
        later = locks[locks >= pos]
        if later.size == 0:
            return starts, losses
        s = int(later[0])
        miss_streak = 0
        lost = False
        while s + frame_bits <= bits.size:
            if np.count_nonzero(bits[s: s + n] == pre) >= synchronizer.gamma:
                miss_streak = 0
            else:
                miss_streak += 1
                if miss_streak >= 2:
                    losses += 1
                    lost = True
                    break
            starts.append(s)
            s += frame_bits
        if not lost:
            return starts, losses
        pos = s + 1


class TestCorrelate:
    def test_self_match(self):
        pre = framing.gen_preamble(P32)
        assert sync.correlate(pre, pre) == 32

    def test_complement(self):
        pre = framing.gen_preamble(P32)
        assert sync.correlate(1 - pre, pre) == 0

    def test_four_flips(self):
        pre = framing.gen_preamble(P32)
        window = pre.copy()
        window[[1, 7, 20, 31]] ^= 1
        assert sync.correlate(window, pre) == 28

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sync.correlate(np.zeros(8, np.uint8), framing.gen_preamble(P32))
        with pytest.raises(ValueError):
            sync.correlate(np.zeros((3, 8), np.uint8), framing.gen_preamble(P32))

    def test_batch_counts_last_axis(self):
        pre = framing.gen_preamble(P64)
        windows = np.random.default_rng(10).integers(0, 2, (3, 5, 64)).astype(np.uint8)
        windows[1, 2] = pre
        counts = sync.correlate(windows, pre)
        assert counts.shape == (3, 5)
        assert counts[1, 2] == 64
        for idx in np.ndindex(3, 5):
            assert counts[idx] == sync.correlate(windows[idx], pre)


def sliding_counts(bits, pre):
    """Match counts of the preamble at every start, by comparing unpacked windows."""
    return (np.lib.stride_tricks.sliding_window_view(bits, pre.size) == pre).sum(axis=1)


def kernel_counts(packed, kind, q, r):
    """n - the window kernel at bytes q (a slice), bit offsets r, against the kind's preamble."""
    n = kind.preamble_bits
    return n - sync._mismatches(packed, q, r, *sync._preamble_word(kind.preamble, n)).astype(int)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([P32, P64]), st.integers(0, 200), st.floats(0.0, 0.5),
       st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 10 ** 6), max_size=20))
def test_match_counts_matches_sliding_reference(kind, extra, flip, seed, picks):
    """The packed kernel against a compare of unpacked windows, at random
    starts of every bit offset and at the last eight windows: stream lengths
    off the byte grid put the packing pad right after the last window."""
    pre = framing.gen_preamble(kind)
    n = pre.size
    rng = np.random.default_rng(seed)
    # noisy preamble copies give counts near n as well as near n / 2
    bits = (np.resize(pre, n + extra) ^ (rng.random(n + extra) < flip)).astype(np.uint8)
    last = bits.size - n
    starts = np.array([p % (last + 1) for p in picks] + [max(last - k, 0) for k in range(8)])
    expect = sliding_counts(bits, pre)
    assert sync.match_counts(sync.pack(bits), starts, pre).tolist() == expect[starts].tolist()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([P32, P64]), st.integers(0, 400), st.floats(0.0, 0.5),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.booleans())
def test_acquisition_scan_matches_sliding_reference(kind, extra, flip, seed, a, length, to_last):
    """The kernel's acquisition form (a stride-1 slice of bytes, all 8 bit offsets) against
    unpacked windows at every start in [a, b), with a and b at every bit offset; `to_last`
    ends the scan at the stream's last window, where the last bank-2 window sits."""
    pre = framing.gen_preamble(kind)
    n = pre.size
    rng = np.random.default_rng(seed)
    bits = (np.resize(pre, n + extra) ^ (rng.random(n + extra) < flip)).astype(np.uint8)
    last = bits.size - n
    a %= last + 1
    b = last + 1 if to_last else a + length % (last + 2 - a)
    q = a >> 3
    scan = kernel_counts(sync.pack(bits), kind, slice(q, (b + 7) >> 3), sync._OFFSETS)
    assert scan.T.ravel()[a - 8 * q: b - 8 * q].tolist() == sliding_counts(bits, pre)[a:b].tolist()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([P32, P64]), st.integers(0, 7), st.integers(0, 800), st.integers(1, 8),
       st.one_of(st.just(0), st.integers(1, 15)), st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
def test_tracking_form_matches_sliding_reference(kind, r, q, count, extra, flip, seed):
    """The kernel's tracking form (a slice of stride frame_bytes, one bit offset r) against
    unpacked windows on `count` windows a frame apart from s = 8 q + r, for every r (at r = 0
    the ninth byte is shifted out whole): noisy preambles on the grid give counts near n, and
    with no extra bits the last window ends the stream, so its word and ninth byte reach into
    the pad bytes of `pack`."""
    pre = framing.gen_preamble(kind)
    n, fb = pre.size, kind.frame_bits
    rng = np.random.default_rng(seed)
    s = 8 * q + r
    size = s + (count - 1) * fb + n + extra
    frame = np.concatenate([pre, rng.integers(0, 2, fb - n)])
    bits = (np.roll(np.resize(frame, size), s) ^ (rng.random(size) < flip)).astype(np.uint8)
    grid = slice(q, q + count * kind.frame_bytes, kind.frame_bytes)
    got = kernel_counts(sync.pack(bits), kind, grid, r)
    assert got.tolist() == sliding_counts(bits, pre)[s: s + count * fb: fb].tolist()


class TestDetect:
    """First dual-bank lock, read as the first start locate_frames returns."""

    def test_clean_lock_at_zero(self):
        stream = build_stream(P32, 1, 3)
        starts, losses = locate(stream, P32, 28)
        assert starts[:1] == [0] and losses == 0
        banks = np.stack([stream[:32], stream[P32.frame_bits: P32.frame_bits + 32]])
        assert sync.correlate(banks, framing.gen_preamble(P32)).tolist() == [32, 32]

    @pytest.mark.parametrize("offset", range(8))
    def test_shift_equivariant(self, offset):
        stream = build_stream(P32, 2, 3, prefix_bits=offset)
        assert locate(stream, P32, 28)[0][:1] == [offset]

    def test_p64(self):
        stream = build_stream(P64, 3, 3, prefix_bits=5)
        assert locate(stream, P64, 49)[0][:1] == [5]

    def test_stream_too_short(self):
        assert locate(np.zeros(100, np.uint8), P32, 28) == ([], 0)
        assert locate(np.zeros(0, np.uint8), P32, 28) == ([], 0)
        # one frame plus all but the last bit of the next preamble: bank 2
        # never fits, so nothing locks; the missing bit makes it lock
        one = build_stream(P32, 11, 1)
        pre = framing.gen_preamble(P32)
        assert locate(np.concatenate([one, pre[:-1]]), P32, 28) == ([], 0)
        assert locate(np.concatenate([one, pre]), P32, 28) == ([0], 0)

    @pytest.mark.parametrize("dtype,nbits,first,match", [
        (np.uint8, 8352, 0, "packed must be"), (np.uint8, 12512, 0, "packed must be"),
        (np.int64, 6272, 0, "packed must be"), (np.uint8, 6272, 1, "packed must be"),
        (np.uint8, 6240, -1, "packed must be"), (np.uint8, 6240, 2.0, "^first must be an integer"),
        (np.uint8, 6240, True, "^first must be an integer"),
        (np.uint8, 6240, np.float64(2), "^first must be an integer")],
        ids=["past-the-data", "past-the-pad", "int64", "first-past-the-pad", "negative-first",
             "float-first", "bool-first", "np-float-first"])
    def test_packed_must_hold_nbits(self, dtype, nbits, first, match):
        """Three frames and the trailing preamble, 6272 bits packed by `pack`: an nbits that
        reads past the data (where tracking would deliver a fourth frame from the pad) or past
        the buffer, from bit 0 or a later first bit, a negative first bit, a first bit that is
        not an integer, or a packed array that is not uint8, is a ValueError."""
        stream = np.concatenate([build_stream(P32, 23, 3), framing.gen_preamble(P32)])
        packed, synchronizer = sync.pack(stream), FrameSynchronizer(P32, 28)
        assert located(synchronizer, packed, stream.size) == ([0, 2080, 4160], 0)
        with pytest.raises(ValueError, match=match):
            synchronizer.locate_frames(packed.astype(dtype), nbits, first)

    @pytest.mark.parametrize("nbits", [6240.0, True, np.float64(6240)],
                             ids=["float", "bool", "np-float"])
    def test_nbits_must_be_an_integer(self, nbits):
        stream = build_stream(P32, 23, 3)
        synchronizer = FrameSynchronizer(P32, 28)
        with pytest.raises(ValueError, match=r"^nbits must be an integer"):
            synchronizer.locate_frames(sync.pack(stream), nbits)
        assert synchronizer.locate_frames(sync.pack(stream), np.int64(stream.size))[1] == 0

    def test_no_lock_on_random_data(self):
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 2, P32.span_bytes * 8 + 1000).astype(np.uint8)
        assert locate(stream, P32, 28) == ([], 0)

    def test_single_bank_not_enough(self):
        """One preamble with garbage where the second should be must not lock."""
        rng = np.random.default_rng(5)
        pre = framing.gen_preamble(P32)
        stream = np.concatenate([pre, rng.integers(0, 2, P32.span_bytes * 8).astype(np.uint8)])
        assert locate(stream, P32, 28) == ([], 0)

    def test_gamma_boundary(self):
        stream = build_stream(P32, 6, 3)
        stream[3] ^= 1  # one bit error in the first preamble
        assert locate(stream, P32, 32)[0][:1] != [0]
        assert locate(stream, P32, 31)[0][:1] == [0]

    def test_gamma_validation(self):
        with pytest.raises(ValueError, match=r"gamma must be in \[0, 32\] for P32, got 33"):
            FrameSynchronizer(P32, 33)
        with pytest.raises(ValueError, match=r"gamma must be in \[0, 64\] for P64, got -1"):
            FrameSynchronizer(P64, -1)
        with pytest.raises(ValueError, match=r"gamma must be in \[0, 32\], got 33"):
            sync.p_false(32, 33)
        with pytest.raises(ValueError, match=r"gamma must be in \[0, 64\], got -2"):
            sync.p_miss(64, -2, 1e-3)

    @pytest.mark.parametrize("gamma", [28.5, True], ids=["fraction", "bool"])
    def test_gamma_must_be_an_integer(self, gamma):
        for check in (lambda: FrameSynchronizer(P32, gamma), lambda: sync.p_false(32, gamma),
                      lambda: sync.p_miss(32, gamma, 1e-4),
                      lambda: sync.tradeoff_table(P32, 1e-4, [gamma])):
            with pytest.raises(ValueError, match=r"^gamma must be an integer"):
                check()
        synchronizer = FrameSynchronizer(P32, np.int64(28))
        assert synchronizer.gamma == 28 and type(synchronizer.gamma) is int
        assert sync.p_false(32, np.int64(28)) == sync.p_false(32, 28)


class TestTracking:
    def test_clean_tracking(self):
        stream = build_stream(P32, 7, 20, prefix_bits=3)
        starts, losses = locate(stream, P32, 28)
        assert losses == 0
        assert starts == [3 + i * P32.frame_bits for i in range(20)]

    def test_single_miss_flywheel(self):
        stream = build_stream(P32, 8, 10)
        fb = P32.frame_bits
        stream[4 * fb: 4 * fb + 10] ^= 1  # corrupt one preamble beyond gamma
        starts, losses = locate(stream, P32, 28)
        assert losses == 0
        assert starts == [i * fb for i in range(10)]

    def test_two_misses_lose_sync(self):
        stream = build_stream(P32, 9, 10)
        fb = P32.frame_bits
        for i in (4, 5):
            stream[i * fb: i * fb + 12] ^= 1
        starts, losses = locate(stream, P32, 28)
        assert losses == 1
        # frame 4 rides the flywheel, frame 5 is lost, 6..9 re-acquired
        assert starts == [i * fb for i in (0, 1, 2, 3, 4, 6, 7, 8, 9)]

    def test_reacquire_one_bit_after_second_miss(self):
        """Preambles of frames 4-6 moved one bit late score 17 of 32 on the
        grid, so frames 4 and 5 miss and sync is lost; acquisition restarts
        one bit after frame 5 and locks on the moved preambles of 5 and 6."""
        pre = framing.gen_preamble(P32)
        stream = np.concatenate([build_stream(P32, 14, 10), pre])
        fb = P32.frame_bits
        for i in (4, 5, 6):
            stream[i * fb + 1: i * fb + 33] = pre
        starts, losses = locate(stream, P32, 28)
        assert losses == 2
        assert starts == [i * fb for i in range(5)] + [i * fb + 1 for i in (5, 6, 7)] + [9 * fb]
        assert (starts, losses) == reference_locate_frames(stream, FrameSynchronizer(P32, 28))


_FRAMES = {kind: build_stream(kind, 20, 60) for kind in (P32, P64)}


@st.composite
def _noisy_streams(draw):
    kind = draw(st.sampled_from([P32, P64]))
    n = kind.preamble_bits
    gamma = draw(st.integers(3 * n // 4, n))
    nframes = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    junk = rng.integers(0, 2, draw(st.integers(0, 40))).astype(np.uint8)
    # the trailing preamble gives the last frame its bank-2 window, as in run_link
    tail = framing.gen_preamble(kind)[: n if draw(st.booleans()) else 0]
    clean = np.concatenate([junk, _FRAMES[kind][: nframes * kind.frame_bits], tail])
    p = draw(st.floats(0.0, 0.5))
    return kind, gamma, channel.bsc(clean, p, int(rng.integers(2 ** 32)))


@settings(max_examples=300, deadline=None)
@given(_noisy_streams(),
       st.one_of(st.integers(1, 24), st.sampled_from([sync._TRACK_FIRST_FRAMES, 10_000])),
       st.integers(0, 7))
def test_locate_frames_matches_reference(case, first_block, cut):
    """Any first tracking block length, so miss pairs fall on block edges, the default one
    and one longer than any stream, and streams cut off the byte grid, so the last windows
    border the pad."""
    kind, gamma, bits = case
    bits = bits[: bits.size - cut]
    synchronizer = FrameSynchronizer(kind, gamma)
    with mock.patch.object(sync, "_TRACK_FIRST_FRAMES", first_block):
        got = located(synchronizer, sync.pack(bits), bits.size)
    assert got == reference_locate_frames(bits, synchronizer)


@settings(max_examples=200, deadline=None)
@given(_noisy_streams(), st.lists(st.integers(0, 1), max_size=15))
def test_starts_count_from_first(case, prefix):
    """The bits from bit `first` of a stream give the starts and losses of those bits alone,
    counted from `first`, whatever bits precede them."""
    kind, gamma, bits = case
    synchronizer = FrameSynchronizer(kind, gamma)
    behind = sync.pack(np.concatenate([np.array(prefix, np.uint8), bits]))
    assert located(synchronizer, behind, bits.size, len(prefix)) == \
        located(synchronizer, sync.pack(bits), bits.size)


@pytest.mark.parametrize("first_block", [1, 2, 3, 4])
def test_miss_pair_on_every_block_edge(first_block):
    """A miss pair at each position after the first lock of a 40-frame stream,
    against short blocks: the pair straddles a block edge for some positions
    and is never skipped."""
    fb = P32.frame_bits
    base = np.concatenate([build_stream(P32, 21, 40), framing.gen_preamble(P32)])
    synchronizer = FrameSynchronizer(P32, 28)
    with mock.patch.object(sync, "_TRACK_FIRST_FRAMES", first_block):
        for i in range(2, 39):
            stream = base.copy()
            for j in (i, i + 1):
                stream[j * fb: j * fb + 12] ^= 1
            got = located(synchronizer, sync.pack(stream), stream.size)
            assert got == reference_locate_frames(stream, synchronizer)
            assert got[1] == 1 and i * fb in got[0] and (i + 1) * fb not in got[0]


def _chunk_starts(frame_bits, chunk_bits, count):
    """The first positions of the first `count` acquisition chunks."""
    starts, pos, chunk = [], 0, min(frame_bits, chunk_bits)
    for _ in range(count):
        starts.append(pos)
        pos, chunk = pos + chunk, min(2 * chunk, chunk_bits)
    return starts


@st.composite
def _chunk_edge_streams(draw):
    """A frame stream behind junk whose length puts the first lock on, or a
    bit beside, an edge of the first, doubled or capped acquisition chunk."""
    kind = draw(st.sampled_from([P32, P64]))
    chunk_bits = draw(st.one_of(st.integers(1, 64), st.integers(1, 1 << 15),
                                st.sampled_from([kind.frame_bits - 1, kind.frame_bits,
                                                 kind.frame_bits + 1, 1 << 15])))
    edges = [e for e in _chunk_starts(kind.frame_bits, chunk_bits, 12) if e <= 3 * kind.frame_bits]
    junk = max(0, draw(st.sampled_from(edges)) + draw(st.integers(-1, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    clean = np.concatenate([rng.integers(0, 2, junk).astype(np.uint8),
                            _FRAMES[kind][: draw(st.integers(1, 20)) * kind.frame_bits],
                            framing.gen_preamble(kind)])
    bits = channel.bsc(clean, draw(st.sampled_from([0.0, 1e-3, 3e-2])), int(rng.integers(2 ** 32)))
    return kind, draw(st.integers(kind.preamble_bits - 4, kind.preamble_bits)), bits, chunk_bits


@settings(max_examples=200, deadline=None)
@given(st.one_of(_chunk_edge_streams(),
                 st.tuples(_noisy_streams(), st.integers(256, 1 << 15)).map(lambda c: (*c[0], c[1]))))
def test_acquisition_chunks_match_reference(case):
    """Any acquisition chunk cap gives the starts and losses of the per-frame
    tracker: locks on and beside the edges of the first chunk, the doubled
    ones and the capped ones, and re-acquisitions after a loss.  (Noisy
    streams, which may scan every position, get caps of 256 bits up.)"""
    kind, gamma, bits, chunk_bits = case
    synchronizer = FrameSynchronizer(kind, gamma)
    with mock.patch.object(sync, "_SCAN_CHUNK_BITS", chunk_bits):
        got = located(synchronizer, sync.pack(bits), bits.size)
    assert got == reference_locate_frames(bits, synchronizer)


def test_acquisition_scans_about_one_frame_on_a_clean_stream():
    """A lock within the first frame costs one acquisition chunk, a frame of
    bank-1 positions and their bank-2 partners: under 3 frames of positions,
    counted by the acquisition scan."""
    stream = np.concatenate([build_stream(P32, 22, 400, prefix_bits=3), framing.gen_preamble(P32)])
    scanned, kernel = [], sync._mismatches

    def counting(packed, q, r, word, shift):
        if r is sync._OFFSETS:  # the acquisition form: 8 positions a byte
            scanned.append(8 * (q.stop - q.start))
        return kernel(packed, q, r, word, shift)

    with mock.patch.object(sync, "_mismatches", counting):
        starts, losses = locate(stream, P32, 28)
    assert losses == 0 and starts == [3 + i * P32.frame_bits for i in range(400)]
    assert 0 < sum(scanned) < 3 * P32.frame_bits


class TestPfalse:
    def test_trivial_values(self):
        assert sync.p_false(32, 0) == (1.0, 1.0)
        n = 32
        assert sync.p_false(n, n) == (1 / 2 ** n, (1 / 2 ** n) ** 2)

    def test_small_case_fraction(self):
        q1, q2 = sync.p_false(8, 6)
        assert q1 == 37 / 256
        assert q2 == (37 / 256) ** 2

    def test_operating_point_values_32(self):
        q1, q2 = sync.p_false(32, 28)
        assert abs(math.log10(q1) + 5) <= 0.5
        assert abs(math.log10(q2) + 10) <= 1.0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_exhaustive_enumeration(self, n):
        """Every window of n bits, counted against a real preamble prefix."""
        pre = framing.gen_preamble(P64)[:n]
        windows = np.unpackbits(
            np.arange(2 ** n, dtype=">u4").view(np.uint8).reshape(-1, 4), axis=1)[:, -n:]
        matches = (windows == pre).sum(axis=1)
        for gamma in range(n + 1):
            count = int((matches >= gamma).sum())
            q1, q2 = sync.p_false(n, gamma)
            assert q1 == count / 2 ** n
            assert q2 == (count / 2 ** n) ** 2

    def test_dual_never_exceeds_single(self):
        for gamma in range(33):
            q1, q2 = sync.p_false(32, gamma)
            assert 0 <= q2 <= q1 <= 1


def test_match_counts_rejects_preamble_length():
    packed = sync.pack(np.zeros(256, np.uint8))
    for n in (0, 65):
        with pytest.raises(ValueError, match="1 to 64 bits"):
            sync.match_counts(packed, np.arange(4), np.zeros(n, np.uint8))


@pytest.mark.parametrize("starts", [[-1, -8], [0, 33], [64], [0.0, 8.0], [True]],
                         ids=["negative", "past-the-stream", "past-the-pad", "float", "bool"])
def test_match_counts_rejects_starts_off_the_stream(starts):
    """A 64-bit stream holds 33 windows of 32 bits, at starts 0 to 32: a negative start
    (which would wrap round to the pad), one whose window passes the stream, and a start
    that is not an integer are each a ValueError; the bounds themselves are valid."""
    bits = np.random.default_rng(24).integers(0, 2, 64).astype(np.uint8)
    packed, pre = sync.pack(bits), framing.gen_preamble(P32)
    assert sync.match_counts(packed, np.array([0, 32]), pre).tolist() == \
        sliding_counts(bits, pre)[[0, 32]].tolist()
    with pytest.raises(ValueError, match=r"^starts must be integers in \[0, 32\]"):
        sync.match_counts(packed, np.array(starts), pre)


@pytest.mark.parametrize("preamble", [b"", bytes(9)], ids=["empty", "nine-bytes"])
def test_synchronizer_rejects_preamble_length(preamble):
    """A frame kind whose preamble the 64-bit window kernel cannot hold fails when the
    synchronizer is built, with the message of `match_counts`."""
    kind = dataclasses.replace(P32, preamble=preamble)
    message = f"^preamble must be 1 to 64 bits, got {8 * len(preamble)}$"
    with pytest.raises(ValueError, match=message):
        FrameSynchronizer(kind, 0)


def test_binomial_tail_edges():
    """A tail from k <= 0 is the whole distribution, and p must be a probability."""
    for k in (0, -1, -5):
        assert sync.binomial_tail_ge(8, k, 0.3) == 1.0
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="p must be in"):
            sync.binomial_tail_ge(8, 3, p)


class TestPmiss:
    def test_trivial_values(self):
        assert sync.p_miss(32, 0, 0.3) == 0.0
        assert sync.p_miss(32, 28, 0.0) == 0.0
        assert sync.p_miss(16, 16, 1.0) == 1.0

    def test_operating_point_orders_of_magnitude(self):
        assert abs(math.log10(sync.p_miss(32, 28, 1e-4)) + 14) <= 1.0
        assert abs(math.log10(sync.p_miss(64, 55, 1e-4)) + 29) <= 1.0

    @pytest.mark.parametrize("p", [0.1, 0.25])
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_against_exact_rational(self, n, p):
        for gamma in range(0, n + 1, max(1, n // 8)):
            m_exact = exact_tail_ge(n, n - gamma + 1, p)
            exact = float(m_exact * (2 - m_exact))
            got = sync.p_miss(n, gamma, p)
            if exact == 0.0:
                assert got == 0.0
            else:
                assert abs(got - exact) <= 1e-12 * exact

    def test_deep_tail_has_full_precision(self):
        # 1e-29 territory: the direct upper-tail sum keeps all digits
        exact = exact_tail_ge(64, 10, 1e-4)
        exact_dual = float(exact * (2 - exact))
        assert sync.p_miss(64, 55, 1e-4) == pytest.approx(exact_dual, rel=1e-12)


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("p,gamma", [(0.02, 30), (0.05, 28), (0.1, 26)])
    def test_single_bank_miss_rate(self, p, gamma):
        """Empirical miss rate through the real bsc + correlate path must sit
        within 3 standard errors of the analytic single-bank value."""
        m = sync.p_miss_single(32, gamma, p)
        assert 1e-3 <= m <= 1e-1  # the regime where 1e5 trials resolve it
        trials = 100_000
        pre = framing.gen_preamble(P32)
        noisy = channel.bsc(np.tile(pre, trials), p, seed=1000 + gamma)
        matches = (noisy.reshape(trials, 32) == pre).sum(axis=1)
        rate = float((matches < gamma).mean())
        se = math.sqrt(m * (1 - m) / trials)
        assert abs(rate - m) <= 3 * se


class TestTradeoffTable:
    def test_monotone_columns(self):
        rows = sync.tradeoff_table(P32, 1e-4, range(0, 33))
        pm = [r[1].p_miss for r in rows]
        pf1 = [r[1].p_false_single for r in rows]
        pf2 = [r[1].p_false_double for r in rows]
        assert all(a <= b for a, b in zip(pm, pm[1:]))
        assert all(a >= b for a, b in zip(pf1, pf1[1:]))
        assert all(a >= b for a, b in zip(pf2, pf2[1:]))

    def test_rows_match_exact_oracles(self):
        for gamma, sp in sync.tradeoff_table(P32, 1e-4, range(20, 33)):
            m = exact_tail_ge(32, 32 - gamma + 1, 1e-4)
            assert sp.p_miss == pytest.approx(float(m * (2 - m)), rel=1e-12, abs=0.0) or \
                (sp.p_miss == 0.0 and m == 0)
            count = sum(math.comb(32, i) for i in range(gamma, 33))
            assert sp.p_false_single == count / 2 ** 32

    def test_csv_output(self, tmp_path):
        rows = sync.tradeoff_table(P32, 1e-4, range(27, 30))
        path = tmp_path / "table.csv"
        with open(path, "w", newline="") as fp:
            sync.write_tradeoff_csv(rows, fp)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "gamma,p_miss,p_false_single,p_false_double"
        assert len(lines) == 4
        gamma, pm, q1, q2 = lines[2].split(",")
        assert gamma == "28"
        assert float(pm) == sync.p_miss(32, 28, 1e-4)

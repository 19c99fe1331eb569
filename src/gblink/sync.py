"""Byte/frame synchronization by preamble correlation, plus exact analytic
miss-detection and false-alarm probabilities.

Acquisition uses two banks of 8 match-count correlators, one per bit offset
within a byte.  Bank 1 looks at a candidate preamble window, bank 2 at the
window one frame later (the next frame's preamble); lock is declared when the
same offset clears the threshold in both banks, so one decision spans
P1 + D1 + P2 = 264 bytes (P32) or 526 bytes (P64).  One kernel counts window
mismatches on a stream packed by `pack`: gathered at any starts for `match_counts`,
read in place at every bit position (acquisition) or a frame apart (tracking).

The correlation metric is the match count (Hamming similarity), in [0, N]: the
operating thresholds (e.g. 28 of 32, tolerating 4 errors) are on that scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .elastic import _integer
from .framing import FrameKind

_SCAN_CHUNK_BITS = 8 * 4096
_TRACK_FIRST_FRAMES = 128
_OFFSETS = np.arange(8, dtype=np.uint64)[:, None]  # a column: the offsets lead the words


def _threshold(n: int, gamma, where: str = "") -> int:
    """gamma as an int in [0, n]; a bool or a fraction is an error."""
    gamma = _integer("gamma", gamma)
    if not 0 <= gamma <= n:
        raise ValueError(f"gamma must be in [0, {n}]{where}, got {gamma}")
    return gamma


@dataclass(frozen=True)
class SyncProbabilities:
    p_miss: float
    p_false_single: float
    p_false_double: float


def pack(bits: np.ndarray) -> np.ndarray:
    """Bits packed MSB-first, then the 8 zero bytes the window kernel reads ahead."""
    return np.concatenate([np.packbits(bits), np.zeros(8, np.uint8)])


def _preamble_word(preamble: bytes, n: int) -> tuple[int, int]:
    """(word, shift): the n-bit preamble held MSB-first in bytes as an int, and 64 - n."""
    if not 0 < n <= 64:
        raise ValueError(f"preamble must be 1 to 64 bits, got {n}")
    return int.from_bytes(preamble, "big") >> (-n % 8), 64 - n


def _mismatches(packed: np.ndarray, q, r, word: int, shift: int) -> np.ndarray:
    """Mismatches with the preamble word of the windows at bit 8 q + r of a stream packed by
    `pack`: the 64-bit word at byte q, shifted by r and topped up from the ninth byte.  An int
    array q gathers, a slice reads a strided view in place; r (array or int) broadcasts."""
    window = np.ndarray((packed.size - 7,), ">u8", packed, strides=(1,))[q] << r
    return np.bitwise_count((window | packed[8:][q] >> (8 - r)) >> shift ^ word)


def match_counts(packed: np.ndarray, starts: np.ndarray, preamble: np.ndarray) -> np.ndarray:
    """Number of bits matching the preamble (1 to 64 bits) in the window at each bit start
    of a stream packed by `pack`; the starts are integers in [0, 8 packed.size - 64 - n]."""
    n, starts = np.size(preamble), np.asarray(starts)
    key = _preamble_word(np.packbits(preamble).tobytes(), n)  # (word, shift)
    if starts.dtype.kind not in "iu" or starts.size and not \
            0 <= starts.min() <= starts.max() <= 8 * packed.size - 64 - n:
        raise ValueError(f"starts must be integers in [0, {8 * packed.size - 64 - n}]")
    return np.intp(n) - _mismatches(packed, starts >> 3, (starts & 7).astype(np.uint64), *key)


def correlate(windows: np.ndarray, preamble: np.ndarray) -> np.ndarray | np.integer:
    """Number of bit positions matching the preamble, along the last axis of
    a (..., n) array of windows; a single window gives a numpy integer."""
    w = np.asarray(windows, dtype=np.uint8)
    if w.shape[-1:] != np.shape(preamble):
        raise ValueError(f"window length {w.shape[-1:]} != preamble length {np.shape(preamble)}")
    starts = w.shape[-1] * np.arange(math.prod(w.shape[:-1]))
    return match_counts(pack(w.reshape(-1)), starts, preamble).reshape(w.shape[:-1])[()]


class FrameSynchronizer:
    """Acquisition plus flywheel tracking over a demodulated bit stream.

    After lock the preamble is re-verified every frame against gamma; one miss is ridden out
    (the frame is still delivered at the flywheel position), two consecutive misses declare
    sync lost and acquisition restarts one bit after the second missed preamble.  Instances
    hold only the frame kind, gamma and the preamble word, so one may serve many streams.
    """

    def __init__(self, kind: FrameKind, gamma: int):
        self.kind = kind
        self._key = _preamble_word(kind.preamble, kind.preamble_bits)  # (word, shift)
        self.gamma = _threshold(kind.preamble_bits, gamma, f" for {kind.tag}")

    def locate_frames(self, packed: np.ndarray, nbits: int, first: int = 0) -> tuple[np.ndarray, int]:
        """(int64 frame starts counted from bit `first`, sync losses) in nbits bits from there."""
        nbits, first = _integer("nbits", nbits), _integer("first", first)
        if getattr(packed, "dtype", None) != np.uint8 or packed.ndim != 1 \
                or not 0 <= nbits <= 8 * packed.size - 64 - first or first < 0:
            raise ValueError(f"packed must be 1-D uint8 holding nbits={nbits} bits from {first}, 8 pad bytes")
        n, frame_bits, fb = self.kind.preamble_bits, self.kind.frame_bits, self.kind.frame_bytes
        scan_end = first + nbits - (frame_bits + n) + 1  # the last bank-1 start whose bank 2 fits
        runs, losses, pos = [np.empty(0, np.int64)], 0, first
        chunk = min(frame_bits, _SCAN_CHUNK_BITS)  # a lock is usually within a frame or two
        while pos < scan_end:
            hi, q = min(pos + chunk, scan_end), pos >> 3
            scan = _mismatches(packed, slice(q, (hi + frame_bits + 7) >> 3), _OFFSETS, *self._key)
            ok = scan.T.ravel()[pos - 8 * q:] <= n - self.gamma  # the offsets lead: .T is bit order
            lock = np.flatnonzero(ok[: hi - pos] & ok[frame_bits: frame_bits + hi - pos])
            if lock.size == 0:
                pos, chunk = hi, min(2 * chunk, _SCAN_CHUNK_BITS)
                continue
            # the flywheel grid, in blocks that double in length so a lock costs what it tracks and
            # overlap by one frame to see edge pairs; its windows share offset s & 7, fb bytes apart
            s = pos + int(lock[0])
            count, q = (first + nbits - s) // frame_bits, s >> 3
            lo, hi = 0, min(_TRACK_FIRST_FRAMES, count)
            while True:
                grid = slice(q + lo * fb, q + hi * fb, fb)
                hit = _mismatches(packed, grid, s & 7, *self._key) <= n - self.gamma
                double_miss = np.flatnonzero(~hit[:-1] & ~hit[1:])
                if double_miss.size or hi == count:
                    break
                lo, hi = hi - 1, min(2 * hi, count)
            # frames up to the first miss of a pair are delivered
            end = s + (lo + int(double_miss[0]) + 1 if double_miss.size else count) * frame_bits
            runs.append(np.arange(s - first, end - first, frame_bits, dtype=np.int64))
            if double_miss.size == 0:
                break
            losses += 1
            pos, chunk = end + 1, min(frame_bits, _SCAN_CHUNK_BITS)
        return np.concatenate(runs), losses


def binomial_tail_ge(n: int, k: int, p: float) -> float:
    """P[Binomial(n, p) >= k] with exact coefficients and compensated summation: summing the
    upper tail directly keeps tiny probabilities (down to ~1e-300) free of the cancellation
    that 1 - P[X < k] would suffer."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if k <= 0:
        return 1.0
    return min(1.0, math.fsum(
        math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k, n + 1)))


def p_miss_single(n: int, gamma: int, p: float) -> float:
    """Probability one preamble window scores below gamma on a BSC(p)."""
    return binomial_tail_ge(n, n - _threshold(n, gamma) + 1, p)


def p_miss(n: int, gamma: int, p: float) -> float:
    """Dual-bank miss probability 1 - D^2, computed without cancellation."""
    m = p_miss_single(n, gamma, p)
    return m * (2.0 - m)


def p_false(n: int, gamma: int) -> tuple[float, float]:
    """(single-bank, dual-bank) false alarm probability per correlator position.  Equiprobable
    random data makes the match count Binomial(n, 1/2), so the single-bank value is an exact
    dyadic rational sum_{i>=gamma} C(n,i) / 2^n."""
    q = sum(math.comb(n, i) for i in range(_threshold(n, gamma), n + 1)) / 2 ** n
    return q, q * q


def tradeoff_table(kind: FrameKind, p: float,
                   gammas: range | list[int]) -> list[tuple[int, SyncProbabilities]]:
    """One (gamma, probabilities) row per threshold, for the trade-off curves."""
    n = kind.preamble_bits
    return [(g, SyncProbabilities(p_miss(n, g, p), *p_false(n, g))) for g in gammas]


def write_tradeoff_csv(rows: list[tuple[int, SyncProbabilities]], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["gamma", "p_miss", "p_false_single", "p_false_double"])
    for gamma, sp in rows:
        writer.writerow([gamma, repr(sp.p_miss), repr(sp.p_false_single), repr(sp.p_false_double)])

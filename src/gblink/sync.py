"""Byte/frame synchronization by preamble correlation, plus exact analytic
miss-detection and false-alarm probabilities.

Acquisition uses two banks of 8 match-count correlators, one per bit offset
within a byte.  Bank 1 looks at a candidate preamble window, bank 2 at the
window one frame later (the next frame's preamble); lock is declared when the
same offset clears the threshold in both banks, so one decision spans
P1 + D1 + P2 = 264 bytes (P32) or 526 bytes (P64).  Tracking re-checks every
preamble on the flywheel grid after lock, one `correlate` call per block.

The correlation metric is the match count (Hamming similarity), in [0, N]:
the operating thresholds (e.g. 28 out of 32, tolerating 4 errors) are defined
on that scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .framing import FrameKind, gen_preamble

_SCAN_CHUNK_BYTES = 4096
_TRACK_FIRST_FRAMES = 16


@dataclass(frozen=True)
class CorrelatorBankConfig:
    kind: FrameKind
    gamma: int

    def __post_init__(self):
        if not 0 <= self.gamma <= self.kind.preamble_bits:
            raise ValueError("gamma out of range")


@dataclass(frozen=True)
class SyncProbabilities:
    p_miss: float
    p_false_single: float
    p_false_double: float


def correlate(windows: np.ndarray, preamble: np.ndarray) -> np.ndarray | np.integer:
    """Number of bit positions matching the preamble, along the last axis of
    a (..., n) array of windows; a single window gives a numpy integer."""
    w = np.asarray(windows, dtype=np.uint8)
    p = np.asarray(preamble, dtype=np.uint8)
    if w.shape[-1:] != p.shape:
        raise ValueError(f"window length {w.shape[-1:]} != preamble length {p.shape}")
    return np.count_nonzero(w == p, axis=-1)


def match_counts(bits: np.ndarray, preamble: np.ndarray) -> np.ndarray:
    """Sliding match count of every window of len(preamble) against it."""
    x = 1 - 2 * np.asarray(bits, dtype=np.int32)
    p = 1 - 2 * np.asarray(preamble, dtype=np.int32)
    return (preamble.size + np.correlate(x, p, mode="valid")) >> 1


def _scan(bits: np.ndarray, cfg: CorrelatorBankConfig, preamble: np.ndarray,
          from_bit: int) -> int:
    """Start bit of the first dual-bank lock at or after from_bit, or -1."""
    n = preamble.size
    frame_bits = cfg.kind.frame_bits
    # byte-major scan over (byte, offset) pairs is a plain scan over bit
    # positions; the last usable bank-1 position keeps bank 2 inside the stream
    last = bits.size - (frame_bits + n)
    chunk = _SCAN_CHUNK_BYTES * 8
    pos = from_bit
    while pos <= last:
        hi = min(pos + chunk, last + 1)
        counts = match_counts(bits[pos: hi + frame_bits + n - 1], preamble)
        npos = hi - pos
        ok = (counts[:npos] >= cfg.gamma) & (counts[frame_bits: frame_bits + npos] >= cfg.gamma)
        hits = np.nonzero(ok)[0]
        if hits.size:
            return pos + int(hits[0])
        pos = hi
    return -1


class FrameSynchronizer:
    """Acquisition plus flywheel tracking over a demodulated bit stream.

    After lock the preamble is re-verified every frame against gamma; one miss
    is ridden out (the frame is still delivered at the flywheel position), two
    consecutive misses declare sync lost and acquisition restarts one bit
    after the second missed preamble.  Instances hold only the configuration
    and its preamble, so one may serve any number of streams.
    """

    def __init__(self, cfg: CorrelatorBankConfig):
        self.cfg = cfg
        self._preamble = gen_preamble(cfg.kind)

    def locate_frames(self, bits: np.ndarray) -> tuple[list[int], int]:
        """Returns (frame start bit positions, sync loss count)."""
        bits = np.asarray(bits, dtype=np.uint8)
        frame_bits = self.cfg.kind.frame_bits
        starts: list[int] = []
        losses = 0
        pos = 0
        while (s := _scan(bits, self.cfg, self._preamble, pos)) >= 0:
            # the flywheel grid, checked in blocks that double in length so a lock
            # costs what it tracks; blocks overlap by one frame to see edge pairs
            count = (bits.size - s) // frame_bits
            windows = np.lib.stride_tricks.sliding_window_view(bits, self._preamble.size)
            lo, hi = 0, min(_TRACK_FIRST_FRAMES, count)
            while True:
                grid = s + frame_bits * np.arange(lo, hi)
                hit = correlate(windows[grid], self._preamble) >= self.cfg.gamma
                double_miss = np.flatnonzero(~hit[:-1] & ~hit[1:])
                if double_miss.size or hi == count:
                    break
                lo, hi = hi - 1, min(2 * hi, count)
            # frames up to the first miss of a pair are delivered
            end = s + (lo + int(double_miss[0]) + 1 if double_miss.size else count) * frame_bits
            starts.extend(range(s, end, frame_bits))
            if double_miss.size == 0:
                break
            losses += 1
            pos = end + 1
        return starts, losses


def binomial_tail_ge(n: int, k: int, p: float) -> float:
    """P[Binomial(n, p) >= k] with exact coefficients and compensated summation.

    Summing the upper tail directly keeps tiny probabilities (down to ~1e-300)
    free of the cancellation that 1 - P[X < k] would suffer.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    total = math.fsum(
        math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k, n + 1)
    )
    return min(1.0, total)


def p_miss_single(n: int, gamma: int, p: float) -> float:
    """Probability one preamble window scores below gamma on a BSC(p)."""
    if not 0 <= gamma <= n:
        raise ValueError("gamma out of range")
    return binomial_tail_ge(n, n - gamma + 1, p)


def p_miss(n: int, gamma: int, p: float) -> float:
    """Dual-bank miss probability 1 - D^2, computed without cancellation."""
    m = p_miss_single(n, gamma, p)
    return m * (2.0 - m)


def p_false(n: int, gamma: int) -> tuple[float, float]:
    """(single-bank, dual-bank) false alarm probability per correlator position.

    Equiprobable random data makes the match count Binomial(n, 1/2), so the
    single-bank value is an exact dyadic rational sum_{i>=gamma} C(n,i) / 2^n.
    """
    if not 0 <= gamma <= n:
        raise ValueError("gamma out of range")
    count = sum(math.comb(n, i) for i in range(gamma, n + 1))
    q = count / 2 ** n
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
        writer.writerow([gamma, repr(sp.p_miss), repr(sp.p_false_single),
                         repr(sp.p_false_double)])

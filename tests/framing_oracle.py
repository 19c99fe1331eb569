"""Design-time reference for the frozen preamble and scrambler sequences in
`gblink.framing`: the Fibonacci LFSR that generates the padded m-sequences
and the search that picked the scrambler phase.

Preambles are x^5+x^2+1 (period 31) and x^6+x+1 (period 63) with an all-ones
seed and one trailing zero pad bit.  Scramblers come from the reciprocal
polynomials, so they are a different m-sequence: any cyclic phase of the
preamble's own sequence would reproduce the preamble verbatim inside
scrambled constant data.  Of their cyclic phases the one with the lowest
worst-case preamble match count wins.
"""

from __future__ import annotations

import numpy as np

from gblink.framing import FrameKind

PREAMBLE_TAPS = {32: (5, 2), 64: (6, 1)}
SCRAMBLER_TAPS = {32: (5, 3), 64: (6, 5)}


def lfsr_sequence(taps: tuple[int, ...], nbits: int) -> np.ndarray:
    """Fibonacci LFSR output, all-ones seed; taps are polynomial exponents."""
    degree = max(taps)
    reg = [1] * degree
    out = np.empty(nbits, dtype=np.uint8)
    for i in range(nbits):
        out[i] = reg[-1]
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
    return out


def padded_sequence(taps: tuple[int, ...], nbits: int) -> np.ndarray:
    """One period of the m-sequence plus a zero pad bit, `nbits` in all."""
    period = 2 ** max(taps) - 1
    assert period + 1 == nbits
    return np.concatenate([lfsr_sequence(taps, period), np.zeros(1, dtype=np.uint8)])


def preamble(kind: FrameKind) -> np.ndarray:
    """The preamble bits of a frame kind, generated by its LFSR."""
    return padded_sequence(PREAMBLE_TAPS[kind.preamble_bits], kind.preamble_bits)


def scrambler_candidates(kind: FrameKind) -> list[bytes]:
    """All cyclic phases of the padded scrambler-family m-sequence."""
    base = padded_sequence(SCRAMBLER_TAPS[kind.preamble_bits], kind.preamble_bits)
    return [np.packbits(np.roll(base, -ph)).tobytes() for ph in range(base.size)]


def scrambler_score(candidate: bytes, preamble: np.ndarray) -> int:
    """Worst-case preamble match count inside cyclically scrambled data.

    Worst-case data patterns: all-zero bytes (idle runs) and the preamble
    itself repeated (payloads that would otherwise leak the sync word).  The
    score is the maximum match count over every bit shift of the scrambled
    stream; lower is better.
    """
    n = preamble.size
    cand_bits = np.unpackbits(np.frombuffer(candidate, dtype=np.uint8))
    period = cand_bits.size
    worst = 0
    patterns = (np.zeros(period, np.uint8), preamble.astype(np.uint8))
    for data in patterns:
        stream = np.tile(data ^ cand_bits, 3)
        for shift in range(period):
            matches = int(np.sum(stream[shift:shift + n] == preamble))
            worst = max(worst, matches)
    return worst


def select_scrambler(preamble: np.ndarray, candidates: list[bytes]) -> bytes:
    """Candidate with the lowest worst-case score; ties break on lowest index."""
    if not candidates:
        raise ValueError("candidate list is empty")
    scores = [scrambler_score(c, preamble) for c in candidates]
    return candidates[int(np.argmin(scores))]

"""Differential BPSK modem: differential encoding, antipodal mapping, and the
two-symbol product detector, on bit arrays (bytes become bits MSB-first
through `np.unpackbits`).

One sample per symbol; pulse shaping, matched filtering and timing recovery
are assumed ideal.  A transmission burst carries one known reference symbol
(+1) in front of the data so the first information bit is recoverable; the
hardware chain runs continuously and needs no such marker.
"""

from __future__ import annotations

import numpy as np


def diff_encode(bits: np.ndarray) -> np.ndarray:
    """e_k = d_k xor e_{k-1}, with e_{-1} = 0."""
    return np.bitwise_xor.accumulate(np.asarray(bits, dtype=np.uint8))


def bpsk_map(bits: np.ndarray) -> np.ndarray:
    """0 -> +1, 1 -> -1 (unit symbol energy)."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def diff_demod(samples: np.ndarray) -> np.ndarray:
    """Product detector: bit k is 1 iff the phase flipped between symbols.

    samples[0] is the reference symbol, so the output is one bit shorter than
    the input.  Accepts real or complex samples; the decision statistic is
    Re(s_k * conj(s_{k-1})), computed in real arithmetic as
    re_k * re_{k-1} + im_k * im_{k-1}.
    """
    s = np.asarray(samples)
    if s.size < 2:
        raise ValueError("need at least two samples (reference + data)")
    re, im = s.real, s.imag
    stat = re[1:] * re[:-1]
    stat += im[1:] * im[:-1]
    return (stat < 0).astype(np.uint8)

"""Differential BPSK modem: byte/bit serialization, differential encoding,
antipodal mapping, and the two-symbol product detector.

One sample per symbol; pulse shaping, matched filtering and timing recovery
are assumed ideal.  A transmission burst carries one known reference symbol
(+1) in front of the data so the first information bit is recoverable; the
hardware chain runs continuously and needs no such marker.
"""

from __future__ import annotations

import numpy as np


def serialize(data: bytes | np.ndarray) -> np.ndarray:
    """Bytes to bits, MSB first."""
    return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))


def deserialize(bits: np.ndarray, offset: int = 0) -> bytes:
    """Bits to bytes starting at a bit offset; trailing partial byte dropped."""
    if not 0 <= offset < 8:
        raise ValueError("offset must be in [0, 8)")
    usable = np.asarray(bits, dtype=np.uint8)[offset:]
    if usable.size < 8:
        raise ValueError("need at least 8 bits after offset")
    usable = usable[: usable.size - usable.size % 8]
    return np.packbits(usable).tobytes()


def diff_encode(bits: np.ndarray, initial_state: int = 0) -> np.ndarray:
    """e_k = d_k xor e_{k-1}, with e_{-1} = initial_state."""
    enc = np.bitwise_xor.accumulate(np.asarray(bits, dtype=np.uint8))
    if initial_state:
        enc = enc ^ 1
    return enc


def diff_decode(bits: np.ndarray, initial_state: int = 0) -> np.ndarray:
    """Inverse of diff_encode."""
    enc = np.asarray(bits, dtype=np.uint8)
    prev = np.empty_like(enc)
    prev[0] = initial_state
    prev[1:] = enc[:-1]
    return enc ^ prev


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

"""Channel and propagation models: AWGN on symbols, BSC on bits, the DBPSK
reference BER curve, and the 60 GHz free-space link budget.

SNR bookkeeping convention (the one place it is defined):

  * `noise_sigma(ebn0_db, code_rate)` interprets `ebn0_db` as energy per
    *information* bit over N0 and converts through `code_rate` (information
    bits per channel bit): per-quadrature noise variance sigma^2 =
    1 / (2 * code_rate * 10^(ebn0/10)) on unit-energy symbols.  `awgn` takes
    that sigma and the generator that pins the noise realization.
  * `snr_at_distance` returns the ratio referenced to *channel* bits at the
    875 Mbps serial rate (one bit per symbol, so it equals Es/N0).  Feed it
    to `noise_sigma` with code_rate=1, or subtract 10*log10(code_rate) to
    convert to an information-bit ratio.

The delay-line discriminator sees band-pass noise, i.e. both quadratures, so
`awgn` produces complex samples; noiseless symbols stay on the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0

_BSC_CHUNK_BITS = 1 << 16  # 512 kB of uniforms per draw


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float = 0.0
    tx_gain_dbi: float = 22.4
    rx_gain_dbi: float = 22.4
    carrier_hz: float = 60e9
    bandwidth_hz: float = 2e9
    noise_figure_db: float = 8.0
    extra_loss_db: float = 0.0


def noise_sigma(ebn0_db: float, code_rate: float) -> float:
    """Per-quadrature noise standard deviation for unit-energy symbols."""
    if not 0 < code_rate <= 1:
        raise ValueError("code_rate must be in (0, 1]")
    ebn0 = 10 ** (ebn0_db / 10)
    if math.isinf(ebn0):
        return 0.0
    return math.sqrt(1.0 / (2.0 * code_rate * ebn0))


def awgn(symbols: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add complex white Gaussian noise of per-quadrature deviation sigma.

    Draws all in-phase samples, then all quadrature samples; sigma == 0
    draws nothing and returns the symbols as complex samples.
    """
    out = np.asarray(symbols).astype(np.complex128)
    if sigma > 0.0:
        out.real += rng.normal(0.0, sigma, out.shape)
        out.imag += rng.normal(0.0, sigma, out.shape)
    return out


def bsc(bits: np.ndarray, p: float, seed: int) -> np.ndarray:
    """Flip each bit independently with probability p.

    Uniforms are drawn _BSC_CHUNK_BITS at a time to bound the temporaries;
    Generator.random yields the same stream whatever the chunking.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    out = np.array(bits, dtype=np.uint8)
    if p == 0:
        return out
    rng = np.random.default_rng(seed)
    for lo in range(0, out.size, _BSC_CHUNK_BITS):
        chunk = out[lo: lo + _BSC_CHUNK_BITS]
        chunk ^= rng.random(chunk.size) < p
    return out


def dbpsk_ber_theory(ebn0_db: float) -> float:
    """Differentially detected binary DPSK over AWGN: 0.5 * exp(-Eb/N0)."""
    return 0.5 * math.exp(-(10 ** (ebn0_db / 10)))


def snr_at_distance(budget: LinkBudget, distance_m: float,
                    channel_rate_bps: float = 875e6) -> float:
    """Free-space Eb/N0 (dB, referenced to channel bits) at a Tx-Rx distance."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    wavelength = SPEED_OF_LIGHT / budget.carrier_hz
    path_loss = 20 * math.log10(4 * math.pi * distance_m / wavelength)
    rx_dbm = (budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi
              - path_loss - budget.extra_loss_db)
    noise_floor_dbm = -174.0 + 10 * math.log10(budget.bandwidth_hz) + budget.noise_figure_db
    snr_db = rx_dbm - noise_floor_dbm
    return snr_db + 10 * math.log10(budget.bandwidth_hz / channel_rate_bps)


def rs_residual_ber(p: float, n: int = 255, t: int = 8) -> float:
    """Post-RS bit error rate estimate for an independent bit error rate p.

    Byte errors are binomial; blocks with more than t bad bytes are counted
    as delivering all their bad bytes (decoder failures are detected and the
    block passes through, a conservative model).
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if p == 0:
        return 0.0
    pb = -math.expm1(8.0 * math.log1p(-p)) if p < 1 else 1.0  # survives tiny p
    if pb == 0.0:
        return 0.0
    bad_bytes = math.fsum(
        j * math.comb(n, j) * pb ** j * (1 - pb) ** (n - j)
        for j in range(t + 1, n + 1)
    )
    bits_per_bad_byte = 8 * p / pb
    return (bad_bytes / n) * (bits_per_bad_byte / 8)

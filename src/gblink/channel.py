"""Channel and propagation models: AWGN on symbols, BSC on bits, the DBPSK
reference BER curve, and the 60 GHz free-space link budget.

SNR bookkeeping convention (the one place it is defined):

  * `noise_sigma(ebn0_db, code_rate)` interprets `ebn0_db` as energy per
    *information* bit over N0 and converts through `code_rate` (information
    bits per channel bit): per-quadrature noise variance sigma^2 =
    1 / (2 * code_rate * 10^(ebn0/10)) on unit-energy symbols.  `awgn` takes
    that sigma and the generator that pins the noise realization.
  * `snr_at_distance` returns the ratio referenced to *channel* bits at the
    serial rate CHANNEL_RATE_BPS (875 Mbps, one bit per symbol, so it equals
    Es/N0).  Feed it to `noise_sigma` with code_rate=1, or subtract
    10*log10(code_rate) to convert to an information-bit ratio.

The delay-line discriminator sees band-pass noise, i.e. both quadratures, so
`awgn` produces complex samples; noiseless symbols stay on the real axis.
Each symbol takes its two quadratures' noise from consecutive standard
normals of the generator, so the stream does not depend on how it is split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rs

CHANNEL_RATE_BPS = 875e6  # the serial channel rate, one bit per symbol
SPEED_OF_LIGHT = 299792458.0

_GAP_CHUNK = 1 << 14  # gaps drawn per pass: 128 kB of uniforms at most


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float = 0.0
    tx_gain_dbi: float = 22.4
    rx_gain_dbi: float = 22.4
    carrier_hz: float = 60e9
    bandwidth_hz: float = 2e9
    noise_figure_db: float = 8.0
    extra_loss_db: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.carrier_hz > 0 and self.bandwidth_hz > 0):
            raise ValueError("carrier_hz and bandwidth_hz must be positive, got "
                             f"{self.carrier_hz} and {self.bandwidth_hz}")


def _db_to_ratio(db: float) -> float:
    """10^(db/10); a ratio past the float range is +inf, as for db = +inf."""
    try:
        return 10 ** (db / 10)
    except OverflowError:
        return math.inf


def noise_sigma(ebn0_db: float, code_rate: float) -> float:
    """Per-quadrature noise deviation for unit-energy symbols; it must be finite."""
    if not 0 < code_rate <= 1:
        raise ValueError("code_rate must be in (0, 1]")
    power = 2.0 * code_rate * _db_to_ratio(ebn0_db)
    if power == 0.0 or math.isinf(1.0 / power):
        raise ValueError(f"Eb/N0 of {ebn0_db} dB is too low: the noise deviation overflows")
    return math.sqrt(1.0 / power)


def awgn(symbols: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add complex white Gaussian noise of per-quadrature deviation sigma.

    Symbol i's noise is sigma * (z[2i] + 1j * z[2i + 1]) for the next
    2 * symbols.size standard normals z of `rng` (none if sigma == 0), a
    stream that run_link draws block by block; sigma must be finite and
    non-negative.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    out = np.asarray(symbols).astype(np.complex128)
    if sigma > 0.0:
        z = rng.standard_normal(2 * out.size)
        z *= sigma
        out += z.view(np.complex128).reshape(out.shape)
    return out


def bsc(bits: np.ndarray, p: float, seed: int) -> np.ndarray:
    """Flip each bit independently with probability p.

    With q = min(p, 1 - p), the bits that flip (p <= 1/2) or stay (p > 1/2)
    sit at cumsum(1 + floor(log1p(-u) / log1p(-q))) - 1, one Geometric(q) gap
    per uniform u of default_rng(seed).random.  The cost scales with
    q * bits.size; the gaps are drawn at most _GAP_CHUNK at a time, which
    bounds the temporaries and does not change the values.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    out = np.array(bits, dtype=np.uint8)
    if p > 0.5:
        out ^= 1
    q = min(p, 1.0 - p)
    if q == 0:
        return out
    rng = np.random.default_rng(seed)
    log_keep = math.log1p(-q)
    last = -1  # where the last gap ended
    while last < out.size - 1:
        left = out.size - 1 - last  # a draw sized to the gaps left usually ends the loop
        g = np.log1p(-rng.random(min(_GAP_CHUNK, int(left * q + 4 * math.sqrt(left * q)) + 16)))
        with np.errstate(over="ignore"):  # divide: an underflowing q gives +inf, never NaN
            g /= log_keep
        np.minimum(g, left, out=g)  # any gap past the end will do; keeps the cast in range
        ends = np.cumsum(g.astype(np.int64) + 1) + last
        out[ends[:np.searchsorted(ends, out.size)]] ^= 1
        last = ends[-1]
    return out


def dbpsk_ber_theory(ebn0_db: float) -> float:
    """Differentially detected binary DPSK over AWGN: 0.5 * exp(-Eb/N0)."""
    return 0.5 * math.exp(-_db_to_ratio(ebn0_db))


def snr_at_distance(budget: LinkBudget, distance_m: float) -> float:
    """Free-space Eb/N0 (dB, referenced to channel bits) at a Tx-Rx distance."""
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    wavelength = SPEED_OF_LIGHT / budget.carrier_hz
    path_loss = 20 * math.log10(4 * math.pi * distance_m / wavelength)
    rx_dbm = (budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi
              - path_loss - budget.extra_loss_db)
    noise_floor_dbm = -174.0 + 10 * math.log10(budget.bandwidth_hz) + budget.noise_figure_db
    snr_db = rx_dbm - noise_floor_dbm
    return snr_db + 10 * math.log10(budget.bandwidth_hz / CHANNEL_RATE_BPS)


def rs_residual_ber(p: float) -> float:
    """Post-RS bit error rate estimate for an independent bit error rate p.

    Byte errors are binomial; blocks with more than t bad bytes are counted
    as delivering all their bad bytes (decoder failures are detected and the
    block passes through, a conservative model).
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if p == 0:
        return 0.0
    n, t = rs.BLOCK_BYTES, rs.CORRECTABLE_BYTES
    pb = -math.expm1(8.0 * math.log1p(-p)) if p < 1 else 1.0  # positive for any p > 0
    bad_bytes = math.fsum(
        j * math.comb(n, j) * pb ** j * (1 - pb) ** (n - j)
        for j in range(t + 1, n + 1)
    )
    bits_per_bad_byte = 8 * p / pb
    return (bad_bytes / n) * (bits_per_bad_byte / 8)

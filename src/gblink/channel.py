"""Channel and propagation models: AWGN and its DBPSK decision errors, BSC on
bits, the DBPSK reference BER curve, and the 60 GHz free-space link budget.

SNR bookkeeping convention (the one place it is defined):

  * `noise_sigma(ebn0_db, code_rate)` interprets `ebn0_db` as energy per
    *information* bit over N0 and converts through `code_rate` (information
    bits per channel bit): per-quadrature noise variance sigma^2 =
    1 / (2 * code_rate * 10^(ebn0/10)) on unit-energy symbols.  `awgn` and
    `dbpsk_flips` take that sigma.
  * `snr_at_distance` returns the ratio referenced to *channel* bits at the
    serial rate CHANNEL_RATE_BPS (875 Mbps, one bit per symbol, so it equals
    Es/N0).  Feed it to `noise_sigma` with code_rate=1, or subtract
    10*log10(code_rate) to convert to an information-bit ratio.

The delay-line discriminator sees band-pass noise, i.e. both quadratures, so
`awgn` produces complex samples, symbol i's noise from standard normals 2i
and 2i + 1.  `bsc_flips`, the one Bernoulli event generator, yields a BSC's
sorted flips; `dbpsk_flips` places the samples that can turn a decision with it
and yields the product detector's errors; `bsc` applies a BSC's flips to bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rs

CHANNEL_RATE_BPS = 875e6  # the serial channel rate, one bit per symbol
SPEED_OF_LIGHT = 299792458.0

_GAP_CHUNK = 1 << 14  # gaps drawn per pass: 128 kB of uniforms at most
_R0_SQ = 0.5  # only noise with |n|^2 > 1/2 takes arg(1 + n) past pi/4 and can turn a decision


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float = 0.0
    tx_gain_dbi: float = 22.4
    rx_gain_dbi: float = 22.4
    carrier_hz: float = 60e9
    noise_figure_db: float = 8.0
    extra_loss_db: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.carrier_hz > 0:
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz}")


def _db_to_ratio(db: float) -> float:
    """10^(db/10) of an Eb/N0; a ratio past the float range is +inf, as for db = +inf."""
    if math.isnan(db):
        raise ValueError(f"Eb/N0 must be a number of dB, got {db}")
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
    2 * symbols.size standard normals z of `rng` (none if sigma == 0); sigma
    must be finite and non-negative.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    out = np.asarray(symbols).astype(np.complex128)
    if sigma > 0.0:
        z = rng.standard_normal(2 * out.size)
        z *= sigma
        out += z.view(np.complex128).reshape(out.shape)
    return out


def bsc_flips(size: int, p: float, seed: int | np.random.SeedSequence):
    """Yield, chunk by chunk, the sorted positions in [0, size) that a BSC(p)
    flips: cumsum(1 + floor(log1p(-u) / log1p(-p))) - 1 for the uniforms u of
    default_rng(seed), drawn at most _GAP_CHUNK at a time, which bounds the
    temporaries and does not change the values.  The cost is in proportion to
    p * size; p = 0 yields nothing and p = 1 every position, neither drawing
    anything.  No chunk is empty."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if p == 0:
        return
    if p == 1:
        for a in range(0, size, _GAP_CHUNK):
            yield np.arange(a, min(a + _GAP_CHUNK, size))
        return
    rng, log_keep = np.random.default_rng(seed), math.log1p(-p)
    last = -1  # where the last gap ended
    while last < size - 1:
        left = size - 1 - last  # a draw sized to the gaps left usually ends the loop
        g = np.log1p(-rng.random(min(_GAP_CHUNK, int(left * p + 4 * math.sqrt(left * p)) + 16)))
        with np.errstate(over="ignore"):  # divide: an underflowing p gives +inf, never NaN
            g /= log_keep
        np.minimum(g, left, out=g)  # any gap past the end will do; keeps the cast in range
        ends = np.cumsum(g.astype(np.int64) + 1) + last
        last, k = ends[-1], np.searchsorted(ends, size)
        if k:
            yield ends[:k]


def bsc(bits: np.ndarray, p: float, seed: int) -> np.ndarray:
    """Flip each bit independently with probability p, at the `bsc_flips` positions."""
    out = np.array(bits, dtype=np.uint8)
    for flips in bsc_flips(out.size, p, seed):
        out[flips] ^= 1
    return out


def _noise_draws(u: np.ndarray, scale: float) -> np.ndarray:
    """Noise of a large sample and two small ones from each row of six
    uniforms: |n|^2 is _R0_SQ + scale * E, or scale * E given E < _R0_SQ / scale,
    for E ~ Exp(1) (scale = 2 sigma^2); every angle is uniform."""
    small_mass = -math.expm1(-_R0_SQ / scale)  # P(E < _R0_SQ / scale)
    r2 = -scale * np.log1p(-u[:, 0::2] * [1.0, small_mass, small_mass])
    r2[:, 0] += _R0_SQ
    return np.sqrt(r2) * np.exp(2j * np.pi * u[:, 1::2])


def _wrong(a, b):
    """Whether the product detector errs on noise a after noise b: Re((1 + a)(1 + b)*) < 0."""
    return ((1 + a) * np.conj(1 + b)).real < 0


def dbpsk_flips(size: int, sigma: float, seed: int):
    """Yield the sorted positions in [0, size) where a DBPSK product detector
    errs on complex AWGN of per-quadrature deviation sigma: bit k flips iff
    `_wrong(n_k, n_{k-1})`, n_{-1} = 0 being the noiseless +1 reference.

    Only "large" noise, |n|^2 > _R0_SQ, turns a decision.  Its samples are the
    flips of a BSC(exp(-_R0_SQ / 2 sigma^2)), `bsc_flips` of the first child of
    SeedSequence(seed), each with a row of the second child's uniforms for
    `_noise_draws`: its noise and its small neighbours' (at gap 2, one shared).
    Only decisions j and j + 1 of each large j are made, so the cost is per large j.
    No chunk is empty.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    scale = 2.0 * sigma * sigma  # the mean of |n|^2
    p_large = math.exp(-_R0_SQ / scale) if scale else 0.0
    if p_large == 0.0:
        return
    gap_ss, value_ss = (np.random.SeedSequence(seed, spawn_key=(i,)) for i in (0, 1))
    values = np.random.default_rng(value_ss)
    pos, shifted = np.empty(_GAP_CHUNK + 1, np.int64), np.empty((2, _GAP_CHUNK + 1), complex)
    pos[0], shifted[:, 0] = -1, 0  # slot 0 holds the last large sample: position, noise, right
    for ends in bsc_flips(size, p_large, gap_ss):
        big, left, right = _noise_draws(values.random((m := ends.size, 6)), scale).T
        pos[1: m + 1], shifted[0, 1: m + 1], shifted[1, 1: m + 1] = ends, big, right
        gaps, prev, prev_right = ends - pos[:m], shifted[0, :m], shifted[1, :m]
        # decision j' + 1 of the previous large j', where that is not j, then decision j
        after = (gaps > 1) & _wrong(np.where(gaps == 2, left, prev_right), prev)
        now = _wrong(big, np.where(gaps == 1, prev, left))
        if after.any() or now.any():
            yield np.sort(np.concatenate([pos[:m][after] + 1, ends[now]]))
        pos[0], shifted[:, 0] = pos[m], shifted[:, m]
    if pos[0] + 1 < size and _wrong(shifted[1, 0], shifted[0, 0]):
        yield np.array([pos[0] + 1])


def dbpsk_ber_theory(ebn0_db: float) -> float:
    """Differentially detected binary DPSK over AWGN: 0.5 * exp(-Eb/N0)."""
    return 0.5 * math.exp(-_db_to_ratio(ebn0_db))


def snr_at_distance(budget: LinkBudget, distance_m: float) -> float:
    """Free-space Eb/N0 (dB, referenced to channel bits) at a Tx-Rx distance."""
    if not 0 < distance_m < math.inf:
        raise ValueError(f"distance must be positive and finite, got {distance_m}")
    ratio = 4 * math.pi * distance_m / (SPEED_OF_LIGHT / budget.carrier_hz)  # 4 pi d / wavelength
    if ratio == 0:
        raise ValueError(f"path loss is -inf dB at distance {distance_m} m, carrier {budget.carrier_hz} Hz")
    path_loss = 20 * math.log10(ratio)
    rx_dbm = (budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi
              - path_loss - budget.extra_loss_db)
    # Es/N0 = P_rx / (N0 R_b) with N0 = -174 dBm/Hz + NF: no noise bandwidth enters
    return rx_dbm + 174.0 - budget.noise_figure_db - 10 * math.log10(CHANNEL_RATE_BPS)


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

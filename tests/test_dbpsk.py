"""DBPSK decision-error checks that hold for any correct sampler.

`channel.dbpsk_flips` draws flips only around the noise samples large enough
to turn a product-detector decision, so its output (applied to bits by
`dbpsk`) is exact in distribution but shares no stream with the dense chain
(`reference_demodulate`: `awgn` on every symbol, then `modem.diff_demod`).
These seeded runs therefore compare distributions: the bit error rate
against 0.5 * exp(-Es/N0); adjacent error pairs, byte errors, 255-byte block
failures and the error count per 64-bit window against the dense chain; the
first decision, which sees the noiseless reference, against P(Re n < -1);
and the radius and angle laws of the conditional noise draws.  One check is exact: every flip must be the
dense detector's decision over the noise that the sampler drew.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from gblink import channel, modem
from gblink.harness import AwgnChannel, ExperimentConfig, run_link

ALPHA = 1e-3  # significance of the seeded distribution checks
BATCHES = 64  # batch means for standard errors: DBPSK errors come in pairs


def reference_demodulate(tx_bits: np.ndarray, sigma: float,
                         rng: np.random.Generator) -> np.ndarray:
    """The dense AWGN chain: `channel.awgn` once over every symbol, one
    product detection over the +1 reference and every sample."""
    sym = channel.awgn(modem.bpsk_map(modem.diff_encode(tx_bits)), sigma, rng)
    return modem.diff_demod(np.concatenate(([1.0 + 0.0j], sym)))


def streams(seed: int) -> list[np.random.Generator]:
    """A seed's gap and value generators, those of children 0 and 1 of SeedSequence(seed)."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in (0, 1)]


def flipped(bits: np.ndarray, chunks) -> np.ndarray:
    """`bits` flipped at each chunk of positions."""
    out = np.array(bits, dtype=np.uint8)
    for flips in chunks:
        out[flips] ^= 1
    return out


def dbpsk(bits: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """The bits a DBPSK product detector decides: `bits` flipped at the
    `channel.dbpsk_flips` positions of the seed's `streams`."""
    return flipped(bits, channel.dbpsk_flips(np.size(bits), sigma, *streams(seed)))


def sigma_at(esn0_db):
    return channel.noise_sigma(esn0_db, 1.0)


def mean_se(x):
    """Mean of x and its standard error from BATCHES batch means."""
    means = np.asarray(x, float)[: len(x) // BATCHES * BATCHES].reshape(BATCHES, -1).mean(axis=1)
    return means.mean(), means.std(ddof=1) / math.sqrt(BATCHES)


def error_stats(errors):
    """Per-unit indicators of the quantities compared with the dense chain."""
    byte_bad = np.packbits(errors).astype(bool)
    blocks = byte_bad[: byte_bad.size // 255 * 255].reshape(-1, 255).sum(axis=1)
    return {"bit": errors, "adjacent pair": errors[1:] & errors[:-1], "byte": byte_bad,
            "block failure": blocks > 8}


def z_two_sample(a, b):
    (ma, sa), (mb, sb) = mean_se(a), mean_se(b)
    return (ma - mb) / math.hypot(sa, sb)


def chi2_two_sample_pvalue(a, b):
    """Contingency chi-square of two count samples, the top counts pooled
    until each pooled cell expects at least 5 in both rows."""
    top = max(a.max(), b.max()) + 1
    table = np.array([np.bincount(a, minlength=top), np.bincount(b, minlength=top)])
    tail = np.cumsum(table.sum(axis=0)[::-1])[::-1]  # column count from each count on
    cut = top
    while tail[cut - 1] * min(table.sum(axis=1)) / table.sum() < 5:
        cut -= 1
    table = np.c_[table[:, : cut - 1], table[:, cut - 1:].sum(axis=1)]
    return stats.chi2_contingency(table)[1]


@pytest.fixture(scope="module", params=[7.0, 4.0], ids=["7dB", "4dB"])
def paired_errors(request):
    """Errors of the dense chain and of the sampler on the same 2^21 random
    bits at one Es/N0 (dB)."""
    n, sigma = 1 << 21, sigma_at(request.param)
    tx = np.random.default_rng(70).integers(0, 2, n, dtype=np.uint8)
    dense = reference_demodulate(tx, sigma, np.random.default_rng(71)) ^ tx
    sparse = dbpsk(tx, sigma, 72) ^ tx
    return request.param, dense, sparse


@pytest.mark.parametrize("esn0_db,bits", [(1.0, 1 << 20), (4.0, 1 << 20), (7.0, 1 << 21),
                                          (9.0, 1 << 22)])
def test_bit_error_rate_matches_theory(esn0_db, bits):
    errors = dbpsk(np.zeros(bits, np.uint8), sigma_at(esn0_db), 5)
    rate, se = mean_se(errors)
    assert abs(rate - channel.dbpsk_ber_theory(esn0_db)) <= 3 * se


@pytest.mark.parametrize("quantity", ["bit", "adjacent pair", "byte", "block failure"])
def test_error_rates_match_dense_chain(paired_errors, quantity):
    esn0_db, dense, sparse = paired_errors
    a, b = error_stats(dense)[quantity], error_stats(sparse)[quantity]
    if quantity == "block failure" and esn0_db < 7:
        assert a.all() and b.all()  # every block fails at 4 dB: the rates have no spread
    else:
        assert abs(z_two_sample(a, b)) <= 3


def test_window_error_counts_match_dense_chain(paired_errors):
    _, dense, sparse = paired_errors
    a, b = (e.reshape(-1, 64).sum(axis=1) for e in (dense, sparse))
    assert chi2_two_sample_pvalue(a, b) > ALPHA


@pytest.mark.parametrize("sigma", [0.7, 2.0])
def test_first_decision_sees_noiseless_reference(sigma):
    """Decision 0 compares sample 0 with the noiseless +1, so it errs iff
    Re(n_0) < -1, at Phi(-1 / sigma) rather than the DBPSK rate."""
    trials = 3000
    first = np.array([dbpsk(np.zeros(2, np.uint8), sigma, seed)[0]
                      for seed in range(trials)])
    p = stats.norm.cdf(-1 / sigma)
    assert abs(first.mean() - p) <= 3 * math.sqrt(p * (1 - p) / trials)


@pytest.mark.parametrize("esn0_db", [0.0, 9.0])
def test_noise_draw_laws(esn0_db):
    """A large sample has |n|^2 - r0^2 ~ 2 sigma^2 Exp(1); a small one has
    |n|^2 ~ 2 sigma^2 Exp(1) truncated below r0^2; every angle is uniform."""
    scale = 2 * sigma_at(esn0_db) ** 2
    cut = channel._R0_SQ / scale
    u = np.random.default_rng(9).random((20_000, 6))
    n = channel._noise_draws(u, scale)
    e = np.abs(n) ** 2 / scale
    assert stats.kstest(e[:, 0] - cut, "expon").pvalue > ALPHA
    small = e[:, 1:].ravel()
    assert small.max() < cut
    assert stats.kstest(small, lambda x: np.expm1(-x) / math.expm1(-cut)).pvalue > ALPHA
    for column in n.T:
        assert stats.kstest(np.angle(column) / (2 * np.pi) % 1.0, "uniform").pvalue > ALPHA


def implied_noise(size, ends, draws):
    """The noise the sampler's draws stand for: each large sample j at its
    position, its left neighbour at j - 1 when that is small (the one sample
    between two large ones at gap 2), its right one at j + 1 when the next
    large sample is 3 or more away; 0, a small value, everywhere else."""
    n = np.zeros(size, complex)
    prev, prev_right = -1, None
    for j, (big, left, right) in zip(ends, draws):
        if j - prev >= 3 and prev >= 0:
            n[prev + 1] = prev_right
        if j - prev >= 2:
            n[j - 1] = left
        n[j] = big
        prev, prev_right = j, right
    if 0 <= prev < size - 1:
        n[prev + 1] = prev_right
    return n


@pytest.mark.parametrize("chunk", [3, 1 << 14])
@pytest.mark.parametrize("esn0_db", [-6.0, 0.0, 4.0])
def test_flips_are_the_dense_detection_of_the_drawn_noise(esn0_db, chunk):
    """Every decision of the dense product detector over the implied noise,
    after the noiseless reference, matches the sampler's bit for bit."""
    ends, draws = [], []
    bsc_flips, noise_draws = channel.bsc_flips, channel._noise_draws

    def record_ends(*args):
        for e in bsc_flips(*args):
            ends.extend(e.tolist())
            yield e

    def record_draws(*args):
        d = noise_draws(*args)
        draws.extend(d.tolist())
        return d

    for seed in range(20):
        bits = np.random.default_rng(seed).integers(0, 2, 500, dtype=np.uint8)
        ends.clear()
        draws.clear()
        with mock.patch.object(channel, "_GAP_CHUNK", chunk), \
                mock.patch.object(channel, "bsc_flips", record_ends), \
                mock.patch.object(channel, "_noise_draws", record_draws):
            errors = dbpsk(bits, sigma_at(esn0_db), seed) ^ bits
        n = 1 + implied_noise(bits.size, ends, draws)
        dense = (n * np.conj(np.r_[1.0, n[:-1]])).real < 0
        assert len(ends) == len(draws) > 0
        np.testing.assert_array_equal(errors, dense)


@st.composite
def _chunk_cases(draw):
    return (draw(st.integers(1, 64)), draw(st.integers(1, 3000)),
            draw(st.sampled_from([0.25, 0.4, 0.7, 1.5, 1e10])), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(_chunk_cases())
@example((1, 5, 1e10, 3))  # every sample large, one gap per chunk
@example((2, 2000, 0.4, 4))  # large samples across many chunk edges
def test_gap_chunk_does_not_change_output(case):
    chunk, n, sigma, seed = case
    bits = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
    expect = dbpsk(bits, sigma, seed)
    with mock.patch.object(channel, "_GAP_CHUNK", chunk):
        np.testing.assert_array_equal(dbpsk(bits, sigma, seed), expect)


@pytest.mark.parametrize("esn0_db", [11.0, 0.0])
def test_no_chunk_is_empty(esn0_db):
    """At 11 dB a chunk of 256 large samples seldom turns a decision, and at
    0 dB every chunk turns many: either way each chunk yielded holds a flip."""
    with mock.patch.object(channel, "_GAP_CHUNK", 256):
        chunks = list(channel.dbpsk_flips(1 << 20, sigma_at(esn0_db), *streams(9)))
    assert chunks and all(c.size for c in chunks)


def test_deterministic_given_seed():
    bits = np.zeros(100_000, np.uint8)
    sigma = sigma_at(5.0)
    a, b, c = (dbpsk(bits, sigma, seed) for seed in (3, 3, 4))
    assert np.array_equal(a, b) and not np.array_equal(a, c)


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError("a channel without large samples must draw nothing")


@pytest.mark.parametrize("sigma", [0.0, sigma_at(40.0), sigma_at(math.inf)])
def test_no_large_samples_draw_nothing(sigma):
    assert list(channel.dbpsk_flips(4, sigma, _NoDraws(), _NoDraws())) == []


def test_every_sample_large_is_a_coin_flip():
    """At Eb/N0 = -200 dB the rate of large samples rounds to 1.0: every
    decision is a fair coin, with no NaN and no position out of range."""
    sigma = channel.noise_sigma(-200.0, 1.0)
    assert math.exp(-channel._R0_SQ / (2 * sigma ** 2)) == 1.0
    n = 1 << 16
    with np.errstate(all="raise"):
        errors = dbpsk(np.zeros(n, np.uint8), sigma, 6)
    assert abs(errors.mean() - 0.5) <= 3 * math.sqrt(0.25 / n)
    rep = run_link(ExperimentConfig(AwgnChannel(-200.0), frames=20, master_seed=6, uncoded=True))
    assert abs(rep.raw_ber - 0.5) <= 3 * math.sqrt(0.25 / rep.raw_bits)


def test_temporaries_bounded_by_gap_chunk():
    """At Es/N0 0 dB over half the samples are large, yet beyond the n-byte
    output a call holds the draws of one gap chunk at a time."""
    chunk, n = 1 << 10, 1 << 20
    bits = np.zeros(n, np.uint8)
    dbpsk(bits[:1000], 0.7, 3)  # one-time numpy setup is not a temporary
    with mock.patch.object(channel, "_GAP_CHUNK", chunk):
        tracemalloc.start()
        try:
            dbpsk(bits, sigma_at(0.0), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= n + 400 * chunk + 64 * 1024


@pytest.mark.parametrize("sigma", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
def test_bad_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="sigma"):
        dbpsk(np.zeros(4, np.uint8), sigma, 1)

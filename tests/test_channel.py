"""Noise, BER theory, and link budget tests."""

import math
import tracemalloc

import numpy as np
import pytest

from gblink import channel
from gblink.channel import LinkBudget


def rng(seed):
    return np.random.default_rng(seed)


class TestAwgn:
    def test_infinite_snr_is_identity(self):
        """A ratio past the float range is noiseless, as +inf is."""
        sym = np.ones(100)
        for ebn0_db in (math.inf, 4000.0, 3083.0):
            out = channel.awgn(sym, channel.noise_sigma(ebn0_db, 1.0), rng(1))
            assert np.array_equal(out.real, sym) and not out.imag.any()

    def test_sigma_formula_below_overflow(self):
        for ebn0_db in (-3000.0, -50.0, 0.0, 6.0, 12.5, 300.0, 3082.0):
            for rate in (1.0, 239 / 255):
                expect = math.sqrt(1.0 / (2.0 * rate * 10 ** (ebn0_db / 10)))
                assert channel.noise_sigma(ebn0_db, rate) == expect

    def test_underflowing_ratio_rejected(self):
        """A ratio that underflows to 0, or leaves sigma infinite, has no noise to draw."""
        for ebn0_db in (-4000.0, -3235.0, -math.inf):
            with pytest.raises(ValueError, match=f"Eb/N0 of {ebn0_db} dB"):
                channel.noise_sigma(ebn0_db, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="Eb/N0 must be a number"):
            channel.noise_sigma(math.nan, 1.0)

    def test_noise_variance_per_quadrature(self):
        sigma2 = 1 / (2 * 1.0 * 10 ** 0.5)
        out = channel.awgn(np.ones(1_000_000), channel.noise_sigma(5.0, 1.0), rng(99))
        for component in (out.real - 1.0, out.imag):
            assert abs(np.var(component) / sigma2 - 1) < 0.01

    def test_code_rate_scales_variance(self):
        rate = 239 / 260
        out = channel.awgn(np.ones(500_000), channel.noise_sigma(5.0, rate), rng(7))
        sigma2 = 1 / (2 * rate * 10 ** 0.5)
        assert abs(np.var(out.real - 1.0) / sigma2 - 1) < 0.02

    def test_deterministic_given_seed(self):
        sym = np.ones(1000)
        sigma = channel.noise_sigma(8.0, 1.0)
        a = channel.awgn(sym, sigma, rng(42))
        b = channel.awgn(sym, sigma, rng(42))
        c = channel.awgn(sym, sigma, rng(43))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_preserves_length(self):
        assert channel.awgn(np.ones(123), channel.noise_sigma(3.0, 0.5), rng(1)).size == 123

    def test_code_rate_validation(self):
        with pytest.raises(ValueError):
            channel.noise_sigma(3.0, 0.0)

    def test_symbol_noise_is_a_consecutive_normal_pair(self):
        """Symbol i's noise is sigma * (z[2i] + 1j * z[2i + 1])."""
        sym = np.array([1.0, -1.0, 1.0])
        out = channel.awgn(sym, 0.5, rng(3))
        z = 0.5 * rng(3).standard_normal(6)
        assert np.array_equal(out.real, sym + z[0::2])
        assert np.array_equal(out.imag, z[1::2])

    @pytest.mark.parametrize("sigma", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
    def test_bad_sigma_rejected(self, sigma):
        """A negative or non-finite sigma is an error, not a noiseless channel."""
        with pytest.raises(ValueError, match="sigma"):
            channel.awgn(np.ones(4), sigma, rng(1))


def gap_layout(bits, p, seed):
    """Reference BSC: the bits at cumsum(1 + floor(log1p(-u) / log1p(-p))) - 1
    flip, for the seed's uniforms u.  Every gap is at least 1, so bits.size + 1
    uniforms reach the end."""
    u = rng(seed).random(bits.size + 1)
    ends = np.cumsum(1 + np.floor(np.log1p(-u) / math.log1p(-p))) - 1
    flips = np.zeros(bits.size, bool)
    flips[ends[ends < bits.size].astype(np.int64)] = True
    return bits ^ flips


class TestBsc:
    def test_p_zero_identity(self, monkeypatch):
        def no_draw(seed):
            raise AssertionError("p = 0 must draw nothing")

        monkeypatch.setattr(channel.np.random, "default_rng", no_draw)
        bits = np.array([0, 1, 1, 0], np.uint8)
        assert np.array_equal(channel.bsc(bits, 0.0, 5), bits)

    def test_p_one_complement(self, monkeypatch):
        def no_draw(seed):
            raise AssertionError("p = 1 must draw nothing")

        monkeypatch.setattr(channel.np.random, "default_rng", no_draw)
        bits = np.array([0, 1, 1, 0], np.uint8)
        assert np.array_equal(channel.bsc(bits, 1.0, 5), 1 - bits)

    def test_flip_rate(self):
        n = 10_000_000
        p = 3e-3
        bits = np.zeros(n, np.uint8)
        flips = int(channel.bsc(bits, p, 123).sum())
        se = math.sqrt(n * p * (1 - p))
        assert abs(flips - n * p) <= 3 * se

    @pytest.mark.parametrize("p", [0.7, 0.999])
    def test_flip_count_above_one_half(self, p):
        """Stream-independent: the flip count is n p within 3 SE."""
        n = 1 << 20
        flips = sum(f.size for f in channel.bsc_flips(n, p, 11))
        assert abs(flips - n * p) <= 3 * math.sqrt(n * p * (1 - p))

    def test_deterministic(self):
        bits = np.zeros(10_000, np.uint8)
        assert np.array_equal(channel.bsc(bits, 0.1, 9), channel.bsc(bits, 0.1, 9))

    @pytest.mark.parametrize("p", [1e-3, 0.01, 0.3, 0.5, 0.7, 0.99])
    def test_flips_at_gap_cumsum(self, p):
        # 3e5 bits hold several gap chunks at p = 0.3, 0.5 and 0.7
        bits = rng(1).integers(0, 2, 300_000).astype(np.uint8)
        assert np.array_equal(channel.bsc(bits, p, 4), gap_layout(bits, p, 4))

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.9])
    def test_gap_chunk_does_not_change_output(self, chunk, p, monkeypatch):
        bits = rng(2).integers(0, 2, 20_000).astype(np.uint8)
        expect = channel.bsc(bits, p, 6)
        monkeypatch.setattr(channel, "_GAP_CHUNK", chunk)
        assert np.array_equal(channel.bsc(bits, p, 6), expect)

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1 - 5e-324, float(np.nextafter(1.0, 0.0))])
    def test_extreme_p_stays_in_range(self, p):
        """Gaps of an underflowing q are +inf or past 2^63; they are clamped
        before the int64 cast, so no NaN or overflow reaches it."""
        bits = rng(3).integers(0, 2, 100_000).astype(np.uint8)
        with np.errstate(all="raise"):
            out = channel.bsc(bits, p, 8)
        assert out.shape == bits.shape
        assert np.array_equal(out, bits if p < 0.5 else 1 - bits)

    def test_zero_uniform_is_a_gap_of_one(self, monkeypatch):
        """Generator.random can return 0.  Dividing by a subnormal log1p(-q)
        gives that u a gap of 1; multiplying by 1 / log1p(-q) = -inf gives NaN."""
        class Draws:
            def random(self, k):
                return np.r_[0.0, np.full(k - 1, 0.5)]

        monkeypatch.setattr(channel.np.random, "default_rng", lambda seed: Draws())
        with np.errstate(all="raise"):
            out = channel.bsc(np.zeros(10, np.uint8), 5e-324, 1)
        assert out.tolist() == [1] + [0] * 9

    def test_temporaries_bounded_by_gap_chunk(self):
        """At p = 1/2 half the bits flip, yet beyond the n-byte output a call
        holds at most a few float64 arrays of one gap chunk."""
        n = 1 << 22
        bits = np.zeros(n, np.uint8)
        channel.bsc(bits[:1000], 0.5, 3)  # one-time numpy setup is not a temporary
        tracemalloc.start()
        try:
            out = channel.bsc(bits, 0.5, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(int(out.sum()) - n / 2) <= 3 * math.sqrt(n / 4)
        assert peak <= n + 6 * 8 * channel._GAP_CHUNK

    def test_validation(self):
        with pytest.raises(ValueError):
            channel.bsc(np.zeros(4, np.uint8), 1.5, 0)


class TestDbpskTheory:
    def test_zero_db(self):
        assert channel.dbpsk_ber_theory(0.0) == pytest.approx(0.5 * math.exp(-1))

    def test_limit(self):
        assert channel.dbpsk_ber_theory(40.0) < 1e-300 or channel.dbpsk_ber_theory(40.0) == 0.0
        assert channel.dbpsk_ber_theory(-100.0) == pytest.approx(0.5, rel=1e-3)
        assert channel.dbpsk_ber_theory(4000.0) == channel.dbpsk_ber_theory(math.inf) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="Eb/N0 must be a number"):
            channel.dbpsk_ber_theory(math.nan)


class TestLinkBudget:
    def test_hand_calculation_at_30m(self):
        # independent recomputation: lambda = c / 60 GHz ~ 4.997 mm,
        # FSPL = 20 log10(4 pi 30 / lambda) ~ 97.55 dB, Pr ~ -52.75 dBm,
        # noise floor = -174 + 10 log10(2e9) + 8 ~ -72.99 dBm
        budget = LinkBudget()
        lam = 299792458.0 / 60e9
        fspl = 20 * math.log10(4 * math.pi * 30 / lam)
        assert fspl == pytest.approx(97.55, abs=0.01)
        pr = 0.0 + 22.4 + 22.4 - fspl
        assert pr == pytest.approx(-52.75, abs=0.01)
        floor = -174 + 10 * math.log10(2e9) + 8
        expected = (pr - floor) + 10 * math.log10(2e9 / 875e6)
        assert channel.snr_at_distance(budget, 30.0) == pytest.approx(expected, abs=1e-9)

    def test_distance_doubling_slope(self):
        budget = LinkBudget()
        for d in (1.0, 5.0, 30.0):
            drop = channel.snr_at_distance(budget, d) - channel.snr_at_distance(budget, 2 * d)
            assert drop == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_strictly_decreasing(self):
        budget = LinkBudget()
        values = [channel.snr_at_distance(budget, d) for d in np.linspace(0.5, 50, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_extra_loss_is_additive(self):
        base = channel.snr_at_distance(LinkBudget(), 10.0)
        blocked = channel.snr_at_distance(LinkBudget(extra_loss_db=15.0), 10.0)
        assert base - blocked == pytest.approx(15.0, abs=1e-12)

    def test_db_parameters_additive(self):
        base = channel.snr_at_distance(LinkBudget(), 10.0)
        assert channel.snr_at_distance(LinkBudget(tx_power_dbm=3.0), 10.0) - base == pytest.approx(3.0)
        assert channel.snr_at_distance(LinkBudget(rx_gain_dbi=25.4), 10.0) - base == pytest.approx(3.0)

    @pytest.mark.parametrize("distance", [0.0, -1.0, math.nan, math.inf])
    def test_distance_outside_domain_rejected(self, distance):
        """The domain of `DistanceChannel`, 0 < d < inf."""
        with pytest.raises(ValueError, match="distance must be positive and finite"):
            channel.snr_at_distance(LinkBudget(), distance)

    def test_underflowing_path_loss_rejected(self):
        """4 pi d / wavelength underflows to 0: the free-space loss has no dB value."""
        with pytest.raises(ValueError, match=r"-inf dB at distance 5e-324 m, carrier 1e-10 Hz"):
            channel.snr_at_distance(LinkBudget(carrier_hz=1e-10), 5e-324)

    def test_validation(self):
        bad = [("tx_power_dbm", math.nan), ("tx_gain_dbi", math.inf),
               ("rx_gain_dbi", -math.inf), ("noise_figure_db", math.nan),
               ("extra_loss_db", math.inf), ("carrier_hz", 0.0), ("carrier_hz", math.inf)]
        for name, value in bad:
            with pytest.raises(ValueError, match=name):
                LinkBudget(**{name: value})

    def test_predicted_ber_monotone_in_distance(self):
        budget = LinkBudget()
        bers = [channel.dbpsk_ber_theory(channel.snr_at_distance(budget, d))
                for d in np.linspace(5, 200, 40)]
        assert all(a <= b for a, b in zip(bers, bers[1:]))


class TestRsResidual:
    def test_zero_and_monotone(self):
        assert channel.rs_residual_ber(0.0) == 0.0
        assert channel.rs_residual_ber(5e-324) == 0.0  # a positive byte error rate, a tail that underflows
        values = [channel.rs_residual_ber(p) for p in (1e-4, 1e-3, 1e-2, 0.1)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_validation(self, p):
        with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
            channel.rs_residual_ber(p)

    def test_far_below_raw_in_coding_regime(self):
        # ~2 byte errors per codeword: block failures are rare and the
        # predicted post-decode BER sits orders of magnitude under raw
        p = 1e-3
        assert channel.rs_residual_ber(p) < p / 100

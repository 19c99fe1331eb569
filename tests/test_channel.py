"""Noise, BER theory, and link budget tests."""

import math

import numpy as np
import pytest

from gblink import channel
from gblink.channel import LinkBudget


def rng(seed):
    return np.random.default_rng(seed)


class TestAwgn:
    def test_infinite_snr_is_identity(self):
        sym = np.ones(100)
        out = channel.awgn(sym, channel.noise_sigma(math.inf, 1.0), rng(1))
        assert np.array_equal(out.real, sym) and not out.imag.any()

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

    def test_draw_order_in_phase_then_quadrature(self):
        sym = np.array([1.0, -1.0, 1.0])
        out = channel.awgn(sym, 0.5, rng(3))
        draws = rng(3).normal(0.0, 0.5, 6)
        assert np.array_equal(out.real, sym + draws[:3])
        assert np.array_equal(out.imag, draws[3:])


class TestBsc:
    def test_p_zero_identity(self):
        bits = np.array([0, 1, 1, 0], np.uint8)
        assert np.array_equal(channel.bsc(bits, 0.0, 5), bits)

    def test_p_one_complement(self):
        bits = np.array([0, 1, 1, 0], np.uint8)
        assert np.array_equal(channel.bsc(bits, 1.0, 5), 1 - bits)

    def test_flip_rate(self):
        n = 10_000_000
        p = 3e-3
        bits = np.zeros(n, np.uint8)
        flips = int(channel.bsc(bits, p, 123).sum())
        se = math.sqrt(n * p * (1 - p))
        assert abs(flips - n * p) <= 3 * se

    def test_deterministic(self):
        bits = np.zeros(10_000, np.uint8)
        assert np.array_equal(channel.bsc(bits, 0.1, 9), channel.bsc(bits, 0.1, 9))

    def test_chunked_draws_match_one_draw(self):
        n = 2 * channel._BSC_CHUNK_BITS + 12345
        bits = np.random.default_rng(1).integers(0, 2, n).astype(np.uint8)
        flips = np.random.default_rng(4).random(n) < 0.01
        assert np.array_equal(channel.bsc(bits, 0.01, 4), bits ^ flips)

    def test_validation(self):
        with pytest.raises(ValueError):
            channel.bsc(np.zeros(4, np.uint8), 1.5, 0)


class TestDbpskTheory:
    def test_zero_db(self):
        assert channel.dbpsk_ber_theory(0.0) == pytest.approx(0.5 * math.exp(-1))

    def test_limit(self):
        assert channel.dbpsk_ber_theory(40.0) < 1e-300 or channel.dbpsk_ber_theory(40.0) == 0.0
        assert channel.dbpsk_ber_theory(-100.0) == pytest.approx(0.5, rel=1e-3)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            channel.snr_at_distance(LinkBudget(), 0.0)

    def test_predicted_ber_monotone_in_distance(self):
        budget = LinkBudget()
        bers = [channel.dbpsk_ber_theory(channel.snr_at_distance(budget, d))
                for d in np.linspace(5, 200, 40)]
        assert all(a <= b for a, b in zip(bers, bers[1:]))


class TestRsResidual:
    def test_zero_and_monotone(self):
        assert channel.rs_residual_ber(0.0) == 0.0
        values = [channel.rs_residual_ber(p) for p in (1e-4, 1e-3, 1e-2, 0.1)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_far_below_raw_in_coding_regime(self):
        # ~2 byte errors per codeword: block failures are rare and the
        # predicted post-decode BER sits orders of magnitude under raw
        p = 1e-3
        assert channel.rs_residual_ber(p) < p / 100

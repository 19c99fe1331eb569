"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured values.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gblink import channel, cli, framing, rs, sync
from gblink.elastic import FifoConfig, simulate_fifo
from gblink.framing import P32, P64
from gblink.harness import AwgnChannel, ExperimentConfig, run_link


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_sync_tradeoff_reproduction(tmp_path):
    """Operating-point sync trade-off triples at p=1e-4 via the sync-table command."""
    out32 = tmp_path / "t32.csv"
    out64 = tmp_path / "t64.csv"
    t0 = time.perf_counter()
    assert cli.main(["sync-table", "--kind", "p32", "--p", "1e-4",
                     "--gammas", "28:28", "--out", str(out32)]) == 0
    assert cli.main(["sync-table", "--kind", "p64", "--p", "1e-4",
                     "--gammas", "55:55", "--out", str(out64)]) == 0
    elapsed = time.perf_counter() - t0

    row32 = dict(zip(*[line.split(",") for line in out32.read_text().strip().splitlines()]))
    row64 = dict(zip(*[line.split(",") for line in out64.read_text().strip().splitlines()]))
    lpm32 = math.log10(float(row32["p_miss"]))
    lpf1 = math.log10(float(row32["p_false_single"]))
    lpf2 = math.log10(float(row32["p_false_double"]))
    lpm64 = math.log10(float(row64["p_miss"]))
    # 64-bit false-alarm figures are exempt (documented model discrepancy)
    ok = (abs(lpm32 + 14) <= 1.0 and abs(lpf1 + 5) <= 0.5 and abs(lpf2 + 10) <= 1.0
          and abs(lpm64 + 29) <= 1.0 and elapsed < 1.0)
    report("criterion 1 (sync trade-off)",
           ok, f"log10: Pm32={lpm32:.2f} PF1={lpf1:.2f} PF2={lpf2:.2f} "
               f"Pm64={lpm64:.2f}, {elapsed:.2f}s")


def test_criterion_02_binomial_tail_oracle_equivalence():
    """p_false == exhaustive enumeration exactly; p_miss == exact rational
    summation to 12 significant digits, for all N <= 16 and every gamma."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    for n in range(1, 17):
        pre = framing.gen_preamble(P64)[:n]
        windows = np.unpackbits(
            np.arange(2 ** n, dtype=">u4").view(np.uint8).reshape(-1, 4), axis=1)[:, -n:]
        matches = (windows == pre).sum(axis=1)
        for gamma in range(n + 1):
            count = int((matches >= gamma).sum())
            q1, q2 = sync.p_false(n, gamma)
            assert q1 == count / 2 ** n, (n, gamma)
            assert q2 == (count / 2 ** n) ** 2, (n, gamma)
            for p in (0.1, 0.25):
                m = sum((Fraction(math.comb(n, i)) * Fraction(p) ** i
                         * (1 - Fraction(p)) ** (n - i)
                         for i in range(n - gamma + 1, n + 1)), Fraction(0))
                exact = float(m * (2 - m))
                got = sync.p_miss(n, gamma, p)
                if exact == 0.0:
                    assert got == 0.0, (n, gamma, p)
                else:
                    worst_rel = max(worst_rel, abs(got - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-12 and elapsed < 10.0
    report("criterion 2 (binomial oracles)",
           ok, f"worst p_miss rel err {worst_rel:.2e}, enumeration exact, {elapsed:.2f}s")


def test_criterion_03_monte_carlo_analytic_sync_agreement():
    n, gamma, p, trials = 32, 28, 0.05, 200_000
    t0 = time.perf_counter()
    analytic = sync.p_miss_single(n, gamma, p)
    pre = framing.gen_preamble(P32)
    noisy = channel.bsc(np.tile(pre, trials), p, seed=2024)
    scores = (noisy.reshape(trials, n) == pre).sum(axis=1)
    rate = float((scores < gamma).mean())
    se = math.sqrt(analytic * (1 - analytic) / trials)
    elapsed = time.perf_counter() - t0
    ok = abs(rate - analytic) <= 3 * se and elapsed < 30.0
    report("criterion 3 (MC sync agreement)",
           ok, f"empirical {rate:.5f} vs analytic {analytic:.5f} "
               f"(|diff|={abs(rate-analytic):.2e}, 3SE={3*se:.2e}), {elapsed:.1f}s")


def test_criterion_04_dbpsk_modem_fidelity():
    t0 = time.perf_counter()
    details = []
    ok = True
    for ebn0_db, frames in ((6.0, 4810), (8.0, 4810), (10.0, 19240)):
        cfg = ExperimentConfig(channel=AwgnChannel(ebn0_db), frames=frames,
                               master_seed=600 + int(ebn0_db), uncoded=True)
        rep = run_link(cfg)
        assert rep.raw_bits >= 10_000_000
        theory = channel.dbpsk_ber_theory(ebn0_db)
        rel = abs(rep.raw_ber - theory) / theory
        details.append(f"{ebn0_db:g}dB:{rel*100:.1f}%")
        ok = ok and rel <= 0.15
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report("criterion 4 (DBPSK fidelity)",
           ok, f"relative errors vs 0.5*exp(-Eb/N0): {' '.join(details)}, {elapsed:.0f}s")


def test_criterion_05_rs_guarantee():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    trials = 100_000
    messages = rng.integers(0, 256, (trials, 239), dtype=np.uint8)
    blocks = rs.encode_blocks(messages)
    weights = rng.integers(0, 9, trials)
    received = blocks.copy()
    for i in range(trials):
        w = int(weights[i])
        if w:
            pos = rng.choice(255, w, replace=False)
            received[i, pos] ^= rng.integers(1, 256, w).astype(np.uint8)
    decoded, corrected, ok = rs.decode_blocks(received)
    failures = 0
    for i in range(trials):
        if not ok[i] or decoded[i].tobytes() != messages[i].tobytes() or corrected[i] != weights[i]:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    report("criterion 5 (RS guarantee)",
           ok, f"{trials} codewords, weight<=8, {failures} failures, {elapsed:.0f}s")


def test_criterion_06_frame_round_trip():
    t0 = time.perf_counter()
    total_frames = 0
    ok = True
    for kind in (P32, P64):
        for offset in range(8):
            cfg = ExperimentConfig(channel=AwgnChannel(math.inf), frames=625,
                                   master_seed=6000 + offset, frame_kind=kind,
                                   bit_offset=offset)
            rep = run_link(cfg)
            total_frames += rep.frames
            ok = ok and (rep.coded_errors == 0 and rep.raw_errors == 0
                         and rep.frame_errors == 0 and rep.sync_losses == 0)
    elapsed = time.perf_counter() - t0
    ok = ok and total_frames == 10_000 and elapsed < 60.0
    report("criterion 6 (frame round trip)",
           ok, f"{total_frames} frames, both kinds, offsets 0-7, coded_ber=0, {elapsed:.0f}s")


def test_criterion_07_rate_arithmetic():
    r32 = P32.source_rate_bps / 1e6
    r64 = P64.source_rate_bps / 1e6
    ok = (abs(r32 - 804.33) <= 0.01 and abs(r64 - 807.43) <= 0.01
          and P32.span_bytes == 264 and P64.span_bytes == 526
          and P32.frame_bytes == 260 and P64.frame_bytes == 518
          and channel.CHANNEL_RATE_BPS == 875e6)
    report("criterion 7 (rate arithmetic)",
           ok, f"875*239/260={r32:.4f} Mbps, 875*478/518={r64:.4f} Mbps, spans 264/526")


def test_criterion_08_elastic_buffer():
    t0 = time.perf_counter()
    st = simulate_fifo(FifoConfig(), 100_000_000, "continuous", 0)
    elapsed = time.perf_counter() - t0
    conserved = st.bytes_written == st.output_bytes + st.final_occupancy
    ok = (st.overflow_events == 0 and st.underflow_events == 0
          and st.output_gaps_after_priming == 0 and conserved and elapsed < 30.0)
    report("criterion 8 (elastic buffer)",
           ok, f"1e8 read cycles: overflow={st.overflow_events} underflow={st.underflow_events} "
               f"gaps={st.output_gaps_after_priming} conservation={conserved}, {elapsed:.1f}s")


def test_criterion_09_link_budget_properties():
    t0 = time.perf_counter()
    budget = channel.LinkBudget()
    distances = np.linspace(1.0, 100.0, 200)
    snrs = [channel.snr_at_distance(budget, d) for d in distances]
    decreasing = all(a > b for a, b in zip(snrs, snrs[1:]))
    doubling = channel.snr_at_distance(budget, 10.0) - channel.snr_at_distance(budget, 20.0)
    ebn0_30m = channel.snr_at_distance(budget, 30.0)
    coded_pred = channel.rs_residual_ber(channel.dbpsk_ber_theory(ebn0_30m))
    elapsed = time.perf_counter() - t0
    ok = (decreasing and abs(doubling - 6.02) <= 0.01
          and coded_pred < 1e-6 and elapsed < 1.0)
    report("criterion 9 (link budget)",
           ok, f"monotone={decreasing}, doubling={doubling:.4f} dB, "
               f"30m Eb/N0={ebn0_30m:.1f} dB -> coded BER {coded_pred:.1e}, {elapsed:.2f}s")


def test_criterion_10_determinism(tmp_path):
    args = ["sweep", "--channel", "awgn", "--sweep", "6,8,10", "--frames", "120",
            "--seed", "1010", "--uncoded"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report("criterion 10 (determinism)",
           identical, f"two sweep executions byte-identical: {identical}")

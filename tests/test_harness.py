"""End-to-end link harness tests."""

import dataclasses
import io
import math

import numpy as np
import pytest

from gblink import channel, framing, harness, modem, rs
from gblink.framing import P32, P64
from gblink.harness import (AwgnChannel, BscChannel, DistanceChannel,
                            ExperimentConfig, LinkReport, run_link, sweep)
from gblink.sync import CorrelatorBankConfig, FrameSynchronizer


def test_noiseless_run_is_perfect():
    cfg = ExperimentConfig(channel=AwgnChannel(math.inf), frames=50, master_seed=1)
    rep = run_link(cfg)
    assert rep.raw_errors == 0 and rep.coded_errors == 0
    assert rep.frame_errors == 0 and rep.sync_losses == 0
    assert rep.raw_bits == 50 * P32.frame_bits
    assert rep.coded_bits == 50 * P32.payload_bytes * 8
    assert rep.corrected_bytes_total == 0


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
@pytest.mark.parametrize("offset", range(8))
def test_noiseless_all_bit_offsets(kind, offset):
    cfg = ExperimentConfig(channel=AwgnChannel(math.inf), frames=5, master_seed=11 + offset,
                           frame_kind=kind, bit_offset=offset)
    rep = run_link(cfg)
    assert rep.coded_errors == 0 and rep.frame_errors == 0 and rep.sync_losses == 0


def test_uncoded_awgn_matches_theory():
    cfg = ExperimentConfig(channel=AwgnChannel(8.0), frames=2500, master_seed=7, uncoded=True)
    rep = run_link(cfg)
    theory = channel.dbpsk_ber_theory(8.0)
    assert rep.raw_bits >= 5_000_000
    assert abs(rep.raw_ber - theory) / theory < 0.15


def test_coded_awgn_raw_ber_uses_code_rate():
    # with coded accounting Eb/N0 maps to Es/N0 through the code rate
    cfg = ExperimentConfig(channel=AwgnChannel(9.0), frames=2500, master_seed=3)
    rep = run_link(cfg)
    es_n0_db = 9.0 + 10 * math.log10(P32.code_rate)
    theory = channel.dbpsk_ber_theory(es_n0_db)
    assert abs(rep.raw_ber - theory) / theory < 0.15


def test_bsc_coding_gain():
    """At p = 1e-3 each codeword sees ~2 byte errors, well inside the radius:
    RS must wipe out at least 10x of the raw error rate (here: everything)."""
    cfg = ExperimentConfig(channel=BscChannel(1e-3), frames=2000, master_seed=9)
    rep = run_link(cfg)
    assert abs(rep.raw_ber - 1e-3) / 1e-3 < 0.2
    assert rep.coded_ber < rep.raw_ber / 10
    # binomial oracle: expected corrected bytes per codeword = 255 * pb
    pb = 1 - (1 - 1e-3) ** 8
    expected = 255 * pb * cfg.frames
    assert abs(rep.corrected_bytes_total - expected) / expected < 0.1


def test_bsc_exact_flip_accounting():
    cfg = ExperimentConfig(channel=BscChannel(0.5), frames=10, master_seed=21)
    rep = run_link(cfg)
    assert 0.45 < rep.raw_ber < 0.55
    assert rep.frame_errors == rep.frames
    # pass-through accounting keeps coded errors comparable to raw
    assert 0.4 < rep.coded_ber < 0.6


def test_coded_never_much_worse_than_raw():
    for p in (1e-3, 1e-2, 0.1):
        rep = run_link(ExperimentConfig(channel=BscChannel(p), frames=200, master_seed=5))
        assert rep.coded_ber <= rep.raw_ber * 1.2 + 1e-6


def test_distance_channel_noiseless_at_short_range():
    cfg = ExperimentConfig(channel=DistanceChannel(1.0), frames=20, master_seed=13)
    rep = run_link(cfg)
    assert rep.coded_errors == 0 and rep.frame_errors == 0


def test_distance_channel_degrades():
    near = run_link(ExperimentConfig(channel=DistanceChannel(10.0), frames=60, master_seed=17))
    far = run_link(ExperimentConfig(channel=DistanceChannel(400.0), frames=60, master_seed=17))
    assert near.raw_errors <= far.raw_errors
    assert far.raw_ber > 0


def test_blockage_loss_costs_snr():
    blocked = DistanceChannel(30.0, channel.LinkBudget(extra_loss_db=15.0))
    clear = DistanceChannel(30.0)
    ebn0_clear = channel.snr_at_distance(clear.budget, 30.0)
    ebn0_blocked = channel.snr_at_distance(blocked.budget, 30.0)
    assert ebn0_clear - ebn0_blocked == pytest.approx(15.0)


def test_run_deterministic():
    cfg = ExperimentConfig(channel=AwgnChannel(7.0), frames=100, master_seed=99)
    a, b = run_link(cfg), run_link(cfg)
    assert a == b
    c = run_link(ExperimentConfig(channel=AwgnChannel(7.0), frames=100, master_seed=100))
    assert a != c


def test_sync_losses_counted():
    """Corrupt two consecutive preambles post-channel is impractical here, so
    force losses with a heavy BSC and check the accounting stays consistent."""
    rep = run_link(ExperimentConfig(channel=BscChannel(0.12), frames=150, master_seed=31))
    rep.validate()
    assert rep.frame_errors > 0
    assert rep.coded_errors <= rep.coded_bits


def test_sweep_rows_and_order():
    cfg = ExperimentConfig(channel=AwgnChannel(0.0), frames=30, master_seed=55, uncoded=True)
    rows = sweep(cfg, (10.0, 6.0, 8.0))
    assert [v for v, _ in rows] == [10.0, 6.0, 8.0]
    by_value = {v: r for v, r in rows}
    assert by_value[6.0].raw_errors > by_value[10.0].raw_errors


def test_sweep_monotone_in_snr():
    cfg = ExperimentConfig(channel=AwgnChannel(0.0), frames=150, master_seed=4, uncoded=True)
    rows = sweep(cfg, (4.0, 6.0, 8.0, 10.0, 12.0))
    bers = [r.raw_ber for _, r in rows]
    assert all(a > b for a, b in zip(bers, bers[1:]))


def test_sweep_distance_monotone():
    """Across the waterfall region the raw BER grows with distance, and the
    analytic prediction agrees on the ordering."""
    distances = (150.0, 250.0, 400.0)
    cfg = ExperimentConfig(channel=DistanceChannel(distances[0]), frames=120, master_seed=23)
    rows = sweep(cfg, distances)
    bers = [r.raw_ber for _, r in rows]
    assert bers[0] < bers[1] < bers[2]
    predicted = [channel.dbpsk_ber_theory(channel.snr_at_distance(channel.LinkBudget(), d))
                 for d in distances]
    assert predicted[0] < predicted[1] < predicted[2]


def test_sweep_gamma_param():
    cfg = ExperimentConfig(channel=BscChannel(1e-3), frames=20, master_seed=8)
    rows = sweep(cfg, (24.0, 28.0, 32.0), "gamma")
    assert len(rows) == 3
    for _, rep in rows:
        rep.validate()


def test_sweep_csv_deterministic_bytes():
    cfg = ExperimentConfig(channel=BscChannel(2e-3), frames=40, master_seed=77)
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        harness.write_sweep_csv(sweep(cfg, (1e-3, 2e-3, 5e-3)), buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == "parameter,raw_ber,coded_ber,fer,sync_losses"


def test_sweep_parallel_matches_serial():
    cfg = ExperimentConfig(channel=BscChannel(1e-3), frames=30, master_seed=12)
    values = (5e-4, 1e-3, 2e-3, 4e-3)
    assert sweep(cfg, values, jobs=2) == sweep(cfg, values, jobs=1)


def test_sweep_requires_values():
    cfg = ExperimentConfig(channel=AwgnChannel(8.0), frames=10, master_seed=1)
    with pytest.raises(ValueError):
        sweep(cfg, ())
    with pytest.raises(ValueError):
        sweep(cfg, (8.0,), "distance")


def test_config_validation():
    with pytest.raises(ValueError):
        run_link(ExperimentConfig(channel=AwgnChannel(8.0), frames=0, master_seed=1))
    with pytest.raises(ValueError):
        run_link(ExperimentConfig(channel=AwgnChannel(8.0), frames=1, master_seed=1,
                                  bit_offset=9))
    with pytest.raises(ValueError):
        run_link(ExperimentConfig(channel=BscChannel(1.5), frames=1, master_seed=1))
    with pytest.raises(ValueError):
        run_link(ExperimentConfig(channel=AwgnChannel(8.0), frames=1, master_seed=1,
                                  gamma=40))
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            AwgnChannel(bad)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DistanceChannel(bad)
    with pytest.raises(ValueError):
        BscChannel(math.nan)
    assert run_link(ExperimentConfig(channel=AwgnChannel(math.inf), frames=1,
                                     master_seed=1)).raw_errors == 0


def _passthrough(frame: bytes, kind) -> bytes:
    body = framing.scramble(np.frombuffer(frame, np.uint8)[kind.preamble_bytes:],
                            framing.gen_scrambler_seq(kind))
    return b"".join(body[i * 255: i * 255 + 239].tobytes()
                    for i in range(kind.codewords_per_frame))


def reference_link(cfg: ExperimentConfig) -> tuple[LinkReport, dict]:
    """The run rebuilt from public pieces and accounted frame by frame, as
    the harness did before its batch receive path.  Also returns how many
    frames were located and how many of those had exactly one codeword fail
    while another decoded."""
    kind = cfg.frame_kind
    gamma = cfg.gamma if cfg.gamma is not None else kind.default_gamma
    frame_bits = kind.frame_bits
    payload_ss, junk_ss, chan_ss = np.random.SeedSequence(cfg.master_seed).spawn(3)
    payloads = np.random.default_rng(payload_ss).integers(
        0, 256, (cfg.frames, kind.payload_bytes), dtype=np.uint8)
    junk = np.random.default_rng(junk_ss).integers(0, 2, cfg.bit_offset).astype(np.uint8)
    tx_bits = np.concatenate([junk, np.unpackbits(framing.build_frames(payloads, kind).reshape(-1)),
                              framing.gen_preamble(kind)])
    if isinstance(cfg.channel, BscChannel):
        rx_bits = channel.bsc(tx_bits, cfg.channel.p, int(chan_ss.generate_state(1, np.uint64)[0]))
    else:
        if isinstance(cfg.channel, DistanceChannel):
            ebn0_db, rate = channel.snr_at_distance(cfg.channel.budget, cfg.channel.distance_m), 1.0
        else:
            ebn0_db, rate = cfg.channel.ebn0_db, 1.0 if cfg.uncoded else kind.code_rate
        assert tx_bits.size <= harness._CHUNK_SYMBOLS  # a single noise chunk
        sym = channel.awgn(modem.bpsk_map(modem.diff_encode(tx_bits)),
                           channel.noise_sigma(ebn0_db, rate), np.random.default_rng(chan_ss))
        rx_bits = modem.diff_demod(np.concatenate(([1.0 + 0.0j], sym)))

    lo = cfg.bit_offset
    hi = lo + cfg.frames * frame_bits
    located, sync_losses = FrameSynchronizer(CorrelatorBankConfig(kind, gamma)).locate_frames(rx_bits)
    located_set = set(located)
    coded_errors = frame_errors = corrected_total = partial = 0
    seq = framing.gen_scrambler_seq(kind)
    for i in range(cfg.frames):
        start = lo + i * frame_bits
        rx_frame = np.packbits(rx_bits[start: start + frame_bits]).tobytes()
        delivered = None
        if start in located_set:
            body = framing.scramble(np.frombuffer(rx_frame, np.uint8)[kind.preamble_bytes:], seq)
            msgs, failures = [], 0
            for c in range(kind.codewords_per_frame):
                try:
                    msgs.append(rs.rs_decode(body[c * 255: (c + 1) * 255].tobytes()))
                except rs.RsDecodeFailure:
                    failures += 1
            partial += failures == 1 and kind.codewords_per_frame == 2
            if not failures:
                delivered = b"".join(m for m, _ in msgs)
                corrected_total += sum(n for _, n in msgs)
        if delivered is None:
            frame_errors += 1
            delivered = _passthrough(rx_frame, kind)
        coded_errors += int(np.unpackbits(np.frombuffer(delivered, np.uint8) ^ payloads[i]).sum())
    report = LinkReport(
        raw_errors=int(np.count_nonzero(rx_bits[lo:hi] != tx_bits[lo:hi])),
        raw_bits=cfg.frames * frame_bits, coded_errors=coded_errors,
        coded_bits=cfg.frames * kind.payload_bytes * 8, frame_errors=frame_errors,
        frames=cfg.frames, sync_losses=sync_losses, corrected_bytes_total=corrected_total)
    return report, {"located": len(located), "partial": partial}


ACCOUNTING_CASES = {
    "p32-awgn-coded-off0": dict(channel=AwgnChannel(6.5), frame_kind=P32, bit_offset=0),
    "p64-awgn-coded-off1": dict(channel=AwgnChannel(7.0), frame_kind=P64, bit_offset=1),
    "p32-bsc-off2": dict(channel=BscChannel(2e-3), frame_kind=P32, bit_offset=2),
    "p64-bsc-one-codeword-fails-off3": dict(channel=BscChannel(4e-3), frame_kind=P64, bit_offset=3),
    "p32-distance-off4": dict(channel=DistanceChannel(250.0), frame_kind=P32, bit_offset=4),
    "p64-distance-off5": dict(channel=DistanceChannel(200.0), frame_kind=P64, bit_offset=5),
    "p32-awgn-uncoded-off6": dict(channel=AwgnChannel(8.0), frame_kind=P32, bit_offset=6,
                                  uncoded=True),
    "p64-bsc-sync-losses-off7": dict(channel=BscChannel(3e-2), frame_kind=P64, bit_offset=7,
                                     gamma=62),
    "p32-bsc-sync-losses-off0": dict(channel=BscChannel(3e-2), frame_kind=P32, gamma=32),
    "p32-bsc-nothing-located": dict(channel=BscChannel(0.5), frame_kind=P32, bit_offset=1),
}


@pytest.mark.parametrize("name", list(ACCOUNTING_CASES))
def test_accounting_matches_reference_loop(name):
    cfg = ExperimentConfig(frames=80, master_seed=sum(map(ord, name)), **ACCOUNTING_CASES[name])
    expected, seen = reference_link(cfg)
    assert dataclasses.asdict(run_link(cfg)) == dataclasses.asdict(expected)
    if "nothing-located" in name:
        assert seen["located"] == 0
    if "one-codeword-fails" in name:
        assert seen["partial"] > 0
    if "sync-losses" in name:
        assert expected.sync_losses > 0


def test_single_frame_run():
    # the trailing preamble gives even a single frame its bank-2 window
    rep = run_link(ExperimentConfig(channel=AwgnChannel(math.inf), frames=1, master_seed=6))
    assert rep.frame_errors == 0 and rep.coded_errors == 0

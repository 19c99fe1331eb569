"""End-to-end link harness tests."""

import dataclasses
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rs_oracle
from gblink import channel, framing, harness, rs
from gblink.framing import P32, P64
from gblink.harness import (AwgnChannel, BscChannel, DistanceChannel,
                            ExperimentConfig, LinkReport, run_link, sweep)
from gblink.sync import FrameSynchronizer
from test_dbpsk import flipped
from test_sync import reference_locate_frames


def stream(seed: int, offset: int) -> np.random.Generator:
    """A run's generator at one of harness's stream offsets, built from numpy alone."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)).advance(offset))


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


def test_report_validate_rejects_impossible_counts():
    good = LinkReport(raw_errors=3, raw_bits=100, coded_errors=2, coded_bits=80, frame_errors=1,
                      frames=2, sync_losses=0, corrected_bytes_total=4)
    good.validate()
    for bad, message in [(dict(raw_errors=101), "raw error"), (dict(raw_errors=-1), "raw error"),
                         (dict(coded_errors=81), "coded error"), (dict(coded_errors=-1), "coded error"),
                         (dict(frame_errors=3), "frame error"), (dict(frame_errors=-1), "frame error"),
                         (dict(sync_losses=-1), "negative"),
                         (dict(corrected_bytes_total=-1), "negative")]:
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(good, **bad).validate()


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
    for bad in (28.7, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"gamma.*{bad}"):
            sweep(cfg, (28.0, bad), "gamma")


def test_sweep_refuses_bad_gamma_before_any_run():
    def no_run(*args, **kwargs):
        raise AssertionError("a point ran before the sweep was validated")

    cfg = ExperimentConfig(channel=BscChannel(1e-3), frames=20, master_seed=1)
    with mock.patch.object(harness, "run_link", no_run), \
            mock.patch("concurrent.futures.ProcessPoolExecutor", no_run):
        for jobs in (1, 2):
            with pytest.raises(ValueError, match=r"gamma must be in \[0, 32\] for P32, got 99"):
                sweep(cfg, (28.0, 99.0), "gamma", jobs=jobs)


def test_sweep_workers_capped_at_points():
    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    cfg = ExperimentConfig(channel=BscChannel(1e-3), frames=5, master_seed=3)
    with mock.patch("concurrent.futures.ProcessPoolExecutor", InProcessPool):
        rows = sweep(cfg, (1e-3, 2e-3), jobs=64)
        sweep(cfg, (1e-3, 2e-3, 4e-3), jobs=2)
        serial = sweep(cfg, (1e-3, 2e-3))  # the default, one job, makes no pool
    assert workers == [2, 2]
    assert rows == serial


def test_sweep_parallel_matches_serial():
    cfg = ExperimentConfig(channel=BscChannel(1e-3), frames=30, master_seed=12)
    values = (5e-4, 1e-3, 2e-3, 4e-3)
    assert sweep(cfg, values, jobs=2) == sweep(cfg, values, jobs=1)


def test_awgn_sweep_parallel_matches_serial():
    cfg = ExperimentConfig(channel=AwgnChannel(8.0), frames=30, master_seed=12)
    values = (5.0, 6.0, 7.0, 8.0)
    assert sweep(cfg, values, jobs=2) == sweep(cfg, values, jobs=1)


def test_sweep_requires_values():
    cfg = ExperimentConfig(channel=AwgnChannel(8.0), frames=10, master_seed=1)
    with pytest.raises(ValueError):
        sweep(cfg, ())
    with pytest.raises(ValueError):
        sweep(cfg, (8.0,), "distance")


@pytest.mark.parametrize("jobs", [0, -3, 2.5, True, "2"])
def test_sweep_rejects_nonpositive_jobs(jobs):
    """Before any run: a fractional count is not rounded, a bool is not 1."""
    cfg = ExperimentConfig(channel=BscChannel(1e-3), frames=5, master_seed=1)
    with pytest.raises(ValueError, match=f"jobs .*got {jobs!r}"):
        sweep(cfg, (1e-3,), jobs=jobs)


@pytest.mark.parametrize("ber", [1e-320, 5e-324])
def test_auto_frames_capped_at_subnormal_ber(ber):
    """A channel that clean counts no errors, so an auto-sized run stops at the cap."""
    rep = run_link(ExperimentConfig(channel=BscChannel(ber), frames=None, master_seed=1))
    assert rep.frames == harness.FRAMES_CAP
    assert rep.raw_errors == rep.frame_errors == rep.coded_errors == 0


@pytest.mark.parametrize("cfg,frames", [
    (ExperimentConfig(BscChannel(0.0), None, 1), 20000),
    (ExperimentConfig(BscChannel(1.0), None, 1), 156),
    (ExperimentConfig(AwgnChannel(7.5), None, 1), 2500),
    (ExperimentConfig(AwgnChannel(10.0), None, 1, uncoded=True), 2500),
], ids=["bsc-clean", "bsc-every-bit", "awgn-7.5dB", "awgn-uncoded-10dB"])
def test_auto_sized_run_is_the_fixed_run_where_it_stopped(cfg, frames):
    """An auto-sized report is the fixed run at its own frame count, the first of
    FRAMES_CAP >> k that counts 100 errors (raw ones when uncoded), else the cap."""
    steps = []
    with mock.patch.object(harness, "run_link", lambda c: steps.append(run_link(c)) or steps[-1]):
        rep = run_link(cfg)
    shifts = [1, 2, 4, 9, 19, 39, 78, 156, 312, 625, 1250, 2500, 5000, 10000, 20000]
    assert [step.frames for step in steps] == shifts[: shifts.index(frames) + 1]
    counts = [step.raw_errors if cfg.uncoded else step.frame_errors for step in steps]
    assert max(counts[:-1], default=0) < 100 and (counts[-1] >= 100 or frames == harness.FRAMES_CAP)
    assert rep == run_link(dataclasses.replace(cfg, frames=frames))


@pytest.mark.parametrize("cap,frames", [(200, 100), (198, 198), (3, 3)])
def test_auto_sized_run_stops_at_exactly_100(cap, frames):
    """At p = 1 every frame is a frame error: a step of 100 frames stops the run,
    one of 99 does not, and a cap whose shifts reach 0 frames skips those steps."""
    with mock.patch.object(harness, "FRAMES_CAP", cap):
        assert run_link(ExperimentConfig(BscChannel(1.0), None, 1)).frames == frames


def test_auto_sized_sweep_sizes_each_point():
    """Each point of an auto-sized sweep counts its own errors, and its row is
    the fixed run of that point at the row's frame count."""
    cfg = ExperimentConfig(AwgnChannel(8.0), None, 1)
    rows = sweep(cfg, (6.0, 10.0))
    assert [rep.frames for _, rep in rows] == [156, harness.FRAMES_CAP]
    for i, (value, rep) in enumerate(rows):
        point = harness._point_config(dataclasses.replace(cfg, frames=rep.frames), "channel", value, i)
        assert rep == run_link(point)


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
def test_bsc_flipping_every_bit(kind):
    """At p = 1 every channel bit is an error, no inverted preamble locks, and
    every payload bit passes through inverted: each count meets its bound."""
    rep = run_link(ExperimentConfig(BscChannel(1.0), frames=3, master_seed=1, frame_kind=kind, bit_offset=3))
    assert rep.raw_errors == rep.raw_bits and rep.coded_errors == rep.coded_bits
    assert rep.frame_errors == rep.frames and rep.sync_losses == rep.corrected_bytes_total == 0


def test_config_validation():
    with pytest.raises(ValueError, match="frames must be >= 1"):
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
    with pytest.raises(ValueError, match="-inf dB at distance 5e-324 m"):
        DistanceChannel(5e-324, channel.LinkBudget(carrier_hz=1e-10))
    with pytest.raises(ValueError):
        BscChannel(math.nan)
    assert run_link(ExperimentConfig(channel=AwgnChannel(math.inf), frames=1,
                                     master_seed=1)).raw_errors == 0
    base = dict(channel=BscChannel(1e-3), frames=1, master_seed=1)
    for name, bad in [("frames", 2.5), ("master_seed", 1.5), ("bit_offset", 2.5),
                      ("gamma", 27.5), ("frames", True), ("master_seed", "1"),
                      ("uncoded", "false"), ("frame_kind", "P32"), ("channel", 0.5)]:
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{**base, name: bad})
    # numpy integers are integers, and are stored as Python ints
    cfg = ExperimentConfig(BscChannel(1e-3), np.int64(3), np.uint32(2), bit_offset=np.int8(5),
                           gamma=np.int16(28))
    assert cfg == ExperimentConfig(BscChannel(1e-3), 3, 2, bit_offset=5, gamma=28)
    assert {type(getattr(cfg, f)) for f in ("frames", "master_seed", "bit_offset", "gamma")} == {int}


def _passthrough(frame: bytes, kind) -> bytes:
    body = framing.scramble(np.frombuffer(frame, np.uint8)[kind.preamble_bytes:],
                            kind.scrambler)
    return b"".join(body[i * 255: i * 255 + 239].tobytes()
                    for i in range(kind.codewords_per_frame))


class _LoggingRng:
    """A generator that logs the name of every method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize("chan", [AwgnChannel(math.inf), AwgnChannel(40.0), DistanceChannel(1.0)])
def test_noiseless_runs_draw_no_noise(chan):
    """At sigma = 0, and where the rate of large noise samples underflows to 0,
    the channel flips nothing and draws nothing: every generator the run makes is
    logged (and every bit generator), and at bit offset 0 the run makes the payload's,
    the gaps' and the values' bit generators and calls no generator method."""
    default_rng, generator, pcg64 = np.random.default_rng, np.random.Generator, np.random.PCG64
    calls = []
    with mock.patch.object(np.random, "default_rng",
                           lambda seed: _LoggingRng(default_rng(seed), calls)), \
            mock.patch.object(np.random, "Generator", lambda bits: _LoggingRng(generator(bits), calls)), \
            mock.patch.object(np.random, "PCG64", lambda seed: calls.append("PCG64") or pcg64(seed)):
        rep = run_link(ExperimentConfig(channel=chan, frames=5, master_seed=5))
    assert calls == ["PCG64"] * 3
    assert rep.raw_errors == 0


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
def test_payload_bytes_are_the_generator_draw(kind):
    """run_link takes the payload bytes straight from the payload stream's bit
    generator: they are the bytes of its generator's `integers(0, 256,
    (frames, payload_bytes), uint8)`, for 1 to 70 frames, most of which do not
    fill whole 64-bit words.  This rests on how numpy packs uint8 draws."""
    for frames in range(1, 71):
        cfg = ExperimentConfig(channel=BscChannel(0.0), frames=frames, master_seed=frames,
                               frame_kind=kind)
        with mock.patch.object(framing, "build_frames", wraps=framing.build_frames) as build:
            run_link(cfg)
        want = stream(cfg.master_seed, harness._PAYLOAD).integers(
            0, 256, (frames, kind.payload_bytes), dtype=np.uint8)
        assert np.array_equal(build.call_args.args[0], want)


def test_junk_bits_are_the_generator_draw():
    """run_link takes the lo junk bits that end byte 0 of the Tx stream straight from
    the junk stream's bit generator: they are its generator's `integers(0, 2, lo)`,
    packed MSB-first.  This rests on how numpy draws bounded integers."""
    for seed in range(300):
        for lo in range(8):
            cfg = ExperimentConfig(channel=BscChannel(0.0), frames=1, master_seed=seed, bit_offset=lo)
            junk = stream(seed, harness._JUNK).integers(0, 2, lo)
            want = np.packbits(np.concatenate([np.zeros(8 - lo, int), junk]))[0]
            tx = harness._transmit(cfg, np.random.SeedSequence(seed))[0]
            assert tx[0] == want, (seed, lo)


@pytest.mark.parametrize("offset", [0, 3])
@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
@pytest.mark.parametrize("chan", [AwgnChannel(6.0), BscChannel(1e-2), DistanceChannel(250.0),
                                  AwgnChannel(math.inf)], ids=["awgn", "bsc", "distance", "noiseless"])
def test_one_seed_sequence_per_run(chan, kind, offset):
    """Every random stream of a run is a bit generator on one SeedSequence."""
    with mock.patch.object(np.random, "SeedSequence", wraps=np.random.SeedSequence) as seeds:
        run_link(ExperimentConfig(chan, 4, 12, frame_kind=kind, bit_offset=offset))
    assert seeds.call_count == 1


@pytest.mark.parametrize("chunks", [(7, 1 << 14), (1 << 14, 7)], ids=["short-7", "long-7"])
@pytest.mark.parametrize("chan", [BscChannel(2e-2), AwgnChannel(3.0)], ids=["bsc", "awgn"])
def test_channel_draws_do_not_depend_on_run_length(chan, chunks):
    """The flips a run places for n frames are those it places for 2n frames
    below the n-frame run's channel bits, with the gap chunks cut elsewhere.
    The DBPSK decision on the last channel bit is the one exception: when the
    short run's last large sample is 2 bits before its end and the long run has
    one at that end, the long run draws the small sample between them from the
    later one's row, not the earlier one's."""
    sampler = channel.bsc_flips if isinstance(chan, BscChannel) else channel.dbpsk_flips

    def placed(frames, chunk):
        flips = []

        def record(*args):
            for f in sampler(*args):
                flips.append(f)
                yield f

        with mock.patch.object(channel, "_GAP_CHUNK", chunk), \
                mock.patch.object(channel, sampler.__name__, record):
            run_link(ExperimentConfig(chan, frames, 4, bit_offset=3))
        return np.concatenate(flips)

    frames = 40
    nbits = 3 + 8 * (frames * P32.frame_bytes + P32.preamble_bytes)
    short, long = placed(frames, chunks[0]), placed(2 * frames, chunks[1])
    end = nbits if isinstance(chan, BscChannel) else nbits - 1  # the exception above
    assert short.size > 100
    assert np.array_equal(short[short < end], long[long < end])


def test_concurrent_runs_match_serial():
    """Four runs on their own threads, with a switch interval short enough to
    interleave them gap chunk by gap chunk, give the serial results."""
    cfgs = [ExperimentConfig(channel=AwgnChannel(5.0 + i), frames=20, master_seed=i)
            for i in range(4)]
    want = [run_link(c) for c in cfgs]
    got = [None] * len(cfgs)

    def run(i):
        got[i] = run_link(cfgs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(channel, "_GAP_CHUNK", 64):
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def reference_link(cfg: ExperimentConfig) -> tuple[LinkReport, dict]:
    """The run rebuilt densely from public pieces: the whole Tx bit stream
    through `channel.bsc` or `test_dbpsk.dbpsk`, the per-frame tracker
    `reference_locate_frames`, and frame-by-frame decoding of the received
    bits with the RS oracle.  Also returns how many frames were located and
    how many of those had exactly one codeword fail while another decoded."""
    kind = cfg.frame_kind
    gamma = cfg.gamma if cfg.gamma is not None else kind.default_gamma
    frame_bits = kind.frame_bits
    payloads = stream(cfg.master_seed, harness._PAYLOAD).integers(
        0, 256, (cfg.frames, kind.payload_bytes), dtype=np.uint8)
    junk = stream(cfg.master_seed, harness._JUNK).integers(0, 2, cfg.bit_offset).astype(np.uint8)
    tx_bits = np.concatenate([junk, np.unpackbits(framing.build_frames(payloads, kind).reshape(-1)),
                              framing.gen_preamble(kind)])
    gaps = stream(cfg.master_seed, harness._GAPS)
    if isinstance(cfg.channel, BscChannel):
        flips = channel.bsc_flips(tx_bits.size, cfg.channel.p, gaps)
    else:
        if isinstance(cfg.channel, DistanceChannel):
            ebn0_db, rate = channel.snr_at_distance(cfg.channel.budget, cfg.channel.distance_m), 1.0
        else:
            ebn0_db, rate = cfg.channel.ebn0_db, 1.0 if cfg.uncoded else kind.code_rate
        flips = channel.dbpsk_flips(tx_bits.size, channel.noise_sigma(ebn0_db, rate), gaps,
                                    stream(cfg.master_seed, harness._VALUES))
    rx_bits = flipped(tx_bits, flips)

    lo = cfg.bit_offset
    hi = lo + cfg.frames * frame_bits
    located, sync_losses = reference_locate_frames(rx_bits, FrameSynchronizer(kind, gamma))
    located_set = set(located)
    coded_errors = frame_errors = corrected_total = partial = 0
    seq = kind.scrambler
    for i in range(cfg.frames):
        start = lo + i * frame_bits
        rx_frame = np.packbits(rx_bits[start: start + frame_bits]).tobytes()
        delivered = None
        if start in located_set:
            body = framing.scramble(np.frombuffer(rx_frame, np.uint8)[kind.preamble_bytes:], seq)
            msgs, failures = [], 0
            for c in range(kind.codewords_per_frame):
                try:
                    msgs.append(rs_oracle.rs_decode(body[c * 255: (c + 1) * 255].tobytes()))
                except rs.RsDecodeFailure:
                    failures += 1
            partial += failures == 1 and kind.codewords_per_frame == 2
            if not failures:
                delivered = b"".join(m for m, _ in msgs)
                corrected_total += sum(n for _, n in msgs)
        if delivered is None:
            frame_errors += 1
            delivered = _passthrough(rx_frame, kind)
        elif delivered != payloads[i].tobytes():
            frame_errors += 1  # miscorrected: delivered, but not what was sent
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


@st.composite
def _link_configs(draw):
    """BSC at low p, with gamma near n in one branch so that windows miss,
    sync is lost and false locks occur, BSC at and above 1/2, and AWGN from
    the waterfall to the clean region; with a `channel._GAP_CHUNK` small
    enough that the flips of one byte often arrive in two chunks.  A chunk of
    7 is drawn only on AWGN and for p <= 0.05: at higher p it is too slow."""
    kind = draw(st.sampled_from([P32, P64]))
    n = kind.preamble_bits
    branch = draw(st.sampled_from(["lossy", "bsc", "awgn"]))
    if branch == "lossy":
        chan, gamma = BscChannel(draw(st.floats(1e-2, 5e-2))), draw(st.integers(n - 2, n))
    elif branch == "bsc":
        p = draw(st.one_of(st.sampled_from([0.0, 2e-3, 5e-3, 0.5, 1.0]),
                           st.floats(1e-4, 0.05), st.floats(0.5, 1.0)))
        chan, gamma = BscChannel(p), draw(st.one_of(st.none(), st.integers(n - 6, n)))
    else:
        chan, gamma = AwgnChannel(draw(st.floats(2.0, 12.0))), None
    frames = draw(st.integers(10 if branch == "lossy" else 1, 30))
    sparse = branch == "awgn" or chan.p <= 0.05
    chunk = draw(st.sampled_from([7, 64, 2 ** 14] if sparse else [64, 2 ** 14]))
    return ExperimentConfig(chan, frames, draw(st.integers(0, 2 ** 32 - 1)),
                            frame_kind=kind, gamma=gamma, bit_offset=draw(st.integers(0, 7)),
                            uncoded=draw(st.booleans())), chunk


@settings(max_examples=80, deadline=None)
@given(_link_configs())
def test_run_link_matches_dense_reference(case):
    """The error-domain receiver against the dense one, which shares none of
    its stream packing, synchronizer or decoder."""
    cfg, chunk = case
    with mock.patch.object(channel, "_GAP_CHUNK", chunk):
        assert run_link(cfg) == reference_link(cfg)[0]


def test_only_codewords_beyond_correction_radius_are_decoded():
    """In the waterfall nearly every codeword holds a flip, but those with at
    most 8 error bytes never reach the corrector."""
    cfg = ExperimentConfig(BscChannel(2e-3), 200, 3, frame_kind=P64, bit_offset=5)
    with mock.patch.object(rs, "decode_blocks", wraps=rs.decode_blocks) as decode:
        run_link(cfg)
    rows = np.concatenate([call.args[0] for call in decode.call_args_list])
    assert (np.count_nonzero(rows, axis=1) > rs.CORRECTABLE_BYTES).all()
    # the codewords holding a flip, from the channel's flip positions
    nbits = cfg.bit_offset + 8 * (cfg.frames * P64.frame_bytes + P64.preamble_bytes)
    gaps = stream(cfg.master_seed, harness._GAPS)
    byte = (np.concatenate(list(channel.bsc_flips(nbits, cfg.channel.p, gaps))) - cfg.bit_offset) // 8
    frame, body = np.divmod(byte, P64.frame_bytes)
    body -= P64.preamble_bytes
    inside = ((frame >= 0) & (frame < cfg.frames) & (body >= 0)
              & (body < P64.codewords_per_frame * rs.BLOCK_BYTES))
    flipped = np.unique(frame[inside] * P64.codewords_per_frame + body[inside] // rs.BLOCK_BYTES).size
    assert flipped > 0.9 * cfg.frames * P64.codewords_per_frame
    assert 10 * len(rows) < flipped


@pytest.mark.parametrize("kind", [P32, P64], ids=["p32", "p64"])
def test_heavy_codeword_reaches_the_decoder(kind):
    """`test_crafted_miscorrection`'s pattern, 9 bytes of the unit message's
    codeword, on frame 0's first codeword: the decoder corrects it by 8 bytes
    to the unit message, one bit away from the sent one.  That frame is a
    frame error, and its 8 corrections still count."""
    g = rs.encode_blocks(np.r_[np.zeros(238, np.uint8), np.uint8(1)][None, :])[0]
    support = np.flatnonzero(g)[:9]
    cfg = ExperimentConfig(BscChannel(1e-3), 3, 9, frame_kind=kind, bit_offset=3)
    bit = np.flatnonzero(np.unpackbits(g[support]))
    flips = cfg.bit_offset + 8 * (kind.preamble_bytes + support[bit // 8]) + bit % 8
    with mock.patch.object(channel, "bsc_flips", lambda size, p, seed: iter([flips])):
        rep = run_link(cfg)
        assert rep == reference_link(cfg)[0]
    assert rep.corrected_bytes_total == 8 and rep.coded_errors == 1 and rep.frame_errors == 1


@pytest.mark.parametrize("chan, kind, bound", [(AwgnChannel(8.0), P32, 3000),
                                                (BscChannel(2e-3), P64, 3800)],
                         ids=["p32-awgn", "p64-bsc"])
def test_run_link_memory_per_frame(chan, kind, bound):
    """The receiver holds the packed stream and its error bytes, not a byte
    per channel bit: a 20 000-frame run peaks under `bound` bytes a frame.
    The P64 bound fails a copy of the codewords' error bytes (about 4 kB)."""
    frames = 20_000
    run_link(ExperimentConfig(chan, 10, 1, frame_kind=kind))  # one-time numpy setup is not a run's
    tracemalloc.start()
    try:
        rep = run_link(ExperimentConfig(chan, frames, 1, frame_kind=kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.raw_errors > 0 and rep.frames == frames
    assert peak < bound * frames

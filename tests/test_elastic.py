"""Elastic FIFO tests.  The fast simulator jumps over long stretches
analytically, so every case here is also checked against an independent
per-tick reference that walks the merged clock timeline one event at a time.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gblink import elastic
from gblink.elastic import FifoConfig, FifoStats, simulate_fifo

ACTIVE, STOPPING, PAUSED = 0, 1, 2
BURST = (64, 1523)
GAP = (12, 256)


def periods(cfg):
    """The write and read tick periods: each clock is scaled by 100 to whole
    0.01 Hz, and a clock's period is the other's count over their gcd."""
    fw, fr = round(cfg.write_clock_hz * 100), round(cfg.read_clock_hz * 100)
    g = math.gcd(fw, fr)
    return fr // g, fw // g


def reference_simulate(cfg, duration, pattern, seed):
    """Per-tick oracle with identical semantics (write before read on ties)."""
    pw, pr = periods(cfg)
    t_end = (duration - 1) * pr
    rng = np.random.default_rng(seed)
    bursty = pattern == "bursty"
    st = FifoStats()
    occ, state, latency = 0, ACTIVE, 0
    primed = False
    burst_left = 0 if bursty else -1
    gap_left = 0
    kw = m = 0
    inf = t_end + 1
    while True:
        tw = kw * pw if kw * pw <= t_end else inf
        tr = m * pr if m * pr <= t_end else inf
        if tw > t_end and tr > t_end:
            break
        if tw <= tr:
            stopping = state == STOPPING
            if state == PAUSED and occ <= cfg.lower_threshold:
                state = ACTIVE
            if state != PAUSED:
                has_data = True
                if bursty:
                    if burst_left > 0:
                        has_data = True
                    elif gap_left > 0:
                        has_data = False
                    else:
                        burst_left = int(rng.integers(*BURST))
                if has_data:
                    if occ < cfg.capacity_bytes:
                        occ += 1
                        st.bytes_written += 1
                        st.max_occupancy = max(st.max_occupancy, occ)
                    else:
                        st.overflow_events += 1
                    if not primed and occ >= cfg.capacity_bytes // 2:
                        primed = True
                        st.min_occupancy_after_priming = occ
                    if state == ACTIVE and occ >= cfg.upper_threshold:
                        st.stop_assertions += 1
                        if cfg.resume_latency_cycles == 0:
                            state = PAUSED
                        else:
                            state = STOPPING
                            latency = cfg.resume_latency_cycles
                    if burst_left > 0:
                        burst_left -= 1
                        if bursty and burst_left == 0:
                            gap_left = int(rng.integers(*GAP))
                elif gap_left > 0:
                    gap_left -= 1
                if stopping:
                    latency -= 1
                    if latency <= 0:
                        state = PAUSED
            kw += 1
        else:
            if primed:
                if occ > 0:
                    occ -= 1
                    st.output_bytes += 1
                else:
                    st.underflow_events += 1
                    st.output_gaps_after_priming += 1
                if st.min_occupancy_after_priming is None or occ < st.min_occupancy_after_priming:
                    st.min_occupancy_after_priming = occ
            m += 1
    st.final_occupancy = occ
    return st


REFERENCE_CASES = [
    pytest.param(FifoConfig(), 30_000, "continuous", 0, id="default-continuous"),
    pytest.param(FifoConfig(), 30_000, "bursty", 1, id="default-bursty"),
    pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=48, lower_threshold=16),
                 20_000, "continuous", 2, id="tiny"),
    pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=48, lower_threshold=16,
                            resume_latency_cycles=0), 20_000, "continuous", 3, id="zero-latency"),
    pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=48, lower_threshold=16,
                            resume_latency_cycles=40), 20_000, "continuous", 4, id="overshoot"),
    pytest.param(FifoConfig(capacity_bytes=10, upper_threshold=8, lower_threshold=2),
                 5_000, "continuous", 5, id="overflowing"),
    pytest.param(FifoConfig(write_clock_hz=100.54e6, read_clock_hz=100.54e6),
                 20_000, "continuous", 6, id="balanced"),
    pytest.param(FifoConfig(write_clock_hz=90e6, read_clock_hz=125e6),
                 20_000, "continuous", 7, id="starved"),
    pytest.param(FifoConfig(write_clock_hz=90e6, read_clock_hz=125e6),
                 20_000, "bursty", 8, id="starved-bursty"),
    pytest.param(FifoConfig(capacity_bytes=256, upper_threshold=200, lower_threshold=8,
                            write_clock_hz=101e6, read_clock_hz=100e6),
                 40_000, "bursty", 9, id="tight-margin-bursty"),
    pytest.param(FifoConfig(resume_latency_cycles=2000), 50_000, "continuous", 10,
                 id="long-latency"),
    pytest.param(FifoConfig(write_clock_hz=109.375e6, read_clock_hz=100.54e6),
                 30_000, "bursty", 11, id="rx-side-clocks"),
    pytest.param(FifoConfig(), 150_000, "continuous", 12, id="default-whole-cycles"),
    pytest.param(FifoConfig(), 150_000, "bursty", 13, id="default-bursty-cycles"),
    # every resume commit asserts stop again with no latency, so each burst
    # ends on a stop and the writer pauses with the gap ahead of it
    pytest.param(FifoConfig(capacity_bytes=10, upper_threshold=9, lower_threshold=8,
                            write_clock_hz=100e6, read_clock_hz=90e6, resume_latency_cycles=0),
                 3_000, "bursty", 14, id="restop-bursty"),
    # the upper threshold is half the capacity, so the commit that primes
    # the reads also asserts the first stop
    pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=32, lower_threshold=8),
                 20_000, "continuous", 15, id="prime-and-stop"),
    pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=32, lower_threshold=8),
                 20_000, "bursty", 16, id="prime-and-stop-bursty"),
    # a stop latency of 40 writes overshoots the 16 free bytes above the
    # upper threshold: 1673 overflows in 221 stops, across bursts and gaps
    pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=48, lower_threshold=16,
                            read_clock_hz=50e6, resume_latency_cycles=40),
                 20_000, "bursty", 17, id="overflow-bursty"),
    # the faster writer's pair walk both stops (25 times) and finds the
    # FIFO empty at a burst start (3205 underflows) in one run
    pytest.param(FifoConfig(capacity_bytes=256, upper_threshold=120, lower_threshold=8,
                            read_clock_hz=110e6),
                 40_000, "bursty", 18, id="stop-and-starve-bursty"),
    # the upper threshold is below half the capacity, so the writer stops
    # and pauses before the reads start, and it never resumes
    *(pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=20, lower_threshold=8,
                              resume_latency_cycles=latency), 5_000, pattern, 19,
                   id=f"stall-{pattern}-latency-{latency}")
      for pattern in ("continuous", "bursty") for latency in (0, 5)),
    # a gap ends with exactly one read that found the FIFO empty: the pair
    # walk's low of -1 is one underflow and an occupancy of 0
    pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=48, lower_threshold=16,
                            read_clock_hz=125e6), 5_000, "bursty", 3, id="empty-by-one-bursty"),
    # equal clocks and every resume commit asserts stop again: the pair walk
    # must hand each stop to the scalar step, as its stop loop needs pw < pr
    pytest.param(FifoConfig(capacity_bytes=64, upper_threshold=21, lower_threshold=20,
                            write_clock_hz=125e6, read_clock_hz=125e6),
                 5_000, "bursty", 20, id="restop-equal-clocks-bursty"),
]


@pytest.mark.parametrize("cfg,duration,pattern,seed", REFERENCE_CASES)
def test_matches_per_tick_reference(cfg, duration, pattern, seed):
    assert simulate_fifo(cfg, duration, pattern, seed) == \
        reference_simulate(cfg, duration, pattern, seed)


def test_stall_cases_stall():
    """An upper threshold below half the capacity stops the writer before
    priming: one stop, the latency's writes over the threshold, no reads."""
    for c in REFERENCE_CASES:
        if c.id.startswith("stall-"):
            top = 20 + c.values[0].resume_latency_cycles
            assert simulate_fifo(*c.values) == FifoStats(
                max_occupancy=top, stop_assertions=1, bytes_written=top, final_occupancy=top)


def test_stop_and_starve_case_does_both():
    """The case that walks pairs through stops and starved reads keeps both."""
    cfg, duration, pattern, seed = next(
        c.values for c in REFERENCE_CASES if c.id == "stop-and-starve-bursty")
    st = simulate_fifo(cfg, duration, pattern, seed)
    assert st.stop_assertions > 0 and st.underflow_events > 0


@st.composite
def clock_configs(draw):
    """A config with a random clock pair, the writer faster, equal or slower."""
    write_hz = draw(st.integers(1, 10**12)) / 100
    side = draw(st.sampled_from([-1, 0, 1]))
    read_hz = max(0.01, write_hz + side * draw(st.integers(1, 10**12)) / 100)
    return FifoConfig(write_clock_hz=write_hz, read_clock_hz=read_hz)


def clock_periods():
    """`elastic._periods` of `clock_configs`."""
    return clock_configs().map(elastic._periods)


@settings(max_examples=300, deadline=None)
@given(clock_configs())
def test_periods_reduced_from_rounded_ticks(cfg):
    """The pair `FifoConfig` keeps is the rounded ticks' reduced periods."""
    assert elastic._periods(cfg) == periods(cfg)


def test_stored_periods_are_not_a_field():
    """The reduced pair stays out of the fields, so repr, ==, hash, asdict
    and replace see the six fields alone, and replace reduces it anew."""
    cfg = FifoConfig()
    assert repr(cfg) == ("FifoConfig(capacity_bytes=4096, upper_threshold=3072, "
                         "lower_threshold=1024, write_clock_hz=125000000.0, "
                         "read_clock_hz=100540000.0, resume_latency_cycles=64)")
    values = dict(capacity_bytes=4096, upper_threshold=3072, lower_threshold=1024,
                  write_clock_hz=125e6, read_clock_hz=100.54e6, resume_latency_cycles=64)
    assert dataclasses.asdict(cfg) == values
    assert [f.name for f in dataclasses.fields(cfg)] == list(values)
    same = FifoConfig(read_clock_hz=100_540_000)
    assert cfg == same and hash(cfg) == hash(same) == hash(tuple(values.values()))
    faster = dataclasses.replace(cfg, read_clock_hz=130e6)
    assert faster == FifoConfig(read_clock_hz=130e6) and faster != cfg
    assert elastic._periods(cfg) == periods(cfg) == (5027, 6250)
    assert elastic._periods(faster) == periods(faster) == (26, 25)


@settings(max_examples=300, deadline=None)
@given(clock_periods(), st.integers(0, 10**20))
def test_base_invariant_identity(periods, k):
    """The pair walk's identity: k writes less the ceil(k pw / pr) reads
    before write tick k is floor(k (pr - pw) / pr), whichever clock is
    faster."""
    pw, pr = periods
    assert k - -(-k * pw // pr) == k * (pr - pw) // pr


@st.composite
def small_fifo_cases(draw):
    capacity = draw(st.integers(4, 100))
    lower = draw(st.integers(1, capacity - 2))
    upper = draw(st.integers(lower + 1, capacity - 1))
    # clocks between 50 and 200 MHz in 1 MHz steps (short tick periods, so
    # crossings often land exactly on a tick) or 10 kHz steps; the read clock
    # is slower, equal or faster
    step = draw(st.sampled_from([10**6, 10**4]))
    lo, hi = 50 * 10**6 // step, 200 * 10**6 // step
    write_steps = draw(st.integers(lo, hi))
    side = draw(st.sampled_from([-1, 0, 1]))
    read_steps = min(hi, max(lo, write_steps + side * draw(st.integers(1, hi - lo))))
    cfg = FifoConfig(capacity_bytes=capacity, upper_threshold=upper, lower_threshold=lower,
                     write_clock_hz=write_steps * step, read_clock_hz=read_steps * step,
                     resume_latency_cycles=draw(st.integers(0, 200)))
    return (cfg, draw(st.integers(1, 5_000)), draw(st.sampled_from(["continuous", "bursty"])),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(small_fifo_cases())
def test_matches_per_tick_reference_hypothesis(case):
    assert simulate_fifo(*case) == reference_simulate(*case)


@st.composite
def bursty_pair_cases(draw):
    """Bursty runs in FIFOs that hold a few bursts, so several whole
    (burst, gap) pairs can pass between two flow-control events."""
    capacity = draw(st.integers(1500, 8192))
    lower = draw(st.integers(1, capacity // 2))
    upper = draw(st.integers(capacity // 2 + 1, capacity - 1))
    step = draw(st.sampled_from([10**6, 10**4]))
    write_steps = draw(st.integers(50 * 10**6 // step, 200 * 10**6 // step))
    # the read clock is slower (down to 70%, below the ~86% mean bursty write
    # rate), equal, or faster (up to 130%)
    side = draw(st.sampled_from([-1, 0, 1]))
    read_steps = write_steps + side * draw(st.integers(1, write_steps * 3 // 10))
    cfg = FifoConfig(capacity_bytes=capacity, upper_threshold=upper, lower_threshold=lower,
                     write_clock_hz=write_steps * step, read_clock_hz=read_steps * step,
                     resume_latency_cycles=draw(st.integers(0, 200)))
    return cfg, draw(st.integers(2_000, 40_000)), "bursty", draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(bursty_pair_cases())
def test_bursty_pairs_match_per_tick_reference_hypothesis(case):
    assert simulate_fifo(*case) == reference_simulate(*case)


@st.composite
def writer_faster_cases(draw):
    """Continuous and bursty runs with the writer faster, which cross whole
    flow-control cycles in one step: small FIFOs over horizons of a few
    cycles that mostly end inside one, with the other edges of the cycle
    step drawn often (a resume commit that asserts stop again, no stop
    latency, a peak at the capacity or one byte past it).  Bursty runs add
    the whole pairs between cycles and stop latencies that reach the end of
    their burst."""
    lower = draw(st.integers(1, 32))
    upper = lower + draw(st.integers(1, 32))
    headroom = draw(st.integers(1, 32))
    step = draw(st.sampled_from([10**6, 10**4]))
    write_steps = draw(st.integers(50 * 10**6 // step, 200 * 10**6 // step))
    # the read clock at 50% to 99.9% of the write clock
    read_steps = draw(st.integers(write_steps // 2, write_steps * 999 // 1000))
    # occupancy gains about (write - read) / write a byte a tick during the
    # stop latency, so latencies around headroom * write / (write - read)
    # put the peak at the capacity or one byte past it (an overflow)
    per_byte = write_steps // (write_steps - read_steps) + 1
    edge = headroom * write_steps // (write_steps - read_steps)
    latency = draw(st.one_of(st.just(0), st.integers(0, 32),
                             st.integers(max(0, edge - per_byte), edge + per_byte)))
    cfg = FifoConfig(capacity_bytes=upper + headroom, upper_threshold=upper,
                     lower_threshold=lower, write_clock_hz=write_steps * step,
                     read_clock_hz=read_steps * step, resume_latency_cycles=latency)
    return (cfg, draw(st.integers(1, 2_000)), draw(st.sampled_from(["continuous", "bursty"])),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(writer_faster_cases())
def test_writer_faster_cycles_match_per_tick_reference_hypothesis(case):
    assert simulate_fifo(*case) == reference_simulate(*case)


@st.composite
def periodic_cases(draw):
    """Continuous runs with the writer faster whose resumes repeat after a
    few stops, over horizons of at least 3 periods, so each run crosses
    whole periods at once.  The clocks are a and b steps of 10 MHz, a > b
    coprime, so the tick periods are pw = b and pr = a, and a resume falls
    in one of b classes: a period is at most b flow-control cycles, each
    at most `cycle` read cycles (fill, latency, drain).  The upper threshold
    is at least half the capacity, so the reads prime, and the latency
    keeps the peak within the capacity."""
    a = draw(st.integers(2, 16))
    b = draw(st.integers(1, a - 1).filter(lambda b: math.gcd(a, b) == 1))
    capacity = draw(st.integers(4, 64))
    upper = draw(st.integers(capacity // 2, capacity - 2))
    lower = draw(st.integers(1, upper - 1))
    latency = draw(st.integers(0, (capacity - upper - 1) * a // (a - b)))
    cfg = FifoConfig(capacity_bytes=capacity, upper_threshold=upper, lower_threshold=lower,
                     write_clock_hz=a * 10**7, read_clock_hz=b * 10**7,
                     resume_latency_cycles=latency)
    cycle = (upper - lower + 1) * b // (a - b) + latency + capacity + 2
    return cfg, draw(st.integers(3 * b * cycle, 4 * b * cycle)), "continuous", 0


@settings(max_examples=200, deadline=None)
@given(periodic_cases())
def test_whole_periods_match_per_tick_reference_hypothesis(case):
    assert simulate_fifo(*case) == reference_simulate(*case)


@pytest.mark.parametrize("cfg", [
    FifoConfig(capacity_bytes=16, upper_threshold=10, lower_threshold=4,
               write_clock_hz=100e6, read_clock_hz=70e6, resume_latency_cycles=3),
    FifoConfig(capacity_bytes=12, upper_threshold=7, lower_threshold=5,
               write_clock_hz=100e6, read_clock_hz=83e6, resume_latency_cycles=0),
], ids=["latency", "narrow"])
def test_writer_faster_every_horizon(cfg):
    """Short flow-control cycles cut at every horizon up to ~10 of them, so
    the run ends on every tick of a cycle: the resume tick and the ticks
    around it among them."""
    for duration in range(1, 200):
        assert simulate_fifo(cfg, duration) == reference_simulate(cfg, duration, "continuous", 0)


@pytest.mark.parametrize("read_hz", [125e6, 130e6], ids=["equal", "reader-faster"])
def test_long_run_closed_form(steps, monkeypatch, read_hz):
    """1e8 read cycles with a writer that never reaches the upper threshold:
    it writes on every tick up to the horizon, and after priming at half
    capacity each write is matched (equal clocks) or outrun by a read.  So
    `run` never hands it to `_cycles`, and priming and the rest of the run
    take a scalar step each."""
    def no_cycles(sim):
        raise AssertionError("_cycles entered")

    monkeypatch.setattr(elastic._Sim, "_cycles", no_cycles)
    cfg = FifoConfig(read_clock_hz=read_hz)
    cycles = 10**8
    stats = simulate_fifo(cfg, cycles)
    assert len(steps) <= 3
    pw, pr = periods(cfg)
    assert stats.bytes_written == (cycles - 1) * pr // pw + 1
    assert stats.bytes_written == stats.output_bytes + stats.final_occupancy
    assert stats.output_gaps_after_priming == stats.underflow_events
    assert stats.stop_assertions == 0 and stats.overflow_events == 0
    # priming is the write that fills half the FIFO; from the next read tick
    # on, every read delivers a byte or is an underflow
    half = cfg.capacity_bytes // 2
    assert stats.output_bytes + stats.underflow_events == cycles - -(-(half - 1) * pw // pr)
    if pw == pr:
        assert stats.max_occupancy == half
        assert half - 1 <= stats.min_occupancy_after_priming <= stats.final_occupancy <= half
        assert stats.underflow_events == 0
    else:
        assert stats.min_occupancy_after_priming == 0 and stats.underflow_events > 0


def test_default_config_regression_fixture():
    """Frozen result of the default configuration over 50k read cycles; any
    change to the event semantics shows up here first."""
    st = simulate_fifo(FifoConfig(), 50_000, "continuous", 0)
    assert st == FifoStats(
        max_occupancy=3084,
        min_occupancy_after_priming=1024,
        overflow_events=0,
        underflow_events=0,
        stop_assertions=5,
        output_bytes=48353,
        output_gaps_after_priming=0,
        bytes_written=49433,
        final_occupancy=1080,
    )


def test_long_bursty_run_fixture():
    """Frozen result of a default bursty run of 1e7 read cycles (289 stop
    assertions, ~10^4 bursts), beyond the per-tick reference's reach."""
    st = simulate_fifo(FifoConfig(), 10**7, "bursty", 0)
    assert st == FifoStats(
        max_occupancy=3084,
        min_occupancy_after_priming=288,
        overflow_events=0,
        underflow_events=0,
        stop_assertions=289,
        output_bytes=9998219,
        output_gaps_after_priming=0,
        bytes_written=9999944,
        final_occupancy=1725,
    )


def test_longer_bursty_run_fixture():
    """Frozen result of a default bursty run of 1e8 read cycles (2947 stop
    assertions, ~125k (burst, gap) pairs walked whole), which pins the long
    pair walk."""
    st = simulate_fifo(FifoConfig(), 10**8, "bursty", 0)
    assert st == FifoStats(
        max_occupancy=3084,
        min_occupancy_after_priming=288,
        overflow_events=0,
        underflow_events=0,
        stop_assertions=2947,
        output_bytes=99998219,
        output_gaps_after_priming=0,
        bytes_written=100000149,
        final_occupancy=1930,
    )


def test_long_continuous_run_fixture():
    """Frozen result of the default continuous run of 1e7 read cycles (950
    stop assertions), beyond the per-tick reference's reach."""
    st = simulate_fifo(FifoConfig(), 10**7, "continuous", 0)
    assert st == FifoStats(
        max_occupancy=3084,
        min_occupancy_after_priming=1024,
        overflow_events=0,
        underflow_events=0,
        stop_assertions=950,
        output_bytes=9998353,
        output_gaps_after_priming=0,
        bytes_written=10000862,
        final_occupancy=2509,
    )


@pytest.mark.parametrize("cfg,cycles,expected", [
    (FifoConfig(), 10**10, (3084, 1024, 0, 0, 950337, 9999998353, 0, 9999999822, 1469)),
    (FifoConfig(), 10**11, (3084, 1024, 0, 0, 9503369, 99999998353, 0, 100000000782, 2429)),
    (FifoConfig(lower_threshold=3071), 10**9,
     (3085, 2047, 0, 0, 15384526, 999998353, 0, 1000001429, 3076)),
], ids=["default-1e10", "default-1e11", "restop-1e9"])
def test_long_horizon_fixture(cfg, cycles, expected):
    """Frozen results of continuous runs up to the CLI's 1e11-cycle cap, with
    up to 15M stops, frozen from per-stop stepping.  Whole periods of
    flow-control cycles are crossed at once, so even the longest run is
    quick: without the jump the 1e11 run takes seconds."""
    start = time.perf_counter()
    st = simulate_fifo(cfg, cycles)
    elapsed = time.perf_counter() - start
    assert st == FifoStats(*expected)
    assert elapsed < 0.5, elapsed


@pytest.fixture
def steps(monkeypatch):
    """A list that grows by one on every scalar step (`_step` call)."""
    calls = []
    step = elastic._Sim._step

    def counted(sim):
        calls.append(None)
        return step(sim)

    monkeypatch.setattr(elastic._Sim, "_step", counted)
    return calls


def test_bursty_walk_draws_its_own_pairs(monkeypatch):
    """The pair walk refills `lengths` itself once less than a pair is left,
    so the default 1.5M-cycle bursty run (seeds 0-2) hands no scalar step an
    empty `lengths`, and it takes 5-7 `_cycles` passes, not the 11-14 it
    took when each refill ended a pass."""
    empty, passes = [], []
    step, cycles = elastic._Sim._step, elastic._Sim._cycles

    def counted_step(sim):
        empty.append(not sim.lengths)
        return step(sim)

    def counted_cycles(sim):
        passes.append(None)
        return cycles(sim)

    monkeypatch.setattr(elastic._Sim, "_step", counted_step)
    monkeypatch.setattr(elastic._Sim, "_cycles", counted_cycles)
    for seed in range(3):
        empty.clear()
        passes.clear()
        simulate_fifo(FifoConfig(), 1_500_000, "bursty", seed)
        assert empty and not any(empty), seed
        assert len(passes) <= 7, seed


def test_walk_refills_keep_lengths_bounded(monkeypatch):
    """A refill inside a pass drops the lengths the walk has taken, so a
    bursty run whose reader starves between bursts, one pass over ~10^4 pairs
    without a stop, never holds more than one refill and the length left."""
    sizes = []
    refill = elastic._Sim._refill

    def counted(sim, left):
        left = refill(sim, left)
        sizes.append(len(sim.lengths))
        return left

    monkeypatch.setattr(elastic._Sim, "_refill", counted)
    simulate_fifo(FifoConfig(read_clock_hz=130e6), 10**7, "bursty", 1)
    assert len(sizes) > 10 and max(sizes) <= 513


def test_bursty_run_steps_per_event(steps):
    """A bursty run takes scalar steps only where a stop's latency leaves
    its burst, not per stop or per burst: the default 1.5M-cycle run holds
    47 stop assertions and ~1900 bursts, and the whole pairs and the whole
    flow-control cycles inside a burst are applied without a scalar step,
    also where the reader (at 125 or 130 MHz) starves between bursts."""
    for read_hz, stops, bound in [(100.54e6, 47, 50), (125e6, 0, 25), (130e6, 0, 25)]:
        steps.clear()
        st = simulate_fifo(FifoConfig(read_clock_hz=read_hz), 1_500_000, "bursty", 7)
        assert st.stop_assertions == stops
        assert (st.underflow_events > 0) == (stops == 0)
        assert len(steps) < bound, read_hz


def test_continuous_run_steps_per_segment(steps):
    """The default 2M-cycle continuous run holds 190 stop assertions, and
    its whole flow-control cycles are applied without a scalar step."""
    st = simulate_fifo(FifoConfig(), 2_000_000, "continuous", 0)
    assert st.stop_assertions == 190
    assert len(steps) < 5


def test_restop_cycles_steps_per_segment(steps):
    """With lower + 1 == upper every resume commit asserts stop again, and
    those cycles too are applied without a scalar step: 30 680 stops over
    2M cycles, frozen from per-stop stepping."""
    st = simulate_fifo(FifoConfig(lower_threshold=3071), 2_000_000, "continuous", 0)
    assert st == FifoStats(
        max_occupancy=3085,
        min_occupancy_after_priming=2047,
        overflow_events=0,
        underflow_events=0,
        stop_assertions=30680,
        output_bytes=1998353,
        output_gaps_after_priming=0,
        bytes_written=2001427,
        final_occupancy=3074,
    )
    assert len(steps) < 5


@pytest.mark.parametrize("cfg,cycles", [
    (FifoConfig(), 50_000),
    (FifoConfig(), 10**10),
    (FifoConfig(lower_threshold=3071), 10**9),
], ids=["default-50k", "default-1e10", "restop-1e9"])
def test_continuous_run_builds_no_generator(monkeypatch, cfg, cycles):
    """Only a bursty writer draws lengths, so only it builds a generator: a
    continuous writer's one burst never ends, also across the whole periods
    jumped at once.  The seed is validated for both patterns."""
    expected = simulate_fifo(cfg, cycles, "continuous", 0)

    def no_generator(seed):
        raise AssertionError("generator built")

    def no_draw(sim):
        raise AssertionError("length drawn")

    monkeypatch.setattr(elastic.np.random, "default_rng", no_generator)
    monkeypatch.setattr(elastic._Sim, "_draw", no_draw)
    assert simulate_fifo(cfg, cycles, "continuous", 3) == expected
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            simulate_fifo(FifoConfig(), 1000, "continuous", bad)
    with pytest.raises(AssertionError, match="generator built"):
        simulate_fifo(FifoConfig(), 1000, "bursty", 0)


def test_conservation_identity():
    for seed, pattern in ((0, "continuous"), (1, "bursty")):
        st = simulate_fifo(FifoConfig(), 100_000, pattern, seed)
        assert st.bytes_written == st.output_bytes + st.final_occupancy


def test_balanced_rates_constant_occupancy():
    st = simulate_fifo(FifoConfig(write_clock_hz=100e6, read_clock_hz=100e6),
                       50_000, "continuous", 0)
    # priming fills to half; afterwards each write is matched by a read
    assert st.min_occupancy_after_priming >= 2047
    assert st.max_occupancy == 2048
    assert st.underflow_events == 0 and st.overflow_events == 0


def test_default_run_is_clean():
    st = simulate_fifo(FifoConfig(), 1_000_000, "continuous", 0)
    assert st.overflow_events == 0
    assert st.underflow_events == 0
    assert st.output_gaps_after_priming == 0
    assert st.stop_assertions > 0
    cfg = FifoConfig()
    slack = cfg.resume_latency_cycles
    assert st.max_occupancy <= cfg.upper_threshold + slack
    assert st.min_occupancy_after_priming >= cfg.lower_threshold - slack


def test_starvation_without_flow_control():
    st = simulate_fifo(FifoConfig(write_clock_hz=90e6, read_clock_hz=125e6),
                       50_000, "continuous", 0)
    assert st.underflow_events > 0
    assert st.output_gaps_after_priming == st.underflow_events
    assert st.min_occupancy_after_priming == 0


def test_deterministic():
    for pattern in ("continuous", "bursty"):
        a = simulate_fifo(FifoConfig(), 50_000, pattern, 5)
        b = simulate_fifo(FifoConfig(), 50_000, pattern, 5)
        assert a == b
    x = simulate_fifo(FifoConfig(), 50_000, "bursty", 5)
    y = simulate_fifo(FifoConfig(), 50_000, "bursty", 6)
    assert x != y


def test_stop_start_cycle_counts():
    # fill lower->upper at the rate difference, drain upper->lower at the read
    # rate: the default geometry asserts stop roughly once per ~10.5k cycles
    st = simulate_fifo(FifoConfig(), 1_000_000, "continuous", 0)
    assert 80 <= st.stop_assertions <= 110


def test_validation():
    with pytest.raises(ValueError):
        simulate_fifo(FifoConfig(lower_threshold=0), 100)
    with pytest.raises(ValueError):
        simulate_fifo(FifoConfig(upper_threshold=5000), 100)
    with pytest.raises(ValueError):
        simulate_fifo(FifoConfig(), 0)
    with pytest.raises(ValueError):
        simulate_fifo(FifoConfig(), 100, "weird")
    for field, bad in [("read_clock_hz", float("inf")), ("write_clock_hz", float("nan")),
                       ("write_clock_hz", 1e-3), ("read_clock_hz", -1.0),
                       ("write_clock_hz", 1e307), ("capacity_bytes", 4096.5),
                       ("upper_threshold", 3072.5), ("lower_threshold", 1024.0),
                       ("resume_latency_cycles", 2.5)]:
        with pytest.raises(ValueError, match=field):
            simulate_fifo(FifoConfig(**{field: bad}), 100)
    with pytest.raises(ValueError, match="resume latency"):
        FifoConfig(resume_latency_cycles=-1)
    with pytest.raises(ValueError, match="duration_cycles"):
        simulate_fifo(FifoConfig(), 1000.5)
    for bad in (1.5, True):  # operator.index(True) is 1
        with pytest.raises(ValueError, match="seed"):
            simulate_fifo(FifoConfig(), 1000, "bursty", bad)
    with pytest.raises(ValueError, match="capacity_bytes"):
        FifoConfig(capacity_bytes=True)
    # numpy integers are integers, and run as Python ints
    cfg = FifoConfig(capacity_bytes=np.int64(4096), upper_threshold=np.int32(3072),
                     lower_threshold=np.uint16(1024), resume_latency_cycles=np.int8(64))
    assert cfg == FifoConfig() and type(cfg.resume_latency_cycles) is int
    assert simulate_fifo(cfg, np.int64(5_000), "bursty", 3) == \
        simulate_fifo(FifoConfig(), 5_000, "bursty", 3)

"""Event-stepped simulation of the dual-clock elastic FIFO with
threshold-driven start/stop flow control.

The two clocks are mapped onto one integer tick timeline: frequencies are
scaled by 100 (exact for values quoted to 0.01 Hz) and reduced, giving the
writer a period of fr/gcd ticks and the reader fw/gcd ticks, so arbitrarily
long runs accumulate zero drift.  When a write tick and a read tick coincide
the write commits first.

Semantics
  * The writer writes one byte per write-clock cycle while its pattern has
    data and flow control permits.  A write finding the FIFO full is dropped
    and counted as an overflow event.
  * Reading starts once occupancy first reaches half the capacity and then
    consumes one byte per read-clock cycle; a read finding the FIFO empty is
    an underflow event and an output gap.
  * When a write lifts occupancy to the upper threshold a stop is asserted;
    the writer keeps writing for `resume_latency_cycles` further write-clock
    cycles (stop-signal turnaround) and then pauses.  It resumes at the first
    write-clock cycle that observes occupancy at or below the lower threshold.
  * `duration_cycles` counts read-clock cycles from t = 0; the simulation
    horizon is the last of those ticks.

Stepping: each scalar step (`_Sim._step`) solves the next occupancy event
tick in closed form and applies the write ticks up to it and the reads
between them at once; `_Sim._cycles` crosses whole (burst, gap) pairs and
flow-control cycles in one integer loop and jumps a continuous writer's whole
periods (a continuous writer is one burst that outlasts the run).  So a run
takes a few steps, more only at stops whose latency leaves their burst, and
its cost does not grow with the horizon.  Results are bit-identical to naive
per-tick stepping, which the test suite checks against an independent
reference simulator.

Bursty write pattern: bursts of 64..1522 bytes separated by idle gaps of
12..255 write cycles, drawn from the seeded generator (Ethernet-flavoured
defaults; the continuous pattern ignores the seed).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

TICK_SCALE = 100

_BURST_BYTES = (64, 1523)
_BURST_GAP_CYCLES = (12, 256)
_REFILL_BOUNDS = tuple(np.array(b * 256) for b in zip(_BURST_BYTES, _BURST_GAP_CYCLES))


def _integer(name: str, value) -> int:
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class FifoConfig:
    capacity_bytes: int = 4096
    upper_threshold: int = 3072
    lower_threshold: int = 1024
    write_clock_hz: float = 125e6
    read_clock_hz: float = 100.54e6
    resume_latency_cycles: int = 64

    def __post_init__(self):
        for name in ("capacity_bytes", "upper_threshold", "lower_threshold",
                     "resume_latency_cycles"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 0 < self.lower_threshold < self.upper_threshold < self.capacity_bytes:
            raise ValueError("need 0 < lower < upper < capacity")
        ticks = []
        for name in ("write_clock_hz", "read_clock_hz"):
            t = getattr(self, name) * TICK_SCALE
            if not (math.isfinite(t) and round(t) >= 1):
                raise ValueError(f"{name} must be finite and round to at least "
                                 f"1/{TICK_SCALE} Hz, got {getattr(self, name)}")
            ticks.append(round(t))
        object.__setattr__(self, "_tick_periods", tuple(t // math.gcd(*ticks) for t in ticks[::-1]))
        if self.resume_latency_cycles < 0:
            raise ValueError("resume latency must be non-negative")


@dataclass
class FifoStats:
    max_occupancy: int = 0
    min_occupancy_after_priming: int | None = None
    overflow_events: int = 0
    underflow_events: int = 0
    stop_assertions: int = 0
    output_bytes: int = 0
    output_gaps_after_priming: int = 0
    bytes_written: int = 0
    final_occupancy: int = 0


_periods = operator.attrgetter("_tick_periods")  # (pw, pr), reduced once by FifoConfig
_ACTIVE, _STOPPING, _PAUSED = 0, 1, 2


class _Sim:
    def __init__(self, cfg: FifoConfig, duration_cycles: int, write_pattern: str, seed: int):
        duration_cycles = _integer("duration_cycles", duration_cycles)
        if duration_cycles <= 0:
            raise ValueError("duration_cycles must be positive")
        seed = _integer("seed", seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if write_pattern not in ("continuous", "bursty"):
            raise ValueError(f"unknown write pattern {write_pattern!r}")
        self.cfg = cfg
        self.pw, self.pr = _periods(cfg)
        self.t_end = (duration_cycles - 1) * self.pr
        self.k_last = self.t_end // self.pw   # last write tick within the horizon
        self.bursty = write_pattern == "bursty"
        self.rng = np.random.default_rng(seed) if self.bursty else None
        self.lengths: list[int] = [] if self.bursty else [0]
        self.stats = FifoStats()

        self.kw = 0                 # next write tick; every read before it is applied
        self.occ = 0
        self.state = _ACTIVE
        self.pause_at = 0           # the write tick at which a stopping writer pauses
        self.primed = False
        self.next_read = 0          # next unprocessed read tick index (once primed)
        # one of burst_left and gap_left is positive; a continuous writer is
        # one burst that outlasts the run (k + burst_left > k_last + 1), so
        # the gap of 0 after it in `lengths` is never reached
        self.burst_left = self._draw() if self.bursty else self.k_last + 2
        self.gap_left = 0

    def _refill(self, left: int) -> int:
        """Put the next 256 (burst, gap) pairs, drawn as the scalar calls would
        by one `integers` call, below the first `left` lengths, which pop first
        (the rest are taken), and return how many lengths are left now."""
        self.lengths[:] = self.rng.integers(*_REFILL_BOUNDS).tolist()[::-1] + self.lengths[:left]
        return len(self.lengths)

    def _draw(self) -> int:
        """The next burst or gap length, burst first, as `_refill` drew them."""
        if not self.lengths:
            self._refill(0)
        return self.lengths.pop()

    def _step(self) -> None:
        """Run the write ticks from kw on up to and including the next one
        that holds an occupancy event, and every read before the tick after
        it.  The step ends earlier on a burst, gap or pause tick, and a paused
        writer's before the tick at which it resumes.  Only the last tick can
        hold an event: a one-tick write that finds the FIFO full is an
        overflow and commits nothing, the commit that reaches half the
        capacity primes the reads, and an active writer's commit that reaches
        the upper threshold asserts stop.

        A step lies within one burst or gap (whole pairs and cycles are
        `_cycles`'s), and over it occupancy after commits and after reads is
        monotone, and its first values set no new extreme: when commits do
        not rise, a read comes between the previous commit and the first, and
        a write comes between the previous read and the first.  So only the
        last commit and the last read are recorded.  Only with a faster reader
        or an idle writer can a read find the FIFO empty, and then occupancy
        after reads only falls: from the first such read on, every read
        leaves the FIFO empty, and max(0, reads - occupancy - writes) reads
        find it so.
        """
        cfg, st, pw, pr = self.cfg, self.stats, self.pw, self.pr
        k0, occ0, state = self.kw, self.occ, self.state
        writing = state != _PAUSED and self.burst_left > 0
        k1 = self.k_last + 1
        if state == _STOPPING:
            k1 = min(k1, self.pause_at)
        if writing:
            # the first tick whose commit lifts occupancy to `level`: priming,
            # the upper threshold while active, the capacity while stopping
            level = cfg.upper_threshold if state == _ACTIVE else cfg.capacity_bytes
            k1 = min(k1, k0 + self.burst_left)
            if not self.primed:
                k1 = min(k1, k0 + min(level, cfg.capacity_bytes // 2) - occ0)
            elif occ0 + 1 >= level:
                k1 = k0 + 1
            elif pw < pr:
                # occupancy before write tick j is base + j - ceil(j pw / pr),
                # so a commit at j leaves base + 1 + floor(j (pr - pw) / pr)
                base = occ0 + self.next_read - k0
                k1 = min(k1, -(-(level - base - 1) * pr // (pr - pw)) + 1)
            self.burst_left -= k1 - k0
            if self.burst_left == 0:
                self.gap_left = self._draw()
        elif state != _PAUSED:                # the pattern is frozen while paused
            k1 = min(k1, k0 + self.gap_left)
            self.gap_left -= k1 - k0
            if self.gap_left == 0:
                self.burst_left = self._draw()
        elif self.primed:
            # the read that brings occupancy down to the lower threshold; the
            # writer resumes at the first write tick after it, which is past
            # kw because `run` resumes a writer already at or below it
            m = self.next_read + occ0 - cfg.lower_threshold - 1
            k1 = min(k1, m * pr // pw + 1)
        if state == _STOPPING and k1 == self.pause_at:
            self.state = _PAUSED
        self.kw, m0 = k1, self.next_read
        w = k1 - k0 if writing else 0         # bytes committed
        if w and occ0 == cfg.capacity_bytes:  # a full FIFO ends a step at one tick
            st.overflow_events += 1
            w = 0
        if w:
            st.bytes_written += w
            m1 = -(-(k1 - 1) * pw // pr)      # the first read at or after the last commit
            top = occ0 + w                    # left by the last commit
            if self.primed:                   # less the reads before it
                top -= m1 - m0
            elif top >= cfg.capacity_bytes // 2:
                self.primed = True
                self.next_read = m0 = m1
                st.min_occupancy_after_priming = top
            st.max_occupancy = max(st.max_occupancy, top)
            if state == _ACTIVE and top >= cfg.upper_threshold:
                st.stop_assertions += 1
                self.pause_at = k1 + cfg.resume_latency_cycles
                self.state = _STOPPING if cfg.resume_latency_cycles else _PAUSED
        reads = min(k1 * pw - 1, self.t_end) // pr + 1 - m0 if self.primed else 0
        if reads <= 0:
            self.occ += w
            return
        self.next_read = m0 + reads
        low = occ0 - reads                    # left by the last read, before clamping
        if w:
            low += (self.next_read - 1) * pr // pw - k0 + 1   # writes up to it
        if low < st.min_occupancy_after_priming:
            st.min_occupancy_after_priming = max(0, low)
        net = occ0 + w - reads
        gaps = max(0, -net)                   # reads that found the FIFO empty
        self.occ = net + gaps
        st.output_bytes += reads - gaps
        st.underflow_events += gaps

    def _cycles(self) -> None:
        """Apply at once the whole (burst, gap) pairs and flow-control cycles,
        resume tick to resume tick, ahead of an active, primed writer in a
        burst.  Pairs come off `lengths` as `_draw` takes them, refilled as it
        does once less than a pair is left.  The walk carries base = occ +
        m - k at write tick k and read m, which a gap of g ticks lowers by g:
        occupancy before a burst's tick j is base + j - ceil(j pw / pr) =
        base + floor(j (pr - pw) / pr), and m = base + k - occ where the walk
        ends.  A burst peaks at its last commit, or its first when reads are
        at least as fast.  Below the upper threshold the pair's low is the
        occupancy at the next burst, as gap reads only lower occupancy and
        while commits rise each read leaves no less than the one before; a
        low below 0 means -low reads found the FIFO empty, and they raise base
        by -low.  Otherwise a faster writer stops back to back: at the tick j
        solved as in `_step`, it peaks `resume_latency_cycles` commits later
        (they rise by at most one a tick) and resumes after read j + base -
        lower, which leaves `lower`, its low, as ceil(j pw / pr) + floor(j
        (pr - pw) / pr) = j.  The burst, frozen while paused, ends later by
        the paused ticks, by which base falls: its end plus base holds.  A
        resume at (k, m) has the future of one at (k + pr t, m + pw t), so a
        continuous writer's resumes fall in pw classes, one per m mod pw:
        Brent's cycle search finds their period and whole periods up to
        k_last are crossed at once.  Stop before a cycle whose latency runs to
        the burst's last tick or past it, whose peak overflows or whose resume
        tick is past k_last, before a pair that ends past k_last, and where a
        slower writer reaches the upper threshold.
        """
        cfg, st, lengths, pw, pr = self.cfg, self.stats, self.lengths, self.pw, self.pr
        upper, lower, latency = cfg.upper_threshold, cfg.lower_threshold, cfg.resume_latency_cycles
        cap, k_last, faster, gain = cfg.capacity_bytes, self.k_last, pw < pr, pr - pw
        k, occ, b, i = self.kw, self.occ, self.burst_left, len(lengths)
        base = occ + self.next_read - k
        top, low, gaps, stops = st.max_occupancy, st.min_occupancy_after_priming, 0, 0
        r0, k0, base0, s0, s1 = -1, 0, 0, 0, 0 if self.bursty else 1  # tortoise; none if bursty
        while True:
            if i < 2 and self.bursty:                    # draw the next pairs
                i = self._refill(i)
            e = k + b                                    # the burst's end
            peak = base + 1 + (e - 1) * gain // pr if faster else occ + 1  # last or first commit
            if peak < upper:
                g = lengths[i - 1]
                k1 = e + g
                if k1 > k_last:
                    break
                k, i, base = k1, i - 2, base - g
                occ = base + k * gain // pr
                if occ < 0:                              # -occ reads found the FIFO empty
                    gaps, base, occ = gaps - occ, base - occ, 0
                if occ < low:
                    low = occ
                b = lengths[i]
                if peak > top:
                    top = peak
                continue
            if not faster:
                break
            run, eb, u = stops, e - 1 + base, upper - 1  # eb: the burst's last tick + base
            while True:
                j = -((base - u) * pr // gain)           # the stop tick
                if j < k:
                    j = k
                jp = j + latency                         # the peak's tick
                s = jp + base
                jr, r = divmod((s - lower) * pr, pw)     # resume at jr + 1, class r
                peak = base + 1 + jp * gain // pr
                if s >= eb or jr >= k_last or peak > cap:
                    break
                if peak > top:
                    top = peak
                base += jp - jr
                k = jr + 1
                stops += 1
                if r == r0:                              # jump the whole periods
                    n = (k_last - k) // (k - k0)
                    k, base, stops = (k + n * (k - k0), base + n * (base - base0),
                                      stops + n * (stops - s0))
                elif stops == s1:                        # a new tortoise, twice as far
                    r0, k0, base0, s0, s1 = r, k, base, stops, 3 * stops - 2 * s0
            b = eb + 1 - base - k
            if stops > run:                              # each resume leaves `lower`
                occ = lower
            if j + base <= eb:                           # at a cycle it cannot apply
                break
        if stops and lower < low:
            low = lower
        m = base + k - occ
        reads = m - self.next_read
        st.output_bytes += reads - gaps
        st.bytes_written += occ - self.occ + reads - gaps    # by conservation
        st.underflow_events += gaps
        st.stop_assertions += stops
        st.max_occupancy, st.min_occupancy_after_priming = top, low
        self.kw, self.next_read, self.occ, self.burst_left = k, m, occ, b
        del lengths[i:]

    def run(self) -> FifoStats:
        while self.kw <= self.k_last:
            if self.state == _PAUSED and self.occ <= self.cfg.lower_threshold:
                self.state = _ACTIVE
            # a continuous writer no faster than the reads has no cycles to cross
            if self.state == _ACTIVE and self.primed and self.burst_left > 0 and (
                    self.bursty or self.pw < self.pr):
                self._cycles()
            self._step()
        self.stats.final_occupancy = self.occ
        self.stats.output_gaps_after_priming = self.stats.underflow_events  # the same reads
        return self.stats


def simulate_fifo(cfg: FifoConfig, duration_cycles: int,
                  write_pattern: str = "continuous", seed: int = 0) -> FifoStats:
    """Run the dual-clock FIFO for `duration_cycles` read-clock cycles."""
    st = _Sim(cfg, duration_cycles, write_pattern, seed).run()
    if st.bytes_written != st.output_bytes + st.final_occupancy:
        raise RuntimeError(f"FIFO simulation lost bytes: {st}")
    if st.max_occupancy > cfg.capacity_bytes:
        raise RuntimeError(f"FIFO simulation exceeded capacity: {st}")
    return st

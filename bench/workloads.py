"""Workload definitions, operation execution with correctness checks, and the
trace targets with their counters.

An operation is one `run_link` or `simulate_fifo` call.  A workload is a fixed
list of parts; one round runs one operation of every part, in order.  Round r
of a seed always gets the same inputs, so a run cycles through
ROUNDS_PER_BLOCK rounds and every repeat of a round must reproduce the
simulated statistics of its first execution.

Every workload reports every end-to-end metric, so each carries a small
companion part for the metrics its main part does not produce: the link
workloads run the four FIFO regimes at half their size, and `fifo-regimes`
runs a small `link-clean` operation.  The main part takes most of each round.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from gblink import elastic, harness
from gblink.framing import P32, P64, FrameKind
from tracer import Target

ROUNDS_PER_BLOCK = 4

REGIMES = {
    "writer_faster": (elastic.FifoConfig(), "continuous"),
    "writer_faster_bursty": (elastic.FifoConfig(), "bursty"),
    "equal": (elastic.FifoConfig(read_clock_hz=125e6), "continuous"),
    "reader_faster": (elastic.FifoConfig(read_clock_hz=130e6), "continuous"),
}

# Read-clock cycles per full-size call, 25-40 ms each on a 2-core x86 host
# with Python 3.11 and numpy 2.4: the first two regimes take the analytic
# jump paths, the last two step tick by tick.  Short calls give many samples
# per run, so that some of them land in periods when the host is not slowed.
FIFO_CYCLES = {
    "writer_faster": 2_000_000,
    "writer_faster_bursty": 1_500_000,
    "equal": 15_000,
    "reader_faster": 20_000,
}

LINK_FIELDS = ("raw_errors", "raw_bits", "coded_errors", "coded_bits", "frame_errors",
               "frames", "sync_losses", "corrected_bytes_total")
FIFO_FIELDS = ("max_occupancy", "min_occupancy_after_priming", "overflow_events",
               "underflow_events", "stop_assertions", "output_bytes",
               "output_gaps_after_priming", "bytes_written", "final_occupancy")


class CheckFailed(Exception):
    """An operation returned output that violates an invariant."""


@dataclass(frozen=True)
class LinkPart:
    channel: harness.Channel
    kind: FrameKind
    bit_offset: int
    frames: int


@dataclass(frozen=True)
class FifoPart:
    regime: str
    scale: int  # cycles = FIFO_CYCLES[regime] // scale


@dataclass(frozen=True)
class LinkOp:
    cfg: harness.ExperimentConfig

    metric = "link_channel_mbps"


@dataclass(frozen=True)
class FifoOp:
    regime: str
    cfg: elastic.FifoConfig
    cycles: int
    pattern: str
    seed: int

    @property
    def metric(self) -> str:
        return f"fifo_mcycles_per_s.{self.regime}"


# high-SNR point where long BER runs spend their time: RS decode finds clean blocks
CLEAN = dict(channel=harness.AwgnChannel(12.0), kind=P32, bit_offset=3)
# RS waterfall: most codewords carry 1-8 byte errors, about 2% fail; BSC skips the modem
WATERFALL = dict(channel=harness.BscChannel(2e-3), kind=P64, bit_offset=5)


def _fifo_parts(scale: int) -> list[FifoPart]:
    return [FifoPart(r, scale) for r in REGIMES]


WORKLOADS: dict[str, list] = {
    "link-clean": [LinkPart(**CLEAN, frames=400)] + _fifo_parts(2),
    "link-waterfall": [LinkPart(**WATERFALL, frames=200)] + _fifo_parts(2),
    "fifo-regimes": _fifo_parts(1) + [LinkPart(**CLEAN, frames=100)],
}


def _seed_word(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def make_rounds(workload: str, seed: int) -> list[list]:
    """ROUNDS_PER_BLOCK rounds of operations, all inputs derived from `seed`."""
    rounds = []
    for r in range(ROUNDS_PER_BLOCK):
        ops: list = []
        for j, part in enumerate(WORKLOADS[workload]):
            word = _seed_word(seed, r, j)
            if isinstance(part, LinkPart):
                ops.append(LinkOp(harness.ExperimentConfig(
                    channel=part.channel, frames=part.frames, master_seed=word,
                    frame_kind=part.kind, bit_offset=part.bit_offset)))
            else:
                cfg, pattern = REGIMES[part.regime]
                base = FIFO_CYCLES[part.regime] // part.scale
                ops.append(FifoOp(part.regime, cfg, base + word % (base // 16), pattern,
                                  word % (1 << 32)))
        rounds.append(ops)
    return rounds


def call(op):
    """The gblink call an operation stands for; this is the timed region."""
    if isinstance(op, LinkOp):
        return harness.run_link(op.cfg)
    return elastic.simulate_fifo(op.cfg, op.cycles, op.pattern, op.seed)


def check(op, result) -> tuple[dict, int]:
    """Verify invariants; returns (simulated statistics, simulated units).

    Units are channel bits for a link operation and read-clock cycles for a
    FIFO operation.
    """
    if isinstance(op, LinkOp):
        kind = op.cfg.frame_kind
        try:
            result.validate()
        except ValueError as exc:
            raise CheckFailed(f"LinkReport.validate: {exc}") from exc
        if result.raw_bits != op.cfg.frames * kind.frame_bits:
            raise CheckFailed("raw_bits != frames * frame_bits")
        if result.coded_bits != op.cfg.frames * kind.payload_bytes * 8:
            raise CheckFailed("coded_bits != frames * payload_bits")
        return {f: getattr(result, f) for f in LINK_FIELDS}, result.raw_bits
    if result.bytes_written != result.output_bytes + result.final_occupancy:
        raise CheckFailed("FIFO conservation: bytes_written != output_bytes + final_occupancy")
    if result.max_occupancy > op.cfg.capacity_bytes:
        raise CheckFailed("FIFO max_occupancy exceeds capacity")
    return {"regime": op.regime, **{f: getattr(result, f) for f in FIFO_FIELDS}}, op.cycles


def digest(stats: list[dict]) -> str:
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()[:16]


# -- trace targets -----------------------------------------------------------------

def _rows(args: tuple, kwargs: dict) -> int:
    arr = args[0] if args else next(iter(kwargs.values()))
    return int(np.atleast_2d(arr).shape[0])


def _count_rows(key: str):
    return lambda ctx, args, kwargs, result, exc: {key: _rows(args, kwargs)}


def _count_rs_decode(ctx, args, kwargs, result, exc) -> dict:
    if exc is not None:
        return {"rs.rs_decode.failures": 1}
    nerr = result[1]
    return {"rs.rs_decode.corrected_bytes": nerr, "rs.clean_blocks": nerr == 0}


def _count_locate(ctx, args, kwargs, result, exc) -> dict:
    """Located starts on the known frame grid vs off it (false locks)."""
    if exc is not None:
        return {}
    starts, losses = result
    cfg = ctx.cfg
    frame_bits = cfg.frame_kind.frame_bits
    on_grid = sum(1 for s in starts
                  if (s - cfg.bit_offset) % frame_bits == 0
                  and 0 <= (s - cfg.bit_offset) // frame_bits < cfg.frames)
    return {"sync.true_locks": on_grid, "sync.false_locks": len(starts) - on_grid,
            "sync.losses": losses, "sync.frames": cfg.frames}


def _count_fifo(ctx, args, kwargs, result, exc) -> dict:
    if exc is not None:
        return {}
    return {f"elastic.{ctx.regime}.{f}": getattr(result, f)
            for f in ("stop_assertions", "underflow_events", "overflow_events")}


# Named targets rather than every public function: the scalar GF(256) helpers
# run hundreds of times per corrected block, and wrapping them would bury
# rs_decode under wrapper cost.  awgn and diff_demod are idle today; they are
# traced so noise and detection show up there once the harness calls them.
TARGETS = [
    Target("harness.run_link", "gblink.harness", "run_link"),
    Target("framing.build_frames", "gblink.framing", "build_frames"),
    Target("framing.parse_frame", "gblink.framing", "parse_frame"),
    Target("framing.scramble", "gblink.framing", "scramble"),
    Target("rs.encode_blocks", "gblink.rs", "encode_blocks", _count_rows("rs.encode_blocks.blocks")),
    Target("rs.syndromes_blocks", "gblink.rs", "syndromes_blocks",
           _count_rows("rs.syndromes_blocks.blocks")),
    Target("rs.rs_decode", "gblink.rs", "rs_decode", _count_rs_decode),
    Target("modem.diff_encode", "gblink.modem", "diff_encode"),
    Target("modem.bpsk_map", "gblink.modem", "bpsk_map"),
    Target("modem.diff_demod", "gblink.modem", "diff_demod"),
    Target("channel.awgn", "gblink.channel", "awgn"),
    Target("channel.bsc", "gblink.channel", "bsc"),
    Target("sync.locate_frames", "gblink.sync", "FrameSynchronizer.locate_frames", _count_locate),
    Target("sync.match_counts", "gblink.sync", "match_counts"),
    Target("sync.correlate", "gblink.sync", "correlate"),
    Target("elastic.simulate_fifo", "gblink.elastic", "simulate_fifo", _count_fifo),
]

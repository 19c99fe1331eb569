"""End-to-end Monte Carlo link runs: Tx chain -> channel -> Rx chain with
ground-truth error accounting, plus parameter sweeps to CSV.

Seeding: every run derives three independent child streams (payload bytes,
alignment junk bits, channel noise), those of `SeedSequence(master_seed).spawn(3)`;
a stage builds child i as `SeedSequence(master_seed, spawn_key=(i,))`.  The payload
bytes are the raw output of the first child's PCG64 bit generator, the bytes
`default_rng(child).integers(0, 256, n, np.uint8)` would draw.  Sweep point i runs
with the first state word of `SeedSequence((master_seed, i))` (the same for any
count drawn) as its own master seed.  Identical configs therefore produce
byte-identical CSV, and sweep points may execute in any order or in parallel.

Stages: `run_link` composes four functions over plain arrays.  `_transmit`
returns the Tx byte stream and its bit count.  `_errors` returns the channel's
errors, laid out like that stream, and the raw error count (flips in the frame
spans): `channel.dbpsk_flips` draws the product detector's decision errors at
the `channel.noise_sigma` deviation, exact in distribution (none if
noiseless), and `channel.bsc_flips` a `BscChannel`'s, bypassing the modem.
`_receive` returns the mask of frames located on the Tx grid of the received
stream, Tx XOR errors, searched in place from bit 8 - lo (channel bit 0), and
the sync losses.  `_account` returns the validated
`LinkReport`.  The scrambler is an XOR and RS syndromes are linear, so
decoding a codeword's bytes in the error array gives the ok, corrections and
message residual of the received one.  The minimum distance is 17, so a
codeword with w <= 8 error bytes decodes with w corrections and no residual;
only those with more go through `rs.decode_blocks`, which fails or
miscorrects them.  Frames that miss sync or hold an uncorrectable codeword
deliver their pass-through message bytes, count no corrections and are frame
errors, as are miscorrected ones (a nonzero delivered residual).  Coded
errors are the popcount of the delivered residuals.

Channel variants: `AwgnChannel.ebn0_db` is per information bit and is
converted through the code rate (or taken as-is with `uncoded=True`);
`DistanceChannel` gives a per-channel-bit ratio from the link budget.
Channels and configs reject values outside their domain (NaN, -inf dB, a
negative seed, a fractional frame count) or of the wrong type (a string
`frame_kind`) when constructed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import channel as channel_mod
from . import framing, rs
from .elastic import _integer
from .framing import FrameKind, P32
from .sync import FrameSynchronizer

FRAMES_CAP = 20_000  # the longest auto-sized run (frames=None), which bounds its memory


@dataclass(frozen=True)
class AwgnChannel:
    ebn0_db: float  # +inf is the noiseless channel

    def __post_init__(self):
        if math.isnan(self.ebn0_db) or self.ebn0_db == -math.inf:
            raise ValueError(f"Eb/N0 must be a number of dB above -inf, got {self.ebn0_db}")


@dataclass(frozen=True)
class BscChannel:
    p: float

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError(f"BSC p must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class DistanceChannel:
    distance_m: float
    budget: channel_mod.LinkBudget = field(default_factory=channel_mod.LinkBudget)

    def __post_init__(self):
        channel_mod.snr_at_distance(self.budget, self.distance_m)  # the one check of 0 < d < inf


Channel = AwgnChannel | BscChannel | DistanceChannel


@dataclass(frozen=True)
class ExperimentConfig:
    channel: Channel
    frames: int | None  # None: auto-sized, see run_link
    master_seed: int
    frame_kind: FrameKind = P32
    gamma: int | None = None
    uncoded: bool = False
    bit_offset: int = 0

    def __post_init__(self):
        if self.frames is not None:
            object.__setattr__(self, "frames", _integer("frames", self.frames))
        for name in ("master_seed", "bit_offset"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name, kind, what in (("channel", Channel, "an AWGN, BSC or distance channel"),
                                 ("frame_kind", FrameKind, "a FrameKind"), ("uncoded", bool, "a bool")):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", FrameSynchronizer(self.frame_kind, self.gamma).gamma)
        if self.frames is not None and self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.master_seed}")
        if not 0 <= self.bit_offset < 8:
            raise ValueError("bit_offset must be in [0, 8)")


@dataclass
class LinkReport:
    raw_errors: int
    raw_bits: int
    coded_errors: int
    coded_bits: int
    frame_errors: int
    frames: int
    sync_losses: int
    corrected_bytes_total: int

    @property
    def raw_ber(self) -> float:
        return self.raw_errors / self.raw_bits

    @property
    def coded_ber(self) -> float:
        return self.coded_errors / self.coded_bits

    @property
    def frame_error_rate(self) -> float:
        return self.frame_errors / self.frames

    def validate(self) -> None:
        if not 0 <= self.raw_errors <= self.raw_bits:
            raise ValueError("raw error count out of range")
        if not 0 <= self.coded_errors <= self.coded_bits:
            raise ValueError("coded error count out of range")
        if not 0 <= self.frame_errors <= self.frames:
            raise ValueError("frame error count out of range")
        if self.sync_losses < 0 or self.corrected_bytes_total < 0:
            raise ValueError("negative counters")


def run_link(cfg: ExperimentConfig) -> LinkReport:
    """Run one seeded link experiment and account errors against ground truth (see Stages).
    With `frames=None`, the first of the runs at FRAMES_CAP >> k frames, k = 14 .. 0, whose own
    count (frame errors, raw errors if uncoded) reaches 100, else the run at the cap."""
    if cfg.frames is None:
        for n in [FRAMES_CAP >> k for k in range(14, -1, -1) if FRAMES_CAP >> k]:  # a cap < 2**14 gives 0s
            report = run_link(replace(cfg, frames=n))
            if (report.raw_errors if cfg.uncoded else report.frame_errors) >= 100:
                break
        return report
    stream, nbits = _transmit(cfg)
    errors, raw_errors = _errors(cfg, stream, nbits)
    stream ^= errors  # in place: `stream ^ errors` would allocate a second stream
    return _account(cfg, errors, raw_errors, *_receive(cfg, stream, nbits))


def _transmit(cfg: ExperimentConfig) -> tuple[np.ndarray, int]:
    """Junk bits ending byte 0, the frames, the next frame's preamble (the last one's bank-2 window)
    and 8 zero bytes to read ahead.  Junk bit i is bit 31 of PCG64 half-word i: `integers(0, 2, lo)`."""
    kind, lo = cfg.frame_kind, cfg.bit_offset
    n = cfg.frames * kind.payload_bytes
    payload_ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(0,))
    payload = np.random.PCG64(payload_ss).random_raw(-(-n // 8)).astype("<u8", copy=False)
    tx_frames = framing.build_frames(payload.view(np.uint8)[:n].reshape(cfg.frames, -1), kind)
    stream = np.concatenate([np.zeros(1, np.uint8), tx_frames.ravel(),
                             np.frombuffer(kind.preamble, np.uint8), np.zeros(8, np.uint8)])
    if lo:
        junk = np.random.PCG64(np.random.SeedSequence(cfg.master_seed, spawn_key=(1,))).random_raw(4)
        stream[0] = np.packbits(junk.astype("<u8", copy=False).view("<u4")[:lo] >> 31)[0] >> (8 - lo)
    return stream, lo + 8 * (stream.size - 9)


def _errors(cfg: ExperimentConfig, stream: np.ndarray, nbits: int) -> tuple[np.ndarray, int]:
    """A chunk of flips at a time, which bounds the temporaries at any error rate: count those
    in the frame spans and XOR them into the errors, flip x at stream bit x + 8 - lo."""
    kind, lo = cfg.frame_kind, cfg.bit_offset
    seed = int(np.random.SeedSequence(cfg.master_seed, spawn_key=(2,)).generate_state(1, np.uint64)[0])
    chan = cfg.channel
    if isinstance(chan, BscChannel):
        chunks = channel_mod.bsc_flips(nbits, chan.p, seed)
    else:
        distance = isinstance(chan, DistanceChannel)  # a link budget gives the ratio per channel bit
        ebn0_db = channel_mod.snr_at_distance(chan.budget, chan.distance_m) if distance else chan.ebn0_db
        sigma = channel_mod.noise_sigma(ebn0_db, 1.0 if distance or cfg.uncoded else kind.code_rate)
        chunks = channel_mod.dbpsk_flips(nbits, sigma, seed)
    errors, raw_errors = np.zeros_like(stream), 0
    for flips in chunks:
        first, last = np.searchsorted(flips, [lo, lo + cfg.frames * kind.frame_bits])
        raw_errors += int(last - first)
        flips = flips + (8 - lo)
        np.bitwise_xor.at(errors, flips >> 3, (128 >> (flips & 7)).astype(np.uint8))
    return errors, raw_errors


def _receive(cfg: ExperimentConfig, stream: np.ndarray, nbits: int) -> tuple[np.ndarray, int]:
    """Locate frames in the received stream in place: channel bit 0 is stream bit 8 - lo."""
    kind, lo = cfg.frame_kind, cfg.bit_offset
    synchronizer = FrameSynchronizer(kind, kind.default_gamma if cfg.gamma is None else cfg.gamma)
    located, sync_losses = synchronizer.locate_frames(stream, nbits, 8 - lo)
    frame, off = np.divmod(located - lo, kind.frame_bits)
    found = np.zeros(cfg.frames, dtype=bool)
    found[frame[off == 0]] = True  # a start is a frame and a preamble before the end: frame < frames
    return found, sync_losses


def _account(cfg: ExperimentConfig, errors: np.ndarray, raw_errors: int, found: np.ndarray,
             sync_losses: int) -> LinkReport:
    """The report, from the `FrameKind.codewords` view of the error bytes (see Stages)."""
    kind, frames = cfg.frame_kind, cfg.frames
    codewords = kind.codewords(errors[1: 1 + frames * kind.frame_bytes].reshape(frames, -1))
    weight = (codewords != 0).sum(axis=2, dtype=np.int16)  # error bytes; twice as fast as an intp sum
    frame, cw = np.nonzero(found[:, None] & (weight > rs.CORRECTABLE_BYTES))
    residual, corrected, ok = rs.decode_blocks(codewords[frame, cw])
    weight[frame, cw] = corrected
    delivered = found.copy()
    delivered[frame[~ok]] = False
    good = delivered[frame]
    passed = codewords[~delivered, :, : rs.MESSAGE_BYTES]
    right = delivered.copy()  # delivered frames less the miscorrected, whose payload is wrong
    right[frame[good & residual.any(axis=1)]] = False
    report = LinkReport(
        raw_errors=raw_errors, raw_bits=frames * kind.frame_bits,
        coded_errors=int(np.bitwise_count(passed).sum() + np.bitwise_count(residual[good]).sum()),
        coded_bits=frames * kind.payload_bytes * 8, frame_errors=frames - int(right.sum()),
        frames=frames, sync_losses=sync_losses, corrected_bytes_total=int(weight[delivered].sum()))
    report.validate()  # a guard: each count is in range by construction
    return report


def _point_config(cfg: ExperimentConfig, param: str, value: float, index: int) -> ExperimentConfig:
    seed = int(np.random.SeedSequence((cfg.master_seed, index)).generate_state(1, np.uint64)[0])
    if param == "gamma":
        if not float(value).is_integer():
            raise ValueError(f"gamma must be an integer, got {value}")
        return replace(cfg, gamma=int(value), master_seed=seed)
    # every channel's first field is the value a sweep drives
    chan = replace(cfg.channel, **{fields(cfg.channel)[0].name: value})
    return replace(cfg, channel=chan, master_seed=seed)


def sweep(cfg: ExperimentConfig, values: tuple[float, ...], param: str = "channel",
          jobs: int = 1) -> list[tuple[float, LinkReport]]:
    """One run_link per value of `param` ("channel" or "gamma"); row order
    follows the value list."""
    if not values:
        raise ValueError("a sweep needs at least one value")
    if _integer("jobs", jobs) < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if param not in ("channel", "gamma"):
        raise ValueError(f"unknown sweep parameter {param!r}")
    configs = [_point_config(cfg, param, v, i) for i, v in enumerate(values)]
    if jobs > 1:  # a pool of one would give the same rows, slower
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing
        with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
            reports = list(pool.map(run_link, configs))
    else:
        reports = [run_link(c) for c in configs]
    return list(zip(values, reports))


def write_sweep_csv(rows: list[tuple[float, LinkReport]], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["parameter", "raw_ber", "coded_ber", "fer", "sync_losses"])
    for value, rep in rows:
        writer.writerow([repr(float(value)), repr(rep.raw_ber), repr(rep.coded_ber),
                         repr(rep.frame_error_rate), rep.sync_losses])

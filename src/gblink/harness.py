"""End-to-end Monte Carlo link runs: Tx chain -> channel -> Rx chain with
ground-truth error accounting, plus parameter sweeps to CSV.

Seeding: every run derives three independent child streams (payload bytes,
alignment junk bits, channel noise) from `SeedSequence(master_seed).spawn(3)`,
and sweep point i runs with the first state word of
`SeedSequence((master_seed, i))` as its own master seed.  Identical configs
therefore produce byte-identical CSV, and sweep points may execute in any
order or in parallel.

Accounting: frame positions are known out-of-band, so synchronizer output is
*compared* against the truth rather than trusted.  Raw errors are demodulated
channel bits vs. transmitted channel bits over the frame spans.  Frames at
located sync starts are decoded in one `framing.parse_frames` batch.  Frames
that miss sync or hold any uncorrectable codeword deliver their uncorrected
(pass-through) payload, count none of their corrections and count as frame
errors; the pass-through keeps coded vs. raw comparable in any noise regime.
Coded errors are one popcount of delivered XOR true payload bytes.

Channel variants: `AwgnChannel.ebn0_db` is per information bit and is
converted through the code rate (or taken as-is with `uncoded=True`);
`DistanceChannel` produces a per-channel-bit ratio from the link budget and
feeds it straight in at rate 1.  Both become a noise deviation through
`channel.noise_sigma` and run `modem.bpsk_map` -> `channel.awgn` ->
`modem.diff_demod` in chunks of 2^21 symbols.  `BscChannel` flips serialized
channel bits directly, bypassing the modem.  Channels reject values outside
their domain (NaN, -inf dB, non-finite distances) when constructed.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel as channel_mod
from . import framing, modem, rs
from .framing import FrameKind, P32
from .sync import CorrelatorBankConfig, FrameSynchronizer

_CHUNK_SYMBOLS = 1 << 21
FRAMES_CAP = 20_000  # upper bound of frames_for_target_errors

# set-bit count of every byte value, for the coded-error popcount
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


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
        if not 0 < self.distance_m < math.inf:
            raise ValueError(f"distance must be positive and finite, got {self.distance_m}")


Channel = AwgnChannel | BscChannel | DistanceChannel


@dataclass(frozen=True)
class ExperimentConfig:
    channel: Channel
    frames: int
    master_seed: int
    frame_kind: FrameKind = P32
    gamma: int | None = None
    uncoded: bool = False
    bit_offset: int = 0

    def validate(self) -> None:
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
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


def _demodulate_awgn(tx_bits: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Differential chain over AWGN in chunks of _CHUNK_SYMBOLS; a +1
    reference symbol leads, then each chunk's last symbol leads the next."""
    enc = modem.diff_encode(tx_bits)
    out = np.empty(tx_bits.size, dtype=np.uint8)
    prev = np.ones(1, dtype=np.complex128)
    for lo in range(0, enc.size, _CHUNK_SYMBOLS):
        sym = channel_mod.awgn(modem.bpsk_map(enc[lo: lo + _CHUNK_SYMBOLS]), sigma, rng)
        out[lo] = modem.diff_demod(np.concatenate((prev, sym[:1])))[0]
        out[lo + 1: lo + sym.size] = modem.diff_demod(sym)
        prev = sym[-1:]
    return out


def run_link(cfg: ExperimentConfig) -> LinkReport:
    """Run one seeded link experiment and account errors against ground truth."""
    cfg.validate()
    kind = cfg.frame_kind
    bank = CorrelatorBankConfig(kind, cfg.gamma if cfg.gamma is not None else kind.default_gamma)
    frame_bits = kind.frame_bits

    payload_ss, junk_ss, chan_ss = np.random.SeedSequence(cfg.master_seed).spawn(3)
    payload_rng = np.random.default_rng(payload_ss)
    payloads = payload_rng.integers(0, 256, (cfg.frames, kind.payload_bytes), dtype=np.uint8)
    frame_stream = np.unpackbits(framing.build_frames(payloads, kind).reshape(-1))

    junk = np.random.default_rng(junk_ss).integers(0, 2, cfg.bit_offset).astype(np.uint8)
    # a trailing preamble stands in for the next frame of the continuous
    # transmission, giving the last frame its bank-2 window
    tx_bits = np.concatenate([junk, frame_stream, framing.gen_preamble(kind)])

    if isinstance(cfg.channel, BscChannel):
        seed = int(chan_ss.generate_state(1, np.uint64)[0])
        rx_bits = channel_mod.bsc(tx_bits, cfg.channel.p, seed)
    else:
        if isinstance(cfg.channel, DistanceChannel):
            ebn0_db = channel_mod.snr_at_distance(cfg.channel.budget, cfg.channel.distance_m,
                                                  kind.channel_rate_bps)
            code_rate = 1.0  # already referenced to channel bits
        else:
            ebn0_db = cfg.channel.ebn0_db
            code_rate = 1.0 if cfg.uncoded else kind.code_rate
        sigma = channel_mod.noise_sigma(ebn0_db, code_rate)
        rx_bits = _demodulate_awgn(tx_bits, sigma, np.random.default_rng(chan_ss))

    lo = cfg.bit_offset
    hi = lo + cfg.frames * frame_bits
    raw_errors = int(np.count_nonzero(rx_bits[lo:hi] != tx_bits[lo:hi]))

    located, sync_losses = FrameSynchronizer(bank).locate_frames(rx_bits)
    found = np.isin(lo + frame_bits * np.arange(cfg.frames), located)

    # frames that miss sync deliver their pass-through payload; parse_frames
    # gives the pass-through for frames that fail RS decoding
    rx_frames = np.packbits(rx_bits[lo:hi]).reshape(cfg.frames, kind.frame_bytes)
    delivered = np.empty_like(payloads)
    parsed, corrected, ok = framing.parse_frames(rx_frames[found], kind)
    delivered[found] = parsed
    missed = framing.frame_codewords(rx_frames[~found], kind)[:, : rs.MESSAGE_BYTES]
    delivered[~found] = missed.reshape(-1, kind.payload_bytes)

    report = LinkReport(
        raw_errors=raw_errors,
        raw_bits=cfg.frames * frame_bits,
        coded_errors=int(_POPCOUNT[delivered ^ payloads].sum(dtype=np.int64)),
        coded_bits=cfg.frames * kind.payload_bytes * 8,
        frame_errors=cfg.frames - int(ok.sum()),
        frames=cfg.frames,
        sync_losses=sync_losses,
        corrected_bytes_total=int(corrected.sum()),
    )
    report.validate()
    return report


def _point_config(cfg: ExperimentConfig, param: str, value: float, index: int) -> ExperimentConfig:
    seed = int(np.random.SeedSequence((cfg.master_seed, index)).generate_state(1, np.uint64)[0])
    if param == "gamma":
        return replace(cfg, gamma=int(value), master_seed=seed)
    if isinstance(cfg.channel, AwgnChannel):
        chan: Channel = AwgnChannel(ebn0_db=value)
    elif isinstance(cfg.channel, BscChannel):
        chan = BscChannel(p=value)
    else:
        chan = DistanceChannel(distance_m=value, budget=cfg.channel.budget)
    return replace(cfg, channel=chan, master_seed=seed)


def sweep(cfg: ExperimentConfig, values: tuple[float, ...], param: str = "channel",
          jobs: int = 1) -> list[tuple[float, LinkReport]]:
    """One run_link per value of `param` ("channel" or "gamma"); row order
    follows the value list."""
    if not values:
        raise ValueError("a sweep needs at least one value")
    if param not in ("channel", "gamma"):
        raise ValueError(f"unknown sweep parameter {param!r}")
    configs = [_point_config(cfg, param, v, i) for i, v in enumerate(values)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def frames_for_target_errors(kind: FrameKind, ber: float, target: int = 100) -> int:
    """Frame count giving ~target expected error events at a raw BER, capped
    at FRAMES_CAP."""
    if ber <= 0:
        return FRAMES_CAP
    need = math.ceil(target / (kind.frame_bits * ber))
    return max(1, min(FRAMES_CAP, need))

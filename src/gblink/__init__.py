"""Bit-exact baseband simulator of a 60 GHz single-carrier gigabit-Ethernet
link: RS(255,239) coding, scrambling, DBPSK differential modem,
correlator-bank byte/frame synchronization, channel and link-budget models,
dual-clock rate adaptation, and a Monte Carlo BER harness.
"""

from .channel import (LinkBudget, awgn, bsc, dbpsk_ber_theory, noise_sigma,
                      rs_residual_ber, snr_at_distance)
from .elastic import FifoConfig, FifoStats, simulate_fifo
from .framing import (FRAME_KINDS, P32, P64, FrameError, FrameKind, build_frames,
                      gen_preamble, gen_scrambler_seq, parse_frame, parse_frames,
                      scramble, select_scrambler)
from .harness import (AwgnChannel, BscChannel, DistanceChannel, ExperimentConfig,
                      LinkReport, run_link, sweep)
from .modem import bpsk_map, deserialize, diff_decode, diff_demod, diff_encode, serialize
from .rs import RsDecodeFailure, decode_blocks, rs_decode, rs_encode
from .sync import (CorrelatorBankConfig, FrameSynchronizer, SyncProbabilities,
                   SyncResult, correlate, detect, p_false, p_miss, tradeoff_table)

__version__ = "0.1.0"

__all__ = [
    "AwgnChannel", "BscChannel", "CorrelatorBankConfig", "DistanceChannel",
    "ExperimentConfig", "FRAME_KINDS", "FifoConfig", "FifoStats", "FrameError",
    "FrameKind", "FrameSynchronizer", "LinkBudget", "LinkReport", "P32", "P64",
    "RsDecodeFailure", "SyncProbabilities", "SyncResult", "awgn", "bpsk_map", "bsc",
    "build_frames", "correlate", "dbpsk_ber_theory", "decode_blocks", "deserialize",
    "detect", "diff_decode", "diff_demod", "diff_encode", "gen_preamble",
    "gen_scrambler_seq", "noise_sigma", "p_false", "p_miss", "parse_frame", "parse_frames",
    "rs_decode", "rs_encode", "rs_residual_ber", "run_link", "scramble",
    "select_scrambler", "serialize", "simulate_fifo", "snr_at_distance", "sweep",
    "tradeoff_table",
]

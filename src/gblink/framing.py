"""Frame formats, preamble/scrambler generation, and frame assembly/parsing.

Two frame layouts share one 875 Mbps serial channel:

  P32: 4-byte preamble | 255-byte codeword | 1 dummy byte        = 260 bytes
  P64: 8-byte preamble | 2 x 255-byte codewords                  = 518 bytes

The preamble is a maximal-length LFSR sequence padded with one zero bit to a
whole number of bytes.  The scrambler sequence comes from the reciprocal
primitive polynomial (a different m-sequence: any cyclic phase of the
preamble's own sequence would reproduce the preamble verbatim inside scrambled
constant data).  Its phase was picked by `select_scrambler` and is frozen
below; tests re-run the selection and pin the winner.

Bit order everywhere is MSB-first within a byte (one documented constant,
shared with the serializer and the correlators).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rs

CHANNEL_RATE_BPS = 875e6

# Preamble LFSRs: x^5+x^2+1 (period 31) and x^6+x+1 (period 63), all-ones
# seed, one trailing zero pad bit.  Scrambler LFSRs are the reciprocals.
_PREAMBLE_TAPS = {32: (5, 2), 64: (6, 1)}
_SCRAMBLER_TAPS = {32: (5, 3), 64: (6, 5)}

# Frozen outputs of gen_preamble / select_scrambler (hex of the padded bits).
PREAMBLE_P32 = bytes.fromhex("f9a42bb0")
PREAMBLE_P64 = bytes.fromhex("fd59bb49c5e51840")
SCRAMBLER_P32 = bytes.fromhex("f8dd4258")
SCRAMBLER_P64 = bytes.fromhex("fc10c53d1c96ecd4")


class FrameError(ValueError):
    """A frame failed RS decoding."""


@dataclass(frozen=True)
class FrameKind:
    tag: str
    preamble_bits: int
    payload_bytes: int
    codewords_per_frame: int
    dummy_bytes: int
    default_gamma: int

    @property
    def preamble_bytes(self) -> int:
        return self.preamble_bits // 8

    @property
    def body_bytes(self) -> int:
        return self.codewords_per_frame * rs.BLOCK_BYTES + self.dummy_bytes

    @property
    def frame_bytes(self) -> int:
        return self.preamble_bytes + self.body_bytes

    @property
    def frame_bits(self) -> int:
        return self.frame_bytes * 8

    @property
    def span_bytes(self) -> int:
        """Bytes covered by one detection decision (P1 + D1 + P2)."""
        return self.preamble_bytes + self.frame_bytes

    @property
    def scrambler_bytes(self) -> int:
        return self.preamble_bytes

    @property
    def channel_rate_bps(self) -> float:
        return CHANNEL_RATE_BPS

    @property
    def source_rate_bps(self) -> float:
        return CHANNEL_RATE_BPS * self.payload_bytes / self.frame_bytes

    @property
    def code_rate(self) -> float:
        """Information bits per transmitted channel bit."""
        return self.payload_bytes / self.frame_bytes


P32 = FrameKind(tag="P32", preamble_bits=32, payload_bytes=239,
                codewords_per_frame=1, dummy_bytes=1, default_gamma=28)
P64 = FrameKind(tag="P64", preamble_bits=64, payload_bytes=478,
                codewords_per_frame=2, dummy_bytes=0, default_gamma=49)

FRAME_KINDS = {"P32": P32, "P64": P64}


def lfsr_sequence(taps: tuple[int, ...], nbits: int) -> np.ndarray:
    """Fibonacci LFSR output, all-ones seed; taps are polynomial exponents."""
    degree = max(taps)
    reg = [1] * degree
    out = np.empty(nbits, dtype=np.uint8)
    for i in range(nbits):
        out[i] = reg[-1]
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
    return out


def _padded_sequence(taps: tuple[int, ...], nbits: int) -> np.ndarray:
    period = 2 ** max(taps) - 1
    assert period + 1 == nbits
    return np.concatenate([lfsr_sequence(taps, period), np.zeros(1, dtype=np.uint8)])


def gen_preamble(kind: FrameKind) -> np.ndarray:
    """Preamble bit pattern for a frame kind (constant, MSB-first)."""
    return _padded_sequence(_PREAMBLE_TAPS[kind.preamble_bits], kind.preamble_bits)


def gen_scrambler_seq(kind: FrameKind) -> bytes:
    """The frozen scrambling sequence for a frame kind (4 or 8 bytes)."""
    return {"P32": SCRAMBLER_P32, "P64": SCRAMBLER_P64}[kind.tag]


def scrambler_candidates(kind: FrameKind) -> list[bytes]:
    """All cyclic phases of the padded scrambler-family m-sequence."""
    base = _padded_sequence(_SCRAMBLER_TAPS[kind.preamble_bits], kind.preamble_bits)
    n = base.size
    return [np.packbits(np.roll(base, -ph)).tobytes() for ph in range(n)]


def scrambler_score(candidate: bytes, preamble: np.ndarray) -> int:
    """Worst-case preamble match count inside cyclically scrambled data.

    Worst-case data patterns: all-zero bytes (idle runs) and the preamble
    itself repeated (payloads that would otherwise leak the sync word).  The
    score is the maximum match count over every bit shift of the scrambled
    stream; lower is better.
    """
    n = preamble.size
    cand_bits = np.unpackbits(np.frombuffer(candidate, dtype=np.uint8))
    period = cand_bits.size
    worst = 0
    patterns = (np.zeros(period, np.uint8), preamble.astype(np.uint8))
    for data in patterns:
        stream = np.tile(data ^ cand_bits, 3)
        for shift in range(period):
            matches = int(np.sum(stream[shift:shift + n] == preamble))
            worst = max(worst, matches)
    return worst


def select_scrambler(preamble: np.ndarray, candidates: list[bytes]) -> bytes:
    """Candidate with the lowest worst-case score; ties break on lowest index."""
    if not candidates:
        raise ValueError("candidate list is empty")
    scores = [scrambler_score(c, preamble) for c in candidates]
    return candidates[int(np.argmin(scores))]


def scramble(data: np.ndarray, seq: bytes) -> np.ndarray:
    """XOR uint8 data along its last axis with the cyclically repeated
    sequence (an involution).

    The P32 body is padded to a multiple of the sequence length by its dummy
    byte; the P64 body (510 bytes, 8-byte sequence) ends mid-repetition and
    the tail is simply truncated.
    """
    arr = np.asarray(data, dtype=np.uint8)
    return arr ^ np.resize(np.frombuffer(seq, dtype=np.uint8), arr.shape[-1])


def build_frames(payloads: np.ndarray, kind: FrameKind) -> np.ndarray:
    """Batch build: (B, payload_bytes) uint8 -> (B, frame_bytes) uint8.

    A frame is the preamble followed by the scrambled body: the RS codewords
    of the payload's 239-byte slices, then the dummy byte(s).
    """
    payloads = np.atleast_2d(np.asarray(payloads, dtype=np.uint8))
    if payloads.shape[1] != kind.payload_bytes:
        raise ValueError(f"payloads must have {kind.payload_bytes} columns")
    nfrm = payloads.shape[0]
    msgs = payloads.reshape(nfrm * kind.codewords_per_frame, rs.MESSAGE_BYTES)
    body = np.zeros((nfrm, kind.body_bytes), dtype=np.uint8)
    body[:, : kind.codewords_per_frame * rs.BLOCK_BYTES] = rs.encode_blocks(msgs).reshape(nfrm, -1)
    frames = np.empty((nfrm, kind.frame_bytes), dtype=np.uint8)
    frames[:, : kind.preamble_bytes] = np.packbits(gen_preamble(kind))
    frames[:, kind.preamble_bytes:] = scramble(body, gen_scrambler_seq(kind))
    return frames


def frame_codewords(frames: np.ndarray, kind: FrameKind) -> np.ndarray:
    """Descramble (F, frame_bytes) frames into their (F * codewords, 255)
    received codewords, the inverse of the body assembly in build_frames;
    columns [0, 239) hold the uncorrected (pass-through) message bytes."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.uint8))
    if frames.shape[1] != kind.frame_bytes:
        raise ValueError(f"frames must have {kind.frame_bytes} columns, got {frames.shape[1]}")
    body = scramble(frames[:, kind.preamble_bytes:], gen_scrambler_seq(kind))
    return body[:, : kind.codewords_per_frame * rs.BLOCK_BYTES].reshape(-1, rs.BLOCK_BYTES)


def parse_frames(frames: np.ndarray, kind: FrameKind) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descramble and RS-decode byte-aligned frames.

    Returns (payloads, corrected, ok): (F, payload_bytes) uint8, the corrected
    byte count per frame and the per-frame success mask.  A frame with any
    uncorrectable codeword is not ok; it counts 0 corrections and its payload
    row is the uncorrected message bytes of every codeword.  Preamble content
    is the synchronizer's business and is not re-checked here.
    """
    codewords = frame_codewords(frames, kind)
    messages, corrected, ok = rs.decode_blocks(codewords)
    ncw = kind.codewords_per_frame
    ok = ok.reshape(-1, ncw).all(axis=1)
    failed = np.repeat(~ok, ncw)
    messages[failed] = codewords[failed, : rs.MESSAGE_BYTES]
    corrected = np.where(ok, corrected.reshape(-1, ncw).sum(axis=1), 0)
    return messages.reshape(-1, kind.payload_bytes), corrected, ok


def parse_frame(frame: bytes, kind: FrameKind) -> tuple[bytes, int]:
    """Single-frame parse_frames: returns (payload, corrected bytes) and
    raises FrameError if any codeword is uncorrectable."""
    payloads, corrected, ok = parse_frames(np.frombuffer(frame, dtype=np.uint8), kind)
    if not ok[0]:
        raise FrameError("frame has an uncorrectable codeword")
    return payloads[0].tobytes(), int(corrected[0])

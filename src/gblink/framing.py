"""Frame formats, the frozen preamble and scrambler sequences, and frame
assembly/parsing.

Two frame layouts share one 875 Mbps serial channel:

  P32: 4-byte preamble | 255-byte codeword | 1 dummy byte        = 260 bytes
  P64: 8-byte preamble | 2 x 255-byte codewords                  = 518 bytes

The preamble is a maximal-length LFSR sequence padded with one zero bit to a
whole number of bytes.  The scrambler sequence comes from the reciprocal
primitive polynomial (a different m-sequence: any cyclic phase of the
preamble's own sequence would reproduce the preamble verbatim inside scrambled
constant data), at the phase with the lowest worst-case preamble mimicry.
Each `FrameKind` freezes both as bytes; `tests/framing_oracle.py` holds the
LFSR and the scrambler selection, and the tests pin every constant against it.
`FrameKind.codewords` is the one view of a frame's codeword region, shared by
`build_frames`, `parse_frame` and the link harness's error accounting.

Bit order everywhere is MSB-first within a byte (one documented constant,
shared with the correlators and the scrambler).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rs
from .channel import CHANNEL_RATE_BPS


class FrameError(ValueError):
    """A frame failed RS decoding."""


@dataclass(frozen=True)
class FrameKind:
    tag: str
    preamble: bytes
    scrambler: bytes
    codewords_per_frame: int
    dummy_bytes: int
    default_gamma: int

    @cached_property
    def preamble_bits(self) -> int:
        return len(self.preamble) * 8

    @cached_property
    def preamble_bytes(self) -> int:
        return len(self.preamble)

    @cached_property
    def payload_bytes(self) -> int:
        return self.codewords_per_frame * rs.MESSAGE_BYTES

    @cached_property
    def body_bytes(self) -> int:
        return self.codewords_per_frame * rs.BLOCK_BYTES + self.dummy_bytes

    @cached_property
    def frame_bytes(self) -> int:
        return self.preamble_bytes + self.body_bytes

    @cached_property
    def frame_bits(self) -> int:
        return self.frame_bytes * 8

    @cached_property
    def span_bytes(self) -> int:
        """Bytes covered by one detection decision (P1 + D1 + P2)."""
        return self.preamble_bytes + self.frame_bytes

    @cached_property
    def source_rate_bps(self) -> float:
        return CHANNEL_RATE_BPS * self.payload_bytes / self.frame_bytes

    @cached_property
    def code_rate(self) -> float:
        """Information bits per transmitted channel bit."""
        return self.payload_bytes / self.frame_bytes

    def codewords(self, frames: np.ndarray) -> np.ndarray:
        """The (..., codewords_per_frame, 255) view of the codeword bytes of (..., frame_bytes) rows."""
        if frames.shape[-1] != self.frame_bytes:
            raise ValueError(f"frames must have {self.frame_bytes} bytes, got {frames.shape[-1]}")
        return frames[..., self.preamble_bytes: self.frame_bytes - self.dummy_bytes].reshape(
            *frames.shape[:-1], self.codewords_per_frame, rs.BLOCK_BYTES)


# Padded m-sequences, hex of the MSB-first bits.  Preambles: x^5+x^2+1
# (period 31) and x^6+x+1 (period 63), all-ones seed, one trailing zero pad
# bit.  Scramblers: the reciprocal polynomials, at the selected phase.
P32 = FrameKind(tag="P32", preamble=bytes.fromhex("f9a42bb0"),
                scrambler=bytes.fromhex("f8dd4258"),
                codewords_per_frame=1, dummy_bytes=1, default_gamma=28)
P64 = FrameKind(tag="P64", preamble=bytes.fromhex("fd59bb49c5e51840"),
                scrambler=bytes.fromhex("fc10c53d1c96ecd4"),
                codewords_per_frame=2, dummy_bytes=0, default_gamma=49)

FRAME_KINDS = {"P32": P32, "P64": P64}


def gen_preamble(kind: FrameKind) -> np.ndarray:
    """Preamble bit pattern for a frame kind (constant, MSB-first)."""
    return np.unpackbits(np.frombuffer(kind.preamble, dtype=np.uint8))


def scramble(data: np.ndarray, seq: bytes) -> np.ndarray:
    """XOR uint8 data along its last axis with the cyclically repeated
    sequence (an involution).

    The P32 body is padded to a multiple of the sequence length by its dummy
    byte; the P64 body (510 bytes, 8-byte sequence) ends mid-repetition and
    the tail is simply truncated.
    """
    arr = np.asarray(data, dtype=np.uint8)
    return arr ^ np.frombuffer((seq * arr.shape[-1])[: arr.shape[-1]], dtype=np.uint8)


def _zero_frame(kind: FrameKind) -> np.ndarray:
    """The zero payload's frame: the preamble, then the scrambled zero body (zero codewords)."""
    return np.concatenate([np.frombuffer(kind.preamble, dtype=np.uint8),
                           scramble(np.zeros(kind.body_bytes, dtype=np.uint8), kind.scrambler)])


def build_frames(payloads: np.ndarray, kind: FrameKind) -> np.ndarray:
    """Batch build: (B, payload_bytes) uint8 -> (B, frame_bytes) uint8.  A frame is the preamble,
    then the scrambled body: the RS codewords of the payload's 239-byte slices and the dummy byte(s)."""
    payloads = np.atleast_2d(np.asarray(payloads, dtype=np.uint8))
    if payloads.shape[1] != kind.payload_bytes:
        raise ValueError(f"payloads must have {kind.payload_bytes} columns")
    nfrm, pre, end = payloads.shape[0], kind.preamble_bytes, kind.frame_bytes - kind.dummy_bytes
    zero, frames = _zero_frame(kind), np.empty((nfrm, kind.frame_bytes), dtype=np.uint8)
    frames[:, :pre] = zero[:pre]
    # the codewords scrambled straight into the frames; the dummy bytes, zeros, scramble to the tail
    codewords = rs.encode_blocks(payloads.reshape(-1, rs.MESSAGE_BYTES)).reshape(nfrm, -1, rs.BLOCK_BYTES)
    np.bitwise_xor(codewords, kind.codewords(zero), out=kind.codewords(frames))
    frames[:, end:] = zero[end:]
    return frames


def parse_frame(frame: bytes, kind: FrameKind) -> tuple[bytes, int]:
    """One frame's codewords, descrambled, through `rs.decode_blocks`: returns (payload, corrected
    bytes), or raises FrameError if any is uncorrectable.  The preamble is not re-checked here."""
    codewords = kind.codewords(np.frombuffer(frame, dtype=np.uint8)) ^ kind.codewords(_zero_frame(kind))
    messages, corrected, ok = rs.decode_blocks(codewords)
    if not ok.all():
        raise FrameError("frame has an uncorrectable codeword")
    return messages.tobytes(), int(corrected.sum())

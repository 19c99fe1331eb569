"""GF(2^8) arithmetic and the RS(255, 239) byte code used by the frame pipeline.

Field construction: GF(2^8) with primitive polynomial
x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator alpha = 0x02.  The code is the
conventional systematic RS(255, 239) with generator roots alpha^0 .. alpha^15,
so it corrects up to 8 byte errors per 255-byte block.  Both choices are local
conventions: any consistent pair would work, but these are frozen so encoded
fixtures stay stable.

Byte 0 of a block is the highest-order coefficient of the codeword polynomial
(first transmitted byte), matching the shift-register encoder ordering.

All operations are pure functions; the lookup tables are built once at import
and never mutated, so everything here is safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

PRIM_POLY = 0x11D
BLOCK_BYTES = 255
MESSAGE_BYTES = 239
PARITY_BYTES = BLOCK_BYTES - MESSAGE_BYTES
CORRECTABLE_BYTES = PARITY_BYTES // 2


class RsDecodeFailure(ValueError):
    """Received block has more errors than the code can correct."""


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIM_POLY
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


_EXP, _LOG = _build_tables()


def gf256_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf256_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("GF(256) division by zero")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % 255]


def _generator_poly() -> list[int]:
    """prod_{i=0}^{15} (x - alpha^i), coefficients highest power first, monic."""
    g = [1]
    for i in range(PARITY_BYTES):  # g(x) * (x - alpha^i) = x * g(x) + alpha^i * g(x)
        g = [hi ^ gf256_mul(lo, _EXP[i]) for hi, lo in zip(g + [0], [0] + g)]
    return g


GENERATOR_POLY = _generator_poly()

# Full 256x256 product table; the batch encoder and syndrome computation are
# pure table gathers, which is what keeps 1e5-block runs in seconds.
_EXP_NP = np.array(_EXP, dtype=np.uint8)
_MUL = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
_logs = np.array(_LOG, dtype=np.int64)
_MUL[1:, 1:] = _EXP_NP[(_logs[_nz][:, None] + _logs[_nz][None, :]) % 255]

_GEN_TAIL = np.array(GENERATOR_POLY[1:], dtype=np.uint8)

# _SYND_POW[i, j] = alpha^(i * deg_j) where deg_j = 254 - j is the polynomial
# degree carried by byte j of a block.
_degrees = (BLOCK_BYTES - 1 - np.arange(BLOCK_BYTES, dtype=np.int64)) % 255
_SYND_POW = _EXP_NP[(np.arange(PARITY_BYTES, dtype=np.int64)[:, None] * _degrees[None, :]) % 255]

# Blocks per syndromes_blocks call in decode_blocks: the (B, 16, 255) gather
# stays ~260 kB, and on a 400-block batch 64-block chunks take about as long
# as one call over the whole batch.
_SYND_CHUNK = 64


def encode_blocks(messages: np.ndarray) -> np.ndarray:
    """Systematically encode a (B, 239) uint8 batch into (B, 255) codewords."""
    msgs = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
    if msgs.shape[1] != MESSAGE_BYTES:
        raise ValueError(f"messages must have {MESSAGE_BYTES} columns, got {msgs.shape[1]}")
    nblk = msgs.shape[0]
    parity = np.zeros((nblk, PARITY_BYTES), dtype=np.uint8)
    for j in range(MESSAGE_BYTES):
        feedback = msgs[:, j] ^ parity[:, 0]
        shifted = np.empty_like(parity)
        shifted[:, :-1] = parity[:, 1:]
        shifted[:, -1] = 0
        parity = shifted ^ _MUL[feedback[:, None], _GEN_TAIL[None, :]]
    return np.concatenate([msgs, parity], axis=1)


def syndromes_blocks(blocks: np.ndarray) -> np.ndarray:
    """Syndromes S_i = r(alpha^i), i = 0..15, for a (B, 255) uint8 batch."""
    blk = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
    if blk.shape[1] != BLOCK_BYTES:
        raise ValueError(f"blocks must have {BLOCK_BYTES} columns, got {blk.shape[1]}")
    prods = _MUL[blk[:, None, :], _SYND_POW[None, :, :]]
    return np.bitwise_xor.reduce(prods, axis=2)


def rs_encode(message: bytes) -> bytes:
    """Encode a 239-byte message into a systematic 255-byte codeword."""
    return encode_blocks(np.frombuffer(message, dtype=np.uint8))[0].tobytes()


def _berlekamp_massey(synd: list[int]) -> list[int]:
    """Error locator Lambda(x) from the syndromes, ascending coefficients."""
    lam = [1]
    prev = [1]
    shift = 1
    b = 1
    errors = 0
    for r in range(PARITY_BYTES):
        delta = synd[r]
        for i in range(1, errors + 1):
            if i < len(lam) and lam[i]:
                delta ^= gf256_mul(lam[i], synd[r - i])
        if delta == 0:
            shift += 1
            continue
        coef = gf256_div(delta, b)
        update = lam[:]
        xb = [0] * shift + [gf256_mul(coef, c) for c in prev]
        if len(xb) > len(update):
            update += [0] * (len(xb) - len(update))
        for i, c in enumerate(xb):
            update[i] ^= c
        if 2 * errors <= r:
            prev = lam
            lam = update
            errors = r + 1 - errors
            b = delta
            shift = 1
        else:
            lam = update
            shift += 1
    while len(lam) > 1 and lam[-1] == 0:
        lam.pop()
    return lam


def _find_error_positions(lam: list[int]) -> list[int]:
    """Chien search: byte positions whose locators are roots of Lambda."""
    coeffs = np.array(lam, dtype=np.uint8)
    degs = np.arange(len(lam), dtype=np.int64)
    points = np.arange(255, dtype=np.int64)
    vals = np.bitwise_xor.reduce(_MUL[coeffs[:, None], _EXP_NP[(degs[:, None] * points[None, :]) % 255]], axis=0)
    # Lambda(alpha^e) == 0 means locator X = alpha^(-e); byte p has X = alpha^(254-p).
    return [BLOCK_BYTES - 1 - (255 - int(e)) % 255 for e in np.flatnonzero(vals == 0)]


def _correct(block: np.ndarray, synd: np.ndarray) -> int | None:
    """Correct one block with nonzero syndromes in place (Berlekamp-Massey,
    Chien, Forney); returns the corrected byte count, or None when the block
    is uncorrectable (more than 8 byte errors, in all but a vanishing
    fraction of cases)."""
    synd_list = [int(s) for s in synd]
    lam = _berlekamp_massey(synd_list)
    nerrs = len(lam) - 1
    if nerrs == 0 or nerrs > CORRECTABLE_BYTES:
        return None
    positions = _find_error_positions(lam)
    if len(positions) != nerrs:
        return None  # the error locator does not split over the field

    # Forney, first consecutive root alpha^0: Omega = S * Lambda mod x^16,
    # e_p = X_p * Omega(X_p^-1) / Lambda'(X_p^-1).
    omega = [0] * PARITY_BYTES
    for i, li in enumerate(lam):
        for j in range(PARITY_BYTES - i):
            if li and synd_list[j]:
                omega[i + j] ^= gf256_mul(li, synd_list[j])
    lam_odd = lam[1::2]  # Lambda'(x) = sum of odd-degree terms / x in GF(2^m)

    for p in positions:
        x_log = (BLOCK_BYTES - 1 - p) % 255
        xinv_log = (255 - x_log) % 255
        om = 0
        for i, c in enumerate(omega):
            if c:
                om ^= _EXP[(_LOG[c] + i * xinv_log) % 255]
        dlam = 0
        for i, c in enumerate(lam_odd):
            if c:
                dlam ^= _EXP[(_LOG[c] + (2 * i) * xinv_log) % 255]
        if dlam == 0:
            return None  # degenerate locator derivative
        block[p] ^= gf256_mul(_EXP[x_log], gf256_div(om, dlam))

    if syndromes_blocks(block[None, :])[0].any():
        return None  # the correction did not land on a codeword
    return nerrs


def decode_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (N, 255) uint8 batch into (N, 239) messages, per-block
    corrected byte counts and the per-block success mask.

    Failed rows keep their uncorrected message bytes and count 0.  Syndromes
    are computed _SYND_CHUNK blocks at a time, so temporaries do not grow
    with N; only blocks with nonzero syndromes run the scalar corrector.
    """
    blk = np.asarray(blocks, dtype=np.uint8)
    if blk.ndim != 2 or blk.shape[1] != BLOCK_BYTES:
        raise ValueError(f"blocks must be (N, {BLOCK_BYTES}), got {blk.shape}")
    nblk = blk.shape[0]
    synd = np.empty((nblk, PARITY_BYTES), dtype=np.uint8)
    for lo in range(0, nblk, _SYND_CHUNK):
        synd[lo: lo + _SYND_CHUNK] = syndromes_blocks(blk[lo: lo + _SYND_CHUNK])
    messages = blk[:, :MESSAGE_BYTES].copy()
    corrected = np.zeros(nblk, dtype=np.int64)
    ok = np.ones(nblk, dtype=bool)
    for r in np.flatnonzero(synd.any(axis=1)):
        block = blk[r].copy()
        nerrs = _correct(block, synd[r])
        if nerrs is None:
            ok[r] = False
        else:
            messages[r] = block[:MESSAGE_BYTES]
            corrected[r] = nerrs
    return messages, corrected, ok


def rs_decode(received: bytes) -> tuple[bytes, int]:
    """Decode a 255-byte block; returns (message, corrected byte count).

    Raises RsDecodeFailure whenever the syndromes reveal an uncorrectable
    block (more than 8 byte errors, in all but a vanishing fraction of cases).
    """
    messages, corrected, ok = decode_blocks(np.frombuffer(received, dtype=np.uint8)[None, :])
    if not ok[0]:
        raise RsDecodeFailure("block has more errors than the code can correct")
    return messages[0].tobytes(), int(corrected[0])

"""Scalar RS(255, 239) decoder, kept as the reference for `rs.decode_blocks`.

One block at a time in plain Python: syndromes and the Chien search as
polynomial evaluations through exp/log, textbook Berlekamp-Massey with field
division, Forney's formula, then a re-check that the corrected block is a
codeword.  It builds its own field from `PRIM_POLY` and takes only constants
from `gblink.rs`, so it shares no table with the code it checks; its field
is checked on its own against carry-less multiplication.
"""

from __future__ import annotations

import numpy as np

from gblink import rs
from gblink.rs import BLOCK_BYTES, CORRECTABLE_BYTES, MESSAGE_BYTES, PARITY_BYTES, PRIM_POLY


def _field() -> tuple[list[int], list[int]]:
    """alpha^i for i = 0..254 by repeated doubling mod PRIM_POLY, and the
    discrete logs (log 0 is left at 0 and never read)."""
    exp, log = [], [0] * 256
    x = 1
    for i in range(255):
        exp.append(x)
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIM_POLY
    return exp, log


_EXP, _LOG = _field()
_EXP_ARR, _LOG_ARR = np.array(_EXP, dtype=np.uint8), np.array(_LOG, dtype=np.int64)


def gf256_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return _EXP[(_LOG[a] + _LOG[b]) % 255]


def gf256_div(a: int, b: int) -> int:
    """Quotient of two field elements."""
    if b == 0:
        raise ZeroDivisionError("GF(256) division by zero")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % 255]


def _evaluate(coeffs: np.ndarray, degrees: np.ndarray, points: int) -> np.ndarray:
    """sum_j coeffs[j] x^degrees[j] at x = alpha^e for e = 0 .. points - 1."""
    nz = np.flatnonzero(coeffs)
    logs = _LOG_ARR[coeffs[nz]] + np.arange(points)[:, None] * degrees[nz]
    return np.bitwise_xor.reduce(_EXP_ARR[logs % 255], axis=1)


def syndromes(block: np.ndarray) -> np.ndarray:
    """S_i = r(alpha^i), i = 0..15, of one 255-byte block; byte j carries
    degree 254 - j."""
    return _evaluate(block, BLOCK_BYTES - 1 - np.arange(BLOCK_BYTES), PARITY_BYTES)


def _berlekamp_massey(synd: list[int]) -> tuple[list[int], int]:
    """Error locator Lambda(x) from the syndromes, ascending coefficients,
    and its length L (the shortest LFSR that generates the syndromes)."""
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
    return lam, errors


def _find_error_positions(lam: list[int]) -> list[int]:
    """Chien search: byte positions whose locators are roots of Lambda."""
    vals = _evaluate(np.array(lam, dtype=np.uint8), np.arange(len(lam)), 255)
    # Lambda(alpha^e) == 0 means locator X = alpha^(-e); byte p has X = alpha^(254-p).
    return [BLOCK_BYTES - 1 - (255 - int(e)) % 255 for e in np.flatnonzero(vals == 0)]


def _correct(block: np.ndarray, synd: np.ndarray) -> int | None:
    """Correct one block with nonzero syndromes in place (Berlekamp-Massey,
    Chien, Forney); returns the corrected byte count, or None when the block
    is uncorrectable (more than 8 byte errors, in all but a vanishing
    fraction of cases)."""
    synd_list = [int(s) for s in synd]
    lam, _ = _berlekamp_massey(synd_list)
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

    if syndromes(block).any():
        return None  # the correction did not land on a codeword
    return nerrs


def rs_decode(received: bytes) -> tuple[bytes, int]:
    """Decode one 255-byte block; returns (message, corrected byte count) or
    raises rs.RsDecodeFailure, the contract of `rs.rs_decode`."""
    block = np.frombuffer(received, dtype=np.uint8).copy()
    synd = syndromes(block)
    nerrs = _correct(block, synd) if synd.any() else 0
    if nerrs is None:
        raise rs.RsDecodeFailure("block has more errors than the code can correct")
    return block[:MESSAGE_BYTES].tobytes(), nerrs


def decode_rows(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-by-row `rs_decode` in the shape `rs.decode_blocks` returns: failed
    rows keep their uncorrected message bytes and count 0."""
    messages = blocks[:, :MESSAGE_BYTES].copy()
    corrected = np.zeros(len(blocks), dtype=np.int64)
    ok = np.ones(len(blocks), dtype=bool)
    for r, block in enumerate(blocks):
        try:
            msg, corrected[r] = rs_decode(block.tobytes())
        except rs.RsDecodeFailure:
            ok[r] = False
        else:
            messages[r] = np.frombuffer(msg, dtype=np.uint8)
    return messages, corrected, ok

"""The GF(2^8) field and the RS(255, 239) byte code used by the frame pipeline.

Field construction: GF(2^8) with primitive polynomial
x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator alpha = 0x02, built once in
NumPy: the powers of alpha, their logs and the 256x256 product table `_MUL`,
from which every other table and each product is gathered.  The code is the
conventional systematic RS(255, 239) with generator roots alpha^0 .. alpha^15,
so it corrects up to 8 byte errors per 255-byte block.  Both choices are local
conventions: any consistent pair would work, but these are frozen so encoded
fixtures stay stable.

Byte 0 of a block is the highest-order coefficient of the codeword polynomial
(first transmitted byte), matching the shift-register encoder ordering.

Encoding and decoding are batch-first.  Parity, syndromes (of the remainder mod
g, the parity bytes XOR the message's parity) and the Chien search are
GF(2^8)-linear maps, each a row gather from a position-major product table (row
256 j + x: byte x at input j) and one XOR reduce over the positions
(`_gf256_apply`).  Blocks with nonzero syndromes go through one corrector,
_FIX_ROWS blocks a pass: the reformulated inversionless Berlekamp-Massey, RiBM
(Sarwate & Shanbhag, "High-speed architectures for Reed-Solomon decoders", IEEE
TVLSI 2001), in 16 fixed steps on one (2, 26, R) state (delta_0 .. delta_24 and
a zero over gamma, theta_0 .. theta_24), which ends holding the locator Lambda
and the modified evaluator Omega^h; the table Chien search; Forney's formula
e_p = X_p^-15 Omega^h(X_p^-1) / Lambda'(X_p^-1), exponent 15 (p + 1) in the log
domain, at the located roots; and a re-check that each block is a codeword,
made by adding the corrections' syndromes to the received ones.  The corrector
is coefficient-major (syndromes (16, R), Lambda (9, R)), so each XOR reduce
combines whole rows; each product is one `_mul` gather.

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


def _powers() -> np.ndarray:
    """alpha^0 .. alpha^254 by the LFSR over PRIM_POLY; every index into it is taken mod 255."""
    powers = [1]
    for _ in range(254):
        powers.append(powers[-1] << 1 ^ (PRIM_POLY if powers[-1] & 0x80 else 0))
    return np.array(powers, dtype=np.uint8)


_EXP_NP = _powers()
_LOG_NP = np.zeros(256, dtype=np.int64)  # log 0 is never read
_LOG_NP[_EXP_NP] = np.arange(255)
_MUL = np.zeros((256, 256), dtype=np.uint8)
_MUL[1:, 1:] = _EXP_NP[(_LOG_NP[1:, None] + _LOG_NP[None, 1:]) % 255]


def _generator_poly() -> list[int]:
    """prod_{i=0}^{15} (x - alpha^i), coefficients highest power first, monic."""
    g = np.zeros(PARITY_BYTES + 1, dtype=np.uint8)
    g[0] = 1
    for root in _EXP_NP[:PARITY_BYTES]:  # g(x) (x - root) = x g(x) + root g(x)
        g[1:] ^= _MUL[root, g[:-1]]
    return g.tolist()


GENERATOR_POLY = _generator_poly()

# gathered bytes per table-kernel pass: _ROWS rows of 4 kB (a Chien row gathers 4080 B), 0.5 MB;
# at 0.75-1 MB a pass, a 400-frame encode page-faulted its temporaries back in on every call
_ROWS = 128
_FIX_ROWS = 8 * _ROWS  # errored rows per corrector pass: fewer numpy calls per row, under 2 MB
_OFFSETS = np.arange(0, BLOCK_BYTES << 8, 256, dtype=np.uint16)[:, None]  # input j's first row, 256 j


def _gf256_table(coeffs: np.ndarray) -> np.ndarray:
    """The position-major table of y_k = sum_j coeffs[j, k] x_j over GF(2^8):
    row 256 j + x packs the products MUL[x, coeffs[j]] into words, outputs
    8w .. 8w + 7 in word w, zero past the last output."""
    n_in, n_out = coeffs.shape
    products = np.zeros((n_in, 256, -(-n_out // 8) * 8), dtype=np.uint8)
    products[..., :n_out] = _MUL[:, coeffs].transpose(1, 0, 2)
    return products.view(np.uint64).reshape(n_in * 256, -1)


def _gf256_apply(values: np.ndarray, table: np.ndarray, n_out: int) -> np.ndarray:
    """The (N, n_out) outputs of a `_gf256_table` map, a row gather and an XOR reduce a pass."""
    step = max(1, (_ROWS << 12) // (table.nbytes >> 8))  # table.nbytes >> 8: gathered bytes a row
    offsets = _OFFSETS[:values.shape[1]]
    out = np.empty((values.shape[0], table.shape[1]), dtype=np.uint64)
    for lo in range(0, values.shape[0], step):
        products = np.take(table, values[lo: lo + step].T + offsets, axis=0)  # (n_in, R, words)
        np.bitwise_xor.reduce(products, axis=0, out=out[lo: lo + step])
    return out.view(np.uint8)[:, :n_out]


def _parity_rows() -> np.ndarray:
    """Row j is the parity of message byte j alone, x^(254 - j) mod g(x), as
    16 coefficients highest first; a message's parity is the sum of its
    bytes' rows scaled by the bytes.  Built up from x^16 mod g, the tail of
    the monic g, by x r mod g: shift r up one degree and fold the carried
    x^16 coefficient back in through the tail."""
    tail = np.array(GENERATOR_POLY[1:], dtype=np.uint8)
    rows = [tail]
    for _ in range(MESSAGE_BYTES - 1):
        r = rows[-1]
        rows.append(np.append(r[1:], 0) ^ _MUL[r[0], tail])
    return np.array(rows[::-1])


_PARITY_TABLE = _gf256_table(_parity_rows())

# Syndromes: S_i = sum_j r_j alpha^(i deg_j), where deg_j = 254 - j is the
# polynomial degree carried by byte j; g(alpha^i) = 0, so a remainder mod g has them too.
_SYND_POWERS = _EXP_NP[(np.arange(PARITY_BYTES)[:, None] * np.arange(BLOCK_BYTES - 1, -1, -1)) % 255]
_REM_TABLE = _gf256_table(_SYND_POWERS[:, MESSAGE_BYTES:].T)
# Chien search: column p evaluates Lambda at X_p^-1 = alpha^(p + 1), the
# inverse locator of byte p, so a zero in column p puts an error on byte p.
_CHIEN_POWERS = _EXP_NP[(np.arange(CORRECTABLE_BYTES + 1)[:, None] * np.arange(1, BLOCK_BYTES + 1)) % 255]
_CHIEN_TABLE = _gf256_table(_CHIEN_POWERS)


def encode_blocks(messages: np.ndarray) -> np.ndarray:
    """Systematically encode a (B, 239) uint8 batch into (B, 255) codewords."""
    msgs = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
    if msgs.shape[1] != MESSAGE_BYTES:
        raise ValueError(f"messages must have {MESSAGE_BYTES} columns, got {msgs.shape[1]}")
    return np.concatenate([msgs, _gf256_apply(msgs, _PARITY_TABLE, PARITY_BYTES)], axis=1)


def syndromes_blocks(blocks: np.ndarray) -> np.ndarray:
    """Syndromes S_i = r(alpha^i), i = 0..15, for a (B, 255) uint8 batch, from each block's
    remainder mod g: its parity bytes XOR the encoder's parity of its message bytes."""
    blk = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
    if blk.shape[1] != BLOCK_BYTES:
        raise ValueError(f"blocks must have {BLOCK_BYTES} columns, got {blk.shape[1]}")
    rem = _gf256_apply(blk[:, :MESSAGE_BYTES], _PARITY_TABLE, PARITY_BYTES) ^ blk[:, MESSAGE_BYTES:]
    return _gf256_apply(rem, _REM_TABLE, PARITY_BYTES)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^8) products of broadcast uint8 arrays, one flat `_MUL` gather."""
    return _MUL.ravel().take((a.astype(np.uint16) << 8) | b)


def _key_equation(synd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RiBM over a (16, R) syndrome batch: the locators Lambda (9, R) and the
    modified evaluators Omega^h (8, R), coefficient i in row i, scaled by one
    nonzero constant a column, and the locator lengths L.  Row 0 of the state
    is delta_0 .. delta_24 and a zero, row 1 gamma and theta_0 .. theta_24, so
    a step's products gamma delta_(i+1) and delta_0 theta_i are one gather,
    and one masked copy of row 0 sets gamma = delta_0 and theta_i =
    delta_(i+1) where the length grows; k = r - 2L after r steps.  A locator
    longer than 8 runs off the registers and fails the length check.
    """
    state = np.zeros((2, 3 * CORRECTABLE_BYTES + 2, synd.shape[1]), dtype=np.uint8)
    state[0, :PARITY_BYTES] = state[1, 1: PARITY_BYTES + 1] = synd
    state[0, -2] = state[1, -1] = state[1, 0] = 1  # delta_24 = theta_24 = gamma = 1
    k = np.zeros(synd.shape[1], dtype=np.int64)
    for r in range(PARITY_BYTES):
        live = min(3 * CORRECTABLE_BYTES + 1, 2 * PARITY_BYTES - r)  # no later step reads the rest
        products = _mul(state[::-1, :1], state[:, 1: live + 1])
        grow = (k >= 0) & (state[0, 0] != 0)
        np.copyto(state[1], state[0], where=grow)  # reads delta before this step's update
        np.bitwise_xor(products[0], products[1], out=state[0, :live])
        k += 1
        np.negative(k, out=k, where=grow)
    delta = state[0]
    return delta[CORRECTABLE_BYTES: PARITY_BYTES + 1], delta[:CORRECTABLE_BYTES], (PARITY_BYTES - k) // 2


def _correct_rows(blocks: np.ndarray, synd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correct a (R, 255) batch of blocks with nonzero (16, R) syndromes.

    Returns the corrected blocks, the corrected byte counts and the success
    mask.  A row succeeds when its locator has 1-8 distinct roots among the
    byte positions (Chien), every root has a nonzero locator derivative, and
    the blocks corrected by Forney's formula have zero syndromes.
    """
    lam, omega, length = _key_equation(synd)
    rows, pos = np.divmod(np.flatnonzero(_gf256_apply(lam.T, _CHIEN_TABLE, BLOCK_BYTES) == 0), BLOCK_BYTES)
    good = (length <= CORRECTABLE_BYTES) & (np.bincount(rows, minlength=length.size) == length)
    if not good.any():  # all past the radius, as nearly every row a link call hands over is
        return blocks, length, good
    rows, pos = rows[good[rows]], pos[good[rows]]  # row-sorted roots of the rows still good

    # Forney with the RiBM evaluator and first consecutive root alpha^0 (module
    # docstring); Lambda'(x) is the odd-degree part of Lambda divided by x.
    powers = _CHIEN_POWERS[:CORRECTABLE_BYTES, pos]  # X_p^-k, (8, E)
    om = np.bitwise_xor.reduce(_mul(omega[:, rows], powers), axis=0)
    dlam = np.bitwise_xor.reduce(_mul(lam[1::2, rows], powers[::2]), axis=0)
    good[rows[dlam == 0]] = False
    logs = (PARITY_BYTES - 1) * (pos + 1) + _LOG_NP[om] - _LOG_NP[dlam]
    value = np.where(om == 0, 0, _EXP_NP[logs % 255])
    fixed = blocks.copy()
    fixed[rows, pos] ^= value

    # Re-check by linearity, S(fixed) = S(blocks) + S(corrections); each row's corrections are a run.
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    update = np.bitwise_xor.reduceat(_mul(value, _SYND_POWERS[:, pos]), starts, axis=1)
    good[rows[starts]] &= ~(synd[:, rows[starts]] ^ update).any(axis=0)
    return fixed, length, good


def decode_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (N, 255) uint8 batch into (N, 239) messages, per-block
    corrected byte counts and the per-block success mask.

    Failed rows keep their uncorrected message bytes and count 0.
    """
    blk = np.asarray(blocks, dtype=np.uint8)
    if blk.ndim != 2 or blk.shape[1] != BLOCK_BYTES:
        raise ValueError(f"blocks must be (N, {BLOCK_BYTES}), got {blk.shape}")
    messages = blk[:, :MESSAGE_BYTES].copy()
    corrected = np.zeros(blk.shape[0], dtype=np.int64)
    ok = np.ones(blk.shape[0], dtype=bool)
    if not blk.shape[0]:                      # a clean link call hands over no rows
        return messages, corrected, ok
    synd = syndromes_blocks(blk)
    errored = np.flatnonzero(synd.any(axis=1))
    for lo in range(0, errored.size, _FIX_ROWS):
        idx = errored[lo: lo + _FIX_ROWS]
        fixed, nerrs, good = _correct_rows(blk[idx], np.ascontiguousarray(synd[idx].T))
        messages[idx[good]] = fixed[good, :MESSAGE_BYTES]
        corrected[idx[good]] = nerrs[good]
        ok[idx[~good]] = False
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

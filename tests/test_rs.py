"""GF(2^8) and RS(255,239) tests, checked against independent oracles:
carry-less multiplication with polynomial reduction for the field, scalar
sums of products for the table kernel, plain polynomial long division for the
encoder parity, and the scalar decoder in `rs_oracle` for the batch decoder.

Batch tests that must cross chunk edges patch `rs._ROWS` (table kernels, in
4 kB of gathered table rows a pass) and `rs._FIX_ROWS` (corrector passes)
down, so they stay small whatever the chunk sizes.
"""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rs_oracle
from gblink import rs


def clmul_reduce(a: int, b: int) -> int:
    """Carry-less multiply then reduce mod 0x11D; no tables involved."""
    prod = 0
    for i in range(8):
        if (b >> i) & 1:
            prod ^= a << i
    for bit in range(15, 7, -1):
        if (prod >> bit) & 1:
            prod ^= rs.PRIM_POLY << (bit - 8)
    return prod


def poly_mod_oracle(dividend: list[int], divisor: list[int]) -> list[int]:
    """Remainder of polynomial division over GF(2^8), highest power first."""
    rem = list(dividend)
    dlen = len(divisor)
    for i in range(len(rem) - dlen + 1):
        coef = rem[i]
        if coef == 0:
            continue
        for j in range(dlen):
            rem[i + j] ^= clmul_reduce(divisor[j], coef)
    return rem[-(dlen - 1):]


# SHA-256 of the little-endian bytes of the field and code tables, frozen
# from the first build: a change to how they are built leaves every byte.
TABLE_DIGESTS = {
    "_MUL": "003d1a609783d2740b9b3f00b0cd9e43e42c4f3eedc5ff54ec1709996d52e1e0",
    "_PARITY_TABLE": "645df5eaa9cb2c4c9bf7cf42c3769a95d7e8e5babbe6c2919c397c4cb78a03fb",
    "_REM_TABLE": "1fcf94405b6d14a3aeb8394b043f88619bf01e0afd0e4fea0b5a5f3dac32fff5",
    "_CHIEN_TABLE": "951b54ae2fd3be4211ed5a3c734c6041bbf75e56449ad12468bb8a72fa16c4fc",
    "_SYND_POWERS": "b312b13a0421a015050016c1ff2a7bd3a796042e26a5bc242eef21f45ead6b8a",
    "_CHIEN_POWERS": "fad18cd6ff7719fc95b8b3401986d33abf4a51ceebca414e7268f0e47e6bc9ec",
    "GENERATOR_POLY": "6641d22c3354dbdce8e584f30959cf76cc39919605a5e0a9a9505b636e1b743a",
}


@pytest.mark.parametrize("name", TABLE_DIGESTS)
def test_tables_frozen(name):
    """The three kernel tables are hashed word-major, (words, n_in * 256):
    the transpose of the position-major layout the kernel reads."""
    table = np.asarray(getattr(rs, name), dtype=np.uint8 if name == "GENERATOR_POLY" else None)
    if name in ("_PARITY_TABLE", "_REM_TABLE", "_CHIEN_TABLE"):
        table = np.ascontiguousarray(table.T)
    data = table.astype(table.dtype.newbyteorder("<")).tobytes()
    assert hashlib.sha256(data).hexdigest() == TABLE_DIGESTS[name]


def test_gf_mul_identities():
    """Products reduced by hand, for the oracle and both fields under test."""
    for mul in (clmul_reduce, lambda a, b: int(rs._MUL[a, b]), rs_oracle.gf256_mul):
        assert mul(0, 0xFF) == 0
        assert mul(0xFF, 0) == 0
        assert mul(1, 0xB7) == 0xB7
        # one shift-and-reduce step: 0x80 * x = 0x100 -> ^0x11D -> 0x1D
        assert mul(0x02, 0x80) == 0x1D


@pytest.fixture(scope="module")
def clmul_table() -> np.ndarray:
    """`clmul_reduce` of every pair of field elements."""
    return np.array([[clmul_reduce(a, b) for b in range(256)] for a in range(256)], np.uint8)


def test_gf_mul_matches_clmul_oracle(clmul_table):
    """All 65 536 entries of the product table every kernel gathers from."""
    assert np.array_equal(rs._MUL, clmul_table)


def test_oracle_field_matches_clmul_oracle(clmul_table):
    """The scalar decoder's own field, built apart from `gblink.rs`."""
    products = [[rs_oracle.gf256_mul(a, b) for b in range(256)] for a in range(256)]
    assert np.array_equal(np.array(products, np.uint8), clmul_table)


def test_gf_addition_self_inverse():
    for a in (0, 1, 0x53, 0xFF):
        assert a ^ a == 0


def test_gf_div_pow_inv():
    rng = np.random.default_rng(1)
    for a, b in rng.integers(1, 256, (200, 2)):
        a, b = int(a), int(b)
        assert clmul_reduce(rs_oracle.gf256_div(a, b), b) == a
        assert clmul_reduce(a, rs_oracle.gf256_div(1, a)) == 1
    # alpha = 0x02 generates the multiplicative group: order exactly 255
    powers = [1]
    for _ in range(255):
        powers.append(clmul_reduce(powers[-1], 0x02))
    assert powers[255] == 1 and len(set(powers[:255])) == 255
    with pytest.raises(ZeroDivisionError):
        rs_oracle.gf256_div(1, 0)


def scalar_map(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """y_k = XOR_j x_j coeffs[j, k] for each row, one product at a time in the
    oracle's field."""
    out = np.zeros((x.shape[0], coeffs.shape[1]), np.uint8)
    for row, values in zip(out, x):
        for xj, cj in zip(values.tolist(), coeffs.tolist()):
            row ^= np.array([rs_oracle.gf256_mul(xj, c) for c in cj], np.uint8)
    return out


@pytest.mark.parametrize("rows", [0, 1, 11])
@pytest.mark.parametrize("n_in,n_out", [(1, 1), (5, 13), (17, 30), (3, 71)])
def test_table_kernel_matches_scalar_sum(n_in, n_out, rows):
    rng = np.random.default_rng(1000 * n_in + n_out)
    coeffs = rng.integers(0, 256, (n_in, n_out), dtype=np.uint8)
    x = rng.integers(0, 256, (rows, n_in), dtype=np.uint8)
    with mock.patch.object(rs, "_ROWS", 4):
        y = rs._gf256_apply(x, rs._gf256_table(coeffs), n_out)
    assert y.shape == (rows, n_out) and y.dtype == np.uint8
    assert np.array_equal(y, scalar_map(x, coeffs))


def test_table_kernel_one_row_a_pass():
    """At `_ROWS` = 0 a pass takes one row, however narrow the table."""
    rng = np.random.default_rng(3)
    coeffs = rng.integers(0, 256, (17, 30), dtype=np.uint8)
    x = rng.integers(0, 256, (11, 17), dtype=np.uint8)
    with mock.patch.object(rs, "_ROWS", 0):
        assert np.array_equal(rs._gf256_apply(x, rs._gf256_table(coeffs), 30), scalar_map(x, coeffs))


def _alpha_powers() -> list[int]:
    powers = [1]
    for _ in range(254):
        powers.append(clmul_reduce(powers[-1], 0x02))
    return powers


@pytest.mark.parametrize("name", ["parity", "syndromes", "chien"])
def test_code_tables_match_scalar_sum(name):
    """Parity rows are checked against long division by the encoder tests;
    syndrome column i weights remainder byte k, of degree 15 - k, by
    alpha^(i (15 - k)), and Chien column p evaluates the locator at
    alpha^(p + 1)."""
    alpha = _alpha_powers()
    table, coeffs = {
        "parity": (rs._PARITY_TABLE, rs._parity_rows()),
        "syndromes": (rs._REM_TABLE, np.array(
            [[alpha[i * (15 - k) % 255] for i in range(16)] for k in range(16)], np.uint8)),
        "chien": (rs._CHIEN_TABLE, np.array(
            [[alpha[i * (p + 1) % 255] for p in range(255)] for i in range(9)], np.uint8)),
    }[name]
    x = np.random.default_rng(5).integers(0, 256, (9, coeffs.shape[0]), dtype=np.uint8)
    with mock.patch.object(rs, "_ROWS", 4):
        y = rs._gf256_apply(x, table, coeffs.shape[1])
    assert np.array_equal(y, scalar_map(x, coeffs))


def encode(message: np.ndarray) -> np.ndarray:
    """The codeword of one 239-byte message."""
    return rs.encode_blocks(message[None, :])[0]


def test_encode_all_zero():
    assert not rs.encode_blocks(np.zeros((1, 239), np.uint8)).any()


def test_encode_parity_matches_long_division():
    # byte 0 of the message carries x^238; shifted by the 16 parity positions
    # the systematic parity of e0 is the remainder of x^254 / g(x)
    message = np.zeros(239, np.uint8)
    message[0] = 1
    cw = encode(message)
    dividend = [1] + [0] * 254
    rem = poly_mod_oracle(dividend, rs.GENERATOR_POLY)
    assert list(cw[239:]) == rem


def test_encode_random_message_against_long_division():
    rng = np.random.default_rng(2)
    msg = rng.integers(0, 256, 239, dtype=np.uint8)
    cw = encode(msg)
    dividend = [int(b) for b in msg] + [0] * 16
    rem = poly_mod_oracle(dividend, rs.GENERATOR_POLY)
    assert list(cw[239:]) == rem


def test_encode_linearity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m1 = rng.integers(0, 256, 239, dtype=np.uint8)
        m2 = rng.integers(0, 256, 239, dtype=np.uint8)
        assert np.array_equal(encode(m1) ^ encode(m2), encode(m1 ^ m2))


def test_encode_length_check():
    with pytest.raises(ValueError):
        rs.encode_blocks(np.zeros((1, 200), np.uint8))
    with pytest.raises(ValueError):
        rs.rs_decode(bytes(100))
    with pytest.raises(ValueError, match="255 columns"):
        rs.syndromes_blocks(np.zeros((2, 254), np.uint8))


def test_decode_nine_errors_raises():
    """Nine byte errors are one past the correction radius: the single-block
    wrapper raises, as the scalar decoder does, rather than return the
    uncorrected message."""
    rng = np.random.default_rng(41)
    cw = encode(rng.integers(0, 256, 239, dtype=np.uint8))
    cw[rng.choice(255, 9, replace=False)] ^= rng.integers(1, 256, 9).astype(np.uint8)
    for decode in (rs.rs_decode, rs_oracle.rs_decode):
        with pytest.raises(rs.RsDecodeFailure):
            decode(cw.tobytes())


def test_decode_clean():
    msg = np.arange(239, dtype=np.uint8)
    assert rs.rs_decode(encode(msg).tobytes()) == (msg.tobytes(), 0)


@pytest.mark.parametrize("weight", range(1, 9))
def test_decode_corrects_up_to_8(weight):
    rng = np.random.default_rng(weight)
    for _ in range(50):
        msg = rng.integers(0, 256, 239, dtype=np.uint8)
        cw = encode(msg)
        for pos in rng.choice(255, weight, replace=False):
            cw[pos] ^= int(rng.integers(1, 256))
        decoded, corrected = rs.rs_decode(cw.tobytes())
        assert decoded == msg.tobytes()
        assert corrected == weight


def test_decode_round_trip_random_weights():
    rng = np.random.default_rng(7)
    msgs = rng.integers(0, 256, (2000, 239), dtype=np.uint8)
    blocks = rs.encode_blocks(msgs)
    weights = np.zeros(msgs.shape[0], dtype=np.int64)
    for i in range(msgs.shape[0]):
        w = weights[i] = int(rng.integers(0, 9))
        if w:
            pos = rng.choice(255, w, replace=False)
            blocks[i, pos] ^= rng.integers(1, 256, w).astype(np.uint8)
    decoded, corrected, ok = rs.decode_blocks(blocks)
    for i in range(msgs.shape[0]):
        assert ok[i]
        assert decoded[i].tobytes() == msgs[i].tobytes()
        assert corrected[i] == weights[i]


def test_decode_twenty_errors_detected():
    """9+ errors exceed the correction radius; 20 must (almost) always be
    flagged rather than silently miscorrected."""
    rng = np.random.default_rng(11)
    msg = rng.integers(0, 256, 239, dtype=np.uint8).tobytes()
    cw = encode(np.frombuffer(msg, np.uint8))
    trials = 10_000
    blocks = np.tile(cw, (trials, 1))
    for blk in blocks:
        pos = rng.choice(255, 20, replace=False)
        blk[pos] ^= rng.integers(1, 256, 20).astype(np.uint8)
    decoded, _, ok = rs.decode_blocks(blocks)
    # a wrong message with ok set would be a silent miscorrection
    detected = int(np.count_nonzero(~ok | (decoded != np.frombuffer(msg, np.uint8)).any(axis=1)))
    rate = detected / trials
    print(f"20-error detection rate: {rate:.5f}")
    assert rate > 0.999


def test_valid_decode_reencodes_to_zero_syndromes():
    rng = np.random.default_rng(13)
    msg = rng.integers(0, 256, 239, dtype=np.uint8)
    cw = encode(msg)
    for pos in rng.choice(255, 5, replace=False):
        cw[pos] ^= int(rng.integers(1, 256))
    decoded, _ = rs.rs_decode(cw.tobytes())
    recoded = rs.encode_blocks(np.frombuffer(decoded, np.uint8))
    assert not rs.syndromes_blocks(recoded).any()


def test_batch_encode_matches_scalar():
    """A batch spanning four kernel chunks against per-row long division."""
    rng = np.random.default_rng(17)
    msgs = rng.integers(0, 256, (27, 239), dtype=np.uint8)
    with mock.patch.object(rs, "_ROWS", 8):
        blocks = rs.encode_blocks(msgs)
    assert (blocks[:, :239] == msgs).all()
    for msg, block in zip(msgs, blocks):
        rem = poly_mod_oracle([int(b) for b in msg] + [0] * 16, rs.GENERATOR_POLY)
        assert list(block[239:]) == rem


def test_decode_blocks_mixed_batch():
    """A batch spanning several syndrome and corrector chunks, mixing clean,
    correctable and uncorrectable rows; failed rows keep their uncorrected
    bytes."""
    rng = np.random.default_rng(19)
    n = 40
    msgs = rng.integers(0, 256, (n, 239), dtype=np.uint8)
    blocks = rs.encode_blocks(msgs)
    weights = rng.choice([0, 0, 3, 8, 20], n)
    for i, w in enumerate(weights):
        pos = rng.choice(255, w, replace=False)
        blocks[i, pos] ^= rng.integers(1, 256, w).astype(np.uint8)
    with mock.patch.object(rs, "_ROWS", 4), mock.patch.object(rs, "_FIX_ROWS", 8):
        messages, corrected, ok = rs.decode_blocks(blocks)
        _assert_matches_oracle(blocks)
        # three or more corrector passes, each over two table-kernel chunks
        assert np.count_nonzero(weights) > 2 * rs._FIX_ROWS and rs._FIX_ROWS == 2 * rs._ROWS
    assert messages.shape == (n, 239) and corrected.shape == ok.shape == (n,)
    good = weights <= 8
    assert ok[good].all() and np.array_equal(corrected[good], weights[good])
    assert np.array_equal(messages[good], msgs[good])
    assert not ok[~good].any() and not corrected[~good].any()
    assert np.array_equal(messages[~good], blocks[~good, :239])


def test_decode_blocks_memory_bounded_by_chunks():
    """Eight corrector passes of errored rows: the traced peak is the
    whole-batch outputs and syndromes (about 273 bytes a block) plus the
    temporaries of one table-kernel chunk and one corrector pass, so a
    criterion-5 sized decode never holds whole-batch temporaries."""
    rng = np.random.default_rng(31)
    n = 8 * rs._FIX_ROWS
    blocks = rs.encode_blocks(rng.integers(0, 256, (n, 239), dtype=np.uint8))
    for _ in range(3):
        blocks[np.arange(n), rng.integers(0, 255, n)] ^= rng.integers(1, 256, n, dtype=np.uint8)
    tracemalloc.start()
    try:
        _, _, ok = rs.decode_blocks(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all()
    assert peak < 300 * n + (16 * rs._ROWS + 8 * rs._FIX_ROWS) * rs.BLOCK_BYTES


def test_decode_blocks_empty_batch():
    messages, corrected, ok = rs.decode_blocks(np.zeros((0, 255), np.uint8))
    assert messages.shape == (0, 239) and corrected.size == 0 and ok.size == 0
    with pytest.raises(ValueError):
        rs.decode_blocks(np.zeros((2, 254), np.uint8))


def test_decode_blocks_zero_rows_skip_the_syndrome_pass():
    """A clean link call hands over no rows: the result has the shapes and
    dtypes of a decoded batch, and no syndrome is computed."""
    def no_syndromes(blocks):
        raise AssertionError("zero rows reached the syndrome pass")

    with mock.patch.object(rs, "syndromes_blocks", no_syndromes):
        messages, corrected, ok = rs.decode_blocks(np.zeros((0, 255), np.uint8))
    assert (messages.shape, messages.dtype) == ((0, 239), np.uint8)
    assert (corrected.shape, corrected.dtype) == ((0,), np.int64)
    assert (ok.shape, ok.dtype) == ((0,), np.bool_)

def _corrupt(rng, n: int, max_errors: int) -> tuple[np.ndarray, np.ndarray]:
    """n random codewords with 0..max_errors random byte errors each."""
    blocks = rs.encode_blocks(rng.integers(0, 256, (n, 239), dtype=np.uint8))
    weights = rng.integers(0, max_errors + 1, n)
    for blk, w in zip(blocks, weights):
        blk[rng.choice(255, w, replace=False)] ^= rng.integers(1, 256, w).astype(np.uint8)
    return blocks, weights


def _assert_matches_oracle(blocks: np.ndarray) -> np.ndarray:
    messages, corrected, ok = rs.decode_blocks(blocks)
    ref_messages, ref_corrected, ref_ok = rs_oracle.decode_rows(blocks)
    assert np.array_equal(ok, ref_ok)
    assert np.array_equal(corrected, ref_corrected)
    assert np.array_equal(messages, ref_messages)
    return ok


def test_corrector_output_is_a_codeword_at_its_count():
    """Every row `_correct_rows` marks good is a codeword, and its corrected
    count is the number of bytes it changed; every row within the
    correction radius is good."""
    blocks, weights = _corrupt(np.random.default_rng(37), 3000, 20)
    errored = np.flatnonzero(rs.syndromes_blocks(blocks).any(axis=1))
    received = blocks[errored]
    fixed, counts, good = rs._correct_rows(received, rs.syndromes_blocks(received).T.copy())
    assert good[weights[errored] <= 8].all() and not good.all()
    assert not rs.syndromes_blocks(fixed[good]).any()
    assert np.array_equal(counts[good], np.count_nonzero(fixed[good] != received[good], axis=1))


def _poly_at(coeffs, x: int) -> int:
    """sum_i coeffs[i] x^i in the oracle's field, by Horner's rule."""
    acc = 0
    for c in reversed([int(c) for c in coeffs]):
        acc = rs_oracle.gf256_mul(acc, x) ^ c
    return acc


def test_key_equation_matches_scalar_berlekamp_massey():
    """RiBM on seeded syndromes against the textbook Berlekamp-Massey of the
    oracle: the syndromes of 1-8 byte error patterns (within the radius) and
    random ones with 0-15 leading zeros (past it, L = 8 and longer).  L
    always agrees.  Where L <= 8 the locator is the oracle's up to one
    nonzero scale, and within the radius Forney's formula with the RiBM
    evaluator, e_p = X_p^-15 Omega^h(X_p^-1) / Lambda'(X_p^-1), gives back
    every error value."""
    rng = np.random.default_rng(43)
    n_err, n_rand = 300, 500
    weights = rng.integers(1, rs.CORRECTABLE_BYTES + 1, n_err)
    patterns = np.zeros((n_err, rs.BLOCK_BYTES), np.uint8)
    for row, w in zip(patterns, weights):
        row[rng.choice(rs.BLOCK_BYTES, w, replace=False)] = rng.integers(1, 256, w)
    past = rng.integers(0, 256, (n_rand, rs.PARITY_BYTES), dtype=np.uint8)
    past[np.arange(rs.PARITY_BYTES) < rng.integers(0, rs.PARITY_BYTES, n_rand)[:, None]] = 0
    synd = np.concatenate([np.stack([rs_oracle.syndromes(e) for e in patterns]), past])
    lam, omega, length = rs._key_equation(np.ascontiguousarray(synd.T))
    ref = [rs_oracle._berlekamp_massey(s.tolist()) for s in synd]
    assert np.array_equal(length, [n for _, n in ref])
    assert np.array_equal(length[:n_err], weights)
    assert (length[n_err:] == 8).sum() > n_rand // 4 and (length[n_err:] > 8).sum() > n_rand // 4
    for col in np.flatnonzero(length <= rs.CORRECTABLE_BYTES):
        scale, locator = int(lam[0, col]), ref[col][0]
        locator += [0] * (rs.CORRECTABLE_BYTES + 1 - len(locator))
        assert scale and lam[:, col].tolist() == [rs_oracle.gf256_mul(scale, c) for c in locator]
    for col, pattern in enumerate(patterns):
        for p in np.flatnonzero(pattern):
            x_inv = rs_oracle._EXP[(p + 1) % 255]  # X_p^-1 = alpha^(p + 1)
            dlam = _poly_at(lam[1::2, col], rs_oracle.gf256_mul(x_inv, x_inv))  # Lambda'(X_p^-1)
            num = rs_oracle.gf256_mul(rs_oracle._EXP[15 * (p + 1) % 255], _poly_at(omega[:, col], x_inv))
            assert rs_oracle.gf256_div(num, dlam) == pattern[p]


def test_rows_past_the_radius_stop_at_the_root_count():
    """50 codewords with 12 byte errors each: no row's locator has as many
    roots as its length, so the corrector returns before Forney and the
    re-check, and the decode makes no `_mul` call past the 16 RiBM steps."""
    rng = np.random.default_rng(47)
    blocks = rs.encode_blocks(rng.integers(0, 256, (50, 239), dtype=np.uint8))
    for blk in blocks:
        blk[rng.choice(255, 12, replace=False)] ^= rng.integers(1, 256, 12).astype(np.uint8)
    with mock.patch.object(rs, "_mul", wraps=rs._mul) as mul:
        _, corrected, ok = rs.decode_blocks(blocks)
    assert not ok.any() and not corrected.any()
    assert mul.call_count == rs.PARITY_BYTES


def test_syndromes_match_table_gather():
    blocks, _ = _corrupt(np.random.default_rng(23), 300, 20)
    expected = np.stack([rs_oracle.syndromes(blk) for blk in blocks])
    assert np.array_equal(rs.syndromes_blocks(blocks), expected)


def test_decode_blocks_matches_oracle_seeded():
    """Every row of a batch with 0-20 byte errors per block: messages,
    corrected counts and success agree with the scalar decoder."""
    blocks, weights = _corrupt(np.random.default_rng(29), 3000, 20)
    ok = _assert_matches_oracle(blocks)
    assert ok[weights <= 8].all() and not ok[weights >= 12].any()


@st.composite
def _corrupted_block(draw, first: int = 0, last: int = 254) -> np.ndarray:
    """A codeword with 0-40 byte errors, all on bytes first .. last: within
    the radius, past it, and far past it."""
    message = np.frombuffer(draw(st.binary(min_size=239, max_size=239)), np.uint8)
    positions = draw(st.lists(st.integers(first, last), max_size=min(40, last - first + 1), unique=True))
    values = draw(st.lists(st.integers(1, 255), min_size=len(positions),
                           max_size=len(positions)))
    block = rs.encode_blocks(message)[0]
    block[positions] ^= np.array(values, dtype=np.uint8)
    return block


@settings(max_examples=40, deadline=None)
@given(st.lists(_corrupted_block(), min_size=1, max_size=80))
def test_decode_blocks_matches_oracle_hypothesis(blocks):
    _assert_matches_oracle(np.stack(blocks))


# errors in the parity bytes only, the message bytes only, or anywhere: the
# remainder is the parity bytes XOR the message's parity, and each side gets some
_ERROR_SPANS = [(rs.MESSAGE_BYTES, 254), (0, rs.MESSAGE_BYTES - 1), (0, 254)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_ERROR_SPANS).flatmap(lambda span: _corrupted_block(*span)),
                min_size=1, max_size=80))
def test_syndromes_match_oracle_hypothesis(blocks):
    blocks = np.stack(blocks)
    expected = np.stack([rs_oracle.syndromes(blk) for blk in blocks])
    assert np.array_equal(rs.syndromes_blocks(blocks), expected)


@st.composite
def _syndrome_row(draw) -> np.ndarray:
    """16 syndromes: random ones with a zero prefix of any length, or a
    codeword's with 0-40 byte errors."""
    if draw(st.booleans()):
        synd = np.frombuffer(draw(st.binary(min_size=16, max_size=16)), np.uint8).copy()
        synd[:draw(st.integers(0, rs.PARITY_BYTES))] = 0
        return synd
    return rs.syndromes_blocks(draw(_corrupted_block()))[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(_syndrome_row(), min_size=1, max_size=64))
def test_key_equation_locator_fits_its_length(rows):
    """The facts `_correct_rows` leans on instead of two checks: Chien finds
    at most 8 roots of the 9 held coefficients (255 only if all were 0), so
    no root count equals a length L of 9-16; and where L <= 8, Lambda_0 != 0
    and no coefficient lies above L, so L distinct roots are simple ones.
    Past the radius Lambda_0 may be 0: the held coefficients are then not
    the locator's alone (syndromes 0 x 10, 92, 0, 0, 151, 0, 0 give L = 11)."""
    lam, _, length = rs._key_equation(np.ascontiguousarray(np.stack(rows).T))
    roots = np.count_nonzero(rs._gf256_apply(lam.T, rs._CHIEN_TABLE, rs.BLOCK_BYTES) == 0, axis=1)
    assert (roots <= rs.CORRECTABLE_BYTES).all()
    short = length <= rs.CORRECTABLE_BYTES
    assert lam[0, short].all()
    above = np.where(np.arange(rs.CORRECTABLE_BYTES + 1)[:, None] > length, lam, 0)
    assert not above[:, short].any()


def test_recheck_rejects_wrong_forney_values():
    """Forney reads its powers X_p^-k from `_CHIEN_POWERS` at call time (the
    Chien table was built from it at import), so shifting them one byte
    position keeps every located position but, in nearly every row with 2-8
    errors, makes some error value wrong.  The re-check alone then stands
    between those values and an ok row: every row Forney got wrong fails,
    every other row decodes, and no row is ok with a wrong message."""
    rng = np.random.default_rng(53)
    msgs = rng.integers(0, 256, (400, 239), dtype=np.uint8)
    codewords = rs.encode_blocks(msgs)
    blocks, weights = codewords.copy(), rng.integers(1, rs.CORRECTABLE_BYTES + 1, len(msgs))
    for blk, w in zip(blocks, weights):
        blk[rng.choice(255, w, replace=False)] ^= rng.integers(1, 256, w).astype(np.uint8)
    with mock.patch.object(rs, "_CHIEN_POWERS", np.roll(rs._CHIEN_POWERS, 1, axis=1)):
        messages, corrected, ok = rs.decode_blocks(blocks)
        fixed, _, _ = rs._correct_rows(blocks, np.ascontiguousarray(rs.syndromes_blocks(blocks).T))
    wrong = (fixed != codewords).any(axis=1)  # a row Forney left with a wrong byte
    assert not wrong[weights == 1].any() and wrong[weights >= 2].mean() > 0.95
    assert not ok[wrong].any() and not corrected[wrong].any() and ok[~wrong].all()
    assert np.array_equal(messages[ok], msgs[ok])


def test_crafted_miscorrection():
    """The codeword of the unit message is the generator polynomial (17
    nonzero bytes).  Nine of its bytes on the all-zero codeword are nine
    errors away from the sent word but eight from the unit codeword, so a
    bounded-distance decoder reports a successful 8-byte correction to the
    wrong message."""
    unit = bytes(238) + b"\x01"
    g = encode(np.frombuffer(unit, np.uint8))
    support = np.flatnonzero(g)
    assert support.size == 17 and g[support].tolist() == rs.GENERATOR_POLY
    received = np.zeros(255, np.uint8)
    received[support[:9]] = g[support[:9]]
    messages, corrected, ok = rs.decode_blocks(received[None, :])
    assert ok[0] and corrected[0] == 8
    assert messages[0].tobytes() == unit != bytes(239)
    assert rs_oracle.rs_decode(received.tobytes()) == (unit, 8)


def test_miscorrected_share_beyond_t_under_mceliece_swanson_bound():
    """200 000 patterns of 9-20 random byte errors, uniform in weight, on the
    all-zero codeword.  No codeword lies within 8 bytes of both the sent word
    and such a pattern, so every block the decoder accepts is miscorrected.
    Their share stays under 1/t! = 2.5e-5 (McEliece & Swanson, IEEE Trans. IT
    32(5), 1986); about 2.1e-5 of all words lie within 8 bytes of a codeword.
    A decoder that skipped its Chien root count would accept many more."""
    rng = np.random.default_rng(1986)
    n, chunk, most = 200_000, 20_000, 20
    accepted = []
    for c in range(n // chunk):
        weights = rng.integers(rs.CORRECTABLE_BYTES + 1, most + 1, chunk)
        positions = rng.random((chunk, rs.BLOCK_BYTES)).argpartition(most, axis=1)[:, :most]
        keep = np.arange(most) < weights[:, None]
        blocks = np.zeros((chunk, rs.BLOCK_BYTES), np.uint8)
        blocks[np.nonzero(keep)[0], positions[keep]] = rng.integers(1, 256, np.count_nonzero(keep))
        _, corrected, ok = rs.decode_blocks(blocks)
        assert (corrected[ok] <= rs.CORRECTABLE_BYTES).all()
        accepted += [(c, int(r), int(corrected[r])) for r in np.flatnonzero(ok)]
    assert 0 < len(accepted) < n / math.factorial(rs.CORRECTABLE_BYTES)
    # (chunk, row, corrected bytes), frozen: the bounded-distance rule fixes
    # which patterns are accepted, so any correct rewrite accepts exactly these
    assert accepted == [(0, 11481, 8), (5, 2140, 8), (9, 7368, 8), (9, 18322, 8)]

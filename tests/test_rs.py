"""GF(2^8) and RS(255,239) tests, checked against independent oracles:
carry-less multiplication with polynomial reduction for the field, and plain
polynomial long division for the encoder parity.
"""

import numpy as np
import pytest

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


def test_gf_mul_identities():
    assert rs.gf256_mul(0, 0xFF) == 0
    assert rs.gf256_mul(0xFF, 0) == 0
    assert rs.gf256_mul(1, 0xB7) == 0xB7
    # one shift-and-reduce step: 0x80 * x = 0x100 -> ^0x11D -> 0x1D
    assert rs.gf256_mul(0x02, 0x80) == 0x1D


def test_gf_mul_matches_clmul_oracle():
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 256, (2000, 2))
    for a, b in pairs:
        assert rs.gf256_mul(int(a), int(b)) == clmul_reduce(int(a), int(b))


def test_gf_addition_self_inverse():
    for a in (0, 1, 0x53, 0xFF):
        assert a ^ a == 0


def test_gf_div_pow_inv():
    rng = np.random.default_rng(1)
    for a, b in rng.integers(1, 256, (200, 2)):
        a, b = int(a), int(b)
        assert rs.gf256_mul(rs.gf256_div(a, b), b) == a
        assert rs.gf256_mul(a, rs.gf256_div(1, a)) == 1
    # alpha = 0x02 generates the multiplicative group: order exactly 255
    powers = [1]
    for _ in range(255):
        powers.append(rs.gf256_mul(powers[-1], 0x02))
    assert powers[255] == 1 and len(set(powers[:255])) == 255
    with pytest.raises(ZeroDivisionError):
        rs.gf256_div(1, 0)


def test_encode_all_zero():
    assert rs.rs_encode(bytes(239)) == bytes(255)


def test_encode_parity_matches_long_division():
    # byte 0 of the message carries x^238; shifted by the 16 parity positions
    # the systematic parity of e0 is the remainder of x^254 / g(x)
    message = bytes([1]) + bytes(238)
    cw = rs.rs_encode(message)
    dividend = [1] + [0] * 254
    rem = poly_mod_oracle(dividend, rs.GENERATOR_POLY)
    assert list(cw[239:]) == rem


def test_encode_random_message_against_long_division():
    rng = np.random.default_rng(2)
    msg = rng.integers(0, 256, 239, dtype=np.uint8)
    cw = rs.rs_encode(msg.tobytes())
    dividend = [int(b) for b in msg] + [0] * 16
    rem = poly_mod_oracle(dividend, rs.GENERATOR_POLY)
    assert list(cw[239:]) == rem


def test_encode_linearity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m1 = rng.integers(0, 256, 239, dtype=np.uint8)
        m2 = rng.integers(0, 256, 239, dtype=np.uint8)
        e1 = np.frombuffer(rs.rs_encode(m1.tobytes()), np.uint8)
        e2 = np.frombuffer(rs.rs_encode(m2.tobytes()), np.uint8)
        e12 = np.frombuffer(rs.rs_encode((m1 ^ m2).tobytes()), np.uint8)
        assert np.array_equal(e1 ^ e2, e12)


def test_encode_length_check():
    with pytest.raises(ValueError):
        rs.rs_encode(bytes(200))
    with pytest.raises(ValueError):
        rs.rs_decode(bytes(100))


def test_decode_clean():
    msg = bytes(range(239))
    cw = rs.rs_encode(msg)
    assert rs.rs_decode(cw) == (msg, 0)


@pytest.mark.parametrize("weight", range(1, 9))
def test_decode_corrects_up_to_8(weight):
    rng = np.random.default_rng(weight)
    for _ in range(50):
        msg = rng.integers(0, 256, 239, dtype=np.uint8).tobytes()
        cw = bytearray(rs.rs_encode(msg))
        for pos in rng.choice(255, weight, replace=False):
            cw[pos] ^= int(rng.integers(1, 256))
        decoded, corrected = rs.rs_decode(bytes(cw))
        assert decoded == msg
        assert corrected == weight


def test_decode_round_trip_random_weights():
    rng = np.random.default_rng(7)
    msgs = rng.integers(0, 256, (2000, 239), dtype=np.uint8)
    blocks = rs.encode_blocks(msgs)
    for i in range(msgs.shape[0]):
        w = int(rng.integers(0, 9))
        blk = blocks[i].copy()
        if w:
            pos = rng.choice(255, w, replace=False)
            blk[pos] ^= rng.integers(1, 256, w).astype(np.uint8)
        decoded, corrected = rs.rs_decode(blk.tobytes())
        assert decoded == msgs[i].tobytes()
        assert corrected == w


def test_decode_twenty_errors_detected():
    """9+ errors exceed the correction radius; 20 must (almost) always be
    flagged rather than silently miscorrected."""
    rng = np.random.default_rng(11)
    msg = rng.integers(0, 256, 239, dtype=np.uint8).tobytes()
    cw = np.frombuffer(rs.rs_encode(msg), np.uint8)
    trials, detected = 10_000, 0
    for _ in range(trials):
        blk = cw.copy()
        pos = rng.choice(255, 20, replace=False)
        blk[pos] ^= rng.integers(1, 256, 20).astype(np.uint8)
        try:
            decoded, _ = rs.rs_decode(blk.tobytes())
            if decoded != msg:
                detected += 1  # wrong answer would be a silent miscorrection
        except rs.RsDecodeFailure:
            detected += 1
    rate = detected / trials
    print(f"20-error detection rate: {rate:.5f}")
    assert rate > 0.999


def test_valid_decode_reencodes_to_zero_syndromes():
    rng = np.random.default_rng(13)
    msg = rng.integers(0, 256, 239, dtype=np.uint8).tobytes()
    cw = bytearray(rs.rs_encode(msg))
    for pos in rng.choice(255, 5, replace=False):
        cw[pos] ^= int(rng.integers(1, 256))
    decoded, _ = rs.rs_decode(bytes(cw))
    recoded = np.frombuffer(rs.rs_encode(decoded), np.uint8)
    assert not rs.syndromes_blocks(recoded[None, :]).any()


def test_batch_encode_matches_scalar():
    rng = np.random.default_rng(17)
    msgs = rng.integers(0, 256, (32, 239), dtype=np.uint8)
    blocks = rs.encode_blocks(msgs)
    for i in range(32):
        assert blocks[i].tobytes() == rs.rs_encode(msgs[i].tobytes())


def test_decode_blocks_mixed_batch():
    """A batch spanning several syndrome chunks, mixing clean, correctable
    and uncorrectable rows; failed rows keep their uncorrected bytes."""
    rng = np.random.default_rng(19)
    n = 150
    msgs = rng.integers(0, 256, (n, 239), dtype=np.uint8)
    blocks = rs.encode_blocks(msgs)
    weights = rng.choice([0, 0, 3, 8, 20], n)
    for i, w in enumerate(weights):
        pos = rng.choice(255, w, replace=False)
        blocks[i, pos] ^= rng.integers(1, 256, w).astype(np.uint8)
    messages, corrected, ok = rs.decode_blocks(blocks)
    assert messages.shape == (n, 239) and corrected.shape == ok.shape == (n,)
    good = weights <= 8
    assert ok[good].all() and np.array_equal(corrected[good], weights[good])
    assert np.array_equal(messages[good], msgs[good])
    assert not ok[~good].any() and not corrected[~good].any()
    assert np.array_equal(messages[~good], blocks[~good, :239])


def test_decode_blocks_empty_batch():
    messages, corrected, ok = rs.decode_blocks(np.zeros((0, 255), np.uint8))
    assert messages.shape == (0, 239) and corrected.size == 0 and ok.size == 0
    with pytest.raises(ValueError):
        rs.decode_blocks(np.zeros((2, 254), np.uint8))

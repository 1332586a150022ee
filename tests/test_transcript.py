"""Transcript, PRF and hash-to-group behaviour, including statistical checks."""

import math
import random

import pytest

from vckit.errors import UsageError
from vckit.field import DEFAULT_MODULUS, Field
from vckit.primes import is_prime
from vckit.transcript import PrfKey, Transcript, hash_to_group, prf

FBIG = Field(DEFAULT_MODULUS)

# 0.999 quantiles of the chi-squared distribution with 15 and 7 degrees of
# freedom, each written to the full double precision of its inverse-CDF
# value and not rounded up
CHI2_999_DF15 = 37.69729821835383
CHI2_999_DF7 = 24.321886347856854


def test_deterministic_replay():
    a = Transcript("proto")
    b = Transcript("proto")
    a.absorb(b"x", b"hello")
    b.absorb(b"x", b"hello")
    assert a.challenge_bytes(32) == b.challenge_bytes(32)
    assert a.challenge_field(FBIG) == b.challenge_field(FBIG)


def test_protocol_separation():
    a = Transcript("proto-a")
    b = Transcript("proto-b")
    assert a.challenge_bytes(32) != b.challenge_bytes(32)


def test_absorb_order_matters():
    a = Transcript("t")
    b = Transcript("t")
    a.absorb(b"x", b"1")
    a.absorb(b"y", b"2")
    b.absorb(b"y", b"2")
    b.absorb(b"x", b"1")
    assert a.challenge_bytes(16) != b.challenge_bytes(16)


def test_framing_unambiguous():
    """Label/data boundary shifts must change the state."""
    a = Transcript("t")
    b = Transcript("t")
    a.absorb(b"ab", b"c")
    b.absorb(b"a", b"bc")
    assert a.challenge_bytes(16) != b.challenge_bytes(16)


def test_draws_advance_the_stream():
    t = Transcript("t")
    assert t.challenge_bytes(16) != t.challenge_bytes(16)


def test_long_label_rejected():
    with pytest.raises(UsageError):
        Transcript("t").absorb(b"x" * 33, b"")


def test_challenge_index_in_range():
    t = Transcript("idx")
    for n in (1, 2, 7, 100, 1000):
        for _ in range(20):
            assert 0 <= t.challenge_index(n) < n
    with pytest.raises(UsageError):
        t.challenge_index(0)


def test_challenge_prime_properties():
    t = Transcript("prime")
    for _ in range(10):
        t.absorb(b"tick", b"")
        r = t.challenge_prime(32)
        assert r.bit_length() == 32
        assert is_prime(r)
    with pytest.raises(UsageError):
        t.challenge_prime(8)


def test_avalanche():
    """Single-bit input flips move about half of 256 output bits."""
    base = bytes(64)
    rng = random.Random(2024)
    total = 0
    trials = 1000
    ref = Transcript("avalanche")
    ref.absorb(b"m", base)
    ref_out = ref.challenge_bytes(32)
    for _ in range(trials):
        bit = rng.randrange(512)
        flipped = bytearray(base)
        flipped[bit // 8] ^= 1 << (bit % 8)
        t = Transcript("avalanche")
        t.absorb(b"m", bytes(flipped))
        out = t.challenge_bytes(32)
        total += sum(bin(x ^ y).count("1") for x, y in zip(out, ref_out))
    mean = total / trials
    assert 120 <= mean <= 136


def test_challenge_field_uniformity_chi2():
    """16-bucket chi-squared over 1e5 field draws vs the 0.999 quantile."""
    t = Transcript("uniform")
    n = 100_000
    buckets = [0] * 16
    p = FBIG.modulus
    for _ in range(n):
        v = t.challenge_field(FBIG).value
        buckets[v * 16 // p] += 1
    expected = n / 16
    chi2 = sum((b - expected) ** 2 / expected for b in buckets)
    assert chi2 < CHI2_999_DF15


def test_challenge_index_uniformity_rough():
    t = Transcript("idx-uniform")
    n = 20_000
    buckets = [0] * 8
    for _ in range(n):
        buckets[t.challenge_index(8)] += 1
    expected = n / 8
    chi2 = sum((b - expected) ** 2 / expected for b in buckets)
    assert chi2 < CHI2_999_DF7


# ---------------------------------------------------------------------------
# PRF

def test_prf_key_length_enforced():
    with pytest.raises(UsageError):
        PrfKey(b"short")


def test_prf_deterministic_and_label_sensitive():
    key = PrfKey(bytes(range(32)))
    assert prf(key, b"a", FBIG) == prf(key, b"a", FBIG)
    assert prf(key, b"a", FBIG) != prf(key, b"b", FBIG)
    other = PrfKey(bytes(range(1, 33)))
    assert prf(key, b"a", FBIG) != prf(other, b"a", FBIG)


def test_prf_collision_scan():
    key = PrfKey(bytes(32))
    seen = {prf(key, i.to_bytes(4, "big"), FBIG).value for i in range(2000)}
    assert len(seen) == 2000


def test_prf_small_field_in_range():
    key = PrfKey(bytes(32))
    f13 = Field(13)
    vals = {prf(key, bytes([i]), f13).value for i in range(100)}
    assert vals <= set(range(13))
    assert len(vals) > 6  # hits most residues


# ---------------------------------------------------------------------------
# hash-to-group

def test_hash_to_group_units_of_z35():
    """All outputs land in the normalized unit set of Z_35 / {+-1}."""
    units = {v for v in range(1, 18) if math.gcd(v, 35) == 1}
    outs = {hash_to_group(i.to_bytes(4, "big"), 35) for i in range(300)}
    assert outs <= units
    assert len(outs) >= 10  # covers most of the 12 classes


def test_hash_to_group_deterministic_and_normalized():
    n = 3233  # 53 * 61
    v = hash_to_group(b"input", n)
    assert v == hash_to_group(b"input", n)
    assert 0 < v <= n // 2
    assert math.gcd(v, n) == 1


def test_hash_to_group_small_modulus_rejected():
    with pytest.raises(UsageError):
        hash_to_group(b"x", 4)

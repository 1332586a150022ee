"""Miller-Rabin against trial division and known strong pseudoprimes, and
the sieved next_prime against the plain step-by-2 search."""

import functools
import math
import random

import pytest

from vckit import bignum, primes
from vckit.errors import UsageError
from vckit.primes import _strong_probable_prime, is_prime, next_prime


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, limit, p)))
    return sieve


def _by_trial(n, small_primes):
    if n < 2:
        return False
    for p in small_primes:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return True


def _split(n):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return d, s


def test_every_n_below_1e5_matches_the_sieve():
    sieve = _primes_below(10 ** 5)
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if sieve[n]]


def test_sampled_32_bit_n_match_trial_division():
    sieve = _primes_below(2 ** 16 + 1)
    small = [p for p in range(len(sieve)) if sieve[p]]
    rng = random.Random(32)
    sample = [rng.randrange(2 ** 31, 2 ** 32) | 1 for _ in range(600)]
    sample += [4294967291, 4294967295, 2 ** 31 - 1, 65537 * 65521]
    for n in sample:
        assert is_prime(n) == _by_trial(n, small), n


@pytest.mark.parametrize("n, fooled_by", [
    (2047, (2,)),
    (3215031751, (2, 3, 5, 7)),
    (25326001, (2, 3, 5)),
    # the exclusive bound of the {2, 7, 61} set
    (4759123141, (2, 7, 61)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    # strong pseudoprime to the first 12 primes: needs the 13th, 41
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    # the exclusive bound of the 13-prime set: random rounds decide it
    (3317044064679887385961981,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
])
def test_strong_pseudoprimes_rejected(n, fooled_by):
    d, s = _split(n)
    power = functools.partial(pow, mod=n)
    assert all(_strong_probable_prime(n, d, s, a, power) for a in fooled_by)
    assert not is_prime(n)


@pytest.mark.parametrize("n", [
    2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1, 2 ** 521 - 1,
    10 ** 24 + 7,
])
def test_known_primes_accepted(n):
    assert is_prime(n)


def test_composites_above_the_deterministic_range_rejected():
    p, q = 2 ** 61 - 1, 2 ** 89 - 1
    assert not is_prime(p * q)
    assert not is_prime((2 ** 127 - 1) * (2 ** 61 - 1))


# Chernick's (6k + 1)(12k + 1)(18k + 1) at k = 14 000 240, all three
# factors prime: a Carmichael number above 3.3e24, where random rounds decide
CHERNICK_FACTORS = (84001441, 168002881, 252004321)
CHERNICK = math.prod(CHERNICK_FACTORS)


def test_random_rounds_agree_with_and_without_libcrypto(monkeypatch):
    """Above the cut each n gets one `modular_ring` block, below it none;
    seeded 512- and 1024-bit primes, their products and a Carmichael
    number get the same verdict with and without libcrypto."""
    assert CHERNICK > primes._SMALL_CUT
    assert all(is_prime(f) for f in CHERNICK_FACTORS)
    assert all(pow(a, CHERNICK - 1, CHERNICK) == 1 for a in (2, 3, 5, 7))
    cases = {CHERNICK: False}
    for bits in (512, 1024):
        rng = random.Random(bits)
        p, q = (next_prime(_odd_start(rng, bits)) for _ in range(2))
        cases.update({p: True, q: True, p * q: False})
    blocks = []
    modular_ring = primes.modular_ring
    monkeypatch.setattr(primes, "modular_ring",
                        lambda n: blocks.append(n) or modular_ring(n))
    assert {n: is_prime(n) for n in cases} == cases
    assert is_prime(4294967291) and not is_prime(318665857834031151167461)
    assert blocks == list(cases)
    monkeypatch.setattr(bignum, "libcrypto", lambda: None)
    assert {n: is_prime(n) for n in cases} == cases


def _next_prime_by_steps(v):
    """Reference: is_prime on every odd candidate from v."""
    while not is_prime(v):
        v += 2
    return v


def _odd_start(rng, bits):
    return rng.getrandbits(bits) | (1 << (bits - 1)) | 1


@pytest.mark.parametrize("bits, count", [
    (82, 40), (128, 20), (256, 10), (512, 4), (1024, 2)])
def test_next_prime_matches_the_plain_search(bits, count):
    """82-bit starts fall on both sides of the 3.3e24 cut."""
    rng = random.Random(bits)
    for _ in range(count):
        v = _odd_start(rng, bits)
        assert next_prime(v) == _next_prime_by_steps(v), v


@pytest.mark.parametrize("p", [2 ** 89 - 1, 2 ** 127 - 1, 2 ** 521 - 1])
def test_next_prime_of_a_prime_and_of_the_odd_number_after_it(p):
    assert next_prime(p) == p
    assert next_prime(p + 2) == _next_prime_by_steps(p + 2) > p


def test_next_prime_crosses_into_later_windows(monkeypatch):
    monkeypatch.setattr(primes, "_WINDOW", 4)
    rng = random.Random(4)
    for bits in (96, 256):
        for _ in range(5):
            v = _odd_start(rng, bits)
            q = next_prime(v)
            assert q - v >= 2 * 4  # past the first window
            assert q == _next_prime_by_steps(v), v


@pytest.mark.parametrize("offset, sieved", [
    (-2 * 200, False), (-2, False), (0, True), (2, True), (2 * 200, True)])
def test_next_prime_at_the_cut(monkeypatch, offset, sieved):
    """Starts below 3.3e24 take the plain loop, starts at or above it the
    window sieve; both agree with the reference."""
    windows = []
    sieve_window = primes._sieve_window
    monkeypatch.setattr(primes, "_sieve_window", lambda v, table: (
        windows.append(v) or sieve_window(v, table)))
    v = primes._SMALL_CUT + offset
    assert v % 2 == 1
    assert next_prime(v) == _next_prime_by_steps(v)
    assert bool(windows) == sieved


def test_next_prime_skips_only_candidates_with_a_table_factor(monkeypatch):
    """Every candidate the sieve passes over has an odd prime factor below
    the table bound; every other one reaches is_prime, in ascending order."""
    seen = []
    monkeypatch.setattr(primes, "is_prime",
                        lambda n: seen.append(n) or is_prime(n))
    table = math.prod(primes._odd_primes().tolist())
    v = _odd_start(random.Random(5), 512)
    q = next_prime(v)
    assert seen == [n for n in range(v, q + 1, 2) if math.gcd(n, table) == 1]
    assert seen[-1] == q


def test_odd_prime_table_matches_the_sieve():
    sieve = _primes_below(primes._TABLE_BOUND)
    assert primes._odd_primes().tolist() == \
        [n for n in range(3, primes._TABLE_BOUND) if sieve[n]]


@pytest.mark.parametrize("v", [0, 4, 2 ** 100])
def test_next_prime_refuses_an_even_start(v):
    with pytest.raises(UsageError, match="odd"):
        next_prime(v)

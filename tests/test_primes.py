"""Miller-Rabin against trial division and known strong pseudoprimes."""

import random

import pytest

from vckit.primes import _strong_probable_prime, is_prime


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
    assert all(_strong_probable_prime(n, d, s, a) for a in fooled_by)
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

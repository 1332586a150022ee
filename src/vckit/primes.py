"""Miller-Rabin primality testing.

Below 3.3e24 the test is deterministic and exact: the bases {2, 7, 61}
decide every n < 4 759 123 141 (Jaeschke 1993), which covers every 32-bit
challenge prime, and the first 13 primes decide every
n < 3 317 044 064 679 887 385 961 981 (Sorenson & Webster 2015).  Above
that, _RANDOM_ROUNDS bases are drawn from a PRNG seeded with the candidate
itself, so results are deterministic across runs and platforms.
"""

import math
import random

_SIEVE_LIMIT = 1000
_sieve_primes = []
for _n in range(2, _SIEVE_LIMIT):
    if all(_n % _p for _p in _sieve_primes):
        _sieve_primes.append(_n)
_SIEVE_SET = frozenset(_sieve_primes)
# n >= _SIEVE_LIMIT shares a factor with this product exactly when a
# sieve prime divides it
_SIEVE_PRODUCT = math.prod(_sieve_primes)

# (exclusive bound, bases that decide every n below it)
_DETERMINISTIC_BASES = [
    (4_759_123_141, (2, 7, 61)),
    (3_317_044_064_679_887_385_961_981, tuple(_sieve_primes[:13])),
]

_RANDOM_ROUNDS = 40  # random bases drawn above both bounds


def _strong_probable_prime(n: int, d: int, s: int, a: int) -> bool:
    """Miller-Rabin round for n - 1 = d * 2^s with base a."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Miller-Rabin after small-prime sieving: exact with fixed bases below
    3.3e24, _RANDOM_ROUNDS random bases above.  Below _SIEVE_LIMIT the
    sieve alone decides; above it, one gcd with the product of the sieve
    primes replaces a trial division by each."""
    if n < _SIEVE_LIMIT:
        return n in _SIEVE_SET
    if math.gcd(n, _SIEVE_PRODUCT) != 1:
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _DETERMINISTIC_BASES:
        if n < bound:
            break
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(_RANDOM_ROUNDS))
    return all(_strong_probable_prime(n, d, s, a) for a in bases)

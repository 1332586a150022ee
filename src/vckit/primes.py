"""Miller-Rabin primality testing and a sieved search for the next prime.

Below 3.3e24 the test is deterministic and exact: the bases {2, 7, 61}
decide every n < 4 759 123 141 (Jaeschke 1993), which covers every 32-bit
challenge prime, and the first 13 primes decide every
n < 3 317 044 064 679 887 385 961 981 (Sorenson & Webster 2015).  Above
that, _RANDOM_ROUNDS bases are drawn from a PRNG seeded with the candidate
itself, so results are deterministic across runs and platforms.

`next_prime` returns the first prime at or after an odd start, stepping by
2.  Above 3.3e24 it first strikes out, in windows of _WINDOW odd offsets,
every candidate with an odd prime factor below _TABLE_BOUND, and hands
only the rest, in order, to `is_prime`; it returns the same prime as
calling `is_prime` on every candidate, with about a twelfth of the calls
at 1024 bits.
"""

import functools
import math
import random

import numpy as np

from .bignum import modular_ring
from .errors import UsageError

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


def _strong_probable_prime(n: int, d: int, s: int, a: int, power) -> bool:
    """Miller-Rabin round for n - 1 = d * 2^s with base a; a^d comes from
    power(a, d), which computes modulo n."""
    x = power(a, d)
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
    primes replaces a trial division by each.  Above 3.3e24 each round's
    a^d is the `power` of one `modular_ring` block per n, in OpenSSL's
    Montgomery arithmetic; below it built-in pow is cheaper than a ctypes
    call."""
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
            power = functools.partial(pow, mod=n)
            return all(_strong_probable_prime(n, d, s, a, power)
                       for a in bases)
    rng = random.Random(n)
    bases = (rng.randrange(2, n - 1) for _ in range(_RANDOM_ROUNDS))
    with modular_ring(n) as ring:
        return all(_strong_probable_prime(n, d, s, a, ring.power)
                   for a in bases)


_SMALL_CUT = _DETERMINISTIC_BASES[-1][0]  # below it: the plain loop
_TABLE_BOUND = 1 << 18  # the window sieve strikes factors below it
_WINDOW = 4096          # odd offsets sieved at a time


@functools.cache
def _odd_primes() -> np.ndarray:
    """The odd primes below _TABLE_BOUND (23 000 of them), read-only."""
    odd = np.ones(_TABLE_BOUND // 2, dtype=bool)  # odd[k]: is 2k + 1 prime
    odd[0] = False
    for p in range(3, math.isqrt(_TABLE_BOUND) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2::p] = False
    primes = np.flatnonzero(odd).astype(np.uint64)
    primes <<= np.uint64(1)
    primes += np.uint64(1)
    primes.flags.writeable = False
    return primes


def _residues(v: int, primes: np.ndarray) -> np.ndarray:
    """v mod p for every p, by Horner over the 32-bit limbs of v; each step
    stays below 2^18 * 2^32 + 2^32, inside uint64."""
    limbs = np.frombuffer(v.to_bytes(-(-v.bit_length() // 32) * 4, "big"),
                          dtype=">u4").astype(np.uint64)
    rem = np.zeros_like(primes)
    for limb in limbs:
        rem <<= np.uint64(32)
        rem |= limb
        rem %= primes
    return rem


def _sieve_window(v: int, primes: np.ndarray) -> np.ndarray:
    """Ascending offsets i < _WINDOW for which no table prime divides
    v + 2i.  p divides v + 2i exactly when i = -v / 2 (mod p)."""
    first = primes - _residues(v, primes)
    first *= (primes >> np.uint64(1)) + np.uint64(1)  # 1/2 mod p
    first %= primes
    struck = np.zeros(_WINDOW, dtype=bool)
    small = int(np.searchsorted(primes, _WINDOW))
    for p, i in zip(primes[:small].tolist(), first[:small].tolist()):
        struck[i::p] = True
    large = first[small:]
    struck[large[large < _WINDOW].astype(np.intp)] = True
    return np.flatnonzero(~struck)


def next_prime(v: int) -> int:
    """The first prime >= v for odd v, stepping by 2.

    Below 3.3e24 every candidate goes to `is_prime`.  Above it, where every
    table prime is far below v, a candidate with a table prime as a factor
    is composite and is skipped; the others still go through `is_prime`,
    smallest first."""
    if v % 2 == 0:
        raise UsageError("next_prime needs an odd start")
    if v < _SMALL_CUT:
        while not is_prime(v):
            v += 2
        return v
    primes = _odd_primes()
    while True:
        for i in _sieve_window(v, primes).tolist():
            if is_prime(v + 2 * i):
                return v + 2 * i
        v += 2 * _WINDOW

"""Plain-int oracle for `vckit.hauth`: the label randomness
r = PRF1(l) + PRF2(Δ) straight from hashlib, and a fresh tag's line
through (0, m) and (sk, r), with Python ints and no library code."""

import hashlib
from itertools import count


def prf_with_counter(key: bytes, label: bytes, p: int):
    """(PRF_key(label), ctr): the first
    SHA-256(key || u64(len(label)) || label || u64(ctr)), ctr = 0, 1, ...,
    whose leading 8 bytes, big-endian and masked to p's bit length, fall
    below p, and the counter that drew it."""
    mask = (1 << p.bit_length()) - 1
    for ctr in count():
        data = (key + len(label).to_bytes(8, "big") + label
                + ctr.to_bytes(8, "big"))
        v = int.from_bytes(hashlib.sha256(data).digest()[:8], "big") & mask
        if v < p:
            return v, ctr


def prf(key: bytes, label: bytes, p: int) -> int:
    return prf_with_counter(key, label, p)[0]


def randomness(key: bytes, l: bytes, delta: bytes, p: int) -> int:
    """r = PRF1(l) + PRF2(delta), PRF1 and PRF2 being the PRF on inputs
    prefixed 0x01 and 0x02."""
    return (prf(key, b"\x01" + l, p) + prf(key, b"\x02" + delta, p)) % p


def tag(sk: int, key: bytes, m: int, l: bytes, delta: bytes, p: int):
    """Coefficients, lowest degree first and top zeros trimmed, of the
    line through (0, m) and (sk, r)."""
    m %= p
    r = randomness(key, l, delta, p)
    coeffs = [m, (r - m) * pow(sk, -1, p) % p]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)

"""Random-oracle surface: Fiat-Shamir transcript, keyed PRF, hash-to-group
and prime-challenge sampling.

Every SHA-256 call of the library outside the Merkle tree goes through
`_h` here: challenges, PRF outputs, hauth keys, VDF setup primes,
hash-to-group and the STARK statement digest.  The hash is recorded in
proof headers as encoding.HASH_ID.  All framing is length-prefixed so
concatenation is unambiguous.
"""

import hashlib
import math
from dataclasses import dataclass

from .encoding import u8, u64
from .errors import InternalError, UsageError
from .field import Field, FieldElement
from .primes import next_prime

DOMAIN_TAG = b"vc-kit/v1"

_HASH_TO_GROUP_CAP = 2**16


def _h(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


def _expand(nbytes: int, *prefix: bytes) -> bytes:
    """H(prefix || u64(0)) || H(prefix || u64(1)) || ..., cut to nbytes."""
    return b"".join([_h(*prefix, u64(block))
                     for block in range(-(-nbytes // 32))])[:nbytes]


def _prime_from(raw: bytes, bits: int) -> int:
    """primes.next_prime of raw masked to `bits` bits with the top and low
    bits set: the first prime from there, stepping by 2, sieved above
    3.3e24 so that fewer candidates reach is_prime.  It can exceed `bits`
    bits."""
    v = int.from_bytes(raw, "big") & ((1 << bits) - 1)
    return next_prime(v | (1 << (bits - 1)) | 1)


class Transcript:
    """Deterministic challenge stream bound to every absorbed byte.

    Replaying the same absorb/draw script always reproduces the same
    challenges.
    """

    def __init__(self, protocol: str):
        self.state = _h(DOMAIN_TAG, protocol.encode())
        self.counter = 0

    def absorb(self, label: bytes, data: bytes) -> None:
        if len(label) > 32:
            raise UsageError("absorb label longer than 32 bytes")
        self.state = _h(self.state, u8(len(label)), label, u64(len(data)), data)
        self.counter = 0

    def absorb_int(self, label: bytes, value: int) -> None:
        raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        self.absorb(label, raw)

    def challenge_bytes(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            out += _h(self.state, u64(self.counter))
            self.counter += 1
        return out[:n]

    def challenge_field(self, field: Field) -> FieldElement:
        """Uniform field element: challenge_index(p)."""
        return FieldElement(field, self.challenge_index(field.modulus))

    def challenge_index(self, n: int) -> int:
        """Uniform index in [0, n)."""
        if n < 1:
            raise UsageError("empty index range")
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while True:
            v = int.from_bytes(self.challenge_bytes(8), "big") & mask
            if v < n:
                return v

    def challenge_prime(self, bits: int) -> int:
        """Prime of exactly `bits` bits: masked draw, top bit forced, then
        incremented until `is_prime` passes.  A draw whose next prime has
        more than `bits` bits is dropped and the stream is drawn again."""
        if bits < 16:
            raise UsageError("prime challenges need at least 16 bits")
        while True:
            v = _prime_from(self.challenge_bytes((bits + 7) // 8), bits)
            if v.bit_length() == bits:
                return v


@dataclass(frozen=True)
class PrfKey:
    key: bytes

    def __post_init__(self):
        if len(self.key) != 32:
            raise UsageError("PRF keys are exactly 32 bytes")


def prf(key: PrfKey, label: bytes, field: Field) -> FieldElement:
    """Keyed hash reduced to the field by counter-mode rejection sampling:
    the first H(key || u64(len(label)) || label || u64(ctr)), ctr = 0, 1,
    ..., whose top 8 bytes masked to the modulus's bit length fall below
    it."""
    p = field.modulus
    mask = (1 << p.bit_length()) - 1
    prefix = key.key + u64(len(label)) + label
    ctr = 0
    while True:
        v = int.from_bytes(_h(prefix, u64(ctr))[:8], "big") & mask
        if v < p:
            return FieldElement(field, v)
        ctr += 1


def hash_to_group(x: bytes, n_modulus: int) -> int:
    """Map bytes into the quotient group Z_N^* / {+-1}.

    Counter-mode hashing; the first candidate below N that is a unit wins,
    normalized to min(v, N - v).
    """
    if n_modulus < 6:
        raise UsageError("modulus too small for hash-to-group")
    bits = n_modulus.bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    for ctr in range(_HASH_TO_GROUP_CAP):
        v = int.from_bytes(_expand(nbytes, b"h2g", u64(len(x)), x, u64(ctr)),
                           "big") & mask
        if 0 < v < n_modulus and math.gcd(v, n_modulus) == 1:
            return min(v, n_modulus - v)
    raise InternalError("hash_to_group exhausted its iteration cap")

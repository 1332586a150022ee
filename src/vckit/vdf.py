"""RSW96 sequential time-lock puzzle with Wesolowski's succinct proof.

The working group is Z_N^* / {+-1}: every element is normalized to
min(v, N - v) and equality is sign-insensitive.  Evaluation is T modular
squarings and deliberately sequential; verification is two short
exponentiations.
"""

import math
from dataclasses import dataclass

from .encoding import Reader, int_lp, u8
from .errors import UsageError, VerifyResult
from .primes import is_prime
from .transcript import _h, HASH_ID, Transcript, hash_to_group

PROOF_MAGIC = b"VCKV"


@dataclass(frozen=True)
class VdfParams:
    n_modulus: int
    delay: int          # number of squarings T
    security_bits: int  # lambda; challenge primes have 2*lambda bits

    def __post_init__(self):
        if self.n_modulus < 6:
            raise UsageError("modulus too small")
        if self.delay < 0:
            raise UsageError("delay must be non-negative")


@dataclass(frozen=True)
class TrapdoorKey:
    p: int
    q: int

    @property
    def phi(self) -> int:
        return (self.p - 1) * (self.q - 1)


@dataclass(frozen=True)
class VdfProof:
    y: int
    pi: int
    r: int  # recomputable from the transcript; stored for auditability


@dataclass
class VdfCounters:
    """Group-operation meters used by the scalability experiments."""

    squarings: int = 0
    multiplications: int = 0


def _normalize(v: int, n: int) -> int:
    v %= n
    return min(v, n - v)


def _prime_from_seed(seed: bytes, bits: int, counter: int) -> int:
    stream = b""
    block = 0
    nbytes = (bits + 7) // 8
    while len(stream) < nbytes:
        stream += _h(b"vdf-setup", seed, counter.to_bytes(8, "big"),
                     block.to_bytes(8, "big"))
        block += 1
    v = int.from_bytes(stream[:nbytes], "big")
    v = (v & ((1 << bits) - 1)) | (1 << (bits - 1)) | 1
    while not is_prime(v, rounds=40):
        v += 2
    return v


def setup(prime_bits: int, seed: bytes, delay: int = 0,
          security_bits: int = 16):
    """Deterministic-per-seed RSA-style modulus from two distinct primes."""
    if prime_bits < 8:
        raise UsageError("prime_bits must be at least 8")
    p = _prime_from_seed(seed, prime_bits, 0)
    counter = 1
    q = _prime_from_seed(seed, prime_bits, counter)
    while q == p:
        counter += 1
        q = _prime_from_seed(seed, prime_bits, counter)
    params = VdfParams(p * q, delay, security_bits)
    return params, TrapdoorKey(p, q)


def _require_unit(x: int, n: int):
    if not 0 < x < n or math.gcd(x, n) != 1:
        raise UsageError("input is not a unit modulo N")


def eval_sequential(params: VdfParams, x_prime: int,
                    counters: VdfCounters = None) -> int:
    """y = x'^(2^T) by exactly T sequential squarings."""
    n = params.n_modulus
    _require_unit(x_prime, n)
    y = x_prime
    for _ in range(params.delay):
        y = y * y % n
        if counters is not None:
            counters.squarings += 1
    return _normalize(y, n)


def eval_trapdoor(trapdoor: TrapdoorKey, params: VdfParams,
                  x_prime: int) -> int:
    """Fast path via e = 2^T mod phi(N); agrees with eval_sequential."""
    if trapdoor.p * trapdoor.q != params.n_modulus:
        raise UsageError("trapdoor does not match the modulus")
    _require_unit(x_prime, params.n_modulus)
    e = pow(2, params.delay, trapdoor.phi)
    return _normalize(pow(x_prime, e, params.n_modulus), params.n_modulus)


def prove(params: VdfParams, x_prime: int, y: int, r: int,
          counters: VdfCounters = None) -> int:
    """pi = x'^floor(2^T / r) via on-the-fly long division.

    Maintains (b, pi) with b the running remainder of 2^i mod r; no
    knowledge of phi(N) is needed.  Worst case 2T group multiplications.
    """
    if r < 3 or not is_prime(r, rounds=40):
        raise UsageError("challenge must be a prime >= 3")
    n = params.n_modulus
    _require_unit(x_prime, n)
    b = 1 % r
    pi = 1
    for _ in range(params.delay):
        b *= 2
        bit = b >= r
        if bit:
            b -= r
        pi = pi * pi % n
        if counters is not None:
            counters.multiplications += 1
        if bit:
            pi = pi * x_prime % n
            if counters is not None:
                counters.multiplications += 1
    return _normalize(pi, n)


def counting_modpow(base: int, exponent: int, n: int,
                    counters: VdfCounters = None) -> int:
    """Square-and-multiply with a per-multiplication meter."""
    if exponent == 0:
        return 1 % n
    result = base % n
    for i in range(exponent.bit_length() - 2, -1, -1):
        result = result * result % n
        if counters is not None:
            counters.multiplications += 1
        if (exponent >> i) & 1:
            result = result * base % n
            if counters is not None:
                counters.multiplications += 1
    return result


def challenge_transcript(params: VdfParams, x_prime: int, y: int) -> Transcript:
    t = Transcript("vdf")
    t.absorb_int(b"N", params.n_modulus)
    t.absorb_int(b"T", params.delay)
    t.absorb_int(b"x", x_prime)
    t.absorb_int(b"y", y)
    return t


def derive_challenge(params: VdfParams, x_prime: int, y: int) -> int:
    return challenge_transcript(params, x_prime, y).challenge_prime(
        2 * params.security_bits)


def verify(params: VdfParams, x_prime: int, proof: VdfProof,
           counters: VdfCounters = None, interactive_r: int = None
           ) -> VerifyResult:
    """Check pi^r * x'^residue == +-y, recomputing r from the transcript.

    y and pi must lie in (0, N): 0 and N satisfy the equation for any
    input.  Passing interactive_r skips the Fiat-Shamir recomputation
    (protocol trace testing).
    """
    n = params.n_modulus
    if not (0 < proof.y < n and 0 < proof.pi < n):
        return VerifyResult.reject("out-of-range")
    if interactive_r is None:
        expected = derive_challenge(params, x_prime, proof.y)
        if expected != proof.r:
            return VerifyResult.reject("challenge-mismatch")
    elif interactive_r != proof.r:
        return VerifyResult.reject("challenge-mismatch")
    residue = pow(2, params.delay, proof.r)
    lhs = counting_modpow(proof.pi, proof.r, n, counters)
    rhs = counting_modpow(x_prime, residue, n, counters)
    v = lhs * rhs % n
    if counters is not None:
        counters.multiplications += 1
    if _normalize(v, n) != _normalize(proof.y, n):
        return VerifyResult.reject("equation-failure")
    return VerifyResult.accept()


def vdf_round(params: VdfParams, input_bytes: bytes,
              counters: VdfCounters = None):
    """Beacon convenience: hash-to-group, evaluate, FS challenge, prove.

    Returns (x_prime, proof); x_prime is recomputable from the input.
    """
    x_prime = hash_to_group(input_bytes, params.n_modulus)
    y = eval_sequential(params, x_prime, counters)
    r = derive_challenge(params, x_prime, y)
    pi = prove(params, x_prime, y, r, counters)
    return x_prime, VdfProof(y, pi, r)


def serialize_proof(params: VdfParams, x_prime: int, proof: VdfProof) -> bytes:
    return (PROOF_MAGIC + u8(HASH_ID)
            + int_lp(params.n_modulus) + int_lp(params.delay)
            + int_lp(params.security_bits) + int_lp(x_prime)
            + int_lp(proof.y) + int_lp(proof.pi) + int_lp(proof.r))


def deserialize_proof(data: bytes):
    reader = Reader(data)
    if reader.take(4) != PROOF_MAGIC:
        raise UsageError("not a VDF proof file")
    if reader.u8() != HASH_ID:
        raise UsageError("unsupported hash algorithm id")
    n = reader.int_lp()
    delay = reader.int_lp()
    lam = reader.int_lp()
    x_prime = reader.int_lp()
    y = reader.int_lp()
    pi = reader.int_lp()
    r = reader.int_lp()
    return VdfParams(n, delay, lam), x_prime, VdfProof(y, pi, r)

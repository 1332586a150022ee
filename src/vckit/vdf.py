"""RSW96 sequential time-lock puzzle with Wesolowski's succinct proof.

The working group is Z_N^* / {+-1}: every element is represented by
min(v, N - v), and the verifier refuses a y or pi above N/2, so each
proof has one encoding.  Evaluation is T modular squarings and
deliberately sequential.  All of the VDF's modular arithmetic runs in
`bignum.modular_ring` blocks, in OpenSSL's Montgomery arithmetic where
libcrypto loads and N is odd, and on built-in ints otherwise, with the
same results.  The squarings are the ring's `square_chain`, one
BN_mod_exp_mont by 2^(k*gamma) per checkpoint interval on a value that
stays in one BIGNUM, about 11x faster than CPython's `y * y % n` at 2048
bits.  Verification computes pi^r * x'^(2^T mod r) with the ring's
`joint_power`, one BN_mod_exp2_mont whose squarings the two short
exponentiations share.

The prover follows Wesolowski 2019, section 4.1: evaluation keeps
x'^(2^j) for every j that is a multiple of k*gamma, and pi = x'^floor(2^T/r)
is assembled from those checkpoints in at most T/k + gamma*2^(k+1) + gamma*k
multiplications instead of T squarings plus a multiplication per quotient
bit.  With gamma = 7 and k = 8 at T = 2^16 that is 1 171 checkpoints and
about 10k multiplications.  Those multiplications run on the ring's
residues, held in Montgomery form and one BN_mod_mul_montgomery each,
about 5x faster than `a * b % n` at 2048 bits.  The checkpoints of the latest
`eval_sequential` call are kept in a one-entry memo that `prove`
consumes when N, T and x' match; on any other call `prove` recomputes
them with T squarings first.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .bignum import modular_ring
from .encoding import HASH_ID, Reader, int_lp, read_magic, u8, u64
from .errors import UsageError, VerifyResult
from .primes import is_prime
from .transcript import Transcript, _expand, _prime_from, hash_to_group

PROOF_VERSION = 2
# Every proof starts with the magic and then the format version byte.
PROOF_MAGIC = b"VCKV" + u8(PROOF_VERSION)


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
        if self.security_bits < 8:  # challenge primes need 2*lambda >= 16 bits
            raise UsageError("security must be at least 8 bits")


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


def setup(prime_bits: int, seed: bytes, delay: int = 0,
          security_bits: int = 16):
    """Deterministic-per-seed RSA-style modulus from two distinct primes of
    exactly prime_bits bits, each from the next counter that yields one."""
    if prime_bits < 8:
        raise UsageError("prime_bits must be at least 8")
    primes, counter = [], 0
    while len(primes) < 2:
        v = _prime_from(_expand((prime_bits + 7) // 8, b"vdf-setup", seed,
                                u64(counter)), prime_bits)
        counter += 1
        if v.bit_length() == prime_bits and v not in primes:
            primes.append(v)
    p, q = primes
    params = VdfParams(p * q, delay, security_bits)
    return params, TrapdoorKey(p, q)


def _require_unit(x: int, n: int):
    if not 0 < x < n or math.gcd(x, n) != 1:
        raise UsageError("input is not a unit modulo N")


# The prover splits floor(2^T / r) into k-bit digits and handles every
# gamma-th digit in one pass over the checkpoints; evaluation keeps one
# checkpoint per k*gamma squarings.  Each checkpoint costs about as much
# as _CHECKPOINT_COST of the prover's multiplications: the fixed part of
# its BN_mod_exp_mont and its read-out in the evaluator, and its load
# into a Montgomery residue in the prover.
_GAMMA = 7
_CHECKPOINT_COST = 7


def _chunk_bits(delay: int) -> int:
    """k minimizing the prover's delay/k * (1 + C/gamma) + gamma * 2^(k+1)
    multiplications, where each of the delay/(k*gamma) checkpoints counts
    as C = _CHECKPOINT_COST."""
    return min(range(1, 17), key=lambda k: (
        delay / k * (1 + _CHECKPOINT_COST / _GAMMA) + _GAMMA * 2 ** (k + 1)))


def _square_with_checkpoints(n: int, x_prime: int, delay: int):
    """(x'^(2^delay) mod n, checkpoints) by exactly `delay` squarings,
    one modular exponentiation by 2^(k*gamma) per checkpoint interval.

    Checkpoint i is x'^(2^(i*k*gamma)), for every i*k*gamma below delay.
    """
    with modular_ring(n) as ring:
        *checkpoints, y = ring.square_chain(x_prime, delay,
                                            _GAMMA * _chunk_bits(delay))
    return y, tuple(checkpoints)


def squarings_per_second(n: int) -> float:
    """Throughput of the evaluator's own squarings modulo n.

    Times `_square_with_checkpoints`, the routine `eval_sequential` runs,
    at doubling delays until one call takes at least 0.2 s, so a delay
    derived from it matches what evaluation will take.
    """
    x, delay = 0x1234567 % n, 1024
    while True:
        start = time.perf_counter()
        _square_with_checkpoints(n, x, delay)
        elapsed = time.perf_counter() - start
        if elapsed >= 0.2:
            return delay / elapsed
        delay *= 2


# (N, T, x', checkpoints) of the latest eval_sequential call.  It is only
# ever replaced by a single assignment, and prove checks the key of the
# entry it read, so interleaved calls can cause a recompute, never a wrong
# proof.
_last_eval = None


def eval_sequential(params: VdfParams, x_prime: int,
                    counters: VdfCounters = None) -> int:
    """y = x'^(2^T) by exactly T sequential squarings.

    The squarings run in OpenSSL's Montgomery arithmetic, or in built-in
    pow where libcrypto is missing or N is even; both give the same y.
    A T chosen with `vckit vdf setup --delay-seconds` before they did was
    calibrated on `y * y % n` and now evaluates about 11x faster.  Keeps
    the prover's checkpoints for a following `prove` of the same
    (N, T, x').
    """
    global _last_eval
    n = params.n_modulus
    _require_unit(x_prime, n)
    y, checkpoints = _square_with_checkpoints(n, x_prime, params.delay)
    if counters is not None:
        counters.squarings += params.delay
    _last_eval = (n, params.delay, x_prime, checkpoints)
    return _normalize(y, n)


def eval_trapdoor(trapdoor: TrapdoorKey, params: VdfParams,
                  x_prime: int) -> int:
    """Fast path via e = 2^T mod phi(N); agrees with eval_sequential.
    Factors 1 and N would make phi zero."""
    if not (1 < trapdoor.p and 1 < trapdoor.q
            and trapdoor.p * trapdoor.q == params.n_modulus):
        raise UsageError("trapdoor does not match the modulus")
    _require_unit(x_prime, params.n_modulus)
    e = pow(2, params.delay, trapdoor.phi)
    return _normalize(pow(x_prime, e, params.n_modulus), params.n_modulus)


def _checkpoints_for(params: VdfParams, x_prime: int,
                     counters: VdfCounters = None):
    """Checkpoints of x' from the memo, or recomputed by T squarings that
    are counted as multiplications.  A memo hit clears the memo."""
    global _last_eval
    n, delay = params.n_modulus, params.delay
    entry = _last_eval
    if entry is not None and entry[:3] == (n, delay, x_prime):
        _last_eval = None
        return entry[3]
    _, checkpoints = _square_with_checkpoints(n, x_prime, delay)
    if counters is not None:
        counters.multiplications += delay
    return checkpoints


def _digits(q: int, k: int):
    """Base-2^k digits of q >= 0, least significant first; [0] for q = 0."""
    count = max(1, -(-q.bit_length() // k))
    data = np.frombuffer(q.to_bytes((count * k + 7) // 8, "little"), np.uint8)
    rows = np.unpackbits(data, bitorder="little")[:count * k].reshape(count, k)
    return (rows @ (1 << np.arange(k))).tolist()


def prove(params: VdfParams, x_prime: int, y: int, r: int,
          counters: VdfCounters = None) -> int:
    """pi = x'^floor(2^T / r) from the evaluation checkpoints.

    Write q = floor(2^T / r) = sum_m b_m 2^(k*m) and C_i = x'^(2^(i*k*gamma)).
    Digit m = i*gamma + t contributes C_i^(b_m * 2^(k*t)).  For each offset
    t, C_i goes into bucket b_(i*gamma + t), copied in by the bucket's
    first hit of the pass and multiplied in after that, and suffix
    products from the highest filled bucket down give
    prod_c bucket_c^c; the gamma partial results are combined
    Horner-style with k squarings between them, and a pass without a
    nonzero digit multiplies nothing into pi.  As r >= 3, q has fewer
    than T bits, so every digit has its checkpoint.  That is at most
    T/k + gamma*2^(k+1) + gamma*k multiplications (about 10k at
    T = 2^16, where k = 8 and gamma = 7 give 1 171 checkpoints), plus T
    more when the checkpoints are not in the memo.  No knowledge of
    phi(N) is needed.

    The checkpoints go into one `modular_ring` block, in Montgomery
    form with libcrypto and an odd N, and only pi comes out as an int;
    without libcrypto, or for an even N, the same multiplications run on
    built-in ints.  The block holds one residue per checkpoint, 2^k
    buckets and three more.
    """
    if r < 3 or not is_prime(r):
        raise UsageError("challenge must be a prime >= 3")
    n = params.n_modulus
    _require_unit(x_prime, n)
    checkpoints = _checkpoints_for(params, x_prime, counters)
    k = _chunk_bits(params.delay)
    digits = _digits((1 << params.delay) // r, k)
    multiplications = 0
    with modular_ring(n) as ring:
        points = [ring.residue(c) for c in checkpoints]
        # every bucket is written by its first hit of a pass before use
        buckets = [ring.residue(1) for _ in range(1 << k)]
        running, part, pi = (ring.residue(1) for _ in range(3))
        started = False  # pi holds 1 until a pass has a nonzero digit
        for t in reversed(range(_GAMMA)):
            if started:
                for _ in range(k):
                    ring.multiply(pi, pi, pi)
                multiplications += k
            filled, top = [False] * len(buckets), 0
            for c, digit in zip(points, digits[t::_GAMMA]):
                if filled[digit]:
                    ring.multiply(buckets[digit], buckets[digit], c)
                    multiplications += 1
                elif digit:
                    ring.copy(buckets[digit], c)
                    filled[digit], top = True, max(top, digit)
            if not top:
                continue
            ring.copy(running, buckets[top])
            ring.copy(part, running)
            for digit in range(top - 1, 0, -1):
                if filled[digit]:
                    ring.multiply(running, running, buckets[digit])
                    multiplications += 1
                ring.multiply(part, part, running)
            multiplications += top - 1
            if started:
                ring.multiply(pi, pi, part)
                multiplications += 1
            else:
                ring.copy(pi, part)
                started = True
        pi = ring.value(pi)
    if counters is not None:
        counters.multiplications += multiplications
    return _normalize(pi, n)


def counting_modpow(pairs, n: int, counters: VdfCounters = None) -> int:
    """prod base^exponent mod n over at most two (base, exponent) pairs,
    in one `joint_power` call of a `bignum.modular_ring` block (one
    BN_mod_exp2_mont with libcrypto and an odd n).  More pairs raise
    UsageError, and so does a negative exponent.

    counters.multiplications gets the cost of one left-to-right ladder
    over both exponents (Straus 1964; Shamir's trick): a squaring for
    each bit below the top one, a multiplication for each of those bits
    where either exponent has a 1, and the product of the bases once if
    some bit has a 1 in both.  It is a model count, as `squarings` is:
    for a single pair it is bit_length + popcount - 2, as
    square-and-multiply.
    """
    if len(pairs) > 2:
        raise UsageError("at most two (base, exponent) pairs")
    (a, e), (b, f) = [*pairs, (1, 0), (1, 0)][:2]
    with modular_ring(n) as ring:
        value = ring.joint_power(a, e, b, f)
    either = e | f
    if counters is not None and either:
        counters.multiplications += (either.bit_length() + either.bit_count()
                                     - 2 + bool(e & f))
    return value


def derive_challenge(params: VdfParams, x_prime: int, y: int) -> int:
    t = Transcript("vdf")
    t.absorb_int(b"N", params.n_modulus)
    t.absorb_int(b"T", params.delay)
    t.absorb_int(b"x", x_prime)
    t.absorb_int(b"y", y)
    return t.challenge_prime(2 * params.security_bits)


def verify(params: VdfParams, x_prime: int, proof: VdfProof,
           counters: VdfCounters = None) -> VerifyResult:
    """Check pi^r * x'^residue == +-y, recomputing r from the transcript.

    y and pi must lie in (0, N): 0 and N satisfy the equation for any
    input.  They must also be the representatives min(v, N - v) of their
    classes, at most N/2, since N - y and N - pi satisfy it too.
    """
    n = params.n_modulus
    if not (0 < proof.y < n and 0 < proof.pi < n):
        return VerifyResult.reject("out-of-range")
    if max(proof.y, proof.pi) > n // 2:
        return VerifyResult.reject("non-canonical")
    if derive_challenge(params, x_prime, proof.y) != proof.r:
        return VerifyResult.reject("challenge-mismatch")
    residue = pow(2, params.delay, proof.r)
    v = counting_modpow([(proof.pi, proof.r), (x_prime, residue)], n,
                        counters)
    if _normalize(v, n) != proof.y:
        return VerifyResult.reject("equation-failure")
    return VerifyResult.accept()


def vdf_round(params: VdfParams, input_bytes: bytes,
              counters: VdfCounters = None):
    """Beacon convenience: hash-to-group, evaluate, FS challenge, prove.

    The proof is built from the checkpoints of this call's evaluation.
    Returns (x_prime, proof); x_prime is recomputable from the input.
    """
    x_prime = hash_to_group(input_bytes, params.n_modulus)
    y = eval_sequential(params, x_prime, counters)
    r = derive_challenge(params, x_prime, y)
    pi = prove(params, x_prime, y, r, counters)
    return x_prime, VdfProof(y, pi, r)


def serialize_proof(proof: VdfProof) -> bytes:
    """The proof alone: N, T, lambda and x' are the verifier's."""
    return (PROOF_MAGIC + u8(HASH_ID)
            + int_lp(proof.y) + int_lp(proof.pi) + int_lp(proof.r))


def deserialize_proof(data: bytes) -> VdfProof:
    reader = Reader(data)
    read_magic(reader, PROOF_MAGIC, "VDF")
    proof = VdfProof(reader.int_lp(), reader.int_lp(), reader.int_lp())
    reader.finish()
    return proof

"""Golden proofs: SHA-256 of serialized honest proofs for fixed
configurations.

An honest prover with a fixed configuration and zk seed is deterministic,
so any refactor of the prover pipeline must leave these bytes unchanged.
The STARK hashes are of format version 5 and the FRI hash of version 3:
each tree sends its distinct opened leaves once with one pruned Merkle
multiproof, and a STARK header carries no binding digest; earlier hashes, including those the symbolic
(divmod-quotient, Horner-LDE) prover also gave, are listed in
CHANGES.md.  The VDF hashes
come from the bit-by-bit long-division prover and 40-round random
Miller-Rabin, so they also pin the setup moduli and the challenge primes.
"""

import hashlib
import random

import pytest

from test_stark import _two_column
from vckit import fri, stark, vdf
from vckit.field import DEFAULT_MODULUS, EvaluationDomain, Field, Polynomial
from vckit.transcript import Transcript

F = Field(DEFAULT_MODULUS)


def _fib_proof(length, blowup, queries, zk_seed=None):
    trace = stark.trace_fibonacci(length, F)
    cs = stark.fibonacci_constraint_system(length, F)
    params = stark.StarkParams(blowup, queries, zk=zk_seed is not None)
    return stark.prove(trace, cs, params, zk_seed=zk_seed).serialize()


def _two_column_proof():
    trace, cs = _two_column(8)
    return stark.prove(trace, cs, stark.StarkParams(8, 10)).serialize()


def _fri_proof():
    rng = random.Random(2024)
    poly = Polynomial(F, [rng.randrange(F.modulus) for _ in range(32)])
    dom = EvaluationDomain.coset(F, 256, F.generator())
    params = fri.FriParams(dom, 32, 16)
    t = Transcript("golden-fri")
    return fri.prove(poly.evaluate_array(dom.point_array()), params,
                     t).serialize()


def _vdf_proof(prime_bits, seed, delay, security_bits=16):
    params, _ = vdf.setup(prime_bits, seed, delay, security_bits)
    x_prime, proof = vdf.vdf_round(params, b"golden-input")
    return vdf.serialize_proof(params, x_prime, proof)


CASES = {
    "fib8-b8-q12": lambda: _fib_proof(8, 8, 12),
    "fib64-b4-q8-zk1": lambda: _fib_proof(64, 4, 8, zk_seed=1),
    "fib1900-b8-q20-zk7": lambda: _fib_proof(1900, 8, 20, zk_seed=7),
    "fib4000-b4-q8-zk5": lambda: _fib_proof(4000, 4, 8, zk_seed=5),
    "two-column-b8-q10": _two_column_proof,
    "fri-coset256-d32-q16": _fri_proof,
    "vdf-n32-T0": lambda: _vdf_proof(16, b"golden-vdf-t0", 0),
    "vdf-n32-T3": lambda: _vdf_proof(16, b"golden-vdf-t3", 3),
    "vdf-n64-T1013": lambda: _vdf_proof(32, b"golden-vdf-1013", 1013),
    "vdf-n128-T777-lam32": lambda: _vdf_proof(64, b"golden-vdf-lam32", 777,
                                              32),
    "vdf-n256-T300-lam48": lambda: _vdf_proof(128, b"golden-vdf-lam48", 300,
                                              48),
    "vdf-n2048-T4096": lambda: _vdf_proof(1024, b"golden-vdf-2048", 4096),
}

GOLDEN = {
    "fib8-b8-q12":
        "acffdcf1a475287293c7667813e608ff4950a381d16f3f1bd1832957e1ce0199",
    "fib64-b4-q8-zk1":
        "4b569ef00a9ee43c34f6b0c1e0d146a4bd65e063b4823bc2822416f2f6289f60",
    "fib1900-b8-q20-zk7":
        "9948a00821f771c41e327d63b4693e2e3caf84e9b56727e8801fea62d94b3c04",
    "fib4000-b4-q8-zk5":
        "bc80f90a65adae67487e15e5d8bc764e1351667c5c41ee7fe24554ce15a7fe3a",
    "two-column-b8-q10":
        "80535d1416611e5a3499ff406d812ddab4a119ec6c2c224c4ac029332413b183",
    "fri-coset256-d32-q16":
        "a944f8c74dd5319080ec4a8b70f8f57e600afd83954a91f7428bb419bc2f8b1d",
    "vdf-n32-T0":
        "eebcd9802aad643d9e511489830c80bd5f6de22f343b0e5f22dedd7f8110b0da",
    "vdf-n32-T3":
        "2ab1ebef09dc3d4f2357261843b611e3583026a0f5002e34d75f9a09766c1264",
    "vdf-n64-T1013":
        "ac27443d2c8304f22eb251ce7073b84977db560b3815c5c5384f3d09fa7ac025",
    "vdf-n128-T777-lam32":
        "57d3c311ea6fea0de6cf1eb9b51205bc97637d0e38c9f10dac940f037b056b2d",
    "vdf-n256-T300-lam48":
        "040c5aa2ab519c3032082aacd9eed088fde5987328c1da5acccfc293977a6c2c",
    "vdf-n2048-T4096":
        "1908fc005a1161daa0c70082d7f511080019e742425615317dbdcfd36e79875b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_proof(name):
    assert hashlib.sha256(CASES[name]()).hexdigest() == GOLDEN[name]

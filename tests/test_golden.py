"""Golden proofs: SHA-256 of serialized honest proofs for fixed
configurations.

An honest prover with a fixed configuration and zk seed is deterministic,
so any refactor of the prover pipeline must leave these bytes unchanged.
The STARK hashes are of format version 5 and the FRI hash of version 3:
each tree sends its distinct opened leaves once with one pruned Merkle
multiproof, and a STARK header carries no binding digest; earlier hashes, including those the symbolic
(divmod-quotient, Horner-LDE) prover also gave, are listed in
CHANGES.md.  The VDF hashes are of format version 2, which holds y, pi
and r only; they pin the setup moduli and the challenge primes through
the proofs made under them.
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
    _, proof = vdf.vdf_round(params, b"golden-input")
    return vdf.serialize_proof(proof)


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
        "118e561ac607a6dc240e4d48e7995d64428259126331a7f7b11578756e51a377",
    "vdf-n32-T3":
        "2d6221ebd89e0cd4b397c24629887e086eee1b08139dd64900c12b91e44ca6ab",
    "vdf-n64-T1013":
        "2dd454e1170cfe95417f4dd81b83ec527c0cad2365107c6b282860cbee31d3fe",
    "vdf-n128-T777-lam32":
        "295e233fc4ba716970487d0cd5b9945da7d961890196fab5633f5bfd40047c14",
    "vdf-n256-T300-lam48":
        "9f1ea78cc80e2ba3981faa0e8c3695bfa0d9fe533132bf3428a772542ae97cb9",
    "vdf-n2048-T4096":
        "ed7aa4408b35e4331e1b1b305e492c1507f87e770d1a0091024861dcc2e02895",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_proof(name):
    assert hashlib.sha256(CASES[name]()).hexdigest() == GOLDEN[name]

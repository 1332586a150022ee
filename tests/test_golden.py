"""Golden proofs: SHA-256 of serialized honest proofs for fixed
configurations.

An honest prover with a fixed configuration and zk seed is deterministic,
so any refactor of the prover pipeline must leave these bytes unchanged.
The hashes were taken from the symbolic (divmod-quotient, Horner-LDE)
prover before it was replaced.
"""

import hashlib
import random

import pytest

from test_stark import _two_column
from vckit import fri, stark
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


CASES = {
    "fib8-b8-q12": lambda: _fib_proof(8, 8, 12),
    "fib64-b4-q8-zk1": lambda: _fib_proof(64, 4, 8, zk_seed=1),
    "fib1900-b8-q20-zk7": lambda: _fib_proof(1900, 8, 20, zk_seed=7),
    "fib4000-b4-q8-zk5": lambda: _fib_proof(4000, 4, 8, zk_seed=5),
    "two-column-b8-q10": _two_column_proof,
    "fri-coset256-d32-q16": _fri_proof,
}

GOLDEN = {
    "fib8-b8-q12":
        "02b96bc2ab4e4a56a37c62399b6b42c99953de9e938538bc84cbcc77f83bf8fd",
    "fib64-b4-q8-zk1":
        "0f901d80afb87af56cc5b949981baeb6c5a19f6383cc04c2f0bc032a0e4087f3",
    "fib1900-b8-q20-zk7":
        "16e3d0a25717da1b964b5bf3290d1b9cf1a79509e33a550ca8b63de87d3d46ac",
    "fib4000-b4-q8-zk5":
        "77fd83f18901baa4d812b0ffb5f7dec02c19556740cce7d164e3687667496bcd",
    "two-column-b8-q10":
        "b10ea7ca77aafcd0989d177704584848228b1071c0b7344f323c64fe0f6cb0e5",
    "fri-coset256-d32-q16":
        "1090c5f99d05448574d4a149c3f2003a3950a4498313e49d905f1c7943b5bf59",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_proof(name):
    assert hashlib.sha256(CASES[name]()).hexdigest() == GOLDEN[name]

"""Seeded byte-level mutation sweep over the STARK (VCKS), FRI (VCKF) and
VDF (VCKV) proof formats.

Every mutant, a single bit flip, a truncation or one trailing byte, must
end in a VerifyResult rejection or a UsageError from the decoder: none
may verify, and none may raise another exception type.
"""

import random

import pytest

from vckit import fri, stark, vdf
from vckit.errors import UsageError
from vckit.field import DEFAULT_MODULUS, EvaluationDomain, Field, Polynomial
from vckit.transcript import Transcript

F = Field(DEFAULT_MODULUS)
BIT_FLIPS = 2000
TRUNCATIONS = 50


def _stark_case():
    trace = stark.trace_fibonacci(64, F)
    cs = stark.fibonacci_constraint_system(64, F)
    params = stark.StarkParams(4, 8, zk=True)
    blob = stark.prove(trace, cs, params, zk_seed=11).serialize()

    def verify(data):
        return stark.verify(stark.StarkProof.deserialize(data), cs, params,
                            F)
    return blob, verify


def _fri_case():
    rng = random.Random(12)
    domain = EvaluationDomain.coset(F, 64, F.generator())
    params = fri.FriParams(domain, 8, 20)
    poly = Polynomial(F, [rng.randrange(F.modulus) for _ in range(8)])
    blob = fri.prove(poly.evaluate_array(domain.point_array()), params,
                     Transcript("mutation")).serialize()

    def verify(data):
        return fri.verify(fri.FriProof.deserialize(data), params,
                          Transcript("mutation"))
    return blob, verify


def _vdf_case():
    params, _ = vdf.setup(16, b"mutation", delay=64)
    x, proof = vdf.vdf_round(params, b"m")

    def verify(data):
        return vdf.verify(params, x, vdf.deserialize_proof(data))
    return vdf.serialize_proof(proof), verify


def _mutants(blob, rng):
    """BIT_FLIPS seeded single-bit flips, TRUNCATIONS truncations at
    seeded lengths (the empty string among them), and one trailing
    byte."""
    for _ in range(BIT_FLIPS):
        bit = rng.randrange(8 * len(blob))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)
    yield b""
    for _ in range(TRUNCATIONS - 1):
        yield blob[:rng.randrange(1, len(blob))]
    yield blob + bytes([rng.randrange(256)])


@pytest.mark.parametrize("case", [_stark_case, _fri_case, _vdf_case],
                         ids=["stark", "fri", "vdf"])
def test_no_mutant_verifies(case):
    blob, verify = case()
    assert verify(blob)
    rng = random.Random(2000)
    outcomes = {"reject": 0, "usage": 0}
    for data in _mutants(blob, rng):
        try:
            verdict = verify(data)
        except UsageError:
            outcomes["usage"] += 1
            continue
        assert not verdict, "a mutant verified"
        outcomes["reject"] += 1
    assert sum(outcomes.values()) == BIT_FLIPS + TRUNCATIONS + 1
    assert outcomes["reject"] and outcomes["usage"]

"""Seeded byte-level mutation sweep over the STARK (VCKS), FRI (VCKF) and
VDF (VCKV) proof formats and the hauth tag file.

Every mutant, a single bit flip, a truncation or one trailing byte, must
end in a VerifyResult rejection or a UsageError from the decoder: none
may verify, and none may raise another exception type.
"""

import os
import random
import tempfile

import pytest

from vckit import cli, fri, hauth, stark, vdf
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


def _through_file(data, use):
    """use(path) on a temporary file holding data, removed afterwards."""
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        return use(path)
    finally:
        os.remove(path)


def _hauth_case():
    """A tag file of x0*x1 + 7 over two authenticated inputs, decoded by
    the CLI's load_tag and checked against its claim, 22."""
    key = hauth.keygen(b"mutation", F)
    circuit = hauth.Circuit(2, (hauth.Gate("mul", 0, 1),
                                hauth.Gate("addc", 2, const=7)))
    labels = [hauth.MultiLabel(b"a"), hauth.MultiLabel(b"b")]
    tag = hauth.eval_tags(circuit, [hauth.auth(key, m, label)
                                    for m, label in zip((3, 5), labels)])

    def save(path):
        cli.save_tag(tag, path)
        with open(path, "rb") as fh:
            return fh.read()

    def verify(data):
        decoded = _through_file(data, lambda path: cli.load_tag(path, F))
        return hauth.verify(key, circuit, labels, decoded, 22)
    return _through_file(b"", save), verify


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


@pytest.mark.parametrize("case", [_stark_case, _fri_case, _vdf_case,
                                  _hauth_case],
                         ids=["stark", "fri", "vdf", "hauth"])
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

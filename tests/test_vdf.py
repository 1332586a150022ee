"""Time-lock and VDF tests, anchored on a hand-checked N = 35 example."""

import pytest

from vckit import vdf
from vckit.errors import UsageError
from vckit.primes import is_prime

# N = 5 * 7 worked example: x' = 2, T = 3 so y = 2^(2^3) = 256 = 11 mod 35.
N35 = vdf.VdfParams(35, 3, 16)


def test_sequential_eval_worked_example():
    assert vdf.eval_sequential(N35, 2) == 11


def test_trapdoor_matches_worked_example():
    td = vdf.TrapdoorKey(5, 7)
    assert td.phi == 24
    assert vdf.eval_trapdoor(td, N35, 2) == 11


def test_prove_worked_example():
    # floor(2^3 / 5) = 1, so pi = 2^1 = 2 and residue = 2^3 mod 5 = 3
    pi = vdf.prove(N35, 2, 11, 5)
    assert pi == 2
    proof = vdf.VdfProof(11, 2, 5)
    assert vdf.verify(N35, 2, proof, interactive_r=5)


def test_interactive_wrong_r_rejected():
    proof = vdf.VdfProof(11, 2, 5)
    v = vdf.verify(N35, 2, proof, interactive_r=7)
    assert not v and v.reason == "challenge-mismatch"


def test_nonunit_input_rejected():
    with pytest.raises(UsageError):
        vdf.eval_sequential(N35, 7)
    with pytest.raises(UsageError):
        vdf.eval_sequential(N35, 0)


def test_composite_challenge_rejected():
    with pytest.raises(UsageError):
        vdf.prove(N35, 2, 11, 9)


def test_setup_deterministic_and_prime():
    params, td = vdf.setup(16, b"seed-a", delay=8)
    params2, _ = vdf.setup(16, b"seed-a", delay=8)
    assert params.n_modulus == params2.n_modulus
    assert is_prime(td.p) and is_prime(td.q) and td.p != td.q
    assert td.p * td.q == params.n_modulus
    other, _ = vdf.setup(16, b"seed-b", delay=8)
    assert other.n_modulus != params.n_modulus


def test_sequential_equals_trapdoor_random():
    params, td = vdf.setup(16, b"eq", delay=257)
    x = vdf.hash_to_group(b"in", params.n_modulus)
    assert vdf.eval_sequential(params, x) == vdf.eval_trapdoor(td, params, x)


def test_full_round_accepts():
    params, _ = vdf.setup(16, b"round", delay=100)
    x, proof = vdf.vdf_round(params, b"beacon-input")
    assert proof.r == vdf.derive_challenge(params, x, proof.y)
    assert vdf.verify(params, x, proof)


def test_challenge_binds_all_inputs():
    params, _ = vdf.setup(16, b"bind", delay=10)
    x, proof = vdf.vdf_round(params, b"m")
    assert vdf.derive_challenge(params, x, proof.y) != \
        vdf.derive_challenge(params, x + 1, proof.y)
    assert vdf.derive_challenge(params, x, proof.y) != \
        vdf.derive_challenge(params, x, proof.y + 1)


def test_tamper_rejected():
    params, _ = vdf.setup(16, b"tamper", delay=64)
    x, proof = vdf.vdf_round(params, b"m")
    n = params.n_modulus
    bad_y = vdf.VdfProof((proof.y + 1) % n, proof.pi, proof.r)
    assert not vdf.verify(params, x, bad_y)
    bad_pi = vdf.VdfProof(proof.y, (proof.pi + 1) % n, proof.r)
    v = vdf.verify(params, x, bad_pi)
    assert not v and v.reason == "equation-failure"
    bad_r = vdf.VdfProof(proof.y, proof.pi, 17)
    assert not vdf.verify(params, x, bad_r)


def test_sign_insensitive_equality():
    """y and N - y are the same element of Z_N^*/{+-1}."""
    params, _ = vdf.setup(16, b"sign", delay=20)
    x, proof = vdf.vdf_round(params, b"m")
    flipped = vdf.VdfProof(params.n_modulus - proof.y, proof.pi, proof.r)
    # challenge recomputation sees a different y encoding, so go interactive
    assert vdf.verify(params, x, flipped, interactive_r=proof.r)


def test_counters():
    params, _ = vdf.setup(16, b"count", delay=200)
    counters = vdf.VdfCounters()
    x, proof = vdf.vdf_round(params, b"m", counters)
    assert counters.squarings == 200
    assert counters.multiplications <= 2 * 200
    vcount = vdf.VdfCounters()
    assert vdf.verify(params, x, proof, vcount)
    bound = 2 * (proof.r.bit_length()
                 + pow(2, params.delay, proof.r).bit_length()) + 8
    assert vcount.multiplications <= bound


def test_counting_modpow_matches_pow():
    for base, e, n in [(3, 0, 35), (3, 1, 35), (2, 77, 1003), (5, 2**20, 9973)]:
        assert vdf.counting_modpow(base, e, n) == pow(base, e, n)


def test_serialize_roundtrip():
    params, _ = vdf.setup(16, b"ser", delay=40)
    x, proof = vdf.vdf_round(params, b"m")
    blob = vdf.serialize_proof(params, x, proof)
    p2, x2, pr2 = vdf.deserialize_proof(blob)
    assert (p2, x2, pr2) == (params, x, proof)
    assert vdf.verify(p2, x2, pr2)
    with pytest.raises(UsageError):
        vdf.deserialize_proof(b"XXXX" + blob[4:])


def test_zero_delay_identity():
    params = vdf.VdfParams(35, 0, 16)
    assert vdf.eval_sequential(params, 2) == 2


@pytest.mark.parametrize("bogus", ["zero", "modulus"])
def test_degenerate_values_rejected(bogus):
    """y = pi = 0 and y = pi = N satisfy pi^r * x'^residue == +-y for any
    input; verify must reject them even with a matching challenge."""
    params, _ = vdf.setup(16, b"degenerate", delay=64)
    x, proof = vdf.vdf_round(params, b"m")
    n = params.n_modulus
    v = 0 if bogus == "zero" else n
    forged = vdf.VdfProof(v, v, vdf.derive_challenge(params, x, v))
    verdict = vdf.verify(params, x, forged)
    assert not verdict and verdict.reason == "out-of-range"
    assert not vdf.verify(params, x, forged, interactive_r=forged.r)


@pytest.mark.parametrize("field", ["y", "pi"])
@pytest.mark.parametrize("value", ["zero", "modulus", "above"])
def test_out_of_range_component_rejected(field, value):
    params, _ = vdf.setup(16, b"range", delay=64)
    x, proof = vdf.vdf_round(params, b"m")
    n = params.n_modulus
    v = {"zero": 0, "modulus": n, "above": getattr(proof, field) + n}[value]
    y, pi = (v, proof.pi) if field == "y" else (proof.y, v)
    verdict = vdf.verify(params, x, vdf.VdfProof(y, pi, proof.r),
                         interactive_r=proof.r)
    assert not verdict and verdict.reason == "out-of-range"

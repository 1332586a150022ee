"""Golden proofs: SHA-256 of serialized honest proofs for fixed
configurations.

An honest prover with a fixed configuration and zk seed is deterministic,
so any refactor of the prover pipeline must leave these bytes unchanged.
The STARK hashes are of format version 7 and the FRI hash of version 4:
FRI folds by 8, with a last round of 2 or 4, each tree sends its
distinct opened leaves once with one pruned Merkle multiproof, and a
STARK proof carries neither the constraint system's digest nor a
composition root apart from FRI's layer 0; earlier hashes,
including those the symbolic (divmod-quotient, Horner-LDE) prover also
gave, are listed in CHANGES.md.  The VDF hashes are of format version 2, which holds y, pi
and r only; they pin the setup moduli and the challenge primes through
the proofs made under them, and the two setup hashes pin the primes
(p, q) themselves, one at 512 bits and one at the vdf-beacon benchmark's
1024-bit seed.  The hauth hash pins keygen (sk, PRF key and
fingerprint), the PRF through the tags' randomness, and the tag file
bytes, under the default modulus and F_97.  The forged cases are false
statements proved by stark.prove_table and FRI's two phases, which skip
the checks stark.prove and fri.prove make; they pin the bytes a
soundness experiment builds.
"""

import hashlib
import random

import pytest

from test_stark import _two_column
from vckit import fri, hauth, stark, vdf
from vckit.encoding import int_lp, u8, u64
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


def _forged_fib_proof(blowup, queries, zk_seed=None):
    """A false fib-8 proof: 17 added to row 5, and the table proved
    without the satisfaction check (the verifier rejects it)."""
    trace = stark.trace_fibonacci(8, F)
    trace.columns[0][5] = (trace.columns[0][5] + 17) % F.modulus
    params = stark.StarkParams(blowup, queries, zk=zk_seed is not None)
    if params.zk:
        trace = stark.zk_pad(trace, queries, zk_seed)
    return stark.prove_table(trace.values(), F,
                             stark.fibonacci_constraint_system(8, F),
                             params).serialize()


def _forged_fri_proof():
    """FRI's two phases on a random word, far from the degree bound."""
    rng = random.Random(2025)
    dom = EvaluationDomain.coset(F, 256, F.generator())
    params = fri.FriParams(dom, 32, 16)
    t = Transcript("golden-fri")
    trees, layer = fri.commit_phase(
        [rng.randrange(F.modulus) for _ in range(256)], params, t)
    return fri.query_phase(trees, t, params, int(layer[0])).serialize()


def _vdf_proof(prime_bits, seed, delay, security_bits=16):
    params, _ = vdf.setup(prime_bits, seed, delay, security_bits)
    _, proof = vdf.vdf_round(params, b"golden-input")
    return vdf.serialize_proof(proof)


def _vdf_setup_primes(prime_bits, seed):
    _, trapdoor = vdf.setup(prime_bits, seed)
    return int_lp(trapdoor.p) + int_lp(trapdoor.q)


def _hauth_bytes():
    """Per field: sk, PRF key and fingerprint of one key, then the tag
    files of a fresh tag and of a degree-2 evaluated one."""
    out = []
    circuit = hauth.Circuit(2, (hauth.Gate("mul", 0, 1),
                                hauth.Gate("addc", 2, const=7)))
    for field in (F, Field(97)):
        key = hauth.keygen(b"golden-hauth", field)
        out += [u64(key.sk.value), key.prf_key.key, key.fingerprint()]
        tags = [hauth.auth(key, m, hauth.MultiLabel(l, b"epoch-1"))
                for m, l in ((3, b"a"), (5, b"b"))]
        for tag in (tags[0], hauth.eval_tags(circuit, tags)):
            out.append(u8(1) + tag.poly.serialize())
    return b"".join(out)


CASES = {
    "fib8-b8-q12": lambda: _fib_proof(8, 8, 12),
    "fib64-b4-q8-zk1": lambda: _fib_proof(64, 4, 8, zk_seed=1),
    "fib1900-b8-q20-zk7": lambda: _fib_proof(1900, 8, 20, zk_seed=7),
    "fib4000-b4-q8-zk5": lambda: _fib_proof(4000, 4, 8, zk_seed=5),
    "two-column-b8-q10": _two_column_proof,
    "fri-coset256-d32-q16": _fri_proof,
    "forged-fib8-row5-b8-q20": lambda: _forged_fib_proof(8, 20),
    "forged-fib8-row5-b4-q6-zk3": lambda: _forged_fib_proof(4, 6, zk_seed=3),
    "forged-fri-coset256-d32-q16": _forged_fri_proof,
    "vdf-n32-T0": lambda: _vdf_proof(16, b"golden-vdf-t0", 0),
    "vdf-n32-T3": lambda: _vdf_proof(16, b"golden-vdf-t3", 3),
    "vdf-n64-T1013": lambda: _vdf_proof(32, b"golden-vdf-1013", 1013),
    "vdf-n128-T777-lam32": lambda: _vdf_proof(64, b"golden-vdf-lam32", 777,
                                              32),
    "vdf-n256-T300-lam48": lambda: _vdf_proof(128, b"golden-vdf-lam48", 300,
                                              48),
    "vdf-n2048-T4096": lambda: _vdf_proof(1024, b"golden-vdf-2048", 4096),
    "vdf-setup-p512": lambda: _vdf_setup_primes(512, b"golden-vdf-setup-512"),
    "vdf-setup-p1024-bench": lambda: _vdf_setup_primes(
        1024, b"vckit-bench/vdf-beacon"),
    "hauth-keys-tags": _hauth_bytes,
}

GOLDEN = {
    "fib8-b8-q12":
        "aedd0757ebafbb2be4e2f407c9a190015daaec94be2b82049703c5e74c6c4118",
    "fib64-b4-q8-zk1":
        "c45c9b0404ccba5253f059d668fb259a46cc9d08c26cab2a3433878733bf607b",
    "fib1900-b8-q20-zk7":
        "87913341e3c9cc80b11e87f1746daa14970f7800e8730611cef372d8a5e7303a",
    "fib4000-b4-q8-zk5":
        "36d62426ec4b2910460276e8bb1d0d9897b18ed27410aa5439635f7fc80c4db9",
    "two-column-b8-q10":
        "b821466d5568826ab5aa6aa188f56e4a0105447c72f5067d9cd6905214dcf2ab",
    "fri-coset256-d32-q16":
        "e16607aabb37d77f15dc7945d78a6bcaa125ab8340f610ee12e94ab9bf3a16ab",
    "forged-fib8-row5-b8-q20":
        "87d855789c4782b034377cc4dac3d7c018fc9b7b23c7e01206aeb65869ac33fc",
    "forged-fib8-row5-b4-q6-zk3":
        "273d10bee0e4434cf100114aeedbdde74b4a92320bd703ae26aee05b380269a8",
    "forged-fri-coset256-d32-q16":
        "1b6beb9fa6e493d114ec4c765001be0f1c8f9c36b6d5e2765b610c0e222f3074",
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
    "vdf-setup-p512":
        "8054b14489477b2e010dbee51914605941d42ead8f7fde63bf24e7634a65121f",
    "vdf-setup-p1024-bench":
        "2c333491855f7067eb5105a8fccd5c30232eb38df73295e3f27ccc7cf49821fa",
    "hauth-keys-tags":
        "f994c5d394f01e5f2395b4b58604d5a1f5387bd80d892af2e6d5eeb8a7a24aaf",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_proof(name):
    assert hashlib.sha256(CASES[name]()).hexdigest() == GOLDEN[name]

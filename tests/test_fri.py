"""FRI tests with small-field oracles for split and fold."""

import random

import numpy as np
import pytest

from vckit import fri
from vckit.encoding import Reader, bytes_lp, u64
from vckit.errors import InternalError, UsageError
from vckit.field import (DEFAULT_MODULUS, EvaluationDomain, Field,
                         Polynomial)
from vckit.transcript import Transcript

F17 = Field(17)
FBIG = Field(DEFAULT_MODULUS)


def rand_poly(field, degree_bound, seed):
    rng = random.Random(seed)
    return Polynomial(field,
                      [rng.randrange(field.modulus)
                       for _ in range(degree_bound)])


def split(f):
    """f(x) = f_even(x^2) + x * f_odd(x^2)."""
    return (Polynomial(f.field, f.coeffs[0::2]),
            Polynomial(f.field, f.coeffs[1::2]))


def test_split_identity_f17():
    """f(x) = f_even(x^2) + x * f_odd(x^2), checked on all of F_17."""
    poly = Polynomial(F17, [3, 1, 4, 1, 5, 9, 2, 6])
    fe, fo = split(poly)
    for x in range(17):
        xf = F17(x)
        assert poly.evaluate(xf) == (fe.evaluate(xf * xf)
                                     + xf * fo.evaluate(xf * xf))


def test_fold_layer_oracle_f17():
    """Folded evaluations equal f_even + x0 * f_odd on the squared domain."""
    dom = EvaluationDomain.subgroup(F17, 16)
    poly = rand_poly(F17, 8, seed=1)
    evals = [poly.evaluate(pt).value for pt in dom.points()]
    x0 = F17(7)
    folded = fri.fold_layer(evals, dom, x0)
    fe, fo = split(poly)
    expected = fe + Polynomial.constant(F17, x0) * fo
    sq = dom.squared()
    for i in range(8):
        assert int(folded[i]) == expected.evaluate(sq.point(i)).value


def test_fold_layer_coset():
    dom = EvaluationDomain.coset(F17, 8, F17(3))
    poly = rand_poly(F17, 4, seed=2)
    evals = [poly.evaluate(pt).value for pt in dom.points()]
    x0 = F17(5)
    folded = fri.fold_layer(evals, dom, x0)
    fe, fo = split(poly)
    expected = fe + Polynomial.constant(F17, x0) * fo
    sq = dom.squared()
    for i in range(4):
        assert int(folded[i]) == expected.evaluate(sq.point(i)).value


def test_params_validation():
    dom = EvaluationDomain.subgroup(FBIG, 64)
    with pytest.raises(UsageError):
        fri.FriParams(dom, 3, 4)            # not a power of two
    with pytest.raises(UsageError):
        fri.FriParams(dom, 64, 4)           # rate above 1/2
    params = fri.FriParams(dom, 8, 100)
    assert params.rounds == 3
    assert params.effective_queries() == 32


def test_pair_tree_layout():
    evals = list(range(10, 26))  # 16 values
    tree = fri.pair_tree(evals)
    for j in range(8):
        path = fri.open_pair(tree, j)
        assert fri.verify_pair(tree.root, j, evals[j], evals[j + 8], path)
        assert not fri.verify_pair(tree.root, j, evals[j], evals[j + 8] ^ 1,
                                   path)


def test_completeness_subgroup_and_coset():
    for dom in (EvaluationDomain.subgroup(FBIG, 64),
                EvaluationDomain.coset(FBIG, 64, FBIG.generator())):
        params = fri.FriParams(dom, 8, 10)
        poly = rand_poly(FBIG, 8, seed=5)
        evals = poly.evaluate_array(dom.point_array())
        proof = fri.prove(evals, params, Transcript("fri-test"))
        v = fri.verify(proof, params, Transcript("fri-test"))
        assert v, v.reason


def test_exact_degree_boundary():
    """degree d-1 accepted, degree d caught by the prover's final check."""
    dom = EvaluationDomain.subgroup(FBIG, 32)
    params = fri.FriParams(dom, 4, 8)
    ok = rand_poly(FBIG, 4, seed=6)
    evals = ok.evaluate_array(dom.point_array())
    assert fri.verify(fri.prove(evals, params, Transcript("t")),
                      params, Transcript("t"))
    too_big = rand_poly(FBIG, 5, seed=7)
    evals = too_big.evaluate_array(dom.point_array())
    with pytest.raises(InternalError):
        fri.prove(evals, params, Transcript("t"))


def test_cheating_prover_rejected():
    dom = EvaluationDomain.subgroup(FBIG, 64)
    params = fri.FriParams(dom, 4, 20)
    rng = random.Random(8)
    evals = [rng.randrange(FBIG.modulus) for _ in range(64)]
    proof = fri.prove(evals, params, Transcript("t"),
                      enforce_low_degree=False)
    assert not fri.verify(proof, params, Transcript("t"))


def test_transcript_binding():
    """A proof generated under one transcript fails under another."""
    dom = EvaluationDomain.subgroup(FBIG, 32)
    params = fri.FriParams(dom, 4, 6)
    evals = rand_poly(FBIG, 4, seed=9).evaluate_array(dom.point_array())
    t = Transcript("bound")
    t.absorb(b"context", b"alpha")
    proof = fri.prove(evals, params, t)
    other = Transcript("bound")
    other.absorb(b"context", b"beta")
    assert not fri.verify(proof, params, other)


def test_tampered_final_value_rejected():
    dom = EvaluationDomain.subgroup(FBIG, 32)
    params = fri.FriParams(dom, 4, 6)
    evals = rand_poly(FBIG, 4, seed=10).evaluate_array(dom.point_array())
    proof = fri.prove(evals, params, Transcript("t"))
    proof.final_value = (proof.final_value + 1) % FBIG.modulus
    assert not fri.verify(proof, params, Transcript("t"))


def test_tampered_opening_rejected():
    dom = EvaluationDomain.subgroup(FBIG, 32)
    params = fri.FriParams(dom, 4, 6)
    evals = rand_poly(FBIG, 4, seed=11).evaluate_array(dom.point_array())
    proof = fri.prove(evals, params, Transcript("t"))
    ql = proof.queries[0].layers[0]
    ql.value = (ql.value + 1) % FBIG.modulus
    v = fri.verify(proof, params, Transcript("t"))
    assert not v and "layer 0" in v.reason


def test_query_indices_without_replacement():
    dom = EvaluationDomain.subgroup(FBIG, 64)
    params = fri.FriParams(dom, 8, 200)  # capped at 32
    evals = rand_poly(FBIG, 8, seed=12).evaluate_array(dom.point_array())
    proof = fri.prove(evals, params, Transcript("t"))
    idxs = [q.index for q in proof.queries]
    assert len(idxs) == 32 == len(set(idxs))
    assert all(0 <= i < 32 for i in idxs)


def test_serialize_roundtrip():
    dom = EvaluationDomain.subgroup(FBIG, 32)
    params = fri.FriParams(dom, 8, 5)
    evals = rand_poly(FBIG, 8, seed=13).evaluate_array(dom.point_array())
    proof = fri.prove(evals, params, Transcript("t"))
    back = fri.FriProof.deserialize(proof.serialize())
    assert back.serialize() == proof.serialize()
    assert fri.verify(back, params, Transcript("t"))
    with pytest.raises(UsageError):
        fri.FriProof.deserialize(b"BAD!" + proof.serialize()[4:])


def test_decoder_rejects_trailing_bytes():
    dom = EvaluationDomain.subgroup(FBIG, 32)
    params = fri.FriParams(dom, 8, 5)
    evals = rand_poly(FBIG, 8, seed=14).evaluate_array(dom.point_array())
    blob = fri.prove(evals, params, Transcript("t")).serialize()
    with pytest.raises(UsageError, match="trailing"):
        fri.FriProof.deserialize(blob + b"\x00")
    # one byte appended inside the first query's first path record
    reader = Reader(blob)
    reader.take(5)
    reader.take(32 * reader.u32() + 8)
    reader.take(4 + 4 + 4 + 16)
    start = reader.pos
    path = reader.bytes_lp()
    padded = blob[:start] + bytes_lp(path + b"\x00") + blob[reader.pos:]
    with pytest.raises(UsageError, match="trailing"):
        fri.FriProof.deserialize(padded)


def _prove_committing(evals, params, t, tamper, layer=0):
    """fri.prove, except that layer `layer` is committed and opened as
    tamper(the honest layer), while folding continues from the honest
    layer."""
    layers = [np.asarray(evals, dtype=np.uint64)]
    committed, trees, roots = [], [], []
    domain = params.domain
    for j in range(params.rounds):
        committed.append(tamper(layers[-1]) if j == layer else layers[-1])
        tree = fri.pair_tree(committed[-1])
        trees.append(tree)
        roots.append(tree.root)
        t.absorb(b"fri-root", tree.root)
        layers.append(fri.fold_layer(layers[-1], domain,
                                     t.challenge_field(FBIG)))
        domain = domain.squared()
    final_value = int(layers[-1][0])
    t.absorb(b"fri-final", u64(final_value))
    return fri.query_phase(committed + layers[-1:], trees, t, params, roots,
                           final_value)


def test_prove_committing_reproduces_the_honest_proof():
    dom = EvaluationDomain.coset(FBIG, 32, FBIG.generator())
    params = fri.FriParams(dom, 4, 6)
    evals = rand_poly(FBIG, 4, seed=15).evaluate_array(dom.point_array())
    honest = fri.prove(evals, params, Transcript("t"))
    for layer in range(params.rounds):
        same = _prove_committing(evals, params, Transcript("t"),
                                 lambda honest_layer: honest_layer, layer)
        assert same.serialize() == honest.serialize()


@pytest.mark.parametrize("half", ["value", "value_neg"])
def test_non_canonical_layer_values_rejected(half):
    """Layer-0 values are never compared with a fold, so value + p there
    folds like value; the verifier must reject it as non-canonical."""
    dom = EvaluationDomain.coset(FBIG, 32, FBIG.generator())
    params = fri.FriParams(dom, 4, 6)
    evals = rand_poly(FBIG, 4, seed=16).evaluate_array(dom.point_array())
    committed = evals.copy()
    if half == "value":
        committed[:16] += np.uint64(FBIG.modulus)
    else:
        committed[16:] += np.uint64(FBIG.modulus)
    proof = _prove_committing(evals, params, Transcript("t"),
                              lambda _: committed)
    v = fri.verify(proof, params, Transcript("t"))
    assert not v and v.reason == "layer 0: non-canonical value"


def test_non_canonical_final_value_rejected():
    """With zero folding rounds nothing compares the final value, so
    c + p for a constant c must be rejected as non-canonical."""
    dom = EvaluationDomain.coset(FBIG, 16, FBIG.generator())
    params = fri.FriParams(dom, 1, 4)
    evals = np.full(16, 7, dtype=np.uint64)
    assert fri.verify(fri.prove(evals, params, Transcript("t")), params,
                      Transcript("t"))
    t = Transcript("t")
    t.absorb(b"fri-final", u64(7 + FBIG.modulus))
    proof = fri.query_phase([evals], [], t, params, [], 7 + FBIG.modulus)
    v = fri.verify(proof, params, Transcript("t"))
    assert not v and v.reason == "non-canonical final value"


def _proof_64():
    dom = EvaluationDomain.coset(FBIG, 64, FBIG.generator())
    params = fri.FriParams(dom, 8, 6)
    evals = rand_poly(FBIG, 8, seed=17).evaluate_array(dom.point_array())
    return evals, params


def test_consistency_failure_in_a_later_query_and_layer():
    """A layer-1 commitment changed at one value, which only query k > 0
    opens and which is its own point there, not its partner's: every
    query passes layer 0 and the layer-1 paths, and the fold of layer 0
    fails to match at query k alone."""
    evals, params = _proof_64()
    quarter = params.domain.size // 4
    for pos in range(2 * quarter):
        def bump(layer):
            out = layer.copy()
            out[pos] = (int(out[pos]) + 1) % FBIG.modulus
            return out
        proof = _prove_committing(evals, params, Transcript("t"), bump, 1)
        touching = [k for k, q in enumerate(proof.queries)
                    if q.index % quarter == pos % quarter]
        if (len(touching) != 1 or touching[0] == 0
                or proof.queries[touching[0]].index != pos):
            continue
        v = fri.verify(proof, params, Transcript("t"))
        assert not v and v.reason == "layer 1: consistency failure"
        return
    pytest.fail("no position is opened by exactly one later query")


def test_bad_opening_in_the_last_query_only():
    evals, params = _proof_64()
    for layer in range(params.rounds):
        proof = fri.prove(evals, params, Transcript("t"))
        path = proof.queries[-1].layers[layer].path
        path.siblings[-1] = bytes(32)
        v = fri.verify(proof, params, Transcript("t"))
        assert not v and v.reason == f"layer {layer}: bad opening"


def test_malformed_query_bundle_rejected():
    """A query with a layer missing, or one too many, is malformed."""
    evals, params = _proof_64()
    for k in (0, -1):
        for change in ("drop", "extra"):
            proof = fri.prove(evals, params, Transcript("t"))
            layers = proof.queries[k].layers
            if change == "drop":
                layers.pop()
            else:
                layers.append(layers[-1])
            v = fri.verify(proof, params, Transcript("t"))
            assert not v and v.reason == "malformed query bundle"

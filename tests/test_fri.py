"""FRI tests with small-field oracles for split and fold."""

import dataclasses
import random

import numpy as np
import pytest

import symbolic_oracle as oracle
from vckit import fri
from vckit.encoding import Reader, u32, u64
from vckit.errors import InternalError, UsageError
from vckit.merkle import MerkleTree, verify_path
from vckit.field import (DEFAULT_MODULUS, EvaluationDomain, Field,
                         Polynomial, evaluate_on_domain)
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
    """Folded by 2, evaluations equal f_even + x0 * f_odd on the squared
    domain."""
    dom = EvaluationDomain.subgroup(F17, 16)
    poly = rand_poly(F17, 8, seed=1)
    evals = [poly.evaluate(pt).value for pt in oracle.domain_points(dom)]
    x0 = F17(7)
    folded = fri.fold_layer(evals, dom, x0, 2)
    fe, fo = split(poly)
    expected = fe + Polynomial.constant(F17, x0) * fo
    sq = dom.squared()
    for i in range(8):
        assert int(folded[i]) == expected.evaluate(sq.point(i)).value


def test_fold_layer_coset():
    dom = EvaluationDomain.coset(F17, 8, F17(3))
    poly = rand_poly(F17, 4, seed=2)
    evals = [poly.evaluate(pt).value for pt in oracle.domain_points(dom)]
    x0 = F17(5)
    folded = fri.fold_layer(evals, dom, x0, 2)
    fe, fo = split(poly)
    expected = fe + Polynomial.constant(F17, x0) * fo
    sq = dom.squared()
    for i in range(4):
        assert int(folded[i]) == expected.evaluate(sq.point(i)).value


@pytest.mark.parametrize("field, dom, degree_bound", [
    (F17, EvaluationDomain.subgroup(F17, 16), 8),
    (F17, EvaluationDomain.coset(F17, 8, F17(3)), 4),
    (FBIG, EvaluationDomain.coset(FBIG, 64, FBIG.generator()), 16)])
def test_fold_by_4_oracle(field, dom, degree_bound):
    """Folded by k = 8, 4 or 2, the value at index c is sum_r beta^r f_r
    at x_c^k, f_r holding the coefficients of index r mod k."""
    poly = rand_poly(field, degree_bound, seed=dom.size)
    evals = [poly.evaluate(pt).value for pt in oracle.domain_points(dom)]
    beta = field(random.Random(degree_bound).randrange(field.modulus))
    for arity in (8, 4, 2):
        folded = fri.fold_layer(evals, dom, beta, arity)
        expected = oracle.fri_fold(poly, beta, arity)
        assert len(folded) == dom.size // arity
        for c in range(dom.size // arity):
            assert int(folded[c]) == expected.evaluate(
                dom.point(c) ** arity).value


def test_params_validation():
    dom = EvaluationDomain.subgroup(FBIG, 64)
    with pytest.raises(UsageError):
        fri.FriParams(dom, 3, 4)            # not a power of two
    with pytest.raises(UsageError):
        fri.FriParams(dom, 64, 4)           # rate above 1/2
    with pytest.raises(UsageError):
        fri.FriParams(dom, 8, 0)            # no query checks nothing
    params = fri.FriParams(dom, 16, 100)
    assert params.arities == [8, 2]
    assert params.effective_queries() == 64
    assert fri.FriParams(dom, 32, 1).arities == [8, 4]
    assert fri.FriParams(dom, 8, 1).arities == [8]
    assert fri.FriParams(dom, 4, 1).arities == [4]
    assert fri.FriParams(dom, 2, 1).arities == [2]
    with pytest.raises(UsageError, match="at least 2"):
        fri.FriParams(dom, 1, 1)            # would fold no round


def test_pair_tree_layout():
    """Each (alpha, -alpha) pair sits in one coset leaf with the rest
    of its coset: a layer of m values is a tree of m/arity leaves, leaf c
    holds the values at c, c + m/arity, ..., whose points share x^arity,
    and the leaf alone is opened by its one-element path."""
    dom = EvaluationDomain.coset(FBIG, 64, FBIG.generator())
    params = fri.FriParams(dom, 16, 1)
    evals = np.arange(10, 74, dtype=np.uint64)
    trees, _ = fri.commit_phase(evals, params, Transcript("t"),
                                enforce_low_degree=False)
    # replay the challenges to rebuild each layer the trees commit
    replay = Transcript("t")
    layer, domain = evals, dom
    for tree, arity in zip(trees, params.arities):
        width = len(layer) // arity
        assert tree.num_leaves == width
        for c in range(width):
            assert len({domain.point(c + s * width) ** arity
                        for s in range(arity)}) == 1
            coset = [int(layer[c + s * width]) for s in range(arity)]
            leaf = b"".join(u64(v) for v in coset)
            siblings = tree.open([c]).siblings
            assert verify_path(tree.root, width, {c: leaf}, siblings)
            coset[-1] ^= 1
            assert not verify_path(tree.root, width,
                                   {c: b"".join(u64(v) for v in coset)},
                                   siblings)
        replay.absorb(b"fri-root", tree.root)
        layer = fri.fold_layer(layer, domain, replay.challenge_field(FBIG),
                               arity)
        domain = fri._image(domain, arity)
    assert [t.num_leaves for t in trees] == [8, 4]


# the width of each layer's cosets, for log2 d = 0, 1 and 2 mod 3
ROUND_WIDTHS = {2: [2], 4: [4], 8: [8], 16: [8, 2], 32: [8, 4],
                1024: [8, 8, 8, 2], 2048: [8, 8, 8, 4], 4096: [8, 8, 8, 8]}


@pytest.mark.parametrize("d", sorted(ROUND_WIDTHS))
def test_completeness_for_even_and_odd_log_degree(d):
    """Rounds of 8 with a last round of 2 or 4 when log2 d is 1 or 2 mod
    3."""
    dom = EvaluationDomain.coset(FBIG, 2 * d, FBIG.generator())
    params = fri.FriParams(dom, d, 8)
    evals = evaluate_on_domain(rand_poly(FBIG, d, seed=d).coeffs, dom)
    proof = fri.prove(evals, params, Transcript("t"))
    assert len(proof.layer_roots) == len(ROUND_WIDTHS[d])
    assert [opening.rows.shape[1] for opening in proof.layers] == (
        ROUND_WIDTHS[d])
    back = fri.FriProof.deserialize(proof.serialize())
    v = fri.verify(back, params, Transcript("t"))
    assert v, v.reason


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
    rows = proof.layers[0].rows
    rows[0, 0] = (rows[0, 0] + 1) % FBIG.modulus
    v = fri.verify(proof, params, Transcript("t"))
    assert not v and "layer 0" in v.reason


def test_changed_coset_value_rejected():
    """Any one value of any opened coset changed, on any layer and in any
    slot, breaks the layer's path."""
    evals, params = _proof_128()
    honest = fri.prove(evals, params, Transcript("t"))
    for layer, arity in enumerate(params.arities):
        for row in range(len(honest.layers[layer].rows)):
            for slot in range(arity):
                proof = fri.FriProof.deserialize(honest.serialize())
                rows = proof.layers[layer].rows
                rows[row, slot] = (rows[row, slot] + 1) % FBIG.modulus
                v = fri.verify(proof, params, Transcript("t"))
                assert not v and v.reason == f"layer {layer}: bad opening"


def test_query_indices_without_replacement():
    """Positions are distinct and drawn from the whole first domain."""
    dom = EvaluationDomain.subgroup(FBIG, 64)
    params = fri.FriParams(dom, 8, 200)  # capped at 64
    evals = rand_poly(FBIG, 8, seed=12).evaluate_array(dom.point_array())
    proof = fri.prove(evals, params, Transcript("t"))
    assert sorted(proof.queries) == list(range(64))
    assert fri.verify(proof, params, Transcript("t"))


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


@pytest.mark.parametrize("version", [1, 2, 3, 5])
def test_decoder_rejects_other_format_versions(version):
    """The byte after the magic is the format version: 4, nothing else.
    Version 3 folded by 4."""
    evals, params = _proof_128()
    blob = fri.prove(evals, params, Transcript("t")).serialize()
    assert blob[:5] == b"VCKF\x04" == fri.PROOF_MAGIC
    with pytest.raises(UsageError, match=f"^unsupported FRI proof format "
                                         f"version {version}$"):
        fri.FriProof.deserialize(blob[:4] + bytes([version]) + blob[5:])


def _first_width_set_to(evals, params, width):
    """The encoded proof with the width byte of its first layer's
    opening, found after the roots, the final value and the query
    positions, changed from 8 to width."""
    blob = fri.prove(evals, params, Transcript("t")).serialize()
    reader = Reader(blob)
    reader.take(len(fri.PROOF_MAGIC) + 1)
    reader.take(32 * reader.u32() + 8)
    reader.take(4 * reader.u32())
    at = reader.pos
    assert blob[at] == 8
    return blob[:at] + bytes([width]) + blob[at + 1:]


@pytest.mark.parametrize("width", [w for w in range(256) if w != 8])
def test_decoder_rejects_cosets_of_other_widths(width):
    """Before the last layer every opened coset has 8 values; a width
    byte of anything else, 2 and 4 included, is refused, whatever
    follows it."""
    evals, params = _proof_128()
    assert params.arities == [8, 2]
    with pytest.raises(UsageError, match=f"^opened coset of width {width} "
                                         f"on layer 0$"):
        fri.FriProof.deserialize(_first_width_set_to(evals, params, width))


@pytest.mark.parametrize("width", [0, 1, 3, 5, 6, 7, 9, 16, 255])
def test_decoder_rejects_last_cosets_of_other_widths(width):
    """The last layer's cosets have 2, 4 or 8 values; any other width
    byte there is refused."""
    evals, params = _proof_one_round()
    assert params.arities == [8]
    with pytest.raises(UsageError, match=f"^opened coset of width {width} "
                                         f"on layer 0$"):
        fri.FriProof.deserialize(_first_width_set_to(evals, params, width))


def _with_layer_rows(proof, layer, rows):
    """proof with layer `layer`'s opened cosets replaced by rows."""
    layers = list(proof.layers)
    layers[layer] = dataclasses.replace(layers[layer], rows=rows)
    return dataclasses.replace(proof, layers=layers)


def test_coset_of_the_wrong_width_rejected():
    """4- and 8-value cosets where the last round folds by 2, and cosets
    of 2, 3, 4, 5 or 7 values where a round folds by 8: the decoder passes
    the first (2, 4 and 8 may each close the proof), the verifier rejects
    each."""
    evals, params = _proof_128()
    assert params.arities == [8, 2]
    proof = fri.prove(evals, params, Transcript("t"))
    last = proof.layers[-1].rows
    for copies in (2, 4):
        forged = _with_layer_rows(proof, 1, np.hstack([last] * copies))
        back = fri.FriProof.deserialize(forged.serialize())
        v = fri.verify(back, params, Transcript("t"))
        assert not v and v.reason == "layer 1: wrong leaf width"
    evals, d8 = _proof_one_round()
    proof = fri.prove(evals, d8, Transcript("t"))
    rows = proof.layers[0].rows
    for width in (2, 3, 4, 5, 7):
        forged = _with_layer_rows(proof, 0, np.resize(rows,
                                                      (len(rows), width)))
        v = fri.verify(forged, d8, Transcript("t"))
        assert not v and v.reason == "layer 0: wrong leaf width"


def test_coset_count_other_than_the_positions_need_rejected():
    """Each layer sends each coset its positions hold once: one coset
    dropped, one sent twice, or one more appended is a count mismatch,
    on the wire too."""
    evals, params = _proof_128()
    proof = fri.prove(evals, params, Transcript("t"))
    for layer in range(len(params.arities)):
        rows = proof.layers[layer].rows
        for changed in (rows[1:], np.vstack([rows[:1], rows]),
                        np.vstack([rows, rows[-1:]])):
            forged = _with_layer_rows(proof, layer, changed)
            for candidate in (forged, fri.FriProof.deserialize(
                    forged.serialize())):
                v = fri.verify(candidate, params, Transcript("t"))
                assert not v
                assert v.reason == f"layer {layer}: wrong leaf count"


def test_decoder_rejects_trailing_bytes():
    dom = EvaluationDomain.subgroup(FBIG, 32)
    params = fri.FriParams(dom, 8, 5)
    evals = rand_poly(FBIG, 8, seed=14).evaluate_array(dom.point_array())
    blob = fri.prove(evals, params, Transcript("t")).serialize()
    with pytest.raises(UsageError, match="trailing"):
        fri.FriProof.deserialize(blob + b"\x00")
    # the last layer's sibling count one short leaves its last sibling;
    # here 6 queries leave the last layer's 8 cosets partly unopened
    evals, params = _proof_128()
    blob = fri.prove(evals, params, Transcript("t")).serialize()
    proof = fri.FriProof.deserialize(blob)
    siblings = len(proof.layers[-1].siblings)
    assert siblings
    count_at = len(blob) - 32 * siblings - 4
    assert blob[count_at:count_at + 4] == u32(siblings)
    short = blob[:count_at] + u32(siblings - 1) + blob[count_at + 4:]
    with pytest.raises(UsageError, match="trailing"):
        fri.FriProof.deserialize(short)


def _prove_committing(evals, params, t, tamper, layer=0):
    """fri.prove, except that layer `layer` is committed and opened as
    tamper(the honest layer), while folding continues from the honest
    layer."""
    honest = np.asarray(evals, dtype=np.uint64)
    trees = []
    domain = params.domain
    for j, arity in enumerate(params.arities):
        committed = tamper(honest) if j == layer else honest
        trees.append(MerkleTree(fri._cosets(committed, arity)))
        t.absorb(b"fri-root", trees[-1].root)
        honest = fri.fold_layer(honest, domain, t.challenge_field(FBIG),
                                arity)
        domain = fri._image(domain, arity)
    final_value = int(honest[0])
    t.absorb(b"fri-final", u64(final_value))
    return fri.query_phase(trees, t, params, final_value)


def test_prove_committing_reproduces_the_honest_proof():
    dom = EvaluationDomain.coset(FBIG, 64, FBIG.generator())
    for d in (4, 8, 16):
        params = fri.FriParams(dom, d, 6)
        evals = rand_poly(FBIG, d, seed=15).evaluate_array(dom.point_array())
        honest = fri.prove(evals, params, Transcript("t"))
        for layer in range(len(params.arities)):
            same = _prove_committing(evals, params, Transcript("t"),
                                     lambda honest_layer: honest_layer, layer)
            assert same.serialize() == honest.serialize()


@pytest.mark.parametrize("half", ["value", "value_neg"])
def test_non_canonical_layer_values_rejected(half):
    """Layer-0 values are never compared with a fold, so value + p there
    folds like value; the verifier must reject it as non-canonical.
    "value" shifts the layer's first half, slots 0 and 1 of every coset,
    "value_neg" its second half, slots 2 and 3 at the negated points."""
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
    """c + p for the constant c of the last layer is rejected as
    non-canonical, before anything is folded."""
    dom = EvaluationDomain.coset(FBIG, 16, FBIG.generator())
    params = fri.FriParams(dom, 2, 4)
    evals = np.full(16, 7, dtype=np.uint64)
    proof = fri.prove(evals, params, Transcript("t"))
    assert fri.verify(proof, params, Transcript("t"))
    assert proof.final_value == 7
    proof.final_value += FBIG.modulus
    v = fri.verify(proof, params, Transcript("t"))
    assert not v and v.reason == "non-canonical final value"


def _proof_128():
    """Two rounds, by 8 and then by 2, on 128 points."""
    dom = EvaluationDomain.coset(FBIG, 128, FBIG.generator())
    params = fri.FriParams(dom, 16, 6)
    evals = rand_poly(FBIG, 16, seed=17).evaluate_array(dom.point_array())
    return evals, params


def _proof_one_round():
    """One round, by 8, on 64 points."""
    dom = EvaluationDomain.coset(FBIG, 64, FBIG.generator())
    params = fri.FriParams(dom, 8, 6)
    evals = rand_poly(FBIG, 8, seed=18).evaluate_array(dom.point_array())
    return evals, params


def test_consistency_failure_in_a_later_query_and_layer():
    """A layer-1 commitment changed at one value in slot 1 of its coset,
    which is the position of query k > 0 alone: every query passes
    layer 0 and the layer-1 paths, and the fold of layer 0 fails to
    match at query k alone.  Queries opening the same coset at the other
    slot still match."""
    evals, params = _proof_128()
    size1 = params.domain.size // 8      # layer 1, cosets of 2
    for pos in range(size1 // 2, size1):
        def bump(layer):
            out = layer.copy()
            out[pos] = (int(out[pos]) + 1) % FBIG.modulus
            return out
        proof = _prove_committing(evals, params, Transcript("t"), bump, 1)
        touching = [k for k, q in enumerate(proof.queries)
                    if q % size1 == pos]
        if len(touching) != 1 or touching[0] == 0:
            continue
        v = fri.verify(proof, params, Transcript("t"))
        assert not v and v.reason == "layer 1: consistency failure"
        return
    pytest.fail("no slot-1 position is opened by exactly one later query")


def test_bad_opening_in_the_last_query_only():
    """The last sibling of a layer's path zeroed: the upper levels the
    queries share are checked once, and still checked."""
    evals, params = _proof_128()
    for layer in range(len(params.arities)):
        proof = fri.prove(evals, params, Transcript("t"))
        siblings = proof.layers[layer].siblings
        assert siblings
        siblings[-1] = bytes(32)
        v = fri.verify(proof, params, Transcript("t"))
        assert not v and v.reason == f"layer {layer}: bad opening"


def test_malformed_query_bundle_rejected():
    """A layer opening missing, or one too many, against the roots."""
    evals, params = _proof_128()
    proof = fri.prove(evals, params, Transcript("t"))
    for layers in (proof.layers[:-1], proof.layers + proof.layers[-1:]):
        v = fri.verify(dataclasses.replace(proof, layers=layers), params,
                       Transcript("t"))
        assert not v and v.reason == "wrong number of layer openings"


def test_wrong_number_of_layer_roots_rejected():
    """One root dropped or one added: the list is not empty, but its
    length is not the number of folding rounds."""
    evals, params = _proof_128()
    proof = fri.prove(evals, params, Transcript("t"))
    roots = proof.layer_roots
    for forged in (roots[:-1], roots + roots[-1:]):
        assert forged
        v = fri.verify(dataclasses.replace(proof, layer_roots=forged),
                       params, Transcript("t"))
        assert not v and v.reason == "wrong number of layer roots"


def test_pair_path_without_siblings_rejected():
    """A layer path with no siblings, where the cosets do not cover the
    layer, is a bad opening on every layer."""
    evals, params = _proof_128()
    for layer in range(len(params.arities)):
        proof = fri.prove(evals, params, Transcript("t"))
        layers = proof.layers
        assert layers[layer].siblings
        layers[layer] = dataclasses.replace(layers[layer], siblings=[])
        v = fri.verify(proof, params, Transcript("t"))
        assert not v and v.reason == f"layer {layer}: bad opening"

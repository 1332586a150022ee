"""STARK pipeline tests: arithmetisation pieces, prover/verifier, zk."""

import dataclasses
import random

import numpy as np
import pytest

import symbolic_oracle as oracle
from vckit import fri, stark
from vckit.encoding import Reader, bytes_lp, u64
from vckit.errors import ConstraintViolation, InternalError, UsageError
from vckit.field import (DEFAULT_MODULUS, EvaluationDomain, Field, Polynomial,
                         evaluate_on_domain, interpolate,
                         interpolate_on_domain)
from vckit.merkle import MerkleTree
from vckit.transcript import Transcript

F = Field(DEFAULT_MODULUS)


def fib_ints(n, p=DEFAULT_MODULUS):
    rows = [1, 1]
    while len(rows) < n:
        rows.append((rows[-1] + rows[-2]) % p)
    return rows[:n]


def test_trace_fibonacci_values():
    tr = stark.trace_fibonacci(8, F)
    assert tr.columns[0] == fib_ints(8)
    assert tr.original_length == 8 and tr.length == 8
    tr10 = stark.trace_fibonacci(10, F)
    assert tr10.length == 16 and tr10.columns[0][:10] == fib_ints(10)
    assert tr10.columns[0][10:] == [0] * 6


def test_constraint_system_pins_output():
    cs = stark.fibonacci_constraint_system(8, F)
    assert any(bc.row == 7 and bc.value == fib_ints(8)[7]
               for bc in cs.boundaries)
    assert cs.max_window() == 3


def test_check_satisfaction_oracle():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    stark.check_satisfaction(tr, cs)  # no raise
    bad = stark.TraceTable([list(tr.columns[0])], 8, F)
    bad.columns[0][4] += 1
    with pytest.raises(ConstraintViolation):
        stark.check_satisfaction(bad, cs)


def _lde_columns(trace, lde):
    dom = trace.domain()
    return [evaluate_on_domain(interpolate_on_domain(col, dom), lde)
            for col in trace.columns]


def test_multivariate_predicate_eval_and_substitute():
    pred = stark.MultivariatePoly(F, 2, {(2, 0): 1, (0, 1): -1})  # x^2 - y
    assert oracle.evaluate(pred, [F(5), F(25)]).is_zero()
    assert pred.total_degree == 2
    px = Polynomial(F, [1, 1])
    py = Polynomial(F, [0, 2])
    composed = oracle.substitute(pred, [px, py])
    xs = np.array([0, 3, 17, F.modulus - 1], dtype=np.uint64)
    vec = pred.evaluate_array([px.evaluate_array(xs), py.evaluate_array(xs)])
    for x, v in zip(xs.tolist(), vec.tolist()):
        want = px.evaluate(x) ** 2 - py.evaluate(x)
        assert composed.evaluate(x) == want
        assert v == want.value


def test_boundary_quotient_exactness():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    dom = tr.domain()
    lde = stark.StarkParams(8, 1).lde_domain(F, tr.length)
    poly = oracle.interpolate_trace(tr)[0]
    quot, rem = oracle.boundary_quotient(poly, cs.boundaries, dom)
    assert rem.is_zero()
    # recombining must reproduce the column polynomial off the boundary
    pts = [(dom.point(bc.row), F(bc.value)) for bc in cs.boundaries]
    b_poly = interpolate(pts)
    z_b = stark.membership_poly(F, [x for x, _ in pts])
    assert quot * z_b + b_poly == poly
    # the pointwise quotient is the oracle quotient at every LDE point
    xs = lde.point_array()
    pointwise = stark.boundary_quotient(xs, _lde_columns(tr, lde)[0],
                                        cs.boundaries, dom)
    assert pointwise.tolist() == quot.evaluate_array(xs).tolist()
    # off the boundary values, division leaves a remainder, and the
    # pointwise values are no longer those of a low-degree polynomial
    bad = poly + Polynomial(F, [1])
    _, rem = oracle.boundary_quotient(bad, cs.boundaries, dom)
    assert not rem.is_zero()
    bad_values = stark.boundary_quotient(xs, evaluate_on_domain(bad, lde),
                                         cs.boundaries, dom)
    assert interpolate_on_domain(bad_values, lde).degree >= tr.length


def test_transition_vanishing_matches_eval():
    """1/Z_E times the oracle Z_E is 1, at a point array and on cosets of
    4 and 32 times the trace size (the domain path), and on a coset of
    the trace's own size, where x^8 - 1 is constant."""
    dom = EvaluationDomain.subgroup(F, 8)
    xs = np.array([5, 123, 99991], dtype=np.uint64)
    assert not any(dom.contains(F(int(x))) for x in xs)
    cosets = [EvaluationDomain.coset(F, size, F.generator())
              for size in (8, 32, 256)]
    for num_rows in (1, 5, 6, 8):
        z = oracle.transition_vanishing(F, dom, num_rows)
        for i in range(8):
            assert z.evaluate(dom.point(i)).is_zero() == (i < num_rows)
        for points in [xs] + cosets:
            inverse = stark.transition_vanishing_eval(points, dom, num_rows)
            pts = stark._point_array(points)
            assert (inverse * z.evaluate_array(pts) % np.uint64(F.modulus)
                    ).tolist() == [1] * len(pts)


@pytest.mark.parametrize("rows", [[], [0], [0, 1, 31], list(range(5, 64)),
                                  [3, 3]])
def test_row_product_on_a_domain_matches_the_point_array(rows):
    """The coefficient-and-NTT product on a coset equals the pass-per-row
    product at the same points."""
    g = EvaluationDomain.subgroup(F, 64).generator
    lde = EvaluationDomain.coset(F, 256, F.generator())
    on_domain = stark._row_product(lde, g, rows)
    assert on_domain.tolist() == stark._row_product(
        lde.point_array(), g, rows).tolist()


def test_transition_quotient_exact_for_honest_trace():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    tc = cs.transitions[0]
    lde = stark.StarkParams(8, 1).lde_domain(F, tr.length)
    quot, rem = oracle.transition_quotient(oracle.interpolate_trace(tr), tc, tr)
    assert rem.is_zero()
    assert quot.degree is None or quot.degree < tr.length
    xs = lde.point_array()
    rows = stark._windows(_lde_columns(tr, lde), 8, tc.window)
    pointwise = stark.transition_quotient(xs, rows, tc, tr.domain(),
                                          stark._transition_rows(tr, tc))
    assert pointwise.tolist() == quot.evaluate_array(xs).tolist()
    bad = stark.TraceTable([list(tr.columns[0])], 8, F)
    bad.columns[0][3] += 1
    _, rem = oracle.transition_quotient(oracle.interpolate_trace(bad), tc, bad)
    assert not rem.is_zero()
    row = oracle.first_violation(bad, tc)
    with pytest.raises(ConstraintViolation, match=f"at row {row}$"):
        stark.check_satisfaction(bad, cs)


def test_prove_verify_roundtrip():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 12)
    proof = stark.prove(tr, cs, params)
    v = stark.verify(proof, cs, params, F)
    assert v, v.reason


def test_prover_refuses_bad_trace():
    tr = stark.trace_fibonacci(8, F)
    tr.columns[0][5] += 1
    cs = stark.fibonacci_constraint_system(8, F)
    with pytest.raises(ConstraintViolation):
        stark.prove(tr, cs, stark.StarkParams(8, 8))


def test_cheating_prover_rejected():
    """An unsatisfied trace makes the composition a rational function;
    the pointwise prover still answers every query consistently, so the
    rejection comes from the low-degree test."""
    tr = stark.trace_fibonacci(8, F)
    tr.columns[0][5] = (tr.columns[0][5] + 17) % F.modulus
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 20)
    proof = stark.prove(tr, cs, params, skip_satisfaction_check=True)
    verdict = stark.verify(proof, cs, params, F)
    assert not verdict and verdict.reason.startswith("fri:")


def test_wrong_statement_rejected():
    """A valid proof for fib-8 must not verify against fib-8 with a
    different pinned output."""
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 12)
    proof = stark.prove(tr, cs, params)
    other = stark.ConstraintSystem(
        1, [stark.BoundaryConstraint(bc.column, bc.row,
                                     bc.value + (1 if bc.row == 7 else 0))
            for bc in cs.boundaries], cs.transitions)
    assert not stark.verify(proof, other, params, F)


def test_proof_serialize_roundtrip():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 6)
    proof = stark.prove(tr, cs, params)
    blob = proof.serialize()
    back = stark.StarkProof.deserialize(blob)
    assert back.serialize() == blob
    assert stark.verify(back, cs, params, F)
    with pytest.raises(UsageError):
        stark.StarkProof.deserialize(b"NOPE" + blob[4:])


def test_byte_flip_fuzz_rejected():
    """Flipping any of a sample of proof bytes must not yield acceptance
    of a different proof (re-serialization equality guards no-ops)."""
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 6)
    blob = stark.prove(tr, cs, params).serialize()
    rng = random.Random(77)
    for _ in range(25):
        pos = rng.randrange(5, len(blob))
        mutated = bytearray(blob)
        mutated[pos] ^= 0xFF
        try:
            proof = stark.StarkProof.deserialize(bytes(mutated))
            if proof.serialize() == blob:
                continue
            accepted = bool(stark.verify(proof, cs, params, F))
        except (UsageError, OverflowError):
            accepted = False
        assert not accepted


def test_zk_padding_disjoint_openings():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(4, 4, zk=True)
    proof = stark.prove(tr, cs, params, zk_seed=1)
    assert stark.verify(proof, cs, params, F)
    sub = EvaluationDomain.subgroup(F, proof.trace_length)
    lde = params.lde_domain(F, proof.trace_length)
    for q in proof.fri_proof.queries:
        for r in range(cs.max_window()):
            idx = (q.index + r * params.blowup) % lde.size
            assert not sub.contains(lde.point(idx))


def test_zk_seeds_give_distinct_proofs():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(4, 4, zk=True)
    p1 = stark.prove(tr, cs, params, zk_seed=1)
    p2 = stark.prove(tr, cs, params, zk_seed=2)
    assert p1.serialize() != p2.serialize()
    assert stark.verify(p1, cs, params, F)
    assert stark.verify(p2, cs, params, F)


def test_secret_binding_digest_checked():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 6)
    proof = stark.prove(tr, cs, params, secret_binding=b"witness")
    assert proof.binding_digest == stark.zk_statement_digest(b"witness")
    assert stark.verify(proof, cs, params, F)
    proof.binding_digest = stark.zk_statement_digest(b"other")
    assert not stark.verify(proof, cs, params, F)


def test_probabilistic_poly_eq():
    rng = random.Random(5)
    f = Polynomial(F, [rng.randrange(F.modulus) for _ in range(5)])
    pts = EvaluationDomain.subgroup(F, 64).point_array()
    fe = [int(v) for v in f.evaluate_array(pts)]
    assert stark.probabilistic_poly_eq(fe, list(fe), 4, Transcript("eq"), 10)
    ge = list(fe)
    for i in range(0, 64, 2):  # corrupt half the table
        ge[i] = (ge[i] + 1) % F.modulus
    hits = sum(
        not stark.probabilistic_poly_eq(fe, ge, 4, _seeded(i), 8)
        for i in range(20))
    assert hits >= 18  # per-trial miss probability is (1/2)^8


def _seeded(i):
    t = Transcript("eq-trial")
    t.absorb(b"i", i.to_bytes(4, "big"))
    return t


def _two_column(n):
    """Columns (a, b) with a' = b, b' = a + b, over n rows."""
    p = F.modulus
    a, b = [1], [1]
    for _ in range(n - 1):
        a.append(b[-1])
        b.append((a[-2] + b[-1]) % p)
    tr = stark.TraceTable([a, b], n, F)
    pred_a = stark.MultivariatePoly(F, 4, {(0, 0, 1, 0): 1, (0, 1, 0, 0): -1})
    pred_b = stark.MultivariatePoly(F, 4, {(0, 0, 0, 1): 1, (1, 0, 0, 0): -1,
                                           (0, 1, 0, 0): -1})
    cs = stark.ConstraintSystem(
        2,
        [stark.BoundaryConstraint(0, 0, 1), stark.BoundaryConstraint(1, 0, 1),
         stark.BoundaryConstraint(1, n - 1, b[-1])],
        [stark.TransitionConstraint(2, pred_a),
         stark.TransitionConstraint(2, pred_b)])
    return tr, cs


def test_custom_two_column_system():
    """A second program shape: columns (a, b) with a' = b, b' = a + b."""
    n = 8
    tr, cs = _two_column(n)
    a, b = tr.columns
    params = stark.StarkParams(8, 10)
    proof = stark.prove(tr, cs, params)
    v = stark.verify(proof, cs, params, F)
    assert v, v.reason
    bad = stark.TraceTable([list(a), list(b)], n, F)
    bad.columns[1][3] += 5
    cheat = stark.prove(bad, cs, params, skip_satisfaction_check=True)
    assert not stark.verify(cheat, cs, params, F)


@pytest.mark.parametrize("program", ["fib64-zk", "two-column"])
def test_pointwise_quotients_match_oracle(program):
    """Every boundary and transition quotient of the prover equals the
    symbolic quotient at every point of the LDE coset."""
    tr, cs = _program(program)
    stark.check_satisfaction(tr, cs)
    dom = tr.domain()
    lde = stark.StarkParams(4, 1).lde_domain(F, tr.length)
    pts = lde.point_array()
    lde_cols = _lde_columns(tr, lde)
    rows = stark._windows(lde_cols, 4, cs.max_window())
    polys = oracle.interpolate_trace(tr)
    for poly, col in zip(polys, lde_cols):
        assert poly.evaluate_array(pts).tolist() == col.tolist()
    for c in cs.boundary_columns():
        bcs = [bc for bc in cs.boundaries if bc.column == c]
        quot, rem = oracle.boundary_quotient(polys[c], bcs, dom)
        assert rem.is_zero()
        want = quot.evaluate_array(pts).tolist()
        for points in (lde, pts):
            got = stark.boundary_quotient(points, lde_cols[c], bcs, dom)
            assert got.tolist() == want
    for tc in cs.transitions:
        quot, rem = oracle.transition_quotient(polys, tc, tr)
        assert rem.is_zero()
        want = quot.evaluate_array(pts).tolist()
        for points in (lde, pts):
            got = stark.transition_quotient(points, rows, tc, dom,
                                            stark._transition_rows(tr, tc))
            assert got.tolist() == want


def _program(name):
    if name == "two-column":
        return _two_column(8)
    if name == "fib33":
        # unpadded, just above a power of two: 33 of 64 rows excluded
        return (stark.trace_fibonacci(33, F),
                stark.fibonacci_constraint_system(33, F))
    tr = stark.zk_pad(stark.trace_fibonacci(64, F), 8, 1)
    return tr, stark.fibonacci_constraint_system(64, F)


@pytest.mark.parametrize("program", ["fib64-zk", "two-column", "fib33"])
def test_composition_at_sampled_points_matches_the_coset(program):
    """compose at a few LDE points, given only the window values there
    (the verifier's call, on a point array), equals the prover's
    composition over the whole coset (an EvaluationDomain) at those
    indices."""
    tr, cs = _program(program)
    params = stark.StarkParams(4, 1)
    dom = tr.domain()
    lde = params.lde_domain(F, tr.length)
    cols = _lde_columns(tr, lde)
    w = cs.max_window()
    rng = random.Random(program)
    gammas = [F(rng.randrange(F.modulus)) for _ in range(
        len(cs.boundary_columns()) + len(cs.transitions))]
    full = stark.compose(lde, stark._windows(cols, params.blowup, w), cs,
                         dom, tr.original_length, gammas)
    idx = np.array(rng.sample(range(lde.size), 20) + [0, lde.size - 1])
    rows = [[col[(idx + r * params.blowup) % lde.size] for col in cols]
            for r in range(w)]
    sampled = stark.compose(lde.point_array()[idx], rows, cs, dom,
                            tr.original_length, gammas)
    assert sampled.tolist() == full[idx].tolist()


def test_check_satisfaction_names_first_violation():
    """The vectorized scan reports the same row as a scalar scan."""
    rng = random.Random(31)
    programs = [(stark.trace_fibonacci(64, F),
                 stark.fibonacci_constraint_system(64, F)), _two_column(16)]
    for tr, cs in programs:
        for _ in range(20):
            bad = stark.TraceTable([list(col) for col in tr.columns],
                                   tr.original_length, F)
            col = rng.randrange(bad.num_columns)
            row = rng.randrange(2, tr.original_length - 1)
            bad.columns[col][row] = (bad.columns[col][row]
                                     + rng.randrange(1, F.modulus)) % F.modulus
            if any(bc.column == col and bc.row == row for bc in cs.boundaries):
                continue
            for k, tc in enumerate(cs.transitions):
                first = oracle.first_violation(bad, tc)
                if first is not None:
                    break
            with pytest.raises(ConstraintViolation,
                               match=f"^transition {k} violated at row "
                                     f"{first}$"):
                stark.check_satisfaction(bad, cs)


# Offset of the zk flag byte: magic, hash id, five u32 header fields; the
# binding flag follows the 32-byte constraint-system digest.
ZK_FLAG = 4 + 1 + 5 * 4
BINDING_FLAG = ZK_FLAG + 1 + 32


def _blob():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    return stark.prove(tr, cs, stark.StarkParams(4, 4, zk=True),
                       zk_seed=3).serialize()


def test_decoder_rejects_trailing_bytes():
    blob = _blob()
    assert stark.StarkProof.deserialize(blob).serialize() == blob
    with pytest.raises(UsageError, match="trailing"):
        stark.StarkProof.deserialize(blob + b"\x00")


@pytest.mark.parametrize("offset", [ZK_FLAG, BINDING_FLAG])
@pytest.mark.parametrize("value", [2, 3, 255])
def test_decoder_rejects_non_boolean_flags(offset, value):
    blob = bytearray(_blob())
    assert blob[offset] in (0, 1)
    blob[offset] = value
    with pytest.raises(UsageError, match="flag"):
        stark.StarkProof.deserialize(bytes(blob))


def _rewrap(blob, what):
    """Re-encode a proof with one byte appended inside a sub-record: the
    FRI proof or the first trace-opening path."""
    reader = Reader(blob)
    reader.take(BINDING_FLAG)
    assert reader.u8() == 0
    reader.take(64)
    fri_start = reader.pos
    fri_blob = reader.bytes_lp()
    if what == "fri":
        return (blob[:fri_start] + bytes_lp(fri_blob + b"\x00")
                + blob[reader.pos:])
    reader.u32()
    reader.u32()
    reader.u64()
    path_start = reader.pos
    path = reader.bytes_lp()
    return (blob[:path_start] + bytes_lp(path + b"\x00")
            + blob[reader.pos:])


@pytest.mark.parametrize("what", ["fri", "trace-path"])
def test_decoder_rejects_trailing_bytes_in_sub_records(what):
    with pytest.raises(UsageError, match="trailing"):
        stark.StarkProof.deserialize(_rewrap(_blob(), what))


def test_prover_refuses_fields_beyond_uint64_products():
    """The pointwise prover multiplies in uint64, so p must stay below 2^32;
    Field refuses a wider modulus before a trace over it can be built."""
    with pytest.raises(UsageError, match="2\\^32"):
        big = Field(2**64 - 2**32 + 1)
        tr = stark.trace_fibonacci(8, big)
        cs = stark.fibonacci_constraint_system(8, big)
        stark.prove(tr, cs, stark.StarkParams(8, 4))


def test_quotients_refuse_a_domain_meeting_the_trace_subgroup():
    """Division by a vanishing polynomial that is zero somewhere on the
    evaluation domain is an internal error, never a silent 0."""
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    bad_lde = EvaluationDomain.subgroup(F, 64)
    cols = _lde_columns(tr, bad_lde)
    for points in (bad_lde, bad_lde.point_array()):
        with pytest.raises(InternalError):
            stark.boundary_quotient(points, cols[0], cs.boundaries,
                                    tr.domain())
        with pytest.raises(InternalError):
            stark.transition_quotient(points, stark._windows(cols, 8, 3),
                                      cs.transitions[0], tr.domain(), 6)


def _fib8_proof():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 6)
    return stark.prove(tr, cs, params), cs, params


def _forge(proof, cs, params, leaf_columns, composition):
    """`proof` re-made with a trace tree over leaf_columns (LDE arrays, one
    per column the header claims) and, on the forged transcript, an honest
    FRI proof of composition(gammas)."""
    n, orig = proof.trace_length, proof.original_length
    lde = params.lde_domain(F, n)
    t = Transcript("stark")
    t.absorb(b"header", stark._header_bytes(
        (n, orig, len(leaf_columns), params.blowup, params.num_queries,
         proof.zk, cs.digest(), proof.binding_digest)))
    leaves = [[int(col[i]) for col in leaf_columns] for i in range(lde.size)]
    tree = MerkleTree([b"".join(u64(v) for v in row) for row in leaves])
    t.absorb(b"trace-root", tree.root)
    comp = composition(stark._draw_gammas(cs, F, t))
    d = stark.composition_degree_bound(n, orig, cs)
    fri_proof = fri.prove(comp, fri.FriParams(lde, d, params.num_queries), t)
    openings = []
    for q in fri_proof.queries:
        idxs = [(q.index + r * params.blowup) % lde.size
                for r in range(cs.max_window())]
        openings.append([(leaves[i], tree.open(i)) for i in idxs])
    return dataclasses.replace(
        proof, num_columns=len(leaf_columns), trace_root=tree.root,
        composition_root=fri_proof.layer_roots[0], fri_proof=fri_proof,
        trace_openings=openings)


def _fib8_lde():
    """The fib-8 proof with its LDE columns and honest composition."""
    proof, cs, params = _fib8_proof()
    tr = stark.trace_fibonacci(8, F)
    lde = params.lde_domain(F, tr.length)
    cols = _lde_columns(tr, lde)

    def composition(gammas):
        return stark.compose(lde.point_array(),
                             stark._windows(cols, params.blowup,
                                            cs.max_window()),
                             cs, tr.domain(), tr.original_length, gammas)
    return proof, cs, params, cols, composition


def test_forge_reproduces_the_honest_proof():
    proof, cs, params, cols, composition = _fib8_lde()
    forged = _forge(proof, cs, params, cols, composition)
    assert forged.serialize() == proof.serialize()


def _column_count_forgery(num_columns):
    """A fib-8 proof re-made for a header claiming `num_columns` columns:
    an all-zero trace of that width and composition, with an honest FRI
    proof on the forged transcript, so only the column count is wrong."""
    proof, cs, params = _fib8_proof()
    size = params.lde_domain(F, proof.trace_length).size
    zeros = np.zeros(size, dtype=np.uint64)
    return (_forge(proof, cs, params, [zeros] * num_columns,
                   lambda gammas: zeros), cs, params)


@pytest.mark.parametrize("num_columns", [0, 2])
def test_column_count_mismatch_rejected(num_columns):
    """A header whose column count differs from the constraint system is a
    rejection, even when its FRI proof and trace paths are consistent."""
    forged, cs, params = _column_count_forgery(num_columns)
    verdict = stark.verify(forged, cs, params, F)
    assert not verdict and verdict.reason == "column count mismatch"


def test_fri_proof_without_layer_roots_rejected():
    proof, cs, params = _fib8_proof()
    empty = dataclasses.replace(proof.fri_proof, layer_roots=[])
    verdict = stark.verify(dataclasses.replace(proof, fri_proof=empty),
                           cs, params, F)
    assert not verdict and verdict.reason == "fri: no layer roots"
    blob = dataclasses.replace(proof, fri_proof=empty).serialize()
    verdict = stark.verify(stark.StarkProof.deserialize(blob), cs, params, F)
    assert not verdict and verdict.reason == "fri: no layer roots"


def test_non_canonical_trace_values_rejected():
    """Opened trace values must be below p: a trace tree committing to
    value + p in every cell, with an honest composition, is rejected."""
    proof, cs, params, cols, composition = _fib8_lde()
    shifted = [col + np.uint64(F.modulus) for col in cols]
    forged = _forge(proof, cs, params, shifted, composition)
    verdict = stark.verify(forged, cs, params, F)
    assert not verdict
    assert verdict.reason == "query 0: non-canonical trace value"


def test_constraint_failure_names_the_query():
    """A trace tree over columns changed at a random set of LDE indices,
    with the honest composition in FRI, fails the constraint check at the
    first query whose window opens a changed index."""
    proof, cs, params, cols, composition = _fib8_lde()
    size = len(cols[0])
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        changed = {i for i in range(size) if rng.random() < 0.1}
        bumped = cols[0].copy()
        for i in changed:
            bumped[i] = (int(bumped[i]) + 1) % F.modulus
        forged = _forge(proof, cs, params, [bumped], composition)
        hit = [k for k, q in enumerate(forged.fri_proof.queries)
               if {(q.index + r * params.blowup) % size
                   for r in range(cs.max_window())} & changed]
        verdict = stark.verify(forged, cs, params, F)
        if not hit:
            assert verdict
            continue
        assert not verdict
        assert verdict.reason == (f"query {hit[0]}: constraint equation "
                                  f"failure")
        seen.add(hit[0] > 0)
        if seen == {False, True}:
            break
    assert seen == {False, True}


def _short_length_proof(column, original_length, cs):
    trace = stark.TraceTable([column], original_length, F)
    params = stark.StarkParams(8, 20)
    return (stark.prove(trace, cs, params, skip_satisfaction_check=True),
            params)


@pytest.mark.parametrize("column,original_length", [
    ([1, 1, 2, 0, 0, 0, 0, 999], 3),
    ([1, 1, 2, 3, 0, 0, 0, 999], 4)])
def test_original_length_below_a_boundary_row_rejected(column,
                                                        original_length):
    """The prover sets original_length in the header.  Set below the
    output row, it would leave the transitions unchecked past it, and a
    false output (999 at row 7) would verify; the verifier refuses it."""
    cs = stark.fibonacci_constraint_system(8, F)
    cs = stark.ConstraintSystem(1, [stark.BoundaryConstraint(0, 0, 1),
                                    stark.BoundaryConstraint(0, 1, 1),
                                    stark.BoundaryConstraint(0, 7, 999)],
                                cs.transitions)
    proof, params = _short_length_proof(column, original_length, cs)
    verdict = stark.verify(proof, cs, params, F)
    assert not verdict
    assert verdict.reason == "boundary row outside the original trace"
    with pytest.raises(UsageError, match="boundary row outside"):
        stark.check_satisfaction(stark.TraceTable([column], original_length,
                                                  F), cs)
    full, _ = _short_length_proof(column, 8, cs)
    assert not stark.verify(full, cs, params, F)


def test_original_length_below_the_window_rejected():
    """A header whose original length is shorter than a transition
    window is refused, as check_satisfaction refuses the trace."""
    fib = stark.fibonacci_constraint_system(8, F)
    cs = stark.ConstraintSystem(1, fib.boundaries[:2], fib.transitions)
    column = [1, 1, 5, 0, 0, 0, 0, 0]
    proof, params = _short_length_proof(column, 2, cs)
    verdict = stark.verify(proof, cs, params, F)
    assert not verdict and verdict.reason == "window does not fit in the trace"
    with pytest.raises(UsageError, match="window does not fit"):
        stark.check_satisfaction(stark.TraceTable([column], 2, F), cs)


@pytest.mark.parametrize("column,row,value", [(-1, 0, 1), (1, 0, 1),
                                              (0, -1, 1), (0, 2**32, 1),
                                              (0, 0, -1), (0, 0, 2**64)])
def test_boundaries_outside_the_encoding_refused(column, row, value):
    """Boundary columns must exist, and rows and values must fit the u32
    and u64 fields of the constraint-system digest."""
    with pytest.raises(UsageError):
        stark.ConstraintSystem(1, [stark.BoundaryConstraint(column, row,
                                                            value)], [])


def test_constraint_system_without_columns_refused():
    """A system over no columns constrains nothing a trace could hold."""
    pred = stark.MultivariatePoly(F, 0, {(): 1})
    with pytest.raises(UsageError, match="empty"):
        stark.ConstraintSystem(0, [], [stark.TransitionConstraint(2, pred)])

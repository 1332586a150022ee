"""STARK pipeline tests: arithmetisation pieces, prover/verifier, zk."""

import dataclasses
import random
import time

import numpy as np
import pytest

import symbolic_oracle as oracle
from vckit import fri, stark
from vckit.encoding import Reader, u32
from vckit.errors import (ConstraintViolation, InternalError, UsageError,
                          VerifyResult)
from vckit.field import (DEFAULT_MODULUS, EvaluationDomain, Field, Polynomial,
                         evaluate_on_domain, interpolate,
                         interpolate_on_domain)
from vckit.merkle import MerkleTree, index_set
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


def test_params_give_the_padded_trace_length():
    """StarkParams.trace_length, which prove holds a trace and verify a
    header to, is the length the Fibonacci trace and zk_pad give."""
    for n in range(2, 70):
        for q in (1, 3, 8, 20):
            assert stark.StarkParams(4, q).trace_length(n) == (
                stark.trace_fibonacci(n, F).length)
            assert stark.StarkParams(4, q, zk=True).trace_length(n) == (
                stark.zk_pad(stark.trace_fibonacci(n, F), q, 0).length)


def test_constraint_system_pins_output():
    cs = stark.fibonacci_constraint_system(8, F)
    assert any(bc.row == 7 and bc.value == fib_ints(8)[7]
               for bc in cs.boundaries)
    assert cs.max_window() == 3


def test_constraint_system_output_matches_the_addition_loop():
    """The output row, by fast doubling, equals the n - 2 additions it
    replaces, in the default field and a small one; a length whose output
    row does not fit a u32 is refused at once, and so is n = 2, shorter
    than the window of 3 rows."""
    for field in (F, Field(97)):
        a, b = 1, 2
        for n in range(3, 301):
            cs = stark.fibonacci_constraint_system(n, field)
            assert cs.boundaries[-1] == stark.BoundaryConstraint(0, n - 1, b)
            assert cs.length == n
            a, b = b, (a + b) % field.modulus
    with pytest.raises(UsageError, match="not encodable"):
        stark.fibonacci_constraint_system(2**32 + 1, F)
    with pytest.raises(UsageError, match="below 2 rows or a transition"):
        stark.fibonacci_constraint_system(2, F)


def test_trace_without_columns_refused():
    with pytest.raises(UsageError, match="no columns"):
        stark.TraceTable([], 2, F)


def test_check_satisfaction_oracle():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    stark.check_satisfaction(tr, cs)  # no raise
    bad = stark.TraceTable([list(tr.columns[0])], 8, F)
    bad.columns[0][4] += 1
    with pytest.raises(ConstraintViolation):
        stark.check_satisfaction(bad, cs)


@pytest.mark.parametrize("value", [3 + DEFAULT_MODULUS, 3 - DEFAULT_MODULUS,
                                   F(3)], ids=["3+p", "3-p", "F(3)"])
def test_trace_value_not_a_reduced_int_refused(value):
    """Row 3 of fib 8 holds 3 and no boundary pins it.  Another
    representative of 3 there is refused by the satisfaction check and by
    the prover, with zk, without it and without the check: it is not
    reduced."""
    cs = stark.fibonacci_constraint_system(8, F)
    tr = stark.trace_fibonacci(8, F)
    assert tr.columns[0][3] == 3
    tr.columns[0][3] = value
    with pytest.raises(UsageError, match="not an int in"):
        stark.check_satisfaction(tr, cs)
    for params, skip in ((stark.StarkParams(8, 4), False),
                         (stark.StarkParams(8, 4, zk=True), False),
                         (stark.StarkParams(8, 4), True)):
        with pytest.raises(UsageError, match="not an int in"):
            stark.prove(tr, cs, params, skip_satisfaction_check=skip)


def _lde_table(trace, lde):
    """The trace's low-degree extension, one row per column."""
    dom = trace.domain()
    return np.array([evaluate_on_domain(interpolate_on_domain(col, dom), lde)
                     for col in trace.columns])


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
    pointwise = stark.boundary_quotient(xs, _lde_table(tr, lde)[0],
                                        cs.boundaries, dom)
    assert pointwise.tolist() == quot.evaluate_array(xs).tolist()
    # off the boundary values, division leaves a remainder, and the
    # pointwise values are no longer those of a low-degree polynomial
    bad = poly + Polynomial(F, [1])
    _, rem = oracle.boundary_quotient(bad, cs.boundaries, dom)
    assert not rem.is_zero()
    bad_values = stark.boundary_quotient(
        xs, evaluate_on_domain(bad.coeffs, lde), cs.boundaries, dom)
    assert interpolate_on_domain(bad_values, lde)[tr.length:].any()


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
                                  [3, 3], list(range(40, 48)),
                                  list(range(40, 49)), [31, 2, 17, 0, 63],
                                  [9, 7, 8, 8, 7], [2, 3, 4, 20, 21, 22, 23],
                                  list(range(32, 64))])
def test_row_product_on_a_domain_matches_the_point_array(rows):
    """On the coset of blowup x 64 points, blowup 4, 8 and 16, the product
    over the rows by rolling x - 1 (runs of consecutive rows multiplied
    out by doubling) equals the product of the factors x - g^j at the
    same points: for no rows, one, unsorted and repeated rows, one run,
    two runs, and the tail of half the rows."""
    trace_domain = EvaluationDomain.subgroup(F, 64)
    for blowup in (4, 8, 16):
        lde = EvaluationDomain.coset(F, 64 * blowup, F.generator())
        on_domain = stark._row_product(lde, trace_domain, rows)
        assert on_domain.tolist() == stark._row_product(
            lde.point_array(), trace_domain, rows).tolist()


def test_row_product_refuses_a_domain_of_another_size():
    """A domain whose size is no multiple of the trace length has no
    point blowup*j places before x: an internal fault, not a product."""
    trace_domain = EvaluationDomain.subgroup(F, 64)
    with pytest.raises(InternalError):
        stark._row_product(EvaluationDomain.coset(F, 32, F.generator()),
                           trace_domain, [1, 2])


@pytest.mark.parametrize("entries", [1, 7, 40, 1 << 16])
def test_row_product_in_blocks_matches_the_product_per_row(monkeypatch,
                                                           entries):
    """A trace of 2^5 + 1 rows pads to 64, and its window-3 transition
    excludes rows 31 .. 63, about half of them.  At 20 query points the
    product over those rows, taken in blocks of any size, equals the
    product of (x - g^j) one row at a time in plain integers."""
    p = F.modulus
    trace_domain = EvaluationDomain.subgroup(F, 64)
    g = trace_domain.generator
    rng = random.Random(64)
    xs = [rng.randrange(1, p) for _ in range(20)]
    rows = range(31, 64)
    expected = []
    for x in xs:
        acc = 1
        for j in rows:
            acc = acc * (x - pow(g.value, j, p)) % p
        expected.append(acc)
    monkeypatch.setattr(stark, "_ROW_BLOCK_ENTRIES", entries)
    assert stark._row_product(np.array(xs, dtype=np.uint64), trace_domain,
                              rows).tolist() == expected


def test_transition_quotient_exact_for_honest_trace():
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    tc = cs.transitions[0]
    lde = stark.StarkParams(8, 1).lde_domain(F, tr.length)
    quot, rem = oracle.transition_quotient(oracle.interpolate_trace(tr), tc, tr)
    assert rem.is_zero()
    assert quot.degree is None or quot.degree < tr.length
    xs = lde.point_array()
    rows = stark._windows(_lde_table(tr, lde), 8, tc.window)
    pointwise = stark.transition_quotient(xs, rows, tc, tr.domain(),
                                          stark._transition_rows(cs, tc))
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


def test_prove_time_depends_on_the_padded_length_only():
    """L = 2^13 + 1 and L = 2^14 both pad to n = 2^14, but the first
    excludes 2^13 - 2 rows from its transition and the second one row.
    The excluded-row product costs O(N log run) on the coset, so the
    minimum of 3 proofs at 2^13 + 1 stays within twice that at 2^14;
    an O(k^2) product in the k excluded rows takes about three times."""
    params = stark.StarkParams(4, 20)

    def fastest(length):
        tr = stark.trace_fibonacci(length, F)
        cs = stark.fibonacci_constraint_system(length, F)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            stark.prove(tr, cs, params)
            times.append(time.perf_counter() - start)
        return min(times)

    assert fastest(2**13 + 1) <= 2 * fastest(2**14)


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
            for bc in cs.boundaries], cs.transitions, 8)
    assert not stark.verify(proof, other, params, F)


@pytest.mark.parametrize("other, reason", [
    (lambda cs: stark.ConstraintSystem(
        1, cs.boundaries + [stark.BoundaryConstraint(0, 5, 8)],
        cs.transitions, 8), "fri: "),
    (lambda cs: stark.fibonacci_constraint_system(7, F),
     "trace shape mismatch: 8 rows padded to 8, not 7 to 8"),
    (lambda cs: stark.ConstraintSystem(1, cs.boundaries[:2], cs.transitions,
                                       8), "fri: ")],
    ids=["extra-boundary", "fib7", "no-output"])
def test_proof_of_another_constraint_system_rejected(other, reason):
    """The proof carries no statement: the verifier's transcript absorbs
    its own constraint system's digest, so a fib-8 proof checked against
    another system of 8 rows draws other challenges and FRI rejects it,
    a verdict and not an exception.  A system of another length fixes
    another trace shape and is rejected on the header."""
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    params = stark.StarkParams(8, 12)
    proof = stark.prove(tr, cs, params)
    assert stark.verify(proof, cs, params, F)
    verdict = stark.verify(proof, other(cs), params, F)
    assert isinstance(verdict, VerifyResult)
    assert not verdict and verdict.reason.startswith(reason)


@pytest.mark.parametrize("proved_zk", [False, True])
def test_zk_flag_mismatch_rejected(proved_zk):
    """A proof made with zk off does not verify under parameters with zk
    on, nor the other way round."""
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    proof = stark.prove(tr, cs, stark.StarkParams(8, 12, zk=proved_zk),
                        zk_seed=3)
    assert stark.verify(proof, cs, stark.StarkParams(8, 12, zk=proved_zk), F)
    verdict = stark.verify(proof, cs,
                           stark.StarkParams(8, 12, zk=not proved_zk), F)
    assert not verdict and verdict.reason == "parameter mismatch"


def test_prover_refuses_column_count_mismatch():
    tr = stark.trace_fibonacci(8, F)
    two = stark.TraceTable([tr.columns[0], tr.columns[0]], 8, F)
    with pytest.raises(UsageError,
                       match="^trace shape mismatch: 2 columns, not 1$"):
        stark.prove(two, stark.fibonacci_constraint_system(8, F),
                    stark.StarkParams(8, 6), skip_satisfaction_check=True)


@pytest.mark.parametrize("skip", [False, True])
def test_prover_refuses_an_over_padded_trace(skip):
    """Without zk the statement's 8 rows pad to 8: a fib-8 trace padded
    to 16 is refused, so prove never makes a proof its verifier
    rejects."""
    rows = stark.trace_fibonacci(8, F).columns[0] + [0] * 8
    cs = stark.fibonacci_constraint_system(8, F)
    with pytest.raises(UsageError, match="^trace shape mismatch: 8 rows "
                                         "padded to 16, not 8 to 8$"):
        stark.prove(stark.TraceTable([rows], 8, F), cs,
                    stark.StarkParams(8, 6), skip_satisfaction_check=skip)


@pytest.mark.parametrize("blowup, queries", [(2, 8), (6, 8), (8, 0), (8, -1)])
def test_params_validation(blowup, queries):
    with pytest.raises(UsageError):
        stark.StarkParams(blowup, queries)


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


@pytest.mark.parametrize("change", ["value", "sibling", "row"])
def test_proofs_compare_by_value(change):
    """A STARK proof and its FRI proof equal their decoded copies; a copy
    with one opened value or sibling changed, or one opened row dropped,
    in the trace opening or a FRI layer, does not."""
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    proof = stark.prove(tr, cs, stark.StarkParams(8, 6))
    back = stark.StarkProof.deserialize(proof.serialize())
    assert back == proof and back.fri_proof == proof.fri_proof

    def changed(opening):
        rows, siblings = opening.rows.copy(), list(opening.siblings)
        assert siblings
        if change == "value":
            rows[0, 0] ^= np.uint64(1)
        elif change == "sibling":
            siblings[-1] = bytes([siblings[-1][0] ^ 1]) + siblings[-1][1:]
        else:
            rows = rows[:-1]
        return dataclasses.replace(opening, rows=rows, siblings=siblings)
    assert (dataclasses.replace(back, trace_opening=changed(
        back.trace_opening)) != proof)
    layers = list(back.fri_proof.layers)
    layers[0] = changed(layers[0])
    fri_copy = dataclasses.replace(back.fri_proof, layers=layers)
    assert fri_copy != proof.fri_proof
    assert dataclasses.replace(back, fri_proof=fri_copy) != proof


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


@pytest.mark.parametrize("length, blowup, queries, zk_seed, limit", [
    (1900, 8, 20, 0, 21_000), (4000, 4, 8, 5, 10_000)])
def test_multiproof_proof_sizes(length, blowup, queries, zk_seed, limit):
    """One pruned path per tree: the CLI-default proof of 1900 rows fell
    from 45 576 B with a path per opened leaf, and the 4000-row proof
    from 17 885 B."""
    tr = stark.trace_fibonacci(length, F)
    cs = stark.fibonacci_constraint_system(length, F)
    params = stark.StarkParams(blowup, queries, zk=True)
    blob = stark.prove(tr, cs, params, zk_seed=zk_seed).serialize()
    assert len(blob) <= limit


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
            idx = (q + r * params.blowup) % lde.size
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
         stark.TransitionConstraint(2, pred_b)], n)
    return tr, cs


def _three_column(n):
    """Columns (a, b, c) with a' = a + 1 and c' = c + a b, over n rows;
    b is free.  Boundaries pin a and c at rows 0 and n - 1, and none
    touches b."""
    p = F.modulus
    a = list(range(n))
    b = [(7 * i + 3) % p for i in range(n)]
    c = [5]
    for i in range(n - 1):
        c.append((c[-1] + a[i] * b[i]) % p)
    tr = stark.TraceTable([a, b, c], n, F)
    # variable r*3 + col is column col at row + r
    step = stark.MultivariatePoly(F, 6, {(0, 0, 0, 1, 0, 0): 1,
                                         (1, 0, 0, 0, 0, 0): -1,
                                         (0, 0, 0, 0, 0, 0): -1})
    accumulate = stark.MultivariatePoly(F, 6, {(0, 0, 0, 0, 0, 1): 1,
                                               (0, 0, 1, 0, 0, 0): -1,
                                               (1, 1, 0, 0, 0, 0): -1})
    cs = stark.ConstraintSystem(
        3,
        [stark.BoundaryConstraint(2, n - 1, c[-1]),
         stark.BoundaryConstraint(0, 0, 0),
         stark.BoundaryConstraint(2, 0, 5),
         stark.BoundaryConstraint(0, n - 1, n - 1)],
        [stark.TransitionConstraint(2, step),
         stark.TransitionConstraint(2, accumulate)], n)
    return tr, cs


def test_system_with_a_column_without_boundaries():
    """Boundaries on columns 0 and 2 only: one quotient and one gamma per
    constrained column, in column order, and one per transition."""
    tr, cs = _three_column(8)
    bcs = cs.boundaries
    assert cs.boundary_groups() == {0: [bcs[1], bcs[3]], 2: [bcs[0], bcs[2]]}
    assert list(cs.boundary_groups()) == [0, 2]
    assert len(stark._draw_gammas(cs, F, Transcript("t"))) == 4
    params = stark.StarkParams(8, 10)
    v = stark.verify(stark.prove(tr, cs, params), cs, params, F)
    assert v, v.reason
    for col, row in ((0, 3), (1, 3), (2, 7)):
        bad = stark.TraceTable([list(c) for c in tr.columns], 8, F)
        bad.columns[col][row] = (bad.columns[col][row] + 1) % F.modulus
        cheat = stark.prove(bad, cs, params, skip_satisfaction_check=True)
        assert not stark.verify(cheat, cs, params, F)


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


@pytest.mark.parametrize("program", ["fib64-zk", "two-column",
                                     "three-column"])
def test_pointwise_quotients_match_oracle(program):
    """Every boundary and transition quotient of the prover equals the
    symbolic quotient at every point of the LDE coset."""
    tr, cs = _program(program)
    stark.check_satisfaction(tr, cs)
    dom = tr.domain()
    lde = stark.StarkParams(4, 1).lde_domain(F, tr.length)
    pts = lde.point_array()
    lde_cols = _lde_table(tr, lde)
    rows = stark._windows(lde_cols, 4, cs.max_window())
    polys = oracle.interpolate_trace(tr)
    for poly, col in zip(polys, lde_cols):
        assert poly.evaluate_array(pts).tolist() == col.tolist()
    for c, bcs in cs.boundary_groups().items():
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
                                            stark._transition_rows(cs, tc))
            assert got.tolist() == want


def _program(name):
    if name == "two-column":
        return _two_column(8)
    if name == "three-column":
        return _three_column(8)
    if name == "fib33":
        # unpadded, just above a power of two: 33 of 64 rows excluded
        return (stark.trace_fibonacci(33, F),
                stark.fibonacci_constraint_system(33, F))
    tr = stark.zk_pad(stark.trace_fibonacci(64, F), 8, 1)
    return tr, stark.fibonacci_constraint_system(64, F)


@pytest.mark.parametrize("program", ["fib64-zk", "two-column", "fib33",
                                     "three-column"])
def test_composition_at_sampled_points_matches_the_coset(program):
    """compose at a few LDE points, given only the window values there
    (the verifier's call, on a point array), equals the prover's
    composition over the whole coset (an EvaluationDomain) at those
    indices."""
    tr, cs = _program(program)
    params = stark.StarkParams(4, 1)
    dom = tr.domain()
    lde = params.lde_domain(F, tr.length)
    cols = _lde_table(tr, lde)
    w = cs.max_window()
    rng = random.Random(program)
    gammas = [F(rng.randrange(F.modulus)) for _ in range(
        len(cs.boundary_groups()) + len(cs.transitions))]
    full = stark.compose(lde, stark._windows(cols, params.blowup, w), cs,
                         dom, gammas)
    idx = np.array(rng.sample(range(lde.size), 20) + [0, lde.size - 1])
    rows = np.array([cols[:, (idx + r * params.blowup) % lde.size]
                     for r in range(w)])
    sampled = stark.compose(lde.point_array()[idx], rows, cs, dom, gammas)
    assert sampled.tolist() == full[idx].tolist()


@pytest.mark.parametrize("program", ["two-column", "fib33", "three-column"])
def test_verifier_window_array_is_the_provers_at_the_queries(program,
                                                             monkeypatch):
    """The (window, column, query) array the verifier reads from the
    trace opening and hands compose is the prover's window array over the
    LDE table (_windows) at the query positions."""
    tr, cs = _program(program)
    params = stark.StarkParams(4, 8)
    inputs = []
    compose = stark.compose

    def recording(points, rows, *args):
        inputs.append(rows)
        return compose(points, rows, *args)
    monkeypatch.setattr(stark, "compose", recording)
    proof = stark.prove(tr, cs, params)
    assert stark.verify(proof, cs, params, F)
    lde = params.lde_domain(F, tr.length)
    want = stark._windows(_lde_table(tr, lde), params.blowup,
                          cs.max_window())
    prover_rows, verifier_rows = inputs
    assert np.array_equal(prover_rows, want)
    assert verifier_rows.shape == (cs.max_window(), cs.num_columns,
                                   params.num_queries)
    assert np.array_equal(verifier_rows,
                          want[:, :, proof.fri_proof.queries])


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


# Offset of the zk flag byte: magic with its version byte, hash id, five
# u32 header fields; the 32-byte trace root follows it.
ZK_FLAG = len(stark.PROOF_MAGIC) + 1 + 5 * 4


def _blob():
    """A zk proof of fib 8 whose last FRI layer, 16 values in 8 cosets of
    2 at blowup 8, keeps a sibling in its path: 4 queries open at most 4
    of the cosets."""
    tr = stark.trace_fibonacci(8, F)
    cs = stark.fibonacci_constraint_system(8, F)
    return stark.prove(tr, cs, stark.StarkParams(8, 4, zk=True),
                       zk_seed=3).serialize()


def test_decoder_rejects_trailing_bytes():
    blob = _blob()
    assert stark.StarkProof.deserialize(blob).serialize() == blob
    with pytest.raises(UsageError, match="trailing"):
        stark.StarkProof.deserialize(blob + b"\x00")


@pytest.mark.parametrize("version", [2, 3, 4, 5, 6, 8])
def test_decoder_rejects_other_format_versions(version):
    """The byte after the magic is the format version: 7, nothing else.
    Version 6 carried a FRI proof folded by 4."""
    blob = _blob()
    assert blob[:5] == b"VCKS\x07" == stark.PROOF_MAGIC
    forged = blob[:4] + bytes([version]) + blob[5:]
    with pytest.raises(UsageError, match=f"^unsupported STARK proof format "
                                         f"version {version}$"):
        stark.StarkProof.deserialize(forged)


@pytest.mark.parametrize("offset", [ZK_FLAG])
@pytest.mark.parametrize("value", [2, 3, 255])
def test_decoder_rejects_non_boolean_flags(offset, value):
    blob = bytearray(_blob())
    assert blob[offset] in (0, 1)
    blob[offset] = value
    with pytest.raises(UsageError, match="flag"):
        stark.StarkProof.deserialize(bytes(blob))


def _rewrap(blob, what):
    """Re-encode a proof with a path's sibling count one short, which
    leaves its last sibling over: the last FRI layer's path, at the end
    of the blob, or the trace path, whose sibling is then read where the
    FRI magic should be."""
    if what == "fri":
        last = stark.StarkProof.deserialize(blob).fri_proof.layers[-1]
        count_at = len(blob) - 32 * len(last.siblings) - 4
    else:
        reader = Reader(blob)
        # past the zk flag and the trace root
        reader.take(ZK_FLAG + 1 + 32)
        leaves = reader.u32()
        reader.take(8 * stark.TRACE_ROWS_PER_LEAF * leaves)  # one column
        count_at = reader.pos
    siblings = int.from_bytes(blob[count_at:count_at + 4], "big")
    assert siblings
    return blob[:count_at] + u32(siblings - 1) + blob[count_at + 4:]


@pytest.mark.parametrize("what, reason", [("fri", "trailing"),
                                          ("trace-path", "not a FRI proof")],
                         ids=["fri", "trace-path"])
def test_decoder_rejects_trailing_bytes_in_sub_records(what, reason):
    """The leftover FRI sibling trails the proof; the trace path's is
    read as the start of the FRI proof."""
    with pytest.raises(UsageError, match=reason):
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
    cols = _lde_table(tr, bad_lde)
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
    n = proof.trace_length
    lde = params.lde_domain(F, n)
    t = Transcript("stark")
    t.absorb(b"header", stark._header_bytes(n, cs, params))
    table = np.array([[int(col[i]) for col in leaf_columns]
                      for i in range(lde.size)],
                     dtype=np.uint64).reshape(lde.size, len(leaf_columns))
    tree = MerkleTree(stark._trace_leaves(table, params.blowup))
    t.absorb(b"trace-root", tree.root)
    comp = composition(stark._draw_gammas(cs, F, t))
    d = stark.composition_degree_bound(n, cs)
    fri_proof = fri.prove(comp, fri.FriParams(lde, d, params.num_queries), t)
    leaf, _ = stark._window_cells(fri_proof.queries, params.blowup, n,
                                  cs.max_window())
    return dataclasses.replace(
        proof, num_columns=len(leaf_columns), trace_root=tree.root,
        fri_proof=fri_proof, trace_opening=tree.open(leaf))


def _fib8_lde():
    """The fib-8 proof with its LDE columns and honest composition."""
    proof, cs, params = _fib8_proof()
    tr = stark.trace_fibonacci(8, F)
    lde = params.lde_domain(F, tr.length)
    cols = _lde_table(tr, lde)

    def composition(gammas):
        return stark.compose(lde.point_array(),
                             stark._windows(cols, params.blowup,
                                            cs.max_window()),
                             cs, tr.domain(), gammas)
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
    assert not verdict
    assert verdict.reason == (f"trace shape mismatch: {num_columns} "
                              f"columns, not 1")


def test_fri_proof_without_layer_roots_rejected():
    """FRI refuses a proof with no layer root, before and after
    encoding."""
    proof, cs, params = _fib8_proof()
    empty = dataclasses.replace(proof.fri_proof, layer_roots=[], layers=[])
    verdict = stark.verify(dataclasses.replace(proof, fri_proof=empty),
                           cs, params, F)
    assert not verdict and verdict.reason == "fri: wrong number of layer roots"
    blob = dataclasses.replace(proof, fri_proof=empty).serialize()
    verdict = stark.verify(stark.StarkProof.deserialize(blob), cs, params, F)
    assert not verdict and verdict.reason == "fri: wrong number of layer roots"


@pytest.mark.parametrize("change", [{"trace_length": 3},
                                    {"original_length": 1},
                                    {"original_length": 9}])
def test_malformed_header_rejected(change):
    """A trace length that is not a power of two, or an original length
    below the two seed rows or above the trace length: neither is the
    shape the statement fixes."""
    proof, cs, params = _fib8_proof()
    forged = dataclasses.replace(proof, **change)
    verdict = stark.verify(forged, cs, params, F)
    assert not verdict
    assert verdict.reason == (
        f"trace shape mismatch: {forged.original_length} rows padded to "
        f"{forged.trace_length}, not 8 to 8")


def test_header_of_another_trace_length_rejected_before_any_domain(
        monkeypatch):
    """A fib-8 proof whose header claims 16 rows: the verifier derives 8
    from its own statement and rejects the header before it builds a
    domain, so a longer claimed trace costs it nothing."""
    proof, cs, params = _fib8_proof()
    forged = dataclasses.replace(proof, trace_length=16)

    def refuse(*args):
        raise AssertionError("the verifier built a domain")
    monkeypatch.setattr(EvaluationDomain, "subgroup", refuse)
    monkeypatch.setattr(EvaluationDomain, "coset", refuse)
    verdict = stark.verify(forged, cs, params, F)
    assert not verdict
    assert verdict.reason == ("trace shape mismatch: 8 rows padded to 16, "
                              "not 8 to 8")


def test_fri_layer_root_dropped_rejected():
    """The last FRI root dropped from a proof of fib 16, whose FRI folds
    by 8 and then by 2: FRI refuses the root count."""
    tr = stark.trace_fibonacci(16, F)
    cs = stark.fibonacci_constraint_system(16, F)
    params = stark.StarkParams(8, 6)
    proof = stark.prove(tr, cs, params)
    roots = proof.fri_proof.layer_roots[:-1]
    assert roots
    forged = dataclasses.replace(
        proof, fri_proof=dataclasses.replace(proof.fri_proof,
                                             layer_roots=roots))
    verdict = stark.verify(forged, cs, params, F)
    assert not verdict and verdict.reason == "fri: wrong number of layer roots"


def _with_rows(proof, rows):
    """proof with its opened trace leaves replaced by rows."""
    return dataclasses.replace(proof, trace_opening=dataclasses.replace(
        proof.trace_opening, rows=rows))


def test_trace_bundle_shape_rejected():
    """The opened trace leaves one leaf short, and one value too wide:
    each named."""
    proof, cs, params = _fib8_proof()
    rows = proof.trace_opening.rows
    forged = {
        "trace: wrong leaf count": _with_rows(proof, rows[:-1]),
        "trace: wrong leaf width": _with_rows(
            proof, np.hstack([rows, rows[:, :1]]))}
    for reason, bad in forged.items():
        verdict = stark.verify(bad, cs, params, F)
        assert not verdict and verdict.reason == reason


@pytest.mark.parametrize("n, window", [
    (n, window) for n in (2, 4, 8, 64) for window in (2, 3) if window <= n])
@pytest.mark.parametrize("blowup", [4, 8])
def test_window_leaves_match_the_oracle(n, window, blowup):
    """For every position, _window_cells names the (leaf, slot) of the
    trace tree that holds each window row's LDE index
    (position + r*blowup) mod N, read from a table of the indices
    themselves.  Windows that wrap past the last trace row included."""
    size = blowup * n
    rows_per_leaf = min(4, n)
    table = stark._trace_leaves(
        np.arange(size, dtype=np.uint64).reshape(size, 1), blowup)
    assert table.shape == (size // rows_per_leaf, rows_per_leaf)
    leaf, slot = stark._window_cells(range(size), blowup, n, window)
    assert leaf.shape == slot.shape == (size, window)
    for position in range(size):
        for r in range(window):
            assert (int(table[leaf[position, r], slot[position, r]])
                    == (position + r * blowup) % size)


def _squaring_system(n):
    """One column x with x' = x^2 from x = 3: a window-2 system that
    still has a FRI round at n = 2."""
    column = [3]
    while len(column) < n:
        column.append(column[-1] ** 2 % F.modulus)
    pred = stark.MultivariatePoly(F, 2, {(0, 1): 1, (2, 0): -1})
    cs = stark.ConstraintSystem(1, [stark.BoundaryConstraint(0, 0, 3)],
                                [stark.TransitionConstraint(2, pred)], n)
    return stark.TraceTable([column], n, F), cs


def _fib(n):
    return (stark.trace_fibonacci(n, F),
            stark.fibonacci_constraint_system(n, F))


@pytest.mark.parametrize("system", [
    lambda: _fib(4), lambda: _squaring_system(2), lambda: _two_column(4),
    lambda: _two_column(8)], ids=["fib4", "squaring2", "two-column4",
                                  "two-column8"])
@pytest.mark.parametrize("blowup", [4, 8])
def test_short_traces_prove_and_verify(system, blowup):
    """Every position queried (as many queries as LDE points): at n = 4
    the fib window wraps inside one leaf, at n = 2 one leaf of 2 rows
    holds every window, and two columns share each leaf row."""
    tr, cs = system()
    params = stark.StarkParams(blowup, blowup * tr.length)
    proof = stark.StarkProof.deserialize(
        stark.prove(tr, cs, params).serialize())
    assert len(proof.fri_proof.queries) == blowup * tr.length
    verdict = stark.verify(proof, cs, params, F)
    assert verdict, verdict.reason
    opened = index_set(stark._window_cells(
        proof.fri_proof.queries, blowup, tr.length, cs.max_window())[0])
    assert proof.trace_opening.rows.shape == (
        len(opened), min(4, tr.length) * tr.num_columns)


@pytest.mark.parametrize("zk", [False, True])
def test_two_row_two_column_system_proves_and_verifies(zk):
    """Without zk every quotient of the two-column system at n = 2 is
    constant; the composition degree bound is still 2, so FRI folds once
    and commits the composition in its layer-0 root.  With zk the noise
    rows lengthen the trace."""
    tr, cs = _two_column(2)
    params = stark.StarkParams(4, 6, zk=zk)
    proof = stark.StarkProof.deserialize(
        stark.prove(tr, cs, params, zk_seed=5).serialize())
    verdict = stark.verify(proof, cs, params, F)
    assert verdict, verdict.reason
    assert proof.fri_proof.layer_roots
    if not zk:
        assert stark.composition_degree_bound(2, cs) == 2
        assert len(proof.fri_proof.layer_roots) == 1


def test_every_opened_trace_slot_is_authenticated():
    """Changing any value of any opened trace leaf, including the slots
    no window reads, breaks the trace path."""
    proof, cs, params = _fib8_proof()
    n, blowup = proof.trace_length, params.blowup
    rows_per_leaf = min(4, n)
    opened = index_set(stark._window_cells(
        proof.fri_proof.queries, blowup, n, cs.max_window())[0])
    read = set()
    for q in proof.fri_proof.queries:
        shift, j = q % blowup, q // blowup
        for r in range(cs.max_window()):
            row = (j + r) % n
            read.add((shift * (n // rows_per_leaf) + row // rows_per_leaf,
                      row % rows_per_leaf))
    rows = proof.trace_opening.rows
    unread = 0
    for i, leaf in enumerate(opened):
        for slot in range(rows.shape[1]):
            # one column: slot is the row within the leaf
            unread += (leaf, slot) not in read
            changed = rows.copy()
            changed[i, slot] = (changed[i, slot] + 1) % F.modulus
            verdict = stark.verify(_with_rows(proof, changed), cs, params, F)
            assert not verdict and verdict.reason == "trace: bad opening"
    assert unread


def test_trace_bundle_leaf_count_rejected():
    """The opening with one of its leaves dropped or duplicated, or with
    a leaf no window needs, has the wrong leaf count for the queries'
    index set, before and after encoding."""
    proof, cs, params = _fib8_proof()
    rows = proof.trace_opening.rows
    spare = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    changes = [np.vstack([rows, spare]), np.vstack([spare, rows])]
    for i in range(len(rows)):
        changes += [np.delete(rows, i, axis=0),
                    np.insert(rows, i, rows[i], axis=0)]
    for changed in changes:
        forged = _with_rows(proof, changed)
        for candidate in (forged, stark.StarkProof.deserialize(
                forged.serialize())):
            verdict = stark.verify(candidate, cs, params, F)
            assert not verdict
            assert verdict.reason == "trace: wrong leaf count"


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("system", [lambda: _fib(8), lambda: _two_column(8)],
                         ids=["fib8", "two-column8"])
def test_leaf_of_the_wrong_width_refused(system, delta):
    """A leaf holds R*ncols values: one fewer or one more is a rejection
    by the verifier and, once encoded, by the decoder or the verifier."""
    tr, cs = system()
    params = stark.StarkParams(8, 6)
    proof = stark.prove(tr, cs, params)
    rows = proof.trace_opening.rows
    assert rows.shape[1] == 4 * tr.num_columns
    forged = _with_rows(proof, np.resize(rows, (len(rows),
                                                rows.shape[1] + delta)))
    verdict = stark.verify(forged, cs, params, F)
    assert not verdict and verdict.reason == "trace: wrong leaf width"
    try:
        decoded = stark.StarkProof.deserialize(forged.serialize())
    except UsageError:
        return
    assert not stark.verify(decoded, cs, params, F)


def test_non_canonical_trace_values_rejected():
    """Opened trace values must be below p: a trace tree committing to
    value + p in every cell, with an honest composition, is rejected."""
    proof, cs, params, cols, composition = _fib8_lde()
    shifted = [col + np.uint64(F.modulus) for col in cols]
    forged = _forge(proof, cs, params, shifted, composition)
    verdict = stark.verify(forged, cs, params, F)
    assert not verdict
    assert verdict.reason == "trace: non-canonical value"


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
               if {(q + r * params.blowup) % size
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


def _fib_transition_system(boundaries, length):
    return stark.ConstraintSystem(
        1, [stark.BoundaryConstraint(0, *b) for b in boundaries],
        stark.fibonacci_constraint_system(8, F).transitions, length)


@pytest.mark.parametrize("column,original_length", [
    ([1, 1, 2, 0, 0, 0, 0, 999], 3),
    ([1, 1, 2, 3, 0, 0, 0, 999], 4)])
def test_original_length_below_a_boundary_row_rejected(column,
                                                        original_length):
    """Below the output row, original_length would leave the transitions
    unchecked past it, and a false output (999 at row 7) would verify.
    The statement fixes it at 8: the prover and the satisfaction check
    refuse the shorter trace, and the verifier a header claiming it."""
    cs = _fib_transition_system([(0, 1), (1, 1), (7, 999)], 8)
    params = stark.StarkParams(8, 20)
    short = stark.TraceTable([column], original_length, F)
    shape = f"^trace shape mismatch: {original_length} rows padded to 8, "
    with pytest.raises(UsageError, match=shape):
        stark.prove(short, cs, params, skip_satisfaction_check=True)
    with pytest.raises(UsageError, match=shape):
        stark.check_satisfaction(short, cs)
    full = stark.prove(stark.TraceTable([column], 8, F), cs, params,
                       skip_satisfaction_check=True)
    assert not stark.verify(full, cs, params, F)
    verdict = stark.verify(
        dataclasses.replace(full, original_length=original_length), cs,
        params, F)
    assert not verdict
    assert verdict.reason == (f"trace shape mismatch: {original_length} "
                              f"rows padded to 8, not 8 to 8")


def test_original_length_below_the_window_rejected():
    """A statement shorter than its transition window is refused where
    it is built; for the statement of 8 rows a trace or a header of 2 is
    a trace shape mismatch."""
    with pytest.raises(UsageError, match="below 2 rows or a transition"):
        _fib_transition_system([(0, 1), (1, 1)], 2)
    cs = _fib_transition_system([(0, 1), (1, 1)], 8)
    with pytest.raises(UsageError, match="^trace shape mismatch: 2 rows"):
        stark.check_satisfaction(
            stark.TraceTable([[1, 1, 5, 0, 0, 0, 0, 0]], 2, F), cs)
    proof, _, params = _fib8_proof()
    verdict = stark.verify(dataclasses.replace(proof, original_length=2), cs,
                           params, F)
    assert not verdict and verdict.reason.startswith(
        "trace shape mismatch: 2 rows padded to 8")


def test_proof_of_a_shorter_statement_rejected():
    """Over 3 rows, "rows 0 and 1 are 1, and the Fibonacci transition"
    constrains only row 0's window, so [1, 1, 2, 999, 5, 0, 0, 0] with
    original length 3 satisfies it.  The prover refuses that trace for
    the statement of 8 rows and for the one of 3, which pads to 4.  The
    two statements have the same digest, and the verifier of 8 rows
    rejects an honest proof of 3 on the header."""
    params = stark.StarkParams(8, 20)
    short = _fib_transition_system([(0, 1), (1, 1)], 3)
    cs = _fib_transition_system([(0, 1), (1, 1)], 8)
    assert short.digest() == cs.digest()
    forged = stark.TraceTable([[1, 1, 2, 999, 5, 0, 0, 0]], 3, F)
    for statement in (cs, short):
        with pytest.raises(UsageError, match="^trace shape mismatch: 3 rows"):
            stark.prove(forged, statement, params)
    proof = stark.prove(stark.TraceTable([[1, 1, 2, 999]], 3, F), short,
                        params)
    assert stark.verify(proof, short, params, F)
    verdict = stark.verify(proof, cs, params, F)
    assert not verdict
    assert verdict.reason == ("trace shape mismatch: 3 rows padded to 4, "
                              "not 8 to 8")


@pytest.mark.parametrize("column,row,value", [(-1, 0, 1), (1, 0, 1),
                                              (0, -1, 1), (0, 2**32, 1),
                                              (0, 0, -1), (0, 0, 2**64)])
def test_boundaries_outside_the_encoding_refused(column, row, value):
    """Boundary columns must exist, and rows and values must fit the u32
    and u64 fields of the constraint-system digest."""
    with pytest.raises(UsageError):
        stark.ConstraintSystem(1, [stark.BoundaryConstraint(column, row,
                                                            value)], [], 8)


@pytest.mark.parametrize("row, length, reason", [
    (0, 2**32, "length not encodable"), (8, 8, "boundary row 8 not below"),
    (0, 1, "length below 2 rows")])
def test_statement_length_refused(row, length, reason):
    """The length must fit the header's u32 and hold every boundary row
    and at least 2 rows."""
    with pytest.raises(UsageError, match=reason):
        stark.ConstraintSystem(1, [stark.BoundaryConstraint(0, row, 1)], [],
                               length)


def test_constraint_system_without_columns_refused():
    """A system over no columns constrains nothing a trace could hold."""
    pred = stark.MultivariatePoly(F, 0, {(): 1})
    with pytest.raises(UsageError, match="empty"):
        stark.ConstraintSystem(0, [], [stark.TransitionConstraint(2, pred)],
                               2)

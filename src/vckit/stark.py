"""Transparent STARK-style argument: trace arithmetisation, low-degree
extension on a coset by NTT, constraint quotients and their randomized
composition evaluated pointwise, Merkle commitment and FRI.

One evaluator, compose, computes the composition at any array of points x
from the trace values at x, g x, ..., g^(w-1) x.  The prover calls it on
the whole LDE coset with the rolled LDE columns; the verifier calls it on
its query points with the opened rows, so the constraint check is
vectorized and not metered in op_count.
The prover interpolates the trace columns once and handles every other
polynomial by its values on the coset: O(n log n) field work.  The
product of (x - g^j) over the e rows the transition constraints exclude
is multiplied out once, in O(e^2) on arrays of at most e + 1
coefficients, and evaluated on the coset by one NTT; x^n - 1 takes only
blowup distinct values there, so only those are inverted.

The LDE coset offset is a generator of the full multiplicative group, so
no extended evaluation point ever lands in the trace subgroup; queries
therefore never touch the original trace domain, which is what the
zero-knowledge padding relies on.
"""

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import fri
from .encoding import Reader, bytes_lp, u8, u32, u64, u64_rows
from .errors import (ConstraintViolation, InternalError, UsageError,
                     VerifyResult)
from .field import (EvaluationDomain, Field, FieldElement, Polynomial,
                    _inverse_array, _pow_array, _values_array,
                    evaluate_on_domain,
                    interpolate, interpolate_on_domain)
from .merkle import AuthPath, MerkleTree, verify_path
from .transcript import HASH_ID, Transcript

PROOF_MAGIC = b"VCKS"


# ---------------------------------------------------------------------------
# constraint predicates

class MultivariatePoly:
    """Sparse multivariate polynomial {exponent tuple: coeff} used as a
    transition predicate over a window of trace cells."""

    def __init__(self, field: Field, num_vars: int, terms: Dict[tuple, int]):
        p = field.modulus
        clean = {}
        for exps, c in terms.items():
            if len(exps) != num_vars:
                raise UsageError("exponent tuple arity mismatch")
            v = (c.value if isinstance(c, FieldElement) else c) % p
            if v:
                clean[tuple(exps)] = v
        self.field = field
        self.num_vars = num_vars
        self.terms = clean

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def evaluate_array(self, values) -> np.ndarray:
        """Vectorized evaluation over uint64 arrays of reduced values, one
        per variable."""
        if len(values) != self.num_vars:
            raise UsageError("wrong number of predicate inputs")
        mod = np.uint64(self.field.modulus)
        acc = np.zeros(len(values[0]), dtype=np.uint64)
        for exps, c in self.terms.items():
            term = np.full(len(acc), c, dtype=np.uint64)
            for v, e in zip(values, exps):
                for _ in range(e):
                    term = term * v % mod
            acc = (acc + term) % mod
        return acc

    def serialize(self) -> bytes:
        items = sorted(self.terms.items())
        out = [u32(self.num_vars), u32(len(items))]
        for exps, c in items:
            out += [u32(e) for e in exps]
            out.append(u64(c))
        return b"".join(out)


# ---------------------------------------------------------------------------
# domain types

@dataclass
class TraceTable:
    """Equal-length columns over the trace subgroup; row i sits at g^i.

    original_length is the pre-padding row count; constraints only ever
    reference rows below it.
    """

    columns: List[List[int]]
    original_length: int
    field: Field

    def __post_init__(self):
        n = len(self.columns[0])
        if any(len(c) != n for c in self.columns):
            raise UsageError("ragged trace columns")
        if n & (n - 1):
            raise UsageError("trace length must be a power of two")
        if not 2 <= self.original_length <= n:
            raise UsageError("bad original length")

    @property
    def length(self) -> int:
        return len(self.columns[0])

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def domain(self) -> EvaluationDomain:
        return EvaluationDomain.subgroup(self.field, self.length)


@dataclass(frozen=True)
class BoundaryConstraint:
    column: int
    row: int
    value: int


@dataclass(frozen=True)
class TransitionConstraint:
    """predicate over window*num_columns variables, var r*ncols+c = cell
    (row+r, column c)."""

    window: int
    predicate: MultivariatePoly

    def __post_init__(self):
        if self.window < 2:
            raise UsageError("transition window must span at least 2 rows")
        if self.predicate.total_degree > 8:
            raise UsageError("transition degree capped at 8")

    @property
    def degree(self) -> int:
        return self.predicate.total_degree


@dataclass
class ConstraintSystem:
    num_columns: int
    boundaries: List[BoundaryConstraint]
    transitions: List[TransitionConstraint]

    def __post_init__(self):
        if self.num_columns < 1 or not (self.boundaries or self.transitions):
            raise UsageError("constraint system is empty")
        for bc in self.boundaries:
            if not 0 <= bc.column < self.num_columns:
                raise UsageError("boundary references a missing column")
            if not (0 <= bc.row < 2**32 and 0 <= bc.value < 2**64):
                raise UsageError("boundary row or value not encodable")

    def boundary_columns(self) -> List[int]:
        return sorted({bc.column for bc in self.boundaries})

    def max_window(self) -> int:
        return max((tc.window for tc in self.transitions), default=1)

    def length_fault(self, original_length: int) -> Optional[str]:
        """Why a trace of original_length rows cannot carry these
        constraints, or None: every boundary row and every transition
        window must lie below it."""
        if any(bc.row >= original_length for bc in self.boundaries):
            return "boundary row outside the original trace"
        if original_length < self.max_window():
            return "window does not fit in the trace"
        return None

    def digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(u32(self.num_columns))
        for bc in sorted(self.boundaries,
                         key=lambda b: (b.column, b.row)):
            h.update(u32(bc.column) + u32(bc.row) + u64(bc.value))
        for tc in self.transitions:
            h.update(u32(tc.window) + tc.predicate.serialize())
        return h.digest()


@dataclass
class StarkParams:
    blowup: int
    num_queries: int
    zk: bool = False

    def __post_init__(self):
        if self.blowup < 4 or self.blowup & (self.blowup - 1):
            raise UsageError("blowup must be a power of two >= 4")

    def lde_domain(self, field: Field, trace_length: int) -> EvaluationDomain:
        # offset = full-group generator, never inside any 2^k subgroup
        return EvaluationDomain.coset(field, self.blowup * trace_length,
                                      field.generator())


def _flag(reader: Reader, what: str) -> bool:
    v = reader.u8()
    if v not in (0, 1):
        raise UsageError(f"{what} flag must be 0 or 1, got {v}")
    return v == 1


@dataclass
class StarkProof:
    trace_length: int
    original_length: int
    num_columns: int
    blowup: int
    num_queries: int
    zk: bool
    cs_digest: bytes
    binding_digest: Optional[bytes]
    trace_root: bytes
    composition_root: bytes
    fri_proof: "fri.FriProof"
    # per query: list over window rows of (column values, path)
    trace_openings: List[List[Tuple[List[int], AuthPath]]]

    def serialize(self) -> bytes:
        out = [PROOF_MAGIC, u8(HASH_ID), u32(self.trace_length),
               u32(self.original_length), u32(self.num_columns),
               u32(self.blowup), u32(self.num_queries),
               u8(1 if self.zk else 0), self.cs_digest]
        if self.binding_digest is None:
            out.append(u8(0))
        else:
            out += [u8(1), self.binding_digest]
        out += [self.trace_root, self.composition_root,
                bytes_lp(self.fri_proof.serialize()),
                u32(len(self.trace_openings))]
        for bundle in self.trace_openings:
            out.append(u32(len(bundle)))
            for values, path in bundle:
                out.append(b"".join(u64(v) for v in values))
                out.append(bytes_lp(path.serialize()))
        return b"".join(out)

    @staticmethod
    def deserialize(data: bytes) -> "StarkProof":
        reader = Reader(data)
        if reader.take(4) != PROOF_MAGIC:
            raise UsageError("not a STARK proof")
        if reader.u8() != HASH_ID:
            raise UsageError("unsupported hash algorithm id")
        n = reader.u32()
        orig = reader.u32()
        ncols = reader.u32()
        blowup = reader.u32()
        queries = reader.u32()
        zk = _flag(reader, "zk")
        cs_digest = reader.take(32)
        binding = reader.take(32) if _flag(reader, "binding") else None
        trace_root = reader.take(32)
        comp_root = reader.take(32)
        fri_proof = fri.FriProof.deserialize(Reader(reader.bytes_lp()))
        openings = []
        for _ in range(reader.u32()):
            bundle = []
            for _ in range(reader.u32()):
                values = [reader.u64() for _ in range(ncols)]
                path = AuthPath.from_bytes(reader.bytes_lp())
                bundle.append((values, path))
            openings.append(bundle)
        reader.finish()
        return StarkProof(n, orig, ncols, blowup, queries, zk, cs_digest,
                          binding, trace_root, comp_root, fri_proof, openings)


# ---------------------------------------------------------------------------
# reference trace and constraints

def trace_fibonacci(n: int, field: Field = None) -> TraceTable:
    """Single-column Fibonacci trace of n rows, zero-padded to a power of two."""
    if n < 2:
        raise UsageError("need at least the two seed rows")
    if field is None:
        from .field import DEFAULT_MODULUS
        field = Field(DEFAULT_MODULUS)
    p = field.modulus
    rows = [1, 1]
    while len(rows) < n:
        rows.append((rows[-1] + rows[-2]) % p)
    rows = rows[:n]
    padded = 1
    while padded < n:
        padded *= 2
    rows += [0] * (padded - n)
    return TraceTable([rows], n, field)


def fibonacci_constraint_system(n: int, field: Field = None) -> ConstraintSystem:
    """Seed rows pinned to 1, output row pinned to fib(n-1), and the
    window-3 recurrence on every interior row."""
    if field is None:
        from .field import DEFAULT_MODULUS
        field = Field(DEFAULT_MODULUS)
    p = field.modulus
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, (a + b) % p
    pred = MultivariatePoly(field, 3, {(0, 0, 1): 1, (0, 1, 0): -1,
                                       (1, 0, 0): -1})
    return ConstraintSystem(
        num_columns=1,
        boundaries=[BoundaryConstraint(0, 0, 1), BoundaryConstraint(0, 1, 1),
                    BoundaryConstraint(0, n - 1, b)],
        transitions=[TransitionConstraint(3, pred)])


def membership_poly(field: Field, values) -> Polynomial:
    """C(y) = prod (y - c_i): zero exactly on the allowed value set."""
    acc = Polynomial(field, [1])
    for c in values:
        acc = acc * Polynomial(field, [-field(c).value, 1])
    return acc


# ---------------------------------------------------------------------------
# arithmetisation pipeline

def _transition_rows(trace: TraceTable, tc: TransitionConstraint) -> int:
    return trace.original_length - (tc.window - 1)


def _windows(columns, stride: int, width: int):
    """rows[r][c] = column c rolled left by r*stride: with stride 1 on the
    trace, row r holds the cell r rows below each row; with stride blowup
    on the low-degree extension, the value at g^r x for each point x."""
    return [[np.roll(col, -r * stride) for col in columns]
            for r in range(width)]


def evaluate_transition(tc: TransitionConstraint, rows) -> np.ndarray:
    """tc's predicate at every point, variable r*ncols+c being rows[r][c]."""
    return tc.predicate.evaluate_array(
        [col for row in rows[:tc.window] for col in row])


def _divide(values: np.ndarray, divisor: np.ndarray, p: int) -> np.ndarray:
    """values / divisor pointwise (batch inversion), for a vanishing
    polynomial's values off the trace subgroup, never zero while the LDE
    offset generates the whole group.  A divisor shorter than values
    repeats with its length as period, so only one period is inverted."""
    if not divisor.all():
        raise InternalError("vanishing polynomial is zero at an LDE point")
    inverse = np.tile(_inverse_array(divisor, p), len(values) // len(divisor))
    return values * inverse % np.uint64(p)


def _point_array(points) -> np.ndarray:
    """The points as a uint64 array: a domain's points in domain order, or
    the array itself."""
    if isinstance(points, EvaluationDomain):
        return points.point_array()
    return points


def _row_product(points, g: FieldElement, rows) -> np.ndarray:
    """prod over the given trace rows j of (x - g^j) at every point x.

    On a domain (the prover's LDE coset) the product's coefficients are
    multiplied out once, one short array pass per row, and evaluated by
    NTT; at a point array (the verifier's queries) it takes one pass over
    the points per row."""
    p = g.field.modulus
    mod = np.uint64(p)
    negated_roots = [np.uint64(p - pow(g.value, j, p)) for j in rows]
    if isinstance(points, EvaluationDomain):
        coeffs = np.zeros(len(negated_roots) + 1, dtype=np.uint64)
        coeffs[0] = 1  # lowest degree first
        for k, neg in enumerate(negated_roots):
            # times (x - root): c[i] <- c[i-1] - root c[i], degree k+1;
            # p^2 - p < 2^64, so one reduction suffices
            coeffs[1:k + 2] = (coeffs[:k + 1] + coeffs[1:k + 2] * neg) % mod
            coeffs[0] = coeffs[0] * neg % mod
        return evaluate_on_domain(Polynomial(g.field, coeffs.tolist()), points)
    acc = np.ones(len(points), dtype=np.uint64)
    for neg in negated_roots:
        acc = acc * ((points + neg) % mod) % mod
    return acc


def boundary_quotient(points, column: np.ndarray, bcs,
                      trace_domain: EvaluationDomain) -> np.ndarray:
    """(column - B) / Z_B at the points (a domain or a uint64 array),
    column holding the trace column there, B interpolating the boundary
    points and Z_B the product of (x - g^row) over them."""
    field = trace_domain.field
    p = field.modulus
    mod = np.uint64(p)
    pts = [(trace_domain.point(bc.row), field(bc.value)) for bc in bcs]
    num = (column + (mod - interpolate(pts).evaluate_array(
        _point_array(points)))) % mod
    z_b = _row_product(points, trace_domain.generator, [bc.row for bc in bcs])
    return _divide(num, z_b, p)


def transition_vanishing_eval(points, trace_domain: EvaluationDomain,
                              num_rows: int) -> np.ndarray:
    """1 / Z_E at the points (a domain or a uint64 array), where
    Z_E = (x^n - 1) / prod over the excluded rows j >= num_rows of
    (x - g^j) vanishes exactly on the constrained rows 0 .. num_rows-1.
    The reciprocal turns the quotient into a product.  On a coset of N
    points x^n - 1 repeats with period N/n, and one period is inverted."""
    n = trace_domain.size
    p = trace_domain.field.modulus
    mod = np.uint64(p)
    excluded = _row_product(points, trace_domain.generator, range(num_rows, n))
    xs = _point_array(points)
    if isinstance(points, EvaluationDomain):
        xs = xs[:max(points.size // n, 1)]
    return _divide(excluded, (_pow_array(xs, n, p) + (mod - 1)) % mod, p)


def transition_quotient(points, rows, tc: TransitionConstraint,
                        trace_domain: EvaluationDomain,
                        num_rows: int) -> np.ndarray:
    """predicate(col(x), col(g x), ...) / Z_E at the points (a domain or
    a uint64 array)."""
    return (evaluate_transition(tc, rows)
            * transition_vanishing_eval(points, trace_domain, num_rows)
            % np.uint64(trace_domain.field.modulus))


def check_satisfaction(trace: TraceTable, cs: ConstraintSystem):
    """Raise naming the first violated constraint (and for a transition,
    its first violating row)."""
    fault = cs.length_fault(trace.original_length)
    if fault:
        raise UsageError(fault)
    for bc in cs.boundaries:
        if trace.columns[bc.column][bc.row] != bc.value % trace.field.modulus:
            raise ConstraintViolation(
                f"boundary (col {bc.column}, row {bc.row}) unsatisfied")
    rows = _windows([_values_array(col, trace.field)
                     for col in trace.columns], 1, cs.max_window())
    for k, tc in enumerate(cs.transitions):
        num_rows = _transition_rows(trace, tc)
        bad = np.flatnonzero(evaluate_transition(tc, rows)[:num_rows])
        if bad.size:
            raise ConstraintViolation(
                f"transition {k} violated at row {bad[0]}")


def _draw_gammas(cs: ConstraintSystem, field: Field,
                 t: Transcript) -> List[FieldElement]:
    """One gamma per quotient, drawn right after the trace commitment."""
    return [t.challenge_field(field)
            for _ in range(len(cs.boundary_columns()) + len(cs.transitions))]


def compose(points, rows, cs: ConstraintSystem,
            trace_domain: EvaluationDomain, original_length: int,
            gammas) -> np.ndarray:
    """Random linear combination, with the gammas, of every boundary and
    transition quotient at the points: the prover's LDE coset as an
    EvaluationDomain, or the verifier's query points as a uint64 array.
    rows[r][c] holds column c at g^r x for each point x."""
    quotients = [boundary_quotient(points, rows[0][c],
                                   [bc for bc in cs.boundaries
                                    if bc.column == c], trace_domain)
                 for c in cs.boundary_columns()]
    quotients += [transition_quotient(points, rows, tc, trace_domain,
                                      original_length - (tc.window - 1))
                  for tc in cs.transitions]
    mod = np.uint64(trace_domain.field.modulus)
    acc = np.zeros(len(_point_array(points)), dtype=np.uint64)
    for gamma, q in zip(gammas, quotients):
        acc = (acc + q * np.uint64(gamma.value) % mod) % mod
    return acc


def composition_degree_bound(trace_length: int, orig_length: int,
                             cs: ConstraintSystem) -> int:
    """Max quotient degree, rounded up so the FRI bound deg < d holds."""
    degs = []
    per_col = {}
    for bc in cs.boundaries:
        per_col[bc.column] = per_col.get(bc.column, 0) + 1
    for cnt in per_col.values():
        degs.append(trace_length - 1 - cnt)
    for tc in cs.transitions:
        degs.append(tc.degree * (trace_length - 1)
                    - (orig_length - tc.window + 1))
    d = 1
    while d < max(degs) + 1:
        d *= 2
    return d


# ---------------------------------------------------------------------------
# zero-knowledge helpers

def zk_pad(trace: TraceTable, num_queries: int, rng_seed) -> TraceTable:
    """Append uniformly random noise rows (one per query), then re-pad."""
    rng = random.Random(rng_seed)
    p = trace.field.modulus
    cols = []
    for col in trace.columns:
        extended = list(col[:trace.original_length])
        extended += [rng.randrange(p) for _ in range(num_queries)]
        padded = 1
        while padded < len(extended):
            padded *= 2
        extended += [0] * (padded - len(extended))
        cols.append(extended)
    return TraceTable(cols, trace.original_length, trace.field)


def zk_statement_digest(secret_input: bytes) -> bytes:
    """Public digest h = H(x) bound into the transcript before commitment."""
    return hashlib.sha256(b"zk-statement" + secret_input).digest()


# ---------------------------------------------------------------------------
# prover / verifier

def _header_bytes(proof_fields) -> bytes:
    (n, orig, ncols, blowup, queries, zk, cs_digest, binding) = proof_fields
    out = (u32(n) + u32(orig) + u32(ncols) + u32(blowup) + u32(queries)
           + u8(1 if zk else 0) + cs_digest)
    if binding is not None:
        out += binding
    return out


def prove(trace: TraceTable, cs: ConstraintSystem, params: StarkParams,
          zk_seed=None, secret_binding: Optional[bytes] = None,
          skip_satisfaction_check: bool = False) -> StarkProof:
    """Commit, draw gammas, compose, run FRI, open trace windows.

    The trace columns are interpolated and extended to the LDE coset by
    NTT; the quotients and their combination are computed pointwise there.
    skip_satisfaction_check enables the cheating-prover variant used by
    soundness experiments: unsatisfied constraints then give a composition
    that is a rational function rather than a polynomial, and FRI runs
    without insisting on a constant final layer.
    """
    field = trace.field
    if params.zk:
        trace = zk_pad(trace, params.num_queries, zk_seed)
    if not skip_satisfaction_check:
        check_satisfaction(trace, cs)
    if trace.num_columns != cs.num_columns:
        raise UsageError("column count mismatch")
    n = trace.length
    trace_domain = trace.domain()
    lde = params.lde_domain(field, n)
    binding = (zk_statement_digest(secret_binding)
               if secret_binding is not None else None)

    t = Transcript("stark")
    t.absorb(b"header", _header_bytes(
        (n, trace.original_length, cs.num_columns, params.blowup,
         params.num_queries, params.zk, cs.digest(), binding)))

    lde_columns = [evaluate_on_domain(interpolate_on_domain(col, trace_domain),
                                      lde)
                   for col in trace.columns]
    trace_tree = MerkleTree(u64_rows(np.stack(lde_columns, axis=1)))
    t.absorb(b"trace-root", trace_tree.root)

    gammas = _draw_gammas(cs, field, t)
    comp_evals = compose(lde,
                         _windows(lde_columns, params.blowup, cs.max_window()),
                         cs, trace_domain, trace.original_length, gammas)
    d = composition_degree_bound(n, trace.original_length, cs)
    fri_params = fri.FriParams(lde, d, params.num_queries)
    fri_proof = fri.prove(comp_evals, fri_params, t,
                          enforce_low_degree=not skip_satisfaction_check)
    composition_root = fri_proof.layer_roots[0]

    w = cs.max_window()
    openings = []
    for q in fri_proof.queries:
        bundle = []
        for r in range(w):
            idx = (q.index + r * params.blowup) % lde.size
            values = [int(col[idx]) for col in lde_columns]
            bundle.append((values, trace_tree.open(idx)))
        openings.append(bundle)

    return StarkProof(n, trace.original_length, cs.num_columns,
                      params.blowup, params.num_queries, params.zk,
                      cs.digest(), binding, trace_tree.root,
                      composition_root, fri_proof, openings)


def verify(proof: StarkProof, cs: ConstraintSystem, params: StarkParams,
           field: Field = None) -> VerifyResult:
    """Replay the transcript, check every opening, re-derive each query's
    constraint combination and compare with the FRI layer-0 value, then
    check the FRI low-degree proof."""
    if field is None:
        from .field import DEFAULT_MODULUS
        field = Field(DEFAULT_MODULUS)
    if proof.cs_digest != cs.digest():
        return VerifyResult.reject("constraint-system digest mismatch")
    if proof.blowup != params.blowup or proof.num_queries != params.num_queries:
        return VerifyResult.reject("parameter mismatch")
    if proof.num_columns != cs.num_columns:
        return VerifyResult.reject("column count mismatch")
    n = proof.trace_length
    if n & (n - 1) or not 2 <= proof.original_length <= n:
        return VerifyResult.reject("malformed header")
    # the prover chooses original_length: it must still cover every
    # constraint, or rows past it would go unchecked
    fault = cs.length_fault(proof.original_length)
    if fault:
        return VerifyResult.reject(fault)
    trace_domain = EvaluationDomain.subgroup(field, n)
    lde = params.lde_domain(field, n)

    t = Transcript("stark")
    t.absorb(b"header", _header_bytes(
        (n, proof.original_length, proof.num_columns, proof.blowup,
         proof.num_queries, proof.zk, proof.cs_digest,
         proof.binding_digest)))
    t.absorb(b"trace-root", proof.trace_root)

    gammas = _draw_gammas(cs, field, t)

    d = composition_degree_bound(n, proof.original_length, cs)
    fri_params = fri.FriParams(lde, d, params.num_queries)
    if not proof.fri_proof.layer_roots:
        return VerifyResult.reject("fri: no layer roots")
    if proof.composition_root != proof.fri_proof.layer_roots[0]:
        return VerifyResult.reject("composition root mismatch")
    fri_verdict = fri.verify(proof.fri_proof, fri_params, t)
    if not fri_verdict:
        return VerifyResult.reject(f"fri: {fri_verdict.reason}")

    w = cs.max_window()
    queries = proof.fri_proof.queries
    if len(proof.trace_openings) != len(queries):
        return VerifyResult.reject("query bundle count mismatch")
    for k, bundle in enumerate(proof.trace_openings):
        if len(bundle) != w:
            return VerifyResult.reject(f"query {k}: window truncated")
        for values, _ in bundle:
            if len(values) != proof.num_columns:
                return VerifyResult.reject(f"query {k}: bad row width")
            if any(v >= field.modulus for v in values):
                return VerifyResult.reject(
                    f"query {k}: non-canonical trace value")
    # opened[k, r, c]: column c at g^r x_k, x_k the k-th query point
    opened = np.array([[values for values, _ in bundle]
                       for bundle in proof.trace_openings],
                      dtype=np.uint64).reshape(len(queries), w,
                                               proof.num_columns)
    leaves = u64_rows(opened.reshape(-1, proof.num_columns))
    for k, (q, bundle) in enumerate(zip(queries, proof.trace_openings)):
        for r, (_, path) in enumerate(bundle):
            idx = (q.index + r * params.blowup) % lde.size
            if not verify_path(proof.trace_root, idx, leaves[k * w + r],
                               path):
                return VerifyResult.reject(f"query {k}: trace path failure")

    xs = np.array([lde.point(q.index).value for q in queries],
                  dtype=np.uint64)
    rows = [[opened[:, r, c] for c in range(proof.num_columns)]
            for r in range(w)]
    combined = compose(xs, rows, cs, trace_domain, proof.original_length,
                       gammas)
    claimed = np.array([q.layers[0].value if q.layers
                        else proof.fri_proof.final_value for q in queries],
                       dtype=np.uint64)
    bad = np.flatnonzero(combined != claimed)
    if bad.size:
        return VerifyResult.reject(
            f"query {bad[0]}: constraint equation failure")
    return VerifyResult.accept()


# ---------------------------------------------------------------------------
# standalone 2POLY primitive

def probabilistic_poly_eq(f_evals, g_evals, degree_bound: int,
                          t: Transcript, num_queries: int) -> bool:
    """Accept iff the two evaluation tables agree at num_queries random
    indices; soundness error (d/|D|)^k for worst-case unequal pairs."""
    if len(f_evals) != len(g_evals):
        raise UsageError("evaluation tables differ in length")
    n = len(f_evals)
    for _ in range(num_queries):
        i = t.challenge_index(n)
        if int(f_evals[i]) != int(g_evals[i]):
            return False
    return True

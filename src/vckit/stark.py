"""Transparent STARK-style argument: trace arithmetisation, low-degree
extension on a coset by NTT, constraint quotients and their randomized
composition evaluated pointwise, Merkle commitment and FRI.

One evaluator, compose, computes the composition at any array of points x
from the (window, column, point) array of the trace at x, g x, ...,
g^(w-1) x: the prover's LDE table rolled by _windows on the whole LDE
coset, the verifier's opened window array at its query points, so the
constraint check is vectorized and not metered in op_count.
The prover interpolates the trace columns once and handles every other
polynomial by its values on the coset: O(n log n) field work.  A product
of (x - g^j) over trace rows j, such as the rows the transition
constraints exclude, is on the coset the array x - 1 rolled by blowup*j
for each row (the coset generator w has w^blowup = g), multiplied out by
doubling over each run of consecutive rows; at the verifier's query
points it is an array of the factors reduced by pairwise products.
x^n - 1 takes only blowup distinct values on the coset, so only those
are inverted.

FRI draws its query positions from the whole coset.  For a position
holding x the verifier needs the trace rows at x, g x, ..., g^(w-1) x
(indices position + r * blowup) and reads the composition at x from the
FRI layer-0 coset that holds the position.  The trace is committed with
one Merkle leaf per R = min(4, n) consecutive trace rows at one coset
shift, so a query needs the one or two leaves holding its window rather
than w single rows.  For a position s + blowup*j, window row r is trace
row t = (j + r) mod n, slot t mod R of leaf s*(n/R) + t div R
(_window_cells).  The proof opens the index_set of those leaves with one
Merkle opening.

The LDE coset offset is a generator of the full multiplicative group, so
no extended evaluation point ever lands in the trace subgroup; queries
therefore never touch the original trace domain, which is what the
zero-knowledge padding relies on.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import fri
from .encoding import HASH_ID, Reader, read_magic, u8, u32, u64
from .errors import (ConstraintViolation, InternalError, UsageError,
                     VerifyResult)
from .field import (EvaluationDomain, Field, MultivariatePoly, Polynomial,
                    _canonical, _inverse_array, _pow_array, _power_array,
                    _reduce, _reduce_sum, evaluate_on_domain, interpolate,
                    interpolate_on_domain)
from .merkle import MerkleTree, Opening, index_set
from .transcript import Transcript, _h

PROOF_VERSION = 7
# Every proof starts with the magic and then the format version byte.
PROOF_MAGIC = b"VCKS" + u8(PROOF_VERSION)
# Consecutive trace rows per trace-tree leaf; a shorter trace puts all its
# rows in one leaf per coset shift.
TRACE_ROWS_PER_LEAF = 4


# ---------------------------------------------------------------------------
# domain types

@dataclass
class TraceTable:
    """Equal-length columns over the trace subgroup; row i sits at g^i.

    original_length is the row count before padding; prove holds it to
    the statement's length L and the padded length to trace_length(L).
    """

    columns: List[List[int]]
    original_length: int
    field: Field

    def __post_init__(self):
        if not self.columns:
            raise UsageError("trace has no columns")
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

    def values(self) -> np.ndarray:
        """The columns as one (num_columns, length) uint64 array, built
        from the columns as they are now.  A value that is not an int in
        [0, p) is refused, not reduced."""
        # a FieldElement or float gives a non-integer dtype; the bounds
        # are checked before the cast, which would wrap a negative value
        table = np.array(self.columns)
        if (table.dtype.kind not in "iu" or table.min() < 0
                or table.max() >= self.field.modulus):
            raise UsageError("trace value is not an int in [0, p)")
        return table.astype(np.uint64)


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
    length: int  # L, the rows constrained: fixes the trace shape

    def __post_init__(self):
        if self.num_columns < 1 or not (self.boundaries or self.transitions):
            raise UsageError("constraint system is empty")
        if self.length < max(2, self.max_window()):
            raise UsageError("length below 2 rows or a transition window")
        if self.length >= 2**32:
            raise UsageError("length not encodable")
        cells = set()
        for bc in self.boundaries:
            if not 0 <= bc.column < self.num_columns:
                raise UsageError("boundary references a missing column")
            if not (0 <= bc.row < 2**32 and 0 <= bc.value < 2**64):
                raise UsageError("boundary row or value not encodable")
            if bc.row >= self.length:
                raise UsageError(f"boundary row {bc.row} not below length")
            if (bc.column, bc.row) in cells:
                raise UsageError(f"two boundaries on (col {bc.column}, "
                                 f"row {bc.row})")
            cells.add((bc.column, bc.row))

    def boundary_groups(self) -> Dict[int, List[BoundaryConstraint]]:
        """Each constrained column's boundaries, by column ascending."""
        return {c: [bc for bc in self.boundaries if bc.column == c]
                for c in sorted({bc.column for bc in self.boundaries})}

    def max_window(self) -> int:
        return max((tc.window for tc in self.transitions), default=1)

    def digest(self) -> bytes:
        boundaries = sorted(self.boundaries, key=lambda b: (b.column, b.row))
        return _h(u32(self.num_columns),
                  *(u32(bc.column) + u32(bc.row) + u64(bc.value)
                    for bc in boundaries),
                  *(u32(tc.window) + tc.predicate.serialize()
                    for tc in self.transitions))


@dataclass
class StarkParams:
    blowup: int
    num_queries: int
    zk: bool = False

    def __post_init__(self):
        if self.blowup < 4 or self.blowup & (self.blowup - 1):
            raise UsageError("blowup must be a power of two >= 4")
        if self.num_queries < 1:
            raise UsageError("need at least one query")

    def trace_length(self, original_length: int) -> int:
        """The length a trace of original_length rows is padded to, the
        only one prove and verify take: one noise row per query with zk
        (zk_pad), then zeros up to a power of two."""
        return _padded_length(original_length
                              + (self.num_queries if self.zk else 0))

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
    """What the verifier cannot derive from its own statement, and the
    trace shape, which it derives and holds the header to.  The digest of
    the constraint system is absorbed by each side from its own copy, and
    the composition is committed by FRI's layer-0 root."""

    trace_length: int
    original_length: int
    num_columns: int
    blowup: int
    num_queries: int
    zk: bool
    trace_root: bytes
    # the trace leaves the queries' windows need (_window_cells), each a
    # row of values row-major over its trace rows and then the columns
    trace_opening: Opening
    fri_proof: "fri.FriProof"

    def serialize(self) -> bytes:
        out = [PROOF_MAGIC, u8(HASH_ID), u32(self.trace_length),
               u32(self.original_length), u32(self.num_columns),
               u32(self.blowup), u32(self.num_queries),
               u8(1 if self.zk else 0), self.trace_root,
               self.trace_opening.serialize(), self.fri_proof.serialize()]
        return b"".join(out)

    @staticmethod
    def deserialize(data: bytes) -> "StarkProof":
        reader = Reader(data)
        read_magic(reader, PROOF_MAGIC, "STARK")
        n = reader.u32()
        orig = reader.u32()
        ncols = reader.u32()
        blowup = reader.u32()
        queries = reader.u32()
        if queries < 1:
            raise UsageError("need at least one query")
        zk = _flag(reader, "zk")
        trace_root = reader.take(32)
        opening = Opening.deserialize(reader, _rows_per_leaf(n) * ncols)
        # the FRI proof runs to the end of the blob and finishes the reader
        fri_proof = fri.FriProof.deserialize(reader)
        return StarkProof(n, orig, ncols, blowup, queries, zk, trace_root,
                          opening, fri_proof)


# ---------------------------------------------------------------------------
# reference trace and constraints

def _padded_length(rows: int) -> int:
    """The power of two a trace of rows rows is zero-padded to."""
    return 1 << (rows - 1).bit_length()


def trace_fibonacci(n: int, field: Field) -> TraceTable:
    """Single-column Fibonacci trace of n rows, zero-padded to a power of two."""
    if n < 2:
        raise UsageError("need at least the two seed rows")
    p = field.modulus
    rows = [1, 1]
    while len(rows) < n:
        rows.append((rows[-1] + rows[-2]) % p)
    rows = rows[:n]
    return TraceTable([rows + [0] * (_padded_length(n) - n)], n, field)


def fibonacci_constraint_system(n: int, field: Field) -> ConstraintSystem:
    """Seed rows pinned to 1, output row n-1 pinned to F(n) mod p, and
    the window-3 recurrence on every interior row.

    F(n) comes from fast doubling, F(2k) = F(k) (2 F(k+1) - F(k)) and
    F(2k+1) = F(k)^2 + F(k+1)^2, in O(log n) steps: the verifier builds
    this system and must not redo the n-step computation."""
    p = field.modulus
    a, b = 0, 1  # F(k), F(k+1) for k the bits of n read so far
    for bit in format(n, "b"):
        a, b = a * (2 * b - a) % p, (a * a + b * b) % p
        if bit == "1":
            a, b = b, (a + b) % p
    pred = MultivariatePoly(field, 3, {(0, 0, 1): 1, (0, 1, 0): -1,
                                       (1, 0, 0): -1})
    return ConstraintSystem(
        num_columns=1,
        boundaries=[BoundaryConstraint(0, 0, 1), BoundaryConstraint(0, 1, 1),
                    BoundaryConstraint(0, n - 1, a)],
        transitions=[TransitionConstraint(3, pred)], length=n)


def membership_poly(field: Field, values) -> Polynomial:
    """C(y) = prod (y - c_i): zero exactly on the allowed value set."""
    acc = Polynomial(field, [1])
    for c in values:
        acc = acc * Polynomial(field, [-_canonical(field, c), 1])
    return acc


# ---------------------------------------------------------------------------
# arithmetisation pipeline

def _transition_rows(cs: ConstraintSystem, tc: TransitionConstraint) -> int:
    return cs.length - (tc.window - 1)


def _shape_fault(shape, cs: ConstraintSystem, n: int) -> Optional[str]:
    """Why a trace or proof header of shape (columns, original length,
    trace length) is not cs padded to n rows, or None."""
    want = (cs.num_columns, cs.length, n)
    if shape == want:
        return None
    if shape[0] != want[0]:
        return f"trace shape mismatch: {shape[0]} columns, not {want[0]}"
    return "trace shape mismatch: {} rows padded to {}, not {} to {}".format(
        *shape[1:], *want[1:])


def _windows(table: np.ndarray, stride: int, width: int) -> np.ndarray:
    """The (width, column, point) array rows of a (column, point) uint64
    table, rows[r, c] being column c rolled left by r*stride: with stride
    1 on the trace, the cell r rows below each row; with stride blowup on
    the low-degree extension, the value at g^r x for each point x."""
    rows = np.empty((width,) + table.shape, dtype=np.uint64)
    for r in range(width):
        rows[r] = np.roll(table, -r * stride, axis=1)
    return rows


def evaluate_transition(tc: TransitionConstraint, rows) -> np.ndarray:
    """tc's predicate at every point, variable r*ncols+c being rows[r, c]."""
    return tc.predicate.evaluate_array(
        rows[:tc.window].reshape(-1, rows.shape[-1]))


def _divide(values: np.ndarray, divisor: np.ndarray, p: int) -> np.ndarray:
    """values / divisor pointwise (batch inversion), for a vanishing
    polynomial's values off the trace subgroup, never zero while the LDE
    offset generates the whole group.  A divisor shorter than values
    repeats with its length as period, so only one period is inverted."""
    if not divisor.all():
        raise InternalError("vanishing polynomial is zero at an LDE point")
    inverse = np.tile(_inverse_array(divisor, p), len(values) // len(divisor))
    return _reduce(values * inverse, np.uint64(p))


def _point_array(points) -> np.ndarray:
    """The points as a uint64 array: a domain's points in domain order, or
    the array itself."""
    if isinstance(points, EvaluationDomain):
        return points.point_array()
    return points


# Entries of the (rows x points) array _row_product holds at a time at
# the verifier's query points: an unpadded trace of 2^k + 1 rows, with
# about half its rows excluded, then needs no array of points x n.
_ROW_BLOCK_ENTRIES = 1 << 12


def _row_product(points, trace_domain: EvaluationDomain,
                 rows) -> np.ndarray:
    """prod over the given trace rows j of (x - g^j) at every point x.

    On a coset of N = blowup * n points, whose generator w has
    w^blowup = g, x g^-j is the point blowup*j places before x, so
    x - g^j = g^j (x g^-j - 1) is the array x - 1 rolled by blowup*j,
    times g^j.  Each run of consecutive rows multiplies its rolls out by
    doubling, in O(N log run), and the g^j gather into one scalar.  At
    query points (a uint64 array) it builds the array of x - g^j, one row
    per j and one column per point, in blocks of at most
    _ROW_BLOCK_ENTRIES entries (at least one row), and halves each block
    by pairwise products down to one row."""
    g = trace_domain.generator
    n = trace_domain.size
    p = trace_domain.field.modulus
    mod = np.uint64(p)
    rows = np.fromiter(rows, dtype=np.int64)
    if isinstance(points, EvaluationDomain):
        if points.size % n:
            raise InternalError("domain size is not a multiple of the "
                                "trace length")
        step = points.size // n
        shifted = _reduce_sum(points.point_array() + (mod - 1), mod)
        acc = np.full(points.size, pow(g, int(rows.sum()), p),
                      dtype=np.uint64)
        rows = np.sort(rows)
        for run in np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1):
            if not run.size:
                continue
            # prod, the product of shifted rolled by step*k over k < have
            prod, have = shifted, 1
            for bit in format(run.size, "b")[1:]:
                prod = _reduce(prod * np.roll(prod, step * have), mod)
                have *= 2
                if bit == "1":
                    prod = _reduce(prod * np.roll(shifted, step * have), mod)
                    have += 1
            acc = _reduce(acc * np.roll(prod, step * int(run[0])), mod)
        return acc
    roots = _power_array(g, int(rows.max()) + 1 if rows.size else 0,
                         p)[rows]
    acc = np.ones(len(points), dtype=np.uint64)
    block = max(1, _ROW_BLOCK_ENTRIES // max(len(points), 1))
    for start in range(0, len(roots), block):
        factors = _reduce_sum(
            points + (mod - roots[start:start + block, None]), mod)
        while len(factors) > 1:
            half = len(factors) // 2
            paired = _reduce(factors[:half] * factors[half:2 * half], mod)
            if len(factors) % 2:
                paired[0] = _reduce(paired[0] * factors[-1], mod)
            factors = paired
        acc = _reduce(acc * factors[0], mod)
    return acc


def boundary_quotient(points, column: np.ndarray, bcs,
                      trace_domain: EvaluationDomain) -> np.ndarray:
    """(column - B) / Z_B at the points (a domain or a uint64 array),
    column holding the trace column there, B interpolating the boundary
    points and Z_B the product of (x - g^row) over them."""
    field = trace_domain.field
    p = field.modulus
    mod = np.uint64(p)
    pts = [(trace_domain.point(bc.row), bc.value) for bc in bcs]
    num = _reduce_sum(column + (mod - interpolate(field, pts).evaluate_array(
        _point_array(points))), mod)
    z_b = _row_product(points, trace_domain, [bc.row for bc in bcs])
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
    excluded = _row_product(points, trace_domain, range(num_rows, n))
    xs = _point_array(points)
    if isinstance(points, EvaluationDomain):
        xs = xs[:max(points.size // n, 1)]
    return _divide(excluded, _reduce_sum(_pow_array(xs, n, p) + (mod - 1),
                                         mod), p)


def transition_quotient(points, rows, tc: TransitionConstraint,
                        trace_domain: EvaluationDomain,
                        num_rows: int) -> np.ndarray:
    """predicate(col(x), col(g x), ...) / Z_E at the points (a domain or
    a uint64 array)."""
    return _reduce(evaluate_transition(tc, rows)
                   * transition_vanishing_eval(points, trace_domain, num_rows),
                   np.uint64(trace_domain.field.modulus))


def check_satisfaction(trace: TraceTable,
                       cs: ConstraintSystem) -> np.ndarray:
    """The trace's values (TraceTable.values) once they satisfy cs; raise
    naming the first violated constraint (and for a transition, its first
    violating row)."""
    fault = _shape_fault((trace.num_columns, trace.original_length,
                          trace.length), cs, trace.length)
    if fault:
        raise UsageError(fault)
    values = trace.values()
    for bc in cs.boundaries:
        if values[bc.column, bc.row] != bc.value % trace.field.modulus:
            raise ConstraintViolation(
                f"boundary (col {bc.column}, row {bc.row}) unsatisfied")
    rows = _windows(values, 1, cs.max_window())
    for k, tc in enumerate(cs.transitions):
        num_rows = _transition_rows(cs, tc)
        bad = np.flatnonzero(evaluate_transition(tc, rows)[:num_rows])
        if bad.size:
            raise ConstraintViolation(
                f"transition {k} violated at row {bad[0]}")
    return values


def _draw_gammas(cs: ConstraintSystem, field: Field,
                 t: Transcript) -> List[int]:
    """One gamma per quotient, drawn right after the trace commitment."""
    return [t.challenge_index(field.modulus)
            for _ in range(len(cs.boundary_groups()) + len(cs.transitions))]


def compose(points, rows: np.ndarray, cs: ConstraintSystem,
            trace_domain: EvaluationDomain, gammas) -> np.ndarray:
    """Random linear combination, with the gammas, of every boundary and
    transition quotient at the points: the prover's LDE coset as an
    EvaluationDomain, or the verifier's query points as a uint64 array.
    rows[r, c] of the (window, column, point) array rows holds column c
    at g^r x for each point x."""
    quotients = [boundary_quotient(points, rows[0, c], bcs, trace_domain)
                 for c, bcs in cs.boundary_groups().items()]
    quotients += [transition_quotient(points, rows, tc, trace_domain,
                                      _transition_rows(cs, tc))
                  for tc in cs.transitions]
    mod = np.uint64(trace_domain.field.modulus)
    acc = np.zeros(len(_point_array(points)), dtype=np.uint64)
    for gamma, q in zip(gammas, quotients):
        acc = _reduce_sum(acc + _reduce(q * np.uint64(gamma), mod), mod)
    return acc


def composition_degree_bound(trace_length: int, cs: ConstraintSystem) -> int:
    """Max quotient degree, rounded up so the FRI bound deg < d holds;
    at least 2, so FRI folds at least once and its layer 0 commits the
    composition."""
    degs = [trace_length - 1 - len(bcs)
            for bcs in cs.boundary_groups().values()]
    degs += [tc.degree * (trace_length - 1) - _transition_rows(cs, tc)
             for tc in cs.transitions]
    d = 2
    while d < max(degs) + 1:
        d *= 2
    return d


# ---------------------------------------------------------------------------
# zero-knowledge helpers

def zk_pad(trace: TraceTable, num_queries: int, rng_seed) -> TraceTable:
    """Append uniformly random noise rows (one per query), then re-pad."""
    rng = random.Random(rng_seed)
    p = trace.field.modulus
    rows = trace.original_length + num_queries
    zeros = [0] * (_padded_length(rows) - rows)
    cols = [list(col[:trace.original_length])
            + [rng.randrange(p) for _ in range(num_queries)] + zeros
            for col in trace.columns]
    return TraceTable(cols, trace.original_length, trace.field)


# ---------------------------------------------------------------------------
# trace commitment layout

def _rows_per_leaf(n: int) -> int:
    return min(TRACE_ROWS_PER_LEAF, n)


def _trace_leaves(table: np.ndarray, blowup: int) -> np.ndarray:
    """The trace tree's leaves, one row each, from the LDE table (one row
    per LDE index, one column per trace column): with n trace rows and
    R = _rows_per_leaf(n), leaf s*(n/R) + J holds LDE rows
    s + blowup*(R*J + t) for t < R, all columns of each row in order.
    Those are trace rows R*J .. R*J + R-1 at the coset shift s."""
    size, ncols = table.shape
    n = size // blowup
    rows_per_leaf = _rows_per_leaf(n)
    return (table.reshape(n, blowup, ncols).transpose(1, 0, 2)
            .reshape(size // rows_per_leaf, rows_per_leaf * ncols))


def _window_cells(positions, blowup: int, n: int, window: int):
    """(leaf, slot), two arrays of shape (len(positions), window): window
    row r of the query at LDE index positions[k] is slot slot[k, r] of
    trace leaf leaf[k, r] (_trace_leaves).  For a position s + blowup*j,
    window row r is trace row t = (j + r) mod n at the coset shift s,
    wrapping past the last row; that row is slot t mod R of leaf
    s*(n/R) + t div R, for R = _rows_per_leaf(n)."""
    rows_per_leaf = _rows_per_leaf(n)
    positions = np.asarray(positions, dtype=np.int64)[:, None]
    t = (positions // blowup + np.arange(window)) % n
    return (positions % blowup * (n // rows_per_leaf) + t // rows_per_leaf,
            t % rows_per_leaf)


# ---------------------------------------------------------------------------
# prover / verifier

def _header_bytes(n: int, cs: ConstraintSystem, params: StarkParams) -> bytes:
    """The transcript's first absorb: the trace shape, the parameters and
    the digest of the caller's own constraint system."""
    return (u32(n) + u32(cs.length) + u32(cs.num_columns)
            + u32(params.blowup) + u32(params.num_queries)
            + u8(1 if params.zk else 0) + cs.digest())


def prove(trace: TraceTable, cs: ConstraintSystem, params: StarkParams,
          zk_seed=None) -> StarkProof:
    """zk_pad the trace when params.zk, check it satisfies cs
    (check_satisfaction), then prove_table its values."""
    if params.zk:
        trace = zk_pad(trace, params.num_queries, zk_seed)
    return prove_table(check_satisfaction(trace, cs), trace.field, cs, params)


def prove_table(values: np.ndarray, field: Field, cs: ConstraintSystem,
                params: StarkParams) -> StarkProof:
    """Commit, draw gammas, compose, run FRI and open trace windows for
    values, a (column, row) uint64 array below p of trace_length(cs.length)
    rows.  Nothing checks it against cs: a false table proves a rational
    composition, which verify rejects."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.uint64
            and values.ndim == 2 and (values < field.modulus).all()):
        raise UsageError("trace table is not a 2-D uint64 array below p")
    ncols, n = values.shape
    fault = _shape_fault((ncols, cs.length, n), cs,
                         params.trace_length(cs.length))
    if fault:
        raise UsageError(fault)
    trace_domain = EvaluationDomain.subgroup(field, n)
    lde = params.lde_domain(field, n)

    t = Transcript("stark")
    t.absorb(b"header", _header_bytes(n, cs, params))

    lde_table = np.array([evaluate_on_domain(
        interpolate_on_domain(col, trace_domain), lde) for col in values])
    trace_tree = MerkleTree(_trace_leaves(lde_table.T, params.blowup))
    t.absorb(b"trace-root", trace_tree.root)

    gammas = _draw_gammas(cs, field, t)
    comp_evals = compose(lde,
                         _windows(lde_table, params.blowup, cs.max_window()),
                         cs, trace_domain, gammas)
    fri_params = fri.FriParams(lde, composition_degree_bound(n, cs),
                               params.num_queries)
    trees, layer = fri.commit_phase(comp_evals, fri_params, t)
    fri_proof = fri.query_phase(trees, t, fri_params, int(layer[0]))

    leaf, _ = _window_cells(fri_proof.queries, params.blowup, n,
                            cs.max_window())
    return StarkProof(n, cs.length, cs.num_columns,
                      params.blowup, params.num_queries, params.zk,
                      trace_tree.root, trace_tree.open(leaf), fri_proof)


def verify(proof: StarkProof, cs: ConstraintSystem, params: StarkParams,
           field: Field) -> VerifyResult:
    """Replay the transcript, check the FRI low-degree proof and every
    trace opening, then re-derive each query's constraint combination and
    compare it with the FRI layer-0 value.  The transcript starts from
    the verifier's own constraint system, so a proof of another statement
    draws other challenges and fails; a header of another trace shape
    fails before any work over its rows."""
    if ((proof.blowup, proof.num_queries, proof.zk)
            != (params.blowup, params.num_queries, params.zk)):
        return VerifyResult.reject("parameter mismatch")
    n = params.trace_length(cs.length)
    fault = _shape_fault((proof.num_columns, proof.original_length,
                          proof.trace_length), cs, n)
    if fault:
        return VerifyResult.reject(fault)
    trace_domain = EvaluationDomain.subgroup(field, n)
    lde = params.lde_domain(field, n)

    t = Transcript("stark")
    t.absorb(b"header", _header_bytes(n, cs, params))
    t.absorb(b"trace-root", proof.trace_root)

    gammas = _draw_gammas(cs, field, t)

    d = composition_degree_bound(n, cs)
    fri_params = fri.FriParams(lde, d, params.num_queries)
    fri_verdict = fri.verify(proof.fri_proof, fri_params, t)
    if not fri_verdict:
        return VerifyResult.reject(f"fri: {fri_verdict.reason}")

    w = cs.max_window()
    ncols = proof.num_columns
    rows_per_leaf = _rows_per_leaf(n)
    queries = proof.fri_proof.queries
    leaf, slot = _window_cells(queries, params.blowup, n, w)
    opened = index_set(leaf)
    fault = proof.trace_opening.fault(
        proof.trace_root, lde.size // rows_per_leaf, opened,
        rows_per_leaf * ncols, field.modulus)
    if fault:
        return VerifyResult.reject(f"trace: {fault}")

    # window[k, r, c]: column c at g^r x_k, x_k the k-th query point
    window = proof.trace_opening.rows.reshape(-1, rows_per_leaf, ncols)[
        np.searchsorted(opened, leaf), slot]
    xs = np.array([lde.point(q) for q in queries], dtype=np.uint64)
    combined = compose(xs, window.transpose(1, 2, 0), cs, trace_domain,
                       gammas)
    claimed = fri.queried_values(proof.fri_proof, fri_params)
    bad = np.flatnonzero(combined != claimed)
    if bad.size:
        return VerifyResult.reject(
            f"query {bad[0]}: constraint equation failure")
    return VerifyResult.accept()


# ---------------------------------------------------------------------------
# standalone 2POLY primitive

def probabilistic_poly_eq(f_evals, g_evals, t: Transcript,
                          num_queries: int) -> bool:
    """Accept iff the two evaluation tables agree at num_queries = k random
    indices; soundness error (d/|D|)^k for distinct degree-d polynomials."""
    if len(f_evals) != len(g_evals):
        raise UsageError("evaluation tables differ in length")
    n = len(f_evals)
    for _ in range(num_queries):
        i = t.challenge_index(n)
        if int(f_evals[i]) != int(g_evals[i]):
            return False
    return True

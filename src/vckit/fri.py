"""Fast Reed-Solomon IOP of Proximity: commit-phase folding plus the
query-phase consistency check.

Each round folds by 4.  Write f(x) = sum over r < 4 of x^r f_r(x^4); the
round draws one challenge beta and the next layer holds sum_r beta^r f_r
on the image of the layer's domain under x -> x^4.  When log2 of the
degree bound is odd, the last round folds by 2 (f_0 + beta f_1 on the
squared domain), so the final layer is always one constant.

A layer of m values is committed with one leaf per folding coset: leaf c
holds, as u64s, the values at indices c, c + m/4, c + m/2 and c + 3m/4,
the points x_c * {1, i, -1, -i} that fold to x_c^4 (two values, at
+-x_c, in a 2-fold round).  One authentication path covers a query's
whole coset.  Query positions are drawn from all of the first domain;
on each layer the verifier opens the coset holding the position, checks
that the position's slot equals the previous layer's fold, and folds.

One kernel, _fold, folds (alpha, -alpha) pairs; a coset of 4 takes two
of its calls, with beta and then beta^2 (_fold_cosets).  The prover folds
its whole layer at once, the verifier the opened cosets of all queries
at once, layer by layer.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from .encoding import (Reader, bytes_lp, read_magic, u8, u32, u64,
                       u64_rows)
from .errors import InternalError, UsageError, VerifyResult
from .field import (EvaluationDomain, FieldElement, _inverse_array,
                    _power_array)
from .merkle import AuthPath, MerkleTree, verify_path
from .transcript import HASH_ID, Transcript

PROOF_VERSION = 2
# Every proof starts with the magic and then the format version byte.
PROOF_MAGIC = b"VCKF" + u8(PROOF_VERSION)


@dataclass(frozen=True)
class FriParams:
    domain: EvaluationDomain
    degree_bound: int                 # asserts deg(f) < degree_bound
    num_queries: int

    def __post_init__(self):
        d, n = self.degree_bound, self.domain.size
        if d < 1 or d & (d - 1):
            raise UsageError("degree bound must be a power of two")
        if n % d != 0:
            raise UsageError("degree bound must divide the domain size")
        if d > n // 2:
            raise UsageError("rate must be at most 1/2")
        if self.num_queries < 1:
            raise UsageError("need at least one query")

    @property
    def arities(self) -> List[int]:
        """The folding factor of each round: 4, and 2 for the last round
        when log2 of the degree bound is odd."""
        log_d = self.degree_bound.bit_length() - 1
        return [4] * (log_d // 2) + [2] * (log_d % 2)

    def effective_queries(self) -> int:
        # positions are drawn without replacement from [0, |D|)
        return min(self.num_queries, self.domain.size)


@dataclass
class FriQueryLayer:
    values: List[int]   # the coset holding the position, in slot order
    path: AuthPath


@dataclass
class FriQuery:
    index: int                     # position in [0, |D|)
    layers: List[FriQueryLayer]


@dataclass
class FriProof:
    layer_roots: List[bytes]
    final_value: int
    queries: List[FriQuery]

    def serialize(self) -> bytes:
        out = [PROOF_MAGIC, u8(HASH_ID), u32(len(self.layer_roots))]
        out += self.layer_roots
        out.append(u64(self.final_value))
        out.append(u32(len(self.queries)))
        for q in self.queries:
            out.append(u32(q.index))
            out.append(u32(len(q.layers)))
            for ql in q.layers:
                out.append(u8(len(ql.values)))
                out += [u64(v) for v in ql.values]
                out.append(bytes_lp(ql.path.serialize()))
        return b"".join(out)

    @staticmethod
    def deserialize(data) -> "FriProof":
        """Decode a proof that fills all of data (bytes or a Reader).  An
        opened coset has 4 values, or 2 on a query's last layer."""
        reader = data if isinstance(data, Reader) else Reader(data)
        read_magic(reader, PROOF_MAGIC, "FRI")
        if reader.u8() != HASH_ID:
            raise UsageError("unsupported hash algorithm id")
        roots = [reader.take(32) for _ in range(reader.u32())]
        final_value = reader.u64()
        queries = []
        for _ in range(reader.u32()):
            idx = reader.u32()
            layers = []
            num_layers = reader.u32()
            for k in range(num_layers):
                width = reader.u8()
                if width != 4 and (width != 2 or k + 1 < num_layers):
                    raise UsageError(f"opened coset of width {width} on "
                                     f"layer {k}")
                values = list(reader.u64s(width))
                layers.append(FriQueryLayer(
                    values, AuthPath.from_bytes(reader.bytes_lp())))
            queries.append(FriQuery(idx, layers))
        reader.finish()
        return FriProof(roots, final_value, queries)


def _fold(a, b, alpha_inv, x0, p: int) -> np.ndarray:
    """(a+b)/2 + x0*(a-b)/(2 alpha) elementwise: the value at x0 of the
    line through (alpha, a) and (-alpha, b), from reduced uint64 arrays
    and 1/alpha."""
    mod = np.uint64(p)
    inv2 = np.uint64(pow(2, -1, p))
    even = ((a + b) % mod) * inv2 % mod
    odd = ((a + (mod - b)) % mod) * inv2 % mod * alpha_inv % mod
    return (even + odd * np.uint64(x0)) % mod


def _cosets(layer: np.ndarray, arity: int) -> np.ndarray:
    """The layer's folding cosets, one per row: row c holds the values at
    indices c, c + m/arity, ... of the m-value layer, at the points
    x_c w^s (w a primitive arity-th root of unity) that all map to
    x_c^arity.  Row c is Merkle leaf c."""
    return layer.reshape(arity, -1).T


def _fold_cosets(slots, x_inv, root_inv: int, beta: int,
                 p: int) -> np.ndarray:
    """Fold cosets of k = len(slots) points, k a power of two, given
    slot-major (the transpose of _cosets, so each slot is one contiguous
    row): slots[s][c] is f(x_c w^s) for a primitive k-th root of unity
    w, x_inv[c] is 1/x_c and root_inv 1/w.  Returns
    sum_r beta^r f_r(x_c^k) for each c.

    Each halving is one _fold: slots s and s + k/2 hold f at +-x_c w^s,
    and the result holds the next function at (x_c w^s)^2, whose cosets
    have half the points, the squared root and the squared challenge."""
    mod = np.uint64(p)
    while len(slots) > 1:
        h = len(slots) // 2
        alpha_inv = _power_array(root_inv, h, p)[:, None] * x_inv % mod
        slots = _fold(slots[:h], slots[h:], alpha_inv, beta, p)
        x_inv = x_inv * x_inv % mod
        root_inv = root_inv * root_inv % p
        beta = beta * beta % p
    return slots[0]


def _image(domain: EvaluationDomain, arity: int) -> EvaluationDomain:
    """The domain's image under x -> x^arity, arity a power of two."""
    while arity > 1:
        domain = domain.squared()
        arity //= 2
    return domain


def fold_layer(evals, domain: EvaluationDomain, beta,
               arity: int) -> np.ndarray:
    """One folding round: each coset of `arity` points (_cosets) folded
    with the challenge beta to one value at x_c^arity, index c of the
    image."""
    field = domain.field
    p = field.modulus
    if p == 2:
        raise UsageError("folding needs odd characteristic")
    evals = np.asarray(evals, dtype=np.uint64)
    if len(evals) != domain.size:
        raise UsageError("evaluation count does not match the domain")
    width = domain.size // arity
    g = domain.generator.value
    x_inv = (_power_array(pow(g, -1, p), width, p)
             * np.uint64(pow(domain.offset.value, -1, p)) % np.uint64(p))
    return _fold_cosets(_cosets(evals, arity).T, x_inv, pow(g, -width, p),
                        field(beta).value, p)


def commit_phase(evals, params: FriParams, t: Transcript,
                 enforce_low_degree: bool = True):
    """Commit each layer with one leaf per folding coset, draw the
    round's challenge from the transcript and fold, until the degree
    bound is used up.

    Returns (layers, trees, roots, final_value).  The final layer must be
    constant for an honest prover; enforce_low_degree=False lets a cheating
    prover continue for soundness experiments.
    """
    field = params.domain.field
    if not isinstance(evals, np.ndarray):
        evals = [v.value if isinstance(v, FieldElement) else int(v)
                 for v in evals]
    evals = np.asarray(evals, dtype=np.uint64)
    if len(evals) != params.domain.size:
        raise UsageError("evaluation count does not match the domain")
    layers = [evals]
    trees = []
    roots = []
    domain = params.domain
    for arity in params.arities:
        tree = MerkleTree(u64_rows(_cosets(layers[-1], arity)))
        trees.append(tree)
        roots.append(tree.root)
        t.absorb(b"fri-root", tree.root)
        beta = t.challenge_field(field)
        layers.append(fold_layer(layers[-1], domain, beta, arity))
        domain = _image(domain, arity)
    final_layer = layers[-1]
    if enforce_low_degree and len(set(int(v) for v in final_layer)) != 1:
        raise InternalError("final layer is not constant; input degree "
                            "exceeds the claimed bound")
    final_value = int(final_layer[0])
    t.absorb(b"fri-final", u64(final_value))
    return layers, trees, roots, final_value


def _draw_positions(t: Transcript, params: FriParams) -> List[int]:
    size = params.domain.size
    positions = []
    while len(positions) < params.effective_queries():
        pos = t.challenge_index(size)
        if pos not in positions:
            positions.append(pos)
    return positions


def query_phase(layers, trees, t: Transcript, params: FriParams,
                roots, final_value) -> FriProof:
    """Open, on every layer, the coset holding each query position."""
    queries = []
    for pos in _draw_positions(t, params):
        bundle = []
        c = pos
        for layer, tree, arity in zip(layers, trees, params.arities):
            c %= len(layer) // arity
            bundle.append(FriQueryLayer(_cosets(layer, arity)[c].tolist(),
                                        tree.open(c)))
        queries.append(FriQuery(pos, bundle))
    return FriProof(list(roots), final_value, queries)


def prove(evals, params: FriParams, t: Transcript,
          enforce_low_degree: bool = True) -> FriProof:
    layers, trees, roots, final_value = commit_phase(
        evals, params, t, enforce_low_degree)
    return query_phase(layers, trees, t, params, roots, final_value)


def verify(proof: FriProof, params: FriParams, t: Transcript) -> VerifyResult:
    """Replay the transcript, re-draw challenges and query positions, then
    check every query layer by layer down to the final constant: opened
    cosets of the round's width, values canonical, coset paths valid, the
    slot at each position equal to the previous layer's fold; then the
    cosets of all queries are folded in one call."""
    field = params.domain.field
    p = field.modulus
    arities = params.arities
    if len(proof.layer_roots) != len(arities):
        return VerifyResult.reject("wrong number of layer roots")
    if proof.final_value >= p:
        return VerifyResult.reject("non-canonical final value")
    challenges = []
    for root in proof.layer_roots:
        t.absorb(b"fri-root", root)
        challenges.append(t.challenge_field(field).value)
    t.absorb(b"fri-final", u64(proof.final_value))
    positions = _draw_positions(t, params)
    if [q.index for q in proof.queries] != positions:
        return VerifyResult.reject("query indices diverge from transcript")
    if any(len(q.layers) != len(arities) for q in proof.queries):
        return VerifyResult.reject("malformed query bundle")
    domain = params.domain
    folded = None
    for j, (root, beta, arity) in enumerate(zip(proof.layer_roots,
                                                challenges, arities)):
        opened = [q.layers[j] for q in proof.queries]
        if any(len(ql.values) != arity for ql in opened):
            return VerifyResult.reject(f"layer {j}: wrong coset width")
        if any(v >= p for ql in opened for v in ql.values):
            return VerifyResult.reject(f"layer {j}: non-canonical value")
        width = domain.size // arity
        cosets = [pos % width for pos in positions]
        values = np.array([ql.values for ql in opened], dtype=np.uint64)
        if not all(verify_path(root, c, leaf, ql.path) for c, leaf, ql
                   in zip(cosets, u64_rows(values), opened)):
            return VerifyResult.reject(f"layer {j}: bad opening")
        slots = [pos // width for pos in positions]
        here = values[np.arange(len(positions)), slots]
        if folded is not None and (here != folded).any():
            return VerifyResult.reject(f"layer {j}: consistency failure")
        g = domain.generator.value
        xs = np.array([domain.offset.value * pow(g, c, p) % p
                       for c in cosets], dtype=np.uint64)
        folded = _fold_cosets(values.T, _inverse_array(xs, p),
                              pow(g, -width, p), beta, p)
        positions = cosets
        domain = _image(domain, arity)
    # with zero rounds layer 0 is already the constant
    if folded is not None and (folded != proof.final_value).any():
        return VerifyResult.reject("final value mismatch")
    return VerifyResult.accept()


def queried_values(proof: FriProof, params: FriParams) -> List[int]:
    """f at each query position, read from its opened layer-0 coset.  For
    a proof verify accepted with at least one folding round."""
    width = params.domain.size // params.arities[0]
    return [q.layers[0].values[q.index // width] for q in proof.queries]

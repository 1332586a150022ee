"""Fast Reed-Solomon IOP of Proximity: commit-phase folding plus the
query-phase consistency check.

Each round folds by 8.  Write f(x) = sum over r < 8 of x^r f_r(x^8); the
round draws one challenge beta and the next layer holds sum_r beta^r f_r
on the image of the layer's domain under x -> x^8.  When log2 of the
degree bound is not a multiple of 3, the last round folds by 2 or 4
(sum over r < k of beta^r f_r on the image under x -> x^k), so the final
layer is always one constant.

A layer of m values is committed with one leaf per folding coset: leaf c
holds, as u64s, the 8 values at indices c + s m/8 for s < 8, the points
x_c w^s (w a primitive 8th root of unity) that fold to x_c^8 (2 or 4
values in a last round of 2 or 4).  Query positions are drawn from all
of the first domain; a position pos lies in slot pos div (m/arity) of
leaf pos % (m/arity) of each layer.  Each layer opens the index_set of
its queries' leaves with one Merkle opening.  The verifier checks that
each position's slot equals the previous layer's fold, and folds.  A
proof is format version 4 (VCKF 4).

One kernel, _fold, folds (alpha, -alpha) pairs; a coset of 8 takes three
of its calls, with beta, beta^2 and beta^4 (_fold_cosets).  The prover
folds its whole layer at once, the verifier the opened cosets of all
queries at once, layer by layer.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from .encoding import HASH_ID, Reader, read_magic, u8, u32, u64
from .errors import InternalError, UsageError, VerifyResult
from .field import EvaluationDomain, _power_array, _reduce, _reduce_sum
from .merkle import MerkleTree, Opening, index_set
from .transcript import Transcript

PROOF_VERSION = 4
# Every proof starts with the magic and then the format version byte.
PROOF_MAGIC = b"VCKF" + u8(PROOF_VERSION)


@dataclass(frozen=True)
class FriParams:
    domain: EvaluationDomain
    degree_bound: int                 # asserts deg(f) < degree_bound
    num_queries: int

    def __post_init__(self):
        d, n = self.degree_bound, self.domain.size
        # a bound of 1 would fold no round and commit to nothing
        if d < 2 or d & (d - 1):
            raise UsageError("degree bound must be a power of two, at least 2")
        if n % d != 0:
            raise UsageError("degree bound must divide the domain size")
        if d > n // 2:
            raise UsageError("rate must be at most 1/2")
        if self.num_queries < 1:
            raise UsageError("need at least one query")

    @property
    def arities(self) -> List[int]:
        """The folding factor of each round: 8, and 2 or 4 for the last
        round when log2 of the degree bound leaves 1 or 2 mod 3."""
        rounds, rest = divmod(self.degree_bound.bit_length() - 1, 3)
        return [8] * rounds + ([2 ** rest] if rest else [])

    def effective_queries(self) -> int:
        # positions are drawn without replacement from [0, |D|)
        return min(self.num_queries, self.domain.size)


@dataclass
class FriProof:
    layer_roots: List[bytes]
    final_value: int
    queries: List[int]             # positions in [0, |D|)
    # per folding round, the cosets the query positions hold
    layers: List[Opening]

    def serialize(self) -> bytes:
        out = [PROOF_MAGIC, u8(HASH_ID), u32(len(self.layer_roots))]
        out += self.layer_roots
        out.append(u64(self.final_value))
        out.append(u32(len(self.queries)))
        out += [u32(q) for q in self.queries]
        for opening in self.layers:
            out.append(u8(opening.rows.shape[1]))
            out.append(opening.serialize())
        return b"".join(out)

    @staticmethod
    def deserialize(data) -> "FriProof":
        """Decode a proof that fills all of data (bytes or a Reader): one
        opening per layer root, of cosets of 8 values, or of 2, 4 or 8 on
        the last layer."""
        reader = data if isinstance(data, Reader) else Reader(data)
        read_magic(reader, PROOF_MAGIC, "FRI")
        roots = [reader.take(32) for _ in range(reader.u32())]
        final_value = reader.u64()
        queries = [reader.u32() for _ in range(reader.u32())]
        layers = []
        for k in range(len(roots)):
            width = reader.u8()
            if width != 8 and (width not in (2, 4) or k + 1 < len(roots)):
                raise UsageError(f"opened coset of width {width} on "
                                 f"layer {k}")
            layers.append(Opening.deserialize(reader, width))
        reader.finish()
        return FriProof(roots, final_value, queries, layers)


def _fold(a, b, alpha_inv, x0, p: int) -> np.ndarray:
    """((a+b) + x0*(a-b)/alpha)/2 elementwise: the value at x0 of the
    line through (alpha, a) and (-alpha, b), from reduced uint64 arrays
    and 1/alpha, in three multiplications."""
    mod = np.uint64(p)
    diff = _reduce(_reduce_sum(a + (mod - b), mod) * alpha_inv, mod)
    both = _reduce(_reduce_sum(a + b, mod) + diff * np.uint64(x0), mod)
    return _reduce(both * np.uint64(pow(2, -1, p)), mod)


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
        alpha_inv = _reduce(_power_array(root_inv, h, p)[:, None] * x_inv,
                            mod)
        slots = _fold(slots[:h], slots[h:], alpha_inv, beta, p)
        x_inv = _reduce(x_inv * x_inv, mod)
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
    x_inv = _reduce(_power_array(pow(g, -1, p), width, p)
                    * np.uint64(pow(domain.offset.value, -1, p)),
                    np.uint64(p))
    return _fold_cosets(_cosets(evals, arity).T, x_inv, pow(g, -width, p),
                        field(beta).value, p)


def commit_phase(evals, params: FriParams, t: Transcript,
                 enforce_low_degree: bool = True):
    """Commit each layer with one leaf per folding coset, draw the
    round's challenge from the transcript and fold, until the degree
    bound is used up.

    Returns (trees, final_value): tree j commits layer j's cosets.  The
    final layer must be constant for an honest prover;
    enforce_low_degree=False lets a cheating prover continue for
    soundness experiments.
    """
    field = params.domain.field
    layer = np.asarray(evals, dtype=np.uint64)
    if len(layer) != params.domain.size:
        raise UsageError("evaluation count does not match the domain")
    trees = []
    domain = params.domain
    for arity in params.arities:
        tree = MerkleTree(_cosets(layer, arity))
        trees.append(tree)
        t.absorb(b"fri-root", tree.root)
        beta = t.challenge_field(field)
        layer = fold_layer(layer, domain, beta, arity)
        domain = _image(domain, arity)
    if enforce_low_degree and len(set(int(v) for v in layer)) != 1:
        raise InternalError("final layer is not constant; input degree "
                            "exceeds the claimed bound")
    final_value = int(layer[0])
    t.absorb(b"fri-final", u64(final_value))
    return trees, final_value


def _draw_positions(t: Transcript, params: FriParams) -> List[int]:
    size = params.domain.size
    positions = []
    while len(positions) < params.effective_queries():
        pos = t.challenge_index(size)
        if pos not in positions:
            positions.append(pos)
    return positions


def query_phase(trees, t: Transcript, params: FriParams,
                final_value) -> FriProof:
    """Open, on every layer, the distinct cosets holding the query
    positions."""
    positions = _draw_positions(t, params)
    return FriProof([tree.root for tree in trees], final_value, positions,
                    [tree.open([pos % tree.num_leaves for pos in positions])
                     for tree in trees])


def prove(evals, params: FriParams, t: Transcript,
          enforce_low_degree: bool = True) -> FriProof:
    trees, final_value = commit_phase(evals, params, t, enforce_low_degree)
    return query_phase(trees, t, params, final_value)


def verify(proof: FriProof, params: FriParams, t: Transcript) -> VerifyResult:
    """Replay the transcript, re-draw challenges and query positions, then
    check the layers in turn down to the final constant: each layer's
    opening holds the distinct cosets of the positions, of the round's
    width, canonical, under the layer root; the slot at each position
    equals the previous layer's fold; then the cosets are folded."""
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
    if proof.queries != positions:
        return VerifyResult.reject("query indices diverge from transcript")
    if len(proof.layers) != len(arities):
        return VerifyResult.reject("wrong number of layer openings")
    positions = np.array(positions, dtype=np.int64)
    domain = params.domain
    for j, (root, beta, arity, opening) in enumerate(zip(
            proof.layer_roots, challenges, arities, proof.layers)):
        width = domain.size // arity
        cosets = positions % width
        opened = index_set(cosets)
        fault = opening.fault(root, width, opened, arity, p)
        if fault:
            return VerifyResult.reject(f"layer {j}: {fault}")
        # row index[k] of the opening is the coset of position k
        index = np.searchsorted(opened, cosets)
        here = opening.rows[index, positions // width]
        if j and (here != folded).any():
            return VerifyResult.reject(f"layer {j}: consistency failure")
        # 1/x_c = offset^-1 * (g^-1)^c, with no inversion per coset
        g_inv = pow(domain.generator.value, -1, p)
        offset_inv = pow(domain.offset.value, -1, p)
        x_inv = np.array([offset_inv * pow(g_inv, c, p) % p
                          for c in opened], dtype=np.uint64)
        folded = _fold_cosets(opening.rows.T, x_inv, pow(g_inv, width, p),
                              beta, p)[index]
        positions = cosets
        domain = _image(domain, arity)
    if (folded != proof.final_value).any():
        return VerifyResult.reject("final value mismatch")
    return VerifyResult.accept()


def queried_values(proof: FriProof, params: FriParams) -> np.ndarray:
    """f at each query position, read from its opened layer-0 coset.  For
    a proof verify accepted."""
    width = params.domain.size // params.arities[0]
    positions = np.array(proof.queries, dtype=np.int64)
    cosets = positions % width
    return proof.layers[0].rows[np.searchsorted(index_set(cosets), cosets),
                                positions // width]

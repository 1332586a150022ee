"""Fast Reed-Solomon IOP of Proximity: commit-phase folding plus the
query-phase consistency check.

Layer i lives on the 2^i-fold squared image of the starting domain.  Each
layer's evaluations are committed with a paired-leaf Merkle layout: the
values at alpha and -alpha (indices j and j + size/2) sit in adjacent
leaves, so a single authentication path covers both.

One kernel, _fold, folds (alpha, -alpha) pairs: the prover's whole layer
at once, and the verifier's opened pairs of all queries at once, layer
by layer.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from .encoding import Reader, bytes_lp, u8, u32, u64, u64_rows
from .errors import InternalError, UsageError, VerifyResult
from .field import (EvaluationDomain, FieldElement, _inverse_array,
                    _power_array)
from .merkle import AuthPath, MerkleTree, leaf_hash, verify_path
from .transcript import HASH_ID, Transcript

PROOF_MAGIC = b"VCKF"


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
    def rounds(self) -> int:
        return self.degree_bound.bit_length() - 1

    def effective_queries(self) -> int:
        # queries are drawn without replacement from [0, |D|/2)
        return min(self.num_queries, self.domain.size // 2)


@dataclass
class FriQueryLayer:
    value: int        # f(alpha)
    value_neg: int    # f(-alpha)
    path: AuthPath


@dataclass
class FriQuery:
    index: int                     # base index in [0, |D|/2)
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
                out.append(u64(ql.value))
                out.append(u64(ql.value_neg))
                out.append(bytes_lp(ql.path.serialize()))
        return b"".join(out)

    @staticmethod
    def deserialize(data) -> "FriProof":
        """Decode a proof that fills all of data (bytes or a Reader)."""
        reader = data if isinstance(data, Reader) else Reader(data)
        if reader.take(4) != PROOF_MAGIC:
            raise UsageError("not a FRI proof")
        if reader.u8() != HASH_ID:
            raise UsageError("unsupported hash algorithm id")
        roots = [reader.take(32) for _ in range(reader.u32())]
        final_value = reader.u64()
        queries = []
        for _ in range(reader.u32()):
            idx = reader.u32()
            layers = []
            for _ in range(reader.u32()):
                v = reader.u64()
                vn = reader.u64()
                layers.append(FriQueryLayer(
                    v, vn, AuthPath.from_bytes(reader.bytes_lp())))
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


def fold_layer(evals, domain: EvaluationDomain, x0) -> np.ndarray:
    """One folding round: _fold over each pair (alpha, -alpha), which sit
    in the two halves of the layer."""
    field = domain.field
    p = field.modulus
    if p == 2:
        raise UsageError("folding needs odd characteristic")
    evals = np.asarray(evals, dtype=np.uint64)
    if len(evals) != domain.size:
        raise UsageError("evaluation count does not match the domain")
    h = domain.size // 2
    mod = np.uint64(p)
    alpha_inv = (_power_array(pow(domain.generator.value, -1, p), h, p)
                 * np.uint64(pow(domain.offset.value, -1, p)) % mod)
    return _fold(evals[:h], evals[h:], alpha_inv, field(x0).value, p)


def pair_tree(evals) -> MerkleTree:
    """Commit a layer with each (alpha, -alpha) pair in adjacent leaves."""
    evals = np.asarray(evals, dtype=np.uint64)
    h = len(evals) // 2
    return MerkleTree(u64_rows(
        np.stack([evals[:h], evals[h:2 * h]], axis=1).reshape(-1, 1)))


def open_pair(tree: MerkleTree, j: int) -> AuthPath:
    """Path for the pair (j, j + half); authenticates both values."""
    return tree.open(2 * j)


def verify_pair(root: bytes, j: int, value: int, value_neg: int,
                path: AuthPath) -> bool:
    if not path.siblings:
        return False
    if path.siblings[0] != leaf_hash(u64(value_neg)):
        return False
    return verify_path(root, 2 * j, u64(value), path)


def commit_phase(evals, params: FriParams, t: Transcript,
                 enforce_low_degree: bool = True):
    """Fold log2(d) times, committing each layer and drawing the next
    challenge from the transcript.

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
    for _ in range(params.rounds):
        tree = pair_tree(layers[-1])
        trees.append(tree)
        roots.append(tree.root)
        t.absorb(b"fri-root", tree.root)
        x_i = t.challenge_field(field)
        layers.append(fold_layer(layers[-1], domain, x_i))
        domain = domain.squared()
    final_layer = layers[-1]
    if enforce_low_degree and len(set(int(v) for v in final_layer)) != 1:
        raise InternalError("final layer is not constant; input degree "
                            "exceeds the claimed bound")
    final_value = int(final_layer[0])
    t.absorb(b"fri-final", u64(final_value))
    return layers, trees, roots, final_value


def _draw_indices(t: Transcript, params: FriParams) -> List[int]:
    h0 = params.domain.size // 2
    indices = []
    while len(indices) < params.effective_queries():
        idx = t.challenge_index(h0)
        if idx not in indices:
            indices.append(idx)
    return indices


def query_phase(layers, trees, t: Transcript, params: FriParams,
                roots, final_value) -> FriProof:
    """Open the (alpha, -alpha) pair on every layer for each query index."""
    queries = []
    for idx in _draw_indices(t, params):
        bundle = []
        cur = idx
        size = params.domain.size
        for j in range(params.rounds):
            h = size // 2
            b = cur % h
            bundle.append(FriQueryLayer(int(layers[j][b]),
                                        int(layers[j][b + h]),
                                        open_pair(trees[j], b)))
            cur = b
            size = h
        queries.append(FriQuery(idx, bundle))
    return FriProof(list(roots), final_value, queries)


def prove(evals, params: FriParams, t: Transcript,
          enforce_low_degree: bool = True) -> FriProof:
    layers, trees, roots, final_value = commit_phase(
        evals, params, t, enforce_low_degree)
    return query_phase(layers, trees, t, params, roots, final_value)


def verify(proof: FriProof, params: FriParams, t: Transcript) -> VerifyResult:
    """Replay the transcript, re-draw challenges and query indices, then
    check every query layer by layer down to the final constant: opened
    values canonical, pair paths valid, opened values equal to the
    previous layer's folds, which are then folded in one call."""
    field = params.domain.field
    p = field.modulus
    if len(proof.layer_roots) != params.rounds:
        return VerifyResult.reject("wrong number of layer roots")
    if proof.final_value >= p:
        return VerifyResult.reject("non-canonical final value")
    challenges = []
    for root in proof.layer_roots:
        t.absorb(b"fri-root", root)
        challenges.append(t.challenge_field(field))
    t.absorb(b"fri-final", u64(proof.final_value))
    indices = _draw_indices(t, params)
    if [q.index for q in proof.queries] != indices:
        return VerifyResult.reject("query indices diverge from transcript")
    if any(len(q.layers) != params.rounds for q in proof.queries):
        return VerifyResult.reject("malformed query bundle")
    domain = params.domain
    folded = None
    for j, (root, x0) in enumerate(zip(proof.layer_roots, challenges)):
        opened = [q.layers[j] for q in proof.queries]
        if any(ql.value >= p or ql.value_neg >= p for ql in opened):
            return VerifyResult.reject(f"layer {j}: non-canonical value")
        h = domain.size // 2
        base = [i % h for i in indices]
        if not all(verify_pair(root, i, ql.value, ql.value_neg, ql.path)
                   for i, ql in zip(base, opened)):
            return VerifyResult.reject(f"layer {j}: bad opening")
        values = np.array([ql.value for ql in opened], dtype=np.uint64)
        negs = np.array([ql.value_neg for ql in opened], dtype=np.uint64)
        here = np.where(np.array(indices) < h, values, negs)
        if folded is not None and (here != folded).any():
            return VerifyResult.reject(f"layer {j}: consistency failure")
        alpha = np.array([domain.offset.value
                          * pow(domain.generator.value, i, p) % p
                          for i in base], dtype=np.uint64)
        folded = _fold(values, negs, _inverse_array(alpha, p), x0.value, p)
        indices = base
        domain = domain.squared()
    # with zero rounds layer 0 is already the constant
    if folded is not None and (folded != proof.final_value).any():
        return VerifyResult.reject("final value mismatch")
    return VerifyResult.accept()

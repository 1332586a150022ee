"""Fast Reed-Solomon IOP of Proximity: commit-phase folding plus the
query-phase consistency check.

Layer i lives on the 2^i-fold squared image of the starting domain.  Each
layer's evaluations are committed with a paired-leaf Merkle layout: the
values at alpha and -alpha (indices j and j + size/2) sit in adjacent
leaves, so a single authentication path covers both.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from .encoding import Reader, bytes_lp, u8, u32, u64
from .errors import InternalError, UsageError, VerifyResult
from .field import EvaluationDomain, FieldElement, _power_array
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

    @property
    def rate(self) -> float:
        return self.degree_bound / self.domain.size

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


def fold_layer(evals, domain: EvaluationDomain, x0) -> np.ndarray:
    """One folding round in closed form.

    For each y = alpha^2: (f(a)+f(-a))/2 + x0*(f(a)-f(-a))/(2a), the value
    at x0 of the line through (a, f(a)) and (-a, f(-a)).
    """
    field = domain.field
    p = field.modulus
    if p == 2:
        raise UsageError("folding needs odd characteristic")
    evals = np.asarray(evals, dtype=np.uint64)
    if len(evals) != domain.size:
        raise UsageError("evaluation count does not match the domain")
    h = domain.size // 2
    mod = np.uint64(p)
    a = evals[:h]
    b = evals[h:]
    inv2 = np.uint64(pow(2, -1, p))
    x0v = np.uint64(field(x0).value)
    alpha_inv = (_power_array(pow(domain.generator.value, -1, p), h, p)
                 * np.uint64(pow(domain.offset.value, -1, p)) % mod)
    even = ((a + b) % mod) * inv2 % mod
    odd = ((a + (mod - b)) % mod) * inv2 % mod * alpha_inv % mod
    return (even + odd * x0v) % mod


def _pair_leaves(evals) -> list:
    """Interleave (alpha, -alpha) partners into adjacent leaves."""
    evals = np.asarray(evals, dtype=np.uint64)
    h = len(evals) // 2
    raw = np.stack([evals[:h], evals[h:2 * h]], axis=1).astype(">u8").tobytes()
    return np.frombuffer(raw, dtype="V8").tolist()


def pair_tree(evals) -> MerkleTree:
    return MerkleTree(_pair_leaves(evals))


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
    """Replay the transcript, re-draw challenges and query indices, and run
    the per-layer consistency checks down to the final constant."""
    field = params.domain.field
    if len(proof.layer_roots) != params.rounds:
        return VerifyResult.reject("wrong number of layer roots")
    if proof.final_value >= field.modulus:
        return VerifyResult.reject("non-canonical final value")
    challenges = []
    for root in proof.layer_roots:
        t.absorb(b"fri-root", root)
        challenges.append(t.challenge_field(field))
    t.absorb(b"fri-final", u64(proof.final_value))
    expected_indices = _draw_indices(t, params)
    if [q.index for q in proof.queries] != expected_indices:
        return VerifyResult.reject("query indices diverge from transcript")
    for q in proof.queries:
        if len(q.layers) != params.rounds:
            return VerifyResult.reject("malformed query bundle")
        cur = q.index
        size = params.domain.size
        offset = params.domain.offset
        gen = params.domain.generator
        prev_fold = None
        for j, ql in enumerate(q.layers):
            h = size // 2
            b = cur % h
            if ql.value >= field.modulus or ql.value_neg >= field.modulus:
                return VerifyResult.reject(f"layer {j}: non-canonical value")
            if not verify_pair(proof.layer_roots[j], b, ql.value,
                               ql.value_neg, ql.path):
                return VerifyResult.reject(f"layer {j}: bad opening")
            here = ql.value if cur < h else ql.value_neg
            if prev_fold is not None and here != prev_fold.value:
                return VerifyResult.reject(f"layer {j}: consistency failure")
            alpha = offset * gen ** b
            va = FieldElement(field, ql.value)
            vb = FieldElement(field, ql.value_neg)
            half = (va + vb) / 2
            slope = (va - vb) / (2 * alpha)
            prev_fold = half + challenges[j] * slope
            cur = b
            size = h
            offset = offset * offset
            gen = gen * gen
        if prev_fold is None:
            # zero rounds: layer 0 is already the constant
            continue
        if prev_fold.value != proof.final_value:
            return VerifyResult.reject("final value mismatch")
    return VerifyResult.accept()

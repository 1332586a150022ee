"""Binary Merkle-tree vector commitments with pruned multiproofs.

A tree commits the rows of a 2-D uint64 array, one leaf per row: the leaf
is the u64 encodings of the row's values, concatenated.  Leaf and node
hashes are domain-separated (0x00 / 0x01 prefixes); a tree has 2^k >= 2
leaves, so no padding can give two leaf vectors one root.  Every hash
starts from a copy of a SHA-256 state already fed its prefix, so the tree
build hashes each level in one loop with no per-hash function call or
concatenation.

An Opening is the one type a tree opens to: the rows of its index_set,
the distinct leaf indices ascending, so a value is read as
rows[searchsorted(index_set, leaf), slot], and the siblings that
authenticate them all.  The siblings run level by level from the leaves
up, those the verifier cannot compute from the leaves and the nodes
below, each level in ascending index order.  Queries that share a
subtree share its upper siblings, which are sent and hashed once.  A
single leaf is the one-element set.
"""

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .encoding import Reader, u32, u64_rows
from .errors import UsageError


# Never updated after creation, only copied, so safe to share across threads.
_LEAF_STATE = hashlib.sha256(b"\x00")
_NODE_STATE = hashlib.sha256(b"\x01")


def leaf_hash(data: bytes) -> bytes:
    h = _LEAF_STATE.copy()
    h.update(data)
    return h.digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    h = _NODE_STATE.copy()
    h.update(left)
    h.update(right)
    return h.digest()


def index_set(leaves) -> List[int]:
    """The distinct indices among leaves (ints, or an integer array of any
    shape) in ascending order: the leaves an opening sends, each once.
    (Sorted in Python: there are at most a few dozen, and a first
    np.unique call maps some 1.7 MiB of numpy's sort code.)"""
    if isinstance(leaves, np.ndarray):
        leaves = leaves.ravel().tolist()
    return sorted(set(leaves))


class MerkleTree:
    """Immutable commitment to the rows of a 2-D uint64 array, one leaf
    per row, which it keeps to open; reads are freely concurrent."""

    def __init__(self, rows: np.ndarray):
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2
                and rows.dtype == np.uint64):
            raise UsageError("a Merkle tree commits a 2-D uint64 array")
        n = len(rows)
        if n < 2 or n & (n - 1):
            raise UsageError(f"a Merkle tree needs 2^k >= 2 leaves, not {n}")
        self.rows = rows
        self.num_leaves = n
        # leaf_hash and node_hash, inlined: one loop per level
        copy = _LEAF_STATE.copy
        level = []
        for leaf in u64_rows(rows):
            h = copy()
            h.update(leaf)
            level.append(h.digest())
        self.levels = [level]
        copy = _NODE_STATE.copy
        while len(level) > 1:
            pairs = iter(level)
            level = []
            for left, right in zip(pairs, pairs):
                h = copy()
                h.update(left)
                h.update(right)
                level.append(h.digest())
            self.levels.append(level)
        self.root = level[0]

    def open(self, leaves) -> "Opening":
        """The Opening of a non-empty set of leaf indices: ints, a list
        with repeats, or an integer array of any shape."""
        known = index_set(leaves)
        if not known or known[0] < 0 or known[-1] >= self.num_leaves:
            raise UsageError(f"leaf indices must be a non-empty subset of "
                             f"range({self.num_leaves})")
        rows = self.rows[known]
        siblings = []
        for level in self.levels[:-1]:
            held = set(known)
            siblings += [level[i ^ 1] for i in known if i ^ 1 not in held]
            known = list(dict.fromkeys(i >> 1 for i in known))
        return Opening(rows, siblings)


def verify_path(root: bytes, num_leaves: int, leaves: Dict[int, bytes],
                siblings: List[bytes]) -> bool:
    """Whether leaves, a map from leaf index to leaf bytes, sit at those
    indices of the tree of num_leaves leaves with this root, given the
    siblings of an Opening.  The tree's depth comes from num_leaves, never
    from the siblings; siblings that run out or are left over fail."""
    if (num_leaves < 2 or num_leaves & (num_leaves - 1) or not leaves
            or min(leaves) < 0 or max(leaves) >= num_leaves):
        return False
    # each level's nodes by index, ascending, the order siblings come in
    nodes = {i: leaf_hash(leaves[i]) for i in index_set(leaves)}
    siblings = iter(siblings)
    try:
        for _ in range(num_leaves.bit_length() - 1):
            parents = {}
            for i, node in nodes.items():
                if i & 1 == 0:
                    right = nodes.get(i + 1) or next(siblings)
                    parents[i >> 1] = node_hash(node, right)
                elif i - 1 not in nodes:
                    parents[i >> 1] = node_hash(next(siblings), node)
            nodes = parents
    except StopIteration:
        return False
    return next(siblings, None) is None and nodes[0] == root


@dataclass
class Opening:
    """A tree's opened leaves, each a row of u64 values, rows[k] the leaf
    at index_set[k], and the siblings that authenticate them all."""

    rows: np.ndarray      # uint64, one row per opened leaf
    siblings: List[bytes]

    def __eq__(self, other):
        return (isinstance(other, Opening)
                and np.array_equal(self.rows, other.rows)
                and self.siblings == other.siblings)

    def serialize(self) -> bytes:
        return (u32(len(self.rows)) + self.rows.astype(">u8").tobytes()
                + u32(len(self.siblings)) + b"".join(self.siblings))

    @staticmethod
    def deserialize(reader: Reader, width: int) -> "Opening":
        """Decode an opening of leaves of `width` values each."""
        rows = reader.u64_matrix(reader.u32(), width)
        raw = reader.take(32 * reader.u32())
        return Opening(rows, [raw[k:k + 32] for k in range(0, len(raw), 32)])

    def fault(self, root: bytes, num_leaves: int, indices: List[int],
              width: int, p: int) -> Optional[str]:
        """Why the rows are not the leaves at `indices` (an index_set) of
        the tree of num_leaves leaves with this root, each of `width`
        values below p; None when they are."""
        if len(self.rows) != len(indices):
            return "wrong leaf count"
        if self.rows.ndim != 2 or self.rows.shape[1] != width:
            return "wrong leaf width"
        if (self.rows >= np.uint64(p)).any():
            return "non-canonical value"
        if not verify_path(root, num_leaves,
                           dict(zip(indices, u64_rows(self.rows))),
                           self.siblings):
            return "bad opening"
        return None

"""Binary Merkle-tree vector commitments with authentication paths.

Leaf and node hashes are domain-separated (0x00 / 0x01 prefixes); a tree
has 2^k >= 2 leaves, so no padding can give two leaf vectors one root.
Every hash starts from a copy of a SHA-256 state already fed its prefix, so
the tree build hashes each level in one loop with no per-hash function call
or concatenation.
"""

import hashlib
from dataclasses import dataclass
from typing import List

from .encoding import Reader, u8, u32
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


@dataclass
class AuthPath:
    """Sibling hashes from leaf to root."""

    leaf_index: int
    siblings: List[bytes]

    def serialize(self) -> bytes:
        return (u32(self.leaf_index) + u8(len(self.siblings))
                + b"".join(self.siblings))

    @staticmethod
    def deserialize(reader: Reader) -> "AuthPath":
        idx = reader.u32()
        n = reader.u8()
        raw = reader.take(32 * n)
        return AuthPath(idx, [raw[k:k + 32] for k in range(0, len(raw), 32)])

    @staticmethod
    def from_bytes(data: bytes) -> "AuthPath":
        """Decode a path that must fill the whole byte string."""
        reader = Reader(data)
        path = AuthPath.deserialize(reader)
        reader.finish()
        return path


class MerkleTree:
    """Immutable commitment to a leaf vector; reads are freely concurrent."""

    def __init__(self, leaves):
        leaves = list(leaves)
        n = len(leaves)
        if n < 2 or n & (n - 1):
            raise UsageError(f"a Merkle tree needs 2^k >= 2 leaves, not {n}")
        self.num_leaves = n
        # leaf_hash and node_hash, inlined: one loop per level
        copy = _LEAF_STATE.copy
        level = []
        for leaf in leaves:
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

    def open(self, index: int) -> AuthPath:
        if not 0 <= index < self.num_leaves:
            raise UsageError(f"leaf index {index} out of range")
        siblings = []
        i = index
        for level in self.levels[:-1]:
            siblings.append(level[i ^ 1])
            i //= 2
        return AuthPath(index, siblings)


def verify_path(root: bytes, index: int, leaf: bytes, path: AuthPath) -> bool:
    if index != path.leaf_index or index < 0:
        return False
    node = leaf_hash(leaf)
    i = index
    for sib in path.siblings:
        node = node_hash(node, sib) if i % 2 == 0 else node_hash(sib, node)
        i //= 2
    return i == 0 and node == root

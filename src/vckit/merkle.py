"""Binary Merkle-tree vector commitments with authentication paths.

Leaf and node hashes are domain-separated (0x00 / 0x01 prefixes); odd leaf
counts are padded by duplicating the final leaf.
"""

import hashlib
from dataclasses import dataclass
from typing import List

from .encoding import Reader, u8, u32
from .errors import UsageError


def leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


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
        return AuthPath(idx, [reader.take(32) for _ in range(n)])

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
        if not leaves:
            raise UsageError("a Merkle tree needs at least one leaf")
        self.num_leaves = len(leaves)
        padded = 1
        while padded < len(leaves):
            padded *= 2
        leaves = leaves + [leaves[-1]] * (padded - len(leaves))
        if len(leaves) == 1:
            leaves = leaves * 2  # single leaf still hashes one internal node
        level = [leaf_hash(l) for l in leaves]
        self.levels = [level]
        while len(level) > 1:
            level = [node_hash(level[i], level[i + 1])
                     for i in range(0, len(level), 2)]
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

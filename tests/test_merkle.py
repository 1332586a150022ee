"""Merkle commitment tests: paths, tamper rejection, domain separation."""

import hashlib

import numpy as np
import pytest

from vckit.encoding import Reader, u64, u64_rows
from vckit.errors import UsageError
from vckit.field import DEFAULT_MODULUS
from vckit.merkle import AuthPath, MerkleTree, leaf_hash, node_hash, verify_path


def test_leaf_and_node_domain_separated():
    data = b"x" * 64
    assert leaf_hash(data) != hashlib.sha256(data).digest()
    assert leaf_hash(data) != node_hash(data[:32], data[32:])


def test_known_two_leaf_root():
    """Root recomputed by hand from the hash definitions."""
    tree = MerkleTree([b"a", b"b"])
    assert tree.root == node_hash(leaf_hash(b"a"), leaf_hash(b"b"))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 64])
def test_open_verify_all_indices(n):
    leaves = [bytes([i]) * 4 for i in range(n)]
    tree = MerkleTree(leaves)
    for i in range(n):
        path = tree.open(i)
        assert verify_path(tree.root, i, leaves[i], path)


def test_wrong_leaf_rejected():
    leaves = [bytes([i]) for i in range(8)]
    tree = MerkleTree(leaves)
    path = tree.open(3)
    assert not verify_path(tree.root, 3, b"\xff", path)


def test_wrong_index_rejected():
    leaves = [bytes([i]) for i in range(8)]
    tree = MerkleTree(leaves)
    path = tree.open(3)
    assert not verify_path(tree.root, 4, leaves[3], path)


def test_wrong_root_rejected():
    leaves = [bytes([i]) for i in range(8)]
    tree = MerkleTree(leaves)
    other = MerkleTree([b"zzz"] + leaves[1:])
    assert not verify_path(other.root, 0, leaves[0], tree.open(0))


def test_tampered_sibling_rejected():
    leaves = [bytes([i]) for i in range(16)]
    tree = MerkleTree(leaves)
    path = tree.open(5)
    bad = AuthPath(path.leaf_index,
                   [path.siblings[0]] + [bytes(32)] + path.siblings[2:])
    assert not verify_path(tree.root, 5, leaves[5], bad)


def test_empty_tree_rejected():
    with pytest.raises(UsageError):
        MerkleTree([])


def test_out_of_range_open_rejected():
    tree = MerkleTree([b"a", b"b", b"c"])
    with pytest.raises(UsageError):
        tree.open(3)


def test_duplicate_padding_changes_root():
    """Padding duplicates the last leaf, so [a,b,c] commits differently
    from [a,b,c,c] only through num_leaves bookkeeping; the roots match
    but out-of-range opens stay rejected."""
    t3 = MerkleTree([b"a", b"b", b"c"])
    t4 = MerkleTree([b"a", b"b", b"c", b"c"])
    assert t3.root == t4.root
    with pytest.raises(UsageError):
        t3.open(3)
    assert verify_path(t4.root, 3, b"c", t4.open(3))


def test_path_serialize_roundtrip():
    tree = MerkleTree([bytes([i]) for i in range(10)])
    path = tree.open(7)
    back = AuthPath.deserialize(Reader(path.serialize()))
    assert back == path
    assert verify_path(tree.root, 7, bytes([7]), back)


def test_leaf_hash_collision_scan():
    """1e5 distinct preimage pairs, no leaf-hash collisions."""
    seen = set()
    for i in range(100_000):
        seen.add(leaf_hash(i.to_bytes(4, "big")))
    assert len(seen) == 100_000


def test_hashes_match_their_definitions():
    """leaf_hash and node_hash start from pre-fed SHA-256 states; they
    must equal SHA-256 over the prefixed, concatenated message."""
    for data in (b"", b"a", bytes(range(64))):
        assert leaf_hash(data) == hashlib.sha256(b"\x00" + data).digest()
    left, right = bytes(range(32)), bytes(range(32, 64))
    assert (node_hash(left, right)
            == hashlib.sha256(b"\x01" + left + right).digest())


def _reference_levels(leaves):
    """The tree's levels by a plain fold over leaf_hash and node_hash."""
    padded = 1
    while padded < len(leaves):
        padded *= 2
    leaves = list(leaves) + [leaves[-1]] * (padded - len(leaves))
    if len(leaves) == 1:
        leaves = leaves * 2
    level = [leaf_hash(l) for l in leaves]
    levels = [level]
    while len(level) > 1:
        level = [node_hash(level[i], level[i + 1])
                 for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 1000])
def test_level_build_matches_reference_fold(n, width):
    leaves = [hashlib.sha256(i.to_bytes(4, "big")).digest()[:width]
              for i in range(n)]
    tree = MerkleTree(leaves)
    levels = _reference_levels(leaves)
    assert tree.levels == levels
    assert tree.root == levels[-1][0]


def test_truncated_path_rejected():
    """The siblings are read in one piece: a path one byte short, or one
    claiming a sibling more than it carries, is a usage error."""
    data = MerkleTree([b"a", b"b", b"c", b"d"]).open(1).serialize()
    assert data[4] == 2
    for forged in (data[:-1], data[:4] + bytes([3]) + data[5:]):
        with pytest.raises(UsageError, match="truncated"):
            AuthPath.from_bytes(forged)


def test_path_with_no_siblings_roundtrips():
    path = AuthPath(0, [])
    assert AuthPath.from_bytes(path.serialize()) == path


@pytest.mark.parametrize("width", [1, 2, 3])
def test_u64_rows_matches_scalar_encoding(width):
    """Leaf rows from one array dump equal the per-value u64 encoding."""
    values = [0, DEFAULT_MODULUS - 1, 2**64 - 1, 1, 2**32, 12345]
    rows = [[values[(i + c) % len(values)] for c in range(width)]
            for i in range(len(values))]
    leaves = u64_rows(np.array(rows, dtype=np.uint64))
    assert leaves == [b"".join(u64(v) for v in row) for row in rows]

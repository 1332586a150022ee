"""Merkle commitment tests: multiproofs, tamper rejection, domain
separation."""

import hashlib
import random

import numpy as np
import pytest

from vckit.encoding import Reader, u32, u64, u64_rows
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


@pytest.mark.parametrize("n", [2, 8, 64])
def test_open_verify_all_indices(n):
    """Each leaf opened alone: the one-element set, log2 n siblings."""
    leaves = [bytes([i]) * 4 for i in range(n)]
    tree = MerkleTree(leaves)
    for i in range(n):
        path = tree.open([i])
        assert len(path.siblings) == n.bit_length() - 1
        assert verify_path(tree.root, n, {i: leaves[i]}, path)


def test_wrong_leaf_rejected():
    leaves = [bytes([i]) for i in range(8)]
    tree = MerkleTree(leaves)
    path = tree.open([3])
    assert not verify_path(tree.root, 8, {3: b"\xff"}, path)


def test_wrong_index_rejected():
    leaves = [bytes([i]) for i in range(8)]
    tree = MerkleTree(leaves)
    path = tree.open([3])
    for index in (4, 2, -1, 8):
        assert not verify_path(tree.root, 8, {index: leaves[3]}, path)


def test_wrong_root_rejected():
    leaves = [bytes([i]) for i in range(8)]
    tree = MerkleTree(leaves)
    other = MerkleTree([b"zzz"] + leaves[1:])
    assert not verify_path(other.root, 8, {0: leaves[0]}, tree.open([0]))


def test_tampered_sibling_rejected():
    leaves = [bytes([i]) for i in range(16)]
    tree = MerkleTree(leaves)
    path = tree.open([5])
    bad = AuthPath([path.siblings[0]] + [bytes(32)] + path.siblings[2:])
    assert not verify_path(tree.root, 16, {5: leaves[5]}, bad)


def test_empty_tree_rejected():
    with pytest.raises(UsageError):
        MerkleTree([])


@pytest.mark.parametrize("n", [0, 1, 3, 5, 6, 1000])
def test_leaf_count_not_a_power_of_two_refused(n):
    """No padding: [a, b, c] padded to [a, b, c, c] would share its root,
    so a count that is not 2^k >= 2 is refused."""
    with pytest.raises(UsageError, match="2\\^k >= 2 leaves"):
        MerkleTree([bytes([i % 256]) for i in range(n)])


def test_out_of_range_open_rejected():
    """Indices outside the tree, and the empty set, are refused."""
    tree = MerkleTree([b"a", b"b", b"c", b"d"])
    for indices in ([4], [0, 4], [-1], []):
        with pytest.raises(UsageError):
            tree.open(indices)


def test_path_serialize_roundtrip():
    tree = MerkleTree([bytes([i]) for i in range(16)])
    path = tree.open([2, 7, 8])
    back = AuthPath.deserialize(Reader(path.serialize()))
    assert back == path
    assert verify_path(tree.root, 16,
                       {i: bytes([i]) for i in (2, 7, 8)}, back)


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
    level = [leaf_hash(l) for l in leaves]
    levels = [level]
    while len(level) > 1:
        level = [node_hash(level[i], level[i + 1])
                 for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("n", [2, 8, 1024])
def test_level_build_matches_reference_fold(n, width):
    leaves = [hashlib.sha256(i.to_bytes(4, "big")).digest()[:width]
              for i in range(n)]
    tree = MerkleTree(leaves)
    levels = _reference_levels(leaves)
    assert tree.levels == levels
    assert tree.root == levels[-1][0]


def _decode_whole(data):
    """The path that fills all of data."""
    reader = Reader(data)
    path = AuthPath.deserialize(reader)
    reader.finish()
    return path


def test_truncated_path_rejected():
    """The siblings are read in one piece after a u32 count: a path one
    byte short, or one claiming a sibling more than it carries, is a
    usage error."""
    data = MerkleTree([b"a", b"b", b"c", b"d"]).open([1]).serialize()
    assert data[:4] == u32(2)
    for forged in (data[:-1], u32(3) + data[4:]):
        with pytest.raises(UsageError, match="truncated"):
            _decode_whole(forged)


def test_path_with_no_siblings_roundtrips():
    """Every leaf opened leaves the verifier nothing to be told."""
    leaves = [bytes([i]) for i in range(8)]
    tree = MerkleTree(leaves)
    path = tree.open(range(8))
    assert path == AuthPath([])
    assert _decode_whole(path.serialize()) == path
    assert verify_path(tree.root, 8, dict(enumerate(leaves)), path)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_u64_rows_matches_scalar_encoding(width):
    """Leaf rows from one array dump equal the per-value u64 encoding."""
    values = [0, DEFAULT_MODULUS - 1, 2**64 - 1, 1, 2**32, 12345]
    rows = [[values[(i + c) % len(values)] for c in range(width)]
            for i in range(len(values))]
    leaves = u64_rows(np.array(rows, dtype=np.uint64))
    assert leaves == [b"".join(u64(v) for v in row) for row in rows]


def _oracle_siblings(levels, indices):
    """The multiproof from the leaves' single paths: at each level, the
    nodes their paths hold, less the nodes on those paths themselves,
    which the verifier computes; ascending by index."""
    out = []
    for depth, level in enumerate(levels[:-1]):
        on_paths = {i >> depth for i in indices}
        path_nodes = {(i >> depth) ^ 1 for i in indices}
        out += [level[j] for j in sorted(path_nodes - on_paths)]
    return out


def _index_sets(n, rng, sizes):
    """A single leaf, two adjacent siblings, every leaf, and random
    subsets of the n leaves of the given sizes."""
    sets = [[rng.randrange(n)], [n - 2, n - 1], list(range(n))]
    for size in sizes:
        sets.append(sorted(rng.sample(range(n), min(size, n))))
    return sets


@pytest.mark.parametrize("n", [2 ** k for k in range(1, 11)])
def test_multiproof_matches_single_path_oracle(n):
    """open(indices) sends exactly the siblings of the oracle, and
    verify_path accepts the leaves with it; so does each leaf's own
    path from the reference levels."""
    rng = random.Random(n)
    leaves = [rng.randbytes(8) for _ in range(n)]
    tree = MerkleTree(leaves)
    levels = _reference_levels(leaves)
    for indices in _index_sets(n, rng, (2, 3, max(1, n // 8), n // 2)):
        path = tree.open(indices)
        assert path.siblings == _oracle_siblings(levels, indices)
        assert verify_path(tree.root, n, {i: leaves[i] for i in indices},
                           path)
        for i in indices[:2]:
            single = [levels[d][(i >> d) ^ 1] for d in range(len(levels) - 1)]
            assert verify_path(tree.root, n, {i: leaves[i]},
                               AuthPath(single))


@pytest.mark.parametrize("n", [2, 4, 16, 128, 1024])
def test_multiproof_tampering_rejected(n):
    """Each sibling flipped, a sibling dropped or added, a leaf changed,
    another index set of the same size, and the tree read as twice its
    size: all rejected."""
    rng = random.Random(1000 + n)
    leaves = [rng.randbytes(8) for _ in range(n)]
    tree = MerkleTree(leaves)
    for indices in _index_sets(n, rng, (2, 3, 20)):
        opened = {i: leaves[i] for i in indices}
        siblings = tree.open(indices).siblings
        assert verify_path(tree.root, n, opened, AuthPath(siblings))
        forgeries = []
        for k, sib in enumerate(siblings):
            flipped = bytes([sib[0] ^ 1]) + sib[1:]
            forgeries.append(AuthPath(siblings[:k] + [flipped]
                                      + siblings[k + 1:]))
            forgeries.append(AuthPath(siblings[:k] + siblings[k + 1:]))
        for k in (0, len(siblings)):
            forgeries.append(AuthPath(siblings[:k] + [bytes(32)]
                                      + siblings[k:]))
        for path in forgeries:
            assert not verify_path(tree.root, n, opened, path)
        path = AuthPath(siblings)
        for i in indices:
            changed = dict(opened)
            changed[i] = bytes([opened[i][0] ^ 1]) + opened[i][1:]
            assert not verify_path(tree.root, n, changed, path)
        if len(indices) < n:
            outside = next(i for i in range(n) if i not in opened)
            moved = dict(opened)
            moved[outside] = moved.pop(indices[-1])
            assert not verify_path(tree.root, n, moved, path)
        assert not verify_path(tree.root, 2 * n, opened, path)


@pytest.mark.parametrize("num_leaves", [0, 1, 3, 6])
def test_leaf_count_not_a_power_of_two_rejected_by_verify(num_leaves):
    tree = MerkleTree([b"a", b"b"])
    assert not verify_path(tree.root, num_leaves, {0: b"a"}, tree.open([0]))

"""Merkle commitment tests: multiproofs, tamper rejection, domain
separation."""

import hashlib
import random

import numpy as np
import pytest

from vckit.encoding import Reader, u32, u64, u64_rows
from vckit.errors import UsageError
from vckit.field import DEFAULT_MODULUS
from vckit.merkle import (MerkleTree, Opening, index_set, leaf_hash,
                          node_hash, verify_path)


def _column(values):
    """A one-column uint64 array: row i holds values[i]."""
    return np.array(list(values), dtype=np.uint64).reshape(-1, 1)


def _leaf(row) -> bytes:
    """A row's leaf bytes, by the scalar u64 encoding."""
    return b"".join(u64(int(v)) for v in row)


def test_leaf_and_node_domain_separated():
    data = b"x" * 64
    assert leaf_hash(data) != hashlib.sha256(data).digest()
    assert leaf_hash(data) != node_hash(data[:32], data[32:])


def test_known_two_leaf_root():
    """Root recomputed by hand from the hash definitions: each leaf is
    its row's u64 encodings."""
    tree = MerkleTree(np.array([[1, 2], [3, 2**64 - 1]], dtype=np.uint64))
    assert tree.root == node_hash(leaf_hash(u64(1) + u64(2)),
                                  leaf_hash(u64(3) + u64(2**64 - 1)))


@pytest.mark.parametrize("n", [2, 8, 64])
def test_open_verify_all_indices(n):
    """Each leaf opened alone: the one-element set, its row, log2 n
    siblings."""
    rows = _column(range(100, 100 + n))
    tree = MerkleTree(rows)
    for i in range(n):
        opening = tree.open([i])
        assert opening.rows.tolist() == [[100 + i]]
        assert len(opening.siblings) == n.bit_length() - 1
        assert verify_path(tree.root, n, {i: _leaf(rows[i])},
                           opening.siblings)


def test_wrong_leaf_rejected():
    tree = MerkleTree(_column(range(8)))
    siblings = tree.open([3]).siblings
    assert not verify_path(tree.root, 8, {3: u64(255)}, siblings)


def test_wrong_index_rejected():
    tree = MerkleTree(_column(range(8)))
    siblings = tree.open([3]).siblings
    for index in (4, 2, -1, 8):
        assert not verify_path(tree.root, 8, {index: u64(3)}, siblings)


def test_wrong_root_rejected():
    tree = MerkleTree(_column(range(8)))
    other = MerkleTree(_column([99] + list(range(1, 8))))
    assert not verify_path(other.root, 8, {0: u64(0)},
                           tree.open([0]).siblings)


def test_tampered_sibling_rejected():
    tree = MerkleTree(_column(range(16)))
    siblings = tree.open([5]).siblings
    bad = [siblings[0]] + [bytes(32)] + siblings[2:]
    assert not verify_path(tree.root, 16, {5: u64(5)}, bad)


def test_empty_tree_rejected():
    with pytest.raises(UsageError):
        MerkleTree(_column([]))


@pytest.mark.parametrize("n", [0, 1, 3, 5, 6, 1000])
def test_leaf_count_not_a_power_of_two_refused(n):
    """No padding: [a, b, c] padded to [a, b, c, c] would share its root,
    so a count that is not 2^k >= 2 is refused."""
    with pytest.raises(UsageError, match="2\\^k >= 2 leaves"):
        MerkleTree(_column(range(n)))


@pytest.mark.parametrize("rows", [
    [b"a", b"b"], np.arange(4, dtype=np.uint64),
    np.array([[-1], [2]], dtype=np.int64), [[1], [2]]],
    ids=["bytes", "1-D", "int64", "lists"])
def test_rows_that_are_not_a_uint64_matrix_refused(rows):
    """Byte-string leaves, a 1-D array, a signed array, whose -1 would be
    committed as 2^64 - 1, and nested lists are refused."""
    with pytest.raises(UsageError, match="2-D uint64 array"):
        MerkleTree(rows)


def test_out_of_range_open_rejected():
    """Indices outside the tree, and the empty set, are refused."""
    tree = MerkleTree(_column(range(4)))
    for indices in ([4], [0, 4], [-1], []):
        with pytest.raises(UsageError):
            tree.open(indices)


def test_path_serialize_roundtrip():
    rows = np.arange(32, dtype=np.uint64).reshape(16, 2)
    tree = MerkleTree(rows)
    opening = tree.open([2, 7, 8])
    back = Opening.deserialize(Reader(opening.serialize()), 2)
    assert back.rows.tolist() == rows[[2, 7, 8]].tolist()
    assert back.siblings == opening.siblings
    assert verify_path(tree.root, 16,
                       {i: _leaf(rows[i]) for i in (2, 7, 8)}, back.siblings)


def test_open_returns_the_rows_of_its_index_set():
    """open takes leaf indices of any shape, repeats included: an int
    list, and a 2-D array such as the STARK's (queries x window) leaves.
    Its rows are rows[index_set(leaves)], its siblings are those of the
    index_set itself, and verify_path accepts them."""
    rng = random.Random(7)
    rows = np.array([[rng.getrandbits(64) for _ in range(3)]
                     for _ in range(64)], dtype=np.uint64)
    tree = MerkleTree(rows)
    for leaves in ([5, 3, 5, 60, 3, 3],
                   np.array([[9, 10], [10, 11], [40, 9]], dtype=np.int64)):
        known = index_set(leaves)
        opening = tree.open(leaves)
        assert opening.rows.tolist() == rows[known].tolist()
        assert opening.siblings == tree.open(known).siblings
        assert verify_path(tree.root, 64,
                           {i: _leaf(rows[i]) for i in known},
                           opening.siblings)


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
    """Leaves of 8 and 16 bytes: rows of one and two columns."""
    leaves = [hashlib.sha256(i.to_bytes(4, "big")).digest()[:width]
              for i in range(n)]
    rows = np.frombuffer(b"".join(leaves), dtype=">u8").astype(
        np.uint64).reshape(n, width // 8)
    tree = MerkleTree(rows)
    levels = _reference_levels(leaves)
    assert tree.levels == levels
    assert tree.root == levels[-1][0]


def _decode_whole(data):
    """The one-column opening that fills all of data."""
    reader = Reader(data)
    opening = Opening.deserialize(reader, 1)
    reader.finish()
    return opening


def test_truncated_path_rejected():
    """The siblings are read in one piece after a u32 count: an opening
    one byte short, or one claiming a sibling or a row more than it
    carries, is a usage error."""
    data = MerkleTree(_column(range(4))).open([1]).serialize()
    assert data[:4] == u32(1) and data[12:16] == u32(2)
    for forged in (data[:-1], data[:12] + u32(3) + data[16:],
                   u32(2) + data[4:]):
        with pytest.raises(UsageError, match="truncated"):
            _decode_whole(forged)


def test_path_with_no_siblings_roundtrips():
    """Every leaf opened leaves the verifier nothing to be told."""
    rows = _column(range(8))
    tree = MerkleTree(rows)
    opening = tree.open(range(8))
    assert opening.siblings == []
    back = _decode_whole(opening.serialize())
    assert back.rows.tolist() == rows.tolist() and back.siblings == []
    assert verify_path(tree.root, 8, {i: _leaf(r) for i, r in
                                      enumerate(rows)}, back.siblings)


@pytest.mark.parametrize("width", [0, 1, 2, 3])
def test_u64_rows_matches_scalar_encoding(width):
    """Leaf rows from one array dump equal the per-value u64 encoding; a
    row of no values is the empty leaf."""
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


def _random_column(n, rng):
    """n random one-value rows and their 8-byte leaves."""
    rows = _column(rng.getrandbits(64) for _ in range(n))
    return rows, [_leaf(row) for row in rows]


@pytest.mark.parametrize("n", [2 ** k for k in range(1, 11)])
def test_multiproof_matches_single_path_oracle(n):
    """open(indices) sends exactly the siblings of the oracle, and
    verify_path accepts the leaves with them; so does each leaf's own
    path from the reference levels."""
    rng = random.Random(n)
    rows, leaves = _random_column(n, rng)
    tree = MerkleTree(rows)
    levels = _reference_levels(leaves)
    for indices in _index_sets(n, rng, (2, 3, max(1, n // 8), n // 2)):
        siblings = tree.open(indices).siblings
        assert siblings == _oracle_siblings(levels, indices)
        assert verify_path(tree.root, n, {i: leaves[i] for i in indices},
                           siblings)
        for i in indices[:2]:
            single = [levels[d][(i >> d) ^ 1] for d in range(len(levels) - 1)]
            assert verify_path(tree.root, n, {i: leaves[i]}, single)


@pytest.mark.parametrize("n", [2, 4, 16, 128, 1024])
def test_multiproof_tampering_rejected(n):
    """Each sibling flipped, a sibling dropped or added, a leaf changed,
    another index set of the same size, and the tree read as twice its
    size: all rejected."""
    rng = random.Random(1000 + n)
    rows, leaves = _random_column(n, rng)
    tree = MerkleTree(rows)
    for indices in _index_sets(n, rng, (2, 3, 20)):
        opened = {i: leaves[i] for i in indices}
        siblings = tree.open(indices).siblings
        assert verify_path(tree.root, n, opened, siblings)
        forgeries = []
        for k, sib in enumerate(siblings):
            flipped = bytes([sib[0] ^ 1]) + sib[1:]
            forgeries.append(siblings[:k] + [flipped] + siblings[k + 1:])
            forgeries.append(siblings[:k] + siblings[k + 1:])
        for k in (0, len(siblings)):
            forgeries.append(siblings[:k] + [bytes(32)] + siblings[k:])
        for forged in forgeries:
            assert not verify_path(tree.root, n, opened, forged)
        for i in indices:
            changed = dict(opened)
            changed[i] = bytes([opened[i][0] ^ 1]) + opened[i][1:]
            assert not verify_path(tree.root, n, changed, siblings)
        if len(indices) < n:
            outside = next(i for i in range(n) if i not in opened)
            moved = dict(opened)
            moved[outside] = moved.pop(indices[-1])
            assert not verify_path(tree.root, n, moved, siblings)
        assert not verify_path(tree.root, 2 * n, opened, siblings)


@pytest.mark.parametrize("num_leaves", [0, 1, 3, 6])
def test_leaf_count_not_a_power_of_two_rejected_by_verify(num_leaves):
    tree = MerkleTree(_column([1, 2]))
    assert not verify_path(tree.root, num_leaves, {0: u64(1)},
                           tree.open([0]).siblings)

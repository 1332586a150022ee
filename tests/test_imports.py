"""Every name a library module imports is used in that module, every
private helper is used somewhere in the library, only the random
oracle and the Merkle tree import hashlib, only the OpenSSL binding
imports ctypes or _hashlib, the binding calls every BN_ function it
declares and no other, it decides between libcrypto and built-in ints
in one place, the numpy arrays of the field, STARK and FRI modules
are reduced mod p only inside field's reduction helpers, hauth
evaluates the PRF only inside its memo helper, and only the Merkle
module turns rows into leaf bytes or builds an opening.

A static check with the standard library's ast: a bound import name
counts as used when it appears as a name anywhere in the module, also
inside a string that parses as an expression, such as the annotation
"fri.FriProof".  `from __future__` imports and the package's
`__init__.py`, whose imports are its re-exports, are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from vckit import bignum

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vckit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# every other SHA-256 call goes through transcript._h
HASHLIB_MODULES = {"transcript.py", "merkle.py"}
# every native call goes through the libcrypto binding
NATIVE_MODULES = {"bignum.py"}
# modules whose uint64 arrays are reduced only by the helpers below
REDUCING_MODULES = ["field.py", "stark.py", "fri.py"]
REDUCTION_HELPERS = {"_reduce", "_reduce_sum"}
# hauth's one caller of the PRF, which keeps each key's outputs
PRF_HOME = "_prf_value"
# what only merkle.py calls: the leaf encoding of a committed row, and
# the opening type, which its trees build and its decoder reads
MERKLE_ONLY = ["u64_rows", "Opening"]


def imported_names(tree):
    """(bound name, line) of every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations; other strings rarely parse
            try:
                names |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from .encoding import u8, u32\n"
              "x: 'np.ndarray' = u8(1)\n")
    assert unused_imports(source) == [("os", 3), ("u32", 4)]


def references(node):
    """Every name and attribute name read anywhere under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def dead_helpers(sources):
    """The module-level functions and classes named with a leading _ that
    no source references outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    total = Counter(name for tree in trees for name in references(tree))
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and total[node.name] == Counter(references(node))[node.name]]


def test_no_dead_helpers():
    """Code nothing calls gets deleted: a private helper only the tests
    use is a test helper."""
    assert dead_helpers(p.read_text() for p in PACKAGE.glob("*.py")) == []


def test_the_check_sees_a_dead_helper():
    sources = ["def _used(x):\n    return x\n\n"
               "def _dead(n):\n    return _dead(n - 1)\n\n"
               "class _Gone:\n    pass\n\n"
               "def _other():\n    return _used(1)\n",
               "from . import a\ny = a._other()\n"]
    assert dead_helpers(sources) == ["_dead", "_Gone"]


def imported_packages(source):
    """The top-level package of every absolute import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_random_oracle_and_merkle_import_hashlib():
    importers = {p.name for p in PACKAGE.glob("*.py")
                 if "hashlib" in imported_packages(p.read_text())}
    assert importers == HASHLIB_MODULES


def test_only_the_binding_imports_ctypes_or_hashlib_module():
    native = {"ctypes", "_hashlib"}
    importers = {p.name for p in PACKAGE.glob("*.py")
                 if native & set(imported_packages(p.read_text()))}
    assert importers == NATIVE_MODULES


def _is_library_handle(node):
    """`lib` or `<anything>.lib`."""
    return (isinstance(node, ast.Name) and node.id == "lib"
            or isinstance(node, ast.Attribute) and node.attr == "lib")


def libcrypto_calls(source):
    """The function names a binding reads off its library handle `lib` or
    `self.lib`: its attributes, and the names passed to
    `_call(lib, name, ...)`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and _is_library_handle(node.value):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_call"):
            yield node.args[1].value


def test_the_binding_calls_only_typed_bignum_functions():
    """The binding computes no hash: every libcrypto function it calls is a
    BN_ function with its restype and argtypes declared."""
    assert all(name.startswith("BN_") for name in bignum._SIGNATURES)
    for name in NATIVE_MODULES:
        calls = set(libcrypto_calls((PACKAGE / name).read_text()))
        assert calls <= set(bignum._SIGNATURES), name


def test_the_check_sees_a_libcrypto_call():
    source = ("lib.BN_free(x)\n_call(lib, 'SHA256', b'', 0, None)\n"
              "other.EVP_Digest()\nself.lib.BN_copy(a, b)\n")
    assert set(libcrypto_calls(source)) == {"BN_free", "SHA256", "BN_copy"}


def uncalled_signatures(source, signatures):
    """The declared functions that the binding's source never calls."""
    return sorted(set(signatures) - set(libcrypto_calls(source)))


def test_every_declared_bignum_function_is_called():
    """No function in `_SIGNATURES` is dead: each is typed because the
    binding calls it."""
    source = (PACKAGE / "bignum.py").read_text()
    assert uncalled_signatures(source, bignum._SIGNATURES) == []


def test_the_check_sees_a_declared_function_nothing_calls():
    source = ("for name in _SIGNATURES:\n    getattr(lib, name)\n"
              "lib.BN_free(x)\n_call(self.lib, 'BN_new')\n")
    signatures = {"BN_new": None, "BN_free": None, "BN_copy": None,
                  "BN_CTX_new": None}
    assert uncalled_signatures(source, signatures) == ["BN_CTX_new",
                                                       "BN_copy"]


def public_functions_and_libcrypto_calls(source):
    """(the module-level functions and classes not named with a leading _,
    the number of `libcrypto()` calls)."""
    tree = ast.parse(source)
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    calls = sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "libcrypto" for node in ast.walk(tree))
    return public, calls


def test_the_binding_decides_its_fallback_in_one_place():
    """`modular_ring` is the binding's one entry point and the one caller
    of `libcrypto()`, so no second libcrypto-or-ints decision, with a
    fallback of its own, can sit beside it."""
    source = (PACKAGE / "bignum.py").read_text()
    assert public_functions_and_libcrypto_calls(source) == (
        {"libcrypto", "modular_ring"}, 1)


def test_the_check_sees_a_second_entry_point():
    source = ("def libcrypto():\n    pass\n\n"
              "def modular_ring(n):\n    return libcrypto()\n\n"
              "def joint_power(n):\n    lib = libcrypto()\n\n"
              "class _Ring:\n    pass\n")
    assert public_functions_and_libcrypto_calls(source) == (
        {"libcrypto", "modular_ring", "joint_power"}, 2)


def _is_array_modulus(node):
    """`mod` or `<anything>.uint64(...)`: the uint64 modulus that the
    bulk paths reduce arrays by."""
    return (isinstance(node, ast.Name) and node.id == "mod"
            or isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "uint64")


def nodes_inside(tree, names):
    """The ids of the nodes within the functions named in names."""
    return {id(n) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in names
            for n in ast.walk(node)}


def array_remainders(source):
    """The lines that take `% mod` or `% np.uint64(...)`, as an operator
    or as `%=`, outside the functions named in REDUCTION_HELPERS."""
    tree = ast.parse(source)
    inside = nodes_inside(tree, REDUCTION_HELPERS)
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in inside and (
                      isinstance(node, ast.BinOp)
                      and isinstance(node.op, ast.Mod)
                      and _is_array_modulus(node.right)
                      or isinstance(node, ast.AugAssign)
                      and isinstance(node.op, ast.Mod)
                      and _is_array_modulus(node.value)))


@pytest.mark.parametrize("name", REDUCING_MODULES)
def test_arrays_are_reduced_by_the_field_helpers(name):
    """Reduction of the bulk uint64 arrays has one home, field._reduce
    and field._reduce_sum, which pick the cheaper form by length; a
    scalar `% p` on ints is not theirs."""
    assert array_remainders((PACKAGE / name).read_text()) == []


def test_the_check_sees_an_array_remainder():
    source = ("def _reduce(t, mod):\n    return t % mod\n\n"
              "def fold(a, p):\n    mod = np.uint64(p)\n"
              "    b = a * a % mod\n    b %= mod\n"
              "    c = (a + 1) % np.uint64(p)\n"
              "    return b + c + p % 7 + int(a[0]) % p\n")
    assert array_remainders(source) == [6, 7, 8]


def calls_to(tree, name):
    """The calls to `name` or `<anything>.name` under tree."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == name
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == name)]


def prf_call_sites(source):
    """(the number of calls to `prf` or `<anything>.prf` inside the
    function PRF_HOME, the lines of those outside it)."""
    tree = ast.parse(source)
    inside = nodes_inside(tree, {PRF_HOME})
    calls = calls_to(tree, "prf")
    return (sum(id(node) in inside for node in calls),
            sorted(node.lineno for node in calls if id(node) not in inside))


def test_hauth_evaluates_the_prf_only_through_its_memo():
    """Each key's PRF outputs have one home, hauth._prf_value: a second
    caller of the PRF would evaluate it again for an input the key's memo
    already holds."""
    assert prf_call_sites((PACKAGE / "hauth.py").read_text()) == (1, [])


def test_the_check_sees_a_stray_prf_call():
    source = ("def _prf_value(key, data):\n"
              "    return memo.get(data) or prf(key, data, f)\n\n"
              "def _prf2(key, delta):\n"
              "    return prf(key.prf_key, b'2' + delta, key.field)\n\n"
              "def load(key, d):\n    return transcript.prf(key, d, f)\n")
    assert prf_call_sites(source) == (1, [5, 8])


def callers(sources, name):
    """The modules, of a map from module name to source, that call name."""
    return {module for module, source in sources.items()
            if calls_to(ast.parse(source), name)}


@pytest.mark.parametrize("name", MERKLE_ONLY)
def test_only_merkle_encodes_leaves_and_builds_openings(name):
    """How a committed row becomes a leaf and how an opening is built
    have one home: the trace and the FRI layers commit uint64 rows to a
    MerkleTree and send what its open returns."""
    sources = {p.name: p.read_text() for p in MODULES}
    assert callers(sources, name) == {"merkle.py"}


def test_the_check_sees_a_stray_leaf_encoding():
    sources = {"merkle.py": "for leaf in u64_rows(rows):\n    pass\n",
               "fri.py": "tree = MerkleTree(u64_rows(cosets))\n",
               "stark.py": "leaves = encoding.u64_rows(table)\n",
               "field.py": "from .encoding import u64_rows\n"
                           "name = 'u64_rows(x)'\n"}
    assert callers(sources, "u64_rows") == {"merkle.py", "fri.py",
                                            "stark.py"}

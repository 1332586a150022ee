"""Modular arithmetic in OpenSSL's Montgomery arithmetic.

A CPython `a * b % n` spends most of its time in the long division of the
reduction; OpenSSL multiplies in Montgomery form instead.  The one entry
point is the block `modular_ring(n)`.  Its `power` is one BN_mod_exp_mont
per exponentiation, its `square_chain` one per interval of a chain of
squarings, its `joint_power` is a^e * b^f in one
BN_mod_exp2_mont call, and its residues stay in Montgomery form and
multiply in place with BN_mod_mul_montgomery, for loops of many
multiplications.
The functions come through ctypes from the libcrypto that the
interpreter's own `_hashlib` links, so no library beyond the interpreter's
is needed.  Where they cannot be resolved, or the modulus is even
(Montgomery reduction needs an odd one), the same arithmetic runs on
built-in ints.  Only BN_ functions are resolved: nothing here hashes.
"""

import ctypes
import functools
from contextlib import contextmanager

from .errors import InternalError, UsageError

_PTR, _INT = ctypes.c_void_p, ctypes.c_int
# name -> (restype, argtypes), as declared in <openssl/bn.h>
_SIGNATURES = {
    "BN_new": (_PTR, []),
    "BN_free": (None, [_PTR]),
    "BN_copy": (_PTR, [_PTR, _PTR]),
    "BN_CTX_new": (_PTR, []),
    "BN_CTX_free": (None, [_PTR]),
    "BN_bin2bn": (_PTR, [_PTR, _INT, _PTR]),
    "BN_bn2binpad": (_INT, [_PTR, _PTR, _INT]),
    "BN_MONT_CTX_new": (_PTR, []),
    "BN_MONT_CTX_set": (_INT, [_PTR, _PTR, _PTR]),
    "BN_MONT_CTX_free": (None, [_PTR]),
    "BN_to_montgomery": (_INT, [_PTR, _PTR, _PTR, _PTR]),
    "BN_from_montgomery": (_INT, [_PTR, _PTR, _PTR, _PTR]),
    "BN_mod_mul_montgomery": (_INT, [_PTR, _PTR, _PTR, _PTR, _PTR]),
    "BN_mod_exp_mont": (_INT, [_PTR, _PTR, _PTR, _PTR, _PTR, _PTR]),
    "BN_mod_exp2_mont": (_INT, [_PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
                                _PTR]),
}


@functools.cache
def libcrypto():
    """The libcrypto handle with every BN_ function typed, or None where
    `_hashlib` does not import or lacks one of them.  Loaded once."""
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        for name, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, AttributeError, OSError):
        return None
    return lib


def _call(lib, name, *args):
    """lib.name(*args), raising InternalError on a 0 or NULL result."""
    result = getattr(lib, name)(*args)
    if not result:
        raise InternalError(f"{name} failed")
    return result


def _check_exponent(exponent: int):
    if exponent < 0:
        raise UsageError("exponent must be non-negative")


def _intervals(steps: int, interval: int):
    """The lengths of `steps` squarings cut every `interval` of them."""
    if steps < 0 or interval < 1:
        raise UsageError("a square chain needs steps >= 0 and interval >= 1")
    full, tail = divmod(steps, interval)
    return [interval] * full + [tail] * (tail > 0)


class _Montgomery:
    """One odd modulus n in libcrypto: its BN_CTX and BN_MONT_CTX, the
    scratch BIGNUMs of `power`, `square_chain`, `joint_power` and
    `value`, and every residue made for it, all freed once by `close`.

    The methods are those of `_IntResidues`.  A residue is a BIGNUM
    holding v*R mod n (R the Montgomery radix), so products never leave
    Montgomery form between `residue` and `value`.
    """

    def __init__(self, lib, n: int):
        self.lib, self.n = lib, n
        self.size = (n.bit_length() + 7) // 8
        self.ctx = self.mont = None
        self.numbers = []
        self._out = ctypes.create_string_buffer(self.size)

    def open(self):
        lib = self.lib
        self.ctx = _call(lib, "BN_CTX_new")
        self.mont = _call(lib, "BN_MONT_CTX_new")
        self.modulus = self.new()
        self.load(self.modulus, self.n)
        _call(lib, "BN_MONT_CTX_set", self.mont, self.modulus, self.ctx)
        # the operands and result of every call; made once per block
        self._a, self._e, self._b, self._f, self._result = (
            self.new() for _ in range(5))

    def close(self):
        lib = self.lib
        for number in self.numbers:
            lib.BN_free(number)
        lib.BN_MONT_CTX_free(self.mont)
        lib.BN_CTX_free(self.ctx)

    def new(self):
        """A fresh BIGNUM owned by this block."""
        number = _call(self.lib, "BN_new")
        self.numbers.append(number)
        return number

    def load(self, number, value: int):
        """Set `number` to value, for 0 <= value < 2^(8 * size)."""
        _call(self.lib, "BN_bin2bn", value.to_bytes(self.size, "big"),
              self.size, number)

    def load_exponent(self, number, exponent: int):
        """Set `number` to exponent >= 0, of any length."""
        data = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
        _call(self.lib, "BN_bin2bn", data, len(data), number)

    def read(self, number) -> int:
        """The plain-form value of `number`, below n."""
        if self.lib.BN_bn2binpad(number, self._out, self.size) != self.size:
            raise InternalError("BN_bn2binpad failed")
        return int.from_bytes(self._out.raw, "big")

    def power(self, base: int, exponent: int) -> int:
        _check_exponent(exponent)
        self.load(self._a, base % self.n)
        self.load_exponent(self._e, exponent)
        _call(self.lib, "BN_mod_exp_mont", self._result, self._a, self._e,
              self.modulus, self.ctx, self.mont)
        return self.read(self._result)

    def square_chain(self, base: int, steps: int, interval: int):
        lengths = _intervals(steps, interval)
        values = [base % self.n]
        # y alternates between two BIGNUMs: BN_mod_exp_mont is not
        # documented to allow its result to be its base
        y, spare = self._a, self._result
        self.load(y, values[0])
        loaded = None
        for length in lengths:
            if length != loaded:
                self.load_exponent(self._e, 1 << length)
                loaded = length
            _call(self.lib, "BN_mod_exp_mont", spare, y, self._e,
                  self.modulus, self.ctx, self.mont)
            y, spare = spare, y
            values.append(self.read(y))
        return values

    def joint_power(self, a: int, e: int, b: int, f: int) -> int:
        _check_exponent(e)
        _check_exponent(f)
        # BN_mod_exp2_mont makes a base of 0 give 0 even under exponent 0,
        # and two zero exponents give 1 even modulo 1
        self.load(self._a, a % self.n if e else 1)
        self.load(self._b, b % self.n if f else 1)
        self.load_exponent(self._e, e)
        self.load_exponent(self._f, f)
        _call(self.lib, "BN_mod_exp2_mont", self._result, self._a, self._e,
              self._b, self._f, self.modulus, self.ctx, self.mont)
        return self.read(self._result) % self.n

    def residue(self, value: int):
        number = self.new()
        self.load(number, value % self.n)
        _call(self.lib, "BN_to_montgomery", number, number, self.mont, self.ctx)
        return number

    def copy(self, out, a):
        _call(self.lib, "BN_copy", out, a)

    def multiply(self, out, a, b):
        _call(self.lib, "BN_mod_mul_montgomery", out, a, b, self.mont,
              self.ctx)

    def value(self, a) -> int:
        _call(self.lib, "BN_from_montgomery", self._result, a, self.mont,
              self.ctx)
        return self.read(self._result)


class _IntResidues:
    """Arithmetic mod n on built-in ints.  A residue is an int in a
    one-element list, so that `copy` and `multiply` write in place as the
    BIGNUM ones do."""

    def __init__(self, n: int):
        self.n = n

    def power(self, base: int, exponent: int) -> int:
        """base^exponent mod n, for exponent >= 0."""
        _check_exponent(exponent)
        return pow(base, exponent, self.n)

    def square_chain(self, base: int, steps: int, interval: int):
        """[base^(2^j) mod n for j = 0, interval, 2*interval, ... below
        steps] followed by base^(2^steps) mod n, for steps >= 0 and
        interval >= 1."""
        lengths = _intervals(steps, interval)
        values = [base % self.n]
        for length in lengths:
            values.append(pow(values[-1], 1 << length, self.n))
        return values

    def joint_power(self, a: int, e: int, b: int, f: int) -> int:
        """a^e * b^f mod n, for e, f >= 0."""
        _check_exponent(e)
        _check_exponent(f)
        return pow(a, e, self.n) * pow(b, f, self.n) % self.n

    def residue(self, value: int):
        """A new residue holding value mod n."""
        return [value % self.n]

    def copy(self, out, a):
        """out = a."""
        out[0] = a[0]

    def multiply(self, out, a, b):
        """out = a * b mod n; out may be a or b."""
        out[0] = a[0] * b[0] % self.n

    def value(self, a) -> int:
        """The int a holds, below n."""
        return a[0]


@contextmanager
def modular_ring(n: int):
    """Yield the arithmetic mod n, for the length of the block.

    `power(a, e)` is a^e mod n and `joint_power(a, e, b, f)` is
    a^e * b^f mod n; a negative exponent raises UsageError.
    `square_chain(a, steps, interval)` lists a^(2^j) mod n for every
    multiple j of interval below steps, then a^(2^steps) mod n.
    `residue(v)` makes a residue holding v mod n, `copy(out, a)` and
    `multiply(out, a, b)` overwrite out (which may be a or b), and
    `value(a)` returns the int below n that a holds.

    With libcrypto and an odd n, the Montgomery context of n is set once
    on entry, `power` is one BN_mod_exp_mont, `square_chain` one
    BN_mod_exp_mont per interval on a base that stays in a BIGNUM, with
    the exponent 2^interval loaded once, `joint_power` one
    BN_mod_exp2_mont, whose squarings serve both exponents, and a residue
    is a BIGNUM in Montgomery form that each multiply updates with one
    BN_mod_mul_montgomery.  The block makes a fixed set of handles on
    entry and one BIGNUM per residue, and frees every one on leaving, so
    blocks in different threads share nothing.  Otherwise the same
    arithmetic runs on built-in ints.
    """
    lib = libcrypto()
    if lib is None or n % 2 == 0:
        yield _IntResidues(n)
        return
    ring = _Montgomery(lib, n)
    try:
        ring.open()
        yield ring
    finally:
        ring.close()

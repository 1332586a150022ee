"""Modular exponentiation in OpenSSL's Montgomery arithmetic.

A CPython `y * y % n` spends most of its time in the long division of the
reduction; OpenSSL's BN_mod_exp_mont squares in Montgomery form instead.
The functions come through ctypes from the libcrypto that the
interpreter's own `_hashlib` links, so no library beyond the interpreter's
is needed.  Where they cannot be resolved, or the modulus is even
(Montgomery reduction needs an odd one), the same exponentiation is
built-in `pow`.  Only BN_ functions are resolved: nothing here hashes.
"""

import ctypes
import functools
from contextlib import contextmanager

from .errors import InternalError

_PTR, _INT = ctypes.c_void_p, ctypes.c_int
# name -> (restype, argtypes), as declared in <openssl/bn.h>
_SIGNATURES = {
    "BN_new": (_PTR, []),
    "BN_free": (None, [_PTR]),
    "BN_CTX_new": (_PTR, []),
    "BN_CTX_free": (None, [_PTR]),
    "BN_bin2bn": (_PTR, [_PTR, _INT, _PTR]),
    "BN_bn2binpad": (_INT, [_PTR, _PTR, _INT]),
    "BN_MONT_CTX_new": (_PTR, []),
    "BN_MONT_CTX_set": (_INT, [_PTR, _PTR, _PTR]),
    "BN_MONT_CTX_free": (None, [_PTR]),
    "BN_mod_exp_mont": (_INT, [_PTR, _PTR, _PTR, _PTR, _PTR, _PTR]),
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


@contextmanager
def modular_power(n: int):
    """Yield power(base, exponent) = base^exponent mod n, for exponent >= 0.

    With libcrypto and an odd n, the Montgomery context of n is set once
    on entry and each call is one BN_mod_exp_mont; every BIGNUM and
    context belongs to this block and is freed on leaving it, so blocks
    in different threads share nothing.  Otherwise power is built-in pow.
    """
    lib = libcrypto()
    if lib is None or n % 2 == 0:
        yield lambda base, exponent: pow(base, exponent, n)
        return
    size = (n.bit_length() + 7) // 8
    ctx = mont = None
    numbers = []
    try:
        ctx = _call(lib, "BN_CTX_new")
        mont = _call(lib, "BN_MONT_CTX_new")
        for _ in range(4):
            numbers.append(_call(lib, "BN_new"))
        modulus, base_bn, exponent_bn, result = numbers
        _call(lib, "BN_bin2bn", n.to_bytes(size, "big"), size, modulus)
        _call(lib, "BN_MONT_CTX_set", mont, modulus, ctx)
        out = ctypes.create_string_buffer(size)

        def power(base: int, exponent: int) -> int:
            _call(lib, "BN_bin2bn", (base % n).to_bytes(size, "big"), size,
                  base_bn)
            e = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
            _call(lib, "BN_bin2bn", e, len(e), exponent_bn)
            _call(lib, "BN_mod_exp_mont", result, base_bn, exponent_bn,
                  modulus, ctx, mont)
            if lib.BN_bn2binpad(result, out, size) != size:
                raise InternalError("BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")

        yield power
    finally:
        for number in numbers:
            lib.BN_free(number)
        lib.BN_MONT_CTX_free(mont)
        lib.BN_CTX_free(ctx)

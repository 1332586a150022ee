"""Prime-field arithmetic, univariate and sparse multivariate polynomials,
and evaluation domains.

Moduli are below 2^32, so the product of two reduced values fits in a
uint64 and every bulk path works on numpy uint64 arrays.  Scalar
operations go through FieldElement and are tallied in Field.op_count so
cost experiments can meter them; the array paths are not metered, and
neither is coefficient arithmetic inside Polynomial or the plain-int
per-tag path of hauth (a tag's slope and its label randomness).  A
scalar is a FieldElement of the field or an int-like value that
operator.index takes (int, bool, numpy ints); anything else, such as a
float or a string, is refused with UsageError.  An
evaluation domain is a coset offset*<g> of a power-of-two subgroup (the
subgroup itself has offset 1); evaluation on and interpolation over a
domain run a vectorized radix-2 NTT in O(n log n) and take and return
uint64 coefficient arrays, and Polynomial.evaluate_array is the
O(n * deg) Horner path for arbitrary point arrays.
"""

from __future__ import annotations

import operator

import numpy as np

from .encoding import Reader, u32, u64
from .errors import UsageError
from .primes import is_prime

DEFAULT_MODULUS = 3 * 2**30 + 1  # two-adicity 30

_VERIFIED_MODULI: set = set()


class Field:
    """A prime field F_p.  Instances with equal modulus compare equal."""

    def __init__(self, modulus: int):
        if modulus >= 2**32:
            # products of two reduced values must fit in a uint64
            raise UsageError(f"modulus {modulus} is not below 2^32")
        if modulus not in _VERIFIED_MODULI:
            if not is_prime(modulus):
                raise UsageError(f"modulus {modulus} is not prime")
            _VERIFIED_MODULI.add(modulus)
        self.modulus = modulus
        self.op_count = 0  # scalar add/sub/mul/inv tally
        self._generator = None

    def __eq__(self, other):
        return isinstance(other, Field) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("Field", self.modulus))

    def __repr__(self):
        return f"Field({self.modulus})"

    def __call__(self, value) -> "FieldElement":
        v = _canonical(self, value)
        if isinstance(value, FieldElement):
            return value
        return FieldElement(self, v)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def generator(self) -> "FieldElement":
        """Smallest generator of the full multiplicative group."""
        if self._generator is None:
            p = self.modulus
            factors = _factor(p - 1)
            g = 2
            while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
                g += 1
            self._generator = FieldElement(self, g)
        return self._generator

    def nth_root(self, n: int) -> "FieldElement":
        """A generator of the order-n multiplicative subgroup."""
        p = self.modulus
        if (p - 1) % n != 0:
            raise UsageError(f"no subgroup of order {n} in F_{p}")
        return self.generator() ** ((p - 1) // n)


def _canonical(field: Field, value) -> int:
    """value as a reduced int of field: the value of a FieldElement of
    field, or an operator.index-able value reduced mod p.  Anything else,
    a float, a string or an element of another field, is a UsageError."""
    if isinstance(value, FieldElement):
        if value.field is not field and value.field != field:
            raise UsageError("element from a different field")
        return value.value
    try:
        return operator.index(value) % field.modulus
    except TypeError:
        raise UsageError(
            f"{type(value).__name__} is not a field value") from None


def _factor(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldElement:
    """An element of F_p; immutable value, 0 <= value < modulus."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise UsageError("mixed-field arithmetic")
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        self.field.op_count += 1
        return FieldElement(self.field, (self.value + v) % self.field.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        self.field.op_count += 1
        return FieldElement(self.field, (self.value - v) % self.field.modulus)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        self.field.op_count += 1
        return FieldElement(self.field, (v - self.value) % self.field.modulus)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        self.field.op_count += 1
        return FieldElement(self.field, self.value * v % self.field.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, (-self.value) % self.field.modulus)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise UsageError("inversion of zero")
        self.field.op_count += 2 * self.field.modulus.bit_length()
        return FieldElement(self.field, pow(self.value, -1, self.field.modulus))

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self * FieldElement(self.field, v).inverse()

    def __rtruediv__(self, other):
        return FieldElement(self.field, self._coerce(other)) / self

    def __pow__(self, exponent: int):
        p = self.field.modulus
        if exponent < 0:
            return self.inverse() ** (-exponent)
        self.field.op_count += max(2 * exponent.bit_length(), 1)
        return FieldElement(self.field, pow(self.value, exponent, p))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return ((other.field is self.field or other.field == self.field)
                    and self.value == other.value)
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.field.modulus, self.value))

    def __repr__(self):
        return f"{self.value}"

    def is_zero(self) -> bool:
        return self.value == 0


# ---------------------------------------------------------------------------
# univariate polynomials

class Polynomial:
    """Univariate polynomial, coefficients lowest-degree first, normalized.

    The zero polynomial is the empty coefficient sequence; its degree is
    None rather than any integer.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        vals = [_canonical(field, c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

    @classmethod
    def _reduced(cls, field: Field, vals: list) -> "Polynomial":
        """From a list of ints already in [0, p), which it trims of top
        zeros in place: the constructor without the checks and the
        reductions."""
        while vals and vals[-1] == 0:
            vals.pop()
        poly = cls.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(vals)
        return poly

    @staticmethod
    def zero(field: Field) -> "Polynomial":
        return Polynomial(field, [])

    @staticmethod
    def constant(field: Field, c) -> "Polynomial":
        return Polynomial(field, [c])

    @property
    def degree(self):
        """Degree as int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    def _check_field(self, other: "Polynomial"):
        if other.field is not self.field and other.field != self.field:
            raise UsageError("mixed-field arithmetic")

    def coefficient(self, i: int) -> FieldElement:
        v = self.coeffs[i] if i < len(self.coeffs) else 0
        return FieldElement(self.field, v)

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Polynomial.constant(self.field, other)
        self._check_field(other)
        p = self.field.modulus
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % p for x, y in zip(a, b)]
        out += a[len(b):]
        return Polynomial._reduced(self.field, out)

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Polynomial.constant(self.field, other)
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        p = self.field.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Polynomial._reduced(self.field, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = self.field(c).value
        p = self.field.modulus
        return Polynomial._reduced(self.field,
                                   [a * c % p for a in self.coeffs])

    def compose_scale(self, a) -> "Polynomial":
        """Substitute x -> a*x, i.e. return p(a*x)."""
        a = self.field(a).value
        p = self.field.modulus
        out, ak = [], 1
        for c in self.coeffs:
            out.append(c * ak % p)
            ak = ak * a % p
        return Polynomial._reduced(self.field, out)

    def evaluate(self, x) -> FieldElement:
        """Horner evaluation; metered through FieldElement arithmetic."""
        x = self.field(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized Horner over a uint64 point array (unmetered bulk path)."""
        mod = np.uint64(self.field.modulus)
        acc = np.zeros(len(xs), dtype=np.uint64)
        for c in reversed(self.coeffs):
            acc = _reduce(acc * xs + np.uint64(c), mod)
        return acc

    def __divmod__(self, divisor: "Polynomial"):
        """Schoolbook long division; cost O((quotient degree)*(divisor degree))."""
        if divisor.is_zero():
            raise UsageError("division by the zero polynomial")
        if self.is_zero() or len(self.coeffs) < len(divisor.coeffs):
            return Polynomial.zero(self.field), self
        p = self.field.modulus
        rem = list(self.coeffs)
        dd = len(divisor.coeffs) - 1
        lead_inv = pow(divisor.coeffs[-1], -1, p)
        quot = [0] * (len(rem) - dd)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dd] * lead_inv % p
            if c:
                quot[k] = c
                for j, b in enumerate(divisor.coeffs):
                    rem[k + j] = (rem[k + j] - c * b) % p
        return (Polynomial._reduced(self.field, quot),
                Polynomial._reduced(self.field, rem[:dd]))

    def serialize(self) -> bytes:
        return u32(len(self.coeffs)) + b"".join(u64(c) for c in self.coeffs)

    @staticmethod
    def deserialize(field: Field, reader: Reader) -> "Polynomial":
        """The inverse of serialize, refusing what it never writes: a
        coefficient of p or more, or a zero top coefficient."""
        coeffs = [reader.u64() for _ in range(reader.u32())]
        if any(c >= field.modulus for c in coeffs):
            raise UsageError("non-canonical polynomial coefficient")
        if coeffs and coeffs[-1] == 0:
            raise UsageError("polynomial with a zero top coefficient")
        return Polynomial._reduced(field, coeffs)


def interpolate(points) -> Polynomial:
    """Lagrange interpolation through (x, y) pairs; O(n^2).

    Builds the master product once, then peels each linear factor off by
    synthetic division.
    """
    points = list(points)
    if not points:
        raise UsageError("interpolation needs at least one point")
    field = points[0][0].field
    p = field.modulus
    xs = [field(x).value for x, _ in points]
    ys = [field(y).value for _, y in points]
    if len(set(xs)) != len(xs):
        raise UsageError("duplicate x-coordinates")
    # master(x) = prod (x - x_i)
    master = [1]
    for x in xs:
        nxt = [0] * (len(master) + 1)
        for i, c in enumerate(master):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - c * x) % p
        master = nxt
    acc = [0] * len(xs)
    for x, y in zip(xs, ys):
        # l(x) = master / (x - x_i), by synthetic division
        li = [0] * len(xs)
        carry = master[-1]
        for k in range(len(xs) - 1, -1, -1):
            li[k] = carry
            carry = (master[k] + carry * x) % p
        # normalize so l(x_i) = 1
        denom = 0
        xk = 1
        for c in li:
            denom = (denom + c * xk) % p
            xk = xk * x % p
        s = y * pow(denom, -1, p) % p
        if s:
            for k in range(len(xs)):
                acc[k] = (acc[k] + s * li[k]) % p
    return Polynomial._reduced(field, acc)


# Below this many entries numpy's uint64 % by a scalar is the cheapest
# reduction; the forms below take more numpy calls, and their lower cost
# per entry repays those calls only on longer arrays, such as the
# prover's.  The break-even, measured on x86-64 with numpy 2.4, is near
# 100 entries for sums and near 350 for products.
_SHORT_ARRAY = 256


def _reduce(t: np.ndarray, mod: np.uint64) -> np.ndarray:
    """t mod p, for a uint64 array t and mod = np.uint64(p): the values of
    t % mod.  numpy's uint64 remainder by a scalar is about three times
    slower than its floor division, so a long array is reduced as
    t - (t // p) p."""
    if t.size < _SHORT_ARRAY:
        return t % mod
    return t - t // mod * mod


def _reduce_sum(s: np.ndarray, mod: np.uint64) -> np.ndarray:
    """s mod p, for a uint64 array s below 2p, such as a sum of two
    reduced values or of one and p minus another, and mod = np.uint64(p):
    the values of s % mod.  On a long array, s - p wraps past 2^64 - p
    where s < p, so the smaller of s and s - p is s mod p."""
    if s.size < _SHORT_ARRAY:
        return s % mod
    return np.minimum(s, s - mod)


def _power_array(base: int, n: int, p: int) -> np.ndarray:
    """[base^0, ..., base^(n-1)] mod p as uint64, via doubling."""
    arr = np.ones(1, dtype=np.uint64)
    mod = np.uint64(p)
    while len(arr) < n:
        step = np.uint64(pow(base, len(arr), p))
        arr = np.concatenate([arr, _reduce(arr * step, mod)])
    return arr[:n]


def _pow_array(xs: np.ndarray, exponent: int, p: int) -> np.ndarray:
    """Elementwise xs^exponent mod p by square-and-multiply over the array."""
    mod = np.uint64(p)
    acc = np.ones(len(xs), dtype=np.uint64)
    base = np.asarray(xs, dtype=np.uint64)
    while exponent:
        if exponent & 1:
            acc = _reduce(acc * base, mod)
        base = _reduce(base * base, mod)
        exponent >>= 1
    return acc


def _inverse_array(xs: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses mod p of nonzero reduced values by batch
    inversion: multiply neighbours pairwise until one product is left,
    invert it with one pow, then walk back down, each element's inverse
    being its pair's inverse times its partner.  About three array
    multiplications per element, against some 60 for Fermat."""
    mod = np.uint64(p)
    levels = []
    cur = np.asarray(xs, dtype=np.uint64)
    while len(cur) > 1:
        if len(cur) % 2:
            cur = np.append(cur, np.uint64(1))
        levels.append(cur)
        cur = _reduce(cur[0::2] * cur[1::2], mod)
    inv = np.array([pow(int(v), -1, p) for v in cur], dtype=np.uint64)
    for level in reversed(levels):
        inv = inv[:len(level) // 2]  # drop the padding 1's inverse
        out = np.empty(len(level), dtype=np.uint64)
        out[0::2] = _reduce(inv * level[1::2], mod)
        out[1::2] = _reduce(inv * level[0::2], mod)
        inv = out
    return inv[:len(xs)]


def _ntt(coeffs: np.ndarray, root: int, p: int) -> np.ndarray:
    """Evaluations at root^0, ..., root^(n-1) of the polynomial with the given
    n coefficients (n a power of two, root of order n).

    Radix-2 decimation in time without bit reversal: before each stage, row
    r of the (s, L) view holds the length-L transform of the coefficients
    r, r + s, r + 2s, ...; a stage merges rows r and r + s/2 with one
    butterfly over whole arrays.
    """
    n = len(coeffs)
    mod = np.uint64(p)
    twiddles = _power_array(root, max(n // 2, 1), p)
    cur = np.asarray(coeffs, dtype=np.uint64).reshape(n, 1)
    while cur.shape[0] > 1:
        s, length = cur.shape
        even, odd = cur[:s // 2], cur[s // 2:]
        odd = _reduce(odd * twiddles[::n // (2 * length)], mod)
        cur = np.concatenate([_reduce_sum(even + odd, mod),
                              _reduce_sum(even + (mod - odd), mod)], axis=1)
    return cur.reshape(n)


def interpolate_on_domain(values, domain: "EvaluationDomain") -> np.ndarray:
    """The n coefficients, lowest degree first, of the polynomial of
    degree below n taking the given reduced values in domain order, as a
    reduced uint64 array with its top zeros kept.

    On a subgroup of order n with generator g,
    c_k = n^{-1} sum_j v_j g^{-jk}: an inverse NTT.  The offset h then
    rescales c_k by h^{-k}.
    """
    p = domain.field.modulus
    n = domain.size
    if len(values) != n:
        raise UsageError("value count does not match domain size")
    mod = np.uint64(p)
    coeffs = _ntt(values, pow(domain.generator.value, -1, p), p)
    coeffs = _reduce(coeffs * np.uint64(pow(n, -1, p)), mod)
    return _reduce(
        coeffs * _power_array(pow(domain.offset.value, -1, p), n, p), mod)


def evaluate_on_domain(coeffs, domain: "EvaluationDomain") -> np.ndarray:
    """Evaluations in domain order of the polynomial with the given
    reduced coefficients, lowest degree first, at most domain.size of
    them: scale coefficient k by offset^k, zero-extend, then one NTT."""
    n = domain.size
    if len(coeffs) > n:
        raise UsageError("more coefficients than domain points")
    p = domain.field.modulus
    extended = np.zeros(n, dtype=np.uint64)
    extended[:len(coeffs)] = _reduce(
        np.asarray(coeffs, dtype=np.uint64)
        * _power_array(domain.offset.value, len(coeffs), p), np.uint64(p))
    return _ntt(extended, domain.generator.value, p)


# ---------------------------------------------------------------------------
# evaluation domains

class EvaluationDomain:
    """The coset offset*<generator> of a power-of-two multiplicative
    subgroup; the subgroup itself is the coset with offset 1."""

    def __init__(self, field: Field, size: int, generator: FieldElement,
                 offset: FieldElement):
        self.field = field
        self.size = size
        self.generator = generator
        self.offset = offset
        self._point_array = None

    @staticmethod
    def subgroup(field: Field, size: int) -> "EvaluationDomain":
        _check_pow2(size)
        gen = field.nth_root(size)
        if size > 1 and (gen ** (size // 2)).value == 1:
            raise UsageError("generator has too small an order")
        return EvaluationDomain(field, size, gen, field.one)

    @staticmethod
    def coset(field: Field, size: int, offset) -> "EvaluationDomain":
        dom = EvaluationDomain.subgroup(field, size)
        offset = field(offset)
        if offset.is_zero():
            raise UsageError("coset offset must be nonzero")
        return EvaluationDomain(field, size, dom.generator, offset)

    def point_array(self) -> np.ndarray:
        if self._point_array is None:
            p = self.field.modulus
            arr = _power_array(self.generator.value, self.size, p)
            self._point_array = _reduce(arr * np.uint64(self.offset.value),
                                        np.uint64(p))
        return self._point_array

    def point(self, i: int) -> FieldElement:
        """i-th domain point, offset * generator^i, in O(log i)."""
        return self.offset * self.generator ** i

    def contains(self, x) -> bool:
        # x = offset * y with y^size = 1 exactly when x^size = offset^size
        return self.field(x) ** self.size == self.offset ** self.size

    def squared(self) -> "EvaluationDomain":
        """Image of this domain under x -> x^2 (half size)."""
        if self.size < 2:
            raise UsageError("cannot halve a size-1 domain")
        return EvaluationDomain(self.field, self.size // 2,
                                self.generator * self.generator,
                                self.offset * self.offset)


def _check_pow2(n: int):
    if n < 1 or n & (n - 1):
        raise UsageError(f"size {n} is not a power of two")


# ---------------------------------------------------------------------------
# sparse multivariate polynomials

class MultivariatePoly:
    """Sparse polynomial {exponent tuple: coeff} in num_vars variables: a
    STARK transition predicate over a window of trace cells, or a
    two-party authenticator tag in (x, y)."""

    def __init__(self, field: Field, num_vars: int, terms: dict):
        clean = {}
        for exps, c in terms.items():
            if len(exps) != num_vars:
                raise UsageError("exponent tuple arity mismatch")
            v = _canonical(field, c)
            if v:
                clean[tuple(exps)] = v
        self.field = field
        self.num_vars = num_vars
        self.terms = clean

    @staticmethod
    def from_univariate(poly: Polynomial, var: int,
                        num_vars: int = 2) -> "MultivariatePoly":
        """Embed a univariate polynomial as a function of variable var."""
        if not 0 <= var < num_vars:
            raise UsageError(f"variable index must be below {num_vars}")
        terms = {tuple(k if v == var else 0 for v in range(num_vars)): c
                 for k, c in enumerate(poly.coeffs)}
        return MultivariatePoly(poly.field, num_vars, terms)

    def __eq__(self, other):
        return (isinstance(other, MultivariatePoly)
                and self.field == other.field
                and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field.modulus, self.num_vars,
                     frozenset(self.terms.items())))

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def _coerce(self, other) -> "MultivariatePoly":
        if isinstance(other, (int, FieldElement)):
            other = MultivariatePoly(self.field, self.num_vars,
                                     {(0,) * self.num_vars: other})
        if other.field != self.field or other.num_vars != self.num_vars:
            raise UsageError("mixed-field or mixed-arity arithmetic")
        return other

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in self._coerce(other).terms.items():
            out[k] = out.get(k, 0) + v
        return MultivariatePoly(self.field, self.num_vars, out)

    def __sub__(self, other):
        return self + self._coerce(other).scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        other = self._coerce(other)
        out = {}
        for ea, a in self.terms.items():
            for eb, b in other.terms.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                out[key] = out.get(key, 0) + a * b
        return MultivariatePoly(self.field, self.num_vars, out)

    def scale(self, c) -> "MultivariatePoly":
        c = self.field(c).value
        return MultivariatePoly(self.field, self.num_vars,
                                {k: v * c for k, v in self.terms.items()})

    def evaluate(self, *xs) -> FieldElement:
        """Scalar evaluation at one point; metered as two ops per term."""
        if len(xs) != self.num_vars:
            raise UsageError("wrong number of polynomial inputs")
        p = self.field.modulus
        xs = [self.field(x).value for x in xs]
        acc = 0
        for exps, c in self.terms.items():
            for x, e in zip(xs, exps):
                c = c * pow(x, e, p) % p
            acc = (acc + c) % p
            self.field.op_count += 2
        return FieldElement(self.field, acc)

    def evaluate_array(self, values) -> np.ndarray:
        """Vectorized evaluation over uint64 arrays of reduced values, one
        per variable."""
        if len(values) != self.num_vars:
            raise UsageError("wrong number of predicate inputs")
        mod = np.uint64(self.field.modulus)
        acc = np.zeros(len(values[0]), dtype=np.uint64)
        for exps, c in self.terms.items():
            term = np.full(len(acc), c, dtype=np.uint64)
            for v, e in zip(values, exps):
                for _ in range(e):
                    term = _reduce(term * v, mod)
            acc = _reduce_sum(acc + term, mod)
        return acc

    def serialize(self) -> bytes:
        items = sorted(self.terms.items())
        out = [u32(self.num_vars), u32(len(items))]
        for exps, c in items:
            out += [u32(e) for e in exps]
            out.append(u64(c))
        return b"".join(out)

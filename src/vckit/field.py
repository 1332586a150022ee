"""Prime-field arithmetic, univariate/bivariate polynomials and evaluation domains.

Moduli are below 2^32, so the product of two reduced values fits in a
uint64 and every bulk path works on numpy uint64 arrays.  Scalar
operations go through FieldElement and are tallied in Field.op_count so
cost experiments can meter them; the array paths are not metered.  An
evaluation domain is a coset offset*<g> of a power-of-two subgroup (the
subgroup itself has offset 1); evaluation on and interpolation over a
domain run a vectorized radix-2 NTT in O(n log n), and
Polynomial.evaluate_array is the O(n * deg) Horner path for arbitrary
point arrays.
"""

from __future__ import annotations

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
            if not is_prime(modulus, rounds=40):
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
        if isinstance(value, FieldElement):
            if value.field != self:
                raise UsageError("element from a different field")
            return value
        return FieldElement(self, value % self.modulus)

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
            if other.field != self.field:
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
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.field.modulus, self.value))

    def __repr__(self):
        return f"{self.value}"

    def is_zero(self) -> bool:
        return self.value == 0

    def to_bytes(self) -> bytes:
        return u64(self.value)


# ---------------------------------------------------------------------------
# univariate polynomials

class Polynomial:
    """Univariate polynomial, coefficients lowest-degree first, normalized.

    The zero polynomial is the empty coefficient sequence; its degree is
    None rather than any integer.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        vals = [c.value if isinstance(c, FieldElement) else c % field.modulus
                for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

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

    def coefficient(self, i: int) -> FieldElement:
        v = self.coeffs[i] if i < len(self.coeffs) else 0
        return FieldElement(self.field, v)

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Polynomial.constant(self.field, other)
        if self.field != other.field:
            raise UsageError("mixed-field arithmetic")
        p = self.field.modulus
        n = max(len(self.coeffs), len(other.coeffs))
        out = [((self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)) % p
               for i in range(n)]
        return Polynomial(self.field, out)

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = Polynomial.constant(self.field, other)
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        if self.field != other.field:
            raise UsageError("mixed-field arithmetic")
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        p = self.field.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = self.field(c).value
        p = self.field.modulus
        return Polynomial(self.field, [a * c % p for a in self.coeffs])

    def compose_scale(self, a) -> "Polynomial":
        """Substitute x -> a*x, i.e. return p(a*x)."""
        a = self.field(a).value
        p = self.field.modulus
        out, ak = [], 1
        for c in self.coeffs:
            out.append(c * ak % p)
            ak = ak * a % p
        return Polynomial(self.field, out)

    def evaluate(self, x) -> FieldElement:
        """Horner evaluation; metered through FieldElement arithmetic."""
        x = self.field(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x) -> FieldElement:
        return self.evaluate(x)

    def evaluate_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized Horner over a uint64 point array (unmetered bulk path)."""
        p = self.field.modulus
        acc = np.zeros(len(xs), dtype=np.uint64)
        for c in reversed(self.coeffs):
            acc = (acc * xs + np.uint64(c)) % np.uint64(p)
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
        return Polynomial(self.field, quot), Polynomial(self.field, rem[:dd])

    def serialize(self) -> bytes:
        return u32(len(self.coeffs)) + b"".join(u64(c) for c in self.coeffs)

    @staticmethod
    def deserialize(field: Field, reader: Reader) -> "Polynomial":
        n = reader.u32()
        return Polynomial(field, [reader.u64() for _ in range(n)])


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
    return Polynomial(field, acc)


def _power_array(base: int, n: int, p: int) -> np.ndarray:
    """[base^0, ..., base^(n-1)] mod p as uint64, via doubling."""
    arr = np.ones(1, dtype=np.uint64)
    mod = np.uint64(p)
    while len(arr) < n:
        step = np.uint64(pow(base, len(arr), p))
        arr = np.concatenate([arr, (arr * step) % mod])
    return arr[:n]


def _pow_array(xs: np.ndarray, exponent: int, p: int) -> np.ndarray:
    """Elementwise xs^exponent mod p by square-and-multiply over the array."""
    mod = np.uint64(p)
    acc = np.ones(len(xs), dtype=np.uint64)
    base = np.asarray(xs, dtype=np.uint64)
    while exponent:
        if exponent & 1:
            acc = acc * base % mod
        base = base * base % mod
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
        cur = cur[0::2] * cur[1::2] % mod
    inv = np.array([pow(int(v), -1, p) for v in cur], dtype=np.uint64)
    for level in reversed(levels):
        inv = inv[:len(level) // 2]  # drop the padding 1's inverse
        out = np.empty(len(level), dtype=np.uint64)
        out[0::2] = inv * level[1::2] % mod
        out[1::2] = inv * level[0::2] % mod
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
        odd = odd * twiddles[::n // (2 * length)] % mod
        cur = np.concatenate([(even + odd) % mod, (even + (mod - odd)) % mod],
                             axis=1)
    return cur.reshape(n)


def _values_array(values, field: Field) -> np.ndarray:
    p = field.modulus
    return np.array([v.value if isinstance(v, FieldElement) else v % p
                     for v in values], dtype=np.uint64)


def interpolate_on_domain(values, domain: "EvaluationDomain") -> Polynomial:
    """Interpolate evaluations given in domain order.

    On a subgroup of order n with generator g,
    c_k = n^{-1} sum_j v_j g^{-jk}: an inverse NTT.  The offset h then
    rescales c_k by h^{-k}.
    """
    field = domain.field
    p = field.modulus
    if len(values) != domain.size:
        raise UsageError("value count does not match domain size")
    n = domain.size
    mod = np.uint64(p)
    coeffs = _ntt(_values_array(values, field),
                  pow(domain.generator.value, -1, p), p)
    coeffs = coeffs * np.uint64(pow(n, -1, p)) % mod
    coeffs = coeffs * _power_array(pow(domain.offset.value, -1, p), n, p) % mod
    return Polynomial(field, coeffs.tolist())


def evaluate_on_domain(poly: Polynomial, domain: "EvaluationDomain"
                       ) -> np.ndarray:
    """Evaluations of poly in domain order as an array: scale coefficient
    k by offset^k, then one NTT.  The polynomial must have fewer
    coefficients than the domain has points."""
    n = domain.size
    if len(poly.coeffs) > n:
        raise UsageError("polynomial degree is not below the domain size")
    p = domain.field.modulus
    coeffs = np.zeros(n, dtype=np.uint64)
    coeffs[:len(poly.coeffs)] = poly.coeffs
    coeffs = coeffs * _power_array(domain.offset.value, n, p) % np.uint64(p)
    return _ntt(coeffs, domain.generator.value, p)


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
        self._points = None
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
            self._point_array = arr * np.uint64(self.offset.value) % np.uint64(p)
        return self._point_array

    def points(self):
        if self._points is None:
            self._points = [FieldElement(self.field, int(v))
                            for v in self.point_array()]
        return self._points

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
# bivariate polynomials (two-party authenticator tags)

class BivariatePolynomial:
    """Polynomial in x, y stored as a sparse {(i, j): coeff} map."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: dict):
        p = field.modulus
        clean = {}
        for (i, j), c in coeffs.items():
            v = (c.value if isinstance(c, FieldElement) else c) % p
            if v:
                clean[(i, j)] = v
        self.field = field
        self.coeffs = clean

    @staticmethod
    def from_univariate(poly: Polynomial, var: int) -> "BivariatePolynomial":
        """Embed a univariate polynomial as a function of variable 0 (x) or 1 (y)."""
        if var not in (0, 1):
            raise UsageError("variable index must be 0 or 1")
        coeffs = {}
        for k, c in enumerate(poly.coeffs):
            key = (k, 0) if var == 0 else (0, k)
            coeffs[key] = c
        return BivariatePolynomial(poly.field, coeffs)

    def __eq__(self, other):
        return (isinstance(other, BivariatePolynomial)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"BivariatePolynomial({self.coeffs})"

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def total_degree(self):
        if not self.coeffs:
            return None
        return max(i + j for i, j in self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = BivariatePolynomial(self.field, {(0, 0): other})
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return BivariatePolynomial(self.field, out)

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = BivariatePolynomial(self.field, {(0, 0): other})
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        out = {}
        for (i, j), a in self.coeffs.items():
            for (k, l), b in other.coeffs.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + a * b
        return BivariatePolynomial(self.field, out)

    def scale(self, c) -> "BivariatePolynomial":
        c = self.field(c).value
        return BivariatePolynomial(
            self.field, {k: v * c for k, v in self.coeffs.items()})

    def evaluate(self, x, y) -> FieldElement:
        x, y = self.field(x), self.field(y)
        p = self.field.modulus
        acc = 0
        for (i, j), c in self.coeffs.items():
            acc = (acc + c * pow(x.value, i, p) * pow(y.value, j, p)) % p
            self.field.op_count += 2
        return FieldElement(self.field, acc)

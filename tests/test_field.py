"""Field, polynomial and domain tests against independent oracles."""

import random

import numpy as np
import pytest

import symbolic_oracle as oracle
from vckit import hauth, stark
from vckit.errors import UsageError
from vckit.field import (DEFAULT_MODULUS, EvaluationDomain, Field,
                         FieldElement, MultivariatePoly, Polynomial,
                         _SHORT_ARRAY, _inverse_array, _reduce, _reduce_sum,
                         evaluate_on_domain, interpolate,
                         interpolate_on_domain)

F13 = Field(13)
F17 = Field(17)
F97 = Field(97)
FBIG = Field(DEFAULT_MODULUS)


def test_default_modulus_structure():
    p = DEFAULT_MODULUS
    assert p == 3 * 2**30 + 1
    assert (p - 1) % 2**30 == 0


def test_nonprime_modulus_rejected():
    with pytest.raises(UsageError):
        Field(15)


def test_modulus_beyond_uint64_products_rejected():
    """Bulk paths multiply two reduced values in uint64, so p < 2^32."""
    for prime in (2**32 + 15, 2**64 - 2**32 + 1):
        with pytest.raises(UsageError, match="2\\^32"):
            Field(prime)
    assert Field(2**32 - 5).modulus == 2**32 - 5


def test_arithmetic_exhaustive_f13():
    """Every op on F_13 against plain integer arithmetic mod 13."""
    for a in range(13):
        for b in range(13):
            x, y = F13(a), F13(b)
            assert (x + y).value == (a + b) % 13
            assert (x - y).value == (a - b) % 13
            assert (x * y).value == (a * b) % 13
            if b:
                assert ((x / y) * y).value == a


def test_int_mixing_and_negation():
    x = F17(5)
    assert x + 20 == F17(25 % 17)
    assert 3 - x == F17(-2)
    assert (-x).value == 12
    assert 2 * x == F17(10)


def test_inverse_and_pow():
    for a in range(1, 17):
        x = F17(a)
        assert (x.inverse() * x).value == 1
        assert (x ** 5).value == pow(a, 5, 17)
        assert (x ** -3).value == pow(a, -3, 17)


def test_zero_inverse_rejected():
    with pytest.raises(UsageError):
        F17.zero.inverse()


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(UsageError):
        F13(1) + F17(1)


def test_element_immutable():
    x = F13(4)
    with pytest.raises(AttributeError):
        x.value = 5


def test_generator_has_full_order():
    for field in (F13, F17, F97, FBIG):
        g = field.generator()
        p = field.modulus
        assert (g ** (p - 1)).value == 1
        # order is exactly p-1: no prime factor of p-1 divides it out
        n = p - 1
        factors = set()
        d = 2
        while d * d <= n:
            if n % d == 0:
                factors.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            factors.add(n)
        for q in factors:
            assert (g ** ((p - 1) // q)).value != 1


def test_nth_root_orders():
    for n in (2, 4, 1024, 2**20):
        w = FBIG.nth_root(n)
        assert (w ** n).value == 1
        assert (w ** (n // 2)).value != 1
    with pytest.raises(UsageError):
        F13.nth_root(5)


def test_op_count_meters_scalar_ops():
    f = Field(97)
    before = f.op_count
    _ = f(3) + f(4)
    _ = f(3) * f(4)
    assert f.op_count == before + 2


def test_equal_fields_mix_and_other_fields_refuse():
    """Elements and polynomials of two equal Field(97) instances combine
    like one field's; with Field(101) every operation is refused."""
    a, b = Field(97), Field(97)
    assert a is not b and a == b
    x, y = a(90), b(20)
    assert (x + y).value == 13 and (x - y).value == 70 and (y - x).value == 27
    assert (x * y).value == 90 * 20 % 97 and (x / y) * y == x
    assert x == b(90) and b(x) is x and a(y) is y
    assert (Polynomial(a, [1, 2]) + Polynomial(b, [3])).coeffs == (4, 2)
    assert (Polynomial(a, [1, 2]) * Polynomial(b, [0, 1])).coeffs == (0, 1, 2)
    assert Polynomial(a, [y, x]).coeffs == (20, 90)
    c = Field(101)
    z = c(3)
    assert x != c(90)
    for op in (lambda: x + z, lambda: x - z, lambda: z - x, lambda: x * z,
               lambda: x / z, lambda: a(z), lambda: Polynomial(a, [z]),
               lambda: Polynomial(a, [1]) + Polynomial(c, [1]),
               lambda: Polynomial(a, [1]) * Polynomial(c, [1])):
        with pytest.raises(UsageError):
            op()


# ---------------------------------------------------------------------------
# polynomials

def _poly_oracle_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_poly_mul_against_convolution_oracle():
    rng = random.Random(7)
    for _ in range(50):
        a = [rng.randrange(17) for _ in range(rng.randrange(1, 8))]
        b = [rng.randrange(17) for _ in range(rng.randrange(1, 8))]
        got = Polynomial(F17, a) * Polynomial(F17, b)
        want = Polynomial(F17, _poly_oracle_mul(a, b, 17))
        assert got == want


def test_zero_poly_degree_is_none():
    assert Polynomial.zero(F17).degree is None
    assert Polynomial(F17, [0, 0]).degree is None
    assert Polynomial(F17, [3]).degree == 0


def test_divmod_identity():
    rng = random.Random(9)
    for _ in range(100):
        num = Polynomial(F97, [rng.randrange(97) for _ in range(10)])
        den = Polynomial(F97, [rng.randrange(97) for _ in range(4)] + [1])
        q, r = divmod(num, den)
        assert q * den + r == num
        assert r.is_zero() or r.degree < den.degree


def test_division_by_zero_poly_rejected():
    with pytest.raises(UsageError):
        divmod(Polynomial(F17, [1]), Polynomial.zero(F17))


def test_evaluate_matches_naive_sum():
    rng = random.Random(3)
    coeffs = [rng.randrange(97) for _ in range(9)]
    poly = Polynomial(F97, coeffs)
    for x in range(97):
        want = sum(c * pow(x, k, 97) for k, c in enumerate(coeffs)) % 97
        assert poly.evaluate(x).value == want


def test_evaluate_array_matches_scalar():
    rng = random.Random(4)
    poly = Polynomial(FBIG, [rng.randrange(FBIG.modulus) for _ in range(20)])
    dom = EvaluationDomain.subgroup(FBIG, 32)
    arr = poly.evaluate_array(dom.point_array())
    for i, v in enumerate(arr):
        assert int(v) == poly.evaluate(dom.point(i)).value


def test_compose_scale():
    poly = Polynomial(F17, [3, 1, 4])
    a = F17(5)
    scaled = poly.compose_scale(a)
    for x in range(17):
        assert scaled.evaluate(x) == poly.evaluate(a * x)


def test_interpolate_roundtrip():
    rng = random.Random(11)
    pts = [(F97(x), F97(rng.randrange(97))) for x in rng.sample(range(97), 12)]
    poly = interpolate(pts)
    assert poly.degree is None or poly.degree < 12
    for x, y in pts:
        assert poly.evaluate(x) == y


def test_interpolate_duplicate_x_rejected():
    with pytest.raises(UsageError):
        interpolate([(F17(1), F17(2)), (F17(1), F17(3))])


def coefficient_list(poly, n):
    """poly's n coefficients, lowest degree first, top zeros included:
    the form the NTT helpers take and return."""
    return list(poly.coeffs) + [0] * (n - len(poly.coeffs))


@pytest.mark.parametrize("field,size", [(F17, 16), (FBIG, 64)])
def test_interpolate_on_subgroup_matches_generic(field, size):
    rng = random.Random(size)
    dom = EvaluationDomain.subgroup(field, size)
    vals = [rng.randrange(field.modulus) for _ in range(size)]
    fast = interpolate_on_domain(np.array(vals, dtype=np.uint64), dom)
    slow = interpolate(list(zip(oracle.domain_points(dom),
                                [field(v) for v in vals])))
    assert fast.dtype == np.uint64
    assert fast.tolist() == coefficient_list(slow, size)


def test_interpolate_on_coset_roundtrip():
    rng = random.Random(21)
    dom = EvaluationDomain.coset(FBIG, 32, FBIG.generator())
    poly = Polynomial(FBIG, [rng.randrange(FBIG.modulus) for _ in range(32)])
    vals = poly.evaluate_array(dom.point_array())
    assert interpolate_on_domain(vals, dom).tolist() == coefficient_list(
        poly, 32)


# sizes 1 .. the largest power of two below 2^10 that each field supports
NTT_CASES = [pytest.param(field, k, id=f"F{field.modulus}-2^{k}")
             for field, top in ((F17, 4), (F97, 5), (FBIG, 10))
             for k in range(top + 1)]


def _domain(field, size, kind):
    if kind == "subgroup":
        return EvaluationDomain.subgroup(field, size)
    return EvaluationDomain.coset(field, size, field.generator())


@pytest.mark.parametrize("kind", ["subgroup", "coset"])
@pytest.mark.parametrize("field,log_size", NTT_CASES)
def test_ntt_matches_horner_and_lagrange(field, log_size, kind):
    """Forward NTT against Horner evaluate_array; inverse NTT against
    generic Lagrange interpolation."""
    size = 2 ** log_size
    rng = random.Random(field.modulus * 64 + log_size * 2 + (kind == "coset"))
    dom = _domain(field, size, kind)
    coeffs = [rng.randrange(field.modulus) for _ in range(size)]
    poly = Polynomial(field, coeffs)
    assert (evaluate_on_domain(np.array(coeffs, dtype=np.uint64), dom)
            .tolist() == poly.evaluate_array(dom.point_array()).tolist())
    vals = [rng.randrange(field.modulus) for _ in range(size)]
    slow = interpolate(list(zip(oracle.domain_points(dom),
                                [field(v) for v in vals])))
    assert (interpolate_on_domain(np.array(vals, dtype=np.uint64), dom)
            .tolist() == coefficient_list(slow, size))


@pytest.mark.parametrize("field", [F17, F97, FBIG])
def test_batch_inverse_matches_pow(field):
    """Batch inversion against pow(x, -1, p), for every length up to 70
    (odd lengths pad a level) and for random values at 2^12 + 3."""
    p = field.modulus
    rng = random.Random(p)
    for n in list(range(71)) + [2**12 + 3]:
        xs = [rng.randrange(1, p) for _ in range(n)]
        got = _inverse_array(np.array(xs, dtype=np.uint64), p)
        assert got.tolist() == [pow(x, -1, p) for x in xs]


# the largest prime below 2^32, the widest modulus Field takes
P32 = 2**32 - 5


def _check_reduction(reduce, t, mod):
    """reduce(t, mod) against t % mod, flat and, at even lengths, as two
    rows."""
    got = reduce(t, mod)
    assert got.dtype == np.uint64 and got.tolist() == (t % mod).tolist()
    if t.size % 2 == 0:
        rows = t.reshape(2, -1)
        assert reduce(rows, mod).tolist() == (rows % mod).tolist()


def _with_edges(values, edges):
    """values with as many of the edges as fit written in front."""
    k = min(len(values), len(edges))
    values[:k] = edges[:k]
    return values


@pytest.mark.parametrize("p", [DEFAULT_MODULUS, 97, P32])
@pytest.mark.parametrize("n", [0, 1, _SHORT_ARRAY - 1, _SHORT_ARRAY,
                               4 * _SHORT_ARRAY + 3])
def test_reductions_match_remainder(p, n):
    """_reduce and _reduce_sum against numpy's % on seeded uint64 arrays
    of n entries, on both sides of the length where they change form.
    _reduce takes any uint64 values, and products of two reduced values
    led by 0, p - 1, (p - 1)^2 and 2(p - 1); _reduce_sum takes sums of
    two reduced values and of one and p minus another, led by 0, p - 1
    and 2(p - 1)."""
    mod = np.uint64(p)
    rng = np.random.default_rng(p + n)
    a, b = (rng.integers(0, p, n, dtype=np.uint64) for _ in range(2))
    _check_reduction(_reduce, rng.integers(0, 2**64, n, dtype=np.uint64),
                     mod)
    _check_reduction(_reduce, _with_edges(
        a * b, np.array([0, p - 1, (p - 1)**2, 2 * (p - 1)],
                        dtype=np.uint64)), mod)
    for s in (a + b, a + (mod - b)):
        _check_reduction(_reduce_sum, _with_edges(
            s, np.array([0, p - 1, 2 * (p - 1)], dtype=np.uint64)), mod)


def test_evaluate_on_domain_short_and_oversized_polys():
    """A coefficient array shorter than the domain is zero-extended, top
    zeros included; one longer than the domain is refused, on 16 points
    and on one."""
    for size in (16, 1):
        for kind in ("subgroup", "coset"):
            dom = _domain(FBIG, size, kind)
            for coeffs in ([], [7], [1, 2, 3], [5, 0, 0]):
                if len(coeffs) > size:
                    continue
                want = Polynomial(FBIG, coeffs).evaluate_array(
                    dom.point_array())
                got = evaluate_on_domain(np.array(coeffs, dtype=np.uint64),
                                         dom)
                assert got.tolist() == want.tolist()
            with pytest.raises(UsageError):
                evaluate_on_domain(np.ones(size + 1, dtype=np.uint64), dom)


def test_evaluate_on_domain_refuses_explicit_and_wide_fields():
    """Domains are cosets of a power-of-two subgroup only, and a field too
    wide for uint64 products is refused before a polynomial over it exists."""
    assert not hasattr(EvaluationDomain, "explicit")
    with pytest.raises(UsageError, match="2\\^32"):
        wide = Field(2**64 - 2**32 + 1)
        evaluate_on_domain(Polynomial(wide, [1, 2]),
                           EvaluationDomain.subgroup(wide, 8))


def test_serialize_roundtrip():
    from vckit.encoding import Reader
    poly = Polynomial(F97, [5, 0, 3])
    back = Polynomial.deserialize(F97, Reader(poly.serialize()))
    assert back == poly


# ---------------------------------------------------------------------------
# domains

def test_subgroup_domain_points_distinct_and_closed():
    dom = EvaluationDomain.subgroup(F17, 8)
    pts = {pt.value for pt in oracle.domain_points(dom)}
    assert len(pts) == 8
    for pt in oracle.domain_points(dom):
        assert dom.contains(pt)
    assert not dom.contains(F17(3))  # 3 generates the full group of order 16


def test_coset_disjoint_from_subgroup():
    sub = EvaluationDomain.subgroup(FBIG, 16)
    coset = EvaluationDomain.coset(FBIG, 64, FBIG.generator())
    for i in range(64):
        assert not sub.contains(coset.point(i))


def test_domain_point_matches_array():
    dom = EvaluationDomain.coset(F17, 8, F17(3))
    for i in range(8):
        assert dom.point(i).value == int(dom.point_array()[i])


def test_squared_domain():
    dom = EvaluationDomain.coset(F17, 8, F17(3))
    sq = dom.squared()
    assert sq.size == 4
    for i in range(8):
        x = dom.point(i)
        assert sq.contains(x * x)


def test_vanishing_poly_and_eval_agree():
    """Z_D vanishes exactly on the domain, which contains exactly its
    points."""
    for dom in (EvaluationDomain.subgroup(F17, 8),
                EvaluationDomain.coset(F17, 4, F17(3))):
        z = oracle.vanishing_poly(dom)
        members = {pt.value for pt in oracle.domain_points(dom)}
        for x in range(17):
            assert z.evaluate(x).is_zero() == (x in members)
            assert dom.contains(F17(x)) == (x in members)


def test_non_pow2_subgroup_rejected():
    with pytest.raises(UsageError):
        EvaluationDomain.subgroup(F17, 3)


# ---------------------------------------------------------------------------
# bivariate

def test_bivariate_evaluate_oracle():
    rng = random.Random(5)
    terms = {(i, j): rng.randrange(97) for i in range(3) for j in range(3)}
    bp = MultivariatePoly(F97, 2, terms)
    for _ in range(20):
        x, y = rng.randrange(97), rng.randrange(97)
        want = sum(c * pow(x, i, 97) * pow(y, j, 97)
                   for (i, j), c in terms.items()) % 97
        assert bp.evaluate(x, y).value == want


def test_bivariate_from_univariate():
    poly = Polynomial(F17, [2, 3, 4])
    bx = MultivariatePoly.from_univariate(poly, 0)
    by = MultivariatePoly.from_univariate(poly, 1)
    for v in range(17):
        assert bx.evaluate(v, 9) == poly.evaluate(v)
        assert by.evaluate(9, v) == poly.evaluate(v)


def test_bivariate_ring_ops():
    a = MultivariatePoly(F17, 2, {(1, 0): 1})   # x
    b = MultivariatePoly(F17, 2, {(0, 1): 1})   # y
    prod = a * b + a - b
    for x in range(17):
        for y in range(17):
            assert prod.evaluate(x, y).value == (x * y + x - y) % 17
    assert prod.total_degree == 2


@pytest.mark.parametrize("coeff", [5.5, "5", None, Field(101)(5)],
                         ids=["float", "str", "none", "other-field"])
def test_multivariate_refuses_a_coefficient_that_is_not_a_field_value(coeff):
    with pytest.raises(UsageError):
        MultivariatePoly(F97, 1, {(1,): coeff, (0,): 2})


def test_multivariate_reduces_ints_and_elements_of_its_field():
    """-1, as in the Fibonacci predicate, is p - 1; 97 is zero and drops."""
    mp = MultivariatePoly(F97, 2, {(1, 0): -1, (0, 1): F97(3), (1, 1): 97})
    assert mp.terms == {(1, 0): 96, (0, 1): 3}


def test_multivariate_compares_and_hashes_by_value():
    """Field, arity and terms decide equality and the hash: two two-party
    tags of one message, label and slot are equal, and so are two builds
    of one constraint system, whose transitions hash alike."""
    keys = (hauth.keygen(b"a", FBIG), hauth.keygen(b"b", FBIG))
    label = hauth.MultiLabel(b"l", b"d")
    one, two = (hauth.auth_mk(keys, 5, label, slot=1) for _ in range(2))
    assert one == two and hash(one.poly) == hash(two.poly)
    assert hauth.auth_mk(keys, 5, label, slot=0) != one
    built = [stark.fibonacci_constraint_system(8, FBIG) for _ in range(2)]
    assert built[0] == built[1]
    assert hash(built[0].transitions[0]) == hash(built[1].transitions[0])
    mp = MultivariatePoly(F97, 2, {(1, 0): 3, (0, 1): 1})
    assert mp == MultivariatePoly(F97, 2, {(0, 1): 1, (1, 0): 3, (1, 1): 97})
    for other in (MultivariatePoly(F97, 2, {(1, 0): 3, (0, 1): 2}),
                  MultivariatePoly(F97, 3, {(1, 0, 0): 3, (0, 1, 0): 1}),
                  MultivariatePoly(F17, 2, {(1, 0): 3, (0, 1): 1})):
        assert mp != other


@pytest.mark.parametrize("num_vars", [2, 3])
def test_multivariate_evaluate_matches_evaluate_array(num_vars):
    """The metered scalar evaluate and the bulk evaluate_array agree, and
    the scalar path counts two ops per term."""
    rng = random.Random(40 + num_vars)
    terms = {tuple(rng.randrange(4) for _ in range(num_vars)): rng.randrange(97)
             for _ in range(12)}
    mp = MultivariatePoly(F97, num_vars, terms)
    points = [[rng.randrange(97) for _ in range(num_vars)] for _ in range(30)]
    bulk = mp.evaluate_array([np.array(col, dtype=np.uint64)
                              for col in zip(*points)])
    for xs, want in zip(points, bulk):
        before = F97.op_count
        assert mp.evaluate(*xs).value == int(want)
        assert F97.op_count - before == 2 * len(mp.terms)
    with pytest.raises(UsageError):
        mp.evaluate(*points[0][1:])


def test_from_univariate_each_of_three_variables():
    poly = Polynomial(F97, [5, 0, 7, 11])
    rng = random.Random(9)
    for var in range(3):
        mp = MultivariatePoly.from_univariate(poly, var, num_vars=3)
        assert mp.num_vars == 3 and mp.total_degree == 3
        for _ in range(10):
            xs = [rng.randrange(97) for _ in range(3)]
            assert mp.evaluate(*xs) == poly.evaluate(xs[var])
    with pytest.raises(UsageError):
        MultivariatePoly.from_univariate(poly, 3, num_vars=3)
    with pytest.raises(UsageError):   # mixed arities do not combine
        mp * MultivariatePoly.from_univariate(poly, 0)

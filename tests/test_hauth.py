"""Homomorphic authenticator tests: tag laws, circuits, amortization,
two-party tags and the instrumented group."""

import random

import pytest

from vckit import hauth
from vckit.errors import UsageError
from vckit.field import DEFAULT_MODULUS, BivariatePolynomial, Field

F = Field(DEFAULT_MODULUS)
KEY = hauth.keygen(b"unit-test-key", F)
KEY2 = hauth.keygen(b"unit-test-key-2", F)


def lab(name, delta=b""):
    return hauth.MultiLabel(name, delta)


def test_keygen_deterministic_and_nonzero():
    again = hauth.keygen(b"unit-test-key", F)
    assert again.sk == KEY.sk and again.prf_key == KEY.prf_key
    assert not KEY.sk.is_zero()
    assert hauth.keygen(b"other", F).sk != KEY.sk


def test_fresh_tag_anchors():
    """A fresh tag is the line through (0, m) and (sk, r)."""
    tag = hauth.auth(KEY, 42, lab(b"l1"))
    assert tag.poly.evaluate(0) == F(42)
    assert tag.poly.evaluate(KEY.sk) == hauth.label_randomness(KEY, lab(b"l1"))
    assert tag.poly.degree == 1


def test_identity_circuit_verifies():
    tag = hauth.auth(KEY, 7, lab(b"a"))
    assert hauth.verify(KEY, hauth.Circuit.identity(), [lab(b"a")], tag, 7)
    v = hauth.verify(KEY, hauth.Circuit.identity(), [lab(b"a")], tag, 8)
    assert not v and v.reason == "output-check"


def test_addition_and_multiplication_homomorphism():
    t1 = hauth.auth(KEY, 3, lab(b"a"))
    t2 = hauth.auth(KEY, 5, lab(b"b"))
    add = hauth.Circuit(2, (hauth.Gate("add", 0, 1),))
    mul = hauth.Circuit(2, (hauth.Gate("mul", 0, 1),))
    labels = [lab(b"a"), lab(b"b")]
    assert hauth.verify(KEY, add, labels, hauth.eval_tags(add, [t1, t2]), 8)
    assert hauth.verify(KEY, mul, labels, hauth.eval_tags(mul, [t1, t2]), 15)


def test_constant_gates():
    t = hauth.auth(KEY, 6, lab(b"x"))
    circ = hauth.Circuit(1, (hauth.Gate("mulc", 0, const=10),
                             hauth.Gate("addc", 1, const=3)))
    out = hauth.eval_tags(circ, [t])
    assert hauth.verify(KEY, circ, [lab(b"x")], out, 63)


def test_degree_grows_with_multiplication_only():
    t1 = hauth.auth(KEY, 3, lab(b"a"))
    t2 = hauth.auth(KEY, 5, lab(b"b"))
    add = hauth.eval_tags(hauth.Circuit(2, (hauth.Gate("add", 0, 1),)),
                          [t1, t2])
    mul = hauth.eval_tags(hauth.Circuit(2, (hauth.Gate("mul", 0, 1),)),
                          [t1, t2])
    assert add.poly.degree == 1
    assert mul.poly.degree == 2


def test_degree_check_rejects_padded_tag():
    """A tag of higher degree than the circuit allows is rejected even if it
    passes both anchor checks."""
    from vckit.field import Polynomial
    circ = hauth.Circuit.identity()
    honest = hauth.auth(KEY, 9, lab(b"d"))
    # add a multiple of x(x - sk): preserves values at 0 and sk
    x = Polynomial(F, [0, 1])
    pad = x * (x - Polynomial.constant(F, KEY.sk))
    forged = hauth.Tag(honest.poly + pad, arity=1)
    assert forged.poly.evaluate(0) == honest.poly.evaluate(0)
    assert forged.poly.evaluate(KEY.sk) == honest.poly.evaluate(KEY.sk)
    v = hauth.verify(KEY, circ, [lab(b"d")], forged, 9)
    assert not v and v.reason == "degree-check"


def test_wrong_key_rejected():
    tag = hauth.auth(KEY, 7, lab(b"wk"))
    v = hauth.verify(KEY2, hauth.Circuit.identity(), [lab(b"wk")], tag, 7)
    assert not v and v.reason == "key-check"


def test_session_rejects_label_reuse():
    sess = hauth.HauthSession(KEY)
    assert (sess.auth(1, lab(b"once", b"d0"))
            == hauth.auth(KEY, 1, lab(b"once", b"d0")))
    sess.auth(1, lab(b"once", b"d1"))  # fresh delta is fine
    with pytest.raises(UsageError):
        sess.auth(2, lab(b"once", b"d0"))


def test_multilabel_encoding_unambiguous():
    assert lab(b"ab", b"c").encode() != lab(b"a", b"bc").encode()


def test_label_randomness_is_additive_split():
    label = lab(b"l", b"d")
    r = hauth.label_randomness(KEY, label)
    assert r == hauth._prf1(KEY, b"l") + hauth._prf2(KEY, b"d")


# ---------------------------------------------------------------------------
# amortization

def test_amortized_load_equals_direct():
    labels = [lab(b"in0", b"day1"), lab(b"in1", b"day1")]
    circ = hauth.Circuit(2, (hauth.Gate("mul", 0, 1),
                             hauth.Gate("addc", 2, const=9)))
    pre = hauth.amortize_offline(KEY, circ, [b"in0", b"in1"])
    for delta in (b"day1", b"day2", b"another"):
        rs = [hauth.label_randomness(KEY, lab(l.l, delta)) for l in labels]
        direct = circ.evaluate(rs)
        assert hauth.load(pre, KEY, delta) == direct


def test_amortized_verify_path():
    """Online verification with the precomputed Load matches plain verify."""
    circ = hauth.Circuit(2, (hauth.Gate("add", 0, 1),))
    pre = hauth.amortize_offline(KEY, circ, [b"a", b"b"])
    delta = b"epoch-7"
    labels = [lab(b"a", delta), lab(b"b", delta)]
    tags = [hauth.auth(KEY, 10, labels[0]), hauth.auth(KEY, 20, labels[1])]
    out = hauth.eval_tags(circ, tags)
    assert out.poly.evaluate(KEY.sk) == hauth.load(pre, KEY, delta)
    assert hauth.verify(KEY, circ, labels, out, 30)


def test_amortization_degree_cap():
    cube = hauth.Circuit(1, (hauth.Gate("mul", 0, 0),
                             hauth.Gate("mul", 1, 0)))
    with pytest.raises(UsageError):
        hauth.amortize_offline(KEY, cube, [b"x"])


# ---------------------------------------------------------------------------
# two-party bivariate tags

def test_multikey_roundtrip():
    keys = (KEY, KEY2)
    circ = hauth.Circuit(2, (hauth.Gate("mul", 0, 1),
                             hauth.Gate("addc", 2, const=1)))
    la, lb = lab(b"alice"), lab(b"bob")
    t1 = hauth.auth_mk(keys, 3, la, slot=0)
    t2 = hauth.auth_mk(keys, 4, lb, slot=1)
    out = hauth.eval_tags(circ, [t1, t2])
    assert hauth.verify_mk(keys, circ, [(la, 0), (lb, 1)], out, 13)
    v = hauth.verify_mk(keys, circ, [(la, 0), (lb, 1)], out, 14)
    assert not v and v.reason == "output-check"


def test_multikey_substitution_oracle():
    """The evaluated bivariate tag equals the circuit applied to the input
    tag polynomials, checked at random points."""
    rng = random.Random(55)
    keys = (KEY, KEY2)
    circ = hauth.Circuit(2, (hauth.Gate("add", 0, 1),
                             hauth.Gate("mul", 2, 0)))
    t1 = hauth.auth_mk(keys, 8, lab(b"p0"), slot=0)
    t2 = hauth.auth_mk(keys, 9, lab(b"p1"), slot=1)
    out = hauth.eval_tags(circ, [t1, t2])
    for _ in range(30):
        x, y = rng.randrange(F.modulus), rng.randrange(F.modulus)
        want = circ.evaluate([t1.poly.evaluate(x, y),
                              t2.poly.evaluate(x, y)])
        assert out.poly.evaluate(x, y) == want


def test_slot_collision_rejected():
    keys = (KEY, KEY2)
    t1 = hauth.auth_mk(keys, 1, lab(b"u"), slot=0)
    t2 = hauth.auth_mk((KEY2, KEY), 2, lab(b"v"), slot=0)
    circ = hauth.Circuit(2, (hauth.Gate("add", 0, 1),))
    with pytest.raises(UsageError):
        hauth.eval_tags(circ, [t1, t2])


def test_mixed_arity_rejected():
    t1 = hauth.auth(KEY, 1, lab(b"m1"))
    t2 = hauth.auth_mk((KEY, KEY2), 2, lab(b"m2"), slot=1)
    with pytest.raises(UsageError):
        hauth.eval_tags(hauth.Circuit(2, (hauth.Gate("add", 0, 1),)),
                        [t1, t2])


# ---------------------------------------------------------------------------
# instrumented exponent-tracking group

def test_group_lift_evaluates_like_polynomial():
    tag = hauth.auth(KEY, 5, lab(b"g1"))
    gp = hauth.group_lift(tag.poly)
    for x in (0, 1, 12345):
        assert gp.evaluate(x).exponent == tag.poly.evaluate(x)


def test_group_first_coefficient_stays_clear():
    t1 = hauth.group_lift(hauth.auth(KEY, 3, lab(b"c1")).poly)
    t2 = hauth.group_lift(hauth.auth(KEY, 4, lab(b"c2")).poly)
    prod = t1.mul(t2)
    assert prod.clear0 == F(12)
    assert prod.rest[0].level == hauth.BASE       # cross terms: one lift each
    assert prod.rest[1].level == hauth.TARGET     # both factors lifted


def test_group_add_and_consts():
    t1 = hauth.group_lift(hauth.auth(KEY, 3, lab(b"a1")).poly)
    t2 = hauth.group_lift(hauth.auth(KEY, 4, lab(b"a2")).poly)
    s = t1.add(t2).add_const(5).mul_const(2)
    want = (hauth.auth(KEY, 3, lab(b"a1")).poly
            + hauth.auth(KEY, 4, lab(b"a2")).poly + 5) * 2
    for x in (0, 7, 999):
        assert s.evaluate(x).exponent == want.evaluate(x)


def test_pairing_budget_is_one():
    t1 = hauth.group_lift(hauth.auth(KEY, 3, lab(b"b1")).poly)
    t2 = hauth.group_lift(hauth.auth(KEY, 4, lab(b"b2")).poly)
    t3 = hauth.group_lift(hauth.auth(KEY, 5, lab(b"b3")).poly)
    prod = t1.mul(t2)
    with pytest.raises(UsageError):
        prod.mul(t3)
    # additions after the pairing are still allowed
    other = hauth.group_lift(hauth.auth(KEY, 6, lab(b"b4")).poly)
    deg2 = other.mul(hauth.group_lift(hauth.auth(KEY, 7, lab(b"b5")).poly))
    assert prod.add(deg2).degree == 2

"""Homomorphic authenticator tests: tag laws, circuits, amortization,
two-party tags and the instrumented group."""

import dataclasses
import random
import re
import sys
import threading

import numpy as np
import pytest

import hauth_oracle
from pairing_model import (BASE, TARGET, GroupPolynomial,
                           InstrumentedGroupElement, group_lift)
from test_acceptance import _random_circuit
from vckit import hauth
from vckit.errors import UsageError
from vckit.field import DEFAULT_MODULUS, Field, MultivariatePoly, Polynomial

F = Field(DEFAULT_MODULUS)
KEY_SEEDS = (b"unit-test-key", b"unit-test-key-2")
KEY = hauth.keygen(KEY_SEEDS[0], F)
KEY2 = hauth.keygen(KEY_SEEDS[1], F)


# the one-input circuit whose output is its input
IDENTITY = hauth.Circuit(1, (), output=0)


def lab(name, delta=b""):
    return hauth.MultiLabel(name, delta)


def fresh_keys():
    """Keys equal to KEY and KEY2 whose PRF memos are empty, so a PRF
    count does not depend on what other tests drew under KEY and KEY2."""
    return tuple(hauth.keygen(seed, F) for seed in KEY_SEEDS)


@pytest.fixture
def prf_calls(monkeypatch):
    """(PRF key, input's first byte) of each PRF evaluation hauth makes
    from here on: 0x01 for PRF1, 0x02 for PRF2."""
    calls = []
    real_prf = hauth.prf

    def counting_prf(key, data, field):
        calls.append((key, data[:1]))
        return real_prf(key, data, field)
    monkeypatch.setattr(hauth, "prf", counting_prf)
    return calls


def prf_counts(calls, key):
    """(PRF1, PRF2) evaluations under key among calls."""
    return (calls.count((key.prf_key, b"\x01")),
            calls.count((key.prf_key, b"\x02")))


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
    assert hauth.verify(KEY, IDENTITY, [lab(b"a")], tag, 7)
    v = hauth.verify(KEY, IDENTITY, [lab(b"a")], tag, 8)
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


@pytest.mark.parametrize("gates, output, reason", [
    ((hauth.Gate("add", 0, 2),), -1, "gate 0 reads a wire not yet computed"),
    ((hauth.Gate("mul", 0),), -1, "gate 0 reads a wire not yet computed"),
    ((hauth.Gate("add", 0, 1), hauth.Gate("mulc", 3, const=2)), -1,
     "gate 1 reads a wire not yet computed"),
    ((hauth.Gate("sub", 0, 1),), -1, "unknown gate sub"),
    ((hauth.Gate("addc", 0),), -1, "gate 0 (addc) has no constant"),
    ((hauth.Gate("mulc", 1),), -1, "gate 0 (mulc) has no constant"),
    ((hauth.Gate("add", 0, 1),), 3, "output is not a wire"),
    ((hauth.Gate("add", 0, 1),), -4, "output is not a wire"),
    ((), "0", "output is not a wire"),
    ((hauth.Gate("add", 0, 1.0),), -1,
     "gate 0 reads a wire that is not an int"),
    ((hauth.Gate("mulc", "0", const=2),), -1,
     "gate 0 reads a wire that is not an int"),
    ((hauth.Gate("addc", 0, const="7"),), -1,
     "gate 0 (addc) has a constant that is not an int"),
    ((hauth.Gate("mul", 0, 1),), True, "output is not a wire"),
    ((hauth.Gate("mul", 0, 1),), False, "output is not a wire"),
    ((hauth.Gate("mul", 0, 1),), 1.0, "output is not a wire")])
def test_malformed_circuit_refused(gates, output, reason):
    """A gate reading a wire not yet computed or by an index that is not an
    int, an unknown op, a constant gate without an int constant and an
    output that is not a wire are refused when the circuit is built, not
    met as an IndexError, TypeError or AttributeError inside eval_tags or
    verify.  Wires and the output are checked by type: a bool is an int
    to isinstance, and output=True once built a circuit equal to
    output=1."""
    with pytest.raises(UsageError, match=re.escape(reason)):
        hauth.Circuit(2, gates, output)


@pytest.mark.parametrize("num_inputs", [2.0, "2", None], ids=repr)
def test_an_input_count_that_is_not_an_int_is_refused(num_inputs):
    """The degree walk that builds a circuit sizes its list by the input
    count, so a count that is not an int is refused, not met as a
    TypeError."""
    with pytest.raises(UsageError, match="input count is not an int"):
        hauth.Circuit(num_inputs, (hauth.Gate("add", 0, 1),))


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
    circ = IDENTITY
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
    v = hauth.verify(KEY2, IDENTITY, [lab(b"wk")], tag, 7)
    assert not v and v.reason == "key-check"


def test_session_rejects_label_reuse():
    sess = hauth.HauthSession(KEY)
    assert (sess.auth(1, lab(b"once", b"d0"))
            == hauth.auth(KEY, 1, lab(b"once", b"d0")))
    sess.auth(1, lab(b"once", b"d1"))  # fresh delta is fine
    with pytest.raises(UsageError):
        sess.auth(2, lab(b"once", b"d0"))


def test_label_randomness_is_additive_split():
    label = lab(b"l", b"d")
    r = hauth.label_randomness(KEY, label)
    assert r == hauth._prf1(KEY, b"l") + hauth._prf2(KEY, b"d")


def _epoch(h=64):
    """An epoch shaped like the benchmark's hauth-stream: the circuit
    sum_{i<h} x_i * x_{h+i} + 7 (h mul, h - 1 add and one addc gate),
    2h labels under one delta, the tag evaluated from their tags under
    KEY, and the claimed output."""
    gates = [hauth.Gate("mul", i, h + i) for i in range(h)]
    acc = 2 * h
    for i in range(1, h):
        gates.append(hauth.Gate("add", acc, 2 * h + i))
        acc = 2 * h + len(gates) - 1
    gates.append(hauth.Gate("addc", acc, const=7))
    circ = hauth.Circuit(2 * h, tuple(gates))
    labels = [lab(b"column-%d" % i, b"epoch-1") for i in range(2 * h)]
    msgs = list(range(1, 2 * h + 1))
    out = hauth.eval_tags(circ, [hauth.auth(KEY, m, label)
                                 for m, label in zip(msgs, labels)])
    claimed = sum(msgs[i] * msgs[h + i] for i in range(h)) + 7
    return circ, labels, out, claimed


def test_verify_evaluates_each_prf_once_per_distinct_input(prf_calls):
    """An epoch of 128 labels under one delta: verify makes 128 PRF1
    calls and one PRF2 call, and label_randomness gives each label's
    PRF1(l) + PRF2(delta), repeated labels included."""
    h = 64
    circ, labels, out, claimed = _epoch(h)
    key, _ = fresh_keys()
    prf_calls.clear()
    assert hauth.verify(key, circ, labels, out, claimed)
    assert prf_counts(prf_calls, key) == (2 * h, 1)
    assert len(prf_calls) == 2 * h + 1
    assert not hauth.verify(key, circ, labels, out, claimed + 1)
    mixed = labels[:3] + [labels[0], lab(b"column-0", b"epoch-2")]
    assert [hauth.label_randomness(key, label) for label in mixed] == [
        hauth._prf1(KEY, label.l) + hauth._prf2(KEY, label.delta)
        for label in mixed]


def test_verify_meters_one_operation_per_gate():
    """Field.op_count keeps a model count for f(r), one operation per
    gate, as when the circuit ran over FieldElements, and meters each
    evaluation of the tag: on the 128-gate epoch circuit with its
    degree-2 tag, 128 + 2 * 6 on accept and on output-check, and
    128 + 6 on key-check."""
    circ, labels, out, claimed = _epoch()
    shifted = dataclasses.replace(out, poly=out.poly + Polynomial(F, [0, 1]))
    deltas = []
    for tag, y in ((out, claimed), (out, claimed + 1), (shifted, claimed)):
        before = F.op_count
        verdict = hauth.verify(KEY, circ, labels, tag, y)
        deltas.append((verdict.reason, F.op_count - before))
    assert deltas == [("", 140), ("output-check", 140), ("key-check", 134)]


def test_each_prf_input_is_evaluated_once_per_key(prf_calls):
    """auth evaluates PRF1(l) and PRF2(delta) only for an l or a delta
    its key has not met: over again/e, again/e, other/e, again/f and
    again/e, PRF1 runs for again and other, and PRF2 for e and f."""
    labels = [lab(b"again", b"e"), lab(b"again", b"e"), lab(b"other", b"e"),
              lab(b"again", b"f"), lab(b"again", b"e")]
    wants = [hauth.auth(hauth.keygen(b"prf-memo-key", F), n, label)
             for n, label in enumerate(labels)]
    key = hauth.keygen(b"prf-memo-key", F)
    prf_calls.clear()
    counts = []
    for n, label in enumerate(labels):
        assert hauth.auth(key, n, label) == wants[n]
        counts.append(prf_counts(prf_calls, key))
    assert counts == [(1, 1), (1, 1), (2, 1), (2, 2), (2, 2)]
    # the memo is not part of the key: a used key equals a fresh one
    fresh = hauth.keygen(b"prf-memo-key", F)
    assert len(key.prf_memo) == 4 and not fresh.prf_memo
    assert key == fresh and hash(key) == hash(fresh)
    assert repr(key) == repr(fresh)


def test_a_full_memo_is_emptied(monkeypatch, prf_calls):
    """The memo never holds more than _PRF_MEMO_ENTRIES values; once
    emptied, it evaluates an input it had held again."""
    monkeypatch.setattr(hauth, "_PRF_MEMO_ENTRIES", 3)
    key = hauth.keygen(b"prf-memo-cap", F)
    # c0/e fills 2 entries and c1 the third; c2 empties the memo, so e is
    # drawn again beside it, and a repeat of c2/e draws nothing
    labels = [lab(b"c%d" % i, b"e") for i in range(3)] + [lab(b"c2", b"e")]
    sizes, counts = [], []
    for n, label in enumerate(labels):
        want = hauth.auth(hauth.keygen(b"prf-memo-cap", F), n, label)
        prf_calls.clear()
        assert hauth.auth(key, n, label) == want
        sizes.append(len(key.prf_memo))
        counts.append(prf_counts(prf_calls, key))
    assert sizes == [2, 3, 2, 2]
    assert counts == [(1, 1), (1, 0), (1, 1), (0, 0)]


def test_threads_sharing_a_key_never_get_a_wrong_tag(monkeypatch):
    """Four threads authenticate and verify under one key while its memo,
    capped at 8 values, fills and empties; a race may cost an extra PRF
    evaluation but every tag and verdict must match `hauth_oracle`."""
    monkeypatch.setattr(hauth, "_PRF_MEMO_ENTRIES", 8)
    key = hauth.keygen(b"threads", F)
    sk, k, p = key.sk.value, key.prf_key.key, F.modulus
    circ = hauth.Circuit(2, (hauth.Gate("mul", 0, 1),))
    wrong = []

    def work(t):
        for epoch in range(12):
            labels = [lab(b"column-%d" % ((t + j) % 6), b"epoch-%d" % epoch)
                      for j in range(2)]
            msgs = [t + epoch + 1, 7 * epoch + 2]
            tags = [hauth.auth(key, m, label)
                    for m, label in zip(msgs, labels)]
            if [tag.poly.coeffs for tag in tags] != [
                    hauth_oracle.tag(sk, k, m, label.l, label.delta, p)
                    for m, label in zip(msgs, labels)]:
                wrong.append((t, epoch, "tag"))
            out = hauth.eval_tags(circ, tags)
            if not hauth.verify(key, circ, labels, out, msgs[0] * msgs[1]):
                wrong.append((t, epoch, "verify"))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def _match_the_oracle(keys, l_parts, deltas, msgs, rng, modulus):
    """Check auth, auth_mk and label_randomness under each key against
    `hauth_oracle`; the number of PRF draws that took a later counter."""
    retries = 0
    labels = [lab(l, d) for l in l_parts for d in deltas]
    for key in keys:
        sk, k = key.sk.value, key.prf_key.key
        rs = [hauth_oracle.randomness(k, l.l, l.delta, modulus)
              for l in labels]
        for label, r in zip(labels, rs):
            assert hauth.label_randomness(key, label).value == r
            retries += sum(
                hauth_oracle.prf_with_counter(k, x, modulus)[1] > 0
                for x in (b"\x01" + label.l, b"\x02" + label.delta))
        for m in msgs:
            label = rng.choice(labels)
            want = hauth_oracle.tag(sk, k, m, label.l, label.delta, modulus)
            assert hauth.auth(key, m, label).poly.coeffs == want
            two = hauth.auth_mk((key, keys[0]), m, label, slot=0)
            assert two.poly.terms == {(i, 0): c for i, c in enumerate(want)
                                      if c}
    return retries


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, 97])
def test_tags_and_randomness_match_the_int_oracle(modulus, prf_calls):
    """auth, auth_mk and label_randomness against `hauth_oracle`, on a
    seeded grid of keys, labels and messages.  F_97 rejects about a
    quarter of the PRF draws, so the grid takes the PRF's later counters
    too.  The grid runs on new keys, then again on the same key objects,
    served from their PRF memos with no evaluation, and then on new keys
    equal to them.  Its labels include l = delta = b"l", and each label
    is authenticated under all four keys."""
    field = Field(modulus)
    rng = random.Random(modulus)
    seeds = [b"oracle-key-%d" % i for i in range(4)]
    l_parts = [b"", b"l", b"column-7"] + [rng.randbytes(rng.randrange(1, 40))
                                          for _ in range(5)]
    deltas = [b"", b"l", b"epoch-1", rng.randbytes(17)]
    msgs = [0, 1, modulus - 1, modulus, -1, 2**40 + 3,
            *(rng.randrange(-2**64, 2**64) for _ in range(4))]
    keys = [hauth.keygen(seed, field) for seed in seeds]
    for run, run_keys in enumerate(
            [keys, keys, [hauth.keygen(seed, field) for seed in seeds]]):
        prf_calls.clear()
        assert _match_the_oracle(run_keys, l_parts, deltas, msgs,
                                 random.Random(modulus + run), modulus) > 0
        assert len(prf_calls) == (0 if run == 1 else
                                  len(keys) * (len(l_parts) + len(deltas)))
        shared = lab(b"shared")
        tags = {hauth.auth(key, 5, shared).poly.coeffs for key in run_keys}
        assert tags == {hauth_oracle.tag(key.sk.value, key.prf_key.key, 5,
                                         shared.l, shared.delta, modulus)
                        for key in run_keys}
        assert len(tags) == len(run_keys)


NOT_FIELD_VALUES = [5.5, 5.0, "5", b"5", None]

ENTRY_POINTS = {
    "Field": lambda v: F(v),
    "Polynomial": lambda v: Polynomial(F, [1, v]),
    "auth": lambda v: hauth.auth(KEY, v, lab(b"typed")),
    "verify": lambda v: hauth.verify(KEY, IDENTITY, [lab(b"typed")],
                                     hauth.auth(KEY, 5, lab(b"typed")), v),
}


@pytest.mark.parametrize("value", NOT_FIELD_VALUES, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_value_that_is_not_an_int_is_refused(entry, value):
    """Floats, strings, bytes and None are refused with UsageError, not
    taken as coefficients (5.5 once made a tag with float coefficients,
    and claimed_y=5.0 verified) or met as a TypeError."""
    with pytest.raises(UsageError, match="not a field value"):
        ENTRY_POINTS[entry](value)


NOT_BYTES = ["abc", None, 5, bytearray(b"abc"), memoryview(b"abc")]

LABEL_ENTRY_POINTS = {
    "auth": lambda parts: hauth.auth(KEY, 3, lab(*parts)),
    "label_randomness": lambda parts: hauth.label_randomness(KEY,
                                                             lab(*parts)),
    "verify": lambda parts: hauth.verify(
        KEY, IDENTITY, [lab(*parts)], hauth.auth(KEY, 3, lab(b"typed")), 3),
    # amortize_offline takes bare l parts and load a bare delta
    "amortize_offline, load": lambda parts: hauth.load(
        hauth.amortize_offline(KEY, IDENTITY, [parts[0]]), KEY, parts[1]),
}


@pytest.mark.parametrize("part", [0, 1], ids=["l", "delta"])
@pytest.mark.parametrize("value", NOT_BYTES,
                         ids=[type(v).__name__ for v in NOT_BYTES])
@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
def test_a_label_part_that_is_not_bytes_is_refused(entry, value, part):
    """A label's l and delta are bytes: a string, None, an int, a
    bytearray or a memoryview is refused with UsageError, not met as a
    TypeError (a str l once raised "can't concat str to bytes", and load
    once took a bytearray delta)."""
    parts = [b"typed", b"d"]
    parts[part] = value
    name = ("l", "delta")[part]
    with pytest.raises(UsageError, match=f"label part {name} is not bytes"):
        LABEL_ENTRY_POINTS[entry](parts)


@pytest.mark.parametrize("value", [True, np.int64(-3), np.uint64(5)],
                         ids=repr)
def test_int_like_values_are_taken_as_ints(value):
    as_int = int(value)
    assert type(F(value).value) is int and F(value) == F(as_int)
    assert Polynomial(F, [value]) == Polynomial(F, [as_int])
    tag = hauth.auth(KEY, value, lab(b"typed"))
    assert tag == hauth.auth(KEY, as_int, lab(b"typed"))
    assert hauth.verify(KEY, IDENTITY, [lab(b"typed")], tag, value)


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


def test_verify_refuses_a_two_party_tag():
    keys = (KEY, KEY2)
    tag = hauth.auth_mk(keys, 3, lab(b"alice"), slot=0)
    with pytest.raises(UsageError, match="arity-1"):
        hauth.verify(KEY, IDENTITY, [lab(b"alice")], tag, 3)


def test_verify_mk_refuses_an_arity_1_tag():
    tag = hauth.auth(KEY, 3, lab(b"alice"))
    with pytest.raises(UsageError, match="arity-2"):
        hauth.verify_mk((KEY, KEY2), IDENTITY, [(lab(b"alice"), 0)], tag, 3)


def test_verify_mk_evaluates_prf2_once_per_key(prf_calls):
    """A two-party epoch of 4 labels per party under one delta, the
    parties' inputs interleaved: verify_mk makes one PRF1 call per label
    and one PRF2 call per key."""
    h = 4
    gates = [hauth.Gate("mul", 2 * i, 2 * i + 1) for i in range(h)]
    acc = 2 * h
    for i in range(1, h):
        gates.append(hauth.Gate("add", acc, 2 * h + i))
        acc = 2 * h + len(gates) - 1
    circ = hauth.Circuit(2 * h, tuple(gates))
    labeled_slots = [(lab(b"party-%d-in-%d" % (i % 2, i), b"epoch-9"), i % 2)
                     for i in range(2 * h)]
    msgs = list(range(3, 3 + 2 * h))
    out = hauth.eval_tags(circ, [
        hauth.auth_mk((KEY, KEY2), m, label, slot)
        for m, (label, slot) in zip(msgs, labeled_slots)])
    claimed = sum(msgs[2 * i] * msgs[2 * i + 1] for i in range(h))
    keys = fresh_keys()
    prf_calls.clear()
    assert hauth.verify_mk(keys, circ, labeled_slots, out, claimed)
    for key in keys:
        assert prf_counts(prf_calls, key) == (h, 1)
    assert len(prf_calls) == 2 * h + 2
    # each r lands on its own input: swapping two of one party's labels
    # changes f(r)
    swapped = ([labeled_slots[2], labeled_slots[1], labeled_slots[0]]
               + labeled_slots[3:])
    v = hauth.verify_mk(keys, circ, swapped, out, claimed)
    assert not v and v.reason == "key-check"
    with pytest.raises(UsageError, match="slot"):
        hauth.verify_mk(keys, circ, labeled_slots[:-1] +
                        [(labeled_slots[-1][0], 2)], out, claimed)


def _multikey_forgery(pad_terms):
    """The honest tag of test_multikey_roundtrip plus a padding term."""
    keys = (KEY, KEY2)
    circ = hauth.Circuit(2, (hauth.Gate("mul", 0, 1),
                             hauth.Gate("addc", 2, const=1)))
    la, lb = lab(b"alice"), lab(b"bob")
    out = hauth.eval_tags(circ, [hauth.auth_mk(keys, 3, la, slot=0),
                                 hauth.auth_mk(keys, 4, lb, slot=1)])
    pad = MultivariatePoly(F, 2, pad_terms)
    forged = dataclasses.replace(out, poly=out.poly + pad)
    return hauth.verify_mk(keys, circ, [(la, 0), (lb, 1)], forged, 13)


def test_multikey_degree_check_rejects_padded_tag():
    """x^k y (x - sk1) vanishes at (0, 0) and (sk1, sk2), so only the
    degree (k + 2 for k = 1, 2, 3, above the circuit's 2) gives the
    forgery away."""
    for k in (1, 2, 3):
        v = _multikey_forgery({(k + 1, 1): 1, (k, 1): -KEY.sk.value})
        assert not v and v.reason == "degree-check", k


def test_multikey_key_check_rejects_shifted_tag():
    """Adding x keeps the degree and the output at (0, 0), but moves the
    value at (sk1, sk2)."""
    v = _multikey_forgery({(1, 0): 1})
    assert not v and v.reason == "key-check"


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


def test_honest_two_party_tags_stay_within_the_syntactic_degree():
    """Random circuits of syntactic degree up to 4, each input tag on a
    random slot: every honest tag's total degree is at most the circuit's
    syntactic degree, so verify_mk's degree cap refuses none of them."""
    rng = random.Random(3030)
    keys = (KEY, KEY2)
    degrees = set()
    for i in range(200):
        k = rng.randrange(1, 4)
        circ = _random_circuit(rng, k, rng.randrange(1, 7),
                               max_syntactic_degree=4)
        labeled_slots = [(lab(b"honest-%d-%d" % (i, j)), rng.randrange(2))
                         for j in range(k)]
        msgs = [rng.randrange(F.modulus) for _ in range(k)]
        out = hauth.eval_tags(circ, [
            hauth.auth_mk(keys, m, label, slot)
            for m, (label, slot) in zip(msgs, labeled_slots)])
        d = circ.syntactic_degree()
        degrees.add(d)
        assert out.poly.total_degree <= d
        assert hauth.verify_mk(keys, circ, labeled_slots, out,
                               circ.evaluate([F(m) for m in msgs]))
    assert degrees == {1, 2, 3, 4}


@pytest.mark.parametrize("modulus", [DEFAULT_MODULUS, 97])
def test_verify_matches_the_field_element_oracle(modulus):
    """verify and verify_mk give the reason and charge the Field.op_count
    that `hauth_oracle.verify` does, which runs each circuit over
    label_randomness FieldElements.  Seeded random circuits of 0 to 5
    gates take addc and mulc constants of -5, 0, p - 1, p and 2^64 and
    an output anywhere in the circuit; each is checked with its honest
    tag, a wrong claimed output, the tag plus a term of the circuit's
    degree (key-check) and plus one above it (degree-check), and with
    one input too many or too few (UsageError)."""
    field = Field(modulus)
    rng = random.Random(4040 + modulus)
    keys = tuple(hauth.keygen(seed, field) for seed in KEY_SEEDS)
    consts = [-5, 0, modulus - 1, modulus, 2**64]
    # a monomial of total degree e, in x or in (x, y)
    term = {1: lambda e: Polynomial(field, [0] * e + [1]),
            2: lambda e: MultivariatePoly(field, 2, {(e - 1, 1): 1})}
    reasons = set()
    for i in range(120):
        k = rng.randrange(1, 4)
        gates = tuple(g if g.const is None
                      else dataclasses.replace(g, const=rng.choice(consts))
                      for g in _random_circuit(rng, k, rng.randrange(6)).gates)
        wires = k + len(gates)
        circ = hauth.Circuit(k, gates, rng.randrange(-wires, wires))
        msgs = [rng.randrange(-2**64, 2**64) for _ in range(k)]
        y, d = hauth_oracle.circuit_at(circ, [field(m) for m in msgs])
        for arity, use in ((1, keys[:1]), (2, keys)):
            labeled = [(lab(b"fr-%d-%d" % (i, j), b"e-%d" % arity),
                        rng.randrange(arity)) for j in range(k)]
            if arity == 1:
                tags = [hauth.auth(keys[0], m, label)
                        for m, (label, _) in zip(msgs, labeled)]

                def run(labeled, tag, y):
                    return hauth.verify(keys[0], circ,
                                        [label for label, _ in labeled],
                                        tag, y)
            else:
                tags = [hauth.auth_mk(keys, m, label, slot)
                        for m, (label, slot) in zip(msgs, labeled)]

                def run(labeled, tag, y):
                    return hauth.verify_mk(keys, circ, labeled, tag, y)
            out = hauth.eval_tags(circ, tags)
            padded = [dataclasses.replace(out, poly=out.poly + term[arity](e))
                      for e in (d, d + 1)]
            for tag, claimed in ((out, y), (out, y + 1), (padded[0], y),
                                 (padded[1], y)):
                start = field.op_count
                got = run(labeled, tag, claimed)
                mid = field.op_count
                want = hauth_oracle.verify(use, circ, labeled, tag, claimed)
                assert (got.reason, mid - start) == (
                    want, field.op_count - mid), (i, arity)
                reasons.add(want)
            for wrong in (labeled[:-1], labeled + labeled[:1]):
                with pytest.raises(UsageError, match="number of circuit"):
                    run(wrong, out, y)
    assert reasons == {"", "output-check", "key-check", "degree-check"}


def test_verify_mk_refuses_keys_over_different_fields():
    keys = (KEY, hauth.keygen(KEY_SEEDS[1], Field(97)))
    tag = hauth.auth_mk(keys, 3, lab(b"alice"), slot=0)
    with pytest.raises(UsageError, match="different fields"):
        hauth.verify_mk(keys, IDENTITY, [(lab(b"alice"), 0)], tag, 3)


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
    gp = group_lift(tag.poly)
    for x in (0, 1, 12345):
        assert gp.evaluate(x).exponent == tag.poly.evaluate(x)


def _merge_level(cur, new):
    # the per-coefficient level rule GroupPolynomial.mul once tracked: a
    # coefficient mixing base and target contributions is promoted to target
    if cur is None:
        return new
    if new is None:
        return cur
    return cur if cur == new else TARGET


def _tracked_levels(x, y):
    """Product levels by merging every term's level, None for the clear
    coefficient."""
    alev = [None] + [e.level for e in x.rest]
    blev = [None] + [e.level for e in y.rest]
    levels = [None] * (len(alev) + len(blev) - 1)
    for i, al in enumerate(alev):
        for j, bl in enumerate(blev):
            term = (None if al is None and bl is None
                    else TARGET if al is not None and bl is not None
                    else BASE)
            levels[i + j] = _merge_level(levels[i + j], term)
    return levels


@pytest.mark.parametrize("da", range(4))
@pytest.mark.parametrize("db", range(4))
def test_group_mul_levels_match_tracked_rule(da, db):
    """Derived product levels equal the tracked merge rule for factor
    degrees 0-3; the exponents are the polynomial product's coefficients
    and the multiplication costs two ops per coefficient pair."""
    rng = random.Random(100 * da + db)

    def poly(d):
        return Polynomial(F, [rng.randrange(F.modulus)
                              for _ in range(d)] + [1])

    pa, pb = poly(da), poly(db)
    x, y = group_lift(pa), group_lift(pb)
    before = F.op_count
    prod = x.mul(y)
    assert F.op_count - before == 2 * (da + 1) * (db + 1)
    levels = _tracked_levels(x, y)
    assert levels[0] is None
    assert [e.level for e in prod.rest] == [l or BASE
                                           for l in levels[1:]]
    if da == 0 or db == 0:
        assert all(e.level == BASE for e in prod.rest)
    want = pa * pb
    assert prod.clear0 == want.coefficient(0)
    assert [e.exponent for e in prod.rest] == [
        want.coefficient(k) for k in range(1, da + db + 1)]
    assert prod.used_pairing


def test_group_first_coefficient_stays_clear():
    t1 = group_lift(hauth.auth(KEY, 3, lab(b"c1")).poly)
    t2 = group_lift(hauth.auth(KEY, 4, lab(b"c2")).poly)
    prod = t1.mul(t2)
    assert prod.clear0 == F(12)
    assert prod.rest[0].level == BASE       # cross terms: one lift each
    assert prod.rest[1].level == TARGET     # both factors lifted


def _add_const(gp, c):
    return GroupPolynomial(gp.field, gp.clear0 + gp.field(c), gp.rest,
                                 gp.used_pairing)


def _mul_const(gp, c):
    c = gp.field(c)
    rest = [InstrumentedGroupElement(e.exponent * c, e.level)
            for e in gp.rest]
    return GroupPolynomial(gp.field, gp.clear0 * c, rest,
                                 gp.used_pairing)


def test_group_add_and_consts():
    t1 = group_lift(hauth.auth(KEY, 3, lab(b"a1")).poly)
    t2 = group_lift(hauth.auth(KEY, 4, lab(b"a2")).poly)
    s = _mul_const(_add_const(t1.add(t2), 5), 2)
    want = (hauth.auth(KEY, 3, lab(b"a1")).poly
            + hauth.auth(KEY, 4, lab(b"a2")).poly + 5) * 2
    for x in (0, 7, 999):
        assert s.evaluate(x).exponent == want.evaluate(x)


def test_pairing_budget_is_one():
    t1 = group_lift(hauth.auth(KEY, 3, lab(b"b1")).poly)
    t2 = group_lift(hauth.auth(KEY, 4, lab(b"b2")).poly)
    t3 = group_lift(hauth.auth(KEY, 5, lab(b"b3")).poly)
    prod = t1.mul(t2)
    with pytest.raises(UsageError):
        prod.mul(t3)
    # additions after the pairing are still allowed
    other = group_lift(hauth.auth(KEY, 6, lab(b"b4")).poly)
    deg2 = other.mul(group_lift(hauth.auth(KEY, 7, lab(b"b5")).poly))
    assert prod.add(deg2).degree == 2

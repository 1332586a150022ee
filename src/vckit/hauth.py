"""Homomorphic authenticators over polynomials.

A fresh tag is the degree-1 polynomial through (0, m) and (sk, r); circuit
evaluation acts on tags coefficientwise, so the evaluated tag still passes
through (0, f(m)) and (sk, f(r)).  Includes the two-party bivariate
extension, multi-label amortization, and an instrumented exponent-tracking
group standing in for a pairing curve.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .errors import UsageError, VerifyResult
from .field import (BivariatePolynomial, Field, FieldElement, Polynomial)
from .transcript import PrfKey, prf


@dataclass(frozen=True)
class MultiLabel:
    """Label split into a constant part l and a changing part delta."""

    l: bytes
    delta: bytes = b""

    def encode(self) -> bytes:
        return (len(self.l).to_bytes(8, "big") + self.l
                + len(self.delta).to_bytes(8, "big") + self.delta)


@dataclass(frozen=True)
class AuthKey:
    sk: FieldElement
    prf_key: PrfKey

    def __post_init__(self):
        if self.sk.is_zero():
            raise UsageError("sk must be nonzero")

    @property
    def field(self) -> Field:
        return self.sk.field

    def fingerprint(self) -> bytes:
        return hashlib.sha256(b"hauth-key" + self.prf_key.key).digest()[:8]


@dataclass(frozen=True)
class Tag:
    """Authenticator polynomial; arity 1 (univariate) or 2 (bivariate)."""

    poly: Union[Polynomial, BivariatePolynomial]
    arity: int = 1
    slot: Optional[int] = None        # variable index for two-party tags
    key_fp: Optional[bytes] = None

    @property
    def degree(self):
        return self.poly.degree if self.arity == 1 else self.poly.total_degree


def keygen(seed: bytes, field: Field = None) -> AuthKey:
    """Deterministic key from seed: nonzero sk by rejection, independent PRF key."""
    if field is None:
        from .field import DEFAULT_MODULUS
        field = Field(DEFAULT_MODULUS)
    mask = (1 << field.modulus.bit_length()) - 1
    ctr = 0
    while True:
        digest = hashlib.sha256(b"hauth-sk" + seed
                                + ctr.to_bytes(8, "big")).digest()
        v = int.from_bytes(digest[:8], "big") & mask
        if 0 < v < field.modulus:
            sk = FieldElement(field, v)
            break
        ctr += 1
    prf_key = PrfKey(hashlib.sha256(b"hauth-prf" + seed).digest())
    return AuthKey(sk, prf_key)


def _prf1(key: AuthKey, l: bytes) -> FieldElement:
    return prf(key.prf_key, b"\x01" + l, key.field)


def _prf2(key: AuthKey, delta: bytes) -> FieldElement:
    return prf(key.prf_key, b"\x02" + delta, key.field)


def label_randomness(key: AuthKey, label: MultiLabel) -> FieldElement:
    """r = PRF1(l) + PRF2(delta): the additive merge that makes the
    amortized Load equation exact."""
    return _prf1(key, label.l) + _prf2(key, label.delta)


def _fresh_tag_poly(key: AuthKey, m: FieldElement, r: FieldElement) -> Polynomial:
    # the line through (0, m) and (sk, r)
    slope = (r - m) / key.sk
    return Polynomial(key.field, [m, slope])


class HauthSession:
    """Per-key authentication session; rejects (l, delta) reuse.

    The seen-label registry is the only mutable state; callers serialize
    access (single-writer contract).
    """

    def __init__(self, key: AuthKey):
        self.key = key
        self._seen = set()

    def auth(self, m, label: MultiLabel) -> Tag:
        if (label.l, label.delta) in self._seen:
            raise UsageError("label reuse under one key breaks soundness")
        self._seen.add((label.l, label.delta))
        return auth(self.key, m, label)


def auth(key: AuthKey, m, label: MultiLabel) -> Tag:
    """One-shot tag; label-reuse tracking is the caller's duty without a session."""
    m = key.field(m)
    r = label_randomness(key, label)
    return Tag(_fresh_tag_poly(key, m, r), arity=1, key_fp=key.fingerprint())


# ---------------------------------------------------------------------------
# circuits

@dataclass(frozen=True)
class Gate:
    op: str                       # add | mul | addc | mulc
    a: int
    b: Optional[int] = None
    const: Optional[int] = None


@dataclass(frozen=True)
class Circuit:
    """Arithmetic circuit over input slots; output = last wire by default."""

    num_inputs: int
    gates: Tuple[Gate, ...]
    output: int = -1

    def evaluate(self, inputs):
        """Run the circuit over field elements, polynomials or bivariate
        polynomials: anything with + and * between values and with ints."""
        if len(inputs) != self.num_inputs:
            raise UsageError("wrong number of circuit inputs")
        wires = list(inputs)
        for g in self.gates:
            if g.op == "add":
                wires.append(wires[g.a] + wires[g.b])
            elif g.op == "mul":
                wires.append(wires[g.a] * wires[g.b])
            elif g.op == "addc":
                wires.append(wires[g.a] + g.const)
            elif g.op == "mulc":
                wires.append(wires[g.a] * g.const)
            else:
                raise UsageError(f"unknown gate {g.op}")
        return wires[self.output]

    def syntactic_degree(self) -> int:
        """Degree bound with every input counted as degree 1."""
        degs = [1] * self.num_inputs
        for g in self.gates:
            if g.op == "add":
                degs.append(max(degs[g.a], degs[g.b]))
            elif g.op == "mul":
                degs.append(degs[g.a] + degs[g.b])
            else:
                degs.append(degs[g.a])
        return degs[self.output]

    @staticmethod
    def identity() -> "Circuit":
        return Circuit(1, (), output=0)


def eval_tags(circuit: Circuit, tags) -> Tag:
    """sigma_y = f(sigma_x): apply the circuit to tag polynomials."""
    tags = list(tags)
    if not tags:
        raise UsageError("need at least one tag")
    arity = tags[0].arity
    if any(t.arity != arity for t in tags):
        raise UsageError("mixed tag arities")
    if arity == 2:
        _check_slots(tags)
    out = circuit.evaluate([t.poly for t in tags])
    return Tag(out, arity=arity)


def _check_slots(tags):
    by_slot = {}
    for t in tags:
        if t.slot is None:
            continue
        if by_slot.setdefault(t.slot, t.key_fp) != t.key_fp:
            raise UsageError(f"slot {t.slot} claimed by two different keys")


def verify(key: AuthKey, circuit: Circuit, labels, tag: Tag,
           claimed_y) -> VerifyResult:
    """Accept iff tag(sk) = f(r), tag(0) = claimed_y, and the tag degree
    does not exceed the circuit's syntactic degree."""
    field = key.field
    claimed_y = field(claimed_y)
    rs = [label_randomness(key, lab) for lab in labels]
    f_r = circuit.evaluate(rs)
    deg = tag.poly.degree
    if deg is not None and deg > circuit.syntactic_degree():
        return VerifyResult.reject("degree-check")
    if tag.poly.evaluate(key.sk) != f_r:
        return VerifyResult.reject("key-check")
    if tag.poly.evaluate(0) != claimed_y:
        return VerifyResult.reject("output-check")
    return VerifyResult.accept()


# ---------------------------------------------------------------------------
# two-party multivariate extension

def auth_mk(keys: Tuple[AuthKey, AuthKey], m, label: MultiLabel,
            slot: int) -> Tag:
    """Authenticate under the slot-th party's key, on that variable's axis."""
    if slot not in (0, 1):
        raise UsageError("slot must be 0 or 1")
    key = keys[slot]
    m = key.field(m)
    r = label_randomness(key, label)
    uni = _fresh_tag_poly(key, m, r)
    return Tag(BivariatePolynomial.from_univariate(uni, slot), arity=2,
               slot=slot, key_fp=key.fingerprint())


def verify_mk(keys: Tuple[AuthKey, AuthKey], circuit: Circuit,
              labeled_slots, tag: Tag, claimed_y) -> VerifyResult:
    """Verification needs both secret keys: tag(sk1, sk2) = f(r)."""
    field = keys[0].field
    claimed_y = field(claimed_y)
    rs = [label_randomness(keys[slot], lab) for lab, slot in labeled_slots]
    f_r = circuit.evaluate(rs)
    deg = tag.poly.total_degree
    if deg is not None and deg > 2 * circuit.syntactic_degree():
        return VerifyResult.reject("degree-check")
    if tag.poly.evaluate(keys[0].sk, keys[1].sk) != f_r:
        return VerifyResult.reject("key-check")
    if tag.poly.evaluate(0, 0) != claimed_y:
        return VerifyResult.reject("output-check")
    return VerifyResult.accept()


# ---------------------------------------------------------------------------
# amortized verification

@dataclass(frozen=True)
class AmortizedPrecompute:
    """C(Z) = f applied to the degree-1 placeholders PRF1(l_i) + Z."""

    c_poly: Polynomial


def amortize_offline(key: AuthKey, circuit: Circuit,
                     l_parts) -> AmortizedPrecompute:
    if circuit.syntactic_degree() > 2:
        raise UsageError("amortization caps circuits at degree 2")
    field = key.field
    placeholders = [Polynomial(field, [_prf1(key, l), 1]) for l in l_parts]
    return AmortizedPrecompute(circuit.evaluate(placeholders))


def load(pre: AmortizedPrecompute, key: AuthKey, delta: bytes) -> FieldElement:
    """f(r) in O(deg C) field operations: evaluate C at Z = PRF2(delta)."""
    return pre.c_poly.evaluate(_prf2(key, delta))


# ---------------------------------------------------------------------------
# instrumented exponent-tracking group (mock pairing)

BASE = "base"
TARGET = "target"


@dataclass(frozen=True)
class InstrumentedGroupElement:
    """g^exponent (or g_t^exponent after the single allowed pairing)."""

    exponent: FieldElement
    level: str = BASE


class GroupPolynomial:
    """Coefficient vector in the exponent, with coefficient 0 kept in the
    clear per the first-coefficient optimization.

    At most one pairing-backed multiplication per lineage: multiplying a
    polynomial that already carries target-level coefficients is rejected.
    """

    def __init__(self, field: Field, clear0: FieldElement, rest,
                 used_pairing: bool = False):
        self.field = field
        self.clear0 = clear0
        self.rest = tuple(rest)  # InstrumentedGroupElement per degree >= 1
        self.used_pairing = used_pairing

    @property
    def degree(self) -> int:
        return len(self.rest)

    def _levels(self):
        return [e.level for e in self.rest]

    def add(self, other: "GroupPolynomial") -> "GroupPolynomial":
        n = max(len(self.rest), len(other.rest))
        rest = []
        for i in range(n):
            a = self.rest[i] if i < len(self.rest) else None
            b = other.rest[i] if i < len(other.rest) else None
            if a is None:
                rest.append(b)
            elif b is None:
                rest.append(a)
            else:
                if a.level != b.level:
                    raise UsageError("cannot add across group levels")
                rest.append(InstrumentedGroupElement(a.exponent + b.exponent,
                                                     a.level))
        return GroupPolynomial(self.field, self.clear0 + other.clear0, rest,
                               self.used_pairing or other.used_pairing)

    def add_const(self, c) -> "GroupPolynomial":
        return GroupPolynomial(self.field, self.clear0 + self.field(c),
                               self.rest, self.used_pairing)

    def mul_const(self, c) -> "GroupPolynomial":
        c = self.field(c)
        rest = [InstrumentedGroupElement(e.exponent * c, e.level)
                for e in self.rest]
        return GroupPolynomial(self.field, self.clear0 * c, rest,
                               self.used_pairing)

    def mul(self, other: "GroupPolynomial") -> "GroupPolynomial":
        """One pairing-backed multiplication; exhausting the budget raises."""
        if self.used_pairing or other.used_pairing:
            raise UsageError("pairing budget exhausted")
        a = [self.clear0] + [e.exponent for e in self.rest]
        b = [other.clear0] + [e.exponent for e in other.rest]
        alev = [None] + self._levels()
        blev = [None] + other._levels()
        n = len(a) + len(b) - 1
        exps = [self.field.zero] * n
        levels = [None] * n
        for i, (av, al) in enumerate(zip(a, alev)):
            for j, (bv, bl) in enumerate(zip(b, blev)):
                term_level = (None if al is None and bl is None
                              else TARGET if al is not None and bl is not None
                              else BASE)
                k = i + j
                exps[k] = exps[k] + av * bv
                levels[k] = _merge_level(levels[k], term_level)
        clear0 = exps[0] if levels[0] is None else self.field.zero
        rest = []
        for k in range(1, n):
            lvl = levels[k] or BASE
            rest.append(InstrumentedGroupElement(exps[k], lvl))
        if levels[0] is not None:
            # constant term picked up group contributions; fold into degree 0
            raise UsageError("constant term left the clear; unsupported shape")
        return GroupPolynomial(self.field, clear0, rest, used_pairing=True)

    def evaluate(self, x) -> InstrumentedGroupElement:
        x = self.field(x)
        acc = self.clear0
        xi = self.field.one
        level = BASE
        for e in self.rest:
            xi = xi * x
            acc = acc + e.exponent * xi
            if e.level == TARGET:
                level = TARGET
        return InstrumentedGroupElement(acc, level)


def _merge_level(cur, new):
    # a coefficient that mixes base and target contributions is promoted
    # to target (lifting base terms through e(., g))
    if cur is None:
        return new
    if new is None:
        return cur
    if cur == new:
        return cur
    return TARGET


def group_lift(p: Polynomial) -> GroupPolynomial:
    rest = [InstrumentedGroupElement(p.coefficient(i), BASE)
            for i in range(1, len(p.coeffs))]
    return GroupPolynomial(p.field, p.coefficient(0), rest)

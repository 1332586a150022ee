"""Homomorphic authenticators over polynomials.

A fresh tag is the degree-1 polynomial through (0, m) and (sk, r); circuit
evaluation acts on tags coefficientwise, so the evaluated tag still passes
through (0, f(m)) and (sk, f(r)).  Includes the two-party extension, whose
tags are sparse polynomials in (x, y), and multi-label amortization.

A tag's coefficients and its label randomness r are computed on reduced
ints, with sk^-1 taken once per key, so they are not metered in
Field.op_count; verification's circuit over the r values and its tag
evaluations are.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .encoding import u64
from .errors import UsageError, VerifyResult
from .field import (Field, FieldElement, MultivariatePoly, Polynomial,
                    _canonical)
from .transcript import PrfKey, _h, prf


@dataclass(frozen=True)
class MultiLabel:
    """Label split into a constant part l and a changing part delta."""

    l: bytes
    delta: bytes = b""


@dataclass(frozen=True)
class AuthKey:
    """The secret point sk and the PRF key; sk_inv, sk^-1 mod p as an
    int, is derived once here and is not a field, so it takes no part in
    equality or in the key file."""

    sk: FieldElement
    prf_key: PrfKey

    def __post_init__(self):
        if self.sk.is_zero():
            raise UsageError("sk must be nonzero")
        object.__setattr__(self, "sk_inv",
                           pow(self.sk.value, -1, self.sk.field.modulus))

    @property
    def field(self) -> Field:
        return self.sk.field

    def fingerprint(self) -> bytes:
        return _h(b"hauth-key", self.prf_key.key)[:8]


@dataclass(frozen=True)
class Tag:
    """Authenticator polynomial; arity 1 (univariate) or 2 (in x, y)."""

    poly: Union[Polynomial, MultivariatePoly]
    arity: int = 1
    slot: Optional[int] = None        # variable index for two-party tags
    key_fp: Optional[bytes] = None    # slot key's fingerprint, likewise


def keygen(seed: bytes, field: Field) -> AuthKey:
    """Deterministic key from seed: nonzero sk by rejection, independent PRF key."""
    mask = (1 << field.modulus.bit_length()) - 1
    ctr = 0
    while True:
        v = int.from_bytes(_h(b"hauth-sk", seed, u64(ctr))[:8], "big") & mask
        if 0 < v < field.modulus:
            sk = FieldElement(field, v)
            break
        ctr += 1
    prf_key = PrfKey(_h(b"hauth-prf", seed))
    return AuthKey(sk, prf_key)


def _prf1(key: AuthKey, l: bytes) -> FieldElement:
    return prf(key.prf_key, b"\x01" + l, key.field)


def _prf2(key: AuthKey, delta: bytes) -> FieldElement:
    return prf(key.prf_key, b"\x02" + delta, key.field)


def _randomness(key: AuthKey, label: MultiLabel, prf1: dict,
                prf2: dict) -> int:
    """r = PRF1(l) + PRF2(delta) as a reduced int: the additive merge that
    makes the amortized Load equation exact.  prf1 and prf2 hold the PRF
    outputs already drawn, by input, and take in any new one."""
    a = prf1.get(label.l)
    if a is None:
        a = prf1[label.l] = _prf1(key, label.l).value
    b = prf2.get(label.delta)
    if b is None:
        b = prf2[label.delta] = _prf2(key, label.delta).value
    return (a + b) % key.field.modulus


def label_randomness(key: AuthKey, label: MultiLabel) -> FieldElement:
    return FieldElement(key.field, _randomness(key, label, {}, {}))


def labels_randomness(key: AuthKey, labels) -> List[FieldElement]:
    """label_randomness of each label, with PRF1 evaluated once per
    distinct l and PRF2 once per distinct delta: an epoch's labels share
    one delta, so they cost one PRF2 call between them."""
    field, prf1, prf2 = key.field, {}, {}
    return [FieldElement(field, _randomness(key, lab, prf1, prf2))
            for lab in labels]


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
    """One-shot tag, the line through (0, m) and (sk, r) from reduced ints;
    label-reuse tracking is the caller's duty without a session."""
    m = _canonical(key.field, m)
    r = label_randomness(key, label).value
    slope = (r - m) * key.sk_inv % key.field.modulus
    return Tag(Polynomial._reduced(key.field, [m, slope]), arity=1)


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
    """Arithmetic circuit over input slots; output = last wire by default.

    Wires are the inputs and then one per gate.  Each gate reads only
    wires computed before it, by int index, add and mul two of them and
    addc and mulc one and its int constant, and the output is a wire,
    counted from the end when negative; any other circuit is refused with
    UsageError."""

    num_inputs: int
    gates: Tuple[Gate, ...]
    output: int = -1

    def __post_init__(self):
        wires = self.num_inputs
        for g in self.gates:
            op, a, b = g.op, g.a, g.b
            if op == "add" or op == "mul":
                reads = (type(a) is int and type(b) is int
                         and 0 <= a < wires and 0 <= b < wires)
            elif op == "addc" or op == "mulc":
                if type(g.const) is not int:
                    raise UsageError(
                        f"circuit gate {wires - self.num_inputs} ({op}) has "
                        + ("no constant" if g.const is None
                           else "a constant that is not an int"))
                reads = type(a) is int and 0 <= a < wires
                b = None
            else:
                raise UsageError(f"unknown gate {op}")
            if not reads:
                typed = type(a) is int and (b is None or type(b) is int)
                raise UsageError(
                    f"circuit gate {wires - self.num_inputs} reads a wire "
                    + ("not yet computed" if typed else "that is not an int"))
            wires += 1
        if not (isinstance(self.output, int) and -wires <= self.output < wires):
            raise UsageError("circuit output is not a wire")

    def evaluate(self, inputs):
        """Run the circuit over field elements or polynomials, univariate or
        multivariate: anything with + and * between values and with ints."""
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
            else:  # mulc
                wires.append(wires[g.a] * g.const)
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


def _accept(circuit: Circuit, f_r, claimed_y, poly, deg,
            key_point) -> VerifyResult:
    """Both tag families' rule, checked in this order: degree deg (None
    for the zero tag) at most the circuit's syntactic degree, then
    poly(key_point) = f(r), then poly(0, ...) = claimed_y."""
    if deg is not None and deg > circuit.syntactic_degree():
        return VerifyResult.reject("degree-check")
    if poly.evaluate(*key_point) != f_r:
        return VerifyResult.reject("key-check")
    if poly.evaluate(*(0,) * len(key_point)) != claimed_y:
        return VerifyResult.reject("output-check")
    return VerifyResult.accept()


def verify(key: AuthKey, circuit: Circuit, labels, tag: Tag,
           claimed_y) -> VerifyResult:
    """Accept iff tag(sk) = f(r), tag(0) = claimed_y, and the tag degree
    does not exceed the circuit's syntactic degree."""
    if not isinstance(tag.poly, Polynomial):
        raise UsageError("verify takes arity-1 tags; use verify_mk")
    claimed_y = key.field(claimed_y)
    f_r = circuit.evaluate(labels_randomness(key, labels))
    return _accept(circuit, f_r, claimed_y, tag.poly, tag.poly.degree,
                   (key.sk,))


# ---------------------------------------------------------------------------
# two-party multivariate extension

def auth_mk(keys: Tuple[AuthKey, AuthKey], m, label: MultiLabel,
            slot: int) -> Tag:
    """Authenticate under the slot-th party's key, on that variable's axis."""
    if slot not in (0, 1):
        raise UsageError("slot must be 0 or 1")
    key = keys[slot]
    uni = auth(key, m, label).poly
    return Tag(MultivariatePoly.from_univariate(uni, slot), arity=2,
               slot=slot, key_fp=key.fingerprint())


def verify_mk(keys: Tuple[AuthKey, AuthKey], circuit: Circuit,
              labeled_slots, tag: Tag, claimed_y) -> VerifyResult:
    """Verification needs both secret keys: tag(sk1, sk2) = f(r), under
    verify's rule with the tag's total degree.  Each key's labels take
    one labels_randomness call, so one PRF2 call per delta per key."""
    if not isinstance(tag.poly, MultivariatePoly):
        raise UsageError("verify_mk takes arity-2 tags; use verify")
    claimed_y = keys[0].field(claimed_y)
    if any(slot not in (0, 1) for _, slot in labeled_slots):
        raise UsageError("slot must be 0 or 1")
    per_slot = [iter(labels_randomness(
        key, [lab for lab, s in labeled_slots if s == slot]))
        for slot, key in enumerate(keys)]
    rs = [next(per_slot[slot]) for _, slot in labeled_slots]
    f_r = circuit.evaluate(rs)
    return _accept(circuit, f_r, claimed_y, tag.poly, tag.poly.total_degree,
                   (keys[0].sk, keys[1].sk))


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
    placeholders = [Polynomial._reduced(field, [_prf1(key, l).value, 1])
                    for l in l_parts]
    return AmortizedPrecompute(circuit.evaluate(placeholders))


def load(pre: AmortizedPrecompute, key: AuthKey, delta: bytes) -> FieldElement:
    """f(r) in O(deg C) field operations: evaluate C at Z = PRF2(delta)."""
    return pre.c_poly.evaluate(_prf2(key, delta))

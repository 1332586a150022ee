"""Homomorphic authenticators over polynomials.

A fresh tag is the degree-1 polynomial through (0, m) and (sk, r); circuit
evaluation acts on tags coefficientwise, so the evaluated tag still passes
through (0, f(m)) and (sk, f(r)).  Includes the two-party extension, whose
tags are sparse polynomials in (x, y), and multi-label amortization.

A tag's coefficients and its label randomness r are computed on reduced
ints, with sk^-1 taken once per key, and are not metered in
Field.op_count.  Verification runs the circuit over the r values on
reduced ints too, reducing mod p at every gate; Field.op_count keeps its
model count for that run, one operation per gate, which is what the
circuit over FieldElements charges.  The tag evaluations are metered as
FieldElement arithmetic.

Each key keeps its PRF outputs in a memo keyed by the PRF input, so
PRF1(l) and PRF2(delta) are each evaluated once per key across auth,
verify, amortize_offline and load.  A stream with fixed columns l and one
new delta per epoch pays, in its first epoch, one PRF1 per column and one
PRF2, and one PRF2 in each later epoch.  The memo holds at most
_PRF_MEMO_ENTRIES values and is emptied when full.
"""

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .encoding import u64
from .errors import UsageError, VerifyResult
from .field import (Field, FieldElement, MultivariatePoly, Polynomial,
                    _canonical)
from .transcript import PrfKey, _h, prf

# Most PRF outputs one key's memo holds; a full memo is emptied.  With
# 10-byte labels a full memo takes about 115 KB.
_PRF_MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class MultiLabel:
    """Label split into a constant part l and a changing part delta, both
    bytes; anything else is refused with UsageError."""

    l: bytes
    delta: bytes = b""

    def __post_init__(self):
        _check_label_part("l", self.l)
        _check_label_part("delta", self.delta)


def _check_label_part(name: str, value):
    if not isinstance(value, bytes):
        raise UsageError(f"label part {name} is not bytes")


@dataclass(frozen=True)
class AuthKey:
    """The secret point sk and the PRF key.  Two values are derived here
    and are not fields, so they take no part in equality, repr or the key
    file: sk_inv, sk^-1 mod p as an int, and prf_memo, the PRF outputs
    drawn so far under this key as reduced ints by PRF input, for the
    key's lifetime and at most _PRF_MEMO_ENTRIES of them.  Threads may
    share a key: a race can cost an extra PRF evaluation, or pass the
    bound by an entry per thread, but never gives a wrong value."""

    sk: FieldElement
    prf_key: PrfKey

    def __post_init__(self):
        if self.sk.is_zero():
            raise UsageError("sk must be nonzero")
        object.__setattr__(self, "sk_inv",
                           pow(self.sk.value, -1, self.sk.field.modulus))
        object.__setattr__(self, "prf_memo", {})

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


def _prf_value(key: AuthKey, data: bytes) -> int:
    """PRF_key(data) as a reduced int, evaluated only when the key's memo
    does not hold it yet."""
    memo = key.prf_memo
    v = memo.get(data)
    if v is None:
        if len(memo) >= _PRF_MEMO_ENTRIES:
            memo.clear()
        v = memo[data] = prf(key.prf_key, data, key.field).value
    return v


def _prf1(key: AuthKey, l: bytes) -> int:
    return _prf_value(key, b"\x01" + l)


def _prf2(key: AuthKey, delta: bytes) -> int:
    return _prf_value(key, b"\x02" + delta)


def _randomness(key: AuthKey, label: MultiLabel) -> int:
    """r = PRF1(l) + PRF2(delta) as a reduced int: the additive merge that
    makes the amortized Load equation exact."""
    return (_prf1(key, label.l) + _prf2(key, label.delta)) % key.field.modulus


def label_randomness(key: AuthKey, label: MultiLabel) -> FieldElement:
    return FieldElement(key.field, _randomness(key, label))


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
    r = _randomness(key, label)
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
    UsageError.  The syntactic degree, with every input counted as degree
    1, is found by the same walk and kept; it is not a field, so it takes
    no part in equality or repr."""

    num_inputs: int
    gates: Tuple[Gate, ...]
    output: int = -1

    def __post_init__(self):
        if type(self.num_inputs) is not int:
            raise UsageError("circuit input count is not an int")
        wires = self.num_inputs
        degs = [1] * wires
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
            if op == "add":
                degs.append(max(degs[a], degs[b]))
            elif op == "mul":
                degs.append(degs[a] + degs[b])
            else:
                degs.append(degs[a])
            wires += 1
        if not (type(self.output) is int and -wires <= self.output < wires):
            raise UsageError("circuit output is not a wire")
        object.__setattr__(self, "_degree", degs[self.output])

    def evaluate(self, inputs, modulus: Optional[int] = None):
        """Run the circuit over field elements or polynomials, univariate or
        multivariate: anything with + and * between values and with ints.
        Given a modulus, run it over ints, reducing every wire mod modulus
        so that none grows."""
        if len(inputs) != self.num_inputs:
            raise UsageError("wrong number of circuit inputs")
        wires = list(inputs)
        for g in self.gates:
            if g.op == "add":
                v = wires[g.a] + wires[g.b]
            elif g.op == "mul":
                v = wires[g.a] * wires[g.b]
            elif g.op == "addc":
                v = wires[g.a] + g.const
            else:  # mulc
                v = wires[g.a] * g.const
            wires.append(v if modulus is None else v % modulus)
        return wires[self.output]

    def syntactic_degree(self) -> int:
        """Degree bound with every input counted as degree 1, found when
        the circuit was built."""
        return self._degree


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


def _f_of_r(circuit: Circuit, field: Field, rs) -> int:
    """f(r) as a reduced int from the reduced ints rs.  Field.op_count is
    charged its model count, one operation per gate."""
    f_r = circuit.evaluate(rs, field.modulus)
    field.op_count += len(circuit.gates)
    return f_r


def _accept(circuit: Circuit, f_r: int, claimed_y, poly, deg,
            key_point) -> VerifyResult:
    """Both tag families' rule, checked in this order: degree deg (None
    for the zero tag) at most the circuit's syntactic degree, then
    poly(key_point) = f(r), then poly(0, ...) = claimed_y."""
    if deg is not None and deg > circuit._degree:
        return VerifyResult.reject("degree-check")
    if poly.evaluate(*key_point).value != f_r:
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
    f_r = _f_of_r(circuit, key.field,
                  [_randomness(key, label) for label in labels])
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
    verify's rule with the tag's total degree."""
    if not isinstance(tag.poly, MultivariatePoly):
        raise UsageError("verify_mk takes arity-2 tags; use verify")
    field = keys[0].field
    if keys[1].field != field:
        raise UsageError("the two keys are over different fields")
    claimed_y = field(claimed_y)
    if any(slot not in (0, 1) for _, slot in labeled_slots):
        raise UsageError("slot must be 0 or 1")
    f_r = _f_of_r(circuit, field, [_randomness(keys[slot], label)
                                   for label, slot in labeled_slots])
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
    if circuit._degree > 2:
        raise UsageError("amortization caps circuits at degree 2")
    field = key.field
    placeholders = []
    for l in l_parts:
        _check_label_part("l", l)
        placeholders.append(Polynomial._reduced(field, [_prf1(key, l), 1]))
    return AmortizedPrecompute(circuit.evaluate(placeholders))


def load(pre: AmortizedPrecompute, key: AuthKey, delta: bytes) -> FieldElement:
    """f(r) in O(deg C) field operations: evaluate C at Z = PRF2(delta)."""
    _check_label_part("delta", delta)
    return pre.c_poly.evaluate(_prf2(key, delta))

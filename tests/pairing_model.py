"""A mock pairing for the homomorphic authenticators' tests: an
instrumented exponent-tracking group standing in for a pairing curve.

Its group elements carry their exponents in the clear, so it models the
one-pairing level rule and nothing more.
"""

from dataclasses import dataclass

from vckit.errors import UsageError
from vckit.field import Field, FieldElement, Polynomial

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

    def mul(self, other: "GroupPolynomial") -> "GroupPolynomial":
        """One pairing-backed multiplication; exhausting the budget raises.

        Before the pairing every lifted coefficient is at the base level, so
        product coefficient k pairs two lifted coefficients, and is at the
        target level, exactly when k >= 2 and both factors have any; every
        other coefficient of degree >= 1 takes one lift and stays at base.
        """
        if self.used_pairing or other.used_pairing:
            raise UsageError("pairing budget exhausted")
        a = [self.clear0] + [e.exponent for e in self.rest]
        b = [other.clear0] + [e.exponent for e in other.rest]
        exps = [self.field.zero] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            for j, bv in enumerate(b):
                exps[i + j] = exps[i + j] + av * bv
        paired = bool(self.rest and other.rest)
        rest = [InstrumentedGroupElement(e, TARGET if paired and k >= 2
                                         else BASE)
                for k, e in enumerate(exps[1:], start=1)]
        return GroupPolynomial(self.field, exps[0], rest, used_pairing=True)

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


def group_lift(p: Polynomial) -> GroupPolynomial:
    rest = [InstrumentedGroupElement(p.coefficient(i), BASE)
            for i in range(1, len(p.coeffs))]
    return GroupPolynomial(p.field, p.coefficient(0), rest)

"""Symbolic STARK quotients, kept as a slow oracle for the pointwise prover.

Everything here works on coefficient lists: predicates are expanded by
substituting column polynomials, and quotients come from schoolbook
divmod by the vanishing polynomials.  The remainders tell whether a trace
satisfies its constraints.
"""

from vckit import stark
from vckit.field import Polynomial, interpolate


def evaluate(pred, values):
    """A predicate at one point, by metered scalar FieldElement arithmetic."""
    assert len(values) == pred.num_vars
    field = pred.field
    acc = field.zero
    for exps, c in pred.terms.items():
        term = field(c)
        for v, e in zip(values, exps):
            if e:
                term = term * field(v) ** e
        acc = acc + term
    return acc


def substitute(pred, polys):
    """Compose a multivariate predicate with polynomial arguments."""
    assert len(polys) == pred.num_vars
    acc = Polynomial.zero(pred.field)
    for exps, c in pred.terms.items():
        term = Polynomial.constant(pred.field, c)
        for poly, e in zip(polys, exps):
            for _ in range(e):
                term = term * poly
        acc = acc + term
    return acc


def interpolate_trace(trace):
    """Column polynomials by generic Lagrange interpolation."""
    pts = trace.domain().points()
    return [interpolate(list(zip(pts, [trace.field(v) for v in col])))
            for col in trace.columns]


def boundary_quotient(column_poly, bcs, trace_domain):
    """(quotient, remainder) of (column - B) by Z_B."""
    field = column_poly.field
    pts = [(trace_domain.point(bc.row), field(bc.value)) for bc in bcs]
    z_b = stark.membership_poly(field, [x for x, _ in pts])
    return divmod(column_poly - interpolate(pts), z_b)


def vanishing_poly(domain):
    """Z_D = x^size - offset^size, zero exactly on the domain."""
    hn = (domain.offset ** domain.size).value
    return Polynomial(domain.field, [-hn] + [0] * (domain.size - 1) + [1])


def transition_vanishing(field, trace_domain, num_rows):
    """Z over rows 0..num_rows-1: (x^n - 1) / prod over excluded rows."""
    excluded = stark.membership_poly(
        field, [trace_domain.point(i)
                for i in range(num_rows, trace_domain.size)])
    quot, rem = divmod(vanishing_poly(trace_domain), excluded)
    assert rem.is_zero()
    return quot


def transition_quotient(column_polys, tc, trace):
    """(quotient, remainder) of predicate(col(x), col(g x), ...) by Z_E."""
    domain = trace.domain()
    g = domain.generator
    shifted = [poly.compose_scale(g ** r)
               for r in range(tc.window) for poly in column_polys]
    num_rows = trace.original_length - (tc.window - 1)
    return divmod(substitute(tc.predicate, shifted),
                  transition_vanishing(trace.field, domain, num_rows))


def first_violation(trace, tc):
    """First row whose window breaks the predicate, by a scalar scan."""
    for i in range(trace.original_length - (tc.window - 1)):
        vals = [trace.columns[c][i + r]
                for r in range(tc.window) for c in range(trace.num_columns)]
        if not evaluate(tc.predicate, vals).is_zero():
            return i
    return None

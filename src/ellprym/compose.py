"""Composition of truncated series: a change of local parameter.

The inner series is a local parameter u = phi(v), of valuation exactly 1,
and ``transform_form`` is the entry point that moves a list of 1-forms
through it, as residues are invariant under it.  ``compose_all`` forms the
powers of phi once for the whole list, by repeated products, as the columns
of one integer matrix (`scalars.Matrix`): each outer is that matrix times
its coefficients, and keeps its own window; a one-term phi = c*v needs no
powers.  Result windows are fixed by the inputs' windows alone, never by
the evaluation scheme.  Only ``equivariant`` and
``covering.reparametrized`` compose, so a command that builds or runs a
plain analysis never loads this module.
"""

from __future__ import annotations

from .errors import ValuationError
from .scalars import Matrix
from .series import TruncatedSeries


def compose_all(outers, inner):
    """[outer(inner) for outer in outers], for a local parameter inner, of
    valuation exactly 1, and outers of valuation >= 0.

    The powers inner^0 .. inner^(top-1) that the longest outer needs are
    formed once, at the widest window any outer needs, and laid out as the
    columns of one integer `Matrix`: each outer z^lo * q(z), the sum of
    q_e * inner^(lo+e), is one `Matrix._apply` of its coefficients placed
    at column lo.  A one-term inner c*z needs no powers
    (`_monomial_compose`).  Each outer keeps its own window,
    min(outer.prec, inner.prec + outer.valuation - 1), as a term-by-term
    Horner evaluation would give.
    """
    for outer in outers:
        outer._check_field(inner)
        if outer.valuation < 0:
            raise ValuationError("composition requires outer valuation >= 0")
    if inner.is_zero() or inner.valuation != 1:
        raise ValuationError("composition requires inner valuation 1")
    field, d = inner.field, inner.field.degree
    plans = []
    for outer in outers:
        # error from outer truncation is O(z^outer.prec); error from inner
        # truncation is O(z^(inner.prec + lo - 1))
        lo = outer.valuation
        prec = min(outer.prec, inner.prec + lo - 1)
        plans.append((prec, lo, outer.num[:max(0, prec - lo) * d], outer.den))
    used = [(prec, lo + len(q) // d) for prec, lo, q, _ in plans if q]
    if used and len(inner.num) > d:
        width, top = map(max, zip(*used))
        power = TruncatedSeries._make(field, 0, [1] + [0] * (d - 1), 1,
                                      width, True)
        columns = [power]
        while len(columns) < top:
            power = power * inner
            power = power.truncate(min(width, power.prec))
            columns.append(power)
        # column j >= 1 is known below inner.prec + j - 1 and zero-padded
        # past it: an outer of valuation lo weights only columns j >= lo,
        # known below inner.prec + lo - 1 or further, which is at least its
        # window, so the padding never reaches a result
        table = Matrix._make(field, [
            (p.ints_in(0, p.prec) + [0] * ((width - p.prec) * d), p.den)
            for p in columns], True).transpose()
    out = []
    for prec, lo, q, qden in plans:
        if not q:
            out.append(TruncatedSeries.zero(field, prec))
        elif len(inner.num) == d:
            out.append(_monomial_compose(field, prec, lo, q, qden, inner))
        else:
            v = [0] * (lo * d) + q + [0] * ((top - lo) * d - len(q))
            num, den = table._apply(v, qden)
            out.append(TruncatedSeries._make(field, 0, num[:prec * d], den,
                                             prec))
    return out


def _monomial_compose(field, prec, lo, q, den, inner):
    """The outer z^lo*q/den of `compose_all` at a one-term inner c*z:
    a_e*z^e goes to a_e*c^e*z^e, over den*c.den^top for the top exponent,
    so a_e*num(c)^e is scaled by c.den^(top - e)."""
    d, c, cden = field.degree, inner.num, inner.den
    top, power = lo + len(q) // d - 1, [1] + [0] * (d - 1)
    for _ in range(lo):
        power = field._mul(power, c)
    out = []
    for j in range(0, len(q), d):
        scale = cden ** (top - lo - j // d)
        out += [x * scale for x in field._mul(q[j:j + d], power)]
        power = field._mul(power, c)
    return TruncatedSeries._make(field, lo, out, den * cden ** top, prec)


def transform_form(series_list, substitution):
    """Rewrite 1-form coefficients under one change of local parameter.

    If a form is s(z) dz and z = phi(u), with phi of valuation 1, its new
    coefficient series is s(phi(u)) * phi'(u).  Residues are invariant under
    this operation, which is what licenses arbitrary local parameters in
    covering data.  All the series go through one `compose_all`, so they
    share its powers of phi while each keeps its own window, and phi' is
    formed once.
    """
    d = substitution.derivative()
    return [s * d for s in compose_all(series_list, substitution)]

"""Readers of the datum and deck-action files that ``covering`` writes.

``covering.load`` and ``cli.cmd_analyze``'s ``--action`` branch import
this module inside the call, so only a command that reads a datum or an
action, ``analyze``, loads it.  Every member is checked for its type and
against the caps in ``covering`` before any element of a list is parsed; a
scalar string is read by the one grammar of ``scalars``, each coefficient of
a series straight into ints.
"""

from __future__ import annotations

from .covering import (MAX_DEGREE, MAX_GENUS, MAX_WINDOW, CoveringDatum,
                       CyclicAction, FiberChart, RamificationChart, _expect,
                       _optional, _parse_scalar)
from .errors import FieldError, ParseError, SchemaError
from .scalars import FieldSpec, Matrix, _over_lcm, _parse
from .series import TruncatedSeries


def _expect_strings(obj, key, count, pointer):
    vals = _expect(obj, key, list, pointer)
    if len(vals) != count or not all(isinstance(v, str) for v in vals):
        raise SchemaError(f"{pointer}/{key}", f"expected {count} strings")
    return tuple(vals)


def _parse_series(field, obj, pointer):
    """The series of a JSON object that `covering._series_to_json` writes.
    Each coefficient string is read straight into ints in lowest terms
    (`scalars._parse`), the zero coefficients at both ends are dropped, and
    the rest are put over the lcm of their denominators, which leaves them
    in lowest terms: no gcd of the whole series is taken."""
    v = _expect(obj, "valuation", int, pointer)
    p = _expect(obj, "prec", int, pointer)
    for key, val in (("valuation", v), ("prec", p)):
        if abs(val) > MAX_WINDOW:
            raise SchemaError(f"{pointer}/{key}",
                              f"expected absolute value at most {MAX_WINDOW}")
    raw = _expect(obj, "coeffs", list, pointer)
    if v + len(raw) > p:
        raise SchemaError(pointer,
                          "coefficients extend beyond the stated precision")
    parts = []
    for i, s in enumerate(raw):
        try:
            parts.append(_parse(field, s))
        except ParseError as exc:
            raise SchemaError(f"{pointer}/coeffs/{i}", str(exc)) from None
    while parts and not any(parts[-1][0]):
        parts.pop()
    if not parts:
        return TruncatedSeries.zero(field, p)
    start = next(i for i, (num, _) in enumerate(parts) if any(num))
    return TruncatedSeries._make(field, v + start,
                                 *_over_lcm(parts[start:]), p, True)


def datum_from_json(obj):
    fobj = _expect(obj, "field", dict, "")
    order = _expect(fobj, "cyclotomic_order", int, "/field")
    try:
        fld = FieldSpec(order)
    except FieldError as exc:
        raise SchemaError("/field/cyclotomic_order", str(exc)) from None
    genus = _expect(obj, "genus", int, "")
    degree = _expect(obj, "degree", int, "")
    for key, val, cap in (("genus", genus, MAX_GENUS),
                          ("degree", degree, MAX_DEGREE)):
        if val < 0:
            raise SchemaError(f"/{key}", "expected at least 0")
        if val > cap:
            raise SchemaError(f"/{key}", f"expected at most {cap}")
    names = _expect_strings(obj, "basis_names", genus, "")
    hint = _optional(obj, "alpha_index_hint", int, "")
    charts_raw = _expect(obj, "charts", list, "")
    # every chart has index >= 2, so Riemann-Hurwitz allows 2g - 2 of them
    if len(charts_raw) > 2 * MAX_GENUS - 2:
        raise SchemaError("/charts", f"expected at most {2 * MAX_GENUS - 2} "
                          "charts")
    charts = []
    for j, cobj in enumerate(charts_raw):
        ptr = f"/charts/{j}"
        label = _expect(cobj, "label", str, ptr)
        index = _expect(cobj, "index", int, ptr)
        alpha = _parse_series(fld, _expect(cobj, "alpha_pullback", dict, ptr),
                              f"{ptr}/alpha_pullback")
        forms_raw = _expect(cobj, "forms", list, ptr)
        if len(forms_raw) > MAX_GENUS:
            raise SchemaError(f"{ptr}/forms",
                              f"expected at most {MAX_GENUS} forms")
        forms = tuple(_parse_series(fld, s, f"{ptr}/forms/{i}")
                      for i, s in enumerate(forms_raw))
        charts.append(RamificationChart(label, index, alpha, forms))
    fobj2 = _expect(obj, "fiber", dict, "")
    labels = _expect_strings(fobj2, "labels", degree, "/fiber")
    ratios_raw = _expect(fobj2, "ratios", list, "/fiber")
    if len(ratios_raw) > MAX_DEGREE:
        raise SchemaError("/fiber/ratios",
                          f"expected at most {MAX_DEGREE} rows")
    for k, row in enumerate(ratios_raw):
        if not isinstance(row, list):
            raise SchemaError(f"/fiber/ratios/{k}", "expected list")
        if len(row) > MAX_GENUS:
            raise SchemaError(f"/fiber/ratios/{k}",
                              f"expected at most {MAX_GENUS} entries")
    ratios = tuple(
        tuple(_parse_scalar(fld, s, f"/fiber/ratios/{k}/{i}")
              for i, s in enumerate(row))
        for k, row in enumerate(ratios_raw))
    return CoveringDatum(fld, genus, degree, tuple(charts),
                         FiberChart(labels, ratios), names, hint)


def action_from_json(datum, obj):
    """The ``CyclicAction`` of a JSON object, checked for its shape
    against the datum it acts on: a g x g matrix, one move per chart
    with a target chart index and a reparametrization of valuation 1 known
    to the chart's window, and a permutation of the fiber."""
    field, g, n = datum.field, datum.genus, len(datum.charts)
    order = _expect(obj, "order", int, "")
    if order < 2:
        raise SchemaError("/order", "expected int >= 2")
    rows = _expect(obj, "matrix", list, "")
    if len(rows) != g or not all(
            isinstance(row, list) and len(row) == g for row in rows):
        raise SchemaError("/matrix", f"expected {g} x {g} strings")
    matrix = Matrix(field, [[_parse_scalar(field, s, f"/matrix/{i}/{j}")
                             for j, s in enumerate(row)]
                            for i, row in enumerate(rows)])
    charts = _expect(obj, "charts", list, "")
    if len(charts) != n:
        raise SchemaError("/charts", f"expected {n} chart moves")
    moves = []
    for j, move in enumerate(charts):
        ptr = f"/charts/{j}"
        target = _expect(move, "target", int, ptr)
        if not 0 <= target < n:
            raise SchemaError(f"{ptr}/target",
                              f"expected a chart index below {n}")
        rho = _parse_series(field, _expect(move, "reparam", dict, ptr),
                            f"{ptr}/reparam")
        # a local parameter known as far as the chart's forms are
        window = datum.charts[j].window()
        if rho.is_zero() or rho.valuation != 1 or rho.prec < window:
            raise SchemaError(f"{ptr}/reparam", "expected valuation 1 and "
                              f"prec at least the chart window {window}")
        moves.append((target, rho))
    perm = _expect(obj, "fiber_permutation", list, "")
    if len(perm) != datum.degree or \
            not all(type(k) is int for k in perm) or \
            sorted(perm) != list(range(datum.degree)):
        raise SchemaError(
            "/fiber_permutation",
            f"expected a permutation of 0..{datum.degree - 1}")
    return CyclicAction(order, matrix, tuple(moves), tuple(perm))

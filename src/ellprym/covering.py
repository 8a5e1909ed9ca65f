"""The covering datum: an exact local model of a branched cover of an elliptic curve.

A datum consists of one ramification chart per ramification point (series
expansions of the pulled-back base form and of every basis 1-form in an
arbitrary local parameter) together with ratio values on one unramified
fiber.  Everything downstream -- residues, kernels, quadrics -- is computed
from this data alone; no global equations of the cover are stored.

Local parameters are deliberately arbitrary: residues of 1-forms and values
of functions are coordinate invariant, so reparametrizing any chart leaves
every kernel dimension unchanged.  The validator certifies that the stored
truncation windows are wide enough for the exact linear algebra: a section
of the square of the canonical bundle has degree 4g-4, so if the known
coefficient budget exceeds that bound, vanishing of all known data forces
the section to vanish identically.

The deck action of a cyclic cover is read and written here too, beside the
datum it acts on: ``CyclicAction`` and its JSON format.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import (FieldError, InsufficientPrecision, ParseError,
                     SchemaError, ValidationFailed)
from .scalars import (FieldSpec, Matrix, Scalar, _flat, _over_lcm, _parse,
                      _times, _to_json)
from .series import TruncatedSeries, _products, transform_form

# Largest chart window taken from untrusted input: it bounds the valuation
# and precision of every series read from a datum or action file and the
# window a cover is built to.  The stock fixtures use 10 to 80.  On one core
# of a 2-CPU Intel Xeon host, building the degree-3 Galois fixture takes
# 0.12 s of CPU at window 200, and 1.0 s at window 500 with the cap raised.
MAX_WINDOW = 200

# Largest genus and degree taken from a datum file, and most coefficients of
# h.P and h.Q in a cover spec.  The fixtures have genus 3 and 4, degree 2
# and 3, and at most 4 coefficients.  The multiplication table forms
# g(g+1)/2 series products on each of up to 2g-2 charts, so its cost grows as
# g^3: 12 ms of CPU at genus 4 on 6 charts at window 40 (one core of a 2-CPU
# Intel Xeon host), about 70 times that at genus 16.  The builder makes
# covers of prime degree up to 13; 8 coefficients give h up to 17 zeros.
MAX_GENUS = 16
MAX_DEGREE = 16
MAX_FUNCTION_TERMS = 8


def lex_pairs(size):
    """The pairs i <= j < size in lexicographic order: the coordinate order
    of every symmetric 2-tensor, here and in ``diffalg``."""
    return [(i, j) for i in range(size) for j in range(i, size)]


class RamificationChart(NamedTuple):
    """Series data at one ramification point, in a local parameter u.

    ``alpha_pullback`` is the coefficient series of the pulled-back base
    differential (as a du-coefficient); it vanishes to order index-1.
    ``forms`` holds one du-coefficient series per basis differential.
    """
    label: str
    index: int  # the ramification index; shadows tuple.index
    alpha_pullback: TruncatedSeries
    forms: tuple

    def window(self):
        """Certified coefficient count: exponents 0..window-1 are known."""
        return min([self.alpha_pullback.prec] + [s.prec for s in self.forms])


class FiberChart(NamedTuple):
    """Values of (form / pulled-back base form) at the points of one fiber."""
    labels: tuple
    ratios: tuple  # d rows, one per fiber point; each row has g scalars


class _DatumFields(NamedTuple):
    field: FieldSpec
    genus: int
    degree: int
    charts: tuple
    fiber: FiberChart
    basis_names: tuple
    alpha_index_hint: Optional[int]


class CoveringDatum(_DatumFields):
    """The datum's fields, plus the validation report and multiplication
    table, each computed once on first use (this subclass has the instance
    dict that ``cached_property`` stores them in)."""

    @property
    def n_ramification(self):
        return len(self.charts)

    def reduced_branch_excess(self):
        """deg(R - R_red) = (2g-2) - n."""
        return (2 * self.genus - 2) - self.n_ramification

    @cached_property
    def validation(self):
        """The report of ``validate``, computed once per datum."""
        return validate(self)

    @cached_property
    def multiplication_table(self):
        """The multiplication map on the lexicographic basis, built once.

        Chart products f_i f_j are formed only here and, past the table's
        rows, in `tail_rows`, both through `_chart_products`; fiber
        products r_i r_j only here.
        """
        fld, d, pairs = self.field, self.field.degree, lex_pairs(self.genus)
        # a quadratic differential has 4g-4 zeros, so one that vanishes to
        # order k_c on each chart and at the fiber's points, with sum k_c +
        # degree >= 4g-3, is zero: every chart keeps the v = index - 1
        # terms its residue row reads, and the first charts take the rest
        # up to their windows (all of every window when the budget falls
        # short)
        short = 4 * self.genus - 3 - self.degree - sum(
            c.alpha_pullback.valuation for c in self.charts)
        charts, residues, orders = [], [], []
        for k, c in enumerate(self.charts):
            v = c.alpha_pullback.valuation
            n = min(c.window(), v + max(short, 0))
            short -= n - v
            orders.append(n)
            # column p of the chart's block holds product p below u^n
            products = _chart_products(fld, c.forms, n)
            charts.append(Matrix._make(fld, products).transpose())
            # 1/alpha starts at u^-v, so the residue of f_i f_j / alpha sums
            # the coefficient of u^e in f_i f_j times that of u^(-1-e) in
            # 1/alpha over e < v: each product's first v coefficients meet
            # u^-1..u^-v of 1/alpha, which alpha's own first v terms,
            # u^v..u^(2v-1), determine
            if c.alpha_pullback.prec < 2 * v:
                raise InsufficientPrecision(
                    f"chart {k} ({c.label}): alpha pullback prec "
                    f"{c.alpha_pullback.prec} < 2(index-1) = {2 * v}, the "
                    "terms that 1/alpha is read from")
            inv_alpha = c.alpha_pullback.truncate(2 * v).inverse()
            residues.append(Matrix._make(fld, [(p[:v * d], e)
                                               for p, e in products]).mul_vec(
                inv_alpha.coefficients_in(-v, 0)[::-1]))
        fiber = Matrix(fld, [[r[i] * r[j] for i, j in pairs]
                             for r in self.fiber.ratios])
        return MultiplicationTable(
            Matrix.stack([*charts, fiber]), Matrix(fld, residues),
            Matrix(fld, [[1] * self.degree]).matmul(fiber), tuple(orders))


class MultiplicationTable(NamedTuple):
    """The multiplication map on the basis eta_i . eta_j, i <= j, in lex order.

    Column p of every matrix belongs to the p-th pair (i, j).  ``multiply``
    has, chart by chart, one row per coefficient of u^e in f_i f_j for e
    below the chart's entry k_c of ``orders``, then one row per fiber point
    k with the value r_i r_j there.  The rows run to the quadric
    certificate, sum k_c + d >= 4g - 3, not to the chart windows: a
    quadratic differential with that many zeros is zero, so on the data of
    a curve the kernel is that of the map to the whole windows, which
    `tails_vanish` checks.  Row c of ``residues`` is the residue of f_i f_j
    over the alpha pullback of chart c, read from the first index - 1
    coefficients of the products on that chart; the single row of
    ``fiber_sum`` sums the fiber.  Every slot is linear in the tensor, so
    the image of a tensor is the product of one of these matrices with its
    lex coordinates.
    """
    multiply: Matrix
    residues: Matrix
    fiber_sum: Matrix
    orders: tuple


def tails_vanish(datum, tensors):
    """Whether each tensor, by its lex coordinates c, gives sum c_ij f_i f_j
    = 0 below each chart's whole window, past the rows of the
    multiplication table too.  On a chart, with h_i the sum of c_ij f_j
    over j >= i, that is sum_i f_i h_i: at most g products, one per nonzero
    h_i, on the forms' ints over their lcm and the tensor's over its own,
    since no denominator changes whether the sum is zero.  The first chart
    and tensor whose sum is not zero end the check."""
    field, g, d = datum.field, datum.genus, datum.field.degree
    # per tensor, (i, j, c_ij) for each nonzero c_ij
    terms = [[(i, j, c[p * d:p * d + d]) for p, (i, j) in
              enumerate(lex_pairs(g)) if any(c[p * d:p * d + d])]
             for c in (_flat(field, t)[0] for t in tensors)]
    for chart in datum.charts:
        w = chart.window()
        f = _over_lcm([(s.ints_in(0, w), s.den) for s in chart.forms])[0]
        f = [f[i * w * d:(i + 1) * w * d] for i in range(g)]
        for t in terms:
            parts, pairs = list(f), []
            for i in range(g):
                h = [_times(field, f[j], x) for a, j, x in t if a == i]
                if h:
                    pairs.append((i, len(parts)))
                    parts.append(list(map(sum, zip(*h))))
            if any(_products(field, parts, [pairs], w)[0]):
                return False
    return True


def tail_rows(datum):
    """The rows of the map to the whole chart windows that the
    multiplication table leaves out: on each chart, the coefficients of
    u^k..u^(w-1) of every f_i f_j, k the chart's order in the table and w
    its window.  Stacked with the table's ``multiply`` they give that map,
    for `diffalg.quadric_kernel` when a tail does not vanish."""
    fld, d = datum.field, datum.field.degree
    return Matrix.stack([Matrix._make(fld, [
        (p[k * d:], e) for p, e in _chart_products(fld, c.forms, c.window())
    ]).transpose() for c, k in zip(datum.charts,
                                   datum.multiplication_table.orders)])


def _chart_products(field, forms, stop):
    """The products f_i f_j of a chart's forms below u^stop, for the lex
    pairs (i, j), each as flat ints over its denominator: one `_products`
    call, which packs each form once."""
    pairs = lex_pairs(len(forms))
    return [(p, forms[i].den * forms[j].den) for p, (i, j) in zip(
        _products(field, [s.ints_in(0, stop) for s in forms],
                   [[p] for p in pairs], stop), pairs)]


class Finding(NamedTuple):
    name: str
    passed: bool
    detail: str
    hard: bool = True  # certificate-level findings are recorded, not fatal


class ValidationReport(NamedTuple):
    findings: tuple
    chart_windows: tuple
    coefficient_budget: int
    independence_bound: int
    quadric_bound: int

    @property
    def ok(self):
        return all(f.passed for f in self.findings if f.hard)

    @property
    def quadric_certified(self):
        return self.coefficient_budget >= self.quadric_bound

    def failures(self):
        return [f for f in self.findings if not f.passed]

    def to_json(self):
        return {
            "ok": self.ok,
            "quadric_certified": self.quadric_certified,
            "findings": [{"name": f.name, "passed": f.passed,
                          "detail": f.detail, "hard": f.hard}
                         for f in self.findings],
            "chart_windows": list(self.chart_windows),
            "coefficient_budget": self.coefficient_budget,
            "independence_bound": self.independence_bound,
            "quadric_bound": self.quadric_bound,
        }


def validate(datum):
    """Run every validation check; never aborts early.

    Checks, in order: Riemann-Hurwitz over an elliptic base, chart valuation
    rules, the rank-g independence certificate, the quadratic-differential
    precision certificate, and trace consistency on the fiber.
    """
    findings = []
    g, d = datum.genus, datum.degree

    def add(name, passed, detail, hard=True):
        findings.append(Finding(name, passed, detail, hard))

    # (1) Riemann-Hurwitz: sum of (n_j - 1) must equal 2g - 2
    rh = sum(c.index - 1 for c in datum.charts)
    add("riemann_hurwitz", rh == 2 * g - 2,
        f"sum(n_j - 1) = {rh}, expected 2g-2 = {2 * g - 2}")
    add("genus_bound", g >= 3, f"genus {g} (need >= 3)")

    # (2) chart valuation rules
    for j, c in enumerate(datum.charts):
        msgs = []
        if c.index < 2:
            msgs.append(f"index {c.index} < 2 is not a ramification point")
        if c.index > d:
            msgs.append(f"index {c.index} > degree {d}")
        if c.alpha_pullback.is_zero() or \
                c.alpha_pullback.valuation != c.index - 1:
            msgs.append(
                f"alpha pullback valuation {c.alpha_pullback.valuation} != "
                f"index-1 = {c.index - 1}")
        for i, s in enumerate(c.forms):
            if s.valuation < 0:     # for a zero series, prec < 0
                msgs.append(f"form {i} is not known below exponent 0"
                            if s.is_zero() else
                            f"form {i} has a pole (valuation {s.valuation})")
        if len(c.forms) != g:
            msgs.append(f"{len(c.forms)} form expansions, expected g = {g}")
        if c.window() < c.index - 1:    # the terms the residue rows read
            msgs.append(f"window {c.window()} < index-1 = {c.index - 1}")
        add(f"chart_valuations[{j}]", not msgs, "; ".join(msgs) or "ok")

    # fiber shape
    shape_ok = len(datum.fiber.ratios) == d and \
        all(len(r) == g for r in datum.fiber.ratios)
    add("fiber_shape", shape_ok,
        f"{len(datum.fiber.ratios)} rows of "
        f"{[len(r) for r in datum.fiber.ratios]} entries; expected {d} x {g}")

    windows = [c.window() for c in datum.charts]
    budget = sum(windows) + d

    # (3) independence certificate: a nonzero holomorphic 1-form has exactly
    # 2g-2 zeros, so with budget > 2g-2 a rank defect would be a genuine
    # linear dependence among the basis forms.
    if shape_ok and all(len(c.forms) == g for c in datum.charts):
        rank = form_coefficients(datum).rank()
        add("independence_certificate",
            budget > 2 * g - 2 and rank == g,
            f"rank {rank} of g x {budget} coefficient matrix "
            f"(budget {budget}, bound {2 * g - 2})")
    else:
        add("independence_certificate", False,
            "form count invalid" if shape_ok else "fiber shape invalid")

    # (4) quadric-precision certificate: sections of the squared canonical
    # bundle have degree 4g-4; budget >= 4g-3 makes their kernel computation
    # exact.  Recorded as a certificate level: operations that need it
    # refuse under-resolved input with InsufficientPrecision.
    add("quadric_precision", budget >= 4 * g - 3,
        f"budget {budget}, bound {4 * g - 3}", hard=False)

    # (5) trace consistency
    if shape_ok:
        tau = trace_vector(datum)
        nonzero = any(not t.is_zero() for t in tau)
        msg = "trace vector " + ("nonzero" if nonzero else "zero")
        ok = nonzero
        if datum.alpha_index_hint is not None:
            hint = datum.alpha_index_hint
            expect = datum.field.scalar(d)
            if not (0 <= hint < g):
                ok = False
                msg += f"; alpha index {hint} out of range"
            elif tau[hint] != expect:
                ok = False
                msg += f"; trace at alpha index = {tau[hint]}, expected {d}"
            else:
                col_ones = all(row[hint] == datum.field.one()
                               for row in datum.fiber.ratios)
                if not col_ones:
                    ok = False
                    msg += "; alpha column of ratios is not all ones"
            # the hinted form is taken as alpha, so it must be on the charts
            if 0 <= hint < g and all(len(c.forms) == g for c in datum.charts):
                off = [j for j, c in enumerate(datum.charts)
                       if not (c.forms[hint] - c.alpha_pullback).is_zero()]
                if off:
                    ok = False
                    msg += (f"; form {hint} differs from the alpha pullback "
                            f"at charts {off}")
        add("trace_consistency", ok, msg)
    else:
        add("trace_consistency", False, "fiber shape invalid")

    return ValidationReport(tuple(findings), tuple(windows), budget,
                            2 * g - 2, 4 * g - 3)


def form_coefficients(datum):
    """The g x budget matrix of the basis forms' known data: row i holds the
    coefficients of form i below each chart window, then its fiber ratios.
    ``validate`` ranks it for the independence certificate."""
    return Matrix._make(datum.field, [_over_lcm(
        [(c.forms[i].ints_in(0, c.window()), c.forms[i].den)
         for c in datum.charts] +
        [(row[i].num, row[i].den) for row in datum.fiber.ratios])
        for i in range(datum.genus)])


def trace_vector(datum):
    """The trace ratios tau of the basis forms at the fiber base point:
    each form's ratio values summed over the fiber.  Its kernel is the
    trace-zero space, the tangent space of the Prym variety."""
    zero = datum.field.zero()
    return [sum((row[i] for row in datum.fiber.ratios), zero)
            for i in range(datum.genus)]


def require_valid(datum):
    """The cached validation report of a datum; unless it passes, raises
    ValidationFailed naming each failure with its detail."""
    report = datum.validation
    if not report.ok:
        raise ValidationFailed(
            "datum failed validation: " +
            "; ".join(f"{f.name}: {f.detail}" for f in report.failures()))
    return report


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _expect(obj, key, kind, pointer):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing required member")
    val = obj[key]
    # bool is a subclass of int, but true is not a genus
    if kind is not None and (not isinstance(val, kind) or
                             kind is int and isinstance(val, bool)):
        raise SchemaError(f"{pointer}/{key}",
                          f"expected {getattr(kind, '__name__', kind)}")
    return val


def _optional(obj, key, kind, pointer):
    """Like _expect, but a missing or null member gives None."""
    return None if obj.get(key) is None else _expect(obj, key, kind, pointer)


def _expect_strings(obj, key, count, pointer):
    vals = _expect(obj, key, list, pointer)
    if len(vals) != count or not all(isinstance(v, str) for v in vals):
        raise SchemaError(f"{pointer}/{key}", f"expected {count} strings")
    return tuple(vals)


def _parse_scalar(field, text, pointer, flat=False):
    """The Scalar that the scalar string at this JSON pointer denotes, or
    with ``flat`` its ints over a denominator (`scalars._parse`, the one
    grammar); a string it refuses raises SchemaError there."""
    try:
        return _parse(field, text) if flat else \
            Scalar.from_string(field, text)
    except ParseError as exc:
        raise SchemaError(pointer, str(exc)) from None


def _parse_series(field, obj, pointer):
    """The series of a JSON object that `_series_to_json` writes: each
    coefficient string read straight into ints, all put over one lcm."""
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
    return TruncatedSeries._make(field, v, *_over_lcm([
        _parse_scalar(field, s, f"{pointer}/coeffs/{i}", True)
        for i, s in enumerate(raw)]), p)


def _series_to_json(s):
    """The JSON object of a series that `_parse_series` reads: its valuation,
    its precision and its coefficients from the valuation on, each written
    from the series' ints over its denominator."""
    d = s.field.degree
    return {"valuation": s.valuation, "prec": s.prec,
            "coeffs": [_to_json(s.num[i:i + d], s.den)
                       for i in range(0, len(s.num), d)]}


def datum_to_json(datum):
    return {
        "field": {"cyclotomic_order": datum.field.cyclotomic_order},
        "genus": datum.genus,
        "degree": datum.degree,
        "basis_names": list(datum.basis_names),
        "alpha_index_hint": datum.alpha_index_hint,
        "charts": [
            {"label": c.label,
             "index": c.index,
             "alpha_pullback": _series_to_json(c.alpha_pullback),
             "forms": [_series_to_json(s) for s in c.forms]}
            for c in datum.charts
        ],
        "fiber": {
            "labels": list(datum.fiber.labels),
            "ratios": [[x.to_json() for x in row]
                       for row in datum.fiber.ratios],
        },
    }


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


def json_text(obj):
    """The one JSON text format of every file and report the package
    writes: sorted keys, two-space indent, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save(datum, path):
    text = json_text(datum_to_json(datum))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path):
    """The JSON value in a file.  A file that does not decode as JSON (bad
    syntax or encoding, nesting too deep for the parser, an integer over
    Python's digit limit) raises SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from None


def load(path):
    return datum_from_json(read_json(path))


def reparametrized(datum, substitutions):
    """Re-express chart series through new local parameters.

    ``substitutions`` maps chart index to a local parameter phi, a series of
    valuation exactly 1 (``transform_form`` raises ValuationError on any
    other); chart series s(u) du become s(phi(v)) phi'(v) dv.  Kernel
    dimensions computed downstream are invariant under this operation.
    """
    charts = list(datum.charts)
    for j, phi in substitutions.items():
        c = charts[j]
        alpha, *forms = transform_form([c.alpha_pullback, *c.forms], phi)
        charts[j] = c._replace(alpha_pullback=alpha, forms=tuple(forms))
    return datum._replace(charts=tuple(charts))


def change_basis(datum, matrix):
    """Replace the form basis eta by eta' = eta . B for an invertible B.

    Ratio rows transform by right multiplication; chart expansions by the
    same linear combinations.  The alpha index hint is dropped because the
    pullback form need not stay a basis vector.
    """
    Bt = matrix.transpose()
    cols = Bt.rows
    charts = tuple(c._replace(forms=tuple(
        sum((s.scale(x) for s, x in zip(c.forms, col) if x),
            TruncatedSeries.zero(datum.field, min(s.prec for s in c.forms)))
        for col in cols)) for c in datum.charts)
    ratios = tuple(tuple(Bt.mul_vec(row)) for row in datum.fiber.ratios)
    return datum._replace(charts=charts,
                          fiber=datum.fiber._replace(ratios=ratios),
                          basis_names=tuple(f"b{i}" for i in range(datum.genus)),
                          alpha_index_hint=None)


class CyclicAction(NamedTuple):
    """Action of a cyclic deck group of the given order.

    ``matrix`` is the generator acting on the form basis by pullback;
    ``chart_moves`` lists, per chart, the target chart index together with
    the local reparametrization series; ``fiber_permutation`` sends fiber
    point k to its image.
    """
    order: int
    matrix: Matrix
    chart_moves: tuple   # ((target_index, reparam TruncatedSeries), ...)
    fiber_permutation: tuple

    def to_json(self):
        return {
            "order": self.order,
            "matrix": [[x.to_json() for x in row] for row in self.matrix.rows],
            "charts": [{"target": t, "reparam": _series_to_json(s)}
                       for (t, s) in self.chart_moves],
            "fiber_permutation": list(self.fiber_permutation),
        }

    @classmethod
    def from_json(cls, datum, obj):
        """Parse an action, checking its shape against the datum it acts on:
        a g x g matrix, one move per chart with a target chart index and a
        reparametrization of valuation 1 known to the chart's window, and a
        permutation of the fiber."""
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
        return cls(order, matrix, tuple(moves), tuple(perm))

import json
import random
import re
from fractions import Fraction as F
from math import isqrt, lcm
from pathlib import Path

import pytest

from ellprym import builder
from ellprym.builder import (INFINITY, CurveFunction, CyclicCoverSpec,
                             EllipticCurve, Point, _rational_roots,
                             base_series, bielliptic_spec, build_cover,
                             divisor_of, nth_root_rational, pirola_spec,
                             riemann_roch_basis, spec_from_json, spec_to_json,
                             valuation_at)
from ellprym.covering import validate
from ellprym.diffalg import gram
from ellprym.errors import (BuilderError, FieldTooSmall, InputError,
                            PointOutsideField, PrecisionUnreachable,
                            UnsupportedOrder, UnsupportedRamification)
from ellprym.scalars import FieldSpec, Scalar, pdivmod
from ellprym.series import TruncatedSeries
from test_scalars import padd, pmul, psub

Q = FieldSpec(1)
Q3 = FieldSpec(3)


def _curve_q3():
    return EllipticCurve(Q3, Q3.zero(), Q3.one())


# -- divisors -----------------------------------------------------------------

def _fraction_key(item):
    """Reference order of divisor places: (x, y) as Fractions, infinity
    last."""
    place, _ = item
    if place is INFINITY:
        return (1,)
    return (0, F(place.x.num[0], place.x.den), F(place.y.num[0], place.y.den))


def test_divisor_places_ascend_with_infinity_last():
    """On curves over Q through two random points with fractional
    coordinates, (x - x1)(x - x2) has both points above each root, and
    (y - l)(x - x1), l the line through the points, a double zero at one
    of them and a simple zero at the other point above x1.  The divisor's
    places come in the reference order."""
    rng = random.Random(21)
    both = 0
    for _ in range(20):
        (x1, y1), (x2, y2) = [(F(rng.randint(-7, 7), rng.randint(1, 4)),
                               F(rng.randint(1, 7), rng.randint(1, 4)))
                              for _ in range(2)]
        if x1 == x2:
            continue
        A = (y1 ** 2 - x1 ** 3 - y2 ** 2 + x2 ** 3) / (x1 - x2)
        B = y1 ** 2 - x1 ** 3 - A * x1
        E = EllipticCurve(Q, Q.scalar(A), Q.scalar(B))
        m = (y2 - y1) / (x2 - x1)
        k = y1 - m * x1
        for h in (CurveFunction.make(E, [x1 * x2, -x1 - x2, 1]),
                  CurveFunction.make(E, [k * x1, m * x1 - k, -m], [-x1, 1])):
            try:
                items = list(divisor_of(E, h).items())
            except PointOutsideField:
                continue
            assert items == sorted(items, key=_fraction_key)
            xs = [p.x for p, _ in items if p is not INFINITY]
            both += len(set(xs)) < len(xs)
    assert both >= 10


def test_divisor_of_line_section():
    """Zeros from x^3 - x^2 - 2x = 0, checked against series valuations."""
    E = _curve_q3()
    h = CurveFunction.make(E, [-1, -1], [1])      # y - x - 1
    div = divisor_of(E, h)
    expect = {
        E.point(0, 1): 1,
        E.point(2, 3): 1,
        E.point(-1, 0): 1,
        INFINITY: -3,
    }
    assert div == expect
    # brute-force oracle: substitute y = x + 1 into the curve equation
    for xv in (F(0), F(2), F(-1)):
        assert xv ** 3 - xv ** 2 - 2 * xv == 0


def test_divisor_of_x_is_double_pole():
    E = _curve_q3()
    h = CurveFunction.make(E, [0, 1])
    div = divisor_of(E, h)
    assert div == {E.point(0, 1): 1, E.point(0, -1): 1, INFINITY: -2}


def test_divisor_of_constant_empty():
    E = _curve_q3()
    assert divisor_of(E, CurveFunction.make(E, [5])) == {}


def test_divisor_degree_sums_to_zero(biell4):
    div = divisor_of(biell4.spec.curve, biell4.spec.h)
    assert sum(div.values()) == 0
    assert len([v for v in div.values() if abs(v) == 1]) == 6


def test_divisor_outside_field_reports_minpoly():
    E = EllipticCurve(Q, Q.zero(), Q.scalar(2))   # y^2 = x^3 + 2
    h = CurveFunction.make(E, [0, 1])             # zeros at (0, +-sqrt(2))
    with pytest.raises(PointOutsideField) as err:
        divisor_of(E, h)
    assert any("y^2" in f for f in err.value.factors)


def test_divisor_with_two_torsion_multiplicity():
    E = _curve_q3()
    h = CurveFunction.make(E, [1, 1])              # x + 1: double zero at (-1,0)
    div = divisor_of(E, h)
    assert div == {E.point(-1, 0): 2, INFINITY: -2}


@pytest.mark.parametrize("c", [[0, 1], [1, 2], [2, 1]],
                         ids=["zeta_3", "1+2zeta_3", "2+zeta_3"])
def test_divisor_of_a_constant_multiple_is_unchanged(c):
    """c h has the zeros of h.  For c = zeta_3 and 2 + zeta_3 the norm
    polynomial of c h has non-rational coefficients, and its roots are
    searched on its first nonzero coordinate polynomial over Q;
    1 + 2 zeta_3 = sqrt(-3) has a rational square and keeps the norm
    rational."""
    spec = pirola_spec()
    E, h = spec.curve, spec.h
    c = Scalar(Q3, c)
    ch = CurveFunction.make(E, [c * a for a in h.P], [c * b for b in h.Q])
    assert divisor_of(E, ch) == divisor_of(E, h)


@pytest.mark.parametrize("c", [[1], [0, 1]], ids=["1", "zeta_3"])
def test_divisor_of_a_multiple_of_x_minus_2000(c):
    """The zeros of x - 2000 lie over y^2 = 8000000001, which is not a
    square.  The norm of zeta_3 (x - 2000) is zeta_3^2 (x - 2000)^2; its
    Galois product had a 44-bit constant, above the root search's limit,
    while each of its coordinate polynomials is -(x - 2000)^2."""
    E = _curve_q3()
    c = Scalar(Q3, c)
    with pytest.raises(PointOutsideField) as err:
        divisor_of(E, CurveFunction.make(E, [c * -2000, c]))
    assert err.value.factors == ['y^2 - (8000000001) at x = 2000']


def _times(fn, P, Q=()):
    """fn * (P + yQ), reduced through y^2 = rhs."""
    rhs = fn.curve.rhs()
    return CurveFunction.make(
        fn.curve, padd(pmul(fn.P, P), pmul(rhs, pmul(fn.Q, Q))),
        padd(pmul(fn.P, Q), pmul(fn.Q, P)))


def _schoolbook_norm(fn):
    """Reference: P^2 - rhs * Q^2 by the schoolbook product."""
    return psub(pmul(fn.P, fn.P), pmul(fn.curve.rhs(), pmul(fn.Q, fn.Q)))


def _valuation_functions(field):
    """The curve y^2 = x^3 + 1, its points (-1, 0) (2-torsion), (0, +-1)
    and (2, +-3), and seeded random P + yQ on it, some times x - x0 or
    y - y0 for one of those points."""
    rng = random.Random(20261101 + field.degree)
    E = EllipticCurve(field, field.zero(), field.one())
    points = [E.point(-1, 0), E.point(0, 1), E.point(0, -1), E.point(2, 3),
              E.point(2, -3)]

    def poly(n):
        return [Scalar(field, [F(rng.choice((0, rng.randint(-5, 5))),
                                 rng.randint(1, 3))
                               for _ in range(field.degree)])
                for _ in range(n)]

    functions = []
    for _ in range(40):
        fn = CurveFunction.make(E, poly(rng.randint(0, 5)),
                                poly(rng.randint(0, 5)))
        if fn.is_zero():
            continue
        pt = rng.choice(points)
        for _ in range(rng.randint(0, 2)):
            fn = _times(fn, *rng.choice((([-pt.x, field.one()],),
                                         ([-pt.y], [field.one()]))))
        functions.append(fn)
    return E, points, functions


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_valuation_at_against_expansion_and_norm(field):
    """Seeded random P + yQ on y^2 = x^3 + 1 (`_valuation_functions`).
    At (-1, 0) (2-torsion), (0, +-1) and (2, +-3) the oracle is one
    expansion to precision 30, far past any pole order here; at infinity
    it is -deg(P^2 - (x^3 + 1) Q^2)."""
    E, points, functions = _valuation_functions(field)
    local = {pt: base_series(E, pt, 30) for pt in points}
    for fn in functions:
        norm = _schoolbook_norm(fn)
        assert valuation_at(fn, INFINITY) == -(len(norm) - 1), fn
        for place in points:
            expect = fn.at(*local[place]).valuation
            assert expect < 30 and valuation_at(fn, place) == expect, \
                (fn, place)


def _affine_divisor_oracle(fn, valuation=None):
    """Reference for the affine part of `divisor_of`, from the schoolbook
    norm: a rational root's multiplicity by repeated division by x - x0,
    the points above it by an integer square root, in ascending y, their
    valuations by one expansion to precision 40, or by ``valuation`` at
    each point, and then they must sum to the multiplicity.  Returns
    (divisor, the messages that PointOutsideField should carry)."""
    E, field, d = fn.curve, fn.curve.field, fn.curve.field.degree
    norm = _schoolbook_norm(fn)
    den = lcm(*(c.den for c in norm))
    ints = [x * (den // c.den) for c in norm for x in c.num]
    div, outside, leftover = {}, [], len(norm) - 1
    for p, q in _rational_roots(next(filter(any, (ints[k::d]
                                                  for k in range(d))))):
        x0 = field.scalar(F(p, q))
        mult, (quotient, rem) = 0, pdivmod(norm, [-x0, field.one()])
        while not rem:
            mult += 1
            quotient, rem = pdivmod(quotient, [-x0, field.one()])
        if not mult:
            continue
        leftover -= mult
        fx = sum((c * x0 ** i for i, c in enumerate(E.rhs())), field.zero())
        a, b = fx.num[0], fx.den
        if a < 0 or isqrt(a) ** 2 != a or isqrt(b) ** 2 != b:
            outside.append(f"y^2 - ({fx.to_string()}) at x = {x0}")
            continue
        y0 = field.scalar(F(isqrt(a), isqrt(b)))
        points = [Point(x0, -y0), Point(x0, y0)] if a else [Point(x0, y0)]
        values = [fn.at(*base_series(E, pt, 40)).valuation
                  if valuation is None else valuation(fn, pt)
                  for pt in points]
        assert valuation is None or sum(values) == mult, (fn, x0)
        div.update((pt, v) for pt, v in zip(points, values) if v)
    if leftover:
        outside.append(
            f"unresolved factor of degree {leftover} in norm polynomial "
            f"[{', '.join(c.to_string() for c in norm)}]")
    return div, outside


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_divisor_of_against_the_schoolbook_norm(field):
    """Seeded random P + yQ on y^2 = x^3 + 1, a third of them constants,
    times (x - x0)^k for x0 in {-1, 0, 2}, then times an irreducible
    quadratic factor.  Oracle: the schoolbook norm (`_affine_divisor_oracle`).
    Where it leaves nothing outside the field, `divisor_of` returns its
    divisor plus the pole of order deg N at infinity; otherwise it raises
    PointOutsideField with the same messages, among them the leftover
    degree and the schoolbook norm's coefficients; a refused root search
    is refused alike."""
    rng = random.Random(20261020 + field.degree)
    E = EllipticCurve(field, field.zero(), field.one())

    def poly(n):
        return [Scalar(field, [F(rng.choice((0, rng.randint(1, 4),
                                             rng.randint(-4, -1))),
                                 rng.randint(1, 3))
                               for _ in range(field.degree)])
                for _ in range(n)]

    outcomes = []
    for trial in range(30):
        base = CurveFunction.make(E, poly(rng.randint(1, 3)),
                                  poly(rng.randint(0, 2)) if trial % 3 else [])
        if base.is_zero():
            continue
        fn = base
        x0 = field.scalar(rng.choice((-1, 0, 2)))
        for _ in range(rng.randint(0, 3)):
            fn = _times(fn, [-x0, field.one()])
        quadratic = [field.scalar(c) for c in rng.choice(([-2, 0, 1],
                                                          [1, 0, 1]))]
        for h in (fn, _times(fn, quadratic)):
            try:
                div, outside = _affine_divisor_oracle(h)
            except BuilderError as exc:
                with pytest.raises(BuilderError) as err:
                    divisor_of(E, h)
                assert str(err.value) == str(exc)
                outcomes.append("refused")
                continue
            if outside:
                with pytest.raises(PointOutsideField) as err:
                    divisor_of(E, h)
                assert err.value.factors == outside, h
                outcomes.append("outside")
            else:
                degree = len(_schoolbook_norm(h)) - 1
                assert divisor_of(E, h) == \
                    {**div, **({INFINITY: -degree} if degree else {})}, h
                outcomes.append("divisor")
    assert {"divisor", "outside"} <= set(outcomes)


def _per_point_route(fn):
    """`divisor_of` against the route it took before it read valuations
    from the norm: `valuation_at`, which expands at every point that the
    function vanishes at, over every rational root of the schoolbook norm,
    the valuations summed against the root's multiplicity.  The places
    must come in the same order, infinity last, or PointOutsideField must
    carry the same messages."""
    div, outside = _affine_divisor_oracle(fn, valuation_at)
    if outside:
        with pytest.raises(PointOutsideField) as err:
            divisor_of(fn.curve, fn)
        assert err.value.factors == outside, fn
        return "outside"
    pole = valuation_at(fn, INFINITY)
    assert list(divisor_of(fn.curve, fn).items()) == \
        list(div.items()) + ([(INFINITY, pole)] if pole else []), fn
    return "divisor"


def _readme_spec():
    """The cover spec of the README's build example."""
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    return spec_from_json(json.loads(re.search(
        r"cat > cover.json <<.EOF.\n(.*?)\nEOF\n", text, re.S).group(1)))


@pytest.mark.parametrize("make", [
    pirola_spec, lambda: bielliptic_spec(3), lambda: bielliptic_spec(4),
    _readme_spec], ids=["pirola", "double3", "double4", "readme"])
def test_divisor_of_the_fixtures_against_the_per_point_route(make):
    """The stock covers, whose zeros are all simple (on the genus-4
    double cover, both points over each root), and the README's."""
    spec = make()
    assert _per_point_route(spec.h) == "divisor"


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_divisor_of_against_the_per_point_route(field):
    """The random functions of
    `test_valuation_at_against_expansion_and_norm`."""
    outcomes = {_per_point_route(fn)
                for fn in _valuation_functions(field)[2]}
    assert outcomes == {"divisor", "outside"}


def _norm_rule_cases():
    """(function, its divisor) on y^2 = x^3 + 1 and y^2 = x^3 - x over Q,
    one per branch of the norm rule (`builder._valuations_over`), x0 the
    root the branch is read at, m its multiplicity, k the power of
    x - x0 in P and Q:
    (x - 2)^2 (1 + y): x0 = 2, k = 2, h1 = 1 + y vanishes at neither
    point, so both take k; x0 = 0, m = 3 at the flex (0, -1), one
    expansion.
    (x - 2)(x + 1 - y): x0 = 2, k = 1, m = 3, so (2, 3), where h1 vanishes,
    takes m - k = 2 by the tangent test and (2, -3) takes k; the 2-torsion
    (-1, 0) takes m = 1 by the tangent test.
    y - 2x + 1, the tangent line at (2, 3): m - 2k = 2 there, one
    expansion.
    y on y^2 = x^3 - x: three 2-torsion zeros, each by the tangent test.
    y (x - 1) there: x0 = 1, P = 0, k = 1, and the 2-torsion point takes
    m = 3."""
    E1 = EllipticCurve(Q, Q.zero(), Q.one())
    E2 = EllipticCurve(Q, Q.scalar(-1), Q.zero())
    return [
        (CurveFunction.make(E1, [4, -4, 1], [4, -4, 1]),
         {E1.point(0, -1): 3, E1.point(2, -3): 2, E1.point(2, 3): 2,
          INFINITY: -7}),
        (CurveFunction.make(E1, [-2, -1, 1], [2, -1]),
         {E1.point(-1, 0): 1, E1.point(0, 1): 1, E1.point(2, -3): 1,
          E1.point(2, 3): 2, INFINITY: -5}),
        (CurveFunction.make(E1, [1, -2], [1]),
         {E1.point(0, -1): 1, E1.point(2, 3): 2, INFINITY: -3}),
        (CurveFunction.make(E2, [], [1]),
         {E2.point(-1, 0): 1, E2.point(0, 0): 1, E2.point(1, 0): 1,
          INFINITY: -3}),
        (CurveFunction.make(E2, [], [-1, 1]),
         {E2.point(-1, 0): 1, E2.point(0, 0): 1, E2.point(1, 0): 3,
          INFINITY: -5}),
    ]


@pytest.mark.parametrize("case", range(5), ids=[
    "common-square", "common-line", "tangent-line", "y-at-2-torsion",
    "y-times-common-line"])
def test_divisor_of_each_branch_of_the_norm_rule(case):
    fn, expected = _norm_rule_cases()[case]
    assert divisor_of(fn.curve, fn) == expected
    assert _per_point_route(fn) == "divisor"


@pytest.mark.parametrize("case,x0,m", [
    (2, 2, 1), (2, 0, 2), (1, 2, 2), (1, 2, 4), (0, 2, 3), (3, 0, 2)],
    ids=["tangent-as-simple", "simple-as-double", "zero-where-only-k",
         "h1-simple-as-double", "below-2k", "2-torsion-as-double"])
def test_each_valuation_read_from_the_norm_is_checked(case, x0, m):
    """Given the multiplicity of x0 in the norm, which is the sum of the
    valuations over x0, the norm rule gives those valuations; given a
    wrong one, it is refused by its own check of a valuation it reads: the
    tangent test where h1 would be a uniformizer, one expansion where it
    would vanish to order 2 or more, h1 != 0 where a point would take only
    the common factor, and m >= 2k."""
    fn, expected = _norm_rule_cases()[case]
    points = builder._points_over(fn.curve, Q.scalar(x0))[::-1]
    right = sum(expected.get(pt, 0) for pt in points)
    assert builder._valuations_over(fn.curve, fn, points, right) == \
        [(pt, expected.get(pt, 0)) for pt in points]
    assert m != right
    with pytest.raises(BuilderError, match=f"^valuations at x = {x0} "
                       "inconsistent with norm multiplicity$"):
        builder._valuations_over(fn.curve, fn, points, m)


# -- Riemann-Roch -------------------------------------------------------------

def test_rr_basis_of_2O():
    E = _curve_q3()
    basis = riemann_roch_basis(E, {INFINITY: 2})
    assert len(basis) == 2
    assert [b.P for b in basis][0] == (Q3.one(),)


def test_rr_zero_divisor_is_constants():
    E = _curve_q3()
    basis = riemann_roch_basis(E, {})
    assert len(basis) == 1 and basis[0].P == (Q3.one(),)


def test_rr_with_base_point_condition():
    """dim L(3O - (0,1)) = 2 and each element vanishes at (0,1)."""
    E = _curve_q3()
    p = E.point(0, 1)
    basis = riemann_roch_basis(E, {INFINITY: 3, p: -1})
    assert len(basis) == 2
    for fn in basis:
        assert valuation_at(fn, p) >= 1


def test_rr_finite_pole_allowance_rejected():
    """A cover spec names only functions whose pole is at infinity, so the
    builder never asks for a finite pole allowance, and refuses one."""
    E = _curve_q3()
    with pytest.raises(InputError):
        riemann_roch_basis(E, {E.point(0, 1): 1, INFINITY: 1})


def test_rr_negative_degree_empty():
    E = _curve_q3()
    assert riemann_roch_basis(E, {INFINITY: -1}) == []


# -- cover construction -------------------------------------------------------

def eigen_dims(result):
    """dim L(D_k) per character exponent k, read off the built action: the
    generator is diagonal and scales the forms of exponent k by zeta^-k."""
    M = result.action.matrix
    N, zeta = result.action.order, M.field.root_of_unity(result.action.order)
    assert all(x.is_zero() for i, row in enumerate(M.rows)
               for j, x in enumerate(row) if i != j)
    return tuple(sum(1 for i in range(M.nrows) if M.rows[i][i] == zeta ** -k)
                 for k in range(N))


def test_pirola_fixture_shape(pirola):
    datum = pirola.datum
    assert datum.genus == 4 and datum.degree == 3
    assert datum.n_ramification == 3
    assert all(c.index == 3 for c in datum.charts)
    assert eigen_dims(pirola.result) == (1, 1, 2)
    assert datum.basis_names[0] == "alpha"
    assert pirola.result.base_point == Point(Q3.zero(), Q3.scalar(-1))
    # the designated cube root of h at the base point
    assert nth_root_rational(pirola.spec.h.at(*pirola.result.base_point),
                             3) == Q3.one()


def test_pirola_charts_prove_holomorphy(pirola):
    for chart in pirola.datum.charts:
        assert chart.alpha_pullback.valuation == chart.index - 1
        for s in chart.forms:
            assert s.is_zero() or s.valuation >= 0


def test_built_datum_passes_validation(all_bundles):
    for bundle in all_bundles.values():
        assert validate(bundle.datum).ok


def test_pirola_cover_relations_on_charts(pirola):
    """Recover x, y, w from the emitted series and check both equations.

    The basis is (alpha, w^-1 alpha, w^-2 alpha, x w^-2 alpha), so
    w = alpha/form1 and x = form3/form2; the cover function gives
    y = x + 1 - 2 w^3, and the curve equation y^2 = x^3 + 1 must hold
    identically within the certified window.
    """
    for chart in pirola.datum.charts:
        alpha = chart.alpha_pullback
        w = alpha * chart.forms[1].inverse()
        x = chart.forms[3] * chart.forms[2].inverse()
        # chart parameter is w itself
        assert w.valuation == 1 and w.coefficient(1) == Q3.one()
        assert all(w.coefficient(e).is_zero() for e in range(2, w.prec))
        w3 = w * w * w
        y = x - w3.scale(2) + Q3.one()
        lhs = y * y - (x * x * x + Q3.one())
        assert lhs.truncate(lhs.prec).is_zero()


def test_bielliptic_cover_relations_on_charts(biell4):
    """Same dual check for the double cover: w^2 = x(x-3)(x+2), y^2 = x^3+9."""
    for chart in biell4.datum.charts:
        alpha = chart.alpha_pullback
        inv = chart.forms[1].inverse()
        w = alpha * inv
        x = chart.forms[2] * inv
        y = chart.forms[3] * inv
        assert w.valuation == 1 and w.coefficient(1) == Q.one()
        curve_eq = y * y - (x * x * x + Q.scalar(9))
        assert curve_eq.truncate(curve_eq.prec).is_zero()
        cover_eq = w * w - (x * x * x - x * x - x.scale(6))
        assert cover_eq.truncate(cover_eq.prec).is_zero()


@pytest.mark.parametrize("make", [pirola_spec, lambda w: bielliptic_spec(3, w)],
                         ids=["pirola", "bielliptic3"])
def test_chart_windows_are_the_request(make):
    """The lift width ceil(window / N) reaches every requested window
    exactly, through 2-torsion branch points (pirola) and others
    (bielliptic3).  A window below the index N cannot show alpha's zero of
    order N - 1 and is refused before any chart is built."""
    for window in (1, 2, 3, 4, 5, 13):
        spec = make(window)
        if window < spec.order:
            with pytest.raises(PrecisionUnreachable,
                               match=f"window {window} is below "
                                     f"N = {spec.order}"):
                build_cover(spec)
            continue
        datum = build_cover(spec).datum
        assert [c.window() for c in datum.charts] == \
            [window] * datum.n_ramification
        assert validate(datum).ok


@pytest.mark.parametrize("make", [pirola_spec, lambda w: bielliptic_spec(3, w)],
                         ids=["pirola", "double3"])
def test_each_chart_is_one_lift_with_one_inverse(make, monkeypatch):
    """Each chart at window 40 is one lift to exactly ceil(40 / N), and the
    lift's seed 1/e is its only series inverse: dx/y comes from the lift."""
    spec = make(40)
    inverses, widths = [], []
    inverse, lift, build_chart = (TruncatedSeries.inverse, builder.lift,
                                  builder._build_chart)

    def counted_inverse(s):
        inverses[-1] += 1
        return inverse(s)

    def recorded_lift(curve, place, fn, prec):
        widths.append(prec)
        return lift(curve, place, fn, prec)

    def counted_chart(*args):
        inverses.append(0)
        monkeypatch.setattr(TruncatedSeries, "inverse", counted_inverse)
        monkeypatch.setattr(builder, "lift", recorded_lift)
        try:
            return build_chart(*args)
        finally:
            monkeypatch.setattr(TruncatedSeries, "inverse", inverse)
            monkeypatch.setattr(builder, "lift", lift)

    monkeypatch.setattr(builder, "_build_chart", counted_chart)
    n = build_cover(spec).datum.n_ramification
    assert inverses == [1] * n
    assert widths == [-(-40 // spec.order)] * n


def test_bielliptic_genus_counts(biell4, biell3):
    assert biell4.datum.genus == 4 and biell4.datum.n_ramification == 6
    assert biell3.datum.genus == 3 and biell3.datum.n_ramification == 4
    assert all(c.index == 2 for c in biell4.datum.charts)
    assert eigen_dims(biell4.result) == (1, 3)
    assert eigen_dims(biell3.result) == (1, 2)


def test_nonprime_order_rejected():
    E = _curve_q3()
    spec = CyclicCoverSpec(E, CurveFunction.make(E, [-1, -1], [1]), 4, "auto")
    with pytest.raises(UnsupportedOrder):
        build_cover(spec)


def test_missing_root_of_unity_rejected():
    E = EllipticCurve(Q, Q.zero(), Q.one())
    spec = CyclicCoverSpec(E, CurveFunction.make(E, [-1, -1], [1]), 3, "auto")
    with pytest.raises(FieldTooSmall):
        build_cover(spec)


def test_unsupported_ramification_rejected():
    # double zero at a branch point: |v| = 2, not 1 and not divisible by 3
    E = _curve_q3()
    h = CurveFunction.make(E, [1, 2, 1])          # (x+1)^2
    spec = CyclicCoverSpec(E, h, 3, "auto")
    with pytest.raises(UnsupportedRamification):
        build_cover(spec)


def test_unsupported_ramification_names_the_first_place_in_order():
    """x^2 on y^2 = x^3 + 9 has valuation 2 at both (0, 3) and (0, -3);
    the refusal names the first in the divisor's order."""
    E = EllipticCurve(Q3, Q3.zero(), Q3.scalar(9))
    spec = CyclicCoverSpec(E, CurveFunction.make(E, [0, 0, 1]), 3, "auto")
    with pytest.raises(UnsupportedRamification,
                       match=r"^valuation 2 at \(0, -3\): need v = 1 or 3"):
        build_cover(spec)


def test_base_point_must_be_admissible():
    E = _curve_q3()
    h = CurveFunction.make(E, [F(1, 2), F(1, 2)], [F(-1, 2)])
    spec = CyclicCoverSpec(E, h, 3, E.point(0, 1))   # branch point
    with pytest.raises(InputError, match=r"base point \(0, 1\) is a branch"):
        build_cover(spec)
    # h(2, -3) = 3 is not a cube: demand an exact root
    spec = CyclicCoverSpec(E, h, 3, E.point(2, -3))
    with pytest.raises(FieldTooSmall,
                       match=r"h\(c\) = 3 is not an exact 3-th power"):
        build_cover(spec)


def test_probe_fiber_second_point(biell4):
    """A disjoint probe fiber for brute-force re-evaluation of quadrics: the
    same cover built over another base point has the same basis forms, and
    its fiber rows lie on the quadric found from the first build."""
    curve = biell4.spec.curve
    point = curve.point(6, -15)
    other = build_cover(biell4.spec._replace(base_point=point)).datum
    assert other.basis_names == biell4.datum.basis_names
    probe = other.fiber.ratios
    assert len(probe) == 2 and probe != biell4.datum.fiber.ratios
    G = gram(curve.field, 4, biell4.quadrics[0])
    for row in probe:
        acc = curve.field.zero()
        for i in range(4):
            for j in range(4):
                acc = acc + G.rows[i][j] * row[i] * row[j]
        assert acc.is_zero()


def test_spec_json_round_trip():
    spec = pirola_spec(precision=12)
    obj = spec_to_json(spec)
    back = spec_from_json(obj)
    assert back.curve == spec.curve
    assert back.h == spec.h
    assert back.order == spec.order
    assert back.precision == 12


def test_genus_two_rejected():
    # two simple branch zeros with N=2 would give genus 2
    E = EllipticCurve(Q, Q.zero(), Q.scalar(9))
    h = CurveFunction.make(E, [0, 1])             # zeros (0, +-3), pole 2O
    spec = CyclicCoverSpec(E, h, 2, "auto")
    with pytest.raises(UnsupportedRamification):
        build_cover(spec)

"""Exact construction of covering data for cyclic covers of elliptic curves.

The input is a Weierstrass curve y^2 = x^3 + Ax + B, a function
h = P(x) + y Q(x) on it, a prime order N and a fiber base point c.  The
cover is w^N = h.  Such an h has its only pole at infinity, so every other
divisor point is a zero; its order must be divisible by N (unramified
layer) or equal 1 (total ramification) -- the only shapes this builder
supports.

Construction is purely algebraic.  Charts use w as the local parameter.
Over a simple zero of h, v = w^N = h is a uniformizer, and x and y are
expanded in v by one Newton lift of the curve equation and h = v together
(`lift`), which also gives dx/y = 2 dv/e for e its Jacobian determinant;
no transcendental coordinate ever appears.  The differential basis
consists of f * w^(-k) * (pullback of dx/y) with f running over
Riemann-Roch bases of explicit divisors; holomorphy of every emitted form
is re-proved from its chart expansions rather than trusted from the
divisor recipe.

Deck-transformation convention: the generator sends w to zeta_N * w, acts
diagonally on the basis, fixes each ramification chart (reparametrizing the
local parameter by a root of unity) and rotates the fiber.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Optional, Union

from .covering import (MAX_FUNCTION_TERMS, MAX_WINDOW, CoveringDatum,
                       CyclicAction, FiberChart, RamificationChart, _expect,
                       _optional, _parse_scalar, require_valid)
from .errors import (BuilderError, DimensionMismatch, FieldError,
                     FieldTooSmall, InputError, NotAnNthPower,
                     PointOutsideField, PrecisionUnreachable, SchemaError,
                     SingularJacobian, UnsupportedOrder,
                     UnsupportedRamification)
from .scalars import FieldSpec, Matrix, Scalar, ptrim
from .series import TruncatedSeries, _rewindow, _widths

SUPPORTED_COVER_ORDERS = (2, 3, 5, 7, 11, 13)

# Limits of the rational root search in ``divisor_of``.  It finds the
# divisors of the primitive norm polynomial's end coefficients by trial
# division (0.16 s each at 10^12), then evaluates the polynomial at both
# signs of each candidate pair: pairs times coefficients Horner steps.  On
# one core of a 2-CPU Intel Xeon host the slowest accepted search found
# took 0.73 s; the specs in the test suite take at most 2,016 steps.
MAX_ROOT_SEARCH_COEFFICIENT = 10 ** 12
MAX_ROOT_SEARCH_STEPS = 50_000


# ---------------------------------------------------------------------------
# polynomial helpers the scalar layer does not provide
# ---------------------------------------------------------------------------

def peval(p, x):
    """Value of p at x, by Horner's rule from the leading coefficient.  An
    empty or constant p starts from x - x, so that its value at a series is
    a series."""
    if len(p) < 2:
        acc = x - x
        return acc * x + p[0] if p else acc
    acc = p[-1] * x + p[-2]
    for c in reversed(p[:-2]):
        acc = acc * x + c
    return acc


def integer_nth_root(n, k):
    """Floor of the k-th root of a nonnegative integer, by integer Newton."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def nth_root_rational(value, k):
    """Designated k-th root of a Scalar: the real rational root of a
    rational element.

    Deterministic by construction: for odd k the sign passes to the root.
    Elements outside the rational subfield (or without a rational real
    root, as a negative one for even k) raise NotAnNthPower, instructing
    the caller to extend the field or rescale.
    """
    if not value.is_rational():
        raise NotAnNthPower(
            f"{value} is not in the rational subfield; no designated root")
    p, q = value.num[0], value.den
    a, b = integer_nth_root(abs(p), k), integer_nth_root(q, k)
    if p < 0 and k % 2 == 0 or a ** k != abs(p) or b ** k != q:
        raise NotAnNthPower(f"{value} has no rational {k}-th root")
    return Scalar._make(value.field, (-a if p < 0 else a,) + value.num[1:],
                        b, lowest=True)


def _rational_roots(poly):
    """The distinct rational roots of a list of ints, in ascending order,
    as pairs (p, q) in lowest terms with q > 0.

    Candidates p/q follow the rational root theorem on the primitive part:
    p runs over the divisors of the constant term, q over those of the
    leading coefficient, both signs of each pair tested by homogeneous
    Horner, sum c_i p^i q^(n-i).  A search above the module's limits is
    refused.
    """
    work = ptrim(list(poly))
    roots = [(0, 1)] if work and not work[0] else []
    while work and not work[0]:     # factor out x^m
        work.pop(0)
    if len(work) <= 1:
        return roots
    content = gcd(*work)
    work = [c // content for c in work]
    for name, c in (("constant", work[0]), ("leading", work[-1])):
        if abs(c) > MAX_ROOT_SEARCH_COEFFICIENT:
            raise BuilderError(
                f"rational root search refused: the {name} coefficient of "
                f"the norm polynomial has {abs(c).bit_length()} bits, above "
                f"the limit {MAX_ROOT_SEARCH_COEFFICIENT}")
    ps, qs = (_divisors(abs(c)) for c in (work[0], work[-1]))
    steps = len(ps) * len(qs) * len(work)
    if steps > MAX_ROOT_SEARCH_STEPS:
        raise BuilderError(
            f"rational root search refused: {len(ps)} x {len(qs)} candidate "
            f"pairs on {len(work)} coefficients make {steps} steps, above "
            f"the limit {MAX_ROOT_SEARCH_STEPS}")
    for p in ps:
        for q in qs:
            if gcd(p, q) == 1:
                for s in (p, -p):
                    acc, qk = 0, 1
                    for c in reversed(work):
                        acc, qk = acc * s + c * qk, qk * q
                    if not acc:
                        roots.append((s, q))
    den = lcm(*(q for _, q in roots))
    return sorted(roots, key=lambda r: r[0] * (den // r[1]))


def _divisors(n):
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# curve, points, functions
# ---------------------------------------------------------------------------

class _InfinityPoint:
    __slots__ = ()

    def __repr__(self):
        return "O"


INFINITY = _InfinityPoint()


class Point(NamedTuple):
    x: Scalar
    y: Scalar

    def __repr__(self):
        return f"({self.x}, {self.y})"


class EllipticCurve(NamedTuple):
    """y^2 = x^3 + Ax + B; ``build_cover`` refuses a zero discriminant."""
    field: FieldSpec
    A: Scalar
    B: Scalar

    def rhs(self):
        f = self.field
        return [self.B, self.A, f.zero(), f.one()]

    def contains(self, pt):
        return pt.y * pt.y == peval(self.rhs(), pt.x)

    def point(self, x, y):
        pt = Point(self.field.scalar(x), self.field.scalar(y))
        if not self.contains(pt):
            raise InputError(f"point {pt} is not on the curve")
        return pt


class CurveFunction(NamedTuple):
    """P(x) + y Q(x), reduced through the curve equation: a function whose
    only pole is at infinity, which is what a cover spec can name."""
    curve: EllipticCurve
    P: tuple
    Q: tuple

    @classmethod
    def make(cls, curve, P, Q=()):
        f = curve.field
        return cls(curve, *(tuple(ptrim([f.scalar(c) for c in poly]))
                            for poly in (P, Q)))

    def is_zero(self):
        return not self.P and not self.Q

    def at(self, x, y):
        """P(x) + Q(x) y at scalars (a point's coordinates) or at series."""
        return peval(self.P, x) + peval(self.Q, x) * y

    def __repr__(self):
        def fmt(poly):
            return "[" + ", ".join(c.to_string() for c in poly) + "]"
        return f"({fmt(self.P)} + y*{fmt(self.Q)})"


# ---------------------------------------------------------------------------
# local expansions on the base curve
# ---------------------------------------------------------------------------

def lift(curve, place, fn, prec):
    """Expansions X(v), Y(v) of x and y at a finite place in the local
    parameter v = fn, and D(v) with dx/y = D dv, all known below v^prec.

    Newton's method on F = (Y^2 - rhs(X), P(X) + Y Q(X) - v) for
    fn = P(x) + y Q(x) (the implicit function theorem; von zur Gathen &
    Gerhard, "Modern Computer Algebra", ch. 9), from the place, on
    `_widths`: X and Y correct below v^good are correct below v^known after
    one round.  Up to sign the Jacobian's determinant is e = 2y fn_x +
    rhs'(x) fn_y, the derivative of fn along the tangent (2y, rhs'(x)), a
    unit exactly when fn is a uniformizer at the place; otherwise
    SingularJacobian is raised.  As known - good <= good, a round needs the
    Jacobian and 1/e only below v^good, so each round ends by forming them
    at the width just reached, 1/e by one Newton step.  Differentiating
    F = 0 in v gives dX/dv = 2Y/e, so D = 2/e.  F = 0 and e D = 2 are
    checked exactly at full width.
    """
    field = curve.field
    rhs, P, Q = curve.rhs(), fn.P, fn.Q
    drhs, dP, dQ = ([c * k for k, c in enumerate(p)][1:] for p in (rhs, P, Q))

    def jacobian(X, Y):
        """fn_x, fn_y and rhs' at (X, Y), and e."""
        fx = peval(dP, X) + Y * peval(dQ, X)
        fy, rx = peval(Q, X), peval(drhs, X)
        return fx, fy, rx, (Y * fx).scale(2) + rx * fy

    X, Y = (TruncatedSeries(field, 0, [c], 1) for c in (place.x, place.y))
    fx, fy, rx, e = jacobian(X, Y)
    if e.valuation:
        raise SingularJacobian(f"{fn} is not a uniformizer at {place}")
    inv = e.inverse()
    v = TruncatedSeries(field, 1, [field.one()], prec + 1)
    for known in _widths(prec):
        X, Y = _rewindow(X, known), _rewindow(Y, known)
        F1 = Y * Y - peval(rhs, X)
        F2 = fn.at(X, Y) - v.truncate(known)
        X, Y = ((X + inv * (fy * F1 - (Y * F2).scale(2))).truncate(known),
                (Y - inv * (fx * F1 + rx * F2)).truncate(known))
        fx, fy, rx, e = jacobian(X, Y)
        inv = _rewindow(inv, known)
        inv = inv - inv * (e * inv - 1)
    D = inv.scale(2)
    if not ((Y * Y - peval(rhs, X)).is_zero() and
            (fn.at(X, Y) - v).is_zero() and
            (e * D - 2).is_zero()):
        raise AssertionError("lift verification failed")
    return X, Y, D


def base_series(curve, place, prec):
    """Expansions of (x, y) in the designated uniformizer t at a finite
    place, known below t^prec: `lift` with t = x - x0, or t = y at a
    2-torsion point, where the x-line is tangent."""
    one = curve.field.one()
    t = CurveFunction.make(curve, (), [one]) if place.y.is_zero() else \
        CurveFunction.make(curve, [-place.x, one])
    return lift(curve, place, t, prec)[:2]


def valuation_at(fn, place):
    """Exact valuation of a nonzero curve function P(x) + y Q(x) at a place.

    At infinity x and y have poles of orders 2 and 3, so P and yQ have poles
    of different parity there and cannot cancel.  At a finite place where
    it does not vanish it has valuation 0.  Elsewhere, as it has as many
    zeros as poles, one expansion one coefficient past that pole order
    decides.
    """
    if fn.is_zero():
        raise InputError("the zero function has no valuation")
    pole = max(2 * len(fn.P) - 2, 2 * len(fn.Q) + 1 if fn.Q else 0)
    if place is INFINITY:
        return -pole
    if fn.at(*place):
        return 0
    x, y = base_series(fn.curve, place, pole + 1)
    return fn.at(x, y).valuation


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

def divisor_of(curve, fn):
    """The exact divisor of a nonzero curve function, infinity included.

    Points whose coordinates do not lie in the field are reported through
    PointOutsideField together with their defining polynomials, so the
    caller may extend the field.  Degrees always sum to zero (checked).
    The places come in ascending order of x, then of y (both rational),
    with infinity last.
    """
    if fn.is_zero():
        raise InputError("zero function has no divisor")
    div, outside = {}, []
    _collect_affine(curve, fn, div, outside)
    if outside:
        raise PointOutsideField(outside)
    v_inf = valuation_at(fn, INFINITY)
    if v_inf:
        div[INFINITY] = v_inf
    total = sum(div.values())
    if total != 0:
        raise BuilderError(f"divisor degrees sum to {total}, not 0")
    return div


def _collect_affine(curve, fn, div, outside):
    """Enter the affine zeros of a curve function into div.  They lie over
    the rational roots of the norm N = P^2 - rhs * Q^2, which are roots of
    each coordinate N_k in Q[x] of N: the first nonzero N_k is searched.
    N is formed as series in x, P*P - rhs*Q*Q, at the window
    L = 2 max(len P, len Q + 2), past its degree max(2 len P - 2,
    2 len Q + 1), so N is exact; a root x0's multiplicity is the valuation
    of N(x0 + t)."""
    f, d = curve.field, curve.field.degree
    L = 2 * max(len(fn.P), len(fn.Q) + 2)
    P, Q, R = (TruncatedSeries(f, 0, poly, L)
               for poly in (fn.P, fn.Q, curve.rhs()))
    N = P * P - R * Q * Q
    if N.is_zero():
        raise BuilderError("norm polynomial vanished; function is degenerate")
    num = N.ints_in(0, L)
    work = next(filter(any, (num[k::d] for k in range(d))))
    norm = N.coefficients_in(0, N.valuation + len(N.num) // d)
    leftover_degree = len(norm) - 1
    for p, q in _rational_roots(work):
        x0 = Scalar._make(f, (p,) + (0,) * (d - 1), q, lowest=True)
        mult = peval(norm, TruncatedSeries(f, 0, [x0, f.one()], L)).valuation
        if not mult:
            continue  # root of N_k only
        leftover_degree -= mult
        try:
            points = _points_over(curve, x0)
        except NotAnNthPower:
            fx = peval(curve.rhs(), x0)
            outside.append(f"y^2 - ({fx.to_string()}) at x = {x0}")
            continue
        for pt in reversed(points):     # ascending y, as y0 > 0
            v = valuation_at(fn, pt)
            if v:
                div[pt] = v
            mult -= v
        if mult != 0:
            raise BuilderError(
                f"valuations at x = {x0} inconsistent with norm multiplicity")
    if leftover_degree > 0:
        outside.append(
            "unresolved factor of degree "
            f"{leftover_degree} in norm polynomial "
            f"[{', '.join(c.to_string() for c in norm)}]")


def _points_over(curve, x):
    """The curve points with abscissa x: one at 2-torsion, two otherwise.
    NotAnNthPower if their ordinate has no designated root in the field."""
    y = nth_root_rational(peval(curve.rhs(), x), 2)
    return [Point(x, y)] if y.is_zero() else [Point(x, y), Point(x, -y)]


# ---------------------------------------------------------------------------
# Riemann-Roch spaces
# ---------------------------------------------------------------------------

def riemann_roch_basis(curve, divisor):
    """Deterministic basis of L(D) = { f : div f + D >= 0 } for a divisor D
    with no positive entry at a finite place.

    Such an L(D) holds only functions P(x) + y Q(x) with pole order at most
    D(O) at infinity.  Put an ansatz in those monomials, impose the
    vanishing conditions through local series and take the exact kernel.
    The dimension is checked against deg D.
    """
    f = curve.field
    if any(m > 0 for place, m in divisor.items() if place is not INFINITY):
        raise InputError("Riemann-Roch spaces with finite poles are not "
                         "supported")
    M = divisor.get(INFINITY, 0)
    if M < 0:
        return []
    monomials = _monomials_up_to(curve, M)
    constraints = []
    for place, mult in divisor.items():
        if place is INFINITY or not mult:
            continue
        x, y = base_series(curve, place, -mult)
        series = [m.at(x, y) for m in monomials]
        for e in range(-mult):
            constraints.append([s.coefficient(e) for s in series])
    # the monomials come in pole order, so x^i and y x^i in ascending i
    basis = []
    for vec in Matrix(f, constraints or [[f.zero()] * len(monomials)]
                      ).kernel_basis():
        P, Q = [], []
        for coef, mono in zip(vec, monomials):
            (Q if mono.Q else P).append(coef)
        basis.append(CurveFunction.make(curve, P, Q))
    deg = sum(divisor.values())
    expected = deg if deg >= 1 else (1 if not any(divisor.values()) else None)
    if expected is not None and len(basis) != expected:
        raise DimensionMismatch(
            f"Riemann-Roch space has dimension {len(basis)}, expected {expected}")
    return basis


def _monomials_up_to(curve, M):
    """Monomials 1, x, y, x^2, xy, ... with pole order at infinity <= M:
    x^i has order 2i and y x^i has 2i + 3, one monomial per order m != 1."""
    zero, one = curve.field.zero(), [curve.field.one()]
    return [CurveFunction.make(curve, [zero] * (m // 2) + one) if m % 2 == 0
            else CurveFunction.make(curve, (), [zero] * (m // 2 - 1) + one)
            for m in range(M + 1) if m != 1]


# ---------------------------------------------------------------------------
# cover specification and construction
# ---------------------------------------------------------------------------

class CyclicCoverSpec(NamedTuple):
    curve: EllipticCurve
    h: CurveFunction
    order: int
    base_point: Union[Point, str]    # a Point or "auto"
    precision: Optional[int] = None  # chart coefficient window; None = default


class BuildResult(NamedTuple):
    datum: CoveringDatum
    action: CyclicAction
    base_point: Point


def _fiber_rows(plans, point, root, N):
    """Ratio rows f * w^-k of ``plans`` at the points w = zeta^kk * root."""
    zeta = root.field.root_of_unity(N)
    values = [(k, fn.at(*point)) for k, fn in plans]
    return tuple(tuple(f * (zeta ** kk * root) ** (-k) for k, f in values)
                 for kk in range(N))


def default_chart_window(genus, n_ram, index):
    return -(-(4 * genus - 3) // n_ram) + index + 2


def build_cover(spec):
    """Construct the covering datum and deck action for w^N = h."""
    curve = spec.curve
    field = curve.field
    N = spec.order
    if (curve.A ** 3 * 4 + curve.B ** 2 * 27).is_zero():
        raise InputError("singular curve: 4A^3 + 27B^2 = 0")
    if N not in SUPPORTED_COVER_ORDERS:
        raise UnsupportedOrder(
            f"cover order must be prime in {SUPPORTED_COVER_ORDERS}, got {N}")
    if not field.contains_root_of_unity(N):
        raise FieldTooSmall(
            f"Q(zeta_{field.cyclotomic_order}) lacks a primitive {N}-th root "
            "of unity")
    if spec.h.is_zero():
        raise InputError("cover function is zero")

    div = divisor_of(curve, spec.h)
    for place, v in div.items():
        if v != 1 and v % N != 0:
            raise UnsupportedRamification(
                f"valuation {v} at {place}: need v = 1 or {N} | v")
    # the pole at infinity has order 2 deg P or 2 deg Q + 3, never 1
    ram = [place for place, v in div.items() if v == 1]
    r = len(ram)
    if r == 0:
        raise UnsupportedRamification("cover is unramified; no data to build")
    if (N - 1) * r % 2 != 0:
        raise BuilderError("parity violation in the ramification count")
    genus = 1 + (N - 1) * r // 2
    if genus < 3:
        raise UnsupportedRamification(
            f"genus {genus} < 3: the canonical-model analysis needs g >= 3")

    c, root = _resolve_base_point(spec, div)

    # f * w^-k * alpha is holomorphic exactly for f in L(-k * floor(div h / N))
    plans, eigen_dims = [], []
    for k in range(N):
        basis_k = riemann_roch_basis(
            curve, {place: -k * (v // N) for place, v in div.items()})
        eigen_dims.append(len(basis_k))
        plans.extend((k, fn) for fn in basis_k)
    if sum(eigen_dims) != genus:
        raise BuilderError(
            f"character space dimensions {eigen_dims} do not sum to g = {genus}")

    window = spec.precision if spec.precision is not None else \
        default_chart_window(genus, r, N)
    if window < N:
        raise PrecisionUnreachable(
            f"requested window {window} is below N = {N}, too short to show "
            f"the pullback differential's zero of order N - 1")
    if window > MAX_WINDOW:
        raise PrecisionUnreachable(
            f"requested window {window} is above the limit {MAX_WINDOW}")

    charts = [_build_chart(curve, spec.h, place, N, window, plans)
              for place in ram]

    zeta = field.root_of_unity(N)
    rows = _fiber_rows(plans, c, root, N)
    # the base point is recorded in the labels for reproducibility
    labels = tuple(f"x{kk + 1}@({c.x},{c.y})" for kk in range(N))

    names = []
    for k, fn in plans:
        names.append("alpha" if k == 0 and len(fn.P) == 1 and not fn.Q
                     else f"{_fn_name(fn)}*w^-{k}" if k else _fn_name(fn))

    datum = CoveringDatum(field, genus, N, tuple(charts),
                          FiberChart(labels, rows), tuple(names), 0)
    require_valid(datum)

    matrix = Matrix(field,
                    [[(zeta ** (-plans[i][0]) if i == j else field.zero())
                      for j in range(len(plans))]
                     for i in range(len(plans))])
    moves = [(j, TruncatedSeries(field, 1, [zeta], chart.window()))
             for j, chart in enumerate(charts)]
    perm = tuple((kk + 1) % N for kk in range(N))
    action = CyclicAction(N, matrix, tuple(moves), perm)

    return BuildResult(datum, action, c)


def _fn_name(fn):
    names = []
    for i, c in enumerate(fn.P):
        if not c.is_zero():
            names.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    for i, c in enumerate(fn.Q):
        if not c.is_zero():
            names.append("y" if i == 0 else f"y*x^{i}")
    return "+".join(names) if names else "0"


def _resolve_base_point(spec, divisor):
    """Find or check the fiber base point; returns (point, designated root)."""
    curve = spec.curve
    if isinstance(spec.base_point, Point):
        c = spec.base_point
        if not curve.contains(c):
            raise InputError(f"base point {c} is not on the curve")
        return c, _fiber_root(spec, divisor, c)
    if spec.base_point != "auto":
        raise InputError("base point must be a Point or the string 'auto'")
    if not (curve.A.is_rational() and curve.B.is_rational()):
        raise InputError("automatic base point search needs rational A, B")
    for xq in [0] + [s for m in range(1, 51) for s in (m, -m)]:
        try:
            points = _points_over(curve, curve.field.scalar(xq))
        except NotAnNthPower:
            continue
        for c in points:
            try:
                return c, _fiber_root(spec, divisor, c)
            except InputError:
                continue
    raise FieldTooSmall(
        "no admissible base point with an exact root found in the search "
        "range; supply one explicitly or rescale the cover function")


def _fiber_root(spec, divisor, c):
    """The designated N-th root of h(c) at a curve point c admissible as a
    fiber base point: off the divisor, h(c) != 0 and an exact N-th power."""
    if c in divisor:
        raise InputError(f"base point {c} is a branch point")
    value = spec.h.at(*c)
    if value.is_zero():
        raise InputError("cover function vanishes at the base point")
    try:
        return nth_root_rational(value, spec.order)
    except NotAnNthPower as exc:
        raise FieldTooSmall(
            f"h(c) = {value} is not an exact {spec.order}-th power; rescale "
            "the cover function or extend the field") from exc


def _build_chart(curve, h, place, N, window, plans):
    """Series data at a totally ramified point, in the parameter w.

    h has a simple zero below, so v = w^N is a uniformizer there.  Every
    needed series is supported on one residue class of exponents of w; the
    construction therefore works with pairs (offset, series in v) and
    expands at the end.
    """
    field = curve.field
    # A form f * w^-k * alpha has offset N - 1 - k >= 0, so its window in w
    # is reached once the v-series are known below v^ceil(window / N).
    x_v, y_v, d_v = lift(curve, place, h, -(-window // N))
    alpha_v = d_v.scale(N)

    def expand(vs, offset, target):
        prec_u = N * vs.prec + offset
        if prec_u < target:
            raise PrecisionUnreachable(
                f"achieved window {prec_u} < requested {target}")
        if not vs.num:
            return TruncatedSeries.zero(field, target)
        d = field.degree
        dense = [0] * (N * len(vs.num) - (N - 1) * d)
        for r in range(d):
            dense[r::N * d] = vs.num[r::d]
        return TruncatedSeries._make(field, N * vs.valuation + offset, dense,
                                     vs.den, prec_u, True).truncate(target)

    alpha_series = expand(alpha_v, N - 1, window)
    if alpha_series.valuation != N - 1:
        raise BuilderError(
            f"pullback differential vanishes to order {alpha_series.valuation}"
            f" at {place}, expected {N - 1}")
    forms = []
    for k, fn in plans:
        f_v = fn.at(x_v, y_v)
        form_v = f_v * alpha_v
        s = expand(form_v, N - 1 - k, window)
        if not s.is_zero() and s.valuation < 0:
            raise BuilderError(
                f"emitted form {_fn_name(fn)}*w^-{k} has a pole at {place}; "
                "the divisor recipe and the series data disagree")
        forms.append(s)
    label = f"a@({place.x},{place.y})"
    return RamificationChart(label, N, alpha_series, tuple(forms))


# ---------------------------------------------------------------------------
# spec file format and stock fixtures
# ---------------------------------------------------------------------------

def spec_to_json(spec):
    c = spec.base_point
    return {
        "field": {"cyclotomic_order": spec.curve.field.cyclotomic_order},
        "E": {"A": spec.curve.A.to_json(), "B": spec.curve.B.to_json()},
        "h": {"P": [s.to_json() for s in spec.h.P],
              "Q": [s.to_json() for s in spec.h.Q]},
        "N": spec.order,
        "c": "auto" if c == "auto" else {"x": c.x.to_json(),
                                         "y": c.y.to_json()},
        "precision": spec.precision,
    }


def spec_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("", "cover spec must be an object")
    N = _expect(obj, "N", int, "")
    fobj = _optional(obj, "field", dict, "") or {}
    forder = _optional(fobj, "cyclotomic_order", int, "/field")
    if forder is None:
        forder = N if N > 2 else 1
    try:
        field = FieldSpec(forder)
    except FieldError as exc:
        raise SchemaError("/field/cyclotomic_order", str(exc)) from None

    def scalar(o, key, ptr):
        return _parse_scalar(field, _expect(o, key, str, ptr), f"{ptr}/{key}")

    eobj = _expect(obj, "E", dict, "")
    curve = EllipticCurve(field, scalar(eobj, "A", "/E"),
                          scalar(eobj, "B", "/E"))
    hobj = _expect(obj, "h", dict, "")

    def terms(key):
        raw = _optional(hobj, key, list, "/h") or []
        if len(raw) > MAX_FUNCTION_TERMS:
            raise SchemaError(f"/h/{key}", f"expected at most "
                              f"{MAX_FUNCTION_TERMS} coefficients")
        return [_parse_scalar(field, s, f"/h/{key}/{i}")
                for i, s in enumerate(raw)]

    h = CurveFunction.make(curve, terms("P"), terms("Q"))
    cobj = obj.get("c", "auto")
    if cobj == "auto":
        c = "auto"
    elif isinstance(cobj, dict):
        c = curve.point(scalar(cobj, "x", "/c"), scalar(cobj, "y", "/c"))
    else:
        raise SchemaError("/c", 'expected {"x", "y"} or "auto"')
    prec = _optional(obj, "precision", int, "")
    if prec is not None and prec > MAX_WINDOW:
        raise SchemaError("/precision", f"expected at most {MAX_WINDOW}")
    return CyclicCoverSpec(curve, h, N, c, prec)


def pirola_spec(precision=None):
    """The degree-3 Galois fixture: w^3 = (x + 1 - y)/2 on y^2 = x^3 + 1.

    The branch locus is the line section y = x + 1 (three collinear points
    summing to zero in the group law); the constant factor normalizes the
    value at the base point (0, -1) to 1, an exact cube, so all fiber data
    lives in Q(zeta_3).
    """
    field = FieldSpec(3)
    curve = EllipticCurve(field, field.zero(), field.one())
    half = field.one() / 2
    h = CurveFunction.make(curve, [half, half], [-half])
    return CyclicCoverSpec(curve, h, 3, "auto", precision)


def bielliptic_spec(genus, precision=None):
    """Double-cover fixtures over y^2 = x^3 + 9 with rational branch data.

    genus 4: w^2 = x(x-3)(x+2), six simple branch points, base point (6, 15).
    genus 3: w^2 = x^2 + 10x + 24 - 8y, four simple branch points not
    paired by the hyperelliptic involution of the base (so the cover is a
    plane quartic, not hyperelliptic), base point (-2, -1).
    """
    field = FieldSpec(1)
    curve = EllipticCurve(field, field.zero(), field.scalar(9))
    if genus == 4:
        h = CurveFunction.make(curve, [0, -6, -1, 1])
        c = curve.point(6, 15)
    elif genus == 3:
        h = CurveFunction.make(curve, [24, 10, 1], [-8])
        c = curve.point(-2, -1)
    else:
        raise InputError("stock double-cover fixtures exist for genus 3 and 4")
    return CyclicCoverSpec(curve, h, 2, c, precision)

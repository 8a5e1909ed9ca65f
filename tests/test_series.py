import random
from fractions import Fraction as F

import pytest

from ellprym.builder import (INFINITY, CurveFunction, EllipticCurve,
                             base_series, bielliptic_spec, divisor_of, lift,
                             peval, pirola_spec)
from ellprym.covering import _parse_series, _series_to_json
from ellprym.errors import (DivisionByZeroSeries, FieldError,
                            InsufficientPrecision, SingularJacobian,
                            ValuationError)
from ellprym.scalars import FieldSpec, Scalar
from ellprym.series import (TruncatedSeries, _rewindow, compose_all,
                            transform_form)

Q = FieldSpec(1)
Q3 = FieldSpec(3)


def S(start, coeffs, prec=None, field=Q):
    if prec is None:
        prec = start + len(coeffs)
    return TruncatedSeries(field, start, coeffs, prec)


def test_product_of_binomials():
    out = S(0, [1, 1], 10) * S(0, [1, -1], 10)
    assert out == S(0, [1, 0, -1], 10)


def test_laurent_quotient():
    out = S(2, [1], 10) * S(3, [1], 10).inverse()
    assert out.valuation == -1
    assert out.coefficient(-1) == Q.one()


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
@pytest.mark.parametrize("valuation", [0, 2, -3])
def test_window_reads_give_one_coefficient_per_exponent(field, valuation):
    """ints_in and coefficients_in read max(0, stop - start) coefficients:
    none for an empty or reversed window, zeros outside the known terms."""
    terms = [F(1, 2), 2, 0, 3, 4, 5, F(-6, 7)]
    s = S(valuation, terms, field=field)
    top = valuation + len(terms)
    for start, stop in ((0, -2), (3, 3), (top, valuation), (valuation, top),
                        (valuation - 3, valuation + 2), (valuation + 4, top),
                        (top - 1, top), (-9, top)):
        want = [field.scalar(terms[e - valuation])
                if valuation <= e < top else field.zero()
                for e in range(start, stop)]
        assert s.coefficients_in(start, stop) == want
        assert len(s.ints_in(start, stop)) == len(want) * field.degree


def test_geometric_series():
    out = S(0, [1], 8) * S(0, [1, -1], 8).inverse()
    assert out == S(0, [1] * 8, 8)


def test_division_by_zero_series():
    with pytest.raises(DivisionByZeroSeries):
        TruncatedSeries.zero(Q, 5).inverse()


def test_precision_propagation_rules():
    a = S(0, [1, 2, 3], 3)
    b = S(1, [4, 5], 9)
    assert (a + b).prec == 3
    assert (a * b).prec == min(0 + 9, 1 + 3)
    q = a * b.inverse()
    assert q.valuation == -1
    # relative precision of a quotient is the min of the operands'
    assert q.prec - q.valuation == min(3 - 0, 9 - 1)


def test_zero_series_tracks_precision():
    z = TruncatedSeries.zero(Q, 6)
    assert z.is_zero() and z.prec == 6
    assert (z * S(2, [1], 10)).prec == 8


@pytest.mark.parametrize("field, last", [(Q, "2"), (Q3, "1 + 1*z")],
                         ids=["Q", "Q3"])
def test_repr_names_valuation_coefficients_and_prec(field, last):
    """repr is one line: the valuation, each coefficient string and prec."""
    coeffs = [field.scalar(F(-1, 2)), field.zero(), field.zeta() + 1]
    assert repr(S(-3, coeffs, 4, field)) == \
        f"TruncatedSeries(-3, ['-1/2', '0', '{last}'], 4)"
    assert repr(S(4, [], 4, field)) == "TruncatedSeries(4, [], 4)"


def test_residue_examples():
    # the residue of s(z) dz is the coefficient of z^-1
    assert S(-1, [1, 2, 1], 5).coefficient(-1) == Q.one()
    assert S(-2, [1], 5).coefficient(-1) == Q.zero()   # window includes -1
    assert S(0, [1], 5).coefficient(-1) == Q.zero()    # above the valuation
    # (z^2 u)/(z^3) with u = 3 + z
    f = S(2, [1], 12) * S(0, [3, 1], 12) * S(3, [1], 12).inverse()
    assert f.coefficient(-1) == Q.scalar(3)


def test_residue_requires_window():
    bad = S(-4, [1, 1], -1)
    with pytest.raises(InsufficientPrecision):
        bad.coefficient(-1)


def test_coefficient_outside_window():
    with pytest.raises(InsufficientPrecision):
        S(0, [1], 3).coefficient(5)


# -- reference chart path: newton_solve, reversion, then compose_all ---------
#
# The builder's local expansions before `lift`: (x, y) in t by newton_solve,
# then h(t) reverted and composed into them.  The tests below check this path
# against independent oracles, and `lift` against it.

def newton_solve(coeffs_in_y, seed, target_prec):
    """Series solution of F(z, y) = 0 by Newton iteration.

    ``coeffs_in_y`` lists the coefficients of F as a polynomial in y, each a
    TruncatedSeries in z known at least to target_prec + 1, since every
    round works one coefficient past the ones it makes correct; a shorter
    window ends in InsufficientPrecision.  The seed must satisfy F(seed) = 0
    within its own window and dF/dy(seed) must be a unit.
    """
    dcoeffs = [c.scale(k) for k, c in enumerate(coeffs_in_y) if k]
    residual = peval(coeffs_in_y, seed)
    if not residual.truncate(min(seed.prec, residual.prec)).is_zero():
        raise ValueError("seed does not satisfy the equation to its precision")
    deriv = peval(dcoeffs, seed)
    if deriv.is_zero() or deriv.valuation != 0:
        raise SingularJacobian(
            "dF/dy at the seed is not a unit; Newton cannot start")
    y = _rewindow(seed, target_prec + 1)
    known = max(1, seed.prec - seed.valuation)
    while known < target_prec:
        known = min(2 * known, target_prec)
        y = _rewindow(y, known + 1)
        correction = peval(coeffs_in_y, y) * peval(dcoeffs, y).inverse()
        y = (y - correction).truncate(known + 1)
    y = y.truncate(target_prec)
    if not peval(coeffs_in_y, y).truncate(target_prec).is_zero():
        raise AssertionError("Newton result fails the equation")
    return y


def reversion(f):
    """Compositional inverse g with f(g) = z, for valuation exactly 1.

    Newton iteration g <- g - (f(g) - z) / f'(g) on a top-down precision
    schedule: the target t = f.prec, then ceil(t/2), ... down to 2, run
    upwards.  The result window is f.prec, and f(g) = z is checked at full
    width before g is returned.
    """
    if f.valuation != 1:
        raise ValuationError(
            f"reversion requires valuation 1, got {f.valuation}")
    rel = f.prec - f.valuation
    ident = TruncatedSeries(f.field, 1, [f.field.one()], rel + 1)
    g = ident.scale(f.coefficient(1).inverse()).truncate(2)
    schedule = [rel + 1]
    while schedule[-1] > 2:
        schedule.append(-(-schedule[-1] // 2))
    deriv = f.derivative()
    schedule.reverse()
    for good, known in zip(schedule, schedule[1:]):
        g = _rewindow(g, known)
        f_g, dg = compose_all(
            [f.truncate(known), deriv.truncate(known - good)], g)
        g = (g - (f_g - ident.truncate(known)) * dg.inverse()).truncate(known)
    check = compose_all([f], g)[0]
    window = min(check.prec, rel + 1)
    if not (check - ident.truncate(window)).truncate(window).is_zero():
        raise AssertionError("reversion verification failed")
    return g


def reference_base_series(curve, place, prec):
    """(x, y) in t = x - x0, or t = y at a 2-torsion point, by newton_solve
    on equations built one coefficient past prec."""
    f = curve.field
    big = prec + 1

    def const(c):
        return TruncatedSeries.from_coefficients(f, 0, [c], big)

    if place.y.is_zero():
        t2 = TruncatedSeries(f, 2, [f.one()], big + 2)
        coeffs = [const(curve.B) - t2, const(curve.A), const(f.zero()),
                  const(f.one())]
        seed = TruncatedSeries.from_coefficients(f, 0, [place.x], 1)
        return (newton_solve(coeffs, seed, prec),
                TruncatedSeries(f, 1, [f.one()], big).truncate(prec))
    x = TruncatedSeries(f, 1, [f.one()], big) + place.x
    coeffs = [-peval(curve.rhs(), x), const(f.zero()), const(f.one())]
    seed = TruncatedSeries.from_coefficients(f, 0, [place.y], 1)
    return x.truncate(prec), newton_solve(coeffs, seed, prec)


def reference_chart(curve, h, place, prec):
    """(x, y) in v = h below v^prec at a simple zero of h: the expansions in
    t one coefficient further, composed with the reversion of h(t)."""
    x_t, y_t = reference_base_series(curve, place, prec + 1)
    h_t = h.at(x_t, y_t)
    return [s.truncate(prec) for s in compose_all([x_t, y_t], reversion(h_t))]


def test_newton_binomial_series():
    big = 12
    coeffs = [S(0, [-1, -1], big), TruncatedSeries.zero(Q, big), S(0, [1], big)]
    y = newton_solve(coeffs, S(0, [1], 1), 6)
    assert y.coefficient(0) == Q.one()
    assert y.coefficient(1) == Q.scalar(F(1, 2))
    assert y.coefficient(2) == Q.scalar(F(-1, 8))


def test_newton_linear():
    big = 8
    coeffs = [S(1, [-1], big), S(0, [1], big)]   # y - z = 0
    y = newton_solve(coeffs, TruncatedSeries.zero(Q, 1), 6)
    assert y == S(1, [1], 6)


def test_newton_on_curve_derived():
    """y on y^2 = x^3 + 1 at (2, 3), t = x - 2; substitute back to check."""
    big = 12
    x = S(0, [2, 1], big)
    rhs = x * x * x + S(0, [1], big)
    coeffs = [-rhs, TruncatedSeries.zero(Q, big), S(0, [1], big)]
    y = newton_solve(coeffs, S(0, [3], 1), 8)
    assert y.coefficient(0) == Q.scalar(3)
    assert y.coefficient(1) == Q.scalar(2)     # 3x^2/(2y) at (2,3)
    assert ((y * y) - rhs).truncate(8).is_zero()


def test_newton_singular_jacobian():
    big = 8
    coeffs = [S(2, [-1], big), TruncatedSeries.zero(Q, big), S(0, [1], big)]
    with pytest.raises(SingularJacobian):
        newton_solve(coeffs, TruncatedSeries.zero(Q, 1), 6)


def test_reversion_identity():
    f = S(1, [1], 7)
    assert reversion(f) == S(1, [1], 7)


def test_reversion_scaling():
    g = reversion(S(1, [2], 7))
    assert g.coefficient(1) == Q.scalar(F(1, 2))


def test_reversion_against_lagrange_inversion():
    """Independent oracle: g_n = [z^(n-1)] (z/f)^n / n."""
    f = S(1, [1, 1], 9)  # z + z^2
    g = reversion(f)
    unit = f * S(1, [1], 12).inverse()       # f/z
    for n in range(1, 8):
        power = S(0, [1], 10)
        for _ in range(n):
            power = power * unit.inverse()
        expect = power.coefficient(n - 1) * Q.scalar(F(1, n))
        assert g.coefficient(n) == expect
    assert g.coefficient(1) == Q.one()
    assert g.coefficient(2) == Q.scalar(-1)
    assert g.coefficient(3) == Q.scalar(2)


def test_reversion_requires_valuation_one():
    with pytest.raises(ValuationError):
        reversion(S(2, [1], 6))


def test_reversion_round_trip():
    rng = random.Random(99)
    for _ in range(10):
        coeffs = [F(rng.choice([1, 2, 3]))] + \
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        f = S(1, coeffs, 8)
        assert (reversion(reversion(f)) - f).truncate(8).is_zero()


def test_residue_reparametrization_invariance():
    """Residues survive unit substitutions z = u(1 + c1 u + ...)."""
    rng = random.Random(20250809)
    for _ in range(100):
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(9)]
        if coeffs[0] == 0:
            coeffs[0] = F(1)
        pole = rng.choice([-1, -2, -3])
        f = TruncatedSeries.from_coefficients(Q3, pole, coeffs, pole + 9)
        subst = [F(1)] + [F(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(10)]
        phi = TruncatedSeries.from_coefficients(Q3, 1, subst, 12)
        # f = z^pole * g: compose the holomorphic g, then divide by phi
        moved = transform_form([f.shift(-pole)], phi)[0]
        for _ in range(-pole):
            moved = moved * phi.inverse()
        assert moved.coefficient(-1) == f.coefficient(-1)


def test_series_json_round_trip():
    f = TruncatedSeries.from_coefficients(
        Q3, -2, [Q3.zeta(), Q3.one(), Q3.scalar(F(5, 7))], 4)
    assert _parse_series(Q3, _series_to_json(f), "") == f


# -- oracles for compose, reversion and newton_solve ------------------------------

def horner_compose(outer, inner):
    """Reference: outer(inner) by Horner over the whole outer window."""
    vg = inner.valuation
    prec = min(vg * outer.prec, inner.prec + (outer.valuation - 1) * vg)
    acc = TruncatedSeries.zero(outer.field, prec + vg + 1)
    for e in range(outer.prec - 1, outer.valuation - 1, -1):
        acc = acc * inner + outer.coefficient(e)
    for _ in range(outer.valuation):
        acc = acc * inner
    return acc.truncate(min(prec, acc.prec))


def random_scalar(rng, field, sparse=0.0):
    if rng.random() < sparse:
        return field.zero()
    return Scalar(field, [F(rng.randint(-9, 9), rng.randint(1, 5))
                          for _ in range(field.degree)])


def random_series(rng, field, valuation, length, prec, sparse=0.0):
    lead = random_scalar(rng, field)
    while lead.is_zero():
        lead = random_scalar(rng, field)
    rest = [random_scalar(rng, field, sparse) for _ in range(length - 1)]
    return TruncatedSeries(field, valuation, [lead] + rest, prec)


def schoolbook_mul(f, g):
    """Reference: the product by the schoolbook double loop over Scalars."""
    prec = min(f.valuation + g.prec, g.valuation + f.prec)
    lo = f.valuation + g.valuation
    out = [f.field.zero()] * max(0, prec - lo)
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        ea = f.valuation + i
        for j, b in enumerate(g.coeffs):
            e = ea + g.valuation + j
            if e >= prec:
                break
            if not b.is_zero():
                out[e - lo] = out[e - lo] + a * b
    return TruncatedSeries(f.field, min(lo, prec), out, prec)


def signed_scalar(rng, field, k):
    """Coordinates 0, small, or +-(2^k - 1) and +-2^k, over mixed
    denominators: 1, a power of two or up to 2^k."""
    num = [rng.choice((0, 0, rng.randint(-9, 9), 2 ** k - 1, 1 - 2 ** k,
                       2 ** k, -2 ** k)) for _ in range(field.degree)]
    den = rng.choice((1, 1, 2 ** rng.randint(1, k), rng.randint(1, 2 ** k)))
    return Scalar(field, [F(x, den) for x in num])


def signed_series(rng, field):
    """A series with a random valuation and window, runs of zeros, extreme
    coordinates, or the zero series."""
    v = rng.randint(-4, 4)
    if rng.random() < 0.1:
        return TruncatedSeries.zero(field, v + rng.randint(0, 6))
    k = rng.randint(1, 70)
    coeffs = [signed_scalar(rng, field, k) for _ in range(rng.randint(1, 14))]
    start = rng.randint(1, len(coeffs))
    zeros = rng.randint(0, len(coeffs) - start)
    coeffs[start:start + zeros] = [field.zero()] * zeros
    coeffs[0] = coeffs[0] or field.one()
    return TruncatedSeries(field, v, coeffs, v + len(coeffs) + rng.randint(0, 5))


FIELDS = [Q, Q3, FieldSpec(5), FieldSpec(13)]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q3", "Q5", "Q13"])
def test_product_matches_schoolbook(field):
    """Mixed denominators, zero runs, negative valuations, unequal windows
    and the zero series, with coordinates that make signed slots borrow."""
    rng = random.Random(20261020 + field.degree)
    for _ in range(120 if field.degree < 12 else 30):
        f, g = signed_series(rng, field), signed_series(rng, field)
        assert f * g == schoolbook_mul(f, g), (f, g)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q3", "Q5", "Q13"])
def test_product_at_the_height_bound(field):
    """Every coordinate +-(2^k - 1) with one sign per operand: the largest
    product coefficient comes within a factor of two of the slot bound, for
    every residue of its bit length mod 8."""
    for k in range(1, 20):
        for length in range(1, 8 if field.degree < 12 else 3):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a = Scalar(field, [sa * (2 ** k - 1)] * field.degree)
                b = Scalar(field, [sb * (2 ** k - 1)] * field.degree)
                f = TruncatedSeries(field, 0, [a] * length, length)
                g = TruncatedSeries(field, 1, [b] * length, length + 1)
                assert f * g == schoolbook_mul(f, g), (k, length, sa, sb)


def over_denominator(rng, field, length, den):
    """A series of the given length whose coefficients lie over divisors of
    den, so that its one common denominator is den or a divisor of it."""
    divisors = [q for q in range(1, den + 1) if den % q == 0]
    coeffs = [Scalar(field, [F(rng.randint(-9, 9), rng.choice(divisors))
                             for _ in range(field.degree)])
              for _ in range(length)]
    coeffs[0] = coeffs[0] or field.one()
    v = rng.randint(-3, 3)
    return TruncatedSeries(field, v, coeffs, v + length + rng.randint(0, 3))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q3", "Q5", "Q13"])
def test_product_of_operands_over_different_denominators(field):
    """Denominators coprime, sharing a factor, dividing one another, and
    cancelling against the numerators of the product."""
    rng = random.Random(20261101 + field.degree)
    for da, db in ((3, 5), (12, 18), (4, 8), (7, 1), (30, 7), (2, 2)):
        for _ in range(8 if field.degree < 12 else 2):
            f = over_denominator(rng, field, rng.randint(1, 9), da)
            g = over_denominator(rng, field, rng.randint(1, 9), db)
            assert f * g == schoolbook_mul(f, g), (f, g)
            assert g * f == schoolbook_mul(g, f), (f, g)
            # (db z^v) * g: every denominator of g cancels or shrinks
            h = TruncatedSeries(field, 2, [field.scalar(db)], max(g.prec, 3))
            assert h * g == schoolbook_mul(h, g)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q3", "Q5", "Q13"])
def test_product_with_a_one_term_operand(field):
    """c*z^v times a series, for negative, zero and positive v, on either
    side, with a wide or a narrow window on the one term; and a long
    operand whose product window keeps only its first term."""
    rng = random.Random(20261102 + field.degree)
    for v in (-3, -1, 0, 2, 5):
        for extra in (0, 1, 6):
            c = signed_scalar(rng, field, rng.randint(1, 40)) or field.one()
            one = TruncatedSeries(field, v, [c], v + 1 + extra)
            for _ in range(4):
                g = signed_series(rng, field)
                assert one * g == schoolbook_mul(one, g), (one, g)
                assert g * one == schoolbook_mul(g, one), (one, g)
    f = random_series(rng, field, 0, 6, 6)
    g = random_series(rng, field, 1, 1, 2)
    assert f * g == schoolbook_mul(f, g) == \
        TruncatedSeries(field, 1, [f.coefficient(0) * g.coefficient(1)], 2)


def coefficientwise_add(f, g):
    """Reference: f + g coefficient by coefficient over Scalars."""
    prec = min(f.prec, g.prec)
    lo = min(f.valuation, g.valuation, prec)
    return TruncatedSeries(f.field, lo, [f.coefficient(e) + g.coefficient(e)
                                         if e < f.prec and e < g.prec else 0
                                         for e in range(lo, prec)], prec)


def _known(s, e):
    """The coefficient of s at e, zero outside its window."""
    return s.coefficient(e) if e < s.prec else s.field.zero()


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q3", "Q5", "Q13"])
def test_sum_matches_coefficientwise_reference(field):
    """Windows and valuations that differ, operands that lie wholly beyond
    the other's window, zero series, and sums that cancel at either end."""
    rng = random.Random(20261103 + field.degree)
    for _ in range(150 if field.degree < 12 else 40):
        f, g = signed_series(rng, field), signed_series(rng, field)
        want = coefficientwise_add(f, g)
        assert f + g == want == g + f, (f, g)
        assert f - g == coefficientwise_add(f, -g)
        for e in range(want.valuation, want.prec):
            assert want.coefficient(e) == _known(f, e) + _known(g, e)
        c = signed_scalar(rng, field, 8)
        const = TruncatedSeries(field, 0, [c], max(f.prec, 1))
        assert f + c == coefficientwise_add(f, const), (f, c)
        # cancelling the leading and the trailing known coefficient
        lead = TruncatedSeries(field, f.valuation, [f.coefficient(f.valuation)]
                               if not f.is_zero() else [], f.prec)
        assert f - lead == coefficientwise_add(f, -lead)
        assert f - f == TruncatedSeries.zero(field, f.prec)


MONOMIAL_FIELDS = [Q, Q3, FieldSpec(13)]


@pytest.mark.parametrize("field", MONOMIAL_FIELDS, ids=["Q", "Q3", "Q13"])
def test_compose_with_a_monomial_inner_series(field):
    """c*z with c not a unit, over its own denominator, into outers over
    other denominators, with the inner's window narrower or wider than the
    outers'; each result matches Horner, alone or in the list."""
    rng = random.Random(20261104 + field.degree)
    size = 12 if field.degree < 12 else 6
    for _ in range(4):
        # an odd half on 1 of the integral basis: c is no unit
        c = Scalar(field, [F(2 * rng.randint(-3, 3) + 1, 2)] +
                   [F(rng.randint(-5, 5), rng.choice((1, 3, 9)))
                    for _ in range(field.degree - 1)])
        inner = TruncatedSeries(field, 1, [c], 1 + rng.randint(1, size + 4))
        outers = [over_denominator(rng, field, rng.randint(1, size),
                                   rng.choice((1, 4, 15))).shift(3)
                  for _ in range(3)]
        outers += [TruncatedSeries.zero(field, 2),
                   TruncatedSeries(field, 0, [c], 1)]
        got = compose_all(outers, inner)
        for outer, result in zip(outers, got):
            expect = horner_compose(outer, inner)
            assert result == expect, (outer, inner)
            assert result.prec == expect.prec
            assert compose_all([outer], inner) == [expect]
        moved = transform_form(outers, inner)
        assert moved == [r * inner.derivative() for r in got]


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_compose_over_different_denominators(field):
    """Outers over several denominators share one power table of an inner
    over another, whose powers lie over several denominators; outers up to
    30 terms long weight many columns of it."""
    rng = random.Random(20261105 + field.degree)
    for den_in in (1, 6, 35):
        inner = over_denominator(rng, field, 8, den_in)
        inner = TruncatedSeries(field, 1, inner.coeffs, 9 + rng.randint(0, 20))
        outers = [over_denominator(rng, field, rng.randint(1, 30), den)
                  for den in (1, 2, 9, 10, 49)]
        outers = [TruncatedSeries(field, rng.randint(0, 2), s.coeffs,
                                  s.prec + 5) for s in outers]
        for outer, result in zip(outers, compose_all(outers, inner)):
            assert result == horner_compose(outer, inner), (outer, inner)


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_compose_matches_horner_reference(field):
    rng = random.Random(20261018 + field.degree)
    for v_outer in (0, 1, 2, 3):
        for _ in range(5):
            n_out = rng.randint(1, 12)
            outer = random_series(rng, field, v_outer, n_out,
                                  v_outer + n_out + rng.randint(0, 3),
                                  sparse=0.3)
            n_in = rng.randint(1, 10)
            inner = random_series(rng, field, 1, n_in,
                                  1 + n_in + rng.randint(0, 3), sparse=0.3)
            expect = horner_compose(outer, inner)
            got = compose_all([outer], inner)[0]
            assert got == expect, (outer, inner)
            assert got.prec == expect.prec


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_compose_monomial_inner_matches_reference(field):
    """The chart moves of a cyclic action substitute u -> zeta*u."""
    rng = random.Random(7)
    rho = TruncatedSeries(field, 1, [field.zeta()], 20)
    for v_outer in (0, 1, 2):
        outer = random_series(rng, field, v_outer, 15, v_outer + 15)
        got = compose_all([outer], rho)[0]
        assert got == horner_compose(outer, rho)
        power = field.one()
        for e in range(0, got.prec):
            assert got.coefficient(e) == outer.coefficient(e) * power
            power = power * field.zeta()


def test_compose_zero_and_short_outer_match_reference():
    inner = S(1, [2, 1, 1], 6)
    for outer in (TruncatedSeries.zero(Q, 4), TruncatedSeries.zero(Q, 0),
                  S(0, [5], 1), S(1, [1, 0], 3), S(2, [1, 0, 0, 0], 30)):
        assert compose_all([outer], inner)[0] == horner_compose(outer, inner)


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_compose_all_matches_horner_per_outer(field):
    """One shared power table, each outer on its own window: mixed
    valuations and windows, a one-term outer, and zero outers or outers
    whose terms never reach the window."""
    rng = random.Random(20261019 + field.degree)
    for _ in range(6):
        outers = []
        for _ in range(rng.randint(2, 5)):
            v = rng.randint(0, 4)
            n = rng.randint(1, 14)
            prec = v + n + rng.randint(0, 4)
            outers.append(random_series(rng, field, v, n, prec, sparse=0.3))
        outers += [random_series(rng, field, 0, 1, 1),
                   TruncatedSeries.zero(field, 3),
                   random_series(rng, field, 0, 12, 13),
                   random_series(rng, field, 2, 5, 7),
                   S(9, [-2], 10, field)]
        rng.shuffle(outers)
        n_in = rng.randint(2, 12)
        inner = random_series(rng, field, 1, n_in,
                              1 + n_in + rng.randint(0, 3), sparse=0.3)
        got = compose_all(outers, inner)
        assert len(got) == len(outers)
        for outer, result in zip(outers, got):
            expect = horner_compose(outer, inner)
            assert result == expect, (outer, inner)
            assert result.prec == expect.prec


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_compose_all_forms_each_power_once(field, monkeypatch):
    """The powers inner^0 .. inner^(top-1) are formed once for the whole
    list, by top - 1 series products, whatever the outers' valuations: the
    outer of valuation 4 reaches exponent 10, so top = 11.  Its window, 11,
    passes inner.prec = 8, where the table's columns are zero-padded."""
    rng = random.Random(20261107 + field.degree)

    def dense(v, n, prec):
        """A series of n nonzero coefficients from z^v on."""
        return TruncatedSeries(field, v, [
            Scalar(field, [F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))] +
                   [F(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(field.degree - 1)])
            for _ in range(n)], prec)

    inner = dense(1, 6, 8)
    outers = [dense(0, 10, 10), dense(1, 5, 6), dense(2, 9, 12),
              dense(4, 9, 13), dense(3, 1, 4), TruncatedSeries.zero(field, 5)]
    products = []
    mul = TruncatedSeries.__mul__

    def counting(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    got = compose_all(outers, inner)
    assert len(products) == 10
    monkeypatch.undo()
    assert got[3].prec == 11
    for outer, result in zip(outers, got):
        expect = horner_compose(outer, inner)
        assert result == expect, (outer, inner)
        assert result.prec == expect.prec


def test_compose_all_refuses_an_outer_of_another_field():
    """An outer over another field than the inner's is refused before any
    power is formed, also beside outers of the inner's field."""
    inner = S(1, [1, 3], 6)
    for outers in ([S(0, [1, 2], 4, Q3)], [S(0, [1, 2], 4), S(2, [1], 5, Q3)]):
        with pytest.raises(FieldError,
                           match=r"^mixed-field series arithmetic$"):
            compose_all(outers, inner)


def test_constructor_refuses_coefficients_past_the_window():
    """Coefficients from z^v on reach z^(v + len - 1), which must lie below
    prec."""
    for field in (Q, Q3):
        for start, coeffs, prec in ((2, [1, 2, 3], 4), (-3, [1], -3),
                                    (0, [0, 0], 1)):
            with pytest.raises(ValueError, match=r"^coefficients extend "
                               r"beyond the stated precision$"):
                TruncatedSeries(field, start, coeffs, prec)


def test_compose_all_refuses_outer_with_pole():
    """An outer with a pole, or known only below z^0, is refused, also when
    it shares the list with holomorphic outers."""
    inner = S(1, [1, 3], 6)
    for outer in (S(-2, [-2], -1), S(-2, [1], 1), S(-2, [1, 0], 0),
                  S(-1, [1, 3, 0, 2], 5), TruncatedSeries.zero(Q, -1)):
        with pytest.raises(ValuationError):
            compose_all([S(0, [1, 2], 4), outer], inner)


def test_compose_all_list_of_one_and_none():
    inner = S(1, [2, 1, 1], 6)
    outer = S(0, [1, 3, 0, 2], 5)
    assert compose_all([outer], inner) == [horner_compose(outer, inner)]
    assert compose_all([], inner) == []
    with pytest.raises(ValuationError):
        compose_all([outer], S(0, [1, 1], 6))


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q3"])
def test_composition_refuses_an_inner_of_valuation_other_than_1(field):
    """The inner series is a local parameter, of valuation exactly 1.  One
    of valuation 2, with one term or several, or of valuation 0, and the
    zero inner, also the one known only below z^1, are refused by
    compose_all and transform_form, for an empty list of outers too."""
    outers = [S(0, [1, 2, 3], 6, field), S(1, [1], 4, field)]
    for inner in (S(2, [3], 8, field), S(2, [1, 1, 5], 9, field),
                  S(0, [1, 1], 6, field), TruncatedSeries.zero(field, 1),
                  TruncatedSeries.zero(field, 6)):
        for compose in (compose_all, transform_form):
            for series in (outers, []):
                with pytest.raises(ValuationError, match=r"^composition "
                                   r"requires inner valuation 1$"):
                    compose(series, inner)


def _assert_agrees_on(narrow, wide):
    assert wide.prec >= narrow.prec
    assert wide.truncate(narrow.prec) == narrow


def test_compose_window_sound():
    rng = random.Random(31)
    for v_outer in (0, 1, 2):
        outer = random_series(rng, Q3, v_outer, 14, v_outer + 14)
        inner = random_series(rng, Q3, 1, 14, 15)
        wide = compose_all([outer], inner)[0]
        for cut_out, cut_in in ((v_outer + 4, 15), (v_outer + 14, 5),
                                (v_outer + 7, 9)):
            narrow = compose_all([outer.truncate(cut_out)],
                                 inner.truncate(cut_in))[0]
            _assert_agrees_on(narrow, wide)


def test_inverse_window_sound():
    """Relative precisions 1, 2, 3, 17, 40 and 41 end Newton on rounds that
    are not powers of two; f times its inverse is 1 on the full window."""
    rng = random.Random(35)
    for field in (Q, Q3):
        for v in (-2, 0, 3):
            f = random_series(rng, field, v, 41, v + 41, sparse=0.3)
            wide = f.inverse()
            assert wide.valuation == -v and wide.prec == 41 - v
            assert schoolbook_mul(f, wide) == S(0, [1], 41, field)
            for cut in (v + 1, v + 2, v + 3, v + 5, v + 11, v + 17, v + 40):
                narrow = f.truncate(cut).inverse()
                assert narrow.prec == cut - 2 * v
                _assert_agrees_on(narrow, wide)


def test_reversion_window_sound():
    rng = random.Random(32)
    for field in (Q, Q3):
        f = random_series(rng, field, 1, 20, 21)
        wide = reversion(f)
        assert wide.prec == 21
        for cut in (2, 3, 5, 8, 13):
            narrow = reversion(f.truncate(cut))
            assert narrow.prec == cut
            _assert_agrees_on(narrow, wide)


def test_newton_window_sound():
    """y^3 - y - u(z) = 0 near y = 1, u(0) = 0 (dF/dy = 2 at the seed)."""
    rng = random.Random(33)
    big = 30
    u = random_series(rng, Q, 1, 20, big)
    coeffs = [-u, S(0, [-1], big),
              TruncatedSeries.zero(Q, big), S(0, [1], big)]
    wide = newton_solve(coeffs, S(0, [1], 1), 24)
    assert wide.prec == 24
    for target in (1, 2, 3, 7, 12, 17):
        narrow = newton_solve([c.truncate(target + 1) for c in coeffs],
                              S(0, [1], 1), target)
        assert narrow.prec == target
        _assert_agrees_on(narrow, wide)
    # coefficients one short of target + 1: the unknown one is not read as 0
    for target in (2, 7, 17):
        with pytest.raises(InsufficientPrecision):
            newton_solve([c.truncate(target) for c in coeffs],
                         S(0, [1], 1), target)


def test_compose_against_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def poly(s):
        return sympy.Poly(sum(
            (sympy.Rational(c.num[0], c.den) *
             z ** (s.valuation + k) for k, c in enumerate(s.coeffs)),
            sympy.Integer(0)), z)

    rng = random.Random(34)
    for v_outer in (0, 1, 2):
        outer = random_series(rng, Q, v_outer, 9, v_outer + 9, sparse=0.2)
        inner = random_series(rng, Q, 1, 7, 8, sparse=0.2)
        got = compose_all([outer], inner)[0]
        exact = poly(outer).compose(poly(inner))
        for e in range(got.prec):
            want = exact.coeff_monomial(z ** e)
            assert got.coefficient(e) == Q.scalar(F(int(want.p), int(want.q)))


def _sympy_ring(s):
    """The coefficients of s as an element of sympy's ring QQ[z]."""
    from sympy import QQ
    from sympy.polys.rings import ring
    R, z = ring("z", QQ)
    return z, sum((QQ(c.num[0], c.den) * z ** k
                   for k, c in enumerate(s.coeffs)), R.zero)


def _assert_matches_ring(series, p, shift=0):
    """series has the coefficients of z^shift * p below its window."""
    for e in range(series.valuation, series.prec):
        want = p.coeff(p.ring.gens[0] ** (e - shift)) if e >= shift else 0
        assert series.coefficient(e) == \
            Q.scalar(F(int(want.numerator), int(want.denominator)))


def test_inverse_against_sympy():
    """Full-length series, and one-term series c*z^v, whose inverse
    c^-1*z^-v comes from Newton rounds that each find a zero residual."""
    ring_series = pytest.importorskip("sympy.polys.ring_series")
    rng = random.Random(36)
    for v in (-2, 0, 1, 3):
        for rel in (1, 2, 3, 10, 17, 40, 41):
            for length in (rel, 1):
                f = random_series(rng, Q, v, length, v + rel, sparse=0.3)
                z, unit = _sympy_ring(f)
                inv = f.inverse()
                assert inv.valuation == -v and inv.prec == rel - v
                _assert_matches_ring(
                    inv, ring_series.rs_series_inversion(unit, z, rel), -v)


def _horner_from_zero(p, x):
    """Reference: Horner's rule seeded with the zero x - x."""
    acc = x - x
    for c in reversed(p):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q(zeta_3)"])
def test_peval_at_a_series(field):
    """peval starts Horner from the leading coefficient, and gives a series
    at a series for the empty and constant polynomials too.  At valuation
    >= 0 with Scalar coefficients it matches the zero-seeded rule, window
    included.  With series coefficients the seed's window no longer cuts
    the leading one, so the window may be wider; below the seeded one the
    values agree."""
    rng = random.Random(40)
    for v in (0, 1, 2):
        x = random_series(rng, field, v, 5, v + 7, sparse=0.3)
        for degree in range(-1, 5):
            scalars = [random_scalar(rng, field) for _ in range(degree + 1)]
            series = [random_series(rng, field, rng.randint(0, 2), 4,
                                    rng.randint(6, 12)) for _ in scalars]
            for poly in (scalars, series):
                got, want = peval(poly, x), _horner_from_zero(poly, x)
                assert isinstance(got, TruncatedSeries)
                assert got.prec >= want.prec
                if poly is scalars:
                    assert got.prec == want.prec
                got = got.truncate(want.prec)
                assert (got.valuation, got.coeffs) == \
                    (want.valuation, want.coeffs)


def test_reversion_against_sympy():
    ring_series = pytest.importorskip("sympy.polys.ring_series")
    rng = random.Random(37)
    for n in (2, 5, 9, 14):
        f = random_series(rng, Q, 1, n, n + 1, sparse=0.3)
        z, unit = _sympy_ring(f)
        g = reversion(f)
        assert g.prec == n + 1
        _assert_matches_ring(
            g, ring_series.rs_series_reversion(unit * z, z, n + 1, z))


# -- builder.lift against the reference chart path --------------------------------

FIXTURES = {"pirola": pirola_spec, "double3": lambda: bielliptic_spec(3),
            "double4": lambda: bielliptic_spec(4)}


def _ramification_places(spec):
    div = divisor_of(spec.curve, spec.h)
    return [p for p, v in div.items() if v == 1]


@pytest.mark.parametrize("name, window", [("pirola", 40), ("pirola", 80),
                                          ("double3", 40), ("double4", 40)])
def test_lift_matches_reference_chart(name, window):
    """Every chart of a stock fixture, at the width the builder lifts to:
    X and Y identical to the reference path's, and D to its X'/Y, all
    known to the full width.  The reference is taken two coefficients
    further, since X'/Y loses one to the derivative and one more to the
    division at a 2-torsion branch point, where Y has valuation 1."""
    spec = FIXTURES[name]()
    prec = -(-window // spec.order)
    for place in _ramification_places(spec):
        X, Y, D = lift(spec.curve, place, spec.h, prec)
        x, y = reference_chart(spec.curve, spec.h, place, prec + 2)
        dx_y = x.derivative() * y.inverse()
        assert [X, Y, D] == [s.truncate(prec) for s in (x, y, dx_y)]
        assert [s.prec for s in (X, Y, D)] == [prec] * 3


def _finite_places():
    """2-torsion and other places on y^2 = x^3 + 1 over Q and Q(zeta_3) and
    on y^2 = x^3 - 2x + 1 over Q, and every finite place of the double-cover
    fixtures' divisors."""
    for field in (Q, Q3):
        curve = EllipticCurve(field, field.zero(), field.one())
        for x, y in ((-1, 0), (0, 1), (0, -1), (2, 3), (2, -3)):
            yield curve, curve.point(x, y)
    curve = EllipticCurve(Q, Q.scalar(-2), Q.one())
    for x, y in ((1, 0), (0, 1), (0, -1)):
        yield curve, curve.point(x, y)
    for name in ("double3", "double4"):
        spec = FIXTURES[name]()
        yield from ((spec.curve, p) for p in divisor_of(spec.curve, spec.h)
                    if p is not INFINITY)


@pytest.mark.parametrize("prec", [1, 3, 8, 17])
def test_base_series_matches_reference(prec):
    for curve, place in _finite_places():
        assert base_series(curve, place, prec) == \
            reference_base_series(curve, place, prec), place


def test_lift_refuses_a_function_with_a_double_zero():
    """On y^2 = x^3 + 1, x + 1 has a double zero at the 2-torsion point
    (-1, 0), and y - 1 a triple one at the flex (0, 1): neither is a
    uniformizer there, so the Jacobian is no unit.  x and y themselves are
    uniformizers at those points and lift."""
    for field in (Q, Q3):
        curve = EllipticCurve(field, field.zero(), field.one())
        flex, torsion = curve.point(0, 1), curve.point(-1, 0)
        for place, bad, good in ((torsion, ([1, 1],), ((), [1])),
                                 (flex, ([-1], [1]), ([0, 1],))):
            for prec in (1, 2, 9):
                with pytest.raises(SingularJacobian):
                    lift(curve, place, CurveFunction.make(curve, *bad), prec)
                x, y, d = lift(curve, place,
                               CurveFunction.make(curve, *good), prec)
                assert (x.prec, y.prec, d.prec) == (prec, prec, prec)

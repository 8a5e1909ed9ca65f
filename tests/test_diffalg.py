import random
from fractions import Fraction as F

import pytest

from ellprym.diffalg import (gram, multiply, multiply_matrix, quadric_kernel,
                             sym_dim, sym_square_matrix, symmetric_product,
                             trace_split)
from ellprym.errors import InsufficientPrecision
from ellprym.scalars import FieldSpec, Matrix


def alpha_tensor(bundle):
    return symmetric_product(list(bundle.split.alpha_coords),
                             list(bundle.split.alpha_coords))


def test_trace_split_dimensions(pirola):
    split = pirola.split
    g = pirola.datum.genus
    assert len(split.minus_basis) == g - 1
    assert split.trace_ratio(split.alpha_coords) == \
        pirola.datum.field.scalar(pirola.datum.degree)


def test_trace_of_pullback_is_degree(all_bundles):
    for bundle in all_bundles.values():
        d = bundle.datum.degree
        assert bundle.split.trace_ratio(bundle.split.alpha_coords) == \
            bundle.datum.field.scalar(d)


def test_eigenforms_have_zero_trace(pirola):
    """Forms twisted by a nontrivial character sum to zero over the orbit
    fiber; cross-checked by direct summation of the stored ratios."""
    datum = pirola.datum
    field = datum.field
    for i in range(1, datum.genus):
        direct = field.zero()
        for row in datum.fiber.ratios:
            direct = direct + row[i]
        assert direct.is_zero()
        assert pirola.split.tau[i].is_zero()


def test_alpha_coords_solved_without_hint(pirola):
    datum = pirola.datum._replace(alpha_index_hint=None)
    split = trace_split(datum)
    assert list(split.alpha_coords) == list(pirola.split.alpha_coords)


def test_multiply_alpha_squared(pirola):
    """alpha . alpha maps to the squared pullback series and all-ones fiber."""
    datum = pirola.datum
    data = multiply(datum, alpha_tensor(pirola))
    for chart, s in zip(datum.charts, data.charts):
        square = chart.alpha_pullback * chart.alpha_pullback
        window = min(s.prec, square.prec)
        assert (s.truncate(window) - square.truncate(window)).is_zero()
    assert all(v == datum.field.one() for v in data.fiber)


def test_multiply_zero(pirola):
    data = multiply(pirola.datum, [pirola.datum.field.zero()] * 10)
    assert data.is_zero()


def test_multiply_bilinear(pirola):
    field = pirola.datum.field
    a = alpha_tensor(pirola)
    b = pirola.quadrics.basis[0]
    lhs = multiply(pirola.datum, [x + y for x, y in zip(a, b)])
    ra = multiply(pirola.datum, a)
    rb = multiply(pirola.datum, b)
    for s, sa, sb in zip(lhs.charts, ra.charts, rb.charts):
        window = min(s.prec, sa.prec, sb.prec)
        assert (s.truncate(window) -
                (sa + sb).truncate(window)).is_zero()
    assert list(lhs.fiber) == [x + y for x, y in zip(ra.fiber, rb.fiber)]


def test_unique_quadric_maps_to_zero(pirola):
    """The single quadric through the genus-4 model kills all data."""
    assert pirola.quadrics.dimension == 1
    data = multiply(pirola.datum, pirola.quadrics.basis[0])
    assert data.is_zero()


def test_quadric_dimensions(all_bundles):
    expected = {"pirola": 1, "bielliptic4": 1, "bielliptic3": 0}
    for name, bundle in all_bundles.items():
        g = bundle.datum.genus
        assert bundle.quadrics.dimension == expected[name]
        assert bundle.quadrics.dimension == (g - 2) * (g - 3) // 2


def test_multiplication_rank_is_projective_normality(all_bundles):
    for bundle in all_bundles.values():
        g = bundle.datum.genus
        M = multiply_matrix(bundle.datum)
        assert M.rank() == 3 * g - 3
        assert sym_dim(g) - M.rank() == bundle.quadrics.dimension


def test_quadric_kernel_requires_certificate():
    from ellprym.builder import build_cover, pirola_spec
    res = build_cover(pirola_spec(precision=3))
    with pytest.raises(InsufficientPrecision):
        quadric_kernel(res.datum)


def test_hyperelliptic_cover_caught_by_quadric_certificate():
    """w^2 = x(x-6): branch points are paired by x, so the double cover is
    hyperelliptic and its canonical image is a conic.  The quadric space
    then exceeds (g-2)(g-3)/2 and the kernel computation must refuse."""
    from ellprym.builder import (CurveFunction, CyclicCoverSpec,
                                 EllipticCurve, build_cover)
    from ellprym.covering import validate
    from ellprym.errors import DimensionMismatch
    Q1 = FieldSpec(1)
    E = EllipticCurve(Q1, Q1.zero(), Q1.scalar(9))
    h = CurveFunction.make(E, [0, -6, 1])
    res = build_cover(CyclicCoverSpec(E, h, 2, E.point(-2, -1)))
    assert res.datum.genus == 3
    assert validate(res.datum).ok
    with pytest.raises(DimensionMismatch):
        quadric_kernel(res.datum)


def test_pirola_quadric_structure(pirola):
    """The kernel element is (w^-1 alpha)^2 - alpha . (w^-2 alpha)."""
    field = pirola.datum.field
    G = gram(field, 4, pirola.quadrics.basis[0])
    e11 = G.rows[1][1]
    assert not e11.is_zero()
    normalized = Matrix(field, [[x * e11.inverse() for x in row]
                                for row in G.rows])
    expect = Matrix.zero(field, 4, 4)
    expect.rows[1][1] = field.one()
    half = field.scalar(1) / field.scalar(2)
    expect.rows[0][2] = -half
    expect.rows[2][0] = -half
    assert normalized == expect


def _random_matrix(rng, field, nrows, ncols):
    return Matrix(field, [[field.from_coefficients(
        [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(field.degree)])
        for _ in range(ncols)] for _ in range(nrows)])


@pytest.mark.parametrize("field", [FieldSpec(1), FieldSpec(3)],
                         ids=["Q", "Q3"])
def test_sym_square_matrix_matches_congruence(field):
    """Oracle for the one induced map S(A): on lex coordinates it is the
    congruence Phi -> A Phi A^T of coefficient arrays, for square and
    rectangular A; S(AB) = S(A) S(B) and S(I) = I; and symmetric_product
    has the array (u v^T + v u^T) / 2."""
    rng = random.Random(7 + field.degree)
    half = field.scalar(F(1, 2))
    for g in (2, 3, 4):
        assert sym_square_matrix(Matrix.identity(field, g)) == \
            Matrix.identity(field, sym_dim(g))
        for cols in (g, g - 1):
            A = _random_matrix(rng, field, g, g)
            B = _random_matrix(rng, field, g, cols)
            c = _random_matrix(rng, field, 1, sym_dim(cols)).rows[0]
            image = sym_square_matrix(B).mul_vec(c)
            assert gram(field, g, image) == \
                B.matmul(gram(field, cols, c)).matmul(B.transpose())
            assert sym_square_matrix(A.matmul(B)) == \
                sym_square_matrix(A).matmul(sym_square_matrix(B))
        u, v = _random_matrix(rng, field, 2, g).rows
        outer = Matrix(field, [[(u[i] * v[j] + v[i] * u[j]) * half
                                for j in range(g)] for i in range(g)])
        assert gram(field, g, symmetric_product(u, v)) == outer

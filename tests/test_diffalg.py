import random
from fractions import Fraction as F

import pytest

from ellprym.builder import bielliptic_spec, build_cover
from ellprym.covering import lex_pairs, reparametrized, trace_vector
from ellprym.diffalg import (congruent, gram, quadric_kernel,
                             sym_square_matrix, symmetric_product, trace_split)
from ellprym.errors import InsufficientPrecision
from ellprym.scalars import FieldSpec, Matrix, Scalar
from ellprym.series import TruncatedSeries
from ellprym.table import tail_rows
from test_prym import minus_basis, sym_dim
from test_scalars import reference_mul_vec


def trace_ratio(datum, vec):
    """tau applied to a coordinate vector: the trace of the form, over
    alpha."""
    return Matrix(datum.field, [trace_vector(datum)]).mul_vec(vec)[0]


def alpha_tensor(bundle):
    return symmetric_product(list(bundle.split.alpha_coords),
                             list(bundle.split.alpha_coords))


def test_trace_split_dimensions(pirola):
    split = pirola.split
    g = pirola.datum.genus
    assert len(minus_basis(split)) == g - 1
    assert trace_ratio(pirola.datum, split.alpha_coords) == \
        pirola.datum.field.scalar(pirola.datum.degree)


def test_trace_of_pullback_is_degree(all_bundles):
    for bundle in all_bundles.values():
        d = bundle.datum.degree
        assert trace_ratio(bundle.datum, bundle.split.alpha_coords) == \
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
        assert trace_vector(datum)[i].is_zero()


def test_sym_minus_is_the_trace_zero_block_of_the_full_square(all_bundles):
    """The map from the trace-zero square that kernel_E forms, S of the
    trace-zero columns of change, equals the columns of the full square's
    map S(change) on the pairs (i, j) with 1 <= i <= j, which follow the g
    pairs (0, j) in lex order; the kernel report's two blocks are the
    table's rows times that block."""
    for bundle in all_bundles.values():
        split, table = bundle.split, bundle.datum.multiplication_table
        block = sym_square_matrix(split.change)[:, split.genus:]
        assert sym_square_matrix(split.change[:, 1:]) == block
        assert bundle.kernel.residues == table.residues.matmul(block)
        assert bundle.kernel.fiber_sum == table.fiber_sum.matmul(block)


def test_alpha_coords_solved_without_hint(pirola):
    datum = pirola.datum._replace(alpha_index_hint=None)
    split = trace_split(datum)
    assert list(split.alpha_coords) == list(pirola.split.alpha_coords)


def image(datum, phi):
    """The image of phi under the multiplication map, read off the rows of
    the table's multiply matrix, to each chart's order, and past it off the
    rows of ``tail_rows``: one du^2-coefficient series per chart, cut at the
    chart windows, then the fiber values."""
    table = datum.multiplication_table
    values = Matrix.stack([table.multiply, tail_rows(datum)]).mul_vec(phi)
    charts, start, tail = [], 0, table.multiply.nrows
    for c, k in zip(datum.charts, table.orders):
        w = c.window()
        charts.append(TruncatedSeries(datum.field, 0, values[start:start + k] +
                                      values[tail:tail + w - k], w))
        start, tail = start + k, tail + w - k
    return charts, values[start:table.multiply.nrows]


def test_multiply_alpha_squared(pirola):
    """alpha . alpha maps to the squared pullback series and all-ones fiber."""
    datum = pirola.datum
    charts, fiber = image(datum, alpha_tensor(pirola))
    for chart, s in zip(datum.charts, charts):
        square = chart.alpha_pullback * chart.alpha_pullback
        window = min(s.prec, square.prec)
        assert (s.truncate(window) - square.truncate(window)).is_zero()
    assert all(v == datum.field.one() for v in fiber)


def reference_multiply(datum, phi):
    """The multiplication map as it was while matrices held Scalars: the
    chart matrices read from the products with coefficients_in, each chart
    series formed with the Scalar-row mul_vec of tests/test_scalars.py."""
    field, pairs = datum.field, lex_pairs(datum.genus)
    charts = []
    for c in datum.charts:
        w = c.window()
        products = [(c.forms[i] * c.forms[j]).truncate(w) for i, j in pairs]
        m = Matrix(field, list(zip(*(s.coefficients_in(0, w)
                                     for s in products))))
        charts.append(TruncatedSeries(field, 0, reference_mul_vec(m, phi), w))
    fiber = Matrix(field, [[r[i] * r[j] for i, j in pairs]
                           for r in datum.fiber.ratios])
    return charts, reference_mul_vec(fiber, phi)


def dense_datum(datum, seed):
    """Every chart moved to u -> +-u + c2 u^2 + c3 u^3, drawn as the dense
    benchmark input draws them, so that every chart coefficient is nonzero
    and the chart series are over mixed denominators."""
    rng, field, subs = random.Random(seed), datum.field, {}
    for j, chart in enumerate(datum.charts):
        w = chart.window()
        coeffs = [field.scalar(rng.choice((1, -1)))]
        coeffs += [field.scalar(F(rng.choice((-3, -2, -1, 1, 2, 3)),
                                  rng.randint(1, 3))) for _ in range(2)]
        subs[j] = TruncatedSeries.from_coefficients(
            field, 1, coeffs + [field.zero()] * (w - 3), w + 1)
    return reparametrized(datum, subs)


def test_multiply_matches_scalar_reference(all_bundles):
    """The table's multiply matrix against the Scalar-row reference on the
    three fixtures and the seed-1 dense datum, for the quadric, alpha .
    alpha and random tensors with zeros; annihilates agrees with the
    image."""
    rng = random.Random(17)
    datums = [b.datum for b in all_bundles.values()]
    datums.append(dense_datum(all_bundles["bielliptic4"].datum, 1))
    for datum in datums:
        field, size = datum.field, sym_dim(datum.genus)
        M = datum.multiplication_table.multiply
        split = trace_split(datum)
        tensors = [list(q) for q in quadric_kernel(datum)]
        tensors.append(symmetric_product(list(split.alpha_coords),
                                         list(split.alpha_coords)))
        for _ in range(3):
            tensors.append([field.scalar(F(rng.randint(-9, 9),
                                           rng.randint(1, 9)))
                            if rng.random() < 0.7 else field.zero()
                            for _ in range(size)])
        for phi in tensors:
            charts, fiber = reference_multiply(datum, phi)
            assert image(datum, phi) == (charts, fiber)
            assert M.annihilates(phi) == (
                all(s.is_zero() for s in charts) and
                all(x.is_zero() for x in fiber))


def test_multiply_refuses_a_tensor_of_the_wrong_length(biell4):
    """On the dense datum, a tensor with one coordinate too many or too few
    is refused, not cut to the table's width (which reported a zero image
    for the quadric with a 7 appended)."""
    datum = dense_datum(biell4.datum, 1)
    quadric = list(biell4.quadrics[0])
    M = datum.multiplication_table.multiply
    assert M.annihilates(quadric)
    for phi in (quadric + [datum.field.scalar(7)], quadric[:-1]):
        with pytest.raises(ValueError, match="shape mismatch"):
            M.annihilates(phi)


def test_table_and_multiply_box_no_chart_coefficient(monkeypatch):
    """Work bound: building the multiplication table and testing one
    tensor against it with annihilates make as many Scalars for the genus-4
    double cover at chart window 10 as at window 40, so none is made per
    chart coefficient."""
    counts = []
    make = Scalar._make.__func__

    def counting(cls, *args, **kwargs):
        counts[-1] += 1
        return make(cls, *args, **kwargs)

    for window in (10, 40):
        datum = build_cover(bielliptic_spec(4, window)).datum
        phi = [datum.field.scalar(F(i + 1, 2)) for i in range(sym_dim(4))]
        counts.append(0)
        monkeypatch.setattr(Scalar, "_make", classmethod(counting))
        datum.multiplication_table.multiply.annihilates(phi)
        monkeypatch.undo()
    assert counts[0] == counts[1]


def test_multiply_zero(pirola):
    assert pirola.datum.multiplication_table.multiply.annihilates(
        [pirola.datum.field.zero()] * 10)


def test_multiply_bilinear(pirola):
    field = pirola.datum.field
    a = alpha_tensor(pirola)
    b = pirola.quadrics[0]
    charts, fiber = image(pirola.datum, [x + y for x, y in zip(a, b)])
    charts_a, fiber_a = image(pirola.datum, a)
    charts_b, fiber_b = image(pirola.datum, b)
    for s, sa, sb in zip(charts, charts_a, charts_b):
        window = min(s.prec, sa.prec, sb.prec)
        assert (s.truncate(window) -
                (sa + sb).truncate(window)).is_zero()
    assert fiber == [x + y for x, y in zip(fiber_a, fiber_b)]


def test_unique_quadric_maps_to_zero(pirola):
    """The single quadric through the genus-4 model kills all data."""
    assert len(pirola.quadrics) == 1
    charts, fiber = image(pirola.datum, pirola.quadrics[0])
    assert all(s.is_zero() for s in charts)
    assert all(x.is_zero() for x in fiber)


def test_quadric_dimensions(all_bundles):
    expected = {"pirola": 1, "bielliptic4": 1, "bielliptic3": 0}
    for name, bundle in all_bundles.items():
        g = bundle.datum.genus
        assert len(bundle.quadrics) == expected[name]
        assert len(bundle.quadrics) == (g - 2) * (g - 3) // 2


def test_multiplication_rank_is_projective_normality(all_bundles):
    for bundle in all_bundles.values():
        g = bundle.datum.genus
        M = bundle.datum.multiplication_table.multiply
        assert M.rank() == 3 * g - 3
        assert sym_dim(g) - M.rank() == len(bundle.quadrics)


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
    G = gram(field, 4, pirola.quadrics[0])
    e11 = G.rows[1][1]
    assert not e11.is_zero()
    normalized = Matrix(field, [[x * e11.inverse() for x in row]
                                for row in G.rows])
    expect = [[field.zero()] * 4 for _ in range(4)]
    expect[1][1] = field.one()
    half = field.scalar(1) / field.scalar(2)
    expect[0][2] = -half
    expect[2][0] = -half
    assert normalized == Matrix(field, expect)


def _random_matrix(rng, field, nrows, ncols):
    return Matrix(field, [[Scalar(
        field,
        [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(field.degree)])
        for _ in range(ncols)] for _ in range(nrows)])


@pytest.mark.parametrize("field", [FieldSpec(1), FieldSpec(3)],
                         ids=["Q", "Q3"])
def test_sym_square_matrix_matches_congruence(field):
    """Oracle for the induced map S(A) and for congruent: on lex
    coordinates S(A) is the congruence Phi -> A Phi A^T of coefficient
    arrays, which congruent(A, c) applies without forming S(A), for square
    and rectangular A; S(AB) = S(A) S(B) and S(I) = I; and
    symmetric_product has the array (u v^T + v u^T) / 2."""
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
            assert congruent(B, c) == image
            full = _random_matrix(rng, field, 1, sym_dim(g)).rows[0]
            assert congruent(A, full) == sym_square_matrix(A).mul_vec(full)
            assert sym_square_matrix(A.matmul(B)) == \
                sym_square_matrix(A).matmul(sym_square_matrix(B))
        u, v = _random_matrix(rng, field, 2, g).rows
        outer = Matrix(field, [[(u[i] * v[j] + v[i] * u[j]) * half
                                for j in range(g)] for i in range(g)])
        assert gram(field, g, symmetric_product(u, v)) == outer

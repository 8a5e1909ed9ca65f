"""Randomized invariance suites, all with fixed seeds.

The heavyweight checks rebuild the analysis pipeline on transformed data:
chart reparametrizations and basis changes must leave every kernel
dimension unchanged, which is the datum-level form of residue invariance.
"""

import random
from fractions import Fraction as F

from ellprym.covering import (change_basis, lex_pairs, reparametrized,
                              validate)
from ellprym.diffalg import quadric_kernel, symmetric_product, trace_split
from ellprym.prym import codifferential_matrix, kernel_E, kernel_full
from ellprym.scalars import Matrix
from ellprym.series import TruncatedSeries
from test_prym import fiber_sum, minus_basis


def _random_unit_substitution(field, rng, prec):
    lead = field.scalar(rng.choice([1, 2, -1, F(1, 2), 3]))
    coeffs = [lead] + [field.scalar(F(rng.randint(-3, 3), rng.randint(1, 3)))
                       for _ in range(prec - 1)]
    return TruncatedSeries.from_coefficients(field, 1, coeffs, prec + 1)


def _random_invertible(field, rng, size):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(size)]
                for _ in range(size)]
        M = Matrix(field, rows)
        try:
            M.inverse()
            return M
        except ValueError:
            continue


def _dims(datum):
    split = trace_split(datum)
    quad = quadric_kernel(datum)
    ke = kernel_E(datum, split)
    crit = kernel_full(ke)
    return (len(quad), ke.dim_dual, ke.dim_primal, crit.dimension)


def test_kernel_dims_invariant_under_chart_reparametrization(pirola):
    rng = random.Random(1234)
    baseline = (len(pirola.quadrics), pirola.kernel.dim_dual,
                pirola.kernel.dim_primal, pirola.criterion.dimension)
    field = pirola.datum.field
    for _ in range(3):
        subs = {j: _random_unit_substitution(field, rng, 14)
                for j in range(pirola.datum.n_ramification)}
        moved = reparametrized(pirola.datum, subs)
        assert validate(moved).ok
        assert _dims(moved) == baseline


def test_kernel_dims_invariant_under_basis_change(pirola, biell4):
    rng = random.Random(4321)
    for bundle in (pirola, biell4):
        baseline = (len(bundle.quadrics), bundle.kernel.dim_dual,
                    bundle.kernel.dim_primal, bundle.criterion.dimension)
        field = bundle.datum.field
        for _ in range(3):
            B = _random_invertible(field, rng, bundle.datum.genus)
            moved = change_basis(bundle.datum, B)
            assert validate(moved).ok
            assert _dims(moved) == baseline


def test_rescaling_alpha_is_inert(pirola):
    """Scaling the base differential leaves every kernel dimension fixed.

    A rescaled datum multiplies all chart series by the factor and divides
    nothing: ratios are unchanged, so this is a pure basis rescaling of the
    zeroth form together with matching chart data.
    """
    field = pirola.datum.field
    lam = field.scalar(F(5, 3))
    B = Matrix.identity(field, 4)
    rows = [list(r) for r in B.rows]
    rows[0][0] = lam
    moved = change_basis(pirola.datum, Matrix(field, rows))
    assert _dims(moved) == (len(pirola.quadrics),
                            pirola.kernel.dim_dual,
                            pirola.kernel.dim_primal,
                            pirola.criterion.dimension)


def test_nu_polarization_is_bilinear(pirola, biell4):
    """The fiber sum's polarization nu(a+b) - nu(a) - nu(b) is symmetric and
    bilinear on random pairs."""
    rng = random.Random(987)
    for bundle in (pirola, biell4):
        datum, basis = bundle.datum, minus_basis(bundle.split)
        field = datum.field
        pairs = lex_pairs(len(basis))

        def add(x, y):
            return [a + b for a, b in zip(x, y)]

        def rand_tensor():
            elem = None
            for (a, b) in pairs:
                c = field.scalar(rng.randint(-3, 3))
                term = [c * t for t in symmetric_product(basis[a], basis[b])]
                elem = term if elem is None else add(elem, term)
            return elem

        def polar(x, y):
            return fiber_sum(datum, add(x, y)) - fiber_sum(datum, x) - \
                fiber_sum(datum, y)

        for _ in range(5):
            x, y, z = rand_tensor(), rand_tensor(), rand_tensor()
            assert polar(x, y) == polar(y, x)
            assert polar(add(x, y), z) == polar(x, z) + polar(y, z)
            lam = field.scalar(rng.randint(-4, 4))
            assert polar([lam * t for t in x], y) == lam * polar(x, y)


def test_covector_matrix_deterministic(pirola):
    first = codifferential_matrix(pirola.datum, pirola.split)
    second = codifferential_matrix(pirola.datum, pirola.split)
    assert first.rows == second.rows


def test_kernel_basis_deterministic_across_runs(pirola):
    ke1 = kernel_E(pirola.datum, pirola.split)
    ke2 = kernel_E(pirola.datum, pirola.split)
    assert ke1.basis_minus_coords == ke2.basis_minus_coords
    assert ke1.residues == ke2.residues
    assert ke1.fiber_sum == ke2.fiber_sum

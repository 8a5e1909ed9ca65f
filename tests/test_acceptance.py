"""Acceptance criteria, one test per criterion, one PASS line each.

Exact arithmetic throughout: every tolerance is literal equality.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from ellprym.builder import build_cover, pirola_spec
from ellprym.cli import analyze_datum
from ellprym.covering import change_basis, load, reparametrized, save, validate
from ellprym.covering import lex_pairs
from ellprym.diffalg import quadric_kernel, symmetric_product, trace_split
from ellprym.errors import InsufficientPrecision
from ellprym.geometry import (decompose_quadric, functpoint_check,
                              halfgeo_criterion)
from ellprym.prym import kernel_E, kernel_full
from ellprym.scalars import Matrix
from ellprym.series import TruncatedSeries, transform_form
from test_prym import fiber_sum, minus_basis, minus_tensor


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_galois_demo_reproduction():
    """Full degree-3 Galois reproduction at window 40, under 60 seconds."""
    start = time.monotonic()
    result = build_cover(pirola_spec(precision=40))
    report = analyze_datum(result.datum, result.action)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"demo took {elapsed:.1f}s"

    assert report["kernel_E"]["dim_dual"] == 4
    assert report["quadrics"]["h0"] == 1
    eq = report["equivariant"]
    assert eq["eigendims"] == [1, 2, 1]
    assert eq["sym2_eigendims"] == [3, 3, 4]
    battery = {c["name"]: c["passed"] for c in eq["battery"]["checks"]}
    assert battery["unique_quadric_single_nontrivial_character"]
    assert battery["quadric_contains_distinguished_point"]
    assert battery["quadric_is_cone_with_vertex_off_curve"]
    assert battery["hyperplane_restriction_rank_one"]
    assert battery["kernel_is_nontrivial_character_part"]
    assert battery["fiber_sum_vanishes_on_kernel"]
    assert battery["kernel_dimension_at_least_two"]
    assert report["criterion"]["dim_kernel"] == ">=2"
    assert report["distinguished_point"]["qminus_in_all_quadrics"] is True
    _report(1, f"all demo values reproduced exactly in {elapsed:.1f}s "
               "(window 40)")


def test_criterion_2_kernel_dimension_identity(all_bundles):
    """dim Ker(dual) = g(g-1)/2 - n + 1 and tangent kernel = 1, exactly."""
    seen = []
    for name, bundle in all_bundles.items():
        g, n = bundle.datum.genus, bundle.datum.n_ramification
        expect = g * (g - 1) // 2 - n + 1
        assert bundle.kernel.dim_dual == expect
        assert bundle.kernel.dim_primal == 1
        seen.append(f"{name}: {bundle.kernel.dim_dual} = "
                    f"{g}({g}-1)/2 - {n} + 1")
    assert len(seen) >= 3
    _report(2, "; ".join(seen))


def test_criterion_3_excess_identity(all_bundles):
    """dim Ker(dual) = h0(quadrics) + (2g-2-n) on every fixture."""
    seen = []
    for name, bundle in all_bundles.items():
        excess = bundle.datum.reduced_branch_excess()
        assert bundle.kernel.dim_dual == len(bundle.quadrics) + excess
        seen.append(f"{name}: {bundle.kernel.dim_dual} = "
                    f"{len(bundle.quadrics)} + {excess}")
    _report(3, "; ".join(seen))


def test_criterion_4_dual_route_equivalence(all_bundles):
    """Both vanishing routes agree and the trace identity holds exactly."""
    count = 0
    for name, bundle in all_bundles.items():
        checks = functpoint_check(bundle.datum, bundle.split, bundle.decs,
                                  bundle.kernel)
        for c in checks:
            assert c["agree"] and c["trace_identity"]
            count += 1
        for G in bundle.quadrics:
            dec = decompose_quadric(bundle.split, G)
            lhs = fiber_sum(bundle.datum,
                            minus_tensor(bundle.split, dec.minus))
            assert lhs == -bundle.split.trace_ratio(dec.omega)
    _report(4, f"fiber route and coefficient route agree on {count} quadrics; "
               "trace identity exact")


def test_criterion_5_geometric_consistency(all_bundles):
    """Never: point off all quadrics together with a non-minimal verdict."""
    for name, bundle in all_bundles.items():
        crit = halfgeo_criterion(bundle.datum, bundle.decs, bundle.criterion)
        if not crit["qminus_in_all_quadrics"]:
            assert bundle.criterion.dimension == "1"
    b4 = all_bundles["bielliptic4"]
    crit4 = halfgeo_criterion(b4.datum, b4.decs, b4.criterion)
    assert crit4["qminus_in_all_quadrics"] is False
    assert b4.criterion.dimension == "1"
    assert not b4.criterion.witness_nu.is_zero()
    _report(5, "geometric route and kernel scan consistent on all fixtures; "
               "double-cover fixture definite with both routes agreeing")


def test_criterion_6_property_suites(all_bundles, pirola):
    """Randomized invariance suites at fixed seeds, within the time budget."""
    start = time.monotonic()
    field = pirola.datum.field
    rng = random.Random(20260809)

    # residue reparametrization invariance, 100 random unit substitutions
    for _ in range(100):
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)]
        if coeffs[0] == 0:
            coeffs[0] = F(1)
        pole = rng.choice([-1, -2])
        f = TruncatedSeries.from_coefficients(field, pole, coeffs, pole + 8)
        subst = [F(1)] + [F(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(9)]
        phi = TruncatedSeries.from_coefficients(field, 1, subst, 11)
        # f = z^pole * g: compose the holomorphic g, then divide by phi
        moved = transform_form([f.shift(-pole)], phi)[0]
        for _ in range(-pole):
            moved = moved * phi.inverse()
        assert moved.coefficient(-1) == f.coefficient(-1)

    # datum-level invariance under chart reparametrization and basis change
    def dims(datum):
        split = trace_split(datum)
        quad = quadric_kernel(datum)
        ke = kernel_E(datum, split)
        crit = kernel_full(ke)
        return (len(quad), ke.dim_dual, ke.dim_primal, crit.dimension)

    baseline = (len(pirola.quadrics), pirola.kernel.dim_dual,
                pirola.kernel.dim_primal, pirola.criterion.dimension)
    subs = {}
    for j in range(pirola.datum.n_ramification):
        coeffs = [field.scalar(rng.choice([1, 2, -1]))] + \
            [field.scalar(F(rng.randint(-3, 3), rng.randint(1, 3)))
             for _ in range(13)]
        subs[j] = TruncatedSeries.from_coefficients(field, 1, coeffs, 15)
    assert dims(reparametrized(pirola.datum, subs)) == baseline

    while True:
        B = Matrix(field, [[rng.randint(-2, 2) for _ in range(4)]
                           for _ in range(4)])
        try:
            B.inverse()
            break
        except ValueError:
            continue
    assert dims(change_basis(pirola.datum, B)) == baseline

    # multiplication-map rank
    for bundle in all_bundles.values():
        g = bundle.datum.genus
        assert bundle.datum.multiplication_table.multiply.rank() == 3 * g - 3

    # fiber-sum polarization bilinearity
    datum, basis = pirola.datum, minus_basis(pirola.split)
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

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(6, f"invariance suites exact at fixed seeds in {elapsed:.1f}s")


def test_criterion_6_round_trip_and_determinism(pirola, tmp_path):
    """Load/save round trip is byte exact; kernels are run-to-run identical."""
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(pirola.datum, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert load(p1) == pirola.datum

    ke1 = kernel_E(pirola.datum, trace_split(pirola.datum))
    ke2 = kernel_E(pirola.datum, trace_split(pirola.datum))
    assert ke1.basis_minus_coords == ke2.basis_minus_coords
    _report("6b", "byte-exact round trip and deterministic kernels")


def test_criterion_7_under_truncation_rejected():
    """Under-resolved data must fail loudly, never yield a wrong dimension."""
    result = build_cover(pirola_spec(precision=3))
    report = validate(result.datum)
    assert report.ok                      # structurally valid
    assert not report.quadric_certified   # but below the zero-counting bound
    with pytest.raises(InsufficientPrecision):
        quadric_kernel(result.datum)
    with pytest.raises(InsufficientPrecision):
        analyze_datum(result.datum)
    _report(7, "under-truncated datum rejected with InsufficientPrecision")

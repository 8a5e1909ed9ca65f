import pytest

from ellprym.diffalg import QuadricSpace, symmetric_product
from ellprym.errors import ConsistencyViolated, InputError
from ellprym.geometry import (decompose_quadric, dimension_ledger,
                              evaluate_at_qminus, functpoint_check,
                              halfgeo_criterion)
from ellprym.prym import kernel_full


def alpha_sq(bundle):
    a = list(bundle.split.alpha_coords)
    return symmetric_product(a, a)


def minus_elem(bundle):
    m = list(bundle.split.minus_basis[0])
    return symmetric_product(m, m)


def test_decomposition_of_minus_tensor(pirola):
    phi = minus_elem(pirola)
    dec = decompose_quadric(pirola.split, phi)
    assert dec.minus_part == phi
    assert all(x.is_zero() for x in dec.omega)


def test_decomposition_of_alpha_squared(pirola):
    phi = alpha_sq(pirola)
    dec = decompose_quadric(pirola.split, phi)
    assert all(x.is_zero() for x in dec.minus_part)
    assert list(dec.omega) == list(pirola.split.alpha_coords)


def test_decomposition_reconstructs_any_tensor(pirola):
    field = pirola.datum.field
    phi = [a + m * field.scalar(7)
           for a, m in zip(alpha_sq(pirola), minus_elem(pirola))]
    dec = decompose_quadric(pirola.split, phi)
    rebuilt = [m + a for m, a in zip(dec.minus_part, symmetric_product(
        list(pirola.split.alpha_coords), list(dec.omega)))]
    assert rebuilt == phi


def test_evaluate_at_distinguished_point(pirola):
    one = pirola.datum.field.one()
    assert evaluate_at_qminus(pirola.split, alpha_sq(pirola)) == one
    assert evaluate_at_qminus(pirola.split, minus_elem(pirola)).is_zero()


def test_pirola_quadric_contains_point(pirola):
    """The mixed part of the unique quadric has no pure pullback component."""
    G = pirola.quadrics.basis[0]
    dec = decompose_quadric(pirola.split, G)
    assert pirola.split.trace_ratio(dec.omega).is_zero()
    assert evaluate_at_qminus(pirola.split, G).is_zero()


def test_dual_route_equivalence(all_bundles):
    for bundle in all_bundles.values():
        checks = functpoint_check(bundle.datum, bundle.split, bundle.quadrics)
        for c in checks:
            assert c["agree"] and c["trace_identity"]


def test_functpoint_rejects_non_kernel_input(pirola):
    fake = type(pirola.quadrics)(basis=(alpha_sq(pirola),))
    with pytest.raises(InputError):
        functpoint_check(pirola.datum, pirola.split, fake)


def test_halfgeo_verdicts(all_bundles):
    expected_in_all = {"pirola": True, "bielliptic4": False,
                       "bielliptic3": True}
    for name, bundle in all_bundles.items():
        crit = halfgeo_criterion(bundle.datum, bundle.split, bundle.quadrics,
                                 bundle.criterion)
        assert crit["qminus_in_all_quadrics"] == expected_in_all[name]
        assert crit["implies_minimal_kernel"] == \
            (not crit["qminus_in_all_quadrics"])
        if name == "bielliptic3":
            assert "no quadrics" in crit["note"]


def test_halfgeo_consistency_guard(biell4):
    """A contradicting criterion report trips the consistency check."""
    fake = kernel_full(biell4.datum, biell4.kernel)
    forged = fake._replace(dimension=">=2", witness_nu=None,
                           dim_kernel_full_dual=fake.dim_kernel_E_dual)
    with pytest.raises(ConsistencyViolated):
        halfgeo_criterion(biell4.datum, biell4.split, biell4.quadrics, forged)


def test_dimension_ledger_identities(all_bundles):
    """4 = 1 + 3, 1 = 1 + 0, 0 = 0 + 0, and the exact-sequence counts."""
    expected = {"pirola": (4, 1, 3), "bielliptic4": (1, 1, 0),
                "bielliptic3": (0, 0, 0)}
    for name, bundle in all_bundles.items():
        led = dimension_ledger(bundle.datum, bundle.split, bundle.quadrics,
                               bundle.kernel)
        dim, h0, excess = expected[name]
        assert all(i["holds"] for i in led["identities"]), led["identities"]
        assert led["dim_kernel_E_dual"] == dim
        assert led["h0_quadrics"] == h0
        assert led["branch_excess"] == excess
        assert led["dim_kernel_E_dual"] == led["h0_quadrics"] + \
            led["dim_kernel_residue_map"] - bundle.datum.genus


def test_ledger_flags_a_projection_outside_the_kernel(pirola):
    """eta_1 . eta_2 is trace-zero with residues (-4, 6, -2), so passed as
    the one quadric its projection is itself and leaves the kernel of the
    base-fixed codifferential: identity (b) fails and says so."""
    field = pirola.datum.field
    phi = [field.one() if k == 5 else field.zero() for k in range(10)]
    led = dimension_ledger(pirola.datum, pirola.split, QuadricSpace((phi,)),
                           pirola.kernel)
    (b,) = [i for i in led["identities"]
            if i["name"] == "quadric_projection_injects"]
    assert not b["holds"]
    assert b["detail"] == "projections do not lie in the kernel; rank 1 of 1"


def test_residue_map_kernel_values(all_bundles):
    """The residue-only map has rank n-1 (global residue relation)."""
    for bundle in all_bundles.values():
        led = dimension_ledger(bundle.datum, bundle.split, bundle.quadrics,
                               bundle.kernel)
        g, n = bundle.datum.genus, bundle.datum.n_ramification
        assert led["dim_kernel_residue_map"] == (3 * g - 3) - (n - 1)

import pytest

from ellprym import diffalg
from ellprym.builder import bielliptic_spec, build_cover
from ellprym.cli import analyze_datum
from ellprym.diffalg import quadric_kernel, symmetric_product, trace_split
from ellprym.errors import (ConsistencyViolated, EquivalenceViolated,
                            InputError)
from ellprym.geometry import (decompose_quadric, dimension_ledger,
                              functpoint_check, halfgeo_criterion)
from ellprym.prym import kernel_E, kernel_full
from ellprym.scalars import Matrix
from test_prym import fiber_sum, minus_basis, minus_tensor, mixed_part


def alpha_sq(bundle):
    a = list(bundle.split.alpha_coords)
    return symmetric_product(a, a)


def minus_elem(bundle):
    m = list(minus_basis(bundle.split)[0])
    return symmetric_product(m, m)


def test_decomposition_of_minus_tensor(pirola):
    phi = minus_elem(pirola)
    dec = decompose_quadric(pirola.split, phi)
    assert minus_tensor(pirola.split, dec.minus) == phi
    assert all(x.is_zero() for x in mixed_part(pirola.split, dec))


def test_decomposition_of_alpha_squared(pirola):
    phi = alpha_sq(pirola)
    dec = decompose_quadric(pirola.split, phi)
    assert all(x.is_zero() for x in dec.minus)
    assert mixed_part(pirola.split, dec) == phi


def test_decomposition_reconstructs_any_tensor(pirola):
    field = pirola.datum.field
    phi = [a + m * field.scalar(7)
           for a, m in zip(alpha_sq(pirola), minus_elem(pirola))]
    dec = decompose_quadric(pirola.split, phi)
    minus = minus_tensor(pirola.split, dec.minus)
    assert mixed_part(pirola.split, dec) == alpha_sq(pirola)
    rebuilt = [m + a for m, a in zip(minus, alpha_sq(pirola))]
    assert rebuilt == phi


def test_decomposition_parts_are_the_adapted_slices(all_bundles):
    """The two named parts are the adapted lex coordinates of the full
    square, S(change)^-1 G: the zeroth, and those from g on.  Checked on the
    basis quadrics, alpha . alpha, a trace-zero square and their sum."""
    for bundle in all_bundles.values():
        split, g = bundle.split, bundle.datum.genus
        mixed = [a + m for a, m in zip(alpha_sq(bundle), minus_elem(bundle))]
        for G in list(bundle.quadrics) + [alpha_sq(bundle), minus_elem(bundle),
                                          mixed]:
            adapted = split.sym_change_inv.mul_vec(G)
            dec = decompose_quadric(split, G)
            assert (dec.point_value, dec.minus) == (adapted[0], adapted[g:])


def test_decomposition_refuses_a_wrong_inverse(pirola):
    """The exact reconstruction check catches a tensor inverse that does not
    invert S(change): twice the true one rebuilds 2G."""
    inv = pirola.split.sym_change_inv
    split = pirola.split._replace(sym_change_inv=Matrix(
        inv.field, [[x + x for x in row] for row in inv.rows]))
    with pytest.raises(AssertionError, match="failed to reconstruct"):
        decompose_quadric(split, pirola.quadrics[0])


def test_evaluate_at_distinguished_point(pirola):
    one = pirola.datum.field.one()
    assert decompose_quadric(pirola.split, alpha_sq(pirola)).point_value == one
    assert decompose_quadric(pirola.split,
                             minus_elem(pirola)).point_value.is_zero()


def test_pirola_quadric_contains_point(pirola):
    """The mixed part of the unique quadric has no pure pullback component."""
    G = pirola.quadrics[0]
    dec = decompose_quadric(pirola.split, G)
    assert fiber_sum(pirola.datum, mixed_part(pirola.split, dec)).is_zero()
    assert dec.point_value.is_zero()


def test_dual_route_equivalence(all_bundles):
    for bundle in all_bundles.values():
        checks = functpoint_check(bundle.datum, bundle.decs, bundle.kernel)
        for c in checks:
            assert c["agree"] and c["trace_identity"]


def test_functpoint_rejects_non_kernel_input(pirola):
    fake = [decompose_quadric(pirola.split, alpha_sq(pirola))]
    with pytest.raises(InputError):
        functpoint_check(pirola.datum, fake, pirola.kernel)


def test_functpoint_refuses_routes_that_disagree(pirola):
    """A decomposition whose value at the distinguished point is nonzero
    while its fiber sum vanishes trips the dual-route check."""
    dec = pirola.decs[0]
    forged = dec._replace(point_value=pirola.datum.field.one())
    with pytest.raises(EquivalenceViolated):
        functpoint_check(pirola.datum, [forged], pirola.kernel)


def test_functpoint_refuses_routes_off_the_degree_ratio():
    """The fiber route is -degree times the coefficient route.  On the
    genus-4 double cover at window 13 (fiber route 2, coefficient route -1),
    a decomposition whose value at the distinguished point is forged to
    twice its value keeps both routes nonzero, so they still vanish
    together, yet the identity refuses it."""
    datum = build_cover(bielliptic_spec(4, 13)).datum
    split = trace_split(datum)
    kernel = kernel_E(datum, split)
    (dec,) = [decompose_quadric(split, G) for G in quadric_kernel(datum)]
    (check,) = functpoint_check(datum, [dec], kernel)
    assert (check["fiber_route"], check["coefficient_route"]) == ("2", "-1")
    forged = dec._replace(point_value=dec.point_value + dec.point_value)
    with pytest.raises(EquivalenceViolated, match="trace identity violated"):
        functpoint_check(datum, [forged], kernel)


def test_halfgeo_verdicts(all_bundles):
    expected_in_all = {"pirola": True, "bielliptic4": False,
                       "bielliptic3": True}
    for name, bundle in all_bundles.items():
        crit = halfgeo_criterion(bundle.datum, bundle.decs, bundle.criterion)
        assert crit["qminus_in_all_quadrics"] == expected_in_all[name]
        assert crit["implies_minimal_kernel"] == \
            (not crit["qminus_in_all_quadrics"])
        if name == "bielliptic3":
            assert "no quadrics" in crit["note"]


def test_halfgeo_consistency_guard(biell4):
    """A contradicting criterion report trips the consistency check."""
    fake = kernel_full(biell4.kernel)
    forged = fake._replace(dimension=">=2", witness_nu=None,
                           dim_kernel_full_dual=fake.dim_kernel_E_dual)
    with pytest.raises(ConsistencyViolated):
        halfgeo_criterion(biell4.datum, biell4.decs, forged)


def test_dimension_ledger_identities(all_bundles):
    """4 = 1 + 3, 1 = 1 + 0, 0 = 0 + 0, and the exact-sequence counts."""
    expected = {"pirola": (4, 1, 3), "bielliptic4": (1, 1, 0),
                "bielliptic3": (0, 0, 0)}
    for name, bundle in all_bundles.items():
        led = dimension_ledger(bundle.datum, bundle.decs, bundle.kernel)
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
    led = dimension_ledger(pirola.datum,
                           [decompose_quadric(pirola.split, phi)],
                           pirola.kernel)
    (b,) = [i for i in led["identities"]
            if i["name"] == "quadric_projection_injects"]
    assert not b["holds"]
    assert b["detail"] == "projections do not lie in the kernel; rank 1 of 1"


def test_residue_map_kernel_values(all_bundles):
    """The residue-only map has rank n-1 (global residue relation)."""
    for bundle in all_bundles.values():
        led = dimension_ledger(bundle.datum, bundle.decs, bundle.kernel)
        g, n = bundle.datum.genus, bundle.datum.n_ramification
        assert led["dim_kernel_residue_map"] == (3 * g - 3) - (n - 1)


def test_analysis_decomposes_each_quadric_once(all_bundles, monkeypatch):
    """The analysis stages share one decomposition per basis quadric: during
    analyze_datum with the fixture's action, sym_change_inv multiplies h0
    vectors, one per quadric, and no more."""
    trace_split, mul_vec = diffalg.trace_split, Matrix.mul_vec
    splits, receivers = [], []

    def recording_split(datum):
        splits.append(trace_split(datum))
        return splits[-1]

    def recording_mul_vec(self, vec):
        receivers.append(self)
        return mul_vec(self, vec)
    monkeypatch.setattr(diffalg, "trace_split", recording_split)
    monkeypatch.setattr(Matrix, "mul_vec", recording_mul_vec)
    counts = {}
    for name, bundle in all_bundles.items():
        splits.clear()
        receivers.clear()
        analyze_datum(bundle.datum, bundle.action)
        (split,) = splits
        counts[name] = sum(r is split.sym_change_inv for r in receivers)
    assert counts == {"pirola": 1, "bielliptic4": 1, "bielliptic3": 0}

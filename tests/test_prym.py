from ellprym import prym
from ellprym.cli import analyze_datum
from ellprym.covering import lex_pairs
from ellprym.diffalg import symmetric_product
from ellprym.prym import codifferential_matrix
from ellprym.scalars import Matrix


def fiber_sum(datum, tensor):
    """Oracle for the fiber-sum slot, straight from the stored fiber
    ratios: the sum over the fiber points of sum c_ij r_i r_j, for the lex
    coordinates c_ij of the tensor."""
    total = datum.field.zero()
    for r in datum.fiber.ratios:
        for c, (i, j) in zip(tensor, lex_pairs(datum.genus)):
            total = total + c * r[i] * r[j]
    return total


def sym_dim(size):
    """The dimension of the symmetric square of a space of this size."""
    return size * (size + 1) // 2


def minus_basis(split):
    """The trace-zero forms of the split: the columns of ``change`` after
    the pullback form."""
    return split.change.transpose().rows[1:]


def minus_tensor(split, coords):
    """The lex coordinates of the tensor with these coordinates over the
    symmetric square of the trace-zero basis, summed from its products."""
    basis = minus_basis(split)
    total = [split.change.field.zero()] * sym_dim(split.genus)
    for c, (a, b) in zip(coords, lex_pairs(len(basis))):
        total = [t + c * p for t, p in
                 zip(total, symmetric_product(basis[a], basis[b]))]
    return total


def test_mixed_tensor_has_zero_residues(pirola):
    """alpha . omega gives a holomorphic quotient: every residue slot is 0."""
    datum, split = pirola.datum, pirola.split
    field = datum.field
    for omega_idx in range(datum.genus):
        omega = [field.one() if i == omega_idx else field.zero()
                 for i in range(datum.genus)]
        phi = symmetric_product(list(split.alpha_coords), omega)
        gammas = datum.multiplication_table.residues.mul_vec(phi)
        assert all(x.is_zero() for x in gammas)


def test_residues_match_base_curve_oracle(pirola):
    """Independent route: the product of the two twisted forms equals the
    squared pullback over the cover function, so its covector residues are
    the cover order times the residues of (base differential / cover
    function) computed directly on the base curve in the base uniformizer.
    Frozen values for the stock fixture: (-4, 6, -2), summing to zero."""
    from ellprym.builder import base_series, divisor_of
    datum = pirola.datum
    field = datum.field
    # the lexicographic basis tensor eta_1 . eta_2
    phi = [field.one() if k == 5 else field.zero() for k in range(10)]
    gammas = datum.multiplication_table.residues.mul_vec(phi)
    spec = pirola.spec
    div = divisor_of(spec.curve, spec.h)
    ram = [p for p, v in div.items() if abs(v) == 1]
    for gamma, b in zip(gammas, ram):
        x_t, y_t = base_series(spec.curve, b, 12)
        h_t = spec.h.at(x_t, y_t)
        base_res = (x_t.derivative() * (y_t * h_t).inverse()).coefficient(-1)
        assert gamma == base_res * 3
    assert [g.to_string() for g in gammas] == ["-4", "6", "-2"]


def test_zero_tensor_maps_to_zero(pirola):
    cmat = codifferential_matrix(pirola.datum, pirola.split)
    assert cmat.annihilates([pirola.datum.field.zero()] * cmat.ncols)
    assert fiber_sum(pirola.datum, [pirola.datum.field.zero()] * 10).is_zero()


def test_gamma_s_equals_nu_exactly(all_bundles):
    """Two routes to the fiber-sum slot of a tensor in the symmetric square
    of the trace-zero forms: the fiber ratios summed on its lex coordinates,
    and the last row of codifferential_matrix on its coordinates over that
    square."""
    for bundle in all_bundles.values():
        datum, split = bundle.datum, bundle.split
        cmat = codifferential_matrix(datum, split)
        basis = minus_basis(split)
        for a, b in lex_pairs(len(basis)):
            phi = symmetric_product(basis[a], basis[b])
            coords = split.sym_change_inv.mul_vec(phi)[datum.genus:]
            assert fiber_sum(datum, phi) == cmat.mul_vec(coords)[-1]


def test_fiber_slot_vanishes_on_nontrivial_characters(pirola):
    """Orbit sums of root-of-unity ratios cancel the fiber slot."""
    datum, split = pirola.datum, pirola.split
    cmat = codifferential_matrix(datum, split)
    basis = minus_basis(split)
    for a, b in lex_pairs(3):
        phi = symmetric_product(basis[a], basis[b])
        coords = split.sym_change_inv.mul_vec(phi)[datum.genus:]
        gamma_s = cmat.mul_vec(coords)[-1]
        # invariant tensors pair character 1 with character 2 factors;
        # the fiber slot vanishes unless the characters cancel, which
        # over a single-orbit fiber happens only for the pairs (e1, ei)
        assert gamma_s == fiber_sum(datum, phi)


def test_nu_of_alpha_squared_is_degree(all_bundles):
    for bundle in all_bundles.values():
        datum, split = bundle.datum, bundle.split
        phi = symmetric_product(list(split.alpha_coords),
                                list(split.alpha_coords))
        assert fiber_sum(datum, phi) == datum.field.scalar(datum.degree)


def test_kernel_E_identity(all_bundles):
    """dim Ker = g(g-1)/2 - n + 1 and the tangent-side kernel is a line."""
    expected = {"pirola": 4, "bielliptic4": 1, "bielliptic3": 0}
    for name, bundle in all_bundles.items():
        g, n = bundle.datum.genus, bundle.datum.n_ramification
        ke = bundle.kernel
        assert ke.dim_dual == g * (g - 1) // 2 - n + 1 == expected[name]
        assert ke.dim_primal == 1
        # every kernel tensor has vanishing residue slots
        for coords in ke.basis_minus_coords:
            assert bundle.datum.multiplication_table.residues.annihilates(
                minus_tensor(bundle.split, coords))


def test_global_residue_relation(all_bundles):
    """Residues of a meromorphic 1-form sum to zero: the covector rows do too."""
    for bundle in all_bundles.values():
        field = bundle.datum.field
        cmat = codifferential_matrix(bundle.datum, bundle.split)
        for row in cmat.transpose().rows:
            total = field.zero()
            for x in row[:-1]:
                total = total + x
            assert total.is_zero()


def test_kernel_chain_codimension(all_bundles):
    """Rank of the full covector matrix exceeds the residue-only rank by <= 1."""
    for bundle in all_bundles.values():
        field = bundle.datum.field
        cmat = codifferential_matrix(bundle.datum, bundle.split)
        n = bundle.datum.n_ramification
        r_gamma = Matrix(field, cmat.rows[:n]).rank()
        r_full = cmat.rank()
        assert r_gamma <= r_full <= r_gamma + 1


def test_nu_vanishes_on_pirola_kernel(pirola):
    for coords in pirola.kernel.basis_minus_coords:
        assert fiber_sum(pirola.datum,
                         minus_tensor(pirola.split, coords)).is_zero()


def test_criterion_verdicts(all_bundles):
    expected = {"pirola": ">=2", "bielliptic4": "1", "bielliptic3": ">=2"}
    for name, bundle in all_bundles.items():
        crit = bundle.criterion
        assert crit.dimension == expected[name]
        if crit.dimension == "1":
            assert not crit.witness_nu.is_zero()
            assert crit.dim_kernel_full_dual == crit.dim_kernel_E_dual - 1
        else:
            assert crit.witness_nu is None
            assert crit.dim_kernel_full_dual == crit.dim_kernel_E_dual


def test_bielliptic_witness_independently_confirmed(biell4):
    """The witness route is confirmed by the geometry route downstream:
    the distinguished point misses the quadric (checked in test_geometry),
    and the witness fiber sum is the negated trace ratio of the mixed part."""
    from ellprym.geometry import decompose_quadric
    crit = biell4.criterion
    dec = decompose_quadric(biell4.split, biell4.quadrics[0])
    assert not dec.point_value.is_zero()
    minus = minus_tensor(biell4.split, dec.minus)
    assert fiber_sum(biell4.datum, minus) == \
        -biell4.split.trace_ratio(dec.omega)
    assert crit.dimension == "1"


def test_genus3_vacuous_verdict(biell3):
    assert biell3.kernel.dim_dual == 0
    assert biell3.criterion.dimension == ">=2"
    assert biell3.criterion.nu_on_basis == ()


def test_analysis_reads_the_slots_in_the_trace_zero_frame(all_bundles,
                                                          monkeypatch):
    """During analyze_datum with the fixture's action, codifferential_matrix
    is formed once, and no mul_vec or annihilates call has a receiver of 1
    or n rows by g(g+1)/2 columns: the shape of the table's fiber-sum and
    residue rows, which would read the slots on the full symmetric
    square."""
    codifferential, mul_vec = prym.codifferential_matrix, Matrix.mul_vec
    annihilates = Matrix.annihilates
    formed, shapes = [], []

    def recording_codifferential(datum, split):
        formed.append(datum)
        return codifferential(datum, split)

    def recording_mul_vec(self, vec):
        shapes.append((self.nrows, self.ncols))
        return mul_vec(self, vec)

    def recording_annihilates(self, vec):
        shapes.append((self.nrows, self.ncols))
        return annihilates(self, vec)
    monkeypatch.setattr(prym, "codifferential_matrix",
                        recording_codifferential)
    monkeypatch.setattr(Matrix, "mul_vec", recording_mul_vec)
    monkeypatch.setattr(Matrix, "annihilates", recording_annihilates)
    counts = {}
    for name, bundle in all_bundles.items():
        formed.clear()
        shapes.clear()
        analyze_datum(bundle.datum, bundle.action)
        g, n = bundle.datum.genus, bundle.datum.n_ramification
        full = g * (g + 1) // 2
        counts[name] = (len(formed), sum(shape in ((1, full), (n, full))
                                         for shape in shapes))
    assert counts == {"pirola": (1, 0), "bielliptic4": (1, 0),
                      "bielliptic3": (1, 0)}

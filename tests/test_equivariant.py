import pytest

from ellprym.covering import CyclicAction, change_basis
from ellprym.diffalg import (quadric_kernel, sym_square_matrix,
                             symmetric_product, trace_split)
from ellprym.equivariant import (_proportional, eigenspaces, run_battery,
                                 sym2_eigenspaces, tensor_characters,
                                 validate_action)
from ellprym.errors import FieldError, IdentityViolated, InputError
from ellprym.scalars import FieldSpec, Matrix
from ellprym.series import TruncatedSeries, compose_all, transform_form
from test_diffalg import image
from test_prym import fiber_sum, minus_tensor

Q3 = FieldSpec(3)
_Z = Q3.zeta()


def test_action_validates(all_bundles):
    for bundle in all_bundles.values():
        assert validate_action(bundle.datum, bundle.action)


def test_action_round_trip(pirola):
    obj = pirola.action.to_json()
    back = CyclicAction.from_json(pirola.datum, obj)
    assert back.matrix == pirola.action.matrix
    assert back.fiber_permutation == pirola.action.fiber_permutation
    assert validate_action(pirola.datum, back)


def test_built_actions_load_back_equal(all_bundles):
    """The builder writes each reparametrization to its chart's window, so
    the reader's window rule takes every built action back unchanged."""
    for bundle in all_bundles.values():
        assert CyclicAction.from_json(
            bundle.datum, bundle.action.to_json()) == bundle.action


def test_generator_order(pirola):
    field = pirola.datum.field
    M = pirola.action.matrix
    P = Matrix.identity(field, 4)
    for _ in range(3):
        P = P.matmul(M)
    assert P == Matrix.identity(field, 4)


def test_corrupted_action_detected(pirola):
    field = pirola.datum.field
    bad_perm = (0, 1, 2)   # identity permutation contradicts the matrix
    bad = CyclicAction(3, pirola.action.matrix, pirola.action.chart_moves,
                       bad_perm)
    with pytest.raises(IdentityViolated):
        validate_action(pirola.datum, bad)
    # a chart move u -> zeta^2 u where the generator moves u -> zeta u
    moves = list(pirola.action.chart_moves)
    moves[0] = (moves[0][0], moves[0][1].scale(field.zeta()))
    bad = CyclicAction(3, pirola.action.matrix, tuple(moves),
                       pirola.action.fiber_permutation)
    with pytest.raises(IdentityViolated, match="chart transport mismatch"):
        validate_action(pirola.datum, bad)


def test_action_failures_in_check_order(pirola):
    """The generator's order is checked first, then the fiber, then the
    charts; each message names the first failing point, form and chart."""
    field, action = pirola.datum.field, pirola.action
    moves = list(action.chart_moves)
    moves[1] = (moves[1][0], moves[1][1].scale(field.zeta()))
    bad_chart = action._replace(chart_moves=tuple(moves))
    bad_fiber = bad_chart._replace(fiber_permutation=(0, 2, 1))
    bad_order = bad_fiber._replace(matrix=Matrix(
        field, [[2 * x for x in row] for row in action.matrix.rows]))
    for bad, message in [
            (bad_order, "generator matrix does not have the stated order"),
            (bad_fiber, "fiber ratios incompatible with the action at point 0"),
            (bad_chart, "chart transport mismatch for form 1 at chart 1")]:
        with pytest.raises(IdentityViolated) as err:
            validate_action(pirola.datum, bad)
        assert str(err.value) == message


def test_action_of_lower_order_refused(pirola):
    """An order-3 generator stated to have order 6 is refused at the power
    where the identity appears, not only checked for M^6 = I."""
    with pytest.raises(IdentityViolated) as err:
        validate_action(pirola.datum, pirola.action._replace(order=6))
    assert str(err.value) == "generator matrix has order 3, not the stated 6"


@pytest.mark.parametrize("u,v,expected", [
    ([1, 2, 0, _Z], [3 * _Z, 6 * _Z, 0, 3 * _Z * _Z], True),
    ([0, 1, 2], [0, _Z, 2 * _Z], True),
    ([1, 0, 2], [1, 1, 2], False),
    ([1, 1, 2], [1, 0, 2], False),
    ([0, 1], [1, 1], False),
    ([1, 1], [0, 1], False),
    ([1, 0, 2], [1, 0, 3], False),
    ([_Z, 1], [1, _Z], False),
    ([1, 2], [0, 0], False),
    ([0, 0], [1, 1], False),
    ([0, 0], [0, 0], False),
], ids=["scaled", "scaled_leading_zero", "v_has_more_nonzeros",
        "v_has_fewer_nonzeros", "u_leading_zero_only", "v_leading_zero_only",
        "same_zeros_not_proportional", "same_zeros_other_ratio", "zero_v",
        "zero_u", "both_zero"])
def test_proportional_table(u, v, expected):
    assert _proportional([Q3.scalar(x) for x in u],
                         [Q3.scalar(x) for x in v]) is expected


def test_eigenspace_dims(pirola):
    dec = eigenspaces(pirola.action)
    assert dec.dims == (1, 2, 1)
    assert not dec.relabeled


def test_eigenspace_relabeling_normalization(pirola):
    """Feeding the squared generator must produce the same labeled dims."""
    sq = CyclicAction(3, pirola.action.matrix.matmul(pirola.action.matrix),
                      pirola.action.chart_moves, (2, 0, 1))
    dec = eigenspaces(sq)
    assert dec.dims == (1, 2, 1)
    assert dec.relabeled


def _kernel_shapes(monkeypatch):
    """The shapes of the matrices whose ``kernel_basis`` is taken from now
    on, in a list that grows as they are."""
    shapes = []
    kernel_basis = Matrix.kernel_basis

    def counted(self):
        shapes.append((self.nrows, self.ncols))
        return kernel_basis(self)
    monkeypatch.setattr(Matrix, "kernel_basis", counted)
    return shapes


def test_relabeling_decomposes_the_generator_once(pirola, monkeypatch):
    """The squared generator is relabeled from its own three kernels, one
    per exponent, with exponents 1 and 2 swapped: its square is not
    decomposed again, and the bases are exactly the kernels of
    (M^2)^2 - zeta^c."""
    M = pirola.action.matrix
    sq = CyclicAction(3, M.matmul(M), pirola.action.chart_moves, (2, 0, 1))
    M4 = sq.matrix.matmul(sq.matrix)
    want = tuple(tuple(tuple(v) for v in k) for k in _shifted_kernels(M4, 3))
    shapes = _kernel_shapes(monkeypatch)
    dec = eigenspaces(sq)
    assert dec.relabeled and shapes == [(4, 4)] * 3
    assert dec.generator == M4 and dec.bases == want


def test_trivial_action_single_eigenspace(biell4):
    field = biell4.datum.field
    ident = CyclicAction(
        1, Matrix.identity(field, 4),
        tuple((j, TruncatedSeries(field, 1, [field.one()], c.window()))
              for j, c in enumerate(biell4.datum.charts)),
        tuple(range(2)))
    dec = eigenspaces(ident)
    assert dec.dims == (4,)


def test_bielliptic_eigenspaces(biell4):
    dec = eigenspaces(biell4.action)
    assert dec.dims == (1, 3)   # invariants = pullback, anti-invariants = minus


def test_eigenspaces_need_root_of_unity(biell4):
    q = FieldSpec(1)
    fake = CyclicAction(3, Matrix.identity(q, 2), (), ())
    with pytest.raises(FieldError):
        eigenspaces(fake)


def _sym2(bundle):
    return sym2_eigenspaces(bundle.split, eigenspaces(bundle.action))


def test_sym2_eigendims(pirola):
    s2 = _sym2(pirola)
    assert tuple(map(len, s2.full)) == (3, 3, 4)
    assert tuple(map(len, s2.minus)) == (2, 1, 3)


def _unimodular(field, g):
    """B with ones on the diagonal and the superdiagonal."""
    return Matrix(field, [[int(j - i in (0, 1)) for j in range(g)]
                          for i in range(g)])


def _sym2_cases(all_bundles):
    """(name, datum, split, action) on which the products are checked: the
    three stock fixtures, pirola in the basis B with the action B^-1 M B
    (a generator that is not diagonal, and an alpha that is solved), and
    pirola with the squared generator (which `eigenspaces` relabels)."""
    cases = [(name, b.datum, b.split, b.action)
             for name, b in all_bundles.items()]
    pirola = all_bundles["pirola"]
    M = pirola.action.matrix
    B = _unimodular(M.field, 4)
    datum = change_basis(pirola.datum, B)
    moved = pirola.action._replace(matrix=B.inverse().matmul(M).matmul(B))
    assert validate_action(datum, moved)
    cases.append(("pirola_basis_B", datum, trace_split(datum), moved))
    cases.append(("pirola_squared", pirola.datum, pirola.split,
                  pirola.action._replace(matrix=M.matmul(M))))
    return cases


def _shifted_kernels(S, order):
    """Per exponent c, the kernel of S - zeta^c."""
    zeta = S.field.root_of_unity(order)
    return [Matrix(S.field, [[x - zeta ** c if i == j else x
                              for j, x in enumerate(row)]
                             for i, row in enumerate(S.rows)]).kernel_basis()
            for c in range(order)]


def _character_components(G, sym_M, N):
    """Projections of a tensor onto the N character spaces of the generator
    whose symmetric square is sym_M: the averages of zeta^-ck (g^k)* G."""
    field = sym_M.field
    zeta = field.root_of_unity(N)
    inv_N = field.scalar(N).inverse()
    images = [list(G)]
    while len(images) < N:
        images.append(sym_M.mul_vec(images[-1]))
    return [[inv_N * sum((zeta ** ((-c * k) % N) * img[p]
                          for k, img in enumerate(images)), field.zero())
             for p in range(len(G))] for c in range(N)]


def _same_span(field, basis, reference):
    if len(basis) != len(reference):
        return False
    return not basis or (
        Matrix(field, [list(v) for v in basis]).rank() == len(basis) and
        Matrix(field, [list(v) for v in basis] + reference).rank() ==
        len(basis))


def test_sym2_products_span_the_induced_kernels(all_bundles):
    """Oracle: on both squares, character by character, the products of
    eigenvectors span the kernel of S(A) - zeta^c, with A the generator on
    the full square and its lower block in the adapted frame on the
    trace-zero square."""
    for name, datum, split, action in _sym2_cases(all_bundles):
        eig = eigenspaces(action)
        s2 = sym2_eigenspaces(split, eig)
        conj = split.change_inv.matmul(eig.generator).matmul(split.change)
        for got, A in ((s2.full, eig.generator), (s2.minus, conj[1:, 1:])):
            want = _shifted_kernels(sym_square_matrix(A), eig.order)
            assert all(_same_span(datum.field, b, r)
                       for b, r in zip(got, want)), name
        assert eig.relabeled is (name == "pirola_squared")


def test_tensor_characters_match_projections(all_bundles):
    """Oracle: the characters read from coordinates over the products are
    those where the averaged projections are nonzero, on each quadric, on
    alpha . omega and on a tensor with several characters."""
    seen = set()
    for name, datum, split, action in _sym2_cases(all_bundles):
        eig = eigenspaces(action)
        full = sym2_eigenspaces(split, eig).full
        field, g = datum.field, datum.genus
        alpha = list(split.alpha_coords)
        omega = list(split.change.transpose().rows[1])
        ramp = [field.scalar(i + 1) for i in range(g)]
        mixed = [a + b for a, b in zip(symmetric_product(ramp, ramp),
                                       symmetric_product(alpha, omega))]
        tensors = [*quadric_kernel(datum), symmetric_product(alpha, omega),
                   mixed]
        S = sym_square_matrix(eig.generator)
        for T in tensors:
            comps = _character_components(T, S, eig.order)
            want = [c for c in range(eig.order)
                    if not all(x.is_zero() for x in comps[c])]
            got = tensor_characters(field, full, T)
            assert got == want, name
            seen.add(len(want))
    assert {1, 2} <= seen


def test_sym2_takes_three_small_kernels(pirola, monkeypatch):
    """On pirola the squares take no kernel of their own: the only kernels
    are the three of the 3 x 3 trace-zero block, one per character."""
    eig = eigenspaces(pirola.action)
    shapes = _kernel_shapes(monkeypatch)
    sym2_eigenspaces(pirola.split, eig)
    assert shapes == [(3, 3)] * 3


def test_multiply_equivariance(pirola):
    """The image of g* phi under the multiplication map equals the
    action-transported image of phi.

    g* phi has coefficient array M Phi M^T; chart j of the transport is the
    product at the move's target chart, rewritten as a quadratic
    differential s(rho) rho'^2 in the move's reparametrization rho, and the
    fiber values are permuted.
    """
    action = pirola.action
    kernel = pirola.kernel.basis_minus_coords
    for phi in (pirola.quadrics[0], minus_tensor(pirola.split, kernel[0]),
                minus_tensor(pirola.split, kernel[2])):
        lhs, lhs_fiber = image(pirola.datum,
                               sym_square_matrix(action.matrix).mul_vec(phi))
        charts, fiber = image(pirola.datum, phi)
        for a, (target, rho) in zip(lhs, action.chart_moves):
            b = transform_form([charts[target]], rho)[0] * rho.derivative()
            window = min(a.prec, b.prec)
            assert (a.truncate(window) - b.truncate(window)).is_zero()
        assert lhs_fiber == [fiber[k] for k in action.fiber_permutation]


def test_eigendims_invariant_under_basis_change(pirola):
    """Conjugating the action by a basis change preserves the dims."""
    import random
    field = pirola.datum.field
    rng = random.Random(5150)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        B = Matrix(field, rows)
        try:
            Binv = B.inverse()
            break
        except ValueError:
            continue
    conj = Binv.matmul(pirola.action.matrix).matmul(B)
    moved = CyclicAction(3, conj, pirola.action.chart_moves,
                         pirola.action.fiber_permutation)
    dec = eigenspaces(moved)
    assert dec.dims == (1, 2, 1)


def _battery(bundle, action=None):
    eig = eigenspaces(bundle.action)
    return run_battery(bundle.datum, action or bundle.action, eig,
                       sym2_eigenspaces(bundle.split, eig), bundle.decs,
                       bundle.kernel, bundle.criterion)


def test_battery_all_pass(pirola):
    report = _battery(pirola)
    assert report["ok"]
    assert len(report["checks"]) == 7


def test_battery_preconditions(biell4, pirola):
    with pytest.raises(InputError):
        _battery(biell4)
    wrong_order = CyclicAction(2, pirola.action.matrix,
                               pirola.action.chart_moves,
                               pirola.action.fiber_permutation)
    with pytest.raises(InputError):
        _battery(pirola, wrong_order)
    # a canonical genus-4 curve lies on one quadric; any other count of
    # decompositions is refused by name, not reported as a failed battery
    eig = eigenspaces(pirola.action)
    sym2 = sym2_eigenspaces(pirola.split, eig)
    for decs in ([], [pirola.decs[0]] * 2):
        with pytest.raises(InputError, match=f"one quadric, got {len(decs)}"):
            run_battery(pirola.datum, pirola.action, eig, sym2, decs,
                        pirola.kernel, pirola.criterion)


def test_nu_vanishes_on_nontrivial_eigenvectors(pirola):
    """Single-orbit fiber: orbit sums kill the fiber slot on nontrivial
    characters of the trace-zero square."""
    s2 = _sym2(pirola)
    for exponent in (1, 2):
        for coords in s2.minus[exponent]:
            elem = minus_tensor(pirola.split, coords)
            assert fiber_sum(pirola.datum, elem).is_zero()


def test_squared_generator_report_matches_stock(pirola):
    """The battery on the squared generator (matrix M^2, each chart move
    composed with itself, fiber permutation sigma^2) relabels it back and
    reports exactly what the stock action does, relabel flags aside."""
    from ellprym.cli import analyze_datum
    action = pirola.action
    moves = action.chart_moves
    squared = CyclicAction(
        3, action.matrix.matmul(action.matrix),
        tuple((moves[t][0], compose_all([moves[t][1]], rho)[0])
              for t, rho in moves),
        tuple(action.fiber_permutation[k] for k in action.fiber_permutation))
    stock = analyze_datum(pirola.datum, action)
    report = analyze_datum(pirola.datum, squared)
    for rep, flag in ((stock, False), (report, True)):
        assert rep["equivariant"]["generator_relabeled"] is flag
        assert rep["equivariant"]["battery"]["generator_relabeled"] is flag
        rep["equivariant"]["generator_relabeled"] = None
        rep["equivariant"]["battery"]["generator_relabeled"] = None
    assert report == stock
    assert report["equivariant"]["battery"]["ok"]

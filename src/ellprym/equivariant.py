"""Checks of a cyclic deck-group action and the degree-3 Galois battery.

The deck group acts on 1-forms by pullback; on chart data the generator is a
permutation of charts together with a unit reparametrization on each matched
chart, and on the fiber a permutation of the points.  The action record and
its file format are ``covering.CyclicAction``; `validate_action` checks it
against the datum before use.

Character labeling convention: for order 3 the generator is normalized (by
replacing it with its square if necessary) so that the eigenspace of the
designated primitive root has the larger dimension.  `eigenspaces` decides
this once and returns the generator it used, which the symmetric squares and
the battery take from it.  Reports note when the relabeling fired.

The symmetric squares need no linear algebra of their own: Sym^2 of a sum of
eigenspaces V_c is the sum of the V_a . V_b, so the products of eigenvectors
of exponents a and b span the eigenspace of exponent a + b (mod N).
"""

from __future__ import annotations

from typing import NamedTuple

from .compose import transform_form
from .covering import change_basis
from .diffalg import gram, symmetric_product
from .errors import FieldError, IdentityViolated, InputError
from .scalars import Matrix


def validate_action(datum, action):
    """Check the action axioms against the datum; raises on failure.  The
    expected fiber rows and chart expansions are those of
    ``change_basis(datum, action.matrix)``."""
    field = datum.field
    g = datum.genus
    N = action.order
    if not field.contains_root_of_unity(N):
        raise FieldError(f"field lacks a primitive {N}-th root of unity")
    # (generator)^N = identity on forms, and no lower power is
    identity = power = Matrix.identity(field, g)
    for k in range(1, N + 1):
        power = power.matmul(action.matrix)
        if k < N and power == identity:
            raise IdentityViolated(
                f"generator matrix has order {k}, not the stated {N}")
    if power != identity:
        raise IdentityViolated("generator matrix does not have the stated order")
    expected = change_basis(datum, action.matrix)
    # ratio compatibility: r[sigma(k)] = r[k] . M
    R = datum.fiber.ratios
    for k in range(datum.degree):
        if R[action.fiber_permutation[k]] != expected.fiber.ratios[k]:
            raise IdentityViolated(
                f"fiber ratios incompatible with the action at point {k}")
    # chart transport: expansions of pulled-back forms match the matrix
    for j, (target, rho) in enumerate(action.chart_moves):
        transported = transform_form(datum.charts[target].forms, rho)
        for i, (t, expect) in enumerate(zip(transported,
                                            expected.charts[j].forms)):
            # the difference is known to the narrower of the two windows
            if not (t - expect).is_zero():
                raise IdentityViolated(
                    f"chart transport mismatch for form {i} at chart {j}")
    return True


def action_fixes_alpha(split, action):
    vec = action.matrix.mul_vec(list(split.alpha_coords))
    return vec == list(split.alpha_coords)


class EigenDecomposition(NamedTuple):
    """Character-indexed eigenspaces of ``generator``; exponent c labels
    eigenvalue zeta^c."""
    order: int
    dims: tuple
    bases: tuple        # per exponent, a tuple of coordinate vectors
    relabeled: bool     # True when the generator was replaced by its square
    generator: Matrix   # the matrix decomposed


def eigenspaces(action):
    """Eigenspace decomposition of the generator matrix on forms.

    For order 3 the labeling is normalized so that exponent 1 carries the
    larger nontrivial eigenspace: when it does not, the generator is
    replaced by its square.  This is the one place that decides; the result
    carries the generator it decomposed and the flag, and the symmetric
    squares and the battery use that generator.  The dims must sum to g,
    making the bases one basis of the forms, as `sym2_eigenspaces` needs;
    after `validate_action` (M^N = I, zeta_N in the field) they do.
    """
    M, N = action.matrix, action.order
    bases = _eigenbases(M, N)
    relabeled = N == 3 and len(bases[1]) < len(bases[2])
    if relabeled:
        # the eigenspace of zeta^c under M^2 is that of zeta^(2c) under M
        M, bases = M.matmul(M), (bases[0], bases[2], bases[1])
    dims = tuple(len(b) for b in bases)
    if sum(dims) != M.nrows:
        raise IdentityViolated(
            f"eigenspace dimensions {dims} do not sum to {M.nrows}")
    return EigenDecomposition(N, dims, bases, relabeled, M)


def _eigenbases(M, order):
    """Per exponent c, a basis of the kernel of M - zeta^c."""
    zeta = M.field.root_of_unity(order)
    shifted = ([[x - zeta ** c if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(M.rows)] for c in range(order))
    return tuple(tuple(tuple(v) for v in Matrix(M.field, rows).kernel_basis())
                 for rows in shifted)


class SymSquareEigen(NamedTuple):
    """Per exponent, a basis of the eigenspace on the full square (lex
    coordinates) and on the trace-zero square (over the trace-zero basis)."""
    full: tuple
    minus: tuple


def sym2_eigenspaces(split, eig):
    """Eigenspaces of the induced action on both symmetric squares, as
    products of eigenvectors: on the full square of ``eig.bases``, on the
    trace-zero square of the eigenvectors of the lower block of conj, the
    generator ``eig`` carries conjugated into the adapted frame.

    Preconditions, established by the caller: the action passed
    `validate_action`, whose fiber check r[sigma(k)] = r[k] M summed over k
    gives tau M = tau, so row 0 of conj (tau/d) vanishes off the corner; and
    it fixes the pullback form (`action_fixes_alpha`), so column 0 does.
    The block is then the generator on the trace-zero forms, and
    diagonalizable, so its eigenvectors' products are a basis there too.
    """
    N = eig.order
    conj = split.change_inv.matmul(eig.generator).matmul(split.change)
    return SymSquareEigen(_products(eig.bases, N),
                          _products(_eigenbases(conj[1:, 1:], N), N))


def tensor_characters(field, full, tensor):
    """The exponents of a tensor's nonzero components, read from its
    coordinates over ``full``, the product basis of the full square."""
    chars = [c for c, basis in enumerate(full) for _ in basis]
    coords = Matrix(field, [v for basis in full for v in basis]
                    ).transpose().solve(list(tensor))
    return sorted({c for c, x in zip(chars, coords) if x})


def _products(bases, order):
    """Per exponent, the products u_i . u_j, i <= j, of the eigenvectors
    in order, whose exponents sum to it modulo ``order``."""
    vecs = [(c, v) for c, basis in enumerate(bases) for v in basis]
    out = [[] for _ in range(order)]
    for i, (a, u) in enumerate(vecs):
        for b, v in vecs[i:]:
            out[(a + b) % order].append(tuple(symmetric_product(u, v)))
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# the degree-3 Galois battery
# ---------------------------------------------------------------------------

def run_battery(datum, action, eig, sym2, decs, kernel_report,
                criterion_report):
    """The seven exactness checks for the genus-4 cyclic cubic cover family;
    returns the report's ``battery`` dict, whose ``checks`` list holds one
    name, verdict and detail line per check and whose ``ok`` says all pass.
    ``decs`` holds the `geometry.decompose_quadric` of each basis quadric;
    check (2) reads its ``point_value`` and check (4) its ``minus``.

    Preconditions, checked here: genus 4, degree 3, an action of order 3
    whose fiber permutation is a single 3-cycle (Galois cover of degree 3),
    and exactly one decomposition: a canonical genus-4 curve lies on one
    quadric.  `cli.analyze_datum` never trips the last, because
    `diffalg.quadric_kernel` refuses a genus-4 kernel of any other dimension
    before the battery runs.  Preconditions the caller has established:
    the action passed `validate_action` and fixes the pullback form,
    ``eig`` is its `eigenspaces` decomposition and ``sym2`` is
    `sym2_eigenspaces` of ``eig``.  Check (1) reads the quadric's
    characters from its coordinates over the product basis of the full
    square, and check (5) compares the kernel with the products of
    exponents 1 and 2 on the trace-zero square.
    """
    field = datum.field
    g = datum.genus
    if g != 4:
        raise InputError(f"battery requires genus 4, got {g}")
    if action.order != 3 or datum.degree != 3:
        raise InputError("battery requires a degree-3 action of order 3")
    perm = action.fiber_permutation
    if {0, perm[0], perm[perm[0]]} != {0, 1, 2}:
        raise InputError("fiber is not a single orbit of the action")
    if len(decs) != 1:
        raise InputError(f"battery requires one quadric, got {len(decs)}")
    dec = decs[0]

    checks = []

    def add(name, passed, detail):
        checks.append({"name": name, "passed": passed, "detail": detail})

    # (1) a single quadric, concentrated in one nontrivial character
    nonzero = tensor_characters(field, sym2.full, dec.tensor)
    add("unique_quadric_single_nontrivial_character", nonzero in ([1], [2]),
        f"h0 = 1; character components nonzero at exponents {nonzero}")

    # (2) the quadric passes through the distinguished point
    add("quadric_contains_distinguished_point", dec.point_value.is_zero(),
        f"coefficient of squared pullback = {dec.point_value}")

    # (3) cone of rank 3 with vertex off the known curve points
    vertex = gram(field, g, dec.tensor).kernel_basis()
    rank = g - len(vertex)
    off_curve = len(vertex) != 1 or not any(
        _proportional(vertex[0], pt) for pt in _known_point_functionals(datum))
    add("quadric_is_cone_with_vertex_off_curve",
        rank == 3 and len(vertex) == 1 and off_curve,
        f"gram rank {rank}, vertex dimension {len(vertex)}, "
        f"vertex off known curve points: {off_curve}")

    # (4) tangency: restriction to the distinguished hyperplane has rank 1
    block_rank = gram(field, g - 1, dec.minus).rank()
    add("hyperplane_restriction_rank_one", block_rank == 1,
        f"restricted gram rank {block_rank} "
        "(double line: tangent hyperplane, collinear ramification)")

    # (5) kernel = nontrivial-character part of the trace-zero square
    # both row sets are bases by construction: a kernel basis, and products
    # of an eigenbasis; so equal lengths 4 and joint rank 4 mean one space
    kernel_rows = [list(v) for v in kernel_report.basis_minus_coords]
    eigen_rows = [list(v) for v in sym2.minus[1] + sym2.minus[2]]
    joint_rank = Matrix(field, kernel_rows + eigen_rows).rank()
    same_space = len(kernel_rows) == len(eigen_rows) == joint_rank == 4
    add("kernel_is_nontrivial_character_part", same_space,
        f"kernel dim {len(kernel_rows)}, eigen dims "
        f"{len(sym2.minus[1])}+{len(sym2.minus[2])}, joint rank {joint_rank}")

    # (6) fiber sums vanish identically on the kernel (finite certificate)
    vanish = all(x.is_zero() for x in criterion_report.nu_on_basis) and \
        all(x.is_zero() for x in criterion_report.nu_on_pair_sums)
    add("fiber_sum_vanishes_on_kernel", vanish,
        f"basis values {[x.to_string() for x in criterion_report.nu_on_basis]}")

    # (7) verdict: kernel dimension at least 2
    add("kernel_dimension_at_least_two", criterion_report.dimension == ">=2",
        f"verdict {criterion_report.dimension}")

    return {"ok": all(c["passed"] for c in checks),
            "generator_relabeled": eig.relabeled, "checks": checks,
            "context": "these covers move in a three-parameter family; the "
                       "family itself is background and never computed here"}


def _known_point_functionals(datum):
    """Canonical-point coordinate vectors available in the datum.

    Fiber rows are points of the canonical model directly; at each
    ramification point the vector of lowest-order chart coefficients is a
    projective representative of its canonical image.
    """
    pts = [list(r) for r in datum.fiber.ratios]
    for c in datum.charts:
        vals = [s.valuation if not s.is_zero() else None for s in c.forms]
        finite = [v for v in vals if v is not None]
        if not finite:
            continue
        vmin = min(finite)
        pts.append([s.coefficient(vmin) if not s.is_zero()
                    else datum.field.zero() for s in c.forms])
    return pts


def _proportional(u, v):
    """Exact projective equality of two nonzero vectors: v[i] != 0 and
    u[k] v[i] = v[k] u[i] for all k, u[i] the first nonzero entry of u."""
    i = next((i for i, a in enumerate(u) if a), None)
    if i is None or not v[i]:
        return False
    return all(a * v[i] == b * u[i] for a, b in zip(u, v))


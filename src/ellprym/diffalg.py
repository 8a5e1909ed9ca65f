"""Trace splitting, symmetric squares, the multiplication map and its kernel.

The trace of a 1-form against the base differential is read off the fiber:
summing the ratio values over one unramified fiber evaluates the trace ratio
at the base point.  Its kernel is the trace-zero subspace, the tangent space
of the Prym variety, and the pullback line is a canonical complement.

The multiplication map sends a symmetric 2-tensor of 1-forms to a quadratic
differential, realized as the rows of the multiplication table's
``multiply`` matrix: the chart coefficients, chart by chart, then the values
at the fiber points.  Its kernel is the space of quadrics through the
canonically embedded cover; for non-hyperelliptic covers that space has
dimension (g-2)(g-3)/2, asserted exactly, so the map has rank 3g-3
(classical projective normality).

A symmetric 2-tensor is the list of its lex coordinates: the coefficients
c_ij of sum c_ij f_i f_j over the pairs i <= j in lexicographic order, where
f_i f_j = (f_i (x) f_j + f_j (x) f_i) / 2.  The coefficient array Phi of the
tensor (``gram``) has Phi_ii = c_ii and, off the diagonal, c_ij = 2 Phi_ij.
A tensor changes frame by congruence, Phi -> B Phi B^T (``congruent``); a
functional on tensors changes frame through the induced matrix
``sym_square_matrix``, which `prym.kernel_E` alone forms.
"""

from __future__ import annotations

from typing import NamedTuple

from .covering import (form_coefficients, lex_pairs, require_valid,
                       trace_vector)
from .errors import (DimensionMismatch, InsufficientPrecision,
                     ValidationFailed)
from .scalars import Matrix
from .table import tail_rows, tails_vanish


# ---------------------------------------------------------------------------
# symmetric 2-tensors
# ---------------------------------------------------------------------------

def symmetric_product(u, v):
    """Lex coordinates of u . v = (u (x) v + v (x) u) / 2."""
    return [u[i] * v[i] if i == j else u[i] * v[j] + u[j] * v[i]
            for i, j in lex_pairs(len(u))]


def gram(field, size, coords):
    """The symmetric coefficient array of a tensor given by lex coordinates."""
    half = field.scalar(1) / field.scalar(2)
    rows = [[field.zero()] * size for _ in range(size)]
    for c, (i, j) in zip(coords, lex_pairs(size)):
        if i == j:
            rows[i][i] = c
        else:
            rows[i][j] = rows[j][i] = c * half
    return Matrix(field, rows)


def congruent(B, coords):
    """Lex coordinates of B gram(coords) B^T: diagonal entries as they are,
    each off-diagonal pair i < j as a_ij + a_ji.  This is
    ``sym_square_matrix(B).mul_vec(coords)`` without forming S(B)."""
    rows = B.matmul(gram(B.field, B.ncols, coords)).matmul(
        B.transpose()).rows
    return [rows[i][i] if i == j else rows[i][j] + rows[j][i]
            for i, j in lex_pairs(B.nrows)]


def sym_square_matrix(A):
    """The map induced by A on symmetric 2-tensors, f_i f_j -> (A f_i)(A f_j).

    Columns follow the lex pairs of ``A.ncols``, rows the lex pairs of
    ``A.nrows``.  If A maps coordinates over one basis to coordinates over
    another, S(A) does the same for tensors; with A the matrix of a linear
    map on forms it gives the image tensor.  S(AB) = S(A) S(B).
    """
    cols = A.transpose().rows
    return Matrix(A.field, [symmetric_product(cols[i], cols[j])
                            for i, j in lex_pairs(A.ncols)]).transpose()


# ---------------------------------------------------------------------------
# trace splitting
# ---------------------------------------------------------------------------

class TraceSplit(NamedTuple):
    """The canonical splitting of the form space: the adapted frame.

    ``alpha_coords`` locates the pulled-back base form, which spans a
    complement of the trace-zero forms because its trace equals the
    covering degree.  ``change`` has the adapted basis, the pullback form
    and then a basis of the trace-zero forms, as columns; ``change_inv``
    maps form coordinates to adapted ones.  In adapted coordinates the
    distinguished point is (1:0:...:0) and the distinguished hyperplane is
    the zero locus of the zeroth coordinate.
    """
    alpha_coords: tuple
    change: Matrix
    change_inv: Matrix

    @property
    def genus(self):
        return len(self.alpha_coords)


def trace_split(datum):
    """Compute the alpha coordinates and the adapted change of basis (the
    pullback form, then a basis of the kernel of the trace vector) with its
    inverse."""
    require_valid(datum)
    field, g = datum.field, datum.genus
    tau = trace_vector(datum)
    minus = Matrix(field, [tau]).kernel_basis()
    if datum.alpha_index_hint is not None:
        alpha = [field.zero()] * g
        alpha[datum.alpha_index_hint] = field.one()
    else:
        alpha = _solve_alpha_coords(datum)
    change = Matrix(field, [alpha] + minus).transpose()
    # tau . alpha = d != 0 puts alpha outside ker tau, so change is invertible
    return TraceSplit(tuple(alpha), change, change.inverse())


def _solve_alpha_coords(datum):
    """Locate the pullback form in the basis from ratio and chart data.

    Its fiber ratios are identically 1 and its chart expansions equal the
    stored alpha pullback series, which gives an overdetermined exact linear
    system with a unique solution once the independence certificate holds.
    """
    rhs = [x for c in datum.charts
           for x in c.alpha_pullback.coefficients_in(0, c.window())]
    rhs += [datum.field.one()] * datum.degree
    sol = form_coefficients(datum).transpose().solve(rhs)
    if sol is None:
        raise ValidationFailed(
            "no basis combination matches the alpha pullback data")
    return sol


# ---------------------------------------------------------------------------
# multiplication map
# ---------------------------------------------------------------------------

def quadric_kernel(datum):
    """Exact kernel of the multiplication map, certified by the zero-counting
    bound: the basis of the quadrics through the canonical model, as a tuple
    of lex coordinate vectors."""
    report = require_valid(datum)
    g = datum.genus
    if not report.quadric_certified:
        raise InsufficientPrecision(
            f"coefficient budget {report.coefficient_budget} below the "
            f"quadric certification bound {report.quadric_bound}")
    table = datum.multiplication_table
    kernel = table.multiply.kernel_basis()
    # the table's chart rows stop at the certificate, so its kernel is
    # exact only for the data of a curve: the rest of every window must
    # vanish on it too, and if it does not, the kernel is taken with those
    # rows, as the map to the whole windows
    if kernel and not tails_vanish(datum, kernel):
        kernel = Matrix.stack([table.multiply, tail_rows(datum)]
                              ).kernel_basis()
    expected = (g - 2) * (g - 3) // 2
    if len(kernel) != expected:
        raise DimensionMismatch(
            f"quadric space has dimension {len(kernel)}, expected {expected} "
            "(hyperelliptic or under-resolved input)")
    return tuple(kernel)

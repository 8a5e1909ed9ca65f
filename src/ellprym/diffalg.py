"""Trace splitting, symmetric squares, the multiplication map and its kernel.

The trace of a 1-form against the base differential is read off the fiber:
summing the ratio values over one unramified fiber evaluates the trace ratio
at the base point.  Its kernel is the trace-zero subspace, the tangent space
of the Prym variety, and the pullback line is a canonical complement.

The multiplication map sends a symmetric 2-tensor of 1-forms to a quadratic
differential, realized here as chart expansions plus fiber values.  Its
kernel is the space of quadrics through the canonically embedded cover; for
non-hyperelliptic covers that space has dimension (g-2)(g-3)/2 and the map
has rank 3g-3 (classical projective normality), both asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covering import require_valid
from .errors import (DimensionMismatch, IdentityViolated,
                     InsufficientPrecision, ValidationFailed)
from .scalars import Matrix
from .series import TruncatedSeries


# ---------------------------------------------------------------------------
# symmetric 2-tensors
# ---------------------------------------------------------------------------

class SymSquareElement:
    """A symmetric 2-tensor over the form basis, phi = sum phi_ij eta_i . eta_j."""

    __slots__ = ("field", "coeffs", "size")

    def __init__(self, field, coeffs):
        self.field = field
        rows = [[field.scalar(x) for x in row] for row in coeffs]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("coefficient array must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("coefficient array must be symmetric")
        self.coeffs = rows
        self.size = n

    @classmethod
    def zero(cls, field, size):
        z = field.zero()
        return cls(field, [[z] * size for _ in range(size)])

    @classmethod
    def symmetric_product(cls, field, u, v):
        """u . v = (u (x) v + v (x) u) / 2 for coordinate vectors u, v."""
        size = len(u)
        half = field.scalar(1) / field.scalar(2)
        rows = [[(u[i] * v[j] + u[j] * v[i]) * half for j in range(size)]
                for i in range(size)]
        return cls(field, rows)

    @classmethod
    def from_lex(cls, field, size, coords):
        """Inverse of lex_coords."""
        elem = cls.zero(field, size)
        half = field.scalar(1) / field.scalar(2)
        k = 0
        for i in range(size):
            for j in range(i, size):
                c = coords[k]
                k += 1
                if i == j:
                    elem.coeffs[i][i] = c
                else:
                    elem.coeffs[i][j] = c * half
                    elem.coeffs[j][i] = c * half
        return elem

    def lex_coords(self):
        """Coordinates over the basis eta_i . eta_j, i <= j, lexicographic."""
        out = []
        two = self.field.scalar(2)
        for i in range(self.size):
            for j in range(i, self.size):
                out.append(self.coeffs[i][j] if i == j
                           else self.coeffs[i][j] * two)
        return out

    def __add__(self, other):
        return SymSquareElement(
            self.field,
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self + other.scale(self.field.scalar(-1))

    def scale(self, scalar):
        scalar = self.field.scalar(scalar)
        return SymSquareElement(
            self.field, [[scalar * x for x in row] for row in self.coeffs])

    def is_zero(self):
        return all(x.is_zero() for row in self.coeffs for x in row)

    def __eq__(self, other):
        return isinstance(other, SymSquareElement) and \
            self.coeffs == other.coeffs

    def transform(self, A):
        """The tensor with coefficient array A . Phi . A^T.

        If A maps coordinates over eta to coordinates over a new basis
        u = eta . C (so A = C^-1), the result is the same tensor written over
        u.  With A the matrix of a linear map on forms it is the image tensor.
        """
        arr = A.matmul(Matrix(self.field, self.coeffs)).matmul(A.transpose())
        return SymSquareElement(self.field, arr.rows)

    def __repr__(self):
        return "SymSquare(" + "; ".join(
            ", ".join(x.to_string() for x in row) for row in self.coeffs) + ")"


def lex_pairs(size):
    return [(i, j) for i in range(size) for j in range(i, size)]


def sym_dim(size):
    return size * (size + 1) // 2


# ---------------------------------------------------------------------------
# trace splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSplit:
    """The canonical splitting of the form space.

    ``tau`` lists the trace ratios of the basis forms at the fiber base
    point; ``minus_basis`` spans its kernel (the trace-zero forms) and
    ``alpha_coords`` locates the pulled-back base form, which spans a
    complement because its trace equals the covering degree.

    ``change`` has the adapted basis, the pullback form and then the
    trace-zero basis, as columns; ``change_inv`` maps form coordinates to
    adapted ones.  In adapted coordinates the distinguished point is
    (1:0:...:0), the distinguished hyperplane is the zero locus of the zeroth
    coordinate, and the symmetric square of the trace-zero space is the lower
    (g-1) x (g-1) block of a tensor.
    """
    tau: tuple
    minus_basis: tuple
    alpha_coords: tuple
    change: Matrix
    change_inv: Matrix

    @property
    def genus(self):
        return len(self.tau)

    def trace_ratio(self, vec):
        """tau applied to a coordinate vector: the trace of the form, over alpha."""
        acc = None
        for t, v in zip(self.tau, vec):
            term = t * v
            acc = term if acc is None else acc + term
        return acc

    def adapted(self, phi):
        """The tensor phi written over the adapted basis."""
        return phi.transform(self.change_inv)

    def minus_coords(self, phi):
        """Lexicographic coordinates, over the symmetric square of the
        trace-zero basis, of the lower adapted block of phi."""
        block = [row[1:] for row in self.adapted(phi).coeffs[1:]]
        return SymSquareElement(phi.field, block).lex_coords()

    def minus_tensor(self, coords):
        """The tensor with these coordinates over the symmetric square of
        the trace-zero basis; inverse of minus_coords on that square."""
        field = self.change.field
        lower = Matrix(field, [row[1:] for row in self.change.rows])
        return SymSquareElement.from_lex(
            field, self.genus - 1, coords).transform(lower)


def trace_split(datum):
    """Compute the trace vector, the trace-zero basis, the alpha coordinates
    and the adapted change of basis with its inverse."""
    require_valid(datum)
    field = datum.field
    g, d = datum.genus, datum.degree
    tau = [field.zero()] * g
    for row in datum.fiber.ratios:
        for i in range(g):
            tau[i] = tau[i] + row[i]
    if all(t.is_zero() for t in tau):
        raise ValidationFailed("trace vector is zero: corrupt fiber data")

    minus = Matrix(field, [tau]).kernel_basis()
    if len(minus) != g - 1:
        raise DimensionMismatch(
            f"trace-zero space has dimension {len(minus)}, expected {g - 1}")

    if datum.alpha_index_hint is not None:
        alpha = [field.zero()] * g
        alpha[datum.alpha_index_hint] = field.one()
    else:
        alpha = _solve_alpha_coords(datum)

    tr_alpha = sum((t * a for t, a in zip(tau, alpha)), field.zero())
    if tr_alpha != field.scalar(d):
        raise IdentityViolated(
            f"trace of the pullback form is {tr_alpha}, expected degree {d}")

    # the adapted basis is invertible exactly when the splitting is direct
    cols = [alpha] + minus
    change = Matrix(field, [[v[i] for v in cols] for i in range(g)])
    try:
        change_inv = change.inverse()
    except ValueError:
        raise IdentityViolated(
            "pullback form lies in the trace-zero space") from None
    return TraceSplit(tuple(tau), tuple(tuple(v) for v in minus),
                      tuple(alpha), change, change_inv)


def _solve_alpha_coords(datum):
    """Locate the pullback form in the basis from ratio and chart data.

    Its fiber ratios are identically 1 and its chart expansions equal the
    stored alpha pullback series, which gives an overdetermined exact linear
    system with a unique solution once the independence certificate holds.
    """
    field = datum.field
    rows, rhs = [], []
    for row in datum.fiber.ratios:
        rows.append(list(row))
        rhs.append(field.one())
    for c in datum.charts:
        w = c.window()
        for e in range(w):
            rows.append([s.coefficient(e) for s in c.forms])
            rhs.append(c.alpha_pullback.coefficient(e))
    sol = Matrix(field, rows).solve(rhs)
    if sol is None:
        raise ValidationFailed(
            "no basis combination matches the alpha pullback data")
    return sol


# ---------------------------------------------------------------------------
# multiplication map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadDifferentialData:
    """A quadratic differential in the coefficient model: chart series + fiber values."""
    charts: tuple   # one du^2-coefficient series per ramification chart
    fiber: tuple    # values of (section / alpha^2) at the fiber points

    def is_zero(self):
        return all(s.is_zero() for s in self.charts) and \
            all(x.is_zero() for x in self.fiber)


def multiply(datum, phi):
    """Image of a symmetric 2-tensor under the multiplication map.

    Per chart the expansion of the product differential; per fiber point the
    value divided by the square of the base pullback, which is the double
    sum of phi_ij times the two ratio values.  Both are read off the datum's
    multiplication table.
    """
    table = datum.multiplication_table
    lex = phi.lex_coords()
    charts = tuple(TruncatedSeries(datum.field, 0, m.mul_vec(lex), m.nrows)
                   for m in table.charts)
    return QuadDifferentialData(charts, tuple(table.fiber.mul_vec(lex)))


@dataclass(frozen=True)
class QuadricSpace:
    """Basis of the space of quadrics through the canonical model."""
    basis: tuple

    @property
    def dimension(self):
        return len(self.basis)


def multiply_matrix(datum):
    """Matrix of the multiplication map on the full symmetric square.

    Columns follow the lexicographic tensor basis; rows are the certified
    chart coefficients followed by the fiber values.
    """
    table = datum.multiplication_table
    rows = [row for m in table.charts for row in m.rows] + table.fiber.rows
    return Matrix(datum.field, rows)


def quadric_kernel(datum):
    """Exact kernel of the multiplication map, certified by the zero-counting bound."""
    report = require_valid(datum)
    g = datum.genus
    if not report.quadric_certified:
        raise InsufficientPrecision(
            f"coefficient budget {report.coefficient_budget} below the "
            f"quadric certification bound {report.quadric_bound}")
    M = multiply_matrix(datum)
    kernel = M.kernel_basis()
    expected = (g - 2) * (g - 3) // 2
    if len(kernel) != expected:
        raise DimensionMismatch(
            f"quadric space has dimension {len(kernel)}, expected {expected} "
            "(hyperelliptic or under-resolved input)")
    rank = sym_dim(g) - len(kernel)
    if rank != 3 * g - 3:
        raise DimensionMismatch(
            f"multiplication map has rank {rank}, expected {3 * g - 3}")
    basis = tuple(SymSquareElement.from_lex(datum.field, g, vec)
                  for vec in kernel)
    return QuadricSpace(basis)

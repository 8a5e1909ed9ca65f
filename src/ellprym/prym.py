"""Codifferential of the Prym period map and its kernel dimensions.

For a trace-zero symmetric 2-tensor the codifferential covector has one
residue slot per ramification point and one fiber-sum slot:

    slot t_j : residue at a_j of (product differential / base pullback)
    slot s   : sum over the fiber of (product differential / base pullback^2)

The codifferential is two products, formed once by `kernel_E`: the
multiplication table's ``residues`` rows and its ``fiber_sum`` row, each
times the trace split's ``sym_minus``.  `kernel_E` keeps the two blocks in
its report, as ``residues`` and ``fiber_sum``, and every later stage
applies them to trace-zero coordinates (the ``minus`` part of a quadric
decomposition, or a kernel vector).

The 2*pi*i normalization that appears in some residue formulations is
dropped throughout; kernels and ranks are scaling invariant, so every
reported dimension is unaffected.  Reports record the convention.

Two unconditional identities hold (they are theorems for non-hyperelliptic
covers); the first is enforced as a corruption detector, and the second
follows from it because the residue slots act on g(g-1)/2 coordinates:

    dim Ker(base-fixed codifferential) = g(g-1)/2 - n + 1
    dim Ker(base-fixed differential)   = 1
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import IdentityViolated
from .scalars import Matrix


class KernelEReport(NamedTuple):
    """Kernel data of the base-fixed codifferential."""
    dim_dual: int            # dim Ker over the tensor space
    dim_primal: int          # dim Ker of the map on tangent vectors
    residues: Matrix         # the residue slots on the trace-zero square
    fiber_sum: Matrix        # the fiber-sum slot there, one row
    basis_minus_coords: tuple  # kernel basis over the trace-zero square


def kernel_E(datum, split):
    """Kernel of the residue slots on the trace-zero symmetric square.

    Asserts the exact dimension identity g(g-1)/2 - n + 1; failure signals
    corrupt input because the identity is unconditional for
    non-hyperelliptic covers.  The dual count dim Ker = 1 on the tangent
    side, n minus the rank, then holds identically.
    """
    g, n = datum.genus, datum.n_ramification
    table = datum.multiplication_table
    gam = table.residues.matmul(split.sym_minus)
    kernel = gam.kernel_basis()
    rank = gam.ncols - len(kernel)
    expected = g * (g - 1) // 2 - n + 1
    if len(kernel) != expected:
        raise IdentityViolated(
            f"dim Ker of the base-fixed codifferential is {len(kernel)}, "
            f"the identity requires g(g-1)/2 - n + 1 = {expected}")
    return KernelEReport(len(kernel), n - rank, gam,
                         table.fiber_sum.matmul(split.sym_minus),
                         tuple(tuple(v) for v in kernel))


class CriterionReport(NamedTuple):
    """Outcome of the minimal-kernel criterion.

    ``dimension`` is "1" exactly when some kernel tensor has a nonzero
    fiber sum (the witness); otherwise ">=2".  Vanishing of the fiber sum on
    the whole kernel is certified on the basis and on all pairwise sums of
    basis vectors (a finite polarization-style certificate rather than
    sampling).
    """
    dimension: str                   # "1" or ">=2"
    witness_nu: Optional[object]     # the witness's fiber sum
    nu_on_basis: tuple
    nu_on_pair_sums: tuple
    dim_kernel_E_dual: int
    dim_kernel_full_dual: int

    def to_json(self):
        return {
            "dim_kernel": self.dimension,
            "witness_nu": None if self.witness_nu is None
            else self.witness_nu.to_string(),
            "nu_on_basis": [x.to_string() for x in self.nu_on_basis],
            "nu_on_pair_sums": [x.to_string() for x in self.nu_on_pair_sums],
            "dim_kernel_E_dual": self.dim_kernel_E_dual,
            "dim_kernel_full_dual": self.dim_kernel_full_dual,
            "convention": "no 2*pi*i factor on residue slots",
        }


def kernel_full(kernel_report):
    """Scan the base-fixed kernel for a tensor with nonzero fiber sum, read
    by the kernel report's fiber-sum row."""
    nu_basis = tuple(kernel_report.fiber_sum.mul_vec(v)[0]
                     for v in kernel_report.basis_minus_coords)
    dim = kernel_report.dim_dual
    witness_nu = next((val for val in nu_basis if not val.is_zero()), None)
    if witness_nu is not None:
        return CriterionReport("1", witness_nu, nu_basis, (), dim, dim - 1)
    # nu is linear, so each pair sum is a sum of basis values, all zero
    k = len(nu_basis)
    nu_sums = tuple(nu_basis[i] + nu_basis[j] for i in range(k)
                    for j in range(i + 1, k))
    return CriterionReport(">=2", None, nu_basis, nu_sums, dim, dim)

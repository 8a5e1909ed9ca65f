"""Canonical-model geometry: the distinguished point, quadric decompositions,
the dual-route vanishing equivalence and the dimension bookkeeping.

Linear forms on the canonical space are 1-forms; the hyperplanes defined by
all trace-zero forms meet in a single distinguished point, and the pullback
form cuts the distinguished hyperplane.  `decompose_quadric` takes each
quadric once to the adapted frame of the trace split and names the two
parts the later stages read: ``point_value``, the value at the
distinguished point, and ``minus``, the coordinates over the trace-zero
square.  Whether the distinguished point lies on every quadric through the
cover decides, one way, that the period-map kernel is minimal.

The vanishing equivalence is checked by two genuinely independent routes:
the fiber-sum route applies the kernel report's fiber-sum row of the
codifferential to ``minus``, the coefficient route reads ``point_value``.
Both must vanish together; the proof-level identity (fiber sum = minus the
trace ratio of the mixed component) is asserted exactly as well.

The dimension ledger's identity (b) reads the kernel report's residue rows
of the codifferential: the trace-zero part ``minus`` of a quadric lies in
the kernel of the base-fixed codifferential exactly when those rows
annihilate it.
"""

from __future__ import annotations

from typing import NamedTuple

from .diffalg import symmetric_product
from .errors import (ConsistencyViolated, EquivalenceViolated,
                     InputError)
from .scalars import Matrix, Scalar


class QuadricDecomposition(NamedTuple):
    """G = G_minus + alpha . omega under the direct sum decomposition."""
    tensor: list  # lex coordinates of G
    point_value: Scalar  # the value of G at the distinguished point
    minus: list  # lex coordinates of G_minus over the trace-zero square
    omega: tuple  # coordinates of the 1-form factor in the eta basis


def decompose_quadric(split, G):
    """Unique decomposition of a tensor into trace-zero plus mixed parts.

    The package's one reading of the adapted lex layout: of the adapted
    coordinates, the first g belong to the pairs (0, j) and give omega, led
    by the value at the distinguished point, and the rest, pairs (i, j) with
    1 <= i <= j, are the trace-zero part over the trace-zero square."""
    coords = split.sym_change_inv.mul_vec(G)
    g = split.genus
    minus = coords[g:]
    omega = split.change.mul_vec(coords[:g])
    # exact reconstruction check
    minus_part = split.sym_minus.mul_vec(minus)
    alpha_sym = symmetric_product(list(split.alpha_coords), omega)
    if any(not (m + a - x).is_zero()
           for m, a, x in zip(minus_part, alpha_sym, G)):
        raise AssertionError("quadric decomposition failed to reconstruct")
    return QuadricDecomposition(G, coords[0], minus, tuple(omega))


def functpoint_check(datum, split, decs, kernel_report):
    """Dual-route vanishing check for every basis quadric, given by its
    `decompose_quadric`; returns the report's list of checks.

    Each entry holds the fiber route (the kernel report's ``fiber_sum`` row
    on ``minus``), the coefficient route (``point_value``), whether both
    vanish together (``agree``) and whether the fiber sum is minus the
    trace ratio of the mixed part (``trace_identity``).
    Precondition: each tensor actually lies in the kernel of the
    multiplication map (verified here: the table's ``multiply``, the
    certified coefficient model, annihilates it).  The equivalence of the
    two routes is unconditional, so any disagreement raises
    EquivalenceViolated.
    """
    M = datum.multiplication_table.multiply
    results = []
    for idx, dec in enumerate(decs):
        if not M.annihilates(dec.tensor):
            raise InputError(
                f"tensor {idx} is not in the kernel of the multiplication map")
        lhs = kernel_report.fiber_sum.mul_vec(dec.minus)[0]
        rhs = dec.point_value
        trace_omega = split.trace_ratio(dec.omega)
        proof_ok = (lhs == -trace_omega)
        agree = (lhs.is_zero() == rhs.is_zero())
        if not agree or not proof_ok:
            raise EquivalenceViolated(
                f"dual-route check failed on quadric {idx}: fiber route "
                f"{lhs}, coefficient route {rhs}, trace identity "
                f"{'ok' if proof_ok else 'violated'}")
        results.append({"index": idx, "fiber_route": lhs.to_string(),
                        "coefficient_route": rhs.to_string(),
                        "agree": agree, "trace_identity": proof_ok})
    return results


def halfgeo_criterion(datum, decs, criterion_report):
    """One-directional geometric criterion on the `decompose_quadric` of
    each basis quadric; returns the report's ``distinguished_point`` dict.

    If the distinguished point avoids some quadric through the cover, the
    period-map kernel is minimal; the report cross-asserts this against the
    kernel scan.  When the point lies on every quadric no conclusion is
    drawn (the converse is open for general ramification; for covers whose
    ramification indices are all 2 the converse holds and is surfaced as an
    informational note only).
    """
    qminus_in_all = all(dec.point_value.is_zero() for dec in decs)
    if not qminus_in_all and criterion_report.dimension != "1":
        raise ConsistencyViolated(
            "distinguished point avoids a quadric but the kernel scan "
            f"reported dimension {criterion_report.dimension}")
    if not decs:
        note = ("no quadrics through the cover: the empty intersection "
                "contains the distinguished point vacuously; no conclusion")
    elif qminus_in_all:
        all_simple = all(c.index == 2 for c in datum.charts)
        if all_simple:
            note = ("point lies on every quadric; for all-simple "
                    "ramification the converse holds, so a non-minimal "
                    "kernel is expected (informational only)")
        else:
            note = ("point lies on every quadric; no conclusion for "
                    "general ramification")
    else:
        note = "point avoids a quadric: kernel dimension 1 certified"
    return {"qminus_in_all_quadrics": qminus_in_all,
            "implies_minimal_kernel": not qminus_in_all, "note": note}


def dimension_ledger(datum, decs, kernel_report):
    """Exact dimension bookkeeping identities over the `decompose_quadric`
    of each basis quadric; returns the report's ``ledger`` dict, whose
    ``identities`` list holds one name, truth value and detail line per
    identity.

    (a) dim Ker(base-fixed codifferential) - h0(quadrics) equals the branch
        excess (2g-2) - n;
    (b) projecting each basis quadric to the trace-zero square lands in the
        kernel and the projections, read as ``minus``, stay independent:
        the kernel report's ``residues`` rows annihilate each;
    (c) dim Ker(base-fixed codifferential) = h0(quadrics)
        + dim Ker(residue-only map on all quadratic differentials) - g.

    The residue-only kernel is computed in the certified coefficient model
    from the ramification covector slots alone (base-fixed variant); the
    naming ambiguity for the full-family variant is recorded, not silently
    resolved.
    """
    field = datum.field
    g = datum.genus
    h0 = len(decs)
    excess = datum.reduced_branch_excess()
    identities = []

    def add(name, holds, detail):
        identities.append({"name": name, "holds": holds, "detail": detail})

    # (a)
    lhs = kernel_report.dim_dual - h0
    add("kernel_minus_quadrics_equals_excess", lhs == excess,
        f"{kernel_report.dim_dual} - {h0} = {lhs}, excess = {excess}")

    # (b) quadric projections inject into the kernel
    projections = [dec.minus for dec in decs]
    inside = all(kernel_report.residues.annihilates(p) for p in projections)
    rank = Matrix(field, projections).rank()
    add("quadric_projection_injects", inside and rank == h0,
        f"projections {'lie' if inside else 'do not lie'} in the kernel; "
        f"rank {rank} of {h0}")

    # (c) exact-sequence count via the residue-only map on the full
    # symmetric square (its rank equals the rank on all quadratic
    # differentials because the multiplication map is surjective); the
    # residue rows of the multiplication table are that map
    residue_rank = datum.multiplication_table.residues.rank()
    dim_ker_residue = (3 * g - 3) - residue_rank
    rhs = h0 + dim_ker_residue - g
    add("exact_sequence_count", kernel_report.dim_dual == rhs,
        f"{kernel_report.dim_dual} = {h0} + {dim_ker_residue} - {g}")

    return {"identities": identities, "h0_quadrics": h0,
            "dim_kernel_E_dual": kernel_report.dim_dual,
            "branch_excess": excess,
            "dim_kernel_residue_map": dim_ker_residue,
            "note": "residue-only kernel computed from ramification covector "
                    "slots only (base-fixed variant)"}

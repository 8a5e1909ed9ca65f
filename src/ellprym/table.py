"""The multiplication table of a covering datum, and its tail check.

The map from symmetric 2-tensors of forms to their chart products, residues
and fiber values, as matrices on the lex coordinates (`lex_pairs`), and the
check of a tensor over the chart windows past the table's rows.  Only the
analysis reads them, so only the analysis loads this module: through
``diffalg`` and the cached ``CoveringDatum.multiplication_table``.
"""

from __future__ import annotations

from typing import NamedTuple

from .covering import lex_pairs
from .errors import InsufficientPrecision
from .scalars import Matrix, _flat, _over_lcm, _times
from .series import _pack, _unpack


def multiplication_table(datum):
    """The multiplication map on the lexicographic basis, which
    ``CoveringDatum.multiplication_table`` builds once.

    Chart products f_i f_j are formed only here and, past the table's
    rows, in `tail_rows`, both through `_chart_products`; fiber products
    r_i r_j only here.
    """
    fld, d, pairs = datum.field, datum.field.degree, lex_pairs(datum.genus)
    # a quadratic differential has 4g-4 zeros, so one that vanishes to
    # order k_c on each chart and at the fiber's points, with sum k_c +
    # degree >= 4g-3, is zero: every chart keeps the v = index - 1 terms
    # its residue row reads, and the first charts take the rest up to their
    # windows (all of every window when the budget falls short)
    short = 4 * datum.genus - 3 - datum.degree - sum(
        c.alpha_pullback.valuation for c in datum.charts)
    charts, residues, orders = [], [], []
    for k, c in enumerate(datum.charts):
        v = c.alpha_pullback.valuation
        n = min(c.window(), v + max(short, 0))
        short -= n - v
        orders.append(n)
        # column p of the chart's block holds product p below u^n
        products = _chart_products(fld, c.forms, n)
        charts.append(Matrix._make(fld, products).transpose())
        # 1/alpha starts at u^-v, so the residue of f_i f_j / alpha sums
        # the coefficient of u^e in f_i f_j times that of u^(-1-e) in
        # 1/alpha over e < v: each product's first v coefficients meet
        # u^-1..u^-v of 1/alpha, which alpha's own first v terms,
        # u^v..u^(2v-1), determine
        if c.alpha_pullback.prec < 2 * v:
            raise InsufficientPrecision(
                f"chart {k} ({c.label}): alpha pullback prec "
                f"{c.alpha_pullback.prec} < 2(index-1) = {2 * v}, the "
                "terms that 1/alpha is read from")
        inv_alpha = c.alpha_pullback.truncate(2 * v).inverse()
        residues.append(Matrix._make(fld, [(p[:v * d], e)
                                           for p, e in products]).mul_vec(
            inv_alpha.coefficients_in(-v, 0)[::-1]))
    fiber = Matrix(fld, [[r[i] * r[j] for i, j in pairs]
                         for r in datum.fiber.ratios])
    return MultiplicationTable(
        Matrix.stack([*charts, fiber]), Matrix(fld, residues),
        Matrix(fld, [[1] * datum.degree]).matmul(fiber), tuple(orders))


class MultiplicationTable(NamedTuple):
    """The multiplication map on the basis eta_i . eta_j, i <= j, in lex order.

    Column p of every matrix belongs to the p-th pair (i, j).  ``multiply``
    has, chart by chart, one row per coefficient of u^e in f_i f_j for e
    below the chart's entry k_c of ``orders``, then one row per fiber point
    k with the value r_i r_j there.  The rows run to the quadric
    certificate, sum k_c + d >= 4g - 3, not to the chart windows: a
    quadratic differential with that many zeros is zero, so on the data of
    a curve the kernel is that of the map to the whole windows, which
    `tails_vanish` checks.  Row c of ``residues`` is the residue of f_i f_j
    over the alpha pullback of chart c, read from the first index - 1
    coefficients of the products on that chart; the single row of
    ``fiber_sum`` sums the fiber.  Every slot is linear in the tensor, so
    the image of a tensor is the product of one of these matrices with its
    lex coordinates.
    """
    multiply: Matrix
    residues: Matrix
    fiber_sum: Matrix
    orders: tuple


def tails_vanish(datum, tensors):
    """Whether each tensor, by its lex coordinates c, gives sum c_ij f_i f_j
    = 0 below each chart's whole window, past the rows of the
    multiplication table too.  On a chart, with h_i the sum of c_ij f_j
    over j >= i, that is sum_i f_i h_i: at most g products, one per nonzero
    h_i, on the forms' ints over their lcm and the tensor's over its own,
    since no denominator changes whether the sum is zero.  The first chart
    and tensor whose sum is not zero end the check."""
    field, g, d = datum.field, datum.genus, datum.field.degree
    # per tensor, (i, j, c_ij) for each nonzero c_ij
    terms = [[(i, j, c[p * d:p * d + d]) for p, (i, j) in
              enumerate(lex_pairs(g)) if any(c[p * d:p * d + d])]
             for c in (_flat(field, t)[0] for t in tensors)]
    for chart in datum.charts:
        w = chart.window()
        f = _over_lcm([(s.ints_in(0, w), s.den) for s in chart.forms])[0]
        f = [f[i * w * d:(i + 1) * w * d] for i in range(g)]
        for t in terms:
            parts, pairs = list(f), []
            for i in range(g):
                h = [_times(field, f[j], x) for a, j, x in t if a == i]
                if h:
                    pairs.append((i, len(parts)))
                    parts.append(list(map(sum, zip(*h))))
            if any(_products(field, parts, [pairs], w)[0]):
                return False
    return True


def tail_rows(datum):
    """The rows of the map to the whole chart windows that the
    multiplication table leaves out: on each chart, the coefficients of
    u^k..u^(w-1) of every f_i f_j, k the chart's order in the table and w
    its window.  Stacked with the table's ``multiply`` they give that map,
    for `diffalg.quadric_kernel` when a tail does not vanish."""
    fld, d = datum.field, datum.field.degree
    return Matrix.stack([Matrix._make(fld, [
        (p[k * d:], e) for p, e in _chart_products(fld, c.forms, c.window())
    ]).transpose() for c, k in zip(datum.charts,
                                   datum.multiplication_table.orders)])


def _chart_products(field, forms, stop):
    """The products f_i f_j of a chart's forms below u^stop, for the lex
    pairs (i, j), each as flat ints over its denominator: one `_products`
    call, which packs each form once."""
    pairs = lex_pairs(len(forms))
    return [(p, forms[i].den * forms[j].den) for p, (i, j) in zip(
        _products(field, [s.ints_in(0, stop) for s in forms],
                   [[p] for p in pairs], stop), pairs)]


def _products(field, parts, sums, n):
    """`series._kronecker` for many products of a few lists: for each list
    of index pairs (i, j) in ``sums``, the first n coefficients, flat, of
    the sum of the integer products parts[i] * parts[j] of the flat
    coefficient lists ``parts`` (numerators: a sum is that of the values
    only when its parts share a denominator).  Each part is packed once, at
    one slot width for all, and the products of a sum add up slot by slot.
    A single product takes `series._kronecker`, which has none of this
    bookkeeping."""
    # B = 8*w bits: the two heights of a product, the terms that a slot of
    # the sum adds up (a product has at most the shorter length of them),
    # and a sign bit
    bits = [max(map(abs, p), default=0).bit_length() for p in parts]
    w = (max(bits[i] + bits[j] + (len(s) * min(len(parts[i]),
                                               len(parts[j]))).bit_length()
             for s in sums for i, j in s) + 8) // 8
    packed = [_pack(field, p, w) for p in parts]
    return [_unpack(field, sum(packed[i] * packed[j] for i, j in s), w, n)
            for s in sums]

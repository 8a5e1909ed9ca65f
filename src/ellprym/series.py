"""Truncated Laurent series over a cyclotomic scalar field.

A series carries its own truncation window: coefficients are known exactly
for every exponent v <= e < prec and unknown beyond.  Every operation
propagates the window (min-rule for sums, valuation-shifted rule for
products and quotients) and consumers fail loudly with InsufficientPrecision
instead of silently truncating; the downstream kernel computations rely on
certified windows.

Representation: as FLINT's ``fmpq_poly``, and as a Scalar, a series is one
flat list ``num`` of integers over one ``den`` > 0 with gcd(den, *num) = 1:
the d = field.degree power-basis integers of the coefficient at exponent
``valuation``, then those of each next exponent.  The first and the last
coefficient are nonzero, except in the tracked-precision zero series, whose
``num`` is empty, ``den`` 1 and ``valuation == prec``.  Sums, scaling,
shifts, truncation and the derivative are integer list operations; Scalars
are made only where coefficients are read (``coefficients_in``,
``coefficient`` and ``coeffs``, and through them ``repr``, one line of the
valuation, the coefficient strings and ``prec`` that pytest prints when a
test fails).  ``ints_in`` reads a window as integers over ``den``, with no
Scalars; the JSON writer in ``covering`` and the reader in ``reader`` work
on ``num`` and ``den`` too.

Algorithms: a product with a one-term operand is a scaling.  Any other is
one big-integer product by Kronecker substitution (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J.
Symbolic Comput. 44(10), 2009) of the two packed ``num`` lists, read back
only inside the result window, over the product of the denominators.
``table._products`` packs each operand once for a whole list of products,
as the multiplication table's on one chart, with `_pack` and `_unpack`.
``inverse`` is Newton iteration g <- g*(2 - u*g) at doubling widths.

Composition, a change of local parameter, is not here: ``compose`` holds
it, so a command that builds or runs a plain analysis never compiles it.
Local expansions of a curve are not made here either: ``builder.lift``
solves for them by Newton's method on these operations.
"""

from __future__ import annotations

import math
import operator

from .errors import DivisionByZeroSeries, FieldError, InsufficientPrecision
from .scalars import Scalar, _flat, _lowest, _scalars, _times


class TruncatedSeries:

    __slots__ = ("field", "valuation", "num", "den", "prec")

    def __init__(self, field, valuation, coeffs, prec):
        valuation, prec = int(valuation), int(prec)
        if valuation + len(coeffs) > prec:
            raise ValueError("coefficients extend beyond the stated precision")
        s = TruncatedSeries._make(field, valuation, *_flat(field, coeffs), prec)
        self.field, self.valuation, self.num, self.den, self.prec = \
            field, s.valuation, s.num, s.den, prec

    @classmethod
    def _make(cls, field, valuation, num, den, prec, lowest=False):
        """The series of a flat int list num over den > 0, with no coercion.
        Unless ``lowest``, zero coefficients are stripped from both ends and
        num/den is brought to lowest terms."""
        if not lowest:
            d, start, stop = field.degree, 0, len(num)
            while start < stop and not num[start]:
                start += 1
            while stop > start and not num[stop - 1]:
                stop -= 1
            start -= start % d
            if start or stop < len(num):
                num = num[start:stop + -stop % d]
            num, den = _lowest(num, den)
            valuation = valuation + start // d if num else prec
        self = object.__new__(cls)
        self.field, self.valuation, self.num, self.den, self.prec = \
            field, valuation, num, den, prec
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, prec):
        return cls._make(field, prec, [], 1, prec, True)

    @classmethod
    def from_coefficients(cls, field, start_exponent, coeffs, prec):
        return cls(field, start_exponent, coeffs, prec)

    # -- basics ---------------------------------------------------------------

    def is_zero(self):
        """True when no nonzero coefficient is known (within the window)."""
        return not self.num

    def coefficient(self, exponent):
        return self.coefficients_in(exponent, exponent + 1)[0]

    def coefficients_in(self, start, stop):
        """Known coefficients for exponents start..stop-1 (stop <= prec), as
        Scalars made in one pass."""
        return _scalars(self.field, self.ints_in(start, stop), self.den)

    def ints_in(self, start, stop):
        """The flat ints, over ``den``, of the known coefficients for
        exponents start..stop-1 (stop <= prec), zeros outside ``num``."""
        if stop > max(start, self.prec):
            raise InsufficientPrecision(
                f"coefficient at exponent {max(start, self.prec)} outside "
                f"window [{self.valuation}, {self.prec})")
        d = self.field.degree
        lo, size = (start - self.valuation) * d, max(0, stop - start) * d
        return ([0] * -lo + self.num[max(0, lo):] + [0] * size)[:size]

    @property
    def coeffs(self):
        """The coefficients from the valuation on, as a tuple of Scalars."""
        return tuple(_scalars(self.field, self.num, self.den))

    def truncate(self, new_prec):
        if new_prec > self.prec:
            raise InsufficientPrecision(
                f"cannot extend window from {self.prec} to {new_prec}")
        keep = max(0, new_prec - self.valuation) * self.field.degree
        return TruncatedSeries._make(
            self.field, min(self.valuation, new_prec), self.num[:keep],
            self.den, new_prec, keep >= len(self.num))

    def shift(self, k):
        """Multiply by z^k (exact)."""
        return TruncatedSeries._make(self.field, self.valuation + k, self.num,
                                     self.den, self.prec + k, True)

    def scale(self, scalar):
        c = self.field.scalar(scalar)
        return TruncatedSeries._make(self.field, self.valuation,
                                     _times(self.field, self.num, c.num),
                                     self.den * c.den, self.prec)

    # -- arithmetic -------------------------------------------------------------

    def _check_field(self, other):
        if self.field is not other.field:
            raise FieldError("mixed-field series arithmetic")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            # a scalar is an exact constant: it costs no window width
            c = self.field.scalar(other)
            other = TruncatedSeries._make(self.field, 0, list(c.num), c.den,
                                          max(self.prec, 1))
        self._check_field(other)
        prec, d = min(self.prec, other.prec), self.field.degree
        a, b = (self, other) if self.valuation <= other.valuation else \
            (other, self)
        x = a.num[:max(0, prec - a.valuation) * d]
        y = b.num[:max(0, prec - b.valuation) * d]
        den = a.den
        if den != b.den:
            g = math.gcd(den, b.den)
            x, y = [v * (b.den // g) for v in x], [v * (den // g) for v in y]
            den = den // g * b.den
        i = (b.valuation - a.valuation) * d
        out = x + [0] * (i + len(y) - len(x))
        out[i:i + len(y)] = map(operator.add, out[i:i + len(y)], y)
        return TruncatedSeries._make(self.field, a.valuation, out, den, prec)

    def __neg__(self):
        return TruncatedSeries._make(self.field, self.valuation,
                                     [-x for x in self.num], self.den,
                                     self.prec, True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """A one-term operand scales the other; any other product is one
        Kronecker product (`_kronecker`)."""
        self._check_field(other)
        field, d = self.field, self.field.degree
        prec = min(self.valuation + other.prec, other.valuation + self.prec)
        lo = self.valuation + other.valuation
        n = prec - lo
        if n <= 0 or not self.num or not other.num:
            return TruncatedSeries.zero(field, prec)
        a, b = sorted((self.num[:n * d], other.num[:n * d]), key=len)
        num = _times(field, b, a) if len(a) == d else _kronecker(field, a, b, n)
        return TruncatedSeries._make(field, lo, num, self.den * other.den, prec)

    def __rmul__(self, scalar):
        """scalar * self, for a Scalar or rational: an exact constant costs
        no window width."""
        return self.scale(scalar)

    def inverse(self):
        """Reciprocal of a series that is nonzero up to its precision.

        Newton iteration g <- g - g*(u*g - 1) for the unit part u, on
        `_widths` from the inverse of the leading coefficient: a g correct
        below t^w is correct below t^(2w) after one round.  The result has
        the relative precision of self; for a one-term u every round's
        residual u*g - 1 is zero.
        """
        if self.is_zero():
            raise DivisionByZeroSeries(
                "inverse of a series that is zero to its precision")
        field, d = self.field, self.field.degree
        rel = self.prec - self.valuation
        lead = Scalar._make(field, self.num[:d], self.den).inverse()
        g = TruncatedSeries._make(field, 0, list(lead.num), lead.den, 1, True)
        unit = TruncatedSeries._make(field, 0, self.num, self.den, rel, True)
        for known in _widths(rel):
            g = _rewindow(g, known)
            g = g - g * (unit * g - 1)
        return g.shift(-self.valuation)

    def derivative(self):
        v, d = self.valuation, self.field.degree
        return TruncatedSeries._make(self.field, v - 1, [
            x * (v + i // d) for i, x in enumerate(self.num)], self.den,
            self.prec - 1)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and
                self.field is other.field and
                (self.valuation, self.prec, self.den, self.num) ==
                (other.valuation, other.prec, other.den, other.num))

    def __repr__(self):
        return (f"TruncatedSeries({self.valuation}, "
                f"{[c.to_string() for c in self.coeffs]}, {self.prec})")


def _pack(field, num, w):
    """The integer sum of slot * 2^(8*w*index) whose w-byte signed slots hold
    the flat coefficients num: z^k of coefficient i in slot i*(2d-1) + k for
    d = field.degree, the other d - 1 slots of each row zero.  Each slot is
    written offset by half its range, and the offsets taken off at once."""
    d, half = field.degree, 1 << 8 * w - 1
    if d > 1:
        pad = (0,) * (d - 1)
        num = [x for i in range(0, len(num), d) for x in (*num[i:i + d], *pad)]
    return int.from_bytes(b"".join([(c + half).to_bytes(w, "little")
                                    for c in num]), "little") - \
        int.from_bytes((bytes(w - 1) + b"\x80") * len(num), "little")


def _unpack(field, x, w, n):
    """The first n coefficients, flat, of an integer laid out as by `_pack`
    whose slots lie in [-2^(8*w-1), 2^(8*w-1)).  With the offsets added back
    no slot borrows from the next, so each is read alone; each row of 2d-1
    slots is then folded onto the power basis (`FieldSpec._fold`)."""
    stride, half = 2 * field.degree - 1, 1 << 8 * w - 1
    size = n * stride * w
    x += int.from_bytes((bytes(w - 1) + b"\x80") * (n * stride), "little")
    raw = (x & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    slots = [int.from_bytes(raw[i:i + w], "little") - half
             for i in range(0, size, w)]
    if stride == 1:
        return slots
    return [y for i in range(0, len(slots), stride)
            for y in field._fold(slots[i:i + stride])]


def _kronecker(field, a, b, n):
    """The first n coefficients, flat, of the product of the flat
    coefficient lists a and b, each taken over its own denominator: one
    integer product of the packed operands puts t^e z^m in slot
    e*(2d-1) + m, as in FLINT's fmpz_poly_mul.  A slot holds any product
    coefficient with its sign, since at most min(len(a), len(b)) terms add
    up in one."""
    # B = 8*w bits: both heights, the terms per coefficient, a sign bit
    w = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() +
         min(len(a), len(b)).bit_length() + 8) // 8
    return _unpack(field, _pack(field, a, w) * _pack(field, b, w), w, n)


def _widths(prec):
    """Newton's rounds from width 1: ..., ceil(prec/4), ceil(prec/2), prec."""
    return _widths(-(-prec // 2)) + [prec] if prec > 1 else []


def _rewindow(s, prec):
    """s cut to the window prec, or extended to it with zero coefficients."""
    if prec < s.prec:
        return s.truncate(prec)
    return TruncatedSeries._make(s.field, s.valuation if s.num else prec,
                                 s.num, s.den, prec, True)

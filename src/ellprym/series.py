"""Truncated Laurent series over a cyclotomic scalar field.

A series carries its own truncation window: coefficients are known exactly
for every exponent v <= e < prec and unknown beyond.  Every operation
propagates the window (min-rule for sums, valuation-shifted rule for
products and quotients) and consumers fail loudly with InsufficientPrecision
instead of silently truncating; the downstream kernel computations rely on
certified windows.

Representation: ``coeffs[0]`` is the coefficient at exponent ``valuation``
and is nonzero unless the series is the tracked-precision zero series, in
which case ``coeffs`` is empty and ``valuation == prec``.

Algorithms: a product is one big-integer product by Kronecker substitution
(Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44(10), 2009): each operand over one
common denominator, its coefficients packed into the slots of one integer,
and only the coefficients inside the result window read back.  ``inverse``
is Newton iteration g <- g*(2 - u*g) at doubling widths over that product.
Composition is Brent-Kung baby-step/giant-step (Brent & Kung,
"Fast algorithms for manipulating formal power series", J. ACM 25(4), 1978).
``compose_all`` forms the baby and giant powers of one inner series once for
a list of outer series, and each outer keeps its own window; ``compose`` is
its one-element case, and ``transform_form`` changes the parameter of a list
of 1-forms through it.  Reversion and ``newton_solve`` are Newton iterations
whose rounds work only at the precision they make correct, plus one guard
coefficient.  Result windows are fixed by the inputs' windows alone, never by
the evaluation scheme.  Reversions and Newton solutions are checked exactly
at their full window before they are returned.
"""

from __future__ import annotations

import math

from .errors import (DivisionByZeroSeries, FieldError, InsufficientPrecision,
                     SingularJacobian, ValuationError)
from .scalars import Scalar, peval


class TruncatedSeries:

    __slots__ = ("field", "valuation", "coeffs", "prec")

    def __init__(self, field, valuation, coeffs, prec):
        coeffs = [field.scalar(c) for c in coeffs]
        valuation, prec = int(valuation), int(prec)
        if valuation + len(coeffs) > prec:
            raise ValueError("coefficients extend beyond the stated precision")
        s = TruncatedSeries._make(field, valuation, coeffs, prec)
        self.field, self.valuation, self.coeffs, self.prec = \
            field, s.valuation, s.coeffs, prec

    @classmethod
    def _make(cls, field, valuation, coeffs, prec):
        """The series of a list of the field's Scalars, with no coercion:
        leading and trailing zeros are stripped, and the zero series has
        valuation prec."""
        start, stop = 0, len(coeffs)
        while start < stop and coeffs[start].is_zero():
            start += 1
        while stop > start and coeffs[stop - 1].is_zero():
            stop -= 1
        self = object.__new__(cls)
        self.field, self.prec = field, prec
        self.coeffs = tuple(coeffs[start:stop])
        self.valuation = valuation + start if start < stop else prec
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, [], prec)

    @classmethod
    def monomial(cls, field, exponent, coeff, prec):
        return cls(field, exponent, [coeff], prec)

    @classmethod
    def from_coefficients(cls, field, start_exponent, coeffs, prec=None):
        if prec is None:
            prec = start_exponent + len(coeffs)
        return cls(field, start_exponent, coeffs, prec)

    @classmethod
    def identity(cls, field, prec):
        """The series z, known to the given precision."""
        return cls.monomial(field, 1, field.one(), prec)

    # -- basics ---------------------------------------------------------------

    def is_zero(self):
        """True when no nonzero coefficient is known (within the window)."""
        return not self.coeffs

    def relative_precision(self):
        return self.prec - self.valuation

    def coefficient(self, exponent):
        if exponent >= self.prec:
            raise InsufficientPrecision(
                f"coefficient at exponent {exponent} outside window "
                f"[{self.valuation}, {self.prec})")
        if exponent < self.valuation or \
                exponent - self.valuation >= len(self.coeffs):
            return self.field.zero()
        return self.coeffs[exponent - self.valuation]

    def coefficients_in(self, start, stop):
        """Known coefficients for exponents start..stop-1 (stop <= prec)."""
        return [self.coefficient(e) for e in range(start, stop)]

    def truncate(self, new_prec):
        if new_prec > self.prec:
            raise InsufficientPrecision(
                f"cannot extend window from {self.prec} to {new_prec}")
        keep = [c for i, c in enumerate(self.coeffs)
                if self.valuation + i < new_prec]
        return TruncatedSeries(self.field, min(self.valuation, new_prec),
                               keep, new_prec)

    def shift(self, k):
        """Multiply by z^k (exact)."""
        return TruncatedSeries(self.field, self.valuation + k, self.coeffs,
                               self.prec + k)

    def scale(self, scalar):
        scalar = self.field.scalar(scalar)
        if scalar.is_zero():
            return TruncatedSeries.zero(self.field, self.prec)
        return TruncatedSeries(self.field, self.valuation,
                               [scalar * c for c in self.coeffs], self.prec)

    # -- arithmetic -------------------------------------------------------------

    def _check_field(self, other):
        if self.field is not other.field:
            raise FieldError("mixed-field series arithmetic")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            # a scalar is an exact constant: it costs no window width
            other = TruncatedSeries(self.field, 0, [other], max(self.prec, 1))
        self._check_field(other)
        prec = min(self.prec, other.prec)
        lo = min(self.valuation, other.valuation, prec)
        out = [self.field.zero()] * (prec - lo)
        for s in (self, other):
            for i, c in enumerate(s.coeffs[:max(0, prec - s.valuation)],
                                  s.valuation - lo):
                out[i] = out[i] + c if out[i] else c
        return TruncatedSeries._make(self.field, lo, out, prec)

    def __neg__(self):
        return TruncatedSeries(self.field, self.valuation,
                               [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_field(other)
        prec = min(self.valuation + other.prec, other.valuation + self.prec)
        lo = self.valuation + other.valuation
        n = prec - lo
        if n <= 0 or not self.coeffs or not other.coeffs:
            return TruncatedSeries._make(self.field, prec, [], prec)
        return TruncatedSeries._make(
            self.field, lo,
            _kronecker(self.field, self.coeffs[:n], other.coeffs[:n], n), prec)

    def __rmul__(self, scalar):
        """scalar * self, for a Scalar or rational: an exact constant costs
        no window width."""
        return self.scale(scalar)

    def inverse(self):
        """Reciprocal of a series that is nonzero up to its precision.

        Newton iteration g <- g - g*(u*g - 1) for the unit part u, on the
        widths rel, ceil(rel/2), ..., 1 run upwards: a g correct below t^w
        is correct below t^(2w) after one round.  A monomial c*z^v needs no
        rounds: its inverse is c^-1*z^-v, to the same relative precision.
        """
        if self.is_zero():
            raise DivisionByZeroSeries(
                "inverse of a series that is zero to its precision")
        field, rel = self.field, self.relative_precision()
        if len(self.coeffs) == 1:
            return TruncatedSeries._make(field, -self.valuation,
                                         [self.coeffs[0].inverse()],
                                         rel - self.valuation)
        unit = TruncatedSeries._make(field, 0, self.coeffs, rel)
        g = TruncatedSeries._make(field, 0, [self.coeffs[0].inverse()], 1)
        schedule = [rel]
        while schedule[-1] > 1:
            schedule.append(-(-schedule[-1] // 2))
        for known in reversed(schedule[:-1]):
            g = TruncatedSeries._make(field, 0, g.coeffs, known)
            g = g - g * (unit * g - 1)
        return g.shift(-self.valuation)

    def __truediv__(self, other):
        self._check_field(other)
        if other.is_zero():
            raise DivisionByZeroSeries("division by the zero series")
        return self * other.inverse()

    def derivative(self):
        out = []
        lo = self.valuation - 1
        for i, c in enumerate(self.coeffs):
            e = self.valuation + i
            out.append(c * e)
        return TruncatedSeries(self.field, lo, out, self.prec - 1)

    # -- analytic operations ------------------------------------------------------

    def residue(self):
        """Coefficient of z^(-1), interpreting the series as a 1-form coefficient."""
        if self.prec <= -1:
            raise InsufficientPrecision(
                f"window [{self.valuation}, {self.prec}) does not reach exponent -1")
        if self.valuation > -1:
            return self.field.zero()
        return self.coefficient(-1)

    def compose(self, inner):
        """self(inner), for inner of valuation >= 1; see `compose_all`."""
        return compose_all([self], inner)[0]

    def reversion(self):
        """Compositional inverse g with self(g) = z, for valuation exactly 1.

        Newton iteration g <- g - (self(g) - z) / self'(g) on a top-down
        precision schedule: the target t = self.prec, then ceil(t/2), ...
        down to 2, run upwards.  Each round at most doubles the correct window
        of the one before, composes only the part of self that reaches it, and
        the last round lands on t exactly.  The result window is self.prec,
        and self(g) = z is checked at full width before g is returned.
        """
        if self.valuation != 1:
            raise ValuationError(
                f"reversion requires valuation 1, got {self.valuation}")
        rel = self.relative_precision()
        ident = TruncatedSeries.identity(self.field, rel + 1)
        g = ident.scale(self.coeffs[0].inverse()).truncate(2)
        schedule = [rel + 1]
        while schedule[-1] > 2:
            schedule.append(-(-schedule[-1] // 2))
        deriv = self.derivative()
        schedule.reverse()
        for good, known in zip(schedule, schedule[1:]):
            # g is correct below z^good, so err = O(z^good) and the quotient
            # err / self'(g) needs self'(g) below z^(known - good) only
            g = TruncatedSeries(self.field, g.valuation, g.coeffs, known)
            f_g, dg = compose_all(
                [self.truncate(known), deriv.truncate(known - good)], g)
            err = f_g - ident.truncate(known)
            g = (g - err / dg).truncate(known)
        check = self.compose(g)
        window = min(check.prec, rel + 1)
        if not (check - ident.truncate(window)).truncate(window).is_zero():
            raise AssertionError("reversion verification failed")
        return g

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        return {"valuation": self.valuation,
                "prec": self.prec,
                "coeffs": [c.to_json() for c in self.coeffs]}

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and
                self.field == other.field and
                self.valuation == other.valuation and
                self.coeffs == other.coeffs and
                self.prec == other.prec)

    def __repr__(self):
        if self.is_zero():
            return f"O(z^{self.prec})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            e = self.valuation + i
            cs = c.to_string()
            if "+" in cs or "*" in cs:
                cs = f"({cs})"
            terms.append(cs if e == 0 else f"{cs}*z^{e}")
        return " + ".join(terms) + f" + O(z^{self.prec})"


def compose_all(outers, inner):
    """[outer(inner) for outer in outers], for inner of valuation >= 1 and
    outers of valuation >= 0.

    Each outer z^lo * q(z) is evaluated as q(inner) * inner^lo, with q(inner)
    by Brent-Kung baby-step/giant-step: about 2*sqrt(m) series products for
    the m terms of q that reach the window, where Horner needs m.  With
    k = ceil(sqrt(m)) for the longest q, the baby powers inner^0..inner^(k-1)
    and the giant step inner^k are formed once for the whole list, at the
    widest window any outer needs.  Each outer keeps its own window,
    min(vg * outer.prec, inner.prec + (outer.valuation - 1) * vg) for
    vg = inner.valuation, as a term-by-term Horner evaluation would give, and
    the shared powers are cut to it before use.
    """
    for outer in outers:
        outer._check_field(inner)
        if outer.valuation < 0:
            raise ValuationError("composition requires outer valuation >= 0")
    if inner.is_zero() or inner.valuation < 1:
        raise ValuationError("composition requires inner valuation >= 1")
    field, vg = inner.field, inner.valuation
    plans = []
    for outer in outers:
        # error from outer truncation is O(inner^prec); error from inner
        # truncation is O(z^(inner.prec + (v-1)*vg))
        prec = min(vg * outer.prec, inner.prec + (outer.valuation - 1) * vg)
        # only the terms with e*vg < prec reach the window, and q(inner) is
        # needed below z^(prec - lo*vg)
        lo = outer.valuation
        q = outer.coefficients_in(lo, min(outer.prec, -(-prec // vg)))
        plans.append((prec, lo, q))
    widths = [prec - lo * vg for prec, lo, q in plans if q]
    if widths:
        width, m = max(widths), max(len(p[2]) for p in plans)
        k = math.isqrt(m - 1) + 1
        step = inner.truncate(width)
        powers = [TruncatedSeries(field, 0, [field.one()], width)]
        while len(powers) < k + (m > k):
            powers.append((powers[-1] * step).truncate(width))
    out = []
    for prec, lo, q in plans:
        if not q:
            out.append(TruncatedSeries.zero(field, prec))
            continue
        w = prec - lo * vg
        table = powers if w == width else [p.truncate(w) for p in powers]
        blocks = []
        for start in range(0, len(q), k):
            block = TruncatedSeries.zero(field, w)
            for c, p in zip(q[start:start + k], table):
                if not c.is_zero():
                    block = block + p.scale(c)
            blocks.append(block)
        result = blocks.pop()
        while blocks:
            result = (result * table[k]).truncate(w) + blocks.pop()
        for _ in range(lo):
            result = result * inner
        out.append(result.truncate(min(prec, result.prec)))
    return out


def _kronecker(field, a, b, n):
    """The first n coefficients of the product of coefficient lists a, b.

    Each operand goes over the lcm of its denominators, and power-basis
    integer k of its coefficient i into the slot at bit (i*(2d-1) + k)*B
    for d = field.degree; one integer product then puts t^e z^m in slot
    e*(2d-1) + m, as in FLINT's fmpz_poly_mul.  A slot holds any product
    coefficient with its sign, since at most min(len)*d terms add up in
    one.  Slots are read back with the borrow of the slot below, and each
    row of 2d-1 slots is folded onto the power basis.
    """
    d = field.degree
    stride, pad = 2 * d - 1, (0,) * (d - 1)
    dens = [math.lcm(*(c.den for c in s)) for s in (a, b)]
    vals = [[x * (den // c.den) for c in s for x in c.num + pad]
            for s, den in zip((a, b), dens)]
    # B = 8*w bits: both heights, the terms per coefficient, a sign bit
    w = (sum(max(map(abs, v)).bit_length() for v in vals) +
         (min(len(a), len(b)) * d).bit_length() + 8) // 8
    # two's complement slots, less the 2^B that each negative one adds
    one, zero = b"\1" + bytes(w - 1), bytes(w)
    x, y = [int.from_bytes(b"".join(c.to_bytes(w, "little", signed=True)
                                    for c in v), "little") -
            (int.from_bytes(b"".join(one if c < 0 else zero for c in v),
                            "little") << 8 * w) for v in vals]
    size = n * stride * w
    raw = (x * y & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    half, full, borrow, slots = 1 << (8 * w - 1), 1 << 8 * w, 0, []
    for i in range(0, size, w):
        u = int.from_bytes(raw[i:i + w], "little") + borrow
        borrow = u >= half
        slots.append(u - full if borrow else u)
    den = dens[0] * dens[1]
    return [Scalar._make(field, field._fold(slots[i:i + stride]), den)
            for i in range(0, len(slots), stride)]


def _rewindow(s, prec):
    """s cut to the window prec, or extended to it with zero coefficients."""
    if prec <= s.prec:
        return s.truncate(prec)
    return TruncatedSeries(s.field, s.valuation if s.coeffs else prec,
                           s.coeffs, prec)


def newton_solve(coeffs_in_y, seed, target_prec):
    """Series solution of F(z, y) = 0 by Newton iteration.

    ``coeffs_in_y`` lists the coefficients of F as a polynomial in y, each a
    TruncatedSeries in z known at least to target_prec + 1, since every
    round works one coefficient past the ones it makes correct; a shorter
    window ends in InsufficientPrecision.  The seed must satisfy F(seed) = 0
    within its own window and dF/dy(seed) must be a unit.
    """
    dcoeffs = [c.scale(k) for k, c in enumerate(coeffs_in_y) if k]
    residual = peval(coeffs_in_y, seed)
    if not residual.truncate(min(seed.prec, residual.prec)).is_zero():
        raise ValueError("seed does not satisfy the equation to its precision")
    deriv = peval(dcoeffs, seed)
    if deriv.is_zero() or deriv.valuation != 0:
        raise SingularJacobian(
            "dF/dy at the seed is not a unit; Newton cannot start")

    y = _rewindow(seed, target_prec + 1)
    known = max(1, seed.prec - seed.valuation)
    while known < target_prec:
        known = min(2 * known, target_prec)
        y = _rewindow(y, known + 1)
        correction = peval(coeffs_in_y, y) / peval(dcoeffs, y)
        y = (y - correction).truncate(known + 1)
    y = y.truncate(target_prec)
    if not peval(coeffs_in_y, y).truncate(target_prec).is_zero():
        raise AssertionError("Newton result fails the equation to target precision")
    return y


def transform_form(series_list, substitution):
    """Rewrite 1-form coefficients under one parameter substitution.

    If a form is s(z) dz and z = phi(u), its new coefficient series is
    s(phi(u)) * phi'(u).  Residues are invariant under this operation, which
    is what licenses arbitrary local parameters in covering data.  All the
    series go through one `compose_all`, so they share its powers of phi
    while each keeps its own window, and phi' is formed once.
    """
    d = substitution.derivative()
    return [s * d for s in compose_all(series_list, substitution)]

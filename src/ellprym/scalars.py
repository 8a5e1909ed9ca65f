"""Exact arithmetic in cyclotomic fields Q(zeta_N) and dense exact linear algebra.

An element is a tuple of integers ``num`` on the power basis 1, z, ...,
z^(phi(N)-1), z = zeta_N, over one integer ``den`` > 0 with gcd(den, *num) = 1
(as FLINT/Antic ``nf_elem``), so equal elements have identical num and den.
Products reduce by a per-field integer table of z^m mod Phi_N (Phi_N is monic).
Inverses go through the norm: with P the product of the conjugates z -> z^a,
a != 1 a unit mod N, num*P is an integer and x^-1 = den*P / (num*P).
The dense polynomial helpers (ptrim, padd, psub, pmul, peval, pdivmod) are the
package's only polynomial code, used over Fraction for Phi_N and over Scalar.

A scalar string is what ``to_string`` writes, e.g. ``"1/2 + -1/3*z^2"``: terms
``-?D`` or ``-?D/D`` over ASCII digits D, each optionally followed by ``*z``
or ``*z^k``, joined by ``+`` with spaces allowed only around the ``+``.
``from_string`` reads that grammar only, with int, refusing any string longer
than MAX_SCALAR_LENGTH before parsing; ``to_json`` refuses to write one.

The linear algebra is deterministic: Gaussian elimination with the pivot
always taken as the first nonzero entry in column order.  Magnitude-based
pivoting would be meaningless over Q(zeta) and would break reproducibility.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .errors import (DivisionByZero, FieldError, NotAnNthPower, ParseError,
                     ScalarTooLong)

SUPPORTED_ORDERS = (1, 2, 3, 4, 5, 6, 7, 11, 13)

# Longest scalar string, in characters, that Scalar.from_string reads; it is
# checked before any parsing.  Every integer in an accepted string then stays
# below Python's 4300-digit limit on int <-> str conversion, and the common
# denominator, hence the cost of an inverse, is bounded too.
MAX_SCALAR_LENGTH = 4000

# One term of a scalar string, and the "+" between terms.  [0-9] matches
# ASCII digits only; int() alone also takes "1_000", " 3" and other scripts'
# digits.
_TERM = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?(\*z(?:\^([0-9]+))?)?")
_TERM_SEP = re.compile(r" *\+ *")


# ---------------------------------------------------------------------------
# polynomial helpers (dense, low-to-high coefficient lists)
#
# Coefficients may be of any exact type with + - * / whose elements are
# falsy exactly when zero, such as Fraction and Scalar.  Zero is taken from
# the inputs, so no bare int 0 enters a list of Scalars.
# ---------------------------------------------------------------------------

def ptrim(p):
    """Drop trailing zero coefficients of p in place; returns p."""
    while p and not p[-1]:
        p.pop()
    return p


def padd(a, b):
    out = list(a)
    for i, c in enumerate(b):
        if i < len(out):
            out[i] = out[i] + c
        else:
            out.append(c)
    return ptrim(out)


def psub(a, b):
    return padd(a, [-c for c in b])


def pmul(a, b):
    if not a or not b:
        return []
    out = [a[0] - a[0]] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return ptrim(out)


def peval(p, x):
    """Value of p at x, by Horner's rule."""
    acc = x - x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pdivmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b; b is trimmed and nonzero."""
    r = ptrim(list(a))
    lead = b[-1]
    q = [lead - lead] * (len(r) - len(b) + 1)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        coef = q[shift] = r[-1] / lead
        for i in range(len(b) - 1):
            r[shift + i] -= coef * b[i]
        r.pop()
        ptrim(r)
    return q, r


def _cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial, by recursive division."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, r = pdivmod(poly, _cyclotomic(d))
            if r:
                raise AssertionError("cyclotomic recursion produced a remainder")
    return poly


def integer_nth_root(n, k):
    """Floor of the k-th root of a nonnegative integer, by integer Newton."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def rational_nth_root(q, k):
    """The rational k-th root of a Fraction, or None if there is none.

    For odd k the sign passes to the root; for even k a negative radicand
    has no real root and None is returned.
    """
    if q == 0:
        return Fraction(0)
    sign = 1
    if q < 0:
        if k % 2 == 0:
            return None
        sign, q = -1, -q
    num, den = q.numerator, q.denominator
    rn, rd = integer_nth_root(num, k), integer_nth_root(den, k)
    if rn ** k != num or rd ** k != den:
        return None
    return Fraction(sign * rn, rd)


# ---------------------------------------------------------------------------
# field specification
# ---------------------------------------------------------------------------

class FieldSpec:
    """The coefficient field Q(zeta_N); N = 1 means plain rationals."""

    _cache = {}

    def __new__(cls, cyclotomic_order=1):
        n = int(cyclotomic_order)
        if n in cls._cache:
            return cls._cache[n]
        if n not in SUPPORTED_ORDERS:
            raise FieldError(
                f"unsupported cyclotomic order {n}; supported: {SUPPORTED_ORDERS}")
        self = super().__new__(cls)
        self.cyclotomic_order = n
        self.minimal_polynomial = mod = tuple(int(c) for c in _cyclotomic(n))
        self.degree = deg = len(mod) - 1
        # z^m mod Phi_N for 0 <= m < N (all powers, as z^N = 1), as rows (j, c)
        self._powers, row = [], [1] + [0] * (deg - 1)
        for _ in range(n):
            self._powers.append(tuple((j, c) for j, c in enumerate(row) if c))
            top, row = row[-1], [0] + row[:-1]
            row = [r - top * c for r, c in zip(row, mod)]
        # (Z/N)^* is cyclic, generated by g.  Step i of the norm in
        # Scalar.inverse multiplies in the conjugates z -> z^a, a in _tower[i],
        # going from the fixed field of <g^(s*q)> to that of <g^s>, q prime.
        g = next(a for a in range(1, n + 1) if gcd(a, n) == 1 and
                 len({pow(a, k, n) for k in range(deg)}) == deg)
        self._tower, s = [], deg
        while s > 1:
            q = next(p for p in range(2, s + 1) if s % p == 0)
            s //= q
            self._tower.append([pow(g, j * s, n) for j in range(1, q)])
        cls._cache[n] = self
        return self

    def __repr__(self):
        return f"FieldSpec({self.cyclotomic_order})"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and \
            self.cyclotomic_order == other.cyclotomic_order

    def __hash__(self):
        return hash(("FieldSpec", self.cyclotomic_order))

    # -- integer polynomials on the power basis ------------------------------

    def _fold(self, c):
        """Integers on 1, z, z^2, ... (``degree`` or more) on the power basis."""
        deg, n, powers = self.degree, self.cyclotomic_order, self._powers
        out = c[:deg]
        for k in range(deg, len(c)):
            x = c[k]
            if x:
                for j, e in powers[k % n]:
                    out[j] += x * e
        return tuple(out)

    def _mul(self, a, b):
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self._fold(prod)

    # -- element constructors ------------------------------------------------

    def scalar(self, value):
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldError("scalar belongs to a different field")
            return value
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return Scalar._make(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def from_coefficients(self, coeffs):
        return Scalar(self, coeffs)

    def zeta(self):
        """The designated generator zeta_N (equal to 1 for N = 1, -1 for N = 2)."""
        if self.degree == 1:
            return self.scalar(1 if self.cyclotomic_order == 1 else -1)
        return Scalar(self, [0, 1])

    def contains_root_of_unity(self, m):
        """The roots of unity in Q(zeta_N) are those of order dividing
        N for even N and 2N for odd N."""
        n = self.cyclotomic_order
        return (n if n % 2 == 0 else 2 * n) % m == 0

    def root_of_unity(self, m):
        """A primitive m-th root of unity, if the field contains one."""
        if not self.contains_root_of_unity(m):
            raise FieldError(
                f"Q(zeta_{self.cyclotomic_order}) has no primitive {m}-th root of unity")
        n = self.cyclotomic_order
        if n % m == 0:
            return self.zeta() ** (n // m)
        # n odd, m | 2n: go through zeta_{2n} = -zeta_n^((n+1)//2)
        zeta_2n = -(self.zeta() ** ((n + 1) // 2))
        return zeta_2n ** (2 * n // m)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """An element of Q(zeta_N): integers ``num`` on the power basis over a
    positive ``den``, in lowest terms."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field, coeffs):
        q = [Fraction(x) for x in coeffs]
        den = lcm(*(x.denominator for x in q))
        num = [x.numerator * (den // x.denominator) for x in q]
        s = Scalar._make(field, field._fold(num + [0] * field.degree), den)
        self.field, self.num, self.den, self._hash = field, s.num, s.den, None

    @classmethod
    def _make(cls, field, num, den, lowest=False):
        """num/den for an integer tuple num on the power basis and an integer
        den != 0, brought to lowest terms with den > 0 unless ``lowest``."""
        if not lowest:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num, den = tuple(x // g for x in num), den // g
        self = object.__new__(cls)
        self.field, self.num, self.den, self._hash = field, num, den, None
        return self

    @property
    def coeffs(self):
        """The coordinates on the power basis, as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("mixed-field arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    # -- ring operations --------------------------------------------------------

    def _sum(self, other, sign):
        """self + sign*other.  As in Fraction addition (Knuth, TAOCP 4.5.1),
        only a factor of g = gcd(da, db) can cancel from num / lcm(da, db)."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        da, db = self.den, o.den
        g = gcd(da, db)
        s, t = da // g, db // g
        num = tuple(x * t + sign * y * s for x, y in zip(self.num, o.num))
        g = gcd(g, *num)
        if g != 1:
            num = tuple(x // g for x in num)
        return Scalar._make(self.field, num, s * (db // g), lowest=True)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._make(self.field, tuple(-x for x in self.num), self.den,
                            lowest=True)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.num, o.num
        if len(a) == 1 and a[0] and b[0]:
            # over Q cancel across first, as Fraction does; then nothing is left
            g, h = gcd(a[0], o.den), gcd(b[0], self.den)
            return Scalar._make(self.field, (a[0] // g * (b[0] // h),),
                                self.den // h * (o.den // g), lowest=True)
        return Scalar._make(self.field, self.field._mul(a, b), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """den * P / N(num), P = N(num) / num.  Each step of the field's _tower
        multiplies y = num by the product q of its conjugates there; y ends
        as N(num), and P is the product of the qs (N = 13: 6 products, not 11)."""
        if not any(self.num):
            raise DivisionByZero("inverse of zero")
        f, y, qs = self.field, Scalar._make(self.field, self.num, 1, True), []
        for step in f._tower:
            qs.append(reduce(Scalar.__mul__, [y.galois(a) for a in step]))
            y = y * qs[-1]
        if not y.is_rational() or not y:
            raise AssertionError("cyclotomic polynomial not coprime to element")
        p = reduce(Scalar.__mul__, qs, f.one()).num
        return Scalar._make(f, tuple(self.den * x for x in p), y.num[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates -------------------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise FieldError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def nth_root_rational(self, k):
        """Designated k-th root: the real rational root of a rational element.

        Deterministic by construction.  Elements outside the rational subfield
        (or without a rational real root) raise NotAnNthPower, instructing the
        caller to extend the field or rescale.
        """
        if not self.is_rational():
            raise NotAnNthPower(
                f"{self} is not in the rational subfield; no designated root")
        root = rational_nth_root(self.rational_value(), k)
        if root is None:
            raise NotAnNthPower(f"{self} has no rational {k}-th root")
        return self.field.scalar(root)

    def galois(self, a):
        """Image under the Galois automorphism z -> z^a (gcd(a, N) = 1)."""
        f, n = self.field, self.field.cyclotomic_order
        c = [0] * n
        for k, x in enumerate(self.num):
            c[a * k % n] += x
        return Scalar._make(f, f._fold(c), self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.field, self.num, self.den) == \
            (other.field, other.num, other.den)

    def __hash__(self):
        """Equal values hash alike: a rational element as the Fraction it
        equals (so as an int when integral), any other by its coordinates."""
        if self._hash is None:
            self._hash = hash(Fraction(self.num[0], self.den)
                              if self.is_rational() else
                              (self.field.cyclotomic_order, self.num, self.den))
        return self._hash

    def __bool__(self):
        return any(self.num)

    # -- serialization ------------------------------------------------------------

    def to_string(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        """to_string, refused (ScalarTooLong) where from_string would be."""
        text = self.to_string()
        if len(text) > MAX_SCALAR_LENGTH:
            raise ScalarTooLong(f"scalar string of {len(text)} characters "
                                f"({text[:20]}...) is over {MAX_SCALAR_LENGTH}")
        return text

    @staticmethod
    def from_string(field, text):
        """The element a scalar string denotes (the grammar is in the module
        docstring; k in z^k is below the field degree).  Anything else, and
        any string longer than MAX_SCALAR_LENGTH, raises ParseError."""
        if not isinstance(text, str):
            raise ParseError(text, "scalar must be a string")
        if len(text) > MAX_SCALAR_LENGTH:
            raise ParseError(text[:20] + "...", f"scalar string longer than "
                             f"{MAX_SCALAR_LENGTH} characters")
        terms = []
        for term in _TERM_SEP.split(text):
            m = _TERM.fullmatch(term)
            if m is None:
                raise ParseError(term)
            p, q, z, k = m.groups()
            power = 0 if z is None else 1 if k is None else int(k)
            if power >= field.degree:
                raise ParseError(term, "zeta power not reduced for this field")
            q = 1 if q is None else int(q)
            if not q:
                raise ParseError(term, "zero denominator")
            terms.append((int(p), q, power))
        den = lcm(*(q for _, q, _ in terms))
        num = [0] * field.degree
        for p, q, power in terms:
            num[power] += p * (den // q)
        return Scalar._make(field, tuple(num), den)

    def __repr__(self):
        return self.to_string()


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Dense exact matrix over a FieldSpec."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = [[field.scalar(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)])

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)])

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        zero = self.field.zero()
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    a = self.rows[i][k]
                    if not a.is_zero():
                        acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out)

    def mul_vec(self, vec):
        zero = self.field.zero()
        out = []
        for i in range(self.nrows):
            acc = zero
            for k in range(self.ncols):
                a = self.rows[i][k]
                if not a.is_zero():
                    acc = acc + a * vec[k]
            out.append(acc)
        return out

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    # -- elimination ------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list).

        Deterministic: the pivot is the first row with a nonzero entry in the
        current column.  Entries are exact, so no magnitude heuristics apply.
        """
        m = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            if r >= self.nrows:
                break
            sel = None
            for i in range(r, self.nrows):
                if not m[i][c].is_zero():
                    sel = i
                    break
            if sel is None:
                continue
            m[r], m[sel] = m[sel], m[r]
            inv = m[r][c].inverse()
            m[r] = [x * inv for x in m[r]]
            for i in range(self.nrows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(self.field, m), pivots

    def rank(self):
        return len(self.rref()[1])

    def inverse(self):
        """Exact inverse of a square matrix, by rref of [M | I]."""
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        red, pivots = Matrix(self.field, [list(r) + i for r, i in
                                          zip(self.rows, ident.rows)]).rref()
        if pivots != list(range(n)):
            raise ValueError("matrix not invertible")
        return Matrix(self.field, [row[n:] for row in red.rows])

    def kernel_basis(self):
        """Basis of the right kernel, reduced column echelon convention.

        For each free column f (in ascending order) the basis vector has a 1
        in slot f, the negated reduced coefficients in the pivot slots, and
        zeros elsewhere.  Output is deterministic and satisfies rank-nullity.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        one, zero = self.field.one(), self.field.zero()
        basis = []
        for f in free:
            v = [zero] * self.ncols
            v[f] = one
            for i, p in enumerate(pivots):
                v[p] = -red.rows[i][f]
            basis.append(v)
        if len(basis) != self.ncols - len(pivots):
            raise AssertionError("rank-nullity violated")
        return basis

    def solve(self, rhs):
        """Exact solution of self * x = rhs, or None if inconsistent.

        When the system is underdetermined, free variables are set to zero
        (deterministic by the rref convention).
        """
        aug = Matrix(self.field,
                     [list(r) + [b] for r, b in zip(self.rows, rhs)])
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = red.rows[i][self.ncols]
        return x

    def __repr__(self):
        return "Matrix([" + ",\n        ".join(
            "[" + ", ".join(map(str, r)) + "]" for r in self.rows) + "])"


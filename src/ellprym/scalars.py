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

The linear algebra is deterministic.  ``Matrix.rref`` returns the unique
reduced row echelon form, and it finds it in three steps (after Dixon,
"Exact solution of linear equations using p-adic expansions", Numer. Math.
40, 1982: structure modulo a word prime, then exact certification):
1. each row is cleared to integers over one denominator and reduced modulo
   the prime PRIME = 1 (mod 60060), where zeta_N maps to an element of order
   N for every supported N; the rows independent of the rows before them
   there are selected;
2. the selected rows alone go through exact Gaussian elimination, the pivot
   always the first nonzero entry in column order (magnitude-based pivoting
   would be meaningless over Q(zeta) and would break reproducibility);
3. every other row is checked exactly, in integers, to be the combination of
   the reduced rows that its own pivot-column entries give, i.e. to vanish on
   their kernel.  A row that fails joins the selection and step 2 runs again.
The check is the certificate: the selected rows then span the row space, so
the RREF, its pivots, ``kernel_basis``, ``rank`` and ``solve`` are those of the
whole matrix.  A wrong selection modulo PRIME (a pivot or a denominator that
PRIME divides) costs only another round, since each failed row raises the
exact rank of the selection; at worst every row is selected.  When step 1
selects as many rows as there are columns, their minor is nonzero modulo
PRIME, hence nonzero: the rank is full and the RREF is [I; 0], so steps 2
and 3 are skipped.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from .errors import (DivisionByZero, FieldError, NotAnNthPower, ParseError,
                     ScalarTooLong)

SUPPORTED_ORDERS = (1, 2, 3, 4, 5, 6, 7, 11, 13)

# Longest scalar string, in characters, that Scalar.from_string reads; it is
# checked before any parsing.  Every integer in an accepted string then stays
# below Python's 4300-digit limit on int <-> str conversion, and the common
# denominator, hence the cost of an inverse, is bounded too.
MAX_SCALAR_LENGTH = 4000

# The word prime of Matrix.rref's row selection.  PRIME - 1 is a multiple of
# 60060 = lcm(SUPPORTED_ORDERS), so F_PRIME has an element of order N for
# every supported N, and zeta_N maps there.
PRIME = 4611686018427267781

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
    """Value of p at x, by Horner's rule from the leading coefficient.  An
    empty or constant p starts from x - x, so that its value at a series is
    a series."""
    if len(p) < 2:
        acc = x - x
        return acc * x + p[0] if p else acc
    acc = p[-1] * x + p[-2]
    for c in reversed(p[:-2]):
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
    """The coefficient field Q(zeta_N); N = 1 means plain rationals.
    __new__ keeps one instance per order, so fields compare by identity."""

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
        # w^k for k < deg, w of order n mod PRIME: the image of z^k there
        w = next(w for w in (pow(a, (PRIME - 1) // n, PRIME)
                             for a in range(2, PRIME))
                 if all(pow(w, n // q, PRIME) != 1
                        for q in range(2, n + 1) if n % q == 0))
        self._zeta_mod_p = [pow(w, k, PRIME) for k in range(deg)]
        cls._cache[n] = self
        return self

    def __repr__(self):
        return f"FieldSpec({self.cyclotomic_order})"

    def __reduce__(self):
        """Copies and pickles go through __new__, to the cached instance."""
        return FieldSpec, (self.cyclotomic_order,)

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
            if value.field is not self:
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
            if other.field is not self.field:
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
        """Each nonzero coordinate p/q in lowest terms (p alone for q = 1)
        times z^k, joined by " + "; "0" for zero."""
        terms = []
        for k, x in enumerate(self.num):
            if not x:
                continue
            g = gcd(x, self.den)
            c = f"{x // g}" if g == self.den else f"{x // g}/{self.den // g}"
            terms.append(c if k == 0 else f"{c}*z" if k == 1 else f"{c}*z^{k}")
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
        cols = other.transpose()
        return Matrix(self.field, [cols.mul_vec(row) for row in self.rows])

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

        Rows are selected modulo PRIME, eliminated exactly and certified
        against every other row (module docstring); the result is the unique
        RREF of the whole matrix, zero rows last.
        """
        field, rows = self.field, self.rows
        cleared = [_cleared(row) for row in rows]
        chosen = _independent_mod_p(field, cleared, self.ncols)
        zero = field.zero()
        if len(chosen) == self.ncols:
            # full column rank (module docstring): the RREF is [I; 0]
            one = field.one()
            return Matrix(field, [[one if i == j else zero
                                   for j in range(self.ncols)]
                                  for i in range(self.nrows)]), \
                list(range(self.ncols))
        start = 0
        while True:
            red, pivots = _eliminate([rows[i] for i in chosen], self.ncols)
            bad = _first_outside(field, cleared, set(chosen), red, pivots,
                                 self.ncols, start)
            if bad is None:
                break
            chosen.append(bad)
            start = bad + 1
        red += [[zero] * self.ncols for _ in range(self.nrows - len(red))]
        return Matrix(field, red), pivots

    def rank(self):
        """Rank, by the rref of the transpose when that has fewer columns:
        full column rank then leaves nothing to certify."""
        tall = self.transpose() if self.ncols > self.nrows else self
        return len(tall.rref()[1])

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


def _cleared(row):
    """A row times the lcm of its denominators, as power-basis int tuples."""
    den = lcm(*(x.den for x in row))
    return [x.num if x.den == den else tuple(c * (den // x.den) for c in x.num)
            for x in row]


def _independent_mod_p(field, cleared, ncols):
    """Indices of the rows, in order, that modulo PRIME are independent of
    the rows before them; stops at ncols of them.

    Each kept row is stored with a 1 at its pivot column c, and zeros at the
    pivot columns kept before it, so one pass in order reduces a new row.
    Entries of a row under reduction stay below (ncols + 1) * PRIME^2 and are
    brought mod PRIME once at the end.
    """
    zeta = field._zeta_mod_p
    basis, chosen = [], []
    for i, row in enumerate(cleared):
        v = [sum(map(mul, x, zeta)) % PRIME for x in row]
        for c, b in basis:
            t = v[c] % PRIME
            if t:
                v = [x - t * y for x, y in zip(v, b)]
        v = [x % PRIME for x in v]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, PRIME)
        basis.append((c, [x * inv % PRIME for x in v]))
        chosen.append(i)
        if len(chosen) == ncols:
            break
    return chosen


def _eliminate(rows, ncols):
    """Exact Gauss-Jordan elimination, the pivot always the first row with a
    nonzero entry in the current column; returns (nonzero rows, pivots)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _first_outside(field, cleared, chosen, red, pivots, ncols, start):
    """The first row index from ``start`` on, outside ``chosen``, whose row a
    is not sum_i a[pivots[i]] * red[i], or None.

    Only the free columns f can differ.  With red over one denominator D,
    B = D * red, the identity D * a[f] = sum_i a[pivots[i]] * B[i][f] is, on
    the power basis, d integer dot products (d the field degree): coordinate
    k of the sum pairs a[pivots[i]][j] with coordinate k of B[i][f] * z^j.
    """
    rest = [i for i in range(start, len(cleared)) if i not in chosen]
    free = sorted(set(range(ncols)) - set(pivots))
    if not rest or not free:
        return None
    d = field.degree
    den = lcm(*(row[f].den for row in red for f in free))
    columns = []
    for f in free:
        images = [field._fold([0] * j + [c * (den // x.den) for c in x.num])
                  for x in (row[f] for row in red) for j in range(d)]
        columns.append((f, [[im[k] for im in images] for k in range(d)]))
    for i in rest:
        a = cleared[i]
        coords = [c for p in pivots for c in a[p]]
        for f, column in columns:
            if any(den * x != sum(map(mul, coords, col))
                   for x, col in zip(a[f], column)):
                return i
    return None

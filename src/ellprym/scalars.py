"""Exact arithmetic in cyclotomic fields Q(zeta_N) and dense exact linear algebra.

An element is a tuple of integers ``num`` on the power basis 1, z, ...,
z^(phi(N)-1), z = zeta_N, over one integer ``den`` > 0 with gcd(den, *num) = 1
(as FLINT/Antic ``nf_elem``), so equal elements have identical num and den.
Products reduce by a per-field integer table of z^m mod Phi_N (Phi_N is monic).
Inverses go through the norm: with P the product of the conjugates z -> z^a,
a != 1 a unit mod N, num*P is an integer and x^-1 = den*P / (num*P).
Two dense polynomial helpers stay here, ptrim and pdivmod (monic divisors
only): over int they give Phi_N and the table of z^m mod Phi_N.  Polynomials
over the field are the builder's, which multiplies them as series.

A scalar string is what ``_to_string`` writes, e.g. ``"1/2 + -1/3*z^2"``:
terms ``-?D`` or ``-?D/D`` over ASCII digits D, each optionally followed by
``*z`` or ``*z^k``, joined by ``+`` with spaces allowed only around the
``+``.  ``_parse`` reads that grammar only, with int, refusing any string
longer than MAX_SCALAR_LENGTH before parsing; ``_to_json`` refuses to write
one.  ``Scalar.from_string``, ``to_string`` and ``to_json`` go through them,
and so do the series coefficients that ``covering`` reads and writes.

The linear algebra is deterministic.  A Matrix keeps each row in the same
layout as a Scalar: the power-basis integers of all its entries in one flat
list over one positive denominator, in lowest terms; Scalars are made only
where entries are read.  ``Matrix.rref`` returns the unique reduced row
echelon form, and it finds it in three steps (after Dixon, "Exact solution
of linear equations using p-adic expansions", Numer. Math. 40, 1982:
structure modulo a word prime, then exact certification):
1. each row's integers are mapped modulo the prime PRIME = 1 (mod 60060),
   where zeta_N maps to an element of order N for every supported N; the
   rows independent of the rows before them there are selected;
2. the selected rows alone go through exact Gauss-Jordan elimination on
   their integers, the pivot always the first nonzero entry in column order
   (magnitude-based pivoting would be meaningless over Q(zeta) and would
   break reproducibility);
3. every other row is checked exactly, in integers, to vanish on the kernel
   of the reduced rows, i.e. to be the combination of them that its own
   pivot-column entries give.  A row that fails joins the selection and
   step 2 runs again.
The check is the certificate: the selected rows then span the row space, so
the RREF, its pivots, ``kernel_basis``, ``rank`` and ``solve`` are those of the
whole matrix.  A wrong selection modulo PRIME (a pivot or a denominator that
PRIME divides) costs only another round, since each failed row raises the
exact rank of the selection; at worst every row is selected.  The selected
rows are independent, so once there are as many of them as columns their
rank is full and the RREF is [I; 0]: steps 2 and 3 are skipped.
"""

from __future__ import annotations

import re
from functools import reduce
from math import gcd, lcm
from operator import mul

from .errors import DivisionByZero, FieldError, ParseError, ScalarTooLong

SUPPORTED_ORDERS = (1, 2, 3, 4, 5, 6, 7, 11, 13)

# Longest scalar string, in characters, that _parse reads; it is
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
# Coefficients may be of any exact ring type whose elements are falsy
# exactly when zero, such as int and Scalar.  Zero is taken from the
# inputs, so no bare int 0 enters a list of Scalars.
# ---------------------------------------------------------------------------

def ptrim(p):
    """Drop trailing zero coefficients of p in place; returns p."""
    while p and not p[-1]:
        p.pop()
    return p


def pdivmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, for a monic b."""
    r = ptrim(list(a))
    q = [b[0] - b[0]] * (len(r) - len(b) + 1)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        coef = q[shift] = r[-1]
        for i in range(len(b) - 1):
            r[shift + i] -= coef * b[i]
        r.pop()
        ptrim(r)
    return q, r


def _cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial, by recursive division."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, r = pdivmod(poly, _cyclotomic(d))
            if r:
                raise AssertionError("cyclotomic recursion produced a remainder")
    return poly


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
        self.minimal_polynomial = mod = tuple(_cyclotomic(n))
        self.degree = deg = len(mod) - 1
        # z^m mod Phi_N for 0 <= m < N (all powers, as z^N = 1), as rows (j, c)
        self._powers = [tuple((j, c) for j, c in
                              enumerate(pdivmod([0] * m + [1], mod)[1]) if c)
                        for m in range(n)]
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
        """value as an element: a Scalar of this field, or a rational with
        ``numerator`` and ``denominator``, such as an int or a Fraction."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldError("scalar belongs to a different field")
            return value
        return Scalar._make(self, (value.numerator,) + (0,) * (self.degree - 1),
                            value.denominator)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def zeta(self):
        """The designated generator zeta_N: z reduced mod Phi_N, which is 1
        for N = 1 and -1 for N = 2."""
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
        num, den = _flat(FieldSpec(1), coeffs)
        s = Scalar._make(field, field._fold(num + [0] * field.degree), den)
        self.field, self.num, self.den, self._hash = field, s.num, s.den, None

    @classmethod
    def _make(cls, field, num, den, lowest=False):
        """num/den for integers num (a list or tuple) on the power basis and
        an integer den != 0, brought to lowest terms with den > 0 unless
        ``lowest``."""
        if not lowest:
            num, den = _lowest(num, den)
        self = object.__new__(cls)
        self.field, self.den, self._hash = field, den, None
        self.num = tuple(num)
        return self

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
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
        return Scalar._make(self.field, [-x for x in self.num], self.den,
                            lowest=True)

    def __sub__(self, other):
        return self._sum(other, -1)

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
        return Scalar._make(f, [self.den * x for x in p], y.num[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

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

    def galois(self, a):
        """Image under the Galois automorphism z -> z^a (gcd(a, N) = 1)."""
        f, n = self.field, self.field.cyclotomic_order
        c = [0] * n
        for k, x in enumerate(self.num):
            c[a * k % n] += x
        return Scalar._make(f, f._fold(c), self.den)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.field, self.num, self.den) == \
            (other.field, other.num, other.den)

    def __hash__(self):
        """Equal values hash alike: an integral element as the int it
        equals, any other by its coordinates."""
        if self._hash is None:
            self._hash = hash(self.num[0] if self.den == 1 and
                              self.is_rational() else
                              (self.field.cyclotomic_order, self.num, self.den))
        return self._hash

    def __bool__(self):
        return any(self.num)

    # -- serialization ------------------------------------------------------------

    def to_string(self):
        """The element's scalar string (`_to_string`)."""
        return _to_string(self.num, self.den)

    def to_json(self):
        """to_string, refused where from_string would be (`_to_json`)."""
        return _to_json(self.num, self.den)

    @staticmethod
    def from_string(field, text):
        """The element a scalar string denotes (`_parse`)."""
        return Scalar._make(field, *_parse(field, text), lowest=True)

    def __repr__(self):
        return self.to_string()


# ---------------------------------------------------------------------------
# scalar strings
#
# One codec for every scalar string the package reads or writes: a Scalar's
# and, in ``covering``, each coefficient of a series, read into and written
# from the same flat ints over a denominator.
# ---------------------------------------------------------------------------

def _to_string(num, den):
    """The string of the power-basis ints num over den: each nonzero
    coordinate p/q in lowest terms (p alone for q = 1) times z^k, joined by
    " + "; "0" for zero."""
    terms = []
    for k, x in enumerate(num):
        if not x:
            continue
        g = gcd(x, den)
        c = f"{x // g}" if g == den else f"{x // g}/{den // g}"
        terms.append(c if k == 0 else f"{c}*z" if k == 1 else f"{c}*z^{k}")
    return " + ".join(terms) if terms else "0"


def _to_json(num, den):
    """_to_string, refused (ScalarTooLong) where _parse would be."""
    text = _to_string(num, den)
    if len(text) > MAX_SCALAR_LENGTH:
        raise ScalarTooLong(f"scalar string of {len(text)} characters "
                            f"({text[:20]}...) is over {MAX_SCALAR_LENGTH}")
    return text


def _parse(field, text):
    """The power-basis ints and a denominator, in lowest terms, of the
    element a scalar string denotes (the grammar is in the module
    docstring; k in z^k is below the field degree).  Anything else, and any
    string longer than MAX_SCALAR_LENGTH, raises ParseError.  Only a string
    with a denominator takes a gcd, one of its own d ints, so a caller that
    puts many elements over the lcm of their denominators has them in
    lowest terms with no gcd of the whole."""
    if not isinstance(text, str):
        raise ParseError(text, "scalar must be a string")
    if len(text) > MAX_SCALAR_LENGTH:
        raise ParseError(text[:20] + "...", f"scalar string longer than "
                         f"{MAX_SCALAR_LENGTH} characters")
    num, den = [0] * field.degree, 1
    # split only a string with a "+": most are one term
    for term in _TERM_SEP.split(text) if "+" in text else (text,):
        m = _TERM.fullmatch(term)
        if m is None:
            raise ParseError(term)
        p, q, z, k = m.groups()
        power = 0 if z is None else 1 if k is None else int(k)
        if power >= field.degree:
            raise ParseError(term, "zeta power not reduced for this field")
        p = int(p)
        if q is None:
            p *= den
        else:
            q = int(q)
            if not q:
                raise ParseError(term, "zero denominator")
            if den % q:     # den is the lcm of the denominators so far
                g = lcm(den, q)
                if any(num):
                    num = [x * (g // den) for x in num]
                den = g
            p *= den // q
        num[power] += p
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
    return num, den


# ---------------------------------------------------------------------------
# flat integer vectors over one denominator
#
# A Scalar, a TruncatedSeries and each row of a Matrix are power-basis
# integers, d = field.degree of them per entry, over one positive
# denominator in lowest terms.  These are the steps the three share.
# ---------------------------------------------------------------------------

def _lowest(num, den):
    """num/den for integers num over den != 0: both divided by their gcd,
    signed so that den > 0.  num comes back as it was when the gcd is 1,
    and as a new list otherwise."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return num, den
    return [x // g for x in num], den // g


def _over_lcm(parts):
    """The (num, den) parts as one flat list over the lcm of their
    denominators: (num, den), in lowest terms when every part is."""
    den = lcm(*[e for _, e in parts])
    num = []
    for n, e in parts:
        num += n if e == den else map((den // e).__mul__, n)
    return num, den


def _flat(field, entries):
    """Scalars or rationals (`FieldSpec.scalar`) as flat ints over one
    denominator."""
    return _over_lcm([(x.num, x.den) for x in map(field.scalar, entries)])


def _times(field, num, c):
    """The flat ints num, each entry times the power-basis ints c."""
    d = field.degree
    if d == 1:
        return [x * c[0] for x in num]
    return [x for i in range(0, len(num), d)
            for x in field._mul(num[i:i + d], c)]


def _scalars(field, num, den):
    """The Scalars of the flat ints num over den, d = field.degree at a time."""
    d = field.degree
    return [Scalar._make(field, num[i:i + d], den)
            for i in range(0, len(num), d)]


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Dense exact matrix over a FieldSpec.

    ``int_rows`` holds one pair (num, den) per row: the power-basis integers
    of the row's entries in one flat list (entry j at j*d .. j*d + d - 1,
    d = field.degree), over one den > 0 with gcd(den, *num) = 1, the layout
    of a Scalar and of a TruncatedSeries.  Products, eliminations and
    slices work on these integers.  Scalars are made only where entries are
    read: the ``rows`` view and the vectors that ``mul_vec``,
    ``kernel_basis`` and ``solve`` return.  A matrix is never changed once
    made, so matrices may share rows.
    """

    __slots__ = ("field", "int_rows")

    def __init__(self, field, rows):
        self.field = field
        self.int_rows = [_flat(field, row) for row in rows]
        if len({len(n) for n, _ in self.int_rows}) > 1:
            raise ValueError("ragged matrix")

    @classmethod
    def _make(cls, field, int_rows, lowest=False):
        """The matrix of (num, den) rows, each brought to lowest terms unless
        ``lowest``."""
        self = object.__new__(cls)
        self.field = field
        self.int_rows = int_rows if lowest else \
            [_lowest(n, e) for n, e in int_rows]
        return self

    @property
    def nrows(self):
        return len(self.int_rows)

    @property
    def ncols(self):
        return len(self.int_rows[0][0]) // self.field.degree \
            if self.int_rows else 0

    @property
    def rows(self):
        """The entries as Scalars, made afresh on each read, in tuples."""
        return tuple(tuple(_scalars(self.field, n, e))
                     for n, e in self.int_rows)

    @classmethod
    def identity(cls, field, n):
        m = cls.zero(field, n, n)
        for i, (row, _) in enumerate(m.int_rows):
            row[i * field.degree] = 1
        return m

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls._make(field, [([0] * (ncols * field.degree), 1)
                                 for _ in range(nrows)], True)

    @staticmethod
    def stack(blocks):
        """The rows of the matrices in the list ``blocks``, in order."""
        return Matrix._make(blocks[0].field,
                            [r for b in blocks for r in b.int_rows], True)

    def __getitem__(self, key):
        """The block self[rows, cols] for two slices of unit step."""
        rows, cols = key
        d = self.field.degree
        start, stop, _ = cols.indices(self.ncols)
        return Matrix._make(self.field, [(n[start * d:stop * d], e)
                                         for n, e in self.int_rows[rows]])

    def _beside(self, other):
        """[self | other], each row over the lcm of its two denominators."""
        return Matrix._make(self.field, [_over_lcm(pair) for pair in
                                         zip(self.int_rows, other.int_rows)],
                            True)

    def transpose(self):
        """Every row put over the lcm of all the row denominators, then read
        by columns."""
        d, step = self.field.degree, self.ncols * self.field.degree
        num, den = _over_lcm(self.int_rows)
        strided = [num[j::step] for j in range(step)]
        return Matrix._make(self.field, [
            ([x for t in zip(*strided[j:j + d]) for x in t], den)
            for j in range(0, step, d)])

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose()
        return Matrix._make(self.field, [cols._apply(*r)
                                         for r in self.int_rows])

    def mul_vec(self, vec):
        return _scalars(self.field, *self._apply(*_flat(self.field, vec)))

    def annihilates(self, vec):
        """Whether self times vec is zero, decided on the integers without
        making a Scalar.  A vector of the wrong length raises ValueError."""
        return not any(self._apply(*_flat(self.field, vec))[0])

    def _apply(self, v, vden):
        """self times the column v/vden of flat ints, as flat ints over one
        denominator: (num, den).  Coordinate k of an entry's product sums,
        over a + b = k, the integer dot products of coordinate a of the row
        with coordinate b of v; one fold per entry brings it onto the power
        basis."""
        field, d = self.field, self.field.degree
        if len(v) != self.ncols * d:
            raise ValueError("shape mismatch")
        out = []
        for n, e in self.int_rows:
            acc = [0] * (2 * d - 1)
            for a in range(d):
                for b in range(d):
                    acc[a + b] += sum(map(mul, n[a::d], v[b::d]))
            out.append((field._fold(acc), e))
        num, den = _over_lcm(out)
        return num, den * vden

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.field is other.field and \
            self.int_rows == other.int_rows

    # -- elimination ------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list).

        Rows are selected modulo PRIME, eliminated exactly and certified
        against every other row (module docstring); the result is the unique
        RREF of the whole matrix, zero rows last.  The selected rows are
        independent, so once there are ncols of them the rank is full and
        the RREF is [I; 0].
        """
        field, ncols = self.field, self.ncols
        chosen = _independent_mod_p(field, self.int_rows, ncols)
        start = 0
        while len(chosen) < ncols:
            red, pivots = _eliminate(
                field, [self.int_rows[i] for i in chosen], ncols)
            bad = _first_outside(field, self.int_rows, set(chosen), red,
                                 pivots, ncols, start)
            if bad is None:
                break
            chosen.append(bad)
            start = bad + 1
        else:
            red, pivots = Matrix.identity(field, ncols).int_rows, \
                list(range(ncols))
        zero = Matrix.zero(field, self.nrows - len(red), ncols)
        return Matrix._make(field, red + zero.int_rows, True), pivots

    def rank(self):
        """Rank, by the rref of the transpose when that has fewer columns:
        full column rank then leaves nothing to certify."""
        tall = self.transpose() if self.ncols > self.nrows else self
        return len(tall.rref()[1])

    def inverse(self):
        """Exact inverse of a square matrix, by rref of [M | I]."""
        n = self.nrows
        red, pivots = self._beside(Matrix.identity(self.field, n)).rref()
        if pivots != list(range(n)):
            raise ValueError("matrix not invertible")
        return red[:, n:]

    def kernel_basis(self):
        """Basis of the right kernel, reduced column echelon convention
        (`_kernel`); deterministic, and checked against rank-nullity."""
        red, pivots = self.rref()
        basis = _kernel(self.field, red.int_rows, pivots, self.ncols)
        if len(basis) != self.ncols - len(pivots):
            raise AssertionError("rank-nullity violated")
        return basis

    def solve(self, rhs):
        """Exact solution of self * x = rhs, or None if inconsistent.

        When the system is underdetermined, free variables are set to zero
        (deterministic by the rref convention): x is the kernel vector of
        [self | -rhs] for its last column, cut before that column, and the
        system is inconsistent exactly when that column is a pivot.
        """
        if len(rhs) != self.nrows:
            raise ValueError("shape mismatch")
        basis = self._beside(Matrix(self.field, [[-b] for b in rhs])
                             ).kernel_basis()
        return basis[-1][:-1] if basis and basis[-1][-1] else None

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]})"


def _kernel(field, red, pivots, ncols):
    """The right kernel of the (num, den) rows red of an RREF with these
    pivots, as Scalar vectors: for each free column f, in ascending order, a
    1 in slot f, minus column f of red in the pivot slots, zeros elsewhere."""
    d, basis = field.degree, []
    for f in range(ncols):
        if f not in pivots:
            v = [field.zero()] * ncols
            v[f] = field.one()
            for (n, e), p in zip(red, pivots):
                v[p] = Scalar._make(field, [-x for x in n[f * d:f * d + d]], e)
            basis.append(v)
    return basis


def _independent_mod_p(field, rows, ncols):
    """Indices of the (num, den) rows, in order, that modulo PRIME are
    independent of the rows before them; stops at ncols of them.

    A basis of the kernel of the rows kept so far is kept modulo PRIME,
    from the unit vectors on: a row is independent exactly when it does not
    vanish on it.  Keeping a row a with a.k0 != 0 drops k0 and turns every
    other k into k - (a.k) k0 / (a.k0).  The kernel vectors are written on
    the power basis, entry j as its coordinate times the images of 1,
    zeta_N, ... in F_PRIME, so a row's flat ints pair with them directly.
    """
    d = field.degree
    kernel = [[z if j // d == i else 0 for j, z in
               enumerate(field._zeta_mod_p * ncols)] for i in range(ncols)]
    chosen = []
    for i, (row, _) in enumerate(rows):
        dots = [sum(map(mul, row, k)) % PRIME for k in kernel]
        j = next((j for j, t in enumerate(dots) if t), None)
        if j is None:
            continue
        inv = pow(dots.pop(j), -1, PRIME)
        k0 = [x * inv % PRIME for x in kernel.pop(j)]
        kernel = [[(x - t * y) % PRIME for x, y in zip(k, k0)]
                  for k, t in zip(kernel, dots)]
        chosen.append(i)
        if not kernel:
            break
    return chosen


def _eliminate(field, rows, ncols):
    """Exact Gauss-Jordan elimination of (num, den) rows, the pivot always
    the first row with a nonzero entry in the current column; returns
    (rows, pivots), any zero rows last.

    Each step is integer list work on the flat rows.  The pivot row n/e is
    divided by its entry n[c]/e as n times the inverse of n[c].  With that
    row now p/q, its entry c equal to 1, a row n/e whose entry c is f/e
    becomes (n*q - f*p) / (e*q).  Every row is kept in lowest terms.
    """
    d, m, pivots = field.degree, list(rows), []
    for c in range(ncols):
        r, entry = len(pivots), slice(c * d, c * d + d)
        sel = next((i for i in range(r, len(m)) if any(m[i][0][entry])), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        n = m[r][0]
        inv = Scalar._make(field, n[entry], 1).inverse()
        m[r] = p, q = _lowest(_times(field, n, inv.num), inv.den)
        for i, (n, e) in enumerate(m):
            if i != r and any(n[entry]):
                m[i] = _lowest([x * q - y for x, y in
                                zip(n, _times(field, p, n[entry]))], e * q)
        pivots.append(c)
    return m, pivots


def _first_outside(field, rows, chosen, red, pivots, ncols, start):
    """The first index from ``start`` on, outside ``chosen``, of the (num,
    den) rows whose row does not vanish on the kernel of the RREF rows red,
    or None; such a row is not sum_i a[pivots[i]] * red[i]."""
    kernel = Matrix(field, _kernel(field, red, pivots, ncols))
    return next((i for i in range(start, len(rows)) if i not in chosen and
                 any(kernel._apply(*rows[i])[0])), None)

import copy
import functools
import pickle
import random
import time
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from ellprym.builder import (_rational_roots, integer_nth_root,
                             nth_root_rational, peval)
from ellprym.errors import (DivisionByZero, FieldError, NotAnNthPower,
                            ParseError, ScalarTooLong)
from ellprym.scalars import (MAX_SCALAR_LENGTH, PRIME, SUPPORTED_ORDERS,
                             FieldSpec, Matrix, Scalar, pdivmod, ptrim)
from ellprym.series import TruncatedSeries

Q = FieldSpec(1)
Q3 = FieldSpec(3)


def _coeffs(x):
    """The power-basis coordinates of a Scalar, as Fractions."""
    return tuple(F(n, x.den) for n in x.num)


def test_rational_add():
    assert Q.scalar(F(1, 2)) + Q.scalar(F(1, 3)) == Q.scalar(F(5, 6))


def test_cyclotomic_relation():
    z = Q3.zeta()
    assert z * z + z == Q3.scalar(-1)
    assert z ** 3 == Q3.one()


def test_inverse_of_zeta():
    z = Q3.zeta()
    assert z * z.inverse() == Q3.one()


def test_inverse_of_zero_is_distinct_error():
    with pytest.raises(DivisionByZero):
        Q3.zero().inverse()


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldError):
        Q.one() + Q3.one()


def test_unsupported_order_rejected():
    with pytest.raises(FieldError):
        FieldSpec(9)


def test_copy_and_pickle_return_the_cached_field():
    """Fields compare by identity, so a copied or unpickled field must be
    the one instance of its order, and copying must leave every other
    order's instance as it was."""
    before = {n: (repr(FieldSpec(n)), FieldSpec(n).degree)
              for n in SUPPORTED_ORDERS}
    for n in SUPPORTED_ORDERS:
        field = FieldSpec(n)
        assert copy.copy(field) is field
        assert copy.deepcopy(field) is field
        assert pickle.loads(pickle.dumps(field)) is field
        x = field.zeta() + field.scalar(F(1, 3))
        assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
        assert (copy.deepcopy(x) - x).is_zero()
    assert {n: (repr(FieldSpec(n)), FieldSpec(n).degree)
            for n in SUPPORTED_ORDERS} == before


@pytest.mark.parametrize("order,degree", [(1, 1), (2, 1), (3, 2), (4, 2),
                                          (5, 4), (6, 2), (7, 6), (11, 10),
                                          (13, 12)])
def test_cyclotomic_degrees(order, degree):
    assert FieldSpec(order).degree == degree


def test_roots_of_unity_in_field():
    assert Q.contains_root_of_unity(2)
    assert not Q.contains_root_of_unity(3)
    assert Q3.contains_root_of_unity(6)
    zeta6 = Q3.root_of_unity(6)
    assert zeta6 ** 6 == Q3.one()
    assert zeta6 ** 3 == Q3.scalar(-1)
    assert zeta6 ** 2 != Q3.one()
    # zeta() is a primitive root of the stated order in every supported field
    assert Q.zeta() == Q.one()
    assert FieldSpec(2).zeta() == FieldSpec(2).scalar(-1)
    for n in SUPPORTED_ORDERS:
        f = FieldSpec(n)
        powers = [f.zeta() ** k for k in range(1, n + 1)]
        assert powers[-1] == f.one()
        assert f.one() not in powers[:-1]


def test_galois_conjugation():
    z = Q3.zeta()
    s = Q3.scalar(2) + z
    conj = s.galois(2)
    assert conj == Q3.scalar(2) + z * z
    # the product of conjugates is rational (the norm)
    assert (s * conj).is_rational()


def test_serialization_round_trip():
    s = Scalar(Q3, [F(1, 2), F(-2, 3)])
    assert s.to_string() == "1/2 + -2/3*z"
    assert Scalar.from_string(Q3, s.to_string()) == s
    assert Scalar.from_string(Q3, "0") == Q3.zero()
    assert Q3.zero().to_string() == "0"


def test_parse_error_carries_token():
    with pytest.raises(ParseError):
        Scalar.from_string(Q3, "1/2 + huh*z")
    with pytest.raises(ParseError):
        Scalar.from_string(Q3, "")


def test_rational_nth_root():
    assert nth_root_rational(Q.scalar(F(8, 27)), 3) == Q.scalar(F(2, 3))
    assert nth_root_rational(Q.scalar(-8), 3) == Q.scalar(-2)
    for value, message in ((2, "2 has no rational 2-th root"),
                           (-4, "-4 has no rational 2-th root")):
        with pytest.raises(NotAnNthPower, match=message):
            nth_root_rational(Q.scalar(value), 2)
    assert integer_nth_root(10 ** 12, 2) == 10 ** 6


def test_designated_root_errors():
    with pytest.raises(NotAnNthPower):
        nth_root_rational(Q3.zeta(), 3)
    with pytest.raises(NotAnNthPower):
        nth_root_rational(Q3.scalar(2), 3)
    assert nth_root_rational(Q3.scalar(-8), 3) == Q3.scalar(-2)


# -- linear algebra ---------------------------------------------------------

def test_kernel_of_rank_one_matrix():
    M = Matrix(Q, [[1, 1], [2, 2]])
    basis = M.kernel_basis()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * Q.scalar(-1) == v[1] or v[1] * Q.scalar(-1) == v[0]
    assert all((a + b).is_zero() for a, b in [(v[0], v[1])])


def test_kernel_of_identity_empty():
    assert Matrix.identity(Q, 3).kernel_basis() == []


def test_kernel_of_zero_matrix_full():
    M = Matrix.zero(Q, 2, 4)
    assert len(M.kernel_basis()) == 4


def test_solve_exact():
    M = Matrix(Q, [[2, 1], [1, 3]])
    x = M.solve([Q.scalar(5), Q.scalar(10)])
    assert M.mul_vec(x) == [Q.scalar(5), Q.scalar(10)]
    inconsistent = Matrix(Q, [[1, 1], [1, 1]]).solve([Q.one(), Q.zero()])
    assert inconsistent is None


def test_kernel_determinism():
    rng = random.Random(7)
    rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
    M = Matrix(Q3, rows)
    first = M.kernel_basis()
    second = Matrix(Q3, rows).kernel_basis()
    assert first == second


def test_field_axioms_randomized():
    rng = random.Random(20260809)
    def rand_scalar():
        return Scalar(Q3, [F(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(2)])
    for _ in range(50):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == Q3.one()


def test_rank_nullity_randomized():
    rng = random.Random(31337)
    for rows, cols in [(5, 7), (12, 9), (40, 40)]:
        data = [[(rng.randint(-2, 2) if rng.random() < 0.6 else 0)
                 for _ in range(cols)] for _ in range(rows)]
        # sprinkle some cyclotomic entries
        for _ in range(rows):
            i, j = rng.randrange(rows), rng.randrange(cols)
            data[i][j] = Q3.zeta()
        M = Matrix(Q3, data)
        kernel = M.kernel_basis()
        assert M.rank() + len(kernel) == cols
        for v in kernel:
            assert all(x.is_zero() for x in M.mul_vec(v))


def test_from_string_refuses_oversized_coefficients():
    """The length is checked on the whole text before anything is parsed."""
    for text in ("7" * (MAX_SCALAR_LENGTH + 1),
                 "1/" + "3" * (MAX_SCALAR_LENGTH - 1),
                 " + ".join(["1/3*z"] * 1000), "e" * 10 ** 6):
        with pytest.raises(ParseError, match="longer than 4000 characters"):
            Scalar.from_string(Q3, text)


def _short_id(text):
    return text if len(text) < 20 else f"{len(text)}_chars"


@pytest.mark.parametrize("text", [
    "2.5", "1e3", "1e3999", "2.5e3998", "1_000", "\u0663", " 3 ", "z", "-z",
    "1/0", "1/-3", "--1", "1*z^-1", "1\t+ 1*z",
    "7" * (MAX_SCALAR_LENGTH + 1)],
    ids=_short_id)
def test_from_string_refuses(text):
    """Only what to_string writes: no decimals, exponents, underscores,
    non-ASCII digits, outer spaces, tabs or bare z, and nothing over the
    limit."""
    with pytest.raises(ParseError):
        Scalar.from_string(Q3, text)


@pytest.mark.parametrize("text", [
    "0", "-7", "-2/3", "1/2 + -1/3*z", "9" * MAX_SCALAR_LENGTH], ids=_short_id)
def test_from_string_round_trips(text):
    x = Scalar.from_string(Q3, text)
    y = Scalar.from_string(Q3, x.to_string())
    assert (y.num, y.den) == (x.num, x.den)


def test_to_json_writes_only_what_from_string_reads():
    """The file writers' form of a scalar: to_string, refused over the
    length limit, so no file is written that the loader would refuse."""
    y = Q3.scalar(10 ** (MAX_SCALAR_LENGTH - 1))
    assert len(y.to_json()) == MAX_SCALAR_LENGTH
    assert Scalar.from_string(Q3, y.to_json()) == y
    for too_long in (y * 10, y + Q3.zeta()):    # 4001 and 4006 characters
        with pytest.raises(ScalarTooLong, match=f"of {len(too_long.to_string())} "
                           "characters"):
            too_long.to_json()
        with pytest.raises(ParseError, match="longer than"):
            Scalar.from_string(Q3, too_long.to_string())


def exact_rref(M):
    """Reference: exact Gauss-Jordan elimination on every row, the pivot the
    first row with a nonzero entry in the current column (Matrix.rref before
    it selected rows modulo PRIME)."""
    m = [list(r) for r in M.rows]
    pivots = []
    r = 0
    for c in range(M.ncols):
        if r >= M.nrows:
            break
        sel = next((i for i in range(r, M.nrows) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(M.nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return Matrix(M.field, m), pivots


def _reference_kernel(M):
    red, pivots = exact_rref(M)
    basis = []
    for f in (c for c in range(M.ncols) if c not in pivots):
        v = [M.field.zero()] * M.ncols
        v[f] = M.field.one()
        for i, p in enumerate(pivots):
            v[p] = -red.rows[i][f]
        basis.append(v)
    return basis


def _reference_solve(M, rhs):
    red, pivots = exact_rref(Matrix(M.field, [list(r) + [b] for r, b in
                                              zip(M.rows, rhs)]))
    if M.ncols in pivots:
        return None
    x = [M.field.zero()] * M.ncols
    for i, p in enumerate(pivots):
        x[p] = red.rows[i][M.ncols]
    return x


def _random_entry(rng, field, bits=8):
    """A random element, zero about one time in four."""
    if rng.random() < 0.25:
        return field.zero()
    return Scalar(field, [F(rng.randint(-2 ** bits, 2 ** bits),
                            rng.randint(1, 2 ** bits))
                          for _ in range(field.degree)])


def _random_matrix(rng, field, nrows, ncols, rank, bits=8):
    """An nrows x ncols product of random nrows x rank and rank x ncols
    factors, so of rank at most ``rank``."""
    if rank == 0:
        return Matrix.zero(field, nrows, ncols)
    left = [[_random_entry(rng, field, bits) for _ in range(rank)]
            for _ in range(nrows)]
    right = [[_random_entry(rng, field, bits) for _ in range(ncols)]
             for _ in range(rank)]
    return Matrix(field, left).matmul(Matrix(field, right))


@functools.lru_cache(maxsize=None)
def _sympy_cyclotomic(order):
    """sympy's cyclotomic field QQ<zeta> of this order, and its zeta."""
    import sympy
    dom = sympy.QQ.cyclotomic_field(order)
    return dom, dom.from_sympy(dom.ext.as_expr())


def _to_sympy(sympy, matrix):
    """A DomainMatrix over sympy's QQ, or over its cyclotomic field QQ<zeta>
    for field degree > 1, with the entries of matrix."""
    from sympy.polys.matrices import DomainMatrix
    field = matrix.field
    dom, zeta = (sympy.QQ, 1) if field.degree == 1 else \
        _sympy_cyclotomic(field.cyclotomic_order)
    rows = [[sum((dom.convert(sympy.QQ(c.numerator, c.denominator))
                  * zeta ** k for k, c in enumerate(_coeffs(x))), dom.zero)
             for x in row] for row in matrix.rows]
    return DomainMatrix(rows, (matrix.nrows, matrix.ncols), dom)


def _sympy_rref(sympy, M, red):
    """M's rref rows and pivots from sympy's DomainMatrix, and the rows of
    red, both with entries in sympy's QQ or QQ(sqrt(-3))."""
    want, pivots = _to_sympy(sympy, M).rref()
    return want.to_list(), list(pivots), _to_sympy(sympy, red).to_list()


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q(zeta_3)"])
def test_matmul_matches_sympy(field):
    """matmul against sympy's DomainMatrix product on seeded rectangular
    factors, each with a zero row and a zero column."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31 + field.degree)
    for m, k, n in [(3, 4, 5), (5, 2, 3), (2, 6, 4), (4, 4, 4)]:
        factors = []
        for rows, cols in ((m, k), (k, n)):
            entries = [[_random_entry(rng, field, 16) for _ in range(cols)]
                       for _ in range(rows)]
            zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
            factors.append(Matrix(field, [
                [0 if i == zero_row or j == zero_col else x
                 for j, x in enumerate(row)] for i, row in enumerate(entries)]))
        A, B = factors
        product = A.matmul(B)
        assert (product.nrows, product.ncols) == (m, n)
        want = _to_sympy(sympy, A) * _to_sympy(sympy, B)
        assert _to_sympy(sympy, product).to_list() == want.to_list()


SHAPES = [(12, 4, 4), (12, 5, 3), (20, 6, 5), (4, 12, 4), (5, 12, 2),
          (6, 6, 6), (6, 6, 4), (7, 7, 0), (1, 5, 1), (5, 1, 1)]


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q(zeta_3)"])
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{m}x{n}r{r}" for m, n, r
                                               in SHAPES])
def test_rref_matches_exact_reference_and_sympy(field, shape):
    """rref, rank, kernel_basis and solve against the full elimination, and
    rref and rank against sympy, on tall, wide and square matrices of full
    and deficient rank, at two heights."""
    sympy = pytest.importorskip("sympy")
    nrows, ncols, rank = shape
    rng = random.Random(nrows * 1000 + ncols * 10 + rank + field.degree)
    for bits in (8, 32):
        M = _random_matrix(rng, field, nrows, ncols, rank, bits)
        red, pivots = M.rref()
        assert (red, pivots) == exact_rref(M)
        want_rows, want_pivots, rows = _sympy_rref(sympy, M, red)
        assert pivots == want_pivots and M.rank() == len(want_pivots)
        assert rows == want_rows
        assert M.kernel_basis() == _reference_kernel(M)
        consistent = M.mul_vec([_random_entry(rng, field, bits)
                                for _ in range(ncols)])
        anything = [_random_entry(rng, field, bits) for _ in range(nrows)]
        for rhs in (consistent, anything):
            assert M.solve(rhs) == _reference_solve(M, rhs)
        assert M.solve(consistent) is not None


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q(zeta_3)"])
def test_rref_at_full_column_rank_eliminates_nothing(field, monkeypatch):
    """Tall and square matrices of full column rank, at two heights: the
    selection modulo PRIME has ncols rows, so the result [I; 0], the one of
    the full elimination and of sympy, comes with no elimination and no
    certificate."""
    sympy = pytest.importorskip("sympy")
    import ellprym.scalars as scalars
    rng = random.Random(20261018 + field.degree)
    cases = []
    for nrows, ncols in ((12, 4), (20, 6), (6, 6), (5, 1), (30, 2)):
        for bits in (8, 32):
            # a product of random factors may lose rank: draw again
            want = None
            while want is None or want[1] != list(range(ncols)):
                M = _random_matrix(rng, field, nrows, ncols, ncols, bits)
                want = exact_rref(M)
            cases.append((M, want))

    def refuse(*args):
        raise AssertionError("eliminated at full column rank")

    monkeypatch.setattr(scalars, "_eliminate", refuse)
    monkeypatch.setattr(scalars, "_first_outside", refuse)
    for M, want in cases:
        red, pivots = M.rref()
        assert (red, pivots) == want
        want_rows, want_pivots, rows = _sympy_rref(sympy, M, red)
        assert pivots == want_pivots and rows == want_rows
        assert M.rank() == M.ncols


def _fooling_matrices(field):
    """Matrices whose rank drops modulo PRIME: multiples of PRIME, and
    denominators PRIME divides (cleared, the row is PRIME times another)."""
    z, p = field.zeta(), field.scalar(PRIME)
    yield [[p, 0], [0, 1], [0, 2]]
    yield [[0, 1], [0, 2], [p, 0]]
    yield [[0, 1], [p * z, 0], [0, 2]]
    yield [[F(1, PRIME), 1], [1, 0], [2, 0]]
    yield [[1, 0], [2, 0], [F(1, PRIME), 1]]
    yield [[1, 0, 0], [0, 1, 0], [1, 1, F(1, PRIME * PRIME)],
           [2, 2, 0], [p, p * z, p * p]]
    yield [[p, 2 * p], [2 * p, 4 * p + p * p], [p * z, 2 * p * z]]


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q(zeta_3)"])
def test_rref_corrects_a_selection_fooled_by_the_prime(field):
    """A row the selection misses fails the exact check, joins it, and
    every result is still that of the full elimination."""
    for rows in _fooling_matrices(field):
        for M in (Matrix(field, rows), Matrix(field, rows).transpose()):
            assert M.rref() == exact_rref(M)
            assert M.rank() == len(exact_rref(M)[1])
            assert M.kernel_basis() == _reference_kernel(M)
            rhs = [field.scalar(i + 1) for i in range(M.nrows)]
            assert M.solve(rhs) == _reference_solve(M, rhs)
    assert Matrix(field, [[PRIME, 0], [0, 1], [0, 2]]).rank() == 2
    assert Matrix(field, [[0, 1], [0, 2], [PRIME, 0]]).rank() == 2
    assert Matrix(field, [[1, 0], [2, 0], [F(1, PRIME), 1]]).rank() == 2


Q5 = FieldSpec(5)


def reference_mul_vec(M, vec):
    """Matrix.mul_vec as it was while rows were lists of Scalars: one Scalar
    product and sum per nonzero entry."""
    zero = M.field.zero()
    out = []
    for row in M.rows:
        acc = zero
        for a, x in zip(row, vec):
            if not a.is_zero():
                acc = acc + a * x
        out.append(acc)
    return out


def reference_matmul(A, B):
    """Matrix.matmul as it was: each row of the product the reference
    mul_vec of B's transpose, taken here on B's boxed rows."""
    cols = Matrix(B.field, list(zip(*B.rows)))
    return Matrix(A.field, [reference_mul_vec(cols, row) for row in A.rows])


def _mixed_matrix(rng, field, nrows, ncols):
    """Random entries, each coordinate over its own random denominator, so
    every row mixes denominators; one row is zero."""
    rows = [[_random_entry(rng, field, 12) for _ in range(ncols)]
            for _ in range(nrows)]
    rows[rng.randrange(nrows)] = [0] * ncols
    return Matrix(field, rows)


INT_SHAPES = [(7, 3), (3, 7), (5, 5), (1, 4), (4, 1), (6, 6)]


@pytest.mark.parametrize("field", [Q, Q3, Q5], ids=["Q", "Q3", "Q5"])
@pytest.mark.parametrize("shape", INT_SHAPES,
                         ids=[f"{m}x{n}" for m, n in INT_SHAPES])
def test_integer_rows_match_scalar_references_and_sympy(field, shape):
    """The integer-row Matrix against the Scalar-row references (mul_vec,
    matmul, exact_rref and the kernel and solve built on it) and against
    sympy's DomainMatrix (products, rref, rank and inverse), on tall, wide
    and square matrices with mixed denominators and a zero row, of full and
    deficient rank."""
    sympy = pytest.importorskip("sympy")
    nrows, ncols = shape
    rng = random.Random(1000 * nrows + 10 * ncols + field.degree)
    for M in (_mixed_matrix(rng, field, nrows, ncols),
              _random_matrix(rng, field, nrows, ncols,
                             max(1, min(nrows, ncols) - 1), 12)):
        v = [_random_entry(rng, field, 12) for _ in range(ncols)]
        image = M.mul_vec(v)
        assert image == reference_mul_vec(M, v)
        column = Matrix(field, [[x] for x in v])
        assert _to_sympy(sympy, Matrix(field, [[x] for x in image])
                         ).to_list() == \
            (_to_sympy(sympy, M) * _to_sympy(sympy, column)).to_list()
        B = _mixed_matrix(rng, field, ncols, 3)
        product = M.matmul(B)
        assert product == reference_matmul(M, B)
        assert _to_sympy(sympy, product).to_list() == \
            (_to_sympy(sympy, M) * _to_sympy(sympy, B)).to_list()
        red, pivots = M.rref()
        assert (red, pivots) == exact_rref(M)
        want_rows, want_pivots, rows = _sympy_rref(sympy, M, red)
        assert pivots == want_pivots and rows == want_rows
        assert M.rank() == M.transpose().rank() == len(want_pivots)
        assert M.kernel_basis() == _reference_kernel(M)
        for rhs in (image, [_random_entry(rng, field, 12)
                            for _ in range(nrows)]):
            assert M.solve(rhs) == _reference_solve(M, rhs)
        assert M.solve(image) is not None
        if nrows == ncols and len(pivots) == ncols:
            inverse = M.inverse()
            assert _to_sympy(sympy, inverse).to_list() == \
                _to_sympy(sympy, M).inv().to_list()
            assert reference_matmul(M, inverse) == Matrix.identity(field,
                                                                   ncols)
        elif nrows == ncols:
            with pytest.raises(ValueError, match="not invertible"):
                M.inverse()


def test_solve_refuses_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix(Q, [[1, 2], [3, 4]]).solve([1])
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix(Q, [[1, 2], [3, 4]]).solve([1, 2, 3])


def test_mul_vec_refuses_a_vector_of_the_wrong_length():
    M = Matrix(Q3, [[1, 2], [3, Q3.zeta()]])
    for vec in ([1, 2, 3], [1]):
        with pytest.raises(ValueError, match="shape mismatch"):
            M.mul_vec(vec)
    assert M.mul_vec([1, 0]) == [Q3.one(), Q3.scalar(3)]


@pytest.mark.parametrize("field", [Q, Q3, FieldSpec(13)],
                         ids=["Q", "Q3", "Q13"])
def test_annihilates_matches_mul_vec(field, monkeypatch):
    """Oracle: M.annihilates(v) is all(x.is_zero() for x in M.mul_vec(v)),
    on kernel vectors, their combinations and random vectors of deficient
    and mixed-denominator matrices, and on a product whose one nonzero
    coordinate is the last power-basis coordinate of the last entry.  It
    refuses a vector of the wrong length and makes no Scalar from Scalar
    input."""
    rng = random.Random(4200 + field.degree)
    top = field.zeta() ** (field.degree - 1)
    corner = Matrix(field, [[0, 0], [0, top]])
    cases = [(corner, [field.zero(), field.one()]),
             (corner, [field.one(), field.zero()])]
    for nrows, ncols in ((5, 3), (3, 5), (4, 4), (4, 1)):
        for M in (_mixed_matrix(rng, field, nrows, ncols),
                  _random_matrix(rng, field, nrows, ncols,
                                 max(1, min(nrows, ncols) - 1), 4)):
            kernel = M.kernel_basis()
            cases += [(M, v) for v in kernel]
            cases.append((M, [sum((_random_entry(rng, field) * x
                                   for x in col), field.zero())
                              for col in zip(*kernel)] if kernel else
                          [field.zero()] * ncols))
            cases.append((M, [_random_entry(rng, field)
                              for _ in range(ncols)]))
    verdicts = [all(x.is_zero() for x in M.mul_vec(v)) for M, v in cases]
    assert True in verdicts and False in verdicts
    made = []
    monkeypatch.setattr(Scalar, "_make", classmethod(
        lambda cls, *args, **kwargs: made.append(args)))
    assert [M.annihilates(v) for M, v in cases] == verdicts
    assert made == []
    monkeypatch.undo()
    for M, v in cases:
        for vec in (v + [field.one()], v[:-1]):
            with pytest.raises(ValueError, match="shape mismatch"):
                M.annihilates(vec)


def test_prime_maps_every_supported_field():
    """PRIME is prime and 1 mod every supported N, and where zeta_N is not
    rational, the field's image of it is a root of Phi_N of order N mod
    PRIME, so reduction is a ring map."""
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(PRIME) and PRIME.bit_length() <= 64
    for n in SUPPORTED_ORDERS:
        assert (PRIME - 1) % n == 0
        f = FieldSpec(n)
        if f.degree == 1:
            assert f._zeta_mod_p == [1]
            continue
        w = f._zeta_mod_p[1]
        assert f._zeta_mod_p == [pow(w, k, PRIME) for k in range(f.degree)]
        assert sum(c * pow(w, k, PRIME)
                   for k, c in enumerate(f.minimal_polynomial)) % PRIME == 0
        assert pow(w, n, PRIME) == 1
        assert all(pow(w, n // q, PRIME) != 1
                   for q in range(2, n + 1) if n % q == 0)


# -- polynomial helpers -------------------------------------------------------
#
# padd, psub and pmul are the schoolbook reference for the package's one
# polynomial product, the series product: for TruncatedSeries.__mul__ below,
# and for the builder's norm and test_builder._times.

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


def _random_coefficient(rng, field):
    """A Fraction over Q (the helpers are coefficient-generic), a Scalar
    otherwise; about one in four is zero."""
    parts = [F(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.75
             else F(0) for _ in range(field.degree)]
    return parts[0] if field is Q else Scalar(field, parts)


def _random_polys(seed, field, count=40, max_degree=7):
    rng = random.Random(seed)
    for _ in range(count):
        a = [_random_coefficient(rng, field)
             for _ in range(rng.randint(0, max_degree + 1))]
        # a monic divisor, as pdivmod requires
        b = ptrim([_random_coefficient(rng, field)
                   for _ in range(rng.randint(0, 4))]) + \
            [F(1) if field is Q else field.one()]
        x = _random_coefficient(rng, field)
        yield a, b, x


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q(zeta_3)"])
def test_pdivmod_identity(field):
    for a, b, _ in _random_polys(11, field):
        q, r = pdivmod(a, b)
        assert padd(pmul(q, b), r) == ptrim(list(a))
        assert len(r) < len(b)
        assert q == ptrim(list(q)) and r == ptrim(list(r))
        assert psub(padd(a, b), b) == ptrim(list(a))


def _sympy_poly(sympy, poly, x, z):
    def scalar(c):
        parts = [c] if isinstance(c, F) else _coeffs(c)
        return sum(sympy.Rational(p.numerator, p.denominator) * z ** k
                   for k, p in enumerate(parts))
    return sympy.sympify(sum(scalar(c) * x ** i for i, c in enumerate(poly)))


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q(zeta_3)"])
def test_pmul_peval_match_sympy(field):
    sympy = pytest.importorskip("sympy")
    x, z = sympy.symbols("x z")

    def reduced(expr):
        return sympy.rem(sympy.expand(expr), z ** 2 + z + 1, z) \
            if field is Q3 else sympy.expand(expr)

    def same(expr, poly):
        assert sympy.expand(reduced(expr) - _sympy_poly(sympy, poly, x, z)) \
            == 0

    for a, b, value in _random_polys(12, field):
        sa, sb = _sympy_poly(sympy, a, x, z), _sympy_poly(sympy, b, x, z)
        same(sa * sb, pmul(a, b))
        same(sa.subs(x, _sympy_poly(sympy, [value], x, z)),
             [peval(a, value)])
        # the series product at a window past the degree is pmul
        n = len(a) + len(b)
        product = TruncatedSeries(field, 0, a, n) * \
            TruncatedSeries(field, 0, b, n)
        want = [field.scalar(c) for c in pmul(a, b)]
        assert product.coefficients_in(0, n - 1) == \
            want + [field.zero()] * (n - 1 - len(want))


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(13)
    for trial in range(40):
        poly = [F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))]
        for _ in range(rng.randint(0, 5)):
            root = F(rng.randint(-6, 6), rng.randint(1, 6))
            # a non-monic factor (q x - p) moves the root's denominator
            # into the leading coefficient
            k = rng.randint(1, 3)
            poly = pmul(poly, [-root * k, F(k)])
        if trial % 3 == 0:
            poly = pmul(poly, [F(rng.choice([2, 3, 5])), F(0), F(-1)]
                        if trial % 2 else [F(1), F(0), F(1)])
        den = lcm(*(c.denominator for c in poly))
        found = _rational_roots([int(c * den) for c in poly])
        expected = sorted(r for r in sympy.roots(
            sympy.Poly(list(reversed(poly)), x)) if r.is_rational)
        assert all(q > 0 and gcd(p, q) == 1 for p, q in found)
        assert [sympy.Rational(p, q) for p, q in found] == expected


# -- the integer representation against an independent oracle -----------------

def _random_element(rng, field, digits):
    """Numerators and denominators below 10^digits; about one coordinate in
    four is zero, and at least one is not."""
    def part():
        if rng.random() < 0.25:
            return F(0)
        return F(rng.randint(1 - 10 ** digits, 10 ** digits - 1) or 1,
                 rng.randint(1, 10 ** digits - 1))
    x = Scalar(field, [part() for _ in range(field.degree)])
    return x if x else field.scalar(F(rng.randint(1, 10 ** digits - 1), 7))


def _at_limit(rng, field):
    """An element whose every coordinate is a random p/q, p and q of one
    length, and whose string is as long as MAX_SCALAR_LENGTH allows."""
    digits = MAX_SCALAR_LENGTH // (2 * field.degree)
    while True:
        low, high = 10 ** (digits - 1), 10 ** digits - 1
        x = Scalar(field, [F(rng.choice((-1, 1)) * rng.randint(low, high),
                             rng.randint(low, high))
                           for _ in range(field.degree)])
        if len(x.to_string()) <= MAX_SCALAR_LENGTH:
            return x
        digits -= 1


def _samples(order):
    """Seeded elements at small heights and one at the scalar length limit."""
    rng = random.Random(1000 + order)
    field = FieldSpec(order)
    return [_random_element(rng, field, digits) for digits in (1, 1, 3, 40)] \
        + [_at_limit(rng, field)]


def _fraction_string(x):
    """Reference: to_string through a Fraction per coordinate."""
    terms = []
    for k, c in enumerate(F(n, x.den) for n in x.num):
        if c:
            terms.append(str(c) if k == 0 else f"{c}*z" if k == 1 else
                         f"{c}*z^{k}")
    return " + ".join(terms) if terms else "0"


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_to_string_matches_fraction_reference(order):
    """The samples and their negatives, each with one coordinate zeroed in
    turn, integers, unit fractions on z^k, and zero."""
    field = FieldSpec(order)
    xs = _samples(order)
    xs += [-x for x in xs]
    xs += [Scalar(field, [0 if i == k else c
                          for i, c in enumerate(_coeffs(x))])
           for x in xs for k in range(field.degree)]
    xs += [field.zero(), field.scalar(-7), field.scalar(F(-3, 4))]
    xs += [Scalar(field, [F(1, k + 2) if i == k else 0
                          for i in range(field.degree)])
           for k in range(field.degree)]
    for x in xs:
        assert x.to_string() == _fraction_string(x)


def _unit_fractions_at_limit(rng, field):
    """sum_k 1/q_k * z^k with q_k = k*M + 1 for k = 1 .. degree, as long as
    MAX_SCALAR_LENGTH allows.  M is a multiple of 27720 = lcm(1, ..., 11), so
    the q_k are pairwise coprime (a prime dividing q_j and q_k divides
    k - j < 12, hence M) and the common denominator, their product, is about
    as long as the whole string, near the most an accepted string can give."""
    digits = MAX_SCALAR_LENGTH // field.degree
    while True:
        m = 27720 * rng.randint(10 ** (digits - 6), 10 ** (digits - 5))
        x = Scalar(field, [F(1, k * m + 1)
                           for k in range(1, field.degree + 1)])
        if len(x.to_string()) <= MAX_SCALAR_LENGTH:
            return x
        digits -= 1


@pytest.mark.parametrize("make", [_at_limit, _unit_fractions_at_limit])
def test_inverse_at_the_length_limit_is_fast(make):
    """Strings at the length limit in the largest field, with twelve
    distinct denominators: p/q coordinates with p and q of one length (a
    common denominator of about half the string), and unit fractions over
    coprime denominators (one of about the whole string).  Parsing and
    inverting them take about 0.3 s and 0.6 s (Python 3.11, one x86-64
    core)."""
    field = FieldSpec(13)
    text = make(random.Random(13), field).to_string()
    assert MAX_SCALAR_LENGTH - 100 < len(text) <= MAX_SCALAR_LENGTH
    start = time.process_time()
    x = Scalar.from_string(field, text)
    inv = x.inverse()
    elapsed = time.process_time() - start
    assert len({c.denominator for c in _coeffs(x)}) == field.degree
    assert min(c.denominator for c in _coeffs(x)) > 1
    assert x * inv == field.one()
    assert elapsed < 2


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert len(x.num) == x.field.degree
    assert all(type(c) is int for c in (x.den, *x.num))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_arithmetic_matches_sympy(order):
    """Products, inverses and conjugates are checked in sympy's integer
    polynomials modulo Phi_N (rationals are slow there at 4000 digits)."""
    sympy = pytest.importorskip("sympy")
    z = sympy.symbols("z")
    field = FieldSpec(order)
    phi = sympy.Poly(sympy.cyclotomic_poly(order, z), z, domain="ZZ")

    def poly(x):
        return sympy.Poly(list(reversed(x.num)), z, domain="ZZ")

    def same(x, expected, scale):
        """x is expected / scale modulo Phi_N."""
        assert (poly(x) * scale - expected * x.den).rem(phi).is_zero

    units = [a for a in range(1, max(order, 2)) if gcd(a, order) == 1]
    xs = _samples(order)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        product = x * y
        same(product, poly(x) * poly(y), x.den * y.den)
        for a in units:
            same(x.galois(a), poly(x).compose(sympy.Poly(z ** a, z)), x.den)
        # the inverse is unique: its product with x, in sympy, is 1
        inv = x.inverse()
        same(field.one(), poly(x) * poly(inv), x.den * inv.den)
        assert x * inv == field.one()
        for r in (product, x + y, x - y, x.galois(units[-1]), inv):
            _assert_canonical(r)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_canonical_form_and_hash(order):
    field = FieldSpec(order)
    xs = _samples(order)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        _assert_canonical(x)
        # one value, several routes: identical numerator and denominator
        parsed = Scalar.from_string(field, x.to_string())
        assert parsed.to_string() == x.to_string()
        routes = [parsed, x + y - y, Scalar(field, _coeffs(x)), -(-x),
                  x * 3 / 3, y * x / y]
        if x is not xs[-1]:
            # the inverse of the limit element is about 12 times its height,
            # far above what the loader reads; inverting that again takes
            # about 13 s in Q(zeta_13)
            routes.append(x.inverse().inverse())
        for r in routes:
            assert (r.num, r.den) == (x.num, x.den)
            assert hash(r) == hash(x)
    zero = xs[0] - xs[0]
    assert (zero.num, zero.den) == ((0,) * field.degree, 1)
    assert zero == field.zero() == 0 and not zero


def test_hash_agrees_with_equality():
    """ints and Scalars that compare equal find each other as set members
    and dict keys; irrational elements keep apart from rationals."""
    Q5 = FieldSpec(5)
    for field in (Q, Q3, Q5):
        for value in (0, 1, -7):
            x = field.scalar(value)
            assert x == value and hash(x) == hash(value)
            assert value in {x} and x in {value}
            assert {value: "v"}[x] == "v" and {x: "x"}[value] == "x"
        for value in (0, 1, -7, F(1, 2), F(-22, 7)):
            x = field.scalar(value)
            assert x in {Scalar(field, [value] + [0] * (field.degree - 1))}
            assert {x: "x"}[field.one() * value.numerator /
                            value.denominator] == "x"
        z = field.zeta()
        if field.degree > 1:
            assert z not in {1, -1, field.scalar(F(1, 2))}
            assert {z: 1, z * z: 2, z + 1: 3}[z * z * z / z] == 2
    assert len({1, Q.one(), Q.scalar(F(3, 3)), Q.scalar(4) / 4}) == 1

import random
from fractions import Fraction as F

import pytest

from ellprym.errors import DivisionByZero, FieldError, NotAnNthPower, ParseError
from ellprym.scalars import (FieldSpec, Matrix, Scalar, integer_nth_root,
                             rational_nth_root)

Q = FieldSpec(1)
Q3 = FieldSpec(3)


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


def test_galois_conjugation():
    z = Q3.zeta()
    s = Q3.scalar(2) + z
    conj = s.galois(2)
    assert conj == Q3.scalar(2) + z * z
    # the product of conjugates is rational (the norm)
    assert (s * conj).is_rational()


def test_serialization_round_trip():
    s = Q3.from_coefficients([F(1, 2), F(-2, 3)])
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
    assert rational_nth_root(F(8, 27), 3) == F(2, 3)
    assert rational_nth_root(F(-8), 3) == F(-2)
    assert rational_nth_root(F(2), 2) is None
    assert rational_nth_root(F(-4), 2) is None
    assert integer_nth_root(10 ** 12, 2) == 10 ** 6


def test_designated_root_errors():
    with pytest.raises(NotAnNthPower):
        Q3.zeta().nth_root_rational(3)
    with pytest.raises(NotAnNthPower):
        Q3.scalar(2).nth_root_rational(3)
    assert Q3.scalar(-8).nth_root_rational(3) == Q3.scalar(-2)


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
        return Q3.from_coefficients([F(rng.randint(-9, 9), rng.randint(1, 9))
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
    # refused from the text: 10^99999999 is never built
    for text in ("1e999999", "1e99999999", "1e-4001", "7" * 4001,
                 "1/" + "3" * 4001, "2.5e4000"):
        with pytest.raises(ParseError, match="longer than 4000 digits"):
            Scalar.from_string(FieldSpec(1), text)
    with pytest.raises(ParseError):
        Scalar.from_string(FieldSpec(3), "1 + 1e5000*z")
    for text in ("1e3999", "9" * 4000, "1/" + "3" * 4000, "2.5e3998"):
        s = Scalar.from_string(FieldSpec(1), text)
        assert Scalar.from_string(FieldSpec(1), s.to_string()) == s

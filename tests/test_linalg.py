from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.fields import GF, QQ
from quasihopf.linalg import LinMap, Mat, flat_index, prod, solve, unflatten

entries = st.fractions(min_value=-10, max_value=10, max_denominator=10)


def sq_mats(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda r: Mat(QQ, r, n))


def test_flat_index_roundtrip():
    dims = (2, 3, 4)
    for f in range(prod(dims)):
        assert flat_index(dims, unflatten(dims, f)) == f


def test_flat_index_row_major():
    # the left factor is the most significant digit
    assert flat_index((2, 3), (1, 2)) == 5
    assert unflatten((2, 3), 5) == (1, 2)


@given(sq_mats(3), sq_mats(3), sq_mats(3))
@settings(max_examples=30)
def test_matmul_associative(a, b, c):
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@given(sq_mats(3))
@settings(max_examples=30)
def test_identity_neutral(a):
    i = Mat.identity(QQ, 3)
    assert i.mul(a) == a
    assert a.mul(i) == a


@given(sq_mats(3))
@settings(max_examples=50)
def test_inverse(a):
    if a.rank() < 3:
        with pytest.raises(ValueError):
            a.inv()
    else:
        assert a.mul(a.inv()).is_identity()
        assert a.inv().mul(a).is_identity()


@given(sq_mats(3), st.lists(entries, min_size=3, max_size=3))
@settings(max_examples=50)
def test_solve_consistent(a, x):
    b = a.vec(x)
    got = solve(a, b)
    assert got is not None
    assert a.vec(got) == list(b)


def test_solve_inconsistent():
    a = Mat(QQ, [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]])
    assert solve(a, [Fraction(1), Fraction(2)]) is None


def test_kron_against_direct():
    a = Mat(QQ, [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    b = Mat(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    k = a.kron(b)
    assert k.nrows == 4 and k.ncols == 4
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for c in range(2):
                    assert (k.rows[2 * i + r][2 * j + c]
                            == a.rows[i][j] * b.rows[r][c])


def test_kron_mixes_with_mul():
    a = Mat(QQ, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(2)]])
    b = Mat(QQ, [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]])
    # (a x b)(a' x b') = aa' x bb'
    assert a.kron(b).mul(b.kron(a)) == a.mul(b).kron(b.mul(a))


def test_prime_field_matrices():
    F = GF(5)
    a = Mat(F, [[1, 2], [3, 4]])
    inv = a.inv()
    assert a.mul(inv).is_identity()
    assert a.rank() == 2


def test_transpose_and_sparse_col():
    a = Mat(QQ, [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(3)]])
    assert a.transpose().rows == [[Fraction(1), Fraction(2)],
                                  [Fraction(0), Fraction(3)]]
    assert a.sparse_col(0) == [(0, Fraction(1)), (1, Fraction(2))]
    assert a.sparse_col(1) == [(1, Fraction(3))]


def test_linmap_shape_check():
    m = Mat.identity(QQ, 6)
    lm = LinMap(m, (2, 3), (6,))
    assert lm.in_dims == (2, 3) and lm.out_dims == (6,)
    with pytest.raises(ValueError):
        LinMap(m, (2, 2), (6,))


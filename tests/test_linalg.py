from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.fields import GF, QQ
from quasihopf.linalg import (LinMap, flat_index, linmap_from_columns, prod,
                              solve, unflatten)
from quasihopf.serialize import map_from_json
from quasihopf.tensors import Program, TensorElt, Var, linmap_from_program

entries = st.fractions(min_value=-10, max_value=10, max_denominator=10)


# -- reference: dense Gauss-Jordan on field scalars -------------------------
#
# Fractions over QQ (p is None), residues over GF(p); the row operations
# are those of the dense matrix class the integer elimination replaced.

def _ops(p):
    if p is None:
        return (lambda a, b: a - b), (lambda a, b: a * b), (lambda a: 1 / a)
    return ((lambda a, b: (a - b) % p), (lambda a, b: a * b % p),
            (lambda a: pow(a, -1, p)))


def _scalars(p, rows):
    if p is None:
        return [[Fraction(c) for c in row] for row in rows]
    return [[c % p for c in row] for row in rows]


def ref_rank(p, rows):
    sub, mul, inv = _ops(p)
    a = _scalars(p, rows)
    nrows, ncols = len(a), len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv_p = inv(a[rank][col])
        a[rank] = [mul(x, inv_p) for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][col] != 0:
                c = a[r][col]
                a[r] = [sub(x, mul(c, y)) for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def ref_inv(p, rows):
    """The inverse matrix; ValueError when singular or not square."""
    sub, mul, inv = _ops(p)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("only square matrices are invertible")
    a = _scalars(p, rows)
    b = _scalars(p, [[int(i == j) for j in range(n)] for i in range(n)])
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        inv_p = inv(a[col][col])
        a[col] = [mul(x, inv_p) for x in a[col]]
        b[col] = [mul(x, inv_p) for x in b[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                c = a[r][col]
                a[r] = [sub(x, mul(c, y)) for x, y in zip(a[r], a[col])]
                b[r] = [sub(x, mul(c, y)) for x, y in zip(b[r], b[col])]
    return b


def ref_solve(p, rows, b):
    """A solution of A x = b with free variables 0, or None."""
    sub, mul, inv = _ops(p)
    aug = _scalars(p, [list(r) + [bv] for r, bv in zip(rows, b)])
    n, m = len(rows), len(rows[0])
    pivots = []
    for col in range(m):
        rank = len(pivots)
        piv = next((r for r in range(rank, n) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv_p = inv(aug[rank][col])
        aug[rank] = [mul(x, inv_p) for x in aug[rank]]
        for r in range(n):
            if r != rank and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [sub(x, mul(c, y)) for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
    if any(aug[r][m] != 0 for r in range(len(pivots), n)):
        return None
    x = [Fraction(0) if p is None else 0] * m
    for r, col in enumerate(pivots):
        x[col] = aug[r][m]
    return x


def ref_matmul(p, a, b):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
           for row in a]
    return out if p is None else [[c % p for c in row] for row in out]


# -- dense views of maps ---------------------------------------------------

def linmap_from_rows(field, rows, in_dims=None, out_dims=None):
    """The LinMap whose (flat) matrix has the given rows of scalars."""
    in_dims = in_dims or (len(rows[0]),)
    out_dims = (len(rows),) if out_dims is None else out_dims
    return linmap_from_columns(field, in_dims, out_dims, {
        unflatten(in_dims, j): {unflatten(out_dims, i): row[j]
                                for i, row in enumerate(rows)}
        for j in range(prod(in_dims))})


def basis_vars(dims):
    return [Var(f"x{s}", d) for s, d in enumerate(dims)]


def compose(f, g):
    """f o g, read off the slot program g then f."""
    xs = basis_vars(g.in_dims)
    return linmap_from_program(
        Program.basis(g.field, *xs).apply_at(0, g).apply_at(0, f), xs)


def dense(lm):
    """The flat matrix of ``lm`` as rows of field scalars."""
    cols = [TensorElt.basis(lm.field, lm.in_dims, unflatten(lm.in_dims, j))
            .apply_at(0, lm).to_flat() for j in range(prod(lm.in_dims))]
    return [list(row) for row in zip(*cols)]


def identity(field, n):
    return linmap_from_rows(field, [[int(i == j) for j in range(n)]
                                    for i in range(n)])


def sq_maps(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
                        lambda r: linmap_from_rows(QQ, r))


# -- flat indexing ---------------------------------------------------------

def test_flat_index_roundtrip():
    dims = (2, 3, 4)
    for f in range(prod(dims)):
        assert flat_index(dims, unflatten(dims, f)) == f


def test_flat_index_row_major():
    # the left factor is the most significant digit
    assert flat_index((2, 3), (1, 2)) == 5
    assert unflatten((2, 3), 5) == (1, 2)


# -- composition and Kronecker products through apply_at -------------------

@given(sq_maps(3), sq_maps(3), sq_maps(3))
@settings(max_examples=30)
def test_matmul_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert dense(compose(a, b)) == ref_matmul(None, dense(a), dense(b))


@given(sq_maps(3))
@settings(max_examples=30)
def test_identity_neutral(a):
    i = identity(QQ, 3)
    assert i.is_identity()
    assert compose(i, a) == a
    assert compose(a, i) == a


@given(sq_maps(3))
@settings(max_examples=50)
def test_inverse(a):
    inv = a.inverse()
    if a.rank() < 3:
        assert inv is None
    else:
        assert compose(a, inv).is_identity()
        assert compose(inv, a).is_identity()
        assert dense(inv) == ref_inv(None, dense(a))


@given(sq_maps(3), st.lists(entries, min_size=3, max_size=3))
@settings(max_examples=50)
def test_solve_consistent(a, x):
    # the integer rows den * A and the right-hand side den * D * b,
    # with b = A x and D the lcm of the denominators of b
    rows = [[c * a.den for c in row] for row in dense(a)]
    b = [sum(r * c for r, c in zip(row, x)) for row in dense(a)]
    D = lcm(*(c.denominator for c in b))
    got = solve(None, [[int(c) for c in row] for row in rows],
                [[int(c * a.den * D)] for c in b])
    assert got is not None
    den, y = got
    y = [Fraction(c[0], den * D) for c in y]
    assert ref_matmul(None, dense(a), [[c] for c in y]) == [[c] for c in b]


def test_solve_inconsistent():
    assert solve(None, [[1, 0], [1, 0]], [[1], [2]]) is None
    assert solve(5, [[1, 0], [1, 0]], [[1], [2]]) is None


def _kron(a, b):
    """a (x) b on two slots, through apply_at."""
    xs = basis_vars(a.in_dims + b.in_dims)
    return linmap_from_program(
        Program.basis(a.field, *xs).apply_at(0, a).apply_at(1, b), xs)


def test_kron_against_direct():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    b = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    k = dense(_kron(linmap_from_rows(QQ, a), linmap_from_rows(QQ, b)))
    assert len(k) == 4 and len(k[0]) == 4
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for c in range(2):
                    assert k[2 * i + r][2 * j + c] == a[i][j] * b[r][c]


def test_kron_mixes_with_mul():
    a = linmap_from_rows(QQ, [[1, 1], [0, 2]])
    b = linmap_from_rows(QQ, [[2, 0], [1, 1]])
    # (a x b)(b x a) = ab x ba
    assert compose(_kron(a, b), _kron(b, a)) \
        == _kron(compose(a, b), compose(b, a))


def test_prime_field_matrices():
    F = GF(5)
    a = linmap_from_rows(F, [[1, 2], [3, 4]])
    inv = a.inverse()
    assert compose(a, inv).is_identity()
    assert dense(inv) == ref_inv(5, [[1, 2], [3, 4]])
    assert a.rank() == 2
    assert linmap_from_rows(F, [[1, 2], [3, 6]]).inverse() is None


def test_transpose_and_sparse_col():
    # the sparse columns of a map are the rows of its transpose
    rows = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(3)]]
    a = linmap_from_rows(QQ, rows)
    at = linmap_from_rows(QQ, [list(c) for c in zip(*rows)])
    assert a.den == 1 and at.den == 1
    assert a.cols == {0: [(0, 1), (1, 2)], 1: [(1, 3)]}
    assert at.cols == {0: [(0, 1)], 1: [(0, 2), (1, 3)]}
    half = linmap_from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)]])
    assert half.den == 6 and half.cols == {0: [(0, 3)], 1: [(0, 2)]}


def test_linmap_shape_check():
    lm = identity(QQ, 6)
    cols = {unflatten((2, 3), j): col
            for j, col in enumerate(lm.cols.values())}
    assert LinMap(QQ, (2, 3), (6,), lm.den, cols).in_dims == (2, 3)
    with pytest.raises(ValueError):
        LinMap(QQ, (2, 2), (6,), lm.den, lm.cols)
    with pytest.raises(ValueError):
        Program.basis(QQ, Var("x", 2)).apply_at(0, lm)


def test_canonical_form():
    # equal maps are equal however their scalars were written
    def one_by_one(field, num, den):
        t = TensorElt.from_num(field, (1,), {0: num}, den)
        return linmap_from_columns(field, (1,), (1,), {(0,): t.terms})

    half = one_by_one(QQ, 1, 2)
    assert one_by_one(QQ, 2, 4) == half
    assert map_from_json(QQ, (1,), (1,), [["2/4"]]) == half
    assert linmap_from_rows(QQ, [[2]]).inverse() == half
    assert (half.den, half.cols) == (2, {0: [(0, 1)]})
    assert one_by_one(QQ, 2, 2).is_identity() and not half.is_identity()
    # den * A^-1 shares a factor with the denominator of the solve
    quarter = linmap_from_rows(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 4)]])
    assert quarter.inverse() == linmap_from_rows(QQ, [[2, 0], [0, 4]])
    F = GF(7)
    two = one_by_one(F, 2, 1)
    assert one_by_one(F, 9, 1) == two
    assert map_from_json(F, (1,), (1,), [["9"]]) == two
    assert linmap_from_rows(F, [[4]]).inverse() == two
    assert (two.den, two.cols) == (1, {0: [(0, 2)]})


# -- the integer elimination against the reference -------------------------

def qq_scalars():
    """Mixed denominators, many zeros."""
    return st.one_of(st.just(0), st.just(0), st.integers(-4, 4),
                     st.builds(Fraction, st.integers(-6, 6),
                               st.sampled_from([2, 3, 4, 6, 9])))


def _int_system(rows, b):
    """Integer rows and right-hand side with the solutions of A x = b:
    each row is scaled by the lcm of its denominators."""
    a_int, b_int = [], []
    for row, bv in zip(rows, b):
        L = lcm(*(Fraction(c).denominator for c in row + [bv]))
        a_int.append([int(Fraction(c) * L) for c in row])
        b_int.append([int(Fraction(bv) * L)])
    return a_int, b_int


@given(data=st.data(), p=st.sampled_from([None, 5, 7]))
@settings(max_examples=300, deadline=None)
def test_elimination_matches_reference(data, p):
    n = data.draw(st.integers(1, 5), label="rows")
    m = data.draw(st.integers(1, 5), label="cols")
    # over GF(p): unreduced ints, negatives included
    scalar = qq_scalars() if p is None else st.integers(-3 * p, 3 * p)
    if data.draw(st.booleans(), label="low rank"):
        # a product through r < min(n, m) columns is singular
        r = data.draw(st.integers(0, min(n, m) - 1), label="r")
        left = data.draw(st.lists(st.lists(scalar, min_size=r, max_size=r),
                                  min_size=n, max_size=n), label="left")
        right = data.draw(st.lists(st.lists(scalar, min_size=m, max_size=m),
                                   min_size=r, max_size=r), label="right")
        rows = [[sum((Fraction(x) * y for x, y in zip(lrow, col)),
                     Fraction(0)) for col in zip(*right)] if r else [0] * m
                for lrow in left]
        if p is not None:
            rows = [[int(c) for c in row] for row in rows]
    else:
        rows = data.draw(st.lists(st.lists(scalar, min_size=m, max_size=m),
                                  min_size=n, max_size=n), label="A")
    b = data.draw(st.lists(scalar, min_size=n, max_size=n), label="b")
    field = QQ if p is None else GF(p)

    a_int, b_int = _int_system(rows, b)
    got = solve(p, a_int, b_int)
    want = ref_solve(p, rows, b)
    if want is None:
        assert got is None
    else:
        den, x = got
        assert den > 0 and all(type(c[0]) is int for c in x)
        assert [Fraction(c[0], den) if p is None else c[0] for c in x] == want
        if p is not None:
            assert den == 1 and all(0 <= c[0] < p for c in x)

    lm = linmap_from_rows(field, rows)
    assert lm.rank() == ref_rank(p, rows)
    try:
        want_inv = ref_inv(p, rows)
    except ValueError:
        assert lm.inverse() is None
    else:
        assert dense(lm.inverse()) == want_inv


def test_solve_free_variables_and_zero_rows():
    # free variables are set to zero, and a zero row of A with a nonzero
    # right-hand side is inconsistent
    assert solve(None, [[2, 4, 6]], [[3]]) == (2, [[3], [0], [0]])
    assert solve(None, [[0, 0], [1, 1]], [[0], [5]]) == (1, [[5], [0]])
    assert solve(None, [[0, 0], [1, 1]], [[1], [5]]) is None
    assert solve(7, [[3, 6], [1, 2]], [[1], [5]]) == (1, [[5], [0]])

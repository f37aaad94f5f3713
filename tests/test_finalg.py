from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.corpus import group_algebra_z2, sweedler4
from quasihopf.fields import GF, QQ
from quasihopf.finalg import (FinAlgebra, Report, VerificationError,
                              algebra_from_pair_fn, check_algebra_map,
                              invert_element, opposite, tensor_algebra,
                              tensor_power, verify_associative_unital)
from quasihopf.linalg import Mat
from quasihopf.tensors import TensorElt


def z2():
    return group_algebra_z2().H


def h4():
    return sweedler4().H


def test_report_accumulates():
    rep = Report()
    assert rep.ok
    rep.check(True, "fine")
    assert rep.ok
    rep.check(False, "broken", "detail")
    assert not rep.ok
    assert rep.failures == ["broken: detail"]
    with pytest.raises(VerificationError):
        rep.require("context")


def test_multiply_and_elements():
    A = h4()
    g, x = A.basis_element(2), A.basis_element(1)
    assert g * g == A.one()
    assert x * x == A.zero()
    # xg = -gx
    gx = A.basis_element(3)
    assert x * g == gx.scale(Fraction(-1))


def test_verify_flags_broken_unit():
    A = z2()
    bad = FinAlgebra(QQ, A.mul, [Fraction(0), Fraction(1)], check=False)
    rep = verify_associative_unital(bad)
    assert not rep.ok
    assert any("unit" in f for f in rep.failures)


def test_verify_flags_nonassociative():
    one, zero = Fraction(1), Fraction(0)
    mul = [[[zero, one], [one, zero]], [[one, zero], [one, zero]]]
    bad = FinAlgebra(QQ, mul, [one, zero], check=False)
    assert not verify_associative_unital(bad).ok


def test_opposite():
    A = h4()
    Aop = opposite(A)
    assert verify_associative_unital(Aop).ok
    for i in range(4):
        for j in range(4):
            assert (Aop.mul[i][j] == A.mul[j][i])
    # xg = -gx distinguishes A from Aop
    assert Aop.mul != A.mul


def test_tensor_algebra_and_power():
    A, B = z2(), h4()
    T = tensor_algebra(A, B)
    assert T.dim == 8
    assert verify_associative_unital(T).ok
    # (a x b)(a' x b') = aa' x bb' on basis pairs
    for i in range(2):
        for j in range(4):
            for k in range(2):
                for l in range(4):
                    lhs = T.multiply(
                        TensorElt.basis(QQ, (2, 4), (i, j))
                        .merge_slots((2,)).to_flat(),
                        TensorElt.basis(QQ, (2, 4), (k, l))
                        .merge_slots((2,)).to_flat())
                    a = A.multiply(A.basis_element(i).coords,
                                   A.basis_element(k).coords)
                    b = B.multiply(B.basis_element(j).coords,
                                   B.basis_element(l).coords)
                    want = TensorElt.from_flat(QQ, (2,), a).tensor(
                        TensorElt.from_flat(QQ, (4,), b))
                    assert list(lhs) == list(want.merge_slots((2,)).to_flat())
    sq = tensor_power(A, 2)
    assert sq.dim == 4
    assert verify_associative_unital(sq).ok


def test_invert_element():
    A = z2()
    g = A.basis_element(1)
    inv = invert_element(A, g)
    assert inv * g == A.one()
    x = h4().basis_element(1)
    assert invert_element(h4(), x) is None


def test_check_algebra_map():
    A = h4()
    ident = Mat.identity(QQ, 4)
    assert check_algebra_map(ident, A, A, anti=False, unital=True).ok
    S = sweedler4().S.mat
    # the antipode is an anti-map, not a map (xg != gx in H4)
    assert check_algebra_map(S, A, A, anti=True, unital=True).ok
    assert not check_algebra_map(S, A, A, anti=False, unital=True).ok


def test_algebra_from_pair_fn():
    A = z2()

    def pair(idx_i, idx_j):
        return TensorElt.basis(QQ, (2,), ((idx_i[0] + idx_j[0]) % 2,))

    alg = algebra_from_pair_fn(QQ, (2,), pair,
                               TensorElt.basis(QQ, (2,), (0,)), check=True)
    assert alg.mul == A.mul


def test_prime_field_algebra():
    F = GF(5)
    one, zero = F.one(), F.zero()
    mul = [[[one if k == (i + j) % 3 else zero for k in range(3)]
            for j in range(3)] for i in range(3)]
    A = FinAlgebra(F, mul, [one, zero, zero], check=True)
    assert verify_associative_unital(A).ok


# -- the associativity scan against a dense per-triple reference -----------

def dense_defects(A, limit=None):
    """Triples where (e_i e_j) e_k != e_i (e_j e_k), both sides recomputed
    densely in Fraction per triple and compared exactly or mod p."""
    n, p, m = A.dim, A.field.p, A.mul
    bad = []
    for i, j, k in product(range(n), repeat=3):
        left = [sum(Fraction(m[i][j][l]) * m[l][k][t] for l in range(n))
                for t in range(n)]
        right = [sum(Fraction(m[j][k][l]) * m[i][l][t] for l in range(n))
                 for t in range(n)]
        if p is None:
            differ = left != right
        else:
            differ = any((a - b) % p for a, b in zip(left, right))
        if differ:
            bad.append((i, j, k))
            if limit is not None and len(bad) >= limit:
                break
    return bad


def scan_defects(A, limit=None):
    rep = verify_associative_unital(A, limit=limit)
    return [f for f in rep.failures if f.startswith("associativity")]


def as_failures(triples):
    return [f"associativity: (e_{i} e_{j}) e_{k} != e_{i} (e_{j} e_{k})"
            for i, j, k in triples]


def _base_tables():
    """(mul, unit) of small associative algebras, entries 0, 1 and -1."""
    z3 = [[[int(k == (i + j) % 3) for k in range(3)] for j in range(3)]
          for i in range(3)]
    # 2x2 matrix units E_ab, basis index 2a + b: E_ab E_cd = [b == c] E_ad
    mat2 = [[[int(b == c and k == 2 * a + d) for k in range(4)]
             for c in range(2) for d in range(2)]
            for a in range(2) for b in range(2)]
    # k + m with m^2 = 0
    km = [[[int(k == i + j) if 0 in (i, j) else 0 for k in range(3)]
           for j in range(3)] for i in range(3)]
    sw = [[[int(c) for c in row] for row in plane] for plane in h4().mul]
    return [(z3, [1, 0, 0]), (mat2, [1, 0, 0, 1]), (km, [1, 0, 0]),
            (sw, [int(c) for c in h4().unit])]


QQ_SCALARS = [0, 1, -1, 2, Fraction(1, 3), Fraction(-1, 6), Fraction(5, 6),
              Fraction(-3, 2)]


@st.composite
def scan_tables(draw, field):
    """A base algebra in a unitriangular change of basis, with int and
    Fraction entries side by side over QQ and unreduced entries over
    GF(p), optionally with one entry shifted."""
    mul, unit = draw(st.sampled_from(_base_tables()))
    rng = draw(st.randoms(use_true_random=False))
    n = len(mul)

    def entry(a, b):
        if a == b:
            return field.one()
        if a > b:
            return field.zero()
        if field.p is None:
            return Fraction(rng.choice(QQ_SCALARS))
        return rng.randrange(field.p)

    P = Mat(field, [[entry(a, b) for b in range(n)] for a in range(n)])
    Pinv = P.inv()
    cols = [[P.rows[a][i] for a in range(n)] for i in range(n)]

    def raw(c):
        if field.p is not None:
            return c + field.p * rng.randrange(3)
        return int(c) if c.denominator == 1 and rng.random() < 0.5 else c

    base = FinAlgebra(field, [[[field.of_int(c) for c in row] for row in pl]
                              for pl in mul],
                      [field.of_int(c) for c in unit], check=False)
    table = [[[raw(c) for c in Pinv.vec(base.multiply(cols[i], cols[j]))]
              for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        delta = draw(st.sampled_from(QQ_SCALARS[1:] if field.p is None
                                     else range(1, 2 * field.p)))
        table[i][j][k] = table[i][j][k] + delta
    return FinAlgebra(field, table, Pinv.vec(base.unit), check=False)


@given(scan_tables(QQ), st.sampled_from([None, 1, 3]))
@settings(max_examples=60, deadline=None)
def test_scan_matches_dense_reference_qq(A, limit):
    assert scan_defects(A, limit) == as_failures(dense_defects(A, limit))


@given(st.sampled_from([GF(5), GF(7)]).flatmap(scan_tables),
       st.sampled_from([None, 1, 3]))
@settings(max_examples=60, deadline=None)
def test_scan_matches_dense_reference_gfp(A, limit):
    assert scan_defects(A, limit) == as_failures(dense_defects(A, limit))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_scan_flags_the_single_broken_triple(field):
    # k + m with m^2 = 0 is associative; e_1 e_2 = c e_2 breaks only
    # (e_1 e_1) e_2 = 0 != c e_2 = e_1 (e_1 e_2)
    km, unit = _base_tables()[2]
    mul = [[[field.of_int(c) for c in row] for row in plane] for plane in km]
    assert scan_defects(FinAlgebra(field, mul, unit, check=False)) == []
    mul[1][2][2] = Fraction(1, 3) if field.p is None else 6
    A = FinAlgebra(field, mul, unit, check=False)
    assert dense_defects(A) == [(1, 1, 2)]
    assert scan_defects(A, limit=None) == as_failures([(1, 1, 2)])
    # an unreduced multiple of p is zero, so nothing breaks
    if field.p is not None:
        mul[1][2][2] = 2 * field.p
        assert scan_defects(FinAlgebra(field, mul, unit, check=False)) == []


# -- tensor_algebra against the dense construction -------------------------

def _dense_tensor_algebra(A, B, op_flags):
    """tensor_algebra as it was written on the dense tables."""
    fa = opposite(A) if op_flags[0] else A
    fb = opposite(B) if op_flags[1] else B
    na, nb = A.dim, B.dim
    n = na * nb
    fld = A.field
    zero = fld.zero()
    mul = []
    for ia in range(na):
        for ib in range(nb):
            plane = []
            for ja in range(na):
                row_a = fa.mul[ia][ja]
                for jb in range(nb):
                    row_b = fb.mul[ib][jb]
                    dense = [zero] * n
                    for ka, ca in enumerate(row_a):
                        if ca == 0:
                            continue
                        for kb, cb in enumerate(row_b):
                            if cb != 0:
                                dense[ka * nb + kb] = fld.mul(ca, cb)
                    plane.append(dense)
            mul.append(plane)
    unit = [zero] * n
    for ia, ca in enumerate(A.unit):
        for ib, cb in enumerate(B.unit):
            if ca != 0 and cb != 0:
                unit[ia * nb + ib] = fld.mul(ca, cb)
    return FinAlgebra(fld, mul, unit, check=False)


OP_FLAGS = list(product([False, True], repeat=2))


def _assert_same_tensor_algebra(A, B, op_flags):
    got = tensor_algebra(A, B, op_flags)
    want = _dense_tensor_algebra(A, B, op_flags)
    # repr compares entry for entry, the scalar types included
    assert repr(got.mul) == repr(want.mul)
    assert repr(got.unit) == repr(want.unit)
    # the seeded sparse rows are the ones the dense table gives
    assert got.sparse_rows() == FinAlgebra(
        want.field, want.mul, want.unit, check=False).sparse_rows()


@given(st.sampled_from([QQ, GF(5), GF(7)]).flatmap(
    lambda f: st.tuples(scan_tables(f), scan_tables(f))),
    st.sampled_from(OP_FLAGS))
@settings(max_examples=40, deadline=None)
def test_tensor_algebra_matches_dense_reference(pair, op_flags):
    _assert_same_tensor_algebra(*pair, op_flags)


@pytest.mark.parametrize("op_flags", OP_FLAGS)
def test_tensor_algebra_corpus_matches_dense_reference(op_flags):
    from quasihopf.corpus import cyclic_with_cocycle, twisted_z2
    _assert_same_tensor_algebra(twisted_z2().H, h4(), op_flags)
    fp = cyclic_with_cocycle(5, 2).H
    _assert_same_tensor_algebra(fp, fp, op_flags)

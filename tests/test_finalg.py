import re
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.corpus import group_algebra_z2, sweedler4
from quasihopf.fields import GF, MAX_MODULUS, QQ
from quasihopf.finalg import (FinAlgebra, Report, VerificationError,
                              algebra_from_program, algebra_map_checks,
                              invert_mixed, mul_linmap, opposite,
                              program_report, slotwise_unit, tensor_algebra,
                              verify_associative_unital)
from quasihopf.linalg import (linmap_from_columns, prod, reshape_map,
                              unflatten)
from quasihopf.tensors import Program, TensorElt, Var

from conftest import entries, entry
from test_linalg import identity, ref_inv, ref_matmul, ref_solve


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


def basis_vec(field, n, i):
    return [field.one() if k == i else field.zero() for k in range(n)]


def test_multiply_and_elements():
    A = h4()
    g, x, gx = (basis_vec(QQ, 4, i) for i in (2, 1, 3))
    assert A.multiply(g, g) == A.unit
    assert A.multiply(x, x) == [0] * 4
    # xg = -gx
    assert A.multiply(x, g) == [-c for c in gx]


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
    mul, mul_op = A.mul, Aop.mul
    for i in range(4):
        for j in range(4):
            assert mul_op[i][j] == mul[j][i]
    # xg = -gx distinguishes A from Aop
    assert Aop.mul != A.mul


def test_tensor_algebra_and_power():
    A, B = z2(), h4()
    T = tensor_algebra(A, B)
    assert T.dim == 8
    assert verify_associative_unital(T).ok
    # (a x b)(a' x b') = aa' x bb' on basis pairs
    flat = reshape_map(QQ, (2, 4), (8,))
    for i in range(2):
        for j in range(4):
            for k in range(2):
                for l in range(4):
                    lhs = T.multiply(
                        TensorElt.basis(QQ, (2, 4), (i, j))
                        .apply_at(0, flat).to_flat(),
                        TensorElt.basis(QQ, (2, 4), (k, l))
                        .apply_at(0, flat).to_flat())
                    a = A.multiply(basis_vec(QQ, 2, i), basis_vec(QQ, 2, k))
                    b = B.multiply(basis_vec(QQ, 4, j), basis_vec(QQ, 4, l))
                    want = TensorElt.from_flat(QQ, (2,), a).tensor(
                        TensorElt.from_flat(QQ, (4,), b))
                    assert list(lhs) == list(want.apply_at(0, flat).to_flat())
    sq = tensor_algebra(A, A)
    assert sq.dim == 4
    assert verify_associative_unital(sq).ok
    assert sq == tensor_algebra(opposite(A), opposite(A))


def test_invert_element():
    A = z2()
    g = TensorElt.basis(QQ, (2,), (1,))
    inv = invert_mixed(g, [A])
    assert inv.slotwise_mul(g, [A]) == slotwise_unit(QQ, [A])
    x = TensorElt.basis(QQ, (4,), (1,))
    assert invert_mixed(x, [h4()]) is None


def test_invert_mixed_with_fractional_unit():
    # Q[Z2] on the basis f0 = 2, f1 = g: den 2 (f1 f1 = f0 / 2) and the
    # unit (1/2, 0) has a denominator of its own
    A = FinAlgebra(QQ, [[[2, 0], [0, 2]], [[0, 2], [Fraction(1, 2), 0]]],
                   [Fraction(1, 2), 0])
    assert A.den == 2

    def elt(*v):
        return TensorElt.from_flat(QQ, (2,), v)

    # (2 + g)^-1 = (2 - g) / 3 and (1 + g/3)^-1 = (9/8)(1 - g/3)
    assert invert_mixed(elt(1, 1), [A]) == elt(Fraction(1, 3), Fraction(-1, 3))
    assert invert_mixed(elt(Fraction(1, 2), Fraction(1, 3)), [A]) \
        == elt(Fraction(9, 16), Fraction(-3, 8))
    assert invert_mixed(elt(Fraction(1, 2), 1), [A]) is None


# -- algebra-map checks against the hand-written loop ----------------------

def _old_algebra_map_failures(f, A, B, anti=False):
    """The multiplicative and unital lines of ``check_algebra_map`` as it
    was written: a loop over the flat integer columns of f = F / Df,
    both sides of f(e_i e_j) = f(e_i) f(e_j) scaled by Df^2 A.den B.den
    and compared as integers (mod p over GF(p)), every failing pair
    listed."""
    out = []
    n, p = A.dim, A.field.p
    cols = [None] * n
    for j, col in f.cols.items():
        cols[j] = col
    lscale, rscale = f.den * B.den, A.den
    for i in range(n):
        for j in range(n):
            diff = {}
            for k, c in A.rows[i][j]:
                for r, x in cols[k]:
                    diff[r] = diff.get(r, 0) + lscale * c * x
            left, right = (cols[j], cols[i]) if anti else (cols[i], cols[j])
            for r1, x1 in left:
                for r2, x2 in right:
                    for t, c in B.rows[r1][r2]:
                        diff[t] = diff.get(t, 0) - rscale * x1 * x2 * c
            if any(v if p is None else v % p for v in diff.values()):
                out.append(f"multiplicative: pair (e_{i}, e_{j})")
    image = TensorElt.from_flat(A.field, f.in_dims, A.unit).apply_at(0, f)
    if image != TensorElt.from_flat(B.field, f.out_dims, B.unit):
        out.append("unital: f(1) != 1")
    return out


def _base_algebra(field, table):
    mul, unit = table
    return FinAlgebra(field, [[[field.of_int(c) for c in row] for row in pl]
                              for pl in mul],
                      [field.of_int(c) for c in unit], check=False)


@st.composite
def algebra_maps(draw):
    """(label, f, A, algebras, anti, B): a map f from a base algebra A,
    checked in ``algebras`` (one per output slot, or one on the flat
    output) whose tensor product is the flat algebra B.  f is e_a ->
    phi(e_a) placed among units, phi the isomorphism onto A in a
    unitriangular change of basis; an anti-map goes to the opposite.
    Optionally f is doubled or one of its entries shifted."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    tables = _base_tables()
    A = _base_algebra(field, draw(st.sampled_from(tables)))
    C = _base_algebra(field, draw(st.sampled_from(tables[:3])))
    n = A.dim
    rng = draw(st.randoms(use_true_random=False))

    def entry(a, b):
        if a >= b:
            return field.of_int(int(a == b))
        if field.p is None:
            return Fraction(rng.choice(QQ_SCALARS))
        return rng.randrange(field.p)

    P = [[entry(a, b) for b in range(n)] for a in range(n)]
    Pinv = ref_inv(field.p, P)
    cols = [[P[a][i] for a in range(n)] for i in range(n)]

    def vec(v):
        return [row[0] for row in ref_matmul(field.p, Pinv, [[c] for c in v])]

    Bphi = FinAlgebra(field, [[vec(A.multiply(cols[i], cols[j]))
                               for j in range(n)] for i in range(n)],
                      vec(A.unit), check=False)
    anti = draw(st.booleans())
    if anti:
        Bphi = opposite(Bphi)
    shape = draw(st.sampled_from(["phi", "phi.1", "1.phi", "1.phi.1",
                                  "phi.1 flat"]))
    slots = {"phi": [Bphi], "phi.1": [Bphi, C], "1.phi": [C, Bphi],
             "1.phi.1": [C, Bphi, C], "phi.1 flat": [Bphi, C]}[shape]
    one = TensorElt.from_vector(field, C.unit)
    pos = int(shape.startswith("1"))
    images = {}
    for a in range(n):
        t = TensorElt.from_vector(field, vec(basis_vec(field, n, a)))
        for _ in range(pos):
            t = one.tensor(t)
        for _ in range(pos + 1, len(slots)):
            t = t.tensor(one)
        images[a] = dict(t.terms)
    mutation = draw(st.sampled_from(["none", "double", "shift"]))
    if mutation == "double":
        images = {a: {o: c * 2 for o, c in col.items()}
                  for a, col in images.items()}
    elif mutation == "shift":
        a = draw(st.integers(0, n - 1))
        o = tuple(draw(st.integers(0, alg.dim - 1)) for alg in slots)
        images[a][o] = images[a].get(o, 0) + draw(
            st.sampled_from(QQ_SCALARS[1:] if field.p is None
                            else range(1, field.p)))
    in_dims = (2, 2) if n == 4 and draw(st.booleans()) else (n,)
    f = linmap_from_columns(field, in_dims, [alg.dim for alg in slots], {
        unflatten(in_dims, a): col for a, col in images.items()})
    B = slots[0]
    for alg in slots[1:]:
        B = tensor_algebra(B, alg)
    algebras = B if shape in ("phi", "phi.1 flat") else slots
    label = draw(st.sampled_from(["", "coaction/", "embedding H: "]))
    return label, f, A, algebras, anti, B


@given(algebra_maps())
@settings(max_examples=120, deadline=None)
def test_algebra_map_checks_match_the_hand_loop(case):
    label, f, A, algebras, anti, B = case
    old = _old_algebra_map_failures(f, A, B, anti)
    pairs = [line for line in old if line.startswith("multiplicative")]
    want = [re.sub(r"pair \(e_(\d+), e_(\d+)\)", r"basis (\1, \2)", line)
            for line in pairs[:10]] + [line for line in old
                                       if line.startswith("unital")]
    got = program_report(algebra_map_checks(label, f, A, algebras, anti))
    assert got.failures == [label + line for line in want]


def test_algebra_map_checks_cover_passes_and_both_failures():
    A, S = h4(), sweedler4().S
    ident = identity(QQ, 4)
    # the antipode is an anti-map, not a map (xg != gx in H4)
    for f, anti, ok in ((ident, False, True), (S, True, True),
                        (S, False, False)):
        assert program_report(algebra_map_checks("", f, A, A, anti)).ok \
            == ok
    # twice the identity fails on the 12 pairs with a nonzero product,
    # of which 10 are listed, and at the unit
    twice = linmap_from_columns(QQ, (4,), (4,), {(i,): {(i,): 2}
                                                for i in range(4)})
    got = program_report(algebra_map_checks("", twice, A, A)).failures
    assert len(got) == 11 and got[-1] == "unital: f(1) != 1"


def test_algebra_from_program():
    A = z2()
    # e_i e_j = e_{i+j mod 2}, read off a map rather than A's rows
    add = linmap_from_columns(QQ, (2, 2), (2,), {
        (a, b): {((a + b) % 2,): 1} for a in range(2) for b in range(2)})
    i, j = Var("i", 2), Var("j", 2)
    alg = algebra_from_program(Program.basis(QQ, i, j).apply_at(0, add),
                               [i], [j], TensorElt.basis(QQ, (2,), (0,)))
    assert verify_associative_unital(alg).ok
    assert alg.mul == A.mul
    assert alg == A and (alg.den, alg.rows) == (1, A.rows)


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

    P = [[entry(a, b) for b in range(n)] for a in range(n)]
    Pinv = ref_inv(field.p, P)
    cols = [[P[a][i] for a in range(n)] for i in range(n)]

    def vec(v):
        return [row[0] for row in ref_matmul(field.p, Pinv, [[c] for c in v])]

    def raw(c):
        if field.p is not None:
            return c + field.p * rng.randrange(3)
        return int(c) if c.denominator == 1 and rng.random() < 0.5 else c

    base = FinAlgebra(field, [[[field.of_int(c) for c in row] for row in pl]
                              for pl in mul],
                      [field.of_int(c) for c in unit], check=False)
    table = [[[raw(c) for c in vec(base.multiply(cols[i], cols[j]))]
              for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        delta = draw(st.sampled_from(QQ_SCALARS[1:] if field.p is None
                                     else range(1, 2 * field.p)))
        table[i][j][k] = table[i][j][k] + delta
    return FinAlgebra(field, table, vec(base.unit), check=False)


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


# -- the packed scan against the dict scan it replaced ---------------------

def dict_defects(A, limit=None):
    """finalg._assoc_defects as it was before rows were packed: one dict
    per triple holding the difference of the two sides (copied)."""
    n = A.dim
    p = A.field.p
    rows = A.rows
    bad = []
    for i in range(n):
        rows_i = rows[i]
        for j in range(n):
            rows_ij = rows_i[j]
            rows_j = rows[j]
            for k in range(n):
                diff = {}
                for l, c in rows_ij:
                    for t, x in rows[l][k]:
                        diff[t] = diff.get(t, 0) + c * x
                for m, c in rows_j[k]:
                    for t, x in rows_i[m]:
                        diff[t] = diff.get(t, 0) - c * x
                if p is None:
                    defect = any(diff.values())
                else:
                    defect = any(v % p for v in diff.values())
                if defect:
                    bad.append((i, j, k))
                    if limit is not None and len(bad) >= limit:
                        return bad
    return bad


def old_failures(A, limit):
    """verify_associative_unital's failure lines as they were: the unit
    laws through ``multiply``, then the dict scan."""
    rep = Report()
    n = A.dim
    for i in range(n):
        e = [A.field.zero()] * n
        e[i] = A.field.one()
        if A.multiply(A.unit, e) != e:
            rep.add("unit-left", f"1*e_{i} != e_{i}")
        if A.multiply(e, A.unit) != e:
            rep.add("unit-right", f"e_{i}*1 != e_{i}")
    return rep.failures + as_failures(dict_defects(A, limit))


# 2^61 - 1 and the largest prime below fields.MAX_MODULUS
BIG_PRIMES = [2 ** 61 - 1, 3317044064679887385961813]


def test_big_primes_are_the_ones_named():
    assert [GF(p).p for p in BIG_PRIMES] == BIG_PRIMES
    for q in range(BIG_PRIMES[1] + 1, MAX_MODULUS + 1):
        with pytest.raises(ValueError):
            GF(q)


def _unitriangular(rng, n, lower, bound):
    return [[1 if a == b else (rng.randint(-bound, bound)
                               if (a > b) == lower else 0)
             for b in range(n)] for a in range(n)]


def _change_basis(mul, unit, P):
    """The table and unit of the same algebra on the basis f_a = sum_i
    P[i][a] e_i, for an integer P of determinant 1 (integer entries)."""
    n = len(mul)
    Pinv = [[int(c) for c in row] for row in ref_inv(None, P)]

    def coords(v):
        return [sum(Pinv[a][i] * v[i] for i in range(n)) for a in range(n)]

    table = [[coords([sum(P[i][a] * P[j][b] * mul[i][j][k]
                          for i in range(n) for j in range(n))
                      for k in range(n)])
              for b in range(n)] for a in range(n)]
    return table, coords(unit)


@st.composite
def wide_tables(draw, field):
    """Integer rows that stress the slot width: over QQ numerators up to
    about 10^40 of both signs, over GF(p) residues of a large p.  Either
    every entry is drawn nonzero, or a base algebra is taken to a dense
    basis of determinant 1 (over GF(p), left and right then differ as
    integers by multiples of p), optionally with one entry shifted."""
    p = field.p
    rng = draw(st.randoms(use_true_random=False))
    big = 10 ** 40 if p is None else p - 1
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        table = [[[rng.randint(1, big) * rng.choice((1, -1))
                   for _ in range(n)] for _ in range(n)] for _ in range(n)]
        unit = [int(a == 0) for a in range(n)]
    else:
        mul, unit = draw(st.sampled_from(_base_tables()))
        n = len(mul)
        P = ref_matmul(None, _unitriangular(rng, n, True, 10 ** 6),
                       _unitriangular(rng, n, False, 10 ** 6))
        table, unit = _change_basis(mul, unit, P)
        if draw(st.booleans()):
            i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
            table[i][j][k] += draw(st.sampled_from([1, -1, big, -big]))
    rows = [[[(k, c if p is None else c % p) for k, c in enumerate(row)
              if (c if p is None else c % p)] for row in plane]
            for plane in table]
    return FinAlgebra.from_int_rows(field, 1, rows,
                                    [field.of_int(c) for c in unit])


@given(st.sampled_from([QQ] + [GF(q) for q in BIG_PRIMES])
       .flatmap(wide_tables), st.sampled_from([None, 1, 3]))
@settings(max_examples=80, deadline=None)
def test_packed_scan_matches_dict_scan_on_wide_entries(A, limit):
    want = dict_defects(A, limit)
    assert dense_defects(A, limit) == want
    assert verify_associative_unital(A, limit).failures \
        == old_failures(A, limit)


@given(st.sampled_from([QQ, GF(5), GF(7)]).flatmap(
    lambda f: st.one_of(scan_tables(f), algebra_tables(f).map(
        lambda t: FinAlgebra(f, t[0], t[1], check=False)))),
    st.sampled_from([None, 1, 3]))
@settings(max_examples=80, deadline=None)
def test_verify_failures_match_old_scan(A, limit):
    assert verify_associative_unital(A, limit).failures \
        == old_failures(A, limit)


@pytest.mark.parametrize("p", [None] + BIG_PRIMES)
def test_packed_scan_at_the_slot_bound(p):
    # every 2-dim table with entries +-M over QQ (M = 10^40), or 0 and
    # p - 1 over GF(p); over QQ some triple's sides differ by 2 n M^2
    # in a slot, the most the slot width allows for
    field, M = (QQ, 10 ** 40) if p is None else (GF(p), p - 1)
    widest = 0
    for entries in product([M, -M] if p is None else [0, M], repeat=8):
        it = iter(entries)
        rows = [[[(k, c) for k in range(2) if (c := next(it))]
                 for _ in range(2)] for _ in range(2)]
        A = FinAlgebra.from_int_rows(field, 1, rows, [1, 0])
        assert scan_defects(A, limit=None) == as_failures(dict_defects(A))
        widest = max([widest] + [abs(v) for diff in _triple_diffs(A)
                                 for v in diff.values()])
    assert widest == (4 * M * M if p is None else 2 * M * M)


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_multiples_of_p_are_not_defects(p):
    # Sweedler's algebra mod p on a dense basis: its entries are residues
    # of integers of both signs, so the two sides of each triple differ
    # as integers by multiples of p, nonzero in several slots
    mul, unit = _base_tables()[3]
    P = ref_matmul(None, [[1, 0, 0, 0], [3, 1, 0, 0], [-2, 5, 1, 0],
                          [7, -1, 4, 1]],
                   [[1, -4, 2, 9], [0, 1, -3, 1], [0, 0, 1, 6], [0, 0, 0, 1]])
    table, unit = _change_basis(mul, unit, P)
    rows = [[[(k, c % p) for k, c in enumerate(row) if c % p]
             for row in plane] for plane in table]
    A = FinAlgebra.from_int_rows(GF(p), 1, rows, [c % p for c in unit])
    as_ints = FinAlgebra.from_int_rows(QQ, 1, rows, A.unit)
    multiples = [sum(1 for v in diffs.values() if v)
                 for diffs in _triple_diffs(as_ints)]
    assert sum(m >= 2 for m in multiples) > 10
    assert verify_associative_unital(A, limit=None).ok
    assert dict_defects(A) == [] and dense_defects(A) == []
    # a shift by less than p is caught at the triples it touches
    rows[1][2] = [(k, (c + 1) % p) for k, c in rows[1][2]]
    B = FinAlgebra.from_int_rows(GF(p), 1, rows, A.unit)
    assert scan_defects(B, limit=None) == as_failures(dense_defects(B)) != []


def _triple_diffs(A):
    """Per basis triple, the integer difference of the two sides."""
    n, rows = A.dim, A.rows
    for i, j, k in product(range(n), repeat=3):
        diff = {}
        for l, c in rows[i][j]:
            for t, x in rows[l][k]:
                diff[t] = diff.get(t, 0) + c * x
        for m, c in rows[j][k]:
            for t, x in rows[i][m]:
                diff[t] = diff.get(t, 0) - c * x
        yield diff


# -- the scan on tables whose rows repeat ---------------------------------

def _group_algebra(field, orders, bits, phi):
    """The group algebra of Z/m_1 x ... on the flat basis of the group,
    twisted by the cocycle (-1)^(g B h) phi(g) phi(h) / phi(g h): a
    bilinear sign cocycle, B the 0/1 matrix ``bits`` (used only when
    every order is even), times the coboundary of ``phi``, with phi(0)
    = 1 so that e_0 is the unit."""
    elems = list(product(*(range(m) for m in orders)))
    index = {g: a for a, g in enumerate(elems)}
    even = all(m % 2 == 0 for m in orders)
    n = len(elems)
    mul = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
    for a, g in enumerate(elems):
        for b, h in enumerate(elems):
            gh = tuple((x + y) % m for x, y, m in zip(g, h, orders))
            sign = (-1) ** sum(bits[s][t] * g[s] * h[t]
                               for s in range(len(orders))
                               for t in range(len(orders))) if even else 1
            c = Fraction(sign * phi[a] * phi[b], phi[index[gh]])
            mul[a][b][index[gh]] = _in_field(field, c)
    return FinAlgebra(field, mul, basis_vec(field, n, 0), check=False)


def _in_field(field, c):
    c = Fraction(c)
    if field.p is None:
        return c
    return c.numerator * pow(c.denominator, -1, field.p) % field.p


def _matrix_units(field):
    mat2, unit = _base_tables()[1]
    return FinAlgebra(field, [[[field.of_int(c) for c in row] for row in pl]
                              for pl in mat2],
                      [field.of_int(c) for c in unit], check=False)


@st.composite
def monomial_tables(draw, field):
    """A table in which every product of basis elements is a multiple of
    one basis element, so that rows repeat: a twisted group algebra with
    cocycle values +-1, +-2 (and their quotients), the 2x2 matrix units,
    or the tensor product of two of them, on a permuted and rescaled
    basis, optionally with one entry shifted."""
    scalars = [1, -1, 2, Fraction(1, 2), -2]

    def factor(most):
        orders = draw(st.sampled_from([o for o in [(2,), (3,), (4,), (2, 2),
                                                   "mat"]
                                       if (4 if o == "mat" else prod(o))
                                       <= most]))
        if orders == "mat":
            return _matrix_units(field)
        n = prod(orders)
        bits = [[draw(st.integers(0, 1)) for _ in orders] for _ in orders]
        phi = [1] + [draw(st.sampled_from(scalars)) for _ in range(n - 1)]
        return _group_algebra(field, orders, bits, phi)

    A = factor(4)
    if draw(st.booleans()):
        A = tensor_algebra(A, factor(8 // A.dim))
    n, mul, unit = A.dim, A.mul, A.unit
    perm = draw(st.permutations(range(n)))
    scale = [_in_field(field, draw(st.sampled_from(scalars)))
             for _ in range(n)]
    inv = [_in_field(field, Fraction(1, s)) for s in scale]
    # f_a = scale[a] e_perm[a], so e_k = f_a / scale[a] for perm[a] = k
    where = {k: a for a, k in enumerate(perm)}

    def times(*cs):
        out = field.one()
        for c in cs:
            out = field.mul(out, c)
        return out

    table = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for k, c in enumerate(mul[perm[a]][perm[b]]):
                if c != 0:
                    table[a][b][where[k]] = times(scale[a], scale[b], c,
                                                  inv[where[k]])
    new_unit = [times(unit[perm[a]], inv[a]) for a in range(n)]
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        delta = draw(st.sampled_from(QQ_SCALARS[1:] if field.p is None
                                     else range(1, field.p)))
        table[i][j][k] = _in_field(field, table[i][j][k] + delta)
    return FinAlgebra(field, table, new_unit, check=False)


def _distinct_rows(A):
    return len({tuple(row) for plane in A.rows for row in plane})


@given(st.sampled_from([QQ, GF(5), GF(7)]).flatmap(monomial_tables),
       st.sampled_from([None, 1, 3, 10]))
@settings(max_examples=60, deadline=None)
def test_scan_matches_references_on_monomial_tables(A, limit):
    assert scan_defects(A, limit) == as_failures(dense_defects(A, limit))
    assert verify_associative_unital(A, limit).failures \
        == old_failures(A, limit)


def test_monomial_tables_repeat_rows():
    # twisted Z/4 on a rescaled basis: 16 rows, each c e_k for one of 4
    # basis elements and few values of c
    A = _group_algebra(QQ, (4,), [[1]], [1, 2, -1, Fraction(1, 2)])
    assert verify_associative_unital(A, limit=None).ok
    assert _distinct_rows(A) < A.dim ** 2
    B = tensor_algebra(A, _matrix_units(QQ))
    assert B.dim == 16 and _distinct_rows(B) < B.dim ** 2 // 4
    assert verify_associative_unital(B, limit=None).ok


def test_scan_on_the_dim_32_crossed_product_with_one_entry_shifted():
    from quasihopf.coactions import tensor_bicomodule
    from quasihopf.products import gen_two_sided_crossed
    st_ = entry("H2")
    Ab, Du = st_["bicomodule"], st_["dual"]
    Ab4 = tensor_bicomodule(Ab.right, Ab.left, check=False)
    A = gen_two_sided_crossed(Ab4, Du, Ab4, check=False).result
    # 1,024 rows, 48 of them distinct
    assert (A.dim, _distinct_rows(A)) == (32, 48)
    assert verify_associative_unital(A, limit=None).ok
    mul = A.mul
    mul[5][9][3] += Fraction(1, 3)
    B = FinAlgebra(QQ, mul, A.unit, check=False)
    for limit in (None, 1, 3, 10):
        got = verify_associative_unital(B, limit).failures
        assert got == old_failures(B, limit)
        assert len(got) == (len(dict_defects(B)) if limit is None else limit)


# -- tensor_algebra against the dense construction -------------------------

def _dense_tensor_algebra(A, B):
    """tensor_algebra as it was written on the dense tables."""
    na, nb = A.dim, B.dim
    n = na * nb
    fld = A.field
    zero = fld.zero()
    mul_a, mul_b = A.mul, B.mul
    mul = []
    for ia in range(na):
        for ib in range(nb):
            plane = []
            for ja in range(na):
                row_a = mul_a[ia][ja]
                for jb in range(nb):
                    row_b = mul_b[ib][jb]
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


def _opposites(pair, op_flags):
    """The algebras of ``pair``, each replaced by its opposite where its
    flag is set."""
    return [opposite(X) if op else X for X, op in zip(pair, op_flags)]


def _assert_same_tensor_algebra(A, B):
    got = tensor_algebra(A, B)
    want = _dense_tensor_algebra(A, B)
    # repr compares entry for entry, the scalar types included
    assert repr(got.mul) == repr(want.mul)
    assert repr(got.unit) == repr(want.unit)
    # the integer rows are the ones the dense table gives
    assert (got.den, got.rows) == (want.den, want.rows)
    assert got == want


@given(st.sampled_from([QQ, GF(5), GF(7)]).flatmap(
    lambda f: st.tuples(scan_tables(f), scan_tables(f))))
@settings(max_examples=40, deadline=None)
def test_tensor_algebra_matches_dense_reference(pair):
    _assert_same_tensor_algebra(*pair)


@pytest.mark.parametrize("op_flags", OP_FLAGS)
def test_tensor_algebra_corpus_matches_dense_reference(op_flags):
    # on the corpus algebras and their opposites
    from quasihopf.corpus import cyclic_with_cocycle, twisted_z2
    _assert_same_tensor_algebra(*_opposites((twisted_z2().H, h4()),
                                            op_flags))
    fp = cyclic_with_cocycle(5, 2).H
    _assert_same_tensor_algebra(*_opposites((fp, fp), op_flags))


# -- the integer-row FinAlgebra against the dense implementation -----------

class DenseAlgebra:
    """FinAlgebra as it was written on a dense Fraction table, with its
    cached sparse and integer rows (copied, element helpers left out)."""

    def __init__(self, field, mul, unit):
        self.field = field
        self.dim = len(mul)
        self.mul = mul
        self.unit = list(unit)
        self._srows = None
        self._irows = None

    def __eq__(self, other):
        return (self.field == other.field and self.dim == other.dim
                and self.mul == other.mul and self.unit == other.unit)

    def sparse_rows(self):
        if self._srows is None:
            self._srows = [
                [[(k, c) for k, c in enumerate(row) if c] for row in plane]
                for plane in self.mul]
        return self._srows

    def int_rows(self):
        if self._irows is None:
            rows = self.sparse_rows()
            p = self.field.p
            if p is None:
                D = lcm(*{c.denominator for plane in rows for row in plane
                          for _, c in row})
                rows = [[[(k, c.numerator * (D // c.denominator))
                          for k, c in row] for row in plane]
                        for plane in rows]
            else:
                D = 1
                rows = [[[(k, r) for k, c in row if (r := c % p)]
                         for row in plane] for plane in rows]
            self._irows = (D, rows)
        return self._irows

    def multiply(self, u, v):
        acc = [0] * self.dim
        srows = self.sparse_rows()
        for i, cu in enumerate(u):
            if cu == 0:
                continue
            srow_i = srows[i]
            for j, cv in enumerate(v):
                if cv == 0:
                    continue
                cuv = cu * cv
                for k, c in srow_i[j]:
                    acc[k] = acc[k] + cuv * c
        p = self.field.p
        return acc if p is None else [x % p for x in acc]


def dense_opposite(A):
    n = A.dim
    mul = A.mul
    return DenseAlgebra(A.field, [[mul[j][i] for j in range(n)]
                                  for i in range(n)], A.unit)


def dense_tensor(A, B):
    fld = A.field
    na, nb = A.dim, B.dim
    n = na * nb
    sa, sb = A.sparse_rows(), B.sparse_rows()
    mul = []
    for ia in range(na):
        for ib in range(nb):
            plane = []
            for ja in range(na):
                for jb in range(nb):
                    dense = [fld.zero()] * n
                    for ka, ca in sa[ia][ja]:
                        for kb, cb in sb[ib][jb]:
                            if (c := fld.mul(ca, cb)):
                                dense[ka * nb + kb] = c
                    plane.append(dense)
            mul.append(plane)
    unit = [fld.zero()] * n
    for ia, ca in enumerate(A.unit):
        for ib, cb in enumerate(B.unit):
            if ca != 0 and cb != 0:
                unit[ia * nb + ib] = fld.mul(ca, cb)
    return DenseAlgebra(fld, mul, unit)


def dense_tensor_power(A, k):
    out = A
    for _ in range(k - 1):
        out = dense_tensor(out, A)
    return out


def dense_invert_element(A, x):
    """invert_element on coordinate vectors: the inverse's coordinates,
    or None."""
    n = A.dim
    cols = [A.multiply(x, [A.field.one() if t == j else A.field.zero()
                           for t in range(n)]) for j in range(n)]
    left_mult = [[cols[j][i] for j in range(n)] for i in range(n)]
    y = ref_solve(A.field.p, left_mult, A.unit)
    if y is None:
        return None
    if A.multiply(y, x) != list(A.unit):
        return None
    return y


def _values(field, rows):
    """Sparse rows as {(k): field value}, zeros dropped."""
    p = field.p
    return [[[(k, c % p if p else c) for k, c in row if (c % p if p else c)]
             for row in plane] for plane in rows]


def _same_values(field, u, v):
    p = field.p
    return all(((a - b) % p == 0) if p else a == b for a, b in zip(u, v))


@st.composite
def algebra_tables(draw, field):
    """(field, table, unit): a table of ``scan_tables`` with its raw
    entries (ints and Fractions side by side over QQ, unreduced over
    GF(p)), or a random non-associative table with such entries."""
    if draw(st.booleans()):
        A = draw(scan_tables(field))
        mul, unit = A.mul, A.unit
    else:
        n = draw(st.integers(1, 3))
        mul = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
        for i, j, k in product(range(n), repeat=3):
            if draw(st.booleans()):
                mul[i][j][k] = draw(st.sampled_from(QQ_SCALARS)) \
                    if field.p is None else field.of_int(draw(
                        st.integers(1, field.p - 1)))
        unit = basis_vec(field, n, 0)
    rng = draw(st.randoms(use_true_random=False))

    def raw(c):
        if field.p is not None:
            return c + field.p * rng.randrange(3)
        return int(c) if Fraction(c).denominator == 1 \
            and rng.random() < 0.5 else Fraction(c)

    return [[[raw(c) for c in row] for row in plane] for plane in mul], unit


FIELDS = st.sampled_from([QQ, GF(5), GF(7)])


@given(FIELDS.flatmap(lambda f: st.tuples(st.just(f), algebra_tables(f))),
       st.data())
@settings(max_examples=80, deadline=None)
def test_finalg_matches_dense_implementation(ft, data):
    field, (table, unit) = ft
    A = FinAlgebra(field, table, unit, check=False)
    old = DenseAlgebra(field, table, unit)
    n = A.dim
    # the stored rows are the old cached integer rows, and give back
    # the old sparse rows as field values
    assert (A.den, A.rows) == old.int_rows()
    p = field.p
    as_values = [[[(k, c if p else Fraction(c, A.den)) for k, c in row]
                  for row in plane] for plane in A.rows]
    assert as_values == _values(field, old.sparse_rows())
    # the dense view holds field scalars and round-trips
    assert _same_values(field, sum(sum(A.mul, []), []),
                        sum(sum(table, []), []))
    assert all(type(c) is (int if p else Fraction)
               for plane in A.mul for row in plane for c in row)
    assert FinAlgebra(field, A.mul, A.unit, check=False) == A
    # products of random vectors
    vec = st.lists(st.sampled_from(QQ_SCALARS) if p is None
                   else st.integers(-p, 2 * p), min_size=n, max_size=n)
    u, v = data.draw(vec), data.draw(vec)
    assert _same_values(field, A.multiply(u, v), old.multiply(u, v))
    # the opposite algebra
    Aop = opposite(A)
    assert (Aop.den, Aop.rows) == dense_opposite(old).int_rows()
    # equality: another representation of the same values is equal, a
    # change of one entry is not
    same = FinAlgebra(field, [[[c + p if p else Fraction(c) for c in row]
                               for row in plane] for plane in table],
                      unit, check=False)
    assert same == A
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    changed = [[list(row) for row in plane] for plane in table]
    changed[i][j][k] = changed[i][j][k] + 1
    assert FinAlgebra(field, changed, unit, check=False) != A


@given(FIELDS.flatmap(lambda f: st.tuples(st.just(f), algebra_tables(f),
                                          algebra_tables(f))),
       st.sampled_from(OP_FLAGS))
@settings(max_examples=40, deadline=None)
def test_tensor_algebra_matches_dense_implementation(triple, op_flags):
    field, (ta, ua), (tb, ub) = triple
    oa, ob = DenseAlgebra(field, ta, ua), DenseAlgebra(field, tb, ub)
    if op_flags[0]:
        oa = dense_opposite(oa)
    if op_flags[1]:
        ob = dense_opposite(ob)
    got = tensor_algebra(*_opposites(
        (FinAlgebra(field, ta, ua, check=False),
         FinAlgebra(field, tb, ub, check=False)), op_flags))
    want = dense_tensor(oa, ob)
    assert (got.den, got.rows) == want.int_rows()
    assert got.unit == want.unit


# -- the one inverter against invert_element over the tensor power --------

def _old_inverse(t, H):
    """The inverse of ``t`` in H^(x)k by the old route: invert_element
    over the dense tensor-power algebra."""
    k = len(t.dims)
    old = DenseAlgebra(H.field, H.mul, H.unit)
    y = dense_invert_element(dense_tensor_power(old, k), t.to_flat())
    return None if y is None else TensorElt.from_flat(t.field, t.dims, y)


@pytest.mark.parametrize("name", entries())
def test_inverter_matches_old_route_on_associators(name):
    Hq = entry(name)["H"]
    H = Hq.H
    for t in (Hq.Phi, Hq.PhiInv):
        got = invert_mixed(t, [H] * 3)
        assert got is not None and got == _old_inverse(t, H)


@given(st.sampled_from(entries()), st.sampled_from(["gauge", "raw", "zero"]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_inverter_matches_old_route_on_random_twists(name, kind, data):
    Hq = entry(name)["H"]
    H, fld, n = Hq.H, Hq.field, Hq.n
    scalars = st.sampled_from(QQ_SCALARS) if fld.p is None \
        else st.integers(0, fld.p - 1)
    vec = data.draw(st.lists(scalars, min_size=n * n, max_size=n * n))
    t = TensorElt.from_flat(fld, (n, n), [fld.of_int(0) + c for c in vec])
    if kind == "gauge":
        # (id - 1 eps) in each slot, plus 1 (x) 1: counit-normalized
        one = Hq.unit_elt()
        for pos in (0, 1):
            t = t - t.apply_at(pos, Hq.counit).insert(pos, one)
        t = t + Hq.unit_elt(2)
    elif kind == "zero":
        # a zero divisor tensored with anything is not invertible
        zd = {"QZ2": [1, 1], "H2": [1, 1], "Sweedler4": [0, 1, 0, 0],
              "FpZn(5,2)": [1, 0], "FpZn(7,3)": [1, 0, 0]}[name]
        t = TensorElt.from_vector(fld, [fld.of_int(c) for c in zd]) \
            .tensor(TensorElt.from_flat(fld, (n,), vec[:n]))
    got = invert_mixed(t, [H, H])
    assert got == _old_inverse(t, H)
    if kind == "zero":
        assert got is None


def test_mul_linmap_matches_products():
    for A in (z2(), h4(), entry("FpZn(5,2)")["H"].H):
        n, fld = A.dim, A.field
        M = mul_linmap(A)
        for i, j in product(range(n), repeat=2):
            t = TensorElt.basis(fld, (n, n), (i, j)).apply_at(0, M)
            assert t.to_flat() == A.multiply(basis_vec(fld, n, i),
                                             basis_vec(fld, n, j))

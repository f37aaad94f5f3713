from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.corpus import (cyclic_with_cocycle, group_algebra_z2,
                              sweedler4, twisted_z2)
from quasihopf.fields import GF, QQ
from quasihopf.finalg import FinAlgebra, invert_mixed, mul_linmap
from quasihopf.linalg import (flat_index, linmap_from_columns, prod,
                              reshape_map, unflatten)
from quasihopf import tensors as tensors_module
from quasihopf.tensors import (Program, TensorElt, Var, linmap_from_program,
                               program_mismatches, run_program)

from test_linalg import dense, linmap_from_rows, ref_matmul

entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)


def tensors(dims):
    n = prod(dims)
    return st.lists(entries, min_size=n, max_size=n).map(
        lambda v: TensorElt.from_flat(QQ, dims, v))


def test_basis_and_flat_roundtrip():
    t = TensorElt.basis(QQ, (2, 3), (1, 2))
    assert t.terms == {(1, 2): Fraction(1)}
    v = t.to_flat()
    assert v[5] == 1 and sum(1 for c in v if c != 0) == 1
    assert TensorElt.from_flat(QQ, (2, 3), v) == t


@given(tensors((2, 3)), tensors((2, 3)))
@settings(max_examples=30)
def test_addition_matches_flat(a, b):
    got = (a + b).to_flat()
    want = [x + y for x, y in zip(a.to_flat(), b.to_flat())]
    assert got == want
    assert (a - a).is_zero()


@given(tensors((2, 2)), tensors((3,)))
@settings(max_examples=30)
def test_tensor_product_coefficients(a, b):
    t = a.tensor(b)
    assert t.dims == (2, 2, 3)
    zero = Fraction(0)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                assert (t.terms.get((i, j, k), zero)
                        == a.terms.get((i, j), zero)
                        * b.terms.get((k,), zero))


@given(tensors((2, 3, 2)))
@settings(max_examples=30)
def test_permute_roundtrip(t):
    perm = (2, 0, 1)  # output slot r carries input slot perm[r]
    u = t.permute(perm)
    assert u.dims == (2, 2, 3)
    inv = (1, 2, 0)
    assert u.permute(inv) == t


def test_permute_moves_coefficients():
    t = TensorElt.basis(QQ, (2, 3), (1, 2))
    assert t.permute((1, 0)).terms == {(2, 1): Fraction(1)}


@given(tensors((2, 2)))
@settings(max_examples=30)
def test_apply_at_matches_matrix(t):
    H = group_algebra_z2()
    u = t.apply_at(0, H.Delta)
    assert u.dims == (2, 2, 2)
    # flat coordinates transform by Delta x id
    delta = dense(H.Delta)
    big = [[delta[r // 2][c // 2] * (r % 2 == c % 2) for c in range(4)]
           for r in range(8)]
    assert u.to_flat() == [row[0] for row in
                           ref_matmul(None, big, [[c] for c in t.to_flat()])]


def test_apply_at_shape_mismatch():
    H = group_algebra_z2()
    t = TensorElt.basis(QQ, (3, 2), (0, 0))
    with pytest.raises(ValueError):
        t.apply_at(0, H.Delta)


@given(tensors((2, 2, 3)))
@settings(max_examples=30)
def test_mul_slots_positions(t):
    H = group_algebra_z2().H
    # product lands in the earlier slot; the later slot disappears
    u = t.mul_slots(0, 1, H)
    assert u.dims == (2, 3)
    # multiplying with the arguments swapped reverses the factor order
    v = t.permute((1, 0, 2)).mul_slots(1, 0, H)
    assert v == u  # Z/2 is commutative, orders agree


def test_mul_slots_matches_algebra():
    A = sweedler4().H
    for i in range(4):
        for j in range(4):
            t = TensorElt.basis(QQ, (4, 4), (i, j)).mul_slots(0, 1, A)
            assert list(t.to_flat()) == list(A.multiply(
                [QQ.one() if k == i else QQ.zero() for k in range(4)],
                [QQ.one() if k == j else QQ.zero() for k in range(4)]))


@given(tensors((2, 3)))
@settings(max_examples=30)
def test_insert_and_drop(t):
    H = group_algebra_z2()
    u = t.insert(1, H.unit_elt())
    assert u.dims == (2, 2, 3)
    assert u.apply_at(1, H.counit) == t


@given(tensors((2, 3, 2)))
@settings(max_examples=30)
def test_merge_split_roundtrip(t):
    m = t.apply_at(0, reshape_map(QQ, (2, 3), (6,)))
    assert m.dims == (6, 2)
    assert m.apply_at(0, reshape_map(QQ, (6,), (2, 3))) == t
    assert t.apply_at(0, reshape_map(QQ, (2, 3, 2), (12,))) \
        .apply_at(0, reshape_map(QQ, (12,), (2, 3, 2))) == t


def test_slotwise_mul_of_scalars():
    # zero slots: the product of the two coefficients, zero included
    for field, c in ((QQ, Fraction(2, 3)), (GF(5), 3)):
        scalar = TensorElt.scalar(field, c)
        zero = TensorElt.zero(field, ())
        assert scalar.slotwise_mul(zero, []) == zero
        assert zero.slotwise_mul(scalar, []) == zero
        assert scalar.slotwise_mul(scalar, []) \
            == TensorElt.scalar(field, field.mul(c, c))


def test_slotwise_mul():
    H = group_algebra_z2().H
    a = TensorElt.basis(QQ, (2, 2), (1, 0))
    b = TensorElt.basis(QQ, (2, 2), (1, 1))
    assert a.slotwise_mul(b, [H, H]) == TensorElt.basis(QQ, (2, 2), (0, 1))


# one algebra per case and the number of slots it is used on: FpZn(7,3)
# in its idempotent basis over GF(7), where each basis element has one
# nonzero partner; H2 in the group basis over QQ, where every pair is
# nonzero; Sweedler4, where x.x = 0 prunes some pairs
SLOTWISE_CASES = {
    "FpZn(7,3)": (cyclic_with_cocycle(7, 3).H, 4),
    "H2": (twisted_z2().H, 4),
    "Sweedler4": (sweedler4().H, 2),
}


def _slotwise_reference(a, b, algebras):
    """slotwise_mul spelled out: juxtapose, interleave, multiply pairs."""
    k = len(a.dims)
    t = a.tensor(b).permute(tuple(s for r in range(k) for s in (r, k + r)))
    for r in range(k):
        t = t.mul_slots(r, r + 1, algebras[r])
    return t


def nonzero_scalars(field):
    if field.p is None:
        return entries.filter(lambda c: c != 0)
    return st.integers(1, field.p - 1)


def slot_tensors(field, dims, max_terms):
    """Elements with up to ``max_terms`` nonzero terms."""
    index = st.tuples(*(st.integers(0, d - 1) for d in dims))
    return st.dictionaries(index, nonzero_scalars(field),
                           max_size=max_terms).map(
        lambda terms: TensorElt(field, dims, terms))


@pytest.mark.parametrize("name", sorted(SLOTWISE_CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_slotwise_mul_matches_reference(name, data):
    alg, k = SLOTWISE_CASES[name]
    dims = (alg.dim,) * k
    n = prod(dims)
    a = data.draw(slot_tensors(alg.field, dims, n))
    # a dense right factor takes the enumeration of nonzero partners, a
    # sparse one the scan over the right factor's terms
    dense = st.lists(nonzero_scalars(alg.field), min_size=n, max_size=n).map(
        lambda v: TensorElt.from_flat(alg.field, dims, v))
    b = data.draw(st.one_of(dense, slot_tensors(alg.field, dims, 3)))
    algebras = [alg] * k
    assert a.slotwise_mul(b, algebras) == _slotwise_reference(a, b,
                                                              algebras)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_slotwise_mul_on_the_left_matches_reference(data):
    # Sweedler4 is not commutative: b.slotwise_mul(a, left=True) is a b
    alg = sweedler4().H
    dims = (alg.dim,) * 2
    a, b = (data.draw(slot_tensors(alg.field, dims, 6)) for _ in "ab")
    assert b.slotwise_mul(a, alg, left=True) \
        == _slotwise_reference(a, b, [alg] * 2)


def test_slotwise_mul_sparse_right_factor():
    # two terms on the right against 16 candidate partners per left
    # index: the product comes from the scan over the right factor
    H = twisted_z2().H
    dims = (2, 2, 2, 2)
    a = TensorElt.from_flat(QQ, dims, [Fraction(f + 1, 3) for f in range(16)])
    b = TensorElt(QQ, dims, {(1, 0, 1, 1): Fraction(2),
                           (0, 1, 1, 0): Fraction(-1)})
    assert a.slotwise_mul(b, H) == _slotwise_reference(a, b, [H] * 4)


# -- pointwise products on bases of orthogonal idempotents ------------------
#
# On such a basis (e_i e_j = [i = j] e_i) the kernels multiply matching
# coefficients.  The references below use no kernel: each pair of terms
# is expanded as dense coordinates, multiplied slot by slot with
# FinAlgebra.multiply.

def _diagonal_qq(scales=(1, 1, 1), off=None):
    """QQ^3 on the basis e_0, e_1, e_2 with e_i e_i = ``scales[i]`` e_i;
    ``off`` = (i, j, k) adds e_i e_j = e_k, and the result is no algebra,
    so it is left unchecked."""
    mul = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, c in enumerate(scales):
        mul[i][i][i] = Fraction(c)
    if off is not None:
        i, j, k = off
        mul[i][j][k] = Fraction(1)
    return FinAlgebra(QQ, mul, [1 / Fraction(c) for c in scales],
                      check=off is None)


IDEMPOTENT_CASES = {"FpZn(7,3)": cyclic_with_cocycle(7, 3).H,
                    "QQ^3": _diagonal_qq()}
# each differs from QQ^3 in one respect and takes the general kernels;
# the last has the rows of QQ^3 over the denominator 2
NEAR_MISSES = {"e0e0=2e0": _diagonal_qq(scales=(2, 1, 1)),
               "e0e1=e1": _diagonal_qq(off=(0, 1, 1)),
               "den=2": _diagonal_qq(scales=(Fraction(1, 2),) * 3)}


def _unit_vector(field, n, i):
    return [field.one() if k == i else field.zero() for k in range(n)]


def _dense_expand(field, dims, pieces):
    """The flat coordinates of the sum of c v_1 (x) ... (x) v_k over the
    ``pieces`` (c, [v_1, ..., v_k]), reduced mod p over GF(p)."""
    out = [0] * prod(dims)
    for c, vecs in pieces:
        nonzero = [[(i, x) for i, x in enumerate(v) if x] for v in vecs]
        for combo in product(*nonzero):
            coef = c
            for _, x in combo:
                coef *= x
            out[flat_index(dims, [i for i, _ in combo])] += coef
    p = field.p
    return [c % p for c in out] if p else out


def _dense_slotwise(a, b, algebras, slots, lefts):
    """The flat coordinates of ``a`` times ``b``, slot r of ``b``
    multiplied into slot ``slots[r]`` of ``a``, from the left where
    ``lefts[r]``."""
    field, dims = a.field, a.dims

    def pieces():
        for ia, ca in a.terms.items():
            for ib, cb in b.terms.items():
                vecs = [_unit_vector(field, d, i) for d, i in zip(dims, ia)]
                for r, s in enumerate(slots):
                    u = _unit_vector(field, dims[s], ib[r])
                    vecs[s] = algebras[r].multiply(
                        *((u, vecs[s]) if lefts[r] else (vecs[s], u)))
                yield ca * cb, vecs
    return _dense_expand(field, dims, pieces())


def _dense_mul_slots(a, pos_a, pos_b, alg):
    """The flat coordinates of ``a.mul_slots(pos_a, pos_b, alg)``."""
    field = a.field
    dims = tuple(d for s, d in enumerate(a.dims) if s != pos_b)

    def pieces():
        for ia, ca in a.terms.items():
            vecs = [_unit_vector(field, d, i) for d, i in zip(a.dims, ia)]
            vecs[pos_a] = alg.multiply(vecs[pos_a], vecs[pos_b])
            del vecs[pos_b]
            yield ca, vecs
    return _dense_expand(field, dims, pieces())


def _value(prog):
    """The value of a program that reads no variable, from the executor."""
    got = {}
    run_program(prog, (), got.__setitem__)
    return got[0]


def _fused(a, x, targets, lefts, alg):
    """``a`` with ``x`` tensored on, slot r of ``x`` multiplied into slot
    ``targets[r]`` of ``a`` (from the left where ``lefts[r]``) by
    ``mul_slots``, and the products permuted back to ``a``'s order: the
    plan runs it as one slotwise step on the slots ``targets``."""
    k = len(a.dims)
    prog = Program(a).tensor(x)
    layout = list(range(k)) + [("x", r) for r in range(len(targets))]
    for r, (s, left) in enumerate(zip(targets, lefts)):
        px, pv = layout.index(("x", r)), layout.index(s)
        pa, pb = (px, pv) if left else (pv, px)
        prog = prog.mul_slots(pa, pb, alg)
        layout[pa] = s
        del layout[pb]
    return prog.permute([layout.index(s) for s in range(k)])


@pytest.mark.parametrize("name", sorted(IDEMPOTENT_CASES)
                         + sorted(NEAR_MISSES))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_pointwise_kernels_match_dense_multiplication(name, data):
    alg = IDEMPOTENT_CASES.get(name) or NEAR_MISSES[name]
    assert alg.idempotents == (name in IDEMPOTENT_CASES)
    if name == "den=2":
        assert (alg.den, alg.rows) == (2, IDEMPOTENT_CASES["QQ^3"].rows)
    field, n = alg.field, alg.dim
    k = data.draw(st.integers(2, 4), label="slots")
    dims = (n,) * k
    a, b = (data.draw(slot_tensors(field, dims, n ** k), label=v)
            for v in "ab")
    algebras = [alg] * k
    # every slot, the factors of b on the right and on the left, as an
    # element and as a program
    for left in (False, True):
        want = _dense_slotwise(a, b, algebras, range(k), [left] * k)
        assert a.slotwise_mul(b, algebras, left).to_flat() == want
        assert _value(Program(a).slotwise_mul(b, algebras, left)) \
            .to_flat() == want
    # a planned step on some of the slots, each on its own side
    m = data.draw(st.integers(1, k - 1), label="operand slots")
    targets = data.draw(st.permutations(range(k)), label="targets")[:m]
    lefts = data.draw(st.lists(st.booleans(), min_size=m, max_size=m),
                      label="lefts")
    x = data.draw(slot_tensors(field, (n,) * m, n ** m), label="x")
    prog = _fused(a, x, targets, lefts, alg)
    assert [step[3:] for step in tensors_module._plan(prog)
            if step[0] == "slotwise_mul"] == [(tuple(targets), tuple(lefts))]
    assert _value(prog).to_flat() == _dense_slotwise(a, x, [alg] * m,
                                                     targets, lefts)
    # two slots multiplied, the earlier one first and the later one first
    pos_a, pos_b = sorted(data.draw(st.permutations(range(k)),
                                    label="pair")[:2])
    for i, j in ((pos_a, pos_b), (pos_b, pos_a)):
        want = _dense_mul_slots(a, i, j, alg)
        assert a.mul_slots(i, j, alg).to_flat() == want
        assert _value(Program(a).mul_slots(i, j, alg)).to_flat() == want


# the near miss whose one off-diagonal product breaks associativity has
# no inverses to compare
@pytest.mark.parametrize("name", sorted(IDEMPOTENT_CASES)
                         + ["den=2", "e0e0=2e0"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_invert_mixed_matches_dense_multiplication(name, data):
    alg = IDEMPOTENT_CASES.get(name) or NEAR_MISSES[name]
    field, n = alg.field, alg.dim
    k = data.draw(st.integers(1, 3), label="slots")
    dims = (n,) * k
    algebras = [alg] * k
    full = st.lists(nonzero_scalars(field), min_size=n ** k,
                    max_size=n ** k).map(
        lambda v: TensorElt.from_flat(field, dims, v))
    t = data.draw(st.one_of(full, slot_tensors(field, dims, n ** k)),
                  label="t")
    unit = _dense_expand(field, dims, [(1, [alg.unit] * k)])
    inv = invert_mixed(t, algebras)
    # t kills a basis tensor exactly when it has no inverse
    kills = any(not any(_dense_slotwise(
        t, TensorElt.basis(field, dims, idx), algebras, range(k),
        [False] * k)) for idx in product(*map(range, dims)))
    assert (inv is None) == kills
    if inv is not None:
        for x, y in ((t, inv), (inv, t)):
            assert _dense_slotwise(x, y, algebras, range(k),
                                   [False] * k) == unit


def test_invert_mixed_refuses_an_exchange_element_missing_a_term():
    from quasihopf.coactions import omega_elements
    from quasihopf.corpus import structures
    st_ = structures("FpZn(7,3)")
    Hq, Ab = st_["H"], st_["bicomodule"]
    Om = omega_elements(Ab, "left").value
    algebras = [Hq.H, Hq.H, Ab.A, Hq.H, Hq.H]
    assert all(alg.idempotents for alg in algebras)
    assert len(Om.num) == prod(Om.dims)
    assert invert_mixed(Om, algebras) is not None
    num = dict(Om.num)
    del num[min(num)]
    assert invert_mixed(TensorElt.from_num(Om.field, Om.dims, num, Om.den),
                        algebras) is None


def test_scale_and_zero():
    t = TensorElt.basis(QQ, (3,), (1,))
    assert t.scale(Fraction(0)).is_zero()
    assert t.scale(Fraction(2)).terms == {(1,): Fraction(2)}
    assert TensorElt.zero(QQ, (3,)).is_zero()


# -- the integer core against the dict-of-scalars algorithm -----------------
#
# Each reference below is the combinator as it was written on
# {multi-index: field scalar} dicts, reducing mod p and dropping zeros
# after every step.

def _ref_clean(field, terms):
    out = {}
    for idx, c in terms.items():
        if field.p is not None:
            c = c % field.p
        if c != 0:
            out[tuple(idx)] = c
    return out


def _ref_accumulate(field, pairs):
    out = {}
    for idx, c in pairs:
        out[idx] = out.get(idx, 0) + c
    return _ref_clean(field, out)


def _ref_insert(field, ta, pos, tb):
    return _ref_accumulate(field, ((ia[:pos] + ib + ia[pos:], ca * cb)
                                   for ia, ca in ta.items()
                                   for ib, cb in tb.items()))


def _ref_apply_at(field, dims, ta, pos, rows, in_dims, out_dims):
    a = len(in_dims)
    pairs = []
    for idx, c in ta.items():
        col = flat_index(in_dims, idx[pos:pos + a])
        for r, row in enumerate(rows):
            if row[col] != 0:
                pairs.append((idx[:pos] + unflatten(out_dims, r)
                              + idx[pos + a:], c * row[col]))
    return _ref_accumulate(field, pairs)


def _ref_rows(alg):
    return [[[(k, c) for k, c in enumerate(row) if c != 0] for row in plane]
            for plane in alg.mul]


def _ref_mul_slots(field, ta, pos_a, pos_b, alg):
    srows = _ref_rows(alg)
    dst = pos_a if pos_a < pos_b else pos_a - 1
    pairs = []
    for idx, c in ta.items():
        base = list(idx)
        del base[pos_b]
        for k, mc in srows[idx[pos_a]][idx[pos_b]]:
            base[dst] = k
            pairs.append((tuple(base), c * mc))
    return _ref_accumulate(field, pairs)


def _ref_slotwise(field, ta, tb, alg):
    srows = _ref_rows(alg)
    pairs = []
    for ia, ca in ta.items():
        for ib, cb in tb.items():
            partial = [((), ca * cb)]
            for i, j in zip(ia, ib):
                partial = [(pref + (k,), coef * mc) for pref, coef in partial
                           for k, mc in srows[i][j]]
            pairs.extend(partial)
    return _ref_accumulate(field, pairs)


def _ref_add(field, ta, tb):
    return _ref_accumulate(field, list(ta.items()) + list(tb.items()))


def _ref_scale(field, ta, c):
    return _ref_clean(field, {idx: v * c for idx, v in ta.items()})


def _ref_permute(ta, perm):
    return {tuple(idx[p] for p in perm): c for idx, c in ta.items()}


def _ref_merge(dims, ta, groups):
    bounds, pos = [], 0
    for g in groups:
        bounds.append((pos, pos + g))
        pos += g
    return {tuple(flat_index(dims[lo:hi], idx[lo:hi]) for lo, hi in bounds): c
            for idx, c in ta.items()}


def _assert_canonical(t):
    assert t.den > 0
    if t.field.p is None:
        assert gcd(t.den, *t.num.values()) == 1
    else:
        assert t.den == 1
        assert all(0 < c < t.field.p for c in t.num.values())
    assert all(t.num.values())


def field_scalars(field):
    """Over QQ: ints next to Fractions with denominators 1, 2, 3 and 6,
    negatives included; over GF(p): unreduced ints, negatives included."""
    if field.p is None:
        return st.one_of(
            st.integers(-6, 6),
            st.builds(Fraction, st.integers(-6, 6),
                      st.sampled_from([1, 2, 3, 6])))
    return st.integers(-3 * field.p, 3 * field.p)


def sparse_scalars(field):
    return st.one_of(st.just(0), st.just(0), field_scalars(field))


def raw_terms(field, dims, max_terms=6):
    index = st.tuples(*(st.integers(0, d - 1) for d in dims))
    return st.dictionaries(index, field_scalars(field), max_size=max_terms)


@given(data=st.data(), field=st.sampled_from([QQ, GF(5), GF(7)]))
@settings(max_examples=60, deadline=None)
def test_integer_core_matches_scalar_dicts(data, field):
    n = data.draw(st.integers(2, 3), label="n")
    k = data.draw(st.integers(1, 3), label="slots")
    dims = (n,) * k
    ta = data.draw(raw_terms(field, dims), label="a")
    tb = data.draw(raw_terms(field, dims), label="b")
    a, b = TensorElt(field, dims, ta), TensorElt(field, dims, tb)
    ra, rb = _ref_clean(field, ta), _ref_clean(field, tb)
    other_dims = data.draw(st.sampled_from([(), (2,), (n, 2)]), label="c")
    tc = data.draw(raw_terms(field, other_dims), label="c terms")
    c, rc = TensorElt(field, other_dims, tc), _ref_clean(field, tc)
    # random structure constants: mul_slots and slotwise_mul need no axioms
    mul = data.draw(st.lists(st.lists(st.lists(
        sparse_scalars(field), min_size=n, max_size=n), min_size=n,
        max_size=n), min_size=n, max_size=n), label="mul")
    alg = FinAlgebra(field, mul, [field.one()] + [field.zero()] * (n - 1),
                     check=False)
    width = data.draw(st.integers(1, k), label="map width")
    out_dims = data.draw(st.sampled_from([(), (2,), (n, 3)]), label="out")
    rows = data.draw(st.lists(st.lists(
        sparse_scalars(field), min_size=n ** width, max_size=n ** width),
        min_size=prod(out_dims), max_size=prod(out_dims)), label="map")
    lm = linmap_from_rows(field, rows, (n,) * width, out_dims)
    pos = data.draw(st.integers(0, k - width), label="pos")
    scalar = data.draw(field_scalars(field), label="scalar")
    perm = data.draw(st.permutations(range(k)), label="perm")
    groups = data.draw(st.sampled_from([g for g in ((k,), (1, k - 1),
                                                    (k - 1, 1)) if all(g)]),
                       label="groups")
    bounds = [sum(groups[:r]) for r in range(len(groups) + 1)]
    merged = [prod(dims[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    cases = [
        (a.tensor(c), _ref_insert(field, ra, k, rc)),
        (a.insert(pos, c), _ref_insert(field, ra, pos, rc)),
        (a.apply_at(pos, lm),
         _ref_apply_at(field, dims, ra, pos, rows, lm.in_dims, out_dims)),
        (a + b, _ref_add(field, ra, rb)),
        (a - b, _ref_add(field, ra, _ref_scale(field, rb, -1))),
        (a.scale(scalar), _ref_scale(field, ra, scalar)),
        (a.permute(perm), _ref_permute(ra, perm)),
        (a.apply_at(0, reshape_map(field, dims, merged)),
         _ref_merge(dims, ra, groups)),
        (a.apply_at(0, reshape_map(field, dims, (prod(dims),)))
         .apply_at(0, reshape_map(field, (prod(dims),), dims)), ra),
        (a.slotwise_mul(b, alg), _ref_slotwise(field, ra, rb, alg)),
    ]
    if k > 1:
        pa, pb = data.draw(st.permutations(range(k)), label="slots")[:2]
        cases.append((a.mul_slots(pa, pb, alg),
                      _ref_mul_slots(field, ra, pa, pb, alg)))
    for got, want in cases:
        _assert_canonical(got)
        assert got.terms == want
        assert TensorElt(field, got.dims, got.terms) == got


@given(data=st.data(), field=st.sampled_from([QQ, GF(5), GF(7)]))
@settings(max_examples=40, deadline=None)
def test_canonical_form(data, field):
    dims = (2, 3)
    t = TensorElt(field, dims, data.draw(raw_terms(field, dims)))
    _assert_canonical(t)
    assert t.scale(2).scale(Fraction(1, 2) if field.p is None
                            else pow(2, -1, field.p)) == t
    assert (t - t).is_zero()
    assert (t - t) == TensorElt.zero(field, dims)
    assert TensorElt(field, t.dims, t.terms) == t
    assert TensorElt.from_flat(field, dims, t.to_flat()) == t


def test_mixed_denominators_share_one_denominator():
    t = TensorElt(QQ, (3,), {(0,): Fraction(1, 3), (1,): Fraction(-1, 6),
                             (2,): 2})
    assert (t.num, t.den) == ({0: 2, 1: -1, 2: 12}, 6)
    assert t.terms == {(0,): Fraction(1, 3), (1,): Fraction(-1, 6),
                       (2,): Fraction(2)}
    assert all(isinstance(c, Fraction) for c in t.to_flat())
    # a sum whose terms cancel the denominator drops back to lowest terms
    u = t + TensorElt(QQ, (3,), {(0,): Fraction(2, 3), (1,): Fraction(1, 6)})
    assert (u.num, u.den) == ({0: 1, 2: 2}, 1)
    assert TensorElt(GF(5), (2,), {(0,): 7, (1,): -5}).terms == {(0,): 2}


# -- the slot-program executor against per-tuple evaluation ----------------

PROGRAM_FIELDS = {"QQ": QQ, "GF5": GF(5), "GF7": GF(7)}
MIXED = [1, -1, 2, Fraction(1, 3), Fraction(-5, 6), Fraction(7, 4),
         Fraction(2, 9)]


def _scalar(field):
    return st.sampled_from(MIXED) if field.p is None \
        else st.integers(1, field.p - 1)


def _element(data, field, dims, max_terms=5):
    idx = st.tuples(*(st.integers(0, d - 1) for d in dims))
    return TensorElt(field, dims, data.draw(
        st.dictionaries(idx, _scalar(field), max_size=max_terms)))


def _map(data, field, in_dims, out_dims):
    return linmap_from_columns(field, in_dims, out_dims, {
        idx: _element(data, field, out_dims, 3).terms
        for idx in product(*map(range, in_dims))})


def _algebra(data, field, n):
    """Any bilinear product on n basis vectors: not associative."""
    zero = field.zero()
    mul = [[[data.draw(st.sampled_from([zero, zero]) | _scalar(field))
             for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return FinAlgebra(field, mul, [field.one()] + [zero] * (n - 1),
                      check=False)


def _program(data, field, pool, steps, depth=0):
    """A random program over the variables ``pool``: inserts of variables
    (some read twice), constants and memoised sub-programs, maps on runs
    of slots, products of slots, permutations and operands multiplied
    into the value slot by slot, on at most four slots of dimension at
    most three."""
    dims = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
    prog = Program(_element(data, field, dims))
    kinds = (["var"] if pool else []) \
        + ["const", "apply", "mul", "permute", "slotwise", "fused"] \
        + (["sub"] if depth == 0 else [])
    for _ in range(steps):
        kind = data.draw(st.sampled_from(kinds))
        dims = prog.dims
        pos = data.draw(st.integers(0, len(dims)))
        if kind in ("var", "const", "sub") and len(dims) < 4:
            if kind == "var":
                x = data.draw(st.sampled_from(pool))
            elif kind == "const":
                x = _element(data, field, (data.draw(st.integers(1, 3)),))
            else:
                x = _program(data, field, pool, 2, depth + 1)
                if len(dims) + len(x.dims) > 4:
                    continue
            prog = prog.insert(pos, x)
        elif kind == "apply" and dims:
            pos = min(pos, len(dims) - 1)
            width = data.draw(st.integers(1, min(2, len(dims) - pos)))
            out = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                           max_size=2)))
            prog = prog.apply_at(pos, _map(data, field,
                                           dims[pos:pos + width], out))
        elif kind == "mul":
            pairs = [(a, b) for a in range(len(dims)) for b in range(len(dims))
                     if a != b and dims[a] == dims[b]]
            if pairs:
                a, b = data.draw(st.sampled_from(pairs))
                prog = prog.mul_slots(a, b, _algebra(data, field, dims[a]))
        elif kind == "permute":
            prog = prog.permute(data.draw(st.permutations(range(len(dims)))))
        elif kind == "slotwise":
            prog = _slotwise_step(data, field, prog)
        elif kind == "fused" and dims:
            prog = _fused_steps(data, field, prog, pool)
    return prog


def _fused_steps(data, field, prog, pool):
    """``prog`` with a one- or two-slot operand inserted and each of its
    slots then multiplied into its own slot of the value, on a random
    side, with permutes and maps on the value's slots in between.  The
    operand is a constant or, with a variable to read, a sub-program; the
    slots it multiplies are maybe the outputs of a map just applied."""
    dims = prog.dims
    if data.draw(st.booleans(), label="after a map"):
        at = data.draw(st.integers(0, len(dims) - 1))
        out = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                       max_size=1 + (len(dims) < 4))))
        prog = prog.apply_at(at, _map(data, field, dims[at:at + 1], out))
        targets = list(range(at, at + len(out)))
        dims = prog.dims
    else:
        k = data.draw(st.integers(1, min(2, len(dims))))
        targets = data.draw(st.permutations(range(len(dims))))[:k]
    xdims = tuple(dims[t] for t in targets)
    if pool and data.draw(st.booleans(), label="sub-program"):
        v = data.draw(st.sampled_from(pool))
        x = Program.basis(field, v).apply_at(0, _map(data, field, (v.dim,),
                                                     xdims))
    else:
        x = _element(data, field, xdims)
    pos = data.draw(st.integers(0, len(dims)))
    prog = prog.insert(pos, x)
    # the value's slots keep their index as label, the operand's are
    # ("x", r); a product takes the label of the value slot
    layout = list(range(len(dims)))
    layout[pos:pos] = [("x", r) for r in range(len(targets))]
    for r in data.draw(st.permutations(range(len(targets)))):
        between = data.draw(st.sampled_from(["none", "permute", "map"]))
        if between == "permute":
            perm = data.draw(st.permutations(range(len(layout))))
            prog = prog.permute(perm)
            layout = [layout[s] for s in perm]
        elif between == "map":
            s = data.draw(st.sampled_from([s for s, l in enumerate(layout)
                                           if not isinstance(l, tuple)]))
            d = prog.dims[s]
            prog = prog.apply_at(s, _map(data, field, (d,), (d,)))
        px, pv = layout.index(("x", r)), layout.index(targets[r])
        a, b = (px, pv) if data.draw(st.booleans(), label="left") \
            else (pv, px)
        prog = prog.mul_slots(a, b, _algebra(data, field, prog.dims[a]))
        layout[a] = targets[r]
        del layout[b]
    return prog


def _slotwise_step(data, field, prog):
    """``prog`` multiplied slot by slot by a random constant, on the left
    or on the right, in random algebras of its slots."""
    x = _element(data, field, prog.dims)
    algebras = [_algebra(data, field, d) for d in prog.dims]
    return prog.slotwise_mul(x, algebras, data.draw(st.booleans()))


def _evaluate(prog, env):
    """The program run step by step at one value of its variables."""
    t = prog.start
    for step in prog.steps:
        if step[0] == "slotwise_mul":
            _, x, algebras, _, left = step
            t = t.slotwise_mul(x, algebras, left=True) if any(left) \
                else t.slotwise_mul(x, algebras)
            continue
        if step[0] != "insert":
            t = getattr(t, step[0])(*step[1:])
            continue
        x = step[2]
        if isinstance(x, Var):
            x = TensorElt.basis(prog.field, (x.dim,), (env[x],))
        elif isinstance(x, Program):
            x = _evaluate(x, env)
        t = t.insert(step[1], x)
    return t


def _last_read(data, field, prog, last):
    """``prog`` with a variable read by its last step only: inserted, and
    maybe contracted by the next step."""
    pos = data.draw(st.integers(0, len(prog.dims)))
    prog = prog.insert(pos, last)
    others = [s for s, d in enumerate(prog.dims) if s != pos and d == last.dim]
    if others and data.draw(st.booleans()):
        other = data.draw(st.sampled_from(others))
        pair = (other, pos) if data.draw(st.booleans()) else (pos, other)
        prog = prog.mul_slots(*pair, _algebra(data, field, last.dim))
    elif data.draw(st.booleans()):
        prog = prog.apply_at(pos, _map(data, field, (last.dim,), (2,)))
    return prog


@given(st.sampled_from(sorted(PROGRAM_FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_executor_matches_per_tuple_evaluation(field_name, data):
    field = PROGRAM_FIELDS[field_name]
    pool = [Var("u", data.draw(st.integers(1, 3))),
            Var("v", data.draw(st.integers(1, 3)))]
    last = Var("w", data.draw(st.integers(1, 3)))
    prog = _last_read(data, field, _program(
        data, field, pool, data.draw(st.integers(1, 6))), last)
    order = data.draw(st.permutations(prog.vars))
    got = {}
    run_program(prog, order, got.__setitem__)
    dims = tuple(v.dim for v in order)
    assert sorted(got) == list(range(prod(dims)))
    for off, t in got.items():
        want = _evaluate(prog, dict(zip(order, unflatten(dims, off))))
        assert t == want and t.dims == prog.dims
    # the column sink: the map read column by column off step-by-step
    # evaluation
    assert linmap_from_program(prog, order) == linmap_from_columns(
        field, dims, prog.dims, {
            idx: _evaluate(prog, dict(zip(order, idx))).terms
            for idx in product(*map(range, dims))})
    # two programs that differ in one map, compared in lexicographic order
    if prog.dims:
        d = prog.dims[0]
        lhs = prog.apply_at(0, _map(data, field, (d,), (d,)))
        rhs = prog.apply_at(0, _map(data, field, (d,), (d,)))
        limit = data.draw(st.sampled_from([None, 1, 3]))
        want = [idx for idx in product(*map(range, dims))
                if _evaluate(lhs, dict(zip(order, idx)))
                != _evaluate(rhs, dict(zip(order, idx)))][:limit]
        assert program_mismatches(lhs, rhs, order, limit) == want


def test_program_permute_rejects_a_non_permutation():
    # an element and its program refuse alike
    t = TensorElt.basis(QQ, (2, 3), (0, 0))
    for target in (t, Program(t)):
        for perm in ((0, 0), (0, 1, 2)):
            with pytest.raises(ValueError,
                               match="not a permutation of the slots"):
                target.permute(perm)
        assert target.permute([1, 0]).dims == (3, 2)


def test_program_insert_rejects_a_position_outside_the_slots():
    t = TensorElt.basis(QQ, (2, 3), (0, 0))
    x = TensorElt.basis(QQ, (2,), (1,))
    for target in (t, Program(t)):
        for pos in (7, 3, -1):
            with pytest.raises(ValueError, match=rf"position {pos} outside"):
                target.insert(pos, x)
        with pytest.raises(ValueError):
            target.mul_slots(0, 2, group_algebra_z2().H)
        with pytest.raises(ValueError):
            target.apply_at(-1, group_algebra_z2().Delta)
        assert target.insert(2, x).dims == (2, 3, 2)


def test_elements_and_programs_refuse_the_same_calls():
    # on the 3-slot associator of H2: slot -1 is slot 2, and slot 5 and
    # position 9 do not exist; an operand over another field is refused,
    # and a variable is taken by a program only
    Hq = twisted_z2()
    Phi = Hq.Phi
    x = TensorElt.basis(QQ, (2,), (1,))
    residue = TensorElt.basis(GF(5), (2,), (1,))
    residues = TensorElt.basis(GF(5), Phi.dims, (1, 0, 1))
    for target in (Phi, Program(Phi)):
        for a, b in ((-1, 2), (0, 5)):
            with pytest.raises(ValueError, match="slots must differ"):
                target.mul_slots(a, b, Hq.H)
        for pos in (9, -1):
            with pytest.raises(ValueError, match=rf"position {pos} outside"):
                target.insert(pos, x)
        with pytest.raises(ValueError, match="operand over GF.5., not QQ"):
            target.insert(0, residue)
        with pytest.raises(ValueError, match="operand over GF.5., not QQ"):
            target.slotwise_mul(residues, Hq.H)
    u = Var("u", 2)
    with pytest.raises(ValueError, match="TensorElt does not take a Var"):
        Phi.insert(0, u)
    assert Program(Phi).insert(0, u).dims == (2, 2, 2, 2)


def _planned_kinds(prog, order):
    """The kinds of the steps ``prog`` runs, after checking that its
    values are those of step-by-step evaluation."""
    got = {}
    run_program(prog, order, got.__setitem__)
    dims = tuple(v.dim for v in order)
    assert got == {off: _evaluate(prog, dict(zip(order, unflatten(dims,
                                                                  off))))
                   for off in range(prod(dims))}
    return [step[0] for step in tensors_module._plan(prog)]


def test_plan_fuses_and_hoists():
    Hq = sweedler4()
    H = Hq.H
    t = TensorElt.from_flat(QQ, (4, 4), [Fraction(f % 5, 3)
                                         for f in range(16)])
    x = TensorElt.from_flat(QQ, (4, 4), [Fraction(f % 3 - 1, 2)
                                         for f in range(16)])
    u = Var("u", 4)
    # x0 multiplied into the first slot from the right, x1 into the
    # second from the left, a permute in between: one slotwise step
    fused = Program(t).insert(1, x).mul_slots(0, 1, H).permute((1, 0, 2)) \
        .mul_slots(0, 2, H)
    assert _planned_kinds(fused, ()) == ["slotwise_mul", "permute"]
    # the same multiplied into the two outputs of Delta: Delta is kept
    # as it is, and the operand is one slotwise step on its outputs, on
    # a value with more terms than Delta has columns and on e_u alone
    wide = Program(t.tensor(t)).tensor(u).apply_at(4, Hq.Delta) \
        .insert(4, x).mul_slots(4, 6, H).mul_slots(5, 6, H)
    narrow = Program.basis(QQ, u).apply_at(0, Hq.Delta).insert(0, x) \
        .mul_slots(0, 2, H).mul_slots(1, 2, H)
    for prog in (wide, narrow):
        assert _planned_kinds(prog, (u,)) == ["insert", "apply_at",
                                              "slotwise_mul"]
        assert tensors_module._plan(prog)[1][2] is Hq.Delta
    # a product of two fixed slots runs before the variable's loop opens
    hoisted = Program(t).tensor(u).mul_slots(1, 0, H)
    assert _planned_kinds(hoisted, (u,)) == ["mul_slots", "insert"]
    # a fixed operand is multiplied in before the loop of w opens; one
    # that reads u is not, so that w's loop does not run inside u's
    w = Var("w", 2)
    for operand, kinds in ((x, ["slotwise_mul", "insert"]),
                           (Program.basis(QQ, u).apply_at(0, Hq.Delta),
                            ["insert", "slotwise_mul"])):
        prog = Program(t).tensor(w).insert(0, operand).mul_slots(2, 0, H) \
            .mul_slots(2, 0, H)
        assert _planned_kinds(prog, prog.vars) == kinds
    # a slot of x read by a map before its product: nothing is fused,
    # and the product of the other slot of x moves before the map
    kept = Program(t).insert(1, x).apply_at(1, Hq.S).mul_slots(0, 1, H) \
        .mul_slots(1, 2, H)
    assert _planned_kinds(kept, ()) == ["insert", "mul_slots", "apply_at",
                                        "mul_slots"]


@given(st.sampled_from(sorted(PROGRAM_FIELDS)), st.data())
@settings(max_examples=200, deadline=None)
def test_plan_applies_only_the_maps_the_program_names(field_name, data):
    # a plan reorders steps and fuses operands, and never makes a map:
    # each map it applies is one of the program's own, also where a fused
    # operand is multiplied into the outputs of a map
    field = PROGRAM_FIELDS[field_name]
    pool = [Var("u", data.draw(st.integers(1, 3))),
            Var("v", data.draw(st.integers(1, 3)))]
    prog = _program(data, field, pool, data.draw(st.integers(1, 6)))
    if prog.dims:
        prog = _fused_steps(data, field, prog, pool)
    maps = [step[2] for step in prog.steps if step[0] == "apply_at"]
    for step in tensors_module._plan(prog):
        if step[0] == "apply_at":
            assert any(step[2] is lm for lm in maps)


def test_plan_merges_permutes_rearranges_and_refuses_overlaps():
    # the branches of ``_fuse`` and ``_emit`` that the corpus programs do
    # not reach, each checked against step-by-step evaluation
    Hq = sweedler4()
    H = Hq.H
    t = TensorElt.from_flat(QQ, (4, 4), [Fraction(f % 5, 3)
                                         for f in range(16)])
    x = TensorElt.from_flat(QQ, (4, 4), [Fraction(f % 3 - 1, 2)
                                         for f in range(16)])
    y = TensorElt.from_vector(QQ, [Fraction(1, 2), 0, 3, -1])
    u = Var("u", 4)
    # the product of the two fixed slots moves before the loop of u, so
    # the permutes that follow it are emitted next to each other: they
    # merge into one, or into none when they cancel
    hoisted = Program(t.insert(2, y)).tensor(u).mul_slots(0, 1, H)
    assert _planned_kinds(hoisted.permute((1, 2, 0)).permute((1, 0, 2)),
                          (u,)) == ["mul_slots", "insert", "permute"]
    assert _planned_kinds(hoisted.permute((1, 0, 2)).permute((1, 0, 2)),
                          (u,)) == ["mul_slots", "insert"]
    # y multiplied from the left into the first slot: fused, its product
    # stands where that slot was, not where y was inserted, so the two
    # slots the multiplication map reads are brought together first
    apart = Program(t.insert(2, y)).insert(3, y).mul_slots(3, 0, H) \
        .apply_at(1, mul_linmap(H))
    assert _planned_kinds(apart, ()) == ["slotwise_mul", "permute",
                                         "apply_at"]
    # an operand multiplied into itself, or into a product it made, is
    # not fused
    into_itself = Program(t).insert(0, x).mul_slots(0, 1, H)
    assert _planned_kinds(into_itself, ()) == ["insert", "mul_slots"]
    into_product = Program(t).insert(2, x).mul_slots(0, 2, H) \
        .mul_slots(0, 2, H)
    assert _planned_kinds(into_product, ()) == ["insert", "mul_slots",
                                                "mul_slots"]


def test_linmap_from_program_rebuilds_coproduct():
    # the column sink on e_h -> Delta(h) gives Delta back exactly
    H = sweedler4()
    h = Var("h", 4)
    assert linmap_from_program(Program.basis(QQ, h).apply_at(0, H.Delta),
                               (h,)) == H.Delta


@given(st.sampled_from(sorted(PROGRAM_FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_slotwise_step_matches_slotwise_mul(field_name, data):
    # a memoised sub-program, then the slotwise step with the constant on
    # either side, then a variable that only a later step reads
    field = PROGRAM_FIELDS[field_name]
    u, v, w = (Var(name, data.draw(st.integers(1, 3))) for name in "uvw")
    sub = Program.basis(field, v).apply_at(
        0, _map(data, field, (v.dim,), (data.draw(st.integers(1, 2)),)))
    prog = _program(data, field, [u], data.draw(st.integers(0, 2)), depth=1)
    if len(prog.dims) > 2:
        prog = prog.apply_at(0, _map(data, field, prog.dims[:3], (2,)))
    prog = _last_read(data, field, _slotwise_step(
        data, field, prog.insert(data.draw(st.integers(0, len(prog.dims))),
                                 sub)), w)
    got = {}
    order = data.draw(st.permutations(prog.vars))
    run_program(prog, order, got.__setitem__)
    dims = tuple(x.dim for x in order)
    assert sorted(got) == list(range(prod(dims)))
    for off, t in got.items():
        env = dict(zip(order, unflatten(dims, off)))
        assert t == _evaluate(prog, env) and t.dims == prog.dims
    # the step alone, on a value with mixed denominators or residues
    _, x, algebras, _, left = next(s for s in prog.steps
                                   if s[0] == "slotwise_mul")
    left = any(left)
    t = _element(data, field, x.dims, 6)
    values = []
    run_program(Program(t).slotwise_mul(x, algebras, left), (),
                lambda off, val: values.append(val))
    assert values == [t.slotwise_mul(x, algebras, left=True) if left
                      else t.slotwise_mul(x, algebras)]


def _mismatches_reference(lhs, rhs, order, limit):
    """program_mismatches unstaged: every value tuple in lexicographic
    order, both programs evaluated step by step."""
    bad = []
    for idx in product(*(range(v.dim) for v in order)):
        env = dict(zip(order, idx))
        if _evaluate(lhs, env) != _evaluate(rhs, env):
            bad.append(idx)
            if len(bad) == limit:
                break
    return bad


@given(st.sampled_from(sorted(PROGRAM_FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_program_mismatches_matches_unstaged_reference(field_name, data):
    # both sides compiled once with the first variable bound from
    # outside: it may be read first, late, twice, or only inside a
    # sub-program or by the last step; or the programs read no variable
    # and are compared once
    field = PROGRAM_FIELDS[field_name]
    if data.draw(st.booleans()):
        base = _program(data, field, [], data.draw(st.integers(1, 5))) \
            .tensor(_element(data, field, (data.draw(st.integers(1, 3)),)))
    else:
        pool = [Var("u", data.draw(st.integers(1, 3))),
                Var("v", data.draw(st.integers(1, 3)))]
        base = _last_read(data, field, _program(
            data, field, pool, data.draw(st.integers(1, 5))),
            Var("w", data.draw(st.integers(1, 3))))
    d = base.dims[0]
    cols = {(i,): _element(data, field, (d,), 3) for i in range(d)}
    m1 = linmap_from_columns(field, (d,), (d,),
                             {k: v.terms for k, v in cols.items()})
    changed = data.draw(st.integers(0, d - 1))
    cols[(changed,)] = cols[(changed,)] + _element(data, field, (d,), 2)
    m2 = linmap_from_columns(field, (d,), (d,),
                             {k: v.terms for k, v in cols.items()})
    lhs = base.apply_at(0, m1)
    rhs = data.draw(st.sampled_from([base.apply_at(0, m2), lhs]))
    if data.draw(st.booleans()):
        lhs, rhs = rhs, lhs
    order = data.draw(st.permutations(base.vars))
    limit = data.draw(st.sampled_from([None, 1, 3, 10]))
    assert program_mismatches(lhs, rhs, order, limit) \
        == _mismatches_reference(lhs, rhs, order, limit)


def test_executor_runs_each_step_once_per_value_read(monkeypatch):
    # u, v, w of dimensions 2, 3, 2; a step runs once per value of the
    # variables read up to it, a sub-program's once per value of its own
    fld = QQ
    u, v, w = Var("u", 2), Var("v", 3), Var("w", 2)

    def scaled(c, in_dim=2):
        return linmap_from_columns(fld, (in_dim,), (2,), {
            (i,): {(i % 2,): c} for i in range(in_dim)})

    maps = {"none": scaled(1), "u": scaled(2), "uv": scaled(3, 3),
            "sub u": scaled(5), "sub uw": scaled(7), "uvw": scaled(11)}
    sub = Program.basis(fld, u).apply_at(0, maps["sub u"]).tensor(w) \
        .apply_at(1, maps["sub uw"])
    prog = Program(TensorElt.basis(fld, (2,), (0,))) \
        .apply_at(0, maps["none"]) \
        .insert(1, u).permute((1, 0)).apply_at(0, maps["u"]) \
        .insert(0, v).apply_at(0, maps["uv"]) \
        .insert(3, sub).apply_at(0, maps["uvw"])
    calls = dict.fromkeys(maps, 0)
    label = {id(lm): key for key, lm in maps.items()}
    kernel, reader = tensors_module._kernel, tensors_module._reader

    def counting(key, run):
        def counted(*args):
            calls[key] = calls.get(key, 0) + 1
            return run(*args)
        return counted

    def counting_kernel(step, *args):
        run, den = kernel(step, *args)
        if step[0] == "apply_at":
            run = counting(label[id(step[2])], run)
        return run, den

    def counting_reader(pos, step, *args):
        # a basis vector inserted alone, or read straight off the columns
        # of the map that contracts it
        prepare, used = reader(pos, step, *args)
        key = label[id(step[2])] if used else "e_u"
        return (lambda num: counting(key, prepare(num))), used

    monkeypatch.setattr(tensors_module, "_kernel", counting_kernel)
    monkeypatch.setattr(tensors_module, "_reader", counting_reader)
    offsets = []
    run_program(prog, (u, v, w), lambda off, t: offsets.append(off))
    assert sorted(offsets) == list(range(12))
    assert calls == {"none": 1, "e_u": 2, "u": 2, "uv": 6, "sub u": 2,
                     "sub uw": 4, "uvw": 12}


def _zero_midway(field, dead, early):
    """A program over u, v, w (dims 2, 3, 2) whose value cancels to zero
    after u is read, for u == ``dead``, or with ``early`` before any
    variable is read; and the step-by-step values."""
    u, v, w = Var("u", 2), Var("v", 3), Var("w", 2)
    minus = field.p - 1 if field.p else -1      # -1, as a residue over GF(p)
    x = TensorElt(field, (2,), {(0,): 1, (1,): 1})
    # the two terms of x meet in one entry and cancel where u == dead
    meet = linmap_from_columns(field, (2, 2), (1,), {
        (i, j): {(0,): 2 * (minus if i and j == dead else 1)}
        for i in range(2) for j in range(2)})
    prog = Program(x)
    if early:
        prog = prog.apply_at(0, linmap_from_columns(field, (2,), (2,), {
            (0,): {(0,): 1}, (1,): {(0,): minus}}))
    prog = prog.tensor(u).apply_at(0, meet) \
        .tensor(v).apply_at(1, linmap_from_columns(field, (3,), (2,), {
            (i,): {(i % 2,): i + 1} for i in range(3)})) \
        .tensor(w).apply_at(2, linmap_from_columns(field, (2,), (2,), {
            (i,): {(0,): 1, (1,): i + 2} for i in range(2)}))
    return prog, (u, v, w)


@pytest.mark.parametrize("early", [False, True], ids=["midway", "early"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_zero_values_skip_their_loops_under_every_sink(field, early,
                                                       monkeypatch):
    prog, (u, v, w) = _zero_midway(field, 1, early)
    for order in ((u, v, w), (w, v, u), (v, u, w)):
        dims = tuple(x.dim for x in order)
        want = {off: _evaluate(prog, dict(zip(order, unflatten(dims, off))))
                for off in range(prod(dims))}
        assert sum(not t.is_zero() for t in want.values()) == \
            (0 if early else 6)
        got = {}
        run_program(prog, order, got.__setitem__)
        assert got == want
        assert linmap_from_program(prog, order) == linmap_from_columns(
            field, dims, prog.dims,
            {unflatten(dims, off): t.terms for off, t in want.items()})
    # beneath a zero nothing runs: v is read only for u = 0, w only for
    # (0, v), and nothing at all after an early zero
    reads, reader = [], tensors_module._reader

    def counting_reader(pos, step, dim, vals, s, p):
        prepare, used = reader(pos, step, dim, vals, s, p)

        def counted(num):
            value = prepare(num)
            return lambda: reads.append(s) or value()
        return counted, used

    monkeypatch.setattr(tensors_module, "_reader", counting_reader)
    run_program(prog, (u, v, w), lambda off, t: None)
    assert sorted(reads) == ([] if early else [0] * 2 + [1] * 3 + [2] * 6)


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_a_mismatch_inside_a_zero_subtree_is_found(field, side):
    # the staged program is zero beneath u == 1; the other side reads
    # every value off one map, equal but for one entry inside that zero
    # subtree, so only that value tuple differs, whichever side skips
    prog, (u, v, w) = _zero_midway(field, 1, False)
    for order in ((u, v, w), (w, v, u), (v, w, u)):
        dims = tuple(x.dim for x in order)
        cols = {idx: dict(_evaluate(prog, dict(zip(order, idx))).terms)
                for idx in product(*map(range, dims))}
        inside = tuple({u: 1, v: 2, w: 0}[x] for x in order)
        assert not cols[inside]
        cols[inside] = {(0, 1, 0): field.one()}
        flat = Program.basis(field, *order).apply_at(0, linmap_from_columns(
            field, dims, prog.dims, cols))
        lhs, rhs = (prog, flat) if side == "lhs" else (flat, prog)
        for limit in (None, 1):
            assert program_mismatches(lhs, rhs, order, limit) == [inside] \
                == _mismatches_reference(lhs, rhs, order, limit)


def test_column_sink_den_is_the_lcm_of_the_reduced_columns():
    # raw values over 36: columns over 2 and over 3, and one where two
    # entries cancel and the rest is an integer, so the map is over 6
    u = Var("u", 3)
    x = TensorElt(QQ, (2,), {(0,): Fraction(1, 6), (1,): Fraction(1, 6)})
    m = linmap_from_columns(QQ, (2, 3), (2,), {
        (0, 0): {(0,): 1}, (1, 0): {(0,): 2},
        (0, 1): {(1,): 1}, (1, 1): {(1,): 1},
        (0, 2): {(0,): Fraction(5, 6), (1,): 1},
        (1, 2): {(0,): Fraction(-5, 6), (1,): 5}})
    prog = Program(x).tensor(u).apply_at(0, m)
    values = [_evaluate(prog, {u: i}) for i in range(3)]
    assert [t.den for t in values] == [2, 3, 1]
    assert values[2].terms == {(1,): 1}
    got = linmap_from_program(prog, (u,))
    assert got.den == 6 == x.den * m.den // 6
    assert got == linmap_from_columns(QQ, (3,), (2,), {
        (i,): t.terms for i, t in enumerate(values)})


# -- maps whose columns are disjoint or have unit entries ----------------------
#
# A map whose columns share no output re-keys each term into terms no
# other term meets, and with unit entries it copies the coefficients; the
# references below sum every product, reading the map's dense rows.

FLAG_FIELDS = {"QQ": QQ, "GF7": GF(7), "GF(2^61-1)": GF(2 ** 61 - 1)}


def _flagged_map(data, field):
    """A map from one or two slots to at most two (none: a functional),
    its columns drawn disjoint or freely, some of them empty, its entries
    all 1 or drawn."""
    in_dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                       max_size=2), label="in"))
    out_dims = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2),
                               label="out"))
    keys = list(product(*map(range, in_dims)))
    outs = list(product(*map(range, out_dims)))
    if data.draw(st.booleans(), label="disjoint"):
        # each output in at most one column, the owner -1 for none
        owner = data.draw(st.lists(st.integers(-1, len(keys) - 1),
                                   min_size=len(outs), max_size=len(outs)))
        support = {k: [o for o, w in zip(outs, owner) if w == j]
                   for j, k in enumerate(keys)}
    else:
        support = {k: data.draw(st.lists(st.sampled_from(outs), unique=True,
                                          max_size=3)) for k in keys}
    ones = data.draw(st.booleans(), label="unit")
    return linmap_from_columns(field, in_dims, out_dims, {
        k: {o: field.one() if ones else data.draw(_scalar(field))
            for o in col} for k, col in support.items()})


def _map_rows(lm):
    """The dense rows of ``lm`` as field scalars, read off its columns."""
    rows = [[0] * prod(lm.in_dims) for _ in range(prod(lm.out_dims))]
    for k, col in lm.cols.items():
        for o, c in col:
            rows[o][k] = Fraction(c, lm.den) if lm.field.p is None else c
    return rows


def _brute_flags(lm):
    """``(disjoint, unit)`` read pair by pair off the dense rows."""
    rows = _map_rows(lm)
    disjoint = all(sum(1 for c in row if c) <= 1 for row in rows)
    unit = all(c == 1 for row in rows for c in row if c)
    return disjoint, unit


def _check_apply_at(lm, t, pos):
    """``t.apply_at(pos, lm)`` against the dense reference, directly and
    in the executor beneath a variable; returns the direct result."""
    field = lm.field
    want = _ref_apply_at(field, t.dims, dict(t.terms), pos, _map_rows(lm),
                         lm.in_dims, lm.out_dims)
    got = t.apply_at(pos, lm)
    _assert_canonical(got)
    assert got.terms == want
    v = Var("v", 2)
    values = {}
    run_program(Program(t).insert(0, v).apply_at(pos + 1, lm), (v,),
                values.__setitem__)
    for i in range(2):
        assert values[i].terms == {(i,) + idx: c for idx, c in want.items()}
    return got


@given(st.sampled_from(sorted(FLAG_FIELDS)), st.data())
@settings(max_examples=80, deadline=None)
def test_map_flags_and_one_pass_kernels_match_dense_reference(field_name,
                                                              data):
    field = FLAG_FIELDS[field_name]
    lm = _flagged_map(data, field)
    assert (lm.disjoint, lm.unit) == _brute_flags(lm)
    pre = tuple(data.draw(st.lists(st.integers(1, 2), max_size=1)))
    post = tuple(data.draw(st.lists(st.integers(1, 2), max_size=1)))
    t = _element(data, field, pre + lm.in_dims + post, 8)
    got = _check_apply_at(lm, t, len(pre))
    # a basis vector contracted through the map reads its columns back
    xs = [Var(f"x{s}", d) for s, d in enumerate(lm.in_dims)]
    assert linmap_from_program(Program.basis(field, *xs).apply_at(0, lm),
                               xs) == lm
    # the other direct calls give canonical results too: residues in
    # [1, p) over den 1 over GF(p), lowest terms over QQ
    n = 3
    alg = cyclic_with_cocycle(7, n).H if field.p == 7 else _algebra(
        data, field, n)
    a = _element(data, field, (n, n), 6)
    for out in (got.insert(0, a), got.tensor(a), a.slotwise_mul(a, alg),
                a.slotwise_mul(_element(data, field, (n, n)), alg, left=True),
                a.mul_slots(0, 1, alg), a.mul_slots(1, 0, alg),
                a.permute((1, 0))):
        _assert_canonical(out)


def _one_output_map(data, field, grow):
    """A map with disjoint unit columns of one output each: an injection
    of the input basis into the output basis, a bijection onto a block of
    the same size unless ``grow``."""
    in_dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                       max_size=2), label="in"))
    n = prod(in_dims)
    out_dims = ((n + data.draw(st.integers(1, 3), label="growth"),) if grow
                else tuple(data.draw(st.permutations(in_dims), label="out")))
    outs = data.draw(st.permutations(range(prod(out_dims))), label="outs")
    return linmap_from_columns(field, in_dims, out_dims, {
        unflatten(in_dims, f): {unflatten(out_dims, outs[f]): field.one()}
        for f in range(n)})


@given(st.sampled_from(sorted(FLAG_FIELDS)), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_one_output_maps_re_key_by_a_shift_per_block_offset(field_name,
                                                             grow, data):
    # every permute, and S and S^{-1} on FpZn(7,3), are such maps; with a
    # slot before the map, a growing block also moves each term by the
    # offset of that slot
    field = FLAG_FIELDS[field_name]
    lm = _one_output_map(data, field, grow)
    assert (lm.disjoint, lm.unit) == (True, True)
    assert all(len(col) == 1 for col in lm.cols.values())
    pre = tuple(data.draw(st.lists(st.integers(2, 3), min_size=int(grow),
                                   max_size=1), label="pre"))
    post = tuple(data.draw(st.lists(st.integers(1, 2), max_size=1),
                           label="post"))
    t = _element(data, field, pre + lm.in_dims + post, 8)
    _check_apply_at(lm, t, len(pre))
    perm = data.draw(st.permutations(range(len(t.dims))), label="perm")
    assert t.permute(tuple(perm)).terms == {
        tuple(idx[s] for s in perm): c for idx, c in t.terms.items()}


# each differs from RE_KEY in one respect; the first shares an output and
# accumulates, the other two multiply their entries in
RE_KEY = {(0,): {(1,): 1}, (1,): {(0,): 1, (2,): 1}, (2,): {}}
MAP_NEAR_MISSES = {
    "re-key": (RE_KEY, (True, True)),
    "shared output": ({**RE_KEY, (2,): {(1,): 1}}, (False, True)),
    "den=2": ({k: {o: Fraction(1, 2) for o in col}
               for k, col in RE_KEY.items()}, (True, False)),
    "entry 2": ({**RE_KEY, (1,): {(0,): 2, (2,): 1}}, (True, False))}


@pytest.mark.parametrize("name", sorted(MAP_NEAR_MISSES))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_map_near_misses_keep_their_entries(name, data):
    cols, flags = MAP_NEAR_MISSES[name]
    lm = linmap_from_columns(QQ, (3,), (3,), cols)
    assert (lm.disjoint, lm.unit) == flags == _brute_flags(lm)
    if name == "den=2":
        assert lm.den == 2 and all(c == 1 for col in lm.cols.values()
                                   for _, c in col)
    pos = data.draw(st.integers(0, 1))
    t = _element(data, QQ, (2,) * pos + (3,) + (2,) * (1 - pos), 6)
    _check_apply_at(lm, t, pos)


# -- offset keys against a dense reference ------------------------------------
#
# Every kernel re-keys a term by int arithmetic on its row-major offset.
# The references below read the operands only through their flat
# coordinates (``to_flat``) and products of basis vectors only through
# ``FinAlgebra.multiply``, and walk multi-indices, so they share nothing
# with the key layout.

OFFSET_FIELDS = {"QQ": QQ, "GF5": GF(5)}


def _coords(t):
    """{multi-index: scalar} of the nonzero flat coordinates of ``t``."""
    return {idx: c for idx, c in zip(product(*map(range, t.dims)),
                                     t.to_flat()) if c}


def _flat_ref(field, dims, pairs):
    """The flat coordinates over ``dims`` of the sum of ``pairs``."""
    out = dict.fromkeys(product(*map(range, dims)), field.zero())
    for idx, c in pairs:
        out[idx] += c
    return [c % field.p if field.p else c for c in out.values()]


def _times(alg, i, j):
    """e_i e_j in ``alg``, through ``multiply`` on coordinate vectors."""
    unit = [[int(a == b) for b in range(alg.dim)] for a in range(alg.dim)]
    return [(k, c) for k, c in enumerate(alg.multiply(unit[i], unit[j]))
            if c]


def _diagonal(field, n):
    """k^n: a basis of orthogonal idempotents."""
    one, zero = field.one(), field.zero()
    return FinAlgebra(field, [[[one if i == j == k else zero
                                for k in range(n)] for j in range(n)]
                               for i in range(n)], [one] * n, check=False)


def _kernel_flat(step, t, x=None):
    """The flat coordinates of the kernel of ``step`` run on ``t``."""
    p = t.field.p
    run, den = tensors_module._kernel(step, t.dims, p)
    num = run(t.num) if x is None else run(t.num, x.num)
    return TensorElt.from_num(t.field, tensors_module._shape(step, t.dims),
                              num, t.den * den * (x.den if x else 1)).to_flat()


@pytest.mark.parametrize("kind", ["insert", "apply_at", "mul_slots",
                                  "permute", "slotwise_mul"])
@given(st.sampled_from(sorted(OFFSET_FIELDS)), st.data())
@settings(max_examples=60, deadline=None)
def test_offset_kernels_match_dense_reference(kind, field_name, data):
    field = OFFSET_FIELDS[field_name]
    dims = list(data.draw(st.lists(st.integers(1, 3), max_size=3),
                          label="dims"))
    if kind == "insert":
        t = _element(data, field, tuple(dims), 8)
        x = _element(data, field, tuple(data.draw(
            st.lists(st.integers(1, 3), max_size=2), label="x dims")), 4)
        for pos in range(len(dims) + 1):       # both ends and between
            want = _flat_ref(field, t.dims[:pos] + x.dims + t.dims[pos:], (
                (ia[:pos] + ib + ia[pos:], ca * cb)
                for ia, ca in _coords(t).items()
                for ib, cb in _coords(x).items()))
            assert t.insert(pos, x).to_flat() == want
        return
    if kind == "apply_at":
        # one or two slots to none, one or two (1 -> 0, 1 -> 2, 2 -> 1 ...)
        lm = _flagged_map(data, field)
        pos = data.draw(st.integers(0, len(dims)))
        t = _element(data, field, tuple(dims[:pos]) + lm.in_dims
                     + tuple(dims[pos:]), 8)
        end = pos + len(lm.in_dims)
        cols = {idx: _coords(TensorElt.basis(field, lm.in_dims, idx)
                             .apply_at(0, lm))
                for idx in product(*map(range, lm.in_dims))}
        want = _flat_ref(field, t.dims[:pos] + lm.out_dims + t.dims[end:], (
            (ia[:pos] + o + ia[end:], ca * c) for ia, ca in _coords(t).items()
            for o, c in cols[ia[pos:end]].items()))
        assert t.apply_at(pos, lm).to_flat() == want
        # the executor reads the basis vector the map contracts off its
        # columns, for the first input slot of the map
        v = Var("v", lm.in_dims[0])
        u = _element(data, field, t.dims[:pos] + t.dims[pos + 1:], 6)
        got = {}
        run_program(Program(u).insert(pos, v).apply_at(pos, lm), (v,),
                    got.__setitem__)
        assert got == {i: u.insert(pos, TensorElt.basis(field, (v.dim,), (
            i,))).apply_at(pos, lm) for i in range(v.dim)}
        return
    if kind == "permute":
        t = _element(data, field, tuple(dims), 8)
        perm = data.draw(st.permutations(range(len(dims))))
        want = _flat_ref(field, tuple(dims[s] for s in perm), (
            (tuple(ia[s] for s in perm), ca) for ia, ca in _coords(t).items()))
        assert t.permute(perm).to_flat() == want
        return
    n = data.draw(st.integers(1, 3), label="n")
    diagonal = data.draw(st.booleans(), label="idempotents")
    if kind == "mul_slots":
        # a and b in either order, anywhere among the other slots
        dims += [n, n]
        order = data.draw(st.permutations(range(len(dims))))
        dims = [dims[s] for s in order]
        a, b = order.index(len(dims) - 2), order.index(len(dims) - 1)
        alg = _diagonal(field, n) if diagonal else _algebra(data, field, n)
        t = _element(data, field, tuple(dims), 8)
        pairs = []
        for ia, ca in _coords(t).items():
            for k, c in _times(alg, ia[a], ia[b]):
                idx = list(ia)
                idx[a] = k
                del idx[b]
                pairs.append((tuple(idx), ca * c))
        want = _flat_ref(field, tuple(d for s, d in enumerate(dims)
                                      if s != b), pairs)
        assert t.mul_slots(a, b, alg).to_flat() == want
        return
    # two or more slots, not adjacent nor in order, each multiplied by a
    # slot of x on its own side, as a planned step takes them
    dims += [n, n]
    slots = data.draw(st.permutations(range(len(dims))))[
        :data.draw(st.integers(2, len(dims)), label="k")]
    algebras = [_diagonal(field, dims[s]) if diagonal
                else _algebra(data, field, dims[s]) for s in slots]
    left = tuple(data.draw(st.lists(st.booleans(), min_size=len(slots),
                                    max_size=len(slots)), label="left"))
    t = _element(data, field, tuple(dims), 8)
    x = _element(data, field, tuple(dims[s] for s in slots), 6)
    pairs = []
    for ia, ca in _coords(t).items():
        for ib, cb in _coords(x).items():
            partial = [(list(ia), ca * cb)]
            for r, (s, alg, side) in enumerate(zip(slots, algebras, left)):
                i, j = (ib[r], ia[s]) if side else (ia[s], ib[r])
                partial = [(idx[:s] + [k] + idx[s + 1:], c * mc)
                           for idx, c in partial
                           for k, mc in _times(alg, i, j)]
            pairs += [(tuple(idx), c) for idx, c in partial]
    step = ("slotwise_mul", x, tuple(algebras), tuple(slots), left)
    assert _kernel_flat(step, t, x) == _flat_ref(field, tuple(dims), pairs)


@given(st.sampled_from(sorted(OFFSET_FIELDS)), st.data())
@settings(max_examples=40, deadline=None)
def test_terms_keep_their_multi_indices_and_order(field_name, data):
    # offsets are row-major, so sorting the terms by multi-index is
    # sorting them by offset, and the view iterates in the order of num
    field = OFFSET_FIELDS[field_name]
    dims = tuple(data.draw(st.lists(st.integers(1, 3), max_size=3)))
    t = _element(data, field, dims, 10)
    assert list(t.terms) == [unflatten(dims, f) for f in t.num]
    assert [flat_index(dims, idx) for idx, _ in sorted(t.terms.items())] \
        == sorted(t.num)
    assert dict(t.terms) == _coords(t)
    assert TensorElt(field, dims, t.terms) == t
    # a multi-index outside the dims is no key, even where its offset is
    for bad in [(0,) * (len(dims) + 1), 0] + (
            [dims, (-1,) + dims[1:]] if dims else []):
        assert bad not in t.terms and t.terms.get(bad) is None

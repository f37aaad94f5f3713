from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from quasihopf import products
from quasihopf.actions import (LeftModuleAlgebra, RightModuleAlgebra,
                               trivial_right_action)
from quasihopf.coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                                 RightComoduleAlgebra, omega_from_coaction, tensor_bicomodule,
                                 two_sided_from_bicomodule)
from quasihopf.fields import QQ
from quasihopf.finalg import (FinAlgebra, Report, opposite,
                              verify_associative_unital)
from quasihopf.linalg import reshape_map
from quasihopf.quasihopf import QuasiHopfAlgebra
from quasihopf.products import (diag_crossed, diag_crossed_general, gen_smash,
                                gen_two_sided_crossed, induced_costructures,
                                left_quasi_smash, quasi_smash, right_gen_smash,
                                right_smash, smash, two_sided_gen_smash,
                                two_sided_smash)
from quasihopf.tensors import Program, TensorElt, Var, run_program

from conftest import corrupt_one, entry

SMALL = ["QZ2", "H2", "Sweedler4"]
HOPF = ["QZ2", "Sweedler4"]


def right_regular(Hq):
    return RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H),
                              name="Ht", check=False)


@pytest.mark.parametrize("name", SMALL)
def test_smash_products(name):
    st = entry(name)
    Hq, Am = st["H"], st["module"]
    p = smash(Am, check=True)
    assert p.result.dim == Am.A.dim * Hq.n
    right_smash(right_regular(Hq), check=True)
    two_sided_smash(Am, right_regular(Hq), check=True)


@pytest.mark.parametrize("name", SMALL)
def test_generalized_smash_products(name):
    st = entry(name)
    Am, Ab = st["module"], st["bicomodule"]
    gen_smash(Am, Ab, check=True)
    right_gen_smash(Ab, right_regular(st["H"]), check=True)
    two_sided_gen_smash(Am, Ab, right_regular(st["H"]), check=True)


@pytest.mark.parametrize("name", SMALL)
def test_quasi_smash_products(name):
    st = entry(name)
    Ab, Du = st["bicomodule"], st["dual"]
    quasi_smash(Ab, Du, check=True)
    left_quasi_smash(Du, Ab, check=True)


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("flavor", ["bowtie", "btrl", "rbowtie", "rbtrl"])
def test_diagonal_crossed_products(name, flavor):
    st = entry(name)
    p = diag_crossed(st["dual"], st["bicomodule"], flavor, check=True)
    verify_associative_unital(p.result, limit=3).require(f"{name} {flavor}")


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_diag_general_delta(name):
    st = entry(name)
    d = two_sided_from_bicomodule(st["bicomodule"], "l", check=False)
    from quasihopf.coactions import omega_from_coaction
    for side, primed in (("left", False), ("right", True)):
        diag_crossed_general(st["dual"], d, side, check=True,
                             Om=omega_from_coaction(d, primed=primed))


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_gen_two_sided_crossed(name):
    st = entry(name)
    Ab, Du = st["bicomodule"], st["dual"]
    gen_two_sided_crossed(Ab, Du, Ab, check=True)


@pytest.mark.parametrize("name", HOPF)
def test_smash_against_direct_hopf_formula(name):
    # ordinary Hopf case: (a#h)(a'#h') = a(h_1.a') # h_2 h', coded here
    # straight from the coproduct as an independent table
    st = entry(name)
    Hq, Am = st["H"], st["module"]
    n, m = Hq.n, Am.A.dim
    mul = smash(Am, check=False).result.mul
    fld = Hq.field
    for ia in range(m):
        for ih in range(n):
            for ja in range(m):
                for jh in range(n):
                    t = TensorElt.basis(fld, (m, n, m, n), (ia, ih, ja, jh))
                    t = t.apply_at(1, Hq.Delta)
                    # [a, h1, h2, a', h']
                    t = t.permute((0, 1, 3, 2, 4))
                    t = t.apply_at(1, Am.action).mul_slots(0, 1, Am.A)
                    t = t.mul_slots(1, 2, Hq.H)
                    got = mul[ia * n + ih][ja * n + jh]
                    t = t.apply_at(0, reshape_map(fld, (m, n), (m * n,)))
                    assert list(t.to_flat()) == got


@pytest.mark.parametrize("name", HOPF)
def test_two_sided_smash_against_direct_hopf_formula(name):
    # (a#h#b)(a'#h'#b') = a(h_1.a') # h_2 h'_1 # (b.h'_2)b'
    st = entry(name)
    Hq, Am = st["H"], st["module"]
    Bm = right_regular(Hq)
    n, m = Hq.n, Am.A.dim
    mul = two_sided_smash(Am, Bm, check=False).result.mul
    fld = Hq.field
    dims = (m, n, n, m, n, n)
    for i in range(len(mul)):
        for j in range(len(mul)):
            ia, r = divmod(i, n * n)
            ih, ib = divmod(r, n)
            ja, r = divmod(j, n * n)
            jh, jb = divmod(r, n)
            t = TensorElt.basis(fld, dims, (ia, ih, ib, ja, jh, jb))
            t = t.apply_at(1, Hq.Delta).apply_at(5, Hq.Delta)
            # [a, h1, h2, b, a', h'1, h'2, b']
            t = t.permute((0, 1, 4, 2, 5, 3, 6, 7))
            # -> [a, h1, a', h2, h'1, b, h'2, b']
            t = t.apply_at(1, Am.action).mul_slots(0, 1, Am.A)
            t = t.mul_slots(1, 2, Hq.H)
            t = t.apply_at(2, Bm.action).mul_slots(2, 3, Bm.B)
            t = t.apply_at(0, reshape_map(fld, (m, n, m), (m * n * m,)))
            assert list(t.to_flat()) == mul[i][j]


@pytest.mark.parametrize("name", HOPF)
def test_diag_flavors_coincide_for_hopf(name):
    st = entry(name)
    Du, Ab = st["dual"], st["bicomodule"]
    b = diag_crossed(Du, Ab, "bowtie", check=False)
    t = diag_crossed(Du, Ab, "btrl", check=False)
    assert b.result.mul == t.result.mul


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_diag_flavors_coincide_on_tensor_bicomodule(name):
    # when the bicomodule splits as right (x) left comodule factors the
    # two nested coactions agree, so both flavors give one algebra
    st = entry(name)
    Ab0 = st["bicomodule"]
    Ab = tensor_bicomodule(Ab0.right, Ab0.left, check=False)
    Du = st["dual"]
    b = diag_crossed(Du, Ab, "bowtie", check=False)
    t = diag_crossed(Du, Ab, "btrl", check=False)
    assert b.result.mul == t.result.mul


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_induced_costructures(name):
    st = entry(name)
    p = gen_smash(st["module"], st["bicomodule"], check=False)
    induced_costructures(p, check=True)


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_induced_costructures_of_a_right_gen_smash(name):
    # the left coaction a right generalized smash product inherits from
    # its bicomodule factor, checked by its axiom suite; a factor with a
    # right coaction only has none to give
    st = entry(name)
    Ab, Bm = st["bicomodule"], right_regular(st["H"])
    induced_costructures(right_gen_smash(Ab, Bm, check=False), check=True)
    with pytest.raises(ValueError, match="carries no left coaction"):
        induced_costructures(right_gen_smash(Ab.right, Bm, check=False))


def test_mismatched_parents_rejected():
    Am = entry("QZ2")["module"]
    Ab = entry("Sweedler4")["bicomodule"]
    with pytest.raises(ValueError):
        gen_smash(Am, Ab, check=False)


@pytest.mark.parametrize("name", SMALL)
def test_product_units_and_embeddings(name):
    st = entry(name)
    Hq, Am = st["H"], st["module"]
    p = smash(Am, check=False)
    want = Am.unit_elt().tensor(Hq.unit_elt()).to_flat()
    assert list(p.result.unit) == list(want)


def test_unchecked_products_build_no_embedding_maps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("embedding map built without check")

    monkeypatch.setattr(products, "_slot_embedding", refuse)
    st = entry("H2")
    Hq, Am, Ab, Du = st["H"], st["module"], st["bicomodule"], st["dual"]
    Bm = right_regular(Hq)
    for build in (lambda: smash(Am, check=False),
                  lambda: right_smash(Bm, check=False),
                  lambda: gen_smash(Am, Ab, check=False),
                  lambda: right_gen_smash(Ab, Bm, check=False),
                  lambda: diag_crossed(Du, Ab, "rbowtie", check=False),
                  lambda: gen_two_sided_crossed(Ab, Du, Ab, check=False),
                  lambda: two_sided_smash(Am, Bm, check=False)):
        assert build().result.dim > 1
    with pytest.raises(AssertionError, match="without check"):
        smash(Am, check=True)


def test_embedding_check_flags_a_wrong_subalgebra():
    # Sweedler's algebra is not commutative, so its opposite does not
    # embed into A >*< H4 as the comodule slot
    st = entry("Sweedler4")
    Am, Ab = st["module"], st["bicomodule"]
    p = gen_smash(Am, Ab, check=False)
    units = [Am.unit_elt(), Ab.unit_elt()]
    rep = Report()
    products._check_subalgebras(rep, p.result, p.dims, units, [
        (1, Ab.A, "right"), (1, opposite(Ab.A), "op")])
    assert rep.failures and all(f.startswith("embedding op: multiplicative")
                                for f in rep.failures)


# -- the direct basis product against insert + mul_slots -------------------

def _times_basis_algebras(field):
    if field == "GF5":
        return [entry("FpZn(5,2)")["H"].H, entry("FpZn(5,2)")["dual"].A,
                entry("FpZn(5,2)")["bicomodule"].A]
    # Q[Z2] on the basis 2, g has den 2
    halves = FinAlgebra(QQ, [[[2, 0], [0, 2]], [[0, 2], [Fraction(1, 2), 0]]],
                        [Fraction(1, 2), 0])
    return [entry("H2")["H"].H, entry("Sweedler4")["H"].H,
            entry("Sweedler4")["dual"].A, halves]


SCALARS = [1, -1, 2, Fraction(1, 3), Fraction(-5, 6), Fraction(7, 4)]


@given(hs.sampled_from(["QQ", "GF5"]), hs.booleans(), hs.data())
@settings(max_examples=80, deadline=None)
def test_times_basis_matches_insert_then_mul_slots(field, left, data):
    # the executor reads e_i multiplied into the last slot (on either
    # side) straight off the rows; the reference inserts e_i, multiplies
    alg = data.draw(hs.sampled_from(_times_basis_algebras(field)))
    fld = alg.field
    head = tuple(data.draw(hs.lists(hs.integers(1, 3), max_size=2)))
    dims = head + (alg.dim,)
    idx = hs.tuples(*(hs.integers(0, d - 1) for d in dims))
    scalar = hs.sampled_from(SCALARS) if fld.p is None \
        else hs.integers(0, 2 * fld.p)
    terms = data.draw(hs.dictionaries(idx, scalar, max_size=12))
    t = TensorElt(fld, dims, terms)
    k = len(dims)
    pos = k - 1 if left else k
    v = Var("i", alg.dim)
    got = {}
    run_program(Program(t).insert(pos, v).mul_slots(k - 1, k, alg), [v],
                got.__setitem__)
    for i in range(alg.dim):
        e = TensorElt.basis(fld, (alg.dim,), (i,))
        want = t.insert(pos, e).mul_slots(k - 1, k, alg)
        assert got[i] == want
        assert (got[i].dims, got[i].den, list(got[i].num.items())) \
            == (want.dims, want.den, list(want.num.items()))


# -- staged pair programs against the per-pair programs they replace --------
#
# Each reference below is a constructor's pair program as it stood before
# the programs were staged: the whole slot program runs on every basis
# pair.  The staged constructors must give the same tables entry for
# entry, also on a broken, non-associative input.

def _basis(fld, dims, idx_i, idx_j):
    lhs = [TensorElt.basis(fld, (m,), (i,)) for m, i in zip(dims, idx_i)]
    rhs = [TensorElt.basis(fld, (m,), (i,)) for m, i in zip(dims, idx_j)]
    return lhs, rhs


def ref_smash(Am):
    Hq = Am.Hq
    H, Aalg, fld = Hq.H, Am.A, Hq.field
    dims = (Aalg.dim, Hq.n)

    def pair(idx_i, idx_j):
        (a, h), (a2, h2) = _basis(fld, dims, idx_i, idx_j)
        t = Hq.PhiInv.insert(1, a).apply_at(0, Am.action)
        t = t.insert(3, h).apply_at(3, Hq.Delta).mul_slots(1, 3, H)
        t = t.insert(2, a2).apply_at(1, Am.action).mul_slots(0, 1, Aalg)
        t = t.mul_slots(1, 2, H)
        return t.insert(2, h2).mul_slots(1, 2, H)

    return dims, pair, Am.unit_elt().tensor(Hq.unit_elt())


def _ref_coact_then_act(Hq, rho, Phi, Aalg, action, Balg, units):
    H, fld = Hq.H, Hq.field
    dims = (Aalg.dim, Balg.dim)

    def pair(idx_i, idx_j):
        (a, b), (a2, b2) = _basis(fld, dims, idx_i, idx_j)
        t = a.tensor(b).tensor(a2).tensor(b2).apply_at(2, rho)
        t = t.insert(5, Phi)
        t = t.mul_slots(0, 2, Aalg).mul_slots(0, 4, Aalg)
        t = t.mul_slots(2, 4, H)
        t = t.apply_at(1, action).apply_at(2, action)
        return t.mul_slots(1, 2, Balg)

    return dims, pair, units[0].tensor(units[1])


def _ref_act_then_coact(Hq, Phi, action, Aalg, lam, Balg, units):
    H, fld = Hq.H, Hq.field
    dims = (Aalg.dim, Balg.dim)

    def pair(idx_i, idx_j):
        (a, b), (a2, b2) = _basis(fld, dims, idx_i, idx_j)
        t = Phi.insert(1, a).apply_at(0, action)
        t = t.insert(2, b).apply_at(2, lam).mul_slots(1, 2, H)
        t = t.insert(2, a2).apply_at(1, action).mul_slots(0, 1, Aalg)
        t = t.mul_slots(2, 1, Balg)
        return t.insert(2, b2).mul_slots(1, 2, Balg)

    return dims, pair, units[0].tensor(units[1])


def ref_right_smash(Bm):
    Hq = Bm.Hq
    return _ref_coact_then_act(Hq, Hq.Delta, Hq.PhiInv, Hq.H, Bm.action,
                               Bm.B, [Hq.unit_elt(), Bm.unit_elt()])


def ref_gen_smash(Am, Ab):
    Bco = Ab.left
    return _ref_act_then_coact(Am.Hq, Bco.PhiLamInv, Am.action, Am.A,
                               Bco.lam, Bco.B,
                               [Am.unit_elt(), Bco.unit_elt()])


def ref_right_gen_smash(Ab, Bm):
    Aco = Ab.right
    return _ref_coact_then_act(Bm.Hq, Aco.rho, Aco.PhiRhoInv, Aco.A,
                               Bm.action, Bm.B,
                               [Aco.unit_elt(), Bm.unit_elt()])


def ref_quasi_smash(Ab, Abi):
    Aco = Ab.right
    return _ref_coact_then_act(Abi.Hq, Aco.rho, Aco.PhiRhoInv, Aco.A,
                               Abi.right, Abi.A,
                               [Aco.unit_elt(), Abi.unit_elt()])


def ref_left_quasi_smash(Abi, Ab):
    Bco = Ab.left
    return _ref_act_then_coact(Abi.Hq, Bco.PhiLamInv, Abi.left, Abi.A,
                               Bco.lam, Bco.B,
                               [Abi.unit_elt(), Bco.unit_elt()])


def ref_diag_left(Abi, d, Om):
    Hq = Abi.Hq
    H, fld = Hq.H, Hq.field
    Palg, Ualg = Abi.A, d.A
    dims = (Palg.dim, Ualg.dim)

    def pair(idx_i, idx_j):
        (p, u), (p2, u2) = _basis(fld, dims, idx_i, idx_j)
        t = Om.insert(1, p).apply_at(0, Abi.left)
        t = t.permute((0, 4, 1, 2, 3)).apply_at(0, Abi.right)
        t = t.insert(4, u).apply_at(4, d.delta)
        t = t.mul_slots(1, 4, H)
        t = t.apply_at(5, Hq.SInv).mul_slots(5, 3, H)
        t = t.insert(2, p2).apply_at(1, Abi.left)
        t = t.permute((0, 1, 4, 2, 3)).apply_at(1, Abi.right)
        t = t.mul_slots(0, 1, Palg).mul_slots(1, 2, Ualg)
        return t.insert(2, u2).mul_slots(1, 2, Ualg)

    return dims, pair, Abi.unit_elt().tensor(d.unit_elt())


def ref_diag_right(Abi, d, Omp):
    Hq = Abi.Hq
    H, fld = Hq.H, Hq.field
    Palg, Ualg = Abi.A, d.A
    dims = (Ualg.dim, Palg.dim)

    def pair(idx_i, idx_j):
        (u, p), (u2, p2) = _basis(fld, dims, idx_i, idx_j)
        t = Omp.insert(0, u2).apply_at(0, d.delta).insert(0, u)
        t = t.mul_slots(0, 2, Ualg).mul_slots(0, 5, Ualg)
        t = t.apply_at(1, Hq.SInv).mul_slots(4, 1, H)
        t = t.mul_slots(1, 4, H)
        t = t.insert(4, p).apply_at(3, Abi.left)
        t = t.permute((0, 2, 3, 1, 4)).apply_at(2, Abi.right)
        t = t.insert(2, p2).apply_at(1, Abi.left)
        t = t.permute((0, 2, 1, 3)).apply_at(2, Abi.right)
        return t.mul_slots(1, 2, Palg)

    return dims, pair, d.unit_elt().tensor(Abi.unit_elt())


def ref_gen_two_sided_crossed(Afr, Abi, Bfr):
    Aco, Bco = Afr.right, Bfr.left
    Hq = Abi.Hq
    H, fld = Hq.H, Hq.field
    Aalg, Palg, Balg = Aco.A, Abi.A, Bco.B
    mA, mB = Aalg.dim, Balg.dim
    dims = (mA, Palg.dim, mB)
    outer = {}
    for ia in range(mA):
        for ia2 in range(mA):
            t = TensorElt.basis(fld, (mA, mA), (ia, ia2))
            t = t.apply_at(1, Aco.rho).insert(3, Aco.PhiRhoInv)
            t = t.mul_slots(0, 1, Aalg).mul_slots(0, 2, Aalg)
            outer[ia, ia2] = t.mul_slots(1, 2, H)
    inner = []
    for ib in range(mB):
        t = Bco.PhiLamInv.insert(3, TensorElt.basis(fld, (mB,), (ib,)))
        t = t.apply_at(3, Bco.lam)
        inner.append(t.mul_slots(1, 3, H).mul_slots(2, 3, Balg))

    def pair(idx_i, idx_j):
        (_, p, _), (_, p2, b2) = _basis(fld, dims, idx_i, idx_j)
        t = inner[idx_i[2]].insert(1, p).apply_at(0, Abi.left)
        t = outer[idx_i[0], idx_j[0]].tensor(t).permute((0, 3, 1, 2, 4, 5))
        t = t.apply_at(1, Abi.right)
        t = t.insert(4, p2).apply_at(3, Abi.left)
        t = t.permute((0, 1, 3, 2, 4)).apply_at(2, Abi.right)
        t = t.mul_slots(1, 2, Palg).insert(3, b2)
        return t.mul_slots(2, 3, Balg)

    unit = Aco.unit_elt().tensor(Abi.unit_elt()).tensor(Bco.unit_elt())
    return dims, pair, unit


def ref_two_sided_gen_smash(Am, Ab, Bm):
    Hq = Am.Hq
    H, fld = Hq.H, Hq.field
    Aalg, Ualg, Balg = Am.A, Ab.A, Bm.B
    mU = Ualg.dim
    dims = (Aalg.dim, mU, Balg.dim)
    xt = Ab.left.PhiLamInv.tensor(Ab.PhiLRInv)
    left_u = []
    for iu in range(mU):
        t = xt.insert(3, TensorElt.basis(fld, (mU,), (iu,)))
        t = t.apply_at(3, Ab.lam)
        t = t.mul_slots(1, 3, H).mul_slots(1, 4, H)
        left_u.append(t.mul_slots(2, 3, Ualg).mul_slots(2, 3, Ualg))
    right_u = []
    for iu in range(mU):
        t = TensorElt.basis(fld, (mU,), (iu,)).apply_at(0, Ab.rho)
        right_u.append(t.tensor(Ab.right.PhiRhoInv))

    def pair(idx_i, idx_j):
        (a, _, b), (a2, _, b2) = _basis(fld, dims, idx_i, idx_j)
        t = left_u[idx_i[1]].insert(1, a).apply_at(0, Am.action)
        t = t.insert(2, a2).apply_at(1, Am.action).mul_slots(0, 1, Aalg)
        t = t.insert(3, right_u[idx_j[1]])
        t = t.mul_slots(1, 3, Ualg).mul_slots(1, 4, Ualg)
        t = t.mul_slots(2, 3, H).mul_slots(2, 3, H)
        t = t.insert(2, b).apply_at(2, Bm.action)
        t = t.insert(3, b2).apply_at(3, Bm.action)
        return t.mul_slots(2, 3, Balg)

    unit = Am.unit_elt().tensor(Ab.unit_elt()).tensor(Bm.unit_elt())
    return dims, pair, unit


# where a broken bicomodule has a mixed associator multiplied by a basis
# tensor: the left one by e_1 (x) e_0 (x) e_0 as in acceptance criterion
# 6, the left one in its comodule slot, or the right one in its middle slot
BREAKS = {"criterion-6": ("left", (1, 0, 0)),
          "left-comodule-slot": ("left", (0, 0, 1)),
          "right-middle-slot": ("right", (0, 1, 0))}


def broken_bicomodule(name, where):
    """The corpus bicomodule with one mixed associator multiplied by a
    basis tensor (see BREAKS): not a comodule algebra, so the products
    built from it need not be associative."""
    st = entry(name)
    Hq, Ab = st["H"], st["bicomodule"]
    side, idx = BREAKS[where]
    n, m = Hq.n, Ab.A.dim
    if side == "left":
        algs = [Hq.H, Hq.H, Ab.A]
        g = TensorElt.basis(Hq.field, (n, n, m), idx)
        bad = LeftComoduleAlgebra(
            Hq, Ab.A, Ab.lam, g.slotwise_mul(Ab.left.PhiLam, algs),
            PhiLamInv=Ab.left.PhiLamInv.slotwise_mul(g, algs), check=False)
        return BicomoduleAlgebra(bad, Ab.right, Ab.PhiLR, check=False)
    algs = [Ab.A, Hq.H, Hq.H]
    g = TensorElt.basis(Hq.field, (m, n, n), idx)
    bad = RightComoduleAlgebra(
        Hq, Ab.A, Ab.rho, g.slotwise_mul(Ab.right.PhiRho, algs),
        PhiRhoInv=Ab.right.PhiRhoInv.slotwise_mul(g, algs), check=False)
    return BicomoduleAlgebra(Ab.left, bad, Ab.PhiLR, check=False)


def _diag(Du, Ab, nest, primed, side):
    d = two_sided_from_bicomodule(Ab, nest, check=False)
    Om = omega_from_coaction(d, primed=primed)
    ref = ref_diag_left if side == "left" else ref_diag_right
    return (lambda: diag_crossed_general(Du, d, side, check=False, Om=Om),
            lambda: ref(Du, d, Om))


def staged_cases(name, Ab):
    """(staged constructor, reference) pairs over the bicomodule ``Ab``."""
    st = entry(name)
    Am, Du = st["module"], st["dual"]
    Bm = right_regular(st["H"])
    cases = {
        "smash": (lambda: smash(Am, check=False), lambda: ref_smash(Am)),
        "right_smash": (lambda: right_smash(Bm, check=False),
                        lambda: ref_right_smash(Bm)),
        "gen_smash": (lambda: gen_smash(Am, Ab, check=False),
                      lambda: ref_gen_smash(Am, Ab)),
        "right_gen_smash": (lambda: right_gen_smash(Ab, Bm, check=False),
                            lambda: ref_right_gen_smash(Ab, Bm)),
        "quasi_smash": (lambda: quasi_smash(Ab, Du, check=False),
                        lambda: ref_quasi_smash(Ab, Du)),
        "left_quasi_smash": (lambda: left_quasi_smash(Du, Ab, check=False),
                             lambda: ref_left_quasi_smash(Du, Ab)),
        "gen_two_sided_crossed": (
            lambda: gen_two_sided_crossed(Ab, Du, Ab, check=False),
            lambda: ref_gen_two_sided_crossed(Ab, Du, Ab)),
        "two_sided_gen_smash": (
            lambda: two_sided_gen_smash(Am, Ab, Bm, check=False),
            lambda: ref_two_sided_gen_smash(Am, Ab, Bm)),
    }
    for nest, primed, side in (("l", False, "left"), ("r", False, "left"),
                               ("l", True, "right"), ("r", True, "right")):
        cases[f"diag_{nest}_{side}"] = _diag(Du, Ab, nest, primed, side)
    return cases


def _table(built):
    """The structure table of a product or quasi-smash module algebra."""
    for attr in ("result", "A", "B"):
        if hasattr(built, attr):
            return getattr(built, attr)


def algebra_from_pair_fn(field, dims, pair_fn, unit_tensor):
    """The algebra whose product of basis elements is ``pair_fn(idx_i,
    idx_j)``, one whole slot program per pair (the constructor the
    executor replaced, copied)."""
    dims = tuple(dims)
    basis = list(product(*map(range, dims)))
    values = []
    for idx_i in basis:
        for idx_j in basis:
            res = pair_fn(idx_i, idx_j)
            assert res.dims == dims
            values.append((res.den, sorted(res.num.items())))
    den = lcm(*(d for d, _ in values))
    rows = [[(k, c * (den // d)) for k, c in lst] for d, lst in values]
    n = len(basis)
    return FinAlgebra.from_int_rows(
        field, den, [rows[i * n:(i + 1) * n] for i in range(n)],
        unit_tensor.to_flat())


def assert_same_table(label, got, dims, pair, unit):
    want = algebra_from_pair_fn(got.field, dims, pair, unit)
    assert (got.den, got.rows) == (want.den, want.rows), label
    assert repr(got.unit) == repr(want.unit), f"{label}: unit"
    assert len(got.mul) == len(want.mul), f"{label}: dimension"
    for i, (gplane, wplane) in enumerate(zip(got.mul, want.mul)):
        for j, (grow, wrow) in enumerate(zip(gplane, wplane)):
            assert repr(grow) == repr(wrow), f"{label}: e_{i} e_{j}"


ALL_ENTRIES = ["QZ2", "H2", "FpZn(5,2)", "FpZn(7,3)", "Sweedler4"]


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_staged_products_match_per_pair_programs(name):
    for label, (build, ref) in staged_cases(
            name, entry(name)["bicomodule"]).items():
        assert_same_table(label, _table(build()), *ref())


@pytest.mark.parametrize("where", sorted(BREAKS))
@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_staged_products_match_on_broken_associator(name, where):
    cases = staged_cases(name, broken_bicomodule(name, where))
    non_associative = 0
    for label, (build, ref) in cases.items():
        got = _table(build())
        assert_same_table(label, got, *ref())
        non_associative += not verify_associative_unital(got, limit=1).ok
    # the broken input really reaches some of the tables
    assert non_associative


# -- per-basis identities on corrupted inputs: the (tag, basis tuple)
# pairs are the ones the hand-written loops reported before these checks
# became slot-program pairs, first 10 per tag --------------------------------

def _lines(monkeypatch, build, prefix):
    """The failure lines starting with ``prefix`` of the report that
    ``build`` requires, all of them (``require`` names only 10)."""
    seen = []
    monkeypatch.setattr(Report, "require",
                        lambda rep, context="": seen.append(rep.failures))
    build()
    return [f for f in seen[-1] if f.startswith(prefix)]


def test_smash_reports_a_corrupted_associator(monkeypatch):
    # Sweedler's algebra with one entry of PhiInv off by one: 48 and 52
    # failing (a, h, h') triples of absorb-right and absorb-left, the
    # first 10 of each named
    st = entry("Sweedler4")
    Hq, Am = st["H"], st["module"]
    bad = QuasiHopfAlgebra(Hq.H, Hq.Delta, Hq.counit, Hq.Phi, Hq.S,
                           Hq.alpha, Hq.beta, PhiInv=corrupt_one(Hq.PhiInv),
                           SInv=Hq.SInv)
    first10 = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0),
               (0, 1, 2), (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 2, 3)]
    assert _lines(monkeypatch, lambda: smash(LeftModuleAlgebra(
        bad, Am.A, Am.action, check=False)), "absorb") == [
        f"absorb-{side}: basis {idx}" for side in ("right", "left")
        for idx in first10]


def test_diag_crossed_reports_a_corrupted_coaction(monkeypatch):
    # the H2 bicomodule with one entry of PhiRho off by one
    st = entry("H2")
    Ab = st["bicomodule"]
    R = Ab.right
    bad = BicomoduleAlgebra(Ab.left, RightComoduleAlgebra(
        R.Hq, R.A, R.rho, corrupt_one(R.PhiRho), PhiRhoInv=R.PhiRhoInv,
        check=False), Ab.PhiLR, PhiLRInv=Ab.PhiLRInv, check=False)
    assert _lines(monkeypatch, lambda: diag_crossed(st["dual"], bad),
                  "generator") == [
        f"generator-recombination: basis {idx}"
        for idx in ((0, 0), (0, 1), (1, 0), (1, 1))]

from fractions import Fraction

import pytest

from quasihopf import corpus
from quasihopf.actions import (BimoduleAlgebra, LeftModuleAlgebra,
                               RightModuleAlgebra, as_module_over_tensor,
                               bar_construction, bimodule_to_left,
                               bimodule_to_right,
                               left_to_bimodule, right_to_bimodule,
                               tensor_bimodule, trivial_left_action,
                               trivial_right_action, twist_action)
from quasihopf.fields import QQ
from quasihopf.finalg import mul_linmap, opposite
from quasihopf.quasihopf import tensor_qh
from quasihopf.linalg import linmap_from_columns, reshape_map
from quasihopf.tensors import TensorElt

from conftest import entries, entry, right_regular


@pytest.mark.parametrize("name", entries())
def test_adjoint_module_algebra(name):
    entry(name)["module"].verify().require(name)


@pytest.mark.parametrize("name", entries())
def test_dual_bimodule_algebra(name):
    entry(name)["dual"].verify().require(name)


@pytest.mark.parametrize("name", entries())
def test_trivial_actions(name):
    Hq = entry(name)["H"]
    LeftModuleAlgebra(Hq, Hq.H, trivial_left_action(Hq, Hq.H), check=True)
    RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H), check=True)


@pytest.mark.parametrize("name", entries())
def test_bar_construction(name):
    Am = entry(name)["module"]
    bar = bar_construction(Am)
    bar.verify().require(bar.name)
    assert isinstance(bar, RightModuleAlgebra)


@pytest.mark.parametrize("name", entries(hopf=True))
def test_bar_is_opposite_for_coassociative_coproduct(name):
    # with the canonical twist trivial the bar product is a'a and the
    # action is through the antipode
    st = entry(name)
    Hq, Am = st["H"], st["module"]
    bar = bar_construction(Am)
    assert bar.B.mul == opposite(Am.A).mul
    n = Hq.n
    for i in range(n):
        for j in range(n):
            h = Hq.basis_elt(i)
            a = TensorElt.basis(QQ, (n,), (j,))
            got = a.tensor(h).apply_at(0, bar.action)
            want = h.apply_at(0, Hq.S).tensor(a).apply_at(0, Am.action)
            assert got == want


@pytest.mark.parametrize("name", entries(rational=True))
def test_bimodule_conversions(name):
    st = entry(name)
    Hq, Am, Du = st["H"], st["module"], st["dual"]
    bi = left_to_bimodule(Am, check=True)
    back = bimodule_to_left(bi, check=True)
    assert back.action == Am.action
    Bm = right_regular(Hq)
    bi2 = right_to_bimodule(Bm, check=True)
    assert bimodule_to_right(bi2, check=True).action == Bm.action
    # the dual carries nontrivial actions on both sides
    with pytest.raises(ValueError):
        bimodule_to_left(Du, check=False)
    with pytest.raises(ValueError):
        bimodule_to_right(Du, check=False)


@pytest.mark.parametrize("name", entries(rational=True))
def test_tensor_bimodule(name):
    st = entry(name)
    Hq, Am = st["H"], st["module"]
    Bm = right_regular(Hq)
    AB = tensor_bimodule(Am, Bm)
    AB.verify().require(AB.name)


def test_twist_action_h2():
    st = entry("H2")
    Hq, Am, Du = st["H"], st["module"], st["dual"]
    F = corpus.default_gauge("H2", Hq)
    FInv, HF = Hq.twisted(F)
    twisted = twist_action(Am, F, FInv, HF)
    twisted.verify().require(twisted.name)
    assert twisted.Hq.Phi == Hq.gauge_twist(F).Phi
    Bm = right_regular(Hq)
    for x in (Du, Bm):
        twist_action(x, F, FInv, HF).verify().require(x.name)


@pytest.mark.parametrize("name", entries(rational=True, dim=2))
def test_as_module_over_tensor(name):
    st = entry(name)
    Hq, Du = st["H"], st["dual"]
    K = tensor_qh(Hq, Hq.variant(op=True))
    mod = as_module_over_tensor(Du, K, check=True)
    # (h x h') . phi agrees with h . phi . h'
    n, m = Hq.n, Du.A.dim
    for i in range(n):
        for j in range(n):
            for k in range(m):
                h = Hq.basis_elt(i)
                hp = Hq.basis_elt(j)
                phi = Du.basis_elt(k)
                flat = TensorElt.basis(QQ if Hq.field.is_rational
                                       else Hq.field,
                                       (n, n), (i, j)).apply_at(
                    0, reshape_map(Hq.field, (n, n), (n * n,)))
                got = flat.tensor(phi).apply_at(0, mod.action)
                want = h.tensor(phi).apply_at(0, Du.left).tensor(hp) \
                    .apply_at(0, Du.right)
                assert got == want


# -- corrupted actions: the failure lines, recorded from the per-index scan
# that the staged comparison replaced (same witnesses, order and limit) --

def _h_acting_by_multiplication(name):
    Hq = entry(name)["H"]
    return Hq, mul_linmap(Hq.H)


def test_left_module_verify_reports_a_corrupted_action():
    # H2 acting on itself by left multiplication
    Hq, mul = _h_acting_by_multiplication("H2")
    rep = LeftModuleAlgebra(Hq, Hq.H, mul, check=False).verify()
    assert rep.failures == [
        "product-pentagon: basis (0, 0, 0)",
        "product-pentagon: basis (0, 0, 1)",
        "product-pentagon: basis (0, 1, 0)",
        "product-pentagon: basis (0, 1, 1)",
        "product-pentagon: basis (1, 0, 0)",
        "product-pentagon: basis (1, 0, 1)",
        "product-pentagon: basis (1, 1, 0)",
        "product-pentagon: basis (1, 1, 1)",
        "action-multiplicative: basis (1, 0, 0)",
        "action-multiplicative: basis (1, 0, 1)",
        "action-multiplicative: basis (1, 1, 0)",
        "action-multiplicative: basis (1, 1, 1)",
        "action-unital: basis (1,)"]


def test_right_module_verify_reports_a_corrupted_action():
    # Sweedler's algebra acting on itself by right multiplication: more
    # than 10 multiplicative failures, of which the first 10 are named
    Hq, mul = _h_acting_by_multiplication("Sweedler4")
    rep = RightModuleAlgebra(Hq, Hq.H, mul, check=False).verify()
    assert rep.failures == [
        "action-multiplicative: basis (0, 0, 1)",
        "action-multiplicative: basis (0, 0, 2)",
        "action-multiplicative: basis (0, 0, 3)",
        "action-multiplicative: basis (0, 1, 2)",
        "action-multiplicative: basis (0, 2, 1)",
        "action-multiplicative: basis (0, 2, 2)",
        "action-multiplicative: basis (0, 2, 3)",
        "action-multiplicative: basis (0, 3, 2)",
        "action-multiplicative: basis (1, 0, 2)",
        "action-multiplicative: basis (1, 2, 2)",
        "action-unital: basis (1,)",
        "action-unital: basis (2,)",
        "action-unital: basis (3,)"]


def test_bimodule_verify_reports_a_corrupted_action():
    # the dual of H2 with the left action of e_1 on e^0 halved
    st = entry("H2")
    Hq, Du = st["H"], st["dual"]

    def image(idx):
        v = TensorElt.basis(QQ, (2, 2), idx).apply_at(0, Du.left)
        return (v.scale(Fraction(1, 2)) if idx == (1, 0) else v).terms

    left = linmap_from_columns(QQ, (2, 2), (2,),
                               {(i, j): image((i, j)) for i in range(2)
                                for j in range(2)})
    rep = BimoduleAlgebra(Hq, Du.A, left, Du.right, check=False).verify()
    assert rep.failures == [
        "left-action-associative: basis (1, 1, 0)",
        "left-action-associative: basis (1, 1, 1)",
        "actions-commute: basis (1, 0, 1)",
        "actions-commute: basis (1, 1, 1)",
        "product-pentagon: basis (0, 0, 0)",
        "product-pentagon: basis (0, 0, 1)",
        "product-pentagon: basis (0, 1, 0)",
        "product-pentagon: basis (0, 1, 1)",
        "product-pentagon: basis (1, 0, 0)",
        "product-pentagon: basis (1, 0, 1)",
        "product-pentagon: basis (1, 1, 0)",
        "left-action-multiplicative: basis (1, 0, 0)",
        "action-unital-left: basis (1,)"]

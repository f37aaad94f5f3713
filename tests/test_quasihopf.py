from fractions import Fraction

import pytest

from quasihopf.corpus import (cyclic_with_cocycle, group_algebra_z2, sweedler4,
                              twisted_z2)
from quasihopf.fields import QQ
from quasihopf.finalg import invert_mixed
from quasihopf.quasihopf import QuasiHopfAlgebra, tensor_qh
from quasihopf.linalg import linmap_from_columns
from quasihopf.tensors import TensorElt, slotwise_prod

from conftest import doubled_column, entry

ALL = ["QZ2", "H2", "Sweedler4", "FpZn(7,3)", "FpZn(5,2)"]
HOPF = ["QZ2", "Sweedler4"]


@pytest.mark.parametrize("name", ALL)
def test_axioms(name):
    entry(name)["H"].verify().require(name)


@pytest.mark.parametrize("name", ALL)
def test_canonical_elements(name):
    entry(name)["H"].verify_canonical().require(name)


@pytest.mark.parametrize("name", ALL)
def test_drinfeld_identities(name):
    entry(name)["H"].verify_drinfeld().require(name)


@pytest.mark.parametrize("name", HOPF)
def test_hopf_case_has_trivial_twist_data(name):
    # for a coassociative coproduct the associator is 1x1x1, the
    # canonical twist collapses to 1x1 and q_R = p_R = 1x1, even when
    # the antipode has order four
    Hq = entry(name)["H"]
    assert Hq.Phi == Hq.unit_elt(3)
    dt = Hq.drinfeld_twist()
    one2 = Hq.unit_elt(2)
    assert dt.f == one2
    assert dt.f_inv == one2
    assert Hq.canonical_qR() == one2
    assert Hq.canonical_pR() == one2


def test_twisted_z2_associator_matches_projector_formula():
    # 1x1x1 - 2 pxpxp with p = (1-g)/2, built here independently
    Hq = twisted_z2()
    one = TensorElt.from_vector(QQ, [Fraction(1), Fraction(0)])
    g = TensorElt.from_vector(QQ, [Fraction(0), Fraction(1)])
    p = (one - g).scale(Fraction(1, 2))
    want = one.tensor(one).tensor(one) - p.tensor(p).tensor(p).scale(
        Fraction(2))
    assert Hq.Phi == want
    assert Hq.alpha == g
    assert Hq.beta == one


def test_twisted_z2_self_inverse_associator():
    Hq = twisted_z2()
    assert Hq.PhiInv == Hq.Phi
    assert slotwise_prod([Hq.Phi, Hq.Phi], Hq.H) == Hq.unit_elt(3)


def test_cyclic_cocycle_values():
    Hq = cyclic_with_cocycle(7, 3)
    # the associator entry at (i, j, k) is zeta^(i * floor((j+k)/3)) on
    # the idempotent basis, with zeta = 2^((7-1)/3) = 4 of order 3 mod 7
    zeta = pow(2, (7 - 1) // 3, 7)
    assert zeta == 4 and pow(zeta, 3, 7) == 1
    for (i, j, k), c in Hq.Phi.terms.items():
        assert c == pow(zeta, i * ((j + k) // 3), 7)


@pytest.mark.parametrize("name", ["QZ2", "H2", "Sweedler4"])
def test_variants_are_quasi_hopf(name):
    Hq = entry(name)["H"]
    for op, cop in ((True, False), (False, True), (True, True)):
        Hq.variant(op=op, cop=cop).verify().require(f"{name} variant")


def test_tensor_product_is_quasi_hopf():
    T = tensor_qh(twisted_z2(), sweedler4())
    assert T.n == 8
    T.verify().require("tensor product")
    T.verify_canonical().require("tensor product")


def test_gauge_twist_gives_quasi_hopf():
    Hq = twisted_z2()
    q = Fraction(1, 4)
    F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    HF = Hq.gauge_twist(F)
    HF.verify().require("twisted")
    HF.verify_canonical().require("twisted")
    HF.verify_drinfeld().require("twisted")


def test_gauge_twist_roundtrip():
    Hq = twisted_z2()
    q = Fraction(1, 4)
    F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    FInv = invert_mixed(F, [Hq.H, Hq.H])
    back = Hq.gauge_twist(F).gauge_twist(FInv)
    assert back.Phi == Hq.Phi
    assert back.Delta == Hq.Delta
    assert back.alpha == Hq.alpha
    assert back.beta == Hq.beta


def test_gauge_twist_rejects_bad_f():
    Hq = group_algebra_z2()
    with pytest.raises(ValueError):
        Hq.gauge_twist(TensorElt(QQ, (2, 2), {(0, 0): Fraction(2)}))


def test_twist_of_drinfeld_element():
    # f for the twisted algebra: f_F = (S x S)(swap F^{-1}) f F^{-1}
    Hq = twisted_z2()
    q = Fraction(1, 4)
    F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    FInv = invert_mixed(F, [Hq.H, Hq.H])
    HF = Hq.gauge_twist(F, FInv=FInv)
    lhs = HF.drinfeld_twist().f
    swapped = FInv.permute((1, 0)).apply_at(0, Hq.S).apply_at(1, Hq.S)
    rhs = slotwise_prod([swapped, Hq.drinfeld_twist().f, FInv], Hq.H)
    assert lhs == rhs


def test_eps_scalar_and_tmul():
    Hq = sweedler4()
    assert Hq.eps_scalar(Hq.basis_elt(0)) == 1
    assert Hq.eps_scalar(Hq.basis_elt(1)) == 0
    t = slotwise_prod([Hq.unit_elt(2), Hq.unit_elt(2)], Hq.H)
    assert t == Hq.unit_elt(2)


# -- per-basis identities on corrupted inputs: the (tag, basis tuple)
# pairs are the ones the hand-written loops reported before these checks
# became slot-program pairs, first 10 per tag --------------------------------

def test_verify_reports_a_corrupted_antipode():
    # Sweedler's algebra with S(e_1) doubled
    Hq = entry("Sweedler4")["H"]
    bad = QuasiHopfAlgebra(Hq.H, Hq.Delta, Hq.counit, Hq.Phi,
                           doubled_column(Hq.S, (1,)), Hq.alpha, Hq.beta,
                           PhiInv=Hq.PhiInv)
    assert bad.verify().failures == [
        "antipode/multiplicative: basis (1, 2)",
        "antipode/multiplicative: basis (2, 1)",
        "antipode/multiplicative: basis (2, 3)",
        "antipode/multiplicative: basis (3, 2)",
        "antipode-alpha: basis (1,)",
        "antipode-beta: basis (1,)"]
    assert bad.verify_canonical().failures == [
        "left-intertwiner: basis (1,)", "right-intertwiner: basis (3,)"]


def test_verify_reports_a_corrupted_coproduct():
    # H2 with e_0 (x) e_0 added to Delta(e_1)
    Hq = entry("H2")["H"]

    def col(idx):
        t = TensorElt.basis(QQ, (2,), idx).apply_at(0, Hq.Delta)
        return (t + TensorElt.basis(QQ, (2, 2), (0, 0)) if idx == (1,)
                else t).terms

    Delta = linmap_from_columns(QQ, (2,), (2, 2),
                                {(i,): col((i,)) for i in range(2)})
    bad = QuasiHopfAlgebra(Hq.H, Delta, Hq.counit, Hq.Phi, Hq.S, Hq.alpha,
                           Hq.beta, PhiInv=Hq.PhiInv, SInv=Hq.SInv)
    assert bad.verify().failures == [
        "coproduct/multiplicative: basis (1, 1)",
        "coassociativity: basis (1,)", "counit-left: basis (1,)",
        "counit-right: basis (1,)", "pentagon",
        "antipode-alpha: basis (1,)", "antipode-beta: basis (1,)"]


# -- the parent tags no other test names: one corrupted input each.  The
# op/cop parent of every mirror is checked by this verify alone. ----------

def _qz2_with(**data):
    """QZ2 (basis 1, g) with some of its data replaced."""
    Hq = entry("QZ2")["H"]
    parts = dict(H=Hq.H, Delta=Hq.Delta, counit=Hq.counit, Phi=Hq.Phi,
                 S=Hq.S, alpha=Hq.alpha, beta=Hq.beta, PhiInv=Hq.PhiInv,
                 SInv=Hq.SInv)
    parts.update(data)
    return QuasiHopfAlgebra(**parts)


def test_verify_reports_a_wrong_antipode_inverse():
    # Sweedler4's antipode has order 4, so S is not its own inverse
    Hq = entry("Sweedler4")["H"]
    bad = QuasiHopfAlgebra(Hq.H, Hq.Delta, Hq.counit, Hq.Phi, Hq.S,
                           Hq.alpha, Hq.beta, PhiInv=Hq.PhiInv, SInv=Hq.S)
    assert bad.verify().failures == ["antipode-inverse: basis (1,)",
                                     "antipode-inverse: basis (3,)"]


def test_verify_reports_a_singular_antipode():
    """S(g) = 0.  ``antipode/bijective`` implies ``antipode-inverse``:
    S(S^{-1}(h)) = h on every basis element makes S onto, so a rank
    below dim H always fails that check too."""
    S = linmap_from_columns(QQ, (2,), (2,), {(0,): {(0,): 1}})
    assert _qz2_with(S=S).verify().failures == [
        "antipode/multiplicative: basis (1, 1)",
        "antipode/bijective: rank 1 < 2", "antipode-inverse: basis (1,)",
        "counit-antipode: basis (1,)", "antipode-alpha: basis (1,)",
        "antipode-beta: basis (1,)"]


def test_verify_reports_an_antipode_that_moves_the_counit():
    """S(g) = -g, still a bijective anti-algebra map.  ``counit-antipode``
    never fails alone: applying eps to S(h_1) alpha h_2 = eps(h) alpha
    gives eps(S(h)) eps(alpha) = eps(h) eps(alpha) once eps is
    multiplicative, and eps(alpha) != 0 by the normalization, so it
    fails only with ``antipode-alpha``, ``counit-multiplicative`` or the
    normalization."""
    S = linmap_from_columns(QQ, (2,), (2,), {(0,): {(0,): 1},
                                             (1,): {(1,): -1}})
    assert _qz2_with(S=S, SInv=S).verify().failures == [
        "counit-antipode: basis (1,)", "antipode-alpha: basis (1,)",
        "antipode-beta: basis (1,)"]


def test_verify_reports_a_counit_that_is_not_multiplicative():
    # eps(g) = 2, so eps(g g) = 1 != 4
    counit = doubled_column(entry("QZ2")["H"].counit, (1,))
    assert _qz2_with(counit=counit).verify().failures == [
        "counit-multiplicative: basis (1, 1)", "counit-left: basis (1,)",
        "counit-right: basis (1,)", "antipode-alpha: basis (1,)",
        "antipode-beta: basis (1,)"]


def test_verify_reports_a_counit_that_is_not_unital():
    """eps(1) = 2.  ``counit-unital`` never fails alone: eps(1) =
    eps(1 1) = eps(1)^2 makes a multiplicative eps with eps(1) != 1 send
    1 to 0, and then eps(h) = eps(h) eps(1) = 0 for every h, so
    (eps x id) Delta(h) = 0 != h fails ``counit-left``."""
    counit = doubled_column(entry("QZ2")["H"].counit, (0,))
    assert _qz2_with(counit=counit).verify().failures == [
        "counit-multiplicative: basis (0, 0)",
        "counit-multiplicative: basis (0, 1)",
        "counit-multiplicative: basis (1, 0)",
        "counit-multiplicative: basis (1, 1)",
        "counit-unital: eps(1) != 1", "counit-left: basis (0,)",
        "counit-right: basis (0,)", "associator-counit: middle slot",
        "associator-counit: first slot", "associator-counit: last slot",
        "normalization: eps(alpha) eps(beta) != 1",
        "antipode-alpha: basis (0,)", "antipode-beta: basis (0,)"]

from fractions import Fraction

import pytest

from quasihopf.actions import LeftModuleAlgebra
from quasihopf.fields import QQ
from quasihopf.coactions import BicomoduleAlgebra, mixed_translation_identity
from quasihopf.finalg import FinAlgebra, Report, program_report
from quasihopf.linalg import LinMap, linmap_from_columns
from quasihopf.products import diag_crossed
from quasihopf.tensors import Program, Var, linmap_from_program
from quasihopf.ydrep import (BimoduleCoalgebra, FinModule, YDModule,
                             module_to_yd, regular_bimodule_coalgebra,
                             regular_module, sec8_correspondences,
                             yd_product, yd_roundtrip_check, yd_to_module)

from conftest import corrupt_one, doubled_column, entry

ALL = ["QZ2", "H2", "Sweedler4", "FpZn(7,3)", "FpZn(5,2)"]
SMALL = ["QZ2", "H2", "Sweedler4"]


@pytest.mark.parametrize("name", ALL)
def test_regular_bimodule_coalgebra(name):
    entry(name)["coalgebra"].verify().require(name)


def direct_dual(Hq):
    """H* read straight off Delta, eps and the product rows of H: the
    algebra, the unit and both actions (reference)."""
    n = Hq.n
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for (i, j), c in Hq.Delta.cols[(k,)]:
            rows[i][j].append((k, c))
    unit = [Hq.eps_scalar(Hq.basis_elt(k)) for k in range(n)]
    A = FinAlgebra.from_int_rows(Hq.field, Hq.Delta.den, rows, unit)
    left = {(a, i): [] for a in range(n) for i in range(n)}
    right = {(i, a): [] for i in range(n) for a in range(n)}
    for j in range(n):
        for a in range(n):
            for i, c in Hq.H.rows[j][a]:
                left[(a, i)].append(((j,), c))
            for i, c in Hq.H.rows[a][j]:
                right[(i, a)].append(((j,), c))
    return (A, LinMap(Hq.field, (n, n), (n,), Hq.H.den, left),
            LinMap(Hq.field, (n, n), (n,), Hq.H.den, right))


@pytest.mark.parametrize("name", ALL)
def test_convolution_dual_matches_dual_bimodule(name):
    st = entry(name)
    Du = st["dual"]
    A, left, right = direct_dual(st["H"])
    assert Du.A == A and repr(Du.A.unit) == repr(A.unit)
    assert Du.left == left
    assert Du.right == right
    assert Du.name == f"{st['H'].name}*"


@pytest.mark.parametrize("name", ALL)
def test_mixed_translation_identity(name):
    program_report([("mixed-translation", *mixed_translation_identity(
        entry(name)["bicomodule"]), ())]).require(name)


@pytest.mark.parametrize("name", SMALL)
def test_yd_roundtrip(name):
    st = entry(name)
    yd_roundtrip_check(st["H"], st["bicomodule"], st["coalgebra"]) \
        .require(name)


@pytest.mark.parametrize("name", SMALL)
def test_module_translations(name):
    st = entry(name)
    sec8_correspondences(st["H"], st["module"], st["module"]).require(name)


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_yd_structures_verify(name):
    st = entry(name)
    Ab, C = st["bicomodule"], st["coalgebra"]
    dual, prod = yd_product(Ab, C)
    dual.verify().require(dual.name)
    diag_crossed(dual, Ab, "bowtie")  # the checked build of prod
    M = regular_module(prod.result)
    M.verify().require(M.name)
    yd = module_to_yd(M, Ab, C, check=True)
    assert isinstance(yd, YDModule)
    back = yd_to_module(yd, prod)
    assert isinstance(back, FinModule)


def test_broken_comultiplication_detected():
    st = entry("QZ2")
    Hq, C = st["H"], st["coalgebra"]
    n = Hq.n
    # a coproduct that is not counital on basis e_1
    comul = linmap_from_columns(QQ, (n,), (n, n),
                                {(i,): {(0, 0): 1} for i in range(n)})
    bad = BimoduleCoalgebra(Hq, n, comul, C.counit, C.left, C.right,
                            check=False)
    # the (tag, basis tuple) pairs the hand-written loops reported
    assert bad.verify().failures == [
        "counit-left: basis (1,)", "counit-right: basis (1,)",
        "comul-left-module: basis (1, 0)", "comul-left-module: basis (1, 1)",
        "comul-right-module: basis (1, 0)",
        "comul-right-module: basis (1, 1)"]


def test_broken_module_action_detected():
    # an action ignoring the coproduct breaks the compatibility between
    # the product of the algebra and the action
    st = entry("Sweedler4")
    Hq, Am = st["H"], st["module"]
    n = Hq.n

    # h.a = a S(h)
    h, a = Var("h", n), Var("a", n)
    bad_act = linmap_from_program(
        Program.basis(QQ, a, h).apply_at(1, Hq.S).mul_slots(0, 1, Hq.H),
        (h, a))
    bad = LeftModuleAlgebra(Hq, Am.A, bad_act, check=False)
    rep = sec8_correspondences(Hq, bad, Am)
    # more than 10 failures, all of one relation: the first 10 in the
    # order (m, a, h) of the loops this check replaced
    assert rep.failures == [f"left-action-H-compat: basis {idx}" for idx in (
        (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 1), (0, 1, 2), (0, 2, 1),
        (0, 2, 2), (0, 2, 3), (0, 3, 1), (0, 3, 2))]


def test_fin_module_verify_rejects_non_action():
    st = entry("QZ2")
    Hq = st["H"]
    n = Hq.n
    # constant map is not unital
    act = linmap_from_columns(QQ, (n, n), (n,), {
        (i, j): {(1,): 1} for i in range(n) for j in range(n)})
    with pytest.raises(Exception):
        FinModule(Hq.H, n, act, check=True)


def test_regular_module():
    st = entry("Sweedler4")
    regular_module(st["H"].H).verify().require("Sweedler4")


def test_yd_product_dimensions():
    st = entry("H2")
    Ab, C = st["bicomodule"], st["coalgebra"]
    dual, prod = yd_product(Ab, C)
    assert prod.result.dim == C.dim * Ab.A.dim


# -- per-basis identities on corrupted inputs: the (tag, basis tuple)
# pairs are the ones the hand-written loops reported before these checks
# became slot-program pairs, first 10 per tag --------------------------------

def _h2_yd_module():
    st = entry("H2")
    _, prod = yd_product(st["bicomodule"], st["coalgebra"])
    M = regular_module(prod.result)
    return M, module_to_yd(M, st["bicomodule"], st["coalgebra"], check=False)


def test_yd_module_verify_reports_a_corrupted_coaction():
    _, yd = _h2_yd_module()
    bad = YDModule(yd.Hq, yd.Ab, yd.C, yd.dim, yd.act,
                   doubled_column(yd.coact, (1,)), check=False)
    assert bad.verify().failures == [
        "coaction-counit: basis (1,)"] + [
        f"mixed-coassociativity: basis ({i},)" for i in range(4)] + [
        "action-coaction-exchange: basis (0, 1)",
        "action-coaction-exchange: basis (1, 1)"]


def test_fin_module_verify_reports_a_corrupted_action():
    # 28 failing (m, a, a') triples; the first 10 are named
    M, _ = _h2_yd_module()
    bad = FinModule(M.algebra, M.dim, doubled_column(M.act, (3, 1)),
                    check=False)
    assert bad.verify().failures == [
        f"action-associative: basis {idx}" for idx in (
            (0, 3, 0), (0, 3, 1), (0, 3, 2), (0, 3, 3), (1, 0, 0), (1, 0, 1),
            (1, 0, 2), (1, 0, 3), (1, 1, 0), (1, 1, 1))]


def test_yd_roundtrip_reports_a_corrupted_embedding(monkeypatch):
    from quasihopf import isomaps
    gamma_map = isomaps.gamma_map
    monkeypatch.setattr(isomaps, "gamma_map", lambda *args, **kw:
                        doubled_column(gamma_map(*args, **kw), (1,)))
    st = entry("H2")
    rep = yd_roundtrip_check(st["H"], st["bicomodule"], st["coalgebra"])
    assert rep.failures == [f"embedding-pairing: basis (1, {m})"
                            for m in range(4)]


def test_yd_roundtrip_reports_a_corrupted_gluing_inverse(monkeypatch):
    """The translation identity is a lemma of the bicomodule axioms, so
    it cannot fail on its own: ``gluing-inverse`` implies it.  One entry
    of PhiLRInv off by one breaks both, and the translated modules too;
    their checks are silenced here so that the report comes back."""
    st = entry("H2")
    Ab = st["bicomodule"]
    bad = BicomoduleAlgebra(Ab.left, Ab.right, Ab.PhiLR,
                            PhiLRInv=corrupt_one(Ab.PhiLRInv), check=False)
    assert bad.verify().failures == ["gluing-inverse: PhiLR PhiLRInv != 1",
                                     "gluing-inverse: PhiLRInv PhiLR != 1"]
    monkeypatch.setattr(Report, "require", lambda rep, context="": None)
    rep = yd_roundtrip_check(st["H"], bad, st["coalgebra"])
    assert rep.failures[0] == \
        "translation-identity: the canonical-pair rearrangement fails"

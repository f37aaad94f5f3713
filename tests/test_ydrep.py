from fractions import Fraction

import pytest

from quasihopf.actions import LeftModuleAlgebra
from quasihopf.fields import QQ
from quasihopf.coactions import BicomoduleAlgebra, mixed_translation_identity
from quasihopf.finalg import FinAlgebra, VerificationError, program_report
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
        for o, c in Hq.Delta.cols[k]:
            rows[o // n][o % n].append((k, c))
    unit = [Hq.eps_scalar(Hq.basis_elt(k)) for k in range(n)]
    A = FinAlgebra.from_int_rows(Hq.field, Hq.Delta.den, rows, unit)
    left = {f: [] for f in range(n * n)}
    right = {f: [] for f in range(n * n)}
    for j in range(n):
        for a in range(n):
            for i, c in Hq.H.rows[j][a]:
                left[a * n + i].append((j, c))
            for i, c in Hq.H.rows[a][j]:
                right[i * n + a].append((j, c))
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


# the adjoint action with one column doubled, passed as the A or the D of
# the two-sided smash: each relation that fails, with its first witness
SEC8_CORRUPTIONS = {
    ("H2", (1, 1), "Am"): [
        "recombination: basis (4, 1, 1, 0)",
        "left-action-associator: basis (4, 1, 1)",
        "left-action-H-compat: basis (4, 1, 1)"],
    ("Sweedler4", (0, 1), "Dm"): [
        "recombination: basis (0, 0, 0, 1)",
        "right-action-associator: basis (0, 0, 1)",
        "right-action-H-compat: basis (0, 1, 0)",
        "weak-actions-exchange: basis (0, 1, 0)",
        "derived-right-associator: basis (0, 0, 1)",
        "derived-right-H-compat: basis (0, 1, 0)",
        "roundtrip-weak-action: basis (0, 1)",
        "roundtrip-right-action: basis (0, 1)",
        "two-sided-exchange: basis (0, 1, 0)"]}


@pytest.mark.parametrize("name,key,role", sorted(SEC8_CORRUPTIONS))
def test_module_translations_report_a_corrupted_action(name, key, role):
    st = entry(name)
    Hq, Am = st["H"], st["module"]
    bad = LeftModuleAlgebra(Hq, Am.A, doubled_column(Am.action, key),
                            check=False)
    rep = sec8_correspondences(Hq, bad, Am) if role == "Am" \
        else sec8_correspondences(Hq, Am, bad)
    first = {}
    for line in rep.failures:
        first.setdefault(line.split(": ")[0], line)
    assert list(first.values()) == SEC8_CORRUPTIONS[(name, key, role)]


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


def test_yd_roundtrip_reports_a_corrupted_gluing_inverse():
    """The translation identity is a lemma of the bicomodule axioms, so
    it cannot fail on its own: ``gluing-inverse`` implies it.  One entry
    of PhiLRInv off by one breaks both, and the translated module too,
    whose failures follow in the report instead of being raised; the
    report opens with the gluing check the theorem makes first."""
    st = entry("H2")
    Ab = st["bicomodule"]
    bad = BicomoduleAlgebra(Ab.left, Ab.right, Ab.PhiLR,
                            PhiLRInv=corrupt_one(Ab.PhiLRInv), check=False)
    assert bad.verify().failures == ["gluing-inverse: PhiLR PhiLRInv != 1",
                                     "gluing-inverse: PhiLRInv PhiLR != 1"]
    rep = yd_roundtrip_check(st["H"], bad, st["coalgebra"])
    yd = module_to_yd(regular_module(yd_product(bad, st["coalgebra"])[1]
                                     .result), bad, st["coalgebra"],
                      check=False)
    module_failures = yd.verify().failures
    assert module_failures[:2] == ["unit-action: basis (0,)",
                                   "unit-action: basis (1,)"]
    assert rep.failures == [
        "gluing-inverse: PhiLR PhiLRInv != 1",
        "gluing-inverse: PhiLRInv PhiLR != 1",
        "translation-identity: the canonical-pair rearrangement fails",
        *module_failures]


def test_yd_roundtrip_reports_a_module_translated_back_that_is_none(
        monkeypatch):
    """A pairing with one column doubled makes the module translated back
    from the Yetter-Drinfeld module no module: its failures are reported
    under ``yd-to-module``, and the round trips and the embedding run on
    it and fail too."""
    from quasihopf import ydrep
    pairing = ydrep._pairing
    monkeypatch.setattr(ydrep, "_pairing", lambda fld, n:
                        doubled_column(pairing(fld, n), (0, 0)))
    st = entry("H2")
    rep = yd_roundtrip_check(st["H"], st["bicomodule"], st["coalgebra"])
    assert rep.failures[:6] == [
        *(f"yd-to-module: unit-action: basis ({m},)" for m in range(4)),
        "yd-to-module: action-associative: basis (0, 0, 0)",
        "yd-to-module: action-associative: basis (0, 0, 1)"]
    assert rep.failures[14:] == [
        "roundtrip: module -> YD -> module changed the action",
        "roundtrip: YD -> module -> YD changed the structures",
        "embedding-pairing: basis (0, 2)", "embedding-pairing: basis (0, 3)",
        "embedding-pairing: basis (1, 0)", "embedding-pairing: basis (1, 1)"]
    # the certifying translation still raises for its other callers
    _, prod = yd_product(st["bicomodule"], st["coalgebra"])
    yd = module_to_yd(regular_module(prod.result), st["bicomodule"],
                      st["coalgebra"], check=False)
    with pytest.raises(VerificationError, match="unit-action: basis"):
        yd_to_module(yd, prod)


def _h2_coalgebra_with(**maps):
    C = entry("H2")["coalgebra"]
    parts = dict(comul=C.comul, counit=C.counit, left=C.left, right=C.right)
    parts.update(maps)
    return BimoduleCoalgebra(C.Hq, C.dim, check=False, **parts)


def test_bimodule_coalgebra_reports_a_corrupted_counit():
    """The counit doubled at (1,) fails ``counit-left-module`` and
    ``counit-right-module`` at both h, with the two counit laws.  Neither
    module tag has been seen to fail alone on H2, and no implication is
    proved: a left action on which 1 acts by 0 fails
    ``counit-left-module`` with ``comul-coassociative`` only, so the
    counit laws are not what always comes with it."""
    C = entry("H2")["coalgebra"]
    bad = _h2_coalgebra_with(counit=doubled_column(C.counit, (1,)))
    assert bad.verify().failures == [
        "counit-left: basis (1,)", "counit-right: basis (1,)",
        "counit-left-module: basis (1, 0)", "counit-left-module: basis (1, 1)",
        "counit-right-module: basis (1, 0)",
        "counit-right-module: basis (1, 1)"]


def test_doubled_column_refuses_a_corruption_that_changes_nothing():
    # H2's counit has no input (2,); Sweedler4's counit is zero at x
    with pytest.raises(KeyError, match=r"\(2,\) is no input basis tuple"):
        doubled_column(entry("H2")["H"].counit, (2,))
    with pytest.raises(ValueError, match=r"image of \(1,\) is zero"):
        doubled_column(entry("Sweedler4")["H"].counit, (1,))


def test_bimodule_coalgebra_reports_a_corrupted_left_action():
    """The left action doubled at (h, c) = (1, 1) breaks
    ``comul-coassociative`` at c = 1, where the associator acts on the
    iterated comultiplication of e_1, with the module tags and
    ``actions-commute``.  On H2 it has not been seen to fail alone
    either: every doubled or zeroed column of one action that breaks it
    also breaks a module tag.  No implication is proved."""
    C = entry("H2")["coalgebra"]
    bad = _h2_coalgebra_with(left=doubled_column(C.left, (1, 1)))
    assert bad.verify().failures == [
        "comul-coassociative: basis (1,)", "comul-left-module: basis (1, 1)",
        "counit-left-module: basis (1, 1)",
        "actions-commute: basis (1, 0, 1)", "actions-commute: basis (1, 1, 1)"]

from fractions import Fraction

import pytest

from quasihopf import coactions, finalg, quasihopf
from quasihopf.actions import RightModuleAlgebra, trivial_right_action
from quasihopf.coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                                 RightComoduleAlgebra, lambda12_structures,
                                 regular_left, tilde_pq, twist_equivalence_U,
                                 two_sided_from_bicomodule)
from quasihopf.fields import QQ
from quasihopf.finalg import VerificationError, program_report
from quasihopf.isomaps import (_certify, _mu_identities, diag_as_gen_smash,
                               diag_flavor_twist_iso, five_corollary,
                               four_diagonal_isos, gamma_map,
                               hausser_nill_check, iso_mu, iso_nu,
                               iso_smash_twist, iso_theta,
                               iso_twist_invariance, quantum_double_gen_smash,
                               tensoring_iso, twist_comodule_by_U)
from quasihopf.linalg import flat_index, prod, unflatten
from quasihopf.tensors import Program, TensorElt, Var, linmap_from_program

from conftest import corrupt_one, doubled_column, entry

CHEAP = ["QZ2", "Sweedler4", "FpZn(5,2)"]


def right_regular(Hq):
    return RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H),
                              name="Ht", check=False)


def flat_col(lm, j):
    """Column j of the flat matrix of ``lm``, as [(row, den * entry)]."""
    return [(flat_index(lm.out_dims, out), c)
            for out, c in lm.cols[unflatten(lm.in_dims, j)]]


def is_permutation(lm):
    n = prod(lm.in_dims)
    cols = [flat_col(lm, j) for j in range(n)]
    return (lm.den == 1 and prod(lm.out_dims) == n
            and all(len(col) == 1 and col[0][1] == 1 for col in cols)
            and len({col[0][0] for col in cols}) == n)


@pytest.mark.parametrize("name", CHEAP)
def test_theta(name):
    st = entry(name)
    dl = two_sided_from_bicomodule(st["bicomodule"], "l", check=False)
    iso_theta(st["dual"], dl)


@pytest.mark.parametrize("name", CHEAP)
def test_four_diagonal_isos(name):
    st = entry(name)
    isos = four_diagonal_isos(st["dual"], st["bicomodule"])
    assert set(isos) == {"bowtie->rbowtie", "btrl->rbtrl", "bowtie->btrl"}


@pytest.mark.parametrize("name", CHEAP)
def test_nu(name):
    st = entry(name)
    iso_nu(st["bicomodule"], st["dual"], st["bicomodule"])


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_mu_and_five_products(name):
    st = entry(name)
    Hq, Am, Ab = st["H"], st["module"], st["bicomodule"]
    Bm = right_regular(Hq)
    iso_mu(Am, Bm, Ab)
    five_corollary(Am, Bm, Ab, Ab)


def test_degenerate_closed_forms_on_group_algebra():
    # with a trivial associator and trivial translation elements every
    # structural isomorphism is a monomial matrix with unit entries;
    # theta is exactly the slot swap and mu swaps the last two slots
    st = entry("QZ2")
    Hq, Am, Ab, Du = st["H"], st["module"], st["bicomodule"], st["dual"]
    dl = two_sided_from_bicomodule(Ab, "l", check=False)
    th = iso_theta(Du, dl)
    assert is_permutation(th.f)
    mP, mU = Du.A.dim, Ab.A.dim
    for ip in range(mP):
        for iu in range(mU):
            col = flat_col(th.f, flat_index((mP, mU), (ip, iu)))
            assert col == [(flat_index((mU, mP), (iu, ip)), 1)]
    nu = iso_nu(Ab, Du, Ab)
    assert is_permutation(nu.f)
    Bm = right_regular(Hq)
    mu = iso_mu(Am, Bm, Ab)
    assert is_permutation(mu.f)
    dims = (2, 2, 2, 2)
    for j in range(prod(mu.f.in_dims)):
        a, h, b, u = unflatten(dims, j)
        assert flat_col(mu.f, j) == [(flat_index(dims, (a, h, u, b)), 1)]


@pytest.mark.parametrize("name", CHEAP + ["H2"])
def test_gamma_factorization(name):
    st = entry(name)
    gamma_map(st["dual"], st["bicomodule"])


@pytest.mark.parametrize("name", CHEAP + ["H2"])
def test_diag_as_gen_smash(name):
    st = entry(name)
    diag_as_gen_smash(st["dual"], st["bicomodule"]).require(name)


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_diag_flavor_twist(name):
    st = entry(name)
    diag_flavor_twist_iso(st["dual"], st["bicomodule"])


@pytest.mark.parametrize("name", CHEAP + ["H2"])
def test_quantum_double_as_gen_smash(name):
    quantum_double_gen_smash(entry(name)["H"]).require(name)


@pytest.mark.parametrize("name", CHEAP)
def test_tensoring_by_inert_algebra(name):
    st = entry(name)
    tensoring_iso(st["dual"], st["bicomodule"], st["H"].H).require(name)


def test_smash_twist_equivalence():
    st = entry("H2")
    Hq, Am = st["H"], st["module"]
    Bco = regular_left(Hq, check=False)
    q = Fraction(1, 4)
    U = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    iso = iso_smash_twist(Am, Bco, U)
    assert prod(iso.f.out_dims) == 4
    assert iso.apply(iso.source.unit) == iso.target.unit


def test_hausser_nill_coincidence_qz2():
    st = entry("QZ2")
    Ab, Du = st["bicomodule"], st["dual"]
    hausser_nill_check(Ab, Du, Ab, Ab).require("QZ2")


def _hausser_nill_broken(scale):
    """hausser_nill_check on QZ2 with one mixed associator of the middle
    factor slotwise-perturbed by ``scale`` e_(1,0,0); returns the
    report and the three products."""
    st = entry("QZ2")
    Hq, Ab, Du = st["H"], st["bicomodule"], st["dual"]
    g = TensorElt.basis(QQ, (2, 2, 2), (1, 0, 0)).scale(scale)
    algs = [Hq.H, Hq.H, Ab.A]
    Lbad = LeftComoduleAlgebra(
        Hq, Ab.A, Ab.lam,
        g.slotwise_mul(Ab.left.PhiLam, algs),
        PhiLamInv=Ab.left.PhiLamInv.slotwise_mul(g, algs),
        check=False)
    AbBad = BicomoduleAlgebra(Lbad, Ab.right, Ab.PhiLR, check=False)
    products = {}
    rep = hausser_nill_check(Ab, Du, AbBad, Ab, check_costructures=False,
                             products=products)
    return rep, products


def _first_differences(products):
    """The failure lines naming, per product, the first basis pair whose
    dense rows differ from the left-nested ones."""
    base = products["left-nested"].mul
    want = []
    for label, alg in products.items():
        mul = alg.mul
        pairs = [(i, j) for i in range(len(base)) for j in range(len(base))
                 if mul[i][j] != base[i][j]]
        if pairs:
            want.append(f"three-factor coincidence: {label} differs from "
                        f"left-nested at pair {pairs[0]}")
    return want


def test_hausser_nill_detects_broken_costructure():
    # slotwise-perturbing one mixed associator of the middle factor must
    # break the three-way coincidence
    rep, products = _hausser_nill_broken(1)
    assert not rep.ok
    assert any("three-factor coincidence" in f for f in rep.failures)
    assert rep.failures == _first_differences(products)


def test_hausser_nill_names_first_pair_across_denominators():
    # scaling by 1/3 gives the products different denominators, so the
    # first differing pair must be found by value, not by numerator
    rep, products = _hausser_nill_broken(Fraction(1, 3))
    assert len({alg.den for alg in products.values()}) > 1
    assert rep.failures and rep.failures == _first_differences(products)


@pytest.mark.parametrize("kind", ["gen-smash", "diag", "two-sided-smash"])
def test_twist_invariance_h2(kind):
    st = entry("H2")
    Hq, Am, Ab, Du = st["H"], st["module"], st["bicomodule"], st["dual"]
    q = Fraction(1, 4)
    F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    if kind == "gen-smash":
        iso_twist_invariance(kind, (Am, Ab), F).require(kind)
    elif kind == "diag":
        iso_twist_invariance(kind, (Du, Ab), F).require(kind)
    else:
        iso_twist_invariance(kind, (Am, right_regular(Hq)), F)


def test_comodule_twist_by_exchange_element():
    # the canonical U built from the gluing element really twists the
    # first mixed comodule structure; here check the plain H version
    st = entry("H2")
    Hq = st["H"]
    Bco = regular_left(Hq, check=False)
    q = Fraction(1, 4)
    U = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    twist_comodule_by_U(Bco, U, check=True)


def test_twist_equivalence_certificate():
    for name in ("QZ2", "H2"):
        twist_equivalence_U(entry(name)["bicomodule"], check=True)


@pytest.mark.parametrize("name", CHEAP)
def test_unchecked_twist_equivalence_checks_nothing(name, monkeypatch):
    Ab = entry(name)["bicomodule"]
    pair = lambda12_structures(Ab, check=False)
    U = twist_equivalence_U(Ab, pair=pair, check=True)

    def refuse(checks):
        raise AssertionError("an identity was checked")

    for module in (coactions, finalg, quasihopf):
        monkeypatch.setattr(module, "program_report", refuse)
    assert twist_equivalence_U(Ab, pair=pair, check=False) == U
    # the unchecked structures are the same without their closed forms
    again = lambda12_structures(Ab, check=False)
    assert [(A.lam, A.PhiLam, A.PhiLamInv) for A in again[:2]] \
        == [(A.lam, A.PhiLam, A.PhiLamInv) for A in pair[:2]]


def test_certify_reports_a_rank_one_algebra_map():
    # h -> eps(h) 1 is a unital algebra map of H4 of rank 1
    Hq = entry("Sweedler4")["H"]
    A, h = Hq.H, Var("h", 4)
    f = linmap_from_program(Program.basis(QQ, h).apply_at(0, Hq.counit)
                            .tensor(Hq.unit_elt()), (h,))
    with pytest.raises(VerificationError) as exc:
        _certify(f, f, A, A, "rank one")
    assert str(exc.value) == (
        "rank one: bijective: rank 1 < 4; inverse: f o f^-1 != id; "
        "inverse: f^-1 o f != id; "
        "inverse: transcribed inverse differs from the recomputed one")


# -- per-basis identities on corrupted inputs: the (tag, basis tuple)
# pairs are the ones the hand-written loops reported before these checks
# became slot-program pairs, first 10 per tag --------------------------------

def _with_right(Ab, right):
    return BicomoduleAlgebra(Ab.left, right, Ab.PhiLR, PhiLRInv=Ab.PhiLRInv,
                             check=False)


def _failures(fn):
    with pytest.raises(VerificationError) as exc:
        fn()
    return str(exc.value)


def test_gamma_map_reports_a_corrupted_associator():
    # the H2 bicomodule with one entry of PhiRho off by one
    st = entry("H2")
    Ab = st["bicomodule"]
    R = Ab.right
    bad = _with_right(Ab, RightComoduleAlgebra(
        R.Hq, R.A, R.rho, corrupt_one(R.PhiRho), PhiRhoInv=R.PhiRhoInv,
        check=False))
    assert _failures(lambda: gamma_map(st["dual"], bad)) == "gamma map: " \
        + "; ".join(["gamma-lemma: basis (0,)", "gamma-lemma: basis (1,)"]
                    + [f"gamma-generation: basis {idx}"
                       for idx in ((0, 0), (0, 1), (1, 0), (1, 1))])


def _sweedler_with_doubled_rho():
    Ab = entry("Sweedler4")["bicomodule"]
    return _with_right(Ab, RightComoduleAlgebra(
        Ab.Hq, Ab.A, doubled_column(Ab.rho, (2,)), Ab.right.PhiRho,
        PhiRhoInv=Ab.right.PhiRhoInv, check=False))


def test_nu_reports_a_corrupted_coaction():
    # the first 10 failing (p, a, b), of the nu-factorization only
    st = entry("Sweedler4")
    bad = _sweedler_with_doubled_rho()
    assert _failures(lambda: iso_nu(bad, st["dual"], st["bicomodule"])) \
        == "three-factor to diagonal over tensor: " + "; ".join(
            f"nu-factorization: basis {idx}" for idx in (
                (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 2, 3), (1, 1, 0),
                (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 0), (1, 2, 1)))


def test_mu_rearrangement_reports_a_corrupted_coaction():
    # 11 failing pairs (u, u'); the first 10 are named
    bad = _sweedler_with_doubled_rho()
    rep = program_report(
        _mu_identities(bad, tilde_pq(bad.right, check=False).q)[1:2])
    assert rep.failures == [f"mu-rearrangement-2: basis {idx}" for idx in (
        (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
        (2, 3), (3, 1))]


def test_smash_twist_reports_an_unnormalised_twist():
    # U = 2 (1 x 1) doubles 1 x b; the target is given, so the twisted
    # comodule is not checked
    st = entry("H2")
    U = TensorElt(QQ, (2, 2), {(0, 0): 2})
    msg = _failures(lambda: iso_smash_twist(st["module"], st["bicomodule"],
                                            U, Btwisted=st["bicomodule"].left))
    assert msg.startswith("smash twist equivalence: fixes-comodule: basis "
                          "(0,); fixes-comodule: basis (1,); multiplicative:")

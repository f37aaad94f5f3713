from fractions import Fraction

import pytest

from quasihopf import coactions, finalg, isomaps, quasihopf
from quasihopf.actions import (RightModuleAlgebra, trivial_right_action,
                               twist_action)
from quasihopf.coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                                 RightComoduleAlgebra, lambda12_structures,
                                 regular_left, tilde_pq, twist_coaction,
                                 twist_equivalence_U,
                                 two_sided_from_bicomodule)
from quasihopf.fields import QQ
from quasihopf.finalg import (Report, VerificationError, invert_mixed,
                             program_report)
from quasihopf.isomaps import (_iso_report, _mu_identities, diag_as_gen_smash,
                               diag_flavor_twist_iso, five_corollary,
                               four_diagonal_isos, gamma_map,
                               hausser_nill_check, iso_mu, iso_nu,
                               iso_smash_twist, iso_theta, iso_two_sided_twist,
                               quantum_double_gen_smash, tensoring_iso,
                               twist_comodule_by_U, twist_invariance)
from quasihopf.linalg import flat_index, prod, unflatten
from quasihopf.products import diag_crossed, gen_smash
from quasihopf.tensors import Program, TensorElt, Var, linmap_from_program

from conftest import (corrupt_one, doubled_column, entry,
                      sweedler_with_doubled_rho)

CHEAP = ["QZ2", "Sweedler4", "FpZn(5,2)"]


def right_regular(Hq):
    return RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H),
                              name="Ht", check=False)


def flat_col(lm, j):
    """Column j of the flat matrix of ``lm``, as [(row, den * entry)]."""
    return lm.cols[j]


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
    four_diagonal_isos(st["dual"], st["bicomodule"]).require(name)


def test_four_diagonal_isos_names_each_isomorphism():
    # a doubled column of rho breaks all three isomorphisms; each failure
    # line is headed by the name of its isomorphism
    rep = four_diagonal_isos(entry("Sweedler4")["dual"],
                             sweedler_with_doubled_rho())
    assert {line.split(": ")[0] for line in rep.failures} == {
        "bowtie->rbowtie", "btrl->rbtrl", "bowtie->btrl"}


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
    five_corollary(Am, Bm, Ab).require(name)


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
    # each product on its own; ``twist_invariance`` bundles all three
    st = entry("H2")
    Hq, Am, Ab, Du = st["H"], st["module"], st["bicomodule"], st["dual"]
    q = Fraction(1, 4)
    F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    FInv, HF = Hq.twisted(F)
    AbF = twist_coaction(Ab, F, FInv, HF)
    if kind == "gen-smash":
        AmF = twist_action(Am, F, FInv, HF)
        pairs = [(gen_smash(Am, Ab, check=False),
                  gen_smash(AmF, AbF, check=False))]
    elif kind == "diag":
        DuF = twist_action(Du, F, FInv, HF)
        pairs = [(diag_crossed(Du, Ab, flavor, check=False),
                  diag_crossed(DuF, AbF, flavor, check=False))
                 for flavor in ("bowtie", "btrl")]
    else:
        iso_two_sided_twist(Am, right_regular(Hq), F)
        pairs = []
    for lhs, rhs in pairs:
        assert lhs.result.den == rhs.result.den
        assert lhs.result.rows == rhs.result.rows


def test_twist_invariance_h2_report():
    st = entry("H2")
    Hq, Am, Ab, Du = st["H"], st["module"], st["bicomodule"], st["dual"]
    q = Fraction(1, 4)
    F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    twist_invariance(Am, right_regular(Hq), Du, Ab, F).require("H2")


def test_comodule_twist_by_exchange_element():
    # the canonical U built from the gluing element really twists the
    # first mixed comodule structure; here check the plain H version
    st = entry("H2")
    Hq = st["H"]
    Bco = regular_left(Hq, check=False)
    q = Fraction(1, 4)
    U = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    twist_comodule_by_U(Bco, U, invert_mixed(U, [Hq.H, Bco.B])).verify() \
        .require("H2")


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
        _iso_report(Report(), f, f, A, A)[0].require("rank one")
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


def test_nu_reports_a_corrupted_coaction():
    # the first 10 failing (p, a, b), of the nu-factorization only
    st = entry("Sweedler4")
    bad = sweedler_with_doubled_rho()
    assert _failures(lambda: iso_nu(bad, st["dual"], st["bicomodule"])) \
        == "three-factor to diagonal over tensor: " + "; ".join(
            f"nu-factorization: basis {idx}" for idx in (
                (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 2, 3), (1, 1, 0),
                (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 0), (1, 2, 1)))


def test_mu_rearrangement_reports_a_corrupted_coaction():
    # 11 failing pairs (u, u'); the first 10 are named
    bad = sweedler_with_doubled_rho()
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


def test_smash_twist_reports_a_corrupted_comodule():
    """The H2 regular left comodule algebra with one entry of PhiLam off
    by one, twisted by an invertible normalised U.  Twisting by U carries
    comodule algebras to comodule algebras and back (by U^{-1}), so
    ``twisted-comodule`` fails exactly when the input comodule does; here
    with the same tags."""
    st = entry("H2")
    Bco = regular_left(st["H"], check=False)
    bad = LeftComoduleAlgebra(Bco.Hq, Bco.B, Bco.lam, corrupt_one(Bco.PhiLam),
                              PhiLamInv=Bco.PhiLamInv, check=False)
    q = Fraction(1, 4)
    U = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    tags = ["associator-inverse: PhiLam PhiLamInv != 1",
            "associator-inverse: PhiLamInv PhiLam != 1", "coaction-pentagon",
            "associator-counit: slot 0", "associator-counit: slot 1"]
    assert bad.verify().failures == tags
    assert _failures(lambda: iso_smash_twist(st["module"], bad, U)) == \
        "smash twist equivalence: " + "; ".join(
            f"twisted-comodule: {tag}" for tag in tags)


def test_flavor_twist_reports_a_wrong_equivalence_element(monkeypatch):
    # U = 1 x 1 + (1/2) p x 1 (x) 1_A with p = (1 - g)/2 is normalised and
    # invertible, so the smash twist it defines certifies; but it does
    # not carry the first induced structure into the second
    st = entry("H2")
    U = TensorElt(QQ, (4, 2), {(0, 0): Fraction(5, 4),
                               (2, 0): Fraction(-1, 4)})
    monkeypatch.setattr(isomaps, "twist_equivalence_U",
                        lambda Ab, pair=None, check=True: U)
    assert _failures(lambda: diag_flavor_twist_iso(
        st["dual"], st["bicomodule"])) == "diagonal flavor twist: " \
        "twist-target: U-twisted smash product differs from the other flavor"
    # the same failure through the theorem, under the isomorphism's name
    assert four_diagonal_isos(st["dual"], st["bicomodule"]).failures == [
        "bowtie->btrl: twist-target: U-twisted smash product differs from "
        "the other flavor"]


def test_flavor_twist_reports_a_singular_equivalence_element(monkeypatch):
    # U = 0 has no inverse: the builder raises, the theorem reports it
    st = entry("H2")
    monkeypatch.setattr(isomaps, "twist_equivalence_U",
                        lambda Ab, pair=None, check=True:
                        TensorElt(QQ, (4, 2), {}))
    assert _failures(lambda: diag_flavor_twist_iso(
        st["dual"], st["bicomodule"])) == \
        "diagonal flavor twist: U is not invertible"
    assert four_diagonal_isos(st["dual"], st["bicomodule"]).failures == [
        "bowtie->btrl: U is not invertible"]


def test_diag_as_gen_smash_reports_corrupted_coactions():
    # a doubled column of the left coaction breaks the first structure's
    # product, one of the right coaction the second's; the bimodule
    # factor is intact, so nothing else is checked or fails
    st = entry("H2")
    Ab = st["bicomodule"]
    L, R = Ab.left, Ab.right
    bad = BicomoduleAlgebra(
        LeftComoduleAlgebra(L.Hq, L.B, doubled_column(L.lam, (0,)), L.PhiLam,
                            PhiLamInv=L.PhiLamInv, check=False),
        RightComoduleAlgebra(R.Hq, R.A, doubled_column(R.rho, (0,)),
                             R.PhiRho, PhiRhoInv=R.PhiRhoInv, check=False),
        Ab.PhiLR, PhiLRInv=Ab.PhiLRInv, check=False)
    assert diag_as_gen_smash(st["dual"], bad).failures == [
        "diag-as-smash: first structure vs left diagonal product",
        "diag-as-smash: second structure vs other left diagonal"]

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS or FAIL line so the suite output doubles
as an acceptance report.  Time budgets are asserted where stated.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from quasihopf import cli
from quasihopf.actions import (RightModuleAlgebra, bar_construction,
                               trivial_right_action)
from quasihopf.coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                                 omega_closed_left, omega_closed_right,
                                 omega_elements, omega_from_coaction, pq_delta,
                                 regular_left, tensor_bicomodule, tilde_pq,
                                 two_sided_from_bicomodule, verify_pq_delta,
                                 verify_tilde_pq)
from quasihopf.fields import QQ
from quasihopf.finalg import (invert_mixed, opposite, program_report,
                              verify_associative_unital)
from quasihopf.isomaps import (_mu_identities, diag_as_gen_smash,
                               five_corollary, four_diagonal_isos, gamma_map,
                               hausser_nill_check, iso_mu, iso_nu,
                               iso_smash_twist, iso_theta,
                               quantum_double_gen_smash, tensoring_iso,
                               twist_invariance)
from quasihopf.linalg import reshape_map
from quasihopf.products import (diag_crossed, diag_crossed_general, gen_smash,
                                gen_two_sided_crossed, left_quasi_smash,
                                quasi_smash, right_gen_smash, right_smash,
                                smash, two_sided_gen_smash, two_sided_smash)
from quasihopf.tensors import (Program, TensorElt, Var, linmap_from_program,
                               slotwise_prod)
from quasihopf.ydrep import sec8_correspondences, yd_roundtrip_check

from conftest import entry

ALL = ["QZ2", "H2", "Sweedler4", "FpZn(7,3)", "FpZn(5,2)"]
HOPF = ["QZ2", "Sweedler4"]


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {num:2d}: {label}")
        raise
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.1f}s (> {budget}s)"
    print(f"PASS  criterion {num:2d}: {label} [{dt:.2f}s]")


def right_regular(Hq):
    return RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H),
                              name="Ht", check=False)


def gauge_f(Hq):
    q = Fraction(1, 4)
    return TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                                  (1, 0): -q, (1, 1): q})


def test_criterion_01_axioms():
    structures = [entry(name) for name in ALL]
    with criterion(1, "axiom suite on every corpus entry", budget=5.0):
        for name, st in zip(ALL, structures):
            st["H"].verify().require(name)
            st["module"].verify().require(name)
            st["dual"].verify().require(name)
            st["bicomodule"].verify(subparts=True).require(name)


def test_criterion_02_drinfeld_twist():
    structures = [entry(name) for name in ALL]
    with criterion(2, "canonical twist element on every corpus entry",
                   budget=5.0):
        for name, st in zip(ALL, structures):
            st["H"].verify_drinfeld().require(name)


def test_criterion_03_product_associativity():
    st = entry("H2")
    Hq, Am, Ab, Du = st["H"], st["module"], st["bicomodule"], st["dual"]
    Bm = right_regular(Hq)
    with criterion(3, "exhaustive associativity of every product, "
                   "up to total dimension 32", budget=60.0):
        products = [
            smash(Am, check=False),
            right_smash(Bm, check=False),
            gen_smash(Am, Ab, check=False),
            right_gen_smash(Ab, Bm, check=False),
            two_sided_smash(Am, Bm, check=False),
            two_sided_gen_smash(Am, Ab, Bm, check=False),
            gen_two_sided_crossed(Ab, Du, Ab, check=False),
        ]
        for flavor in ("bowtie", "btrl", "rbowtie", "rbtrl"):
            products.append(diag_crossed(Du, Ab, flavor, check=False))
        d = two_sided_from_bicomodule(Ab, "l", check=False)
        products.append(diag_crossed_general(
            Du, d, "left", Om=omega_from_coaction(d), check=False))
        # the largest instance: a four-dimensional bicomodule algebra on
        # each side of a two-dimensional middle factor, 4 * 2 * 4 = 32
        Ab4 = tensor_bicomodule(Ab.right, Ab.left, check=False)
        products.append(gen_two_sided_crossed(Ab4, Du, Ab4, check=False))
        for p in products:
            verify_associative_unital(p.result, limit=None) \
                .require(p.kind)
        # the quasi products are module algebras, not associative ones;
        # their own axiom set is the right exhaustive check
        quasi_smash(Ab, Du, check=False).verify().require("QuasiSmash")
        left_quasi_smash(Du, Ab, check=False).verify() \
            .require("LeftQuasiSmash")


def test_criterion_04_canonical_identities():
    pairs = [(name, entry(name)) for name in ("H2", "FpZn(7,3)")]
    small = entry("FpZn(5,2)")
    with criterion(4, "canonical element identity suite", budget=30.0):
        for name, st in pairs:
            Hq, Ab = st["H"], st["bicomodule"]
            Hq.verify_canonical().require(name)
            verify_tilde_pq(Ab.right, tilde_pq(Ab.right, check=False)) \
                .require(name)
            for flavor in ("left", "right", "left-primed", "right-primed"):
                omega_elements(Ab, flavor, check=True)
            d = two_sided_from_bicomodule(Ab, "l", check=False)
            verify_pq_delta(d, pq_delta(d, check=False)).require(name)
        # the three rearrangement identities behind the two-sided smash
        # comparison, on both prime-field entries
        for st in (pairs[0][1], small, pairs[1][1]):
            Ab = st["bicomodule"]
            q = tilde_pq(Ab.right, check=False).q
            program_report(_mu_identities(Ab, q)).require("rearrangements")


def test_criterion_05_isomorphism_suite():
    qz2, sw4, fp52, h2 = (entry(n) for n in
                          ("QZ2", "Sweedler4", "FpZn(5,2)", "H2"))
    with criterion(5, "structural isomorphisms certified with "
                   "recomputed inverses", budget=10.0):
        isos = []
        for st in (qz2, sw4, fp52):
            dl = two_sided_from_bicomodule(st["bicomodule"], "l",
                                           check=False)
            isos.append(iso_theta(st["dual"], dl))
            gamma_map(st["dual"], st["bicomodule"])
        isos.append(iso_nu(qz2["bicomodule"], qz2["dual"],
                           qz2["bicomodule"]))
        isos.append(iso_nu(fp52["bicomodule"], fp52["dual"],
                           fp52["bicomodule"]))
        for st in (qz2, h2):
            isos.append(iso_mu(st["module"], right_regular(st["H"]),
                               st["bicomodule"]))
        isos.append(iso_smash_twist(h2["module"],
                                    regular_left(h2["H"], check=False),
                                    gauge_f(h2["H"])))
        for iso in isos:
            assert iso.inverse == iso.f.inverse()
        four_diagonal_isos(qz2["dual"], qz2["bicomodule"]).require("QZ2")


def test_criterion_06_three_factor_coincidence():
    st = entry("H2")
    Ab, Du = st["bicomodule"], st["dual"]
    qst = entry("QZ2")
    with criterion(6, "two iterated three-factor products agree "
                   "bit for bit", budget=120.0):
        hausser_nill_check(Ab, Du, Ab, Ab).require("H2")
        # the dim-1024 products of Sweedler4, exhaustively
        sw = entry("Sweedler4")
        hausser_nill_check(sw["bicomodule"], sw["dual"], sw["bicomodule"],
                           sw["bicomodule"]).require("Sweedler4")
        # a deliberately broken mixed associator on the middle factor
        # must surface as a named diagnostic
        Hq, Ab0 = qst["H"], qst["bicomodule"]
        g = TensorElt.basis(QQ, (2, 2, 2), (1, 0, 0))
        algs = [Hq.H, Hq.H, Ab0.A]
        Lbad = LeftComoduleAlgebra(
            Hq, Ab0.A, Ab0.lam,
            g.slotwise_mul(Ab0.left.PhiLam, algs),
            PhiLamInv=Ab0.left.PhiLamInv.slotwise_mul(g, algs),
            check=False)
        AbBad = BicomoduleAlgebra(Lbad, Ab0.right, Ab0.PhiLR, check=False)
        rep = hausser_nill_check(Ab0, qst["dual"], AbBad, Ab0,
                                 check_costructures=False)
        assert not rep.ok
        assert any("three-factor coincidence" in f for f in rep.failures)


def test_criterion_07_trivial_identifications():
    qz2, h2 = entry("QZ2"), entry("H2")
    with criterion(7, "tensoring, iterated-smash and degeneration "
                   "identifications"):
        for st in (qz2, h2):
            tensoring_iso(st["dual"], st["bicomodule"], st["H"].H) \
                .require("tensoring")
            diag_as_gen_smash(st["dual"], st["bicomodule"]) \
                .require("diag as generalized smash")
            quantum_double_gen_smash(st["H"]).require("quantum double")
        five_corollary(h2["module"], right_regular(h2["H"]),
                       h2["bicomodule"]).require("H2")
        # over an ordinary Hopf algebra the four diagonal flavors
        # coincide and the twisted structures all collapse
        for name in HOPF:
            st = entry(name)
            Du, Ab = st["dual"], st["bicomodule"]
            b = diag_crossed(Du, Ab, "bowtie", check=False)
            t = diag_crossed(Du, Ab, "btrl", check=False)
            assert b.result.mul == t.result.mul
            pq = tilde_pq(Ab.right, check=False)
            one2 = st["H"].unit_elt(2)
            assert pq.p == one2 and pq.q == one2
            bar = bar_construction(st["module"])
            assert bar.B.mul == opposite(st["module"].A).mul


def test_criterion_08_twist_invariance():
    # every entry with a default gauge, each twisted by it; on QZ2 and H2
    # that gauge moves only alpha and beta, on Sweedler4 and FpZn(7,3) Phi
    H2 = entry("H2")["H"]
    assert cli._default_gauge("H2", H2) == gauge_f(H2)
    with criterion(8, "every construction is invariant under a gauge "
                   "transformation"):
        for name in cli._GAUGES:
            st = entry(name)
            Hq, Am, Ab, Du = (st["H"], st["module"], st["bicomodule"],
                              st["dual"])
            F = cli._default_gauge(name, Hq)
            FInv = invert_mixed(F, [Hq.H, Hq.H])
            HF = Hq.gauge_twist(F, FInv=FInv)
            HF.verify().require("twisted algebra")
            HF.verify_canonical().require("twisted algebra")
            twist_invariance(Am, right_regular(Hq), Du, Ab, F) \
                .require("twist invariance")
            # the twisted canonical element in closed form
            swapped = FInv.permute((1, 0)).apply_at(0, Hq.S) \
                .apply_at(1, Hq.S)
            assert HF.drinfeld_twist().f \
                == slotwise_prod([swapped, Hq.drinfeld_twist().f, FInv], Hq.H)
            if name in ("Sweedler4", "FpZn(7,3)"):
                assert HF.Phi != Hq.Phi


def test_criterion_09_yd_representation_suite():
    st = entry("H2")
    with criterion(9, "module / comodule correspondence suite",
                   budget=30.0):
        yd_roundtrip_check(st["H"], st["bicomodule"], st["coalgebra"]) \
            .require("H2")
        sec8_correspondences(st["H"], st["module"], st["module"]) \
            .require("H2")


def test_criterion_10_classical_degeneration():
    structures = [(name, entry(name)) for name in HOPF]
    with criterion(10, "ordinary Hopf inputs reduce to the classical "
                   "formulas"):
        for name, st in structures:
            Hq, Am, Ab = st["H"], st["module"], st["bicomodule"]
            n, m, fld = Hq.n, Am.A.dim, Hq.field
            d = two_sided_from_bicomodule(Ab, "l", check=False)
            om = omega_from_coaction(d)
            # all five slots carry the unit element
            unitA = TensorElt.from_flat(fld, (Ab.A.dim,), Ab.A.unit)
            want = Hq.unit_elt(2).tensor(unitA).tensor(Hq.unit_elt(2))
            assert om == want
            assert omega_from_coaction(d, primed=True) == want
            assert omega_closed_left(Ab) == want
            assert omega_closed_right(Ab) == want
            assert Hq.drinfeld_twist().f == Hq.unit_elt(2)
            Hq.verify_drinfeld().require(name)
            # the smash product table equals the classical formula
            # (a # h)(a' # h') = a (h_1 . a') # h_2 h'
            mul = smash(Am, check=False).result.mul
            for ia in range(m):
                for ih in range(n):
                    for ja in range(m):
                        for jh in range(n):
                            t = TensorElt.basis(fld, (m, n, m, n),
                                                (ia, ih, ja, jh))
                            t = t.apply_at(1, Hq.Delta)
                            t = t.permute((0, 1, 3, 2, 4))
                            t = t.apply_at(1, Am.action) \
                                 .mul_slots(0, 1, Am.A)
                            t = t.mul_slots(1, 2, Hq.H)
                            got = mul[ia * n + ih][ja * n + jh]
                            assert list(t.apply_at(0, reshape_map(
                                fld, (m, n), (m * n,))).to_flat()) == got
        # the Sweedler entry exercises the non-involutive antipode
        S = entry("Sweedler4")["H"].S
        h = Var("h", 4)
        assert not linmap_from_program(
            Program.basis(S.field, h).apply_at(0, S).apply_at(0, S),
            (h,)).is_identity()

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                                 CanonicalPair, RightComoduleAlgebra,
                                 bicomodule_tensor_with_algebra,
                                 lambda12_structures, omega_closed_left,
                                 omega_closed_right, omega_from_coaction,
                                 pq_delta, regular_bicomodule, regular_left,
                                 regular_right, tensor_bicomodule, tilde_pq,
                                 twist_coaction, twist_equivalence_U,
                                 two_sided_from_bicomodule, verify_omega,
                                 verify_pq_delta, verify_tilde_pq)
from quasihopf.fields import GF, QQ
from quasihopf.finalg import (FinAlgebra, VerificationError, invert_mixed,
                              slotwise_unit)
from quasihopf.linalg import prod, reshape_map, unflatten
from quasihopf import tensors as tensors_module
from quasihopf.tensors import Program, TensorElt, Var, linmap_from_program

from conftest import corrupt_one, doubled_column, entry
from test_linalg import ref_solve

ALL = ["QZ2", "H2", "Sweedler4", "FpZn(7,3)", "FpZn(5,2)"]
SMALL = ["QZ2", "H2", "Sweedler4"]
PRIME = ["FpZn(5,2)", "FpZn(7,3)"]


@pytest.mark.parametrize("name", ALL)
def test_regular_bicomodule(name):
    entry(name)["bicomodule"].verify(subparts=True).require(name)


@pytest.mark.parametrize("name", SMALL)
def test_regular_one_sided(name):
    Hq = entry(name)["H"]
    regular_left(Hq, check=True)
    regular_right(Hq, check=True)


@pytest.mark.parametrize("name", ALL)
def test_coaction_translation_elements(name):
    Ab = entry(name)["bicomodule"]
    pq = tilde_pq(Ab.right, check=False)
    verify_tilde_pq(Ab.right, pq).require(name)


@pytest.mark.parametrize("name", ["QZ2", "Sweedler4"])
def test_translation_elements_trivial_for_hopf(name):
    # with a trivial associator and alpha = beta = 1 the translation
    # elements collapse to 1 x 1
    Hq = entry(name)["H"]
    pq = tilde_pq(entry(name)["bicomodule"].right, check=False)
    one2 = Hq.unit_elt().tensor(Hq.unit_elt())
    assert pq.p == one2
    assert pq.q == one2


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("side", ["l", "r"])
def test_two_sided_coaction(name, side):
    Ab = entry(name)["bicomodule"]
    d = two_sided_from_bicomodule(Ab, side, check=False)
    d.verify().require(f"{name} side {side}")


@pytest.mark.parametrize("name", ["QZ2", "H2"])
@pytest.mark.parametrize("primed", [False, True])
def test_omega_elements(name, primed):
    Ab = entry(name)["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    Om = omega_from_coaction(d, primed=primed)
    verify_omega(d, Om, primed=primed).require(name)


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_omega_closed_forms_match_coaction(name):
    Ab = entry(name)["bicomodule"]
    dl = two_sided_from_bicomodule(Ab, "l", check=False)
    dr = two_sided_from_bicomodule(Ab, "r", check=False)
    assert omega_closed_left(Ab) == omega_from_coaction(dl)
    assert omega_closed_right(Ab) == omega_from_coaction(dr)


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_pq_delta(name):
    Ab = entry(name)["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    pq = pq_delta(d, check=False)
    verify_pq_delta(d, pq).require(name)


@pytest.mark.parametrize("name", PRIME)
def test_pq_delta_detects_corrupted_q(name):
    Ab = entry(name)["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    pq = pq_delta(d, check=False)
    verify_pq_delta(d, pq).require(name)
    rep = verify_pq_delta(d, CanonicalPair(pq.p, corrupt_one(pq.q)))
    assert any(f.startswith("q-coproduct") for f in rep.failures)


def test_pq_identities_on_fpzn73_keep_executor_values_within_eight_slots(
        monkeypatch):
    # every step kernel over GF(7) ends in ``_residues``, and so does a
    # direct combinator call (through ``_normal``), so its largest output
    # is the largest intermediate the identities hold
    Ab = entry("FpZn(7,3)")["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    pq, tpq = pq_delta(d, check=False), tilde_pq(Ab.right, check=False)
    peak = [0]
    residues = tensors_module._residues

    def recording(num, p):
        out = residues(num, p)
        peak[0] = max(peak[0], len(out))
        return out

    monkeypatch.setattr(tensors_module, "_residues", recording)
    assert verify_pq_delta(d, pq).ok
    assert verify_tilde_pq(Ab.right, tpq).ok
    assert 3 ** 7 < peak[0] <= 3 ** 8


def test_pq_delta_detects_corrupted_qL(monkeypatch):
    # q-factorization is the only identity that reads q_L; a corrupted
    # q fails it too, through its left side
    Ab = entry("FpZn(5,2)")["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    pq = pq_delta(d, check=False)
    rep = verify_pq_delta(d, CanonicalPair(pq.p, corrupt_one(pq.q)))
    assert "q-factorization" in rep.failures
    bad_qL = corrupt_one(d.Hq.canonical_qL())
    monkeypatch.setattr(d.Hq, "canonical_qL", lambda: bad_qL)
    assert verify_pq_delta(d, pq).failures == ["q-factorization"]


@pytest.mark.parametrize("name", ["QZ2", "Sweedler4"])
@pytest.mark.parametrize("primed", [False, True])
def test_omega_rejects_scaled_element(name, primed):
    # every identity but the counit normalisation is homogeneous in Om
    Ab = entry(name)["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    Om = omega_from_coaction(d, primed=primed)
    verify_omega(d, Om, primed=primed).require(name)
    rep = verify_omega(d, Om.scale(d.field.of_int(2)), primed=primed)
    assert rep.failures == ["omega-counit"]


@pytest.mark.parametrize("name", PRIME)
@pytest.mark.parametrize("primed", [False, True])
def test_omega_detects_corrupted_element(name, primed):
    Ab = entry(name)["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    Om = omega_from_coaction(d, primed=primed)
    verify_omega(d, Om, primed=primed).require(name)
    rep = verify_omega(d, corrupt_one(Om), primed=primed)
    assert any(f.startswith("omega-cocycle") for f in rep.failures)


@pytest.mark.parametrize("name", SMALL)
def test_mixed_comodule_structures(name):
    Ab = entry(name)["bicomodule"]
    A1, A2, K = lambda12_structures(Ab, check=True)
    twist_equivalence_U(Ab, pair=(A1, A2, K), check=True)


@pytest.mark.parametrize("name", SMALL)
def test_first_mixed_coaction_closed_form(name):
    # on the regular bicomodule the first mixed coaction sends h to
    # (h_(1,1) x S^{-1}(h_2)) x h_(1,2)
    st = entry(name)
    Hq, Ab = st["H"], st["bicomodule"]
    A1, _, _ = lambda12_structures(Ab, check=False)
    n = Hq.n

    h = Var("h", n)
    t = Program.basis(Hq.field, h).apply_at(0, Hq.Delta)
    t = t.apply_at(0, Hq.Delta).apply_at(2, Hq.SInv)
    want = linmap_from_program(
        t.permute((0, 2, 1))
        .apply_at(0, reshape_map(Hq.field, (n, n), (n * n,))), (h,))
    assert A1.lam == want


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_tensor_bicomodule(name):
    Ab = entry(name)["bicomodule"]
    tensor_bicomodule(Ab.right, Ab.left, check=True)


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_tensor_with_inert_algebra(name):
    st = entry(name)
    Ab = st["bicomodule"]
    big = bicomodule_tensor_with_algebra(Ab, st["H"].H)
    assert big.A.dim == Ab.A.dim * st["H"].n


def test_twist_coaction_h2():
    Ab = entry("H2")["bicomodule"]
    q = Fraction(1, 4)
    F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    FInv, HF = Ab.Hq.twisted(F)
    twisted = twist_coaction(Ab, F, FInv, HF)
    twisted.verify().require(twisted.name)
    assert isinstance(twisted, BicomoduleAlgebra)
    for part in (Ab.left, Ab.right):
        twist_coaction(part, F, FInv, HF).verify().require(part.name)


def test_noninvertible_gluing_rejected():
    Ab = entry("QZ2")["bicomodule"]
    bad = TensorElt(QQ, Ab.PhiLR.dims, {(0, 0, 0): Fraction(1),
                                        (1, 0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        BicomoduleAlgebra(Ab.left, Ab.right, bad, check=False)


def test_noninvertible_mixed_associator_rejected():
    st = entry("QZ2")
    Hq, Ab = st["H"], st["bicomodule"]
    bad = TensorElt(QQ, (2, 2, 2), {(0, 0, 0): Fraction(1),
                                    (1, 0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        LeftComoduleAlgebra(Hq, Hq.H, Ab.lam, bad, check=False)


# -- invert_mixed against the column-by-column construction -----------------

def _invert_by_columns(t, algebras):
    """The inverse as it was found before the one-pass matrix build: one
    slotwise product t e_f per basis tensor e_f gives the columns."""
    field = t.field
    unit = slotwise_unit(field, algebras)
    if t == unit:
        return t
    dims = t.dims
    n = prod(dims)
    cols = []
    for f in range(n):
        e = TensorElt.basis(field, dims, unflatten(dims, f))
        cols.append(t.slotwise_mul(e, algebras).to_flat())
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    y = ref_solve(field.p, rows, unit.to_flat())
    if y is None:
        return None
    inv = TensorElt.from_flat(field, dims, y)
    if inv.slotwise_mul(t, algebras) != unit:
        return None
    return inv


def _random_algebra(field, dim, scalars, draw):
    """A random unital table, not associative in general, with its unit
    at a random basis index."""
    one, zero = field.one(), field.zero()
    u = draw(st.integers(0, dim - 1))

    def product(i, j):
        if u in (i, j):
            k = i + j - u
            return [one if r == k else zero for r in range(dim)]
        return [draw(scalars) for _ in range(dim)]

    mul = [[product(i, j) for j in range(dim)] for i in range(dim)]
    unit = [one if r == u else zero for r in range(dim)]
    return FinAlgebra(field, mul, unit, check=False)


QQ_SCALARS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# QQ[Z/2] on the basis 1, g/2: structure constants with denominator 4
HALF_G = FinAlgebra(QQ, [[[1, 0], [0, 1]], [[0, 1], [Fraction(1, 4), 0]]],
                    [1, 0], check=False)


def _slot_algebras(field, draw):
    """Two or three slots: corpus algebras over ``field`` and random
    tables with entries drawn from ``_scalars(field)``."""
    if field.p is None:
        pool = [entry(n)["H"].H for n in SMALL] + [HALF_G]
    else:
        pool = [entry(n)["H"].H for n in PRIME if entry(n)["H"].field == field]
    k = draw(st.integers(2, 3))
    algs = []
    for _ in range(k):
        if draw(st.booleans()):
            algs.append(draw(st.sampled_from(pool)))
        else:
            algs.append(_random_algebra(field, draw(st.integers(1, 2)),
                                        _scalars(field), draw))
    return algs


def _scalars(field):
    if field.p is None:
        return QQ_SCALARS
    return st.integers(-field.p, 2 * field.p)


@given(st.data(), st.sampled_from([QQ, GF(5), GF(7)]))
@settings(max_examples=60, deadline=None)
def test_invert_mixed_matches_columns(data, field):
    draw = data.draw
    algs = _slot_algebras(field, draw)
    dims = tuple(a.dim for a in algs)
    # a random element, or a random perturbation of the unit
    vec = draw(st.lists(_scalars(field), min_size=prod(dims),
                        max_size=prod(dims)))
    t = TensorElt.from_flat(field, dims, vec)
    if draw(st.booleans()):
        t = t + slotwise_unit(field, algs)
    got, want = invert_mixed(t, algs), _invert_by_columns(t, algs)
    assert got == want
    if got is not None:
        assert got.slotwise_mul(t, algs) == slotwise_unit(field, algs)


# a zero divisor of each H: 1 + g, the nilpotent x, an idempotent e_0
ZERO_DIVISORS = {"QZ2": [1, 1], "Sweedler4": [0, 1, 0, 0],
                 "FpZn(5,2)": [1, 0], "FpZn(7,3)": [1, 0, 0]}


@pytest.mark.parametrize("name", sorted(ZERO_DIVISORS))
def test_invert_mixed_corpus_cases(name):
    Hq = entry(name)["H"]
    fld, algs = Hq.field, [Hq.H] * 3
    unit = slotwise_unit(fld, algs)
    assert invert_mixed(unit, algs) is unit
    inv = invert_mixed(Hq.Phi, algs)
    assert inv is not None and inv == _invert_by_columns(Hq.Phi, algs)
    zero_div = TensorElt.from_vector(fld, ZERO_DIVISORS[name]).tensor(
        slotwise_unit(fld, algs[1:]))
    assert _invert_by_columns(zero_div, algs) is None
    assert invert_mixed(zero_div, algs) is None


def test_invert_mixed_reduces_sums_mod_p():
    # in GF(5)e0 + GF(5)e1 with unit e1 and e0 e0 = e0 + e1, the first
    # entry of the operator of t = 2 e0 + 3 e1 sums to 2 + 3 = 0 mod 5
    F = GF(5)
    A = FinAlgebra(F, [[[1, 1], [1, 0]], [[1, 0], [0, 1]]], [0, 1],
                   check=False)
    t = TensorElt.from_vector(F, [2, 3])
    inv = invert_mixed(t, [A])
    assert inv is not None and inv == _invert_by_columns(t, [A])


# -- per-basis identities on corrupted inputs: the (tag, basis tuple)
# pairs are the ones the hand-written loops reported before these checks
# became slot-program pairs, first 10 per tag --------------------------------

def _sweedler_with_doubled_rho():
    """The Sweedler4 bicomodule algebra with rho(e_2) doubled."""
    Ab = entry("Sweedler4")["bicomodule"]
    right = RightComoduleAlgebra(Ab.Hq, Ab.A, doubled_column(Ab.rho, (2,)),
                                 Ab.right.PhiRho,
                                 PhiRhoInv=Ab.right.PhiRhoInv, check=False)
    return right, BicomoduleAlgebra(Ab.left, right, Ab.PhiLR,
                                    PhiLRInv=Ab.PhiLRInv, check=False)


def test_comodule_verifiers_report_a_corrupted_coaction():
    right, Ab = _sweedler_with_doubled_rho()
    multiplicative = [f"coaction/multiplicative: basis ({i}, {j})"
                      for i, j in ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2))]
    assert right.verify().failures == multiplicative + [
        "coaction-coassociative: basis (1,)",
        "coaction-coassociative: basis (2,)",
        "coaction-counit: basis (2,)"]
    assert Ab.verify().failures == ["coactions-quasi-commute: basis (3,)"]
    assert verify_tilde_pq(right, tilde_pq(right, check=False)).failures \
        == ["p-intertwiner: basis (1,)", "p-intertwiner: basis (2,)",
            "q-intertwiner: basis (1,)", "q-intertwiner: basis (2,)"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    all3 = [f"basis ({i},)" for i in (1, 2, 3)]
    assert d.verify().failures == multiplicative + [
        f"coaction-coassociative: {b}" for b in all3] + [
        "coaction-counit: basis (2,)"]
    assert verify_pq_delta(d, pq_delta(d, check=False)).failures == [
        f"{tag}: {b}" for tag in ("p-conjugation", "q-conjugation")
        for b in all3]
    for primed in (False, True):
        Om = omega_from_coaction(d, primed=primed)
        assert verify_omega(d, Om, primed=primed).failures == [
            f"omega-intertwiner: {b}" for b in all3]


def test_left_comodule_verify_reports_a_corrupted_coaction():
    Ab = entry("Sweedler4")["bicomodule"]
    left = LeftComoduleAlgebra(Ab.Hq, Ab.A, doubled_column(Ab.lam, (2,)),
                               Ab.left.PhiLam, PhiLamInv=Ab.left.PhiLamInv,
                               check=False)
    assert left.verify().failures == [
        f"coaction/multiplicative: basis ({i}, {j})"
        for i, j in ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2))] + [
        "coaction-coassociative: basis (2,)",
        "coaction-coassociative: basis (3,)", "coaction-counit: basis (2,)"]


def test_twist_equivalence_reports_a_corrupted_second_structure():
    Ab = entry("Sweedler4")["bicomodule"]
    A1, A2, K = lambda12_structures(Ab, check=False)
    bad = LeftComoduleAlgebra(K, A2.B, doubled_column(A2.lam, (1,)),
                              A2.PhiLam, PhiLamInv=A2.PhiLamInv, check=False)
    with pytest.raises(VerificationError) as exc:
        twist_equivalence_U(Ab, pair=(A1, bad, K))
    assert str(exc.value) == "Sweedler4: coaction-conjugation: basis (1,)"

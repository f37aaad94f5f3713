from fractions import Fraction

import pytest

from quasihopf.coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                                 PQDelta, bicomodule_tensor_with_algebra,
                                 lambda12_structures, omega_closed_left,
                                 omega_closed_right, omega_from_coaction,
                                 pq_delta, regular_bicomodule, regular_left,
                                 regular_right, tensor_bicomodule, tilde_pq,
                                 twist_coaction, twist_equivalence_U,
                                 two_sided_from_bicomodule, verify_omega,
                                 verify_pq_delta, verify_tilde_pq)
from quasihopf.fields import QQ
from quasihopf.tensors import TensorElt, linmap_from_fn

from conftest import entry

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


def _corrupt_one(t: TensorElt) -> TensorElt:
    """``t`` with one added to its coefficient at the least index."""
    terms = dict(t.terms)
    idx = min(terms)
    terms[idx] += 1
    return TensorElt(t.field, t.dims, terms)


@pytest.mark.parametrize("name", PRIME)
def test_pq_delta_detects_corrupted_q(name):
    Ab = entry(name)["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    pq = pq_delta(d, check=False)
    verify_pq_delta(d, pq).require(name)
    rep = verify_pq_delta(d, PQDelta(pq.p, _corrupt_one(pq.q)))
    assert any(f.startswith("q-coproduct") for f in rep.failures)


def test_pq_delta_detects_corrupted_qL(monkeypatch):
    # q-factorization is the only identity that reads q_L; a corrupted
    # q fails it too, through its left side
    Ab = entry("FpZn(5,2)")["bicomodule"]
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    pq = pq_delta(d, check=False)
    rep = verify_pq_delta(d, PQDelta(pq.p, _corrupt_one(pq.q)))
    assert "q-factorization" in rep.failures
    bad_qL = _corrupt_one(d.Hq.canonical_qL())
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
    rep = verify_omega(d, _corrupt_one(Om), primed=primed)
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

    def want_fn(idx):
        t = TensorElt.basis(Hq.field, (n,), idx).apply_at(0, Hq.Delta)
        t = t.apply_at(0, Hq.Delta).apply_at(2, Hq.SInv)
        return t.permute((0, 2, 1)).merge_slots((2, 1))

    want = linmap_from_fn(Hq.field, (n,), (n * n, n), want_fn)
    assert A1.lam == want


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_tensor_bicomodule(name):
    Ab = entry(name)["bicomodule"]
    tensor_bicomodule(Ab.right, Ab.left, check=True)


@pytest.mark.parametrize("name", ["QZ2", "H2"])
def test_tensor_with_inert_algebra(name):
    st = entry(name)
    Ab = st["bicomodule"]
    big = bicomodule_tensor_with_algebra(Ab, st["H"].H, check=True)
    assert big.A.dim == Ab.A.dim * st["H"].n


def test_twist_coaction_h2():
    Ab = entry("H2")["bicomodule"]
    q = Fraction(1, 4)
    F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                               (1, 0): -q, (1, 1): q})
    twisted = twist_coaction(Ab, F, check=True)
    assert isinstance(twisted, BicomoduleAlgebra)
    twist_coaction(Ab.left, F, check=True)
    twist_coaction(Ab.right, F, check=True)


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

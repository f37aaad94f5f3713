from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                                 PQDelta, _invert_mixed, _unit_tensor,
                                 bicomodule_tensor_with_algebra,
                                 lambda12_structures, omega_closed_left,
                                 omega_closed_right, omega_from_coaction,
                                 pq_delta, regular_bicomodule, regular_left,
                                 regular_right, tensor_bicomodule, tilde_pq,
                                 twist_coaction, twist_equivalence_U,
                                 two_sided_from_bicomodule, verify_omega,
                                 verify_pq_delta, verify_tilde_pq)
from quasihopf.fields import GF, QQ
from quasihopf.finalg import FinAlgebra
from quasihopf.linalg import Mat, prod, solve, unflatten
from quasihopf.tensors import TensorElt, linmap_from_fn, slotwise_mul

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


# -- _invert_mixed against the column-by-column construction -----------------

def _invert_by_columns(t, algebras):
    """The inverse as it was found before the one-pass matrix build: one
    slotwise product t e_f per basis tensor e_f gives the columns."""
    field = t.field
    unit = _unit_tensor(field, algebras)
    if t == unit:
        return t
    dims = t.dims
    n = prod(dims)
    cols = []
    for f in range(n):
        e = TensorElt.basis(field, dims, unflatten(dims, f))
        cols.append(slotwise_mul(t, e, algebras).to_flat())
    mat = Mat(field, [[cols[j][i] for j in range(n)] for i in range(n)])
    y = solve(mat, unit.to_flat())
    if y is None:
        return None
    inv = TensorElt.from_flat(field, dims, y)
    if slotwise_mul(inv, t, algebras) != unit:
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
        t = t + _unit_tensor(field, algs)
    got, want = _invert_mixed(t, algs), _invert_by_columns(t, algs)
    assert got == want
    if got is not None:
        assert slotwise_mul(got, t, algs) == _unit_tensor(field, algs)


# a zero divisor of each H: 1 + g, the nilpotent x, an idempotent e_0
ZERO_DIVISORS = {"QZ2": [1, 1], "Sweedler4": [0, 1, 0, 0],
                 "FpZn(5,2)": [1, 0], "FpZn(7,3)": [1, 0, 0]}


@pytest.mark.parametrize("name", sorted(ZERO_DIVISORS))
def test_invert_mixed_corpus_cases(name):
    Hq = entry(name)["H"]
    fld, algs = Hq.field, [Hq.H] * 3
    unit = _unit_tensor(fld, algs)
    assert _invert_mixed(unit, algs) is unit
    inv = _invert_mixed(Hq.Phi, algs)
    assert inv is not None and inv == _invert_by_columns(Hq.Phi, algs)
    zero_div = TensorElt.from_vector(fld, ZERO_DIVISORS[name]).tensor(
        _unit_tensor(fld, algs[1:]))
    assert _invert_by_columns(zero_div, algs) is None
    assert _invert_mixed(zero_div, algs) is None


def test_invert_mixed_reduces_sums_mod_p():
    # in GF(5)e0 + GF(5)e1 with unit e1 and e0 e0 = e0 + e1, the first
    # entry of the operator of t = 2 e0 + 3 e1 sums to 2 + 3 = 0 mod 5
    F = GF(5)
    A = FinAlgebra(F, [[[1, 1], [1, 0]], [[1, 0], [0, 1]]], [0, 1],
                   check=False)
    t = TensorElt.from_vector(F, [2, 3])
    inv = _invert_mixed(t, [A])
    assert inv is not None and inv == _invert_by_columns(t, [A])

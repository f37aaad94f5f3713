"""The op/cop mirror.

Every structure kind reads as its other-handed twin in the opposite
algebra over H^{op,cop} (``QuasiHopfAlgebra.opcop``).  The mirror of a
corpus structure must satisfy the axioms of its new kind, and mirroring
twice must give back every row, unit, map and tensor over the very same
parent object, which ``BicomoduleAlgebra`` and the products' parent
check compare by identity.
"""

from fractions import Fraction

import pytest

from quasihopf.coactions import (TwoSidedCoaction, axiom_report,
                                 two_sided_from_bicomodule)
from quasihopf.fields import QQ
from quasihopf.finalg import FinAlgebra, opposite
from quasihopf.linalg import LinMap, linmap_from_columns, reshape_map
from quasihopf.products import diag_crossed_general
from quasihopf.tensors import (Program, TensorElt, Var, linmap_from_program,
                               permuted)

from conftest import entries, entry, right_regular

KINDS = ["module", "trivial-right", "dual", "bicomodule", "bicomodule-left",
         "bicomodule-right", "two-sided:l", "two-sided:r"]
REV5 = (4, 3, 2, 1, 0)


def _structure(name, kind):
    st = entry(name)
    Hq, Ab = st["H"], st["bicomodule"]
    if kind == "trivial-right":
        return right_regular(Hq)
    if kind.startswith("bicomodule-"):
        return getattr(Ab, kind.split("-")[1])
    if kind.startswith("two-sided:"):
        return two_sided_from_bicomodule(Ab, kind[-1], check=False)
    return st[kind]


def _mirror(x):
    # a bicomodule algebra's mirror keeps the name its callers use
    return x.opcop() if hasattr(x, "opcop") else x.mirror()


def _assert_same(x, y):
    """``y`` has the type and parent object of ``x`` and equals it in
    every algebra, map and tensor, parts of a bicomodule algebra
    included."""
    assert type(y) is type(x)
    assert y.Hq is x.Hq
    for key, value in vars(x).items():
        if key in ("Hq", "name"):
            continue
        other = getattr(y, key)
        if isinstance(value, (FinAlgebra, LinMap, TensorElt)):
            assert other == value, key
        else:
            _assert_same(value, other)


@pytest.mark.parametrize("name", entries())
def test_opcop_parent_is_quasi_hopf_and_an_involution(name):
    Hq = entry(name)["H"]
    Hoc = Hq.opcop()
    Hoc.verify().require(f"{name}^opcop")
    assert Hq.opcop() is Hoc
    assert Hoc.opcop() is Hq


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", entries())
def test_mirror_satisfies_the_axioms_of_its_kind(name, kind):
    x = _structure(name, kind)
    m = _mirror(x)
    assert m.Hq is x.Hq.opcop()
    axiom_report(m).require(f"{name} {kind} mirror")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", entries())
def test_mirror_twice_is_the_identity(name, kind):
    x = _structure(name, kind)
    _assert_same(x, _mirror(_mirror(x)))


def test_plain_reversal_of_psi_fails_only_off_a_symmetric_associator():
    # the mirror takes Psi^{-1} slot-reversed as its Psi; Psi itself
    # reversed passes only where Phi is symmetric under reversal, which
    # FpZn(7,3) alone is not
    for name in entries():
        Hq = entry(name)["H"]
        x = two_sided_from_bicomodule(entry(name)["bicomodule"], "l",
                                      check=False)
        d = x.mirror()
        plain = TwoSidedCoaction(d.Hq, d.A, d.delta, x.Psi.permute(REV5),
                                 PsiInv=x.PsiInv.permute(REV5), check=False)
        symmetric = Hq.Phi == Hq.Phi.permute((2, 1, 0))
        assert symmetric == (name != "FpZn(7,3)")
        assert plain.verify().failures == ([] if symmetric
                                           else ["psi-cocycle"])


def test_permuted_re_keys_the_columns_of_the_slot_program():
    # a map (2, 3) -> (2, 3, 4) with distinct entries, so that a slot
    # read in the wrong order shows
    fld = QQ
    cols = {(i, j): {(k, l, r): Fraction(1 + i + 2 * j, 1 + k + 3 * l + r)
                     for k in range(2) for l in range(3) for r in range(4)
                     if (i + j + k + l + r) % 3}
            for i in range(2) for j in range(3)}
    m = linmap_from_columns(fld, (2, 3), (2, 3, 4), cols)
    x, y = Var("x", 3), Var("y", 2)
    want = linmap_from_program(Program.basis(fld, y, x).apply_at(0, m)
                               .permute((2, 0, 1)), (x, y))
    assert permuted(m, (1, 0), (2, 0, 1)) == want
    assert permuted(want, (1, 0), (1, 2, 0)) == m
    flat = reshape_map(fld, (2, 3), (6,))
    assert permuted(flat, (0, 1), (0,)) == flat


def test_opposite_twice_is_the_algebra():
    A = entry("H2")["dual"].A
    assert opposite(opposite(A)) == A


def test_unknown_sides_are_refused_with_the_same_message():
    st = entry("H2")
    with pytest.raises(ValueError, match=r"^side must be 'l' or 'r'$"):
        two_sided_from_bicomodule(st["bicomodule"], "x")
    d = two_sided_from_bicomodule(st["bicomodule"], "l", check=False)
    with pytest.raises(ValueError,
                       match=r"^side must be 'left' or 'right'$"):
        diag_crossed_general(st["dual"], d, "middle")

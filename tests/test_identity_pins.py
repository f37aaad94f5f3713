"""Pinned failure lists of every verifier that compares fixed tensors.

On H2 and FpZn(5,2), each fixed tensor a verifier reads (Phi, PhiInv,
alpha, beta, the Drinfeld twist f, PhiRho, PhiLam, PhiLR, Psi, the
exchange element Omega, the canonical pairs p/q) gets one entry off by
one (``conftest.corrupt_one``), and the whole failure list of each
verifier that reads it is compared with ``PINS_FILE``.  A verifier that
raises ``VerificationError`` contributes its message.  The lists were
recorded while every variable-free identity was still compared as two
hand-built tensors; checking them as slot programs must not change a
line.  Since then they changed twice: an algebra-map failure reads
``multiplicative: basis (i, j)``, as every per-basis line does, and
``verify_drinfeld`` on a twist f that is not counit-normalised reports
its failures instead of raising.

``PYTHONPATH=src python tests/test_identity_pins.py`` rewrites
``PINS_FILE`` from the current code.
"""

import dataclasses
import json
import os
from unittest import mock

import pytest

from quasihopf import cli, coactions
from quasihopf.actions import RightModuleAlgebra, trivial_right_action
from quasihopf.coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                                 RightComoduleAlgebra, TwoSidedCoaction,
                                 lambda12_structures, omega_elements,
                                 omega_from_coaction, pq_delta, tilde_pq,
                                 twist_equivalence_U,
                                 two_sided_from_bicomodule, verify_omega,
                                 verify_pq_delta, verify_tilde_pq)
from quasihopf.finalg import Report, VerificationError
from quasihopf.isomaps import iso_mu
from quasihopf.quasihopf import QuasiHopfAlgebra

from conftest import corrupt_one, entry

NAMES = ["H2", "FpZn(5,2)"]
PINS_FILE = os.path.join(os.path.dirname(__file__), "identity_pins.json")


def _outcome(fn):
    """The failure list of the Report ``fn()`` returns ([] for anything
    else), or the one line of the VerificationError or ValueError it
    raises."""
    try:
        out = fn()
    except (ValueError, VerificationError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return out.failures if isinstance(out, Report) else []


def _quasi_hopf(Hq, **changed):
    """A fresh copy of ``Hq`` with some of its tensors replaced."""
    data = dict(Phi=Hq.Phi, PhiInv=Hq.PhiInv, alpha=Hq.alpha, beta=Hq.beta)
    data.update(changed)
    return QuasiHopfAlgebra(Hq.H, Hq.Delta, Hq.counit, data["Phi"], Hq.S,
                            data["alpha"], data["beta"],
                            PhiInv=data["PhiInv"], SInv=Hq.SInv,
                            name=Hq.name)


def _tensors(Ab):
    """The six fixed tensors of a bicomodule algebra, by name."""
    return dict(PhiLam=Ab.left.PhiLam, PhiLamInv=Ab.left.PhiLamInv,
                PhiRho=Ab.right.PhiRho, PhiRhoInv=Ab.right.PhiRhoInv,
                PhiLR=Ab.PhiLR, PhiLRInv=Ab.PhiLRInv)


def _bicomodule(Ab, **changed):
    """``Ab`` rebuilt unchecked with some of its six tensors replaced."""
    t = {**_tensors(Ab), **changed}
    left = LeftComoduleAlgebra(Ab.Hq, Ab.A, Ab.lam, t["PhiLam"],
                               PhiLamInv=t["PhiLamInv"], name=Ab.name,
                               check=False)
    right = RightComoduleAlgebra(Ab.Hq, Ab.A, Ab.rho, t["PhiRho"],
                                 PhiRhoInv=t["PhiRhoInv"], name=Ab.name,
                                 check=False)
    return BicomoduleAlgebra(left, right, t["PhiLR"], PhiLRInv=t["PhiLRInv"],
                             name=Ab.name, check=False)


def _cases(name):
    """{case id: failure list} for the entry ``name``."""
    st = entry(name)
    Hq, Ab = st["H"], st["bicomodule"]
    out = {}
    for key in ("Phi", "PhiInv", "alpha", "beta"):
        bad = _quasi_hopf(Hq, **{key: corrupt_one(getattr(Hq, key))})
        for check in ("verify", "verify_canonical", "verify_drinfeld"):
            out[f"H {key}: {check}"] = _outcome(getattr(bad, check))
    dt = Hq.drinfeld_twist()
    for key in ("f", "f_inv", "gamma", "delta"):
        bad = _quasi_hopf(Hq)
        bad._drinfeld = dataclasses.replace(
            dt, **{key: corrupt_one(getattr(dt, key))})
        out[f"H {key}: verify_drinfeld"] = _outcome(bad.verify_drinfeld)
    for key, x in _tensors(Ab).items():
        bad = _bicomodule(Ab, **{key: corrupt_one(x)})
        out[f"Ab {key}: verify"] = _outcome(
            lambda: bad.verify(subparts=True))
        for label, failures in cli._identity_checks(bad):
            out[f"Ab {key}: {label}"] = failures
        d = two_sided_from_bicomodule(bad, "l", check=False)
        out[f"Ab {key}: two-sided verify"] = d.verify().failures
        out[f"Ab {key}: pq_delta"] = verify_pq_delta(
            d, pq_delta(d, check=False)).failures
        for flavor in ("left", "right", "left-primed", "right-primed"):
            out[f"Ab {key}: omega {flavor}"] = _outcome(
                lambda: omega_elements(bad, flavor))
        out[f"Ab {key}: lambda12"] = _outcome(
            lambda: lambda12_structures(bad))
        out[f"Ab {key}: U"] = _outcome(lambda: twist_equivalence_U(bad))
        Bm = RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H),
                                name="Ht", check=False)
        out[f"Ab {key}: mu"] = _outcome(lambda: iso_mu(st["module"], Bm, bad))
    # the closed forms, and the op/cop mates of the primed elements, off
    # by one in one entry
    for fn in ("omega_closed_left", "omega_closed_right"):
        real = getattr(coactions, fn)
        with mock.patch.object(coactions, fn,
                               lambda src: corrupt_one(real(src))):
            out[f"Ab {fn}"] = _outcome(
                lambda: omega_elements(Ab, fn.split("_")[-1]))

    def mate_corrupted(d, primed=False):
        Om = omega_from_coaction(d, primed)
        return Om if primed else corrupt_one(Om)

    with mock.patch.object(coactions, "omega_from_coaction", mate_corrupted):
        for flavor in ("left-primed", "right-primed"):
            out[f"Ab reversed mate: {flavor}"] = _outcome(
                lambda: omega_elements(Ab, flavor))
    right = Ab.right
    pq = tilde_pq(right, check=False)
    for key in ("p", "q"):
        out[f"tilde {key}"] = verify_tilde_pq(right, dataclasses.replace(
            pq, **{key: corrupt_one(getattr(pq, key))})).failures
    d = two_sided_from_bicomodule(Ab, "l", check=False)
    for key in ("Psi", "PsiInv"):
        bad = TwoSidedCoaction(Hq, d.A, d.delta, **{
            "Psi": d.Psi, "PsiInv": d.PsiInv,
            key: corrupt_one(getattr(d, key))}, check=False)
        out[f"d {key}: verify"] = bad.verify().failures
    for primed in (False, True):
        Om = corrupt_one(omega_from_coaction(d, primed=primed))
        out[f"d Omega primed={primed}"] = verify_omega(
            d, Om, primed=primed).failures
    pqd = pq_delta(d, check=False)
    for key in ("p", "q"):
        out[f"d {key}"] = verify_pq_delta(d, dataclasses.replace(
            pqd, **{key: corrupt_one(getattr(pqd, key))})).failures
    return out


def _pins():
    with open(PINS_FILE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", NAMES)
def test_fixed_tensor_failures_are_pinned(name):
    assert _cases(name) == _pins()[name]


def test_every_fixed_tensor_check_is_exercised():
    # the pinned lists are not vacuous: each fixed-tensor check fails in
    # at least one of them
    lines = [line for cases in _pins().values() for failures in
             cases.values() for line in failures]
    tags = [
        "associator-inverse", "pentagon", "associator-counit", "zigzag",
        "normalization", "twist-inverse", "twist-counit", "twist-gamma",
        "twist-delta",
        "twisted-associator", "pentagon-p", "pentagon-q",
        "coaction-pentagon", "gluing-inverse", "mixed-pentagon-left",
        "mixed-pentagon-right", "gluing-counit", "psi-inverse",
        "psi-cocycle", "psi-counit", "qp-cancel", "pq-cancel",
        "p-coproduct", "q-coproduct", "q-factorization", "omega-cocycle",
        "omega-counit", "omega-closed-form", "omega-reversal",
        "coaction-associator-closed-form", "gluing-exchange",
        "sides-exchange", "associator-twist", "mixed-translation",
        "mu-rearrangement-1", "mu-rearrangement-3"]
    assert [tag for tag in tags
            if not any(tag in line for line in lines)] == []


if __name__ == "__main__":
    with open(PINS_FILE, "w") as fh:
        json.dump({name: _cases(name) for name in NAMES}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")

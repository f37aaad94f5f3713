"""The benchmark's workloads: set-up and one pass of checks each.

A check is one verdict: one verifier call, one CLI command or one
hostile document.  Each carries its known answer: a verdict ("PASS" or
"FAIL") for library calls, an exit code for CLI commands, and for
outputs a digest key into ``digests.json``.  ``setup(seed, work_dir)``
returns a ``Workload`` whose ``checks`` form one pass.  Checks call
library functions through their modules, so that the traced run's
wrappers (``tracing.py``) see those calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from oracle import (corrupt_table, file_sha256, hostile_documents,
                    reference_ok, sha256, table_bytes, tensor_bytes)

HOSTILE_TIME_LIMIT_S = 3.0
HOSTILE_AS_LIMIT = 512 * 2 ** 20


@dataclass
class Check:
    """``run()`` returns (verdict, digest or None) and may add a note; a
    note starting with "crash" marks a crash.  ``expect`` is the known
    verdict; ``digest_key`` names the recorded output digest."""
    id: str
    run: Callable[[], tuple]
    expect: object
    digest_key: str | None = None


@dataclass
class Workload:
    checks: list
    inputs: dict = field(default_factory=dict)


def _verdict(rep) -> str:
    return "PASS" if rep.ok else "FAIL"


# -- qq-products ------------------------------------------------------------

def _qq_products(seed: int, work_dir: str) -> Workload:
    from quasihopf import coactions as C
    from quasihopf import corpus, finalg
    from quasihopf import products as P
    from quasihopf.actions import (LeftModuleAlgebra, RightModuleAlgebra,
                                   trivial_right_action)

    rng = random.Random(seed)
    st = corpus.structures("H2", check=False)
    Hq, Am, Ab, Du = st["H"], st["module"], st["bicomodule"], st["dual"]
    Bm = RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H),
                            name="Ht", check=False)

    def dcg():
        d = C.two_sided_from_bicomodule(Ab, "l", check=False)
        return P.diag_crossed_general(Du, d, "left",
                                      Om=C.omega_from_coaction(d),
                                      check=False)

    def gtsc32():
        Ab4 = C.tensor_bicomodule(Ab.right, Ab.left, check=False)
        return P.gen_two_sided_crossed(Ab4, Du, Ab4, check=False)

    builders = [
        ("smash", lambda: P.smash(Am, check=False)),
        ("right-smash", lambda: P.right_smash(Bm, check=False)),
        ("gen-smash", lambda: P.gen_smash(Am, Ab, check=False)),
        ("right-gen-smash", lambda: P.right_gen_smash(Ab, Bm, check=False)),
        ("two-sided-smash", lambda: P.two_sided_smash(Am, Bm, check=False)),
        ("two-sided-gen-smash",
         lambda: P.two_sided_gen_smash(Am, Ab, Bm, check=False)),
        ("gen-two-sided-crossed",
         lambda: P.gen_two_sided_crossed(Ab, Du, Ab, check=False)),
    ] + [(f"diag-{fl}", lambda fl=fl: P.diag_crossed(Du, Ab, fl, check=False))
         for fl in ("bowtie", "btrl", "rbowtie", "rbtrl")] + [
        ("diag-crossed-general", dcg),
        ("gen-two-sided-crossed-32", gtsc32),
    ]

    def product_check(build):
        def run():
            alg = build().result
            rep = finalg.verify_associative_unital(alg, limit=None)
            return _verdict(rep), sha256(table_bytes(alg))
        return run

    checks = [Check(f"product:{name}", product_check(build), "PASS",
                    f"qq-products/{name}") for name, build in builders]

    def quasi(build):
        def run():
            prod = build()
            alg = prod.A if isinstance(prod, LeftModuleAlgebra) else prod.B
            return _verdict(prod.verify()), sha256(table_bytes(alg))
        return run

    checks.append(Check("quasi-smash:axioms",
                        quasi(lambda: P.quasi_smash(Ab, Du, check=False)),
                        "PASS", "qq-products/quasi-smash"))
    checks.append(Check("left-quasi-smash:axioms",
                        quasi(lambda: P.left_quasi_smash(Du, Ab,
                                                         check=False)),
                        "PASS", "qq-products/left-quasi-smash"))

    # seeded corrupted copies of two product tables, labelled by the
    # reference scan here, never by the verifier under test
    corrupted = {}
    for name in ("gen-two-sided-crossed", "diag-bowtie"):
        alg = dict(builders)[name]().result
        mul, touched = corrupt_table(alg.field, alg.mul, alg.unit, rng)
        bad = finalg.FinAlgebra(alg.field, mul, alg.unit, name=f"{name}~",
                                check=False)
        expect = "PASS" if reference_ok(alg.field, mul, alg.unit) else "FAIL"
        corrupted[name] = touched

        def run(bad=bad):
            return (_verdict(finalg.verify_associative_unital(bad,
                                                              limit=None)),
                    None)

        checks.append(Check(f"corrupted:{name}", run, expect))
    return Workload(checks, {"corrupted": corrupted})


# -- fp-identities ----------------------------------------------------------

def _fp_identities(seed: int, work_dir: str) -> Workload:
    from quasihopf import coactions as C
    from quasihopf import corpus
    from quasihopf.finalg import VerificationError

    st = corpus.structures("FpZn(7,3)", check=False)
    Hq, Ab = st["H"], st["bicomodule"]

    def canonical():
        return _verdict(Hq.verify_canonical()), None

    def tilde():
        pq = C.tilde_pq(Ab.right, check=False)
        return (_verdict(C.verify_tilde_pq(Ab.right, pq)),
                sha256(tensor_bytes(pq.p) + tensor_bytes(pq.q)))

    def omega(flavor):
        def run():
            try:
                om = C.omega_elements(Ab, flavor, check=True)
            except VerificationError:
                return "FAIL", None
            return "PASS", sha256(tensor_bytes(om.value))
        return run

    def delta():
        d = C.two_sided_from_bicomodule(Ab, "l", check=False)
        pq = C.pq_delta(d, check=False)
        return (_verdict(C.verify_pq_delta(d, pq)),
                sha256(tensor_bytes(pq.p) + tensor_bytes(pq.q)))

    checks = [
        Check("verify_canonical", canonical, "PASS"),
        Check("tilde_pq", tilde, "PASS", "fp-identities/tilde_pq"),
        Check("omega:left", omega("left"), "PASS",
              "fp-identities/omega-left"),
        Check("pq_delta", delta, "PASS", "fp-identities/pq_delta"),
    ]
    return Workload(checks)


# -- cli-session ------------------------------------------------------------

ENTRIES = ("QZ2", "H2", "Sweedler4", "FpZn(7,3)", "FpZn(5,2)")
WHATS = ("H", "module", "bicomodule", "dual")
CONSTRUCTS = (("smash", ("module",)),
              ("gen-smash", ("module", "bicomodule")),
              ("diag-bowtie", ("dual", "bicomodule")),
              ("quasi-smash", ("bicomodule", "dual")),
              ("gen-two-sided-crossed", ("bicomodule", "dual", "bicomodule")))
CONSTRUCT_ENTRIES = ("H2", "FpZn(5,2)", "Sweedler4")
# the Sweedler4 gen-two-sided-crossed product is left out, see BASELINE.json
CONSTRUCT_SKIP = {("Sweedler4", "gen-two-sided-crossed")}


def cli_call(argv) -> int:
    """Run ``quasihopf.cli.main`` in-process with its output captured."""
    from quasihopf import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS,
                       (HOSTILE_AS_LIMIT, HOSTILE_AS_LIMIT))


def hostile_call(path: str, src_dir: str):
    """``python -m quasihopf.cli verify`` on one document in a child
    process with a time limit and an address-space cap set in the child
    only; returns (exit code or None, how it ended)."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    env.pop("QHF_THREADS", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quasihopf.cli", "verify", path],
            env=env, capture_output=True, text=True,
            timeout=HOSTILE_TIME_LIMIT_S, preexec_fn=_limit_child)
    except subprocess.TimeoutExpired:
        return None, f"crash: time limit {HOSTILE_TIME_LIMIT_S}s"
    lines = proc.stderr.strip().splitlines()
    if "Traceback" in proc.stderr:
        return proc.returncode, "crash: " + (lines[-1] if lines else "")
    return proc.returncode, lines[-1] if lines else ""


def _cli_session(seed: int, work_dir: str) -> Workload:
    from quasihopf import corpus, serialize
    from quasihopf.cli import _gauge_ok
    from quasihopf.fields import QQ
    from quasihopf.tensors import TensorElt

    rng = random.Random(seed)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        corpus.__file__)))
    docs = os.path.join(work_dir, "docs")
    os.makedirs(docs, exist_ok=True)

    def doc_path(entry, what):
        return os.path.join(docs, f"{entry}_{what}.json")

    # inputs: the exported corpus, the seeded twist and the hostile files
    for entry in ENTRIES:
        for what in WHATS:
            if cli_call(["corpus", "export", entry, "--what", what,
                         "--out", doc_path(entry, what)]) != 0:
                raise RuntimeError(f"set-up export of {entry} {what} failed")
    # a seeded gauge [[1+q,-q],[-q,q]], redrawn until cli accepts it
    Hq = corpus.quasi_hopf("H2")
    while True:
        q = Fraction(rng.randint(1, 9), rng.randint(2, 12))
        F = TensorElt(QQ, (2, 2), {(0, 0): 1 + q, (0, 1): -q,
                                   (1, 0): -q, (1, 1): q})
        if _gauge_ok(Hq, F):
            break
    twist = os.path.join(docs, "twist.json")
    with open(twist, "w") as fh:
        json.dump({"field": "Q", "tensor": serialize.tensor_to_json(F)}, fh)
    with open(doc_path("H2", "module")) as fh:
        hostile = hostile_documents(json.load(fh), docs)

    checks = []

    def cli_check(argv, out=None):
        def run():
            rc = cli_call(argv)
            return rc, (file_sha256(out) if out and rc == 0 else None)
        return run

    for entry in ENTRIES:
        for what in WHATS:
            out = os.path.join(docs, f"{entry}_{what}.out.json")
            checks.append(Check(
                f"export:{entry}:{what}",
                cli_check(["corpus", "export", entry, "--what", what,
                           "--out", out], out),
                0, f"cli-session/export/{entry}/{what}"))
    for entry in ENTRIES:
        for what in WHATS:
            checks.append(Check(
                f"verify:{entry}:{what}",
                cli_check(["verify", doc_path(entry, what), "--suite=all"]),
                0))
    for entry in CONSTRUCT_ENTRIES:
        for kind, whats in CONSTRUCTS:
            if (entry, kind) in CONSTRUCT_SKIP:
                continue
            out = os.path.join(docs, f"{entry}_{kind}.json")
            checks.append(Check(
                f"construct:{entry}:{kind}",
                cli_check(["construct", kind]
                          + [doc_path(entry, w) for w in whats]
                          + ["--out", out], out),
                0, f"cli-session/construct/{entry}/{kind}"))
            checks.append(Check(f"verify:{entry}:{kind}",
                                cli_check(["verify", out]), 0))
    for name, entry, extra in (
            ("hausser-nill", "FpZn(5,2)", []),
            ("four-diagonal-isos", "FpZn(7,3)", []),
            ("twist-invariance", "H2", ["--twist", twist]),
            ("yd-roundtrip", "H2", []),
            ("sec8", "H2", []),
            ("quantum-double-smash", "H2", [])):
        checks.append(Check(f"theorem:{name}:{entry}",
                            cli_check(["theorem", name, entry] + extra), 0))
    for name, path in hostile.items():
        def run(path=path):
            rc, how = hostile_call(path, src_dir)
            return rc, None, how
        checks.append(Check(f"hostile:{name}", run, 2))
    return Workload(checks, {"gauge_q": str(q)})


SETUPS = {"qq-products": _qq_products,
          "fp-identities": _fp_identities,
          "cli-session": _cli_session}


def setup(name: str, seed: int, work_dir: str) -> Workload:
    return SETUPS[name](seed, work_dir)

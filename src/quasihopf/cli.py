"""Batch command-line interface.

Exit codes: 0 all checks pass, 1 a mathematical check fails, 2 input or
usage error.  Reports go to stdout, human readable by default, JSON
with --json.  Each command imports the algebra modules it uses, so a
document refused while it is parsed never loads them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import serialize
from .serialize import DocumentError

PASS, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    pass


# -- report plumbing -------------------------------------------------------

def _emit(checks, as_json: bool, limit: int | None, extra=None):
    """Print per-check lines (or a JSON object); return the exit code."""
    ok = all(not failures for _, failures in checks)
    if as_json:
        out = {"pass": ok,
               "checks": [{"name": name, "pass": not failures,
                           "failures": failures if limit is None
                           else failures[:limit]}
                          for name, failures in checks]}
        if extra:
            out.update(extra)
        print(json.dumps(out, indent=1, sort_keys=True))
    else:
        for name, failures in checks:
            print(f"{'PASS' if not failures else 'FAIL'}  {name}")
            shown = failures if limit is None else failures[:limit]
            for line in shown:
                print(f"      {line}")
            if limit is not None and len(failures) > limit:
                print(f"      ... {len(failures) - limit} more")
        if extra:
            for key, val in extra.items():
                print(f"{key}: {val}")
    return PASS if ok else FAIL


# -- verify ----------------------------------------------------------------

def _identity_checks(obj):
    """The canonical-element identity suite, where one applies."""
    from .coactions import (BicomoduleAlgebra, RightComoduleAlgebra,
                            mixed_translation_identity, tilde_pq,
                            verify_tilde_pq)
    from .finalg import program_report
    from .quasihopf import QuasiHopfAlgebra
    checks = []
    if isinstance(obj, QuasiHopfAlgebra):
        checks.append(("canonical elements", obj.verify_canonical().failures))
        checks.append(("twist identities", obj.verify_drinfeld().failures))
    if isinstance(obj, (RightComoduleAlgebra, BicomoduleAlgebra)):
        src = obj.right if isinstance(obj, BicomoduleAlgebra) else obj
        rep = verify_tilde_pq(src, tilde_pq(src, check=False))
        checks.append(("coaction translation elements", rep.failures))
    if isinstance(obj, BicomoduleAlgebra):
        rep = program_report([
            ("mixed-translation: gluing vs translation-element identity "
             "failed", *mixed_translation_identity(obj), ())])
        checks.append(("mixed translation identity", rep.failures))
    return checks


def cmd_verify(args) -> int:
    obj = serialize.load_structure(args.path, check=False)
    from .coactions import axiom_report
    checks = []
    if args.suite in ("axioms", "all"):
        checks.append(("axioms", axiom_report(obj).failures))
    if args.suite in ("identities", "all"):
        checks.extend(_identity_checks(obj))
    limit = None if args.all_failures else 10
    return _emit(checks, args.json, limit)


# -- construct -------------------------------------------------------------

_LMOD, _RMOD, _BIMOD, _BICOMOD = ("LeftModuleAlgebra", "RightModuleAlgebra",
                                  "BimoduleAlgebra", "BicomoduleAlgebra")
_COMODULE_L = "LeftComoduleAlgebra/BicomoduleAlgebra"
_COMODULE_R = "RightComoduleAlgebra/BicomoduleAlgebra"
# kind: (input class names, "/" between alternatives, function in
# ``products``, its extra arguments, whether the result has a factor H too)
_CONSTRUCT = {
    "smash": ((_LMOD,), "smash", (), True),
    "right-smash": ((_RMOD,), "right_smash", (), True),
    "gen-smash": ((_LMOD, _COMODULE_L), "gen_smash", (), False),
    "right-gen-smash": ((_COMODULE_R, _RMOD), "right_gen_smash", (), False),
    "quasi-smash": ((_COMODULE_R, _BIMOD), "quasi_smash", (), False),
    "left-quasi-smash": ((_BIMOD, _COMODULE_L), "left_quasi_smash", (),
                         False),
    "diag-bowtie": ((_BIMOD, _BICOMOD), "diag_crossed", ("bowtie",), False),
    "diag-btrl": ((_BIMOD, _BICOMOD), "diag_crossed", ("btrl",), False),
    "rdiag-bowtie": ((_BIMOD, _BICOMOD), "diag_crossed", ("rbowtie",),
                     False),
    "rdiag-btrl": ((_BIMOD, _BICOMOD), "diag_crossed", ("rbtrl",), False),
    "gen-two-sided-crossed": ((_COMODULE_R, _BIMOD, _COMODULE_L),
                              "gen_two_sided_crossed", (), False),
    "two-sided-gen-smash": ((_LMOD, _BICOMOD, _RMOD), "two_sided_gen_smash",
                            (), False),
    "two-sided-smash": ((_LMOD, _RMOD), "two_sided_smash", (), True),
}


def _sha256(path: str) -> str:
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def cmd_construct(args) -> int:
    kind = args.kind
    if kind not in _CONSTRUCT:
        raise UsageError(f"unknown construction {kind!r}; choose from "
                         + ", ".join(sorted(_CONSTRUCT)))
    expect, fn_name, extra, with_h = _CONSTRUCT[kind]
    if len(args.paths) != len(expect):
        raise UsageError(f"{kind} takes {len(expect)} input files, "
                         f"got {len(args.paths)}")
    # all inputs are parsed before any is built, a shared parent once
    parents = {}
    parsed = [serialize.parse_file(p, parents) for p in args.paths]
    inputs = [serialize.build(d) for d in parsed]
    for obj, want, path in zip(inputs, expect, args.paths):
        if type(obj).__name__ not in want.split("/"):
            raise UsageError(f"{path}: expected {want}, "
                             f"got {type(obj).__name__}")
    hq0 = inputs[0].Hq
    for obj in inputs[1:]:
        if obj.Hq is not hq0 and (serialize.to_document(obj.Hq)
                                  != serialize.to_document(hq0)):
            raise UsageError("inputs live over different quasi-Hopf "
                             "algebras")
    # the result's dimension, known before anything is built
    dim = hq0.n if with_h else 1
    for obj in inputs:
        dim *= (obj.A if hasattr(obj, "A") else obj.B).dim
    from . import corpus
    if dim > corpus.MAX_DIM:
        raise UsageError(f"result dimension {dim} exceeds the "
                         f"{corpus.MAX_DIM}-dimensional envelope")
    from . import products
    from .actions import LeftModuleAlgebra, RightModuleAlgebra
    from .finalg import verify_associative_unital
    t0 = time.time()
    prod = getattr(products, fn_name)(*inputs, *extra, check=False)
    if isinstance(prod, (LeftModuleAlgebra, RightModuleAlgebra)):
        # the quasi-smash products are module algebras, not plain algebras
        alg = prod.A if isinstance(prod, LeftModuleAlgebra) else prod.B
        prod.verify().require(f"{kind} result")
        doc = serialize.to_document(prod)
        dims = [alg.dim]
    else:
        alg = prod.result
        verify_associative_unital(alg, limit=10).require(f"{kind} result")
        doc = serialize.to_document(alg)
        dims = list(prod.dims)
    doc["provenance"] = {
        "construction": kind,
        "dims": dims,
        "inputs": [{"path": os.path.basename(p), "sha256": _sha256(p)}
                   for p in args.paths],
    }
    serialize.save_document(doc, args.out)
    print(f"wrote {args.out}: dim {alg.dim} {kind} "
          f"({time.time() - t0:.2f}s)")
    return PASS


# -- theorems --------------------------------------------------------------

# name: the label of its report
THEOREMS = {"hausser-nill": "three-factor coincidence",
            "four-diagonal-isos": "four diagonal products isomorphic",
            "five-corollary": "five products isomorphic",
            "twist-invariance": "products invariant under the gauge twist",
            "yd-roundtrip": "module / YD-module equivalence",
            "sec8": "module-structure translations",
            "quantum-double-smash": "quantum double as generalized smash"}


def _structures(entry: str) -> dict:
    """The corpus entry with its derived structures, unchecked; an
    unknown entry is a usage error."""
    from . import corpus
    try:
        return corpus.structures(entry, check=False)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# the gauge F of ``theorem twist-invariance`` without ``--twist``, by
# entry, as its coefficients on the basis tensors e_i (x) e_j.  On the
# 2-dimensional entries F = 1 (x) 1 + q (1 - g) (x) (1 - g), q = 1/4.  On
# Sweedler4 F = 1 (x) 1 + (1/3) x (x) x, with x = e_1: invertible as
# x^2 = 0 and normalised as eps(x) = 0.  On FpZn(7,3) F = sum c(i, j)
# 1_i (x) 1_j with c = 1 on the axes, which normalises F, and
# c(i, j) = 1 + i + 3j mod 7, never 0, off them.  Every gauge of that
# form leaves the associator of FpZn(5,2) fixed, so it keeps 1 (x) 1, as
# does an entry not named here.
_Q = Fraction(1, 4)
_GAUGES = {
    "QZ2": {(0, 0): 1 + _Q, (0, 1): -_Q, (1, 0): -_Q, (1, 1): _Q},
    "H2": {(0, 0): 1 + _Q, (0, 1): -_Q, (1, 0): -_Q, (1, 1): _Q},
    "Sweedler4": {(0, 0): 1, (1, 1): Fraction(1, 3)},
    "FpZn(7,3)": {(i, j): 1 if 0 in (i, j) else (1 + i + 3 * j) % 7
                  for i in range(3) for j in range(3)},
}


def _default_gauge(entry: str, Hq):
    """The gauge of ``entry`` in ``_GAUGES``, 1x1 otherwise."""
    if entry in _GAUGES:
        from .tensors import TensorElt
        return TensorElt(Hq.field, (Hq.n, Hq.n), _GAUGES[entry])
    one = Hq.unit_elt()
    return one.tensor(one)


def _gauge_ok(Hq, F) -> bool:
    """Invertible with counit normalization on both slots."""
    try:
        Hq.gauge_inverse(F)
    except ValueError:
        return False
    return True


def cmd_theorem(args) -> int:
    name = args.name
    if name not in THEOREMS:
        raise UsageError(f"unknown theorem {name!r}; choose from "
                         + ", ".join(THEOREMS))
    from . import isomaps, ydrep
    from .actions import RightModuleAlgebra, trivial_right_action
    entry, label = args.entry, THEOREMS[name]
    st = _structures(entry)
    Hq, Am, Ab, Du = st["H"], st["module"], st["bicomodule"], st["dual"]
    # H as a right module algebra over itself by the counit
    Bm = RightModuleAlgebra(Hq, Hq.H, trivial_right_action(Hq, Hq.H),
                            name="Ht", check=False)
    t0 = time.time()
    if name == "hausser-nill":
        products = {}
        rep = isomaps.hausser_nill_check(Ab, Du, Ab, Ab, products=products)
        label += f" (dim {products['left-nested'].dim})"
    elif name == "four-diagonal-isos":
        rep = isomaps.four_diagonal_isos(Du, Ab)
    elif name == "five-corollary":
        rep = isomaps.five_corollary(Am, Bm, Ab)
    elif name == "twist-invariance":
        if args.twist:
            doc = serialize.load_document(args.twist)
            fld = serialize.field_from_json(doc.get("field", "Q"))
            if fld != Hq.field:
                raise UsageError("twist field differs from the entry's")
            F = serialize.tensor_from_json(fld, (Hq.n, Hq.n),
                                           doc.get("tensor"))
        else:
            F = _default_gauge(entry, Hq)
        if not _gauge_ok(Hq, F):
            raise UsageError("twist is not a gauge: needs invertibility "
                             "and counit normalization in both slots")
        rep = isomaps.twist_invariance(Am, Bm, Du, Ab, F)
    elif name == "yd-roundtrip":
        rep = ydrep.yd_roundtrip_check(Hq, Ab, st["coalgebra"])
    elif name == "sec8":
        rep = ydrep.sec8_correspondences(Hq, Am, Am)
    else:
        rep = isomaps.quantum_double_gen_smash(Hq)
    extra = {"entry": entry, "seconds": round(time.time() - t0, 3)}
    return _emit([(label, rep.failures)], args.json,
                 None if args.all_failures else 10, extra)


# -- corpus ----------------------------------------------------------------

def cmd_corpus(args) -> int:
    from . import corpus
    if args.corpus_cmd == "list":
        for name in corpus.names():
            print(name)
        return PASS
    # export
    st = _structures(args.entry)
    serialize.save_document(serialize.to_document(st[args.what]), args.out)
    print(f"wrote {args.out}")
    return PASS


# -- entry point -----------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quasihopf",
        description="verify, construct and cross-check quasi-Hopf "
                    "structures and their crossed products")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="check a definition file")
    p.add_argument("path")
    p.add_argument("--suite", choices=("axioms", "identities", "all"),
                   default="axioms")
    p.add_argument("--json", action="store_true")
    p.add_argument("--all-failures", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("construct", help="build a product algebra")
    p.add_argument("kind")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("theorem", help="run a structure theorem check")
    p.add_argument("name")
    p.add_argument("entry", nargs="?", default="H2")
    p.add_argument("--twist", help="JSON file with a gauge tensor")
    p.add_argument("--json", action="store_true")
    p.add_argument("--all-failures", action="store_true")
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("corpus", help="list or export builtin entries")
    csub = p.add_subparsers(dest="corpus_cmd", required=True)
    pl = csub.add_parser("list")
    pl.set_defaults(fn=cmd_corpus)
    pe = csub.add_parser("export")
    pe.add_argument("entry")
    pe.add_argument("--out", required=True)
    pe.add_argument("--what", default="H",
                    choices=("H", "module", "bicomodule", "dual"))
    pe.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DocumentError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        from .finalg import VerificationError
        if not isinstance(exc, (ValueError, VerificationError)):
            raise
        print(f"verification failed: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())

"""JSON definition documents for every structure kind.

Scalars are stored as strings (``"3/4"`` over the rationals, decimal
residues over a prime field) so export -> import is bit exact.  Linear
maps are stored as dense nested arrays indexed input-first: the entry
``arr[i][...][j][...]`` is the coefficient of the output basis tensor
at the trailing indices in the image of the input basis tensor at the
leading indices.  Dependent structures carry a ``"parent"`` field that
is either a path to a quasi-Hopf document (relative to the referring
file) or the document itself inlined.
"""

from __future__ import annotations

import json
import os

from .actions import BimoduleAlgebra, LeftModuleAlgebra, RightModuleAlgebra
from .coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                        RightComoduleAlgebra)
from .fields import GF, QQ, Field
from .finalg import FinAlgebra
from .linalg import LinMap, Mat, flat_index, prod, unflatten
from .quasihopf import QuasiHopfAlgebra
from .tensors import TensorElt

KINDS = ("quasi-hopf", "algebra", "module-algebra-left",
         "module-algebra-right", "bimodule-algebra", "comodule-algebra-left",
         "comodule-algebra-right", "bicomodule-algebra")


class DocumentError(ValueError):
    """A definition document is malformed (shape or scalar errors)."""


# -- scalars and fields ----------------------------------------------------

def field_to_json(field: Field):
    return "Q" if field.is_rational else {"Fp": field.p}


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        try:
            return GF(int(obj["Fp"]))
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"bad field {obj!r}: {exc}") from None
    raise DocumentError(f"bad field {obj!r}")


def _nest(field: Field, dims, at):
    """Nested array of scalar strings with ``at(idx)`` supplying entries."""
    if not dims:
        return field.fmt(at(()))

    def rec(prefix, rest):
        if not rest:
            return field.fmt(at(prefix))
        return [rec(prefix + (i,), rest[1:]) for i in range(rest[0])]

    return rec((), tuple(dims))


def _unnest(field: Field, dims, arr, visit):
    """Walk a nested array, calling ``visit(idx, scalar)`` per entry."""
    def rec(prefix, rest, node):
        if not rest:
            if not isinstance(node, str):
                raise DocumentError(f"scalar expected at {prefix}, "
                                    f"got {type(node).__name__}")
            try:
                visit(prefix, field.parse(node))
            except ValueError as exc:
                raise DocumentError(str(exc)) from None
            return
        if not isinstance(node, list) or len(node) != rest[0]:
            raise DocumentError(f"array of length {rest[0]} expected "
                                f"at {prefix}")
        for i, sub in enumerate(node):
            rec(prefix + (i,), rest[1:], sub)

    rec((), tuple(dims), arr)


def tensor_to_json(t: TensorElt):
    zero = t.field.zero()
    return _nest(t.field, t.dims, lambda idx: t.terms.get(idx, zero))


def tensor_from_json(field: Field, dims, arr) -> TensorElt:
    terms = {}

    def visit(idx, c):
        if c != field.zero():
            terms[idx] = c

    _unnest(field, dims, arr, visit)
    return TensorElt(field, tuple(dims), terms)


def map_to_json(lm: LinMap):
    """Dense array over in_dims + out_dims, input indices leading."""
    dims = tuple(lm.in_dims) + tuple(lm.out_dims)
    k = len(lm.in_dims)

    def at(idx):
        col = flat_index(lm.in_dims, idx[:k])
        row = flat_index(lm.out_dims, idx[k:])
        return lm.mat.rows[row][col]

    return _nest(lm.mat.field, dims, at)


def map_from_json(field: Field, in_dims, out_dims, arr) -> LinMap:
    in_dims, out_dims = tuple(in_dims), tuple(out_dims)
    k = len(in_dims)
    mat = Mat.zero(field, prod(out_dims), prod(in_dims))

    def visit(idx, c):
        mat.rows[flat_index(out_dims, idx[k:])][flat_index(in_dims,
                                                           idx[:k])] = c

    _unnest(field, in_dims + out_dims, arr, visit)
    return LinMap(mat, in_dims, out_dims)


# -- plain algebras --------------------------------------------------------

def _algebra_fields(A: FinAlgebra):
    fmt = A.field.fmt
    return {
        "mul": [[[fmt(c) for c in row] for row in plane] for plane in A.mul],
        "unit": [fmt(c) for c in A.unit],
    }


def _algebra_from_fields(field: Field, dim: int, doc, name: str) -> FinAlgebra:
    # the arrays are walked, and so checked against ``dim``, before any
    # table of that size is allocated
    flat, unit = [], []
    _unnest(field, (dim, dim, dim), doc.get("mul"),
            lambda idx, c: flat.append(c))
    _unnest(field, (dim,), doc.get("unit"), lambda idx, c: unit.append(c))
    mul = [[flat[(i * dim + j) * dim:(i * dim + j + 1) * dim]
            for j in range(dim)] for i in range(dim)]
    return FinAlgebra(field, mul, unit, name=name, check=False)


# -- documents per kind ----------------------------------------------------

def to_document(obj, parent=None):
    """Definition document for a structure object.

    ``parent`` names the quasi-Hopf document of a dependent structure:
    a path string, an already-built document dict, or None to inline
    the parent taken from the object itself.
    """
    if isinstance(obj, QuasiHopfAlgebra):
        n = obj.n
        doc = {"kind": "quasi-hopf", "field": field_to_json(obj.field),
               "dim": n, "name": obj.name}
        doc.update(_algebra_fields(obj.H))
        doc["coproduct"] = map_to_json(obj.Delta)
        doc["counit"] = map_to_json(obj.counit)
        doc["phi"] = tensor_to_json(obj.Phi)
        doc["antipode"] = map_to_json(obj.S)
        doc["alpha"] = tensor_to_json(obj.alpha)
        doc["beta"] = tensor_to_json(obj.beta)
        return doc
    if isinstance(obj, FinAlgebra):
        doc = {"kind": "algebra", "field": field_to_json(obj.field),
               "dim": obj.dim, "name": obj.name}
        doc.update(_algebra_fields(obj))
        return doc

    if parent is None:
        parent = to_document(obj.Hq)
    if isinstance(obj, LeftModuleAlgebra):
        doc = {"kind": "module-algebra-left", "dim": obj.A.dim,
               "name": obj.name, "action_left": map_to_json(obj.action)}
        alg = obj.A
    elif isinstance(obj, RightModuleAlgebra):
        doc = {"kind": "module-algebra-right", "dim": obj.B.dim,
               "name": obj.name, "action_right": map_to_json(obj.action)}
        alg = obj.B
    elif isinstance(obj, BimoduleAlgebra):
        doc = {"kind": "bimodule-algebra", "dim": obj.A.dim,
               "name": obj.name, "action_left": map_to_json(obj.left),
               "action_right": map_to_json(obj.right)}
        alg = obj.A
    elif isinstance(obj, LeftComoduleAlgebra):
        doc = {"kind": "comodule-algebra-left", "dim": obj.B.dim,
               "name": obj.name, "coaction_left": map_to_json(obj.lam),
               "phi_lambda": tensor_to_json(obj.PhiLam)}
        alg = obj.B
    elif isinstance(obj, RightComoduleAlgebra):
        doc = {"kind": "comodule-algebra-right", "dim": obj.A.dim,
               "name": obj.name, "coaction_right": map_to_json(obj.rho),
               "phi_rho": tensor_to_json(obj.PhiRho)}
        alg = obj.A
    elif isinstance(obj, BicomoduleAlgebra):
        doc = {"kind": "bicomodule-algebra", "dim": obj.A.dim,
               "name": obj.name, "coaction_left": map_to_json(obj.lam),
               "coaction_right": map_to_json(obj.rho),
               "phi_lambda": tensor_to_json(obj.left.PhiLam),
               "phi_rho": tensor_to_json(obj.right.PhiRho),
               "phi_lr": tensor_to_json(obj.PhiLR)}
        alg = obj.A
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    doc["field"] = field_to_json(alg.field)
    doc.update(_algebra_fields(alg))
    doc["parent"] = parent
    return doc


def _need(doc, key):
    if key not in doc:
        raise DocumentError(f"missing field {key!r}")
    return doc[key]


def _dim(doc) -> int:
    d = _need(doc, "dim")
    if not isinstance(d, int) or d < 1:
        raise DocumentError(f"bad dim {d!r}")
    return d


# A valid parent is a quasi-Hopf definition, which has no parent of its
# own, so a parent chain holds at most a document and its parent.
MAX_PARENT_CHAIN = 2


def _parent(doc, base_dir, check, chain):
    """The quasi-Hopf parent of a dependent document; ``chain`` holds the
    documents on the parent chain down to this one, each by its resolved
    path (None for a document not read from a file)."""
    par = _need(doc, "parent")
    real = None
    if isinstance(par, str):
        path = par if os.path.isabs(par) else os.path.join(base_dir, par)
        real = os.path.realpath(path)
        if real in chain:
            raise DocumentError(f"cyclic parent reference to {par!r}")
    if len(chain) >= MAX_PARENT_CHAIN:
        raise DocumentError(f"parent chain longer than {MAX_PARENT_CHAIN} "
                            "documents: a parent must be a quasi-Hopf "
                            "definition")
    if real is not None:
        par = load_document(path)
        base_dir = os.path.dirname(os.path.abspath(path))
    if not isinstance(par, dict):
        raise DocumentError(f"bad parent {par!r}")
    Hq = from_document(par, base_dir=base_dir, check=check,
                       _chain=chain + (real,))
    if not isinstance(Hq, QuasiHopfAlgebra):
        raise DocumentError("parent must be a quasi-Hopf definition")
    return Hq


def from_document(doc, base_dir: str = ".", check: bool = False,
                  _chain=(None,)):
    """Rebuild the structure a document defines.

    Shape or scalar problems, and a parent chain that returns to a file
    already on it or runs past ``MAX_PARENT_CHAIN`` documents, raise
    DocumentError; mathematically inconsistent data
    (non-invertible associators, failed axioms when ``check`` is set)
    raise ValueError from the constructors.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = _need(doc, "kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}")
    field = field_from_json(_need(doc, "field"))
    dim = _dim(doc)
    name = doc.get("name", "")
    alg = _algebra_from_fields(field, dim, {"mul": _need(doc, "mul"),
                                            "unit": _need(doc, "unit")}, name)
    if kind == "algebra":
        if check:
            from .finalg import verify_associative_unital
            verify_associative_unital(alg).require(name or "algebra")
        return alg
    if kind == "quasi-hopf":
        n = dim
        Delta = map_from_json(field, (n,), (n, n), _need(doc, "coproduct"))
        counit = map_from_json(field, (n,), (), _need(doc, "counit"))
        Phi = tensor_from_json(field, (n, n, n), _need(doc, "phi"))
        S = map_from_json(field, (n,), (n,), _need(doc, "antipode"))
        alpha = tensor_from_json(field, (n,), _need(doc, "alpha"))
        beta = tensor_from_json(field, (n,), _need(doc, "beta"))
        Hq = QuasiHopfAlgebra(alg, Delta, counit, Phi, S, alpha, beta,
                              name=name)
        if check:
            Hq.verify().require(name or "quasi-Hopf algebra")
        return Hq

    Hq = _parent(doc, base_dir, check, _chain)
    n, m = Hq.n, dim
    if Hq.field != field:
        raise DocumentError("field differs from the parent's")
    if kind == "module-algebra-left":
        act = map_from_json(field, (n, m), (m,), _need(doc, "action_left"))
        return LeftModuleAlgebra(Hq, alg, act, name=name, check=check)
    if kind == "module-algebra-right":
        act = map_from_json(field, (m, n), (m,), _need(doc, "action_right"))
        return RightModuleAlgebra(Hq, alg, act, name=name, check=check)
    if kind == "bimodule-algebra":
        lft = map_from_json(field, (n, m), (m,), _need(doc, "action_left"))
        rgt = map_from_json(field, (m, n), (m,), _need(doc, "action_right"))
        return BimoduleAlgebra(Hq, alg, lft, rgt, name=name, check=check)
    if kind == "comodule-algebra-left":
        lam = map_from_json(field, (m,), (n, m), _need(doc, "coaction_left"))
        PhiLam = tensor_from_json(field, (n, n, m), _need(doc, "phi_lambda"))
        return LeftComoduleAlgebra(Hq, alg, lam, PhiLam, name=name,
                                   check=check)
    if kind == "comodule-algebra-right":
        rho = map_from_json(field, (m,), (m, n), _need(doc, "coaction_right"))
        PhiRho = tensor_from_json(field, (m, n, n), _need(doc, "phi_rho"))
        return RightComoduleAlgebra(Hq, alg, rho, PhiRho, name=name,
                                    check=check)
    # bicomodule-algebra
    lam = map_from_json(field, (m,), (n, m), _need(doc, "coaction_left"))
    rho = map_from_json(field, (m,), (m, n), _need(doc, "coaction_right"))
    PhiLam = tensor_from_json(field, (n, n, m), _need(doc, "phi_lambda"))
    PhiRho = tensor_from_json(field, (m, n, n), _need(doc, "phi_rho"))
    PhiLR = tensor_from_json(field, (n, m, n), _need(doc, "phi_lr"))
    left = LeftComoduleAlgebra(Hq, alg, lam, PhiLam, name=name, check=check)
    right = RightComoduleAlgebra(Hq, alg, rho, PhiRho, name=name, check=check)
    return BicomoduleAlgebra(left, right, PhiLR, name=name, check=check)


# -- files -----------------------------------------------------------------

def save_document(doc, path: str):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_document(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError(f"{path} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{path} must hold a JSON object")
    return doc


def load_structure(path: str, check: bool = False):
    doc = load_document(path)
    return from_document(doc, base_dir=os.path.dirname(os.path.abspath(path)),
                         check=check, _chain=(os.path.realpath(path),))

"""JSON definition documents for every structure kind.

Scalars are stored as strings (``"3/4"`` over the rationals, decimal
residues over a prime field; see ``fields`` for the grammar) so export
-> import is bit exact.  Linear maps are stored as dense nested arrays
indexed input-first: the entry ``arr[i][...][j][...]`` is the
coefficient of the output basis tensor at the trailing indices in the
image of the input basis tensor at the leading indices.  Dependent
structures carry a ``"parent"`` field that is either a path to a
quasi-Hopf document (relative to the referring file) or the document
itself inlined.

A document loads in two phases.  ``parse_document`` walks it and its
parent chain with only ``fields``: it raises every DocumentError and
leaves each array as integer numerators over one canonical denominator.
``build`` hands those to the constructors; it is the first code that
imports the algebra modules, and its errors are the mathematical ones.
"""

from __future__ import annotations

import json
import os
from itertools import islice, product, repeat
from math import gcd, lcm, prod
from operator import attrgetter
from types import SimpleNamespace

from .fields import GF, QQ, QUOTE_LIMIT, Field, quote

# kind: (class, attribute of its algebra, [(key, attribute, input slots,
# output slots)] in constructor order), slots spelled in n = dim H and
# m = dim of the algebra; a tensor has no input slots
KINDS = {
    "quasi-hopf": ("QuasiHopfAlgebra", "H", [
        ("coproduct", "Delta", "n", "nn"), ("counit", "counit", "n", ""),
        ("phi", "Phi", "", "nnn"), ("antipode", "S", "n", "n"),
        ("alpha", "alpha", "", "n"), ("beta", "beta", "", "n")]),
    "algebra": ("FinAlgebra", None, []),
    "module-algebra-left": ("LeftModuleAlgebra", "A", [
        ("action_left", "action", "nm", "m")]),
    "module-algebra-right": ("RightModuleAlgebra", "B", [
        ("action_right", "action", "mn", "m")]),
    "bimodule-algebra": ("BimoduleAlgebra", "A", [
        ("action_left", "left", "nm", "m"),
        ("action_right", "right", "mn", "m")]),
    "comodule-algebra-left": ("LeftComoduleAlgebra", "B", [
        ("coaction_left", "lam", "m", "nm"),
        ("phi_lambda", "PhiLam", "", "nnm")]),
    "comodule-algebra-right": ("RightComoduleAlgebra", "A", [
        ("coaction_right", "rho", "m", "mn"),
        ("phi_rho", "PhiRho", "", "mnn")]),
    "bicomodule-algebra": ("BicomoduleAlgebra", "A", [
        ("coaction_left", "lam", "m", "nm"),
        ("coaction_right", "rho", "m", "mn"),
        ("phi_lambda", "left.PhiLam", "", "nnm"),
        ("phi_rho", "right.PhiRho", "", "mnn"),
        ("phi_lr", "PhiLR", "", "nmn")]),
}
_EXPORT = {cls: kind for kind, (cls, _, _) in KINDS.items()}


class DocumentError(ValueError):
    """A definition document is malformed (shape or scalar errors)."""


# -- scalars and fields ----------------------------------------------------

def field_to_json(field: Field):
    return "Q" if field.is_rational else {"Fp": field.p}


def _is_int(x) -> bool:
    """Whether ``x`` is a JSON integer (a bool is not one)."""
    return isinstance(x, int) and not isinstance(x, bool)


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"} and _is_int(obj["Fp"]):
        try:
            return GF(obj["Fp"])
        except ValueError as exc:
            raise DocumentError(f"bad field {quote(obj)}: {exc}") from None
    raise DocumentError(f"bad field {quote(obj)}")


def _text(c: int, den: int) -> str:
    """The scalar string of ``c / den``."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def _nest(dims, den, values):
    """Nested array of shape ``dims`` of the scalar strings of the
    integers ``values`` (row-major) over ``den``."""
    flat = [_text(c, den) for c in values]
    for d in reversed(dims[1:]):
        flat = [flat[i:i + d] for i in range(0, len(flat), d)]
    return flat if dims else flat[0]


def _keys(dims):
    return product(*map(range, dims))


def _at(dims, pos: int):    # the multi-index at row-major position pos
    return next(islice(_keys(dims), pos, None))


class _Scalars(dict):
    """One document's scalar strings, each parsed once: text -> (n, d)."""

    def __init__(self, field: Field):
        super().__init__()
        self.field = field

    def __missing__(self, text):
        if not isinstance(text, str):
            raise TypeError(text)
        try:
            pair = self[text] = self.field.parse_ratio(text)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
        return pair


def _parse_map(scalars: _Scalars, in_dims, out_dims, arr):
    """``(den, cols)``, the arguments of ``LinMap``, from the nested array
    ``arr`` over in_dims + out_dims: its entries as integers over one
    canonical denominator.  The shape is checked level by level before
    any scalar is read.  A tensor is the column ``()`` of a map without
    input slots."""
    dims = in_dims + out_dims
    level = [arr]
    for depth, d in enumerate(dims):
        deeper = []
        for node in level:
            if not isinstance(node, list) or len(node) != d:
                raise DocumentError(f"array of length {d} expected at "
                                    f"{_at(dims[:depth], len(deeper) // d)}")
            deeper += node
        level = deeper
    try:
        pairs = [scalars[t] for t in level]
    except TypeError:
        pos = next(i for i, t in enumerate(level) if not isinstance(t, str))
        raise DocumentError(f"scalar expected at {_at(dims, pos)}, got "
                            f"{type(level[pos]).__name__}") from None
    den = lcm(*{scalars[t][1] for t in set(level)})
    nums = ([n for n, _ in pairs] if den == 1
            else [n * (den // d) for n, d in pairs])
    w = prod(out_dims)
    return den, {f: [(o, c) for o, c in enumerate(nums[f * w:(f + 1) * w])
                     if c] for f in range(prod(in_dims))}


def tensor_to_json(t):
    return _nest(t.dims, t.den, map(t.num.get, range(prod(t.dims)), repeat(0)))


def tensor_from_json(field: Field, dims, arr):
    from .tensors import TensorElt
    den, cols = _parse_map(_Scalars(field), (), tuple(dims), arr)
    return TensorElt.from_num(field, tuple(dims), dict(cols[0]), den)


def map_to_json(lm):
    """Dense array over in_dims + out_dims, input indices leading."""
    outs = range(prod(lm.out_dims))
    return _nest(lm.in_dims + lm.out_dims, lm.den, [
        c for f in range(prod(lm.in_dims))
        for c in map(dict(lm.cols[f]).get, outs, repeat(0))])


def map_from_json(field: Field, in_dims, out_dims, arr):
    from .linalg import LinMap
    in_dims, out_dims = tuple(in_dims), tuple(out_dims)
    den, cols = _parse_map(_Scalars(field), in_dims, out_dims, arr)
    return LinMap(field, in_dims, out_dims, den, cols)


# -- documents per kind ----------------------------------------------------

def to_document(obj, parent=None):
    """Definition document for a structure object.

    ``parent`` names the quasi-Hopf document of a dependent structure:
    a path string, an already-built document dict, or None to inline
    the parent taken from the object itself.
    """
    kind = _EXPORT.get(type(obj).__name__)
    if kind is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    _, alg_attr, arrays = KINDS[kind]
    alg = attrgetter(alg_attr)(obj) if alg_attr else obj
    n = alg.dim
    mul = [c for plane in alg.rows for row in plane
           for c in map(dict(row).get, range(n), repeat(0))]
    doc = {"kind": kind, "field": field_to_json(alg.field), "dim": n,
           "name": obj.name, "mul": _nest((n, n, n), alg.den, mul),
           "unit": [alg.field.fmt(c) for c in alg.unit]}
    for key, attr, ins, _ in arrays:
        val = attrgetter(attr)(obj)
        doc[key] = map_to_json(val) if ins else tensor_to_json(val)
    if kind not in ("quasi-hopf", "algebra"):
        doc["parent"] = to_document(obj.Hq) if parent is None else parent
    return doc


def _need(doc, key):
    if key not in doc:
        raise DocumentError(f"missing field {key!r}")
    return doc[key]


def _dim(doc) -> int:
    d = _need(doc, "dim")
    if not _is_int(d) or d < 1:
        raise DocumentError(f"bad dim {quote(d)}")
    return d


# A valid parent is a quasi-Hopf definition, which has no parent of its
# own, so a parent chain holds at most a document and its parent.
MAX_PARENT_CHAIN = 2


def _parent(doc, base_dir, chain, parents):
    """The quasi-Hopf parent of a dependent document; ``chain`` holds the
    documents on the parent chain down to this one, each by its resolved
    path (None for a document not read from a file)."""
    par = _need(doc, "parent")
    real = None
    if isinstance(par, str):
        path = par if os.path.isabs(par) else os.path.join(base_dir, par)
        real = os.path.realpath(path)
        if real in chain:
            raise DocumentError(f"cyclic parent reference to {quote(par)}")
    if len(chain) >= MAX_PARENT_CHAIN:
        raise DocumentError(f"parent chain longer than {MAX_PARENT_CHAIN} "
                            "documents: a parent must be a quasi-Hopf "
                            "definition")
    if real is not None:
        if real in parents:
            return parents[real]
        par = load_document(path)
        base_dir = os.path.dirname(os.path.abspath(path))
    if not isinstance(par, dict):
        raise DocumentError(f"bad parent {quote(par)}")
    parsed = parse_document(par, base_dir, parents, chain + (real,))
    if parsed.kind != "quasi-hopf":
        raise DocumentError("parent must be a quasi-Hopf definition")
    if real is not None:
        parents[real] = parsed
    return parsed


def parse_document(doc, base_dir: str = ".", parents: dict | None = None,
                   _chain=(None,)):
    """The parse phase: kind, field, dim, name, the arrays as integer
    constructor arguments and the parent parsed alike; every document
    error is raised here.  Parses that share one ``parents`` dict read
    each parent file once, keyed by resolved path."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    kind = _need(doc, "kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise DocumentError(f"unknown kind {quote(kind)}")
    field = field_from_json(_need(doc, "field"))
    m = _dim(doc)
    mul, unit = _need(doc, "mul"), _need(doc, "unit")
    scalars = _Scalars(field)
    alg = (_parse_map(scalars, (m, m), (m,), mul),
           _parse_map(scalars, (), (m,), unit))
    parent, n = None, m
    if kind not in ("quasi-hopf", "algebra"):
        parent = _parent(doc, base_dir, _chain,
                         {} if parents is None else parents)
        if parent.field != field:
            raise DocumentError("field differs from the parent's")
        n = parent.dim
    slots = {"n": n, "m": m}
    arrays = []
    for key, _, ins, outs in KINDS[kind][2]:
        ins, outs = (tuple(slots[c] for c in s) for s in (ins, outs))
        arrays.append((ins, outs, *_parse_map(scalars, ins, outs,
                                              _need(doc, key))))
    return SimpleNamespace(kind=kind, field=field, dim=m, alg=alg,
                           name=doc.get("name", ""), arrays=arrays,
                           parent=parent, obj=None)


def build(parsed, check: bool = False):
    """The build phase: the structure a parsed document defines, a parent
    shared by several parses built once.  Inconsistent data (singular
    associators, failed axioms when ``check`` is set) raise ValueError."""
    from .finalg import FinAlgebra, verify_associative_unital
    from .linalg import LinMap
    from .tensors import TensorElt
    field, name, m = parsed.field, parsed.name, parsed.dim
    (den, cols), (uden, ucol) = parsed.alg
    rows = [[cols[i * m + j] for j in range(m)] for i in range(m)]
    unit = TensorElt.from_num(field, (m,), dict(ucol[0]), uden).to_flat()
    alg = FinAlgebra.from_int_rows(field, den, rows, unit, name=name)
    vals = [LinMap(field, ins, outs, d, cols) if ins
            else TensorElt.from_num(field, outs, dict(cols[0]), d)
            for ins, outs, d, cols in parsed.arrays]
    if parsed.kind == "algebra":
        if check:
            verify_associative_unital(alg).require(name or "algebra")
        return alg
    if parsed.kind == "quasi-hopf":
        from .quasihopf import QuasiHopfAlgebra
        Hq = QuasiHopfAlgebra(alg, *vals, name=name)
        if check:
            Hq.verify().require(name or "quasi-Hopf algebra")
        return Hq

    from . import actions, coactions
    if parsed.parent.obj is None:
        parsed.parent.obj = build(parsed.parent, check)
    Hq = parsed.parent.obj
    if parsed.kind == "bicomodule-algebra":
        lam, rho, PhiLam, PhiRho, PhiLR = vals
        left = coactions.LeftComoduleAlgebra(Hq, alg, lam, PhiLam,
                                             name=name, check=check)
        right = coactions.RightComoduleAlgebra(Hq, alg, rho, PhiRho,
                                               name=name, check=check)
        return coactions.BicomoduleAlgebra(left, right, PhiLR, name=name,
                                           check=check)
    cls = KINDS[parsed.kind][0]
    cls = getattr(actions, cls, None) or getattr(coactions, cls)
    return cls(Hq, alg, *vals, name=name, check=check)


def from_document(doc, check: bool = False):
    """``build`` of ``parse_document``: document errors come before any
    mathematical one.  A parent named by path is read relative to the
    working directory."""
    return build(parse_document(doc), check)


# -- files -----------------------------------------------------------------

def save_document(doc, path: str):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_document(path: str):
    # a long path is cut, and the OSError then told by its strerror alone
    name = path if len(path) <= QUOTE_LIMIT else path[:QUOTE_LIMIT] + "..."
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        why = exc if name == path else exc.strerror
        raise DocumentError(f"cannot read {name}: {why}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{name} is not UTF-8 text: {exc}") from None
    except ValueError as exc:       # a JSONDecodeError, or an int too long
        raise DocumentError(f"{name} is not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError(f"{name} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{name} must hold a JSON object")
    return doc


def parse_file(path: str, parents: dict | None = None) -> SimpleNamespace:
    """``parse_document`` of the document in the file ``path``."""
    return parse_document(load_document(path),
                          os.path.dirname(os.path.abspath(path)), parents,
                          (os.path.realpath(path),))


def load_structure(path: str, check: bool = False):
    return build(parse_file(path), check)

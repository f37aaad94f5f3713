"""Sparse elements of tensor-product spaces and the slot combinators.

Every composite structure map in this package (coactions of coactions,
action-then-multiply chains, five-fold canonical elements) is written as
a short program over these combinators:

* ``apply_at``    - apply a LinMap to one or more adjacent slots
* ``mul_slots``   - multiply two slots inside an algebra factor
* ``permute``     - reorder slots
* ``tensor``      - juxtapose elements
* ``fold_slots``  - permute, then multiply runs of slots into one slot
* ``slotwise_prod`` - multiply elements of one tensor power slot by slot

A formula evaluated on every basis tuple (a structure map on basis
elements, a product on basis pairs, the two sides of an axiom on basis
triples) is a slot program: a ``Program`` chains the same combinator
calls, slotwise multiplication by a fixed element included, and each
basis vector it inserts is a variable (``Var``).  A flat input slot is
one variable followed by ``apply_at`` of a ``linalg.reshape_map`` that
splits it into its factors.  One executor, ``run_program``, runs a
program for every value of its variables.  It opens each variable's
loop at the first step that reads it, so each step runs once per value
of the variables read up to it; an inserted sub-program is computed
once per value of its own variables and kept for the run; and a basis
vector is never built, its insert and a contraction right after it read
the map's columns or the algebra's rows directly.  The values stream to
a sink: ``linmap_from_program`` makes each the column of a linear map
(every formula-built map is read off this way, and the same column sink
gives the rows of ``finalg.algebra_from_program``), and
``program_mismatches`` compares two programs in lexicographic order,
once when they read no variable (``finalg.program_report`` turns the
mismatches into report lines).

An element is stored as integer numerators over one shared denominator:
``num`` maps multi-index tuples to nonzero ints and ``den`` is a
positive int, so the coefficient at ``idx`` is ``num[idx] / den``.  Over
the rationals the pair is kept in lowest terms (``gcd(den, *num) == 1``);
over GF(p) ``den`` is 1 and the numerators are residues in ``[0, p)``.
The combinators accumulate plain ints, reading the integer columns a
``LinMap`` holds and the integer rows a ``FinAlgebra`` holds, and
normalise once at the end.  Field scalars (``Fraction`` over the
rationals) appear only at the boundary: the constructor takes them, and
``terms`` (a read-only {multi-index tuple: scalar} view) and ``to_flat``
return them.
The flat coordinate order is the row-major convention from linalg.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import itemgetter, methodcaller
from typing import NamedTuple

from .fields import Field
from .linalg import LinMap, flat_index, prod, unflatten


class _Terms(Mapping):
    """Read-only {multi-index tuple: field scalar} view of a TensorElt."""

    __slots__ = ("_num", "_den", "_rational")

    def __init__(self, t: "TensorElt"):
        self._num = t.num
        self._den = t.den
        self._rational = t.field.p is None

    def __getitem__(self, idx):
        n = self._num[idx]
        return Fraction(n, self._den) if self._rational else n

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __contains__(self, idx):
        return idx in self._num

    def __repr__(self):
        return repr(dict(self))


def _new(field: Field, dims, num, den) -> "TensorElt":
    """An element from numerators already in canonical form."""
    t = object.__new__(TensorElt)
    t.field = field
    t.dims = dims
    t.num = num
    t.den = den
    return t


def _normal(field: Field, dims, num, den) -> "TensorElt":
    """An element from accumulated int numerators over ``den`` > 0:
    zeros dropped, then reduced mod p or divided by the common gcd."""
    p = field.p
    if p is not None:
        return _new(field, dims, {idx: r for idx, c in num.items()
                                  if (r := c % p)}, 1)
    if 0 in num.values():
        num = {idx: c for idx, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {idx: c // g for idx, c in num.items()}
    return _new(field, dims, num, den)


class TensorElt:
    """Sparse element of V1 (x) ... (x) Vk (dims = factor dimensions)."""

    __slots__ = ("field", "dims", "num", "den")

    def __init__(self, field: Field, dims, terms=None):
        """``terms`` maps multi-indices to field scalars (ints or
        Fractions); denominators are cleared once, here."""
        self.field = field
        self.dims = tuple(dims)
        terms = terms or {}
        if field.p is None:
            den = lcm(*(c.denominator for c in terms.values()))
            num = {tuple(idx): c.numerator * (den // c.denominator)
                   for idx, c in terms.items()}
        else:
            den = 1
            num = {tuple(idx): c for idx, c in terms.items()}
        canon = _normal(field, self.dims, num, den)
        self.num, self.den = canon.num, canon.den

    @property
    def terms(self) -> Mapping:
        """The nonzero coefficients as field scalars, read-only."""
        return _Terms(self)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field, dims) -> "TensorElt":
        return _new(field, tuple(dims), {}, 1)

    @staticmethod
    def basis(field: Field, dims, idx) -> "TensorElt":
        return _new(field, tuple(dims), {tuple(idx): 1}, 1)

    @staticmethod
    def from_num(field: Field, dims, num, den: int) -> "TensorElt":
        """The element with coefficients ``num[idx] / den`` for int
        numerators and ``den`` > 0."""
        return _normal(field, tuple(dims), num, den)

    @staticmethod
    def scalar(field: Field, value) -> "TensorElt":
        return TensorElt(field, (), {(): value})

    @staticmethod
    def from_flat(field: Field, dims, vec) -> "TensorElt":
        dims = tuple(dims)
        return TensorElt(field, dims, {
            idx: c for idx, c in zip(product(*map(range, dims)), vec) if c})

    @staticmethod
    def from_vector(field: Field, vec) -> "TensorElt":
        """A single-slot element from a coordinate vector."""
        return TensorElt.from_flat(field, (len(vec),), vec)

    def to_flat(self):
        out = [self.field.zero()] * prod(self.dims)
        den = self.den if self.field.p is None else None
        for idx, c in self.num.items():
            out[flat_index(self.dims, idx)] = c if den is None \
                else Fraction(c, den)
        return out

    # -- ring-module operations ---------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TensorElt) and self.field == other.field
                and self.dims == other.dims and self.den == other.den
                and self.num == other.num)

    def __repr__(self):
        return f"TensorElt(dims={self.dims}, {len(self.num)} terms)"

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "TensorElt") -> "TensorElt":
        if self.dims != other.dims:
            raise ValueError("slot shape mismatch")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        num = {idx: c * fa for idx, c in self.num.items()}
        for idx, c in other.num.items():
            num[idx] = num.get(idx, 0) + c * fb
        return _normal(self.field, self.dims, num, den)

    def __sub__(self, other: "TensorElt") -> "TensorElt":
        return self + other.scale(-1)

    def scale(self, c) -> "TensorElt":
        """Multiply by a field scalar (an int or a Fraction)."""
        cn, cd = c.numerator, c.denominator
        return _normal(self.field, self.dims,
                       {idx: v * cn for idx, v in self.num.items()},
                       self.den * cd)

    # -- combinators ---------------------------------------------------------

    def tensor(self, other: "TensorElt") -> "TensorElt":
        if self.field != other.field:
            raise ValueError("field mismatch")
        num = {ia + ib: ca * cb for ia, ca in self.num.items()
               for ib, cb in other.num.items()}
        return _normal(self.field, self.dims + other.dims, num,
                       self.den * other.den)

    def apply_at(self, pos: int, lm: LinMap) -> "TensorElt":
        """Apply ``lm`` to the ``len(lm.in_dims)`` slots starting at ``pos``."""
        a = len(lm.in_dims)
        end = pos + a
        if self.dims[pos:end] != lm.in_dims:
            raise ValueError(
                f"slots {self.dims[pos:end]} do not match map input "
                f"{lm.in_dims}")
        new_dims = self.dims[:pos] + lm.out_dims + self.dims[end:]
        cols = lm.cols
        num = {}
        get = num.get
        for idx, c in self.num.items():
            head, tail = idx[:pos], idx[end:]
            for out, mc in cols[idx[pos:end]]:
                nid = head + out + tail
                num[nid] = get(nid, 0) + c * mc
        return _normal(self.field, new_dims, num, self.den * lm.den)

    def mul_slots(self, pos_a: int, pos_b: int, algebra) -> "TensorElt":
        """Multiply slot ``pos_a`` by slot ``pos_b`` (in that order) inside
        ``algebra``; the product lands at ``pos_a``'s position and slot
        ``pos_b`` is removed."""
        if pos_a == pos_b:
            raise ValueError("slots must differ")
        n = algebra.dim
        if self.dims[pos_a] != n or self.dims[pos_b] != n:
            raise ValueError("slot dimension does not match algebra")
        D, rows = algebra.den, algebra.rows
        dst = pos_a if pos_a < pos_b else pos_a - 1
        new_dims = tuple(d for t, d in enumerate(self.dims) if t != pos_b)
        num = {}
        get = num.get
        for idx, c in self.num.items():
            base = list(idx)
            del base[pos_b]
            for k, mc in rows[idx[pos_a]][idx[pos_b]]:
                base[dst] = k
                nid = tuple(base)
                num[nid] = get(nid, 0) + c * mc
        return _normal(self.field, new_dims, num, self.den * D)

    def permute(self, perm) -> "TensorElt":
        """Reorder slots: output slot r carries the old slot ``perm[r]``."""
        if sorted(perm) != list(range(len(self.dims))):
            raise ValueError("not a permutation of the slots")
        if len(perm) < 2:
            return self
        pick = itemgetter(*perm)
        return _new(self.field, pick(self.dims),
                    {pick(idx): c for idx, c in self.num.items()}, self.den)

    def insert(self, pos: int, other: "TensorElt") -> "TensorElt":
        """Tensor ``other`` into position ``pos``."""
        num = {ia[:pos] + ib + ia[pos:]: ca * cb
               for ia, ca in self.num.items() for ib, cb in other.num.items()}
        return _normal(self.field,
                       self.dims[:pos] + other.dims + self.dims[pos:], num,
                       self.den * other.den)


def slotwise_mul(a: TensorElt, b: TensorElt, algebras) -> TensorElt:
    """Product of two elements of A1 (x) ... (x) Ak, slot by slot.

    ``algebras`` is one algebra per slot (a single algebra is broadcast).
    For each term of ``a`` the terms of ``b`` are found either by looking
    up every index whose product is nonzero in each slot or by scanning
    ``b``, whichever visits fewer pairs.
    """
    k = len(a.dims)
    if len(b.dims) != k:
        raise ValueError("slot count mismatch")
    if not isinstance(algebras, (list, tuple)):
        algebras = [algebras] * k
    den = a.den * b.den
    srows = []
    for alg in algebras:
        den *= alg.den
        srows.append(alg.rows)
    # nonzero[t][i]: the right indices j with e_i e_j != 0 in slot t
    nonzero = [[[j for j, row in enumerate(rows_i) if row] for rows_i in sr]
               for sr in srows]
    bterms = b.num
    groups = None
    out = {}
    for ia, ca in a.num.items():
        cands = [nonzero[t][ia[t]] for t in range(k)]
        if not k or prod(map(len, cands)) <= len(bterms):
            # enumerate the right indices that are nonzero in every slot
            matches = [(ib, bterms[ib]) for ib in product(*cands)
                       if ib in bterms]
        else:
            # fewer terms in b than candidates: scan b, grouped by its
            # first slot so that pairs whose first slots multiply to zero
            # are never visited
            if groups is None:
                groups = {}
                for ib, cb in bterms.items():
                    groups.setdefault(ib[0], []).append((ib, cb))
            row0 = srows[0][ia[0]]
            matches = [m for j, ms in groups.items() if row0[j] for m in ms]
        for ib, cb in matches:
            # expand the slotwise products, bailing out on a zero slot
            partial = [((), ca * cb)]
            for t in range(k):
                row = srows[t][ia[t]][ib[t]]
                if not row:
                    partial = []
                    break
                if len(row) == 1:
                    kk, mc = row[0]
                    partial = [(pref + (kk,), coef * mc)
                               for pref, coef in partial]
                else:
                    partial = [(pref + (kk,), coef * mc)
                               for pref, coef in partial
                               for kk, mc in row]
            for idx, coef in partial:
                out[idx] = out.get(idx, 0) + coef
    return _normal(a.field, a.dims, out, den)


def slotwise_prod(factors, algebras) -> TensorElt:
    """The slotwise product of ``factors``, taken left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = slotwise_mul(out, f, algebras)
    return out


def fold_slots(t, groups, algebras):
    """Permute the slots into the concatenation of ``groups``, then fold
    each group into one slot by left-to-right multiplication; group r
    multiplies inside ``algebras[r]`` (a single algebra serves all).
    ``t`` is a TensorElt, or a Program that gains the same steps."""
    perm = tuple(s for g in groups for s in g)
    if len(perm) != len(t.dims):
        raise ValueError("groups do not cover the slots")
    if perm != tuple(range(len(perm))):
        t = t.permute(perm)
    if not isinstance(algebras, (list, tuple)):
        algebras = [algebras] * len(groups)
    for pos, (g, alg) in enumerate(zip(groups, algebras)):
        for _ in range(len(g) - 1):
            t = t.mul_slots(pos, pos + 1, alg)
    return t


# -- slot programs -------------------------------------------------------------

class Var(NamedTuple):
    """A basis index of a slot program: inserting it inserts the basis
    vector e_i of a ``dim``-dimensional slot, once for each value i."""
    name: str
    dim: int


class Program:
    """A start element and a chain of ``insert``, ``apply_at``,
    ``mul_slots``, ``permute`` and ``slotwise_mul`` steps; an inserted
    operand is a TensorElt, a Var or a Program.  ``dims`` are the slot
    dimensions of the result, ``vars`` the variables in the order steps
    first read them.
    """

    __slots__ = ("start", "steps", "dims", "vars")

    def __init__(self, start: TensorElt, steps=(), dims=None, vars=()):
        self.start = start
        self.steps = steps
        self.dims = start.dims if dims is None else tuple(dims)
        self.vars = vars

    @property
    def field(self) -> Field:
        return self.start.field

    @staticmethod
    def basis(field: Field, *variables) -> "Program":
        """e_v1 (x) ... (x) e_vk for the variables ``variables``."""
        prog = Program(TensorElt.scalar(field, field.one()))
        for v in variables:
            prog = prog.tensor(v)
        return prog

    def _then(self, step, dims, reads=()) -> "Program":
        new = tuple(v for v in reads if v not in self.vars)
        return Program(self.start, self.steps + (step,), dims,
                       self.vars + new)

    def insert(self, pos: int, x) -> "Program":
        """Tensor ``x`` (a TensorElt, a Var or a Program) into ``pos``."""
        dims, reads = ((x.dim,), (x,)) if isinstance(x, Var) \
            else (x.dims, getattr(x, "vars", ()))
        return self._then(("insert", pos, x),
                          self.dims[:pos] + dims + self.dims[pos:], reads)

    def tensor(self, x) -> "Program":
        return self.insert(len(self.dims), x)

    def apply_at(self, pos: int, lm: LinMap) -> "Program":
        end = pos + len(lm.in_dims)
        if self.dims[pos:end] != lm.in_dims:
            raise ValueError(f"slots {self.dims[pos:end]} do not match map "
                             f"input {lm.in_dims}")
        return self._then(("apply_at", pos, lm),
                          self.dims[:pos] + lm.out_dims + self.dims[end:])

    def mul_slots(self, pos_a: int, pos_b: int, algebra) -> "Program":
        if pos_a == pos_b or not (self.dims[pos_a] == self.dims[pos_b]
                                  == algebra.dim):
            raise ValueError("slots must differ and match the algebra")
        return self._then(("mul_slots", pos_a, pos_b, algebra),
                          [d for t, d in enumerate(self.dims) if t != pos_b])

    def permute(self, perm) -> "Program":
        return self._then(("permute", tuple(perm)),
                          [self.dims[s] for s in perm])

    def slotwise_mul(self, x: TensorElt, algebras,
                     left: bool = False) -> "Program":
        """Multiply the value slot by slot by the fixed element ``x``:
        ``slotwise_mul(x, t, algebras)`` when ``left``, else
        ``slotwise_mul(t, x, algebras)``."""
        if x.dims != self.dims:
            raise ValueError("slot shape mismatch")
        return self._then(("slotwise_mul", x, algebras, left), self.dims)


def _read_basis(t: TensorElt, plan, cols, den: int, dims, i: int):
    """Insert e_i and contract it, reading the images off ``cols`` (over
    ``den``): ``plan`` lists the terms of ``t`` as (slots before the
    ones read, key slots before e_i, key slots after e_i, slots after,
    coefficient); ``dims`` are the result's."""
    num = {}
    get = num.get
    for head, pre, post, tail, c in plan:
        for out, mc in cols[pre + (i,) + post]:
            nid = head + out + tail
            num[nid] = get(nid, 0) + c * mc
    return _normal(t.field, dims, num, t.den * den)


def _reader(pos: int, step, dim: int, vals, s: int):
    """``(prepare, used)``: ``prepare(t)`` gives the function that
    inserts e_i, i = ``vals[s]``, into ``t`` at ``pos`` through
    ``_read_basis`` and, when ``step`` contracts e_i (``used``), runs
    ``step`` too.  A contraction reads e_i as key position ``at`` with
    the ``w`` slots of ``t`` from ``lo``, and writes its images in their
    place."""
    lo, w, at, den, out, used = pos, 0, 0, 1, (dim,), False
    cols = {(i,): [((i,), 1)] for i in range(dim)}
    kind = step[0] if step else None
    if kind == "apply_at" and step[1] <= pos < step[1] + len(step[2].in_dims):
        lm = step[2]
        lo, w, at, used = step[1], len(lm.in_dims) - 1, pos - step[1], True
        cols, den, out = lm.cols, lm.den, lm.out_dims
    elif kind == "mul_slots":
        _, a, b, alg = step
        b_pre = b if b < pos else b - 1
        if b == pos:                    # t[a] e_i
            lo, at, used = (a if a < pos else a - 1), 1, True
        elif a == pos and (a if a < b else a - 1) == b_pre:
            lo, at, used = b_pre, 0, True   # e_i t[b], where t[b] was
        if used:
            n, rows = alg.dim, alg.rows
            w, den, out = 1, alg.den, (n,)
            cols = {(x, y): [((k,), c) for k, c in rows[x][y]]
                    for x in range(n) for y in range(n)}

    def prepare(t):
        plan = [(idx[:lo], idx[lo:lo + at], idx[lo + at:lo + w],
                 idx[lo + w:], c) for idx, c in t.num.items()]
        dims = t.dims[:lo] + out + t.dims[lo + w:]
        return lambda: _read_basis(t, plan, cols, den, dims, vals[s])
    return prepare, used


def _op(step):
    """A step that reads no variable, as a function of the value."""
    if step[0] != "slotwise_mul":
        return methodcaller(*step)
    _, x, algebras, left = step
    if left:
        return lambda t: slotwise_mul(x, t, algebras)
    return lambda t: slotwise_mul(t, x, algebras)


def _compile(prog: Program, order, sink, head: bool = False):
    """``(run, vals)``: ``run()`` evaluates ``prog`` for every value of
    the variables ``order`` and calls ``sink(offset, value)`` for each,
    ``offset`` being the row-major position of the value tuple.  The
    steps are compiled once into nested loops, each variable's opened at
    the first step that reads it (see the module docstring).  With
    ``head`` the first variable of ``order`` has no loop: its steps read
    ``vals[0]``, set by the caller before each ``run()``, and it adds
    nothing to the offsets."""
    order = tuple(order)
    if len(set(order)) != len(order) or set(order) != set(prog.vars):
        raise ValueError("order must list each variable the program reads")
    slot = {v: s for s, v in enumerate(order)}
    vals = [0] * len(order)     # the current value of each variable
    offs = [0] * len(order)     # its share of the row-major position

    def strides(variables):
        """{slot: row-major stride} of ``variables``."""
        out, size = {}, 1
        for v in reversed(variables):
            out[slot[v]] = size
            size *= v.dim
        return out

    stride = strides(order)

    def inserter(pos, sub):
        """Insert the value of ``sub`` at its variables' current values;
        all of its values are computed first, once."""
        values = [None] * prod(v.dim for v in sub.vars)
        run_program(sub, sub.vars, values.__setitem__)
        key = strides(sub.vars).items()
        return lambda t: lambda: t.insert(
            pos, values[sum(vals[s] * st for s, st in key)])

    def stage(ops, new, prepare, nxt):
        """Run ``ops``, then ``nxt`` on ``prepare(t)()`` per value of ``new``."""
        combos = [tuple((slot[v], i, i * stride[slot[v]])
                        for v, i in zip(new, combo))
                  for combo in product(*(range(v.dim) for v in new))]

        def run(t):
            for op in ops:
                t = op(t)
            value = prepare(t)
            for combo in combos:
                for s, i, off in combo:
                    vals[s] = i
                    offs[s] = off
                nxt(value())
        return run

    # each segment: the steps that read no variable, then one that does,
    # in the loops of the variables it reads first
    segments, ops, bound = [], [], set(order[:1] if head else ())
    steps = prog.steps + (None,)
    k = 0
    while steps[k] is not None:
        step, k = steps[k], k + 1
        x = step[2] if step[0] == "insert" else None
        if isinstance(x, Var):
            prepare, used = _reader(step[1], steps[k], x.dim, vals, slot[x])
            k += used
        elif isinstance(x, Program):
            prepare = inserter(step[1], x)
        else:
            ops.append(_op(step))
            continue
        new = [v for v in getattr(x, "vars", (x,)) if v not in bound]
        segments.append((ops, new, prepare))
        bound.update(new)
        ops = []
    run = lambda t: sink(sum(offs), t)
    if ops:
        run = stage(ops, (), lambda t: lambda: t, run)
    for ops, new, prepare in reversed(segments):
        run = stage(ops, new, prepare, run)
    return lambda: run(prog.start), vals


def run_program(prog: Program, order, sink) -> None:
    """Evaluate ``prog`` for every value of the variables ``order`` (each
    variable it reads, once) and call ``sink(offset, value)`` for each,
    ``offset`` being the row-major position of the value tuple; see
    ``_compile``."""
    _compile(prog, order, sink)[0]()


def program_mismatches(lhs: Program, rhs: Program, order,
                       limit: int | None = None) -> list:
    """The value tuples of ``order`` at which the two programs differ, in
    lexicographic order, stopping after ``limit`` of them; with no
    variables, ``[()]`` when the two values differ.  Each program is
    compiled once, with the first variable of ``order`` bound from
    outside, and both run once per value of it, so only that share of
    one program's values is held at a time."""
    if lhs.dims != rhs.dims:
        raise ValueError("programs differ in slot shape")
    dims = tuple(v.dim for v in order)
    chunk = prod(dims[1:])
    want = [None] * chunk
    bad, base = [], 0

    def compare(off, t):
        if t != want[off]:
            bad.append(base + off)

    run_lhs, vals_lhs = _compile(lhs, order, want.__setitem__, head=True)
    run_rhs, vals_rhs = _compile(rhs, order, compare, head=True)
    for i in range(prod(dims[:1])):
        if order:
            vals_lhs[0] = vals_rhs[0] = i
        base = i * chunk
        run_lhs()
        run_rhs()
        if limit is not None and len(bad) >= limit:
            break
    return [unflatten(dims, off) for off in sorted(bad)[:limit]]


def _columns(prog: Program, order, key=None):
    """``(den, cols)``: the value of ``prog`` at each value tuple of
    ``order``, in row-major order, as its terms sorted by multi-index
    (or by ``key[multi-index]`` when a ``key`` is given) over one
    denominator ``den``, the lcm of the values'.  Each value becomes
    its column as the executor produces it."""
    values = [None] * prod(v.dim for v in order)

    def keep(off, t):
        values[off] = (t.den, sorted(
            t.num.items() if key is None
            else [(key[idx], c) for idx, c in t.num.items()]))

    run_program(prog, order, keep)
    den = lcm(*(d for d, _ in values))
    return den, [col if d == den else [(k, c * (den // d)) for k, c in col]
                 for d, col in values]


def linmap_from_program(prog: Program, order) -> LinMap:
    """The linear map whose value on the basis tensor at the multi-index
    of the variables ``order`` is the value of ``prog`` there: its input
    dims are the dims of ``order``, its output dims ``prog.dims``."""
    in_dims = tuple(v.dim for v in order)
    den, cols = _columns(prog, order)
    return LinMap(prog.field, in_dims, prog.dims, den,
                  dict(zip(product(*map(range, in_dims)), cols)))

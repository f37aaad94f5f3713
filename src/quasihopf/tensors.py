"""Sparse elements of tensor-product spaces and the slot combinators.

Every composite structure map in this package (coactions of coactions,
action-then-multiply chains, five-fold canonical elements) is written as
a short chain of these combinators, defined once, on ``Slots``, for
elements and programs alike (a ``TensorElt`` runs each call at once, a
``Program`` records it as a step):

* ``insert``      - tensor an element into a position (``tensor``: last)
* ``apply_at``    - apply a LinMap to one or more adjacent slots
* ``mul_slots``   - multiply two slots inside an algebra factor
* ``permute``     - reorder slots
* ``slotwise_mul`` - multiply slot by slot by an element of the same
  shape, its factors all on the left or all on the right
* ``fold_slots``  - permute, then multiply runs of slots into one slot
* ``slotwise_prod`` - multiply elements of one tensor power slot by slot

A formula evaluated on every basis tuple (a structure map on basis
elements, a product on basis pairs, the two sides of an axiom on basis
triples) is a slot program: a ``Program`` chains the combinator calls,
and each basis vector it inserts is a variable (``Var``).  A flat input
slot is one variable followed by ``apply_at`` of a
``linalg.reshape_map`` that splits it into its factors.  One executor,
``run_program``, runs a program for every value of its variables.  It
opens each variable's loop at the first step that reads it, so each step
runs once per value of the variables read up to it; an inserted
sub-program is computed once per value of its own variables and kept for
the run; and a basis vector is never built: its insert, with a
contraction right after it, is one ``_rekey`` kernel per value (below)
on the map's columns or the algebra's rows with the vector's index fixed
(``_reader``).  The values stream to a sink: ``linmap_from_program``
makes each the column of a linear map (every formula-built map is read
off this way, and the same column sink gives the rows of
``finalg.algebra_from_program``), and ``program_mismatches`` compares
two programs in lexicographic order, once when they read no variable
(``finalg.program_report`` turns the mismatches into report lines).

Each compile first plans the program's steps, once, before any value is
computed.  An inserted operand (a fixed element or a sub-program's
value) whose every slot is then multiplied into a slot of the value,
before any other step reads it, is fused with those ``mul_slots`` into
one ``slotwise_mul`` step: one pass over (value terms x operand terms)
that multiplies each operand slot into its partner on the side the
``mul_slots`` had, so their tensor product is never built; only such a
planned step multiplies into some slots, each on its own side.  The fused
step runs at the earliest point where its partner slots exist, not
before the insert when the operand reads variables.  Every other
``mul_slots`` moves to just after the step that makes one of its slots,
passing only steps on other slots, so it never enters a deeper variable
loop.  A plan changes the order in which contractions run, never which
slots are multiplied nor in which order, so every bracketing is kept:
with exact scalars every value is bit-identical to the program as
written, over non-associative algebras too.

An element is stored as integer numerators over one shared denominator:
``num`` maps the row-major offset (``linalg.flat_index``) of each
multi-index to a nonzero int and ``den`` is a positive int.  Over the
rationals the pair is kept in lowest terms (``gcd(den, *num) == 1``);
over GF(p) ``den`` is 1 and the numerators are residues in ``[0, p)``.
Multi-index tuples and field scalars (``Fraction`` over the rationals)
appear only where values enter or leave (the constructor, ``basis``,
``terms``, ``to_flat``).  Each combinator's loop is written once, as a
step kernel (``_kernel``) on raw numerators, reading the integer columns
of a ``LinMap`` and rows of a ``FinAlgebra``, in one pass that re-keys
each term by int arithmetic on strides fixed in advance: a step
replacing the M offsets of the slots lo..hi, T the size of the slots
after them, reads block offset m as ``f // T % M`` and moves the key by
``(o - m) T`` to block offset o, and by ``f // (M T) * K`` when the
block grows by K / T (``_rekey``, also each variable's read); a permute
reads the slots it moves through a table.  A map whose columns share no
output (``LinMap.disjoint``) re-keys each term without accumulating,
copying its coefficient when every entry is 1 (``LinMap.unit``).  Over
GF(p) a kernel that does not accumulate (``insert``, the idempotent
``slotwise_mul`` join, a disjoint ``_rekey``) reduces each product as it
makes it, a product of nonzero residues mod a prime never being 0; only
the accumulating loops reduce their sums after (``_residues``).  Over
the rationals lowest terms are taken where a call on a TensorElt
returns, and in the executor, which binds each step's kernel once and
carries raw numerators, only where a value is held for an inner loop or
sunk.  A held zero skips the loops beneath it, each value there being
zero.  On a basis of orthogonal idempotents (``FinAlgebra.idempotents``,
e_i e_j = [i = j] e_i) a product multiplies matching coefficients:
``mul_slots`` keeps the terms whose two slots agree, and
``slotwise_mul``, when every algebra of the step has such a basis, looks
up for each term of the value the one term of the operand that agrees
with it on the step's slots.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .fields import Field
from .linalg import LinMap, flat_index, prod, unflatten


class _Terms(Mapping):
    """Read-only {multi-index tuple: field scalar} view of a TensorElt."""

    __slots__ = ("_t",)

    def __init__(self, t: "TensorElt"):
        self._t = t

    def __getitem__(self, idx):
        t = self._t
        if not (isinstance(idx, tuple) and len(idx) == len(t.dims) and all(
                0 <= i < d for i, d in zip(idx, t.dims))):
            raise KeyError(idx)
        n = t.num[flat_index(t.dims, idx)]
        return Fraction(n, t.den) if t.field.p is None else n

    def __iter__(self):
        return map(partial(unflatten, self._t.dims), self._t.num)

    def __len__(self):
        return len(self._t.num)

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


def _residues(num, p):
    """``num`` mod ``p`` without zero residues; as it is if ``p`` is None."""
    return num if p is None else {idx: r for idx, c in num.items()
                                  if (r := c % p)}


def _lowest(num, den):
    """Rational numerators over ``den`` > 0 in lowest terms: zeros
    dropped, then divided by the common gcd."""
    if 0 in num.values():
        num = {idx: c for idx, c in num.items() if c}
    g = gcd(den, *num.values()) if den != 1 else 1
    if g != 1:
        den //= g
        num = {idx: c // g for idx, c in num.items()}
    return num, den


def _normal(field: Field, dims, num, den) -> "TensorElt":
    """An element from int numerators over ``den`` > 0, normalised."""
    p = field.p
    return _new(field, dims, *(_lowest(num, den) if p is None
                               else (_residues(num, p), 1)))


# -- step kernels --------------------------------------------------------------

@lru_cache(maxsize=256)
def _gather(dims, slots) -> tuple:
    """Per offset over ``dims``, that of its indices at ``slots``."""
    sub = [dims[s] for s in slots]
    return tuple([flat_index(sub, map(idx.__getitem__, slots))
                  for idx in product(*map(range, dims))])


def _rekey(dims, lo, hi, size, cols, p, disjoint=True, unit=True):
    """The kernel that replaces the slots ``lo``..``hi`` of a value over
    ``dims`` by a block of ``size`` offsets, block offset m by each ``(o,
    c)`` of ``cols[m]``, times c (see the module docstring)."""
    T, M = prod(dims[hi:]), prod(dims[lo:hi])
    B, K = M * T, (size - M) * T if lo else 0
    ds = [[((o - m) * T, c) for o, c in cols[m]] for m in range(M)]
    if not disjoint:
        def run(num):
            out = {}
            get = out.get
            for f, c in num.items():
                b = f + f // B * K if K else f
                for d, mc in ds[f // T % M]:
                    out[b + d] = get(b + d, 0) + c * mc
            return _residues(out, p)
        return run
    if unit and all(len(d) == 1 for d in ds):
        d1 = [d for (d, _), in ds]
        if not K:
            return lambda num: {f + d1[f // T % M]: c for f, c in num.items()}
        return lambda num: {f + f // B * K + d1[f // T % M]: c
                            for f, c in num.items()}
    if unit and not K:
        return lambda num: {f + d: c for f, c in num.items()
                            for d, _ in ds[f // T % M]}
    if unit or p is None:
        return lambda num: {f + f // B * K + d: c * mc for f, c in num.items()
                            for d, mc in ds[f // T % M]}
    return lambda num: {f + f // B * K + d: c * mc % p for f, c in num.items()
                        for d, mc in ds[f // T % M]}


def _kernel(step, dims, p=None):
    """``(run, den)``: the loop of the Program step ``step`` on a value
    over ``dims``, constants bound, from the value's numerators (and the
    operand's ``x``) to the result's, as residues without zeros if ``p``
    is given; the denominator gains ``den``.  The multiplying steps take
    a dict lookup per term instead when their algebras have bases of
    orthogonal idempotents, and a map with disjoint columns a dict
    comprehension (see the module docstring)."""
    kind = step[0]
    if kind == "permute":
        moved = [r for r, s in enumerate(step[1]) if r != s] or [0]
        lo, hi = moved[0], moved[-1] + 1
        tab = _gather(dims[lo:hi], tuple(s - lo for s in step[1][lo:hi]))
        return _rekey(dims, lo, hi, len(tab), [[(g, 1)] for g in tab], p), 1
    if kind == "insert":
        T = prod(dims[step[1]:])
        K = (prod(step[2].dims) - 1) * T

        def run(num, x):
            xs = [(o * T, c) for o, c in x.items()]
            if p is None:
                return {f + f // T * K + o: ca * cb for f, ca in num.items()
                        for o, cb in xs}
            return {f + f // T * K + o: ca * cb % p for f, ca in num.items()
                    for o, cb in xs}
        return run, 1
    if kind == "apply_at":
        _, pos, lm = step
        return _rekey(dims, pos, pos + len(lm.in_dims), prod(lm.out_dims),
                      lm.cols, p, lm.disjoint, lm.unit), lm.den
    if kind == "mul_slots":
        _, a, b, alg = step
        n, Sa, Sb = alg.dim, prod(dims[a + 1:]), prod(dims[b + 1:])
        if alg.idempotents:
            # e_i e_j = [i = j] e_i: keep the terms whose slots agree and
            # drop slot b, a map injective on them
            return (lambda num: {
                f - (q - q // n) * Sb: c for f, c in num.items()
                if (q := f // Sb) % n == f // Sa % n}), 1
        rows, Sd = alg.rows, Sa // n if a < b else Sa

        def run(num):
            out = {}
            get = out.get
            for f, c in num.items():
                q, i = f // Sb, f // Sa % n
                base = f - (q - q // n) * Sb - i * Sd
                for k, mc in rows[i][q % n]:
                    out[base + k * Sd] = get(base + k * Sd, 0) + c * mc
            return _residues(out, p)
        return run, alg.den
    # slotwise_mul (see Slots; only a planned step takes some slots, each
    # on its own side): slot_of[r] is (ln, st, w, n), ln[i][j] being e_i,
    # in the value's slot slots[r] of stride st, times e_j of x's slot r
    # of stride w; partners[r][i] the shares j w of x's offset where
    # nonzero
    _, _, algebras, slots, left = step
    if slots and all(alg.idempotents for alg in algebras):
        # each term meets the one term of x that agrees with it on the
        # step's slots, on either side, and keeps its key; x's offset is
        # read off the block of slots lo..hi by a table
        lo, hi = min(slots), max(slots) + 1
        tab = _gather(dims[lo:hi], tuple(s - lo for s in slots))
        T, M = prod(dims[hi:]), len(tab)

        def run(num, x):
            get = x.get
            if p is None:
                return {f: ca * cb for f, ca in num.items()
                        if (cb := get(tab[f // T % M]))}
            return {f: ca * cb % p for f, ca in num.items()
                    if (cb := get(tab[f // T % M]))}
        return run, 1
    slot_of, partners = [], []
    for r, (alg, side, s) in enumerate(zip(algebras, left, slots)):
        w, ln = prod(dims[t] for t in slots[r + 1:]), \
            list(zip(*alg.rows)) if side else alg.rows
        slot_of.append((ln, prod(dims[s + 1:]), w, alg.dim))
        partners.append([[j * w for j, q in enumerate(row) if q]
                         for row in ln])

    def run(num, x):
        # with no more terms in x than slots every pair is tried;
        # otherwise the candidates of each index are looked up
        scan = len(x) <= len(slots)
        out = {}
        get = out.get
        for fa, ca in num.items():
            if not scan and prod(map(len, cands := [nz[fa // st % n] for nz, (
                    _, st, _, n) in zip(partners, slot_of)])) <= len(x):
                # enumerate the x offsets that are nonzero in every slot
                matches = [(g, x[g]) for g in map(sum, product(*cands))
                           if g in x]
            else:
                matches = x.items()
            for g, cb in matches:
                # move the key by each product's index, one key while
                # each product has one term, bailing out on a zero slot
                key, coef, partial = fa, ca * cb, None
                for ln, st, w, n in slot_of:
                    i = fa // st % n
                    row = ln[i][g // w % n]
                    if not row:
                        break
                    if partial is None and len(row) == 1:
                        key, coef = key + (row[0][0] - i) * st, \
                            coef * row[0][1]
                        continue
                    partial = [(q + (kk - i) * st, c * mc)
                               for q, c in partial or [(key, coef)]
                               for kk, mc in row]
                else:
                    for key, coef in partial or [(key, coef)]:
                        out[key] = get(key, 0) + coef
        return _residues(out, p)
    return run, prod(alg.den for alg in algebras)


def _shape(step, dims) -> tuple:
    """The slot dimensions of the result of ``step`` on ``dims``."""
    kind, pos = step[0], step[1]
    if kind == "insert":
        x = (step[2].dim,) if isinstance(step[2], Var) else step[2].dims
        return dims[:pos] + x + dims[pos:]
    if kind == "apply_at":
        lm = step[2]
        return dims[:pos] + lm.out_dims + dims[pos + len(lm.in_dims):]
    if kind == "mul_slots":
        return dims[:step[2]] + dims[step[2] + 1:]
    return tuple(map(dims.__getitem__, pos)) if kind == "permute" else dims


class Slots:
    """The slot combinators, written once: each checks its slots and its
    operand (a same-field TensorElt; a Program's ``insert`` also takes a
    ``Var`` or a Program, ``_operands``), then hands the Program step to
    ``_then``: a TensorElt runs it at once, a Program appends it."""

    __slots__ = ()
    _operands = ()

    def _operand(self, x, operands=()):
        if not isinstance(x, (TensorElt, *operands)):
            raise ValueError(f"a {type(self).__name__} does not take a "
                             f"{type(x).__name__} operand")
        if not isinstance(x, Var) and x.field != self.field:
            raise ValueError(f"operand over {x.field}, not {self.field}")

    def insert(self, pos: int, x):
        """Tensor ``x`` into position ``pos``."""
        self._operand(x, self._operands)
        if not 0 <= pos <= len(self.dims):
            raise ValueError(f"insert position {pos} outside "
                             f"[0, {len(self.dims)}]")
        return self._then(("insert", pos, x), x)

    def tensor(self, x):
        return self.insert(len(self.dims), x)

    def apply_at(self, pos: int, lm: LinMap):
        """Apply ``lm`` to the ``len(lm.in_dims)`` slots starting at ``pos``."""
        end = pos + len(lm.in_dims)
        if pos < 0 or end > len(self.dims) or \
                self.dims[pos:end] != lm.in_dims:
            raise ValueError(f"slots {self.dims[pos:end]} do not match map "
                             f"input {lm.in_dims}")
        return self._then(("apply_at", pos, lm))

    def mul_slots(self, pos_a: int, pos_b: int, algebra):
        """Multiply slot ``pos_a`` by slot ``pos_b`` (in that order) inside
        ``algebra``; the product lands at ``pos_a``'s position and slot
        ``pos_b`` is removed."""
        n = len(self.dims)
        if pos_a == pos_b or not (0 <= pos_a < n and 0 <= pos_b < n) or \
                not self.dims[pos_a] == self.dims[pos_b] == algebra.dim:
            raise ValueError("slots must differ and match the algebra")
        return self._then(("mul_slots", pos_a, pos_b, algebra))

    def permute(self, perm):
        """Reorder slots: output slot r carries the old slot ``perm[r]``."""
        perm = tuple(perm)
        if sorted(perm) != list(range(len(self.dims))):
            raise ValueError("not a permutation of the slots")
        return self._then(("permute", perm))

    def slotwise_mul(self, x: "TensorElt", algebras, left: bool = False):
        """Multiply slot by slot by ``x``, each slot inside its algebra in
        ``algebras`` (a single algebra is broadcast), ``x``'s factor on the
        right, or on the left with ``left``.  For each term of the value
        the terms of ``x`` are found either by looking up every index
        whose product is nonzero in each slot or by scanning ``x``,
        whichever visits fewer pairs."""
        self._operand(x)
        if x.dims != self.dims:
            raise ValueError("slot shape mismatch")
        k = len(x.dims)
        if not isinstance(algebras, (list, tuple)):
            algebras = [algebras] * k
        return self._then(("slotwise_mul", x, tuple(algebras),
                           tuple(range(k)), (left,) * k), x)


class TensorElt(Slots):
    """Sparse element of V1 (x) ... (x) Vk (dims = factor dimensions)."""

    __slots__ = ("field", "dims", "num", "den")

    def __init__(self, field: Field, dims, terms=None):
        """``terms`` maps multi-indices to field scalars (ints or
        Fractions); offsets are taken and denominators cleared, here."""
        self.field = field
        self.dims = dims = tuple(dims)
        terms = terms or {}
        den = 1 if field.p else lcm(*(c.denominator for c in terms.values()))
        canon = _normal(field, dims, {
            flat_index(dims, idx): c if field.p else
            c.numerator * (den // c.denominator) for idx, c in terms.items()},
            den)
        self.num, self.den = canon.num, canon.den

    @property
    def terms(self) -> Mapping:
        """The nonzero coefficients as field scalars, read-only."""
        return _Terms(self)

    def _then(self, step, x: "TensorElt | None" = None) -> "TensorElt":
        """``step`` run by its kernel, which over GF(p) gives residues
        already; over the rationals the result is taken to lowest terms
        (a permute only re-keys the terms)."""
        p, dims = self.field.p, _shape(step, self.dims)
        run, den = _kernel(step, self.dims, p)
        num = run(self.num) if x is None else run(self.num, x.num)
        if p is not None or step[0] == "permute":
            return _new(self.field, dims, num, self.den)
        return _new(self.field, dims,
                    *_lowest(num, self.den * den * (x.den if x else 1)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field, dims) -> "TensorElt":
        return _new(field, tuple(dims), {}, 1)

    @staticmethod
    def basis(field: Field, dims, idx) -> "TensorElt":
        return _new(field, tuple(dims), {flat_index(dims, idx): 1}, 1)

    @staticmethod
    def from_num(field: Field, dims, num, den: int) -> "TensorElt":
        """The element with coefficients ``num[f] / den`` for int
        numerators keyed by offset and ``den`` > 0."""
        return _normal(field, tuple(dims), num, den)

    @staticmethod
    def scalar(field: Field, value) -> "TensorElt":
        return TensorElt(field, (), {(): value})

    @staticmethod
    def from_flat(field: Field, dims, vec) -> "TensorElt":
        return TensorElt(field, dims, {
            unflatten(dims, f): c for f, c in enumerate(vec) if c})

    @staticmethod
    def from_vector(field: Field, vec) -> "TensorElt":
        """A single-slot element from a coordinate vector."""
        return TensorElt.from_flat(field, (len(vec),), vec)

    def to_flat(self):
        out = [self.field.zero()] * prod(self.dims)
        den = self.den if self.field.p is None else None
        for f, c in self.num.items():
            out[f] = c if den is None else Fraction(c, den)
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
        num = {f: c * fa for f, c in self.num.items()}
        for f, c in other.num.items():
            num[f] = num.get(f, 0) + c * fb
        return _normal(self.field, self.dims, num, den)

    def __sub__(self, other: "TensorElt") -> "TensorElt":
        return self + other.scale(-1)

    def scale(self, c) -> "TensorElt":
        """Multiply by a field scalar (an int or a Fraction)."""
        cn, cd = c.numerator, c.denominator
        return _normal(self.field, self.dims,
                       {f: v * cn for f, v in self.num.items()},
                       self.den * cd)


def slotwise_prod(factors, algebras) -> TensorElt:
    """The slotwise product of ``factors``, taken left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = out.slotwise_mul(f, algebras)
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


class Program(Slots):
    """A start element and a chain of ``insert``, ``apply_at``,
    ``mul_slots``, ``permute`` and ``slotwise_mul`` steps; an inserted
    operand is a TensorElt, a Var or a Program.  ``dims`` are the slot
    dimensions of the result, ``vars`` the variables in the order steps
    first read them.
    """

    __slots__ = ("start", "steps", "dims", "vars")
    _operands = (Var, Slots)

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

    def _then(self, step, x=None) -> "Program":
        """This program with ``step`` appended."""
        reads = (x,) if isinstance(x, Var) else \
            x.vars if isinstance(x, Program) else ()
        return Program(self.start, self.steps + (step,),
                       _shape(step, self.dims), self.vars
                       + tuple(v for v in reads if v not in self.vars))


# -- the plan ------------------------------------------------------------------

def _plan(prog: Program) -> tuple:
    """The steps of ``prog`` in the order they run (see the module
    docstring): each insert whose slots are all multiplied into slots of
    the value becomes one slotwise step, and every other ``mul_slots``
    moves to just after the step that makes one of its slots.  Slots are
    tracked as labels: a step reads and writes labels, and positions are
    recomputed from them."""
    if not any(step[0] == "mul_slots" for step in prog.steps):
        return prog.steps
    ops, final = _label(prog)
    anchors = {}
    moved = False
    for op in [op for op in ops if op[0][0] == "insert"
               and not isinstance(op[0][2], Var) and op[2]]:
        moved |= _fuse(ops, op, anchors)
    for n, op in enumerate(ops):
        if op[0][0] == "mul_slots":
            anchors[op[2][0]] = op[1]
            a, b = op[1]
            k = n
            while k and a not in ops[k - 1][2] and b not in ops[k - 1][2]:
                k -= 1
            if k < n:
                ops.insert(k, ops.pop(n))
                moved = True
    return _emit(prog, ops, final, anchors) if moved else prog.steps


def _label(prog: Program):
    """``(ops, final)``: each step of ``prog`` as ``(step, labels read,
    labels written, layout before)``, and the labels of the result in
    order; the start's slots are labelled 0, 1, ... and each step's new
    slots get fresh labels."""
    layout = list(range(len(prog.start.dims)))
    fresh = len(layout)
    ops = []
    for step in prog.steps:
        kind, before = step[0], tuple(layout)
        if kind == "permute":
            layout = [before[s] for s in step[1]]
            ops.append((step, (), (), before))
            continue
        if kind == "insert":
            lo = hi = step[1]
            width = 1 if isinstance(step[2], Var) else len(step[2].dims)
        elif kind == "apply_at":
            lo, hi = step[1], step[1] + len(step[2].in_dims)
            width = len(step[2].out_dims)
        elif kind == "mul_slots":
            ins, outs = (before[step[1]], before[step[2]]), (fresh,)
            layout[step[1]] = fresh
            del layout[step[2]]
        else:
            ins = tuple(before[s] for s in step[3])
            outs = tuple(range(fresh, fresh + len(ins)))
            for s, w in zip(step[3], outs):
                layout[s] = w
        if kind in ("insert", "apply_at"):
            ins, outs = before[lo:hi], tuple(range(fresh, fresh + width))
            layout[lo:hi] = outs
        fresh += len(outs)
        ops.append((step, ins, outs, before))
    return ops, tuple(layout)


def _fuse(ops, insert, anchors) -> bool:
    """Replace the op ``insert`` and the ``mul_slots`` that multiply each
    of its slots into a slot of the value by one slotwise step, when
    there is a point after the steps that make those slots and before
    the first step that reads a product: the earliest such point, not
    before the insert itself when the operand reads variables."""
    readers, makers = {}, {}
    for k, (_, ins, outs, _) in enumerate(ops):
        for l in ins:
            readers[l] = k
        for l in outs:
            makers[l] = k
    i = makers[insert[2][0]]
    x = insert[0][2]
    muls, partners, prods, algebras, left = [], [], [], [], []
    for xr in insert[2]:
        k = readers.get(xr)
        if k is None or ops[k][0][0] != "mul_slots":
            return False
        (a, b), (w,) = ops[k][1], ops[k][2]
        muls.append(k)
        partners.append(b if a == xr else a)
        prods.append(w)
        algebras.append(ops[k][0][3])
        left.append(a == xr)
    if not set(partners).isdisjoint(insert[2] + tuple(prods)):
        return False
    lo = max(makers.get(v, -1) for v in partners)
    if isinstance(x, Program) and x.vars:
        lo = max(lo, i)
    if lo >= min(readers.get(w, len(ops)) for w in prods):
        return False
    for k in muls:
        anchors[ops[k][2][0]] = ops[k][1]
    ops.insert(lo + 1, (("slotwise_mul", x, tuple(algebras), None,
                         tuple(left)), tuple(partners), tuple(prods), None))
    for k in sorted([i, *muls], reverse=True):
        del ops[k + (k > lo)]
    return True


def _emit(prog: Program, ops, final, anchors) -> tuple:
    """The steps that run ``ops`` in their order, with positions read off
    the current order of the labels.  A new slot goes where the steps as
    written put it, relative to the slots still there; a product that
    now exists earlier stands where its first factor stood.  A permute
    is added only where a map needs its slots together and at the end."""
    out = []
    layout = list(range(len(prog.start.dims)))

    def keyer(ref):
        where = {l: r for r, l in enumerate(ref)}

        def find(l):
            if l in where:
                return where[l]
            for a in anchors.get(l, ()):
                r = find(a)
                if r is not None:
                    return r
            return None

        def key(l):
            r = find(l)
            return len(ref) if r is None else r
        return key

    def arrange(order):
        if order != layout:
            perm = tuple(layout.index(l) for l in order)
            if out and out[-1][0] == "permute":
                last = out.pop()[1]
                perm = tuple(last[s] for s in perm)
            if perm != tuple(range(len(perm))):
                out.append(("permute", perm))
            layout[:] = order

    for step, ins, outs, before in ops:
        kind = step[0]
        # the positions as written hold until the layouts part
        written = tuple(layout) == before
        if kind == "permute":
            order = [before[s] for s in step[1]]
            arrange(order if written else sorted(layout, key=keyer(order)))
        elif kind in ("insert", "apply_at"):
            pos = step[1]
            if written:
                pass
            elif not ins:
                key = keyer(before)
                pos = next((r for r, l in enumerate(layout)
                            if key(l) >= pos), len(layout))
            else:
                pos = layout.index(ins[0])
                if tuple(layout[pos:pos + len(ins)]) != ins:
                    key = keyer(before)
                    rest = sorted((l for l in layout if l not in ins),
                                  key=key)
                    pos = sum(key(l) < key(ins[0]) for l in rest)
                    arrange(rest[:pos] + list(ins) + rest[pos:])
            out.append((kind, pos) + step[2:])
            layout[pos:pos + len(ins)] = outs
        elif kind == "mul_slots":
            pa, pb = layout.index(ins[0]), layout.index(ins[1])
            out.append((kind, pa, pb, step[3]))
            layout[pa] = outs[0]
            del layout[pb]
        else:
            at = tuple(layout.index(l) for l in ins)
            out.append(step[:3] + (at, step[4]))
            for s, w in zip(at, outs):
                layout[s] = w
    arrange(list(final))
    return tuple(out)


def _reader(pos: int, step, dims, vals, s: int, p):
    """``(read, used)``: ``read(num)`` inserts e_i, i = ``vals[s]``, into
    ``num`` at ``pos`` (``dims`` the slots with e_i in place) and, when
    ``step`` contracts e_i (``used``), runs ``step`` too; it returns
    ``(num, den)``, ``den`` the factor of the denominator.  Each value i
    is one ``_rekey`` kernel over the slots without e_i, built here: it
    replaces the ``w`` slots from ``lo`` (e_i at ``at`` among them) by the
    ``size`` outputs of the map's columns or the algebra's rows with e_i's
    index fixed to i; a bare insert is the block of no slots at ``pos``."""
    dim, used = dims[pos], False
    lo, w, at, den, size = pos, 0, 0, 1, dim
    cols, disjoint, unit = [[(i, 1)] for i in range(dim)], True, True
    kind = step[0] if step else None
    if kind == "apply_at" and step[1] <= pos < step[1] + len(step[2].in_dims):
        lm = step[2]
        lo, w, at, used = step[1], len(lm.in_dims) - 1, pos - step[1], True
        cols, den, size = lm.cols, lm.den, prod(lm.out_dims)
        disjoint, unit = lm.disjoint, lm.unit
    elif kind == "mul_slots":
        _, a, b, alg = step
        b_pre = b if b < pos else b - 1
        if b == pos:                    # t[a] e_i
            lo, at, used = (a if a < pos else a - 1), 1, True
        elif a == pos and (a if a < b else a - 1) == b_pre:
            lo, at, used = b_pre, 0, True   # e_i t[b], where t[b] was
        if used:
            w, den, size = 1, alg.den, alg.dim
            cols = [row for plane in alg.rows for row in plane]
            disjoint = unit = alg.idempotents
    rest = dims[:pos] + dims[pos + 1:]
    M, post = prod(rest[lo:lo + w]), prod(rest[lo + at:lo + w])
    # the column of each block offset m with e_0 in place; e_i's is i * post on
    ms = [m + m // post * (dim - 1) * post for m in range(M)]
    kernels = [_rekey(rest, lo, lo + w, size, [cols[m + i * post] for m in ms],
                      p, disjoint, unit) for i in range(dim)]
    return (lambda num: (kernels[vals[s]](num), den)), used


def _compile(prog: Program, order, sink, skip=False, head: bool = False):
    """``(run, vals)``: ``run()`` evaluates ``prog`` for every value of
    the variables ``order`` and calls ``sink(offset, num, den)`` for
    each, ``offset`` being the row-major position of the value tuple.
    The steps ``_plan`` gives are compiled once into nested loops of
    step kernels (see the module docstring); with ``skip`` a value
    beneath a zero is not sunk.  With ``head`` the first variable of
    ``order`` has no loop: its steps read ``vals[0]``, set by the caller
    before each ``run()``, and it adds nothing to the offsets."""
    order = tuple(order)
    if len(set(order)) != len(order) or set(order) != set(prog.vars):
        raise ValueError("order must list each variable the program reads")
    p = prog.field.p
    slot = {v: s for s, v in enumerate(order)}
    vals = [0] * len(order)     # the current value of each variable

    def strides(variables):
        """{slot: row-major stride} of ``variables``."""
        out, size = {}, 1
        for v in reversed(variables):
            out[slot[v]] = size
            size *= v.dim
        return out

    stride = strides(order)

    def loops(variables):
        """``[(((slot, i), ...), offset share)]`` per value tuple."""
        at = [slot[v] for v in variables]
        return [(tuple(zip(at, c)), sum(map(mul, c, map(stride.get, at))))
                for c in product(*(range(v.dim) for v in variables))]

    def inserter(step, sub, dims):
        """``step`` on a value over ``dims`` with the value of ``sub``,
        each computed once, first."""
        values = [({}, 1)] * prod(v.dim for v in sub.vars)
        _compile(sub, sub.vars, lambda off, num, den: values.__setitem__(
            off, _lowest(num, den)), True)[0]()
        key = strides(sub.vars).items()
        run, factor = _kernel(step, dims, p)

        def read(num):
            x, den = values[sum(vals[s] * st for s, st in key)]
            return run(num, x), den * factor
        return read

    def stage(ops, factor, new, read, nxt, below):
        """``ops``, then ``nxt`` on ``read(num)`` per value of ``new``."""
        combos = loops(new)
        block = () if skip else [at for _, at in loops(below)]

        def run(off, num, den):
            for op in ops:
                num = op(num)
            num, den = _lowest(num, den * factor)
            if not num:
                for at in block:
                    sink(off + at, num, den)
                return
            for combo, at in combos:
                for s, i in combo:
                    vals[s] = i
                out, d = read(num)
                nxt(off + at, out, den * d)
        return run

    # each segment: the steps that read no variable, then one that does,
    # in the loops of the variables it reads first; the steps after the
    # last read run before the sink
    segments, ops, factor = [], [], 1
    bound = set(order[:1] if head else ())
    steps = _plan(prog) + (None,)
    k, dims = 0, prog.start.dims
    while steps[k] is not None:
        step, k = steps[k], k + 1
        x = step[2] if step[0] == "insert" else \
            step[1] if step[0] == "slotwise_mul" else None
        before, dims = dims, _shape(step, dims)
        if isinstance(x, Var):
            read, used = _reader(step[1], steps[k], dims, vals, slot[x], p)
            dims, k = _shape(steps[k], dims) if used else dims, k + used
        elif isinstance(x, Program):
            read = inserter(step, x, before)
        else:
            run, den = _kernel(step, before, p)
            ops.append(run if x is None else partial(run, x=x.num))
            factor *= den if x is None else den * x.den
            continue
        new = [v for v in getattr(x, "vars", (x,)) if v not in bound]
        segments.append((ops, factor, new, read))
        bound.update(new)
        ops, factor = [], 1
    if ops:
        segments.append((ops, factor, [], lambda num: (num, 1)))
    run, below = sink, []
    for ops, factor, new, read in reversed(segments):
        below = new + below
        run = stage(ops, factor, new, read, run, below)
    return lambda: run(0, prog.start.num, prog.start.den), vals


def run_program(prog: Program, order, sink) -> None:
    """Evaluate ``prog`` for every value of the variables ``order`` (each
    variable it reads, once) and call ``sink(offset, value)`` for each,
    ``offset`` being the row-major position of the value tuple; see
    ``_compile``."""
    _compile(prog, order, lambda off, num, den: sink(
        off, _normal(prog.field, prog.dims, num, den)))[0]()


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
    bad, first = [], 0

    def store(off, num, den):
        want[off] = _lowest(num, den)

    def compare(off, num, den):
        if _lowest(num, den) != want[off]:
            bad.append(first + off)

    run_lhs, vals_lhs = _compile(lhs, order, store, head=True)
    run_rhs, vals_rhs = _compile(rhs, order, compare, head=True)
    for i in range(prod(dims[:1])):
        if order:
            vals_lhs[0] = vals_rhs[0] = i
        first = i * chunk
        run_lhs()
        run_rhs()
        if limit is not None and len(bad) >= limit:
            break
    return [unflatten(dims, off) for off in sorted(bad)[:limit]]


def _columns(prog: Program, order):
    """``(den, cols)``: the value of ``prog`` at each value tuple of
    ``order``, in row-major order, as its nonzero terms sorted by offset
    (one int object per offset) over one denominator ``den``, the lcm of
    the values' denominators reduced to lowest terms; a skipped zero
    value keeps the empty column it starts as."""
    values = [(1, [])] * prod(v.dim for v in order)
    at = list(range(prod(prog.dims)))

    def keep(off, num, den):
        values[off] = (den, sorted([(at[f], c) for f, c in num.items() if c]))

    _compile(prog, order, keep, True)[0]()
    den = lcm(*(d for d, _ in values))
    cols = [col if d == den else [(k, c * (den // d)) for k, c in col]
            for d, col in values]
    g = gcd(den, *(c for col in cols for _, c in col)) if den > 1 else 1
    return den // g, cols if g == 1 else [[(k, c // g) for k, c in col]
                                          for col in cols]


def linmap_from_program(prog: Program, order) -> LinMap:
    """The linear map whose value on the basis tensor at the multi-index
    of the variables ``order`` is the value of ``prog`` there: its input
    dims are the dims of ``order``, its output dims ``prog.dims``."""
    den, cols = _columns(prog, order)
    return LinMap(prog.field, tuple(v.dim for v in order), prog.dims, den,
                  dict(enumerate(cols)))


def permuted(lm: LinMap, ins, outs) -> LinMap:
    """``lm`` with its input and output slots reordered as ``permute``
    does, by ``ins`` and ``outs``: its columns re-keyed, not recomputed."""
    in_dims = tuple(lm.in_dims[s] for s in ins)
    src = _gather(in_dims, tuple(map(tuple(ins).index, range(len(ins)))))
    dst = _gather(lm.out_dims, tuple(outs))
    return LinMap(lm.field, in_dims, tuple(lm.out_dims[s] for s in outs),
                  lm.den, {g: sorted([(dst[o], c) for o, c in lm.cols[f]])
                           for g, f in enumerate(src)})

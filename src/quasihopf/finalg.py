"""Finite-dimensional unital algebras by structure constants.

An algebra is stored once, as integer sparse rows over one denominator:
the slot combinators and the exhaustive scans read that form, and a
dense table is built only for documents.  The associativity scan packs
each row into one int (Kronecker substitution) and gives each distinct
row an id: (e_i e_j) e_k is computed once per (id of e_i e_j, k) and
e_i (e_j e_k) once per (i, id of e_j e_k), in n D + D packed values
for D distinct rows; the n^3 triples are then tuple compares.
Tensor-product and opposite algebras and the inverse of an element of
a slotwise product of algebras live here, together with ``Report`` and
``program_report``, the one reporter of every identity checked as a
pair of slot programs: on all basis tuples of its variables, or once
when it has none.  That a map is an (anti-)algebra map is two such
pairs (``algebra_map_checks``), its target one algebra per output slot
or one algebra on the flat output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from .fields import Field
from .linalg import LinMap, int_entries, prod, reshape_map, solve, unflatten
from .tensors import Program, TensorElt, Var, _columns, program_mismatches


class VerificationError(Exception):
    """A structure failed one of its defining checks."""


class Report:
    """Accumulated verification failures; empty means pass."""

    __slots__ = ("failures",)

    def __init__(self):
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, tag: str, detail: str = ""):
        self.failures.append(f"{tag}: {detail}" if detail else tag)

    def check(self, condition: bool, tag: str, detail: str = ""):
        if not condition:
            self.add(tag, detail)

    def merge(self, other: "Report"):
        self.failures.extend(other.failures)

    def merge_under(self, tag: str, other: "Report") -> "Report":
        """Merge the failures of ``other``, each as a detail of ``tag``;
        return this report."""
        for line in other.failures:
            self.add(tag, line)
        return self

    def require(self, context: str = ""):
        if self.failures:
            head = f"{context}: " if context else ""
            raise VerificationError(head + "; ".join(self.failures[:10]))

    def __repr__(self):
        return "Report(pass)" if self.ok else f"Report({self.failures!r})"


def program_report(checks) -> Report:
    """The report of identities checked on every basis tuple: for each
    ``(label, lhs, rhs, variables)`` of ``checks``, the first 10 value
    tuples of the variables, in lexicographic order, at which the slot
    programs ``lhs`` and ``rhs`` differ, each as ``"{label}: basis
    {idx}"``; an identity without variables fails as its label alone."""
    rep = Report()
    for label, lhs, rhs, order in checks:
        for idx in program_mismatches(lhs, rhs, order, 10):
            rep.add(label, f"basis {idx}" if order else "")
    return rep


def inverse_checks(label: str, x: TensorElt, x_inv: TensorElt, algebras,
                   names) -> list:
    """The checks x x_inv = 1 and x_inv x = 1 in the slotwise product of
    ``algebras``, failing as ``"{label}: {a} {b} != 1"`` and
    ``"{label}: {b} {a} != 1"`` for the ``names`` (a, b) of x and x_inv."""
    one = Program(slotwise_unit(x.field, algebras))
    a, b = names
    return [(f"{label}: {a} {b} != 1",
             Program(x).slotwise_mul(x_inv, algebras), one, ()),
            (f"{label}: {b} {a} != 1",
             Program(x_inv).slotwise_mul(x, algebras), one, ())]


class FinAlgebra:
    """Unital associative algebra given by structure constants.

    The product is stored as integer sparse rows over one denominator
    ``den``: ``rows[i][j]`` lists e_i e_j as ``[(k, den * c), ...]`` in
    increasing k, zeros skipped.  The form is canonical: over QQ, ``den``
    is the lcm of the entries' denominators; over GF(p), ``den`` is 1 and
    the entries are nonzero residues.  ``mul`` is a dense view of it.
    The rows are never changed after construction, so ``idempotents``,
    whether the basis is one of orthogonal idempotents (e_i e_j = [i = j]
    e_i), is read off them once.
    """

    __slots__ = ("field", "dim", "den", "rows", "unit", "name",
                 "idempotents")

    def __init__(self, field: Field, mul, unit, name: str = "",
                 check: bool = True):
        """``mul[i][j]`` is the coordinate vector of e_i e_j."""
        n = len(mul)
        den, rows = int_entries(field, [
            [(k, c) for k, c in enumerate(row) if c]
            for plane in mul for row in plane])
        self._set(field, den, [rows[i * n:(i + 1) * n] for i in range(n)],
                  unit, name, check)

    @classmethod
    def from_int_rows(cls, field: Field, den: int, rows, unit,
                      name: str = "") -> "FinAlgebra":
        """An algebra from sparse rows already in canonical form,
        unchecked."""
        A = cls.__new__(cls)
        A._set(field, den, rows, unit, name, False)
        return A

    def _set(self, field, den, rows, unit, name, check):
        self.field = field
        self.dim = len(rows)
        self.den = den
        self.rows = rows
        self.idempotents = den == 1 and all(
            row == ([(i, 1)] if i == j else [])
            for i, plane in enumerate(rows) for j, row in enumerate(plane))
        self.unit = list(unit)
        self.name = name
        if check:
            verify_associative_unital(self).require(name or "algebra")

    def __repr__(self):
        label = self.name or "FinAlgebra"
        return f"{label}(dim={self.dim} over {self.field})"

    def __eq__(self, other):
        return (isinstance(other, FinAlgebra) and self.field == other.field
                and self.den == other.den and self.rows == other.rows
                and self.unit == other.unit)

    def _scalar(self, c):
        """The field scalar of the row entry ``c``."""
        return c if self.field.p is not None else Fraction(c, self.den)

    @property
    def mul(self):
        """Dense view, built on each read: ``mul[i][j]`` is the coordinate
        vector of e_i e_j."""
        zero, n = self.field.zero(), self.dim
        out = []
        for plane in self.rows:
            dense_plane = []
            for row in plane:
                dense = [zero] * n
                for k, c in row:
                    dense[k] = self._scalar(c)
                dense_plane.append(dense)
            out.append(dense_plane)
        return out

    def multiply(self, u, v):
        """Coordinates of the product of the coordinate vectors u, v."""
        acc = [0] * self.dim
        rows = self.rows
        for i, cu in enumerate(u):
            if cu == 0:
                continue
            rows_i = rows[i]
            for j, cv in enumerate(v):
                if cv == 0:
                    continue
                cuv = cu * cv
                for k, c in rows_i[j]:
                    acc[k] = acc[k] + cuv * c
        p = self.field.p
        if p is not None:
            return [x % p for x in acc]
        return acc if self.den == 1 else [Fraction(x, self.den) for x in acc]


def verify_associative_unital(A: FinAlgebra, limit: int | None = 10) -> Report:
    """Exhaustive unit-law and associativity scan over all basis triples."""
    rep = Report()
    p, rows = A.field.p, A.rows
    # 1 e_i - e_i and e_i 1 - e_i on the integer rows, times unit.den D
    unit = TensorElt.from_vector(A.field, A.unit)
    for i in range(A.dim):
        for tag, detail, left in (("unit-left", f"1*e_{i} != e_{i}", True),
                                  ("unit-right", f"e_{i}*1 != e_{i}", False)):
            acc = {i: -unit.den * A.den}
            for a, c in unit.num.items():
                for k, x in rows[a][i] if left else rows[i][a]:
                    acc[k] = acc.get(k, 0) + c * x
            if any(v if p is None else v % p for v in acc.values()):
                rep.add(tag, detail)
    for i, j, k in _assoc_defects(A, limit):
        rep.add("associativity", f"(e_{i} e_{j}) e_{k} != e_{i} (e_{j} e_{k})")
    return rep


def _assoc_defects(A: FinAlgebra, limit: int | None) -> list:
    """The basis triples (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
    in lexicographic order, stopping after ``limit`` of them.

    The sides are compared exactly on the integer rows (both carry den^2;
    over GF(p), mod p).  Each row is packed once into one int (Kronecker
    substitution), ``packed[l][k] = sum(c << (w * t) for t, c in
    rows[l][k])``, so that a side is a few int multiply-adds and

        d = sum(c * packed[l][k] for l, c in rows[i][j])
            - sum(c * packed[i][m] for m, c in rows[j][k])
          = sum(s_t << (w * t)),   s_t = coordinate t of the difference.

    Each distinct row gets an id, keyed by its packed int (one to one,
    by the width argument below); ``rid[i][j]`` is that of e_i e_j.
    The left side depends only on (rid[i][j], k): its tuple over k is
    built once per id, on first use.  The right side depends only on
    (i, rid[j][k]): ``right_i`` holds it once per id, read through
    ``rid[j]`` for the tuple over k.  With D ids the sums cost O(n D)
    multiply-adds, the n^3 comparisons are tuple compares walked per k
    only where they differ, and the caches add n D + D packed values.

    Width: with M the largest |row entry|, each side's coordinate sums
    at most n products of two entries, so |s_t| <= 2 n M^2 < 2^(w-1).
    Such digits are unique: below the highest nonzero s_T, the lower ones
    sum to less than 2^(w-1) (2^(wT) - 1) / (2^w - 1) < 2^(wT) in
    absolute value, so d == 0 exactly when the sides agree.  That is the
    test over QQ.  Over GF(p), d plus 2^(w-1) in every slot has the
    digits s_t + 2^(w-1) in [0, 2^w); a nonzero d is read back digit by
    digit, each s_t compared mod p.
    """
    n, p, rows = A.dim, A.field.p, A.rows
    M = max((abs(c) for plane in rows for row in plane for _, c in row),
            default=0)
    w = (2 * n * M * M).bit_length() + 1
    packed = [[sum(c << (w * t) for t, c in row) for row in plane]
              for plane in rows]
    cols = list(zip(*packed))
    ids = {}
    rid = [[ids.setdefault(v, len(ids)) for v in plane] for plane in packed]
    distinct = list(dict(zip(chain(*packed), chain(*rows))).values())
    lefts = [None] * len(distinct)
    mask, half = (1 << w) - 1, 1 << (w - 1)
    bias = sum(half << (w * t) for t in range(n))
    bad = []
    for i in range(n):
        packed_i, rid_i = packed[i], rid[i]
        right_i = [sum(c * packed_i[m] for m, c in row) for row in distinct]
        for j in range(n):
            left = lefts[rid_i[j]]
            if left is None:
                left = lefts[rid_i[j]] = tuple(
                    sum(c * col[l] for l, c in distinct[rid_i[j]])
                    for col in cols)
            right = tuple(map(right_i.__getitem__, rid[j]))
            if left == right:
                continue
            for k in range(n):
                d = left[k] - right[k]
                if d and p is not None:
                    d += bias
                    d = any(((d >> (w * t) & mask) - half) % p
                            for t in range(n))
                if d:
                    bad.append((i, j, k))
                    if limit is not None and len(bad) >= limit:
                        return bad
    return bad


def opposite(A: FinAlgebra) -> FinAlgebra:
    """Same space, reversed multiplication."""
    n = A.dim
    rows = [[A.rows[j][i] for j in range(n)] for i in range(n)]
    return FinAlgebra.from_int_rows(A.field, A.den, rows, A.unit,
                                    name=f"{A.name}^op" if A.name else "")


def tensor_algebra(A: FinAlgebra, B: FinAlgebra) -> FinAlgebra:
    """Componentwise product algebra on the flat tensor coordinates."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    fld = A.field
    p = fld.p
    na, nb = A.dim, B.dim
    ra, rb = A.rows, B.rows
    rows = [[[(ka * nb + kb, ca * cb if p is None else ca * cb % p)
              for ka, ca in row_a for kb, cb in row_b]
             for row_a in ra[ia] for row_b in rb[ib]]
            for ia in range(na) for ib in range(nb)]
    den = A.den * B.den
    if den != 1:
        g = gcd(den, *(c for plane in rows for row in plane for _, c in row))
        if g != 1:
            den //= g
            rows = [[[(k, c // g) for k, c in row] for row in plane]
                    for plane in rows]
    unit = [fld.zero()] * (na * nb)
    for ia, ca in enumerate(A.unit):
        if ca == 0:
            continue
        for ib, cb in enumerate(B.unit):
            if cb != 0:
                unit[ia * nb + ib] = fld.mul(ca, cb)
    return FinAlgebra.from_int_rows(fld, den, rows, unit)


def slotwise_unit(field: Field, algebras) -> TensorElt:
    """1 (x) ... (x) 1, one unit per algebra."""
    out = TensorElt.scalar(field, field.one())
    for alg in algebras:
        out = out.tensor(TensorElt.from_vector(field, alg.unit))
    return out


def invert_mixed(t: TensorElt, algebras) -> TensorElt | None:
    """Two-sided inverse of ``t`` in the slotwise product of
    ``algebras``, or None when ``t`` is not invertible; found by a linear
    solve against the left-multiplication operator, or, when every
    algebra has a basis of orthogonal idempotents, as the coefficientwise
    reciprocal, there being one when no coefficient is zero."""
    field = t.field
    unit = slotwise_unit(field, algebras)
    if t == unit:
        return t
    dims = t.dims
    n = prod(dims)
    if all(alg.idempotents for alg in algebras):
        p = field.p
        inv = TensorElt(field, dims, {
            idx: Fraction(t.den, c) if p is None else pow(c, -1, p)
            for idx, c in zip(t.terms, t.num.values())})
        return inv if inv.slotwise_mul(t, algebras) == unit else None
    # the matrix of e_f -> t e_f in one pass over the terms of t, as
    # integers over one denominator: each term expands slot by slot into
    # (column f, row, coefficient) triples
    den = t.den
    for alg in algebras:
        den *= alg.den
    acc = [{} for _ in range(n)]
    for fa, ca in t.num.items():
        partial = [(0, 0, ca)]
        for d, alg, i in zip(dims, algebras, unflatten(dims, fa)):
            row = alg.rows[i]
            partial = [(f * d + j, r * d + k, c * mc)
                       for f, r, c in partial
                       for j in range(d) for k, mc in row[j]]
        for f, r, c in partial:
            acc[r][f] = acc[r].get(f, 0) + c
    # (acc / den) y = unit is acc z = unit.num with y = den z / unit.den
    sol = solve(field.p, acc, [{0: unit.num[f]} if f in unit.num else {}
                               for f in range(n)], n)
    if sol is None:
        return None
    D, z = sol
    inv = TensorElt.from_num(field, dims, {
        f: zr[0] * den for f, zr in enumerate(z) if zr}, D * unit.den)
    if inv.slotwise_mul(t, algebras) != unit:
        return None
    return inv


def invert_or_raise(t: TensorElt, algebras, what: str) -> TensorElt:
    """``invert_mixed(t, algebras)``, raising ValueError ``"{what} is not
    invertible"`` when ``t`` has no inverse."""
    inv = invert_mixed(t, algebras)
    if inv is None:
        raise ValueError(f"{what} is not invertible")
    return inv


def algebra_map_checks(label: str, f: LinMap, A: FinAlgebra, algebras,
                       anti: bool = False) -> list:
    """The checks that f: A -> B is an algebra map, or with ``anti`` an
    anti-algebra map: f(e_i e_j) = f(e_i) f(e_j), or f(e_j) f(e_i), on
    every basis pair (i, j) of A, failing as ``"{label}multiplicative:
    basis (i, j)"``, and f(1) = 1, failing as ``"{label}unital: f(1) !=
    1"``.  The two images are multiplied slot by slot in ``algebras``:
    one algebra per output slot of f, or one algebra on the flat output.
    The input slots of f split the flat basis of A."""
    field = A.field
    flat = not isinstance(algebras, (list, tuple))
    outs = [algebras] if flat else list(algebras)
    chain = [f]
    if f.in_dims != (A.dim,):
        chain.insert(0, reshape_map(field, (A.dim,), f.in_dims))
    if flat and f.out_dims != (algebras.dim,):
        chain.append(reshape_map(field, f.out_dims, (algebras.dim,)))

    def image(prog):
        for lm in chain:
            prog = prog.apply_at(0, lm)
        return prog

    # the images of e_j, computed once each, go after those of e_i (before
    # them with ``anti``), and slot s of one is multiplied by slot s of
    # the other
    k = len(outs)
    i, j = Var("i", A.dim), Var("j", A.dim)
    rhs = image(Program.basis(field, i)).insert(
        0 if anti else k, image(Program.basis(field, j)))
    for s, alg in enumerate(outs):
        rhs = rhs.mul_slots(s, k, alg)
    return [(f"{label}multiplicative",
             image(Program.basis(field, i, j).mul_slots(0, 1, A)), rhs,
             (i, j)),
            (f"{label}unital: f(1) != 1",
             image(Program(TensorElt.from_vector(field, A.unit))),
             Program(slotwise_unit(field, outs)), ())]


def mul_linmap(A: FinAlgebra) -> LinMap:
    """The multiplication of A as a LinMap (n, n) -> (n,)."""
    n = A.dim
    return LinMap(A.field, (n, n), (n,), A.den,
                  dict(enumerate(row for plane in A.rows for row in plane)))


def algebra_from_program(prog: Program, left, right, unit_tensor: TensorElt,
                         name: str = "") -> FinAlgebra:
    """The algebra on the flat space of ``prog.dims`` whose product of
    basis elements e_i e_j is the value of ``prog`` with the variables
    ``left`` at the multi-index of i and ``right`` at that of j; the rows
    are read off the column sink of ``linmap_from_program``, in flat
    indices."""
    dims = tuple(v.dim for v in left)
    if tuple(v.dim for v in right) != dims or prog.dims != dims:
        raise ValueError("program does not map pairs of basis elements "
                         "into their space")
    n = prod(dims)
    den, rows = _columns(prog, tuple(left) + tuple(right))
    return FinAlgebra.from_int_rows(
        prog.field, den, [rows[i * n:(i + 1) * n] for i in range(n)],
        unit_tensor.to_flat(), name=name)

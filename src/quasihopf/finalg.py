"""Finite-dimensional unital algebras by structure constants.

The multiplication is the dense 3-tensor mul[i][j] = dense row of
e_i e_j; sparse rows, and their integer form over one denominator, are
cached for the slot combinators and the exhaustive scans.  Tensor-power
algebras, element inversion and (anti)morphism checking live here.
"""

from __future__ import annotations

from math import lcm

from .fields import Field
from .linalg import Mat, prod, solve, unflatten
from .tensors import TensorElt


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

    def require(self, context: str = ""):
        if self.failures:
            head = f"{context}: " if context else ""
            raise VerificationError(head + "; ".join(self.failures[:10]))

    def __repr__(self):
        return "Report(pass)" if self.ok else f"Report({self.failures!r})"


class FinAlgebra:
    """Unital associative algebra given by structure constants."""

    __slots__ = ("field", "dim", "mul", "unit", "name", "_srows", "_irows")

    def __init__(self, field: Field, mul, unit, name: str = "",
                 check: bool = True):
        self.field = field
        self.dim = len(mul)
        self.mul = mul
        self.unit = list(unit)
        self.name = name
        self._srows = None
        self._irows = None
        if check:
            verify_associative_unital(self).require(name or "algebra")

    def __repr__(self):
        label = self.name or "FinAlgebra"
        return f"{label}(dim={self.dim} over {self.field})"

    def __eq__(self, other):
        return (isinstance(other, FinAlgebra) and self.field == other.field
                and self.dim == other.dim and self.mul == other.mul
                and self.unit == other.unit)

    def sparse_rows(self):
        """``rows[i][j]``: e_i e_j as [(k, c), ...], zeros skipped; cached."""
        if self._srows is None:
            self._srows = [
                [[(k, c) for k, c in enumerate(row) if c] for row in plane]
                for plane in self.mul]
        return self._srows

    def int_rows(self):
        """``(D, rows)``: the sparse rows as integers over one denominator,
        ``rows[i][j] = [(k, D * c), ...]``.  Over GF(p) D is 1 and the
        entries are residues, with zero residues skipped; cached."""
        if self._irows is None:
            rows = self.sparse_rows()
            p = self.field.p
            if p is None:
                D = lcm(*{c.denominator for plane in rows for row in plane
                          for _, c in row})
                rows = [[[(k, c.numerator * (D // c.denominator))
                          for k, c in row] for row in plane]
                        for plane in rows]
            else:
                D = 1
                rows = [[[(k, r) for k, c in row if (r := c % p)]
                         for row in plane] for plane in rows]
            self._irows = (D, rows)
        return self._irows

    def multiply(self, u, v):
        """Coordinates of the product of the coordinate vectors u, v."""
        acc = [0] * self.dim
        srows = self.sparse_rows()
        for i, cu in enumerate(u):
            if cu == 0:
                continue
            srow_i = srows[i]
            for j, cv in enumerate(v):
                if cv == 0:
                    continue
                cuv = cu * cv
                for k, c in srow_i[j]:
                    acc[k] = acc[k] + cuv * c
        p = self.field.p
        return acc if p is None else [x % p for x in acc]

    def element(self, coords) -> "AlgElement":
        return AlgElement(self, list(coords))

    def basis_element(self, i: int) -> "AlgElement":
        coords = [self.field.zero()] * self.dim
        coords[i] = self.field.one()
        return AlgElement(self, coords)

    def one(self) -> "AlgElement":
        return AlgElement(self, list(self.unit))

    def zero(self) -> "AlgElement":
        return AlgElement(self, [self.field.zero()] * self.dim)


class AlgElement:
    """An element of a FinAlgebra, as a flat coordinate vector."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: FinAlgebra, coords):
        if len(coords) != parent.dim:
            raise ValueError("coordinate length does not match algebra dim")
        self.parent = parent
        self.coords = coords

    def __eq__(self, other):
        return (isinstance(other, AlgElement) and self.parent == other.parent
                and self.coords == other.coords)

    def __repr__(self):
        return f"AlgElement({self.coords})"

    def __add__(self, other: "AlgElement") -> "AlgElement":
        fld = self.parent.field
        return AlgElement(self.parent,
                          [fld.add(a, b)
                           for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        fld = self.parent.field
        return AlgElement(self.parent,
                          [fld.sub(a, b)
                           for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other: "AlgElement") -> "AlgElement":
        return AlgElement(self.parent,
                          self.parent.multiply(self.coords, other.coords))

    def scale(self, c) -> "AlgElement":
        fld = self.parent.field
        return AlgElement(self.parent, [fld.mul(c, x) for x in self.coords])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_tensor(self, dims) -> TensorElt:
        return TensorElt.from_flat(self.parent.field, dims, self.coords)


def verify_associative_unital(A: FinAlgebra, limit: int | None = 10) -> Report:
    """Exhaustive unit-law and associativity scan over all basis triples."""
    rep = Report()
    n = A.dim
    for i in range(n):
        e = [A.field.zero()] * n
        e[i] = A.field.one()
        if A.multiply(A.unit, e) != e:
            rep.add("unit-left", f"1*e_{i} != e_{i}")
        if A.multiply(e, A.unit) != e:
            rep.add("unit-right", f"e_{i}*1 != e_{i}")
    for i, j, k in _assoc_defects(A, limit):
        rep.add("associativity", f"(e_{i} e_{j}) e_{k} != e_{i} (e_{j} e_{k})")
    return rep


def _assoc_defects(A: FinAlgebra, limit: int | None) -> list:
    """The basis triples (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
    in lexicographic order, stopping after ``limit`` of them.

    The scan runs on ``A.int_rows()``: over QQ both sides carry the
    factor D^2 and are compared as integers, over GF(p) they are compared
    mod p.  Both sides are summed over the sparse rows only, into one
    dict holding their difference.
    """
    n = A.dim
    p = A.field.p
    _, rows = A.int_rows()
    bad = []
    for i in range(n):
        rows_i = rows[i]
        for j in range(n):
            rows_ij = rows_i[j]
            rows_j = rows[j]
            for k in range(n):
                diff = {}
                for l, c in rows_ij:
                    for t, x in rows[l][k]:
                        diff[t] = diff.get(t, 0) + c * x
                for m, c in rows_j[k]:
                    for t, x in rows_i[m]:
                        diff[t] = diff.get(t, 0) - c * x
                if p is None:
                    defect = any(diff.values())
                else:
                    defect = any(v % p for v in diff.values())
                if defect:
                    bad.append((i, j, k))
                    if limit is not None and len(bad) >= limit:
                        return bad
    return bad


def opposite(A: FinAlgebra) -> FinAlgebra:
    """Same space, reversed multiplication (mul indices 0 and 1 swapped)."""
    n = A.dim
    mul = [[A.mul[j][i] for j in range(n)] for i in range(n)]
    return FinAlgebra(A.field, mul, A.unit,
                      name=f"{A.name}^op" if A.name else "", check=False)


def tensor_algebra(A: FinAlgebra, B: FinAlgebra,
                   op_flags=(False, False)) -> FinAlgebra:
    """Componentwise product algebra on the flat tensor coordinates.

    The product's sparse rows are formed from the factors' sparse rows
    and seed its cache; the dense table is filled from them."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    fld = A.field
    na, nb = A.dim, B.dim
    n = na * nb
    sa, sb = A.sparse_rows(), B.sparse_rows()
    if op_flags[0]:
        sa = [[sa[j][i] for j in range(na)] for i in range(na)]
    if op_flags[1]:
        sb = [[sb[j][i] for j in range(nb)] for i in range(nb)]
    srows = [[[(ka * nb + kb, c)
               for ka, ca in row_a for kb, cb in row_b
               if (c := fld.mul(ca, cb))]
              for row_a in sa[ia] for row_b in sb[ib]]
             for ia in range(na) for ib in range(nb)]
    zero = fld.zero()
    mul = []
    for plane in srows:
        dense_plane = []
        for row in plane:
            dense = [zero] * n
            for k, c in row:
                dense[k] = c
            dense_plane.append(dense)
        mul.append(dense_plane)
    unit = [zero] * n
    for ia, ca in enumerate(A.unit):
        if ca == 0:
            continue
        for ib, cb in enumerate(B.unit):
            if cb != 0:
                unit[ia * nb + ib] = fld.mul(ca, cb)
    out = FinAlgebra(fld, mul, unit, check=False)
    out._srows = srows
    return out


def tensor_power(A: FinAlgebra, k: int) -> FinAlgebra:
    out = A
    for _ in range(k - 1):
        out = tensor_algebra(out, A)
    return out


def invert_element(A: FinAlgebra, x: AlgElement):
    """Two-sided inverse of x, or None when x is not invertible."""
    n = A.dim
    cols = [A.multiply(x.coords, [A.field.one() if t == j else A.field.zero()
                                  for t in range(n)]) for j in range(n)]
    left_mult = Mat(A.field, [[cols[j][i] for j in range(n)] for i in range(n)])
    y = solve(left_mult, A.unit)
    if y is None:
        return None
    if A.multiply(y, x.coords) != list(A.unit):
        return None
    return AlgElement(A, y)


def check_algebra_map(f: Mat, A: FinAlgebra, B: FinAlgebra,
                      anti: bool = False, unital: bool = True) -> Report:
    """Verify f: A -> B is an (anti)algebra map on all basis pairs;
    reports bijectivity via rank."""
    rep = Report()
    if f.nrows != B.dim or f.ncols != A.dim:
        rep.add("shape", f"expected {B.dim}x{A.dim}, got {f.nrows}x{f.ncols}")
        return rep
    n = A.dim
    imgs = [f.vec([A.field.one() if t == i else A.field.zero()
                   for t in range(n)]) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = f.vec(A.mul[i][j])
            if anti:
                rhs = B.multiply(imgs[j], imgs[i])
            else:
                rhs = B.multiply(imgs[i], imgs[j])
            if lhs != rhs:
                rep.add("multiplicative", f"pair (e_{i}, e_{j})")
    if unital and f.vec(list(A.unit)) != list(B.unit):
        rep.add("unital", "f(1) != 1")
    if A.dim == B.dim and f.rank() != A.dim:
        rep.add("bijective", f"rank {f.rank()} < {A.dim}")
    return rep


# -- helpers for building algebras on tensor coordinate spaces -------------

def algebra_from_pair_fn(field: Field, dims, pair_fn, unit_tensor: TensorElt,
                         name: str = "", check: bool = True) -> FinAlgebra:
    """Fill a structure tensor by evaluating ``pair_fn(idx_i, idx_j)``
    (a TensorElt on ``dims``) on every basis pair of the flat space."""
    dims = tuple(dims)
    n = prod(dims)
    mul = []
    for fi in range(n):
        idx_i = unflatten(dims, fi)
        plane = []
        for fj in range(n):
            idx_j = unflatten(dims, fj)
            res = pair_fn(idx_i, idx_j)
            if res.dims != dims:
                raise ValueError("pair_fn returned wrong slot shape")
            plane.append(res.to_flat())
        mul.append(plane)
    return FinAlgebra(field, mul, unit_tensor.to_flat(), name=name, check=check)

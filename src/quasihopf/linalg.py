"""Exact linear maps between tensor products, one integer elimination,
and the flat-index conventions every other module relies on.

Flat indexing is row-major with the left tensor factor most significant:
the basis tensor e_{i1} (x) ... (x) e_{ik} of V1 (x) ... (x) Vk has flat
index sum_j i_j * prod_{l>j} dim(V_l).  A linear map V1 (x) ... (x) Vk
-> W1 (x) ... (x) Wm is stored as integer sparse columns over one
denominator; rank, inverse and linear solves all go through one
fraction-free row reduction on sparse integer rows, ``{column: int}``
dicts holding only nonzero entries.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .fields import Field


# -- flat indexing --------------------------------------------------------

def flat_index(dims, idx) -> int:
    f = 0
    for d, i in zip(dims, idx):
        f = f * d + i
    return f


def unflatten(dims, flat: int):
    idx = []
    for d in reversed(dims):
        idx.append(flat % d)
        flat //= d
    return tuple(reversed(idx))


def int_entries(field: Field, lists):
    """``(D, lists)`` with every scalar ``c`` of the ``[(key, c), ...]``
    lists replaced by the integer ``D * c``.  Over QQ, D is the lcm of
    the denominators and the lists must skip zeros; over GF(p), D is 1
    and the entries become residues, with zero residues dropped."""
    p = field.p
    if p is not None:
        return 1, [[(key, r) for key, c in lst if (r := c % p)]
                   for lst in lists]
    D = lcm(*(c.denominator for lst in lists for _, c in lst))
    return D, [[(key, c.numerator * (D // c.denominator)) for key, c in lst]
               for lst in lists]


# -- elimination -----------------------------------------------------------

def _eliminate(p, rows, m: int):
    """Reduce the sparse integer ``rows``, ``{column: int}`` dicts without
    zero entries, in place to reduced echelon form in their first ``m``
    columns (later columns are carried along); return the pivot columns.

    Each column's pivot is the unused row nonzero there with the fewest
    entries, which keeps fill-in low.  Every other row r nonzero there
    becomes (d/g) r - (e/g) P, where d and e are the entries of the pivot
    row P and of r in that column and g = gcd(d, e).  Over QQ the row is
    then divided by the gcd of its entries, so no Fractions arise; over
    GF(p) the entries are residues, P is scaled to 1 and the row is
    reduced mod p.
    """
    pivots = []
    for col in range(m):
        top = len(pivots)
        piv = min((r for r in range(top, len(rows)) if col in rows[r]),
                  key=lambda r: len(rows[r]), default=None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        prow = rows[top]
        d = prow[col]
        if p is not None and d != 1:
            s = pow(d, -1, p)
            prow = rows[top] = {k: x * s % p for k, x in prow.items()}
            d = 1
        for r, row in enumerate(rows):
            e = row.get(col)
            if e is None or r == top:
                continue
            g = gcd(d, e)
            a, b = d // g, e // g
            new = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
            for k, y in prow.items():
                v = new.get(k, 0) - b * y
                if p is not None:
                    v %= p
                if v:
                    new[k] = v
                else:
                    del new[k]
            if p is None and (c := gcd(*new.values())) > 1:
                new = {k: x // c for k, x in new.items()}
            rows[r] = new
        pivots.append(col)
    return pivots


def solve(p, a, b, m: int):
    """Exact solution X of A X = B over QQ (``p`` None) or GF(p), for the
    sparse integer rows ``a`` (in ``m`` unknowns) and ``b`` (one row per
    row of a): ``(D, x)`` with X = x / D, x being m sparse rows, in lowest
    terms with D > 0 (over GF(p), D is 1 and x holds residues).  None when
    a column of B is not in the column span of A.  Free variables are set
    to zero, so the choice of pivot rows does not show.
    """
    rows = [{**ra, **{m + k: x for k, x in rb.items()}}
            for ra, rb in zip(a, b)]
    rows = [{k: v for k, x in row.items() if (v := x if p is None else x % p)}
            for row in rows]
    pivots = _eliminate(p, rows, m)
    if any(rows[len(pivots):]):
        return None
    # over GF(p) every pivot is 1, and so is D
    D = lcm(*(row[col] for row, col in zip(rows, pivots)))
    x = [{} for _ in range(m)]
    for row, col in zip(rows, pivots):
        s = D // row[col]
        x[col] = {k - m: c * s for k, c in row.items() if k >= m}
    g = gcd(D, *(c for xr in x for c in xr.values()))
    return D // g, [{k: c // g for k, c in xr.items()} for xr in x]


# -- linear maps -----------------------------------------------------------

class LinMap:
    """A linear map V1 (x) ... (x) Vk -> W1 (x) ... (x) Wm.

    ``in_dims``/``out_dims`` are tuples of factor dimensions; maps with
    empty ``out_dims`` are functionals.  The map is stored as integer
    sparse columns over one denominator ``den``, keyed by row-major
    offsets: ``cols[f]`` lists the image of the input basis tensor at
    offset ``f`` as ``[(output offset, den * c), ...]`` in increasing
    order, zeros skipped.  The form is canonical: over QQ, ``den`` is the
    lcm of the entries' denominators; over GF(p), ``den`` is 1 and the
    entries are nonzero residues.  The columns are never changed after
    construction, so two flags are read off them once: ``disjoint``, no
    two columns share an output, and ``unit``, every entry is 1 over
    ``den`` 1.  A map with both re-keys the terms it acts on.
    """

    __slots__ = ("field", "in_dims", "out_dims", "den", "cols", "disjoint",
                 "unit")

    def __init__(self, field: Field, in_dims, out_dims, den: int, cols):
        """``cols`` holds one column per input basis tensor, already in
        canonical form."""
        self.field = field
        self.in_dims = tuple(in_dims)
        self.out_dims = tuple(out_dims)
        if len(cols) != prod(self.in_dims):
            raise ValueError("one column per input basis tensor expected")
        self.den = den
        self.cols = cols
        outs = [out for col in cols.values() for out, _ in col]
        self.disjoint = len(set(outs)) == len(outs)
        self.unit = den == 1 and all(
            c == 1 for col in cols.values() for _, c in col)

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.field == other.field
                and self.in_dims == other.in_dims
                and self.out_dims == other.out_dims
                and self.den == other.den and self.cols == other.cols)

    def __repr__(self):
        return f"LinMap({self.in_dims} -> {self.out_dims})"

    def is_identity(self) -> bool:
        return (self.in_dims == self.out_dims and self.den == 1
                and all(col == [(f, 1)] for f, col in self.cols.items()))

    def rank(self) -> int:
        """The rank, read off M^T: its sparse rows are the stored columns."""
        return len(_eliminate(self.field.p, [
            dict(col) for col in self.cols.values()], prod(self.out_dims)))

    def inverse(self) -> "LinMap | None":
        """The inverse map, or None when the map is not invertible."""
        n = prod(self.in_dims)
        if prod(self.out_dims) != n:
            return None
        # M^T Y = I with M = A / den is A^T Y' = I with Y = den Y', and
        # row j of Y is column j of M^-1
        sol = solve(self.field.p, [dict(self.cols[j]) for j in range(n)],
                    [{j: 1} for j in range(n)], n)
        if sol is None:
            return None
        D, y = sol
        g = gcd(D, self.den)
        D, scale = D // g, self.den // g
        cols = {j: [(i, c * scale) for i, c in sorted(yr.items())]
                for j, yr in enumerate(y)}
        return LinMap(self.field, self.out_dims, self.in_dims, D, cols)


def linmap_from_columns(field: Field, in_dims, out_dims, cols) -> LinMap:
    """The map whose image of the input basis tensor at multi-index
    ``idx`` is ``cols.get(idx)``, an {output multi-index: field scalar}
    dict (None for zero)."""
    in_dims, out_dims = tuple(in_dims), tuple(out_dims)
    den, lists = int_entries(field, [sorted(
        (flat_index(out_dims, out), c)
        for out, c in (cols.get(unflatten(in_dims, f)) or {}).items() if c)
        for f in range(prod(in_dims))])
    return LinMap(field, in_dims, out_dims, den, dict(enumerate(lists)))


def reshape_map(field: Field, in_dims, out_dims) -> LinMap:
    """The identity on flat coordinates from the slots ``in_dims`` to the
    slots ``out_dims``: it merges runs of slots or splits a slot."""
    in_dims, out_dims = tuple(in_dims), tuple(out_dims)
    n = prod(in_dims)
    if prod(out_dims) != n:
        raise ValueError("slot dimensions differ in total")
    return LinMap(field, in_dims, out_dims, 1, {f: [(f, 1)] for f in range(n)})

"""Exact linear maps between tensor products, one integer elimination,
and the flat-index conventions every other module relies on.

Flat indexing is row-major with the left tensor factor most significant:
the basis tensor e_{i1} (x) ... (x) e_{ik} of V1 (x) ... (x) Vk has flat
index sum_j i_j * prod_{l>j} dim(V_l).  A linear map V1 (x) ... (x) Vk
-> W1 (x) ... (x) Wm is stored as integer sparse columns over one
denominator; rank, inverse and linear solves all go through one
fraction-free row reduction.
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
    """Reduce the integer ``rows`` in place to reduced echelon form in
    their first ``m`` columns (later columns are carried along) and
    return the pivot columns, in order.

    Over GF(p) the entries must be residues; each pivot row is scaled to
    1 and subtracted mod p.  Over QQ a row r is combined with the pivot
    row P as (d/g) r - (e/g) P, where d and e are their entries in the
    pivot column and g = gcd(d, e), and is then divided by the gcd of its
    entries, so no Fractions arise.  A row whose entry in the pivot
    column is zero is left as it is.
    """
    pivots = []
    for col in range(m):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        prow = rows[top]
        d = prow[col]
        if p is not None and d != 1:
            s = pow(d, -1, p)
            prow = rows[top] = [x * s % p for x in prow]
        for r, row in enumerate(rows):
            e = row[col]
            if not e or r == top:
                continue
            if p is not None:
                rows[r] = [(x - e * y) % p for x, y in zip(row, prow)]
                continue
            g = gcd(d, e)
            a, b = d // g, e // g
            new = [a * x - b * y for x, y in zip(row, prow)]
            c = gcd(*new)
            rows[r] = [x // c for x in new] if c > 1 else new
        pivots.append(col)
    return pivots


def solve(p, a, b):
    """Exact solution X of A X = B over QQ (``p`` None) or GF(p), for
    integer rows ``a`` (n x m) and ``b`` (n x k, one row per row of a):
    ``(D, x)`` with X = x / D, x being m rows of k integers, in lowest
    terms with D > 0 (over GF(p), D is 1 and x holds residues).  None when
    a column of B is not in the column span of A.  Free variables are
    set to zero.
    """
    m = len(a[0])
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    if p is not None:
        rows = [[x % p for x in row] for row in rows]
    pivots = _eliminate(p, rows, m)
    if any(any(row[m:]) for row in rows[len(pivots):]):
        return None
    x = [[0] * len(b[0]) for _ in range(m)]
    if p is not None:
        for row, col in zip(rows, pivots):
            x[col] = row[m:]
        return 1, x
    D = lcm(*(row[col] for row, col in zip(rows, pivots)))
    for row, col in zip(rows, pivots):
        s = D // row[col]
        x[col] = [c * s for c in row[m:]]
    g = gcd(D, *(c for xr in x for c in xr))
    if g > 1:
        D //= g
        x = [[c // g for c in xr] for xr in x]
    return D, x


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

    def _int_rows(self):
        """The dense integer matrix den * M, one row per output."""
        rows = [[0] * prod(self.in_dims) for _ in range(prod(self.out_dims))]
        for j, col in self.cols.items():
            for out, c in col:
                rows[out][j] = c
        return rows

    def rank(self) -> int:
        return len(_eliminate(self.field.p, self._int_rows(),
                              prod(self.in_dims)))

    def inverse(self) -> "LinMap | None":
        """The inverse map, or None when the map is not invertible."""
        n = prod(self.in_dims)
        if prod(self.out_dims) != n:
            return None
        # M X = I with M = A / den is A X' = I with X = den X'
        sol = solve(self.field.p, self._int_rows(),
                    [[int(i == j) for j in range(n)] for i in range(n)])
        if sol is None:
            return None
        D, x = sol
        g = gcd(D, self.den)
        D, scale = D // g, self.den // g
        # column j of X is the image of e_j, listed by output row i
        cols = {j: [(i, x[i][j] * scale) for i in range(n) if x[i][j]]
                for j in range(n)}
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

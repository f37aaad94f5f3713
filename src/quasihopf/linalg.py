"""Dense exact vectors and matrices over a Field, plus the flat-index
conventions every other module relies on.

Flat indexing is row-major with the left tensor factor most significant:
the basis tensor e_{i1} (x) ... (x) e_{ik} of V1 (x) ... (x) Vk has flat
index sum_j i_j * prod_{l>j} dim(V_l).  With this convention a linear
map V1 (x) ... (x) Vk -> W1 (x) ... (x) Wm is an (prod dim W) x
(prod dim V) matrix, and Kronecker products compose factorwise.
"""

from __future__ import annotations

from math import lcm, prod

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


# -- matrices --------------------------------------------------------------

class Mat:
    """Dense row-major matrix of exact scalars."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_cols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        if self.nrows:
            self.ncols = len(rows[0])
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols
        self._cols = None

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        one, zero = field.one(), field.zero()
        return Mat(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> "Mat":
        z = field.zero()
        return Mat(field, [[z] * ncols for _ in range(nrows)], ncols)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):  # pragma: no cover - matrices are not dict keys
        return NotImplemented

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.field})"

    def mul(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        mod = self.field.p
        k = other.ncols
        out = []
        for arow in self.rows:
            acc = [0] * k
            for c, brow in zip(arow, other.rows):
                if c == 0:
                    continue
                for j, x in enumerate(brow):
                    if x != 0:
                        acc[j] = acc[j] + c * x
            if mod is not None:
                acc = [x % mod for x in acc]
            out.append(acc)
        return Mat(self.field, out, k)

    def vec(self, v):
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        mod = self.field.p
        out = []
        for row in self.rows:
            s = 0
            for c, x in zip(row, v):
                if c != 0 and x != 0:
                    s = s + c * x
            out.append(s if mod is None else s % mod)
        return out

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product: block (i, j) is other scaled by self[i][j]."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        mod = self.field.p
        bk = other.ncols
        out = []
        for arow in self.rows:
            for brow in other.rows:
                row = []
                for c in arow:
                    if c == 0:
                        row.extend([0] * bk)
                    elif mod is None:
                        row.extend([c * x for x in brow])
                    else:
                        row.extend([(c * x) % mod for x in brow])
                out.append(row)
        return Mat(self.field, out, self.ncols * other.ncols)

    def transpose(self) -> "Mat":
        return Mat(self.field,
                   [[self.rows[i][j] for i in range(self.nrows)]
                    for j in range(self.ncols)], self.nrows)

    def sparse_col(self, j: int):
        """Column j as [(row, scalar), ...] with zeros skipped; cached."""
        if self._cols is None:
            cols = [[] for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for jj, c in enumerate(row):
                    if c != 0:
                        cols[jj].append((i, c))
            self._cols = cols
        return self._cols[j]

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        one, zero = self.field.one(), self.field.zero()
        return all(self.rows[i][j] == (one if i == j else zero)
                   for i in range(self.nrows) for j in range(self.ncols))

    def inv(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices are invertible")
        n = self.nrows
        fld = self.field
        a = [list(r) for r in self.rows]
        b = [list(r) for r in Mat.identity(fld, n).rows]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                b[col], b[piv] = b[piv], b[col]
            inv_p = fld.inv(a[col][col])
            a[col] = [fld.mul(x, inv_p) for x in a[col]]
            b[col] = [fld.mul(x, inv_p) for x in b[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    c = a[r][col]
                    a[r] = [fld.sub(x, fld.mul(c, y)) for x, y in zip(a[r], a[col])]
                    b[r] = [fld.sub(x, fld.mul(c, y)) for x, y in zip(b[r], b[col])]
        return Mat(fld, b)

    def rank(self) -> int:
        fld = self.field
        a = [list(r) for r in self.rows]
        rank = 0
        for col in range(self.ncols):
            piv = next((r for r in range(rank, self.nrows) if a[r][col] != 0), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            inv_p = fld.inv(a[rank][col])
            a[rank] = [fld.mul(x, inv_p) for x in a[rank]]
            for r in range(self.nrows):
                if r != rank and a[r][col] != 0:
                    c = a[r][col]
                    a[r] = [fld.sub(x, fld.mul(c, y)) for x, y in zip(a[r], a[rank])]
            rank += 1
        return rank


def solve(A: Mat, b):
    """Exact solution x of A x = b, or None when the system is inconsistent.

    For underdetermined consistent systems an arbitrary solution (free
    variables set to zero) is returned.
    """
    if len(b) != A.nrows:
        raise ValueError("dimension mismatch")
    fld = A.field
    rows = [list(r) + [bv] for r, bv in zip(A.rows, b)]
    n, m = A.nrows, A.ncols
    pivots = []
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv_p = fld.inv(rows[rank][col])
        rows[rank] = [fld.mul(x, inv_p) for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [fld.sub(x, fld.mul(c, y))
                           for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, n):
        if rows[r][m] != 0:
            return None
    x = [fld.zero()] * m
    for r, col in enumerate(pivots):
        x[col] = rows[r][m]
    return x


class LinMap:
    """A matrix tagged with tensor-factor shapes on both sides.

    ``in_dims``/``out_dims`` are tuples of factor dimensions; the matrix
    is (prod out_dims) x (prod in_dims) under flat indexing.  Maps with
    empty ``out_dims`` are functionals (one output coordinate).
    """

    __slots__ = ("mat", "in_dims", "out_dims", "_plan")

    def __init__(self, mat: Mat, in_dims, out_dims):
        self.mat = mat
        self.in_dims = tuple(in_dims)
        self.out_dims = tuple(out_dims)
        if mat.ncols != prod(self.in_dims) or mat.nrows != prod(self.out_dims):
            raise ValueError("matrix shape does not match factor dims")
        self._plan = None

    def int_plan(self):
        """``(D, {input index: [(output index, D * entry), ...]})``: the
        nonzero entries of each column as integers over one denominator
        D (1 over GF(p), where they are residues); cached."""
        if self._plan is None:
            cols = [[] for _ in range(self.mat.ncols)]
            for r, row in enumerate(self.mat.rows):
                out = unflatten(self.out_dims, r)
                for j, c in enumerate(row):
                    if c:
                        cols[j].append((out, c))
            D, cols = int_entries(self.mat.field, cols)
            self._plan = (D, {unflatten(self.in_dims, j): col
                              for j, col in enumerate(cols)})
        return self._plan

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.in_dims == other.in_dims
                and self.out_dims == other.out_dims and self.mat == other.mat)

    def __repr__(self):
        return f"LinMap({self.in_dims} -> {self.out_dims})"

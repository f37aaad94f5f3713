"""Pure-Python kernels for the hot exact-arithmetic loops.

All functions are field-agnostic: scalars are Fractions or ints, added
and multiplied with the native operators; ``mod`` is ``None`` over the
rationals and the prime modulus over a prime field (reduction is applied
to every emitted scalar).  The compiled module ``_fast`` mirrors this
API exactly.
"""

from __future__ import annotations

BACKEND = "pure"


def mat_mul(a, b, mod=None):
    """Row-major matrix product with zero-skip on the left factor."""
    n = len(a)
    m = len(b)
    k = len(b[0]) if m else 0
    out = []
    for i in range(n):
        arow = a[i]
        acc = [0] * k
        for t in range(m):
            c = arow[t]
            if c == 0:
                continue
            brow = b[t]
            for j in range(k):
                x = brow[j]
                if x != 0:
                    acc[j] = acc[j] + c * x
        if mod is not None:
            acc = [v % mod for v in acc]
        out.append(acc)
    return out


def mat_vec(a, v, mod=None):
    out = []
    for row in a:
        s = 0
        for c, x in zip(row, v):
            if c != 0 and x != 0:
                s = s + c * x
        out.append(s if mod is None else s % mod)
    return out


def kron(a, b, mod=None):
    """Kronecker product; block (i,k) scaled by a[i][j] at column block j."""
    bn = len(b)
    bk = len(b[0]) if bn else 0
    out = []
    for arow in a:
        for bi in range(bn):
            brow = b[bi]
            row = []
            for c in arow:
                if c == 0:
                    row.extend([0] * bk)
                else:
                    if mod is None:
                        row.extend([c * x for x in brow])
                    else:
                        row.extend([(c * x) % mod for x in brow])
            out.append(row)
    return out


def bilinear(srows, u, v, n, mod=None):
    """Coordinates of the algebra product of coordinate vectors u, v.

    ``srows[i][j]`` is the sparse row [(k, c), ...] of the structure
    tensor: e_i e_j = sum_k c e_k.
    """
    acc = [0] * n
    for i in range(n):
        cu = u[i]
        if cu == 0:
            continue
        srow_i = srows[i]
        for j in range(n):
            cv = v[j]
            if cv == 0:
                continue
            cuv = cu * cv
            for k, c in srow_i[j]:
                acc[k] = acc[k] + cuv * c
    if mod is not None:
        acc = [x % mod for x in acc]
    return acc


# cython: language_level=3
"""Compiled kernels; mirrors kernels.pure exactly (see its docstring)."""

BACKEND = "fast"


def mat_mul(a, b, mod=None):
    cdef Py_ssize_t n = len(a)
    cdef Py_ssize_t m = len(b)
    cdef Py_ssize_t k = len(b[0]) if m else 0
    cdef Py_ssize_t i, t, j
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
    cdef Py_ssize_t i, j, n = len(a)
    cdef Py_ssize_t m
    out = []
    for i in range(n):
        row = a[i]
        m = len(row)
        s = 0
        for j in range(m):
            c = row[j]
            x = v[j]
            if c != 0 and x != 0:
                s = s + c * x
        out.append(s if mod is None else s % mod)
    return out


def kron(a, b, mod=None):
    cdef Py_ssize_t bn = len(b)
    cdef Py_ssize_t bk = len(b[0]) if bn else 0
    cdef Py_ssize_t bi, j
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
    cdef Py_ssize_t i, j, nn = n
    cdef Py_ssize_t k
    acc = [0] * nn
    for i in range(nn):
        cu = u[i]
        if cu == 0:
            continue
        srow_i = srows[i]
        for j in range(nn):
            cv = v[j]
            if cv == 0:
                continue
            cuv = cu * cv
            for pair in srow_i[j]:
                k = pair[0]
                acc[k] = acc[k] + cuv * pair[1]
    if mod is not None:
        acc = [x % mod for x in acc]
    return acc


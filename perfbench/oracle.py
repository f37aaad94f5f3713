"""Known answers for the benchmark's checks.

Nothing here calls a verifier of the library under test: digests are
SHA-256 over a canonical text of a structure, corrupted tables are
labelled by a dense reference scan written here, and hostile documents
are built from plain JSON.
"""

from __future__ import annotations

import hashlib
import json
import os


def table_bytes(alg) -> bytes:
    """Canonical text of a structure table: its mul tensor and unit."""
    fmt = alg.field.fmt
    return json.dumps({"mul": [[[fmt(c) for c in row] for row in plane]
                               for plane in alg.mul],
                       "unit": [fmt(c) for c in alg.unit]},
                      separators=(",", ":")).encode()


def tensor_bytes(t) -> bytes:
    """Canonical text of a sparse tensor: dims and sorted nonzero terms."""
    fmt = t.field.fmt
    return json.dumps({"dims": list(t.dims),
                       "terms": [[list(idx), fmt(c)]
                                 for idx, c in sorted(t.terms.items())]},
                      separators=(",", ":")).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


# -- dense reference scan ------------------------------------------------

def reference_ok(field, mul, unit) -> bool:
    """Unit laws and associativity on every basis triple, computed densely.

    ``mul[i][j]`` is the coordinate vector of e_i e_j.  Over a prime
    field the comparison is taken mod p.
    """
    n = len(mul)
    p = field.p

    def same(u, v):
        return all((a - b) % p == 0 for a, b in zip(u, v)) if p \
            else list(u) == list(v)

    def product(u, v):
        acc = [0] * n
        for i, cu in enumerate(u):
            if cu == 0:
                continue
            for j, cv in enumerate(v):
                if cv == 0:
                    continue
                cuv = cu * cv
                for k, c in enumerate(mul[i][j]):
                    if c != 0:
                        acc[k] += cuv * c
        return acc

    for i in range(n):
        e = [0] * n
        e[i] = 1
        if not same(product(unit, e), e) or not same(product(e, unit), e):
            return False
    for i in range(n):
        for j in range(n):
            eij = mul[i][j]
            for k in range(n):
                ek = [0] * n
                ek[k] = 1
                ei = [0] * n
                ei[i] = 1
                if not same(product(eij, ek), product(ei, mul[j][k])):
                    return False
    return True


def corrupt_table(field, mul, unit, rng, entries: int = 2):
    """A deep copy of ``mul`` with ``entries`` seeded entries shifted by a
    seeded nonzero amount; returns the copy and the positions touched.
    Products of basis elements in the unit's support are left alone, so
    the unit laws still hold and only the associativity scan can tell."""
    n = len(mul)
    free = [i for i in range(n) if unit[i] == 0]
    out = [[list(row) for row in plane] for plane in mul]
    touched = []
    while len(touched) < entries:
        i, j, k = rng.choice(free), rng.choice(free), rng.randrange(n)
        if any((i, j, k) == t[:3] for t in touched):
            continue
        delta = rng.choice([v for v in range(-3, 4) if v != 0])
        if field.p:
            out[i][j][k] = (out[i][j][k] + delta) % field.p
        else:
            out[i][j][k] = out[i][j][k] + delta
        touched.append((i, j, k, delta))
    return out, touched


# -- hostile documents ----------------------------------------------------

HUGE_PRIME = 10 ** 19 + 51     # a 20-digit prime


def hostile_documents(module_doc: dict, out_dir: str) -> dict:
    """Write the four hostile documents derived from a valid module-algebra
    document; return {name: path}.  Each must end in exit 2."""
    paths = {}

    def write(name, text):
        path = os.path.join(out_dir, f"hostile-{name}.json")
        with open(path, "w") as fh:
            fh.write(text)
        paths[name] = path

    # a parent that names the file itself
    doc = dict(module_doc, parent="hostile-cyclic-parent.json")
    write("cyclic-parent", json.dumps(doc))
    # a field whose modulus is a 20-digit prime
    write("huge-prime", json.dumps(dict(module_doc["parent"],
                                        field={"Fp": HUGE_PRIME})))
    # a declared dimension of one million
    write("huge-dim", json.dumps(dict(module_doc["parent"], dim=1000000)))
    # a structure array cut short
    parent = dict(module_doc["parent"])
    parent["mul"] = parent["mul"][:-1]
    write("truncated-array", json.dumps(parent))
    return paths

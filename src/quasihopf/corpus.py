"""Builtin verified example structures.

Four families:

* ``QZ2``        - the rational group algebra of Z/2 (ordinary Hopf)
* ``H2``         - the same algebra with the nontrivial associator
                   1x1x1 - 2 pxpxp, p = (1-g)/2, alpha = g
* ``Sweedler4``  - the 4-dimensional Hopf algebra with S^2 != id
* ``FpZn(p,n)``  - F_p[Z/n] on idempotents, twisted by the cocycle
                   omega(i,j,k) = zeta^(i*floor((j+k)/n)), p = 1 mod n

Every builder is deterministic; tests verify each entry against the
exhaustive axiom checkers.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .fields import GF, QQ, Field
from .finalg import FinAlgebra
from .linalg import linmap_from_columns
from .quasihopf import QuasiHopfAlgebra
from .tensors import Program, TensorElt, Var, linmap_from_program

# The largest dimension the command line builds: of a constructed product,
# and of H in a named FpZn(p, n) entry (whose associator has n^3 terms).
MAX_DIM = 64


def _algebra_from_table(field: Field, table, unit, name: str) -> FinAlgebra:
    """table[i][j] is a dict {k: coeff} for e_i e_j; ``unit`` is the
    coordinate vector of 1."""
    n = len(table)
    zero = field.zero()
    mul = [[[table[i][j].get(k, zero) for k in range(n)] for j in range(n)]
           for i in range(n)]
    return FinAlgebra(field, mul, unit, name=name, check=False)


def _maps_from_tables(field: Field, n: int, coprod, counit_vals, antipode):
    """Assemble Delta, eps, S from per-basis dictionaries."""
    Delta = linmap_from_columns(field, (n,), (n, n),
                                {(i,): col for i, col in enumerate(coprod)})
    counit = linmap_from_columns(field, (n,), (), {
        (i,): {(): c} for i, c in enumerate(counit_vals)})
    S = linmap_from_columns(field, (n,), (n,), {
        (i,): {(k,): c for k, c in col.items()}
        for i, col in enumerate(antipode)})
    return Delta, counit, S


# -- Z/2 group algebra, plain and twisted -----------------------------------

def _z2_ingredients():
    field = QQ
    one = field.one()
    table = [[{(i + j) % 2: one} for j in range(2)] for i in range(2)]
    coprod = [{(i, i): one} for i in range(2)]
    counit_vals = [one, one]
    antipode = [{i: one} for i in range(2)]
    return field, table, coprod, counit_vals, antipode


def group_algebra_z2() -> QuasiHopfAlgebra:
    field, table, coprod, counit_vals, antipode = _z2_ingredients()
    H = _algebra_from_table(field, table, [field.one(), field.zero()], "QZ2")
    Delta, counit, S = _maps_from_tables(field, 2, coprod, counit_vals,
                                         antipode)
    one = field.one()
    Phi = TensorElt.basis(field, (2, 2, 2), (0, 0, 0))
    unit1 = TensorElt.basis(field, (2,), (0,))
    return QuasiHopfAlgebra(H, Delta, counit, Phi, S, unit1, unit1,
                            PhiInv=Phi, SInv=S, name="QZ2")


def twisted_z2() -> QuasiHopfAlgebra:
    """Z/2 group algebra with associator 1x1x1 - 2 pxpxp, p = (1-g)/2."""
    field, table, coprod, counit_vals, antipode = _z2_ingredients()
    H = _algebra_from_table(field, table, [field.one(), field.zero()], "H2")
    Delta, counit, S = _maps_from_tables(field, 2, coprod, counit_vals,
                                         antipode)
    quarter = Fraction(1, 4)
    terms = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                sign = -1 if (i + j + k) % 2 else 1
                terms[(i, j, k)] = -quarter * sign
    terms[(0, 0, 0)] += field.one()
    Phi = TensorElt(field, (2, 2, 2), terms)
    alpha = TensorElt.basis(field, (2,), (1,))
    beta = TensorElt.basis(field, (2,), (0,))
    return QuasiHopfAlgebra(H, Delta, counit, Phi, S, alpha, beta,
                            PhiInv=Phi, SInv=S, name="H2")


# -- the 4-dimensional Hopf algebra with S^2 != id ---------------------------

def sweedler4() -> QuasiHopfAlgebra:
    """Basis g^a x^b indexed 2a+b: (1, x, g, gx); g^2 = 1, x^2 = 0,
    xg = -gx; Delta(g) = gxg, Delta(x) = xx1 + gxx."""
    field = QQ
    one = field.one()

    def bi(a, b):
        return 2 * a + b

    table = [[{} for _ in range(4)] for _ in range(4)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if b + d >= 2:
                        continue
                    sign = -one if (b and c) else one
                    table[bi(a, b)][bi(c, d)][bi((a + c) % 2, b + d)] = sign
    coprod = [
        {(bi(0, 0), bi(0, 0)): one},                          # 1
        {(bi(0, 1), bi(0, 0)): one, (bi(1, 0), bi(0, 1)): one},  # x
        {(bi(1, 0), bi(1, 0)): one},                          # g
        {(bi(1, 1), bi(1, 0)): one, (bi(0, 0), bi(1, 1)): one},  # gx
    ]
    counit_vals = [one, field.zero(), one, field.zero()]
    antipode = [
        {bi(0, 0): one},      # S(1) = 1
        {bi(1, 1): -one},     # S(x) = -gx
        {bi(1, 0): one},      # S(g) = g
        {bi(0, 1): one},      # S(gx) = x
    ]
    H = _algebra_from_table(field, table, [one] + [field.zero()] * 3,
                            "Sweedler4")
    Delta, counit, S = _maps_from_tables(field, 4, coprod, counit_vals,
                                         antipode)
    Phi = TensorElt.basis(field, (4, 4, 4), (0, 0, 0))
    unit1 = TensorElt.basis(field, (4,), (0,))
    return QuasiHopfAlgebra(H, Delta, counit, Phi, S, unit1, unit1,
                            PhiInv=Phi, name="Sweedler4")


# -- cyclic group algebras over F_p with cocycle associator -------------------

def _root_of_unity(p: int, n: int) -> int:
    """An element of multiplicative order exactly n in F_p."""
    for g in range(2, p):
        z = pow(g, (p - 1) // n, p)
        if z == 1:
            continue
        order_n = True
        for d in range(1, n):
            if n % d == 0 and pow(z, d, p) == 1:
                order_n = False
                break
        if order_n:
            return z
    raise ValueError(f"no element of order {n} mod {p}")


def cyclic_with_cocycle(p: int, n: int) -> QuasiHopfAlgebra:
    """F_p[Z/n] on the idempotent basis 1_i (so 1_i 1_j = [i=j] 1_i,
    Delta(1_i) = sum over j+k=i), twisted by the cocycle
    omega(i,j,k) = zeta^(i*floor((j+k)/n))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    field = GF(p)
    if (p - 1) % n != 0:
        raise ValueError(f"need p = 1 mod n, got p={p}, n={n}")
    zeta = _root_of_unity(p, n)
    one = field.one()
    table = [[{i: one} if i == j else {} for j in range(n)]
             for i in range(n)]
    coprod = [{(j, (i - j) % n): one for j in range(n)} for i in range(n)]
    counit_vals = [one if i == 0 else field.zero() for i in range(n)]
    antipode = [{(-i) % n: one} for i in range(n)]
    H = _algebra_from_table(field, table, [one] * n, f"FpZn({p},{n})")
    Delta, counit, S = _maps_from_tables(field, n, coprod, counit_vals,
                                         antipode)
    phi_terms = {}
    phiinv_terms = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                carry = (j + k) // n
                phi_terms[(i, j, k)] = pow(zeta, i * carry, p)
                phiinv_terms[(i, j, k)] = pow(zeta, -i * carry, p)
    Phi = TensorElt(field, (n, n, n), phi_terms)
    PhiInv = TensorElt(field, (n, n, n), phiinv_terms)
    alpha = TensorElt(field, (n,), {(i,): pow(zeta, -i, p) for i in range(n)})
    beta = TensorElt(field, (n,), {(i,): one for i in range(n)})
    return QuasiHopfAlgebra(H, Delta, counit, Phi, S, alpha, beta,
                            PhiInv=PhiInv, SInv=S, name=f"FpZn({p},{n})")


# -- derived structures carried by every entry --------------------------------

def adjoint_module_algebra(Hq: QuasiHopfAlgebra, check: bool = True):
    """H as a left module algebra over itself, h.a = h_1 a S(h_2)."""
    from .actions import LeftModuleAlgebra
    h, a = Var("h", Hq.n), Var("a", Hq.n)
    action = linmap_from_program(
        Program.basis(Hq.field, h).apply_at(0, Hq.Delta).apply_at(1, Hq.S)
        .insert(1, a).mul_slots(0, 1, Hq.H).mul_slots(0, 1, Hq.H), (h, a))
    return LeftModuleAlgebra(Hq, Hq.H, action, name=Hq.name, check=check)


# key: (module, builder, the structure it takes), listed after "H"; each
# module is imported through __import__, which -X importtime reports
_DERIVED = {"module": ("corpus", "adjoint_module_algebra", "H"),
            "bicomodule": ("coactions", "regular_bicomodule", "H"),
            "dual": ("ydrep", "dual_of_bimodule_coalgebra", "coalgebra"),
            "coalgebra": ("ydrep", "regular_bimodule_coalgebra", "H")}


class _Structures(Mapping):
    """One entry's structures, each built on its first read and kept."""

    def __init__(self, Hq: QuasiHopfAlgebra, check: bool):
        self._built, self._check = {"H": Hq, **dict.fromkeys(_DERIVED)}, check

    def __getitem__(self, key: str):
        if self._built[key] is None:
            name, builder, arg = _DERIVED[key]
            module = __import__(name, globals(), None, [builder], 1)
            self._built[key] = getattr(module, builder)(self[arg], self._check)
        return self._built[key]

    def __contains__(self, key) -> bool:
        return key in self._built

    def __iter__(self):
        return iter(self._built)

    def __len__(self) -> int:
        return len(self._built)


def structures(name: str, check: bool = True) -> Mapping:
    """The named entry's ``H`` and its canonical derived structures (the
    adjoint ``module`` algebra, H as a ``bicomodule`` algebra over itself,
    the ``dual`` bimodule algebra and the ``coalgebra`` it dualises), as a
    read-only mapping.  An unknown name raises ``ValueError`` here; each
    other structure is built, and with ``check`` verified, on first read."""
    return _Structures(quasi_hopf(name), check)


# -- the registry -------------------------------------------------------------

def names():
    return ["QZ2", "H2", "Sweedler4", "FpZn(7,3)", "FpZn(5,2)"]


def quasi_hopf(name: str) -> QuasiHopfAlgebra:
    """Build the named corpus quasi-Hopf algebra."""
    if name == "QZ2":
        return group_algebra_z2()
    if name == "H2":
        return twisted_z2()
    if name == "Sweedler4":
        return sweedler4()
    if name.startswith("FpZn(") and name.endswith(")"):
        parts = [s.strip() for s in name[5:-1].split(",")]
        if len(parts) != 2:
            raise ValueError(f"bad cyclic-corpus name {name!r}")
        try:
            p, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad cyclic-corpus name {name!r}") from None
        if n > MAX_DIM:
            raise ValueError(f"{name}: n = {n} exceeds the "
                             f"{MAX_DIM}-dimensional envelope")
        return cyclic_with_cocycle(p, n)
    raise ValueError(f"unknown corpus entry {name!r}")

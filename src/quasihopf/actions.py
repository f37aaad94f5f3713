"""Module algebras over a quasi-Hopf algebra.

Left/right module algebras are algebras in the module category: their
multiplication is associative only up to the associator acting on the
factors, so plain associativity is never asserted here.  Bimodule
algebras carry commuting left and right actions.  Each law is checked
as two slot programs compared on every basis tuple.  The module also
builds the twisted structures over a gauge-twisted parent, the reversed
("bar") module algebra, and the view of a bimodule algebra as a left
module algebra over H (x) H^op.
"""

from __future__ import annotations

from .finalg import (FinAlgebra, Report, algebra_from_program,
                     program_report)
from .linalg import LinMap, reshape_map
from .quasihopf import QuasiHopfAlgebra
from .tensors import Program, TensorElt, Var, linmap_from_program


def _action_laws(Hq: QuasiHopfAlgebra, A: FinAlgebra, act: LinMap,
                 left: bool, unit: TensorElt):
    """The unit, associativity, multiplicativity and unitality laws of a
    left (or right) H-action on A, as (lhs, rhs, variables):
    1.a = a, h.(h'.a) = (hh').a, h.(aa') = (h_1.a)(h_2.a'),
    h.1 = eps(h) 1, and their mirror images."""
    fld, n, m = A.field, Hq.n, A.dim
    h, h2, a, a2 = Var("h", n), Var("h'", n), Var("a", m), Var("a'", m)
    one = Program(Hq.unit_elt())
    unital = Program(unit).insert(0, h).apply_at(0, Hq.counit)
    if left:
        return [
            (one.tensor(a).apply_at(0, act), Program.basis(fld, a), (a,)),
            (Program.basis(fld, h, h2, a).apply_at(1, act).apply_at(0, act),
             Program.basis(fld, h, h2).mul_slots(0, 1, Hq.H).tensor(a)
             .apply_at(0, act), (h, h2, a)),
            (Program.basis(fld, h, a, a2).mul_slots(1, 2, A).apply_at(0, act),
             Program.basis(fld, h).apply_at(0, Hq.Delta).insert(1, a)
             .apply_at(0, act).insert(2, a2).apply_at(1, act)
             .mul_slots(0, 1, A), (h, a, a2)),
            (Program(unit).insert(0, h).apply_at(0, act), unital, (h,))]
    return [
        (one.insert(0, a).apply_at(0, act), Program.basis(fld, a), (a,)),
        (Program.basis(fld, a, h).apply_at(0, act).tensor(h2)
         .apply_at(0, act),
         Program.basis(fld, a, h, h2).mul_slots(1, 2, Hq.H).apply_at(0, act),
         (a, h, h2)),
        (Program.basis(fld, a, a2).mul_slots(0, 1, A).tensor(h)
         .apply_at(0, act),
         Program.basis(fld, h).apply_at(0, Hq.Delta).insert(0, a)
         .apply_at(0, act).insert(1, a2).apply_at(1, act)
         .mul_slots(0, 1, A), (a, a2, h)),
        (Program(unit).tensor(h).apply_at(0, act), unital, (h,))]


def _pentagon(A: FinAlgebra, start: TensorElt, offset: int, *acts):
    """(aa')a'' against (X^1.a)[(X^2.a')(X^3.a'')] as (lhs, rhs,
    variables), with the k-th factor of the three-slot ``start`` acting
    on the k-th element, inserted at slot k + ``offset``, by ``acts``."""
    a = [Var(f"a{k}", A.dim) for k in range(3)]
    rhs = Program(start)
    for k, v in enumerate(a):
        rhs = rhs.insert(k + offset, v)
        for act in acts:
            rhs = rhs.apply_at(k, act)
    return (Program.basis(A.field, *a[:2]).mul_slots(0, 1, A).tensor(a[2])
            .mul_slots(0, 1, A), rhs.mul_slots(1, 2, A).mul_slots(0, 1, A),
            a)


class LeftModuleAlgebra:
    """An algebra A with a left H-action h.a; product associative up to
    the associator acting on the factors."""

    def __init__(self, Hq: QuasiHopfAlgebra, A: FinAlgebra, action: LinMap,
                 name: str = "", check: bool = True):
        if action.in_dims != (Hq.n, A.dim) or action.out_dims != (A.dim,):
            raise ValueError("action must map (dim H, dim A) -> (dim A,)")
        self.Hq = Hq
        self.A = A
        self.action = action
        self.name = name or A.name
        if check:
            self.verify().require(self.name or "left module algebra")

    @property
    def field(self):
        return self.A.field

    def unit_elt(self) -> TensorElt:
        return TensorElt.from_vector(self.field, self.A.unit)

    def verify(self) -> Report:
        Hq, A, act = self.Hq, self.A, self.action
        unit, assoc, mult, unital = _action_laws(Hq, A, act, True,
                                                 self.unit_elt())
        return program_report([
            ("unit-action", *unit), ("action-associative", *assoc),
            ("product-pentagon", *_pentagon(A, Hq.Phi, 1, act)),
            ("action-multiplicative", *mult), ("action-unital", *unital)])


class RightModuleAlgebra:
    """An algebra B with a right H-action b.h (mirror laws)."""

    def __init__(self, Hq: QuasiHopfAlgebra, B: FinAlgebra, action: LinMap,
                 name: str = "", check: bool = True):
        if action.in_dims != (B.dim, Hq.n) or action.out_dims != (B.dim,):
            raise ValueError("action must map (dim B, dim H) -> (dim B,)")
        self.Hq = Hq
        self.B = B
        self.action = action
        self.name = name or B.name
        if check:
            self.verify().require(self.name or "right module algebra")

    @property
    def field(self):
        return self.B.field

    def unit_elt(self) -> TensorElt:
        return TensorElt.from_vector(self.field, self.B.unit)

    def verify(self) -> Report:
        Hq, B, act = self.Hq, self.B, self.action
        unit, assoc, mult, unital = _action_laws(Hq, B, act, False,
                                                 self.unit_elt())
        return program_report([
            ("unit-action", *unit), ("action-associative", *assoc),
            ("product-pentagon", *_pentagon(B, Hq.PhiInv, 0, act)),
            ("action-multiplicative", *mult), ("action-unital", *unital)])


class BimoduleAlgebra:
    """An algebra with commuting left and right H-actions h.phi.h'."""

    def __init__(self, Hq: QuasiHopfAlgebra, A: FinAlgebra, left: LinMap,
                 right: LinMap, name: str = "", check: bool = True):
        if left.in_dims != (Hq.n, A.dim) or left.out_dims != (A.dim,):
            raise ValueError("left action must map (dim H, dim A) -> (dim A,)")
        if right.in_dims != (A.dim, Hq.n) or right.out_dims != (A.dim,):
            raise ValueError("right action must map (dim A, dim H) -> (dim A,)")
        self.Hq = Hq
        self.A = A
        self.left = left
        self.right = right
        self.name = name or A.name
        if check:
            self.verify().require(self.name or "bimodule algebra")

    @property
    def field(self):
        return self.A.field

    def basis_elt(self, i: int) -> TensorElt:
        return TensorElt.basis(self.field, (self.A.dim,), (i,))

    def unit_elt(self) -> TensorElt:
        return TensorElt.from_vector(self.field, self.A.unit)

    def verify(self) -> Report:
        Hq, A, left, right = self.Hq, self.A, self.left, self.right
        lu, la, lm, l1 = _action_laws(Hq, A, left, True, self.unit_elt())
        ru, ra, rm, r1 = _action_laws(Hq, A, right, False, self.unit_elt())
        h, p, h2 = Var("h", Hq.n), Var("p", A.dim), Var("h'", Hq.n)
        commute = (Program.basis(A.field, h, p).apply_at(0, left).tensor(h2)
                   .apply_at(0, right),
                   Program.basis(A.field, h, p, h2).apply_at(1, right)
                   .apply_at(0, left), (h, p, h2))
        # (pp')p'' = (X^1.p.x^1)[(X^2.p'.x^2)(X^3.p''.x^3)]
        start = Hq.Phi.tensor(Hq.PhiInv).permute((0, 3, 1, 4, 2, 5))
        return program_report([
            ("unit-action-left", *lu), ("unit-action-right", *ru),
            ("left-action-associative", *la),
            ("right-action-associative", *ra), ("actions-commute", *commute),
            ("product-pentagon", *_pentagon(A, start, 1, left, right)),
            ("left-action-multiplicative", *lm),
            ("right-action-multiplicative", *rm),
            ("action-unital-left", *l1), ("action-unital-right", *r1)])


# -- constructions ------------------------------------------------------------

def trivial_left_action(Hq: QuasiHopfAlgebra, A: FinAlgebra) -> LinMap:
    """h.a = eps(h) a."""
    h, a = Var("h", Hq.n), Var("a", A.dim)
    return linmap_from_program(
        Program.basis(Hq.field, h, a).apply_at(0, Hq.counit), (h, a))


def trivial_right_action(Hq: QuasiHopfAlgebra, A: FinAlgebra) -> LinMap:
    """a.h = eps(h) a."""
    a, h = Var("a", A.dim), Var("h", Hq.n)
    return linmap_from_program(
        Program.basis(Hq.field, a, h).apply_at(1, Hq.counit), (a, h))


def left_to_bimodule(A: LeftModuleAlgebra,
                     check: bool = True) -> BimoduleAlgebra:
    """Give a left module algebra the trivial (counit) right action."""
    return BimoduleAlgebra(A.Hq, A.A, A.action,
                           trivial_right_action(A.Hq, A.A),
                           name=A.name, check=check)


def right_to_bimodule(B: RightModuleAlgebra,
                      check: bool = True) -> BimoduleAlgebra:
    """Give a right module algebra the trivial (counit) left action."""
    return BimoduleAlgebra(B.Hq, B.B, trivial_left_action(B.Hq, B.B),
                           B.action, name=B.name, check=check)


def bimodule_to_left(A: BimoduleAlgebra,
                     check: bool = True) -> LeftModuleAlgebra:
    """Forget a trivial right action (error when it is not trivial)."""
    if A.right != trivial_right_action(A.Hq, A.A):
        raise ValueError("right action is not the counit action")
    return LeftModuleAlgebra(A.Hq, A.A, A.left, name=A.name, check=check)


def bimodule_to_right(A: BimoduleAlgebra,
                      check: bool = True) -> RightModuleAlgebra:
    """Forget a trivial left action (error when it is not trivial)."""
    if A.left != trivial_left_action(A.Hq, A.A):
        raise ValueError("left action is not the counit action")
    return RightModuleAlgebra(A.Hq, A.A, A.right, name=A.name, check=check)


def tensor_bimodule(A: LeftModuleAlgebra,
                    B: RightModuleAlgebra) -> BimoduleAlgebra:
    """A (x) B with componentwise product and h.(a x b).h' = h.a x b.h',
    unchecked."""
    from .finalg import tensor_algebra
    if A.Hq is not B.Hq and A.Hq.H != B.Hq.H:
        raise ValueError("factors live over different parents")
    Hq = A.Hq
    AB = tensor_algebra(A.A, B.B)
    ma, mb = A.A.dim, B.B.dim
    fld = Hq.field
    h, x = Var("h", Hq.n), Var("x", ma * mb)
    split = reshape_map(fld, (ma * mb,), (ma, mb))
    merge = reshape_map(fld, (ma, mb), (ma * mb,))
    e = Program.basis(fld, x).apply_at(0, split)
    left = linmap_from_program(
        e.insert(0, h).apply_at(0, A.action).apply_at(0, merge), (h, x))
    right = linmap_from_program(
        e.tensor(h).apply_at(1, B.action).apply_at(0, merge), (x, h))
    name = f"{A.name}(x){B.name}" if A.name and B.name else ""
    return BimoduleAlgebra(Hq, AB, left, right, name=name, check=False)


def twist_action(x, F: TensorElt, FInv: TensorElt, HF: QuasiHopfAlgebra):
    """Transport a (bi)module algebra across the gauge twist by F, with
    inverse ``FInv`` (= G) and twisted parent ``HF``, unchecked.

    Left: a' product (G^1.a)(G^2.a'); right: (b.F^1)(b'.F^2); bimodule:
    (G^1.p.F^1)(G^2.p'.F^2).  Unit and actions are unchanged; the
    parent becomes H twisted by F.
    """
    if isinstance(x, LeftModuleAlgebra):
        a, a2 = Var("a", x.A.dim), Var("a'", x.A.dim)
        prog = Program(FInv).insert(1, a).apply_at(0, x.action) \
            .insert(2, a2).apply_at(1, x.action).mul_slots(0, 1, x.A)
        A2 = algebra_from_program(prog, [a], [a2], x.unit_elt(), x.name)
        return LeftModuleAlgebra(HF, A2, x.action, name=x.name, check=False)
    if isinstance(x, RightModuleAlgebra):
        b, b2 = Var("b", x.B.dim), Var("b'", x.B.dim)
        prog = Program(F).insert(0, b).apply_at(0, x.action) \
            .insert(1, b2).apply_at(1, x.action).mul_slots(0, 1, x.B)
        B2 = algebra_from_program(prog, [b], [b2], x.unit_elt(), x.name)
        return RightModuleAlgebra(HF, B2, x.action, name=x.name, check=False)
    if isinstance(x, BimoduleAlgebra):
        p, p2 = Var("p", x.A.dim), Var("p'", x.A.dim)
        prog = Program(FInv.tensor(F).permute((0, 2, 1, 3)))
        for k, v in enumerate((p, p2)):
            prog = prog.insert(k + 1, v).apply_at(k, x.left) \
                .apply_at(k, x.right)
        A2 = algebra_from_program(prog.mul_slots(0, 1, x.A), [p], [p2],
                                  x.unit_elt(), x.name)
        return BimoduleAlgebra(HF, A2, x.left, x.right, name=x.name,
                               check=False)
    raise TypeError("not a (bi)module algebra")


def bar_construction(A: LeftModuleAlgebra) -> RightModuleAlgebra:
    """The reversed right module algebra, unchecked: product
    a * a' = (g^1.a')(g^2.a) with f^{-1} = g^1 x g^2 the inverse
    Drinfeld twist; action a.h = S(h).a."""
    Hq = A.Hq
    fld = Hq.field
    m = A.A.dim
    a, a2 = Var("a", m), Var("a'", m)
    prog = Program(Hq.drinfeld_twist().f_inv).insert(1, a2) \
        .apply_at(0, A.action).insert(2, a).apply_at(1, A.action) \
        .mul_slots(0, 1, A.A)
    Abar = algebra_from_program(prog, [a], [a2], A.unit_elt(),
                                f"{A.name}-bar" if A.name else "")
    h = Var("h", Hq.n)
    action = linmap_from_program(
        Program.basis(fld, h).apply_at(0, Hq.S).tensor(a)
        .apply_at(0, A.action), (a, h))
    return RightModuleAlgebra(Hq, Abar, action, name=Abar.name, check=False)


def as_module_over_tensor(A: BimoduleAlgebra, HHop: QuasiHopfAlgebra,
                          check: bool = True) -> LeftModuleAlgebra:
    """View a bimodule algebra as a left module algebra over H (x) H^op
    via (h x h').phi = h.phi.h'."""
    n = A.Hq.n
    fld = A.field
    x, p = Var("x", n * n), Var("p", A.A.dim)
    action = linmap_from_program(
        Program.basis(fld, x).apply_at(0, reshape_map(fld, (n * n,), (n, n)))
        .insert(1, p).apply_at(1, A.right).apply_at(0, A.left), (x, p))
    return LeftModuleAlgebra(HHop, A.A, action, name=A.name, check=check)

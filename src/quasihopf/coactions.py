"""Comodule algebras over a quasi-Hopf algebra.

Left/right comodule algebras carry a coaction that is coassociative
only up to an invertible mixed associator; bicomodule algebras carry a
quasi-commuting pair of coactions.  From these the module builds the
two-sided coactions, the canonical pairs (p-tilde, q-tilde) and
(p, q), the five-slot exchange elements and their intertwining and
cocycle identities, the two mixed comodule structures over H (x) H^op
together with the twist equivalence between them, and the transport of
every structure across a gauge twist.

Every identity is a pair of slot programs compared by
``finalg.program_report``: on every basis pair (each coaction is an
algebra map into A (x) H, H (x) B or H (x) A (x) H, checked factor by
factor by ``finalg.algebra_map_checks``), on every value of its basis
variable (coassociativity of a coaction on each basis element, the
intertwining relations), or once when it has none (the pentagons,
cocycles and cancellations between fixed tensors).  Working layouts are
spelled out per formula; the recurring one is the five-slot layout
(H, H, A, H, H).  Products whose
written order runs right-to-left in some slots are evaluated with the
opposite algebra in those slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finalg import (FinAlgebra, Report, algebra_map_checks, inverse_checks,
                     invert_mixed, invert_or_raise, opposite, program_report,
                     slotwise_unit, tensor_algebra, verify_associative_unital)
from .linalg import LinMap, reshape_map
from .quasihopf import QuasiHopfAlgebra, tensor_qh
from .tensors import (Program, TensorElt, Var, fold_slots,
                      linmap_from_program, permuted, slotwise_prod)


# -- comodule algebras --------------------------------------------------------

class RightComoduleAlgebra:
    """An algebra A with a right coaction rho: A -> A (x) H and an
    invertible mixed associator PhiRho in A (x) H (x) H."""

    def __init__(self, Hq: QuasiHopfAlgebra, A: FinAlgebra, rho: LinMap,
                 PhiRho: TensorElt, PhiRhoInv: TensorElt | None = None,
                 name: str = "", check: bool = True):
        n, m = Hq.n, A.dim
        if rho.in_dims != (m,) or rho.out_dims != (m, n):
            raise ValueError("coaction must map (dim A,) -> (dim A, dim H)")
        if PhiRho.dims != (m, n, n):
            raise ValueError("mixed associator must live in A (x) H (x) H")
        self.Hq = Hq
        self.A = A
        self.rho = rho
        self.PhiRho = PhiRho
        self.name = name or A.name
        if PhiRhoInv is None:
            PhiRhoInv = invert_or_raise(PhiRho, [A, Hq.H, Hq.H],
                                        "mixed associator")
        self.PhiRhoInv = PhiRhoInv
        if check:
            self.verify().require(self.name or "right comodule algebra")

    @property
    def field(self):
        return self.A.field

    def unit_elt(self) -> TensorElt:
        return TensorElt.from_vector(self.field, self.A.unit)

    def mirror(self) -> "LeftComoduleAlgebra":
        """A^op over H^{op,cop}, lam = rho and PhiLam = PhiRho reversed."""
        return LeftComoduleAlgebra(
            self.Hq.opcop(), opposite(self.A),
            permuted(self.rho, (0,), (1, 0)), self.PhiRho.permute((2, 1, 0)),
            PhiLamInv=self.PhiRhoInv.permute((2, 1, 0)), name=self.name,
            check=False)

    def verify(self) -> Report:
        Hq, A = self.Hq, self.A
        H = Hq.H
        algs3, algs4 = [A, H, H], [A, H, H, H]
        a = Var("a", A.dim)
        e = Program.basis(self.field, a)
        r = e.apply_at(0, self.rho)
        PhiRho = Program(self.PhiRho)
        one2 = Program(self.unit_elt().tensor(Hq.unit_elt()))
        return program_report([
            *algebra_map_checks("coaction/", self.rho, A, [A, H]),
            *inverse_checks("associator-inverse", self.PhiRho,
                            self.PhiRhoInv, algs3, ("PhiRho", "PhiRhoInv")),
            # PhiRho (rho x id)(rho(a)) = (id x Delta)(rho(a)) PhiRho
            ("coaction-coassociative",
             r.apply_at(0, self.rho)
             .slotwise_mul(self.PhiRho, algs3, left=True),
             r.apply_at(1, Hq.Delta).slotwise_mul(self.PhiRho, algs3),
             (a,)),
            # (1 x Phi)(id x Delta x id)(PhiRho)(PhiRho x 1)
            #   = (id x id x Delta)(PhiRho)(rho x id x id)(PhiRho)
            ("coaction-pentagon",
             Program(Hq.Phi).insert(0, self.unit_elt())
             .slotwise_mul(self.PhiRho.apply_at(1, Hq.Delta), algs4)
             .slotwise_mul(self.PhiRho.insert(3, Hq.unit_elt()), algs4),
             PhiRho.apply_at(2, Hq.Delta)
             .slotwise_mul(self.PhiRho.apply_at(0, self.rho), algs4), ()),
            # (id x eps) rho = id; counit kills the mixed associator
            ("coaction-counit", r.apply_at(1, Hq.counit), e, (a,)),
            *((f"associator-counit: slot {pos}",
               PhiRho.apply_at(pos, Hq.counit), one2, ()) for pos in (1, 2))
        ])


class LeftComoduleAlgebra:
    """An algebra B with a left coaction lam: B -> H (x) B and an
    invertible mixed associator PhiLam in H (x) H (x) B."""

    def __init__(self, Hq: QuasiHopfAlgebra, B: FinAlgebra, lam: LinMap,
                 PhiLam: TensorElt, PhiLamInv: TensorElt | None = None,
                 name: str = "", check: bool = True):
        n, m = Hq.n, B.dim
        if lam.in_dims != (m,) or lam.out_dims != (n, m):
            raise ValueError("coaction must map (dim B,) -> (dim H, dim B)")
        if PhiLam.dims != (n, n, m):
            raise ValueError("mixed associator must live in H (x) H (x) B")
        self.Hq = Hq
        self.B = B
        self.lam = lam
        self.PhiLam = PhiLam
        self.name = name or B.name
        if PhiLamInv is None:
            PhiLamInv = invert_or_raise(PhiLam, [Hq.H, Hq.H, B],
                                        "mixed associator")
        self.PhiLamInv = PhiLamInv
        if check:
            self.verify().require(self.name or "left comodule algebra")

    @property
    def field(self):
        return self.B.field

    def unit_elt(self) -> TensorElt:
        return TensorElt.from_vector(self.field, self.B.unit)

    def mirror(self) -> RightComoduleAlgebra:
        """B^op over H^{op,cop}, rho = lam and PhiRho = PhiLam reversed."""
        return RightComoduleAlgebra(
            self.Hq.opcop(), opposite(self.B),
            permuted(self.lam, (0,), (1, 0)), self.PhiLam.permute((2, 1, 0)),
            PhiRhoInv=self.PhiLamInv.permute((2, 1, 0)), name=self.name,
            check=False)

    def verify(self) -> Report:
        Hq, B = self.Hq, self.B
        H = Hq.H
        algs3, algs4 = [H, H, B], [H, H, H, B]
        b = Var("b", B.dim)
        e = Program.basis(self.field, b)
        lb = e.apply_at(0, self.lam)
        PhiLam = Program(self.PhiLam)
        one2 = Program(Hq.unit_elt().tensor(self.unit_elt()))
        return program_report([
            *algebra_map_checks("coaction/", self.lam, B, [H, B]),
            *inverse_checks("associator-inverse", self.PhiLam,
                            self.PhiLamInv, algs3, ("PhiLam", "PhiLamInv")),
            # (id x lam)(lam(b)) PhiLam = PhiLam (Delta x id)(lam(b))
            ("coaction-coassociative",
             lb.apply_at(1, self.lam).slotwise_mul(self.PhiLam, algs3),
             lb.apply_at(0, Hq.Delta)
             .slotwise_mul(self.PhiLam, algs3, left=True),
             (b,)),
            # (1 x PhiLam)(id x Delta x id)(PhiLam)(Phi x 1)
            #   = (id x id x lam)(PhiLam)(Delta x id x id)(PhiLam)
            ("coaction-pentagon",
             PhiLam.insert(0, Hq.unit_elt())
             .slotwise_mul(self.PhiLam.apply_at(1, Hq.Delta), algs4)
             .slotwise_mul(Hq.Phi.insert(3, self.unit_elt()), algs4),
             PhiLam.apply_at(2, self.lam)
             .slotwise_mul(self.PhiLam.apply_at(0, Hq.Delta), algs4), ()),
            ("coaction-counit", lb.apply_at(0, Hq.counit), e, (b,)),
            *((f"associator-counit: slot {pos}",
               PhiLam.apply_at(pos, Hq.counit), one2, ()) for pos in (0, 1))
        ])


class BicomoduleAlgebra:
    """A quasi-commuting pair of coactions: a left and a right comodule
    algebra structure on the same algebra, glued by an invertible
    PhiLR in H (x) A (x) H."""

    def __init__(self, left: LeftComoduleAlgebra, right: RightComoduleAlgebra,
                 PhiLR: TensorElt, PhiLRInv: TensorElt | None = None,
                 name: str = "", check: bool = True):
        if left.B is not right.A and left.B != right.A:
            raise ValueError("left and right structures must share the algebra")
        if left.Hq is not right.Hq:
            raise ValueError("left and right structures must share the parent")
        Hq = left.Hq
        if PhiLR.dims != (Hq.n, left.B.dim, Hq.n):
            raise ValueError("gluing element must live in H (x) A (x) H")
        self.left = left
        self.right = right
        self.PhiLR = PhiLR
        self.name = name or left.name
        if PhiLRInv is None:
            PhiLRInv = invert_or_raise(PhiLR, [Hq.H, left.B, Hq.H],
                                       "gluing element")
        self.PhiLRInv = PhiLRInv
        if check:
            self.verify().require(self.name or "bicomodule algebra")

    @property
    def Hq(self) -> QuasiHopfAlgebra:
        return self.left.Hq

    @property
    def A(self) -> FinAlgebra:
        return self.left.B

    @property
    def lam(self) -> LinMap:
        return self.left.lam

    @property
    def rho(self) -> LinMap:
        return self.right.rho

    @property
    def field(self):
        return self.A.field

    def unit_elt(self) -> TensorElt:
        return self.left.unit_elt()

    def gluing_report(self) -> Report:
        """PhiLR PhiLRInv = 1 = PhiLRInv PhiLR, checked by each theorem too."""
        return program_report(inverse_checks(
            "gluing-inverse", self.PhiLR, self.PhiLRInv,
            [self.Hq.H, self.A, self.Hq.H], ("PhiLR", "PhiLRInv")))

    def verify(self, subparts: bool = False) -> Report:
        rep = Report()
        if subparts:
            for prefix, part in (("left", self.left), ("right", self.right)):
                rep.failures += [f"{prefix}/{msg}"
                                 for msg in part.verify().failures]
        Hq, A = self.Hq, self.A
        H = Hq.H
        PhiLam, PhiRho = self.left.PhiLam, self.right.PhiRho
        algs3, algsL, algsR = [H, A, H], [H, H, A, H], [H, A, H, H]
        PhiLR = Program(self.PhiLR)
        u = Var("u", A.dim)
        e = Program.basis(self.field, u)
        rep.merge(self.gluing_report())
        rep.merge(program_report([
            # PhiLR (lam x id)(rho(u)) = (id x rho)(lam(u)) PhiLR
            ("coactions-quasi-commute",
             e.apply_at(0, self.rho).apply_at(0, self.lam)
             .slotwise_mul(self.PhiLR, algs3, left=True),
             e.apply_at(0, self.lam).apply_at(1, self.rho)
             .slotwise_mul(self.PhiLR, algs3), (u,)),
            # (1 x PhiLR)(id x lam x id)(PhiLR)(PhiLam x 1)
            #   = (id x id x rho)(PhiLam)(Delta x id x id)(PhiLR)
            ("mixed-pentagon-left",
             PhiLR.insert(0, Hq.unit_elt())
             .slotwise_mul(self.PhiLR.apply_at(1, self.lam), algsL)
             .slotwise_mul(PhiLam.insert(3, Hq.unit_elt()), algsL),
             Program(PhiLam).apply_at(2, self.rho)
             .slotwise_mul(self.PhiLR.apply_at(0, Hq.Delta), algsL), ()),
            # (1 x PhiRho)(id x rho x id)(PhiLR)(PhiLR x 1)
            #   = (id x id x Delta)(PhiLR)(lam x id x id)(PhiRho)
            ("mixed-pentagon-right",
             Program(PhiRho).insert(0, Hq.unit_elt())
             .slotwise_mul(self.PhiLR.apply_at(1, self.rho), algsR)
             .slotwise_mul(self.PhiLR.insert(3, Hq.unit_elt()), algsR),
             PhiLR.apply_at(2, Hq.Delta)
             .slotwise_mul(PhiRho.apply_at(0, self.lam), algsR), ()),
            # counit kills the gluing element on either outer slot
            ("gluing-counit: last slot", PhiLR.apply_at(2, Hq.counit),
             Program(Hq.unit_elt().tensor(self.unit_elt())), ()),
            ("gluing-counit: first slot", PhiLR.apply_at(0, Hq.counit),
             Program(self.unit_elt().tensor(Hq.unit_elt())), ())]))
        return rep

    def opcop(self) -> "BicomoduleAlgebra":
        """The mirror: A^op over H^{op,cop}, the mirrored right part its
        left part and vice versa, the gluing pair reversed, unchecked."""
        return BicomoduleAlgebra(
            self.right.mirror(), self.left.mirror(),
            self.PhiLR.permute((2, 1, 0)),
            PhiLRInv=self.PhiLRInv.permute((2, 1, 0)),
            name=f"{self.name}^opcop" if self.name else "", check=False)


def axiom_report(obj) -> Report:
    """The full axiom suite of a structure: every basis pair of a plain
    algebra, and both parts of a bicomodule algebra too."""
    if isinstance(obj, FinAlgebra):
        return verify_associative_unital(obj, limit=None)
    if isinstance(obj, BicomoduleAlgebra):
        return obj.verify(subparts=True)
    return obj.verify()


class TwoSidedCoaction:
    """An algebra map delta: A -> H (x) A (x) H with an invertible
    five-slot element Psi controlling its coassociativity defect."""

    def __init__(self, Hq: QuasiHopfAlgebra, A: FinAlgebra, delta: LinMap,
                 Psi: TensorElt, PsiInv: TensorElt | None = None,
                 name: str = "", check: bool = True):
        n, m = Hq.n, A.dim
        if delta.in_dims != (m,) or delta.out_dims != (n, m, n):
            raise ValueError(
                "coaction must map (dim A,) -> (dim H, dim A, dim H)")
        if Psi.dims != (n, n, m, n, n):
            raise ValueError("Psi must live in H2 (x) A (x) H2")
        self.Hq = Hq
        self.A = A
        self.delta = delta
        self.Psi = Psi
        self.name = name or A.name
        if PsiInv is None:
            PsiInv = invert_or_raise(Psi, [Hq.H, Hq.H, A, Hq.H, Hq.H], "Psi")
        self.PsiInv = PsiInv
        if check:
            self.verify().require(self.name or "two-sided coaction")

    @property
    def field(self):
        return self.A.field

    def unit_elt(self) -> TensorElt:
        return TensorElt.from_vector(self.field, self.A.unit)

    def mirror(self) -> "TwoSidedCoaction":
        """A^op over H^{op,cop} with delta slot-reversed, unchecked; its
        Psi is PsiInv slot-reversed, its PsiInv Psi slot-reversed.  The
        reversed psi-cocycle puts Phi^{-1}_321 (x) 1 (x) Phi_321 where
        H^{op,cop} has Phi_321 (x) 1 (x) Phi^{-1}_321; inverting both
        sides restores it.  A plain reversal of Psi fails psi-cocycle
        wherever Phi is not symmetric under reversal, as on FpZn(7,3)."""
        rev = (4, 3, 2, 1, 0)
        return TwoSidedCoaction(
            self.Hq.opcop(), opposite(self.A),
            permuted(self.delta, (0,), (2, 1, 0)), self.PsiInv.permute(rev),
            PsiInv=self.Psi.permute(rev), name=self.name, check=False)

    def verify(self) -> Report:
        Hq, A = self.Hq, self.A
        H = Hq.H
        algs5, algs7 = [H, H, A, H, H], [H, H, H, A, H, H, H]
        u = Var("u", A.dim)
        e = Program.basis(self.field, u)
        d = e.apply_at(0, self.delta)
        Psi = Program(self.Psi)
        one1 = Hq.unit_elt()
        one3 = Program(slotwise_unit(self.field, [H, A, H]))
        return program_report([
            *algebra_map_checks("coaction/", self.delta, A, [H, A, H]),
            *inverse_checks("psi-inverse", self.Psi, self.PsiInv, algs5,
                            ("Psi", "PsiInv")),
            # (id x delta x id)(delta(u)) Psi
            #   = Psi (Delta x id x Delta)(delta(u))
            ("coaction-coassociative",
             d.apply_at(1, self.delta).slotwise_mul(self.Psi, algs5),
             d.apply_at(0, Hq.Delta).apply_at(3, Hq.Delta)
             .slotwise_mul(self.Psi, algs5, left=True), (u,)),
            # (1 x Psi x 1)(id x Delta x id x Delta x id)(Psi)
            #   (Phi x id x PhiInv)
            #   = (id2 x delta x id2)(Psi)(Delta x id x id x id x Delta)(Psi)
            ("psi-cocycle",
             Psi.insert(0, one1).insert(6, one1)
             .slotwise_mul(self.Psi.apply_at(1, Hq.Delta)
                           .apply_at(4, Hq.Delta), algs7)
             .slotwise_mul(Hq.Phi.insert(3, self.unit_elt())
                           .tensor(Hq.PhiInv), algs7),
             Psi.apply_at(2, self.delta)
             .slotwise_mul(self.Psi.apply_at(0, Hq.Delta)
                           .apply_at(5, Hq.Delta), algs7), ()),
            # (eps x id x eps) delta = id; counit kills Psi in matched slots
            ("coaction-counit",
             d.apply_at(2, Hq.counit).apply_at(0, Hq.counit), e, (u,)),
            ("psi-counit: inner slots",
             Psi.apply_at(3, Hq.counit).apply_at(1, Hq.counit), one3, ()),
            ("psi-counit: outer slots",
             Psi.apply_at(4, Hq.counit).apply_at(0, Hq.counit), one3, ())])


# -- canonical examples and constructors --------------------------------------

def regular_right(Hq: QuasiHopfAlgebra,
                  check: bool = True) -> RightComoduleAlgebra:
    """H over itself with rho = Delta and the associator as PhiRho."""
    return RightComoduleAlgebra(Hq, Hq.H, Hq.Delta, Hq.Phi,
                                PhiRhoInv=Hq.PhiInv, name=Hq.name,
                                check=check)


def regular_left(Hq: QuasiHopfAlgebra,
                 check: bool = True) -> LeftComoduleAlgebra:
    """H over itself with lam = Delta and the associator as PhiLam."""
    return LeftComoduleAlgebra(Hq, Hq.H, Hq.Delta, Hq.Phi,
                               PhiLamInv=Hq.PhiInv, name=Hq.name,
                               check=check)


def regular_bicomodule(Hq: QuasiHopfAlgebra,
                       check: bool = True) -> BicomoduleAlgebra:
    """H over itself: both coactions Delta, all three tensors Phi."""
    return BicomoduleAlgebra(regular_left(Hq, check=check),
                             regular_right(Hq, check=check),
                             Hq.Phi, PhiLRInv=Hq.PhiInv, name=Hq.name,
                             check=check)


def tensor_bicomodule(Afr: RightComoduleAlgebra, Bfr: LeftComoduleAlgebra,
                      check: bool = True) -> BicomoduleAlgebra:
    """A (x) B: the right coaction acts on the A factor, the left one
    on the B factor, and the gluing element is trivial."""
    if Afr.Hq is not Bfr.Hq:
        raise ValueError("factors live over different parents")
    Hq = Afr.Hq
    A, B = Afr.A, Bfr.B
    ma, mb = A.dim, B.dim
    fld = Hq.field
    AB = tensor_algebra(A, B)
    AB.name = (f"{Afr.name}(x){Bfr.name}"
               if Afr.name and Bfr.name else "")
    x = Var("x", ma * mb)
    merge = reshape_map(fld, (ma, mb), (ma * mb,))
    e = Program.basis(fld, x).apply_at(0, reshape_map(fld, (ma * mb,),
                                                      (ma, mb)))
    lam = linmap_from_program(e.apply_at(1, Bfr.lam).permute((1, 0, 2))
                              .apply_at(1, merge), (x,))
    rho = linmap_from_program(e.apply_at(0, Afr.rho).permute((0, 2, 1))
                              .apply_at(0, merge), (x,))
    unitA, unitB = Afr.unit_elt(), Bfr.unit_elt()
    PhiLam = Bfr.PhiLam.insert(2, unitA).apply_at(2, merge)
    PhiLamInv = Bfr.PhiLamInv.insert(2, unitA).apply_at(2, merge)
    PhiRho = Afr.PhiRho.insert(1, unitB).apply_at(0, merge)
    PhiRhoInv = Afr.PhiRhoInv.insert(1, unitB).apply_at(0, merge)
    PhiLR = slotwise_unit(fld, [Hq.H, AB, Hq.H])
    left = LeftComoduleAlgebra(Hq, AB, lam, PhiLam, PhiLamInv=PhiLamInv,
                               name=AB.name, check=False)
    right = RightComoduleAlgebra(Hq, AB, rho, PhiRho, PhiRhoInv=PhiRhoInv,
                                 name=AB.name, check=False)
    return BicomoduleAlgebra(left, right, PhiLR, PhiLRInv=PhiLR,
                             name=AB.name, check=check)


def bicomodule_tensor_with_algebra(Ab: BicomoduleAlgebra,
                                   C: FinAlgebra) -> BicomoduleAlgebra:
    """A (x) C with everything trivial on the C factor, certified."""
    if Ab.field != C.field:
        raise ValueError("field mismatch")
    Hq = Ab.Hq
    m, c = Ab.A.dim, C.dim
    fld = Ab.field
    AC = tensor_algebra(Ab.A, C)
    AC.name = f"{Ab.name}(x){C.name}" if Ab.name and C.name else ""
    unitC = TensorElt.from_vector(fld, C.unit)
    x = Var("x", m * c)
    merge = reshape_map(fld, (m, c), (m * c,))
    e = Program.basis(fld, x).apply_at(0, reshape_map(fld, (m * c,), (m, c)))
    lam = linmap_from_program(e.apply_at(0, Ab.lam).apply_at(1, merge), (x,))
    rho = linmap_from_program(e.apply_at(0, Ab.rho).permute((0, 2, 1))
                              .apply_at(0, merge), (x,))
    PhiLam = Ab.left.PhiLam.insert(3, unitC).apply_at(2, merge)
    PhiLamInv = Ab.left.PhiLamInv.insert(3, unitC).apply_at(2, merge)
    PhiRho = Ab.right.PhiRho.insert(1, unitC).apply_at(0, merge)
    PhiRhoInv = Ab.right.PhiRhoInv.insert(1, unitC).apply_at(0, merge)
    PhiLR = Ab.PhiLR.insert(2, unitC).apply_at(1, merge)
    PhiLRInv = Ab.PhiLRInv.insert(2, unitC).apply_at(1, merge)
    left = LeftComoduleAlgebra(Hq, AC, lam, PhiLam, PhiLamInv=PhiLamInv,
                               name=AC.name, check=False)
    right = RightComoduleAlgebra(Hq, AC, rho, PhiRho, PhiRhoInv=PhiRhoInv,
                                 name=AC.name, check=False)
    return BicomoduleAlgebra(left, right, PhiLR, PhiLRInv=PhiLRInv,
                             name=AC.name)


# -- p-tilde / q-tilde for a right comodule algebra ---------------------------

@dataclass
class CanonicalPair:
    """A canonical pair (p, q): p-tilde and q-tilde of a right comodule
    algebra, or p and q of a two-sided coaction."""
    p: TensorElt
    q: TensorElt


def tilde_pq(Afr: RightComoduleAlgebra, check: bool = True) -> CanonicalPair:
    """p = x~1 (x) x~2 beta S(x~3), q = X~1 (x) S^{-1}(alpha X~3) X~2,
    together with their intertwining and cancellation identities."""
    Hq = Afr.Hq
    H = Hq.H
    t = Afr.PhiRhoInv.apply_at(2, Hq.S).insert(2, Hq.beta)
    p = fold_slots(t, [(0,), (1, 2, 3)], [Afr.A, H])
    t = Afr.PhiRho.insert(2, Hq.alpha).mul_slots(2, 3, H)
    q = t.apply_at(2, Hq.SInv).mul_slots(2, 1, H)
    pq = CanonicalPair(p, q)
    if check:
        verify_tilde_pq(Afr, pq).require(Afr.name or "right comodule algebra")
    return pq


def verify_tilde_pq(Afr: RightComoduleAlgebra, pq: CanonicalPair) -> Report:
    Hq, A = Afr.Hq, Afr.A
    H = Hq.H
    p, q = pq.p, pq.q
    groups, algs = [(0, 1), (2, 3, 4)], [A, H]
    algs3, algs4 = [A, H, H], [A, H, H, H]
    one2 = Program(Afr.unit_elt().tensor(Hq.unit_elt()))
    pr, qr = p.apply_at(0, Afr.rho), q.apply_at(0, Afr.rho)
    dt = Hq.drinfeld_twist()
    # (id x Delta)(rho(x~1) p)(1 x g1 S(x~3) x g2 S(x~2))
    t = Program(Afr.PhiRhoInv).apply_at(0, Afr.rho).insert(2, p)
    t = fold_slots(t.permute((0, 2, 1, 3, 4, 5)),
                   [(0, 1), (2, 3), (4,), (5,)], algs4)
    t = t.apply_at(1, Hq.Delta).apply_at(3, Hq.S).apply_at(4, Hq.S)
    t = t.insert(3, dt.f_inv).permute((0, 1, 3, 6, 2, 4, 5))
    p_rhs = fold_slots(t, [(0,), (1, 2, 3), (4, 5, 6)], algs3)
    # [1 x S^{-1}(f2 X~3) x S^{-1}(f1 X~2)](id x Delta)(q rho(X~1))
    t = Program(Afr.PhiRho).apply_at(0, Afr.rho).insert(0, q)
    t = fold_slots(t.permute((0, 2, 1, 3, 4, 5)),
                   [(0, 1), (2, 3), (4,), (5,)], algs4)
    t = t.apply_at(1, Hq.Delta)
    t = t.insert(3, dt.f).permute((0, 4, 6, 1, 3, 5, 2))
    t = t.mul_slots(1, 2, H).apply_at(1, Hq.SInv).mul_slots(1, 2, H)
    q_rhs = t.mul_slots(2, 3, H).apply_at(2, Hq.SInv).mul_slots(2, 3, H)
    a = Var("a", A.dim)
    rr = Program.basis(Afr.field, a).apply_at(0, Afr.rho).apply_at(0, Afr.rho)
    a1 = Program.basis(Afr.field, a).tensor(Hq.unit_elt())
    return program_report([
        # rho(a00) p [1 x S(a1)] = p [a x 1]
        ("p-intertwiner", fold_slots(rr.apply_at(2, Hq.S).insert(2, p)
                                     .permute((0, 2, 1, 3, 4)), groups, algs),
         a1.slotwise_mul(p, algs, left=True), (a,)),
        # [1 x S^{-1}(a1)] q rho(a00) = [a x 1] q
        ("q-intertwiner", fold_slots(rr.apply_at(2, Hq.SInv).insert(3, q)
                                     .permute((3, 0, 2, 4, 1)), groups, algs),
         a1.slotwise_mul(q, algs), (a,)),
        # rho(q1) p [1 x S(q2)] = 1 x 1
        ("qp-cancel", fold_slots(Program(qr).apply_at(2, Hq.S).insert(2, p)
                                 .permute((0, 2, 1, 3, 4)), groups, algs),
         one2, ()),
        # [1 x S^{-1}(p2)] q rho(p1) = 1 x 1
        ("pq-cancel", fold_slots(Program(pr).apply_at(2, Hq.SInv)
                                 .insert(3, q).permute((3, 0, 2, 4, 1)),
                                 groups, algs), one2, ()),
        # PhiRho (rho x id)(p)(p x 1) = p_rhs
        ("p-coproduct",
         Program(pr).slotwise_mul(Afr.PhiRho, algs3, left=True)
         .slotwise_mul(p.insert(2, Hq.unit_elt()), algs3), p_rhs, ()),
        # (q x 1)(rho x id)(q) PhiRhoInv = q_rhs
        ("q-coproduct",
         Program(q).insert(2, Hq.unit_elt()).slotwise_mul(qr, algs3)
         .slotwise_mul(Afr.PhiRhoInv, algs3), q_rhs, ())])


def mixed_translation_identity(Ab: BicomoduleAlgebra):
    """th-bar1 th1 (x) th-bar2 th2_<0> p~1 (x) th-bar3 th2_<1> p~2 S(th3)
    = (p~1)_[-1] (x) (p~1)_[0] (x) p~2, the helper identity behind the
    coaction formula of the reverse Yetter-Drinfeld translation
    (``ydrep``), as its two sides."""
    Hq = Ab.Hq
    H = Hq.H
    Ualg = Ab.A
    p = tilde_pq(Ab.right, check=False).p
    t = Program(Ab.PhiLRInv).apply_at(1, Ab.rho).apply_at(3, Hq.S)
    # [t1, t20, t21, St3]
    t = t.insert(2, p)
    # [t1, t20, p1, p2, t21, St3]
    t = t.mul_slots(1, 2, Ualg)
    # [t1, t20 p1, p2, t21, St3]
    t = t.mul_slots(3, 2, H)
    # [t1, M, t21 p2, St3]
    t = t.mul_slots(2, 3, H)
    return (t.slotwise_mul(Ab.PhiLRInv, [H, Ualg, H], left=True),
            Program(p).apply_at(0, Ab.lam))


# -- two-sided coactions from a bicomodule algebra ----------------------------

def two_sided_from_bicomodule(Ab: BicomoduleAlgebra, side: str = "l",
                              check: bool = True) -> TwoSidedCoaction:
    """The two-sided coaction obtained by nesting the coactions:
    side "l" applies the left coaction last, side "r" the right one,
    read back as the mirror of side "l" of the mirror ``Ab.opcop()``."""
    if side not in ("l", "r"):
        raise ValueError("side must be 'l' or 'r'")
    Hq = Ab.Hq
    A = Ab.A
    name = f"{Ab.name}:{side}" if Ab.name else ""
    if side == "r":
        m = two_sided_from_bicomodule(Ab.opcop(), check=False).mirror()
        return TwoSidedCoaction(Hq, A, m.delta, m.Psi, PsiInv=m.PsiInv,
                                name=name, check=check)
    H = Hq.H
    oneH = Hq.unit_elt()
    u = Var("u", A.dim)
    delta = linmap_from_program(
        Program.basis(Ab.field, u).apply_at(0, Ab.rho).apply_at(0, Ab.lam),
        (u,))
    inner = Ab.PhiLR.insert(3, oneH).slotwise_mul(
        Ab.right.PhiRhoInv.apply_at(0, Ab.lam), [H, A, H, H])
    Psi = inner.apply_at(1, Ab.lam).slotwise_mul(
        Ab.left.PhiLam.insert(3, oneH).insert(4, oneH), [H, H, A, H, H])
    inner = Ab.right.PhiRho.apply_at(0, Ab.lam).slotwise_mul(
        Ab.PhiLRInv.insert(3, oneH), [H, A, H, H])
    PsiInv = Ab.left.PhiLamInv.insert(3, oneH).insert(4, oneH) \
        .slotwise_mul(inner.apply_at(1, Ab.lam), [H, H, A, H, H])
    return TwoSidedCoaction(Hq, A, delta, Psi, PsiInv=PsiInv, name=name,
                            check=check)


# -- the five-slot exchange elements ------------------------------------------

@dataclass
class OmegaElement:
    value: TensorElt


def _omega_tail(Hq: QuasiHopfAlgebra, t: TensorElt) -> TensorElt:
    """The unprimed exchange element from the five-slot ``t`` (PsiInv,
    or its closed form): f multiplied into the last two slots, the two
    crossed, then S^{-1} on each."""
    H = Hq.H
    t = t.insert(3, Hq.drinfeld_twist().f).permute((0, 1, 2, 3, 5, 4, 6))
    t = t.mul_slots(3, 4, H).mul_slots(4, 5, H)
    return t.apply_at(3, Hq.SInv).apply_at(4, Hq.SInv)


def omega_from_coaction(d: TwoSidedCoaction, primed: bool = False) -> TensorElt:
    """The exchange element of a two-sided coaction, layout
    (H, H, A, H, H); the primed variant is the one for products with
    the bimodule-algebra factor on the right."""
    Hq = d.Hq
    if not primed:
        return _omega_tail(Hq, d.PsiInv)
    H = Hq.H
    t = d.Psi.insert(2, Hq.drinfeld_twist().f_inv) \
        .permute((0, 2, 1, 3, 4, 5, 6))
    t = t.mul_slots(0, 1, H).mul_slots(1, 2, H)
    return t.apply_at(0, Hq.SInv).apply_at(1, Hq.SInv)


def verify_omega(d: TwoSidedCoaction, Om: TensorElt,
                 primed: bool = False) -> Report:
    """The intertwining identity (per basis element) and the seven-slot
    cocycle identity of an exchange element, its counit normalisation
    (eps (x) eps (x) id (x) eps (x) eps)(Om) = 1_A, and invertibility; a
    primed element is checked slot-reversed, as the mirror's unprimed one."""
    if primed:
        return verify_omega(d.mirror(), Om.permute((4, 3, 2, 1, 0)))
    Hq, A = d.Hq, d.A
    H = Hq.H
    Hop = opposite(H)
    u = Var("u", A.dim)
    du = Program.basis(d.field, u).apply_at(0, d.delta)
    algs5 = [H, H, A, Hop, Hop]
    algs7 = [H, H, H, A, Hop, Hop, Hop]
    intertwiner = (
        du.apply_at(1, d.delta).apply_at(3, Hq.SInv)
        .apply_at(4, Hq.SInv).slotwise_mul(Om, algs5, left=True),
        du.apply_at(0, Hq.Delta).apply_at(3, Hq.SInv)
        .apply_at(3, Hq.Delta).permute((0, 1, 2, 4, 3))
        .slotwise_mul(Om, algs5))
    cocycle = (
        Program(Hq.Phi).insert(3, d.unit_elt())
        .tensor(Hq.PhiInv.permute((2, 1, 0)))
        .slotwise_mul(Om.apply_at(0, Hq.Delta).apply_at(5, Hq.Delta)
                      .permute((0, 1, 2, 3, 4, 6, 5)), algs7)
        .slotwise_mul(Om.apply_at(2, d.delta).apply_at(4, Hq.SInv), algs7),
        Program(Om).apply_at(1, Hq.Delta).apply_at(4, Hq.Delta)
        .permute((0, 1, 2, 3, 5, 4, 6))
        .slotwise_mul(Om.insert(0, Hq.unit_elt()).insert(6, Hq.unit_elt()),
                      algs7))
    counit = Program(Om)
    for pos in (4, 3, 1, 0):
        counit = counit.apply_at(pos, Hq.counit)
    rep = program_report([
        ("omega-intertwiner", *intertwiner, (u,)),
        ("omega-cocycle", *cocycle, ()),
        ("omega-counit", counit, Program(d.unit_elt()), ())])
    rep.check(invert_mixed(Om, [H, H, A, H, H]) is not None,
              "omega-invertible")
    return rep


def omega_closed_left(Ab: BicomoduleAlgebra) -> TensorElt:
    """Closed form of the exchange element for the side-l coaction."""
    Hq = Ab.Hq
    H = Hq.H
    A = Ab.A
    algs5 = [H, H, A, H, H]
    tP = Ab.right.PhiRho.apply_at(0, Ab.lam).apply_at(0, Hq.Delta)
    tL = Ab.left.PhiLamInv.insert(3, Hq.unit_elt()).insert(4, Hq.unit_elt())
    tT = Ab.PhiLRInv.apply_at(1, Ab.lam).insert(4, Hq.unit_elt())
    return _omega_tail(Hq, slotwise_prod([tP, tL, tT], algs5))


def omega_closed_right(Ab: BicomoduleAlgebra) -> TensorElt:
    """Closed form of the exchange element for the side-r coaction."""
    Hq = Ab.Hq
    H = Hq.H
    A = Ab.A
    algs5 = [H, H, A, H, H]
    tL = Ab.left.PhiLamInv.apply_at(2, Ab.rho).apply_at(3, Hq.Delta)
    tP = Ab.right.PhiRho.insert(0, Hq.unit_elt()).insert(0, Hq.unit_elt())
    tT = Ab.PhiLR.apply_at(1, Ab.rho).insert(0, Hq.unit_elt())
    return _omega_tail(Hq, slotwise_prod([tL, tP, tT], algs5))


def omega_elements(src: BicomoduleAlgebra, flavor: str,
                   check: bool = True) -> OmegaElement:
    """Build and certify an exchange element of a bicomodule algebra.

    The flavors are "left" (side-l), "right" (side-r) and their primed
    mates "left-primed"/"right-primed"; the unprimed ones are also
    compared against their closed forms, the primed ones against the
    slot-reversed unprimed elements of the mirrored coactions.  A
    two-sided coaction's element is ``omega_from_coaction``, certified by
    ``verify_omega``.
    """
    if not isinstance(src, BicomoduleAlgebra):
        raise TypeError("expected a bicomodule algebra")
    side = "l" if flavor.startswith("left") else "r"
    if flavor not in ("left", "right", "left-primed", "right-primed"):
        raise ValueError(f"unknown flavor {flavor!r}")
    d = two_sided_from_bicomodule(src, side, check=False)
    primed = flavor.endswith("primed")
    value = omega_from_coaction(d, primed=primed)
    if check:
        if not primed:
            label, other = "omega-closed-form", Program(
                omega_closed_left(src) if side == "l"
                else omega_closed_right(src))
        else:
            label, other = "omega-reversal", Program(
                omega_from_coaction(d.mirror())).permute((4, 3, 2, 1, 0))
        rep = verify_omega(d, value, primed=primed)
        rep.merge(program_report([(f"{label}: {flavor}", Program(value),
                                   other, ())]))
        rep.require(src.name or "bicomodule algebra")
    return OmegaElement(value)


# -- p / q for a two-sided coaction -------------------------------------------

def pq_delta(d: TwoSidedCoaction, check: bool = True) -> CanonicalPair:
    """p = Psi2 S^{-1}(Psi1 beta) (x) Psi3 (x) Psi4 beta S(Psi5) and
    q = S(PsiBar1) alpha PsiBar2 (x) PsiBar3 (x)
    S^{-1}(alpha PsiBar5) PsiBar4, with their defining relations."""
    Hq = d.Hq
    H = Hq.H
    t = d.Psi.insert(1, Hq.beta).mul_slots(0, 1, H)
    t = t.apply_at(0, Hq.SInv).mul_slots(1, 0, H)
    t = t.apply_at(3, Hq.S).insert(3, Hq.beta)
    p = t.mul_slots(2, 3, H).mul_slots(2, 3, H)
    t = d.PsiInv.apply_at(0, Hq.S).insert(1, Hq.alpha)
    t = t.mul_slots(0, 1, H).mul_slots(0, 1, H)
    t = t.insert(3, Hq.alpha).mul_slots(3, 4, H)
    q = t.apply_at(3, Hq.SInv).mul_slots(3, 2, H)
    pq = CanonicalPair(p, q)
    if check:
        verify_pq_delta(d, pq).require(d.name or "two-sided coaction")
    return pq


def verify_pq_delta(d: TwoSidedCoaction, pq: CanonicalPair) -> Report:
    Hq, A = d.Hq, d.A
    H = Hq.H
    p, q = pq.p, pq.q
    oneH = Hq.unit_elt()
    groups, algs = [(0, 1, 2), (3, 4), (5, 6, 7)], [H, A, H]
    algs5 = [H, H, A, H, H]
    one3 = Program(slotwise_unit(d.field, [H, A, H]))
    qd = q.apply_at(1, d.delta)
    # [S(Pb2)f1 x S(Pb1)f2 x 1 x S^{-1}(F2 Pb5) x S^{-1}(F1 Pb4)]
    #   (Delta x id x Delta)(q delta(Pb3))
    f = Hq.drinfeld_twist().f
    t = Program(d.PsiInv).apply_at(2, d.delta).insert(2, q)
    t = t.permute((0, 1, 2, 5, 3, 6, 4, 7, 8, 9))
    t = fold_slots(t, [(0,), (1,), (2, 3), (4, 5), (6, 7), (8,), (9,)],
                   [H, H, H, A, H, H, H])
    # [Pb1, Pb2, Q1, Q2, Q3, Pb4, Pb5] with Q = q delta(Pb3); each copy
    # of f is contracted as soon as it enters, the first beside S(Pb1)
    t = t.apply_at(0, Hq.S).apply_at(1, Hq.S).insert(2, f)
    t = t.mul_slots(1, 2, H).mul_slots(0, 2, H)
    # [S(Pb1)f2, S(Pb2)f1, Q1, Q2, Q3, Pb4, Pb5]; the second beside Pb4
    t = t.insert(5, f).mul_slots(6, 8, H).apply_at(6, Hq.SInv)
    t = t.mul_slots(5, 7, H).apply_at(5, Hq.SInv)
    # [S(Pb1)f2, S(Pb2)f1, Q1, Q2, Q3, S^{-1}(F1 Pb4), S^{-1}(F2 Pb5)]
    t = t.apply_at(2, Hq.Delta).apply_at(5, Hq.Delta)
    t = t.permute((1, 2, 0, 3, 4, 8, 5, 7, 6))
    # [S(Pb2)f1, Q1_1, S(Pb1)f2, Q1_2, Q2, S^{-1}(F2 Pb5), Q3_1,
    #  S^{-1}(F1 Pb4), Q3_2]
    coproduct = fold_slots(t, [(0, 1), (2, 3), (4,), (5, 6), (7, 8)], algs5)
    # S(Pb1) qL1 Pb2_1 x qL2 Pb2_2 x Pb3 x qR1 Pb4_1 x S^{-1}(Pb5) qR2 Pb4_2
    t = Program(d.PsiInv).apply_at(1, Hq.Delta).apply_at(4, Hq.Delta)
    t = t.apply_at(0, Hq.S).apply_at(6, Hq.SInv)
    # [S(Pb1), Pb2_1, Pb2_2, Pb3, Pb4_1, Pb4_2, S^{-1}(Pb5)]; each of
    # qL, qR is multiplied into its neighbours as soon as it enters
    t = t.insert(1, Hq.canonical_qL())
    t = t.mul_slots(0, 1, H).mul_slots(0, 2, H).mul_slots(1, 2, H)
    # [(S(Pb1) qL1) Pb2_1, qL2 Pb2_2, Pb3, Pb4_1, Pb4_2, S^{-1}(Pb5)]
    t = t.insert(3, Hq.canonical_qR())
    factorization = t.mul_slots(3, 5, H).mul_slots(6, 4, H) \
        .mul_slots(5, 4, H)
    u = Var("u", A.dim)
    u3 = Program(oneH).tensor(u).tensor(oneH)
    dd = Program.basis(d.field, u).apply_at(0, d.delta).apply_at(1, d.delta)
    return program_report([
        # p (1 x u x 1) = delta(u0) p [S^{-1}(u-1) x 1 x S(u1)]
        ("p-conjugation", u3.slotwise_mul(p, algs, left=True),
         fold_slots(dd.apply_at(0, Hq.SInv).apply_at(4, Hq.S).insert(5, p)
                    .permute((1, 5, 0, 2, 6, 3, 7, 4)), groups, algs), (u,)),
        # (1 x u x 1) q = [S(u-1) x 1 x S^{-1}(u1)] q delta(u0)
        ("q-conjugation", u3.slotwise_mul(q, algs),
         fold_slots(dd.apply_at(0, Hq.S).apply_at(4, Hq.SInv).insert(1, q)
                    .permute((0, 1, 4, 2, 5, 7, 3, 6)), groups, algs),
         (u,)),
        # delta(q2) p [S^{-1}(q1) x 1 x S(q3)] = 1
        ("qp-cancel",
         fold_slots(Program(qd).apply_at(0, Hq.SInv).apply_at(4, Hq.S)
                    .insert(5, p).permute((1, 5, 0, 2, 6, 3, 7, 4)),
                    groups, algs), one3, ()),
        # [S(p1) x 1 x S^{-1}(p3)] q delta(p2) = 1
        ("pq-cancel",
         fold_slots(Program(p).apply_at(1, d.delta).apply_at(0, Hq.S)
                    .apply_at(4, Hq.SInv).insert(1, q)
                    .permute((0, 1, 4, 2, 5, 7, 3, 6)), groups, algs),
         one3, ()),
        # coproduct = [1 x q x 1](id x delta x id)(q) Psi
        ("q-coproduct", coproduct,
         Program(q).insert(0, oneH).insert(4, oneH).slotwise_mul(qd, algs5)
         .slotwise_mul(d.Psi, algs5), ()),
        # q1 Psi1 x (q2)-1 Psi2 x (q2)0 Psi3 x (q2)1 Psi4 x q3 Psi5
        #   = factorization
        ("q-factorization", Program(qd).slotwise_mul(d.Psi, algs5),
         factorization, ())])


# -- the two mixed comodule structures over H (x) H^op ------------------------

def lambda12_structures(Ab: BicomoduleAlgebra, check: bool = True):
    """The two left comodule algebra structures over K = H (x) H^op
    carried by a bicomodule algebra.  Their mixed associators are
    computed as inverses of the rearranged exchange elements and, with
    ``check``, compared against the closed forms; returns (A1, A2, K)."""
    Hq = Ab.Hq
    K = tensor_qh(Hq, Hq.variant(op=True))
    H = Hq.H
    Hop = opposite(H)
    A = Ab.A
    n, m = Hq.n, A.dim
    fld = Ab.field
    mixed = [H, Hop, H, Hop, A]

    merge = reshape_map(fld, (n, n), (n * n,))
    u = Var("u", m)
    e = Program.basis(fld, u)
    lam1, lam2 = (
        linmap_from_program(t.apply_at(2, Hq.SInv).permute((0, 2, 1))
                            .apply_at(0, merge), (u,))
        for t in (e.apply_at(0, Ab.rho).apply_at(0, Ab.lam),
                  e.apply_at(0, Ab.lam).apply_at(1, Ab.rho)))

    def gS():
        g = Hq.drinfeld_twist().f_inv
        t = g.apply_at(0, Hq.SInv).apply_at(1, Hq.SInv).permute((1, 0))
        return t.insert(0, Hq.unit_elt()).insert(2, Hq.unit_elt()) \
            .insert(4, Ab.unit_elt())

    def closed_form_1():
        fLR = Ab.PhiLR.apply_at(1, Ab.lam).apply_at(3, Hq.SInv)
        fLR = fLR.insert(1, Hq.unit_elt()).permute((0, 1, 2, 4, 3))
        fLam = Ab.left.PhiLam.insert(1, Hq.unit_elt()) \
            .insert(3, Hq.unit_elt())
        fRho = Ab.right.PhiRhoInv.apply_at(0, Ab.lam).apply_at(0, Hq.Delta)
        fRho = fRho.apply_at(3, Hq.SInv).apply_at(4, Hq.SInv) \
            .permute((0, 4, 1, 3, 2))
        return slotwise_prod([fLR, fLam, fRho, gS()], mixed)

    def closed_form_2():
        gLam = Ab.left.PhiLam.apply_at(2, Ab.rho).apply_at(3, Hq.Delta)
        gLam = gLam.apply_at(3, Hq.SInv).apply_at(4, Hq.SInv) \
            .permute((0, 4, 1, 3, 2))
        gRho = Ab.right.PhiRhoInv.apply_at(1, Hq.SInv) \
            .apply_at(2, Hq.SInv).permute((2, 1, 0))
        gRho = gRho.insert(0, Hq.unit_elt()).insert(2, Hq.unit_elt())
        gTh = Ab.PhiLRInv.apply_at(1, Ab.rho) \
            .apply_at(2, Hq.SInv).apply_at(3, Hq.SInv)
        gTh = gTh.permute((3, 0, 2, 1)).insert(0, Hq.unit_elt())
        return slotwise_prod([gTh, gRho, gLam, gS()], mixed)

    def merged(t):
        return t.apply_at(0, merge).apply_at(1, merge)

    # the first structure inverts (Om1 x Om5) x (Om2 x Om4) x Om3, the
    # second (om1 x om5) x (om2 x om4) x om3; a closed form is built to
    # be compared, or to stand in for an exchange element that is not
    # invertible
    rep, parts = Report(), []
    for label, Om, closed_form in (
            ("first structure", omega_closed_left(Ab), closed_form_1),
            ("second structure", omega_closed_right(Ab), closed_form_2)):
        W = Om.permute((0, 4, 1, 3, 2))
        computed = invert_mixed(W, mixed)
        if check:
            rep.check(computed is not None, "exchange-invertible", label)
            if computed is not None:
                rep.merge(program_report([(
                    f"coaction-associator-closed-form: {label}",
                    Program(closed_form()), Program(computed), ())]))
        parts.append((closed_form() if computed is None else computed, W))
    if check:
        rep.require(Ab.name or "bicomodule algebra")
    A1, A2 = (LeftComoduleAlgebra(K, A, lam, merged(Phi),
                                  PhiLamInv=merged(W),
                                  name=f"{Ab.name}_{s}" if Ab.name else "",
                                  check=check)
              for s, lam, (Phi, W) in zip((1, 2), (lam1, lam2), parts))
    return A1, A2, K


def twist_equivalence_U(Ab: BicomoduleAlgebra, pair=None,
                        check: bool = True) -> TensorElt:
    """U = (Theta1 x S^{-1}(Theta3)) x Theta2, conjugating the first
    mixed comodule structure into the second; with ``check``, also
    certifies the two standalone exchange identities relating the side-l
    and side-r elements.  Returns U with the H (x) H^op factor merged."""
    Hq = Ab.Hq
    n = Hq.n
    U3 = Ab.PhiLR.apply_at(2, Hq.SInv).permute((0, 2, 1))
    merge = reshape_map(Ab.field, (n, n), (n * n,))
    if not check:
        return U3.apply_at(0, merge)
    H = Hq.H
    Hop = opposite(H)
    A = Ab.A
    f = Hq.drinfeld_twist().f
    Om = omega_closed_left(Ab)
    om = omega_closed_right(Ab)
    oneH = Hq.unit_elt()
    oneA = Ab.unit_elt()

    # exchange identity between the gluing element and the side-l element
    algsG = [H, H, A, Hop, Hop]
    # shared by both exchange identities
    tT = Ab.PhiLR.apply_at(0, Hq.Delta).apply_at(3, Hq.SInv) \
        .apply_at(3, Hq.Delta)
    hT = Ab.PhiLR.apply_at(0, Hq.Delta).apply_at(2, Ab.rho)
    hT = hT.apply_at(3, Hq.SInv).apply_at(4, Hq.SInv) \
        .permute((0, 1, 2, 4, 3))
    hTb = Ab.PhiLR.apply_at(2, Hq.SInv).insert(0, oneH).insert(3, oneH)
    hL = Ab.left.PhiLamInv.apply_at(2, Ab.rho).apply_at(3, Hq.SInv) \
        .insert(3, oneH)
    hR = Ab.right.PhiRho.apply_at(1, Hq.SInv).apply_at(2, Hq.SInv) \
        .permute((0, 2, 1)).insert(0, oneH).insert(0, oneH)
    hf = Program(f).apply_at(0, Hq.SInv).apply_at(1, Hq.SInv) \
        .permute((1, 0)).insert(0, oneA).insert(0, oneH).insert(0, oneH)
    gluing = (Program(tT).slotwise_mul(Om.permute((0, 1, 2, 4, 3)), algsG),
              hf.slotwise_mul(hR, algsG).slotwise_mul(hT, algsG)
              .slotwise_mul(hL, algsG).slotwise_mul(hTb, algsG))

    # exchange identity relating the side-l and side-r elements
    algsX = [H, Hop, H, Hop, A]
    tth = Ab.PhiLRInv.apply_at(1, Ab.rho).apply_at(1, Ab.lam)
    tth = tth.apply_at(3, Hq.SInv).apply_at(4, Hq.SInv) \
        .permute((0, 4, 1, 3, 2))
    sides = (Program(tT).permute((0, 3, 1, 4, 2))
             .slotwise_mul(Om.permute((0, 4, 1, 3, 2)), algsX)
             .slotwise_mul(tth, algsX),
             Program(om).permute((0, 4, 1, 3, 2))
             .slotwise_mul(U3.insert(0, oneH).insert(0, oneH), algsX))
    rep = program_report([("gluing-exchange", *gluing, ()),
                          ("sides-exchange", *sides, ())])

    # U conjugates the first mixed coaction into the second
    algsU = [H, Hop, A]
    Uinv3 = invert_mixed(U3, algsU)
    rep.check(Uinv3 is not None, "u-invertible")
    if Uinv3 is not None:
        A1, A2, K = pair or lambda12_structures(Ab, check=False)
        u = Var("u", A.dim)
        e = Program.basis(Ab.field, u)
        split = reshape_map(Ab.field, (n * n,), (n, n))
        mixed = [H, Hop, H, Hop, A]
        rep.merge(program_report([
            ("coaction-conjugation",
             e.apply_at(0, A1.lam).apply_at(0, split)
             .slotwise_mul(U3, algsU, left=True).slotwise_mul(Uinv3, algsU),
             e.apply_at(0, A2.lam).apply_at(0, split), (u,)),
            ("associator-twist",
             Program(U3).insert(0, oneH).insert(1, oneH)
             .slotwise_mul(U3.apply_at(2, A1.lam).apply_at(2, split), mixed)
             .slotwise_mul(A1.PhiLam.apply_at(0, split).apply_at(2, split),
                           mixed)
             .slotwise_mul(Uinv3.apply_at(0, merge).apply_at(0, K.Delta)
                           .apply_at(0, split).apply_at(2, split), mixed),
             Program(A2.PhiLam).apply_at(0, split).apply_at(2, split), ())]))
    rep.require(Ab.name or "bicomodule algebra")
    return U3.apply_at(0, merge)


# -- gauge twisting -----------------------------------------------------------

def twist_coaction(x, F: TensorElt, FInv: TensorElt, HF: QuasiHopfAlgebra):
    """Transport a comodule or bicomodule algebra across the gauge
    twist by F, with inverse ``FInv`` and twisted parent ``HF``,
    unchecked: coactions are unchanged; the right mixed associator
    becomes (1 x F) PhiRho, the left one PhiLam (FInv x 1), and the
    gluing element of a bicomodule algebra survives untouched."""
    H = x.Hq.H
    if isinstance(x, RightComoduleAlgebra):
        oneA = x.unit_elt()
        algs = [x.A, H, H]
        return RightComoduleAlgebra(
            HF, x.A, x.rho,
            F.insert(0, oneA).slotwise_mul(x.PhiRho, algs),
            PhiRhoInv=x.PhiRhoInv.slotwise_mul(FInv.insert(0, oneA), algs),
            name=x.name, check=False)
    if isinstance(x, LeftComoduleAlgebra):
        oneB = x.unit_elt()
        algs = [H, H, x.B]
        return LeftComoduleAlgebra(
            HF, x.B, x.lam,
            x.PhiLam.slotwise_mul(FInv.insert(2, oneB), algs),
            PhiLamInv=F.insert(2, oneB).slotwise_mul(x.PhiLamInv, algs),
            name=x.name, check=False)
    if isinstance(x, BicomoduleAlgebra):
        return BicomoduleAlgebra(twist_coaction(x.left, F, FInv, HF),
                                 twist_coaction(x.right, F, FInv, HF),
                                 x.PhiLR, PhiLRInv=x.PhiLRInv, name=x.name,
                                 check=False)
    raise TypeError("not a comodule or bicomodule algebra")

"""Quasi-bialgebras and quasi-Hopf algebras with exhaustive verifiers.

A quasi-bialgebra is an algebra H with coproduct Delta, counit eps and
an invertible associator Phi in H (x) H (x) H; coassociativity holds
only up to conjugation by Phi.  A quasi-Hopf algebra adds a bijective
antipode S together with distinguished elements alpha, beta.

All defining identities are checked on every basis element (or basis
tuple) of the relevant tensor power; verification returns a Report.
Every identity is a pair of slot programs (its two sides, each a
``tensors.Program`` over the basis variables it has, if any) compared
on every value by ``finalg.program_report``; that the coproduct is an
algebra map into H (x) H and the antipode an anti-algebra map are such
pairs too (``finalg.algebra_map_checks``).
The module also provides the opposite/coopposite variants, gauge
twisting, the Drinfeld twist with its defining identities, and the
canonical elements q_L, q_R, p_R with their intertwining relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finalg import (FinAlgebra, Report, algebra_map_checks, inverse_checks,
                     invert_or_raise, opposite, program_report, slotwise_unit,
                     tensor_algebra)
from .linalg import LinMap, reshape_map
from .tensors import (Program, TensorElt, Var, fold_slots,
                      linmap_from_program, permuted, slotwise_prod)


class QuasiBialgebra:
    """Algebra + coproduct + counit + invertible associator."""

    def __init__(self, H: FinAlgebra, Delta: LinMap, counit: LinMap,
                 Phi: TensorElt, PhiInv: TensorElt | None = None,
                 name: str = ""):
        n = H.dim
        if Delta.in_dims != (n,) or Delta.out_dims != (n, n):
            raise ValueError("coproduct must map (n,) -> (n, n)")
        if counit.in_dims != (n,) or counit.out_dims != ():
            raise ValueError("counit must be a functional on (n,)")
        if Phi.dims != (n, n, n):
            raise ValueError("associator must live in three tensor factors")
        self.H = H
        self.field = H.field
        self.Delta = Delta
        self.counit = counit
        self.Phi = Phi
        self.name = name or H.name
        if PhiInv is None:
            PhiInv = invert_or_raise(Phi, [H] * 3, "associator")
        self.PhiInv = PhiInv

    def __repr__(self):
        label = self.name or type(self).__name__
        return f"{label}(dim={self.n} over {self.field})"

    # -- basic helpers -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.H.dim

    def unit_elt(self, k: int = 1) -> TensorElt:
        return slotwise_unit(self.field, [self.H] * k)

    def basis_elt(self, i: int) -> TensorElt:
        return TensorElt.basis(self.field, (self.n,), (i,))

    def eps_scalar(self, t: TensorElt):
        """Value of the counit on a single-slot element."""
        return t.apply_at(0, self.counit).terms.get((), self.field.zero())

    # -- verification --------------------------------------------------------

    def _basis_var(self):
        """A variable over the basis of H, its basis vector and its
        coproduct as slot programs."""
        h = Var("h", self.n)
        e = Program.basis(self.field, h)
        return h, e, e.apply_at(0, self.Delta)

    def verify(self) -> Report:
        H, Delta, eps = self.H, self.Delta, self.counit
        h, e, d = self._basis_var()
        h2 = Var("h'", self.n)
        hh = Program.basis(self.field, h, h2)
        one = self.unit_elt()
        return program_report([
            *algebra_map_checks("coproduct/", Delta, H, [H, H]),
            # counit multiplicativity and normalization
            ("counit-multiplicative", hh.mul_slots(0, 1, H).apply_at(0, eps),
             hh.apply_at(0, eps).apply_at(0, eps), (h, h2)),
            ("counit-unital: eps(1) != 1", Program(one).apply_at(0, eps),
             Program(self.unit_elt(0)), ()),
            # Phi is invertible with the stored inverse
            *inverse_checks("associator-inverse", self.Phi, self.PhiInv,
                            [H] * 3, ("Phi", "PhiInv")),
            # (id x Delta)Delta(h) = Phi ((Delta x id)Delta(h)) Phi^{-1};
            # (eps x id)Delta = id = (id x eps)Delta
            ("coassociativity", d.apply_at(1, Delta),
             d.apply_at(0, Delta).slotwise_mul(self.Phi, H, left=True)
             .slotwise_mul(self.PhiInv, H), (h,)),
            ("counit-left", d.apply_at(0, eps), e, (h,)),
            ("counit-right", d.apply_at(1, eps), e, (h,)),
            # pentagon:
            # (1 x Phi)(id x Delta x id)(Phi)(Phi x 1)
            #   = (id x id x Delta)(Phi) (Delta x id x id)(Phi)
            ("pentagon", Program(self.Phi).insert(0, one)
             .slotwise_mul(self.Phi.apply_at(1, Delta), H)
             .slotwise_mul(self.Phi.tensor(one), H),
             Program(self.Phi).apply_at(2, Delta)
             .slotwise_mul(self.Phi.apply_at(0, Delta), H), ()),
            # counit kills the associator in every slot
            *((f"associator-counit: {tag} slot",
               Program(self.Phi).apply_at(pos, eps),
               Program(self.unit_elt(2)), ())
              for pos, tag in ((1, "middle"), (0, "first"), (2, "last")))])


class QuasiHopfAlgebra(QuasiBialgebra):
    """Quasi-bialgebra with bijective antipode S and elements alpha, beta."""

    def __init__(self, H: FinAlgebra, Delta: LinMap, counit: LinMap,
                 Phi: TensorElt, S: LinMap, alpha: TensorElt, beta: TensorElt,
                 PhiInv: TensorElt | None = None, SInv: LinMap | None = None,
                 name: str = ""):
        super().__init__(H, Delta, counit, Phi, PhiInv, name=name)
        n = self.n
        if S.in_dims != (n,) or S.out_dims != (n,):
            raise ValueError("antipode must map (n,) -> (n,)")
        if alpha.dims != (n,) or beta.dims != (n,):
            raise ValueError("alpha and beta are single-slot elements")
        self.S = S
        if SInv is None:
            SInv = S.inverse()
            if SInv is None:
                raise ValueError("antipode is not invertible")
        self.SInv = SInv
        self.alpha = alpha
        self.beta = beta
        self._drinfeld: DrinfeldTwist | None = None
        self._opcop: QuasiHopfAlgebra | None = None

    # -- verification --------------------------------------------------------

    def verify(self) -> Report:
        rep = super().verify()
        H, S, eps = self.H, self.S, self.counit
        rep.merge(program_report(algebra_map_checks("antipode/", S, H, H,
                                                    anti=True)))
        rank = S.rank()
        rep.check(rank == self.n, "antipode/bijective",
                  f"rank {rank} < {self.n}")
        h, e, d = self._basis_var()
        one = Program(self.unit_elt())
        rep.merge(program_report([
            ("antipode-inverse", e.apply_at(0, self.SInv).apply_at(0, S), e,
             (h,)),
            ("counit-antipode", e.apply_at(0, S).apply_at(0, eps),
             e.apply_at(0, eps), (h,)),
            ("normalization: eps(alpha) eps(beta) != 1",
             Program(self.alpha).tensor(self.beta).apply_at(0, eps)
             .apply_at(0, eps), Program(self.unit_elt(0)), ()),
            # S(h_1) alpha h_2 = eps(h) alpha,  h_1 beta S(h_2) = eps(h) beta
            *((tag, fold_slots(d.apply_at(pos, S).insert(1, x), [(0, 1, 2)],
                               H),
               Program(x).insert(0, h).apply_at(0, eps), (h,))
              for tag, pos, x in (("antipode-alpha", 0, self.alpha),
                                  ("antipode-beta", 1, self.beta))),
            # X^1 beta S(X^2) alpha X^3 = 1,  S(x^1) alpha x^2 beta S(x^3) = 1
            ("zigzag: on the associator",
             fold_slots(Program(self.Phi).apply_at(1, S).insert(1, self.beta)
                        .insert(3, self.alpha), [(0, 1, 2, 3, 4)], H),
             one, ()),
            ("zigzag: on the inverse associator",
             fold_slots(Program(self.PhiInv).apply_at(0, S).apply_at(2, S)
                        .insert(1, self.alpha).insert(3, self.beta),
                        [(0, 1, 2, 3, 4)], H), one, ())]))
        return rep

    # -- opposite / coopposite variants ---------------------------------------

    def variant(self, op: bool = False, cop: bool = False) -> "QuasiHopfAlgebra":
        """The same data with multiplication and/or comultiplication
        reversed, carrying the matching associator, antipode, alpha, beta."""
        H = opposite(self.H) if op else self.H
        Delta = permuted(self.Delta, (0,), (1, 0)) if cop else self.Delta
        if op and cop:
            Phi, PhiInv = self.Phi.permute((2, 1, 0)), \
                self.PhiInv.permute((2, 1, 0))
            S, SInv = self.S, self.SInv
            alpha, beta = self.beta, self.alpha
        elif op:
            Phi, PhiInv = self.PhiInv, self.Phi
            S, SInv = self.SInv, self.S
            alpha = self.beta.apply_at(0, self.SInv)
            beta = self.alpha.apply_at(0, self.SInv)
        elif cop:
            Phi, PhiInv = self.PhiInv.permute((2, 1, 0)), \
                self.Phi.permute((2, 1, 0))
            S, SInv = self.SInv, self.S
            alpha = self.alpha.apply_at(0, self.SInv)
            beta = self.beta.apply_at(0, self.SInv)
        else:
            return self
        tags = ("op" if op else "") + ("," if op and cop else "") \
            + ("cop" if cop else "")
        name = f"{self.name}^{{{tags}}}" if self.name else ""
        return QuasiHopfAlgebra(H, Delta, self.counit, Phi, S, alpha, beta,
                                PhiInv=PhiInv, SInv=SInv, name=name)

    def opcop(self) -> "QuasiHopfAlgebra":
        """H^{op,cop}, the parent of each ``mirror``, built once; its own
        op/cop parent is this algebra."""
        if self._opcop is None:
            self._opcop = self.variant(op=True, cop=True)
            self._opcop._opcop = self
        return self._opcop

    # -- gauge twisting --------------------------------------------------------

    def gauge_inverse(self, F: TensorElt,
                      FInv: TensorElt | None = None) -> TensorElt:
        """``FInv``, or the inverse of F when it is None, after checking
        that F is a gauge: an element of H (x) H with (eps x id)F =
        (id x eps)F = 1, invertible; raises ValueError otherwise."""
        n = self.n
        if F.dims != (n, n):
            raise ValueError("twist must live in two tensor factors")
        one = self.unit_elt()
        if F.apply_at(0, self.counit) != one \
                or F.apply_at(1, self.counit) != one:
            raise ValueError("twist is not counit-normalized")
        return invert_or_raise(F, [self.H] * 2, "twist") if FInv is None \
            else FInv

    def twisted(self, F: TensorElt) -> tuple:
        """``(FInv, HF)``: the inverse of the gauge F and H twisted by F."""
        FInv = invert_or_raise(F, [self.H, self.H], "twist")
        return FInv, self.gauge_twist(F, FInv=FInv)

    def gauge_twist(self, F: TensorElt,
                    FInv: TensorElt | None = None) -> "QuasiHopfAlgebra":
        """Twist by a gauge F (see ``gauge_inverse``); multiplication,
        counit and antipode survive."""
        FInv = self.gauge_inverse(F, FInv)
        one = self.unit_elt()
        h, _, d = self._basis_var()
        Delta_F = linmap_from_program(
            d.slotwise_mul(F, self.H, left=True).slotwise_mul(FInv, self.H),
            (h,))
        Phi_F = self._twisted_associator(F, FInv)
        PhiInv_F = slotwise_prod([F.tensor(one), F.apply_at(0, self.Delta),
                                  self.PhiInv, FInv.apply_at(1, self.Delta),
                                  one.tensor(FInv)], self.H)
        alpha_F = fold_slots(FInv.apply_at(0, self.S).insert(1, self.alpha),
                             [(0, 1, 2)], self.H)
        beta_F = fold_slots(F.apply_at(1, self.S).insert(1, self.beta),
                            [(0, 1, 2)], self.H)
        name = f"{self.name}_F" if self.name else ""
        return QuasiHopfAlgebra(self.H, Delta_F, self.counit, Phi_F, self.S,
                                alpha_F, beta_F, PhiInv=PhiInv_F,
                                SInv=self.SInv, name=name)

    def _twisted_associator(self, F: TensorElt,
                            FInv: TensorElt) -> TensorElt:
        """The associator of the gauge twist by F:
        (1 x F) (id x Delta)(F) Phi (Delta x id)(F^{-1}) (F^{-1} x 1)."""
        one = self.unit_elt()
        return slotwise_prod([one.tensor(F), F.apply_at(1, self.Delta),
                              self.Phi, FInv.apply_at(0, self.Delta),
                              FInv.tensor(one)], self.H)

    # -- the Drinfeld twist ------------------------------------------------------

    def drinfeld_twist(self) -> "DrinfeldTwist":
        """The canonical twist f with f Delta(S(h)) f^{-1} =
        (S x S)(swap Delta(h)), plus its companions gamma, delta."""
        if self._drinfeld is not None:
            return self._drinfeld
        one = self.unit_elt()
        A4 = slotwise_prod([self.Phi.tensor(one),
                            self.PhiInv.apply_at(0, self.Delta)], self.H)
        B4 = slotwise_prod([self.Phi.apply_at(0, self.Delta),
                            self.PhiInv.tensor(one)], self.H)
        # gamma = S(A^2) alpha A^3 (x) S(A^1) alpha A^4
        t = A4.apply_at(0, self.S).apply_at(1, self.S).permute((1, 2, 0, 3))
        gamma = fold_slots(t.insert(1, self.alpha).insert(4, self.alpha),
                           [(0, 1, 2), (3, 4, 5)], self.H)
        # delta = B^1 beta S(B^4) (x) B^2 beta S(B^3)
        t = B4.apply_at(2, self.S).apply_at(3, self.S).permute((0, 3, 1, 2))
        delta = fold_slots(t.insert(1, self.beta).insert(4, self.beta),
                           [(0, 1, 2), (3, 4, 5)], self.H)
        # f = (S x S)(swap Delta(x^1)) gamma Delta(x^2 beta S(x^3))
        t = self.PhiInv.apply_at(2, self.S).insert(2, self.beta)
        t = fold_slots(t, [(0,), (1, 2, 3)], self.H)
        t = t.apply_at(1, self.Delta).apply_at(0, self.Delta)
        t = t.apply_at(0, self.S).apply_at(1, self.S).permute((1, 0, 2, 3))
        t = t.insert(2, gamma).permute((0, 2, 4, 1, 3, 5))
        f = fold_slots(t, [(0, 1, 2), (3, 4, 5)], self.H)
        # f^{-1} = Delta(S(x^1) alpha x^2) delta (S x S)(swap Delta(x^3))
        t = self.PhiInv.apply_at(0, self.S).insert(1, self.alpha)
        t = fold_slots(t, [(0, 1, 2), (3,)], self.H)
        t = t.apply_at(0, self.Delta).apply_at(2, self.Delta)
        t = t.apply_at(2, self.S).apply_at(3, self.S).permute((0, 1, 3, 2))
        t = t.insert(2, delta).permute((0, 2, 4, 1, 3, 5))
        f_inv = fold_slots(t, [(0, 1, 2), (3, 4, 5)], self.H)
        self._drinfeld = DrinfeldTwist(f, f_inv, gamma, delta)
        return self._drinfeld

    def verify_drinfeld(self) -> Report:
        dt = self.drinfeld_twist()
        H, S, Delta = self.H, self.S, self.Delta
        h, e, d = self._basis_var()
        f, one = Program(dt.f), Program(self.unit_elt())
        return program_report([
            *inverse_checks("twist-inverse", dt.f, dt.f_inv, [H] * 2,
                            ("f", "f^{-1}")),
            # (eps x id)(f) = 1 = (id x eps)(f)
            ("twist-counit: first slot", f.apply_at(0, self.counit), one, ()),
            ("twist-counit: second slot", f.apply_at(1, self.counit), one,
             ()),
            ("twist-gamma", Program(self.alpha).apply_at(0, Delta)
             .slotwise_mul(dt.f, H, left=True), Program(dt.gamma), ()),
            ("twist-delta", Program(self.beta).apply_at(0, Delta)
             .slotwise_mul(dt.f_inv, H), Program(dt.delta), ()),
            # f Delta(S(h)) f^{-1} = (S x S)(swap Delta(h))
            ("antipode-anticoalgebra",
             e.apply_at(0, S).apply_at(0, Delta)
             .slotwise_mul(dt.f, H, left=True).slotwise_mul(dt.f_inv, H),
             d.permute((1, 0)).apply_at(0, S).apply_at(1, S), (h,)),
            # the associator twisted by f is (S x S x S)(X^3 (x) X^2 (x) X^1)
            ("twisted-associator",
             Program(self._twisted_associator(dt.f, dt.f_inv)),
             Program(self.Phi).permute((2, 1, 0)).apply_at(0, S)
             .apply_at(1, S).apply_at(2, S), ())])

    # -- canonical elements -----------------------------------------------------

    def canonical_qL(self) -> TensorElt:
        """q_L = S(x^1) alpha x^2 (x) x^3."""
        t = self.PhiInv.apply_at(0, self.S).insert(1, self.alpha)
        return fold_slots(t, [(0, 1, 2), (3,)], self.H)

    def canonical_qR(self) -> TensorElt:
        """q_R = X^1 (x) S^{-1}(alpha X^3) X^2."""
        t = self.Phi.insert(2, self.alpha).mul_slots(2, 3, self.H)
        return t.apply_at(2, self.SInv).mul_slots(2, 1, self.H)

    def canonical_pR(self) -> TensorElt:
        """p_R = x^1 (x) x^2 beta S(x^3)."""
        t = self.PhiInv.apply_at(2, self.S).insert(2, self.beta)
        return fold_slots(t, [(0,), (1, 2, 3)], self.H)

    def verify_canonical(self) -> Report:
        qL, qR, pR = self.canonical_qL(), self.canonical_qR(), \
            self.canonical_pR()
        H, S, Delta = self.H, self.S, self.Delta
        h, _, d = self._basis_var()
        return program_report([
            # (S(h_1) (x) 1) q_L Delta(h_2) = (1 (x) h) q_L
            ("left-intertwiner",
             fold_slots(d.apply_at(0, S).apply_at(1, Delta)
                        .insert(1, qL).permute((0, 1, 3, 2, 4)),
                        [(0, 1, 2), (3, 4)], H),
             Program(qL).insert(2, h).mul_slots(2, 1, H), (h,)),
            # (1 (x) S^{-1}(h_2)) q_R Delta(h_1) = (h (x) 1) q_R
            ("right-intertwiner",
             fold_slots(d.apply_at(1, self.SInv).apply_at(0, Delta)
                        .insert(2, qR).permute((2, 0, 4, 3, 1)),
                        [(0, 1), (2, 3, 4)], H),
             Program(qR).insert(0, h).mul_slots(0, 1, H), (h,)),
            # X^1 p^1_1 (x) X^2 p^1_2 (x) X^3 p^2
            #   = y^1 (x) y^2_1 p^1 (x) y^2_2 p^2 S(y^3)
            ("pentagon-p",
             Program(pR).apply_at(0, Delta).slotwise_mul(self.Phi, H,
                                                         left=True),
             fold_slots(Program(self.PhiInv).apply_at(1, Delta)
                        .apply_at(3, S).insert(3, pR)
                        .permute((0, 1, 3, 2, 4, 5)),
                        [(0,), (1, 2), (3, 4, 5)], H), ()),
            # q^1_1 y^1 (x) q^1_2 y^2 (x) S(q^2 y^3)
            #   = X^1 (x) q^1 X^2_1 (x) S(q^2 X^2_2) X^3
            ("pentagon-q",
             Program(qR).apply_at(0, Delta).tensor(self.PhiInv)
             .mul_slots(2, 5, H).mul_slots(0, 3, H).mul_slots(1, 3, H)
             .apply_at(2, S),
             Program(self.Phi).apply_at(1, Delta).insert(1, qR)
             .mul_slots(1, 3, H).mul_slots(2, 3, H).apply_at(2, S)
             .mul_slots(2, 3, H), ())])


def tensor_qh(H1: QuasiHopfAlgebra, H2: QuasiHopfAlgebra) -> QuasiHopfAlgebra:
    """The tensor-product quasi-Hopf algebra H1 (x) H2: componentwise
    coproduct and antipode, interleaved associator
    (X^1 x Y^1) x (X^2 x Y^2) x (X^3 x Y^3), alpha x alpha, beta x beta."""
    if H1.field != H2.field:
        raise ValueError("field mismatch")
    n1, n2 = H1.n, H2.n
    N = n1 * n2
    field = H1.field
    name = f"{H1.name}(x){H2.name}" if H1.name and H2.name else ""
    H = tensor_algebra(H1.H, H2.H)
    H.name = name

    h = Var("h", N)
    # e_h is e_i (x) e_j for h = (i, j) flat
    e = Program.basis(field, h).apply_at(0, reshape_map(field, (N,),
                                                        (n1, n2)))

    def interleaved(t, k):
        """``t`` in H1^k (x) H2^k as k flat slots of H1 (x) H2."""
        if k > 1:
            t = t.permute([s for r in range(k) for s in (r, k + r)])
        return t.apply_at(0, reshape_map(field, (n1, n2) * k, (N,) * k))

    def kron(f1, f2):
        return linmap_from_program(interleaved(
            e.apply_at(1, f2).apply_at(0, f1), len(f1.out_dims)), (h,))

    Delta = kron(H1.Delta, H2.Delta)
    counit = kron(H1.counit, H2.counit)
    S = kron(H1.S, H2.S)
    SInv = kron(H1.SInv, H2.SInv)
    Phi = interleaved(H1.Phi.tensor(H2.Phi), 3)
    PhiInv = interleaved(H1.PhiInv.tensor(H2.PhiInv), 3)
    alpha = interleaved(H1.alpha.tensor(H2.alpha), 1)
    beta = interleaved(H1.beta.tensor(H2.beta), 1)
    return QuasiHopfAlgebra(H, Delta, counit, Phi, S, alpha, beta,
                            PhiInv=PhiInv, SInv=SInv, name=name)


@dataclass
class DrinfeldTwist:
    f: TensorElt
    f_inv: TensorElt
    gamma: TensorElt
    delta: TensorElt

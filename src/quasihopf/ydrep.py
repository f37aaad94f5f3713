"""Bimodule coalgebras, Yetter-Drinfeld modules, and module translations.

Three layers:

* ``BimoduleCoalgebra`` - a coalgebra in the category of two-sided
  H-modules, with ``dual_of_bimodule_coalgebra`` turning its linear dual
  into a bimodule algebra under convolution.
* ``YDModule`` over a datum (H, A, C): a left A-module with a right
  C-coaction satisfying the two mixed compatibilities; ``yd_to_module``
  and ``module_to_yd`` are the mutually inverse translations to left
  modules over the diagonal product C* >< A, with ``yd_roundtrip_check``
  certifying both round trips and the embedding-pairing formula.
* ``sec8_correspondences`` - the module-category translations for the
  two-sided smash product A # H # B-bar: splitting and recombining the
  three partial actions, deriving the right module-algebra action from
  the left one, and checking every defining relation of the target
  categories exhaustively.

Categories are never reified: a "category isomorphism" is exercised as a
translation of structure matrices that lands in the target axiom set,
with both round trips the identity.  Each axiom stated for every basis
tuple is a pair of slot programs, its two sides, compared on all tuples
by ``finalg.program_report``.
"""

from __future__ import annotations

from .actions import BimoduleAlgebra, LeftModuleAlgebra, bar_construction
from .coactions import (BicomoduleAlgebra, mixed_translation_identity,
                        tilde_pq)
from .fields import Field
from .finalg import FinAlgebra, Report, mul_linmap, program_report
from .linalg import LinMap, reshape_map
from .products import ProductAlgebra, diag_crossed, two_sided_smash
from .quasihopf import QuasiHopfAlgebra
from .tensors import Program, TensorElt, Var, linmap_from_program


# -- bimodule coalgebras -----------------------------------------------------

class BimoduleCoalgebra:
    """A coalgebra carrying commuting left and right H-actions, with the
    comultiplication intertwining both actions and coassociative up to
    conjugation by the associator."""

    def __init__(self, Hq: QuasiHopfAlgebra, dim: int, comul: LinMap,
                 counit: LinMap, left: LinMap, right: LinMap,
                 name: str = "", check: bool = True):
        n = Hq.n
        if comul.in_dims != (dim,) or comul.out_dims != (dim, dim):
            raise ValueError("comultiplication must map (m,) -> (m, m)")
        if counit.in_dims != (dim,) or counit.out_dims != ():
            raise ValueError("counit must map (m,) -> scalars")
        if left.in_dims != (n, dim) or left.out_dims != (dim,):
            raise ValueError("left action must map (dim H, m) -> (m,)")
        if right.in_dims != (dim, n) or right.out_dims != (dim,):
            raise ValueError("right action must map (m, dim H) -> (m,)")
        self.Hq = Hq
        self.dim = dim
        self.comul = comul
        self.counit = counit
        self.left = left
        self.right = right
        self.name = name
        if check:
            self.verify().require(self.name or "bimodule coalgebra")

    @property
    def field(self) -> Field:
        return self.Hq.field

    def _act_phi(self, t: Program, phi: TensorElt, side: str) -> Program:
        """Multiply the three slots of ``t`` by the components of ``phi``
        through the left or right H-action."""
        if side == "left":
            t = t.insert(0, phi)
            # [p1, p2, p3, c1, c2, c3]
            t = t.permute((0, 3, 1, 4, 2, 5))
            t = t.apply_at(4, self.left).apply_at(2, self.left)
            return t.apply_at(0, self.left)
        t = t.insert(3, phi)
        # [c1, c2, c3, p1, p2, p3]
        t = t.permute((0, 3, 1, 4, 2, 5))
        t = t.apply_at(4, self.right).apply_at(2, self.right)
        return t.apply_at(0, self.right)

    def verify(self) -> Report:
        Hq = self.Hq
        fld = self.field
        c, h, h2 = Var("c", self.dim), Var("h", Hq.n), Var("h'", Hq.n)
        e = Program.basis(fld, c)
        d = e.apply_at(0, self.comul)
        hc, ch = Program.basis(fld, h, c), Program.basis(fld, c, h)
        hch = Program.basis(fld, h, c, h2)
        # conjugating the twice-iterated comultiplication by the
        # associator moves the inner copy to the other side
        coassoc = self._act_phi(self._act_phi(d.apply_at(0, self.comul),
                                              Hq.Phi, "left"),
                                Hq.PhiInv, "right")
        return program_report([
            ("counit-left", d.apply_at(0, self.counit), e, (c,)),
            ("counit-right", d.apply_at(1, self.counit), e, (c,)),
            ("comul-coassociative", coassoc, d.apply_at(1, self.comul),
             (c,)),
            # comultiplication intertwines both actions
            ("comul-left-module",
             hc.apply_at(0, self.left).apply_at(0, self.comul),
             hc.apply_at(0, Hq.Delta).permute((0, 2, 1))
             .apply_at(1, self.comul).permute((0, 1, 3, 2))
             .apply_at(2, self.left).apply_at(0, self.left), (h, c)),
            ("comul-right-module",
             ch.apply_at(0, self.right).apply_at(0, self.comul),
             ch.apply_at(1, Hq.Delta).apply_at(0, self.comul)
             .permute((0, 2, 1, 3))
             .apply_at(2, self.right).apply_at(0, self.right), (h, c)),
            # counit is a morphism of modules on both sides
            ("counit-left-module",
             hc.apply_at(0, self.left).apply_at(0, self.counit),
             hc.apply_at(1, self.counit).apply_at(0, Hq.counit), (h, c)),
            ("counit-right-module",
             ch.apply_at(0, self.right).apply_at(0, self.counit),
             ch.apply_at(0, self.counit).apply_at(0, Hq.counit), (h, c)),
            # the two actions commute
            ("actions-commute",
             hch.apply_at(1, self.right).apply_at(0, self.left),
             hch.apply_at(0, self.left).apply_at(0, self.right),
             (h, c, h2))])


def regular_bimodule_coalgebra(Hq: QuasiHopfAlgebra,
                               check: bool = True) -> BimoduleCoalgebra:
    """H itself, with its comultiplication and multiplication actions."""
    mul = mul_linmap(Hq.H)
    return BimoduleCoalgebra(Hq, Hq.n, Hq.Delta, Hq.counit, mul, mul,
                             name=Hq.name, check=check)


def dual_of_bimodule_coalgebra(C: BimoduleCoalgebra,
                               check: bool = True) -> BimoduleAlgebra:
    """The convolution algebra on the dual coordinates of C, a bimodule
    algebra with (h -> c* <- h')(c) = c*(h'.c.h), read off the integer
    columns of C's structure maps."""
    fld = C.field
    n, m = C.Hq.n, C.dim
    # e^i e^j = sum_k comul(c_k)[(i, j)] e^k
    rows = [[[] for _ in range(m)] for _ in range(m)]
    for k in range(m):
        for (i, j), c in C.comul.cols[(k,)]:
            rows[i][j].append((k, c))
    unit = TensorElt.from_num(fld, (m,), {
        idx: c for idx, col in C.counit.cols.items() for _, c in col},
        C.counit.den).to_flat()
    dual = FinAlgebra.from_int_rows(fld, C.comul.den, rows, unit,
                                    name=f"{C.name}*" if C.name else "")
    # (e_a -> e^i) = sum_k (c_k . e_a)[i] e^k and
    # (e^i <- e_a) = sum_k (e_a . c_k)[i] e^k
    left = {(a, i): [] for a in range(n) for i in range(m)}
    right = {(i, a): [] for i in range(m) for a in range(n)}
    for k in range(m):
        for a in range(n):
            for (i,), c in C.right.cols[(k, a)]:
                left[(a, i)].append(((k,), c))
            for (i,), c in C.left.cols[(a, k)]:
                right[(i, a)].append(((k,), c))
    left = LinMap(fld, (n, m), (m,), C.right.den, left)
    right = LinMap(fld, (m, n), (m,), C.left.den, right)
    return BimoduleAlgebra(C.Hq, dual, left, right, name=dual.name,
                           check=check)


# -- Yetter-Drinfeld modules -------------------------------------------------

class YDModule:
    """A left module over the bicomodule algebra A together with a right
    C-coaction, compatible with the two-sided costructure of A."""

    def __init__(self, Hq: QuasiHopfAlgebra, Ab: BicomoduleAlgebra,
                 C: BimoduleCoalgebra, dim: int, act: LinMap, coact: LinMap,
                 name: str = "", check: bool = True):
        mU, mC = Ab.A.dim, C.dim
        if act.in_dims != (mU, dim) or act.out_dims != (dim,):
            raise ValueError("action must map (dim A, m) -> (m,)")
        if coact.in_dims != (dim,) or coact.out_dims != (dim, mC):
            raise ValueError("coaction must map (m,) -> (m, dim C)")
        self.Hq = Hq
        self.Ab = Ab
        self.C = C
        self.dim = dim
        self.act = act
        self.coact = coact
        self.name = name
        if check:
            self.verify().require(self.name or "Yetter-Drinfeld module")

    @property
    def field(self) -> Field:
        return self.Hq.field

    def verify(self) -> Report:
        Ab, C = self.Ab, self.C
        fld = self.field
        mU = Ab.A.dim
        m, u, u2 = Var("m", self.dim), Var("u", mU), Var("u'", mU)
        em = Program.basis(fld, m)
        # coassociativity up to the three mixed associators:
        # coact twice on th2.m, then decorate with th1/th3, equals
        # comul after one coact on xl3.m decorated with the inverse
        # lambda and rho associators
        t = em.apply_at(0, self.coact).insert(0, Ab.PhiLRInv)
        # [t1, t2, t3, m0, m1]
        t = t.permute((0, 1, 3, 2, 4)).apply_at(1, self.act)
        t = t.apply_at(1, self.coact)
        # [t1, n0, n1, t3, m1]
        t = t.permute((1, 2, 0, 3, 4)).apply_at(1, C.right)
        lhs = t.apply_at(2, C.left)
        t = Program(Ab.left.PhiLamInv).insert(3, m).apply_at(2, self.act)
        t = t.apply_at(2, self.coact).apply_at(3, C.comul)
        # [x1l, x2l, w0, w11, w12]
        t = t.insert(0, Ab.right.PhiRhoInv)
        # [xr1, xr2, xr3, x1l, x2l, w0, w11, w12]
        t = t.permute((0, 5, 1, 2, 3, 4, 6, 7)).apply_at(0, self.act)
        # [W0, xr2, xr3, x1l, x2l, w11, w12]
        t = t.permute((0, 1, 5, 2, 3, 4, 6)).apply_at(1, C.left)
        # [W0, A1, xr3, x1l, x2l, w12]
        t = t.permute((0, 1, 3, 2, 4, 5)).apply_at(1, C.right)
        # [W0, C1, xr3, x2l, w12]
        t = t.permute((0, 1, 2, 4, 3)).apply_at(2, C.left)
        rhs = t.apply_at(2, C.right)
        return program_report([
            ("unit-action",
             Program(Ab.unit_elt()).tensor(m).apply_at(0, self.act), em,
             (m,)),
            ("coaction-counit",
             em.apply_at(0, self.coact).apply_at(1, C.counit), em, (m,)),
            ("mixed-coassociativity", lhs, rhs, (m,)),
            ("action-associative", *_associativity(mul_linmap(Ab.A),
                                                   self.act, m, u, u2)),
            # the coaction intertwines the action through the two
            # one-sided coactions of A
            ("action-coaction-exchange",
             Program.basis(fld, u).apply_at(0, Ab.rho).insert(2, m)
             .apply_at(2, self.coact).permute((0, 2, 1, 3))
             .apply_at(0, self.act).apply_at(1, C.left),
             Program.basis(fld, u).apply_at(0, Ab.lam).insert(2, m)
             .apply_at(1, self.act).apply_at(1, self.coact)
             .permute((1, 2, 0)).apply_at(1, C.right), (m, u))])


def _associativity(mul: LinMap, act: LinMap, m: Var, a: Var, a2: Var):
    """(a a').m = a.(a'.m) as (lhs, rhs, variables), the variables in
    the order (m, a, a')."""
    fld = act.field
    return (Program.basis(fld, a, a2).apply_at(0, mul).tensor(m)
            .apply_at(0, act),
            Program.basis(fld, a2, m).apply_at(0, act).insert(0, a)
            .apply_at(0, act), (m, a, a2))


def yd_product(Ab: BicomoduleAlgebra, C: BimoduleCoalgebra):
    """The dual C* and the diagonal product C* >< A carrying the
    translated modules, both unchecked."""
    dual = dual_of_bimodule_coalgebra(C, check=False)
    return dual, diag_crossed(dual, Ab, "bowtie", check=False)


def _pairing(fld: Field, n: int) -> LinMap:
    """<c^i, c_j> = delta_ij: the pairing of a space with its dual."""
    return LinMap(fld, (n, n), (), 1, {
        (i, j): [((), 1)] if i == j else []
        for i in range(n) for j in range(n)})


def yd_to_module(M: YDModule, prod: ProductAlgebra):
    """(c* >< u) m = <c*, q~2 . (u.m)_(1)> q~1 . (u.m)_(0): the left
    module over ``prod``, the product C* >< A of ``yd_product``, carried
    by a Yetter-Drinfeld module; certified."""
    Ab, C = M.Ab, M.C
    fld = M.field
    mU, mC, mM = Ab.A.dim, C.dim, M.dim
    q = tilde_pq(Ab.right, check=False).q
    x, m = Var("x", mC * mU), Var("m", mM)
    t = Program.basis(fld, x).apply_at(0, reshape_map(fld, (mC * mU,),
                                                      (mC, mU)))
    t = t.tensor(m).apply_at(1, M.act).apply_at(1, M.coact).insert(1, q)
    # [c*, q1, q2, m0, m1]    m0 (x) m1 the coaction of u.m
    t = t.permute((0, 1, 3, 2, 4)).apply_at(3, C.left).apply_at(1, M.act)
    # [c*, q1 m0, q2 m1] -> <c*, q2 m1> q1 m0
    act = linmap_from_program(
        t.permute((1, 0, 2)).apply_at(1, _pairing(fld, mC)), (x, m))
    return FinModule(prod.result, mM, act, name=M.name)


class FinModule:
    """A left module over a finite-dimensional algebra, verified on all
    basis pairs."""

    def __init__(self, algebra: FinAlgebra, dim: int, act: LinMap,
                 name: str = "", check: bool = True):
        if act.in_dims != (algebra.dim, dim) or act.out_dims != (dim,):
            raise ValueError("action must map (dim algebra, m) -> (m,)")
        self.algebra = algebra
        self.dim = dim
        self.act = act
        self.name = name
        if check:
            self.verify().require(self.name or "module")

    @property
    def field(self) -> Field:
        return self.algebra.field

    def verify(self) -> Report:
        alg = self.algebra
        fld = self.field
        m, a, a2 = Var("m", self.dim), Var("a", alg.dim), Var("a'", alg.dim)
        unit = TensorElt.from_vector(fld, alg.unit)
        return program_report([
            ("unit-action", Program(unit).tensor(m).apply_at(0, self.act),
             Program.basis(fld, m), (m,)),
            ("action-associative", *_associativity(mul_linmap(alg),
                                                   self.act, m, a, a2))])


def regular_module(alg: FinAlgebra) -> FinModule:
    """The algebra acting on itself by left multiplication, unchecked."""
    return FinModule(alg, alg.dim, mul_linmap(alg), name=alg.name,
                     check=False)


def module_to_yd(M: FinModule, Ab: BicomoduleAlgebra, C: BimoduleCoalgebra,
                 check: bool = True) -> YDModule:
    """u.m = (counit >< u) m and the coaction built from the canonical
    pair of the right coaction of A, inverse to ``yd_to_module``."""
    Hq = Ab.Hq
    fld = Hq.field
    mU, mC, mM = Ab.A.dim, C.dim, M.dim
    if M.algebra.dim != mC * mU:
        raise ValueError("module is not over the matching diagonal product")
    # the counit of C as an element of C*
    eps = TensorElt.from_num(fld, (mC,), {
        k: c for k, col in C.counit.cols.items() for _, c in col},
        C.counit.den)
    merge = reshape_map(fld, (mC, mU), (mC * mU,))
    u, m = Var("u", mU), Var("m", mM)
    act = linmap_from_program(Program(eps).tensor(u).apply_at(0, merge)
                              .tensor(m).apply_at(0, M.act), (u, m))
    p = tilde_pq(Ab.right, check=False).p
    dual_pairs = TensorElt(fld, (mC, mC),
                           {(i, i): fld.one() for i in range(mC)})
    t = p.apply_at(0, Ab.lam).apply_at(2, Hq.SInv)
    # [pm, p0, S]
    t = t.insert(1, dual_pairs)
    # [pm, cdual, cC, p0, S]
    t = t.permute((0, 2, 4, 1, 3)).apply_at(3, merge)
    # [pm, cC, S, cdual (x) p0]
    t = Program(t).insert(4, m).apply_at(3, M.act)
    # [pm, cC, S, m']
    t = t.permute((3, 1, 0, 2)).apply_at(1, C.right)
    # [m', cC pm, S]
    coact = linmap_from_program(t.permute((0, 2, 1)).apply_at(1, C.left),
                                (m,))
    return YDModule(Hq, Ab, C, mM, act, coact, name=M.name, check=check)


def yd_roundtrip_check(Hq: QuasiHopfAlgebra, Ab: BicomoduleAlgebra,
                       C: BimoduleCoalgebra) -> Report:
    """Both round trips of the two translations, from the regular module
    of C* >< A, are the identity on the structure matrices, and the
    canonical bimodule embedding acts by the coaction pairing."""
    from .isomaps import gamma_map
    dual, prod = yd_product(Ab, C)
    M = regular_module(prod.result)
    rep = program_report([
        ("translation-identity: the canonical-pair rearrangement fails",
         *mixed_translation_identity(Ab), ())])
    yd = module_to_yd(M, Ab, C, check=True)
    back = yd_to_module(yd, prod)
    rep.check(back.act == M.act, "roundtrip",
              "module -> YD -> module changed the action")
    yd2 = module_to_yd(back, Ab, C, check=False)
    rep.check(yd2.act == yd.act and yd2.coact == yd.coact,
              "roundtrip", "YD -> module -> YD changed the structures")
    # the bimodule embedding acts by <c*, m_(1)> m_(0)
    fld = Hq.field
    mC = C.dim
    c, m = Var("c", mC), Var("m", yd.dim)
    gamma = gamma_map(dual, Ab, check=False)
    rep.merge(program_report([
        ("embedding-pairing",
         Program.basis(fld, c).apply_at(0, gamma)
         .apply_at(0, reshape_map(fld, (mC, Ab.A.dim), (prod.result.dim,)))
         .insert(1, m).apply_at(0, back.act),
         Program.basis(fld, m).apply_at(0, yd.coact).insert(2, c)
         .apply_at(1, _pairing(fld, mC)), (c, m))]))
    return rep


# -- module-category translations for the two-sided smash product ------------

def sec8_correspondences(Hq: QuasiHopfAlgebra, Am: LeftModuleAlgebra,
                         Dm: LeftModuleAlgebra) -> Report:
    """Split the regular module of A # H # D-bar into its three partial
    actions, verify every defining relation of the corresponding
    two-sided module category, derive the right D-action from the
    left one through the canonical pair, and certify both round trips."""
    rep = Report()
    fld = Hq.field
    n = Hq.n
    mA, mD = Am.A.dim, Dm.A.dim
    Dbar = bar_construction(Dm)
    prod = two_sided_smash(Am, Dbar, check=False)
    M = regular_module(prod.result)
    mM = M.dim
    unitA = Am.unit_elt()
    unitH = Hq.unit_elt()
    unitD = TensorElt.from_vector(fld, Dbar.B.unit)
    flat = reshape_map(fld, (mA, n, mD), (M.algebra.dim,))
    m = Var("m", mM)

    def partial(pos, dim):
        # acting by a basis element of the factor at pos, units elsewhere
        x = Var("x", dim)
        u1, u2 = (u for s, u in enumerate((unitA, unitH, unitD)) if s != pos)
        return linmap_from_program(
            Program(u1.tensor(u2)).insert(pos, x).apply_at(0, flat)
            .insert(1, m).apply_at(0, M.act), (x, m))

    actA = partial(0, mA)
    actH = partial(1, n)
    actB = partial(2, mD)

    Aact, Bact, X = Am.action, Dbar.action, Hq.PhiInv
    h = Var("h", n)
    a, a2 = Var("a", mA), Var("a'", mA)
    b, b2 = Var("b", mD), Var("b'", mD)
    rep.merge(program_report([
        # recombination: acting by a # h # b equals acting by the three
        # parts in order
        ("recombination",
         Program.basis(fld, b, m).apply_at(0, actB).insert(0, h)
         .apply_at(0, actH).insert(0, a).apply_at(0, actA),
         Program.basis(fld, a, h, b)
         .apply_at(0, flat).tensor(m).apply_at(0, M.act), (m, a, h, b)),
        # left weak action relation against the associator
        ("left-action-associator",
         Program.basis(fld, a2, m).apply_at(0, actA).insert(0, a)
         .apply_at(0, actA),
         Program(X).insert(1, a).apply_at(0, Aact).insert(2, a2)
         .apply_at(1, Aact).mul_slots(0, 1, Am.A).insert(2, m)
         .apply_at(1, actH).apply_at(0, actA), (m, a, a2)),
        # H compatibility of the left weak action
        ("left-action-H-compat",
         Program.basis(fld, a, m).apply_at(0, actA).insert(0, h)
         .apply_at(0, actH),
         Program.basis(fld, h).apply_at(0, Hq.Delta).insert(1, a)
         .apply_at(0, Aact).insert(2, m).apply_at(1, actH)
         .apply_at(0, actA), (m, a, h)),
        # right-module weak action relation
        ("right-action-associator",
         Program.basis(fld, b2, m).apply_at(0, actB).insert(0, b)
         .apply_at(0, actB),
         Program(X).insert(1, b).apply_at(1, Bact).insert(2, b2)
         .apply_at(2, Bact).mul_slots(1, 2, Dbar.B).insert(2, m)
         .apply_at(1, actB).apply_at(0, actH), (m, b, b2)),
        ("right-action-H-compat",
         Program.basis(fld, h, m).apply_at(0, actH).insert(0, b)
         .apply_at(0, actB),
         Program.basis(fld, h).apply_at(0, Hq.Delta).insert(1, b)
         .apply_at(1, Bact).insert(2, m).apply_at(1, actB)
         .apply_at(0, actH), (m, b, h)),
        # exchanging the two weak actions across the associator
        ("weak-actions-exchange",
         Program.basis(fld, a, m).apply_at(0, actA).insert(0, b)
         .apply_at(0, actB),
         Program(X).insert(1, a).apply_at(0, Aact).insert(2, b)
         .apply_at(2, Bact).insert(3, m).apply_at(2, actB)
         .apply_at(1, actH).apply_at(0, actA), (m, b, a))]))

    # the derived right D-action m.d = q1 |> ((S(q2).d) * m)
    qR = Hq.canonical_qR()
    pR = Hq.canonical_pR()

    Dact = Dm.action
    d, d2 = Var("d", mD), Var("d'", mD)
    # [q1, S(q2), d, m] -> q1 |> ((S(q2).d) * m)
    actR = linmap_from_program(
        Program(qR.apply_at(1, Hq.S)).insert(2, d).apply_at(1, Dact)
        .insert(2, m).apply_at(1, actB).apply_at(0, actH), (m, d))
    rep.merge(program_report([
        # the right action associates across the associator
        ("derived-right-associator",
         Program.basis(fld, m, d).apply_at(0, actR).insert(1, d2)
         .apply_at(0, actR),
         Program(Hq.Phi).insert(1, m).apply_at(0, actH).insert(2, d)
         .apply_at(1, Dact).insert(3, d2).apply_at(2, Dact)
         .mul_slots(1, 2, Dm.A).apply_at(0, actR), (m, d, d2)),
        ("derived-right-H-compat",
         Program.basis(fld, m, d).apply_at(0, actR).insert(0, h)
         .apply_at(0, actH),
         Program.basis(fld, h).apply_at(0, Hq.Delta).insert(1, m)
         .apply_at(0, actH).insert(2, d).apply_at(1, Dact)
         .apply_at(0, actR), (m, d, h)),
        # round trip one: translating back through the canonical pair
        # recovers the weak action
        ("roundtrip-weak-action",
         Program(pR).insert(2, d).apply_at(1, Dact).insert(1, m)
         .apply_at(0, actH).apply_at(0, actR),
         Program.basis(fld, d, m).apply_at(0, actB), (m, d)),
        # round trip two: rebuilding the right action from the
        # recovered weak action is the identity
        ("roundtrip-right-action",
         Program(qR.apply_at(1, Hq.S)).insert(2, d).apply_at(1, Dact)
         .insert(1, pR).apply_at(2, Dact).insert(2, m).apply_at(1, actH)
         .apply_at(1, actR).apply_at(0, actH),
         Program.basis(fld, m, d).apply_at(0, actR), (m, d)),
        # two-sided exchange across the associator
        ("two-sided-exchange",
         Program.basis(fld, a, m).apply_at(0, actA).insert(1, d)
         .apply_at(0, actR),
         Program(Hq.Phi).insert(1, a).apply_at(0, Aact).insert(3, d)
         .apply_at(2, Dact).insert(2, m).apply_at(1, actH)
         .apply_at(1, actR).apply_at(0, actA), (m, d, a))]))
    return rep

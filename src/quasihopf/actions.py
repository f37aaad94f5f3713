"""Module algebras over a quasi-Hopf algebra.

Left/right module algebras are algebras in the module category: their
multiplication is associative only up to the associator acting on the
factors, so plain associativity is never asserted here.  Bimodule
algebras carry commuting left and right actions.  The module also
builds the dual H* with convolution, the twisted structures over a
gauge-twisted parent, the reversed ("bar") module algebra, and the view
of a bimodule algebra as a left module algebra over H (x) H^op.
"""

from __future__ import annotations

from .finalg import FinAlgebra, Report, algebra_from_pair_fn, invert_mixed
from .linalg import LinMap, prod, unflatten
from .quasihopf import QuasiHopfAlgebra
from .tensors import TensorElt, linmap_from_fn


def _scan(rep: Report, tag: str, dims, lhs_fn, rhs_fn, limit: int = 10):
    """Compare two TensorElt-valued basis functions on every index."""
    count = 0
    for flat in range(prod(dims)):
        idx = unflatten(dims, flat)
        if lhs_fn(idx) != rhs_fn(idx):
            rep.add(tag, f"basis {idx}")
            count += 1
            if count >= limit:
                return


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

    def basis_elt(self, i: int) -> TensorElt:
        return TensorElt.basis(self.field, (self.A.dim,), (i,))

    def unit_elt(self) -> TensorElt:
        return TensorElt.from_vector(self.field, self.A.unit)

    def verify(self) -> Report:
        rep = Report()
        Hq, A, act = self.Hq, self.A, self.action
        n, m = Hq.n, A.dim
        fld = self.field
        # left module laws
        _scan(rep, "unit-action", (m,),
              lambda idx: Hq.unit_elt().tensor(self.basis_elt(idx[0]))
              .apply_at(0, act),
              lambda idx: self.basis_elt(idx[0]))
        _scan(rep, "action-associative", (n, n, m),
              lambda idx: TensorElt.basis(fld, (n, n, m), idx)
              .apply_at(1, act).apply_at(0, act),
              lambda idx: TensorElt.basis(fld, (n, n, m), idx)
              .mul_slots(0, 1, Hq.H).apply_at(0, act))
        # (aa')a'' = (X^1.a)[(X^2.a')(X^3.a'')]
        def ma1_rhs(idx):
            t = Hq.Phi.tensor(TensorElt.basis(fld, (m, m, m), idx))
            t = t.permute((0, 3, 1, 4, 2, 5))
            t = t.apply_at(0, act).apply_at(1, act).apply_at(2, act)
            return t.mul_slots(1, 2, A).mul_slots(0, 1, A)

        _scan(rep, "product-pentagon", (m, m, m),
              lambda idx: TensorElt.basis(fld, (m, m, m), idx)
              .mul_slots(0, 1, A).mul_slots(0, 1, A),
              ma1_rhs)
        # h.(aa') = (h_1.a)(h_2.a')
        _scan(rep, "action-multiplicative", (n, m, m),
              lambda idx: TensorElt.basis(fld, (n, m, m), idx)
              .mul_slots(1, 2, A).apply_at(0, act),
              lambda idx: TensorElt.basis(fld, (n, m, m), idx)
              .apply_at(0, Hq.Delta).permute((0, 2, 1, 3))
              .apply_at(0, act).apply_at(1, act).mul_slots(0, 1, A))
        # h.1 = eps(h) 1
        _scan(rep, "action-unital", (n,),
              lambda idx: Hq.basis_elt(idx[0]).tensor(self.unit_elt())
              .apply_at(0, act),
              lambda idx: self.unit_elt().scale(
                  Hq.eps_scalar(Hq.basis_elt(idx[0]))))
        return rep


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

    def basis_elt(self, i: int) -> TensorElt:
        return TensorElt.basis(self.field, (self.B.dim,), (i,))

    def unit_elt(self) -> TensorElt:
        return TensorElt.from_vector(self.field, self.B.unit)

    def verify(self) -> Report:
        rep = Report()
        Hq, B, act = self.Hq, self.B, self.action
        n, m = Hq.n, B.dim
        fld = self.field
        _scan(rep, "unit-action", (m,),
              lambda idx: self.basis_elt(idx[0]).tensor(Hq.unit_elt())
              .apply_at(0, act),
              lambda idx: self.basis_elt(idx[0]))
        _scan(rep, "action-associative", (m, n, n),
              lambda idx: TensorElt.basis(fld, (m, n, n), idx)
              .apply_at(0, act).apply_at(0, act),
              lambda idx: TensorElt.basis(fld, (m, n, n), idx)
              .mul_slots(1, 2, Hq.H).apply_at(0, act))
        # (bb')b'' = (b.x^1)[(b'.x^2)(b''.x^3)]
        def rma1_rhs(idx):
            t = TensorElt.basis(fld, (m, m, m), idx).tensor(Hq.PhiInv)
            t = t.permute((0, 3, 1, 4, 2, 5))
            t = t.apply_at(0, act).apply_at(1, act).apply_at(2, act)
            return t.mul_slots(1, 2, B).mul_slots(0, 1, B)

        _scan(rep, "product-pentagon", (m, m, m),
              lambda idx: TensorElt.basis(fld, (m, m, m), idx)
              .mul_slots(0, 1, B).mul_slots(0, 1, B),
              rma1_rhs)
        # (bb').h = (b.h_1)(b'.h_2)
        _scan(rep, "action-multiplicative", (m, m, n),
              lambda idx: TensorElt.basis(fld, (m, m, n), idx)
              .mul_slots(0, 1, B).apply_at(0, act),
              lambda idx: TensorElt.basis(fld, (m, m, n), idx)
              .apply_at(2, Hq.Delta).permute((0, 2, 1, 3))
              .apply_at(0, act).apply_at(1, act).mul_slots(0, 1, B))
        _scan(rep, "action-unital", (n,),
              lambda idx: self.unit_elt().tensor(Hq.basis_elt(idx[0]))
              .apply_at(0, act),
              lambda idx: self.unit_elt().scale(
                  Hq.eps_scalar(Hq.basis_elt(idx[0]))))
        return rep


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
        rep = Report()
        Hq, A = self.Hq, self.A
        left, right = self.left, self.right
        n, m = Hq.n, A.dim
        fld = self.field
        _scan(rep, "unit-action-left", (m,),
              lambda idx: Hq.unit_elt().tensor(self.basis_elt(idx[0]))
              .apply_at(0, left),
              lambda idx: self.basis_elt(idx[0]))
        _scan(rep, "unit-action-right", (m,),
              lambda idx: self.basis_elt(idx[0]).tensor(Hq.unit_elt())
              .apply_at(0, right),
              lambda idx: self.basis_elt(idx[0]))
        _scan(rep, "left-action-associative", (n, n, m),
              lambda idx: TensorElt.basis(fld, (n, n, m), idx)
              .apply_at(1, left).apply_at(0, left),
              lambda idx: TensorElt.basis(fld, (n, n, m), idx)
              .mul_slots(0, 1, Hq.H).apply_at(0, left))
        _scan(rep, "right-action-associative", (m, n, n),
              lambda idx: TensorElt.basis(fld, (m, n, n), idx)
              .apply_at(0, right).apply_at(0, right),
              lambda idx: TensorElt.basis(fld, (m, n, n), idx)
              .mul_slots(1, 2, Hq.H).apply_at(0, right))
        _scan(rep, "actions-commute", (n, m, n),
              lambda idx: TensorElt.basis(fld, (n, m, n), idx)
              .apply_at(0, left).apply_at(0, right),
              lambda idx: TensorElt.basis(fld, (n, m, n), idx)
              .apply_at(1, right).apply_at(0, left))
        # (pp')p'' = (X^1.p.x^1)[(X^2.p'.x^2)(X^3.p''.x^3)]
        def bma1_rhs(idx):
            t = Hq.Phi.tensor(TensorElt.basis(fld, (m, m, m), idx)) \
                .tensor(Hq.PhiInv)
            t = t.permute((0, 3, 6, 1, 4, 7, 2, 5, 8))
            for k in range(3):
                t = t.apply_at(k, left).apply_at(k, right)
            return t.mul_slots(1, 2, A).mul_slots(0, 1, A)

        _scan(rep, "product-pentagon", (m, m, m),
              lambda idx: TensorElt.basis(fld, (m, m, m), idx)
              .mul_slots(0, 1, A).mul_slots(0, 1, A),
              bma1_rhs)
        _scan(rep, "left-action-multiplicative", (n, m, m),
              lambda idx: TensorElt.basis(fld, (n, m, m), idx)
              .mul_slots(1, 2, A).apply_at(0, left),
              lambda idx: TensorElt.basis(fld, (n, m, m), idx)
              .apply_at(0, Hq.Delta).permute((0, 2, 1, 3))
              .apply_at(0, left).apply_at(1, left).mul_slots(0, 1, A))
        _scan(rep, "right-action-multiplicative", (m, m, n),
              lambda idx: TensorElt.basis(fld, (m, m, n), idx)
              .mul_slots(0, 1, A).apply_at(0, right),
              lambda idx: TensorElt.basis(fld, (m, m, n), idx)
              .apply_at(2, Hq.Delta).permute((0, 2, 1, 3))
              .apply_at(0, right).apply_at(1, right).mul_slots(0, 1, A))
        _scan(rep, "action-unital-left", (n,),
              lambda idx: Hq.basis_elt(idx[0]).tensor(self.unit_elt())
              .apply_at(0, left),
              lambda idx: self.unit_elt().scale(
                  Hq.eps_scalar(Hq.basis_elt(idx[0]))))
        _scan(rep, "action-unital-right", (n,),
              lambda idx: self.unit_elt().tensor(Hq.basis_elt(idx[0]))
              .apply_at(0, right),
              lambda idx: self.unit_elt().scale(
                  Hq.eps_scalar(Hq.basis_elt(idx[0]))))
        return rep


# -- constructions ------------------------------------------------------------

def dual_bimodule_algebra(Hq: QuasiHopfAlgebra,
                          check: bool = True) -> BimoduleAlgebra:
    """H* with convolution <pq, h> = p(h_1)q(h_2), unit eps, and actions
    <h -> p, h'> = p(h'h), <p <- h, h'> = p(hh')."""
    n = Hq.n
    fld = Hq.field
    # e^i e^j = sum_k Delta(e_k)[(i, j)] e^k
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for (i, j), c in Hq.Delta.cols[(k,)]:
            rows[i][j].append((k, c))
    unit = [Hq.eps_scalar(Hq.basis_elt(k)) for k in range(n)]
    A = FinAlgebra.from_int_rows(fld, Hq.Delta.den, rows, unit,
                                 name=f"{Hq.name}*" if Hq.name else "dual")
    # (e_a -> e^i) = sum_j (e_j e_a)[i] e^j and
    # (e^i <- e_a) = sum_j (e_a e_j)[i] e^j, read off the product rows
    left = {(a, i): [] for a in range(n) for i in range(n)}
    right = {(i, a): [] for i in range(n) for a in range(n)}
    for j in range(n):
        for a in range(n):
            for i, c in Hq.H.rows[j][a]:
                left[(a, i)].append(((j,), c))
            for i, c in Hq.H.rows[a][j]:
                right[(i, a)].append(((j,), c))
    left = LinMap(fld, (n, n), (n,), Hq.H.den, left)
    right = LinMap(fld, (n, n), (n,), Hq.H.den, right)
    return BimoduleAlgebra(Hq, A, left, right, name=A.name, check=check)


def trivial_left_action(Hq: QuasiHopfAlgebra, A: FinAlgebra) -> LinMap:
    """h.a = eps(h) a."""
    return linmap_from_fn(
        Hq.field, (Hq.n, A.dim), (A.dim,),
        lambda idx: TensorElt.basis(Hq.field, (Hq.n, A.dim), idx)
        .drop_slot(0, Hq.counit))


def trivial_right_action(Hq: QuasiHopfAlgebra, A: FinAlgebra) -> LinMap:
    """a.h = eps(h) a."""
    return linmap_from_fn(
        Hq.field, (A.dim, Hq.n), (A.dim,),
        lambda idx: TensorElt.basis(Hq.field, (A.dim, Hq.n), idx)
        .drop_slot(1, Hq.counit))


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


def tensor_bimodule(A: LeftModuleAlgebra, B: RightModuleAlgebra,
                    check: bool = True) -> BimoduleAlgebra:
    """A (x) B with componentwise product and h.(a x b).h' = h.a x b.h'."""
    from .finalg import tensor_algebra
    if A.Hq is not B.Hq and A.Hq.H != B.Hq.H:
        raise ValueError("factors live over different parents")
    Hq = A.Hq
    AB = tensor_algebra(A.A, B.B)
    ma, mb = A.A.dim, B.B.dim
    fld = Hq.field
    left = linmap_from_fn(
        fld, (Hq.n, ma * mb), (ma * mb,),
        lambda idx: TensorElt.basis(fld, (Hq.n, ma, mb),
                                    (idx[0],) + divmod(idx[1], mb))
        .apply_at(0, A.action).merge_slots((2,)))
    right = linmap_from_fn(
        fld, (ma * mb, Hq.n), (ma * mb,),
        lambda idx: TensorElt.basis(fld, (ma, mb, Hq.n),
                                    divmod(idx[0], mb) + (idx[1],))
        .apply_at(1, B.action).merge_slots((2,)))
    name = f"{A.name}(x){B.name}" if A.name and B.name else ""
    return BimoduleAlgebra(Hq, AB, left, right, name=name, check=check)


def twist_action(x, F: TensorElt, FInv: TensorElt | None = None,
                 HF: QuasiHopfAlgebra | None = None, check: bool = True):
    """Transport a (bi)module algebra across the gauge twist by F.

    Left: a' product (G^1.a)(G^2.a'); right: (b.F^1)(b'.F^2); bimodule:
    (G^1.p.F^1)(G^2.p'.F^2).  Unit and actions are unchanged; the
    parent becomes H twisted by F.
    """
    Hq = x.Hq
    if FInv is None:
        FInv = invert_mixed(F, [Hq.H, Hq.H])
        if FInv is None:
            raise ValueError("twist is not invertible")
    if HF is None:
        HF = Hq.gauge_twist(F, FInv=FInv)
    fld = Hq.field
    if isinstance(x, LeftModuleAlgebra):
        m = x.A.dim

        def pair(i, j):
            t = FInv.tensor(TensorElt.basis(fld, (m, m), i + j))
            t = t.permute((0, 2, 1, 3))
            t = t.apply_at(0, x.action).apply_at(1, x.action)
            return t.mul_slots(0, 1, x.A)

        A2 = algebra_from_pair_fn(fld, (m,), pair, x.unit_elt(),
                                  name=x.name, check=False)
        return LeftModuleAlgebra(HF, A2, x.action, name=x.name, check=check)
    if isinstance(x, RightModuleAlgebra):
        m = x.B.dim

        def pair(i, j):
            t = TensorElt.basis(fld, (m, m), i + j).tensor(F)
            t = t.permute((0, 2, 1, 3))
            t = t.apply_at(0, x.action).apply_at(1, x.action)
            return t.mul_slots(0, 1, x.B)

        B2 = algebra_from_pair_fn(fld, (m,), pair, x.unit_elt(),
                                  name=x.name, check=False)
        return RightModuleAlgebra(HF, B2, x.action, name=x.name, check=check)
    if isinstance(x, BimoduleAlgebra):
        m = x.A.dim

        def pair(i, j):
            t = FInv.tensor(TensorElt.basis(fld, (m, m), i + j)).tensor(F)
            t = t.permute((0, 2, 4, 1, 3, 5))
            t = t.apply_at(0, x.left).apply_at(0, x.right)
            t = t.apply_at(1, x.left).apply_at(1, x.right)
            return t.mul_slots(0, 1, x.A)

        A2 = algebra_from_pair_fn(fld, (m,), pair, x.unit_elt(),
                                  name=x.name, check=False)
        return BimoduleAlgebra(HF, A2, x.left, x.right, name=x.name,
                               check=check)
    raise TypeError("not a (bi)module algebra")


def bar_construction(A: LeftModuleAlgebra,
                     check: bool = True) -> RightModuleAlgebra:
    """The reversed right module algebra: product a * a' = (g^1.a')(g^2.a)
    with f^{-1} = g^1 x g^2 the inverse Drinfeld twist; action
    a.h = S(h).a."""
    Hq = A.Hq
    fld = Hq.field
    m = A.A.dim
    g = Hq.drinfeld_twist().f_inv

    def pair(i, j):
        t = g.tensor(TensorElt.basis(fld, (m, m), j + i))
        t = t.permute((0, 2, 1, 3))
        t = t.apply_at(0, A.action).apply_at(1, A.action)
        return t.mul_slots(0, 1, A.A)

    Abar = algebra_from_pair_fn(fld, (m,), pair, A.unit_elt(),
                                name=f"{A.name}-bar" if A.name else "",
                                check=False)
    action = linmap_from_fn(
        fld, (m, Hq.n), (m,),
        lambda idx: TensorElt.basis(fld, (Hq.n, m), (idx[1], idx[0]))
        .apply_at(0, Hq.S).apply_at(0, A.action))
    return RightModuleAlgebra(Hq, Abar, action, name=Abar.name, check=check)


def as_module_over_tensor(A: BimoduleAlgebra, HHop: QuasiHopfAlgebra,
                          check: bool = True) -> LeftModuleAlgebra:
    """View a bimodule algebra as a left module algebra over H (x) H^op
    via (h x h').phi = h.phi.h'."""
    n, m = A.Hq.n, A.A.dim
    fld = A.field

    def act(idx):
        i, j = divmod(idx[0], n)
        t = TensorElt.basis(fld, (n, m, n), (i, idx[1], j))
        return t.apply_at(1, A.right).apply_at(0, A.left)

    action = linmap_from_fn(fld, (n * n, m), (m,), act)
    return LeftModuleAlgebra(HHop, A.A, action, name=A.name, check=check)

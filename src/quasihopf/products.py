"""Product algebra constructors.

Each constructor evaluates one multiplication formula on every basis
pair with the slot combinators, fills a structure tensor, verifies
associativity and the asserted factor embeddings, and returns a
ProductAlgebra.  The quasi-smash constructors return module algebras
instead (their products are only quasi-associative).

Kinds:

* ``Smash`` / ``RightSmash``            - A#H and H#B
* ``GenSmash`` / ``RightGenSmash``      - A (x) comodule algebra
* ``QuasiSmash`` / ``LeftQuasiSmash``   - comodule (x) bimodule algebra
* ``DiagLGeneralDelta`` / ``DiagRGeneralDelta``
                                        - diagonal products of a
                                          bimodule algebra with any
                                          two-sided coaction
* ``DiagBowtie`` / ``DiagBtrl`` / ``RDiagBowtie`` / ``RDiagBtrl``
                                        - the four diagonal products
                                          of a bicomodule algebra
* ``GenTwoSidedCrossed``                - comodule # bimodule # comodule
* ``TwoSidedGenSmash`` / ``TwoSidedSmash``
                                        - module # bicomodule # module

Pair programs are staged.  Each factor of a formula reads only some of
the basis indices of the pair, so a constructor runs its program in
nested loops, one loop per index, and each stage of the program sits in
the loop of the last index it reads.  Work that reads (a, a') alone, for
instance, runs once per (a, a'), not once per pair.  The innermost stage
fills a table keyed by the indices it has read, and the per-pair
function only finishes the product from that table.  Every algebra
product keeps the bracketing of the formula, so the structure tensor is
the same as running the whole program on each pair, also when a factor
is not associative.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .actions import BimoduleAlgebra, LeftModuleAlgebra, RightModuleAlgebra
from .coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                        RightComoduleAlgebra, TwoSidedCoaction,
                        omega_from_coaction, regular_bicomodule,
                        two_sided_from_bicomodule)
from .finalg import (FinAlgebra, Report, algebra_from_pair_fn,
                     check_algebra_map, verify_associative_unital)
from .linalg import Mat, prod, unflatten
from .tensors import TensorElt, linmap_from_fn

KINDS = ("Smash", "RightSmash", "GenSmash", "RightGenSmash", "QuasiSmash",
         "LeftQuasiSmash", "DiagLGeneralDelta", "DiagRGeneralDelta",
         "DiagBowtie", "DiagBtrl", "RDiagBowtie", "RDiagBtrl",
         "GenTwoSidedCrossed", "TwoSidedGenSmash", "TwoSidedSmash")


@dataclass
class ProductAlgebra:
    """A verified product algebra on the flat tensor coordinate space."""
    result: FinAlgebra
    kind: str
    factors: tuple
    dims: tuple
    embeddings: dict = dc_field(default_factory=dict)

    def flat(self, t: TensorElt):
        """Coordinates of a slot tensor inside the product algebra."""
        if t.dims != self.dims:
            t = t.split_slot(0, self.dims) if len(t.dims) == 1 else t
        return t.merge_slots((len(self.dims),)).to_flat()


def _e(field, m, i) -> TensorElt:
    """The basis vector e_i of one m-dimensional slot."""
    return TensorElt.basis(field, (m,), (i,))


def _times_basis(t: TensorElt, alg: FinAlgebra, i: int) -> TensorElt:
    """``t`` with its last slot multiplied on the right by e_i of ``alg``."""
    k = len(t.dims)
    return t.insert(k, _e(t.field, alg.dim, i)).mul_slots(k - 1, k, alg)


def _slot_embedding(field, dims, units, pos) -> Mat:
    """Matrix of e_i -> 1 (x) ... (x) e_i (x) ... (x) 1 at slot pos."""
    m = dims[pos]
    cols = []
    for i in range(m):
        t = TensorElt.basis(field, (m,), (i,))
        for s in range(pos):
            t = t.insert(0, units[pos - 1 - s])
        for s in range(pos + 1, len(dims)):
            t = t.insert(len(t.dims), units[s])
        cols.append(t.to_flat())
    rows = [[cols[j][r] for j in range(m)] for r in range(prod(dims))]
    return Mat(field, rows, m)


def _require_embedding(rep, mat, sub, result, label):
    emb = check_algebra_map(mat, sub, result)
    for msg in emb.failures:
        rep.add(f"embedding {label}", msg)


def _same_parent(*objs):
    Hq = objs[0].Hq
    for o in objs[1:]:
        if o.Hq is not Hq and o.Hq.H != Hq.H:
            raise ValueError("factors live over different parents")
    return Hq


# -- one- and two-factor smash products ---------------------------------------

def _act_then_coact(fld, dims, Phi, action, Aalg, lam, Balg, H):
    """Pair program of (a x b)(a' x b') = (x1.a)(x2 b_-1 . a') x x3 b_0 b'
    for a left H-action on A, a left coaction ``lam`` on B and an
    associator ``Phi`` = x1 x x2 x x3 in H (x) H (x) B."""
    mA, mB = dims
    # everything but b' once per (a, b, a'); each pair multiplies b' in
    table = {}
    for ia in range(mA):
        x = Phi.insert(1, _e(fld, mA, ia)).apply_at(0, action)
        # [x1.a, x2, x3]
        for ib in range(mB):
            t = x.insert(2, _e(fld, mB, ib)).apply_at(2, lam)
            t = t.mul_slots(1, 2, H)
            # [x1.a, x2 b-1, b0, x3]
            for ia2 in range(mA):
                s = t.insert(2, _e(fld, mA, ia2)).apply_at(1, action)
                # [x1.a, x2 b-1.a', b0, x3]
                table[ia, ib, ia2] = s.mul_slots(0, 1, Aalg) \
                    .mul_slots(2, 1, Balg)
                # [A, x3 b0]

    def pair(idx_i, idx_j):
        return _times_basis(table[idx_i + idx_j[:1]], Balg, idx_j[1])

    return pair


def _coact_then_act(fld, dims, rho, Phi, Aalg, action, Balg, H):
    """Pair program of (a x b)(a' x b') = a a'_0 x1 x (b.a'_1 x2)(b'.x3)
    for a right coaction ``rho`` on A, a right H-action on B and an
    associator ``Phi`` = x1 x x2 x x3 in A (x) H (x) H."""
    mA, mB = dims
    # rho(a') x Phi once per a', everything but a once per (b, a', b');
    # each pair multiplies a in
    table = {}
    for ia2 in range(mA):
        x = _e(fld, mA, ia2).apply_at(0, rho).tensor(Phi)
        # [a'0, a'1, x1, x2, x3]
        x = x.mul_slots(1, 3, H)
        # [a'0, a'1 x2, x1, x3]
        for ib2 in range(mB):
            t = x.insert(3, _e(fld, mB, ib2)).apply_at(3, action)
            # [a'0, a'1 x2, x1, b'.x3]
            for ib in range(mB):
                s = t.insert(1, _e(fld, mB, ib)).apply_at(1, action)
                # [a'0, b.a'1 x2, x1, b'.x3]
                table[ib, ia2, ib2] = s.mul_slots(1, 3, Balg)
                # [a'0, B, x1]

    def pair(idx_i, idx_j):
        t = table[idx_i[1:] + idx_j].insert(0, _e(fld, mA, idx_i[0]))
        # [a, a'0, B, x1]
        return t.mul_slots(0, 1, Aalg).mul_slots(0, 2, Aalg)

    return pair


def smash(Am: LeftModuleAlgebra, check: bool = True) -> ProductAlgebra:
    """A#H: (a#h)(a'#h') = (x1.a)(x2 h_1.a') # x3 h_2 h'."""
    Hq = Am.Hq
    H = Hq.H
    Aalg = Am.A
    n, mA = Hq.n, Aalg.dim
    fld = Hq.field
    dims = (mA, n)
    pair = _act_then_coact(fld, dims, Hq.PhiInv, Am.action, Aalg, Hq.Delta,
                           H, H)
    unit = Am.unit_elt().tensor(Hq.unit_elt())
    name = f"{Am.name}#{Hq.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    rep = Report()
    hopf = _slot_embedding(fld, dims, [Am.unit_elt(), Hq.unit_elt()], 1)
    if check:
        rep.merge(verify_associative_unital(alg, limit=None))
        _require_embedding(rep, hopf, H, alg, "H")
        # (a#h)(1#h') = a#hh' and (1#h)(a#h') = h_1.a # h_2 h'
        for ia in range(mA):
            for ih in range(n):
                for ih2 in range(n):
                    a = TensorElt.basis(fld, (mA,), (ia,))
                    h = TensorElt.basis(fld, (n,), (ih,))
                    h2 = TensorElt.basis(fld, (n,), (ih2,))
                    got = alg.multiply(a.tensor(h).to_flat(),
                                       Am.unit_elt().tensor(h2).to_flat())
                    want = a.tensor(h.insert(1, h2).mul_slots(0, 1, H))
                    rep.check(got == want.to_flat(), "absorb-right",
                              f"(e_{ia}#e_{ih})(1#e_{ih2})")
                    got = alg.multiply(Am.unit_elt().tensor(h).to_flat(),
                                       a.tensor(h2).to_flat())
                    w = h.apply_at(0, Hq.Delta).insert(1, a)
                    w = w.apply_at(0, Am.action)
                    w = w.insert(2, h2).mul_slots(1, 2, H)
                    rep.check(got == w.to_flat(), "absorb-left",
                              f"(1#e_{ih})(e_{ia}#e_{ih2})")
        rep.require(name)
    return ProductAlgebra(alg, "Smash", (Am,), dims, {"H": hopf})


def right_smash(Bm: RightModuleAlgebra, check: bool = True) -> ProductAlgebra:
    """H#B: (h#b)(h'#b') = h h'_1 x1 # (b.h'_2 x2)(b'.x3)."""
    Hq = Bm.Hq
    H = Hq.H
    Balg = Bm.B
    n, mB = Hq.n, Balg.dim
    fld = Hq.field
    dims = (n, mB)
    pair = _coact_then_act(fld, dims, Hq.Delta, Hq.PhiInv, H, Bm.action,
                           Balg, H)
    unit = Hq.unit_elt().tensor(Bm.unit_elt())
    name = f"{Hq.name}#{Bm.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    rep = Report()
    hopf = _slot_embedding(fld, dims, [Hq.unit_elt(), Bm.unit_elt()], 0)
    if check:
        rep.merge(verify_associative_unital(alg, limit=None))
        _require_embedding(rep, hopf, H, alg, "H")
        rep.require(name)
    return ProductAlgebra(alg, "RightSmash", (Bm,), dims, {"H": hopf})


def _left_part(x) -> LeftComoduleAlgebra:
    return x.left if isinstance(x, BicomoduleAlgebra) else x


def _right_part(x) -> RightComoduleAlgebra:
    return x.right if isinstance(x, BicomoduleAlgebra) else x


def gen_smash(Am: LeftModuleAlgebra, Bfr, check: bool = True,
              kind: str = "GenSmash") -> ProductAlgebra:
    """A (x) left comodule algebra:
    (a x b)(a' x b') = (xl1.a)(xl2 b_-1 . a') x xl3 b_0 b'."""
    Bco = _left_part(Bfr)
    Hq = _same_parent(Am, Bco)
    Aalg, Balg = Am.A, Bco.B
    fld = Hq.field
    dims = (Aalg.dim, Balg.dim)
    pair = _act_then_coact(fld, dims, Bco.PhiLamInv, Am.action, Aalg,
                           Bco.lam, Balg, Hq.H)
    unit = Am.unit_elt().tensor(Bco.unit_elt())
    name = f"{Am.name}>*<{Bco.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    rep = Report()
    sub = _slot_embedding(fld, dims, [Am.unit_elt(), Bco.unit_elt()], 1)
    if check:
        rep.merge(verify_associative_unital(alg, limit=None))
        _require_embedding(rep, sub, Balg, alg, "comodule")
        rep.require(name)
    return ProductAlgebra(alg, kind, (Am, Bfr), dims, {"comodule": sub})


def right_gen_smash(Afr, Bm: RightModuleAlgebra, check: bool = True,
                    kind: str = "RightGenSmash") -> ProductAlgebra:
    """Right comodule algebra (x) B:
    (a x b)(a' x b') = a a'_0 xr1 x (b.a'_1 xr2)(b'.xr3)."""
    Aco = _right_part(Afr)
    Hq = _same_parent(Aco, Bm)
    Aalg, Balg = Aco.A, Bm.B
    fld = Hq.field
    dims = (Aalg.dim, Balg.dim)
    pair = _coact_then_act(fld, dims, Aco.rho, Aco.PhiRhoInv, Aalg,
                           Bm.action, Balg, Hq.H)
    unit = Aco.unit_elt().tensor(Bm.unit_elt())
    name = f"{Aco.name}>!<{Bm.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    rep = Report()
    sub = _slot_embedding(fld, dims, [Aco.unit_elt(), Bm.unit_elt()], 0)
    if check:
        rep.merge(verify_associative_unital(alg, limit=None))
        _require_embedding(rep, sub, Aalg, alg, "comodule")
        rep.require(name)
    return ProductAlgebra(alg, kind, (Afr, Bm), dims, {"comodule": sub})


# -- quasi-smash products (module algebras, not associative in general) -------

def quasi_smash(Afr, Abi: BimoduleAlgebra,
                check: bool = True) -> LeftModuleAlgebra:
    """Right comodule algebra (x) bimodule algebra as a left module
    algebra: (a x p)(a' x p') = a a'_0 xr1 x (p.a'_1 xr2)(p'.xr3),
    with H acting through the bimodule slot."""
    Aco = _right_part(Afr)
    Hq = _same_parent(Aco, Abi)
    Aalg, Palg = Aco.A, Abi.A
    mA, mP = Aalg.dim, Palg.dim
    fld = Hq.field
    dims = (mA, mP)
    pair = _coact_then_act(fld, dims, Aco.rho, Aco.PhiRhoInv, Aalg,
                           Abi.right, Palg, Hq.H)
    unit = Aco.unit_elt().tensor(Abi.unit_elt())
    name = f"{Aco.name}#~{Abi.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    action = linmap_from_fn(
        fld, (Hq.n, mA * mP), (mA * mP,),
        lambda idx: TensorElt.basis(fld, (Hq.n, mA, mP),
                                    (idx[0],) + divmod(idx[1], mP))
        .permute((1, 0, 2)).apply_at(1, Abi.left).merge_slots((2,)))
    return LeftModuleAlgebra(Hq, alg, action, name=name, check=check)


def left_quasi_smash(Abi: BimoduleAlgebra, Bfr,
                     check: bool = True) -> RightModuleAlgebra:
    """Bimodule algebra (x) left comodule algebra as a right module
    algebra: (p x b)(p' x b') = (xl1.p)(xl2 b_-1.p') x xl3 b_0 b'."""
    Bco = _left_part(Bfr)
    Hq = _same_parent(Abi, Bco)
    Palg, Balg = Abi.A, Bco.B
    mP, mB = Palg.dim, Balg.dim
    fld = Hq.field
    dims = (mP, mB)
    pair = _act_then_coact(fld, dims, Bco.PhiLamInv, Abi.left, Palg,
                           Bco.lam, Balg, Hq.H)
    unit = Abi.unit_elt().tensor(Bco.unit_elt())
    name = f"{Abi.name}#~{Bco.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    action = linmap_from_fn(
        fld, (mP * mB, Hq.n), (mP * mB,),
        lambda idx: TensorElt.basis(fld, (mP, mB, Hq.n),
                                    divmod(idx[0], mB) + (idx[1],))
        .permute((0, 2, 1)).apply_at(0, Abi.right).merge_slots((2,)))
    return RightModuleAlgebra(Hq, alg, action, name=name, check=check)


# -- diagonal crossed products ------------------------------------------------

def _diag_left_pair(Abi, d, Om):
    """(p >< u)(p' >< u') = (O1.p.O5)(O2 u_-1 . p' . S^{-1}(u_1) O4)
    >< O3 u_0 u'."""
    Hq = Abi.Hq
    H = Hq.H
    Palg, Ualg = Abi.A, d.A
    mP, mU = Palg.dim, Ualg.dim
    fld = Hq.field
    dims = (mP, mU)
    # O1.p.O5 once per p, delta(u) once per (p, u), everything but u'
    # once per (p, u, p'); each pair multiplies u' in
    table = {}
    for ip in range(mP):
        x = Om.insert(1, _e(fld, mP, ip)).apply_at(0, Abi.left)
        x = x.permute((0, 4, 1, 2, 3)).apply_at(0, Abi.right)
        # [O1.p.O5, O2, O3, O4]
        for iu in range(mU):
            t = x.insert(4, _e(fld, mU, iu)).apply_at(4, d.delta)
            # [P, O2, O3, O4, u-1, u0, u1]
            t = t.mul_slots(1, 4, H)
            t = t.apply_at(5, Hq.SInv).mul_slots(5, 3, H)
            # [P, O2 u-1, O3, u0, S^{-1}(u1) O4]
            for ip2 in range(mP):
                s = t.insert(2, _e(fld, mP, ip2)).apply_at(1, Abi.left)
                s = s.permute((0, 1, 4, 2, 3)).apply_at(1, Abi.right)
                # [P, O2 u-1.p'.S^{-1}(u1) O4, O3, u0]
                table[ip, iu, ip2] = s.mul_slots(0, 1, Palg) \
                    .mul_slots(1, 2, Ualg)
                # [P P', O3 u0]

    def pair(idx_i, idx_j):
        return _times_basis(table[idx_i + idx_j[:1]], Ualg, idx_j[1])

    return dims, pair


def _diag_right_pair(Abi, d, Omp):
    """(u >< p)(u' >< p') = u u'_0 O'3 ><
    (O'2 S^{-1}(u'_-1).p.u'_1 O'4)(O'1.p'.O'5)."""
    Hq = Abi.Hq
    H = Hq.H
    Palg, Ualg = Abi.A, d.A
    mU, mP = Ualg.dim, Palg.dim
    fld = Hq.field
    dims = (mU, mP)
    # delta(u') and its H products once per u', u once per (u, u'), p
    # once per (u, p, u'); each pair acts with p'
    table = {}
    for iu2 in range(mU):
        x = Omp.insert(0, _e(fld, mU, iu2)).apply_at(0, d.delta)
        # [u'-1, u'0, u'1, O'1, O'2, O'3, O'4, O'5]
        x = x.apply_at(0, Hq.SInv).mul_slots(4, 0, H)
        x = x.mul_slots(1, 5, H)
        # [u'0, u'1 O'4, O'1, O'2 S^{-1}(u'-1), O'3, O'5]
        for iu in range(mU):
            t = x.insert(0, _e(fld, mU, iu))
            t = t.mul_slots(0, 1, Ualg).mul_slots(0, 4, Ualg)
            # [u u'0 O'3, u'1 O'4, O'1, O'2 S^{-1}(u'-1), O'5]
            for ip in range(mP):
                s = t.insert(4, _e(fld, mP, ip)).apply_at(3, Abi.left)
                s = s.permute((0, 2, 3, 1, 4)).apply_at(2, Abi.right)
                table[iu, ip, iu2] = s
                # [U, O'1, O'2 S^{-1}(u'-1).p.u'1 O'4, O'5]

    def pair(idx_i, idx_j):
        t = table[idx_i + idx_j[:1]]
        t = t.insert(2, _e(fld, mP, idx_j[1])).apply_at(1, Abi.left)
        t = t.permute((0, 2, 1, 3)).apply_at(2, Abi.right)
        return t.mul_slots(1, 2, Palg)

    return dims, pair


def diag_crossed_general(Abi: BimoduleAlgebra, d: TwoSidedCoaction,
                         side: str = "left", check: bool = True,
                         kind: str | None = None,
                         factors: tuple | None = None,
                         Om: TensorElt | None = None) -> ProductAlgebra:
    """Diagonal crossed product of a bimodule algebra with the algebra
    carrying a two-sided coaction, on either side."""
    Hq = _same_parent(Abi, d)
    fld = Hq.field
    if side == "left":
        if Om is None:
            Om = omega_from_coaction(d)
        dims, pair = _diag_left_pair(Abi, d, Om)
        units = [Abi.unit_elt(), d.unit_elt()]
        sub_pos = 1
        kind = kind or "DiagLGeneralDelta"
    elif side == "right":
        if Om is None:
            Om = omega_from_coaction(d, primed=True)
        dims, pair = _diag_right_pair(Abi, d, Om)
        units = [d.unit_elt(), Abi.unit_elt()]
        sub_pos = 0
        kind = kind or "DiagRGeneralDelta"
    else:
        raise ValueError("side must be 'left' or 'right'")
    unit = units[0].tensor(units[1])
    name = f"{Abi.name}><{d.name}" if side == "left" \
        else f"{d.name}><{Abi.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    rep = Report()
    sub = _slot_embedding(fld, dims, units, sub_pos)
    if check:
        rep.merge(verify_associative_unital(alg, limit=None))
        _require_embedding(rep, sub, d.A, alg, "middle")
        # mixed products of the two unital copies recover the generators
        mP, mU = Abi.A.dim, d.A.dim
        for ip in range(mP):
            for iu in range(mU):
                p = TensorElt.basis(fld, (mP,), (ip,))
                u = TensorElt.basis(fld, (mU,), (iu,))
                if side == "left":
                    got = alg.multiply(p.tensor(units[1]).to_flat(),
                                       units[0].tensor(u).to_flat())
                    want = p.tensor(u)
                else:
                    got = alg.multiply(u.tensor(units[1]).to_flat(),
                                       units[0].tensor(p).to_flat())
                    want = u.tensor(p)
                rep.check(got == want.to_flat(), "generator-recombination",
                          f"pair ({ip},{iu})")
        rep.require(name)
    return ProductAlgebra(alg, kind, factors or (Abi, d), dims,
                          {"middle": sub})


_DIAG_FLAVORS = {
    "bowtie": ("l", False, "left", "DiagBowtie"),
    "btrl": ("r", False, "left", "DiagBtrl"),
    "rbowtie": ("l", True, "right", "RDiagBowtie"),
    "rbtrl": ("r", True, "right", "RDiagBtrl"),
}


def diag_crossed(Abi: BimoduleAlgebra, Ab: BicomoduleAlgebra,
                 flavor: str = "bowtie", check: bool = True) -> ProductAlgebra:
    """One of the four diagonal crossed products of a bimodule algebra
    with a bicomodule algebra."""
    if flavor not in _DIAG_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    nest, primed, side, kind = _DIAG_FLAVORS[flavor]
    d = two_sided_from_bicomodule(Ab, nest, check=False)
    Om = omega_from_coaction(d, primed=primed)
    return diag_crossed_general(Abi, d, side, check=check, kind=kind,
                                factors=(Abi, Ab), Om=Om)


# -- three-factor products ----------------------------------------------------

def gen_two_sided_crossed(Afr, Abi: BimoduleAlgebra, Bfr,
                          check: bool = True) -> ProductAlgebra:
    """Right comodule # bimodule # left comodule:
    (a, p, b)(a', p', b') = a a'_0 xr1 x (xl1.p.a'_1 xr2)
    (xl2 b_-1 . p' . xr3) x xl3 b_0 b'."""
    Aco, Bco = _right_part(Afr), _left_part(Bfr)
    Hq = _same_parent(Aco, Abi, Bco)
    H = Hq.H
    Aalg, Palg, Balg = Aco.A, Abi.A, Bco.B
    mA, mP, mB = Aalg.dim, Palg.dim, Balg.dim
    fld = Hq.field
    dims = (mA, mP, mB)
    # the halves that depend on part of the pair only: PhiRhoInv enters
    # once per (a, a'), PhiLamInv once per b and p once per (p, b)
    outer = {}
    for ia in range(mA):
        for ia2 in range(mA):
            t = TensorElt.basis(fld, (mA, mA), (ia, ia2))
            t = t.apply_at(1, Aco.rho).insert(3, Aco.PhiRhoInv)
            # [a, a'0, a'1, xr1, xr2, xr3]
            t = t.mul_slots(0, 1, Aalg).mul_slots(0, 2, Aalg)
            outer[ia, ia2] = t.mul_slots(1, 2, H)
            # [a a'0 xr1, a'1 xr2, xr3]
    inner = {}
    for ib in range(mB):
        t = Bco.PhiLamInv.insert(3, _e(fld, mB, ib)).apply_at(3, Bco.lam)
        # [xl1, xl2, xl3, b-1, b0]
        t = t.mul_slots(1, 3, H).mul_slots(2, 3, Balg)
        # [xl1, xl2 b-1, xl3 b0]
        for ip in range(mP):
            inner[ip, ib] = t.insert(1, _e(fld, mP, ip)) \
                .apply_at(0, Abi.left)
            # [xl1.p, xl2 b-1, xl3 b0]
    # everything but b' once per (a, p, b, a', p'); each pair
    # multiplies b' in
    table = {}
    for (ia, ia2), a_half in outer.items():
        for (ip, ib), b_half in inner.items():
            t = a_half.tensor(b_half).permute((0, 3, 1, 2, 4, 5))
            # [A, xl1.p, a'1 xr2, xr3, xl2 b-1, xl3 b0]
            t = t.apply_at(1, Abi.right)
            # [A, P1, xr3, xl2 b-1, xl3 b0]
            for ip2 in range(mP):
                s = t.insert(4, _e(fld, mP, ip2)).apply_at(3, Abi.left)
                # [A, P1, xr3, P2, xl3 b0]
                s = s.permute((0, 1, 3, 2, 4)).apply_at(2, Abi.right)
                table[ia, ip, ib, ia2, ip2] = s.mul_slots(1, 2, Palg)
                # [A, P1 P2, xl3 b0]

    def pair(idx_i, idx_j):
        return _times_basis(table[idx_i + idx_j[:2]], Balg, idx_j[2])

    unit = Aco.unit_elt().tensor(Abi.unit_elt()).tensor(Bco.unit_elt())
    name = f"{Aco.name}><{Abi.name}><{Bco.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    rep = Report()
    units = [Aco.unit_elt(), Abi.unit_elt(), Bco.unit_elt()]
    left = _slot_embedding(fld, dims, units, 0)
    right = _slot_embedding(fld, dims, units, 2)
    if check:
        rep.merge(verify_associative_unital(alg, limit=None))
        _require_embedding(rep, left, Aalg, alg, "outer-left")
        _require_embedding(rep, right, Balg, alg, "outer-right")
        rep.require(name)
    return ProductAlgebra(alg, "GenTwoSidedCrossed", (Afr, Abi, Bfr), dims,
                          {"outer-left": left, "outer-right": right})


def two_sided_gen_smash(Am: LeftModuleAlgebra, Ab: BicomoduleAlgebra,
                        Bm: RightModuleAlgebra, check: bool = True,
                        kind: str = "TwoSidedGenSmash") -> ProductAlgebra:
    """Module # bicomodule # module:
    (a, u, b)(a', u', b') = (xl1.a)(xl2 u_-1 t1.a') x
    xl3 u_0 t2 u'_0 xr1 x (b.t3 u'_1 xr2)(b'.xr3)."""
    Hq = _same_parent(Am, Ab, Bm)
    H = Hq.H
    Aalg, Ualg, Balg = Am.A, Ab.A, Bm.B
    mA, mU, mB = Aalg.dim, Ualg.dim, Balg.dim
    fld = Hq.field
    dims = (mA, mU, mB)
    right_u = []
    for iu in range(mU):
        t = _e(fld, mU, iu).apply_at(0, Ab.rho)
        right_u.append(t.tensor(Ab.right.PhiRhoInv))
        # [u'0, u'1, xr1, xr2, xr3]
    # PhiLamInv and PhiLRInv enter once per u, a once per (a, u), a' once
    # per (a, u, a'), rho(u') x PhiRhoInv once per (a, u, a', u') after
    # the A products, and b once per (a, u, b, a', u'); each pair acts
    # with b'
    xt = Ab.left.PhiLamInv.tensor(Ab.PhiLRInv)
    table = {}
    for iu in range(mU):
        x = xt.insert(3, _e(fld, mU, iu)).apply_at(3, Ab.lam)
        # [xl1, xl2, xl3, u-1, u0, t1, t2, t3]
        x = x.mul_slots(1, 3, H).mul_slots(1, 4, H)
        x = x.mul_slots(2, 3, Ualg).mul_slots(2, 3, Ualg)
        # [xl1, xl2 u-1 t1, xl3 u0 t2, t3]
        for ia in range(mA):
            y = x.insert(1, _e(fld, mA, ia)).apply_at(0, Am.action)
            for ia2 in range(mA):
                t = y.insert(2, _e(fld, mA, ia2)).apply_at(1, Am.action)
                t = t.mul_slots(0, 1, Aalg)
                # [A, xl3 u0 t2, t3]
                for iu2 in range(mU):
                    s = t.insert(3, right_u[iu2])
                    # [A, xl3 u0 t2, t3, u'0, u'1, xr1, xr2, xr3]
                    s = s.mul_slots(1, 3, Ualg).mul_slots(1, 4, Ualg)
                    # [A, U, t3, u'1, xr2, xr3]
                    s = s.mul_slots(2, 3, H).mul_slots(2, 3, H)
                    # [A, U, t3 u'1 xr2, xr3]
                    for ib in range(mB):
                        table[ia, iu, ib, ia2, iu2] = s.insert(
                            2, _e(fld, mB, ib)).apply_at(2, Bm.action)
                        # [A, U, b.t3 u'1 xr2, xr3]

    def pair(idx_i, idx_j):
        t = table[idx_i + idx_j[:2]].insert(3, _e(fld, mB, idx_j[2]))
        return t.apply_at(3, Bm.action).mul_slots(2, 3, Balg)

    unit = Am.unit_elt().tensor(Ab.unit_elt()).tensor(Bm.unit_elt())
    name = f"{Am.name}#{Ab.name}#{Bm.name}"
    alg = algebra_from_pair_fn(fld, dims, pair, unit, name=name, check=False)
    rep = Report()
    units = [Am.unit_elt(), Ab.unit_elt(), Bm.unit_elt()]
    mid = _slot_embedding(fld, dims, units, 1)
    if check:
        rep.merge(verify_associative_unital(alg, limit=None))
        _require_embedding(rep, mid, Ualg, alg, "middle")
        rep.require(name)
    return ProductAlgebra(alg, kind, (Am, Ab, Bm), dims, {"middle": mid})


def two_sided_smash(Am: LeftModuleAlgebra, Bm: RightModuleAlgebra,
                    check: bool = True) -> ProductAlgebra:
    """A#H#B, with the canonical unital embeddings of A#H and H#B."""
    Hq = _same_parent(Am, Bm)
    Ab = regular_bicomodule(Hq, check=False)
    p = two_sided_gen_smash(Am, Ab, Bm, check=check, kind="TwoSidedSmash")
    fld = Hq.field
    mA, n, mB = p.dims
    # i(a#h) = a#h#1 and j(h#b) = 1#h#b
    unitA, unitB = Am.unit_elt(), Bm.unit_elt()
    icols = []
    for f in range(mA * n):
        ia, ih = unflatten((mA, n), f)
        t = TensorElt.basis(fld, (mA, n), (ia, ih)).insert(2, unitB)
        icols.append(t.to_flat())
    jcols = []
    for f in range(n * mB):
        ih, ib = unflatten((n, mB), f)
        t = TensorElt.basis(fld, (n, mB), (ih, ib)).insert(0, unitA)
        jcols.append(t.to_flat())
    N = mA * n * mB
    imat = Mat(fld, [[icols[j][r] for j in range(mA * n)] for r in range(N)],
               mA * n)
    jmat = Mat(fld, [[jcols[j][r] for j in range(n * mB)] for r in range(N)],
               n * mB)
    if check:
        rep = Report()
        _require_embedding(rep, imat, smash(Am, check=False).result,
                           p.result, "left-smash")
        _require_embedding(rep, jmat, right_smash(Bm, check=False).result,
                           p.result, "right-smash")
        rep.require(p.result.name)
    p.embeddings["left-smash"] = imat
    p.embeddings["right-smash"] = jmat
    return p


# -- induced comodule algebra structures on products --------------------------

def _induced_right(p: ProductAlgebra, Am: LeftModuleAlgebra,
                   Ab: BicomoduleAlgebra,
                   check: bool = True) -> RightComoduleAlgebra:
    """rho(a x u) = (t1.a x t2 u_0) (x) t3 u_1 on a module-comodule
    smash product."""
    Hq = Ab.Hq
    H = Hq.H
    fld = Hq.field
    dims = p.dims
    N = prod(dims)
    theta = Ab.PhiLRInv

    def fn(idx):
        t = TensorElt.basis(fld, dims, unflatten(dims, idx[0]))
        t = t.apply_at(1, Ab.rho).insert(0, theta)
        t = t.permute((0, 3, 1, 2, 4, 5)).apply_at(0, Am.action)
        t = t.mul_slots(1, 3, Ab.A).mul_slots(2, 3, H)
        return t.merge_slots((2, 1))

    rho = linmap_from_fn(fld, (N,), (N, Hq.n), fn)
    unitA = Am.unit_elt()
    PhiRho = Ab.right.PhiRho.insert(0, unitA).merge_slots((2, 1, 1))
    PhiRhoInv = Ab.right.PhiRhoInv.insert(0, unitA).merge_slots((2, 1, 1))
    return RightComoduleAlgebra(Hq, p.result, rho, PhiRho,
                                PhiRhoInv=PhiRhoInv, name=p.result.name,
                                check=check)


def _induced_left(p: ProductAlgebra, Ab: BicomoduleAlgebra,
                  Bm: RightModuleAlgebra,
                  check: bool = True) -> LeftComoduleAlgebra:
    """lam(u x b) = u_-1 t1 (x) (u_0 t2 x b.t3)."""
    Hq = Ab.Hq
    H = Hq.H
    fld = Hq.field
    dims = p.dims
    N = prod(dims)
    theta = Ab.PhiLRInv

    def fn(idx):
        t = TensorElt.basis(fld, dims, unflatten(dims, idx[0]))
        t = t.apply_at(0, Ab.lam).insert(3, theta)
        t = t.mul_slots(0, 3, H).mul_slots(1, 3, Ab.A)
        t = t.apply_at(2, Bm.action)
        return t.merge_slots((1, 2))

    lam = linmap_from_fn(fld, (N,), (Hq.n, N), fn)
    unitB = Bm.unit_elt()
    PhiLam = Ab.left.PhiLam.insert(3, unitB).merge_slots((1, 1, 2))
    PhiLamInv = Ab.left.PhiLamInv.insert(3, unitB).merge_slots((1, 1, 2))
    return LeftComoduleAlgebra(Hq, p.result, lam, PhiLam,
                               PhiLamInv=PhiLamInv, name=p.result.name,
                               check=check)


def _induced_right_crossed(p: ProductAlgebra, Abi: BimoduleAlgebra,
                           Bb: BicomoduleAlgebra,
                           check: bool = True) -> RightComoduleAlgebra:
    """rho(a x p x b) = (a x t1.p x t2 b_0) (x) t3 b_1 on a
    generalized two-sided crossed product."""
    Hq = Bb.Hq
    H = Hq.H
    fld = Hq.field
    dims = p.dims
    N = prod(dims)
    theta = Bb.PhiLRInv

    def fn(idx):
        t = TensorElt.basis(fld, dims, unflatten(dims, idx[0]))
        t = t.apply_at(2, Bb.rho).insert(1, theta)
        t = t.permute((0, 1, 4, 2, 3, 5, 6)).apply_at(1, Abi.left)
        t = t.mul_slots(2, 4, Bb.A).mul_slots(3, 4, H)
        return t.merge_slots((3, 1))

    rho = linmap_from_fn(fld, (N,), (N, Hq.n), fn)
    uA = p.factors[0]
    uA = _right_part(uA).unit_elt()
    uP = Abi.unit_elt()
    PhiRho = Bb.right.PhiRho.insert(0, uP).insert(0, uA) \
        .merge_slots((3, 1, 1))
    PhiRhoInv = Bb.right.PhiRhoInv.insert(0, uP).insert(0, uA) \
        .merge_slots((3, 1, 1))
    return RightComoduleAlgebra(Hq, p.result, rho, PhiRho,
                                PhiRhoInv=PhiRhoInv, name=p.result.name,
                                check=check)


def _induced_left_crossed(p: ProductAlgebra, Ab: BicomoduleAlgebra,
                          Abi: BimoduleAlgebra,
                          check: bool = True) -> LeftComoduleAlgebra:
    """lam(b x p x c) = b_-1 t1 (x) (b_0 t2 x p.t3 x c)."""
    Hq = Ab.Hq
    H = Hq.H
    fld = Hq.field
    dims = p.dims
    N = prod(dims)
    theta = Ab.PhiLRInv

    def fn(idx):
        t = TensorElt.basis(fld, dims, unflatten(dims, idx[0]))
        t = t.apply_at(0, Ab.lam).insert(1, theta)
        t = t.mul_slots(0, 1, H).mul_slots(3, 1, Ab.A)
        t = t.permute((0, 2, 3, 1, 4)).apply_at(2, Abi.right)
        return t.merge_slots((1, 3))

    lam = linmap_from_fn(fld, (N,), (Hq.n, N), fn)
    uC = p.factors[2]
    uC = _left_part(uC).unit_elt()
    uP = Abi.unit_elt()
    PhiLam = Ab.left.PhiLam.insert(3, uP).insert(4, uC) \
        .merge_slots((1, 1, 3))
    PhiLamInv = Ab.left.PhiLamInv.insert(3, uP).insert(4, uC) \
        .merge_slots((1, 1, 3))
    return LeftComoduleAlgebra(Hq, p.result, lam, PhiLam,
                               PhiLamInv=PhiLamInv, name=p.result.name,
                               check=check)


def induced_costructures(p: ProductAlgebra, check: bool = True):
    """The comodule algebra structure a product algebra inherits from a
    bicomodule factor; a two-sided crossed product between two
    bicomodule factors returns a bicomodule algebra with trivial
    gluing element."""
    if p.kind == "Smash":
        Am = p.factors[0]
        Ab = regular_bicomodule(Am.Hq, check=False)
        return _induced_right(p, Am, Ab, check=check)
    if p.kind == "RightSmash":
        Bm = p.factors[0]
        Ab = regular_bicomodule(Bm.Hq, check=False)
        return _induced_left(p, Ab, Bm, check=check)
    if p.kind == "GenSmash":
        Am, Bfr = p.factors
        if not isinstance(Bfr, BicomoduleAlgebra):
            raise ValueError("comodule factor carries no right coaction")
        return _induced_right(p, Am, Bfr, check=check)
    if p.kind == "RightGenSmash":
        Afr, Bm = p.factors
        if not isinstance(Afr, BicomoduleAlgebra):
            raise ValueError("comodule factor carries no left coaction")
        return _induced_left(p, Afr, Bm, check=check)
    if p.kind == "GenTwoSidedCrossed":
        Afr, Abi, Bfr = p.factors
        right = isinstance(Bfr, BicomoduleAlgebra)
        left = isinstance(Afr, BicomoduleAlgebra)
        if left and right:
            lc = _induced_left_crossed(p, Afr, Abi, check=check)
            rc = _induced_right_crossed(p, Abi, Bfr, check=check)
            fld = Afr.field
            N = prod(p.dims)
            unitH = Afr.Hq.unit_elt()
            unitP = TensorElt.from_flat(fld, (N,), list(p.result.unit))
            PhiLR = unitH.tensor(unitP).tensor(unitH)
            return BicomoduleAlgebra(lc, rc, PhiLR, PhiLRInv=PhiLR,
                                     name=p.result.name, check=check)
        if right:
            return _induced_right_crossed(p, Abi, Bfr, check=check)
        if left:
            return _induced_left_crossed(p, Afr, Abi, check=check)
        raise ValueError("no bicomodule factor to induce a coaction from")
    raise ValueError(f"kind {p.kind!r} carries no induced costructure")

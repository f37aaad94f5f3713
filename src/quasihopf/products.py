"""Product algebra constructors.

Each constructor evaluates one multiplication formula on every basis
pair with the slot combinators, fills a structure tensor and returns a
ProductAlgebra; with ``check`` it also verifies associativity, that
each asserted factor embeds as a subalgebra, and the constructor's own
identities on basis tuples, as pairs of slot programs compared by
``finalg.program_report``.  The quasi-smash constructors return module
algebras instead (their products are only quasi-associative).

Kinds (the right-handed ``RightSmash``, ``RightGenSmash``, ``QuasiSmash``,
``DiagRGeneralDelta`` and ``RDiag*`` run the program of their left twin
on the mirrors, read back by ``_mirrored``):

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

Each multiplication formula is written once, as a slot program
(``tensors.Program``) over the basis indices of a pair: the chained
``insert``, ``apply_at``, ``mul_slots`` and ``permute`` calls of the
formula, with each inserted basis vector a variable.  The executor opens
each variable's loop at the first step that reads it, so the order of
the steps stages the work: a factor that reads (a, a') alone runs once
per (a, a'), not once per pair.  A factor that reads only some indices
but enters late (the (p, b) half of ``gen_two_sided_crossed``) is a
sub-program, computed once per value of its own indices.  Every algebra
product keeps the bracketing of the formula, so the structure tensor is
the same as running the whole program on each pair, also when a factor
is not associative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .actions import BimoduleAlgebra, LeftModuleAlgebra, RightModuleAlgebra
from .coactions import (BicomoduleAlgebra, LeftComoduleAlgebra,
                        RightComoduleAlgebra, TwoSidedCoaction,
                        omega_from_coaction, regular_bicomodule,
                        two_sided_from_bicomodule)
from .finalg import (FinAlgebra, Report, algebra_from_program,
                     algebra_map_checks, program_report,
                     verify_associative_unital)
from .linalg import LinMap, prod, reshape_map
from .tensors import Program, TensorElt, Var, linmap_from_program


@dataclass
class ProductAlgebra:
    """A verified product algebra on the flat tensor coordinate space."""
    result: FinAlgebra
    kind: str
    factors: tuple
    dims: tuple


def _slot_embedding(field, dims, units, pos, width=1) -> LinMap:
    """The map e_i -> 1 (x) ... (x) e_i (x) ... (x) 1 on the ``width``
    slots from ``pos``, with ``units[s]`` in every other slot s."""
    xs = [Var(f"x{s}", d) for s, d in enumerate(dims[pos:pos + width])]
    prog = Program(reduce(TensorElt.tensor, units[:pos] + units[pos + width:],
                          TensorElt.scalar(field, field.one())))
    for s, x in enumerate(xs):
        prog = prog.insert(pos + s, x)
    return linmap_from_program(prog, xs)


def _check_subalgebras(rep, alg, dims, units, subs, width=1):
    """Add to ``rep`` where the slot embedding of each (slot, subalgebra,
    label) of ``subs`` into ``alg`` fails to be an algebra map."""
    rep.merge(program_report([
        check for pos, sub, label in subs
        for check in algebra_map_checks(
            f"embedding {label}: ",
            _slot_embedding(alg.field, dims, units, pos, width), sub, alg)]))


def _pair_vars(dims):
    """Variables for the basis indices of the left and the right factor
    of a product on ``dims``."""
    return ([Var(f"i{s}", m) for s, m in enumerate(dims)],
            [Var(f"j{s}", m) for s, m in enumerate(dims)])


def _build(prog, pair_vars, units, name, check, subs=()):
    """The algebra of ``prog`` on the basis pairs ``pair_vars`` with unit
    ``units[0] (x) units[1] ...``, and with ``check`` the report of its
    associativity and ``subs`` slot maps."""
    unit = reduce(TensorElt.tensor, units)
    alg = algebra_from_program(prog, *pair_vars, unit, name)
    if not check:
        return alg, Report()
    rep = verify_associative_unital(alg, limit=None)
    _check_subalgebras(rep, alg, prog.dims, units, subs)
    return alg, rep


def _same_parent(*objs):
    Hq = objs[0].Hq
    for o in objs[1:]:
        if o.Hq is not Hq and o.Hq.H != Hq.H:
            raise ValueError("factors live over different parents")
    return Hq


# -- one- and two-factor smash products ---------------------------------------

def _act_then_coact(dims, Phi, action, Aalg, lam, Balg, H):
    """(a x b)(a' x b') = (x1.a)(x2 b_-1 . a') x x3 b_0 b' for a left
    H-action on A, a left coaction ``lam`` on B and an associator ``Phi``
    = x1 x x2 x x3 in H (x) H (x) B."""
    (a, b), (a2, b2) = pv = _pair_vars(dims)
    prog = Program(Phi).insert(1, a).apply_at(0, action) \
        .insert(2, b).apply_at(2, lam).mul_slots(1, 2, H) \
        .insert(2, a2).apply_at(1, action) \
        .mul_slots(0, 1, Aalg).mul_slots(2, 1, Balg) \
        .insert(2, b2).mul_slots(1, 2, Balg)
    return prog, pv


def _mirrored(prog, pv):
    """A product program of mirrors and its pair variables ``pv`` read
    back: x.y in A^op being y x in A, the two sides of the pair swap,
    and each side's factors and the result's slots are reversed."""
    left, right = pv
    return prog.permute(range(len(prog.dims))[::-1]), (right[::-1],
                                                        left[::-1])


def smash(Am: LeftModuleAlgebra, check: bool = True) -> ProductAlgebra:
    """A#H: (a#h)(a'#h') = (x1.a)(x2 h_1.a') # x3 h_2 h'."""
    Hq = Am.Hq
    H = Hq.H
    Aalg = Am.A
    n, mA = Hq.n, Aalg.dim
    fld = Hq.field
    dims = (mA, n)
    prog = _act_then_coact(dims, Hq.PhiInv, Am.action, Aalg, Hq.Delta, H, H)
    alg, rep = _build(*prog, [Am.unit_elt(), Hq.unit_elt()],
                      f"{Am.name}#{Hq.name}", check, [(1, H, "H")])
    if check:
        # (a#h)(1#h') = a#hh' and (1#h)(a#h') = h_1.a # h_2 h'
        a, h, h2 = Var("a", mA), Var("h", n), Var("h'", n)
        flat = reshape_map(fld, dims, (alg.dim,))
        unitA = Am.unit_elt()
        rep.merge(program_report([
            ("absorb-right",
             Program.basis(fld, a, h).apply_at(0, flat).tensor(unitA)
             .tensor(h2).apply_at(1, flat).mul_slots(0, 1, alg),
             Program.basis(fld, a, h, h2).mul_slots(1, 2, H)
             .apply_at(0, flat), (a, h, h2)),
            ("absorb-left",
             Program(unitA).tensor(h).apply_at(0, flat).tensor(a)
             .tensor(h2).apply_at(1, flat).mul_slots(0, 1, alg),
             Program.basis(fld, h).apply_at(0, Hq.Delta).insert(1, a)
             .apply_at(0, Am.action).insert(2, h2).mul_slots(1, 2, H)
             .apply_at(0, flat), (a, h, h2))]))
    rep.require(alg.name)
    return ProductAlgebra(alg, "Smash", (Am,), dims)


def right_smash(Bm: RightModuleAlgebra, check: bool = True) -> ProductAlgebra:
    """H#B: (h#b)(h'#b') = h h'_1 x1 # (b.h'_2 x2)(b'.x3)."""
    Hq, M = Bm.Hq, Bm.mirror()
    H, Hm = Hq.H, M.Hq
    dims = (Hq.n, Bm.B.dim)
    prog = _mirrored(*_act_then_coact(dims[::-1], Hm.PhiInv, M.action, M.A,
                                      Hm.Delta, Hm.H, Hm.H))
    alg, rep = _build(*prog, [Hq.unit_elt(), Bm.unit_elt()],
                      f"{Hq.name}#{Bm.name}", check, [(0, H, "H")])
    rep.require(alg.name)
    return ProductAlgebra(alg, "RightSmash", (Bm,), dims)


def _left_part(x) -> LeftComoduleAlgebra:
    return x.left if isinstance(x, BicomoduleAlgebra) else x


def _right_part(x) -> RightComoduleAlgebra:
    return x.right if isinstance(x, BicomoduleAlgebra) else x


def gen_smash(Am: LeftModuleAlgebra, Bfr,
              check: bool = True) -> ProductAlgebra:
    """A (x) left comodule algebra:
    (a x b)(a' x b') = (xl1.a)(xl2 b_-1 . a') x xl3 b_0 b'."""
    Bco = _left_part(Bfr)
    Hq = _same_parent(Am, Bco)
    Aalg, Balg = Am.A, Bco.B
    dims = (Aalg.dim, Balg.dim)
    prog = _act_then_coact(dims, Bco.PhiLamInv, Am.action, Aalg, Bco.lam,
                           Balg, Hq.H)
    alg, rep = _build(*prog, [Am.unit_elt(), Bco.unit_elt()],
                      f"{Am.name}>*<{Bco.name}", check,
                      [(1, Balg, "comodule")])
    rep.require(alg.name)
    return ProductAlgebra(alg, "GenSmash", (Am, Bfr), dims)


def right_gen_smash(Afr, Bm: RightModuleAlgebra,
                    check: bool = True) -> ProductAlgebra:
    """Right comodule algebra (x) B:
    (a x b)(a' x b') = a a'_0 xr1 x (b.a'_1 xr2)(b'.xr3)."""
    Aco = _right_part(Afr)
    _same_parent(Aco, Bm)
    Aalg, Balg = Aco.A, Bm.B
    dims = (Aalg.dim, Balg.dim)
    M, C = Bm.mirror(), Aco.mirror()
    prog = _mirrored(*_act_then_coact(dims[::-1], C.PhiLamInv, M.action,
                                      M.A, C.lam, C.B, C.Hq.H))
    alg, rep = _build(*prog, [Aco.unit_elt(), Bm.unit_elt()],
                      f"{Aco.name}>!<{Bm.name}", check,
                      [(0, Aalg, "comodule")])
    rep.require(alg.name)
    return ProductAlgebra(alg, "RightGenSmash", (Afr, Bm), dims)


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
    M, C = Abi.mirror(), Aco.mirror()
    prog = _mirrored(*_act_then_coact(dims[::-1], C.PhiLamInv, M.left, M.A,
                                      C.lam, C.B, C.Hq.H))
    alg, _ = _build(*prog, [Aco.unit_elt(), Abi.unit_elt()],
                    f"{Aco.name}#~{Abi.name}", False)
    h, x = Var("h", Hq.n), Var("x", alg.dim)
    action = linmap_from_program(
        Program.basis(fld, x).apply_at(0, reshape_map(fld, (alg.dim,), dims))
        .insert(1, h).apply_at(1, Abi.left)
        .apply_at(0, reshape_map(fld, dims, (alg.dim,))), (h, x))
    return LeftModuleAlgebra(Hq, alg, action, name=alg.name, check=check)


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
    prog = _act_then_coact(dims, Bco.PhiLamInv, Abi.left, Palg, Bco.lam,
                           Balg, Hq.H)
    alg, _ = _build(*prog, [Abi.unit_elt(), Bco.unit_elt()],
                    f"{Abi.name}#~{Bco.name}", False)
    x, h = Var("x", alg.dim), Var("h", Hq.n)
    action = linmap_from_program(
        Program.basis(fld, x).apply_at(0, reshape_map(fld, (alg.dim,), dims))
        .insert(1, h).apply_at(0, Abi.right)
        .apply_at(0, reshape_map(fld, dims, (alg.dim,))), (x, h))
    return RightModuleAlgebra(Hq, alg, action, name=alg.name, check=check)


# -- diagonal crossed products ------------------------------------------------

def _diag_left_program(Abi, d, Om):
    """(p >< u)(p' >< u') = (O1.p.O5)(O2 u_-1 . p' . S^{-1}(u_1) O4)
    >< O3 u_0 u'."""
    Hq, H = Abi.Hq, Abi.Hq.H
    Palg, Ualg = Abi.A, d.A
    (p, u), (p2, u2) = pv = _pair_vars((Palg.dim, Ualg.dim))
    prog = Program(Om).insert(1, p).apply_at(0, Abi.left) \
        .permute((0, 4, 1, 2, 3)).apply_at(0, Abi.right) \
        .insert(4, u).apply_at(4, d.delta).mul_slots(1, 4, H) \
        .apply_at(5, Hq.SInv).mul_slots(5, 3, H) \
        .insert(2, p2).apply_at(1, Abi.left) \
        .permute((0, 1, 4, 2, 3)).apply_at(1, Abi.right) \
        .mul_slots(0, 1, Palg).mul_slots(1, 2, Ualg) \
        .insert(2, u2).mul_slots(1, 2, Ualg)
    return prog, pv


def diag_crossed_general(Abi: BimoduleAlgebra, d: TwoSidedCoaction,
                         side: str = "left", check: bool = True,
                         kind: str | None = None,
                         factors: tuple | None = None,
                         Om: TensorElt | None = None) -> ProductAlgebra:
    """Diagonal crossed product of a bimodule algebra with the algebra
    carrying a two-sided coaction, on either side; the right one is the
    left one of the mirrors, the primed element reversed as theirs."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    Hq = _same_parent(Abi, d)
    fld = Hq.field
    if Om is None:
        Om = omega_from_coaction(d, primed=side == "right")
    if side == "left":
        prog = _diag_left_program(Abi, d, Om)
        units = [Abi.unit_elt(), d.unit_elt()]
        sub_pos = 1
        kind = kind or "DiagLGeneralDelta"
    else:
        prog = _mirrored(*_diag_left_program(
            Abi.mirror(), d.mirror(), Om.permute((4, 3, 2, 1, 0))))
        units = [d.unit_elt(), Abi.unit_elt()]
        sub_pos = 0
        kind = kind or "DiagRGeneralDelta"
    name = f"{Abi.name}><{d.name}" if side == "left" \
        else f"{d.name}><{Abi.name}"
    alg, rep = _build(*prog, units, name, check, [(sub_pos, d.A, "middle")])
    if check:
        # mixed products of the two unital copies recover the generators
        p, u = Var("p", Abi.A.dim), Var("u", d.A.dim)
        first, second = (p, u) if side == "left" else (u, p)
        flat = reshape_map(fld, prog[0].dims, (alg.dim,))
        rep.merge(program_report([
            ("generator-recombination",
             Program.basis(fld, first).tensor(units[1]).apply_at(0, flat)
             .tensor(units[0]).tensor(second).apply_at(1, flat)
             .mul_slots(0, 1, alg),
             Program.basis(fld, first, second).apply_at(0, flat), (p, u))]))
    rep.require(name)
    return ProductAlgebra(alg, kind, factors or (Abi, d), prog[0].dims)


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
    fld = Hq.field
    dims = (Aalg.dim, Palg.dim, Balg.dim)
    (a, p, b), (a2, p2, b2) = pv = _pair_vars(dims)
    # the half that reads (p, b) alone is computed once per (p, b)
    inner = Program(Bco.PhiLamInv).insert(3, b).apply_at(3, Bco.lam) \
        .mul_slots(1, 3, H).mul_slots(2, 3, Balg) \
        .insert(1, p).apply_at(0, Abi.left)
    prog = Program.basis(fld, a, a2).apply_at(1, Aco.rho) \
        .insert(3, Aco.PhiRhoInv) \
        .mul_slots(0, 1, Aalg).mul_slots(0, 2, Aalg).mul_slots(1, 2, H) \
        .tensor(inner).permute((0, 3, 1, 2, 4, 5)).apply_at(1, Abi.right) \
        .insert(4, p2).apply_at(3, Abi.left) \
        .permute((0, 1, 3, 2, 4)).apply_at(2, Abi.right) \
        .mul_slots(1, 2, Palg).insert(3, b2).mul_slots(2, 3, Balg)
    alg, rep = _build(prog, pv,
                      [Aco.unit_elt(), Abi.unit_elt(), Bco.unit_elt()],
                      f"{Aco.name}><{Abi.name}><{Bco.name}", check,
                      [(0, Aalg, "outer-left"), (2, Balg, "outer-right")])
    rep.require(alg.name)
    return ProductAlgebra(alg, "GenTwoSidedCrossed", (Afr, Abi, Bfr), dims)


def two_sided_gen_smash(Am: LeftModuleAlgebra, Ab: BicomoduleAlgebra,
                        Bm: RightModuleAlgebra, check: bool = True,
                        kind: str = "TwoSidedGenSmash") -> ProductAlgebra:
    """Module # bicomodule # module:
    (a, u, b)(a', u', b') = (xl1.a)(xl2 u_-1 t1.a') x
    xl3 u_0 t2 u'_0 xr1 x (b.t3 u'_1 xr2)(b'.xr3)."""
    Hq = _same_parent(Am, Ab, Bm)
    H = Hq.H
    Aalg, Ualg, Balg = Am.A, Ab.A, Bm.B
    fld = Hq.field
    dims = (Aalg.dim, Ualg.dim, Balg.dim)
    (a, u, b), (a2, u2, b2) = pv = _pair_vars(dims)
    # rho(u') x PhiRhoInv is computed once per u'
    right_u = Program.basis(fld, u2).apply_at(0, Ab.rho) \
        .tensor(Ab.right.PhiRhoInv)
    prog = Program(Ab.left.PhiLamInv.tensor(Ab.PhiLRInv)) \
        .insert(3, u).apply_at(3, Ab.lam) \
        .mul_slots(1, 3, H).mul_slots(1, 4, H) \
        .mul_slots(2, 3, Ualg).mul_slots(2, 3, Ualg) \
        .insert(1, a).apply_at(0, Am.action) \
        .insert(2, a2).apply_at(1, Am.action).mul_slots(0, 1, Aalg) \
        .insert(3, right_u).mul_slots(1, 3, Ualg).mul_slots(1, 4, Ualg) \
        .mul_slots(2, 3, H).mul_slots(2, 3, H) \
        .insert(2, b).apply_at(2, Bm.action) \
        .insert(3, b2).apply_at(3, Bm.action).mul_slots(2, 3, Balg)
    alg, rep = _build(prog, pv,
                      [Am.unit_elt(), Ab.unit_elt(), Bm.unit_elt()],
                      f"{Am.name}#{Ab.name}#{Bm.name}", check,
                      [(1, Ualg, "middle")])
    rep.require(alg.name)
    return ProductAlgebra(alg, kind, (Am, Ab, Bm), dims)


def two_sided_smash(Am: LeftModuleAlgebra, Bm: RightModuleAlgebra,
                    check: bool = True) -> ProductAlgebra:
    """A#H#B; with ``check``, the canonical unital maps of A#H and H#B
    into it are verified to be algebra maps too."""
    Hq = _same_parent(Am, Bm)
    Ab = regular_bicomodule(Hq, check=False)
    p = two_sided_gen_smash(Am, Ab, Bm, check=check, kind="TwoSidedSmash")
    if check:
        # i(a#h) = a#h#1 and j(h#b) = 1#h#b
        units = [Am.unit_elt(), Hq.unit_elt(), Bm.unit_elt()]
        rep = Report()
        _check_subalgebras(rep, p.result, p.dims, units, [
            (0, smash(Am, check=False).result, "left-smash"),
            (1, right_smash(Bm, check=False).result, "right-smash")], 2)
        rep.require(p.result.name)
    return p


# -- induced comodule algebra structures on products --------------------------

def _flat_basis(p: ProductAlgebra) -> Program:
    """The basis vector of the flat slot of ``p`` split into the factors,
    a program over one variable."""
    fld = p.result.field
    x = Var("x", p.result.dim)
    return Program.basis(fld, x).apply_at(
        0, reshape_map(fld, (p.result.dim,), p.dims))


def _induced_right(p: ProductAlgebra, action: LinMap, Ab: BicomoduleAlgebra,
                   units: TensorElt,
                   check: bool = True) -> RightComoduleAlgebra:
    """rho(c x a x u) = (c x t1.a x t2 u_0) (x) t3 u_1 on a product whose
    last factor is the bicomodule algebra ``Ab``, H acting on the factor
    before it through ``action``; the factors before that are inert.
    ``units`` is the unit of all the factors before ``Ab``."""
    Hq = Ab.Hq
    k = len(units.dims) - 1
    merge = reshape_map(Hq.field, p.dims, (p.result.dim,))
    t = _flat_basis(p).apply_at(k + 1, Ab.rho).insert(k, Ab.PhiLRInv)
    t = t.permute((*range(k), k, k + 3, k + 1, k + 2, k + 4, k + 5))
    t = t.apply_at(k, action).mul_slots(k + 1, k + 3, Ab.A) \
        .mul_slots(k + 2, k + 3, Hq.H)
    rho = linmap_from_program(t.apply_at(0, merge), t.vars)
    PhiRho = Ab.right.PhiRho.insert(0, units).apply_at(0, merge)
    PhiRhoInv = Ab.right.PhiRhoInv.insert(0, units).apply_at(0, merge)
    return RightComoduleAlgebra(Hq, p.result, rho, PhiRho,
                                PhiRhoInv=PhiRhoInv, name=p.result.name,
                                check=check)


def _induced_left(p: ProductAlgebra, Ab: BicomoduleAlgebra, action: LinMap,
                  units: TensorElt,
                  check: bool = True) -> LeftComoduleAlgebra:
    """lam(u x b x c) = u_-1 t1 (x) (u_0 t2 x b.t3 x c) on a product whose
    first factor is the bicomodule algebra ``Ab``, H acting on the factor
    after it through ``action``; the factors after that are inert.
    ``units`` is the unit of all the factors after ``Ab``."""
    Hq = Ab.Hq
    merge = reshape_map(Hq.field, p.dims, (p.result.dim,))
    t = _flat_basis(p).apply_at(0, Ab.lam).insert(3, Ab.PhiLRInv)
    t = t.mul_slots(0, 3, Hq.H).mul_slots(1, 3, Ab.A)
    t = t.apply_at(2, action)
    lam = linmap_from_program(t.apply_at(1, merge), t.vars)
    PhiLam = Ab.left.PhiLam.insert(3, units).apply_at(2, merge)
    PhiLamInv = Ab.left.PhiLamInv.insert(3, units).apply_at(2, merge)
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
        return _induced_right(p, Am.action, Ab, Am.unit_elt(), check=check)
    if p.kind == "RightSmash":
        Bm = p.factors[0]
        Ab = regular_bicomodule(Bm.Hq, check=False)
        return _induced_left(p, Ab, Bm.action, Bm.unit_elt(), check=check)
    if p.kind == "GenSmash":
        Am, Bfr = p.factors
        if not isinstance(Bfr, BicomoduleAlgebra):
            raise ValueError("comodule factor carries no right coaction")
        return _induced_right(p, Am.action, Bfr, Am.unit_elt(),
                              check=check)
    if p.kind == "RightGenSmash":
        Afr, Bm = p.factors
        if not isinstance(Afr, BicomoduleAlgebra):
            raise ValueError("comodule factor carries no left coaction")
        return _induced_left(p, Afr, Bm.action, Bm.unit_elt(),
                             check=check)
    if p.kind == "GenTwoSidedCrossed":
        Afr, Abi, Bfr = p.factors
        right = isinstance(Bfr, BicomoduleAlgebra)
        left = isinstance(Afr, BicomoduleAlgebra)
        if left:
            lc = _induced_left(p, Afr, Abi.right, Abi.unit_elt().tensor(
                _left_part(Bfr).unit_elt()), check=check)
        if right:
            rc = _induced_right(p, Abi.left, Bfr, _right_part(Afr).unit_elt()
                                .tensor(Abi.unit_elt()), check=check)
        if left and right:
            fld = Afr.field
            N = prod(p.dims)
            unitH = Afr.Hq.unit_elt()
            unitP = TensorElt.from_flat(fld, (N,), list(p.result.unit))
            PhiLR = unitH.tensor(unitP).tensor(unitH)
            return BicomoduleAlgebra(lc, rc, PhiLR, PhiLRInv=PhiLR,
                                     name=p.result.name, check=check)
        if left or right:
            return lc if left else rc
        raise ValueError("no bicomodule factor to induce a coaction from")
    raise ValueError(f"kind {p.kind!r} carries no induced costructure")

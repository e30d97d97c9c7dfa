"""System F extended with the recursive Pos/Neg type constraints:
types, terms, coinductive type equivalence, algorithmic typing with
conversion, beta reduction, the 0/1/x/+ encodings, the translation from
proof terms, and the polarity/positivity tooling.

Pos<A,B> and Neg<A,B> are the constraint variables, subject to

    Pos<A,B>  ==  Neg<A,B> -> A        Neg<A,B>  ==  Pos<A,B> -> B

Bound variables (term and type) are de Bruijn indices; free variables
are named, so structural equality is alpha-equivalence.

Each tree's shape lives in one place: `ftype_children`, `ftype_rebuild`
and `FTYPE_BINDERS` for types; `fterm_children`, `fterm_rebuild` and
`FTERM_BINDERS` for terms, where type fields are leaves and a binder
depth counts term and type binders separately.  Every walk over either
tree (shifting, substitution, closing, free variables, complexity,
polarity, reduction positions) is built on that shape with the generic
map and fold of syntax (`make_map`, `make_fold`, `make_debruijn`).

Every node carries `free`, a summary built with it from its children's:
(bound on its free type indices, free type names, bound on its free term
indices, free term names), a bound being the largest free index + 1.
Shifting, substitution and closing return a subtree unvisited when its
summary shows they cannot change it, so on the shared and mostly closed
translations they cost the size of the graph, not that of the tree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (FuelExhaustedError, InvalidDerivationError, TypingError,
                     UnboundVariableError)
from .syntax import (CLASSICAL, MINUS, PAIRED, PLUS, STRONG, And, CLam, Case,
                     Inj, MProp, Mode, Neg, Or, Proj, PVar, Var, cache_hash,
                     flip, fresh_name, make_debruijn, make_fold, make_map,
                     opposite, preorder)
from .typecheck import Context, Derivation, check_type


class NotAnArrowError(TypingError):
    pass


class NotAForallError(TypingError):
    pass


class DomainMismatchError(TypingError):
    pass


# ---------------------------------------------------------------------------
# Types

class FType:
    __slots__ = ()

    def __post_init__(self) -> None:
        self.__dict__["free"] = _summary(self)


@dataclass(frozen=True)
class TVar(FType):
    name: str


@dataclass(frozen=True)
class TBound(FType):
    index: int


@dataclass(frozen=True)
class FPos(FType):
    a: FType
    b: FType


@dataclass(frozen=True)
class FNeg(FType):
    a: FType
    b: FType


@dataclass(frozen=True)
class Arrow(FType):
    dom: FType
    cod: FType


@dataclass(frozen=True)
class Forall(FType):
    body: FType
    hint: str = field(default="a", compare=False)


# The shape of the type tree: ftype_children, ftype_rebuild and
# FTYPE_BINDERS; every type walk below is built on ftype_map and ftype_fold.

def ftype_children(t: FType) -> tuple[FType, ...]:
    match t:
        case TVar() | TBound():
            return ()
        case Arrow():
            return (t.dom, t.cod)
        case FPos() | FNeg():
            return (t.a, t.b)
        case Forall():
            return (t.body,)
    raise TypeError(t)


def ftype_rebuild(t: FType, kids: Sequence[FType]) -> FType:
    match t:
        case TVar() | TBound():
            return t
        case Arrow() | FPos() | FNeg():
            return type(t)(*kids)
        case Forall():
            return Forall(kids[0], t.hint)
    raise TypeError(t)


FTYPE_BINDERS = {Forall: (1,)}  # binders over each child

_NONE: frozenset[str] = frozenset()
# (term, type) binders over each child of a binding constructor, in both trees
_UNDER = {cls: tuple((0, k) for k in ks) for cls, ks in FTYPE_BINDERS.items()}
_FLAT = ((0, 0), (0, 0))


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    return a if b <= a else b if a <= b else a | b


def _summary(t: FType | FTerm) -> tuple[int, frozenset[str], int, frozenset[str]]:
    match t:
        case TVar(name):
            return 0, frozenset((name,)), 0, _NONE
        case TBound(i):
            return i + 1, _NONE, 0, _NONE
        case FType():
            kids = ftype_children(t)
        case FVar(name):
            return 0, _NONE, 0, frozenset((name,))
        case FBound(i):
            return 0, _NONE, i + 1, _NONE
        case _:
            kids = fterm_children(t)
    ty_b, ty_n, tm_b, tm_n = 0, _NONE, 0, _NONE
    for c, (k_tm, k_ty) in zip(kids, _UNDER.get(type(t), _FLAT)):
        c_ty_b, c_ty_n, c_tm_b, c_tm_n = c.free
        ty_b, ty_n = max(ty_b, c_ty_b - k_ty), _union(ty_n, c_ty_n)
        tm_b, tm_n = max(tm_b, c_tm_b - k_tm), _union(tm_n, c_tm_n)
    return ty_b, ty_n, tm_b, tm_n


ftype_map = make_map(ftype_children, ftype_rebuild, FTYPE_BINDERS)
ftype_fold = make_fold(ftype_children, FTYPE_BINDERS)
shift_type, subst_type, close_type = make_debruijn(ftype_map, TBound, TVar,
                                                   operator.attrgetter("free"))


def ftype_vars(t: FType) -> frozenset[str]:
    return t.free[1]


def forall(name: str, body: FType) -> Forall:
    return Forall(close_type(body, name), hint=name)


ZERO = Forall(TBound(0), hint="a")
ONE = Forall(Arrow(TBound(0), TBound(0)), hint="a")


def times(a: FType, b: FType) -> FType:
    return Forall(Arrow(Arrow(a, Arrow(b, TBound(0))), TBound(0)), hint="r")


def plus(a: FType, b: FType) -> FType:
    return Forall(Arrow(Arrow(a, TBound(0)), Arrow(Arrow(b, TBound(0)), TBound(0))),
                  hint="r")


def unfold_constraint(t: FType) -> FType:
    """One unfolding of a constraint variable into its arrow form."""
    match t:
        case FPos(a, b):
            return Arrow(FNeg(a, b), a)
        case FNeg(a, b):
            return Arrow(FPos(a, b), b)
    raise ValueError("not a constraint variable")


def ftype_equiv(a: FType, b: FType) -> bool:
    """Decide the equivalence generated by the Pos/Neg constraints.

    Coinductive algorithm: pairs under comparison are assumed equal while
    their unfoldings are compared.  Sound (and terminating) because every
    constraint right-hand side is an arrow and unfolding never invents
    new constraint variables.
    """
    assumed: set[tuple[FType, FType]] = set()

    def go(a: FType, b: FType) -> bool:
        if a == b:
            return True
        key = (a, b)
        if key in assumed:
            return True
        assumed.add(key)
        match a, b:
            case (FPos(a1, b1), FPos(a2, b2)) | (FNeg(a1, b1), FNeg(a2, b2)):
                return go(a1, a2) and go(b1, b2)
            case (FPos(_, _) | FNeg(_, _), _):
                return go(unfold_constraint(a), b)
            case (_, FPos(_, _) | FNeg(_, _)):
                return go(a, unfold_constraint(b))
            case (Arrow(d1, c1), Arrow(d2, c2)):
                return go(d1, d2) and go(c1, c2)
            case (Forall(b1, _), Forall(b2, _)):
                return go(b1, b2)
            case _:
                return False

    return go(a, b)


# ---------------------------------------------------------------------------
# Terms

class FTerm:
    __slots__ = ()

    def __post_init__(self) -> None:
        self.__dict__["free"] = _summary(self)


@dataclass(frozen=True)
class FVar(FTerm):
    name: str


@dataclass(frozen=True)
class FBound(FTerm):
    index: int


@dataclass(frozen=True)
class FLam(FTerm):
    annot: FType
    body: FTerm
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class FApp(FTerm):
    fun: FTerm
    arg: FTerm


@dataclass(frozen=True)
class TyLam(FTerm):
    body: FTerm
    hint: str = field(default="a", compare=False)


@dataclass(frozen=True)
class TyApp(FTerm):
    fun: FTerm
    ty: FType


# The shape of the term tree: fterm_children, fterm_rebuild and
# FTERM_BINDERS.  Type fields are leaves of the term tree, and a depth is
# a pair (term binders, type binders); every term walk below is built on
# fterm_map and fterm_fold.

def fterm_children(t: FTerm) -> tuple[FTerm | FType, ...]:
    match t:
        case FVar() | FBound() | FType():
            return ()
        case FApp():
            return (t.fun, t.arg)
        case FLam():
            return (t.annot, t.body)
        case TyApp():
            return (t.fun, t.ty)
        case TyLam():
            return (t.body,)
    raise TypeError(t)


def fterm_rebuild(t: FTerm, kids: Sequence[FTerm | FType]) -> FTerm:
    match t:
        case FVar() | FBound():
            return t
        case FApp() | TyApp():
            return type(t)(*kids)
        case FLam():
            return FLam(kids[0], kids[1], t.hint)
        case TyLam():
            return TyLam(kids[0], t.hint)
    raise TypeError(t)


FTERM_BINDERS = {FLam: ((0, 0), (1, 0)), TyLam: ((0, 1),)}  # (term, type) binders
_UNDER.update(FTERM_BINDERS)


def _deeper(depth: tuple[int, int], k: tuple[int, int]) -> tuple[int, int]:
    return depth[0] + k[0], depth[1] + k[1]


fterm_map = make_map(fterm_children, fterm_rebuild, FTERM_BINDERS, _deeper, (0, 0))
fterm_fold = make_fold(fterm_children, FTERM_BINDERS, _deeper, (0, 0))


def shift_fterm(t: FTerm, d_term: int, d_type: int, c_term: int = 0, c_type: int = 0) -> FTerm:
    """Shift term indices by d_term and type indices by d_type."""

    def leaf(u, cut: tuple[int, int]):
        if isinstance(u, FBound):
            return FBound(u.index + d_term) if u.index >= cut[0] else u
        if isinstance(u, FType) and d_type:
            return shift_type(u, d_type, cut[1])
        return u

    return fterm_map(t, leaf, (c_term, c_type), keep=lambda u, cut: (
        (not d_term or u.free[2] <= cut[0]) and (not d_type or u.free[0] <= cut[1])))


def subst_fterm(t: FTerm, j: int, s: FTerm) -> FTerm:
    """Substitute s for term index j (beta for term application); s is
    shifted by the term and type binders crossed on the way in."""

    def leaf(u, depth: tuple[int, int]):
        if isinstance(u, FBound):
            d_term, d_type = depth
            if u.index == j + d_term:
                return shift_fterm(s, d_term, d_type) if (d_term or d_type) else s
            if u.index > j + d_term:
                return FBound(u.index - 1)
        return u

    return fterm_map(t, leaf, keep=lambda u, d: u.free[2] <= j + d[0])


def subst_type_in_fterm(t: FTerm, j: int, a: FType) -> FTerm:
    """Substitute a for type index j throughout a term (beta for type
    application)."""
    return fterm_map(t, lambda u, d: subst_type(u, j, a, d[1])
                     if isinstance(u, FType) else u,
                     keep=lambda u, d: u.free[0] <= j + d[1])


def close_fterm(t: FTerm, name: str, depth: int = 0) -> FTerm:
    def leaf(u, d: tuple[int, int]):
        if isinstance(u, FVar):
            return FBound(d[0]) if u.name == name else u
        if isinstance(u, FBound):
            return FBound(u.index + 1) if u.index >= d[0] else u
        return u

    return fterm_map(t, leaf, (depth, 0),
                     keep=lambda u, d: u.free[2] <= d[0] and name not in u.free[3])


def close_tyvar_in_fterm(t: FTerm, name: str, depth: int = 0) -> FTerm:
    return fterm_map(t, lambda u, d: close_type(u, name, d[1])
                     if isinstance(u, FType) else u, (0, depth),
                     keep=lambda u, d: u.free[0] <= d[1] and name not in u.free[1])


def fterm_fv(t: FTerm) -> frozenset[str]:
    return t.free[3]


def fterm_ftv(t: FTerm) -> frozenset[str]:
    """Free (named) type variables occurring in annotations and type arguments."""
    return t.free[1]


def flam(name: str, annot: FType, body: FTerm) -> FLam:
    return FLam(annot, close_fterm(body, name), hint=name)


def tylam(name: str, body: FTerm) -> TyLam:
    return TyLam(close_tyvar_in_fterm(body, name), hint=name)


for _cls in (TVar, TBound, FPos, FNeg, Arrow, Forall, FVar, FBound, FLam,
             FApp, TyLam, TyApp):
    cache_hash(_cls)


# Encodings of unit/empty/product/sum introduction and elimination.

TRIV = TyLam(FLam(TBound(0), FBound(0), hint="x"), hint="a")


def abort_f(ty: FType, t: FTerm) -> FTerm:
    return TyApp(t, ty)


def pair_f(t: FTerm, s: FTerm, a: FType, b: FType) -> FTerm:
    f = Arrow(a, Arrow(b, TBound(0)))
    return TyLam(FLam(f, FApp(FApp(FBound(0), shift_fterm(t, 1, 1)),
                              shift_fterm(s, 1, 1)), hint="f"), hint="r")


def proj_f(i: int, t: FTerm, a: FType, b: FType) -> FTerm:
    sel = FLam(a, FLam(b, FBound(1 if i == 1 else 0), hint="y"), hint="x")
    return FApp(TyApp(t, a if i == 1 else b), sel)


def in_f(i: int, t: FTerm, a: FType, b: FType) -> FTerm:
    body = FApp(FBound(1 if i == 1 else 0), shift_fterm(t, 2, 1))
    return TyLam(FLam(Arrow(a, TBound(0)), FLam(Arrow(b, TBound(0)), body, hint="g"),
                      hint="f"), hint="r")


def case_f(t: FTerm, f1: FTerm, f2: FTerm, result: FType) -> FTerm:
    return FApp(FApp(TyApp(t, result), f1), f2)


# ---------------------------------------------------------------------------
# Typing

FContext = tuple[tuple[str, FType], ...]


def _expose_arrow(t: FType) -> tuple[FType, FType]:
    match t:
        case Arrow(d, c):
            return d, c
        case FPos(a, b):
            return FNeg(a, b), a
        case FNeg(a, b):
            return FPos(a, b), b
    raise NotAnArrowError(f"expected a function type, found {print_ftype(t)}")


def f_infer(ctx: FContext, t: FTerm) -> FType:
    """Algorithmic typing; conversion (ftype_equiv) at application domains."""
    match t:
        case FVar(name):
            for n, ty in reversed(ctx):
                if n == name:
                    return ty
            raise UnboundVariableError(f"unbound variable {name!r}")
        case FBound(i):
            raise TypingError(f"dangling bound variable #{i}")
        case FLam(annot, body, hint):
            x = fresh_name(hint or "x", {n for n, _ in ctx} | set(fterm_fv(body)))
            cod = f_infer(ctx + ((x, annot),), subst_fterm(body, 0, FVar(x)))
            return Arrow(annot, cod)
        case FApp(fun, arg):
            tf = f_infer(ctx, fun)
            dom, cod = _expose_arrow(tf)
            ta = f_infer(ctx, arg)
            if not ftype_equiv(ta, dom):
                raise DomainMismatchError(
                    f"argument type {print_ftype(ta)} does not match domain {print_ftype(dom)}")
            return cod
        case TyLam(body, hint):
            taken = fterm_ftv(body).union(*(ftype_vars(ty) for _, ty in ctx))
            beta = fresh_name(hint or "a", taken)
            inner = f_infer(ctx, subst_type_in_fterm(body, 0, TVar(beta)))
            return Forall(close_type(inner, beta), hint=beta)
        case TyApp(fun, ty):
            tf = f_infer(ctx, fun)
            if not isinstance(tf, Forall):
                raise NotAForallError(f"expected a polymorphic type, found {print_ftype(tf)}")
            return subst_type(tf.body, 0, ty)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Reduction

def f_match_redex(t: FTerm) -> FTerm | None:
    match t:
        case FApp(FLam(_, body, _), arg):
            return subst_fterm(body, 0, arg)
        case TyApp(TyLam(body, _), ty):
            return subst_type_in_fterm(body, 0, ty)
    return None


def f_reducts(t: FTerm) -> Iterator[FTerm]:
    """The one-step reducts of t (term or type beta), redexes in pre-order."""
    red = f_match_redex(t)
    if red is not None:
        yield red
    kids = fterm_children(t)
    for i, c in enumerate(kids):
        for stepped in f_reducts(c):
            yield fterm_rebuild(t, kids[:i] + (stepped,) + kids[i + 1:])


def f_step(t: FTerm) -> FTerm | None:
    """Leftmost-outermost beta step (term or type), or None."""
    return next(f_reducts(t), None)


def f_all_steps(t: FTerm) -> list[FTerm]:
    """All one-step reducts (every redex position)."""
    return list(f_reducts(t))


def f_normalize(t: FTerm, fuel: int = 100_000) -> FTerm:
    current = t
    for _ in range(fuel):
        nxt = f_step(current)
        if nxt is None:
            return current
        current = nxt
    raise FuelExhaustedError(f"no F normal form within {fuel} steps")


# ---------------------------------------------------------------------------
# Translation from proof terms

@lru_cache(maxsize=1 << 12)
def translate_prop(p: MProp) -> FType:
    """Measure-recursive translation of a moded proposition to an F type."""
    base, sign = p.base, p.sign
    if p.mode.strength == CLASSICAL:
        a_plus = translate_prop(MProp(base, Mode(STRONG, PLUS)))
        a_minus = translate_prop(MProp(base, Mode(STRONG, MINUS)))
        return FPos(a_plus, a_minus) if sign == PLUS else FNeg(a_plus, a_minus)
    match base:
        case PVar(name):
            return TVar(name) if sign == PLUS else Arrow(TVar(name), ZERO)
        case And(l, r) | Or(l, r):
            # a pair of this sign is a product, an injection a sum
            c = Mode(CLASSICAL, sign)
            encode = times if isinstance(base, PAIRED[sign]) else plus
            return encode(translate_prop(MProp(l, c)), translate_prop(MProp(r, c)))
        case Neg(inner):
            return Arrow(ONE, translate_prop(MProp(inner, Mode(CLASSICAL, flip(sign)))))
    raise TypeError(p)


@lru_cache(maxsize=1 << 12)
def funabs(p: MProp, q: MProp) -> FTerm:
    """The closed absurdity interpreter, typed T(p) -> T(opposite p) -> T(q)
    for the proposition translation T, defined by recursion on measure(p)."""
    tq = translate_prop(q)
    tp = translate_prop(p)
    tpo = translate_prop(opposite(p))
    x, y, z = FVar("x"), FVar("y"), FVar("z")

    def wrap(body: FTerm) -> FTerm:
        return flam("x", tp, flam("y", tpo, body))

    base, sign = p.base, p.sign
    if p.mode.strength == CLASSICAL:
        inner = funabs(MProp(base, Mode(STRONG, sign)), q)
        return wrap(FApp(FApp(inner, FApp(x, y)), FApp(y, x)))
    c, co = Mode(CLASSICAL, sign), Mode(CLASSICAL, flip(sign))
    match base:
        case PVar(_):
            return wrap(abort_f(tq, FApp(y, x) if sign == PLUS else FApp(x, y)))
        case And(l, r) | Or(l, r) if isinstance(base, PAIRED[sign]):
            # x is a product, y a sum: split y, project x
            tl, tr = translate_prop(MProp(l, c)), translate_prop(MProp(r, c))
            b1 = flam("z", translate_prop(MProp(l, co)),
                      FApp(FApp(funabs(MProp(l, c), q), proj_f(1, x, tl, tr)), z))
            b2 = flam("z", translate_prop(MProp(r, co)),
                      FApp(FApp(funabs(MProp(r, c), q), proj_f(2, x, tl, tr)), z))
            return wrap(case_f(y, b1, b2, tq))
        case And(l, r) | Or(l, r):
            # x is a sum, y a product: split x, project y
            tl, tr = translate_prop(MProp(l, co)), translate_prop(MProp(r, co))
            b1 = flam("z", translate_prop(MProp(l, c)),
                      FApp(FApp(funabs(MProp(l, c), q), z), proj_f(1, y, tl, tr)))
            b2 = flam("z", translate_prop(MProp(r, c)),
                      FApp(FApp(funabs(MProp(r, c), q), z), proj_f(2, y, tl, tr)))
            return wrap(case_f(x, b1, b2, tq))
        case Neg(inner):
            return wrap(FApp(FApp(funabs(MProp(inner, co), q), FApp(x, TRIV)),
                             FApp(y, TRIV)))
    raise TypeError(p)


def translate_ctx(ctx: Context) -> FContext:
    return tuple((name, translate_prop(p)) for name, p in ctx)


def translate_term(d: Derivation) -> FTerm:
    """Translate a typing derivation into an F term of the translated type."""
    t = d.subject
    match d.rule:
        case "Ax":
            assert isinstance(t, Var)
            return FVar(t.name)
        case "Abs":
            dl, dr = d.premises
            return FApp(FApp(funabs(dl.conclusion, d.conclusion),
                             translate_term(dl)), translate_term(dr))
        case "IAnd+" | "IOr-":
            dl, dr = d.premises
            return pair_f(translate_term(dl), translate_term(dr),
                          translate_prop(dl.conclusion), translate_prop(dr.conclusion))
        case "EAnd+" | "EOr-":
            (db,) = d.premises
            assert isinstance(t, Proj)
            p = db.conclusion
            comp_mode = Mode(CLASSICAL, p.sign)
            ta = translate_prop(MProp(p.base.left, comp_mode))
            tb = translate_prop(MProp(p.base.right, comp_mode))
            return proj_f(t.index, translate_term(db), ta, tb)
        case "IOr+" | "IAnd-":
            (db,) = d.premises
            assert isinstance(t, Inj)
            concl = d.conclusion
            comp_mode = Mode(CLASSICAL, concl.sign)
            ta = translate_prop(MProp(concl.base.left, comp_mode))
            tb = translate_prop(MProp(concl.base.right, comp_mode))
            return in_f(t.index, translate_term(db), ta, tb)
        case "EOr+" | "EAnd-":
            dsc, d1, d2 = d.premises
            assert isinstance(t, Case)
            n1 = d1.ctx.entries[-1][0]
            n2 = d2.ctx.entries[-1][0]
            f1 = flam(n1, translate_prop(t.annot1), translate_term(d1))
            f2 = flam(n2, translate_prop(t.annot2), translate_term(d2))
            return case_f(translate_term(dsc), f1, f2, translate_prop(d.conclusion))
        case "INeg+" | "INeg-":
            (db,) = d.premises
            body = translate_term(db)
            u = fresh_name("u", set(fterm_fv(body)))
            return flam(u, ONE, body)
        case "ENeg+" | "ENeg-":
            (db,) = d.premises
            return FApp(translate_term(db), TRIV)
        case "IC+" | "IC-":
            (db,) = d.premises
            assert isinstance(t, CLam)
            n = db.ctx.entries[-1][0]
            return flam(n, translate_prop(t.annot), translate_term(db))
        case "EC+" | "EC-":
            df, da = d.premises
            return FApp(translate_term(df), translate_term(da))
    raise InvalidDerivationError(f"unknown rule {d.rule}")


def f_head_step(t: FTerm) -> FTerm | None:
    """Contract the head redex (leftmost redex on the application spine)."""
    red = f_match_redex(t)
    if red is not None:
        return red
    if isinstance(t, (FApp, TyApp)):
        h = f_head_step(t.fun)
        return None if h is None else fterm_rebuild(t, (h, fterm_children(t)[1]))
    return None


def f_reaches(source: FTerm, target: FTerm) -> int | None:
    """Length of a shortest standard reduction from source to target, or
    None if the target is unreachable.

    The system is orthogonal, so by standardization every reduction
    permutes into head steps followed by internal reductions of the
    components; it therefore suffices to walk the head chain, attempting
    component-wise decomposition at every point.  This collapses the
    interleavings of independent redexes that defeat a naive breadth-first
    search without changing the answer, and a standard path is still a
    path, so its length bounds the depth a breadth-first search would
    need.
    """
    memo: dict[tuple[FTerm, FTerm], int | None] = {}

    def go(u: FTerm, s: FTerm) -> int | None:
        if u == s:
            return 0
        key = (u, s)
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard; reduction is acyclic anyway
        best = _decompose(u, s) if type(u) is type(s) else None
        head = f_head_step(u)
        if head is not None:
            via_head = go(head, s)
            if via_head is not None and (best is None or 1 + via_head < best):
                best = 1 + via_head
        memo[key] = best
        return best

    def _decompose(u: FTerm, s: FTerm) -> int | None:
        # u and s share a constructor: their type fields must be equal and
        # each term child of u must reach the matching child of s
        pairs = list(zip(fterm_children(u), fterm_children(s)))
        if not pairs or any(isinstance(a, FType) and a != b for a, b in pairs):
            return None
        total = 0
        for a, b in pairs:
            if isinstance(a, FTerm):
                d = go(a, b)
                if d is None:
                    return None
                total += d
        return total

    return go(source, target)


def check_simulation(t, s, d: Derivation, depth: int = 25) -> bool:
    """Does the translation of t reduce to the translation of s in >= 1
    F-steps within the bound?

    t -> s must be a single reduction step and d a derivation for t.  The
    search is exact over all redex choices (see f_reaches); on failure the
    caller learns only that no path exists within the bound.
    """
    source = translate_term(d)
    ds = check_type(d.ctx, s, d.conclusion)
    target = translate_term(ds)
    if source == target:
        return False  # a >= 1 step loop is impossible in a normalizing system
    dist = f_reaches(source, target)
    return dist is not None and dist <= depth


# ---------------------------------------------------------------------------
# Polarity and positivity tooling

@dataclass(frozen=True)
class Polarity:
    pos: frozenset[FType]
    neg: frozenset[FType]
    wpos: frozenset[FType]
    wneg: frozenset[FType]
    compl: int


# Polarity is a depth modulo 2 over the type shape: the table lists, per
# constructor, which children have the opposite polarity to their parent.
# Atoms (variables and constraint variables) are counted where they occur;
# the strong walk treats Pos/Neg as opaque, the weak one looks inside.
_strong_fold = make_fold(lambda t: () if isinstance(t, (FPos, FNeg)) else ftype_children(t),
                         {Arrow: (1, 0)}, operator.xor)
_weak_fold = make_fold(ftype_children, {Arrow: (1, 0), FPos: (0, 1), FNeg: (1, 0)},
                       operator.xor)


def _by_polarity(fold, t: FType) -> tuple[frozenset[FType], frozenset[FType]]:
    found: tuple[set, set] = (set(), set())  # positive, negative

    def visit(u: FType, side: int) -> None:
        if isinstance(u, (TVar, FPos, FNeg)):
            found[side].add(u)

    fold(t, visit)
    return frozenset(found[0]), frozenset(found[1])


def complexity(t: FType) -> int:
    return len(preorder(ftype_fold, t))


def polarity(t: FType) -> Polarity:
    """Positive/negative and weakly positive/negative variable occurrences
    (constraint variables count as atoms), plus the complexity measure."""
    pos, neg = _by_polarity(_strong_fold, t)
    wpos, wneg = _by_polarity(_weak_fold, t)
    return Polarity(pos, neg, wpos, wneg, complexity(t))


# ---------------------------------------------------------------------------
# Printing

def _mentions_bound0(t: FType, depth: int = 0) -> bool:
    return bool(ftype_fold(t, lambda u, d: isinstance(u, TBound) and u.index == d, depth))


def _unsugar_type(t: FType) -> tuple[str, FType, FType] | str | None:
    if t == ZERO:
        return "0"
    if t == ONE:
        return "1"
    match t:
        case Forall(Arrow(Arrow(a, Arrow(b, TBound(0))), TBound(0)), _):
            if not _mentions_bound0(a) and not _mentions_bound0(b):
                return ("*", shift_type(a, -1), shift_type(b, -1))
        case Forall(Arrow(Arrow(a, TBound(0)), Arrow(Arrow(b, TBound(0)), TBound(0))), _):
            if not _mentions_bound0(a) and not _mentions_bound0(b):
                return ("+", shift_type(a, -1), shift_type(b, -1))
    return None


def print_ftype(t: FType, env: tuple[str, ...] = ()) -> str:
    sugar = _unsugar_type(t)
    if isinstance(sugar, str):
        return sugar
    if sugar is not None:
        op, a, b = sugar
        return f"({print_ftype(a, env)} {op} {print_ftype(b, env)})"
    match t:
        case TVar(n):
            return n
        case TBound(i):
            return env[i] if i < len(env) else f"#{i}"
        case FPos(a, b):
            return f"Pos<{print_ftype(a, env)}, {print_ftype(b, env)}>"
        case FNeg(a, b):
            return f"Neg<{print_ftype(a, env)}, {print_ftype(b, env)}>"
        case Arrow(d, c):
            ds = print_ftype(d, env)
            if isinstance(d, Arrow) and _unsugar_type(d) is None:
                ds = f"({ds})"
            return f"{ds} -> {print_ftype(c, env)}"
        case Forall(b, hint):
            name = fresh_name(hint or "a", set(env) | set(ftype_vars(b)))
            return f"forall {name}. {print_ftype(b, (name,) + env)}"
    raise TypeError(t)


def print_fterm(t: FTerm, env: tuple[str, ...] = (), tyenv: tuple[str, ...] = ()) -> str:
    match t:
        case FVar(n):
            return n
        case FBound(i):
            return env[i] if i < len(env) else f"#{i}"
        case FLam(annot, body, hint):
            x = fresh_name(hint or "x", set(env) | set(fterm_fv(body)))
            return f"fun ({x} : {print_ftype(annot, tyenv)}) -> {print_fterm(body, (x,) + env, tyenv)}"
        case FApp(f, a):
            fs = print_fterm(f, env, tyenv)
            if isinstance(f, (FLam, TyLam)):
                fs = f"({fs})"
            args = print_fterm(a, env, tyenv)
            if isinstance(a, (FLam, TyLam, FApp, TyApp)):
                args = f"({args})"
            return f"{fs} {args}"
        case TyLam(body, hint):
            a = fresh_name(hint or "a", set(tyenv))
            return f"tfun {a} -> {print_fterm(body, env, (a,) + tyenv)}"
        case TyApp(f, ty):
            fs = print_fterm(f, env, tyenv)
            if isinstance(f, (FLam, TyLam)):
                fs = f"({fs})"
            return f"{fs} [{print_ftype(ty, tyenv)}]"
    raise TypeError(t)

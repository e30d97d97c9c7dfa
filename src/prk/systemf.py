"""System F extended with the recursive Pos/Neg type constraints:
types, terms, coinductive type equivalence, algorithmic typing with
conversion, beta reduction, the 0/1/x/+ encodings, the translation from
proof terms, and the polarity/positivity tooling.

Pos<A,B> and Neg<A,B> are the constraint variables, subject to

    Pos<A,B>  ==  Neg<A,B> -> A        Neg<A,B>  ==  Pos<A,B> -> B

Bound variables (term and type) are de Bruijn indices; free variables
are named, so structural equality is alpha-equivalence.

Each tree's shape is read off its dataclass fields by syntax's
`make_shape`, plus one binder table: `FTYPE_BINDERS` for types and
`FTERM_BINDERS` for terms, where type fields are leaves and a binder
depth counts term and type binders separately.  Every walk over either
tree (shifting, substitution, closing, free variables, complexity,
polarity, reduction) is built on that shape with
the generic walks of syntax (`make_map`, `make_fold`, `make_debruijn`,
`make_normalize`).

Every node carries `free`, the summary syntax's `summarize` makes on its first
read from its children's: (bound on its free type indices, free type names,
bound on its free term indices, free term names), a bound being the
largest free index + 1.  Shifting, substitution and closing return a
subtree unvisited when its summary shows they cannot change it, so on the
shared and mostly closed translations they cost the size of the graph,
not that of the tree.  Typing opens no binder: `f_infer` reads a term
index's type off its binder's annotation, so it walks each term once.
`translate_term` builds each term index in place, walking no binder to close it.
"""

from __future__ import annotations

import operator
from dataclasses import field
from functools import lru_cache, partial

from .errors import (FuelExhaustedError, InvalidDerivationError, TypingError,
                     UnboundVariableError)
from .syntax import (BINDERS, CLASSICAL, MINUS, PAIRED, PLUS, STRONG, Abs, And, CApp,
                     CLam, Case, Frozen, Inj, MProp, Mode, Neg, NegE, NegI, Or, Pair,
                     Proj, PVar, Scope, Summarized, Var, flip, fresh_name, fv,
                     make_debruijn, make_fold, make_map, make_normalize, make_shape,
                     opposite, preorder, print_tree)
from .typecheck import Context, Derivation, check_type


class NotAnArrowError(TypingError):
    pass


class NotAForallError(TypingError):
    pass


class DomainMismatchError(TypingError):
    pass


# ---------------------------------------------------------------------------
# Types

class FType(Summarized):
    __slots__ = ()


class TVar(FType, leaf=(2, 1)):
    name: str


class TBound(FType, leaf=(2, 0)):
    index: int


class FPos(FType):
    a: FType
    b: FType


class FNeg(FType):
    a: FType
    b: FType


class Arrow(FType):
    dom: FType
    cod: FType


class Forall(FType):
    body: FType
    hint: str = field(default="a", compare=False)


# The shape of the type tree, read off its fields, and FTYPE_BINDERS; every
# type walk below is built on ftype_map and ftype_fold.  Types and terms
# share one summary layout, type variables first; types hold no term ones.

FTYPE_BINDERS = {Forall: (1,)}  # binders over each child
ftype_children, ftype_rebuild = make_shape(FType, binders=FTYPE_BINDERS,
                                           sorts=((TBound, TVar), ()), under=lambda k: (k, 0))
ftype_map = make_map(ftype_children, ftype_rebuild, FTYPE_BINDERS)
ftype_fold = make_fold(ftype_children, FTYPE_BINDERS)
shift_type, subst_type, close_type = make_debruijn(ftype_map, TBound, TVar)


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


def _expose_arrow(t: FType, show) -> tuple[FType, FType]:
    """Domain and codomain of an arrow or a constraint variable's unfolding."""
    match t:
        case Arrow(d, c):
            return d, c
        case FPos(a, b):
            return FNeg(a, b), a
        case FNeg(a, b):
            return FPos(a, b), b
    raise NotAnArrowError(f"expected a function type, found {show(t)}")


def unfold_constraint(t: FType) -> FType:
    """One unfolding of a constraint variable into its arrow form."""
    return Arrow(*_expose_arrow(t, print_ftype))


def ftype_equiv(a: FType, b: FType) -> bool:
    """Decide the equivalence generated by the Pos/Neg constraints.

    Coinductive algorithm: pairs under comparison are assumed equal while
    their unfoldings are compared.  Sound (and terminating) because every
    constraint right-hand side is an arrow and unfolding never invents
    new constraint variables.
    """
    assumed: set[tuple[FType, FType]] = set()
    todo = [(a, b)]  # pairs still to compare, the next one last
    while todo:
        a, b = key = todo.pop()
        if a == b or key in assumed:
            continue
        assumed.add(key)
        match a, b:
            case ((FPos(a1, b1), FPos(a2, b2)) | (FNeg(a1, b1), FNeg(a2, b2))
                  | (Arrow(a1, b1), Arrow(a2, b2))):
                todo += (b1, b2), (a1, a2)
            case (FPos(_, _) | FNeg(_, _), _):
                todo.append((unfold_constraint(a), b))
            case (_, FPos(_, _) | FNeg(_, _)):
                todo.append((a, unfold_constraint(b)))
            case (Forall(b1, _), Forall(b2, _)):
                todo.append((b1, b2))
            case _:
                return False
    return True


# ---------------------------------------------------------------------------
# Terms

class FTerm(Summarized):
    __slots__ = ()


class FVar(FTerm, leaf=(2, 3)):
    name: str


class FBound(FTerm, leaf=(2, 2)):
    index: int


class FLam(FTerm):
    annot: FType
    body: FTerm
    hint: str = field(default="x", compare=False)


class FApp(FTerm):
    fun: FTerm
    arg: FTerm


class TyLam(FTerm):
    body: FTerm
    hint: str = field(default="a", compare=False)


class TyApp(FTerm):
    fun: FTerm
    ty: FType


# The shape of the term tree, read off its fields, and FTERM_BINDERS.  Type
# fields are leaves of the term tree, and a depth is a pair (term binders,
# type binders); every term walk below is built on fterm_map and fterm_fold.

FTERM_BINDERS = {FLam: ((0, 0), (1, 0)), TyLam: ((0, 1),)}  # (term, type) binders
fterm_children, fterm_rebuild = make_shape(FTerm, (FType,), FTERM_BINDERS,
                                           ((TBound, TVar), (FBound, FVar)), lambda k: k[::-1])


def _deeper(depth: tuple[int, int], k: tuple[int, int]) -> tuple[int, int]:
    return depth[0] + k[0], depth[1] + k[1]


fterm_map = make_map(fterm_children, fterm_rebuild, FTERM_BINDERS, _deeper, (0, 0))
fterm_fold = make_fold(fterm_children, FTERM_BINDERS, _deeper, (0, 0))
_fterm_normalize = make_normalize(fterm_children, fterm_rebuild)


# Each walk below skips the subtrees its keep test shows it cannot change, so
# every leaf it visits is one it changes.

def shift_fterm(t: FTerm, d_term: int, d_type: int, c_term: int = 0, c_type: int = 0) -> FTerm:
    """Shift term indices by d_term and type indices by d_type."""

    def leaf(u, cut: tuple[int, int]):  # a term index >= cut[0], or a type
        if isinstance(u, FBound):
            return FBound(u.index + d_term)
        return shift_type(u, d_type, cut[1])

    return fterm_map(t, leaf, (c_term, c_type), keep=lambda u, cut: (
        (not d_term or u.free[2] <= cut[0]) and (not d_type or u.free[0] <= cut[1])))


def subst_fterm(t: FTerm, j: int, s: FTerm) -> FTerm:
    """Substitute s for term index j (beta for term application); s is
    shifted by the term and type binders crossed on the way in."""

    def leaf(u, depth: tuple[int, int]):  # a term index >= j + depth[0]
        d_term, d_type = depth
        if u.index > j + d_term:
            return FBound(u.index - 1)
        return shift_fterm(s, d_term, d_type) if (d_term or d_type) else s

    return fterm_map(t, leaf, keep=lambda u, d: u.free[2] <= j + d[0])


def subst_type_in_fterm(t: FTerm, j: int, a: FType) -> FTerm:
    """Substitute a for type index j throughout a term (beta for type
    application)."""
    return fterm_map(t, lambda u, d: subst_type(u, j, a, d[1]),
                     keep=lambda u, d: u.free[0] <= j + d[1])


def fterm_fv(t: FTerm) -> frozenset[str]:
    return t.free[3]


# Encodings of unit/empty/product/sum introduction and elimination.

TRIV = TyLam(FLam(TBound(0), FBound(0), hint="x"), hint="a")


def abort_f(ty: FType, t: FTerm) -> FTerm:
    return TyApp(t, ty)


def pair_f(t: FTerm, s: FTerm, a: FType, b: FType) -> FTerm:
    """Pair t and s, which sit under a type and a term binder: their indices count them."""
    f = Arrow(a, Arrow(b, TBound(0)))
    return TyLam(FLam(f, FApp(FApp(FBound(0), t), s), hint="f"), hint="r")


def proj_f(i: int, t: FTerm, a: FType, b: FType) -> FTerm:
    sel = FLam(a, FLam(b, FBound(1 if i == 1 else 0), hint="y"), hint="x")
    return FApp(TyApp(t, a if i == 1 else b), sel)


def in_f(i: int, t: FTerm, a: FType, b: FType) -> FTerm:
    """Inject t, which sits under a type and two term binders: its indices count them."""
    g = FLam(Arrow(b, TBound(0)), FApp(FBound(1 if i == 1 else 0), t), hint="g")
    return TyLam(FLam(Arrow(a, TBound(0)), g, hint="f"), hint="r")


def case_f(t: FTerm, f1: FTerm, f2: FTerm, result: FType) -> FTerm:
    return FApp(FApp(TyApp(t, result), f1), f2)


# ---------------------------------------------------------------------------
# Typing

FContext = tuple[tuple[str, FType], ...]


def f_infer(ctx: FContext, t: FTerm) -> FType:
    """Algorithmic typing against an environment, with conversion (ftype_equiv) at
    applications: a name has its last type in ctx, a term index its FLam's annotation
    shifted past the type binders crossed since.  No binder is opened."""
    names = dict(ctx)
    lams: list[tuple[FType, int]] = []  # (annotation, type depth at binding), innermost last
    hints: list[str] = []  # the enclosing TyLams' hints, innermost last

    def show(ty: FType) -> str:  # open type variables named apart from the free ones
        scope, taken = Scope(), t.free[1].union(*map(ftype_vars, names.values()))
        return print_ftype(ty, tuple(reversed([scope.push(h, taken) for h in hints])))

    def lift(ty: FType, n: int) -> FType:  # ty, seen from n more type binders in
        return shift_type(ty, n) if n and ty.free[0] else ty

    def go(u: FTerm) -> FType:
        kind = type(u)  # identity tests, cheaper than class patterns
        if kind is FApp:
            dom, cod = _expose_arrow(go(u.fun), show)
            ta = go(u.arg)
            if ta is not dom and not ftype_equiv(ta, dom):
                raise DomainMismatchError(
                    f"argument type {show(ta)} does not match domain {show(dom)}")
            return cod
        if kind is FBound:
            if u.index >= len(lams):
                raise TypingError(f"dangling bound variable #{u.index - len(lams)}")
            annot, depth = lams[-1 - u.index]
            return lift(annot, len(hints) - depth)
        if kind is FLam:
            lams.append((u.annot, len(hints)))
            cod = go(u.body)
            lams.pop()
            return Arrow(u.annot, cod)
        if kind is TyApp:
            tf = go(u.fun)
            if not isinstance(tf, Forall):
                raise NotAForallError(f"expected a polymorphic type, found {show(tf)}")
            return subst_type(tf.body, 0, u.ty)
        if kind is TyLam:
            hints.append(u.hint or "a")
            inner = go(u.body)
            hints.pop()
            return Forall(inner, hint=u.hint)
        if kind is FVar:
            if u.name in names:
                return lift(names[u.name], len(hints))
            raise UnboundVariableError(f"unbound variable {u.name!r}")
        raise TypeError(u)

    return go(t)


# ---------------------------------------------------------------------------
# Reduction

def f_match_redex(t: FTerm) -> FTerm | None:
    match t:
        case FApp(FLam(_, body, _), arg):
            return subst_fterm(body, 0, arg)
        case TyApp(TyLam(body, _), ty):
            return subst_type_in_fterm(body, 0, ty)
    return None


def _f_redex(t: FTerm) -> tuple[str, FTerm] | None:
    """f_match_redex as the walk's match: ("beta", reduct) or None."""
    return (r := f_match_redex(t)) and ("beta", r)


def f_step(t: FTerm) -> FTerm | None:
    """The leftmost-outermost beta step (term or type), or None: f_normalize's
    walk, stopped at its first contraction, which makes a new root."""
    new = _fterm_normalize(t, _f_redex, lambda *_: True)
    return None if new is t else new


def f_normalize(t: FTerm, fuel: int = 100_000) -> FTerm:
    """The leftmost-outermost normal form; fuel counts contractions, as in normalize."""
    allowed = iter(range(fuel))

    def count(*_) -> None:
        if next(allowed, None) is None:
            raise FuelExhaustedError(f"no F normal form within {fuel} steps")

    return _fterm_normalize(t, _f_redex, count)


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
        case And() | Or():
            # a pair of this sign is a product, an injection a sum
            encode = times if isinstance(base, PAIRED[sign]) else plus
            return encode(*_halves(p))
        case Neg(inner):
            return Arrow(ONE, translate_prop(MProp(inner, Mode(CLASSICAL, flip(sign)))))
    raise TypeError(p)


def _halves(p: MProp) -> tuple[FType, FType]:
    """The translations of the two components of p, a strong pair or
    injection type: classical, at p's sign."""
    c = Mode(CLASSICAL, p.sign)
    return translate_prop(MProp(p.base.left, c)), translate_prop(MProp(p.base.right, c))


@lru_cache(maxsize=1 << 12)
def funabs(p: MProp, q: MProp) -> FTerm:
    """The closed absurdity interpreter, typed T(p) -> T(opposite p) -> T(q)
    for the proposition translation T, defined by recursion on measure(p)."""
    tq, tp, tpo = translate_prop(q), translate_prop(p), translate_prop(opposite(p))
    x, y, z = FBound(1), FBound(0), FBound(0)  # in wrap's body; in a branch z is 0, x, y 2, 1

    def wrap(body: FTerm) -> FTerm:
        return FLam(tp, FLam(tpo, body, hint="y"), hint="x")

    base, sign = p.base, p.sign
    if p.mode.strength == CLASSICAL:
        inner = funabs(MProp(base, Mode(STRONG, sign)), q)
        return wrap(FApp(FApp(inner, FApp(x, y)), FApp(y, x)))
    c, co = Mode(CLASSICAL, sign), Mode(CLASSICAL, flip(sign))
    match base:
        case PVar(_):
            return wrap(abort_f(tq, FApp(y, x) if sign == PLUS else FApp(x, y)))
        case And() | Or():
            # one of x, y is a sum, split into branches; each meets a projection of the other
            paired = isinstance(base, PAIRED[sign])  # x is the product
            tl, tr = _halves(p if paired else opposite(p))
            branches = []
            for i, part in ((1, base.left), (2, base.right)):
                inner, proj = funabs(MProp(part, c), q), proj_f(i, FBound(1 + paired), tl, tr)
                body = FApp(FApp(inner, proj), z) if paired else FApp(FApp(inner, z), proj)
                branches.append(FLam(translate_prop(MProp(part, co if paired else c)), body,
                                     hint="z"))
            return wrap(case_f(y if paired else x, *branches, tq))
        case Neg(inner):
            return wrap(FApp(FApp(funabs(MProp(inner, co), q), FApp(x, TRIV)), FApp(y, TRIV)))
    raise TypeError(p)


def translate_ctx(ctx: Context) -> FContext:
    return tuple((name, translate_prop(p)) for name, p in ctx)


# The F term binders over each premise's translation, by subject class; the others put none.
# A case or clam premise is under its term binders.
_PREMISE_BINDERS = {Pair: (1, 1), Inj: (2,), NegI: (1,), **BINDERS}


def translate_term(d: Derivation) -> FTerm:
    """Translate a typing derivation into an F term of the translated type."""
    done: list[FTerm] = []  # results, each node's after its premises'
    bodies: dict[str, int] = {}  # a bound name -> its body's depth (typing names binders apart)
    stack: list = [(d, 0, None)]  # (node, depth or None once visited, the name it binds)
    while stack:
        d, depth, name = stack.pop()
        if name is not None:
            bodies[name] = depth
        if depth is None:  # the translations of d's premises are on top of done
            done.append(_translate(d, [done.pop() for _ in d.premises][::-1]))
        elif type(u := d.subject) is Var:
            done.append(FBound(depth - bodies[u.name]) if u.name in bodies else FVar(u.name))
        else:  # a premise has d's ctx itself, or one a clam or case binder extends by its name
            stack.append((d, None, None))
            for p, k in zip(reversed(d.premises), reversed(_PREMISE_BINDERS.get(type(u), (0, 0)))):
                stack.append((p, depth + k, p.ctx.name if p.ctx is not d.ctx else None))
    return done[0]


def _translate(d: Derivation, fs: list[FTerm]) -> FTerm:
    """The translation of d from fs, its premises' translations."""
    match d.subject:
        case Abs():
            return FApp(FApp(funabs(d.premises[0].conclusion, d.conclusion), fs[0]), fs[1])
        case Pair():
            return pair_f(*fs, *_halves(d.conclusion))
        case Proj(_, index):
            return proj_f(index, *fs, *_halves(d.premises[0].conclusion))
        case Inj(_, index):
            return in_f(index, *fs, *_halves(d.conclusion))
        case Case(_, _, annot1, _, annot2, _):
            (_, d1, d2), (fsc, fb1, fb2) = d.premises, fs
            return case_f(fsc, FLam(translate_prop(annot1), fb1, hint=d1.ctx.name),
                          FLam(translate_prop(annot2), fb2, hint=d2.ctx.name),
                          translate_prop(d.conclusion))
        case NegI():
            return FLam(ONE, fs[0], hint=fresh_name("u", fv(d.premises[0].subject)))
        case NegE():
            return FApp(fs[0], TRIV)
        case CLam(_, annot):
            return FLam(translate_prop(annot), fs[0], hint=d.premises[0].ctx.name)
        case CApp():
            return FApp(*fs)
    raise InvalidDerivationError(f"unknown rule {d.rule}")


def f_head_step(t: FTerm) -> FTerm | None:
    """Contract the head redex (leftmost redex on the application spine)."""
    spine = []  # the applications over the head, outermost first
    while (red := f_match_redex(t)) is None and isinstance(t, (FApp, TyApp)):
        spine.append(t)
        t = t.fun
    for u in reversed(spine) if red else ():
        red = fterm_rebuild(u, (red, fterm_children(u)[1]))
    return red


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

class Polarity(metaclass=Frozen):
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

def _sugar(t: Forall) -> list | None:
    """The parts of t as 0, 1, a product or a sum for print_tree, or None."""
    if t == ZERO:
        return ["0"]
    if t == ONE:
        return ["1"]
    match t:
        case Forall(Arrow(Arrow(a, Arrow(b, TBound(0))), TBound(0)), _):
            op = " * "
        case Forall(Arrow(Arrow(a, TBound(0)), Arrow(Arrow(b, TBound(0)), TBound(0))), _):
            op = " + "
        case _:
            return None
    try:
        return ["(", shift_type(a, -1), op, shift_type(b, -1), ")"]
    except ValueError:  # a or b mentions the bound variable: no sugar
        return None


def print_ftype(t: FType, env: tuple[str, ...] = ()) -> str:
    return print_tree(t, partial(_layout, scope=Scope(), tyscope=Scope(env)))


def print_fterm(t: FTerm) -> str:
    return print_tree(t, partial(_layout, scope=Scope(), tyscope=Scope()))


def _parens(t: FTerm, kinds: tuple[type, ...]) -> list:
    return ["(", t, ")"] if isinstance(t, kinds) else [t]


def _layout(t: FTerm | FType, scope: Scope, tyscope: Scope) -> list:
    """The parts of t for print_tree; scope and tyscope name the open term
    and type binders."""
    kind = type(t)
    if kind is FApp:
        return _parens(t.fun, (FLam, TyLam)) + [" "] + _parens(t.arg, (FLam, TyLam, FApp, TyApp))
    if kind is FBound:
        return [scope.name(t.index)]
    if kind is TBound:
        return [tyscope.name(t.index)]
    if kind is Arrow:  # sugar is a Forall, so an Arrow domain always takes parentheses
        return (["(", t.dom, ")"] if type(t.dom) is Arrow else [t.dom]) + [" -> ", t.cod]
    if kind is FLam:
        return ["fun (", scope.push(t.hint or "x", fterm_fv(t.body)), " : ", t.annot, ") -> ",
                t.body, scope.pop]
    if kind is Forall:
        return _sugar(t) or ["forall ", tyscope.push(t.hint or "a", ftype_vars(t.body)), ". ",
                             t.body, tyscope.pop]
    if kind is TyApp:
        return _parens(t.fun, (FLam, TyLam)) + [" [", t.ty, "]"]
    if kind is TyLam:
        return ["tfun ", tyscope.push(t.hint or "a"), " -> ", t.body, tyscope.pop]
    if kind is TVar or kind is FVar:
        return [t.name]
    if kind is FPos or kind is FNeg:
        return ["Pos<" if kind is FPos else "Neg<", t.a, ", ", t.b, ">"]
    raise TypeError(t)

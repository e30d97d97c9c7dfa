"""Abstract syntax for pure/moded propositions and proof terms.

Terms use de Bruijn indices for bound variables and names for free
variables, so structural equality of terms *is* alpha-equivalence
(binder name hints are carried for printing but excluded from
comparison).  All values are immutable.

The shape of the term tree lives in one place: `children`, `rebuild` and
the binder table `BINDERS`.  Every walk over terms (size, free variables,
shifting, substitution, closing, duality, subterm iteration) is built on
that shape through the generic walks defined here: `make_map`, a
binder-aware map that keeps unchanged nodes, and `make_fold`, an
iterative pre-order walk; `make_debruijn` derives shifting, substitution
and closing from a map.  systemf builds its type and term walks on the
same helpers.

The calculus is symmetric between affirmation (sign +) and denial (sign
-), and that duality is written down once, in the table below the
modes: `PAIRED[sign]` is the connective a pair and a projection of that
sign work on, `INJECTED[sign]` the one an injection and a case work on,
and negation flips the sign.  Typing, forcing, the System F translation
and the generators state each rule once and read its `-` form off the
table, so no `-` rule is written out beside its `+` mirror.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Iterator, Sequence, Union


def cache_hash(cls):
    """Memoize the dataclass-generated hash on first use.

    Terms are immutable trees compared structurally; sets and memo tables
    hash the same nodes many times, so the recursive hash is cached."""
    generated = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = generated(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Generic walks over a tree shape.  A shape is children(t), the subtrees of
# t in field order (none for a leaf); rebuild(t, kids), t with them
# replaced; and a binder table giving, per binding constructor, how many
# binders each child sits under.  A depth counts binders from `top` at the
# root; deeper(depth, k) adds a table entry k to it.

def make_map(children, rebuild, binders, deeper=operator.add, top=0):
    """map(t, leaf, depth=top, keep=None) replaces every leaf u of t by
    leaf(u, d), d the depth of u; a subtree u with keep(u, d) true is
    returned as it is, unvisited.  A node whose children all come back
    unchanged is returned itself, so a map that changes nothing allocates
    nothing.  It keeps an explicit stack, so no tree is too deep for it."""

    def tree_map(t, leaf, depth=top, keep=None):
        done = []  # results, each node's after its children's
        stack = [(t, depth, None)]  # (node, depth, its children once visited)
        while stack:
            u, d, kids = stack.pop()
            if kids is not None:  # the results of kids are on top of done
                new = done[-len(kids):]
                del done[-len(kids):]
                done.append(u if all(map(operator.is_, new, kids)) else rebuild(u, new))
            elif keep is not None and keep(u, d):
                done.append(u)
            elif not (kids := children(u)):
                done.append(leaf(u, d))
            else:
                stack.append((u, d, kids))
                under = binders.get(type(u))
                if under is None:
                    for c in reversed(kids):
                        stack.append((c, d, None))
                else:
                    for c, k in zip(reversed(kids), reversed(under)):
                        stack.append((c, deeper(d, k), None))
        return done[0]

    return tree_map


def make_fold(children, binders, deeper=operator.add, top=0):
    """fold(t, visit, depth=top) calls visit(u, d) on every node u of t, d
    its depth, parents first and left to right, and returns the first true
    result.  It keeps an explicit stack, so no tree is too deep for it."""

    def fold(t, visit, depth=top):
        stack = [(t, depth)]
        pop, push = stack.pop, stack.append
        while stack:
            u, d = pop()
            hit = visit(u, d)
            if hit:
                return hit
            kids = children(u)
            if kids:
                under = binders.get(type(u))
                if under is None:
                    for c in reversed(kids):
                        push((c, d))
                else:
                    for c, k in zip(reversed(kids), reversed(under)):
                        push((c, deeper(d, k)))
        return None

    return fold


def preorder(fold, t) -> list:
    """Every node of t, parents first and left to right."""
    out: list = []
    fold(t, lambda u, _: out.append(u))
    return out


def make_debruijn(tree_map, Bound, Free, free=None):
    """Shifting, substitution and closing for a tree with one kind of
    binder, built on its map; Bound(i) is an index leaf, Free(n) a name.
    If given, free(u) starts with u's bound on free indices (largest + 1)
    and its free names, and each walk skips the subtrees it cannot change."""

    def unchanged(above: int, name=None):
        """The keep test of a walk that changes only indices >= above + depth and `name`."""
        return None if free is None else (
            lambda u, d: (f := free(u))[0] <= above + d and name not in f[1])

    def shift(t, amount: int, cutoff: int = 0):
        """Add `amount` to every index >= cutoff (indices below are untouched)."""

        def leaf(u, cut):
            if isinstance(u, Bound) and u.index >= cut:
                if u.index + amount < cut:
                    raise ValueError("shift would produce a dangling index")
                return Bound(u.index + amount)
            return u

        return tree_map(t, leaf, cutoff, keep=unchanged(0))

    def subst(t, j: int, s, depth: int = 0):
        """Substitute s for index j, removing that binder level: indices
        above it are decremented, and s is shifted by the binders crossed
        on the way in.  depth counts binders already crossed between s's
        home level and t."""

        def leaf(u, d):
            if isinstance(u, Bound):
                if u.index == j + d:
                    return shift(s, d) if d else s
                if u.index > j + d:
                    return Bound(u.index - 1)
            return u

        return tree_map(t, leaf, depth, keep=unchanged(j))

    def close(t, name: str, depth: int = 0):
        """Abstract the free variable `name` as index `depth` (inverse of
        substituting Free(name) for that index)."""

        def leaf(u, d):
            if isinstance(u, Free):
                return Bound(d) if u.name == name else u
            return Bound(u.index + 1) if u.index >= d else u

        return tree_map(t, leaf, depth, keep=unchanged(0, name))

    return shift, subst, close


# ---------------------------------------------------------------------------
# Pure propositions

class PureProp:
    """Base class for pure propositions (no mode)."""

    __slots__ = ()


@dataclass(frozen=True)
class PVar(PureProp):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class And(PureProp):
    left: PureProp
    right: PureProp

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or(PureProp):
    left: PureProp
    right: PureProp

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Neg(PureProp):
    inner: PureProp

    def __str__(self) -> str:
        return f"~{self.inner}"


def prop_size(a: PureProp) -> int:
    """Number of symbols: every variable and connective counts one."""
    match a:
        case PVar(_):
            return 1
        case And(l, r) | Or(l, r):
            return 1 + prop_size(l) + prop_size(r)
        case Neg(inner):
            return 1 + prop_size(inner)
    raise TypeError(a)


def prop_vars(a: PureProp) -> frozenset[str]:
    match a:
        case PVar(name):
            return frozenset((name,))
        case And(l, r) | Or(l, r):
            return prop_vars(l) | prop_vars(r)
        case Neg(inner):
            return prop_vars(inner)
    raise TypeError(a)


def prop_dual(a: PureProp) -> PureProp:
    """Swap conjunction/disjunction, push through negation, fix variables."""
    match a:
        case PVar(_):
            return a
        case And(l, r):
            return Or(prop_dual(l), prop_dual(r))
        case Or(l, r):
            return And(prop_dual(l), prop_dual(r))
        case Neg(inner):
            return Neg(prop_dual(inner))
    raise TypeError(a)


def prop_depth(a: PureProp) -> int:
    """Formula height, counting a variable as depth 1."""
    match a:
        case PVar(_):
            return 1
        case And(l, r) | Or(l, r):
            return 1 + max(prop_depth(l), prop_depth(r))
        case Neg(inner):
            return 1 + prop_depth(inner)
    raise TypeError(a)


# ---------------------------------------------------------------------------
# Modes and moded propositions

STRONG = "s"
CLASSICAL = "c"
PLUS = "+"
MINUS = "-"


@dataclass(frozen=True)
class Mode:
    strength: str  # "s" | "c"
    sign: str      # "+" | "-"

    def __post_init__(self) -> None:
        if self.strength not in (STRONG, CLASSICAL) or self.sign not in (PLUS, MINUS):
            raise ValueError(f"bad mode {self.strength!r}{self.sign!r}")

    def __str__(self) -> str:
        return f"^{self.strength}{self.sign}"


MODES = (Mode("s", "+"), Mode("s", "-"), Mode("c", "+"), Mode("c", "-"))

Sign = str  # "+" | "-"


def flip(sign: Sign) -> Sign:
    return MINUS if sign == PLUS else PLUS


# The duality table (see the module docstring).  Rule names are read off
# it too: pair/in are I{connective}{sign}, proj/case E{connective}{sign}.
PAIRED = {PLUS: And, MINUS: Or}
INJECTED = {PLUS: Or, MINUS: And}
STANCE = {PLUS: "affirmation", MINUS: "denial"}


def strong_noun(conn: type, sign: Sign) -> str:
    """'strong conjunction', 'strong disjunction denial', ... for messages."""
    noun = "strong conjunction" if conn is And else "strong disjunction"
    return noun if sign == PLUS else f"{noun} denial"


@dataclass(frozen=True)
class MProp:
    """A pure proposition under one of the four modes."""

    base: PureProp
    mode: Mode

    def __str__(self) -> str:
        return f"{self.base}{self.mode}"

    @property
    def sign(self) -> str:
        return self.mode.sign

    @property
    def is_strong(self) -> bool:
        return self.mode.strength == STRONG

    @property
    def is_classical(self) -> bool:
        return self.mode.strength == CLASSICAL


def opposite(p: MProp) -> MProp:
    """Flip the sign, preserve strength and base."""
    return MProp(p.base, Mode(p.mode.strength, flip(p.sign)))


def truncate(p: MProp) -> MProp:
    """Force the strength to classical, preserve sign and base."""
    return MProp(p.base, Mode(CLASSICAL, p.sign))


def measure(p: MProp) -> int:
    """2|A| for strong modes, 2|A|+1 for classical modes."""
    n = 2 * prop_size(p.base)
    return n + 1 if p.is_classical else n


def mprop_dual(p: MProp) -> MProp:
    """Dualize the base and flip the sign, keeping strength."""
    return MProp(prop_dual(p.base), Mode(p.mode.strength, flip(p.sign)))


# ---------------------------------------------------------------------------
# Terms

class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    """Free variable, referenced by name."""

    name: str


@dataclass(frozen=True)
class Bound(Term):
    """Bound variable as a de Bruijn index into enclosing binders."""

    index: int


@dataclass(frozen=True)
class Abs(Term):
    """Absurdity witness abs[Q](t, s) from a strong contradiction."""

    annot: MProp
    left: Term
    right: Term


@dataclass(frozen=True)
class Pair(Term):
    sign: Sign
    left: Term
    right: Term


@dataclass(frozen=True)
class Proj(Term):
    sign: Sign
    index: int  # 1 | 2
    body: Term


@dataclass(frozen=True)
class Inj(Term):
    sign: Sign
    index: int  # 1 | 2
    body: Term


@dataclass(frozen=True)
class Case(Term):
    """Binary case split; each branch binds one variable (index 0)."""

    sign: Sign
    scrutinee: Term
    annot1: MProp
    branch1: Term
    annot2: MProp
    branch2: Term
    hint1: str = field(default="x", compare=False)
    hint2: str = field(default="y", compare=False)


@dataclass(frozen=True)
class NegI(Term):
    sign: Sign
    body: Term


@dataclass(frozen=True)
class NegE(Term):
    sign: Sign
    body: Term


@dataclass(frozen=True)
class CLam(Term):
    """Classical introduction; binds one variable (index 0) in the body."""

    sign: Sign
    annot: MProp
    body: Term
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class CApp(Term):
    sign: Sign
    fun: Term
    arg: Term


# ---------------------------------------------------------------------------
# The shape of the term tree: children, rebuild and BINDERS are the only
# code that lists the term constructors for structural recursion.

def children(t: Term) -> tuple[Term, ...]:
    """Immediate subterms in field order (empty for a variable)."""
    match t:
        case Var() | Bound():
            return ()
        case CLam() | NegI() | NegE() | Proj() | Inj():
            return (t.body,)
        case CApp():
            return (t.fun, t.arg)
        case Pair() | Abs():
            return (t.left, t.right)
        case Case():
            return (t.scrutinee, t.branch1, t.branch2)
    raise TypeError(t)


def rebuild(t: Term, kids: Sequence[Term]) -> Term:
    """t with its immediate subterms replaced by kids, in field order."""
    match t:
        case Var() | Bound():
            return t
        case CLam():
            return CLam(t.sign, t.annot, kids[0], t.hint)
        case NegI() | NegE() | CApp() | Pair():
            return type(t)(t.sign, *kids)
        case Proj() | Inj():
            return type(t)(t.sign, t.index, kids[0])
        case Abs():
            return Abs(t.annot, *kids)
        case Case():
            return Case(t.sign, kids[0], t.annot1, kids[1], t.annot2, kids[2], t.hint1, t.hint2)
    raise TypeError(t)


BINDERS = {CLam: (1,), Case: (0, 1, 1)}  # binders over each child

term_map = make_map(children, rebuild, BINDERS)
term_fold = make_fold(children, BINDERS)
shift, subst_bound, close_binder = make_debruijn(term_map, Bound, Var)


def subterms(t: Term) -> Iterator[Term]:
    """Pre-order iteration over all subterms (bodies of binders included)."""
    return iter(preorder(term_fold, t))


def term_size(t: Term) -> int:
    return len(preorder(term_fold, t))


def fv(t: Term) -> frozenset[str]:
    """Free (named) variables."""
    return frozenset(u.name for u in preorder(term_fold, t) if isinstance(u, Var))


def uses_index(t: Term, k: int) -> bool:
    """Does t refer to the k-th enclosing binder (relative to t's root)?"""
    return bool(term_fold(t, lambda u, d: isinstance(u, Bound) and u.index == d, k))


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution of the free variable x by s.

    Bound variables are indices, so s can never be captured; binder
    hints are refreshed lazily at print time.
    """
    return term_map(t, lambda u, _: s if isinstance(u, Var) and u.name == x else u)


def open_binder(body: Term, name: str) -> Term:
    """Replace index 0 of a binder body with the free variable `name`."""
    return subst_bound(body, 0, Var(name))


def clam(sign: Sign, x: str, annot: MProp, body: Term) -> CLam:
    """Build a classical lambda from a named body."""
    return CLam(sign, annot, close_binder(body, x), hint=x)


def case(sign: Sign, scrutinee: Term, b1: tuple[str, MProp, Term],
         b2: tuple[str, MProp, Term]) -> Case:
    """Build a case split from named branches."""
    x, p1, t1 = b1
    y, p2, t2 = b2
    return Case(sign, scrutinee, p1, close_binder(t1, x), p2, close_binder(t2, y),
                hint1=x, hint2=y)


_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in Term.__subclasses__()}


def term_dual(t: Term) -> Term:
    """Flip every sign and dualize every proposition annotation."""
    done: dict[int, Term] = {}  # id of a node -> its dual
    annot = cache(mprop_dual)  # each distinct annotation is dualized once
    for u in reversed(preorder(term_fold, t)):  # every node after its children
        done[id(u)] = type(u)(*[
            done[id(v)] if isinstance(v, Term) else annot(v) if isinstance(v, MProp)
            else flip(v) if f == "sign" else v
            for f in _FIELDS[type(u)] for v in [getattr(u, f)]])
    return done[id(t)]


Dualizable = Union[PureProp, MProp, Term]


def dual(x: Dualizable) -> Dualizable:
    """Dual of a pure proposition, moded proposition, or term."""
    if isinstance(x, PureProp):
        return prop_dual(x)
    if isinstance(x, MProp):
        return mprop_dual(x)
    if isinstance(x, Term):
        return term_dual(x)
    raise TypeError(x)


def fresh_name(base: str, taken: set[str] | frozenset[str]) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


for _cls in (PVar, And, Or, Neg, MProp, Var, Bound, Abs, Pair, Proj, Inj,
             Case, NegI, NegE, CLam, CApp):
    cache_hash(_cls)

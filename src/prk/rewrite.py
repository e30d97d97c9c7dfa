"""Reduction for proof terms: the seven rewriting rules, the optional
eta rule, normalization with traces and single steps, both on syntax's one
leftmost-outermost walk, and shape classification.  A trace step keeps the
walk's path to its redex, made in O(1), and reads its position off it."""

from __future__ import annotations

from dataclasses import field
from functools import partial

from .errors import DerivationMismatchError, FuelExhaustedError
from .surface import BINDER_HINTS
from .syntax import (Abs, Bound, CApp, CLam, Case, Frozen, Inj, NegE, NegI, Pair,
                     Proj, Term, Var, children, flip, fv, make_map, make_normalize,
                     rebuild, shift, subst_bound, uses_index)
from .typecheck import Derivation

PLAIN = "plain"
ETA = "eta"

Position = tuple[int, ...]

RULES = ("proj", "case", "neg", "beta", "absPairInj", "absInjPair", "absNeg", "eta")


def match_redex(t: Term, mode: str) -> tuple[str, Term] | None:
    """If t is a redex at the root, return (rule, reduct)."""
    kind = type(t)  # identity tests, cheaper than class patterns
    if kind is Proj:
        if type(b := t.body) is Pair and b.sign == t.sign:
            return "proj", (b.left if t.index == 1 else b.right)
    elif kind is Case:
        if type(s := t.scrutinee) is Inj and s.sign == t.sign:
            return "case", subst_bound(t.branch1 if s.index == 1 else t.branch2, 0, s.body)
    elif kind is NegE:
        if type(b := t.body) is NegI and b.sign == t.sign:
            return "neg", b.body
    elif kind is CApp:
        if type(f := t.fun) is CLam and f.sign == t.sign:
            return "beta", subst_bound(f.body, 0, t.arg)
    elif kind is Abs:
        q, left, right = t.annot, t.left, t.right
        kinds = type(left), type(right)
        if kinds in ((Pair, Inj), (Inj, Pair), (NegI, NegI)) and right.sign == flip(left.sign):
            sign, other = left.sign, right.sign
            if kinds == (Pair, Inj):
                comp = left.left if right.index == 1 else left.right
                return "absPairInj", Abs(q, CApp(sign, comp, right.body), CApp(other, right.body, comp))
            if kinds == (Inj, Pair):
                comp = right.left if left.index == 1 else right.right
                return "absInjPair", Abs(q, CApp(sign, left.body, comp), CApp(other, comp, left.body))
            return "absNeg", Abs(q, CApp(other, left.body, right.body), CApp(sign, right.body, left.body))
    elif kind is CLam and mode == ETA:
        b = t.body
        if (type(b) is CApp and b.sign == t.sign and type(a := b.arg) is Bound and a.index == 0
                and not uses_index(b.fun, 0)):
            return "eta", shift(b.fun, -1)
    return None


def _cells(path):
    """A walk's path, innermost cell first: each (the path above, parent, child index)."""
    while path:
        yield path
        path = path[0]


class TraceStep(metaclass=Frozen):
    """One contraction at the end of path, the walk's path to the redex, left out of ==, hash and repr."""
    rule: str
    redex: Term
    reduct: Term
    path: tuple = field(compare=False, repr=False)

    @property
    def position(self) -> Position:
        return tuple(reversed([i for _, _, i in _cells(self.path)]))

    @property
    def names(self) -> tuple[str, ...]:  # the hints of the binders over position, innermost first
        return tuple([getattr(u, h) for _, u, i in _cells(self.path) if (h := BINDER_HINTS[type(u)][i])])


Trace = tuple[TraceStep, ...]
_walk = make_normalize(children, rebuild)


def step(t: Term, mode: str = PLAIN) -> tuple[str, Position, Term] | None:
    """One leftmost-outermost step, (rule, position, new term), or None if t
    is a normal form: normalize's walk, stopped at its first contraction."""
    hit = []
    new = _walk(t, partial(match_redex, mode=mode), lambda path, *c: hit.append(TraceStep(*c, path)) or True)
    return (hit[0].rule, hit[0].position, new) if hit else None


def normalize(t: Term, mode: str = PLAIN, fuel: int = 100_000) -> tuple[Term, Trace]:
    """Reduce to normal form, recording every step; FuelExhaustedError only
    if a redex remains after `fuel` contractions.  It is syntax's
    leftmost-outermost walk, which under ETA also rechecks an enclosing clam,
    as eta reads its whole function."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    steps: list[TraceStep] = []

    def record(path: tuple, rule: str, redex: Term, reduct: Term) -> None:
        if len(steps) == fuel:
            raise FuelExhaustedError(
                f"no normal form within {fuel} steps (this signals a bug for typed terms)")
        steps.append(TraceStep(rule, redex, reduct, path))

    t = _walk(t, partial(match_redex, mode=mode), record, (CLam,) if mode == ETA else ())
    return t, tuple(steps)


# ---------------------------------------------------------------------------
# Shape classification

# The normal-form grammar, judged bottom-up: a node's (normal, neutral) from
# its children's.  An elimination is neutral when the term it eliminates
# (its first child, or either side of an abs) is neutral and its other parts
# are normal; a term is normal when it is neutral or an introduction of
# normal parts.  A variable is both.

_INTRODUCTIONS = (Pair, Inj, NegI, CLam)


def _judge(t: Term, flags: list[tuple[bool, bool]]) -> tuple[bool, bool]:
    normal = all(n for n, _ in flags)
    if isinstance(t, _INTRODUCTIONS):
        return normal, False
    neutral = normal and (flags[0][1] or isinstance(t, Abs) and flags[1][1])
    return neutral, neutral


_grammar = partial(make_map(children, _judge, {}), leaf=lambda u, d: (True, True))


def is_neutral(t: Term) -> bool:
    return _grammar(t)[1]


def is_normal(t: Term) -> bool:
    return _grammar(t)[0]


def is_open_explosion(t: Term) -> bool:
    return isinstance(t, (Abs, CApp)) and bool(fv(t))


def peel_case_context(t: Term) -> Term:
    """Strip a case-context (nested case scrutinees) off the root."""
    while isinstance(t, Case):
        t = t.scrutinee
    return t


def peel_eliminative_context(t: Term) -> Term:
    """Strip an eliminative context (proj / case scrutinee / nege chains)."""
    while True:
        match t:
            case Proj(_, _, b) | NegE(_, b):
                t = b
            case Case(_, s, _, _, _, _):
                t = s
            case _:
                return t


class ShapeReport(metaclass=Frozen):
    normal: bool
    neutral: bool
    canonical: bool
    clause: int | None = None       # which canonicity guarantee applies
    clause_shape: str | None = None


def classify(t: Term, d: Derivation | None = None) -> ShapeReport:
    """Report normality (by the grammar), neutrality, canonicity, and,
    given a derivation, which canonicity clause the term matches."""
    if d is not None and d.subject != t:
        raise DerivationMismatchError("derivation subject differs from the classified term")

    normal, neutral = _grammar(t)  # computed once per call
    canonical = isinstance(t, _INTRODUCTIONS)
    if d is None:
        return ShapeReport(normal, neutral, canonical)

    clause: int | None = None
    shape: str | None = None
    if not d.ctx.entries:
        clause = 1
    elif d.ctx.is_classical() and d.conclusion.is_strong:
        clause = 2
    elif d.ctx.is_classical() and d.conclusion.is_classical:
        clause = 3

    if clause in (1, 2):
        if canonical:
            shape = "canonical"
        elif is_open_explosion(peel_case_context(t)):
            shape = "case-explosion"
        else:
            shape = "unclassified"
    elif clause == 3:
        if isinstance(t, CLam):
            shape = "clam"
        else:
            core = peel_eliminative_context(t)
            if isinstance(core, Var):
                shape = "elim-variable"
            elif is_open_explosion(core):
                shape = "elim-explosion"
            else:
                shape = "unclassified"
    return ShapeReport(normal, neutral, canonical, clause, shape)

"""Type inference for proof terms, derivation trees, and the admissible
rule combinators (generalized absurdity, contraposition, excluded middle,
projection of derivations).

Inference is syntax-directed and bidirectional: every term form is
inferable except injections, whose missing component is not determined
by the term; those are handled in checking mode against an expected
type.  Case scrutinees are checked against the type reconstructed from
the binder annotations.  A derivation's rule is read off its subject's
constructor: projection and every other walk over derivations match on
the subject, and `Derivation.rule` only names the rule.

Typing takes linear time.  Inference that fails with `CannotInferError`
is retried in checking mode (a case scrutinee, the sides of an absurdity,
un-annotated case branches), so each top-level call keeps a memo, per
thread: each inference and each check of a case, keyed on the context
object, the node and the expected type, holds its derivation or typing
error, and a binder's context and opened body are made once.  The memo
starts from one entry, the derivation the thread's previous top-level call
inferred for its own context and term, the one derivation a thread keeps
past a call: checking a term just inferred is one lookup, unless checking
takes its root apart (a pair, injection, negi or case).  A `Context` is a
persistent list, extended in O(1); a per-thread `Scope` indexes its names,
moves between neighbouring contexts and names each binder in O(1).
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from typing import Container

from .errors import (AnnotationMismatchError, CannotInferError,
                     DuplicateAssumptionError, ModeMismatchError,
                     NoSuchAssumptionError, NotClassicalError, NotStrongError,
                     SignMismatchError, TypeMismatchError, TypingError,
                     TypesNotOppositeError, UnboundVariableError)
from .syntax import (CLASSICAL, INJECTED, MINUS, MODE_OF, PAIRED, PLUS, STANCE, STRONG,
                     Abs, Bound, CApp, CLam, Case, Frozen, Inj, MProp, Neg,
                     NegE, NegI, Or, Pair, Proj, PureProp, Scope, Term, Var, clam,
                     case as mk_case, flip, fv, open_binder,
                     opposite, prop_dual, rebuild, strong_noun, term_dual,
                     truncate)


# ---------------------------------------------------------------------------
# Contexts

class Context:
    """Ordered list of (variable, proposition) assumptions, names distinct:
    the last entry (`name`, `prop`) over `parent`, the entries before it."""

    __slots__ = ("parent", "name", "prop", "size")

    def __new__(cls, entries=()) -> "Context":
        ctx = object.__new__(cls)
        ctx.parent, ctx.name, ctx.prop, ctx.size = None, None, None, 0
        for name, p in entries:
            ctx = ctx.extend(name, p)
        return ctx

    @staticmethod
    def of(*pairs: tuple[str, MProp]) -> "Context":
        return Context(pairs)

    @property
    def entries(self) -> tuple[tuple[str, MProp], ...]:
        return tuple(_index(self).open.items())

    def lookup(self, name: str) -> MProp | None:
        return _index(self).open.get(name)

    def extend(self, name: str, p: MProp, *taken: Container[str]) -> "Context":
        """self with name : p last; given taken, name is a hint, named apart from self and taken."""
        if not taken and name in _index(self).open:
            raise DuplicateAssumptionError(f"duplicate assumption {name!r}")
        child = object.__new__(Context)
        child.parent, child.name, child.prop, child.size = self, name, p, self.size + 1
        if taken:  # a binder, named in the index, which moves to child
            child.name, _INDEX.state[0] = _index(self).push(name, *taken, value=p), child
        return child

    def replace(self, name: str, p: MProp) -> "Context":
        if self.lookup(name) is None:
            raise NoSuchAssumptionError(f"no assumption named {name!r}")
        return Context((n, p if n == name else q) for n, q in self.entries)

    def names(self) -> frozenset[str]:
        return frozenset(_index(self).open)

    def __contains__(self, name: str) -> bool:
        return name in _index(self).open

    def is_classical(self) -> bool:
        return all(p.is_classical for _, p in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Context) and self.size == other.size
                                 and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Context(entries={self.entries!r})"

    def __str__(self) -> str:
        return ", ".join(f"{n} : {p}" for n, p in self.entries)


_MEMO: ContextVar[dict | None] = ContextVar("typing_memo", default=None)  # see _top_level
_INDEX = threading.local()  # per thread, .state: [a context, the Scope of its entries]
_ROOT = threading.local()  # per thread, .kept: the previous top-level call's root derivation


def _index(ctx: Context) -> Scope:
    """This thread's Scope, moved to ctx: popped to the context they share, then ctx's added."""
    if (state := getattr(_INDEX, "state", (None,)))[0] is None:  # none yet, or a move cut short
        state = _INDEX.state = [Context(), Scope()]
    here, scope = state
    if here is not ctx:
        state[0], there, down = None, ctx, []
        while here is not there and (here.size or there.size):
            if here.size >= there.size:
                scope.pop()
                here = here.parent
            else:
                down.append(there)
                there = there.parent
        for c in reversed(down):
            scope.add(c.name, c.prop)
        state[0] = ctx
    return scope


# ---------------------------------------------------------------------------
# Derivations

class Derivation(metaclass=Frozen):
    """One node of a typing derivation; premises under binders have the
    binder opened with a fresh named variable.  A frozen dataclass whose
    fields are its only slots, so it keeps no instance __dict__."""

    rule: str
    ctx: Context
    subject: Term
    conclusion: MProp
    premises: tuple["Derivation", ...] = ()


# Each rule's name, by its subject's constructor and sign, read off the duality table
_RULES = {(cls, sign): f"{way}{conn}{sign}" for sign in (PLUS, MINUS) for cls, way, conn in (
    (Pair, "I", PAIRED[sign].__name__), (Proj, "E", PAIRED[sign].__name__),
    (Inj, "I", INJECTED[sign].__name__), (Case, "E", INJECTED[sign].__name__),
    (NegI, "I", "Neg"), (NegE, "E", "Neg"), (CLam, "I", "C"), (CApp, "E", "C"))}
_STRONG = {sign: MODE_OF[STRONG, sign] for sign in (PLUS, MINUS)}
_CLASSICAL = {sign: MODE_OF[CLASSICAL, sign] for sign in (PLUS, MINUS)}


def _expect_mode(p: MProp, strength: str, sign: str, what: str) -> None:
    if p.mode.strength != strength:
        raise ModeMismatchError(f"{what}: expected {strength}{sign} mode, found {p}")
    if p.sign != sign:
        raise SignMismatchError(f"{what}: expected sign {sign}, found {p}")


def infer_type(ctx: Context, t: Term) -> Derivation:
    """Infer the unique type of t under ctx, returning the derivation."""
    if (memo := _MEMO.get()) is None:
        return _top_level(infer_type, ctx, t)
    if (key := (id(ctx), id(t))) in memo:
        return _recall(memo[key])
    kind = type(t)  # each rule in this frame, so a derivation costs one frame per level
    try:
        if kind is Var:
            if (p := ctx.lookup(t.name)) is None:
                raise UnboundVariableError(f"unbound variable {t.name!r}")
            d = Derivation("Ax", ctx, t, p)

        elif kind is NegE:
            db = infer_type(ctx, t.body)
            p, sign = db.conclusion, t.sign
            if not (isinstance(p.base, Neg) and p.mode is _STRONG[sign]):
                raise ModeMismatchError(f"nege{sign} needs a strong negation, found {p}")
            concl = MProp(p.base.inner, _CLASSICAL[flip(sign)])
            d = Derivation(_RULES[kind, sign], ctx, t, concl, (db,))

        elif kind is NegI:
            db = infer_type(ctx, t.body)
            p, sign = db.conclusion, t.sign
            if p.mode is not _CLASSICAL[flip(sign)]:
                _expect_mode(p, CLASSICAL, flip(sign), f"negi{sign} premise")
            d = Derivation(_RULES[kind, sign], ctx, t, MProp(Neg(p.base), _STRONG[sign]), (db,))

        elif kind is Proj:
            db = infer_type(ctx, t.body)
            p, sign = db.conclusion, t.sign
            conn = PAIRED[sign]
            if not (isinstance(p.base, conn) and p.mode is _STRONG[sign]):
                raise ModeMismatchError(
                    f"proj{t.index}{sign} needs a {strong_noun(conn, sign)}, found {p}")
            comp = p.base.left if t.index == 1 else p.base.right
            d = Derivation(_RULES[kind, sign], ctx, t, MProp(comp, _CLASSICAL[sign]), (db,))

        elif kind is Pair:
            dl = infer_type(ctx, t.left)
            dr = infer_type(ctx, t.right)
            pl, pr, sign = dl.conclusion, dr.conclusion, t.sign
            if pl.mode is not _CLASSICAL[sign]:
                _expect_mode(pl, CLASSICAL, sign, f"pair{sign} left component")
            if pr.mode is not _CLASSICAL[sign]:
                _expect_mode(pr, CLASSICAL, sign, f"pair{sign} right component")
            concl = MProp(PAIRED[sign](pl.base, pr.base), _STRONG[sign])
            d = Derivation(_RULES[kind, sign], ctx, t, concl, (dl, dr))

        elif kind is CApp:
            df = infer_type(ctx, t.fun)
            p, sign = df.conclusion, t.sign
            if p.mode is not _CLASSICAL[sign]:
                _expect_mode(p, CLASSICAL, sign, f"capp{sign} function")
            da = check_type(ctx, t.arg, MProp(p.base, _CLASSICAL[flip(sign)]))
            d = Derivation(_RULES[kind, sign], ctx, t, MProp(p.base, _STRONG[sign]), (df, da))

        elif kind is CLam:
            annot, sign = t.annot, t.sign
            if annot.mode is not _CLASSICAL[flip(sign)]:
                raise AnnotationMismatchError(f"clam{sign} binder must assume a classical "
                                              f"{STANCE[flip(sign)]}, found {annot}")
            db = check_type(*_opened(ctx, t.hint, annot, t.body), MProp(annot.base, _STRONG[sign]))
            d = Derivation(_RULES[kind, sign], ctx, t, MProp(annot.base, _CLASSICAL[sign]), (db,))

        elif kind is Case:
            d = _case_derivation(ctx, t, expected=None)

        elif kind is Abs:
            dl, dr = _infer_either(opposite, (ctx, t.left), (ctx, t.right))
            p = dl.conclusion
            if not p.is_strong:
                raise NotStrongError(f"absurdity premise must be strong, found {p}")
            d = Derivation("Abs", ctx, t, t.annot, (dl, dr))

        elif kind is Inj:
            raise CannotInferError(
                "the type of an injection is not inferable; check it against an expected type")

        elif kind is Bound:
            raise TypingError(f"dangling bound variable #{t.index}")

        else:
            raise TypeError(t)
    except TypingError as e:
        memo[key] = e
        raise
    memo[key] = d
    return d


def _top_level(typing, ctx: Context, t: Term, *expected: MProp) -> Derivation:
    """typing(ctx, t, *expected) with a memo of its own (see the module docstring), which starts
    from the derivation this thread's previous call kept; it pins its context and subject, so their
    ids are not reused while it is kept.  Only the one this call infers for (ctx, t) is kept."""
    d = getattr(_ROOT, "kept", None)
    token = _MEMO.set(memo := {} if d is None else {(id(d.ctx), id(d.subject)): d})
    try:
        return typing(ctx, t, *expected)
    finally:
        _MEMO.reset(token)
        _ROOT.kept = d if isinstance(d := memo.get((id(ctx), id(t))), Derivation) else None
        memo.clear()  # kept errors' tracebacks hold frames that hold the memo


def _recall(got: Derivation | TypingError) -> Derivation:
    """A kept answer: the derivation, or its typing error raised again."""
    if isinstance(got, TypingError):
        raise got
    return got


def _opened(ctx: Context, hint: str, annot: MProp, body: Term) -> tuple[Context, Term]:
    """ctx extended by a binder's annotation under a fresh name for its hint,
    and its body opened with that name, made once per top-level call."""
    key, memo = (id(ctx), id(annot), id(body), hint), _MEMO.get()
    if key not in memo:
        child = ctx.extend(hint or "x", annot, fv(body))
        memo[key] = child, open_binder(body, child.name)
    return memo[key]


def _infer_either(relate, first, second) -> tuple[Derivation, Derivation]:
    """Derivations of two (context, term) pairs whose types are related by
    relate (an involution): infer the first and check the second against
    relate of its type or, when either cannot infer, infer the second and
    check the first against relate of that."""
    try:
        d1 = infer_type(*first)
        return d1, check_type(*second, relate(d1.conclusion))
    except CannotInferError:
        d2 = infer_type(*second)
        return check_type(*first, relate(d2.conclusion)), d2


def _case_derivation(ctx: Context, t: Case, expected: MProp | None) -> Derivation:
    sign = t.sign
    p1, p2 = t.annot1, t.annot2
    for which, p in (("first", p1), ("second", p2)):
        if p.mode is not _CLASSICAL[sign]:
            raise AnnotationMismatchError(f"case{sign} {which} binder must assume a "
                                          f"classical {STANCE[sign]}, found {p}")
    scrut_ty = MProp(INJECTED[sign](p1.base, p2.base), _STRONG[sign])

    try:
        dsc = infer_type(ctx, t.scrutinee)
        if dsc.conclusion != scrut_ty:
            raise AnnotationMismatchError(
                f"case binder annotations require scrutinee type {scrut_ty}, "
                f"found {dsc.conclusion}")
    except CannotInferError:
        try:
            dsc = check_type(ctx, t.scrutinee, scrut_ty)
        except TypeMismatchError as e:
            raise AnnotationMismatchError(str(e)) from e

    branch2 = _opened(ctx, t.hint2, p2, t.branch2)  # the index stays in branch1's context,
    branch1 = _opened(ctx, t.hint1, p1, t.branch1)  # which is typed first

    if expected is not None:
        d1 = check_type(*branch1, expected)
        d2 = check_type(*branch2, expected)
    else:
        d1, d2 = _infer_either(lambda p: p, branch1, branch2)
    return Derivation(_RULES[Case, sign], ctx, t, d1.conclusion, (dsc, d1, d2))


def check_type(ctx: Context, t: Term, expected: MProp) -> Derivation:
    """Check t against an expected type, returning the derivation."""
    if (memo := _MEMO.get()) is None:
        return _top_level(check_type, ctx, t, expected)
    kind = type(t)
    if kind is NegI:
        base, sign = expected.base, t.sign
        if not (isinstance(base, Neg) and expected.mode is _STRONG[sign]):
            raise TypeMismatchError(f"negi{sign} cannot have type {expected}")
        db = check_type(ctx, t.body, MProp(base.inner, _CLASSICAL[flip(sign)]))
        return Derivation(_RULES[kind, sign], ctx, t, expected, (db,))

    if kind is Pair:
        base, sign = expected.base, t.sign
        if not (isinstance(base, PAIRED[sign]) and expected.mode is _STRONG[sign]):
            raise TypeMismatchError(f"pair{sign} cannot have type {expected}")
        dl = check_type(ctx, t.left, MProp(base.left, _CLASSICAL[sign]))
        dr = check_type(ctx, t.right, MProp(base.right, _CLASSICAL[sign]))
        return Derivation(_RULES[kind, sign], ctx, t, expected, (dl, dr))

    if kind is Inj:
        base, sign = expected.base, t.sign
        conn = INJECTED[sign]
        if not (isinstance(base, conn) and expected.mode is _STRONG[sign]):
            raise TypeMismatchError(f"in{t.index}{sign} builds a {strong_noun(conn, sign)}, "
                                    f"cannot have type {expected}")
        comp = base.left if t.index == 1 else base.right
        db = check_type(ctx, t.body, MProp(comp, _CLASSICAL[sign]))
        return Derivation(_RULES[kind, sign], ctx, t, expected, (db,))

    if kind is Case:
        key = (id(ctx), id(t), expected)
        if key not in memo:
            try:
                memo[key] = _case_derivation(ctx, t, expected=expected)
            except TypingError as e:
                memo[key] = e
        return _recall(memo[key])

    if kind is Abs:
        if t.annot != expected:
            raise TypeMismatchError(f"absurdity annotated {t.annot}, expected {expected}")
        return infer_type(ctx, t)

    d = infer_type(ctx, t)
    if d.conclusion != expected:
        raise TypeMismatchError(f"term has type {d.conclusion}, expected {expected}")
    return d


# ---------------------------------------------------------------------------
# Admissible-rule combinators

def abs_general_at(q: MProp, t: Term, s: Term, p: MProp) -> Term:
    """Generalized absurdity abs{q}(t, s) where t : p and s : opposite(p)."""
    if p.is_strong:
        return Abs(q, t, s)
    return Abs(q, CApp(p.sign, t, s), CApp(flip(p.sign), s, t))


def mk_abs_general(ctx: Context, q: MProp, t: Term, s: Term) -> Term:
    """Generalized absurdity with the premise type inferred from ctx."""
    try:
        dt, _ = _infer_either(opposite, (ctx, t), (ctx, s))
    except CannotInferError:
        raise
    except TypingError as e:
        raise TypesNotOppositeError(f"absurdity arguments are not opposite: {e}") from e
    return abs_general_at(q, t, s, dt.conclusion)


def contrapose_at(x: str, p: MProp, y: str, t: Term, q: MProp) -> Term:
    """Contraposition witness: from (x : p classical |- t : q) build a term
    of opposite(p) under the assumption y : opposite(q)."""
    if not p.is_classical:
        raise NotClassicalError(f"contraposition needs a classical assumption, found {p}")
    body = abs_general_at(MProp(p.base, MODE_OF[STRONG, flip(p.sign)]), t, Var(y), q)
    return clam(flip(p.sign), x, p, body)


def mk_contrapose(ctx: Context, x: str, y: str, t: Term) -> Term:
    """Contraposition with the types read off from ctx (which binds x)."""
    p = ctx.lookup(x)
    if p is None:
        raise NoSuchAssumptionError(f"no assumption named {x!r}")
    if not p.is_classical:
        raise NotClassicalError(f"contraposition needs a classical assumption, found {p}")
    q = infer_type(ctx, t).conclusion
    return contrapose_at(x, p, y, t, q)


def mk_lem(a: PureProp, sign: str) -> Term:
    """Closed witnesses of the classical excluded middle (sign +, type
    (a | ~a)^c+) and non-contradiction (sign -, type (a & ~a)^c-); the
    second is the dual of the first."""
    if sign == MINUS:
        return term_dual(mk_lem(prop_dual(a), PLUS))
    d_cm = MProp(Or(a, Neg(a)), MODE_OF[CLASSICAL, MINUS])
    na_cm = MProp(Neg(a), MODE_OF[CLASSICAL, MINUS])
    a_cm = MProp(a, MODE_OF[CLASSICAL, MINUS])
    inner = clam(PLUS, "w", d_cm,
                 Inj(PLUS, 1, clam(PLUS, "z", a_cm,
                     abs_general_at(MProp(a, MODE_OF[STRONG, PLUS]),
                                    Var("y"),
                                    clam(PLUS, "v", na_cm, NegI(PLUS, Var("z"))),
                                    na_cm))))
    return clam(PLUS, "x", d_cm,
                Inj(PLUS, 2, clam(PLUS, "y", na_cm,
                    NegI(PLUS, Proj(MINUS, 1, CApp(MINUS, Var("x"), inner))))))


# ---------------------------------------------------------------------------
# Projection of derivations

def pc_term(t: Term, p: MProp, ctx: Context) -> Term:
    """Project the conclusion: wrap a strong-typed term so it types at
    truncate(p), its binder named apart from ctx; classical conclusions are
    left alone."""
    if p.is_classical:
        return t
    z = ctx.extend("w", None, fv(t)).name
    return clam(p.sign, z, MProp(p.base, MODE_OF[CLASSICAL, flip(p.sign)]), t)


def cs_term(name: str, t: Term, p: MProp) -> Term:
    """Classical strengthening: discharge name : opposite(p) around t : p."""
    if not p.is_classical:
        raise NotClassicalError(f"classical strengthening needs a classical type, found {p}")
    return clam(p.sign, name, opposite(p), CApp(p.sign, t, Var(name)))


def project_derivation(d: Derivation, target: str) -> Derivation:
    """Transform a derivation of ctx[target : P] |- t : Q into one of
    ctx[target : trunc(P)] |- t' : trunc(Q)."""
    p = d.ctx.lookup(target)
    if p is None:
        raise NoSuchAssumptionError(f"no assumption named {target!r}")
    new_ctx = d.ctx.replace(target, truncate(p))
    if p.is_classical:
        # The original derivation already lives in the truncated context;
        # only the conclusion needs projecting.
        term = pc_term(d.subject, d.conclusion, new_ctx)
    else:
        term = _project(d, target)
    return check_type(new_ctx, term, truncate(d.conclusion))


def _project(d: Derivation, target: str) -> Term:
    ctx, q, t = d.ctx, d.conclusion, d.subject

    match t:
        case Var(name):
            return t if name == target else pc_term(t, q, ctx)

        case Abs():
            left, right = (_project(p, target) for p in d.premises)
            return abs_general_at(truncate(q), left, right, truncate(d.premises[0].conclusion))

        case Pair() | Inj() | NegI():
            return pc_term(rebuild(t, [_project(p, target) for p in d.premises]), q, ctx)

        case Proj(sign) | NegE(sign):
            # cs( proj_i+( capp+(t0, clam-(w. in_i-(z))) ) ) at A_i^c+, its dual, and
            # the same with nege and negi in place of proj and in
            (db,) = d.premises
            t0 = _project(db, target)
            z = ctx.extend("z", None, fv(t0)).name
            w = ctx.extend("w", None, fv(t0), {z}).name
            intro = (NegI(flip(sign), Var(z)) if isinstance(t, NegE)
                     else Inj(flip(sign), t.index, Var(z)))
            arg = clam(flip(sign), w, truncate(db.conclusion), intro)
            return cs_term(z, rebuild(t, [CApp(sign, t0, arg)]), q)

        case Case(sign, _, p1, _, p2, _):
            dsc, d1, d2 = d.premises
            sc, s1, s2 = (_project(p, target) for p in d.premises)
            n1, n2 = d1.ctx.name, d2.ctx.name
            tq = truncate(q)
            ystar = ctx.extend("k", None, fv(s1), fv(s2), {n1, n2}).name
            contra1 = contrapose_at(n1, p1, ystar, s1, tq)
            contra2 = contrapose_at(n2, p2, ystar, s2, tq)
            w = ctx.extend("w", None, fv(sc), {ystar}).name
            refut = clam(flip(sign), w, truncate(dsc.conclusion),
                         Pair(flip(sign), contra1, contra2))
            body = mk_case(sign, CApp(sign, sc, refut), (n1, p1, s1), (n2, p2, s2))
            return cs_term(ystar, body, tq)

        case CLam():
            (db,) = d.premises
            return cs_term(db.ctx.name, _project(db, target), q)

        case CApp():
            return _project(d.premises[0], target)

    raise TypingError(f"unhandled rule {d.rule}")

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (AnnotationMismatchError, CannotInferError,
                     DuplicateAssumptionError, ModeMismatchError,
                     NoSuchAssumptionError, NotClassicalError, NotStrongError,
                     SignMismatchError, TypeMismatchError, TypingError,
                     TypesNotOppositeError, UnboundVariableError)
from .syntax import (CLASSICAL, INJECTED, MINUS, PAIRED, PLUS, STANCE, STRONG,
                     Abs, Bound, CApp, CLam, Case, Inj, MProp, Mode, Neg,
                     NegE, NegI, Or, Pair, Proj, PureProp, Term, Var, clam,
                     case as mk_case, flip, fresh_name, fv, open_binder,
                     opposite, prop_dual, rebuild, strong_noun, term_dual,
                     truncate)


# ---------------------------------------------------------------------------
# Contexts

@dataclass(frozen=True)
class Context:
    """Ordered list of (variable, proposition) assumptions, names distinct."""

    entries: tuple[tuple[str, MProp], ...] = ()

    @staticmethod
    def of(*pairs: tuple[str, MProp]) -> "Context":
        ctx = Context()
        for name, p in pairs:
            ctx = ctx.extend(name, p)
        return ctx

    def lookup(self, name: str) -> MProp | None:
        for n, p in self.entries:
            if n == name:
                return p
        return None

    def extend(self, name: str, p: MProp) -> "Context":
        if self.lookup(name) is not None:
            raise DuplicateAssumptionError(f"duplicate assumption {name!r}")
        return Context(self.entries + ((name, p),))

    def replace(self, name: str, p: MProp) -> "Context":
        if self.lookup(name) is None:
            raise NoSuchAssumptionError(f"no assumption named {name!r}")
        return Context(tuple((n, p if n == name else q) for n, q in self.entries))

    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.entries)

    def is_classical(self) -> bool:
        return all(p.is_classical for _, p in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return ", ".join(f"{n} : {p}" for n, p in self.entries)


# ---------------------------------------------------------------------------
# Derivations

@dataclass(frozen=True)
class Derivation:
    """One node of a typing derivation; premises under binders have the
    binder opened with a fresh named variable."""

    rule: str
    ctx: Context
    subject: Term
    conclusion: MProp
    premises: tuple["Derivation", ...] = ()


def _fresh(hint: str, ctx: Context, *terms: Term) -> str:
    return fresh_name(hint or "x", ctx.names().union(*map(fv, terms)))


def _expect_mode(p: MProp, strength: str, sign: str, what: str) -> None:
    if p.mode.strength != strength:
        raise ModeMismatchError(f"{what}: expected {strength}{sign} mode, found {p}")
    if p.sign != sign:
        raise SignMismatchError(f"{what}: expected sign {sign}, found {p}")


def infer_type(ctx: Context, t: Term) -> Derivation:
    """Infer the unique type of t under ctx, returning the derivation."""
    match t:
        case Var(name):
            p = ctx.lookup(name)
            if p is None:
                raise UnboundVariableError(f"unbound variable {name!r}")
            return Derivation("Ax", ctx, t, p)

        case Bound(i):
            raise TypingError(f"dangling bound variable #{i}")

        case Abs(q, left, right):
            dl, dr = _infer_either(opposite, (ctx, left), (ctx, right))
            p = dl.conclusion
            if not p.is_strong:
                raise NotStrongError(f"absurdity premise must be strong, found {p}")
            return Derivation("Abs", ctx, t, q, (dl, dr))

        case Pair(sign, left, right):
            dl = infer_type(ctx, left)
            dr = infer_type(ctx, right)
            _expect_mode(dl.conclusion, CLASSICAL, sign, f"pair{sign} left component")
            _expect_mode(dr.conclusion, CLASSICAL, sign, f"pair{sign} right component")
            conn = PAIRED[sign]
            concl = MProp(conn(dl.conclusion.base, dr.conclusion.base), Mode(STRONG, sign))
            return Derivation(f"I{conn.__name__}{sign}", ctx, t, concl, (dl, dr))

        case Proj(sign, index, body):
            db = infer_type(ctx, body)
            p = db.conclusion
            conn = PAIRED[sign]
            if not (isinstance(p.base, conn) and p.mode == Mode(STRONG, sign)):
                raise ModeMismatchError(
                    f"proj{index}{sign} needs a {strong_noun(conn, sign)}, found {p}")
            comp = p.base.left if index == 1 else p.base.right
            return Derivation(f"E{conn.__name__}{sign}", ctx, t,
                              MProp(comp, Mode(CLASSICAL, sign)), (db,))

        case Inj(_, _, _):
            raise CannotInferError(
                "the type of an injection is not inferable; check it against an expected type")

        case Case(_, _, _, _, _, _):
            return _case_derivation(ctx, t, expected=None)

        case NegI(sign, body):
            db = infer_type(ctx, body)
            p = db.conclusion
            _expect_mode(p, CLASSICAL, flip(sign), f"negi{sign} premise")
            return Derivation(f"INeg{sign}", ctx, t, MProp(Neg(p.base), Mode(STRONG, sign)), (db,))

        case NegE(sign, body):
            db = infer_type(ctx, body)
            p = db.conclusion
            if not (isinstance(p.base, Neg) and p.mode == Mode(STRONG, sign)):
                raise ModeMismatchError(f"nege{sign} needs a strong negation, found {p}")
            concl = MProp(p.base.inner, Mode(CLASSICAL, flip(sign)))
            return Derivation(f"ENeg{sign}", ctx, t, concl, (db,))

        case CLam(sign, annot, body, hint):
            if annot.mode != Mode(CLASSICAL, flip(sign)):
                raise AnnotationMismatchError(f"clam{sign} binder must assume a classical "
                                              f"{STANCE[flip(sign)]}, found {annot}")
            x = _fresh(hint, ctx, body)
            db = check_type(ctx.extend(x, annot), open_binder(body, x),
                            MProp(annot.base, Mode(STRONG, sign)))
            return Derivation(f"IC{sign}", ctx, t, MProp(annot.base, Mode(CLASSICAL, sign)), (db,))

        case CApp(sign, fun, arg):
            df = infer_type(ctx, fun)
            p = df.conclusion
            _expect_mode(p, CLASSICAL, sign, f"capp{sign} function")
            da = check_type(ctx, arg, MProp(p.base, Mode(CLASSICAL, flip(sign))))
            return Derivation(f"EC{sign}", ctx, t, MProp(p.base, Mode(STRONG, sign)), (df, da))

    raise TypeError(t)


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
        if p.mode != Mode(CLASSICAL, sign):
            raise AnnotationMismatchError(f"case{sign} {which} binder must assume a "
                                          f"classical {STANCE[sign]}, found {p}")
    conn = INJECTED[sign]
    scrut_ty = MProp(conn(p1.base, p2.base), Mode(STRONG, sign))
    rule = f"E{conn.__name__}{sign}"

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

    x1 = _fresh(t.hint1, ctx, t.branch1)
    x2 = _fresh(t.hint2, ctx, t.branch2)
    branch1 = (ctx.extend(x1, p1), open_binder(t.branch1, x1))
    branch2 = (ctx.extend(x2, p2), open_binder(t.branch2, x2))

    if expected is not None:
        d1 = check_type(*branch1, expected)
        d2 = check_type(*branch2, expected)
    else:
        d1, d2 = _infer_either(lambda p: p, branch1, branch2)
    return Derivation(rule, ctx, t, d1.conclusion, (dsc, d1, d2))


def check_type(ctx: Context, t: Term, expected: MProp) -> Derivation:
    """Check t against an expected type, returning the derivation."""
    match t:
        case Inj(sign, index, body):
            base = expected.base
            conn = INJECTED[sign]
            if not (isinstance(base, conn) and expected.mode == Mode(STRONG, sign)):
                raise TypeMismatchError(f"in{index}{sign} builds a {strong_noun(conn, sign)}, "
                                        f"cannot have type {expected}")
            comp = base.left if index == 1 else base.right
            db = check_type(ctx, body, MProp(comp, Mode(CLASSICAL, sign)))
            return Derivation(f"I{conn.__name__}{sign}", ctx, t, expected, (db,))

        case Pair(sign, left, right):
            base = expected.base
            conn = PAIRED[sign]
            if not (isinstance(base, conn) and expected.mode == Mode(STRONG, sign)):
                raise TypeMismatchError(f"pair{sign} cannot have type {expected}")
            dl = check_type(ctx, left, MProp(base.left, Mode(CLASSICAL, sign)))
            dr = check_type(ctx, right, MProp(base.right, Mode(CLASSICAL, sign)))
            return Derivation(f"I{conn.__name__}{sign}", ctx, t, expected, (dl, dr))

        case NegI(sign, body):
            base = expected.base
            if not (isinstance(base, Neg) and expected.mode == Mode(STRONG, sign)):
                raise TypeMismatchError(f"negi{sign} cannot have type {expected}")
            db = check_type(ctx, body, MProp(base.inner, Mode(CLASSICAL, flip(sign))))
            return Derivation(f"INeg{sign}", ctx, t, expected, (db,))

        case Case(_, _, _, _, _, _):
            return _case_derivation(ctx, t, expected=expected)

        case Abs(q, _, _):
            if q != expected:
                raise TypeMismatchError(f"absurdity annotated {q}, expected {expected}")
            return infer_type(ctx, t)

        case _:
            d = infer_type(ctx, t)
            if d.conclusion != expected:
                raise TypeMismatchError(
                    f"term has type {d.conclusion}, expected {expected}")
            return d


def validate_derivation(d: Derivation) -> bool:
    """Re-check a derivation bottom-up; True iff it reconstructs exactly."""
    try:
        again = check_type(d.ctx, d.subject, d.conclusion)
    except TypingError:
        return False
    return again == d


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
        p = infer_type(ctx, t).conclusion
        check_type(ctx, s, opposite(p))
    except CannotInferError:
        p = opposite(infer_type(ctx, s).conclusion)
        check_type(ctx, t, p)
    except TypingError as e:
        raise TypesNotOppositeError(f"absurdity arguments are not opposite: {e}") from e
    return abs_general_at(q, t, s, p)


def contrapose_at(x: str, p: MProp, y: str, t: Term, q: MProp) -> Term:
    """Contraposition witness: from (x : p classical |- t : q) build a term
    of opposite(p) under the assumption y : opposite(q)."""
    if not p.is_classical:
        raise NotClassicalError(f"contraposition needs a classical assumption, found {p}")
    body = abs_general_at(MProp(p.base, Mode(STRONG, flip(p.sign))), t, Var(y), q)
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
    d_cm = MProp(Or(a, Neg(a)), Mode(CLASSICAL, MINUS))
    na_cm = MProp(Neg(a), Mode(CLASSICAL, MINUS))
    a_cm = MProp(a, Mode(CLASSICAL, MINUS))
    inner = clam(PLUS, "w", d_cm,
                 Inj(PLUS, 1, clam(PLUS, "z", a_cm,
                     abs_general_at(MProp(a, Mode(STRONG, PLUS)),
                                    Var("y"),
                                    clam(PLUS, "v", na_cm, NegI(PLUS, Var("z"))),
                                    na_cm))))
    return clam(PLUS, "x", d_cm,
                Inj(PLUS, 2, clam(PLUS, "y", na_cm,
                    NegI(PLUS, Proj(MINUS, 1, CApp(MINUS, Var("x"), inner))))))


# ---------------------------------------------------------------------------
# Projection of derivations

def pc_term(t: Term, p: MProp, taken: frozenset[str] | set[str]) -> Term:
    """Project the conclusion: wrap a strong-typed term so it types at
    truncate(p); classical conclusions are left alone."""
    if p.is_classical:
        return t
    z = fresh_name("w", set(taken) | fv(t))
    return clam(p.sign, z, MProp(p.base, Mode(CLASSICAL, flip(p.sign))), t)


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
        term = pc_term(d.subject, d.conclusion, new_ctx.names())
    else:
        term = _project(d, target)
    return check_type(new_ctx, term, truncate(d.conclusion))


def _project(d: Derivation, target: str) -> Term:
    ctx, q, t = d.ctx, d.conclusion, d.subject
    taken = ctx.names()

    match t:
        case Var(name):
            return t if name == target else pc_term(t, q, taken)

        case Abs():
            left, right = (_project(p, target) for p in d.premises)
            return abs_general_at(truncate(q), left, right, truncate(d.premises[0].conclusion))

        case Pair() | Inj() | NegI():
            return pc_term(rebuild(t, [_project(p, target) for p in d.premises]), q, taken)

        case Proj(sign) | NegE(sign):
            # cs( proj_i+( capp+(t0, clam-(w. in_i-(z))) ) ) at A_i^c+, its dual, and
            # the same with nege and negi in place of proj and in
            (db,) = d.premises
            t0 = _project(db, target)
            z = fresh_name("z", set(taken) | fv(t0))
            w = fresh_name("w", set(taken) | fv(t0) | {z})
            intro = (NegI(flip(sign), Var(z)) if isinstance(t, NegE)
                     else Inj(flip(sign), t.index, Var(z)))
            arg = clam(flip(sign), w, truncate(db.conclusion), intro)
            return cs_term(z, rebuild(t, [CApp(sign, t0, arg)]), q)

        case Case(sign, _, p1, _, p2, _):
            dsc, d1, d2 = d.premises
            sc, s1, s2 = (_project(p, target) for p in d.premises)
            n1, n2 = d1.ctx.entries[-1][0], d2.ctx.entries[-1][0]
            tq = truncate(q)
            ystar = fresh_name("k", set(taken) | fv(s1) | fv(s2) | {n1, n2})
            contra1 = contrapose_at(n1, p1, ystar, s1, tq)
            contra2 = contrapose_at(n2, p2, ystar, s2, tq)
            w = fresh_name("w", set(taken) | fv(sc) | {ystar})
            refut = clam(flip(sign), w, truncate(dsc.conclusion),
                         Pair(flip(sign), contra1, contra2))
            body = mk_case(sign, CApp(sign, sc, refut), (n1, p1, s1), (n2, p2, s2))
            return cs_term(ystar, body, tq)

        case CLam():
            (db,) = d.premises
            return cs_term(db.ctx.entries[-1][0], _project(db, target), q)

        case CApp():
            return _project(d.premises[0], target)

    raise TypingError(f"unhandled rule {d.rule}")

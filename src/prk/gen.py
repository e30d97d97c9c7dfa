"""Seeded random generators: pure propositions, moded propositions, and
well-typed proof terms (built top-down from a goal, so typability holds
by construction).  All randomness flows from PRK_SEED."""

from __future__ import annotations

import os
import random

from .syntax import (CLASSICAL, INJECTED, MINUS, PAIRED, PLUS, STRONG, Abs, And,
                     CApp, MProp, Mode, Neg, NegE, NegI, Or, PVar, Pair, Proj,
                     Inj, PureProp, Term, Var, case, clam, flip, fresh_name,
                     opposite, prop_depth, prop_vars, term_size, truncate)
from .typecheck import Context, abs_general_at, mk_lem

DEFAULT_SEED = 20250807
SIZED_ATTEMPTS = 20  # draws sized_term makes before it falls back to _escape


def seed_from_env() -> int:
    return int(os.environ.get("PRK_SEED", DEFAULT_SEED))


class PropGen:
    def __init__(self, rng: random.Random, atoms: tuple[str, ...] = ("a", "b")):
        self.rng = rng
        self.atoms = atoms

    def pure(self, depth: int) -> PureProp:
        if depth <= 1 or self.rng.random() < 0.3:
            return PVar(self.rng.choice(self.atoms))
        kind = self.rng.choice(("and", "or", "neg"))
        if kind == "neg":
            return Neg(self.pure(depth - 1))
        left, right = self.pure(depth - 1), self.pure(depth - 1)
        return And(left, right) if kind == "and" else Or(left, right)

    def mode(self) -> Mode:
        return Mode(self.rng.choice((STRONG, CLASSICAL)),
                    self.rng.choice((PLUS, MINUS)))

    def mprop(self, depth: int) -> MProp:
        return MProp(self.pure(depth), self.mode())


class TermGen:
    """Generates well-typed terms by following the typing rules top-down.

    The context always contains a contradictory classical pair for each
    atom (xN : a^c+, xN' : a^c-), so every goal over those atoms is
    inhabited and generation cannot get stuck.
    """

    def __init__(self, rng: random.Random, atoms: tuple[str, ...] = ("a", "b")):
        self.rng = rng
        self.atoms = atoms
        self.props = PropGen(rng, atoms)
        self._counter = 0

    def base_context(self, extra: int = 2) -> Context:
        ctx = Context()
        for a in self.atoms:
            ctx = ctx.extend(f"p_{a}", MProp(PVar(a), Mode(CLASSICAL, PLUS)))
            ctx = ctx.extend(f"n_{a}", MProp(PVar(a), Mode(CLASSICAL, MINUS)))
        for i in range(extra):
            ctx = ctx.extend(f"g{i}", self.props.mprop(2))
        return ctx

    def classical_context(self, extra: int = 2) -> Context:
        """base_context with every assumption made classical."""
        return Context(tuple((n, truncate(p)) for n, p in self.base_context(extra)))

    def _fresh(self, ctx: Context) -> str:
        self._counter += 1
        return fresh_name(f"v{self._counter}", ctx)

    def _escape(self, ctx: Context, goal: MProp) -> Term:
        axioms = [n for n, p in ctx if p == goal]
        if axioms:
            return Var(self.rng.choice(axioms))
        a = self.rng.choice(self.atoms)
        return abs_general_at(goal, Var(f"p_{a}"), Var(f"n_{a}"),
                              MProp(PVar(a), Mode(CLASSICAL, PLUS)))

    def term(self, ctx: Context, goal: MProp, depth: int) -> Term:
        if depth <= 0:
            return self._escape(ctx, goal)
        options = ["escape"]
        axioms = [n for n, p in ctx if p == goal]
        if axioms:
            options += ["ax"] * 3
        if goal.is_classical:
            options += ["clam"] * 3 + ["eta_expand", "absurd"]
            options += ["elim"]
        else:
            options += ["intro"] * 3 + ["capp"] * 2 + ["absurd"]
        options += ["case"]
        choice = self.rng.choice(options)

        if choice == "ax":
            return Var(self.rng.choice(axioms))
        if choice == "escape":
            return self._escape(ctx, goal)
        if choice == "clam":
            x = self._fresh(ctx)
            annot = opposite(goal)
            body_goal = MProp(goal.base, Mode(STRONG, goal.sign))
            body = self.term(ctx.extend(x, annot), body_goal, depth - 1)
            return clam(goal.sign, x, annot, body)
        if choice == "eta_expand":
            x = self._fresh(ctx)
            fun = self.term(ctx, goal, depth - 1)
            return clam(goal.sign, x, opposite(goal), CApp(goal.sign, fun, Var(x)))
        if choice == "absurd":
            a = self.props.pure(2)
            p = MProp(a, Mode(STRONG, self.rng.choice((PLUS, MINUS))))
            left = self.term(ctx, p, depth - 1)
            right = self.term(ctx, opposite(p), depth - 1)
            return abs_general_at(goal, left, right, p)
        if choice == "case":
            sg = self.rng.choice((PLUS, MINUS))
            a, b = self.props.pure(2), self.props.pure(2)
            scrut_goal = MProp(INJECTED[sg](a, b), Mode(STRONG, sg))
            annots = (MProp(a, Mode(CLASSICAL, sg)), MProp(b, Mode(CLASSICAL, sg)))
            scrut = self.term(ctx, scrut_goal, depth - 1)
            x, y = self._fresh(ctx), None
            b1 = self.term(ctx.extend(x, annots[0]), goal, depth - 1)
            y = self._fresh(ctx)
            b2 = self.term(ctx.extend(y, annots[1]), goal, depth - 1)
            return case(sg, scrut, (x, annots[0], b1), (y, annots[1], b2))
        if choice == "elim":
            kind = self.rng.choice(("proj", "nege"))
            sg = goal.sign
            if kind == "proj":
                other = self.props.pure(2)
                index = self.rng.choice((1, 2))
                comps = (goal.base, other) if index == 1 else (other, goal.base)
                inner = self.term(ctx, MProp(PAIRED[sg](*comps), Mode(STRONG, sg)), depth - 1)
                return Proj(sg, index, inner)
            inner = self.term(ctx, MProp(Neg(goal.base), Mode(STRONG, flip(sg))), depth - 1)
            return NegE(flip(sg), inner)

        # a strong goal: intro on its shape, or capp, the only intro of an atom
        base, sg = goal.base, goal.sign
        c = Mode(CLASSICAL, sg)
        if choice == "intro":
            match base:
                case And(l, r) | Or(l, r) if isinstance(base, PAIRED[sg]):
                    return Pair(sg, self.term(ctx, MProp(l, c), depth - 1),
                                self.term(ctx, MProp(r, c), depth - 1))
                case And(l, r) | Or(l, r):
                    i = self.rng.choice((1, 2))
                    comp = l if i == 1 else r
                    return Inj(sg, i, self.term(ctx, MProp(comp, c), depth - 1))
                case Neg(inner):
                    return NegI(sg, self.term(ctx, MProp(inner, Mode(CLASSICAL, flip(sg))),
                                              depth - 1))
        fun = self.term(ctx, MProp(base, c), depth - 1)
        arg = self.term(ctx, MProp(base, Mode(CLASSICAL, flip(sg))), depth - 1)
        return CApp(sg, fun, arg)

    def sized_term(self, ctx: Context, goal: MProp, depth: int, max_size: int = 40) -> Term:
        """A generated term within a size bound (retries, then shrinks depth)."""
        for k in range(SIZED_ATTEMPTS):
            t = self.term(ctx, goal, max(1, depth - k // 5))
            if term_size(t) <= max_size:
                return t
        return self._escape(ctx, goal)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of well-typed terms

def all_pure_props(atoms: tuple[str, ...], depth: int) -> list[PureProp]:
    """All pure propositions of height <= depth (a variable has height 1)."""
    by_depth: list[list[PureProp]] = [[PVar(a) for a in atoms]]
    for _ in range(depth - 1):
        prev = [p for level in by_depth for p in level]
        nxt: list[PureProp] = [Neg(p) for p in by_depth[-1]]
        for l in prev:
            for r in prev:
                if max(prop_depth(l), prop_depth(r)) == len(by_depth):
                    nxt.append(And(l, r))
                    nxt.append(Or(l, r))
        by_depth.append(nxt)
    return [p for level in by_depth for p in level]


def bases_atoms(bases: tuple[PureProp, ...]) -> tuple[str, ...]:
    atoms: set[str] = set()
    for b in bases:
        atoms |= prop_vars(b)
    return tuple(sorted(atoms))


class TypedEnumerator:
    """All well-typed terms up to a size bound under a fixed context,
    with freely chosen annotations drawn from a finite base pool.

    Enumeration is goal-directed over the typing rules, so every produced
    term is well-typed by construction; with the standard pool it covers
    every term over the pool's annotations, exhaustively per size.
    """

    def __init__(self, ctx: Context, bases: tuple[PureProp, ...]):
        self.ctx = ctx
        self.bases = bases
        self.goal_bases = tuple(all_pure_props(bases_atoms(bases), 2))
        # absurdity premises range over all pool-expressible strong types,
        # so the abs-family redexes (pair/inj/negi collisions) are covered
        self.strong_pool = [MProp(b, Mode(STRONG, s)) for b in self.goal_bases
                            for s in (PLUS, MINUS)]
        self._memo: dict[tuple, tuple[Term, ...]] = {}
        self._abs_pairs: dict[tuple, tuple[tuple[Term, Term], ...]] = {}

    def goals(self) -> list[MProp]:
        return [MProp(b, Mode(st, s)) for b in self.goal_bases
                for st in (STRONG, CLASSICAL) for s in (PLUS, MINUS)]

    def terms(self, max_size: int) -> set[Term]:
        out: set[Term] = set()
        for goal in self.goals():
            for n in range(1, max_size + 1):
                out.update(self._exact(self.ctx, goal, n))
        return out

    def _exact(self, ctx: Context, goal: MProp, n: int) -> tuple[Term, ...]:
        key = (ctx.entries, goal, n)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._memo[key] = ()  # cut recursion; sizes strictly decrease anyway
        out: list[Term] = []
        if n == 1:
            out.extend(Var(name) for name, p in ctx if p == goal)
        if n >= 2:
            self._intro(ctx, goal, n, out)
            self._elim(ctx, goal, n, out)
            for left, right in self._abs_arguments(ctx, n - 1):
                out.append(Abs(goal, left, right))
        result = tuple(out)
        self._memo[key] = result
        return result

    def _abs_arguments(self, ctx: Context, budget: int) -> tuple[tuple[Term, Term], ...]:
        key = (ctx.entries, budget)
        hit = self._abs_pairs.get(key)
        if hit is None:
            pairs: list[tuple[Term, Term]] = []
            for p in self.strong_pool:
                for i in range(1, budget):
                    for left in self._exact(ctx, p, i):
                        for right in self._exact(ctx, opposite(p), budget - i):
                            pairs.append((left, right))
            hit = tuple(pairs)
            self._abs_pairs[key] = hit
        return hit

    def _intro(self, ctx: Context, goal: MProp, n: int, out: list[Term]) -> None:
        base, sign = goal.base, goal.sign
        if goal.is_classical:
            x = f"u{len(ctx.entries)}"
            annot = opposite(goal)
            inner = MProp(base, Mode(STRONG, sign))
            for body in self._exact(ctx.extend(x, annot), inner, n - 1):
                out.append(clam(sign, x, annot, body))
            return
        c = Mode(CLASSICAL, sign)
        match base:
            case And(l, r) | Or(l, r) if isinstance(base, PAIRED[sign]):
                for i in range(1, n - 1):
                    for left in self._exact(ctx, MProp(l, c), i):
                        for right in self._exact(ctx, MProp(r, c), n - 1 - i):
                            out.append(Pair(sign, left, right))
            case And(l, r) | Or(l, r):
                for i, comp in ((1, l), (2, r)):
                    for body in self._exact(ctx, MProp(comp, c), n - 1):
                        out.append(Inj(sign, i, body))
            case Neg(inner):
                for body in self._exact(ctx, MProp(inner, Mode(CLASSICAL, flip(sign))), n - 1):
                    out.append(NegI(sign, body))

    def _elim(self, ctx: Context, goal: MProp, n: int, out: list[Term]) -> None:
        base, sign = goal.base, goal.sign
        # classical eliminations: projections and negation elimination
        if goal.is_classical:
            for other in self.bases:
                for index in (1, 2):
                    comps = (base, other) if index == 1 else (other, base)
                    premise = MProp(PAIRED[sign](*comps), Mode(STRONG, sign))
                    for body in self._exact(ctx, premise, n - 1):
                        out.append(Proj(sign, index, body))
            # nege+ : (~A)^s+ -> A^c-; nege- : (~A)^s- -> A^c+
            for body in self._exact(ctx, MProp(Neg(base), Mode(STRONG, flip(sign))), n - 1):
                out.append(NegE(flip(sign), body))
        else:
            # strong goals via classical elimination (capp)
            for i in range(1, n - 1):
                for fun in self._exact(ctx, MProp(base, Mode(CLASSICAL, sign)), i):
                    for arg in self._exact(ctx, MProp(base, Mode(CLASSICAL, flip(sign))),
                                           n - 1 - i):
                        out.append(CApp(sign, fun, arg))
        # case over a pool scrutinee, any goal
        for sign in (PLUS, MINUS):
            for a in self.bases:
                for b in self.bases:
                    scrut_t = MProp(INJECTED[sign](a, b), Mode(STRONG, sign))
                    annots = (MProp(a, Mode(CLASSICAL, sign)), MProp(b, Mode(CLASSICAL, sign)))
                    x = f"u{len(ctx.entries)}"
                    ctx1 = ctx.extend(x, annots[0])
                    ctx2 = ctx.extend(x, annots[1])
                    for i in range(1, n - 2):
                        scruts = self._exact(ctx, scrut_t, i)
                        if not scruts:
                            continue
                        for j in range(1, n - 1 - i):
                            for b1 in self._exact(ctx1, goal, j):
                                for b2 in self._exact(ctx2, goal, n - 1 - i - j):
                                    for sc in scruts:
                                        out.append(case(sign, sc, (x, annots[0], b1),
                                                        (x, annots[1], b2)))


# ---------------------------------------------------------------------------
# A fixed library of provable judgments

def provable_library() -> list[tuple[Context, MProp, Term]]:
    """Twenty provable judgments with their witnesses: excluded middle and
    non-contradiction instances, admissible-rule conclusions, and a few
    compiled classical proofs."""
    from .classical import embed_nk, nk_and_e, nk_and_i, nk_hyp, nk_imp_i, nk_neg_e, nk_neg_i

    a, b = PVar("a"), PVar("b")
    sp, sm = Mode(STRONG, PLUS), Mode(STRONG, MINUS)
    cp, cm = Mode(CLASSICAL, PLUS), Mode(CLASSICAL, MINUS)

    def m(base, mode):
        return MProp(base, mode)

    entries: list[tuple[Context, MProp, Term]] = []

    entries.append((Context(), m(Or(a, Neg(a)), cp), mk_lem(a, PLUS)))
    entries.append((Context(), m(And(a, Neg(a)), cm), mk_lem(a, MINUS)))
    entries.append((Context(), m(Or(And(a, b), Neg(And(a, b))), cp), mk_lem(And(a, b), PLUS)))
    entries.append((Context(), m(And(Or(a, b), Neg(Or(a, b))), cm), mk_lem(Or(a, b), MINUS)))

    x, y = Var("x"), Var("y")
    ctx1 = Context.of(("x", m(a, sp)))
    entries.append((ctx1, m(a, cp), clam(PLUS, "w", m(a, cm), x)))
    ctx2 = Context.of(("x", m(a, sm)))
    entries.append((ctx2, m(a, cm), clam(MINUS, "w", m(a, cp), x)))

    contradiction = Context.of(("x", m(a, cp)), ("y", m(a, cm)))
    entries.append((contradiction, m(b, sp), abs_general_at(m(b, sp), x, y, m(a, cp))))
    entries.append((contradiction, m(b, cm), abs_general_at(m(b, cm), x, y, m(a, cp))))

    pair_ctx = Context.of(("x", m(a, cp)), ("y", m(b, cp)))
    entries.append((pair_ctx, m(And(a, b), sp), Pair(PLUS, x, y)))
    entries.append((Context.of(("x", m(And(a, b), sp))), m(a, cp), Proj(PLUS, 1, x)))
    entries.append((Context.of(("x", m(a, cp))), m(Or(a, b), sp), Inj(PLUS, 1, x)))
    entries.append((Context.of(("x", m(Neg(a), sp))), m(a, cm), NegE(PLUS, x)))
    entries.append((Context.of(("x", m(a, cm))), m(Neg(a), sp), NegI(PLUS, x)))

    pair_ctx_m = Context.of(("x", m(a, cm)), ("y", m(b, cm)))
    entries.append((pair_ctx_m, m(Or(a, b), sm), Pair(MINUS, x, y)))
    entries.append((Context.of(("x", m(Or(a, b), sm))), m(b, cm), Proj(MINUS, 2, x)))
    entries.append((Context.of(("x", m(a, cm))), m(And(a, b), sm), Inj(MINUS, 1, x)))
    entries.append((Context.of(("x", m(a, cp))), m(Neg(a), sm), NegI(MINUS, x)))

    dni = nk_neg_i(Neg(a), nk_neg_e(nk_hyp((a, Neg(a)), 1), nk_hyp((a, Neg(a)), 0)))
    entries.append((Context.of(("h0", m(a, cp))), m(Neg(Neg(a)), cp), embed_nk(dni)))

    comm = nk_and_i(nk_and_e(2, nk_hyp((And(a, b),), 0)), nk_and_e(1, nk_hyp((And(a, b),), 0)))
    entries.append((Context.of(("h0", m(And(a, b), cp))), m(And(b, a), cp), embed_nk(comm)))

    imp = nk_imp_i(And(a, b), comm)
    entries.append((Context(), m(Or(Neg(And(a, b)), And(b, a)), cp), embed_nk(imp)))

    assert len(entries) == 20
    return entries

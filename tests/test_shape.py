"""The tree shapes: one children/rebuild/binder table per AST, and the
generic map and fold built on them."""

import sys

import pytest

from prk.syntax import (BINDERS, Abs, Bound, CApp, CLam, Case, Inj, MProp, Mode,
                        NegE, NegI, Pair, Proj, PVar, Term, Var, children, fv,
                        rebuild, subterms, term_fold, term_map, term_size,
                        uses_index)
from prk.systemf import (FTERM_BINDERS, FTYPE_BINDERS, Arrow, FApp, FBound, FLam,
                         FNeg, FPos, FTerm, FType, FVar, Forall, TBound, TVar,
                         TyApp, TyLam, complexity, shift_type, fterm_children, fterm_fold,
                         fterm_fv, fterm_map, fterm_rebuild, ftype_children,
                         ftype_fold, ftype_map, ftype_rebuild, ftype_vars)

P = MProp(PVar("a"), Mode("c", "+"))
x, y = Var("x"), Var("y")

TERMS = [Var("x"), Bound(0), Abs(P, x, y), Pair("+", x, y), Proj("-", 2, x),
         Inj("+", 1, y), Case("+", x, P, Bound(0), P, Bound(1), "u", "v"),
         NegI("+", x), NegE("-", y), CLam("-", P, Bound(0), "k"), CApp("+", x, y)]
a, b = TVar("a"), TVar("b")
FTYPES = [a, TBound(0), FPos(a, b), FNeg(b, a), Arrow(a, b), Forall(TBound(0), "c")]
FTERMS = [FVar("x"), FBound(0), FLam(a, FBound(0), "y"), FApp(FVar("f"), FVar("x")),
          TyLam(FVar("x"), "c"), TyApp(FVar("f"), b)]

# (samples, base class, children, rebuild, map, fold, binder table, root depth,
#  the binders the calculus puts over each child of a binding constructor)
SHAPES = {
    "term": (TERMS, Term, children, rebuild, term_map, term_fold, BINDERS, 0,
             {CLam: (1,), Case: (0, 1, 1)}),
    "ftype": (FTYPES, FType, ftype_children, ftype_rebuild, ftype_map, ftype_fold,
              FTYPE_BINDERS, 0, {Forall: (1,)}),
    "fterm": (FTERMS, FTerm, fterm_children, fterm_rebuild, fterm_map, fterm_fold,
              FTERM_BINDERS, (0, 0), {FLam: ((0, 0), (1, 0)), TyLam: ((0, 1),)}),
}


@pytest.mark.parametrize("tree", SHAPES)
def test_shape_covers_every_constructor(tree):
    samples, base, kids_of, rebuild_, map_, fold, binders, top, calculus = SHAPES[tree]
    assert {type(t) for t in samples} == set(base.__subclasses__())
    assert binders == calculus
    for t in samples:
        kids = kids_of(t)
        again = rebuild_(t, kids)
        assert again == t and repr(again) == repr(t)  # hints included
        assert map_(t, lambda u, _: u) is t
        assert fold(t, lambda u, d: u is t and d == top)  # the root comes first
        if kids:
            # rebuild puts each new child back at its own position
            swapped = rebuild_(t, kids[::-1])
            assert kids_of(swapped) == kids[::-1]
            assert len(binders.get(type(t), kids)) == len(kids)


def test_map_and_fold_count_binders():
    # each leaf sees the binders between it and the root
    seen = []
    term_map(TERMS[6], lambda u, d: seen.append((u, d)) or u, 5)
    assert seen == [(x, 5), (Bound(0), 6), (Bound(1), 6)]
    seen.clear()
    term_fold(CLam("+", P, Pair("+", x, Bound(0))), lambda u, d: seen.append(d))
    assert seen == [0, 1, 1, 1]
    seen.clear()
    fterm_map(TyLam(FLam(a, FBound(0))), lambda u, d: seen.append((u, d)) or u)
    assert seen == [(a, (0, 1)), (FBound(0), (1, 1))]


def test_map_shares_unchanged_subtrees():
    t = Pair("+", CLam("-", P, Bound(0)), x)
    out = term_map(t, lambda u, _: y if u == x else u)
    assert out == Pair("+", CLam("-", P, Bound(0)), y)
    assert out.left is t.left


# -- folds need no recursion ---------------------------------------------------

DEEP = 10 ** 5


def test_term_folds_need_no_recursion():
    assert sys.getrecursionlimit() < DEEP
    t = Pair("+", x, Bound(0))
    for _ in range(DEEP // 2):
        t = NegE("-", NegI("-", t))
    assert term_size(t) == DEEP + 3
    assert fv(t) == {"x"}
    assert uses_index(t, 0) and not uses_index(t, 1)
    names = [type(u).__name__ for u in subterms(t)]
    assert len(names) == DEEP + 3
    assert names[:2] == ["NegE", "NegI"] and names[-3:] == ["Pair", "Var", "Bound"]


def test_type_and_fterm_folds_need_no_recursion():
    ty, ft = TVar("a0"), FVar("x0")
    for i in range(1, DEEP):
        ty = Arrow(TVar(f"a{i % 7}"), ty)
        ft = FApp(ft, FVar(f"x{i % 5}"))
    assert ftype_vars(ty) == {f"a{i}" for i in range(7)}
    assert complexity(ty) == 2 * DEEP - 1
    assert fterm_fv(ft) == {f"x{i}" for i in range(5)}


def test_type_map_needs_no_recursion():
    ty = TBound(0)  # a free index at the bottom, so shifting visits every node
    for i in range(DEEP):
        ty = Arrow(TVar(f"a{i % 7}"), ty)
    out = shift_type(ty, 2)
    for _ in range(DEEP):
        assert type(out) is Arrow
        out = out.cod
    assert out == TBound(2)

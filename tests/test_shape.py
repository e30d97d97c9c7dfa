"""The tree shapes: children/rebuild read off each AST's fields plus one
binder table, the generic map and fold built on them, and the free-variable
summary every proof term and F node carries."""

import copy
import pickle
import sys
import tracemalloc

import pytest

from prk.rewrite import normalize
from prk.syntax import (BINDERS, Abs, Bound, CApp, CLam, Case, Inj, MProp, Mode,
                        NegE, NegI, Pair, Proj, PVar, Term, Var, children,
                        close_binder, fv, rebuild, shift, subst_bound, substitute,
                        subterms, term_fold, term_map, term_size, uses_index)
from prk.systemf import (FTERM_BINDERS, FTYPE_BINDERS, Arrow, FApp, FBound, FLam,
                         FNeg, FPos, FTerm, FType, FVar, Forall, TBound, TVar,
                         TyApp, TyLam, complexity, shift_type, fterm_children, fterm_fold,
                         fterm_fv, fterm_map, fterm_rebuild, ftype_children,
                         ftype_fold, ftype_map, ftype_rebuild, ftype_vars)
from prk.typecheck import Context, infer_type
from testlib import lines_run

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


def test_fterm_children_of_a_type_is_empty():
    for t in FTYPES:
        assert fterm_children(t) == ()


# -- every proof term carries its free-variable summary ---------------------------
# free is (bound on the free indices, the free names), a bound being the
# largest free index + 1.  The scan below reads it off every leaf instead.

def _scan(t):
    bound, names = [0], set()

    def visit(u, d):
        if isinstance(u, Bound) and u.index >= d:
            bound[0] = max(bound[0], u.index - d + 1)
        elif isinstance(u, Var):
            names.add(u.name)

    term_fold(t, visit)
    return bound[0], frozenset(names)


def _random_open_term(rng, depth):
    """Any constructor, with indices that may point past every binder."""
    if depth == 0 or rng.random() < 0.2:
        return Bound(rng.randrange(4)) if rng.random() < 0.5 else Var(rng.choice("xyz"))
    sub = lambda: _random_open_term(rng, depth - 1)  # noqa: E731
    sign = rng.choice("+-")
    return rng.choice([
        lambda: Abs(P, sub(), sub()), lambda: Pair(sign, sub(), sub()),
        lambda: Proj(sign, 1, sub()), lambda: Inj(sign, 2, sub()),
        lambda: Case(sign, sub(), P, sub(), P, sub(), "u", "v"),
        lambda: NegI(sign, sub()), lambda: NegE(sign, sub()),
        lambda: CLam(sign, P, sub(), "k"), lambda: CApp(sign, sub(), sub())])()


def _corpus(term_gen, rng):
    terms = [_random_open_term(rng, 5) for _ in range(120)]
    for make_ctx in (term_gen.base_context, term_gen.classical_context):
        terms += [term_gen.term(make_ctx(), term_gen.props.mprop(2), 3) for _ in range(60)]
    return terms


def test_every_node_carries_its_summary(term_gen, rng):
    for t in _corpus(term_gen, rng):
        for u in subterms(t):
            assert u.free == _scan(u)
            assert fv(u) == u.free[1]
    t = Pair("+", Var("x"), Bound(3))
    for i in range(DEEP // 2):
        t = CLam("-", P, NegI("+", t)) if i % 1000 == 0 else NegE("-", NegI("-", t))
    assert t.free == _scan(t) == (0, frozenset({"x"}))
    # equal summaries are shared, not built again
    assert Var("q").free is Var("q").free and NegI("+", t).free is t.free


# -- a summary is made on its node's first read -------------------------------------
# Most nodes built are never asked for their summary, so it is made when first
# read, with the summaries below it; a variable's is still made with it.

def test_a_negative_index_fails_when_built():
    for index in (Bound, TBound, FBound):
        with pytest.raises(ValueError):
            index(-1)


def _read_shared_pairs(n):
    """The lines run reading free on n levels of t = Pair("+", t, t): a tree of
    2^n leaves, a graph of n + 1 nodes."""
    t = x
    for _ in range(n):
        t = Pair("+", t, t)
    free, lines = lines_run(lambda: t.free)
    assert free == (0, frozenset({"x"}))
    return lines


def test_a_shared_graph_is_summarized_in_linear_work():
    assert _read_shared_pairs(400) <= 2.2 * _read_shared_pairs(200)


def test_deep_nests_read_free_without_recursion():
    assert sys.getrecursionlimit() < DEEP
    t, ty, ft = Pair("+", x, Bound(1)), Arrow(TBound(DEEP), a), FApp(FBound(0), FVar("y"))
    for _ in range(DEEP):
        t, ty, ft = NegI("+", t), Forall(ty), FLam(b, ft)
    assert t.free == (2, frozenset({"x"}))
    assert ty.free == (1, frozenset({"a"}), 0, frozenset())
    assert ft.free == (0, frozenset({"b"}), 0, frozenset({"y"}))


def _summary_samples():
    return [CLam("+", P, Pair("+", Bound(0), Bound(2)), "k"),
            Forall(Arrow(TBound(0), Forall(TBound(2)))),
            TyLam(FLam(TBound(0), FApp(FBound(1), FVar("y")), "z"))]


def test_a_node_has_no_attribute_beside_its_fields_and_free():
    for t in _summary_samples():
        assert not hasattr(t, "nope")
        assert t.free is t._free


def test_copies_made_before_and_after_the_first_read_equal_the_original():
    for read_first in (False, True):
        for t in _summary_samples():
            if read_first:
                t.free
            for again in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
                assert again._free is None  # made again on its first read
                assert again == t and again.free == t.free and hash(again) == hash(t)


def test_a_chain_keeps_its_fields_hash_and_summary_in_few_bytes_a_node():
    # 400 nege/negi pairs over x are 801 nodes; with an instance dict each, they took 362 bytes
    # a node once hashed and summarized, and typing kept 446 more
    ctx = Context.of(("x", P))
    tracemalloc.start()
    try:
        t = x
        for _ in range(400):
            t = NegE("-", NegI("-", t))
        hash(t), t.free
        built = tracemalloc.get_traced_memory()[0]
        d = infer_type(ctx, t)
        typed = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert d.conclusion == P
    assert built / 801 <= 160 and typed / 801 <= 300, (built / 801, typed / 801)


# A reference for the de Bruijn walks that visits every node: it recurses over
# the shape and knows nothing of the summaries.

def _ref_map(t, leaf, d):
    kids = children(t)
    if not kids:
        return leaf(t, d)
    under = BINDERS.get(type(t), (0,) * len(kids))
    return rebuild(t, [_ref_map(c, leaf, d + k) for c, k in zip(kids, under)])


def _ref_shift(t, amount, cutoff=0):
    def leaf(u, c):
        if isinstance(u, Bound) and u.index >= c:
            if u.index + amount < c:
                raise ValueError("dangling")
            return Bound(u.index + amount)
        return u
    return _ref_map(t, leaf, cutoff)


def _ref_subst(t, j, s, depth=0):
    def leaf(u, d):
        if isinstance(u, Bound) and u.index == j + d:
            return _ref_shift(s, d)
        return Bound(u.index - 1) if isinstance(u, Bound) and u.index > j + d else u
    return _ref_map(t, leaf, depth)


def _ref_close(t, name, depth=0):
    def leaf(u, d):
        if isinstance(u, Var):
            return Bound(d) if u.name == name else u
        return Bound(u.index + 1) if u.index >= d else u
    return _ref_map(t, leaf, depth)


def _same(lib, ref) -> bool:
    """Equal answers, hints included, or both raise ValueError (then true)."""
    try:
        want = repr(ref())
    except ValueError:
        with pytest.raises(ValueError):
            lib()
        return True
    assert repr(lib()) == want
    return False


def test_pruned_term_walks_match_reference(term_gen, rng):
    raised = 0
    for t in _corpus(term_gen, rng):
        bodies = [t]
        for u in subterms(t):
            if isinstance(u, CLam):
                bodies.append(u.body)
            elif isinstance(u, Case):
                bodies += [u.branch1, u.branch2]
        s = _random_open_term(rng, 2)
        for b in bodies:
            for c in (0, 1, 2):
                for amount in (-1, 1, 2):
                    raised += _same(lambda: shift(b, amount, c), lambda: _ref_shift(b, amount, c))
                for j in (0, 1):
                    _same(lambda: subst_bound(b, j, s, c), lambda: _ref_subst(b, j, s, c))
                for name in "xyz":
                    _same(lambda: close_binder(b, name, c), lambda: _ref_close(b, name, c))
            for name in "xyz":
                _same(lambda: substitute(b, name, s),
                      lambda: _ref_map(b, lambda u, _: s if u == Var(name) else u, 0))
    assert raised > 100  # shifts by -1 that leave an index dangling
    with pytest.raises(ValueError):
        shift(CLam("+", P, Pair("+", Bound(0), Bound(1))), -1)


# -- substitution skips what it cannot change, so normalizing is linear -------------

def _visits(fn, *args):
    """The number of nodes whose children fn(*args) reads: its work, counted
    the same on every machine."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is children.__code__

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _case_nest(k):
    """case+(in1+(v), x. pair+(x, ...), y. y), k cases deep: each contraction
    substitutes into a body that holds the rest of the nest."""
    t = Var("w")
    for _ in range(k):
        t = Case("+", Inj("+", 1, Var("v")), P, Pair("+", Bound(0), t), P, Bound(0))
    return t


def test_normalizing_a_case_nest_is_linear():
    small = _visits(normalize, _case_nest(25))
    assert _visits(normalize, _case_nest(200)) <= 10 * small

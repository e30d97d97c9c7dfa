import functools
import random
import sys
import time
from pathlib import Path

import pytest

from prk.errors import FuelExhaustedError, TypingError, UnboundVariableError
from prk.rewrite import step
from prk.surface import parse_mprop, parse_term
from prk.syntax import (CLASSICAL, MODES, PAIRED, STRONG, And, MProp, Mode, Neg, Or, PVar,
                        flip, fresh_name, opposite, preorder)
from prk.systemf import (FTERM_BINDERS, FTYPE_BINDERS, ONE, TRIV, ZERO, Arrow,
                         DomainMismatchError, FApp, FBound, FLam, FNeg, FPos,
                         FType, FVar, Forall, NotAForallError, NotAnArrowError,
                         TBound, TVar, TyApp, TyLam, abort_f, case_f, check_simulation,
                         close_type, f_head_step,
                         f_infer, f_match_redex, f_normalize, f_step, fterm_children,
                         fterm_fold, fterm_fv, fterm_rebuild, ftype_children,
                         ftype_equiv, ftype_fold, ftype_rebuild, ftype_vars, funabs,
                         in_f, pair_f, plus, polarity, print_fterm, print_ftype, proj_f,
                         shift_fterm, shift_type, subst_fterm, subst_type,
                         subst_type_in_fterm, times, translate_ctx, translate_prop,
                         translate_term)
from prk.typecheck import Context, Derivation, check_type, infer_type, mk_lem
from testlib import (close_fterm, close_tyvar_in_fterm, count_calls, flam, lines_run,
                     print_f_by_patterns, ref_f_reducts, tylam)

ROOT = Path(__file__).resolve().parent.parent
A, B = TVar("A"), TVar("B")
alpha, beta = TVar("alpha"), TVar("beta")


# -- type equivalence -----------------------------------------------------------

def test_equiv_constraint():
    assert ftype_equiv(FPos(A, B), Arrow(FNeg(A, B), A))
    assert ftype_equiv(FNeg(A, B), Arrow(FPos(A, B), B))


def test_equiv_reflexive():
    assert ftype_equiv(A, A)
    assert ftype_equiv(times(A, B), times(A, B))


def test_equiv_negative_case():
    assert not ftype_equiv(FPos(alpha, beta), Arrow(alpha, alpha))


def test_equiv_deep_unfolding():
    lhs = FPos(A, B)
    rhs = Arrow(Arrow(FPos(A, B), B), A)  # two unfoldings
    assert ftype_equiv(lhs, rhs)


def test_equiv_is_equivalence_and_congruence(rng):
    from prk.gen import PropGen
    gen = PropGen(rng)
    pool = [translate_prop(MProp(gen.pure(3), Mode(st, sg)))
            for st in "sc" for sg in "+-" for _ in range(6)]
    for _ in range(150):
        x = rng.choice(pool)
        y = rng.choice(pool)
        z = rng.choice(pool)
        assert ftype_equiv(x, x)
        if ftype_equiv(x, y):
            assert ftype_equiv(y, x)
        if ftype_equiv(x, y) and ftype_equiv(y, z):
            assert ftype_equiv(x, z)
        if ftype_equiv(x, y):
            assert ftype_equiv(Arrow(x, z), Arrow(y, z))
            assert ftype_equiv(Arrow(z, x), Arrow(z, y))
            assert ftype_equiv(Forall(x), Forall(y))


# -- typing ---------------------------------------------------------------------

def test_encoding_shapes():
    # the abbreviations elaborate to their polymorphic encodings
    assert ZERO == Forall(TBound(0))
    assert ONE == Forall(Arrow(TBound(0), TBound(0)))
    assert times(A, B) == Forall(Arrow(Arrow(A, Arrow(B, TBound(0))), TBound(0)))
    assert plus(A, B) == Forall(Arrow(Arrow(A, TBound(0)),
                                      Arrow(Arrow(B, TBound(0)), TBound(0))))


def test_triv_has_unit_type():
    assert f_infer((), TRIV) == ONE


def test_pair_and_proj_typing():
    ctx = (("t", A), ("s", B))
    p = pair_f(FVar("t"), FVar("s"), A, B)
    assert f_infer(ctx, p) == times(A, B)
    assert ftype_equiv(f_infer(ctx, proj_f(1, p, A, B)), A)


def test_conversion_at_application():
    ctx = (("y", Arrow(FNeg(A, B), A)),)
    t = FApp(flam("x", FPos(A, B), FVar("x")), FVar("y"))
    assert f_infer(ctx, t) == FPos(A, B)


def test_domain_mismatch():
    ctx = (("y", Arrow(A, A)),)
    t = FApp(flam("x", FPos(A, B), FVar("x")), FVar("y"))
    with pytest.raises(DomainMismatchError):
        f_infer(ctx, t)


def test_not_an_arrow_and_not_a_forall():
    ctx = (("x", A),)
    with pytest.raises(NotAnArrowError):
        f_infer(ctx, FApp(FVar("x"), FVar("x")))
    with pytest.raises(NotAForallError):
        f_infer(ctx, TyApp(FVar("x"), A))


def test_type_abstraction():
    t = tylam("c", flam("x", TVar("c"), FVar("x")))
    assert f_infer((), t) == ONE


# -- reduction -------------------------------------------------------------------

def test_f_beta():
    t = FApp(flam("x", A, FVar("x")), FVar("s"))
    assert f_step(t) == FVar("s")


def test_f_type_beta():
    t = TyApp(tylam("c", flam("x", TVar("c"), FVar("x"))), A)
    assert f_step(t) == flam("x", A, FVar("x"))


def test_encodings_reduce():
    p = pair_f(FVar("t"), FVar("s"), A, B)
    assert f_normalize(proj_f(1, p, A, B)) == FVar("t")
    assert f_normalize(proj_f(2, p, A, B)) == FVar("s")
    inj = in_f(2, FVar("u"), A, B)
    from prk.systemf import case_f
    t = case_f(inj, flam("x", A, FVar("l")), flam("x", B, FApp(FVar("r"), FVar("x"))),
               TVar("C"))
    assert f_normalize(t) == FApp(FVar("r"), FVar("u"))


# -- translation ------------------------------------------------------------------

def test_translate_prop_examples():
    assert translate_prop(parse_mprop("a^s+")) == TVar("a")
    assert translate_prop(parse_mprop("a^s-")) == Arrow(TVar("a"), ZERO)
    expected = Arrow(ONE, FNeg(TVar("a"), Arrow(TVar("a"), ZERO)))
    assert translate_prop(parse_mprop("~a^s+")) == expected
    assert translate_prop(parse_mprop("a^c+")) == FPos(TVar("a"), Arrow(TVar("a"), ZERO))


def test_translate_conjunction():
    got = translate_prop(parse_mprop("(a & b)^s+"))
    pa = translate_prop(parse_mprop("a^c+"))
    pb = translate_prop(parse_mprop("b^c+"))
    assert got == times(pa, pb)


def test_funabs_types(rng):
    from prk.gen import PropGen
    gen = PropGen(rng)
    for _ in range(25):
        p = MProp(gen.pure(2), gen.mode())
        q = MProp(gen.pure(2), gen.mode())
        term = funabs(p, q)
        from prk.syntax import opposite
        want = Arrow(translate_prop(p),
                     Arrow(translate_prop(opposite(p)), translate_prop(q)))
        assert ftype_equiv(f_infer((), term), want)


def test_funabs_memoized():
    p = parse_mprop("(a & b)^c+")
    q = parse_mprop("a^s+")
    assert funabs(p, q) is funabs(p, q)


@functools.lru_cache(maxsize=None)
def _two_arm_funabs(p, q):
    """funabs as it was, with its And/Or case stated once for x the product
    and once for y the product."""
    tq, tp, tpo = translate_prop(q), translate_prop(p), translate_prop(opposite(p))
    x, y, z = FVar("x"), FVar("y"), FVar("z")

    def wrap(body):
        return flam("x", tp, flam("y", tpo, body))

    base, sign = p.base, p.sign
    if p.mode.strength == CLASSICAL:
        inner = _two_arm_funabs(MProp(base, Mode(STRONG, sign)), q)
        return wrap(FApp(FApp(inner, FApp(x, y)), FApp(y, x)))
    c, co = Mode(CLASSICAL, sign), Mode(CLASSICAL, flip(sign))
    match base:
        case PVar(_):
            return wrap(abort_f(tq, FApp(y, x) if sign == "+" else FApp(x, y)))
        case And(l, r) | Or(l, r) if isinstance(base, PAIRED[sign]):
            tl, tr = translate_prop(MProp(l, c)), translate_prop(MProp(r, c))
            b1 = flam("z", translate_prop(MProp(l, co)),
                      FApp(FApp(_two_arm_funabs(MProp(l, c), q), proj_f(1, x, tl, tr)), z))
            b2 = flam("z", translate_prop(MProp(r, co)),
                      FApp(FApp(_two_arm_funabs(MProp(r, c), q), proj_f(2, x, tl, tr)), z))
            return wrap(case_f(y, b1, b2, tq))
        case And(l, r) | Or(l, r):
            tl, tr = translate_prop(MProp(l, co)), translate_prop(MProp(r, co))
            b1 = flam("z", translate_prop(MProp(l, c)),
                      FApp(FApp(_two_arm_funabs(MProp(l, c), q), z), proj_f(1, y, tl, tr)))
            b2 = flam("z", translate_prop(MProp(r, c)),
                      FApp(FApp(_two_arm_funabs(MProp(r, c), q), z), proj_f(2, y, tl, tr)))
            return wrap(case_f(x, b1, b2, tq))
        case Neg(inner):
            return wrap(FApp(FApp(_two_arm_funabs(MProp(inner, co), q), FApp(x, TRIV)),
                             FApp(y, TRIV)))


def test_funabs_matches_the_two_arm_reference():
    # every proposition over a, b of height at most 3, an atom's height being 1
    props = [PVar("a"), PVar("b")]
    for _ in range(2):
        props = [PVar("a"), PVar("b"), *map(Neg, props),
                 *(conn(l, r) for conn in (And, Or) for l in props for r in props)]
    targets = [parse_mprop(q) for q in
               ("a^s+", "b^c-", "(a & b)^s-", "~a^c+", "(a | ~b)^c-")]
    pairs = [(MProp(base, mode), q) for base in props for mode in MODES for q in targets]
    assert len(pairs) == 6_040
    for p, q in pairs:
        assert funabs(p, q) == _two_arm_funabs(p, q), (p, q)


def test_translation_preserves_types(term_gen):
    for _ in range(40):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.sized_term(ctx, goal, 3, max_size=20)
        d = check_type(ctx, t, goal)
        fterm = translate_term(d)
        inferred = f_infer(translate_ctx(ctx), fterm)
        assert ftype_equiv(inferred, translate_prop(goal))


def test_translation_preserves_fv(term_gen):
    from prk.syntax import fv
    from prk.systemf import fterm_fv
    for _ in range(40):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.sized_term(ctx, goal, 3, max_size=20)
        d = check_type(ctx, t, goal)
        assert fterm_fv(translate_term(d)) == fv(t)


def _check_close_roundtrips(ft, names, tyvars):
    # closing a name and substituting it back is the identity, on ft and on
    # every binder body (a body refers to its own binder as index 0)
    from prk.syntax import preorder
    from prk.systemf import FLam, FVar, fterm_fold, subst_fterm, subst_type_in_fterm
    bodies = [ft] + [u.body for u in preorder(fterm_fold, ft) if isinstance(u, (FLam, TyLam))]
    for b in bodies:
        for x in names:
            assert subst_fterm(close_fterm(b, x), 0, FVar(x)) == b
        for a in tyvars:
            assert subst_type_in_fterm(close_tyvar_in_fterm(b, a), 0, TVar(a)) == b


def test_translation_commutes_with_substitution(term_gen, rng):
    from prk.syntax import substitute
    from prk.systemf import subst_fterm
    from prk.typecheck import mk_lem
    for _ in range(25):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.sized_term(ctx, goal, 3, max_size=16)
        x, p = rng.choice(ctx.entries)
        s = term_gen.sized_term(ctx, p, 2, max_size=12)
        lhs = translate_term(check_type(ctx, substitute(t, x, s), goal))
        ft = translate_term(check_type(ctx, t, goal))
        fs = translate_term(check_type(ctx, s, p))
        rhs = subst_fterm(close_fterm(ft, x), 0, fs)
        assert lhs == rhs
        _check_close_roundtrips(ft, ctx.names(), ("a", "b"))
    for _ in range(4):
        lem = mk_lem(term_gen.props.pure(1), rng.choice("+-"))
        ft = translate_term(infer_type(Context(), lem))
        _check_close_roundtrips(ft, ("x", "y"), ("a", "b"))


# -- simulation --------------------------------------------------------------------

def _first_step(t):
    result = step(t)
    assert result is not None
    return result


def test_simulation_composes_to_normal_form(term_gen):
    # the one-step simulation composes: translating a term and its normal
    # form gives F terms connected by at least one step per source step
    from prk.rewrite import normalize
    from prk.systemf import f_reaches
    checked = 0
    for _ in range(60):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.sized_term(ctx, goal, 3, max_size=16)
        nf, trace = normalize(t)
        if not trace:
            continue
        src = translate_term(check_type(ctx, t, goal))
        tgt = translate_term(check_type(ctx, nf, goal))
        dist = f_reaches(src, tgt)
        assert dist is not None and dist >= len(trace)
        checked += 1
    assert checked >= 5


def test_simulation_beta_one_step():
    ctx = Context.of(("s", parse_mprop("a^c-")), ("u", parse_mprop("a^s+")))
    t = parse_term("capp+(clam+(x : a^c-. u), s)")
    d = infer_type(ctx, t)
    _, _, s_term = _first_step(t)
    assert check_simulation(t, s_term, d, depth=1)


def test_simulation_neg_one_step():
    ctx = Context.of(("u", parse_mprop("a^c-")),)
    t = parse_term("nege+(negi+(u))")
    d = infer_type(ctx, t)
    _, _, s_term = _first_step(t)
    assert check_simulation(t, s_term, d, depth=1)
    assert not check_simulation(t, s_term, d, depth=0)


def test_simulation_abs_pair_inj():
    ctx = Context.of(("t1", parse_mprop("a^c+")), ("t2", parse_mprop("b^c+")),
                     ("s", parse_mprop("a^c-")))
    t = parse_term("abs[c^s+](pair+(t1, t2), in1-(s))")
    d = infer_type(ctx, t)
    _, _, s_term = _first_step(t)
    assert check_simulation(t, s_term, d, depth=25)


def test_simulation_abs_neg():
    ctx = Context.of(("t", parse_mprop("a^c-")), ("s", parse_mprop("a^c+")))
    t = parse_term("abs[c^s+](negi+(t), negi-(s))")
    d = infer_type(ctx, t)
    _, _, s_term = _first_step(t)
    assert check_simulation(t, s_term, d, depth=25)


def _bfs_distance(source, target, depth, cap=6000):
    # independent oracle: literal breadth-first search over redex choices;
    # returns "abort" when the state space exceeds the cap
    frontier = [source]
    visited = {source}
    for level in range(1, depth + 1):
        nxt = []
        for u in frontier:
            for v in ref_f_reducts(u):
                if v == target:
                    return level
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
            if len(visited) > cap:
                return "abort"
        frontier = nxt
        if not frontier:
            return None
    return None


def test_reaches_agrees_with_bfs(term_gen):
    from prk.systemf import f_reaches
    checked = 0
    attempts = 0
    while checked < 15 and attempts < 400:
        attempts += 1
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.sized_term(ctx, goal, 3, max_size=14)
        nxt = step(t)
        if nxt is None:
            continue
        d = check_type(ctx, t, goal)
        source = translate_term(d)
        target = translate_term(check_type(ctx, nxt[2], goal))
        bfs = _bfs_distance(source, target, 8)
        if bfs == "abort":
            continue
        std = f_reaches(source, target)
        if bfs is not None:
            assert std is not None and std >= 1
            # a standard path is a path; BFS distance is the true minimum
            assert bfs <= std
            checked += 1
    assert checked >= 15


# -- polarity ----------------------------------------------------------------------

def test_polarity_examples():
    p = polarity(alpha)
    assert p.pos == frozenset((alpha,)) and p.neg == frozenset()
    p = polarity(Arrow(alpha, beta))
    assert p.neg == frozenset((alpha,)) and p.pos == frozenset((beta,))


def test_polarity_constraint_atoms():
    t = FPos(alpha, beta)
    p = polarity(t)
    assert p.pos == frozenset((t,))
    assert t in p.wpos and alpha in p.wpos and beta in p.wneg


def test_weak_contains_strict(rng):
    from prk.gen import PropGen
    gen = PropGen(rng)
    for _ in range(200):
        t = translate_prop(MProp(gen.pure(3), gen.mode()))
        p = polarity(t)
        assert p.pos <= p.wpos
        assert p.neg <= p.wneg


def _one_step_unfoldings(t):
    """All types obtained by unfolding one constraint-variable occurrence."""
    from prk.systemf import unfold_constraint
    out = []
    if isinstance(t, (FPos, FNeg)):
        out.append(unfold_constraint(t))
    match t:
        case Arrow(d, c):
            out.extend(Arrow(d2, c) for d2 in _one_step_unfoldings(d))
            out.extend(Arrow(d, c2) for c2 in _one_step_unfoldings(c))
        case Forall(b):
            out.extend(Forall(b2) for b2 in _one_step_unfoldings(b))
    return out


def test_positivity_of_constraints(rng):
    # Mendler's condition, instance-checked: a constraint variable never
    # occurs negatively in any type equivalent to it (unfoldings, depth 3)
    from prk.gen import PropGen
    gen = PropGen(rng)
    for _ in range(100):
        a = translate_prop(MProp(gen.pure(2), gen.mode()))
        b = translate_prop(MProp(gen.pure(2), gen.mode()))
        for var in (FPos(a, b), FNeg(a, b)):
            frontier = [var]
            seen = set(frontier)
            for _ in range(3):
                nxt = []
                for t in frontier:
                    for t2 in _one_step_unfoldings(t):
                        if t2 not in seen:
                            seen.add(t2)
                            nxt.append(t2)
                frontier = nxt
            for t in seen:
                assert var not in polarity(t).neg


def test_complexity_decreases_into_constraints(rng):
    from prk.gen import PropGen
    from prk.systemf import complexity
    gen = PropGen(rng)
    for _ in range(60):
        a = translate_prop(MProp(gen.pure(2), gen.mode()))
        b = translate_prop(MProp(gen.pure(2), gen.mode()))
        c = FPos(a, b)
        assert complexity(a) < complexity(c)
        assert complexity(b) < complexity(c)


# -- printing ---------------------------------------------------------------------

def test_print_sugar():
    assert print_ftype(ZERO) == "0"
    assert print_ftype(ONE) == "1"
    assert print_ftype(times(A, B)) == "(A * B)"
    assert print_ftype(plus(A, B)) == "(A + B)"
    assert print_ftype(FPos(A, B)) == "Pos<A, B>"
    assert print_ftype(Arrow(A, B)) == "A -> B"


def test_print_terms():
    assert print_fterm(flam("x", A, FVar("x"))) == "fun (x : A) -> x"
    assert print_fterm(tylam("c", FVar("x"))) == "tfun c -> x"
    assert print_fterm(TyApp(FVar("x"), A)) == "x [A]"


# The printers against the layout as it was (testlib.print_f_by_patterns), which
# asks every type node for its sugar and matches each node against class patterns.

def test_printers_match_the_pattern_layout_on_hand_cases():
    cases = {
        ZERO: "0", ONE: "1",
        times(TBound(0), A): "forall r. (r -> A -> r) -> r",  # a component under the binder
        plus(A, TBound(0)): "forall r. (A -> r) -> (r -> r) -> r",
        Arrow(Arrow(A, B), A): "(A -> B) -> A",
        Arrow(times(A, B), Arrow(ZERO, B)): "(A * B) -> 0 -> B",
        FPos(A, FNeg(B, A)): "Pos<A, Neg<B, A>>",
        TyLam(FLam(TBound(0), TyLam(FLam(TBound(1), FApp(FBound(1), FBound(0)), "x"), "a"),
                   "x"), "a"): "tfun a -> fun (x : a) -> tfun a2 -> fun (x2 : a) -> x x2",
        TyApp(FApp(FLam(ONE, FBound(0), "u"), TRIV), times(A, B)):
            "(fun (u : 1) -> u) (tfun a -> fun (x : a) -> x) [(A * B)]",
    }
    for t, text in cases.items():
        assert (print_ftype(t) if isinstance(t, FType) else print_fterm(t)) == text
        assert print_f_by_patterns(t) == text
    under_env = {
        (Arrow(TBound(0), TBound(1)), ("a", "b")): "a -> b",
        (Forall(Arrow(TBound(0), TBound(1)), "a"), ("a",)): "forall a2. a2 -> a",
        (times(TBound(1), TBound(2)), ("r", "s")): "(r * s)",
        (plus(TBound(1), TBound(0)), ("r",)): "forall r2. (r -> r2) -> (r2 -> r2) -> r2",
    }
    for (t, env), text in under_env.items():
        assert print_ftype(t, env) == print_f_by_patterns(t, env) == text


# -- the pruned walks ---------------------------------------------------------------
# Shift, substitution and closing skip every subtree whose cached summary
# shows they cannot change it.  The reference below walks every node over
# the tree shape and knows nothing of the summaries.

def _ref_map(t, leaf, depth):
    """Replace every leaf u of t by leaf(u, d); an int depth walks a type, a
    (term, type) pair a term, whose type fields are leaves."""
    if isinstance(depth, int):
        kids, under = ftype_children(t), FTYPE_BINDERS.get(type(t))
        deeper = [depth + k for k in under] if under else [depth] * len(kids)
        rebuild = ftype_rebuild
    else:
        kids, under = fterm_children(t), FTERM_BINDERS.get(type(t))
        deeper = [(depth[0] + k[0], depth[1] + k[1]) for k in under] if under \
            else [depth] * len(kids)
        rebuild = fterm_rebuild
    if not kids:
        return leaf(t, depth)
    return rebuild(t, [_ref_map(c, leaf, d) for c, d in zip(kids, deeper)])


def _ref_shift_type(t, amount, cutoff=0):
    def leaf(u, c):
        if isinstance(u, TBound) and u.index >= c:
            if u.index + amount < c:
                raise ValueError("dangling")
            return TBound(u.index + amount)
        return u
    return _ref_map(t, leaf, cutoff)


def _ref_subst_type(t, j, s, depth=0):
    def leaf(u, d):
        if isinstance(u, TBound) and u.index == j + d:
            return _ref_shift_type(s, d)
        return TBound(u.index - 1) if isinstance(u, TBound) and u.index > j + d else u
    return _ref_map(t, leaf, depth)


def _ref_close_type(t, name, depth=0):
    def leaf(u, d):
        if isinstance(u, TVar):
            return TBound(d) if u.name == name else u
        return TBound(u.index + 1) if u.index >= d else u
    return _ref_map(t, leaf, depth)


def _ref_shift_fterm(t, d_term, d_type, c_term=0, c_type=0):
    def leaf(u, c):
        if isinstance(u, FBound):
            return FBound(u.index + d_term) if u.index >= c[0] else u
        return _ref_shift_type(u, d_type, c[1]) if isinstance(u, FType) else u
    return _ref_map(t, leaf, (c_term, c_type))


def _ref_subst_fterm(t, j, s):
    def leaf(u, d):
        if isinstance(u, FBound) and u.index == j + d[0]:
            return _ref_shift_fterm(s, d[0], d[1])
        return FBound(u.index - 1) if isinstance(u, FBound) and u.index > j + d[0] else u
    return _ref_map(t, leaf, (0, 0))


def _ref_subst_type_in_fterm(t, j, a):
    return _ref_map(t, lambda u, d: _ref_subst_type(u, j, a, d[1])
                    if isinstance(u, FType) else u, (0, 0))


def _ref_close_fterm(t, name, depth=0):
    def leaf(u, d):
        if isinstance(u, FVar):
            return FBound(d[0]) if u.name == name else u
        return FBound(u.index + 1) if isinstance(u, FBound) and u.index >= d[0] else u
    return _ref_map(t, leaf, (depth, 0))


def _ref_close_tyvar_in_fterm(t, name, depth=0):
    return _ref_map(t, lambda u, d: _ref_close_type(u, name, d[1])
                    if isinstance(u, FType) else u, (0, depth))


def _scan(t):
    """t's summary by brute force: every free index and name in the tree."""
    ty_b, ty_n, tm_b, tm_n = [0], set(), [0], set()

    def visit_type(u, d):
        if isinstance(u, TBound) and u.index >= d:
            ty_b[0] = max(ty_b[0], u.index - d + 1)
        if isinstance(u, TVar):
            ty_n.add(u.name)

    def visit_term(u, d):
        if isinstance(u, FType):
            ftype_fold(u, visit_type, d[1])
        if isinstance(u, FBound) and u.index >= d[0]:
            tm_b[0] = max(tm_b[0], u.index - d[0] + 1)
        if isinstance(u, FVar):
            tm_n.add(u.name)

    if isinstance(t, FType):
        ftype_fold(t, visit_type)
    else:
        fterm_fold(t, visit_term)
    return ty_b[0], frozenset(ty_n), tm_b[0], frozenset(tm_n)


def _random_type(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return TBound(rng.randrange(4)) if rng.random() < 0.5 else TVar(rng.choice("ab"))
    kind = rng.randrange(4)
    if kind == 3:
        return Forall(_random_type(rng, depth - 1), hint=rng.choice("rs"))
    return (Arrow, FPos, FNeg)[kind](_random_type(rng, depth - 1), _random_type(rng, depth - 1))


def _random_fterm(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return FBound(rng.randrange(4)) if rng.random() < 0.5 else FVar(rng.choice("xy"))
    kind = rng.randrange(4)
    if kind == 0:
        return FLam(_random_type(rng, 2), _random_fterm(rng, depth - 1), hint=rng.choice("uv"))
    if kind == 1:
        return FApp(_random_fterm(rng, depth - 1), _random_fterm(rng, depth - 1))
    if kind == 2:
        return TyLam(_random_fterm(rng, depth - 1), hint=rng.choice("rs"))
    return TyApp(_random_fterm(rng, depth - 1), _random_type(rng, 2))


def _same(lib, ref):
    """Equal answers, or the same error; hints compared too."""
    try:
        want = repr(ref())
    except ValueError:
        with pytest.raises(ValueError):
            lib()
        return
    assert repr(lib()) == want


def _assert_type_walks(t, s, cutoffs=range(5), names="abc"):
    for c in cutoffs:
        for amount in (-1, 1, 2):
            _same(lambda: shift_type(t, amount, c), lambda: _ref_shift_type(t, amount, c))
        for j in (0, 1):
            _same(lambda: subst_type(t, j, s, c), lambda: _ref_subst_type(t, j, s, c))
        for name in names:
            _same(lambda: close_type(t, name, c), lambda: _ref_close_type(t, name, c))


def _assert_term_walks(t, s, a, cutoffs=range(5), names="xyz", tyvars="abc"):
    for c in cutoffs:
        for d_term, d_type in ((1, 0), (0, 1), (2, 1)):
            _same(lambda: shift_fterm(t, d_term, d_type, c, c),
                  lambda: _ref_shift_fterm(t, d_term, d_type, c, c))
            _same(lambda: shift_fterm(t, d_term, d_type, c, 0),
                  lambda: _ref_shift_fterm(t, d_term, d_type, c, 0))
        _same(lambda: subst_fterm(t, c, s), lambda: _ref_subst_fterm(t, c, s))
        _same(lambda: subst_type_in_fterm(t, c, a), lambda: _ref_subst_type_in_fterm(t, c, a))
        for name in names:
            _same(lambda: close_fterm(t, name, c), lambda: _ref_close_fterm(t, name, c))
        for name in tyvars:
            _same(lambda: close_tyvar_in_fterm(t, name, c),
                  lambda: _ref_close_tyvar_in_fterm(t, name, c))


def _assert_summaries(t):
    terms = [t] if isinstance(t, FType) else preorder(fterm_fold, t)
    for u in terms:
        for v in preorder(ftype_fold, u) if isinstance(u, FType) else [u]:
            assert v.free == _scan(v)


def test_pruned_walks_match_reference_on_random_open_trees(rng):
    for _ in range(150):
        t, s = _random_type(rng, 4), _random_type(rng, 2)
        _assert_summaries(t)
        _assert_type_walks(t, s)
        ft, fs = _random_fterm(rng, 4), _random_fterm(rng, 2)
        _assert_summaries(ft)
        _assert_term_walks(ft, fs, s)


def test_pruned_walks_match_reference_on_translations(term_gen, rng):
    fterms = []
    for depth in (1, 2):
        lem = mk_lem(term_gen.props.pure(depth), rng.choice("+-"))
        fterms.append(translate_term(infer_type(Context(), lem)))
    for _ in range(6):
        ctx = term_gen.classical_context()
        goal = term_gen.props.mprop(2)
        fterms.append(translate_term(check_type(ctx, term_gen.sized_term(ctx, goal, 3,
                                                                         max_size=16), goal)))
    s, a = _random_fterm(rng, 2), _random_type(rng, 2)
    for ft in fterms:
        _assert_summaries(ft)
        nodes = preorder(fterm_fold, ft)
        bodies = [ft] + [u.body for u in nodes if isinstance(u, (FLam, TyLam))]
        for b in bodies:
            _assert_term_walks(b, s, a, cutoffs=(0, 1), names="xyz", tyvars="ab")
        fields = {u for u in nodes if isinstance(u, FType)}
        foralls = {v for u in fields for v in preorder(ftype_fold, u) if isinstance(v, Forall)}
        for t in fields | {v.body for v in foralls}:
            _assert_type_walks(t, a, cutoffs=(0, 1), names="ab")


# -- the translation is linear --------------------------------------------------------

def _lem_chain(k):
    a = PVar("abc"[(k - 1) % 3])
    for i in range(k - 2, -1, -1):
        a = And(PVar("abc"[i % 3]), a)
    return mk_lem(a, "+"), MProp(Or(a, Neg(a)), Mode("c", "+"))


def _translate_and_check(k):
    lem, goal = _lem_chain(k)
    inferred = f_infer((), translate_term(infer_type(Context(), lem)))
    return ftype_equiv(inferred, translate_prop(goal))


def _shape_calls(k, budget):
    """Calls to ftype_children and fterm_children while translating and
    re-checking the k-conjunct LEM; stops with a failure past the budget."""
    translate_prop.cache_clear()
    funabs.cache_clear()
    shapes = {ftype_children.__code__, fterm_children.__code__}
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in shapes:
            calls += 1
            assert calls <= budget, f"{k} conjuncts take more than {budget} shape calls"

    sys.setprofile(count)
    try:
        assert _translate_and_check(k)
    finally:
        sys.setprofile(None)
    return calls


def test_translation_walks_linearly():
    # the tree of T(A^c+) doubles with each conjunct; the walks must not
    small = _shape_calls(4, budget=10 ** 6)
    _shape_calls(8, budget=3 * small)


def test_translation_of_32_conjuncts():
    assert _translate_and_check(32)


# -- printing is linear in the depth of binders -------------------------------------

def _neg_chain(n):
    """The translation of n nege-/negi- pairs: n nested binders, all hinted u."""
    t = FVar("x")
    for _ in range(n):
        t = FApp(FLam(ONE, t, hint="u"), TRIV)
    return t


def _printed_lines(n):
    """The Python lines print_fterm runs on _neg_chain(n)."""
    text, lines = lines_run(print_fterm, _neg_chain(n))
    assert text.startswith("(fun (u : 1) -> (fun (u2 : 1) -> ") and f"(u{n} : 1) -> x)" in text
    return lines


def test_printing_deep_binders_is_linear():
    assert _printed_lines(200) <= 2.2 * _printed_lines(100)
    assert print_fterm(_neg_chain(20_000)).count("fun (u") == 20_000


# -- typing is linear in the depth of binders ----------------------------------------

def _inferred_lines(n):
    """The Python lines f_infer runs on _neg_chain(n)."""
    ty, lines = lines_run(f_infer, (("x", A),), _neg_chain(n))
    assert ty == A
    return lines


def test_typing_deep_binders_is_linear():
    assert _inferred_lines(200) <= 2.2 * _inferred_lines(100)


# -- typing against an environment matches typing by opening binders ------------------

def _ref_f_infer(ctx, t):
    """The reference for f_infer: it opens each FLam and TyLam body by
    substituting a fresh named variable, then closes the type it infers."""
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
            return Arrow(annot, _ref_f_infer(ctx + ((x, annot),), subst_fterm(body, 0, FVar(x))))
        case FApp(fun, arg):
            tf = _ref_f_infer(ctx, fun)
            match tf:
                case Arrow(dom, cod):
                    pass
                case FPos(a, b):
                    dom, cod = FNeg(a, b), a
                case FNeg(a, b):
                    dom, cod = FPos(a, b), b
                case _:
                    raise NotAnArrowError(f"expected a function type, found {print_ftype(tf)}")
            ta = _ref_f_infer(ctx, arg)
            if not ftype_equiv(ta, dom):
                raise DomainMismatchError(
                    f"argument type {print_ftype(ta)} does not match domain {print_ftype(dom)}")
            return cod
        case TyLam(body, hint):
            taken = body.free[1].union(*(ftype_vars(ty) for _, ty in ctx))
            beta = fresh_name(hint or "a", taken)
            inner = _ref_f_infer(ctx, subst_type_in_fterm(body, 0, TVar(beta)))
            return Forall(close_type(inner, beta), hint=beta)
        case TyApp(fun, ty):
            tf = _ref_f_infer(ctx, fun)
            if not isinstance(tf, Forall):
                raise NotAForallError(f"expected a polymorphic type, found {print_ftype(tf)}")
            return subst_type(tf.body, 0, ty)
    raise TypeError(t)


def _typings(ctx, t):
    """(type, printed type) or (error class, message) from f_infer and from
    the reference."""
    def run(infer):
        try:
            ty = infer(ctx, t)
        except TypingError as e:
            return type(e), str(e)
        return ty, print_ftype(ty)

    return run(f_infer), run(_ref_f_infer)


def _assert_same_typing(ctx, t):
    got, want = _typings(ctx, t)
    assert got == want
    return got


def _translate_workload_ops(seed):
    """Every operation of one block of the translate benchmark at a seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import Translate
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return Translate(str(ROOT), str(ROOT)).generate(random.Random(seed), 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_f_infer_matches_reference_on_translate_workload(seed):
    ops = _translate_workload_ops(seed)
    assert len(ops) > 60 and {op.kind for op in ops} == {"lem", "term"}
    for op in ops:
        d = infer_type(op.data["ctx"], op.data["term"])
        ty, _ = _assert_same_typing(translate_ctx(op.data["ctx"]), translate_term(d))
        assert ftype_equiv(ty, translate_prop(d.conclusion))


@pytest.mark.parametrize("seed", [1, 2])
def test_printers_match_the_pattern_layout_on_translate_workload(seed):
    for op in _translate_workload_ops(seed):
        d = infer_type(op.data["ctx"], op.data["term"])
        ft, fctx = translate_term(d), translate_ctx(op.data["ctx"])
        assert print_fterm(ft) == print_f_by_patterns(ft)
        for ty in (f_infer(fctx, ft), translate_prop(d.conclusion), *(ty for _, ty in fctx)):
            assert print_ftype(ty) == print_f_by_patterns(ty)


def test_f_infer_matches_reference_on_lem_and_golden():
    from prk.cli import parse_judgment
    judgments = [parse_judgment((ROOT / "golden" / "lem.prk").read_text())]
    for k in range(1, 9):
        _, goal = _lem_chain(k)
        judgments += [(Context(), mk_lem(goal.base.left, sign)) for sign in "+-"]
    for ctx, t in judgments:
        d = infer_type(ctx, t)
        ty, _ = _assert_same_typing(translate_ctx(ctx), translate_term(d))
        assert ftype_equiv(ty, translate_prop(d.conclusion))


vr, va, vb = TVar("r"), TVar("a"), TVar("b")


# (context, term, printed type): nested type binders whose hints clash with
# each other, with the context's type names, and with the term's
WELL_TYPED = [
    ((), TyLam(TyLam(FLam(TBound(1), FLam(TBound(0), FBound(1), hint="y")), hint="r"), hint="r"),
     "forall r. forall r2. r -> r2 -> r"),
    ((), TyLam(TyLam(FLam(TBound(0), FLam(TBound(0), FBound(0))), hint="r"), hint="r"),
     "forall r. forall r2. r2 -> r2 -> r2"),
    ((("x", vr),), TyLam(FLam(TBound(0), FVar("x")), hint="r"), "forall r2. r2 -> r"),
    ((), TyLam(FLam(TBound(0), TyLam(FLam(TBound(0), FBound(1), hint="y"), hint="b")), hint="a"),
     "forall a. a -> forall b. b -> a"),
    ((("x", vr),), pair_f(FVar("x"), FVar("x"), vr, vr), "(r * r)"),
    ((("x", vr),), TyApp(TyLam(FLam(TBound(0), FBound(0)), hint="r"), vr), "r -> r"),
    ((("y", va),), TyLam(FApp(FLam(ONE, FLam(TBound(0), FVar("y"))), TRIV), hint="a"),
     "forall a2. a2 -> a"),
    ((("y", va),), in_f(1, TRIV, ONE, va), "(1 + a)"),
    ((("y", va),), TyLam(FApp(FLam(Arrow(va, ONE), FBound(0)), FLam(va, TRIV)), hint="a"),
     "forall a2. a -> 1"),
    ((("f", Forall(Arrow(TBound(0), vb), hint="b")),), TyLam(FVar("f"), hint="b"),
     "forall b2. forall b3. b3 -> b"),
    ((("f", Forall(Arrow(TBound(0), vb), hint="b")),), TyApp(FVar("f"), vb), "b -> b"),
    ((("x", va), ("x", vb)), TyLam(FLam(TBound(0), FVar("x")), hint="b"), "forall b2. b2 -> b"),
    ((("g", FPos(va, TBound(0))),), TyLam(FLam(TBound(0), FVar("g")), hint="a"),
     "forall a2. a2 -> Pos<a, #1>"),
]

# (context, term, error class, message)
ILL_TYPED = [
    ((), FBound(0), TypingError, "dangling bound variable #0"),
    ((), FLam(va, FLam(vb, FBound(3))), TypingError, "dangling bound variable #1"),
    ((), TyLam(FLam(TBound(0), TyLam(FBound(2)))), TypingError, "dangling bound variable #1"),
    ((), TyLam(FVar("z")), UnboundVariableError, "unbound variable 'z'"),
    ((), TyLam(FLam(TBound(0), FApp(FLam(Arrow(TBound(0), TBound(0)), FBound(0)), FBound(0))),
               hint="c"),
     DomainMismatchError, "argument type c does not match domain c -> c"),
    ((), TyLam(TyLam(FLam(TBound(1), FApp(FLam(TBound(0), FBound(0)), FBound(0))), hint="d"),
               hint="c"),
     DomainMismatchError, "argument type c does not match domain d"),
    ((), TyLam(FLam(TBound(0), FApp(FLam(Forall(Arrow(TBound(0), TBound(1)), hint="c"),
                                         FBound(0)), FBound(0))), hint="c"),
     DomainMismatchError, "argument type c does not match domain forall c2. c2 -> c"),
    ((("y", Arrow(va, va)),), FApp(flam("x", FPos(va, vb), FVar("x")), FVar("y")),
     DomainMismatchError, "argument type a -> a does not match domain Pos<a, b>"),
    ((), TyLam(FLam(TBound(0), FApp(FBound(0), FBound(0))), hint="c"),
     NotAnArrowError, "expected a function type, found c"),
    ((("x", vr),), TyLam(FLam(TBound(0), FApp(FBound(0), FVar("x"))), hint="r"),
     NotAnArrowError, "expected a function type, found r2"),
    ((), TyLam(FLam(TBound(0), FApp(FLam(vr, FBound(0)), FBound(0))), hint="r"),
     DomainMismatchError, "argument type r2 does not match domain r"),
    ((), TyLam(TyLam(FLam(TBound(1), FLam(TBound(0), FApp(FBound(0), FBound(1)))), hint="r"),
               hint="r"),
     NotAnArrowError, "expected a function type, found r2"),
    ((), TyLam(FLam(TBound(0), TyApp(FBound(0), va)), hint="c"),
     NotAForallError, "expected a polymorphic type, found c"),
]


@pytest.mark.parametrize("ctx, t, printed", WELL_TYPED)
def test_f_infer_matches_reference_on_clashing_hints(ctx, t, printed):
    assert _assert_same_typing(ctx, t)[1] == printed


@pytest.mark.parametrize("ctx, t, error, message", ILL_TYPED)
def test_f_infer_errors_match_reference(ctx, t, error, message):
    assert _assert_same_typing(ctx, t) == (error, message)


# (context, term, text, the reference's text): the only differences.  A TyLam's
# type keeps the term's hint, which the printer renames only away from the names
# that the type shows, where the reference renamed it away from every name of
# the context and the term.  An error names the open type variables apart from
# each other, where the reference left an inner r named r if its body did not
# mention the outer one.
RENAMED = [
    ((("x", vr),), TyLam(FLam(TBound(0), FLam(TBound(0), FBound(1))), hint="r"),
     "forall r. r -> r -> r", "forall r2. r2 -> r2 -> r2"),
    ((("x", va),), TyLam(TyLam(FLam(TBound(0), FApp(FBound(0), FVar("x"))), hint="r"), hint="r"),
     "expected a function type, found r2", "expected a function type, found r"),
]


@pytest.mark.parametrize("ctx, t, text, reference", RENAMED)
def test_f_infer_differs_from_reference_only_in_names(ctx, t, text, reference):
    got, want = _typings(ctx, t)
    assert got[0] == want[0]  # the same type, hints aside, or the same error class
    assert (got[1], want[1]) == (text, reference)


# -- differential: translation by rule name --------------------------------------

def ref_translate_term(d):
    """The translation as it was when each rule was matched by its name."""
    from prk.syntax import CLASSICAL
    from prk.systemf import case_f
    t = d.subject
    match d.rule:
        case "Ax":
            return FVar(t.name)
        case "Abs":
            dl, dr = d.premises
            return FApp(FApp(funabs(dl.conclusion, d.conclusion),
                             ref_translate_term(dl)), ref_translate_term(dr))
        case "IAnd+" | "IOr-":
            dl, dr = d.premises
            return pair_f(ref_translate_term(dl), ref_translate_term(dr),
                          translate_prop(dl.conclusion), translate_prop(dr.conclusion))
        case "EAnd+" | "EOr-":
            (db,) = d.premises
            p = db.conclusion
            ta = translate_prop(MProp(p.base.left, Mode(CLASSICAL, p.sign)))
            tb = translate_prop(MProp(p.base.right, Mode(CLASSICAL, p.sign)))
            return proj_f(t.index, ref_translate_term(db), ta, tb)
        case "IOr+" | "IAnd-":
            (db,) = d.premises
            concl = d.conclusion
            ta = translate_prop(MProp(concl.base.left, Mode(CLASSICAL, concl.sign)))
            tb = translate_prop(MProp(concl.base.right, Mode(CLASSICAL, concl.sign)))
            return in_f(t.index, ref_translate_term(db), ta, tb)
        case "EOr+" | "EAnd-":
            dsc, d1, d2 = d.premises
            f1 = flam(d1.ctx.entries[-1][0], translate_prop(t.annot1), ref_translate_term(d1))
            f2 = flam(d2.ctx.entries[-1][0], translate_prop(t.annot2), ref_translate_term(d2))
            return case_f(ref_translate_term(dsc), f1, f2, translate_prop(d.conclusion))
        case "INeg+" | "INeg-":
            (db,) = d.premises
            body = ref_translate_term(db)
            return flam(fresh_name("u", set(fterm_fv(body))), ONE, body)
        case "ENeg+" | "ENeg-":
            (db,) = d.premises
            return FApp(ref_translate_term(db), TRIV)
        case "IC+" | "IC-":
            (db,) = d.premises
            return flam(db.ctx.entries[-1][0], translate_prop(t.annot), ref_translate_term(db))
        case "EC+" | "EC-":
            df, da = d.premises
            return FApp(ref_translate_term(df), ref_translate_term(da))
    raise AssertionError(d.rule)


def test_translation_matches_the_rule_name_reference():
    from prk.gen import TermGen, provable_library
    derivations = [check_type(ctx, t, goal) for ctx, goal, t in provable_library()]
    for seed in range(8):
        gen = TermGen(random.Random(seed))
        for _ in range(30):
            ctx = gen.base_context()
            goal = gen.props.mprop(2)
            derivations.append(check_type(ctx, gen.sized_term(ctx, goal, 4, max_size=40), goal))
    for d in derivations:
        translated, reference = translate_term(d), ref_translate_term(d)
        assert translated == reference
        assert print_fterm(translated) == print_fterm(reference)


# -- reduction against the recursive reference ------------------------------------------

def _reference_derivations():
    """The provable library and the 240 TermGen derivations that the
    rule-name reference test draws."""
    from prk.gen import TermGen, provable_library
    derivations = [check_type(ctx, t, goal) for ctx, goal, t in provable_library()]
    for seed in range(8):
        gen = TermGen(random.Random(seed))
        for _ in range(30):
            ctx = gen.base_context()
            goal = gen.props.mprop(2)
            derivations.append(check_type(ctx, gen.sized_term(ctx, goal, 4, max_size=40), goal))
    return derivations


# -- the translation with indices in place against the named one that closed each binder ----

def _ref_halves(p):
    c = Mode(CLASSICAL, p.sign)
    return translate_prop(MProp(p.base.left, c)), translate_prop(MProp(p.base.right, c))


def _named_translate(d, fs):
    """The translation of d from fs, its premises' named translations, as it was:
    a variable stays a name until flam closes its binder over it."""
    from prk.syntax import Abs, CApp, Case, CLam, Inj, NegE, NegI, Pair, Proj, Var
    match d.subject:
        case Var(name):
            return FVar(name)
        case Abs():
            funabs_f = _two_arm_funabs(d.premises[0].conclusion, d.conclusion)
            return FApp(FApp(funabs_f, fs[0]), fs[1])
        case Pair():
            return pair_f(*fs, *_ref_halves(d.conclusion))
        case Proj(_, index):
            return proj_f(index, *fs, *_ref_halves(d.premises[0].conclusion))
        case Inj(_, index):
            return in_f(index, *fs, *_ref_halves(d.conclusion))
        case Case(_, _, annot1, _, annot2, _):
            (_, d1, d2), (fsc, fb1, fb2) = d.premises, fs
            return case_f(fsc, flam(d1.ctx.entries[-1][0], translate_prop(annot1), fb1),
                          flam(d2.ctx.entries[-1][0], translate_prop(annot2), fb2),
                          translate_prop(d.conclusion))
        case NegI():
            return flam(fresh_name("u", set(fterm_fv(fs[0]))), ONE, fs[0])
        case NegE():
            return FApp(fs[0], TRIV)
        case CLam(_, annot):
            return flam(d.premises[0].ctx.entries[-1][0], translate_prop(annot), fs[0])
        case CApp():
            return FApp(*fs)
    raise AssertionError(d.rule)


def _named_translate_term(d):
    """translate_term as it was: bottom-up, each node after its premises."""
    import operator
    from prk.syntax import make_map
    walk = make_map(operator.attrgetter("premises"), _named_translate, {})
    return walk(d, lambda u, _: _named_translate(u, []))


def _hints(t):
    """The hints of t's term and type binders, in pre-order: what == does not compare."""
    return [u.hint for u in preorder(fterm_fold, t) if isinstance(u, (FLam, TyLam))]


def _negi_under_u():
    """A derivation whose negi body uses the enclosing clam's binder, named u: the
    negi's own binder must be named apart from it, u2."""
    ctx = Context.of(("s", parse_mprop("~a^c+")), ("r", parse_mprop("~a^s+")))
    d = infer_type(ctx, parse_term("clam+(u : ~a^c-. negi+(abs[a^c-](capp-(u, s), r)))"))
    assert d.premises[0].ctx.entries[-1][0] == "u"
    return d


def _scrutinee_rebinds_x():
    """A derivation whose case scrutinee binds x one binder deeper than the first
    branch does, and is translated before that branch."""
    ctx = Context.of(("z", parse_mprop("a^c+")), ("s", parse_mprop("(a | b)^c-")))
    d = infer_type(ctx, parse_term("case+(capp+(clam+(u : (a | b)^c-. capp+(clam+("
                                   "x : (a | b)^c-. in1+(z)), u)), s), x : a^c+. x, y : b^c+. z)"))
    assert d.premises[1].ctx.entries[-1][0] == "x"
    return d


def test_translation_with_indices_in_place_matches_the_named_one():
    derivations = _reference_derivations() + [_scrutinee_rebinds_x(), _negi_under_u()]
    assert len(derivations) > 240
    for d in derivations:
        translated, reference = translate_term(d), _named_translate_term(d)
        assert translated == reference
        assert print_fterm(translated) == print_fterm(reference)
        assert _hints(translated) == _hints(reference)
    assert _hints(translate_term(derivations[-1]))[:2] == ["u", "u2"]


def test_translation_walks_no_binder_to_close_or_shift_it(monkeypatch):
    from prk import systemf
    derivations = _reference_derivations() + [_scrutinee_rebinds_x(), _negi_under_u()]
    expected = [_named_translate_term(d) for d in derivations]

    def forbidden(*args, **kwargs):
        raise AssertionError("the translation walked a binder to close or shift it")

    # the closing functions moved to testlib; set here too, any call from systemf would raise
    for name in ("close_fterm", "close_tyvar_in_fterm", "shift_fterm"):
        monkeypatch.setattr(systemf, name, forbidden, raising=False)
    funabs.cache_clear()
    translate_prop.cache_clear()
    assert [translate_term(d) for d in derivations] == expected


def test_f_steps_match_the_recursive_reference():
    compared = 0
    for d in _reference_derivations():
        t = translate_term(d)
        for _ in range(3):  # the translation and the first two terms on its leftmost path
            steps = list(ref_f_reducts(t))
            assert f_step(t) == next(iter(steps), None)
            compared += len(steps)
            if not steps:
                break
            t = steps[0]
    assert compared > 1000


def test_f_normalize_under_10_000_binders():
    assert sys.getrecursionlimit() <= 10_000
    t = FApp(flam("x", A, FVar("x")), FVar("s"))
    for _ in range(10_000):
        t = FLam(ONE, t, hint="u")
    nf = f_normalize(t)
    for _ in range(10_000):
        assert type(nf) is FLam
        nf = nf.body
    assert nf == FVar("s")


def test_f_step_under_100_000_binders():
    assert sys.getrecursionlimit() <= 10_000
    t = FApp(flam("x", A, FVar("x")), FVar("s"))
    for _ in range(100_000):
        t = FLam(ONE, t, hint="u")
    new = f_step(t)
    for _ in range(100_000):
        assert type(new) is FLam
        new = new.body
    assert new == FVar("s")


def test_an_f_step_at_a_root_redex_matches_once(monkeypatch):
    # the walk contracts the root's redex and stops: one match, whatever the chain's length
    from prk import systemf
    t = FVar("x")
    for _ in range(50_000):
        t = FApp(FLam(ONE, t, hint="u"), TRIV)
    calls = count_calls(monkeypatch, systemf, "f_match_redex")
    assert f_step(t) is t.fun.body and calls == [1]


# -- normalization on the resuming walk against the recursive reference ----------------------

def _ref_f_normalize(t):
    """The reference: the first recursive reduct until there is none; (normal form, contractions)."""
    steps = 0
    while (nxt := next(ref_f_reducts(t), None)) is not None:
        t, steps = nxt, steps + 1
    return t, steps


def _assert_normalizes_like_the_step_loop(t):
    nf, steps = _ref_f_normalize(t)
    assert f_normalize(t, fuel=steps) == nf
    if steps:
        with pytest.raises(FuelExhaustedError):
            f_normalize(t, fuel=steps - 1)
    return steps


def test_f_normalize_matches_the_step_loop():
    fterms = [translate_term(d) for d in _reference_derivations()]
    fterms += [translate_term(infer_type(Context(), _lem_chain(k)[0])) for k in range(1, 7)]
    steps = [_assert_normalizes_like_the_step_loop(t) for t in fterms]
    assert len(steps) > 240 and sum(steps) > 1000


def test_f_normalize_is_linear():
    # n binders over n nested redexes; restarting from the root after each
    # contraction made this quadratic
    assert sys.getrecursionlimit() <= 10_000
    n = 2_000
    t = FVar("x")
    for _ in range(n):
        t = FApp(FLam(A, FBound(0), hint="y"), t)
    for _ in range(n):
        t = FLam(ONE, t, hint="u")
    start = time.perf_counter()
    nf = f_normalize(t, fuel=n)
    assert time.perf_counter() - start < 0.5
    for _ in range(n):
        assert type(nf) is FLam
        nf = nf.body
    assert nf == FVar("x")


# -- the translation takes any depth -------------------------------------------------------

def _neg_pairs(n):
    """A hand-built derivation of x : a^c- |- nege+(negi+(...x)) : a^c-, n pairs."""
    from prk.syntax import NegE, NegI, Var
    a_cm, neg_a = parse_mprop("a^c-"), parse_mprop("~a^s+")
    ctx = Context.of(("x", a_cm))
    d = Derivation("Ax", ctx, Var("x"), a_cm)
    for _ in range(n):
        d = Derivation("INeg+", ctx, NegI("+", d.subject), neg_a, (d,))
        d = Derivation("ENeg+", ctx, NegE("+", d.subject), a_cm, (d,))
    return d


def test_translate_term_takes_any_depth():
    assert sys.getrecursionlimit() <= 10_000
    d = _neg_pairs(3)
    assert check_type(d.ctx, d.subject, d.conclusion) == d  # as typing builds it
    n = 50_000
    t = translate_term(_neg_pairs(n))
    for _ in range(n):
        assert type(t) is FApp and t.arg is TRIV
        assert type(t.fun) is FLam and t.fun.annot == ONE and t.fun.hint == "u"
        t = t.fun.body
    assert t == FVar("x")


# -- type equivalence on a worklist against the recursive reference -------------------------

def _ref_ftype_equiv(a, b):
    """ftype_equiv as it was, recursive."""
    from prk import systemf
    assumed = set()

    def go(a, b):
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
                return go(systemf.unfold_constraint(a), b)
            case (_, FPos(_, _) | FNeg(_, _)):
                return go(a, systemf.unfold_constraint(b))
            case (Arrow(d1, c1), Arrow(d2, c2)):
                return go(d1, d2) and go(c1, c2)
            case (Forall(b1, _), Forall(b2, _)):
                return go(b1, b2)
            case _:
                return False

    return go(a, b)


def test_ftype_equiv_matches_the_recursive_reference(prop_gen, monkeypatch):
    from prk import systemf
    unfoldings = 0
    unfold = systemf.unfold_constraint

    def counting(t):
        nonlocal unfoldings
        unfoldings += 1
        return unfold(t)

    monkeypatch.setattr(systemf, "unfold_constraint", counting)
    types = [translate_prop(MProp(prop_gen.pure(2), m)) for _ in range(16) for m in MODES]
    pairs = [(a, b) for a in types for b in types]
    for t in types:
        for u in preorder(ftype_fold, t):
            if isinstance(u, (FPos, FNeg)):
                pairs += [(u, unfold(u)), (t, unfold(u)), (unfold(u), t)]
    for d in _reference_derivations()[:120]:
        inferred = f_infer(translate_ctx(d.ctx), translate_term(d))
        pairs += [(inferred, translate_prop(d.conclusion)),
                  (inferred, translate_prop(opposite(d.conclusion)))]
    assert len(pairs) >= 2_000
    verdicts = []
    for a, b in pairs:
        unfoldings = 0
        verdicts.append(ftype_equiv(a, b))
        mine, unfoldings = unfoldings, 0
        assert _ref_ftype_equiv(a, b) == verdicts[-1] and unfoldings == mine
    assert True in verdicts and False in verdicts


# -- head steps down the application spine against the recursive reference ------------------

def _ref_f_head_step(t):
    """f_head_step as it was, recursive."""
    red = f_match_redex(t)
    if red is not None:
        return red
    if isinstance(t, (FApp, TyApp)):
        h = _ref_f_head_step(t.fun)
        return None if h is None else fterm_rebuild(t, (h, fterm_children(t)[1]))
    return None


def _simulation_sources():
    """The translations whose head chains the simulation tests walk."""
    judgments = [
        (Context.of(("s", parse_mprop("a^c-")), ("u", parse_mprop("a^s+"))),
         "capp+(clam+(x : a^c-. u), s)"),
        (Context.of(("u", parse_mprop("a^c-")),), "nege+(negi+(u))"),
        (Context.of(("t1", parse_mprop("a^c+")), ("t2", parse_mprop("b^c+")),
                    ("s", parse_mprop("a^c-"))), "abs[c^s+](pair+(t1, t2), in1-(s))"),
        (Context.of(("t", parse_mprop("a^c-")), ("s", parse_mprop("a^c+"))),
         "abs[c^s+](negi+(t), negi-(s))"),
    ]
    sources = [translate_term(infer_type(ctx, parse_term(text))) for ctx, text in judgments]
    return sources + [translate_term(d) for d in _reference_derivations()]


def test_f_head_step_matches_the_recursive_reference():
    heads = 0
    for t in _simulation_sources():
        for _ in range(50):
            nxt = f_head_step(t)
            assert nxt == _ref_f_head_step(t)
            if nxt is None:
                break
            t, heads = nxt, heads + 1
    assert heads > 300


def test_f_head_step_down_a_deep_spine():
    assert sys.getrecursionlimit() <= 10_000
    n = 100_000
    t = FApp(flam("x", A, FVar("x")), FVar("s"))
    for i in range(n):
        t = TyApp(t, A) if i % 2 else FApp(t, FVar("y"))
    t = f_head_step(t)
    for i in reversed(range(n)):
        assert type(t) is (TyApp if i % 2 else FApp)
        t = t.fun
    assert t == FVar("s") and f_head_step(FApp(FVar("s"), FVar("y"))) is None

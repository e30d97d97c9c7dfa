import dataclasses
import random
import sys
import time
import tracemalloc

import pytest

from prk import rewrite
from prk.errors import DerivationMismatchError, FuelExhaustedError
from prk.gen import TermGen, TypedEnumerator
from prk.rewrite import ETA, PLAIN, RULES, classify, is_neutral, is_normal, match_redex, normalize, step
from prk.surface import parse_mprop, parse_term
from prk.syntax import (Abs, Bound, CApp, CLam, Case, Inj, NegE, NegI, Pair,
                        Proj, PVar, Var, children, flip, subterms)
from prk.typecheck import Context, check_type, infer_type
from testlib import (apply_at, binder_names_at, count_calls, ref_match_redex, ref_redexes,
                     ref_replace, ref_step, replay, subterm_at)


def t_(src):
    return parse_term(src)


# -- single steps -------------------------------------------------------------

def test_proj_step():
    rule, pos, new = step(t_("proj1+(pair+(x, y))"))
    assert (rule, pos, new) == ("proj", (), Var("x"))
    rule, _, new = step(t_("proj2-(pair-(x, y))"))
    assert (rule, new) == ("proj", Var("y"))


def test_neg_step():
    rule, pos, new = step(t_("nege+(negi+(z))"))
    assert (rule, pos, new) == ("neg", (), Var("z"))


def test_case_step_substitutes():
    rule, _, new = step(t_("case+(in2+(u), x : a^c+. x, y : b^c+. pair+(y, y))"))
    assert rule == "case"
    assert new == t_("pair+(u, u)")


def test_beta_step():
    rule, _, new = step(t_("capp+(clam+(x : a^c-. x), s)"))
    assert rule == "beta" and new == Var("s")


def test_abs_neg_chain():
    # the worked example: absNeg then two betas
    start = t_("abs[q^s+](negi-(clam+(x : a^c-. capp+(u, x))), "
               "negi+(clam-(y : a^c+. capp-(v, y))))")
    nf, trace = normalize(start)
    assert [s.rule for s in trace] == ["absNeg", "beta", "beta"]
    assert nf == t_("abs[q^s+](capp+(u, clam-(y : a^c+. capp-(v, y))), "
                    "capp-(v, clam+(x : a^c-. capp+(u, x))))")


def test_abs_pair_inj_steps():
    rule, _, new = step(t_("abs[q^s+](pair+(t1, t2), in2-(s))"))
    assert rule == "absPairInj"
    assert new == t_("abs[q^s+](capp+(t2, s), capp-(s, t2))")
    rule, _, new = step(t_("abs[q^s+](in1+(t), pair-(s1, s2))"))
    assert rule == "absInjPair"
    assert new == t_("abs[q^s+](capp+(t, s1), capp-(s1, t))")
    rule, _, new = step(t_("abs[q^s+](in1-(t), pair+(s1, s2))"))
    assert rule == "absInjPair"
    assert new == t_("abs[q^s+](capp-(t, s1), capp+(s1, t))")


def test_sign_mismatch_is_not_a_redex():
    assert step(t_("proj1+(pair-(x, y))")) is None
    assert step(t_("capp+(clam-(x : a^c+. x), s)")) is None


def test_eta_only_in_eta_mode():
    t = t_("clam+(x : a^c-. capp+(u, x))")
    assert step(t, PLAIN) is None
    rule, _, new = step(t, ETA)
    assert rule == "eta" and new == Var("u")


def test_eta_requires_fresh_binder():
    t = t_("clam+(x : a^c-. capp+(x, x))")
    assert step(t, ETA) is None


# -- normalization -------------------------------------------------------------

def test_normalize_beta():
    nf, trace = normalize(t_("capp+(clam+(x : a^c-. x), s)"))
    assert nf == Var("s") and len(trace) == 1


def test_normalize_eta_mode():
    nf, _ = normalize(t_("clam+(x : a^c-. capp+(u, x))"), mode=ETA)
    assert nf == Var("u")


def test_normalize_already_normal():
    t = t_("pair+(x, y)")
    nf, trace = normalize(t)
    assert nf == t and trace == ()


def test_fuel_exhaustion_signalled():
    # self-application is untypable and loops; the fuel bound must fire
    omega_half = t_("clam+(x : a^c-. capp+(x, x))")
    looping = parse_term("capp+(clam+(x : a^c-. capp+(x, x)), "
                         "clam+(x : a^c-. capp+(x, x)))")
    with pytest.raises(FuelExhaustedError):
        normalize(looping, fuel=50)
    assert omega_half is not None


def chain(family, n):
    """nege-(negi-(...x)) or proj1+(pair+(..., y)): n redexes, all at the root."""
    t = Var("x")
    for _ in range(n):
        t = NegE("-", NegI("-", t)) if family == "neg" else Proj("+", 1, Pair("+", t, Var("y")))
    return t


def test_fuel_counts_contractions():
    # fuel n allows n contractions; it runs out only if a redex remains
    for n in (1, 2, 5):
        nf, trace = normalize(chain("neg", n), fuel=n)
        assert nf == Var("x") and len(trace) == n
        if n > 1:
            with pytest.raises(FuelExhaustedError, match=f"within {n - 1} steps"):
                normalize(chain("neg", n), fuel=n - 1)


def test_f_fuel_counts_contractions():
    # as for normalize: fuel k allows k contractions, and a normal term
    # needs none, whatever the fuel
    from prk.systemf import ONE, TRIV, FApp, FLam, FVar, f_normalize
    for k in (1, 2, 5):
        t = FVar("x")
        for _ in range(k):
            t = FApp(FLam(ONE, t, hint="u"), TRIV)
        assert f_normalize(t, fuel=k) == FVar("x")
        with pytest.raises(FuelExhaustedError, match=f"no F normal form within {k - 1} steps"):
            f_normalize(t, fuel=k - 1)
    for fuel in (0, -1):
        assert f_normalize(FVar("x"), fuel=fuel) == FVar("x")


def test_trace_order_outer_before_inner():
    # the case reduct puts the outer proj over a pair holding an inner proj
    t = t_("proj1+(case+(in1+(u), x : a^c+. pair+(x, proj1+(pair+(v, w))), "
           "y : b^c+. pair+(y, y)))")
    nf, trace = normalize(t)
    assert [(s.position, s.rule) for s in trace] == [((0,), "case"), ((), "proj")]
    assert nf == Var("u")


def test_trace_order_eta_enclosing_clam():
    # contracting inside the function drops its use of x, making the clam an eta redex
    t = t_("clam+(x : a^c-. capp+(proj1+(pair+(u, x)), x))")
    nf, trace = normalize(t, ETA)
    assert [(s.position, s.rule) for s in trace] == [((0, 0), "proj"), ((), "eta")]
    assert nf == Var("u")
    # here the parent becomes a neg redex too, but the outer clam comes first
    t = t_("clam+(x : a^c-. capp+(nege+(proj1+(pair+(negi+(u), x))), x))")
    nf, trace = normalize(t, ETA)
    assert [(s.position, s.rule) for s in trace] == \
        [((0, 0, 0), "proj"), ((), "eta"), ((), "neg")]
    assert nf == Var("u")
    # the clam's body is not capp(..., #0) until the neg step two levels below it
    t = t_("clam+(x : a^c-. capp+(y, nege-(negi-(x))))")
    nf, trace = normalize(t, ETA)
    assert [(s.position, s.rule) for s in trace] == [((0, 1), "neg"), ((), "eta")]
    assert nf == Var("y")


@pytest.mark.parametrize("family", ["neg", "proj"])
def test_deep_chain_at_default_recursion_limit(family):
    assert sys.getrecursionlimit() <= 10_000
    nf, trace = normalize(chain(family, 50_000))
    assert nf == Var("x") and len(trace) == 50_000


def test_redexes_and_steps_at_any_depth():
    # a neg redex at the root and one under 12,000 negi- nodes
    assert sys.getrecursionlimit() <= 10_000
    t = NegE("+", NegI("+", Var("x")))
    for _ in range(12_000):
        t = NegI("-", t)
    t, deep = NegE("-", t), (0,) * 12_000
    assert step(t)[:2] == ("neg", ())
    rule, pos, new = step(t.body)  # under the root, the deep redex is the first
    assert (rule, pos) == ("neg", deep) and subterm_at(new, deep) == Var("x")


def test_beta_and_case_substitute_into_deep_bodies():
    # the contraction's substitution walks the whole body
    assert sys.getrecursionlimit() <= 10_000
    p = parse_mprop("a^c-")
    body = Bound(0)
    for _ in range(10_000):
        body = NegE("-", NegI("-", body))
    nf, trace = normalize(CApp("+", CLam("+", p, body), Var("u")))
    assert nf == Var("u") and len(trace) == 10_001
    t = Var("w")
    for _ in range(1_000):  # case, pair, case, ...: 2,000 constructors deep
        t = Case("+", Inj("+", 1, Var("v")), p, Pair("+", Bound(0), t), p, Bound(0))
    nf, trace = normalize(t)
    assert len(trace) == 1_000
    for _ in range(1_000):
        assert type(nf) is Pair and nf.left == Var("v")
        nf = nf.right
    assert nf == Var("w")


@pytest.mark.parametrize("family", ["neg", "proj"])
def test_normalize_matches_linearly(family, monkeypatch):
    calls = count_calls(monkeypatch, rewrite, "match_redex")
    normalize(chain(family, 100))
    small, calls[0] = calls[0], 0
    normalize(chain(family, 3200))
    assert calls[0] <= 40 * small


def _step_loop(t, mode, strategy="lo"):
    """The reference walk: repeat ref_step until it stops; (normal form, trace)."""
    trace = []
    while (nxt := ref_step(t, mode, strategy)) is not None:
        rule, pos, new = nxt
        trace.append((pos, rule, subterm_at(t, pos), subterm_at(new, pos)))
        t = new
    return t, trace


def _assert_walk_matches_step_loop(t):
    for mode in (PLAIN, ETA):
        nf, trace = normalize(t, mode)
        assert (nf, [(s.position, s.rule, s.redex, s.reduct) for s in trace]) == \
            _step_loop(t, mode)


@pytest.mark.parametrize("context", ["base", "classical"])
def test_walk_matches_step_loop_on_corpora(term_gen, rng, context):
    make_ctx = term_gen.base_context if context == "base" else term_gen.classical_context
    peaks = 0
    for _ in range(750):  # c02, c03 and c04 draw their terms so, 500 + 250 in all
        t = term_gen.sized_term(make_ctx(), term_gen.props.mprop(2), 4)
        _assert_walk_matches_step_loop(t)
        redexes = ref_redexes(t)
        if len(redexes) >= 2 and peaks < 200:
            for pos, _ in rng.sample(redexes, 2):
                _assert_walk_matches_step_loop(apply_at(t, pos)[1])
            peaks += 1
    assert peaks > 20


def test_walk_matches_step_loop_on_exhaustive_terms():
    for ctx in (Context.of(("x", parse_mprop("a^s+")), ("y", parse_mprop("a^s-"))),
                Context.of(("x", parse_mprop("a^c+")), ("y", parse_mprop("a^c-")))):
        for t in TypedEnumerator(ctx, (PVar("a"), PVar("b"))).terms(7):
            _assert_walk_matches_step_loop(t)


def test_trace_replays(term_gen):
    named = 0
    for _ in range(40):
        ctx = term_gen.base_context()
        t = term_gen.sized_term(ctx, term_gen.props.mprop(2), 4)
        nf, trace = normalize(t)
        assert replay(t, trace) == nf
        for mode in (PLAIN, ETA):
            current = t  # each step names the binders over its position in the term before it
            for entry in normalize(t, mode)[1]:
                assert entry.names == binder_names_at(current, entry.position), (t, mode)
                named += bool(entry.names)
                current = replay(current, (entry,))
    assert named > 0


def _binder_family(n):
    """n nege-(negi-(...)) pairs over x, under n clam+(x_i : a^c-. capp+(y, ...)): every
    redex sits 2n constructors deep, under n named binders."""
    t, p = Var("x"), parse_mprop("a^c-")
    for _ in range(n):
        t = NegE("-", NegI("-", t))
    for i in range(n):
        t = CLam("+", p, CApp("+", Var("y"), t), hint=f"x{i}")
    return t


def _bytes_kept_by_normalize(t):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = normalize(t)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(result[1]) > 0
    return kept


def test_a_trace_keeps_the_walks_path_in_linear_memory():
    # a step keeps the walk's path to its redex; steps that copied their position and names
    # kept about 24 MB at 1,000 pairs and 97 MB at 2,000, x4.0 per doubling
    small = _bytes_kept_by_normalize(_binder_family(1_000))
    large = _bytes_kept_by_normalize(_binder_family(2_000))
    assert small <= 2_000_000 and large <= 2.5 * small, (small, large)


def test_positions_and_names_read_the_same_every_time():
    t = _binder_family(20)
    _, trace = normalize(t)
    first = [(s.position, s.names) for s in trace]
    assert first == [(s.position, s.names) for s in trace]
    normalize(t)
    normalize(t, ETA)
    assert first == [(s.position, s.names) for s in trace]
    assert first[0] == ((0, 1) * 20, tuple(f"x{i}" for i in range(20)))


def test_strategy_independence(term_gen):
    for _ in range(60):
        ctx = term_gen.base_context()
        t = term_gen.sized_term(ctx, term_gen.props.mprop(2), 4)
        lo, _ = normalize(t)
        ri, _ = _step_loop(t, PLAIN, "ri")
        assert lo == ri


def test_eta_mode_confluence(term_gen, rng):
    # the classical computation rules compare eta-normal forms, which is
    # only meaningful because the extended calculus is confluent
    peaks = 0
    for _ in range(400):
        ctx = term_gen.base_context()
        t = term_gen.sized_term(ctx, term_gen.props.mprop(2), 4)
        redexes = ref_redexes(t, ETA)
        if len(redexes) < 2:
            continue
        p1, p2 = rng.sample(redexes, 2)
        left = apply_at(t, p1[0], ETA)[1]
        right = apply_at(t, p2[0], ETA)[1]
        assert normalize(left, ETA)[0] == normalize(right, ETA)[0]
        assert normalize(t, ETA)[0] == _step_loop(t, ETA, "ri")[0]
        peaks += 1
        if peaks >= 80:
            break
    assert peaks >= 40


# -- classification -------------------------------------------------------------

def test_classify_normal_neutral_not_canonical():
    ctx = Context.of(("x", parse_mprop("a^s+")), ("y", parse_mprop("a^s-")))
    t = t_("abs[a^s+](abs[b^s+](x, y), abs[b^s-](x, y))")
    d = infer_type(ctx, t)
    report = classify(t, d)
    assert report.normal and report.neutral and not report.canonical
    # the context is strong, so no canonicity clause applies
    assert report.clause is None


def test_classify_pair_canonical():
    report = classify(t_("pair+(x, y)"))
    assert report.normal and report.canonical and not report.neutral


def test_classify_redex_not_normal():
    report = classify(t_("proj1+(pair+(x, y))"))
    assert not report.normal


def test_classify_derivation_mismatch():
    d = infer_type(Context.of(("x", parse_mprop("a^c+"))), Var("x"))
    with pytest.raises(DerivationMismatchError):
        classify(Var("y"), d)


def test_classify_clause_three_shapes(term_gen):
    from prk.syntax import Mode, MProp
    for _ in range(40):
        ctx = term_gen.classical_context()
        goal = term_gen.props.mprop(2)
        goal = MProp(goal.base, Mode("c", goal.sign))
        t = term_gen.sized_term(ctx, goal, 3)
        nf, _ = normalize(t)
        d = check_type(ctx, nf, goal)
        report = classify(nf, d)
        assert report.clause == 3
        assert report.clause_shape in ("clam", "elim-variable", "elim-explosion")


def test_grammar_vs_step_on_random_corpus(term_gen):
    for _ in range(150):
        ctx = term_gen.base_context()
        t = term_gen.sized_term(ctx, term_gen.props.mprop(2), 4)
        nf, _ = normalize(t)
        assert is_normal(nf)
        assert classify(nf).normal
        assert (step(t) is None) == is_normal(t)


def test_neutral_terms_are_open(term_gen):
    # a neutral term always has at least one free variable
    from prk.syntax import fv
    for _ in range(80):
        ctx = term_gen.base_context()
        t = term_gen.sized_term(ctx, term_gen.props.mprop(2), 3)
        if is_neutral(t):
            assert fv(t)


# -- the grammar and the redex walk against recursive references ---------------

def ref_is_neutral(t):
    """The grammar as a top-down recursion: the reference for is_neutral."""
    match t:
        case Var(_) | Bound(_):
            return True
        case Proj(_, _, b) | NegE(_, b):
            return ref_is_neutral(b)
        case Case(_, s, _, b1, _, b2):
            return ref_is_neutral(s) and ref_is_normal(b1) and ref_is_normal(b2)
        case CApp(_, f, a):
            return ref_is_neutral(f) and ref_is_normal(a)
        case Abs(_, l, r):
            return (ref_is_neutral(l) and ref_is_normal(r)) or (
                ref_is_normal(l) and ref_is_neutral(r))
        case _:
            return False


def ref_is_normal(t):
    match t:
        case Pair(_, l, r):
            return ref_is_normal(l) and ref_is_normal(r)
        case Inj(_, _, b) | NegI(_, b) | CLam(_, _, b):
            return ref_is_normal(b)
        case _:
            return ref_is_neutral(t)


def _positions(t, pos=()):
    yield pos
    for i, kid in enumerate(children(t)):
        yield from _positions(kid, pos + (i,))


def _mutate(t, names, rng):
    """t with one node changed: replaced by a variable, by another subterm or
    by an injection of itself, or with its sign or index flipped."""
    others = list(subterms(t))
    pos = rng.choice(list(_positions(t)))

    def change(u):
        options = [lambda: Var(rng.choice(names)), lambda: rng.choice(others),
                   lambda: Inj(rng.choice("+-"), rng.choice((1, 2)), u)]
        if hasattr(u, "sign"):
            options.append(lambda: dataclasses.replace(u, sign=flip(u.sign)))
        if isinstance(u, (Proj, Inj)):
            options.append(lambda: dataclasses.replace(u, index=3 - u.index))
        return rng.choice(options)()

    return ref_replace(t, pos, change(subterm_at(t, pos)))


C05_CONTEXTS = (Context.of(("x", parse_mprop("a^s+")), ("y", parse_mprop("a^s-"))),
                Context.of(("x", parse_mprop("a^c+")), ("y", parse_mprop("a^c-"))))


def _abs_nest(n):
    """n nested abs[a^s+](..., proj1+(pair+(y, z))) over x: each right side is a redex."""
    t = Var("x")
    for _ in range(n):
        t = Abs(parse_mprop("a^s+"), t, t_("proj1+(pair+(y, z))"))
    return t


def _generated_corpus():
    """Seeded TermGen terms, each as it is, mutated once and mutated twice."""
    rng = random.Random(13)
    terms = []
    for seed in range(10):
        gen = TermGen(random.Random(seed))
        for k in range(30):
            ctx = gen.base_context() if k % 2 else gen.classical_context()
            t = gen.sized_term(ctx, gen.props.mprop(2), 4)
            names = [n for n, _ in ctx] + ["nowhere"]
            once = _mutate(t, names, rng)
            terms += [t, once, _mutate(once, names, rng)]
    return terms


def _assert_matches_references(t):
    normal, neutral = ref_is_normal(t), ref_is_neutral(t)
    assert (is_normal(t), is_neutral(t)) == (normal, neutral)
    report = classify(t)
    assert (report.normal, report.neutral) == (normal, neutral)
    for mode in (PLAIN, ETA):
        assert step(t, mode) == ref_step(t, mode)


def test_grammar_and_steps_match_the_references_exhaustively():
    total = 0
    for ctx in C05_CONTEXTS:
        for t in TypedEnumerator(ctx, (PVar("a"), PVar("b"))).terms(7):
            _assert_matches_references(t)
            total += 1
    assert total > 10_000


def test_match_redex_matches_the_class_patterns_exhaustively():
    # the dispatch on the node's class against the class patterns it replaced, at every node
    rules = set()
    for ctx in C05_CONTEXTS:
        for t in TypedEnumerator(ctx, (PVar("a"), PVar("b"))).terms(7):
            for u in subterms(t):
                for mode in (PLAIN, ETA):
                    m = match_redex(u, mode)
                    assert m == ref_match_redex(u, mode), (u, mode)
                    rules.add(m and m[0])
    assert rules == {None, *RULES}


def test_grammar_and_steps_match_the_references_on_generated_terms():
    corpus = _generated_corpus() + [_abs_nest(n) for n in range(1, 13)]
    for t in corpus:
        _assert_matches_references(t)
    # the corpus holds normal and non-normal terms, and neutral ones beyond variables
    assert {ref_is_normal(t) for t in corpus} == {True, False}
    assert any(ref_is_neutral(t) and not isinstance(t, (Var, Bound)) for t in corpus)


# -- walks that take any depth, in time linear in the term ---------------------------

@pytest.mark.parametrize("levels", [20, 200])
def test_classify_judges_an_abs_nest_in_linear_time(levels):
    # the recursive grammar judged each left side twice, 2^levels calls
    t = _abs_nest(levels)
    start = time.perf_counter()
    report = classify(t)
    assert time.perf_counter() - start < 0.5
    assert not (report.normal or report.neutral or report.canonical)


def test_grammar_judges_a_deep_negi_nest():
    assert sys.getrecursionlimit() <= 10_000
    t = Var("x")
    for _ in range(100_000):
        t = NegI("+", t)
    assert is_normal(t) and not is_neutral(t)
    report = classify(t)
    assert report.normal and report.canonical and not report.neutral


def test_leftmost_step_stops_at_the_first_redex():
    # every position of the chain is a redex; "lo" contracts the root's at once
    t = chain("neg", 3_000)
    start = time.perf_counter()
    rule, pos, new = step(t)
    assert time.perf_counter() - start < 0.05
    assert (rule, pos) == ("neg", ()) and new is t.body.body


def test_step_on_a_chain_of_100_000_constructors(monkeypatch):
    # the walk contracts the root's redex and stops: one match, whatever the chain's length
    assert sys.getrecursionlimit() <= 10_000
    t = chain("neg", 50_000)
    calls = count_calls(monkeypatch, rewrite, "match_redex")
    rule, pos, new = step(t)
    assert rule == "neg"
    assert pos == () and new is t.body.body
    assert calls == [1]

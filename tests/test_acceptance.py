"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  All checks are exact (alpha-equality of terms / booleans); the
random corpora are seeded through PRK_SEED."""

import functools
import itertools
import random
import sys

import pytest

from prk.classical import decide_oplus, run_classical_rule
from prk.gen import (PropGen, TermGen, TypedEnumerator, all_pure_props,
                     provable_library, seed_from_env)
from prk.kripke import (counter_model_lem, enumerate_models, entails_in_model,
                        forces, validate_model)
from prk.rewrite import ETA, PLAIN, classify, is_normal, normalize, step
from prk.surface import parse_mprop, parse_term
from prk.syntax import (And, MProp, Mode, Neg, Or, PVar, Var, fv, opposite,
                        term_size)
from prk.systemf import (check_simulation, f_infer, ftype_equiv,
                         translate_ctx, translate_prop, translate_term)
from prk.typecheck import Context, check_type, infer_type, mk_lem
from testlib import above_by_scan, apply_at, ref_redexes


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {title}", file=sys.stderr)
                raise
            print(f"criterion {number:2d} PASS  {title}")
        return wrapper
    return decorate


@pytest.fixture
def rng():
    return random.Random(seed_from_env())


@pytest.fixture
def term_gen(rng):
    return TermGen(rng)


@criterion(1, "lemP/lemN well-typedness on 50 random propositions")
def test_c01_lem_well_typed(rng):
    gen = PropGen(rng, atoms=("a", "b", "c"))
    for _ in range(50):
        base = gen.pure(4)
        d = infer_type(Context(), mk_lem(base, "+"))
        assert d.conclusion == MProp(Or(base, Neg(base)), Mode("c", "+"))
        d = infer_type(Context(), mk_lem(base, "-"))
        assert d.conclusion == MProp(And(base, Neg(base)), Mode("c", "-"))


@criterion(2, "subject reduction on 500 generated typed terms")
def test_c02_subject_reduction(term_gen):
    steps_checked = 0
    for _ in range(500):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.sized_term(ctx, goal, 4)
        check_type(ctx, t, goal)
        current = t
        while True:
            nxt = step(current)
            if nxt is None:
                break
            current = nxt[2]
            assert check_type(ctx, current, goal).conclusion == goal
            steps_checked += 1
    assert steps_checked > 200


@criterion(3, "strong normalization proxy: fuel 10^5 suffices in both calculi")
def test_c03_strong_normalization(term_gen):
    for _ in range(250):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.sized_term(ctx, goal, 4, max_size=40)
        assert term_size(t) <= 40
        nf_plain, _ = normalize(t, PLAIN, fuel=100_000)
        nf_eta, _ = normalize(t, ETA, fuel=100_000)
        assert step(nf_plain, PLAIN) is None
        assert step(nf_eta, ETA) is None


@criterion(4, "confluence on 200 random two-redex peaks")
def test_c04_confluence(term_gen, rng):
    peaks = 0
    attempts = 0
    while peaks < 200 and attempts < 4000:
        attempts += 1
        ctx = term_gen.base_context()
        t = term_gen.sized_term(ctx, term_gen.props.mprop(2), 4)
        redexes = ref_redexes(t)
        if len(redexes) < 2:
            continue
        p1, p2 = rng.sample(redexes, 2)
        left = apply_at(t, p1[0])[1]
        right = apply_at(t, p2[0])[1]
        assert normalize(left)[0] == normalize(right)[0]
        peaks += 1
    assert peaks == 200


@criterion(5, "normal-form grammar equals irreducibility, exhaustively to size 7")
def test_c05_normal_form_grammar():
    contexts = [
        Context.of(("x", parse_mprop("a^s+")), ("y", parse_mprop("a^s-"))),
        Context.of(("x", parse_mprop("a^c+")), ("y", parse_mprop("a^c-"))),
    ]
    total = 0
    for ctx in contexts:
        enum = TypedEnumerator(ctx, (PVar("a"), PVar("b")))
        terms = enum.terms(7)
        for t in terms:
            assert is_normal(t) == (not ref_redexes(t))
        total += len(terms)
    assert total > 10_000


@criterion(6, "canonicity of closed normal forms and clause 2 shapes")
def test_c06_canonicity(term_gen, rng):
    from prk.classical import embed_nk
    from tests.test_classical import _random_nk

    # clause 1: closed typable terms normalize to canonical terms
    gen = PropGen(rng)
    closed = [mk_lem(gen.pure(3), rng.choice("+-")) for _ in range(10)]
    closed += [entry[2] for entry in provable_library() if not entry[0].entries]
    for _ in range(15):
        proof = _random_nk(rng, gen, (), 3)
        closed.append(embed_nk(proof))
    assert len(closed) >= 25
    for t in closed:
        assert not fv(t)
        d = infer_type(Context(), t)
        nf, _ = normalize(t)
        dn = check_type(Context(), nf, d.conclusion)
        report = classify(nf, dn)
        assert report.clause == 1
        assert report.canonical and report.clause_shape == "canonical"

    # clause 2: classical context, strong type
    for _ in range(60):
        ctx = term_gen.classical_context()
        goal = term_gen.props.mprop(2)
        goal = MProp(goal.base, Mode("s", goal.sign))
        t = term_gen.sized_term(ctx, goal, 3)
        nf, _ = normalize(t)
        dn = check_type(ctx, nf, goal)
        report = classify(nf, dn)
        assert report.clause == 2
        assert report.clause_shape in ("canonical", "case-explosion")


@criterion(7, "one-step simulation in System F for 100 reduction steps")
def test_c07_simulation(term_gen, rng):
    # seed with one instance of every rewrite rule, then sample
    seeds = [
        ("proj1+(pair+(p_a, clam+(v : b^c-. capp+(p_b, v))))", None),
        ("case+(in1+(p_a), v : a^c+. v, w : b^c+. p_a)", None),
        ("nege+(negi+(n_a))", None),
        ("capp+(clam+(v : a^c-. capp+(p_a, v)), n_a)", None),
        ("abs[c^s+](pair+(p_a, p_b), in1-(n_a))", None),
        ("abs[c^s+](in1+(p_a), pair-(n_a, n_b))", None),
        ("abs[c^s+](negi+(n_a), negi-(p_a))", None),
    ]
    ctx = Context.of(("p_a", parse_mprop("a^c+")), ("n_a", parse_mprop("a^c-")),
                     ("p_b", parse_mprop("b^c+")), ("n_b", parse_mprop("b^c-")))
    checked = 0
    for src, _ in seeds:
        t = parse_term(src)
        d = infer_type(ctx, t)
        rule, pos, s = step(t)
        assert check_simulation(t, s, d, depth=25), rule
        assert ftype_equiv(f_infer(translate_ctx(ctx), translate_term(d)),
                           translate_prop(d.conclusion))
        checked += 1
    attempts = 0
    while checked < 100 and attempts < 2500:
        attempts += 1
        gctx = term_gen.base_context(extra=1)
        goal = term_gen.props.mprop(2)
        t = term_gen.sized_term(gctx, goal, 3, max_size=16)
        redexes = ref_redexes(t)
        if not redexes:
            continue
        pos, rule = rng.choice(redexes)
        s = apply_at(t, pos)[1]
        d = check_type(gctx, t, goal)
        assert check_simulation(t, s, d, depth=25), (rule, pos)
        checked += 1
    assert checked == 100


@criterion(8, "golden three-world model: validates and decides excluded middle")
def test_c08_kripke_golden():
    m = counter_model_lem()
    assert validate_model(m).valid
    assert not forces(m, "w0", parse_mprop("(a | ~a)^s+"))
    assert forces(m, "w0", parse_mprop("(a | ~a)^c+"))


@criterion(9, "forcing laws hold exhaustively on all small models")
def test_c09_forcing_laws():
    models = enumerate_models(("a",), 3)
    assert len(models) > 10
    props = [MProp(base, Mode(st, sg))
             for base in all_pure_props(("a",), 2)
             for st in "sc" for sg in "+-"]
    for m in models:
        order = m.order()
        for w in m.worlds:
            ups = above_by_scan(m, w)
            for p in props:
                holds = forces(m, w, p)
                # monotonicity
                if holds:
                    for v in ups:
                        assert forces(m, v, p)
                # non-contradiction
                if holds:
                    assert not forces(m, w, opposite(p))
                # stabilization
                assert any(forces(m, v, p) != forces(m, v, opposite(p))
                           for v in ups)
            # rule of classical forcing
            for base in all_pure_props(("a",), 2):
                for sign, strong_sign in (("+", "+"), ("-", "-")):
                    classical = MProp(base, Mode("c", sign))
                    strong = MProp(base, Mode("s", strong_sign))
                    lhs = forces(m, w, classical)
                    rhs = all(forces(m, v, strong) for v in ups
                              if forces(m, v, opposite(classical)))
                    assert lhs == rhs


@criterion(10, "the 20-judgment provable library is forced in every model")
def test_c10_soundness_spot_check():
    library = provable_library()
    assert len(library) == 20
    for ctx, goal, term in library:
        assert check_type(ctx, term, goal).conclusion == goal
    models = enumerate_models(("a", "b"), 3)
    for ctx, goal, _term in library:
        hyps = [p for _, p in ctx]
        for m in models:
            assert entails_in_model(m, hyps, goal)


@criterion(11, "fragment decision agrees with an independent truth-table oracle")
def test_c11_fragment_decision():
    def oracle_eval(prop, valuation):
        # independent evaluator, deliberately separate from the library's
        match prop:
            case PVar(name):
                return valuation[name]
            case And(l, r):
                return oracle_eval(l, valuation) and oracle_eval(r, valuation)
            case Or(l, r):
                return oracle_eval(l, valuation) or oracle_eval(r, valuation)
            case Neg(inner):
                return not oracle_eval(inner, valuation)
        raise TypeError(prop)

    def oracle_entails(hyps, goal):
        for bits in itertools.product((False, True), repeat=2):
            valuation = {"a": bits[0], "b": bits[1]}
            if all(oracle_eval(h, valuation) for h in hyps) and \
                    not oracle_eval(goal, valuation):
                return False
        return True

    props = all_pure_props(("a", "b"), 2)
    assert len(props) == 12
    cp = Mode("c", "+")
    sequents = 0
    for k in range(0, 4):
        for hyps in itertools.product(props, repeat=k):
            for goal in props:
                got = decide_oplus([MProp(h, cp) for h in hyps], MProp(goal, cp))
                want = oracle_entails(list(hyps), goal)
                assert got == want, (hyps, goal)
                sequents += 1
    assert sequents == (1 + 12 + 144 + 1728) * 12


@criterion(12, "all four classical computation rules hold as alpha-equalities")
def test_c12_classical_rules():
    a, b = PVar("a"), PVar("b")
    chk = run_classical_rule("proj", i=1, t1=Var("t1"), t2=Var("t2"), a=a, b=b)
    assert chk.holds and chk.redex_normal == Var("t1")
    chk = run_classical_rule("proj", i=2, t1=Var("t1"), t2=Var("t2"), a=a, b=b)
    assert chk.holds and chk.redex_normal == Var("t2")
    chk = run_classical_rule("case", i=1, t=Var("t"), x="x", s1=Var("x"),
                             s2=Var("v"), a=a, b=b, c=a)
    assert chk.holds and chk.redex_normal == Var("t")
    chk = run_classical_rule("app", x="x", t=Var("x"), s=Var("s"), a=a, b=a)
    assert chk.holds and chk.redex_normal == Var("s")
    # the LEM rule keeps the blocked s1* witness: drive the second branch
    # with the bound hypothesis so s1* survives into the normal form
    from prk.classical import lem_case_reduct
    from prk.surface import print_term
    chk = run_classical_rule("lem", a=a, x="x", s1=Var("u"), s2=Var("x"),
                             c=Neg(a))
    assert chk.holds
    assert chk.stated == lem_case_reduct(a, "x", Var("u"), Var("x"), Neg(a))
    assert "negi+" in print_term(chk.redex_normal)


@criterion(13, "eta steps can be postponed after other steps")
def test_c13_eta_postponement(term_gen, rng):
    def eta_closure(t, limit=400):
        seen = {t}
        frontier = [t]
        while frontier and len(seen) < limit:
            nxt = []
            for u in frontier:
                for pos, rule in ref_redexes(u, ETA):
                    if rule != "eta":
                        continue
                    v = apply_at(u, pos, ETA)[1]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    checked = 0
    attempts = 0
    while checked < 100 and attempts < 4000:
        attempts += 1
        ctx = term_gen.base_context()
        t = term_gen.sized_term(ctx, term_gen.props.mprop(2), 4)
        etas = [(pos, rule) for pos, rule in ref_redexes(t, ETA) if rule == "eta"]
        if not etas:
            continue
        pos = rng.choice(etas)[0]
        s = apply_at(t, pos, ETA)[1]
        non_eta = [(p, r) for p, r in ref_redexes(s, ETA) if r != "eta"]
        if not non_eta:
            continue
        rpos = rng.choice(non_eta)[0]
        u = apply_at(s, rpos, PLAIN)[1]
        # search for t ->r+ s' ->eta* u with at most three r-steps
        frontier = {t}
        found = False
        for _ in range(3):
            nxt = set()
            for w in frontier:
                for p, r in ref_redexes(w, PLAIN):
                    w2 = apply_at(w, p, PLAIN)[1]
                    nxt.add(w2)
            if any(u in eta_closure(w2) for w2 in nxt):
                found = True
                break
            frontier = nxt
        assert found
        checked += 1
    assert checked == 100


@criterion(14, "the subformula-property counterexample behaves as recorded")
def test_c14_subformula_regression():
    ctx = Context.of(("x", parse_mprop("a^s+")), ("y", parse_mprop("a^s-")))
    t = parse_term("abs[a^s+](abs[b^s+](x, y), abs[b^s-](x, y))")
    d = infer_type(ctx, t)
    assert d.conclusion == parse_mprop("a^s+")
    report = classify(t, d)
    assert report.normal
    mentioned = set()

    def collect(node):
        mentioned.add(node.conclusion)
        for premise in node.premises:
            collect(premise)

    collect(d)
    assert parse_mprop("b^s+") in mentioned
    assert parse_mprop("b^s-") in mentioned
    assert "b" not in str(d.conclusion)

import itertools
import os
import random
import re
import subprocess
import sys
import timeit
from pathlib import Path

import pytest

import prk
from prk.classical import (FALSITY, FALSITY_VAR, NKProof, appc, casec, classem,
                           decide_oplus, embed_nk, explosionc, implies, inic,
                           lamc, lem_case_reduct, lemc, neglamc, negapc,
                           nk_and_e, nk_and_i, nk_context, nk_explosion,
                           nk_hyp, nk_imp_e, nk_imp_i, nk_lem, nk_neg_e,
                           nk_neg_i, nk_or_e, nk_or_i, pairc, parse_nk, projic,
                           run_classical_rule, tt_valid)
from prk.errors import InvalidNKProofError, WrongModeError
from prk.gen import PropGen, all_pure_props
from prk.surface import _parse_base, parse_mprop, print_term
from prk.syntax import (Abs, And, CApp, MProp, Mode, Neg, Or, PVar, Var, clam,
                        fresh_name, prop_vars, substitute)
from prk.typecheck import Context, abs_general_at, infer_type, mk_lem
from testlib import apply_at, ref_redexes

a, b, c = PVar("a"), PVar("b"), PVar("c")
CP = Mode("c", "+")


def cp(base):
    return MProp(base, CP)


# -- classem and truth tables ---------------------------------------------------

def test_classem():
    assert classem(parse_mprop("a^c+")) == a
    assert classem(parse_mprop("a^c-")) == Neg(a)
    assert classem(parse_mprop("a^s-")) == Neg(a)
    assert classem(parse_mprop("a^s+")) == a


def test_tt_valid():
    assert tt_valid([], Or(a, Neg(a)))
    assert tt_valid([a], a)
    assert not tt_valid([], a)
    assert tt_valid([And(a, b)], b)
    assert not tt_valid([Or(a, b)], b)


def _old_eval_prop(a, valuation):
    match a:
        case PVar(name):
            return valuation[name]
        case And(l, r):
            return _old_eval_prop(l, valuation) and _old_eval_prop(r, valuation)
        case Or(l, r):
            return _old_eval_prop(l, valuation) or _old_eval_prop(r, valuation)
        case Neg(inner):
            return not _old_eval_prop(inner, valuation)


def _old_tt_valid(hyps, goal):
    """tt_valid as it was: each proposition evaluated once per row."""
    variables = sorted(set().union(prop_vars(goal), *(prop_vars(h) for h in hyps)))
    for bits in itertools.product((False, True), repeat=len(variables)):
        valuation = dict(zip(variables, bits))
        if all(_old_eval_prop(h, valuation) for h in hyps) and not _old_eval_prop(goal, valuation):
            return False
    return True


def test_tt_valid_gives_the_row_by_row_answers():
    props = all_pure_props(("a", "b"), 2)
    sequents = [([h], g) for h in props for g in props]
    assert len(sequents) == 144
    rng = random.Random(29)
    gen = PropGen(rng, ("a", "b", "c", "d", "e"))
    sequents += [([gen.pure(rng.randint(1, 5)) for _ in range(rng.randint(0, 3))], gen.pure(rng.randint(1, 5)))
                 for _ in range(3000)]
    answers = [tt_valid(hyps, goal) for hyps, goal in sequents]
    assert answers == [_old_tt_valid(hyps, goal) for hyps, goal in sequents]
    assert 0 < sum(answers[144:]) < 3000


def test_tt_valid_past_sixteen_atoms_gives_the_row_by_row_answers():
    # a tautology over 14 atoms that sort first leaves d and e past the 16 atoms
    # that span the rows, so their values come one assignment at a time
    pad = [Or(PVar(f"A{i:02}"), Neg(PVar(f"A{i:02}"))) for i in range(14)]
    rng = random.Random(30)
    gen = PropGen(rng, ("a", "b", "c", "d", "e"))
    checked = set()
    for _ in range(300):
        hyps, goal = [gen.pure(rng.randint(1, 5)) for _ in range(rng.randint(0, 3))], gen.pure(rng.randint(1, 5))
        names = prop_vars(goal).union(*map(prop_vars, hyps))
        answer = tt_valid([*hyps, *pad], goal)
        assert answer == _old_tt_valid(hyps, goal)
        checked.add((answer, len(names & {"d", "e"})))
    assert checked >= {(True, 2), (False, 2)}


def test_a_counterexample_on_the_first_row_ends_a_forty_atom_search():
    # all atoms false refutes |- a0 & … & a39 at once; the 2^24 passes over the
    # atoms past the first 16 would take hours, so a hung search fails here
    code = """if True:
        from functools import reduce
        from prk.classical import tt_valid
        from prk.syntax import And, Neg, PVar
        atoms = [PVar(f"a{i}") for i in range(40)]
        print(tt_valid([], reduce(And, atoms)), tt_valid([], Neg(reduce(And, atoms[:18]))))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(prk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.stdout == "False False\n", out.stderr[-2000:]


def test_decide_oplus_over_twenty_atoms():
    atoms = [PVar(f"a{i}") for i in range(20)]
    conj, disj = atoms[0], atoms[-1]
    for x, y in zip(atoms[1:], atoms[-2::-1]):
        conj, disj = And(conj, x), Or(disj, y)
    assert str(conj) == "(" * 19 + "a0" + "".join(f" & a{i})" for i in range(1, 20))
    assert str(disj) == "(" * 19 + "a19" + "".join(f" | a{i})" for i in range(18, -1, -1))
    assert decide_oplus([cp(conj)], cp(disj))
    assert not decide_oplus([cp(disj)], cp(conj))


def test_decide_oplus():
    assert decide_oplus([], parse_mprop("(a | ~a)^c+"))
    assert decide_oplus([parse_mprop("a^c+")], parse_mprop("a^c+"))
    assert not decide_oplus([], parse_mprop("a^c+"))


def test_decide_oplus_refuses_other_modes():
    with pytest.raises(WrongModeError):
        decide_oplus([parse_mprop("a^s+")], parse_mprop("a^c+"))
    with pytest.raises(WrongModeError):
        decide_oplus([], parse_mprop("a^c-"))


# -- embedding combinators ---------------------------------------------------------

def test_lemc_is_lem():
    assert lemc(a) == mk_lem(a, "+")
    assert infer_type(Context(), lemc(a)).conclusion == cp(Or(a, Neg(a)))


def test_pairc_types():
    ctx = Context.of(("x", cp(a)), ("y", cp(b)))
    t = pairc(Var("x"), Var("y"), a, b)
    assert infer_type(ctx, t).conclusion == cp(And(a, b))


def test_negapc_types():
    ctx = Context.of(("t", cp(Neg(a))), ("s", cp(a)))
    t = negapc(Var("t"), Var("s"), a)
    assert infer_type(ctx, t).conclusion == cp(FALSITY)


def test_explosion_types():
    ctx = Context.of(("t", cp(FALSITY)))
    t = explosionc(parse_mprop("b^c+"), Var("t"))
    assert infer_type(ctx, t).conclusion == cp(b)


def test_embed_examples():
    # LEM
    proof = nk_lem((), a)
    t = embed_nk(proof)
    assert t == lemc(a)
    assert infer_type(Context(), t).conclusion == cp(Or(a, Neg(a)))
    # AndI over two hypotheses
    proof = nk_and_i(nk_hyp((a, b), 0), nk_hyp((a, b), 1))
    t = embed_nk(proof)
    ctx = nk_context(proof)
    assert infer_type(ctx, t).conclusion == cp(And(a, b))
    # NegE concludes falsity
    proof = nk_neg_e(nk_hyp((Neg(a), a), 0), nk_hyp((Neg(a), a), 1))
    t = embed_nk(proof)
    ctx = nk_context(proof)
    assert infer_type(ctx, t).conclusion == cp(FALSITY)


def _random_nk(rng, gen, hyps, depth):
    choices = ["lem"] + (["hyp"] * 2 if hyps else [])
    if depth > 0:
        choices += ["andi", "ande", "ori", "negi", "expl", "impi", "impe", "ore"]
    kind = rng.choice(choices)
    if kind == "hyp":
        return nk_hyp(hyps, rng.randrange(len(hyps)))
    if kind == "lem":
        return nk_lem(hyps, gen.pure(2))
    if kind == "andi":
        return nk_and_i(_random_nk(rng, gen, hyps, depth - 1),
                        _random_nk(rng, gen, hyps, depth - 1))
    if kind == "ande":
        p = nk_and_i(_random_nk(rng, gen, hyps, depth - 1),
                     _random_nk(rng, gen, hyps, depth - 1))
        return nk_and_e(rng.choice((1, 2)), p)
    if kind == "ori":
        return nk_or_i(rng.choice((1, 2)), gen.pure(2),
                       _random_nk(rng, gen, hyps, depth - 1))
    if kind in ("negi", "expl"):
        # bottom is derivable under a hypothesis refuting an excluded middle
        x = gen.pure(1)
        refuted = Neg(Or(x, Neg(x)))
        inner = nk_neg_e(nk_hyp(hyps + (refuted,), len(hyps)),
                         nk_lem(hyps + (refuted,), x))
        if kind == "negi":
            return nk_neg_i(refuted, inner)
        return nk_imp_i(refuted, nk_explosion(gen.pure(2), inner))
    if kind == "impi":
        discharged = gen.pure(2)
        return nk_imp_i(discharged, _random_nk(rng, gen, hyps + (discharged,),
                                               depth - 1))
    if kind == "impe":
        x = gen.pure(1)
        premise = Or(x, Neg(x))
        fun = nk_imp_i(premise, _random_nk(rng, gen, hyps + (premise,), depth - 1))
        return nk_imp_e(fun, nk_lem(hyps, x))
    if kind == "ore":
        x = gen.pure(1)
        scrut = nk_lem(hyps, x)
        target = gen.pure(2)
        q = nk_lem(hyps + (x,), target)
        r = nk_lem(hyps + (Neg(x),), target)
        return nk_or_e(scrut, q, r)
    raise AssertionError(kind)


def test_embed_random_nk(rng):
    from prk.gen import PropGen
    gen = PropGen(rng, atoms=("a", "b"))
    for _ in range(50):
        hyps = tuple(gen.pure(2) for _ in range(rng.randrange(0, 3)))
        proof = _random_nk(rng, gen, hyps, 4)
        term = embed_nk(proof)
        ctx = nk_context(proof)
        d = infer_type(ctx, term)
        assert d.conclusion == cp(proof.conclusion)


# -- computation rules ----------------------------------------------------------------

def test_rule_proj():
    for i in (1, 2):
        chk = run_classical_rule("proj", i=i, t1=Var("t1"), t2=Var("t2"), a=a, b=b)
        assert chk.holds
        assert chk.redex_normal == (Var("t1") if i == 1 else Var("t2"))


def test_rule_case_with_bound_use():
    chk = run_classical_rule("case", i=1, t=Var("t"), x="x", s1=Var("x"),
                             s2=Var("v"), a=a, b=b, c=a)
    assert chk.holds
    assert chk.redex_normal == Var("t")
    chk = run_classical_rule("case", i=2, t=Var("t"), x="x", s1=Var("v"),
                             s2=Var("x"), a=a, b=b, c=b)
    assert chk.holds


def test_rule_app():
    chk = run_classical_rule("app", x="x", t=Var("x"), s=Var("s"), a=a, b=a)
    assert chk.holds and chk.redex_normal == Var("s")
    chk = run_classical_rule("app", x="x", t=Var("w"), s=Var("s"), a=a, b=b)
    assert chk.holds and chk.redex_normal == Var("w")


def test_rule_pieces_are_checked():
    with pytest.raises(ValueError, match="unknown rule kind 'beta'"):
        run_classical_rule("beta", x="x")
    with pytest.raises(TypeError):  # b is missing
        run_classical_rule("proj", i=1, t1=Var("t1"), t2=Var("t2"), a=a)
    with pytest.raises(TypeError):  # c is not a piece of proj
        run_classical_rule("proj", i=1, t1=Var("t1"), t2=Var("t2"), a=a, b=b, c=a)


def test_rule_lem_exact_shape():
    chk = run_classical_rule("lem", a=a, x="x", s1=Var("u"), s2=Var("x"),
                             c=Neg(a))
    assert chk.holds
    # the normal form keeps the blocked s1* witness under the binder
    from prk.rewrite import normalize
    from prk.rewrite import ETA
    stated = lem_case_reduct(a, "x", Var("u"), Var("x"), Neg(a))
    assert chk.stated == stated
    assert chk.redex_normal == normalize(stated, mode=ETA)[0]


def test_rules_with_concrete_closed_pieces(rng):
    # the simulations also hold with concrete closed pieces: classical
    # witnesses generated by compiling random closed NK proofs
    from prk.gen import PropGen
    gen = PropGen(rng, atoms=("a", "b"))
    pieces = [(lemc(a), Or(a, Neg(a))), (lemc(b), Or(b, Neg(b)))]
    while len(pieces) < 8:
        proof = _random_nk(rng, gen, (), 2)
        pieces.append((embed_nk(proof), proof.conclusion))
    for (t1, base1), (t2, base2) in zip(pieces[0::2], pieces[1::2]):
        chk = run_classical_rule("proj", i=1, t1=t1, t2=t2, a=base1, b=base2)
        assert chk.holds
        chk = run_classical_rule("case", i=1, t=t1, x="x", s1=Var("x"),
                                 s2=Var("v"), a=base1, b=base2, c=base1)
        assert chk.holds
        chk = run_classical_rule("app", x="x", t=Var("x"), s=t1,
                                 a=base1, b=base1)
        assert chk.holds


def test_negapc_partial_reduct_golden():
    # negapc(neglamc x. t, s) reduces to the recorded partial shape; it does
    # not simulate substitution in general
    ctx = Context.of(("t", cp(FALSITY)), ("s", cp(a)))
    lhs = negapc(neglamc("x", Var("t"), a), Var("s"), a)
    lemn = mk_lem(PVar(FALSITY_VAR), "-")
    blocked = clam("-", "x", cp(a),
                   abs_general_at(MProp(a, Mode("s", "-")), Var("t"), lemn,
                                  cp(FALSITY)))
    expected = Abs(cp(FALSITY),
                   abs_general_at(MProp(a, Mode("s", "-")), Var("t"), lemn,
                                  cp(FALSITY)),
                   CApp("+", Var("s"), blocked))
    assert infer_type(ctx, lhs).conclusion == cp(FALSITY)
    assert infer_type(ctx, expected).conclusion == cp(FALSITY)
    # reachable in exactly four steps: beta, beta, absNeg, beta
    frontier, seen = {lhs}, {lhs}
    found_at = None
    for level in range(1, 7):
        nxt = set()
        for u in frontier:
            for pos, _ in ref_redexes(u):
                v = apply_at(u, pos)[1]
                if v == expected and found_at is None:
                    found_at = level
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        if found_at:
            break
        frontier = nxt
    assert found_at == 4


# -- conservativity over the provable library ---------------------------------------

def test_conservativity_of_library():
    from prk.gen import provable_library
    for ctx, goal, _term in provable_library():
        hyps = [classem(p) for _, p in ctx]
        assert tt_valid(hyps, classem(goal))


# -- NK files ------------------------------------------------------------------------

def test_parse_nk_roundtrip():
    src = """
    hyp : (a & b)
    |- andi(ande2(hyp(0)), ande1(hyp(0)))
    """
    proof = parse_nk(src)
    assert proof.conclusion == And(b, a)
    assert proof.hyps == (And(a, b),)


def test_parse_nk_discharge():
    src = """
    |- impi[a](hyp(0))
    """
    proof = parse_nk(src)
    assert proof.conclusion == implies(a, a)


def test_parse_nk_ore_and_lem():
    src = "|- ore(lem[a], ori1[~a](hyp(0)), ori2[a](hyp(0)))"
    proof = parse_nk(src)
    assert proof.conclusion == Or(a, Neg(a))
    term = embed_nk(proof)
    assert infer_type(Context(), term).conclusion == cp(Or(a, Neg(a)))


def test_invalid_nk_rejected():
    with pytest.raises(InvalidNKProofError):
        nk_and_e(1, nk_hyp((a,), 0))
    with pytest.raises(InvalidNKProofError):
        nk_neg_e(nk_hyp((a, b), 0), nk_hyp((a, b), 1))
    with pytest.raises(InvalidNKProofError):
        nk_hyp((a,), 3)


# -- NK rules read off one table: a differential test against the per-arm code ----------

def _per_arm_parse_nk_node(tk, hyps):
    """_parse_nk_node as it was with one branch per keyword."""
    kind, head, at = tk.next()
    if kind != "ident":
        raise tk.error(f"expected a proof rule, found {head!r}", at)

    def prop_param():
        tk.expect("[")
        a = _parse_base(tk, allow_reserved=True)
        tk.expect("]")
        return a

    def args(n, hyps_list):
        tk.expect("(")
        out = []
        for k in range(n):
            out.append(_per_arm_parse_nk_node(tk, hyps_list[k]))
            tk.expect("," if k < n - 1 else ")")
        return out

    if head == "hyp":
        tk.expect("(")
        kind, num, at = tk.next()
        if not num.isdigit():
            raise tk.error("hyp needs a numeric index", at)
        tk.expect(")")
        return nk_hyp(hyps, int(num))
    if head == "andi":
        p, q = args(2, [hyps, hyps])
        return nk_and_i(p, q)
    if head in ("ande1", "ande2"):
        (p,) = args(1, [hyps])
        return nk_and_e(int(head[-1]), p)
    if head in ("ori1", "ori2"):
        other = prop_param()
        (p,) = args(1, [hyps])
        return nk_or_i(int(head[-1]), other, p)
    if head == "ore":
        tk.expect("(")
        p = _per_arm_parse_nk_node(tk, hyps)
        if not isinstance(p.conclusion, Or):
            raise InvalidNKProofError("disjunction elimination needs a disjunction")
        tk.expect(",")
        q = _per_arm_parse_nk_node(tk, hyps + (p.conclusion.left,))
        tk.expect(",")
        r = _per_arm_parse_nk_node(tk, hyps + (p.conclusion.right,))
        tk.expect(")")
        return nk_or_e(p, q, r)
    if head == "negi":
        a = prop_param()
        tk.expect("(")
        p = _per_arm_parse_nk_node(tk, hyps + (a,))
        tk.expect(")")
        return nk_neg_i(a, p)
    if head == "nege":
        p, q = args(2, [hyps, hyps])
        return nk_neg_e(p, q)
    if head == "expl":
        c = prop_param()
        (p,) = args(1, [hyps])
        return nk_explosion(c, p)
    if head == "lem":
        a = prop_param()
        return nk_lem(hyps, a)
    if head == "impi":
        a = prop_param()
        tk.expect("(")
        p = _per_arm_parse_nk_node(tk, hyps + (a,))
        tk.expect(")")
        return nk_imp_i(a, p)
    if head == "impe":
        p, q = args(2, [hyps, hyps])
        return nk_imp_e(p, q)
    raise tk.error(f"unknown proof rule {head!r}", at)


def _per_arm_embed_nk(p, names=None):
    """embed_nk as it was, unpacking the premises in each rule's arm."""
    if names is None:
        names = [f"h{i}" for i in range(len(p.hyps))]
    if len(names) != len(p.hyps):
        raise InvalidNKProofError("one variable name is needed per hypothesis")
    match p.rule:
        case "Hyp":
            return Var(names[p.index])
        case "AndI":
            l, r = p.premises
            return pairc(_per_arm_embed_nk(l, names), _per_arm_embed_nk(r, names),
                         l.conclusion, r.conclusion)
        case "AndE":
            (q,) = p.premises
            return projic(p.index, _per_arm_embed_nk(q, names),
                          q.conclusion.left, q.conclusion.right)
        case "OrI":
            (q,) = p.premises
            return inic(p.index, _per_arm_embed_nk(q, names),
                        p.conclusion.left, p.conclusion.right)
        case "OrE":
            q, r, s = p.premises
            x = fresh_name("x", set(names))
            tr = _per_arm_embed_nk(r, names + [x])
            ts = _per_arm_embed_nk(s, names + [x])
            return casec(_per_arm_embed_nk(q, names), x, tr, ts,
                         q.conclusion.left, q.conclusion.right, p.conclusion)
        case "NegI":
            (q,) = p.premises
            x = fresh_name("x", set(names))
            return neglamc(x, _per_arm_embed_nk(q, names + [x]), p.prop)
        case "NegE":
            q, r = p.premises
            return negapc(_per_arm_embed_nk(q, names), _per_arm_embed_nk(r, names),
                          r.conclusion)
        case "Explosion":
            (q,) = p.premises
            return explosionc(cp(p.prop), _per_arm_embed_nk(q, names))
        case "LEM":
            return lemc(p.prop)
        case "ImpI":
            (q,) = p.premises
            x = fresh_name("x", set(names))
            return lamc(x, _per_arm_embed_nk(q, names + [x]), p.prop, q.conclusion)
        case "ImpE":
            q, r = p.premises
            match q.conclusion:
                case Or(Neg(a), b):
                    return appc(_per_arm_embed_nk(q, names), _per_arm_embed_nk(r, names), a, b)
            raise InvalidNKProofError("malformed implication")
    raise InvalidNKProofError(f"unknown rule {p.rule}")


_NK_KEYWORDS = {"Hyp": "hyp", "AndI": "andi", "AndE": "ande", "OrI": "ori", "OrE": "ore",
                "NegI": "negi", "NegE": "nege", "Explosion": "expl", "LEM": "lem",
                "ImpI": "impi", "ImpE": "impe"}


def _print_nk(p):
    """The proof in the file syntax that parse_nk reads."""
    if p.rule == "Hyp":
        return f"hyp({p.index})"
    text = _NK_KEYWORDS[p.rule] + (str(p.index) if p.index is not None else "")
    if p.prop is not None:
        text += f"[{p.prop}]"
    if p.premises:
        text += "(" + ", ".join(map(_print_nk, p.premises)) + ")"
    return text


def _nk_file(p):
    return "".join(f"hyp : {h}\n" for h in p.hyps) + f"|- {_print_nk(p)}\n"


_NK_VOCABULARY = ["(", ")", ",", "[", "]", "hyp", "andi", "ande1", "ande3", "ori2", "ore", "negi",
                  "nege", "expl", "lem", "impi", "impe", "0", "1", "7", "a", "b", "~", "&", "|",
                  "pair", "|-", ":"]


def _mutate_nk_file(text, rng):
    """text with one token deleted, replaced, inserted or swapped with another."""
    toks = re.findall(r"\w+|\|-|\S|\n", text)
    i, j = rng.randrange(len(toks)), rng.randrange(len(toks))
    match rng.randrange(4):
        case 0:
            del toks[i]
        case 1:
            toks[i] = rng.choice(_NK_VOCABULARY)
        case 2:
            toks.insert(i, rng.choice(_NK_VOCABULARY))
        case 3:
            toks[i], toks[j] = toks[j], toks[i]
    return " ".join(toks).replace(" \n ", "\n")


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:  # the class and text are compared
        return type(e), str(e)


# files whose messages seeded proofs and their mutations rarely reach
_NK_HAND_ROWS = [
    "hyp : a\n|- ande1(hyp(0))\n",
    "hyp : a\n|- ore(hyp(0) hyp(1))\n",  # checked before the ',' is read
    "hyp : a\n|- negi[b](hyp(0))\n",
    "hyp : a\n|- expl[b](hyp(0))\n",
    "hyp : a\n",
    "hyp : (a & b)\n|- ore(lem[a], andi(hyp(1), ande2(hyp(0))), expl[(a & b)](nege(hyp(1), ande1(hyp(0)))))\n",
]


def test_nk_rules_match_the_per_arm_reference(rng, monkeypatch):
    from prk import classical
    from prk.gen import PropGen
    gen = PropGen(rng, atoms=("a", "b"))
    proofs = [_random_nk(rng, gen, tuple(gen.pure(2) for _ in range(rng.randrange(3))),
                         rng.choice((1, 2, 3)))
              for _ in range(150)]
    files = list(_NK_HAND_ROWS)
    for proof in proofs:
        files.append(_nk_file(proof))
        assert parse_nk(files[-1]) == proof
        files += [_mutate_nk_file(files[-1], rng) for _ in range(4)]
    parsed = [_outcome(parse_nk, text) for text in files]
    with monkeypatch.context() as patch:
        patch.setattr(classical, "_parse_nk_node", _per_arm_parse_nk_node)
        assert [_outcome(parse_nk, text) for text in files] == parsed
    messages = {re.sub(r"\d+|'[^']*'", "_", out[1]) for out in parsed if isinstance(out, tuple)}
    assert len(messages) >= 15, messages
    # hand-built proofs with an unknown rule, one over a premise no name list fits
    built = [NKProof("Cut", (), a), NKProof("Cut", (a,), a, (nk_hyp((a, b), 0),))]
    for proof in proofs + [p for p in parsed if isinstance(p, NKProof)] + built:
        term = _outcome(embed_nk, proof)
        assert _outcome(_per_arm_embed_nk, proof) == term
        if not isinstance(term, tuple):
            assert print_term(term) == print_term(_per_arm_embed_nk(proof))
    assert _outcome(embed_nk, built[1]) == (InvalidNKProofError, "unknown rule Cut")


def test_a_premise_with_two_more_hypotheses_is_no_discharge():
    # embed_nk reads a discharge off each premise with one more hypothesis than its node,
    # where a per-rule table said which premises discharge; two more fits neither reading
    p = NKProof("ImpI", (), implies(a, a), (nk_hyp((a, a), 0),), prop=a)
    want = (InvalidNKProofError, "one variable name is needed per hypothesis")
    assert _outcome(_per_arm_embed_nk, p) == want
    assert _outcome(embed_nk, p) == (InvalidNKProofError,
                                     "ImpI node is not what nk_imp_i builds from its parts")


# One hand-built node per way a node can contradict its rule: a premise that
# discharges nothing, hypotheses its rule does not give, a part of the wrong
# shape, and a conclusion that is not the rule's.
_UNSOUND_NODES = [
    NKProof("NegI", (), Neg(a), (nk_lem((), a),), prop=a),
    NKProof("AndI", (a,), And(a, a), (nk_hyp((a, a), 0), nk_hyp((a, a), 0))),
    NKProof("AndE", (a,), a, (nk_hyp((a,), 0),), index=1),
    NKProof("Hyp", (a,), b, index=0),
]


@pytest.mark.parametrize("node", _UNSOUND_NODES, ids=lambda p: p.rule)
def test_embed_refuses_a_node_its_rule_does_not_build(node):
    # embed_nk rebuilds every node through its rule's constructor, at the root or under a sound node
    for p in (node, nk_or_i(1, b, node), nk_and_i(nk_lem(node.hyps, b), node)):
        with pytest.raises(InvalidNKProofError):
            embed_nk(p)


# Nodes whose parts do not fit their rule's constructor's signature: an index or a
# premise too many, or an index or a premise too few.
_MISSHAPEN_NODES = {
    "AndI-with-index": NKProof("AndI", (a,), And(a, a), (nk_hyp((a,), 0),) * 2, index=1),
    "AndI-one-premise": NKProof("AndI", (a,), And(a, a), (nk_hyp((a,), 0),)),
    "OrI-without-index": NKProof("OrI", (a,), Or(a, b), (nk_hyp((a,), 0),), prop=b),
    "LEM-with-premises": NKProof("LEM", (a,), Or(a, Neg(a)), (nk_hyp((a,), 0),), prop=a),
}


@pytest.mark.parametrize("label", _MISSHAPEN_NODES)
def test_embed_refuses_a_node_of_the_wrong_shape(label):
    node = _MISSHAPEN_NODES[label]
    maker = {"AndI": "nk_and_i", "OrI": "nk_or_i", "LEM": "nk_lem"}[node.rule]
    for p in (node, nk_or_i(1, b, node), nk_and_i(nk_lem(node.hyps, b), node)):
        assert _outcome(embed_nk, p) == (
            InvalidNKProofError, f"{node.rule} node is not what {maker} builds from its parts")


@pytest.mark.parametrize("side", [0, 3, -1])
def test_nk_sides_are_1_or_2(side):
    p = nk_hyp((And(a, b),), 0)
    with pytest.raises(InvalidNKProofError, match=f"side {side} is not 1 or 2"):
        nk_and_e(side, p)
    with pytest.raises(InvalidNKProofError, match=f"side {side} is not 1 or 2"):
        nk_or_i(side, b, p)
    for node in (NKProof("AndE", p.hyps, a, (p,), index=side),
                 NKProof("OrI", p.hyps, Or(b, p.conclusion), (p,), index=side, prop=b)):
        with pytest.raises(InvalidNKProofError, match=f"side {side} is not 1 or 2"):
            embed_nk(node)


# -- embed_nk names discharged hypotheses through a Scope ----------------------------
# _per_arm_embed_nk copies the name list at each node and asks fresh_name, as
# embed_nk did: the reference for the names and the terms.

def _imp_nest(n):
    """n nested impi[a] over hyp(0): each discharges one more hypothesis."""
    p = nk_hyp((a,) * n, 0)
    for _ in range(n):
        p = nk_imp_i(a, p)
    return p


def test_scoped_embed_names_as_the_list_copying_reference(monkeypatch):
    from perfbench.reference import NKGen
    from prk import classical
    from prk.gen import PropGen, provable_library
    from tests.test_surface import _same_tree
    library = provable_library()
    with monkeypatch.context() as patch:
        patch.setattr(classical, "embed_nk", _per_arm_embed_nk)
        reference = provable_library()
    assert all(_same_tree(t, u) for (_, _, t), (_, _, u) in zip(library, reference))
    rng = random.Random(60)
    nkgen = NKGen(rng, PropGen(rng))
    proofs = []
    for _ in range(60):
        hyps = tuple(nkgen.props.pure(2) for _ in range(rng.randrange(3)))
        text, _ = nkgen.proof(hyps, rng.randrange(1, 5))
        proofs.append(parse_nk("".join(f"hyp : {h}\n" for h in hyps) + f"|- {text}\n"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        for p in proofs + [_imp_nest(n) for n in (1, 2, 30, 2000)]:
            assert _same_tree(embed_nk(p), _per_arm_embed_nk(p))
    finally:
        sys.setrecursionlimit(limit)


def test_embed_of_nested_discharges_is_linear():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(40_000)
    try:
        times = {}
        for n in (500, 4000):
            p = _imp_nest(n)
            times[n] = min(timeit.repeat(lambda: embed_nk(p), number=1, repeat=3))
    finally:
        sys.setrecursionlimit(limit)
    # x2.0-2.2 per doubling here; copying the names at each node made it x3
    assert times[4000] < 2.5 ** 3 * times[500], times

import pytest

from prk.errors import (AnnotationMismatchError, CannotInferError,
                        ModeMismatchError, NoSuchAssumptionError,
                        NotClassicalError, NotStrongError, SignMismatchError,
                        TypeMismatchError, TypingError, UnboundVariableError)
from prk.surface import parse_mprop, parse_term
from prk.syntax import (And, MProp, Mode, Neg, Or, PVar, Pair, Var, dual,
                        fv, opposite, substitute, truncate)
from prk.typecheck import (Context, check_type, infer_type, mk_abs_general,
                           mk_contrapose, mk_lem, project_derivation,
                           validate_derivation)

a, b = PVar("a"), PVar("b")
CP, CM, SP, SM = Mode("c", "+"), Mode("c", "-"), Mode("s", "+"), Mode("s", "-")


def ctx_of(*pairs):
    return Context.of(*((n, parse_mprop(p)) for n, p in pairs))


# -- basic rules -------------------------------------------------------------

def test_pair_plus():
    ctx = ctx_of(("x", "a^c+"), ("y", "b^c+"))
    d = infer_type(ctx, Pair("+", Var("x"), Var("y")))
    assert d.conclusion == parse_mprop("(a & b)^s+")
    assert d.rule == "IAnd+"


def test_clam_with_unused_binder():
    ctx = ctx_of(("x", "a^s+"))
    d = infer_type(ctx, parse_term("clam+(k : a^c-. x)"))
    assert d.conclusion == parse_mprop("a^c+")


def test_proj_mode_mismatch():
    ctx = ctx_of(("x", "a^s+"))
    with pytest.raises(ModeMismatchError):
        infer_type(ctx, parse_term("proj1+(x)"))


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        infer_type(Context(), Var("nope"))


def test_sign_mismatch():
    ctx = ctx_of(("x", "a^c-"), ("y", "b^c+"))
    with pytest.raises(SignMismatchError):
        infer_type(ctx, Pair("+", Var("x"), Var("y")))


def test_duplicate_assumption():
    from prk.errors import DuplicateAssumptionError
    with pytest.raises(DuplicateAssumptionError):
        ctx_of(("x", "a^c+"), ("x", "b^c+"))


def test_abs_requires_strong():
    ctx = ctx_of(("x", "a^c+"), ("y", "a^c-"))
    with pytest.raises(NotStrongError):
        infer_type(ctx, parse_term("abs[b^s+](x, y)"))


def test_case_annotation_mismatch():
    ctx = ctx_of(("x", "(a | b)^s+"), ("u", "c^c+"))
    with pytest.raises(AnnotationMismatchError):
        infer_type(ctx, parse_term("case+(x, y : b^c+. u, z : b^c+. u)"))


def test_injection_needs_expected_type():
    ctx = ctx_of(("x", "a^c+"))
    with pytest.raises(CannotInferError):
        infer_type(ctx, parse_term("in1+(x)"))
    d = check_type(ctx, parse_term("in1+(x)"), parse_mprop("(a | b)^s+"))
    assert d.rule == "IOr+"


def test_every_rule_round_trips(term_gen):
    for _ in range(60):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(3)
        t = term_gen.term(ctx, goal, 3)
        d = check_type(ctx, t, goal)
        assert d.conclusion == goal
        assert validate_derivation(d)


def test_validate_rejects_corrupted_derivation():
    from prk.typecheck import Derivation
    ctx = ctx_of(("x", "a^c+"))
    d = infer_type(ctx, Var("x"))
    wrong = Derivation(d.rule, d.ctx, d.subject, parse_mprop("b^c+"), d.premises)
    assert not validate_derivation(wrong)


def test_premise_subjects_are_locally_closed(term_gen):
    from prk.syntax import Bound, subterms

    def no_dangling(t, depth=0):
        # every index points at a binder inside the subject
        from prk.syntax import CLam, Case
        match t:
            case Bound(i):
                return i < depth
            case CLam(_, _, b):
                return no_dangling(b, depth + 1)
            case Case(_, sc, _, b1, _, b2):
                return (no_dangling(sc, depth) and no_dangling(b1, depth + 1)
                        and no_dangling(b2, depth + 1))
            case _:
                from prk.rewrite import children
                return all(no_dangling(c, depth) for c in children(t))

    def walk(d):
        assert no_dangling(d.subject)
        for premise in d.premises:
            walk(premise)

    for _ in range(25):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        d = check_type(ctx, term_gen.term(ctx, goal, 3), goal)
        walk(d)


def test_alpha_equivalence_is_structural():
    assert parse_term("clam+(x : a^c-. x)") == parse_term("clam+(y : a^c-. y)")
    assert parse_term("case+(z, x : a^c+. x, y : b^c+. y)") == \
        parse_term("case+(z, u : a^c+. u, v : b^c+. v)")
    assert parse_term("clam+(x : a^c-. x)") != parse_term("clam+(x : b^c-. x)")


# -- admissible structural properties ----------------------------------------

def test_weakening(term_gen):
    for _ in range(40):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.term(ctx, goal, 3)
        extended = ctx.extend("fresh_w", term_gen.props.mprop(2))
        assert "fresh_w" not in fv(t)
        assert check_type(extended, t, goal).conclusion == goal


def test_cut(term_gen, rng):
    for _ in range(40):
        ctx = term_gen.base_context()
        x, p = rng.choice(ctx.entries)
        goal = term_gen.props.mprop(2)
        t = term_gen.term(ctx, goal, 3)
        s = term_gen.term(ctx, p, 2)
        assert check_type(ctx, substitute(t, x, s), goal).conclusion == goal


# Each mirrored rule once per sign: (context, term, expected type or None
# for inference, exception class, exact message).  The `-` rows are the
# duals of the `+` rows; the CLI prints these messages as `ill-typed: ...`.
MIRRORED_ERRORS = {
    "+": [
        ((("x", "a^c-"), ("y", "b^c+")), "pair+(x, y)", None, SignMismatchError,
         "pair+ left component: expected sign +, found a^c-"),
        ((("x", "a^c+"), ("y", "b^s+")), "pair+(x, y)", None, ModeMismatchError,
         "pair+ right component: expected c+ mode, found b^s+"),
        ((("x", "(a | b)^s+"),), "proj1+(x)", None, ModeMismatchError,
         "proj1+ needs a strong conjunction, found (a | b)^s+"),
        ((("x", "(a & b)^s-"),), "proj2+(x)", None, ModeMismatchError,
         "proj2+ needs a strong conjunction, found (a & b)^s-"),
        ((("x", "(a | b)^s+"), ("u", "c^c+")), "case+(x, y : a^c-. u, z : b^c+. u)", None,
         AnnotationMismatchError,
         "case+ first binder must assume a classical affirmation, found a^c-"),
        ((("x", "(a | b)^s+"), ("u", "c^c+")), "case+(x, y : a^c+. u, z : b^s+. u)", None,
         AnnotationMismatchError,
         "case+ second binder must assume a classical affirmation, found b^s+"),
        ((("x", "(a & b)^s+"), ("u", "c^c+")), "case+(x, y : a^c+. u, z : b^c+. u)", None,
         AnnotationMismatchError,
         "case binder annotations require scrutinee type (a | b)^s+, found (a & b)^s+"),
        ((("x", "a^s+"),), "clam+(k : a^c+. x)", None, AnnotationMismatchError,
         "clam+ binder must assume a classical denial, found a^c+"),
        ((("f", "a^c-"), ("x", "a^c-")), "capp+(f, x)", None, SignMismatchError,
         "capp+ function: expected sign +, found a^c-"),
        ((("f", "a^s+"), ("x", "a^c-")), "capp+(f, x)", None, ModeMismatchError,
         "capp+ function: expected c+ mode, found a^s+"),
        ((("x", "a^c+"),), "negi+(x)", None, SignMismatchError,
         "negi+ premise: expected sign -, found a^c+"),
        ((("x", "~a^s-"),), "nege+(x)", None, ModeMismatchError,
         "nege+ needs a strong negation, found ~a^s-"),
        ((("x", "a^c+"),), "in1+(x)", "(a & b)^s+", TypeMismatchError,
         "in1+ builds a strong disjunction, cannot have type (a & b)^s+"),
        ((("x", "a^c+"),), "in2+(x)", "(a | b)^s-", TypeMismatchError,
         "in2+ builds a strong disjunction, cannot have type (a | b)^s-"),
        ((("x", "a^c+"), ("y", "b^c+")), "pair+(x, y)", "(a | b)^s+", TypeMismatchError,
         "pair+ cannot have type (a | b)^s+"),
        ((("x", "a^c-"),), "negi+(x)", "~a^s-", TypeMismatchError,
         "negi+ cannot have type ~a^s-"),
    ],
    "-": [
        ((("x", "a^c+"), ("y", "b^c-")), "pair-(x, y)", None, SignMismatchError,
         "pair- left component: expected sign -, found a^c+"),
        ((("x", "a^c-"), ("y", "b^s-")), "pair-(x, y)", None, ModeMismatchError,
         "pair- right component: expected c- mode, found b^s-"),
        ((("x", "(a & b)^s-"),), "proj1-(x)", None, ModeMismatchError,
         "proj1- needs a strong disjunction denial, found (a & b)^s-"),
        ((("x", "(a | b)^s+"),), "proj2-(x)", None, ModeMismatchError,
         "proj2- needs a strong disjunction denial, found (a | b)^s+"),
        ((("x", "(a & b)^s-"), ("u", "c^c-")), "case-(x, y : a^c+. u, z : b^c-. u)", None,
         AnnotationMismatchError,
         "case- first binder must assume a classical denial, found a^c+"),
        ((("x", "(a & b)^s-"), ("u", "c^c-")), "case-(x, y : a^c-. u, z : b^s-. u)", None,
         AnnotationMismatchError,
         "case- second binder must assume a classical denial, found b^s-"),
        ((("x", "(a | b)^s-"), ("u", "c^c-")), "case-(x, y : a^c-. u, z : b^c-. u)", None,
         AnnotationMismatchError,
         "case binder annotations require scrutinee type (a & b)^s-, found (a | b)^s-"),
        ((("x", "a^s-"),), "clam-(k : a^c-. x)", None, AnnotationMismatchError,
         "clam- binder must assume a classical affirmation, found a^c-"),
        ((("f", "a^c+"), ("x", "a^c+")), "capp-(f, x)", None, SignMismatchError,
         "capp- function: expected sign -, found a^c+"),
        ((("f", "a^s-"), ("x", "a^c+")), "capp-(f, x)", None, ModeMismatchError,
         "capp- function: expected c- mode, found a^s-"),
        ((("x", "a^c-"),), "negi-(x)", None, SignMismatchError,
         "negi- premise: expected sign +, found a^c-"),
        ((("x", "~a^s+"),), "nege-(x)", None, ModeMismatchError,
         "nege- needs a strong negation, found ~a^s+"),
        ((("x", "a^c-"),), "in1-(x)", "(a | b)^s-", TypeMismatchError,
         "in1- builds a strong conjunction denial, cannot have type (a | b)^s-"),
        ((("x", "a^c-"),), "in2-(x)", "(a & b)^s+", TypeMismatchError,
         "in2- builds a strong conjunction denial, cannot have type (a & b)^s+"),
        ((("x", "a^c-"), ("y", "b^c-")), "pair-(x, y)", "(a & b)^s-", TypeMismatchError,
         "pair- cannot have type (a & b)^s-"),
        ((("x", "a^c+"),), "negi-(x)", "~a^s+", TypeMismatchError,
         "negi- cannot have type ~a^s+"),
    ],
}

# Well-typed instances of the same rules: (context, term, expected type or
# None, rule name of the root).
MIRRORED_RULES = {
    "+": [
        ((("x", "a^c+"), ("y", "b^c+")), "pair+(x, y)", None, "IAnd+"),
        ((("x", "a^c+"), ("y", "b^c+")), "pair+(x, y)", "(a & b)^s+", "IAnd+"),
        ((("x", "(a & b)^s+"),), "proj2+(x)", None, "EAnd+"),
        ((("x", "a^c+"),), "in1+(x)", "(a | b)^s+", "IOr+"),
        ((("x", "(a | b)^s+"), ("u", "c^c+")), "case+(x, y : a^c+. u, z : b^c+. u)", None,
         "EOr+"),
        ((("x", "(a | b)^s+"), ("u", "c^c+")), "case+(x, y : a^c+. u, z : b^c+. u)", "c^c+",
         "EOr+"),
        ((("x", "a^c-"),), "negi+(x)", None, "INeg+"),
        ((("x", "a^c-"),), "negi+(x)", "~a^s+", "INeg+"),
        ((("x", "~a^s+"),), "nege+(x)", None, "ENeg+"),
        ((("x", "a^s+"),), "clam+(k : a^c-. x)", None, "IC+"),
        ((("f", "a^c+"), ("x", "a^c-")), "capp+(f, x)", None, "EC+"),
    ],
    "-": [
        ((("x", "a^c-"), ("y", "b^c-")), "pair-(x, y)", None, "IOr-"),
        ((("x", "a^c-"), ("y", "b^c-")), "pair-(x, y)", "(a | b)^s-", "IOr-"),
        ((("x", "(a | b)^s-"),), "proj2-(x)", None, "EOr-"),
        ((("x", "a^c-"),), "in1-(x)", "(a & b)^s-", "IAnd-"),
        ((("x", "(a & b)^s-"), ("u", "c^c-")), "case-(x, y : a^c-. u, z : b^c-. u)", None,
         "EAnd-"),
        ((("x", "(a & b)^s-"), ("u", "c^c-")), "case-(x, y : a^c-. u, z : b^c-. u)", "c^c-",
         "EAnd-"),
        ((("x", "a^c+"),), "negi-(x)", None, "INeg-"),
        ((("x", "a^c+"),), "negi-(x)", "~a^s-", "INeg-"),
        ((("x", "~a^s-"),), "nege-(x)", None, "ENeg-"),
        ((("x", "a^s-"),), "clam-(k : a^c+. x)", None, "IC-"),
        ((("f", "a^c-"), ("x", "a^c+")), "capp-(f, x)", None, "EC-"),
    ],
}


def _judge(ctx, src, expected):
    ctx, t = ctx_of(*ctx), parse_term(src)
    if expected is None:
        return infer_type(ctx, t)
    return check_type(ctx, t, parse_mprop(expected))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_mirrored_rules_messages_and_names(sign):
    for ctx, src, expected, error, message in MIRRORED_ERRORS[sign]:
        with pytest.raises(error) as info:
            _judge(ctx, src, expected)
        assert type(info.value) is error and str(info.value) == message, src
    for ctx, src, expected, rule in MIRRORED_RULES[sign]:
        assert _judge(ctx, src, expected).rule == rule, src


_MIRROR = {"IAnd+": "IOr-", "IOr+": "IAnd-", "EAnd+": "EOr-", "EOr+": "EAnd-"}
_MIRROR.update({v: k for k, v in _MIRROR.items()})


def _mirror_rule(rule):
    if rule in ("Ax", "Abs"):
        return rule
    return _MIRROR.get(rule) or rule[:-1] + ("-" if rule[-1] == "+" else "+")


def _rules(d):
    return [d.rule] + [r for p in d.premises for r in _rules(p)]


def test_duality_of_typing(term_gen):
    for _ in range(300):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.term(ctx, goal, 3)
        dctx = Context(tuple((n, dual(p)) for n, p in ctx))
        d = check_type(ctx, t, goal)
        dd = check_type(dctx, dual(t), dual(goal))
        assert dd.conclusion == dual(goal)
        assert _rules(dd) == [_mirror_rule(r) for r in _rules(d)]


# -- combinators ---------------------------------------------------------------

def test_mk_abs_general_strong_unchanged():
    ctx = ctx_of(("x", "a^s+"), ("y", "a^s-"))
    t = mk_abs_general(ctx, parse_mprop("b^c+"), Var("x"), Var("y"))
    assert t == parse_term("abs[b^c+](x, y)")


def test_mk_abs_general_classical_expansion():
    ctx = ctx_of(("x", "a^c+"), ("y", "a^c-"))
    q = parse_mprop("b^s+")
    t = mk_abs_general(ctx, q, Var("x"), Var("y"))
    assert t == parse_term("abs[b^s+](capp+(x, y), capp-(y, x))")
    assert infer_type(ctx, t).conclusion == q
    t2 = mk_abs_general(ctx, q, Var("y"), Var("x"))
    assert t2 == parse_term("abs[b^s+](capp-(y, x), capp+(x, y))")


def test_mk_abs_general_retypes(term_gen):
    for _ in range(30):
        ctx = term_gen.base_context()
        p = term_gen.props.mprop(2)
        q = term_gen.props.mprop(2)
        left = term_gen.term(ctx, p, 2)
        right = term_gen.term(ctx, opposite(p), 2)
        t = mk_abs_general(ctx, q, left, right)
        assert check_type(ctx, t, q).conclusion == q


def test_contrapose_both_cases():
    ctx = ctx_of(("x", "a^c+"), ("u", "b^c+"))
    t = mk_contrapose(ctx, "x", "y", Var("u"))
    new_ctx = ctx_of(("u", "b^c+"), ("y", "b^c-"))
    assert infer_type(new_ctx, t).conclusion == parse_mprop("a^c-")

    ctx2 = ctx_of(("x", "a^c-"), ("u", "b^c+"))
    t2 = mk_contrapose(ctx2, "x", "y", Var("u"))
    assert infer_type(ctx_of(("u", "b^c+"), ("y", "b^c-")), t2).conclusion == \
        parse_mprop("a^c+")


def test_contrapose_needs_classical():
    ctx = ctx_of(("x", "a^s+"), ("u", "b^c+"))
    with pytest.raises(NotClassicalError):
        mk_contrapose(ctx, "x", "y", Var("u"))


def test_mk_lem_types(prop_gen):
    for _ in range(50):
        base = prop_gen.pure(4)
        pos = mk_lem(base, "+")
        neg = mk_lem(base, "-")
        assert fv(pos) == frozenset() and fv(neg) == frozenset()
        assert infer_type(Context(), pos).conclusion == \
            MProp(Or(base, Neg(base)), CP)
        assert infer_type(Context(), neg).conclusion == \
            MProp(And(base, Neg(base)), CM)


def test_mk_lem_dual(prop_gen):
    for _ in range(20):
        base = prop_gen.pure(3)
        t = dual(mk_lem(base, "+"))
        expected = dual(MProp(Or(base, Neg(base)), CP))
        assert infer_type(Context(), t).conclusion == expected
        assert mk_lem(base, "-") == dual(mk_lem(dual(base), "+"))


# -- projection --------------------------------------------------------------

def test_project_ax_target():
    ctx = ctx_of(("x", "a^s+"))
    d = infer_type(ctx, Var("x"))
    pd = project_derivation(d, "x")
    assert pd.ctx.lookup("x") == parse_mprop("a^c+")
    assert pd.subject == Var("x")
    assert pd.conclusion == parse_mprop("a^c+")


def test_project_classical_target_unchanged():
    ctx = ctx_of(("x", "a^c-"))
    d = infer_type(ctx, Var("x"))
    pd = project_derivation(d, "x")
    assert pd.subject == Var("x")
    assert pd.conclusion == parse_mprop("a^c-")


def test_project_missing_assumption():
    d = infer_type(ctx_of(("x", "a^s+")), Var("x"))
    with pytest.raises(NoSuchAssumptionError):
        project_derivation(d, "zz")


def test_project_retypechecks(term_gen, rng):
    checked = 0
    for _ in range(120):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.term(ctx, goal, 3)
        target = rng.choice([n for n, _ in ctx])
        d = check_type(ctx, t, goal)
        pd = project_derivation(d, target)
        assert pd.conclusion == truncate(goal)
        assert pd.ctx.lookup(target) == truncate(ctx.lookup(target))
        checked += 1
    assert checked == 120


PROJECTION_CASES = [
    # (context, term, strong target) covering each rule's difficult case
    ((("x", "(a & b)^s+"),), "proj1+(x)", "x"),
    ((("x", "(a | b)^s-"),), "proj2-(x)", "x"),
    ((("x", "(a | b)^s+"), ("u", "c^c+")), "case+(x, y : a^c+. u, z : b^c+. u)", "x"),
    ((("x", "(a & b)^s-"), ("u", "c^c-")), "case-(x, y : a^c-. u, z : b^c-. u)", "x"),
    ((("x", "~a^s+"),), "nege+(x)", "x"),
    ((("x", "~a^s-"),), "nege-(x)", "x"),
    ((("x", "a^s-"),), "negi+(clam-(w : a^c+. capp-(clam-(v : a^c+. x), w)))", "x"),
    ((("x", "a^s+"), ("y", "a^s-")), "abs[b^c-](x, y)", "x"),
    ((("x", "a^c+"), ("y", "a^c-"), ("z", "b^s+")), "abs[c^s-](capp+(x, y), capp-(y, x))", "z"),
    ((("x", "a^s+"), ("y", "b^s+")), "pair+(clam+(k : a^c-. x), clam+(k : b^c-. y))", "x"),
]


@pytest.mark.parametrize("ctx_pairs,src,target", PROJECTION_CASES)
def test_project_strong_targets_each_rule(ctx_pairs, src, target):
    ctx = ctx_of(*ctx_pairs)
    d = infer_type(ctx, parse_term(src))
    pd = project_derivation(d, target)
    assert pd.conclusion == truncate(d.conclusion)
    assert pd.ctx.lookup(target) == truncate(ctx.lookup(target))


def test_project_injection_conclusion():
    ctx = ctx_of(("x", "a^s-"))
    d = check_type(ctx, parse_term("in1-(clam-(k : a^c+. x))"),
                   parse_mprop("(a & b)^s-"))
    pd = project_derivation(d, "x")
    assert pd.conclusion == parse_mprop("(a & b)^c-")

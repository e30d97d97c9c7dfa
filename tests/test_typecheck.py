import dataclasses
import gc
import os
import pathlib
import pickle
import random
import subprocess
import sys
import threading
import timeit
import tracemalloc

import pytest

from prk.errors import (AnnotationMismatchError, CannotInferError, DuplicateAssumptionError,
                        ModeMismatchError, NoSuchAssumptionError,
                        NotClassicalError, NotStrongError, SignMismatchError,
                        TypeMismatchError, TypesNotOppositeError, TypingError,
                        UnboundVariableError)
from prk.gen import PropGen, TermGen, provable_library
from prk.rewrite import normalize
from prk.surface import parse_mprop, parse_term
from prk.syntax import (CLASSICAL, INJECTED, PAIRED, STANCE, STRONG, Abs, And,
                        Bound, CApp, CLam, Case, Inj, MProp, Mode, Neg, NegE,
                        NegI, Or, PVar, Pair, Proj, Var, case as mk_case,
                        children, clam, dual, flip, fresh_name, fv,
                        open_binder, opposite, rebuild, strong_noun,
                        substitute, subterms, truncate)
from prk.typecheck import (Context, Derivation, _project, abs_general_at,
                           check_type, contrapose_at, cs_term, infer_type,
                           mk_abs_general, mk_contrapose, mk_lem, pc_term,
                           project_derivation)
from testlib import validate_derivation

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
    # the scrutinee is inferred first, so its unbound variable is the error;
    # checking it against (a | a)^s+ instead would report the pair
    ctx = ctx_of(("x", "a^c+"))
    with pytest.raises(UnboundVariableError, match="^unbound variable 'nowhere'$"):
        infer_type(ctx, parse_term("case+(pair+(nowhere, in1+(x)), u : a^c+. u, v : a^c+. v)"))


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


def test_mk_abs_general_rejects_a_mismatch_in_either_order():
    # y is inferable and in1+(x) only checkable: each order meets the same mismatch
    ctx = ctx_of(("x", "a^c+"), ("y", "(a | b)^s+"))
    q, inj = parse_mprop("b^c+"), parse_term("in1+(x)")
    for left, right in ((Var("y"), inj), (inj, Var("y"))):
        with pytest.raises(TypesNotOppositeError, match="in1\\+ builds a strong disjunction"):
            mk_abs_general(ctx, q, left, right)
    with pytest.raises(CannotInferError) as neither:
        mk_abs_general(ctx, q, inj, parse_term("in2+(x)"))
    assert type(neither.value) is CannotInferError


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


# -- differential: the rule-string projection and the two-site typing fallback --
#
# Test-local copies of the typechecker and of `_project` as they were when
# each rule was matched by its name; the library must give `==` answers.

def _ref_fresh(hint, ctx, *terms):
    return fresh_name(hint or "x", ctx.names().union(*map(fv, terms)))


def _ref_expect_mode(p, strength, sign, what):
    if p.mode.strength != strength:
        raise ModeMismatchError(f"{what}: expected {strength}{sign} mode, found {p}")
    if p.sign != sign:
        raise SignMismatchError(f"{what}: expected sign {sign}, found {p}")


def ref_infer_type(ctx, t):
    match t:
        case Var(name):
            p = ctx.lookup(name)
            if p is None:
                raise UnboundVariableError(f"unbound variable {name!r}")
            return Derivation("Ax", ctx, t, p)
        case Bound(i):
            raise TypingError(f"dangling bound variable #{i}")
        case Abs(q, left, right):
            try:
                dl = ref_infer_type(ctx, left)
                dr = ref_check_type(ctx, right, opposite(dl.conclusion))
            except CannotInferError:
                dr = ref_infer_type(ctx, right)
                dl = ref_check_type(ctx, left, opposite(dr.conclusion))
            p = dl.conclusion
            if not p.is_strong:
                raise NotStrongError(f"absurdity premise must be strong, found {p}")
            return Derivation("Abs", ctx, t, q, (dl, dr))
        case Pair(sign, left, right):
            dl = ref_infer_type(ctx, left)
            dr = ref_infer_type(ctx, right)
            _ref_expect_mode(dl.conclusion, CLASSICAL, sign, f"pair{sign} left component")
            _ref_expect_mode(dr.conclusion, CLASSICAL, sign, f"pair{sign} right component")
            conn = PAIRED[sign]
            concl = MProp(conn(dl.conclusion.base, dr.conclusion.base), Mode(STRONG, sign))
            return Derivation(f"I{conn.__name__}{sign}", ctx, t, concl, (dl, dr))
        case Proj(sign, index, body):
            db = ref_infer_type(ctx, body)
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
            return _ref_case_derivation(ctx, t, expected=None)
        case NegI(sign, body):
            db = ref_infer_type(ctx, body)
            p = db.conclusion
            _ref_expect_mode(p, CLASSICAL, flip(sign), f"negi{sign} premise")
            return Derivation(f"INeg{sign}", ctx, t, MProp(Neg(p.base), Mode(STRONG, sign)), (db,))
        case NegE(sign, body):
            db = ref_infer_type(ctx, body)
            p = db.conclusion
            if not (isinstance(p.base, Neg) and p.mode == Mode(STRONG, sign)):
                raise ModeMismatchError(f"nege{sign} needs a strong negation, found {p}")
            concl = MProp(p.base.inner, Mode(CLASSICAL, flip(sign)))
            return Derivation(f"ENeg{sign}", ctx, t, concl, (db,))
        case CLam(sign, annot, body, hint):
            if annot.mode != Mode(CLASSICAL, flip(sign)):
                raise AnnotationMismatchError(f"clam{sign} binder must assume a classical "
                                              f"{STANCE[flip(sign)]}, found {annot}")
            x = _ref_fresh(hint, ctx, body)
            db = ref_check_type(ctx.extend(x, annot), open_binder(body, x),
                                MProp(annot.base, Mode(STRONG, sign)))
            return Derivation(f"IC{sign}", ctx, t, MProp(annot.base, Mode(CLASSICAL, sign)), (db,))
        case CApp(sign, fun, arg):
            df = ref_infer_type(ctx, fun)
            p = df.conclusion
            _ref_expect_mode(p, CLASSICAL, sign, f"capp{sign} function")
            da = ref_check_type(ctx, arg, MProp(p.base, Mode(CLASSICAL, flip(sign))))
            return Derivation(f"EC{sign}", ctx, t, MProp(p.base, Mode(STRONG, sign)), (df, da))
    raise TypeError(t)


def _ref_case_derivation(ctx, t, expected):
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
        dsc = ref_infer_type(ctx, t.scrutinee)
        if dsc.conclusion != scrut_ty:
            raise AnnotationMismatchError(
                f"case binder annotations require scrutinee type {scrut_ty}, "
                f"found {dsc.conclusion}")
    except CannotInferError:
        try:
            dsc = ref_check_type(ctx, t.scrutinee, scrut_ty)
        except TypeMismatchError as e:
            raise AnnotationMismatchError(str(e)) from e
    x1 = _ref_fresh(t.hint1, ctx, t.branch1)
    x2 = _ref_fresh(t.hint2, ctx, t.branch2)
    ctx1 = ctx.extend(x1, p1)
    ctx2 = ctx.extend(x2, p2)
    b1 = open_binder(t.branch1, x1)
    b2 = open_binder(t.branch2, x2)
    if expected is not None:
        d1 = ref_check_type(ctx1, b1, expected)
        d2 = ref_check_type(ctx2, b2, expected)
    else:
        try:
            d1 = ref_infer_type(ctx1, b1)
            d2 = ref_check_type(ctx2, b2, d1.conclusion)
        except CannotInferError:
            d2 = ref_infer_type(ctx2, b2)
            d1 = ref_check_type(ctx1, b1, d2.conclusion)
    return Derivation(rule, ctx, t, d1.conclusion, (dsc, d1, d2))


def ref_check_type(ctx, t, expected):
    match t:
        case Inj(sign, index, body):
            base = expected.base
            conn = INJECTED[sign]
            if not (isinstance(base, conn) and expected.mode == Mode(STRONG, sign)):
                raise TypeMismatchError(f"in{index}{sign} builds a {strong_noun(conn, sign)}, "
                                        f"cannot have type {expected}")
            comp = base.left if index == 1 else base.right
            db = ref_check_type(ctx, body, MProp(comp, Mode(CLASSICAL, sign)))
            return Derivation(f"I{conn.__name__}{sign}", ctx, t, expected, (db,))
        case Pair(sign, left, right):
            base = expected.base
            conn = PAIRED[sign]
            if not (isinstance(base, conn) and expected.mode == Mode(STRONG, sign)):
                raise TypeMismatchError(f"pair{sign} cannot have type {expected}")
            dl = ref_check_type(ctx, left, MProp(base.left, Mode(CLASSICAL, sign)))
            dr = ref_check_type(ctx, right, MProp(base.right, Mode(CLASSICAL, sign)))
            return Derivation(f"I{conn.__name__}{sign}", ctx, t, expected, (dl, dr))
        case NegI(sign, body):
            base = expected.base
            if not (isinstance(base, Neg) and expected.mode == Mode(STRONG, sign)):
                raise TypeMismatchError(f"negi{sign} cannot have type {expected}")
            db = ref_check_type(ctx, body, MProp(base.inner, Mode(CLASSICAL, flip(sign))))
            return Derivation(f"INeg{sign}", ctx, t, expected, (db,))
        case Case(_, _, _, _, _, _):
            return _ref_case_derivation(ctx, t, expected=expected)
        case Abs(q, _, _):
            if q != expected:
                raise TypeMismatchError(f"absurdity annotated {q}, expected {expected}")
            return ref_infer_type(ctx, t)
        case _:
            d = ref_infer_type(ctx, t)
            if d.conclusion != expected:
                raise TypeMismatchError(
                    f"term has type {d.conclusion}, expected {expected}")
            return d


def ref_project_derivation(d, target):
    p = d.ctx.lookup(target)
    new_ctx = d.ctx.replace(target, truncate(p))
    if p.is_classical:
        term = pc_term(d.subject, d.conclusion, new_ctx)
    else:
        term = ref_project(d, target)
    return ref_check_type(new_ctx, term, truncate(d.conclusion))


def ref_project(d, target):
    ctx, q = d.ctx, d.conclusion
    taken = ctx.names()
    match d.rule:
        case "Ax":
            if d.subject.name == target:
                return d.subject
            return pc_term(d.subject, q, ctx)
        case "Abs":
            dl, dr = d.premises
            left = ref_project(dl, target)
            right = ref_project(dr, target)
            return abs_general_at(truncate(q), left, right, truncate(dl.conclusion))
        case "IAnd+" | "IOr-":
            dl, dr = d.premises
            return pc_term(Pair(d.subject.sign, ref_project(dl, target),
                                ref_project(dr, target)), q, ctx)
        case "IOr+" | "IAnd-":
            (db,) = d.premises
            return pc_term(Inj(d.subject.sign, d.subject.index, ref_project(db, target)),
                           q, ctx)
        case "EAnd+" | "EOr-":
            (db,) = d.premises
            sign, index = d.subject.sign, d.subject.index
            t0 = ref_project(db, target)
            pair_p = truncate(db.conclusion)
            z = fresh_name("z", set(taken) | fv(t0))
            w = fresh_name("w", set(taken) | fv(t0) | {z})
            arg = clam(flip(sign), w, pair_p, Inj(flip(sign), index, Var(z)))
            return cs_term(z, Proj(sign, index, CApp(sign, t0, arg)), q)
        case "EOr+" | "EAnd-":
            dsc, d1, d2 = d.premises
            sign = d.subject.sign
            sc = ref_project(dsc, target)
            s1 = ref_project(d1, target)
            s2 = ref_project(d2, target)
            n1 = d1.ctx.entries[-1][0]
            n2 = d2.ctx.entries[-1][0]
            p1, p2 = d.subject.annot1, d.subject.annot2
            tq = truncate(q)
            ystar = fresh_name("k", set(taken) | fv(s1) | fv(s2) | {n1, n2})
            contra1 = contrapose_at(n1, p1, ystar, s1, tq)
            contra2 = contrapose_at(n2, p2, ystar, s2, tq)
            scrut_p = truncate(dsc.conclusion)
            w = fresh_name("w", set(taken) | fv(sc) | {ystar})
            refut = clam(flip(sign), w, scrut_p, Pair(flip(sign), contra1, contra2))
            body = mk_case(sign, CApp(sign, sc, refut), (n1, p1, s1), (n2, p2, s2))
            return cs_term(ystar, body, tq)
        case "INeg+" | "INeg-":
            (db,) = d.premises
            return pc_term(NegI(d.subject.sign, ref_project(db, target)), q, ctx)
        case "ENeg+" | "ENeg-":
            (db,) = d.premises
            sign = d.subject.sign
            t0 = ref_project(db, target)
            neg_p = truncate(db.conclusion)
            z = fresh_name("z", set(taken) | fv(t0))
            w = fresh_name("w", set(taken) | fv(t0) | {z})
            arg = clam(flip(sign), w, neg_p, NegI(flip(sign), Var(z)))
            return cs_term(z, NegE(sign, CApp(sign, t0, arg)), q)
        case "IC+" | "IC-":
            (db,) = d.premises
            return cs_term(db.ctx.entries[-1][0], ref_project(db, target), q)
        case "EC+" | "EC-":
            df, _ = d.premises
            return ref_project(df, target)
    raise TypingError(f"unhandled rule {d.rule}")


def _outcome(f, *args):
    """f's result, or the class and text of what it raised."""
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 -- every answer is compared, errors included
        return type(e), str(e)


def _library_derivations():
    return [check_type(ctx, t, goal) for ctx, goal, t in provable_library()]


def _generated_derivations(seeds, per_seed):
    out = []
    for seed in seeds:
        gen = TermGen(random.Random(seed))
        for _ in range(per_seed):
            ctx = gen.base_context()
            goal = gen.props.mprop(2)
            out.append(check_type(ctx, gen.sized_term(ctx, goal, 4, max_size=40), goal))
    return out


def test_projection_matches_the_rule_string_reference():
    derivations = _library_derivations() + _generated_derivations(range(8), 30)
    projected = 0
    for d in derivations:
        for x, _ in d.ctx:
            assert _outcome(_project, d, x) == _outcome(ref_project, d, x)
            assert _outcome(project_derivation, d, x) == _outcome(
                ref_project_derivation, d, x)
            projected += 1
    assert projected > 1000


def _paths(t, path=()):
    yield path
    for i, kid in enumerate(children(t)):
        yield from _paths(kid, path + (i,))


def _replace_at(t, path, f):
    if not path:
        return f(t)
    kids = list(children(t))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], f)
    return rebuild(t, kids)


def _mutate(t, ctx, rng, props):
    """t with one node changed: a sign or index flipped, an annotation
    replaced, a node replaced by a variable (maybe unbound), by another
    subterm or by an injection of itself."""
    others = list(subterms(t))
    names = [n for n, _ in ctx] + ["nowhere"]

    def change(u):
        options = [lambda: Var(rng.choice(names)), lambda: rng.choice(others),
                   lambda: Inj(rng.choice("+-"), rng.choice((1, 2)), u), lambda: Bound(0)]
        if hasattr(u, "sign"):
            options.append(lambda: dataclasses.replace(u, sign=flip(u.sign)))
        if hasattr(u, "index") and not isinstance(u, Bound):
            options.append(lambda: dataclasses.replace(u, index=3 - u.index))
        for field in ("annot", "annot1", "annot2"):
            if hasattr(u, field):
                options.append(lambda field=field: dataclasses.replace(
                    u, **{field: props.mprop(2)}))
        return rng.choice(options)()

    return _replace_at(t, rng.choice(list(_paths(t))), change)


def test_typing_matches_the_two_site_reference():
    rng = random.Random(20)
    props = PropGen(rng)
    cases = [(ctx, t, goal) for ctx, goal, t in provable_library()]
    for seed in range(20):
        gen = TermGen(random.Random(seed))
        for _ in range(40):
            ctx = gen.base_context()
            goal = gen.props.mprop(2)
            t = gen.sized_term(ctx, goal, 4, max_size=40)
            once = _mutate(t, ctx, rng, props)
            twice = _mutate(once, ctx, rng, props)
            cases += [(ctx, t, goal), (ctx, once, goal), (ctx, twice, goal)]
    errors = set()
    for ctx, t, goal in cases:
        for expected in (goal, props.mprop(2)):
            got = _outcome(check_type, ctx, t, expected)
            assert got == _outcome(ref_check_type, ctx, t, expected)
            errors.add(got[0] if isinstance(got, tuple) else None)
        assert _outcome(infer_type, ctx, t) == _outcome(ref_infer_type, ctx, t)
    # the corpus reaches every retry site's failure modes
    assert {CannotInferError, TypeMismatchError, UnboundVariableError,
            AnnotationMismatchError} <= errors


# -- typing in linear time: the memo of retried inferences and the context index --

def case_nest(n):
    """n nested case+(C, u : a^c+. in1+(u), v : a^c+. in2+(v)) over in1+(x):
    each case's scrutinee cannot infer, so it is checked again."""
    t = Inj("+", 1, Var("x"))
    for _ in range(n):
        t = Case("+", t, MProp(a, CP), Inj("+", 1, Bound(0)), MProp(a, CP), Inj("+", 2, Bound(0)),
                 hint1="u", hint2="v")
    return t


def clam_nest(n):
    """clam+(x_n : a^c-. capp+(..., x_n)) n deep over p, all hints x."""
    t = Var("p")
    for _ in range(n):
        t = CLam("+", MProp(a, CM), CApp("+", t, Bound(0)))
    return t


def abs_nest(n):
    """abs[a^c+](capp+(A, y), r) n deep over in1+(x): each left side cannot
    infer, so _infer_either infers the right and checks the left again."""
    t = Inj("+", 1, Var("x"))
    for _ in range(n):
        t = Abs(MProp(a, CP), CApp("+", t, Var("y")), Var("r"))
    return t


def branch_nest(n):
    """case+(w, u : a^c+. capp+(N, y), v : a^c+. v) n deep over in1+(x): the
    first branch cannot infer, so it is checked against the second's type."""
    t = Inj("+", 1, Var("x"))
    for _ in range(n):
        t = Case("+", Var("w"), MProp(a, CP), CApp("+", t, Var("y")), MProp(a, CP), Bound(0))
    return t


def scrutinee_in_branch_nest(n):
    """case+(in1+(x), u : a^c+. case+(R, ...), v : a^c+. in2+(v)) n deep over
    in1+(x): each level is checked after it fails to infer, and types the
    level below in the context of its first branch, made once."""
    t = Inj("+", 1, Var("x"))
    for _ in range(n):
        t = Case("+", Inj("+", 1, Var("x")), MProp(a, CP), Case(
            "+", t, MProp(a, CP), Inj("+", 1, Bound(0)), MProp(a, CP), Inj("+", 2, Bound(0))),
            MProp(a, CP), Inj("+", 2, Bound(0)))
    return t


NEST_CTX = ctx_of(("x", "a^c+"), ("y", "a^c-"), ("p", "a^c+"), ("r", "a^s-"), ("w", "(a | a)^s+"))
A_OR_A = MProp(Or(a, a), SP)


def _nk_derivation_inputs(count):
    """count proofs of the benchmark's NK generator, embedded as terms."""
    import importlib.util
    import pathlib

    from prk.classical import embed_nk, nk_context, parse_nk
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    rng = random.Random(18)
    nkgen = ref.NKGen(rng, PropGen(rng, atoms=("a", "b")))
    out = []
    for _ in range(count):
        hyps = tuple(nkgen.props.pure(2) for _ in range(rng.randrange(3)))
        text, concl = nkgen.proof(hyps, rng.choice((2, 3)))
        proof = parse_nk(ref.nk_file(hyps, text))
        out.append((nk_context(proof), embed_nk(proof), MProp(concl, CP)))
    return out


def test_memoized_typing_matches_the_reference():
    cases = [(NEST_CTX, case_nest(n), A_OR_A) for n in range(9)]
    cases += [(NEST_CTX, scrutinee_in_branch_nest(n), A_OR_A) for n in range(6)]
    cases += [(NEST_CTX, clam_nest(n), MProp(a, CP)) for n in range(51)]
    cases += [(NEST_CTX, nest(n), MProp(a, CP)) for nest in (abs_nest, branch_nest) for n in range(6)]
    cases += [(ctx, t, goal) for ctx, goal, t in provable_library()]
    cases += _nk_derivation_inputs(60)
    for ctx, t, goal in cases:
        for expected in (goal, opposite(goal)):
            assert _outcome(check_type, ctx, t, expected) == _outcome(ref_check_type, ctx, t, expected)
        assert _outcome(infer_type, ctx, t) == _outcome(ref_infer_type, ctx, t)
    assert check_type(NEST_CTX, case_nest(8), A_OR_A).conclusion == A_OR_A
    assert infer_type(NEST_CTX, clam_nest(50)).conclusion == MProp(a, CP)


@pytest.mark.parametrize("nest, typing", [
    (case_nest, lambda t: check_type(NEST_CTX, t, A_OR_A)),  # the case scrutinee
    (abs_nest, lambda t: infer_type(NEST_CTX, t)),  # _infer_either for abs
    (branch_nest, lambda t: infer_type(NEST_CTX, t)),  # un-annotated case branches
    (scrutinee_in_branch_nest, lambda t: check_type(NEST_CTX, t, A_OR_A)),  # binder contexts
])
def test_each_retry_site_types_a_nest_in_linear_calls(nest, typing, monkeypatch):
    from prk import typecheck
    calls = [0]

    def counting(f):
        def counted(*args):
            calls[0] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(typecheck, "infer_type", counting(typecheck.infer_type))
    monkeypatch.setattr(typecheck, "check_type", counting(typecheck.check_type))
    counts = []
    for n in range(2, 15):
        calls[0] = 0
        _outcome(typing, nest(n))
        counts.append(calls[0])
    # each level adds the same number of calls, where a retry without the memo doubles them
    assert len({later - earlier for earlier, later in zip(counts, counts[1:])}) == 1, counts


def test_contexts_look_names_up_in_their_own_entries():
    root = ctx_of(("x", "a^c+"))
    left, right = root.extend("y", MProp(a, CP)), root.extend("y", MProp(b, CM))
    deep = left.extend("z", MProp(b, SP))
    for ctx, names in [(deep, "xyz"), (right, "xy"), (root, "x"), (left, "xy"), (deep, "xyz")]:
        assert ctx.names() == set(names) and [n for n, _ in ctx] == list(names)
        assert [ctx.lookup(n) for n in "yz"] == [dict(ctx.entries).get(n) for n in "yz"]
        assert Context(ctx.entries) == ctx and Context.of(*ctx) == ctx and str(Context(ctx)) == str(ctx)
    assert (left.lookup("y"), right.lookup("y"), right.lookup("z")) == (MProp(a, CP), MProp(b, CM), None)
    assert left != right and hash(left) == hash(Context(left.entries))
    with pytest.raises(DuplicateAssumptionError):
        Context([("x", MProp(a, CP)), ("x", MProp(b, CP))])


# -- typing names its binders through the Scope that indexes its contexts ------
# ctx.extend(hint, annot, taken) is how typing opens a binder.  The index
# moves between unrelated contexts, by pops and adds, between two picks;
# the reference asks fresh_name about names the test keeps itself.

def test_binder_names_are_fresh_name_after_any_move(rng):
    hints, p = ["x", "x2", "x3", "y"], MProp(a, CM)
    pool = [(Context(), ())]
    for names in [("x2",), ("x3", "x2"), ("y", "x3"), ("x", "x2", "x3")]:  # x2 or x3 without x
        pool.append((Context((n, p) for n in names), names))
    for _ in range(3000):
        ctx, names = pool[-1] if rng.random() < 0.4 else rng.choice(pool)
        if rng.random() < 0.3:  # only move the index here
            assert [n for n, _ in ctx] == list(names) and ctx.names() == set(names)
            continue
        hint = rng.choice(hints)
        if rng.random() < 0.2 and hint not in names:  # a name given, not picked
            child = ctx.extend(hint, p)
            assert child.name == hint
        else:
            taken = frozenset(rng.sample(hints + ["x4", "y2"], rng.randrange(3)))
            child = ctx.extend(hint, p, taken)
            assert child.name == fresh_name(hint, set(names), taken)
        pool.append((child, names + (child.name,)))
    assert max(len(names) for _, names in pool) > 20


def _on_a_deep_stack(f):
    """f() on a thread with a 256 MiB stack and a recursion limit of 100,000,
    as the CLI runs its commands; both are restored after."""
    out, limit, size = [], sys.getrecursionlimit(), threading.stack_size(1 << 28)
    sys.setrecursionlimit(100_000)
    try:
        worker = threading.Thread(target=lambda: out.append(f()))
        worker.start()
        worker.join()
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    return out[0]


def test_a_nest_with_one_hint_types_as_fast_as_one_with_distinct_hints():
    def best(t):
        return min(timeit.repeat(lambda: infer_type(NEST_CTX, t), number=1, repeat=3))

    shared, distinct = Var("p"), Var("p")  # clam_nest(4000), with hints x and v0, v1, ...
    for i in range(4000):
        shared = CLam("+", MProp(a, CM), CApp("+", shared, Bound(0)), "x")
        distinct = CLam("+", MProp(a, CM), CApp("+", distinct, Bound(0)), f"v{i}")
    times = _on_a_deep_stack(lambda: (best(shared), best(distinct)))
    # about 1; probing x, x2, ... from the start at each binder made it 10 and more
    assert times[0] < 2 * times[1], times


def test_projecting_a_nest_with_one_hint_is_as_fast_as_one_with_distinct_hints():
    # _project names its helper binders w, z, k through the index's Scope
    ctx = ctx_of(("p", "a^c+"), ("r", "b^s+"))

    def best(t):
        d = infer_type(ctx, t)
        return min(timeit.repeat(lambda: project_derivation(d, "r"), number=1, repeat=3))

    def nest(hints):  # clam+(w : a^c-. capp+(proj1+(pair+(…, p)), w)) with the given hints
        t = Var("p")
        for hint in hints:
            t = CLam("+", MProp(a, CM), CApp("+", Proj("+", 1, Pair("+", t, Var("p"))), Bound(0)), hint)
        return t

    shared, distinct = nest(["w"] * 2000), nest(f"v{i}" for i in range(2000))
    times = _on_a_deep_stack(lambda: (best(shared), best(distinct)))
    # about 1; probing w, w2, ... from the start at each node made it about 4
    assert times[0] < 2 * times[1], times


# -- one frame per level, and the Derivation contract -------------------------

def test_typing_a_chain_takes_one_frame_per_level():
    # 450 nege/negi pairs are 900 levels, under the default limit of 1,000 frames;
    # a helper function per rule would take two frames a level
    code = ("import sys\nfrom prk.syntax import MProp, Mode, NegE, NegI, PVar, Var\n"
            "from prk.typecheck import Context, check_type, infer_type\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "t = Var('x')\nfor _ in range(450):\n    t = NegE('-', NegI('-', t))\n"
            "goal = MProp(PVar('a'), Mode('c', '+'))\nctx = Context.of(('x', goal))\n"
            "print(infer_type(ctx, t).conclusion == goal, check_type(ctx, t, goal).conclusion == goal)")
    src = str(pathlib.Path(infer_type.__code__.co_filename).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["True", "True"]


def test_a_derivation_keeps_its_dataclass_contract():
    ctx = ctx_of(("x", "a^c+"))
    d = infer_type(ctx, parse_term("negi-(x)"))
    assert [f.name for f in dataclasses.fields(Derivation)] == [
        "rule", "ctx", "subject", "conclusion", "premises"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.rule = "Ax"
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.premises[0].conclusion = None
    x = "Context(entries=(('x', MProp(base=PVar(name='a'), mode=Mode(strength='c', sign='+'))),))"
    ax = (f"Derivation(rule='Ax', ctx={x}, subject=Var(name='x'), "
          "conclusion=MProp(base=PVar(name='a'), mode=Mode(strength='c', sign='+')), premises=())")
    assert repr(d) == (f"Derivation(rule='INeg-', ctx={x}, subject=NegI(sign='-', body=Var(name='x')), "
                       "conclusion=MProp(base=Neg(inner=PVar(name='a')), mode=Mode(strength='s', sign='-')), "
                       f"premises=({ax},))")
    assert repr(Derivation("Ax", ctx, Var("x"), parse_mprop("a^c+"))) == ax
    again = Derivation("INeg-", ctx, d.subject, d.conclusion, premises=d.premises)
    assert again == d and hash(again) == hash(d) and again is not d
    assert d != dataclasses.replace(d, rule="R") == Derivation("R", ctx, d.subject, d.conclusion, d.premises)
    assert dataclasses.replace(d, rule="R").premises is d.premises
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and repr(copy) == repr(d) and hash(copy) == hash(d)
    with pytest.raises(dataclasses.FrozenInstanceError):
        copy.ctx = ctx


# -- each top-level call's memo starts from the previous call's root derivation -

def _chain(n):
    """n nege-/negi- pairs over x, which types at a^c+ under x : a^c+."""
    t = Var("x")
    for _ in range(n):
        t = NegE("-", NegI("-", t))
    return t


def _infer_frames(f, *args):
    """f(*args) and the number of infer_type frames it ran, counted under sys.setprofile."""
    frames, code = [0], infer_type.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            frames[0] += 1

    sys.setprofile(profile)
    try:
        return f(*args), frames[0]
    finally:
        sys.setprofile(None)


def _on_a_fresh_thread(f, *args):
    """_outcome(f, *args) on a new thread, which keeps no derivation of an earlier call."""
    out = []
    worker = threading.Thread(target=lambda: out.append(_outcome(f, *args)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out[0]


def test_checking_a_term_just_inferred_is_one_lookup():
    cases = [(ctx_of(("x", "a^c+")), _chain(400), MProp(a, CP))] + _nk_derivation_inputs(60)
    for ctx, t, goal in cases:
        d = infer_type(ctx, t)
        checked, frames = _infer_frames(check_type, ctx, t, goal)
        # one frame, the lookup; on the chain, typing it again took 801
        assert frames == 1, frames
        assert checked is d


def test_a_typing_error_is_never_kept():
    ctx = ctx_of(("x", "a^c+"), ("y", "a^c-"))
    bad, inj, goal = parse_term("proj1+(x)"), parse_term("in1+(x)"), parse_mprop("(a | b)^s+")
    raised = []
    for typing, args in [(infer_type, ()), (infer_type, ()), (check_type, (goal,))]:
        with pytest.raises(ModeMismatchError) as e:
            typing(ctx, bad, *args)
        raised.append(e.value)
    # the same answer, each time made anew: a kept error's traceback would hold the memo
    assert len({(type(e), str(e)) for e in raised}) == 1 and len(set(map(id, raised))) == 3
    for _ in range(2):
        with pytest.raises(CannotInferError):
            infer_type(ctx, inj)
        assert check_type(ctx, inj, goal).conclusion == goal


def test_a_kept_derivation_never_answers_for_another_term():
    # terms typed and dropped in sequence, so their ids are reused, some under one context
    gen = TermGen(random.Random(40))
    shared = gen.base_context()
    for i in range(300):
        ctx = shared if i % 3 == 0 else gen.base_context()
        goal = gen.props.mprop(2)
        t = gen.sized_term(ctx, goal, 4, max_size=30)
        got = [_outcome(infer_type, ctx, t), _outcome(check_type, ctx, t, goal)]
        nf, _ = normalize(t)
        got.append(_outcome(check_type, ctx, nf, goal))
        assert got == [_on_a_fresh_thread(infer_type, ctx, t), _on_a_fresh_thread(check_type, ctx, t, goal),
                       _on_a_fresh_thread(check_type, ctx, nf, goal)]


def test_a_kept_derivation_stays_on_its_thread():
    ctx, t = ctx_of(("x", "a^c+")), _chain(20)
    d = infer_type(ctx, t)
    there = _on_a_fresh_thread(infer_type, ctx, t)
    assert there == d and there is not d
    assert infer_type(ctx, t) is d and check_type(ctx, t, MProp(a, CP)) is d
    assert _on_a_fresh_thread(check_type, ctx, t, MProp(a, CP)) is not d


def test_the_next_call_releases_the_kept_derivation():
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ctx, t = ctx_of(("x", "a^c+")), _chain(400)
        d = infer_type(ctx, t)
        held = tracemalloc.get_traced_memory()[0] - start
        del ctx, t, d
        infer_type(ctx_of(("y", "b^c+")), Var("y"))
        gc.collect()  # which empties the free lists, where freed tuples stay traced
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # the chain and its derivation take about 570 bytes a pair, and stay while the derivation is kept
    assert held > 400 * 400 and left < held / 20, (held, left)

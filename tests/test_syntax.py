import dataclasses

import pytest
from hypothesis import given, strategies as st

from prk.errors import ParseError
from prk.gen import all_pure_props
from prk.surface import parse_mprop, parse_term, print_mprop, print_term
from prk.syntax import (And, Bound, CLam, MProp, Mode, Neg, Or, PVar, Pair,
                        Term, Var, clam, close_binder, dual, fresh_name, fv,
                        make_fold, measure, open_binder, opposite, prop_children,
                        prop_depth, prop_dual, prop_size, shift, substitute,
                        truncate, uses_index)
from prk.typecheck import mk_lem

a = PVar("a")
b = PVar("b")


def pure_props(max_depth=4):
    return st.recursive(
        st.sampled_from([PVar("a"), PVar("b"), PVar("c")]),
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
        ),
        max_leaves=8,
    )


def mprops():
    modes = st.sampled_from([Mode(s, g) for s in "sc" for g in "+-"])
    return st.builds(MProp, pure_props(), modes)


# -- fresh names -----------------------------------------------------------

_NAMES = st.sampled_from(["x", "x2", "x3", "x5", "y", "y2", "w"])


@given(st.sampled_from(["x", "y", "w", "z"]),
       st.lists(st.lists(_NAMES, max_size=6), max_size=4),
       st.sampled_from([set, frozenset, list, tuple, dict.fromkeys]))
def test_fresh_name_over_several_containers_is_fresh_name_over_their_union(base, parts, kind):
    union = set().union(*parts)
    x = fresh_name(base, *map(kind, parts))
    assert x == fresh_name(base, union)
    assert x == next(y for y in [base, *(f"{base}{i}" for i in range(2, 9))] if y not in union)


# -- parsing ---------------------------------------------------------------

def test_parse_mprop_examples():
    assert parse_mprop("(a & b)^s+") == MProp(And(a, b), Mode("s", "+"))
    assert parse_mprop("~a^c-") == MProp(Neg(a), Mode("c", "-"))


def test_nested_modes_rejected():
    with pytest.raises(ParseError, match="modes cannot be nested"):
        parse_mprop("(a^s+)^c+")


def test_parse_term_examples():
    assert parse_term("pair+(x, y)") == Pair("+", Var("x"), Var("y"))
    t = parse_term("clam+(k : a^c-. x)")
    assert t == CLam("+", MProp(a, Mode("c", "-")), Var("x"))
    assert t.hint == "k"


def test_bad_projection_index():
    with pytest.raises(ParseError, match="projection index"):
        parse_term("proj3+(x)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_mprop("(a &\n b")
    assert err.value.line == 2


def test_reserved_falsity_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_term("_bot0")
    parse_term("_bot0", allow_reserved=True)


@given(mprops())
def test_mprop_roundtrip(p):
    assert parse_mprop(print_mprop(p)) == p


# -- structural operations --------------------------------------------------

def test_opposite_examples():
    assert opposite(parse_mprop("a^s+")) == parse_mprop("a^s-")
    assert opposite(parse_mprop("(a & b)^c-")) == parse_mprop("(a & b)^c+")


@given(mprops())
def test_opposite_involution(p):
    assert opposite(opposite(p)) == p


def test_truncate_examples():
    assert truncate(parse_mprop("a^s+")) == parse_mprop("a^c+")
    assert truncate(parse_mprop("a^c-")) == parse_mprop("a^c-")


@given(mprops())
def test_truncate_idempotent_and_commutes(p):
    assert truncate(truncate(p)) == truncate(p)
    assert truncate(opposite(p)) == opposite(truncate(p))


def test_measure_examples():
    assert measure(parse_mprop("a^s+")) == 2
    assert measure(parse_mprop("a^c+")) == 3
    assert measure(parse_mprop("(a & b)^s+")) == 6
    assert measure(parse_mprop("(a & b)^s+")) > measure(parse_mprop("a^c+"))


@given(mprops())
def test_measure_inequalities(p):
    # classical strictly above strong; compounds strictly above their parts
    assert measure(truncate(p)) == 2 * prop_size(p.base) + 1
    assert measure(opposite(truncate(p))) == measure(truncate(p))
    q = MProp(And(p.base, p.base), Mode("s", "+"))
    assert measure(q) > measure(truncate(p))
    r = MProp(Neg(p.base), Mode("s", "-"))
    assert measure(r) > measure(truncate(p))


def test_dual_examples():
    assert dual(And(a, b)) == Or(a, b)
    assert dual(parse_mprop("a^c+")) == parse_mprop("a^c-")
    assert dual(parse_term("pair+(x, negi-(clam-(k : a^c+. k)))")) == \
        parse_term("pair-(x, negi+(clam+(k : a^c-. k)))")


@given(mprops())
def test_dual_involution(p):
    assert dual(dual(p)) == p
    assert dual(dual(p.base)) == p.base


# -- substitution ------------------------------------------------------------

def test_substitute_var():
    s = parse_term("pair+(u, v)")
    assert substitute(Var("x"), "x", s) == s


def test_substitute_shadowing():
    p = parse_mprop("a^c-")
    t = clam("+", "x", p, Var("x"))
    assert substitute(t, "x", Var("s")) == t


def test_substitute_capture_avoidance():
    p = parse_mprop("a^c-")
    t = clam("+", "y", p, Var("x"))
    out = substitute(t, "x", Var("y"))
    # structurally the binder is nameless, so y cannot be captured
    assert out == clam("+", "z", p, Var("y"))
    # and printing freshens the binder hint away from the free y
    printed = print_term(out)
    assert parse_term(printed) == out
    assert "y : " not in printed


def test_substitution_fv_containment(term_gen, rng):
    for _ in range(100):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(2)
        t = term_gen.term(ctx, goal, 3)
        x = rng.choice([n for n, _ in ctx])
        s = term_gen.term(ctx, term_gen.props.mprop(2), 2)
        result = substitute(t, x, s)
        expected = (fv(t) - {x}) | (fv(s) if x in fv(t) else set())
        assert fv(result) == expected


def _brute_force_fv(t):
    # independent occurrence scan: named leaves of the subterm iteration
    # (bound variables are indices, so every Var leaf is free)
    from prk.syntax import subterms
    return frozenset(node.name for node in subterms(t) if isinstance(node, Var))


def _brute_uses_index(t, k):
    # independent recursive scan over the dataclass fields; a case branch
    # and a classical lambda body sit under one binder
    if isinstance(t, Bound):
        return t.index == k
    for f in dataclasses.fields(t):
        child = getattr(t, f.name)
        if isinstance(child, Term):
            under = f.name in ("branch1", "branch2") or isinstance(t, CLam) and f.name == "body"
            if _brute_uses_index(child, k + under):
                return True
    return False


def _check_walk_contracts(t):
    # round trips of the binder-aware walks, on t and on every binder body
    # (a body refers to its own binder as index 0)
    from prk.syntax import Case, subterms
    bodies = [t]
    for u in subterms(t):
        if isinstance(u, CLam):
            bodies.append(u.body)
        elif isinstance(u, Case):
            bodies += [u.branch1, u.branch2]
    for b in bodies:
        for k, c in ((1, 0), (2, 1), (3, 0)):
            assert shift(shift(b, k, c), -k, c) == b
        x = fresh_name("x", fv(b))
        assert close_binder(open_binder(b, x), x) == b
        for k in range(3):
            assert uses_index(b, k) == _brute_uses_index(b, k)


def test_fv_against_brute_scan(term_gen, rng):
    for _ in range(80):
        ctx = term_gen.base_context()
        t = term_gen.term(ctx, term_gen.props.mprop(2), 3)
        assert fv(t) == _brute_force_fv(t)
        _check_walk_contracts(t)
        x = rng.choice([n for n, _ in ctx])
        s = term_gen.term(ctx, term_gen.props.mprop(2), 2)
        result = substitute(t, x, s)
        assert fv(result) == _brute_force_fv(result)
        _check_walk_contracts(result)
    for _ in range(10):
        t = mk_lem(term_gen.props.pure(2), rng.choice("+-"))
        assert fv(t) == _brute_force_fv(t) == frozenset()
        _check_walk_contracts(t)


def test_fv_against_reparse(term_gen):
    # printing then reparsing preserves the free-variable set exactly
    for _ in range(50):
        ctx = term_gen.base_context()
        t = term_gen.term(ctx, term_gen.props.mprop(2), 3)
        assert fv(parse_term(print_term(t))) == fv(t)


def test_print_parse_corpus(term_gen):
    seen = 0
    for _ in range(1000):
        ctx = term_gen.base_context()
        goal = term_gen.props.mprop(3)
        t = term_gen.term(ctx, goal, 3)
        assert parse_term(print_term(t)) == t
        p = term_gen.props.mprop(4)
        assert parse_mprop(print_mprop(p)) == p
        seen += 1
    assert seen == 1000


# -- the four modes, each built once ---------------------------------------------------

def test_each_mode_is_built_once():
    import copy
    import inspect
    import pickle

    from prk import typecheck
    from prk.syntax import MODE_OF, MODES
    from testlib import ref_hash
    assert [Mode(s, sign) for s in "sc" for sign in "+-"] == list(MODES)
    for m in MODES:
        assert Mode(m.strength, m.sign) is m is MODE_OF[m.strength, m.sign]
        assert Mode(strength=m.strength, sign=m.sign) is m
        assert copy.copy(m) is m and copy.deepcopy(m) is m
        assert pickle.loads(pickle.dumps(m)) is m
        assert dataclasses.replace(m) is m
        assert dataclasses.replace(m, sign="-" if m.sign == "+" else "+") is Mode(
            m.strength, "-" if m.sign == "+" else "+")
    # a mode hashes by its class and fields, as every record does; str and repr are the dataclass's
    sp = Mode("s", "+")
    assert hash(sp) == ref_hash(sp) == hash(("Mode", "s", "+"))
    assert (str(sp), repr(Mode("c", "-"))) == ("^s+", "Mode(strength='c', sign='-')")
    assert hash(MProp(a, sp)) == ref_hash(MProp(a, sp)) == hash(("MProp", a, sp))
    assert sp != Mode("s", "-") and sp != ("s", "+")
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.sign = "-"
    for bad in (("x", "+"), ("s", "*"), ([], "+")):
        with pytest.raises(ValueError, match=r"^bad mode "):
            Mode(*bad)
    assert str(pytest.raises(ValueError, Mode, "x", "+").value) == "bad mode 'x''+'"
    assert "Mode(" not in inspect.getsource(typecheck)


# -- pickled nodes -------------------------------------------------------------------
# a node keeps its hash in its slot _hash (syntax._cached_hash), and a string's hash
# depends on the process's hash seed, so a pickle must not carry it into another process.

_NODES = ("from prk.syntax import Mode, MProp, Or, Pair, PVar, Var\n"
          "from prk.systemf import Arrow, Forall, TBound, TVar\n"
          "nodes = [Pair('+', Var('x'), Var('y')), MProp(Or(PVar('a'), PVar('b')), Mode('c', '+')),\n"
          "         Forall(Arrow(TBound(0), TVar('b')))]\n"
          "import pickle, sys\n")


def test_a_pickled_node_hashes_as_a_fresh_one_under_another_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import prk
    env = {**os.environ, "PYTHONPATH": str(Path(prk.__file__).parents[1])}

    def run(seed, code, data=None):
        return subprocess.run([sys.executable, "-c", _NODES + code], input=data, check=True,
                              capture_output=True, env={**env, "PYTHONHASHSEED": seed}).stdout

    blob = run("1", "[hash(n) for n in nodes]\nsys.stdout.buffer.write(pickle.dumps(nodes))")
    out = run("2", "got = pickle.loads(sys.stdin.buffer.read())\n"
                   "print([(g == n, hash(g) == hash(n), g in {n},\n"
                   "        getattr(g, 'free', 0) == getattr(n, 'free', 0))  # free is remade\n"
                   "       for g, n in zip(got, nodes)])", blob)
    assert out.decode().strip() == str([(True, True, True, True)] * 3)


def _one_node_of_each_class() -> list:
    """A node of each class under the four tree bases, and an MProp."""
    from prk import syntax, systemf as f
    a, x, mp = PVar("a"), syntax.Var("x"), MProp(PVar("a"), Mode("c", "+"))
    t, fx = f.TVar("a"), f.FVar("x")
    nodes = [a, And(a, a), Or(a, a), Neg(a), mp, x, Bound(0), syntax.Abs(mp, x, x), Pair("+", x, x),
             syntax.Proj("+", 1, x), syntax.Inj("+", 1, x), syntax.Case("+", x, mp, Bound(0), mp, x),
             syntax.NegI("+", x), syntax.NegE("+", x), CLam("+", mp, Bound(0)), syntax.CApp("+", x, x),
             t, f.TBound(0), f.FPos(t, t), f.FNeg(t, t), f.Arrow(t, t), f.Forall(t), fx, f.FBound(0),
             f.FLam(t, fx), f.FApp(fx, fx), f.TyLam(fx), f.TyApp(fx, t)]
    bases = (syntax.PureProp, syntax.Term, f.FType, f.FTerm)
    assert {type(n) for n in nodes} == {MProp, *(c for base in bases for c in base.__subclasses__())}
    return nodes


def test_every_node_class_keeps_its_hash_and_pickles_without_it():
    import pickle

    from prk import syntax
    # the cached __hash__ wraps the generated one and stores what it gives
    for n in _one_node_of_each_class():
        assert type(n).__hash__ is not syntax._HASH_OF[type(n)]
        assert n._hash is None
        assert hash(n) == n._hash == syntax._HASH_OF[type(n)](n)
        copy = pickle.loads(pickle.dumps(n))
        assert copy == n and copy._hash is None, type(n)


def test_no_node_mprop_or_derivation_keeps_an_instance_dict():
    from prk.syntax import NegI, Var
    from prk.typecheck import Context, infer_type
    d = infer_type(Context.of(("x", parse_mprop("a^c+"))), NegI("-", Var("x")))
    for n in [*_one_node_of_each_class(), d, *d.premises]:
        assert not hasattr(n, "__dict__"), type(n)
        with pytest.raises(TypeError):
            vars(n)


# -- the dataclass contract ----------------------------------------------------------
# Frozen compiles each class's __init__, __eq__ and hash and shares one __repr__,
# __setattr__ and __delattr__ among all; they must give what a frozen dataclass's give,
# but for the hash, which names the class too, as testlib's references read it off
# dataclasses.fields.

def _one_of_each_frozen_class() -> list:
    """An instance of every class that Frozen built with fields: the nodes, a mode, a derivation,
    a model and the other layers' records."""
    from prk import syntax
    from prk.classical import nk_hyp, run_classical_rule
    from prk.kripke import ValidationReport, Violation, counter_model_lem
    from prk.rewrite import classify, normalize
    from prk.systemf import TVar, polarity
    from prk.typecheck import Context, infer_type
    x, v = Var("x"), Violation("order", ("w0", "w1"))
    d = infer_type(Context.of(("x", parse_mprop("a^c+"))), syntax.NegI("-", x))
    found = [*_one_node_of_each_class(), d,
             normalize(parse_term("proj1+(pair+(x, x))"))[1][0], classify(x), polarity(TVar("a")),
             v, ValidationReport((v,)), nk_hyp((a,), 0), Mode("s", "+"), counter_model_lem(),
             run_classical_rule("proj", i=1, t1=Var("t1"), t2=Var("t2"), a=a, b=b)]
    assert {type(n) for n in found} == set(syntax._VALUES)
    return found


def test_every_frozen_class_keeps_a_frozen_dataclasss_contract():
    import ast
    import inspect
    import textwrap

    from testlib import ref_eq, ref_hash, ref_repr

    @dataclasses.dataclass(frozen=True)
    class Reference:
        field: int

    signed = set()
    for n in _one_of_each_frozen_class():
        cls, names = type(n), tuple(f.name for f in dataclasses.fields(n))
        assert dataclasses.is_dataclass(n) and not hasattr(n, "__dict__"), cls
        assert n.__eq__(n) is ref_eq(n, n) is True and n.__eq__(0) is ref_eq(n, 0) is NotImplemented
        assert hash(n) == ref_hash(n) and repr(n) == ref_repr(n), cls
        assert dataclasses.replace(n) == n and cls.__match_args__ == names
        for name in (names[0], "unknown"):
            for change in (lambda o: setattr(o, name, 0), lambda o: delattr(o, name)):
                with pytest.raises(dataclasses.FrozenInstanceError) as got:
                    change(n)
                with pytest.raises(dataclasses.FrozenInstanceError) as want:
                    change(Reference(0))
                assert str(got.value) == str(want.value)
        # a class with no docstring is documented as dataclass() documents it, by its signature
        doc = ast.get_docstring(ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0], clean=False)
        if doc is None:
            signed.add(cls.__name__)
            doc = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
        assert cls.__doc__ == doc
    assert {"Pair", "ShapeReport", "Polarity", "Violation"} <= signed


def test_every_pair_of_enumerated_nodes_compares_and_hashes_as_the_dataclass_reference():
    from prk import syntax
    from prk.gen import TypedEnumerator
    from prk.typecheck import Context
    from testlib import ref_eq, ref_hash

    ctx = Context.of(("x", parse_mprop("a^c+")), ("y", parse_mprop("a^c-")))
    stack = list(TypedEnumerator(ctx, (a, b)).terms(6))
    nodes = {}  # every Frozen value below the terms, annotations too, by identity
    while stack:
        if id(u := stack.pop()) not in nodes:
            nodes[id(u)] = u
            stack += [c for c in syntax._VALUES[type(u)](u) if type(c) in syntax._VALUES]
    nodes = list(nodes.values())
    trees = (Term, syntax.PureProp)
    assert {type(u) for u in nodes} == {MProp, Mode, *(c for c in syntax._VALUES if issubclass(c, trees))}
    for u in nodes:
        assert hash(u) == ref_hash(u), u
        for v in nodes:
            assert u.__eq__(v) is ref_eq(u, v), (u, v)


def test_every_pure_proposition_of_depth_3_over_two_atoms_hashes_apart():
    # a hash of the fields alone made And(l, r) and Or(l, r) collide: 302 propositions took 74 hashes
    from prk.gen import all_pure_props
    props = all_pure_props(("a", "b"), 3)
    assert len(props) == len(set(props)) == len({hash(p) for p in props}) == 302


# -- index leaves --------------------------------------------------------------------

@pytest.mark.parametrize("leaf", ["Bound", "FBound", "TBound"])
def test_a_negative_index_is_rejected(leaf):
    from prk import syntax, systemf
    cls = getattr(syntax, leaf, None) or getattr(systemf, leaf)
    assert max(cls(3).free[0::2]) == 4  # free below index 4 of its sort
    with pytest.raises(ValueError, match="^negative de Bruijn index -1$"):
        cls(-1)


# -- proposition walks ---------------------------------------------------------------
# str, prop_dual and prop_depth run on print_tree and make_map; these are the
# recursive walks they replaced, kept as references.

def _old_str(p):
    match p:
        case PVar(name):
            return name
        case And(l, r):
            return f"({_old_str(l)} & {_old_str(r)})"
        case Or(l, r):
            return f"({_old_str(l)} | {_old_str(r)})"
        case Neg(inner):
            return f"~{_old_str(inner)}"


def _old_prop_dual(p):
    if isinstance(p, PVar):
        return p
    return {And: Or, Or: And, Neg: Neg}[type(p)](*map(_old_prop_dual, prop_children(p)))


def _old_prop_depth(p):
    levels = []
    make_fold(prop_children, {And: (1, 1), Or: (1, 1), Neg: (1,)})(p, lambda _, level: levels.append(level))
    return 1 + max(levels)


def test_proposition_walks_give_the_recursive_walks_answers():
    props = all_pure_props(("a", "b"), 3)
    assert len(props) == 302
    for p in props:
        assert str(p) == _old_str(p)
        assert prop_dual(p) == _old_prop_dual(p)
        assert prop_depth(p) == _old_prop_depth(p)
        assert print_mprop(MProp(p, Mode("s", "-"))) == _old_str(p) + "^s-"


_DEEP = """
from prk.classical import decide_oplus, tt_valid
from prk.surface import print_mprop
from prk.syntax import And, MProp, Mode, Neg, PVar, prop_depth, prop_dual
n = 100_000
negs, ands = PVar("a"), PVar("a")
for _ in range(n):
    negs, ands = Neg(negs), And(ands, PVar("b"))
cp = Mode("c", "+")
for p, dual in ((negs, "~" * n + "a"), (ands, "(" * n + "a" + " | b)" * n)):
    text = str(p)  # compared through strings: == and hash still recurse
    assert len(text) == len(dual) and text.replace("&", "|") == dual
    assert print_mprop(MProp(p, cp)) == text + "^c+"
    assert prop_depth(p) == n + 1
    assert str(prop_dual(p)) == dual
    assert tt_valid([p], p)
    assert decide_oplus([MProp(p, cp)], MProp(p, cp))
print("ok")
"""


def test_proposition_walks_work_on_deep_input_at_the_default_limit():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import prk
    env = {**os.environ, "PYTHONPATH": str(Path(prk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", "import sys; assert sys.getrecursionlimit() <= 1000\n" + _DEEP],
                         capture_output=True, text=True, env=env)
    assert out.stdout == "ok\n", out.stderr[-2000:]


_DEEP_HASH = """
from dataclasses import fields
from prk.syntax import Neg, NegE, NegI, PVar, Var
from prk.systemf import Arrow, TVar

prop, term, ftype = PVar("a"), Var("x"), TVar("a")
for _ in range(100_000):  # 10^5 deep, 2 * 10^5 deep, 10^5 deep
    prop, term, ftype = Neg(prop), NegE("+", NegI("-", term)), Arrow(ftype, TVar("b"))
for t in (prop, term, ftype):  # each node keeps the hash of its class name and fields
    assert hash(t) == hash((type(t).__qualname__, *(getattr(t, f.name) for f in fields(t))))
print("ok")
"""


def test_hash_takes_deep_trees_at_the_default_limit():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import prk
    env = {**os.environ, "PYTHONPATH": str(Path(prk.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", "import sys; assert sys.getrecursionlimit() <= 1000\n" + _DEEP_HASH],
                         capture_output=True, text=True, env=env)
    assert out.stdout == "ok\n", out.stderr[-2000:]

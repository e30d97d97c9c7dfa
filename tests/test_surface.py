"""The concrete term syntax, pinned: every parse error with its message and
position, the printed text of a fixed corpus, round trips of deep terms at
the default recursion limit, random text, and the naming of binders."""

import hashlib
import itertools
import random
import re
import timeit
from dataclasses import fields
from pathlib import Path
from string import Formatter

import pytest
from hypothesis import given, seed, settings, strategies as st

from prk.classical import (decide_oplus, embed_nk, nk_and_e, nk_and_i, nk_hyp, nk_imp_e,
                           nk_imp_i, nk_lem, nk_or_i, parse_nk)
from prk.cli import parse_judgment, parse_sequent
from prk.errors import ParseError
from prk.gen import PropGen, TermGen
from prk.rewrite import ETA, PLAIN, normalize
from prk.surface import (RESERVED_FALSITY, SYNTAX, Scope, _BAD_INDEX_RE, _INDEXED, _KINDS,
                         _Tokens, _parse_mprop, is_name, parse_mprop, parse_term, print_term)
from prk.syntax import (And, Bound, CApp, CLam, Case, MProp, Mode, Neg, NegE,
                        NegI, Or, PVar, Pair, Term, Var, dual, fresh_name, prop_depth)
from prk.typecheck import mk_lem
from testlib import binder_names_at, replay

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

# (text, message, line, column) of every error branch of parse_term
ERRORS = [
    ('', "expected a term, found 'end of input'", 1, 1),
    ('   ', "expected a term, found 'end of input'", 1, 4),
    ('(x)', "expected a term, found '('", 1, 1),
    ('1', "expected a term, found '1'", 1, 1),
    (')', "expected a term, found ')'", 1, 1),
    ('proj3+(x)', 'projection index must be 1 or 2', 1, 1),
    ('proj0+(x)', 'projection index must be 1 or 2', 1, 1),
    ('proj12-(x)', 'projection index must be 1 or 2', 1, 1),
    ('in0+(x)', 'injection index must be 1 or 2', 1, 1),
    ('in3-(x)', 'injection index must be 1 or 2', 1, 1),
    ('_bot0', "'_bot0' is reserved", 1, 1),
    ('clam+(x : a^c-. _bot0)', "'_bot0' is reserved", 1, 17),
    ('pair(x, y)', "expected sign '+' or '-', found '('", 1, 5),
    ('negi', "expected sign '+' or '-', found ''", 1, 5),
    ('proj1(x)', "expected sign '+' or '-', found '('", 1, 6),
    ('capp*(x, y)', "unexpected character '*'", 1, 5),
    ('abs+[a^s+](x, y)', "expected '[', found '+'", 1, 4),
    ('pair+ x, y)', "expected '(', found 'x'", 1, 7),
    ('pair+(x y)', "expected ',', found 'y'", 1, 9),
    ('pair+(x, y', "expected ')', found 'end of input'", 1, 11),
    ('pair+(x, y))', "trailing input ')'", 1, 12),
    ('x y', "trailing input 'y'", 1, 3),
    ('clam+(pair : a^c-. x)', "expected a binder name, found 'pair'", 1, 7),
    ('clam+((x) : a^c-. x)', "expected a binder name, found '('", 1, 7),
    ('clam+(_bot0 : a^c-. x)', "'_bot0' is reserved", 1, 7),
    ('clam+(1 : a^c-. x)', "expected a binder name, found '1'", 1, 7),
    ('clam+(x a^c-. x)', "expected ':', found 'a'", 1, 9),
    ('clam+(x : a^c- x)', "expected '.', found 'x'", 1, 16),
    ('clam+(x : a. x)', "expected a mode annotation '^', found '.'", 1, 12),
    ('clam+(x : (a^s+)^c-. x)', 'modes cannot be nested', 1, 13),
    ('clam+(x : a^s+^c-. x)', "expected '.', found '^'", 1, 15),
    ('clam+(x : a^q-. x)', "expected strength 's' or 'c', found 'q'", 1, 13),
    ('clam+(x : a^s. x)', "expected sign '+' or '-', found '.'", 1, 14),
    ('clam+(x : case^s+. x)', "'case' is a reserved word", 1, 11),
    ('abs(x, y)', "expected '[', found '('", 1, 4),
    ('abs[a^s+(x, y)', "expected ']', found '('", 1, 9),
    ('abs[a^s+]x, y)', "expected '(', found 'x'", 1, 10),
    ('abs[a^s+](x y)', "expected ',', found 'y'", 1, 13),
    ('abs[a^s+](x, y', "expected ')', found 'end of input'", 1, 15),
    ('abs[_bot0^s+](x, y)', "'_bot0' is reserved for the falsity encoding", 1, 10),
    ('abs[(a & _bot0)^s+](x, y)', "'_bot0' is reserved for the falsity encoding", 1, 16),
    # the reserved atom is judged once its proposition closes, at the token after it
    ('abs[(_bot0 & a)^s+](x, y)', "'_bot0' is reserved for the falsity encoding", 1, 16),
    ('abs[(a & (~_bot0 | b))^s+](x, y)', "'_bot0' is reserved for the falsity encoding", 1, 23),
    ('abs[(_bot0 & (a ^ b))^s+](x, y)', 'modes cannot be nested', 1, 17),
    ('abs[(_bot0 & a)^q+](x, y)', "'_bot0' is reserved for the falsity encoding", 1, 16),
    ('abs[(a % b)^s+](x, y)', "unexpected character '%'", 1, 8),
    ('abs[(a ^ b)^s+](x, y)', 'modes cannot be nested', 1, 8),
    ('case+(x y : a^c+. y, z : b^c+. z)', "expected ',', found 'y'", 1, 9),
    ('case+(x, y : a^c+. y z : b^c+. z)', "expected ',', found 'z'", 1, 22),
    ('case+(x, y : a^c+. y, z : b^c+. z', "expected ')', found 'end of input'", 1, 34),
    ('case+(x, y : a^c+. y, z : b^c+. z) w', "trailing input 'w'", 1, 36),
    ('case+(x, nege : a^c+. y, z : b^c+. z)', "expected a binder name, found 'nege'", 1, 10),
    ('case+(x, y : a^c+. y, in1 : b^c+. z)', "expected a binder name, found 'in1'", 1, 23),
    # a binder is named as a variable is: no malformed index either
    ('clam+(proj3 : a^c-. x)', "expected a binder name, found 'proj3'", 1, 7),
    ('case+(x, in12 : a^c+. y, z : b^c+. z)', "expected a binder name, found 'in12'", 1, 10),
    # and so is an atom
    ('clam+(x : (proj3 | b)^c-. x)', "'proj3' is a reserved word", 1, 12),
    ('abs', "expected '[', found 'end of input'", 1, 4),
    ('abs[', "expected a pure proposition, found 'end of input'", 1, 5),
    ('abs[a', "expected a mode annotation '^', found 'end of input'", 1, 6),
    ('abs[a^', "expected strength 's' or 'c', found ''", 1, 7),
    ('abs[a^s', "expected sign '+' or '-', found ''", 1, 8),
    ('abs[a^s+', "expected ']', found 'end of input'", 1, 9),
    ('abs[a^s+]', "expected '(', found 'end of input'", 1, 10),
    ('abs[a^s+](', "expected a term, found 'end of input'", 1, 11),
    ('abs[a^s+](x', "expected ',', found 'end of input'", 1, 12),
    ('abs[a^s+](x,', "expected a term, found 'end of input'", 1, 13),
    ('abs[a^s+](x, y', "expected ')', found 'end of input'", 1, 15),
    ('case+', "expected '(', found 'end of input'", 1, 6),
    ('case+(', "expected a term, found 'end of input'", 1, 7),
    ('case+(x', "expected ',', found 'end of input'", 1, 8),
    ('case+(x,', "expected a binder name, found ''", 1, 9),
    ('case+(x, y', "expected ':', found 'end of input'", 1, 11),
    ('case+(x, y :', "expected a pure proposition, found 'end of input'", 1, 13),
    ('case+(x, y : a^c+', "expected '.', found 'end of input'", 1, 18),
    ('case+(x, y : a^c+.', "expected a term, found 'end of input'", 1, 19),
    ('case+(x, y : a^c+. y', "expected ',', found 'end of input'", 1, 21),
    ('case+(x, y : a^c+. y,', "expected a binder name, found ''", 1, 22),
    ('case+(x, y : a^c+. y, z : b^c+. z', "expected ')', found 'end of input'", 1, 34),
    ('clam+(', "expected a binder name, found ''", 1, 7),
    ('clam+(x', "expected ':', found 'end of input'", 1, 8),
    ('clam+(x :', "expected a pure proposition, found 'end of input'", 1, 10),
    ('clam+(x : a^c-', "expected '.', found 'end of input'", 1, 15),
    ('clam+(x : a^c-.', "expected a term, found 'end of input'", 1, 16),
    ('clam+(x : a^c-. x', "expected ')', found 'end of input'", 1, 18),
    ('proj1+', "expected '(', found 'end of input'", 1, 7),
    ('proj1+(', "expected a term, found 'end of input'", 1, 8),
    ('proj1+(x', "expected ')', found 'end of input'", 1, 9),
    ('nege-(', "expected a term, found 'end of input'", 1, 7),
    ('capp+(f,', "expected a term, found 'end of input'", 1, 9),
    ('in2-(x', "expected ')', found 'end of input'", 1, 7),
    ('pair+(x, $)', "unexpected character '$'", 1, 10),
    ('pair+(x,\n  proj3+(y))', 'projection index must be 1 or 2', 2, 3),
    ('clam+(x : a^c-.\n\n   )', "expected a term, found ')'", 3, 4),
    ('pair+(x, y) # c\n z', "trailing input 'z'", 2, 2),
    ('negi+(x))', "trailing input ')'", 1, 9),
    ('pair-(x, y, z)', "expected ')', found ','", 1, 11),
]


@pytest.mark.parametrize("text, message, line, col", ERRORS)
def test_parse_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_term(text)
    assert (str(err.value), err.value.line, err.value.col) == (f"{line}:{col}: {message}", line, col)


def test_prefixes_of_keywords_are_variables():
    assert parse_term("proj") == Var("proj")
    assert parse_term("in") == Var("in")
    assert parse_term("proj1x") == Var("proj1x")
    t = parse_term("clam+(proj : a^c-. pair+(proj, in))")
    assert t == CLam("+", MProp(PVar("a"), Mode("c", "-")), Pair("+", Bound(0), Var("in")))
    assert t.hint == "proj"
    assert parse_term("clam+(_bot0 : a^c-. _bot0)", allow_reserved=True).body == Bound(0)


# -- the printed text of a fixed corpus --------------------------------------

def _nk_proofs(rng, props):
    """Small NK proofs over the NK rules that need no refutation."""
    def proof(hyps, depth):
        kind = rng.choice(["lem", "hyp"] if depth == 0 or not hyps else
                          ["lem", "hyp", "andi", "ande", "ori", "impi", "impe"])
        if kind == "hyp" and hyps:
            return nk_hyp(hyps, rng.randrange(len(hyps)))
        if kind in ("lem", "hyp"):
            return nk_lem(hyps, props.pure(2))
        if kind == "andi":
            return nk_and_i(proof(hyps, depth - 1), proof(hyps, depth - 1))
        if kind == "ande":
            return nk_and_e(rng.choice((1, 2)), nk_and_i(proof(hyps, depth - 1),
                                                         proof(hyps, depth - 1)))
        if kind == "ori":
            return nk_or_i(rng.choice((1, 2)), props.pure(2), proof(hyps, depth - 1))
        x = props.pure(1)
        a = Or(x, Neg(x))
        fun = nk_imp_i(a, proof(hyps + (a,), depth - 1))
        return fun if kind == "impi" else nk_imp_e(fun, nk_lem(hyps, x))

    for _ in range(40):
        hyps = tuple(props.pure(2) for _ in range(rng.randrange(3)))
        yield proof(hyps, rng.randrange(4))


def _printed(t: Term, mode: str) -> list[str]:
    """The term, its dual, its normal form and its trace as the CLI prints them."""
    nf, trace = normalize(t, mode=mode)
    lines = [print_term(t), print_term(dual(t)), print_term(nf)]
    current = t
    for entry in trace:
        env = binder_names_at(current, entry.position)
        lines.append(f"{entry.position} {entry.rule} {print_term(entry.redex, env)} ==> "
                     f"{print_term(entry.reduct, env)} | {print_term(entry.redex)}")
        current = replay(current, (entry,))
    return lines


def _corpus() -> list[str]:
    rng = random.Random(20211)
    gen = TermGen(rng)
    terms = []
    for make_ctx in (gen.base_context, gen.classical_context):
        for _ in range(120):
            ctx = make_ctx()
            terms.append(gen.sized_term(ctx, gen.props.mprop(2), 4, max_size=60))
    atoms = [PVar(n) for n in "abcdef"]
    for k in range(1, 7):
        conj = atoms[k - 1]
        for a in reversed(atoms[:k - 1]):
            conj = And(a, conj)
        terms += [mk_lem(conj, "+"), mk_lem(conj, "-")]
    terms += [embed_nk(p) for p in _nk_proofs(rng, PropGen(rng))]
    terms.append(embed_nk(parse_nk((GOLDEN / "andcomm.nk").read_text())))
    terms += [parse_judgment(path.read_text())[1] for path in sorted(GOLDEN.glob("*.prk"))]
    # hints that collide with a free variable, a keyword or an outer binder,
    # empty hints, and indices that point out of the term
    p = MProp(PVar("a"), Mode("c", "-"))
    terms += [
        CLam("+", p, CApp("+", Var("x"), Bound(0)), hint="x"),
        CLam("+", p, CLam("-", p, Pair("+", Bound(0), Bound(1)), hint="x"), hint="x"),
        CLam("+", p, Bound(0), hint="pair"),
        CLam("-", p, Var("x2"), hint=""),
        Case("+", Var("x"), p, Pair("-", Bound(0), Var("y")), p, Bound(1), hint1="x", hint2="y"),
        NegE("-", NegI("-", Bound(3))),
    ]
    lines = []
    for t in terms:
        lines += _printed(t, PLAIN) + _printed(t, ETA)
    return lines


def test_printed_corpus_is_pinned():
    text = "\n".join(_corpus()).encode()
    assert hashlib.sha256(text).hexdigest() == "3b49e7527de2373e2b5b429f47f3707c106a02501ef51fec6ac1e3a08c26b7e8"


def test_print_term_is_pinned_over_generated_terms():
    from perfbench.reference import NKGen
    rng = random.Random(2021)
    gen = TermGen(rng)
    terms = [gen.sized_term(gen.base_context(), gen.props.mprop(2), 4, max_size=60)
             for _ in range(1000)]
    nkgen = NKGen(rng, PropGen(rng))
    for _ in range(60):
        hyps = tuple(nkgen.props.pure(2) for _ in range(rng.randrange(3)))
        text, _ = nkgen.proof(hyps, rng.randrange(1, 5))
        terms.append(embed_nk(parse_nk("".join(f"hyp : {h}\n" for h in hyps) + f"|- {text}\n")))
    terms.append(embed_nk(parse_nk((GOLDEN / "andcomm.nk").read_text())))
    terms += [parse_judgment(path.read_text())[1] for path in sorted(GOLDEN.glob("*.prk"))]
    text = "\n".join(map(print_term, terms)).encode()
    assert hashlib.sha256(text).hexdigest() == "4011529036f3c3793786f9b8fb20f2ff235c5b2339b7b371d86979e82c27b184"


# -- deep terms at the default recursion limit --------------------------------

def _same_tree(s: Term, t: Term) -> bool:
    """Structural equality, hints included, on an explicit stack (dataclass
    == recurses once per node)."""
    stack = [(s, t)]
    while stack:
        u, v = stack.pop()
        if type(u) is not type(v):
            return False
        for f in fields(u):
            a, b = getattr(u, f.name), getattr(v, f.name)
            if isinstance(a, Term):
                stack.append((a, b))
            elif a != b:
                return False
    return True


def test_round_trip_of_a_deep_negation_chain():
    n = 50_000  # 10^5 constructors
    text = "nege-(negi-(" * n + "x" + "))" * n
    expected = Var("x")
    for _ in range(n):
        expected = NegE("-", NegI("-", expected))
    t = parse_term(text)
    assert _same_tree(t, expected)
    assert print_term(t) == text


def test_deep_propositions_read_at_the_default_recursion_limit():
    n = 100_000
    for text in ("~" * n + "a", "(" * n + "a" + " & b)" * n, "(a | " * n + "b" + ")" * n):
        p = parse_mprop(text + "^c+")
        assert str(p.base) == text and prop_depth(p.base) == n + 1  # == and hash still recurse


def test_a_deep_sequent_is_decided_at_the_default_recursion_limit():
    n = 100_000
    assert decide_oplus(*parse_sequent("~" * n + "a^c+\n|- " + "~" * (n + 2) + "a^c+\n"))
    assert not decide_oplus(*parse_sequent("|- " + "~" * n + "(a & ~a)^c+\n"))


def test_round_trip_of_deep_binder_nests():
    n = 2_000
    p, q = "a^c-", "(a | b)^c+"
    clams = "".join(f"clam+(x{k} : {p}. " for k in range(n)) + "pair+(x0, x1999)" + ")" * n
    cases = ("".join(f"case+(s{k}, x{k} : {q}. " for k in range(n)) + "pair-(x0, s0)"
             + "".join(f", y{k} : {q}. y{k})" for k in reversed(range(n))))
    pa, pq = MProp(PVar("a"), Mode("c", "-")), MProp(Or(PVar("a"), PVar("b")), Mode("c", "+"))
    clam_tree = Pair("+", Bound(n - 1), Bound(0))
    case_tree = Pair("-", Bound(n - 1), Var("s0"))
    for k in reversed(range(n)):
        clam_tree = CLam("+", pa, clam_tree, hint=f"x{k}")
        case_tree = Case("+", Var(f"s{k}"), pq, case_tree, pq, Bound(0),
                         hint1=f"x{k}", hint2=f"y{k}")
    for text, expected in ((clams, clam_tree), (cases, case_tree)):
        t = parse_term(text)
        assert _same_tree(t, expected)
        assert print_term(t) == text


# -- tokens ------------------------------------------------------------------
# The tokenizer once kept a running line and column; now a position is
# worked out only for the token an error names.

_RUNNING_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*|_bot0)
    | (?P<number>[0-9]+)
    | (?P<sym>[()\[\],.:^&|~+-])
""", re.VERBOSE)


def _running_tokens(text):
    """The tokenizer as it was: (kind, text, line, col) for each token."""
    toks, line, col, pos = [], 1, 1, 0
    while pos < len(text):
        m = _RUNNING_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, val = m.lastgroup, m.group()
        if kind != "ws":
            toks.append((kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


def _tokens_as_the_running_reference(text) -> bool:
    """Check that _Tokens gives the reference's tokens at its positions, or
    its error, on text; return whether text tokenizes."""
    try:
        want = _running_tokens(text)
    except ParseError as e:
        with pytest.raises(ParseError) as err:
            _Tokens(text)
        assert (str(err.value), err.value.line, err.value.col) == (str(e), e.line, e.col)
        return False
    tk = _Tokens(text)
    got = []
    for at, val in enumerate(tk.words):
        e = tk.error("", at)
        got.append((_KINDS.get(val[:1], "ident"), val, e.line, e.col))
    assert got == want, text
    return True


def test_tokens_match_the_running_reference():
    from tests.test_classical import _NK_HAND_ROWS
    from tests.test_cli import FILE_ERRORS, MODEL_ERRORS
    golden = [path.read_text() for path in sorted(GOLDEN.iterdir())]
    texts = [line for text in golden for line in text.splitlines()] + golden
    texts += [text for text, *_ in ERRORS] + [text for _, text, _ in FILE_ERRORS]
    texts += [text for text, _ in MODEL_ERRORS] + _NK_HAND_ROWS + ["", "x\x85y  z"]
    texts.append("x : a^c+  # a hypothesis\r\n\t\r\n\n  |- pair+(x,\t# split\n\t\ty) # end\n")
    for text in texts:
        _tokens_as_the_running_reference(text)
    # an unexpected character at the start, middle and end of a line, and after a newline
    unexpected = ["$x", "pair+(x, @y)", "pair+(x, y)%", "x\n%y", "x : a^c+\r\n\t!|- x",
                  "x\n\n\xe9", "(a & b)\n  # c\n\t?"]
    assert not any(map(_tokens_as_the_running_reference, unexpected))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab_1 \t\r\n#()^+-,.:~&|$\xe9"), max_size=40))
def test_tokens_of_random_text_match_the_running_reference(text):
    _tokens_as_the_running_reference(text)


# -- random text -------------------------------------------------------------

_PIECES = ["abs", "pair", "proj1", "proj3", "in2", "case", "negi", "nege", "clam",
           "capp", "x", "y", "proj", "_bot0", "a", "b", "(", ")", "[", "]", ",", ".",
           ":", "^", "s", "c", "+", "-", "&", "|", "~", " ", "\n", "#", "1", "$"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40),
                 st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)))
def test_random_text_raises_only_parse_errors(text):
    try:
        t = parse_term(text)
    except ParseError:
        return
    assert parse_term(print_term(t)) == t


# -- binder names ------------------------------------------------------------
# The printers name binders through a Scope.  The reference keeps the open
# names in a tuple and asks fresh_name, as the printers did before.

def test_scope_names_as_fresh_name_does(rng):
    hints = ["x", "x2", "x3", "u", "u2", "k"]
    for _ in range(300):
        env = tuple(rng.choice(hints) for _ in range(rng.randrange(4)))
        scope, ref = Scope(env), env
        for _ in range(rng.randrange(60)):
            if ref[len(env):] and rng.random() < 0.4:
                scope.pop()
                ref = ref[1:]
            else:
                hint = rng.choice(hints)
                taken = frozenset(rng.sample(hints + ["x4", "u3"], rng.randrange(3)))
                name = fresh_name(hint, set(ref) | taken)
                assert scope.push(hint, taken) == name
                ref = (name,) + ref
            assert [scope.name(i) for i in range(len(ref) + 1)] == [*ref, f"#{len(ref)}"]


def test_a_nest_whose_hint_is_taken_prints_as_fast_as_one_with_distinct_hints():
    def best(t):
        return min(timeit.repeat(lambda: print_term(t), number=1, repeat=3))

    # clam+(x : a^c-. capp+(…, #0)) over capp+(p, x): the free x takes the hint, never opened
    shared = distinct = CApp("+", Var("p"), Var("x"))
    for i in range(4000):
        shared = CLam("+", MProp(PVar("a"), Mode("c", "-")), CApp("+", shared, Bound(0)), "x")
        distinct = CLam("+", MProp(PVar("a"), Mode("c", "-")), CApp("+", distinct, Bound(0)),
                        f"v{i}")
    assert print_term(shared).startswith("clam+(x2 : a^c-. capp+(clam+(x3 : ")
    times = best(shared), best(distinct)
    # about 1.3; knowing a hint's names open only while the hint was open made it 30 and more
    assert times[0] < 3 * times[1], times


# -- the reader against the one before it ------------------------------------
# The reader once kept each token as (kind, text, offset) and looked each name
# up in a list of the open binders' names; both are copied here as they were.

_OLD_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*|_bot0)
    | (?P<number>[0-9]+)
    | (?P<sym>[()\[\],.:^&|~+-])
    | (?P<bad>.)
""", re.VERBOSE)


class _OldTokens:
    """A text's tokens, each (kind, text, offset), and an "eof" one last."""

    def __init__(self, text):
        self.text, self.i = text, 0
        self.toks = [(m.lastgroup, m.group(), m.start()) for m in _OLD_TOKEN_RE.finditer(text)
                     if m.lastgroup != "ws"]
        for kind, val, at in self.toks:
            if kind == "bad":
                raise self.error(f"unexpected character {val!r}", at)
        self.toks.append(("eof", "", len(text)))

    def end(self):
        kind, val, _ = self.peek()
        if kind != "eof":
            raise self.error(f"trailing input {val!r}")

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, val):
        _, v, at = self.next()
        if v != val:
            raise self.error(f"expected {val!r}, found {v or 'end of input'!r}", at)

    def error(self, message, at=None):
        at = self.toks[self.i][2] if at is None else at
        return ParseError(message, self.text.count("\n", 0, at) + 1, at - self.text.rfind("\n", 0, at))


def _old_keywords():
    """keyword -> (class, the fields it fixes, the steps after it), as SYNTAX gave them."""
    keywords = {}
    for cls, template in SYNTAX.items():
        types, steps, hint = {f.name: f.type for f in fields(cls)}, [], None
        for literal, name, _, _ in Formatter().parse(template):
            kind = types.get(name)
            steps.append((literal, literal.replace(" ", ""), name, kind, kind == "Term" and hint))
            hint = name if kind == "str" else None if kind == "Term" else hint
        (first, *rest) = steps
        head = re.match("[a-z]+", first[0]).group()
        if first[2] == "index":
            keywords.update({f"{head}{i}": (cls, {"index": i}, rest) for i in (1, 2)})
        else:
            keywords[head] = (cls, {}, [("", first[1][len(head):], *first[2:])] + rest)
    return keywords


_OLD_KEYWORDS = _old_keywords()


def _old_parse_term(text, allow_reserved=False):
    tk = _OldTokens(text)
    stack = []
    scope = []
    while True:
        _, val, at = tk.next()
        if val in _OLD_KEYWORDS:
            stack.append((*_OLD_KEYWORDS[val], {}, 0, len(scope)))
        elif is_name(val, allow_reserved):
            t = Bound(scope[::-1].index(val)) if val in scope else Var(val)
        elif bad := _BAD_INDEX_RE.match(val):
            raise tk.error(f"{_INDEXED[bad[1]]} index must be 1 or 2", at)
        elif val == RESERVED_FALSITY:
            raise tk.error(f"{RESERVED_FALSITY!r} is reserved", at)
        else:
            raise tk.error(f"expected a term, found {val or 'end of input'!r}", at)
        while stack:
            cls, fixed, steps, got, i, bound = stack.pop()
            if i:
                got[steps[i - 1][2]] = t
            for _, tokens, name, kind, _ in steps[i:]:
                i += 1
                for token in tokens:
                    tk.expect(token)
                if kind == "Term":
                    stack.append((cls, fixed, steps, got, i, bound))
                    break
                if kind == "MProp":
                    got[name] = _parse_mprop(tk, allow_reserved)
                elif name:
                    _, val, at = tk.next()
                    if kind == "Sign" and val not in ("+", "-"):
                        raise tk.error(f"expected sign '+' or '-', found {val!r}", at)
                    if kind == "str":
                        if not is_name(val, allow_reserved):
                            raise tk.error(f"{val!r} is reserved" if val == RESERVED_FALSITY else
                                           f"expected a binder name, found {val!r}", at)
                        scope[bound:] = [val]
                    got[name] = val
            else:
                del scope[bound:]
                t = cls(**fixed, **got)
                continue
            break
        else:
            tk.end()
            return t


def _reads_as_the_old_reader(text, allow_reserved=False):
    """Check that parse_term gives the old reader's term, hints included, or
    its error with the same message and position."""
    try:
        want = _old_parse_term(text, allow_reserved)
    except ParseError as e:
        with pytest.raises(ParseError) as err:
            parse_term(text, allow_reserved)
        assert (err.value.message, err.value.line, err.value.col) == (e.message, e.line, e.col), text
        return
    assert _same_tree(parse_term(text, allow_reserved), want), text


def _goal_texts():
    """What follows '|-' on each golden file's last line."""
    return [line.split("|-", 1)[1] for path in sorted(GOLDEN.iterdir())
            for line in path.read_text().splitlines() if line.startswith("|-")]


def test_golden_texts_read_as_the_old_reader():
    for text in _goal_texts() + [text for text, *_ in ERRORS]:
        _reads_as_the_old_reader(text)
        _reads_as_the_old_reader(text, allow_reserved=True)


def test_printed_terms_read_as_the_old_reader():
    from perfbench.reference import NKGen
    rng = random.Random(27)
    gen = TermGen(rng)
    for _ in range(300):
        make_ctx = rng.choice((gen.base_context, gen.classical_context))
        _reads_as_the_old_reader(print_term(gen.sized_term(make_ctx(), gen.props.mprop(2), 4)))
    nkgen = NKGen(rng, PropGen(rng))
    for _ in range(40):  # embed_nk's terms name the reserved falsity atom
        hyps = tuple(nkgen.props.pure(2) for _ in range(rng.randrange(3)))
        text, _ = nkgen.proof(hyps, rng.randrange(1, 5))
        t = embed_nk(parse_nk("".join(f"hyp : {h}\n" for h in hyps) + f"|- {text}\n"))
        _reads_as_the_old_reader(print_term(t), allow_reserved=True)


_BASES = _goal_texts() + ["clam+(x : a^c-. case+(x, y : a^c+. pair+(y, x), z : b^c+. in1-(z)))  # end",
                          "abs[a^s+](proj1+(p), nege-(q))\n"]
_EDIT = st.tuples(st.sampled_from(("insert", "delete", "swap")), st.integers(0, 1 << 16),
                  st.sampled_from(_PIECES))


@seed(27)
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_BASES), st.lists(_EDIT, min_size=1, max_size=3), st.booleans())
def test_texts_with_a_token_inserted_deleted_or_swapped_read_as_the_old_reader(base, edits,
                                                                              allow_reserved):
    toks = re.findall(r"[A-Za-z][A-Za-z0-9_]*|_bot0|[0-9]+|\s+|.", base)
    for how, at, piece in edits:
        at %= len(toks) + (how == "insert")
        if how == "insert":
            toks.insert(at, piece)
        elif how == "delete" and toks:
            del toks[at]
        elif toks:
            toks[at] = piece
    _reads_as_the_old_reader("".join(toks), allow_reserved)


def test_reading_distinct_binder_names_is_linear():
    def best(text):
        return min(timeit.repeat(lambda: parse_term(text), number=1, repeat=3))

    # 8,000 nested binders with distinct names, each named at the bottom: 17 tokens a level
    n = 8000
    nest = ("".join(f"clam+(x{i} : a^c-. capp+(" for i in range(n)) + "p"
            + "".join(f", x{i}))" for i in reversed(range(n))))
    chain = "nege-(negi-(" * (17 * n // 8) + "x" + "))" * (17 * n // 8)  # 8 tokens a pair
    times = best(nest), best(chain)
    # about 1; copying the open names' list for each name made it 3.5, and 6 at 16,000
    assert times[0] < 3 * times[1], times


# -- names -------------------------------------------------------------------
# is_name states the rule; it once parsed its text as a term instead.

def _parses_as_itself(text):
    try:
        return parse_term(text) == Var(text)
    except ParseError:
        return False


_NAME_PIECES = ["x", "A", "_", "0", "3", "12", "proj", "in", "pair", "case", "proj1", "in2",
                "_bot0", " ", "\t", "\n", "#", "\xe9", "("]


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(max_size=12),
                 st.lists(st.sampled_from(_NAME_PIECES), max_size=4).map("".join)))
def test_is_name_is_the_parse_based_rule(text):
    assert is_name(text) == _parses_as_itself(text)


def test_is_name_examples():
    names = ["x", "x2", "X_1", "proj", "in", "proj1x", "inx", "pair2", "abs_"]
    others = ["", "2x", "x y", " x", "x\n", "x#", "_x", "\xe9", "pair", "case", "proj1",
              "in2", "proj3", "proj0", "in12", "_bot0"]
    assert all(map(is_name, names)) and not any(map(is_name, others))
    assert is_name("_bot0", allow_reserved=True)


_HINTS = ["x", "proj", "in", "pair", "proj3", "in12", "_bot0", "x y", "2x", ""]


def _nest(kinds, hint, free):
    """Binders of kinds, outermost first, each named hint, over a body that
    uses every bound index and every free name."""
    body = Var(free[-1]) if free else Bound(0)
    for k in range(len(kinds)):
        body = Pair("+", Bound(k), body)
    for name in free[:-1]:
        body = Pair("-", Var(name), body)
    p = MProp(PVar("a"), Mode("c", "-"))
    for kind in reversed(kinds):
        body = (CLam("+", p, body, hint=hint) if kind == "clam" else
                Case("+", Var(free[0] if free else "s"), p, body, p, body, hint1=hint, hint2=hint))
    return body


def test_printed_binders_are_names_that_read_back():
    for hint in _HINTS:
        for depth in (1, 2, 3):
            for kinds in itertools.product(("clam", "case"), repeat=depth):
                for free in ((), ("x",), ("proj", "x2"), ("in", "x", "x2", "x3")):
                    t = _nest(kinds, hint, free)
                    assert parse_term(print_term(t)) == t, (hint, kinds, free)


def test_a_binder_without_a_hint_prints_as_one_hinted_x():
    # typing and the F printers name such a binder x, too
    t = CLam("+", MProp(PVar("a"), Mode("c", "-")), Var("y"), hint=None)
    assert print_term(t) == print_term(CLam(t.sign, t.annot, t.body, hint="x")) == "clam+(x : a^c-. y)"
    for depth in (1, 2):
        for kinds in itertools.product(("clam", "case"), repeat=depth):
            for free in ((), ("x",), ("in", "x", "x2", "x3")):
                t = _nest(kinds, None, free)
                assert print_term(t) == print_term(_nest(kinds, "x", free)), (kinds, free)
                assert parse_term(print_term(t)) == t, (kinds, free)

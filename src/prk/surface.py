"""Concrete syntax: parsing and printing of propositions and terms.

Grammar (fully parenthesized):

    prop ::= pure mode
    pure ::= ident | "(" pure "&" pure ")" | "(" pure "|" pure ")" | "~" pure
    mode ::= "^s+" | "^s-" | "^c+" | "^c-"

    term ::= ident | one of the templates in SYNTAX, below

A name is an ASCII identifier, from a letter, that is no keyword or malformed index
(`proj3`); `_bot0` is one only with allow_reserved=True.  Every reader asks is_name.
Terms print through `print_tree`, which lives in `syntax` beside the other walks.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import fields
from functools import partial
from itertools import islice
from string import Formatter, ascii_letters, digits
from typing import Any, Callable, Iterator

from .errors import ParseError
from .syntax import (MODE_OF, And, Bound, CApp, CLam, Case, Abs, Inj, MProp, Mode, Neg,
                     NegE, NegI, Or, PVar, Pair, Proj, PureProp, Scope, Term, Var,
                     fv, print_tree)

RESERVED_FALSITY = "_bot0"

_IDENT_RE = re.compile("[A-Za-z][A-Za-z0-9_]*")
# A token, after the blanks and comments before it: a name, a number or one
# character; "" is the end.  The group starts at the token's offset.
_TOKEN_RE = re.compile(rf"(?:\s+|#[^\n]*)*"
                       rf"({_IDENT_RE.pattern}|{re.escape(RESERVED_FALSITY)}|[0-9]+|.|\Z)")
# a token's kind by its first character ("_" starts only RESERVED_FALSITY); a
# one-character token whose character is not here is an unexpected character
_KINDS = {"": "eof", **dict.fromkeys(ascii_letters, "ident"), **dict.fromkeys(digits, "number"),
          **dict.fromkeys("()[],.:^&|~+-", "sym")}

_INDEXED = {"proj": "projection", "in": "injection"}
_BAD_INDEX_RE = re.compile(r"(proj|in)[0-9]+$")


class _Tokens:
    """A text's tokens, the strings of one findall, "" last; next() gives
    (kind, text, index).  Positions are worked out only for the token an
    error names."""

    def __init__(self, text: str):
        self.text, self.i, self.words = text, 0, _TOKEN_RE.findall(text)
        if self.words[-2:] == ["", ""]:  # blanks or a comment last: "" after them, "" at the end
            self.words.pop()
        if bad := [w for w in set(self.words) if len(w) == 1 and w not in _KINDS]:
            at = min(map(self.words.index, bad))
            raise self.error(f"unexpected character {self.words[at]!r}", at)

    def end(self) -> None:
        if val := self.words[self.i]:
            raise self.error(f"trailing input {val!r}")

    def next(self) -> tuple[str, str, int]:
        w, self.i = self.words[self.i], self.i + 1
        return _KINDS.get(w[:1], "ident"), w, self.i - 1

    def expect(self, val: str) -> None:
        if (v := self.words[self.i]) != val:
            raise self.error(f"expected {val!r}, found {v or 'end of input'!r}")
        self.i += 1

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A parse error at line:col of token at, by default the next one."""
        tokens = _TOKEN_RE.finditer(self.text)
        at = next(islice(tokens, self.i if at is None else at, None)).start(1)
        return ParseError(message, self.text.count("\n", 0, at) + 1, at - self.text.rfind("\n", 0, at))


def _parse_base(tk: _Tokens, allow_reserved: bool = False) -> PureProp:
    """A pure proposition, which must not name RESERVED_FALSITY unless
    allow_reserved; that error comes once it closes, at the token after it."""
    stack: list = []  # with no recursion: "~", "(" and (left, operator) wait on what follows
    reserved = False  # RESERVED_FALSITY read where it is not allowed
    while True:
        while (tok := tk.next())[1] in ("~", "("):
            stack.append(tok[1])
        kind, val, at = tok
        if kind != "ident":
            raise tk.error(f"expected a pure proposition, found {val or 'end of input'!r}", at)
        if not is_name(val, allow_reserved=True):
            raise tk.error(f"{val!r} is a reserved word", at)
        reserved |= val == RESERVED_FALSITY and not allow_reserved
        p: PureProp = PVar(val)
        while stack:
            top = stack.pop()
            if top == "~":
                p = Neg(p)
            elif top == "(":
                _, op, at = tk.next()
                if op == "^":
                    raise tk.error("modes cannot be nested", at)
                if op not in ("&", "|"):
                    raise tk.error(f"expected '&' or '|', found {op!r}", at)
                stack.append((p, op))
                break
            else:
                tk.expect(")")
                p = And(top[0], p) if top[1] == "&" else Or(top[0], p)
        else:
            if reserved:
                raise tk.error(f"{RESERVED_FALSITY!r} is reserved for the falsity encoding")
            return p


def _parse_mode(tk: _Tokens) -> Mode:
    _, val, at = tk.next()
    if val != "^":
        raise tk.error(f"expected a mode annotation '^', found {val or 'end of input'!r}", at)
    _, st, at = tk.next()
    if st not in ("s", "c"):
        raise tk.error(f"expected strength 's' or 'c', found {st!r}", at)
    _, sg, at = tk.next()
    if sg not in ("+", "-"):
        raise tk.error(f"expected sign '+' or '-', found {sg!r}", at)
    return MODE_OF[st, sg]


def parse_mprop(text: str, allow_reserved: bool = False) -> MProp:
    tk = _Tokens(text)
    p = _parse_mprop(tk, allow_reserved)
    if tk.words[tk.i] == "^":
        raise tk.error("modes cannot be nested")
    tk.end()
    return p


def _parse_mprop(tk: _Tokens, allow_reserved: bool = False) -> MProp:
    return MProp(_parse_base(tk, allow_reserved), _parse_mode(tk))


def content_lines(text: str) -> Iterator[tuple[int, int, str]]:
    """(line number, column, line) for each line not blank once its '#'
    comment is cut; the column is where the line's text starts.  Only '\\n'
    ends a line, as in _Tokens."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if content := line.strip():
            yield lineno, len(line) - len(line.lstrip()) + 1, content


def read_entailment(text: str, what: str, noun: str, hypothesis: Callable,
                    goal: Callable) -> tuple[list, Any]:
    """([hypothesis(line) per line], goal(text, hypotheses)) for
    lines of hypotheses then one '|- <what>' line, the last; the shape is
    checked before the '|-' text is read.  Readers raise at line 1 of their text."""
    hyps, goal_at = [], None
    for lineno, col, line in content_lines(text):
        if goal_at is not None:
            raise ParseError(f"the '|- {what}' line must be the last line", lineno, col)
        if line.startswith("|-"):
            goal_at = lineno, col + 2, line[2:]
        else:
            with located(lineno, col):
                hyps.append(hypothesis(line))
    if goal_at is None:
        raise ParseError(f"no {noun} line ('|- ...') found", 1, 1)
    lineno, col, src = goal_at
    with located(lineno, col):
        return hyps, goal(src, hyps)


@contextmanager
def located(line: int, col: int) -> Iterator[None]:
    """Inside, a parse error in a one-line text that starts at line:col of
    a file gives its position in the file."""
    try:
        yield
    except ParseError as e:
        raise ParseError(e.message, line, col + e.col - 1) from None


# ---------------------------------------------------------------------------
# Terms.  SYNTAX is the one statement of each constructor's concrete syntax,
# a template over its fields that parse_term and print_term both read.  A
# hint field names the binder over the next term field.

SYNTAX = {
    Abs: "abs[{annot}]({left}, {right})",
    Pair: "pair{sign}({left}, {right})",
    Proj: "proj{index}{sign}({body})",
    Inj: "in{index}{sign}({body})",
    Case: "case{sign}({scrutinee}, {hint1} : {annot1}. {branch1}, {hint2} : {annot2}. {branch2})",
    NegI: "negi{sign}({body})",
    NegE: "nege{sign}({body})",
    CLam: "clam{sign}({hint} : {annot}. {body})",
    CApp: "capp{sign}({fun}, {arg})",
}


def _steps(cls: type, template: str) -> list[tuple]:
    """(literal, its tokens, field, field type, hint of the binder over it)"""
    types, steps, hint = {f.name: f.type for f in fields(cls)}, [], None
    for literal, name, _, _ in Formatter().parse(template):
        kind = types.get(name)
        steps.append((literal, _Tokens(literal).words[:-1], name, kind, kind == "Term" and hint))
        hint = name if kind == "str" else None if kind == "Term" else hint
    return steps


_PRINT = {cls: _steps(cls, template) for cls, template in SYNTAX.items()}
_KEYWORDS = {}  # keyword -> (class, its fields as the keyword fixes them, the steps after it)
for _cls, _print in _PRINT.items():
    _at = {f.name: i for i, f in enumerate(fields(_cls))}
    # a step: (literal tokens, their count, field position, field type)
    _read = [(tokens, len(tokens), _at.get(name), kind) for _, tokens, name, kind, _ in _print]
    (_head, *_lits), _, _field, _kind = _read[0]
    if _field == _at.get("index"):  # proj1, proj2, in1, in2
        for i in (1, 2):
            _KEYWORDS[f"{_head}{i}"] = (_cls, [i if k == _field else None for k in _at.values()], _read[1:])
    else:
        _KEYWORDS[_head] = (_cls, [None] * len(_at), [(_lits, len(_lits), _field, _kind)] + _read[1:])
BINDER_HINTS = {cls: tuple(s[4] for s in steps if s[3] == "Term") for cls, steps in _PRINT.items()}
_BODIES = {cls: {s[4]: s[2] for s in steps if s[4]} for cls, steps in _PRINT.items()}  # hint -> body


def parse_term(text: str, allow_reserved: bool = False) -> Term:
    """A shift/reduce loop over SYNTAX; each name is resolved against the
    binders open where it is read, in O(1)."""
    tk = _Tokens(text)
    toks, j = tk.words, 0  # the tokens, and the next one's index
    stack = []  # open constructors: (class, fields, steps, step, depth, its open binder's name)
    depth, open_at = 0, {}  # the open binders' count, and each name's depths where it is open
    while True:
        val, j = toks[j], j + 1  # a term starts here
        if val in _KEYWORDS:
            cls, fixed, steps = _KEYWORDS[val]
            stack.append((cls, [*fixed], steps, 0, depth, None))
        elif is_name(val, allow_reserved):
            t = Bound(depth - 1 - depths[-1]) if (depths := open_at.get(val)) else Var(val)
        elif bad := _BAD_INDEX_RE.match(val):
            raise tk.error(f"{_INDEXED[bad[1]]} index must be 1 or 2", j - 1)
        elif val == RESERVED_FALSITY:
            raise tk.error(f"{RESERVED_FALSITY!r} is reserved", j - 1)
        else:
            raise tk.error(f"expected a term, found {val or 'end of input'!r}", j - 1)
        while stack:
            cls, args, steps, i, bound, binder = stack.pop()
            if i:  # t is the term field of step i - 1
                args[steps[i - 1][2]] = t
            for tokens, n, at, kind in steps[i:]:
                i += 1
                if n and toks[j:j + n] != tokens:
                    tk.i = j
                    for token in tokens:
                        tk.expect(token)
                j += n
                if kind == "Term":
                    stack.append((cls, args, steps, i, bound, binder))
                    break
                if kind == "MProp":
                    tk.i = j
                    args[at] = _parse_mprop(tk, allow_reserved)
                    j = tk.i
                elif at is not None:
                    val, j = toks[j], j + 1
                    if kind == "Sign" and val not in ("+", "-"):
                        raise tk.error(f"expected sign '+' or '-', found {val!r}", j - 1)
                    if kind == "str":  # a binder's name, in scope for the next term field
                        if not is_name(val, allow_reserved):
                            raise tk.error(f"{val!r} is reserved" if val == RESERVED_FALSITY else
                                           f"expected a binder name, found {val!r}", j - 1)
                        if binder is not None:
                            open_at[binder].pop()
                        open_at.setdefault(val, []).append(bound)
                        depth, binder = bound + 1, val
                    args[at] = val
            else:
                if binder is not None:
                    open_at[binder].pop()
                    depth = bound
                t = cls(*args)
                continue
            break
        else:
            tk.i = j
            tk.end()
            return t


def is_name(text: str, allow_reserved: bool = False) -> bool:
    """Is text a name, as the module docstring defines it?"""
    if text == RESERVED_FALSITY:
        return allow_reserved
    return bool(_IDENT_RE.fullmatch(text)) and text not in _KEYWORDS and not _BAD_INDEX_RE.match(text)


# ---------------------------------------------------------------------------
# Printing


def print_mprop(p: MProp) -> str:
    return str(p)


def print_term(t: Term, env: tuple[str, ...] = ()) -> str:
    """Render a term through SYNTAX, naming each binder after its hint
    without capture; env names the indices free in t, innermost first."""
    scope = Scope(env)

    def bind(hint: str, taken: frozenset[str]) -> str:  # a keyword hint numbers itself: pair2
        if not is_name(x := scope.push(hint or "x", taken, _KEYWORDS)):  # 'x y', proj3; proj once taken
            scope.pop()
            x = scope.push("x", taken)  # the text reads back only if every binder is a name
        return x

    def layout(u: Term) -> list:
        if type(u) is Var:
            return [u.name]
        if type(u) is Bound:
            return [scope.name(u.index)]
        parts: list = []
        for literal, _, name, kind, binder in _PRINT[type(u)]:
            parts.append(literal)
            if kind == "Term":
                parts += [getattr(u, name), scope.pop] if binder else [getattr(u, name)]
            elif kind == "str":  # a binder's name, chosen when it is reached
                body = getattr(u, _BODIES[type(u)][name])
                parts.append(partial(bind, getattr(u, name), fv(body)))
            elif name:
                parts.append(str(getattr(u, name)))
        return parts

    return print_tree(t, layout)

"""Concrete syntax: parsing and printing of propositions and terms.

Grammar (fully parenthesized):

    prop ::= pure mode
    pure ::= ident | "(" pure "&" pure ")" | "(" pure "|" pure ")" | "~" pure
    mode ::= "^s+" | "^s-" | "^c+" | "^c-"

    term ::= ident
           | "abs[" prop "](" term "," term ")"
           | ("pair" | "capp") sign "(" term "," term ")"
           | ("proj1"|"proj2"|"in1"|"in2"|"negi"|"nege") sign "(" term ")"
           | "case" sign "(" term "," ident ":" prop "." term "," ident ":" prop "." term ")"
           | "clam" sign "(" ident ":" prop "." term ")"

Identifiers are ASCII, start with a letter.  `_bot0` (the reserved
falsity variable) is only accepted with allow_reserved=True.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .syntax import (And, Bound, CApp, CLam, Case, Abs, Inj, MProp, Mode, Neg,
                     NegE, NegI, Or, PVar, Pair, Proj, PureProp, Term, Var,
                     case, clam, fresh_name, fv, prop_vars)

RESERVED_FALSITY = "_bot0"

_KEYWORDS = {"abs", "pair", "proj1", "proj2", "in1", "in2", "case",
             "negi", "nege", "clam", "capp"}

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*|_bot0)
    | (?P<number>[0-9]+)
    | (?P<sym>[()\[\],.:^&|~+-])
""", re.VERBOSE)

_BAD_PROJ_RE = re.compile(r"proj[0-9]+$")
_BAD_INJ_RE = re.compile(r"in[0-9]+$")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            kind = m.lastgroup
            val = m.group()
            if kind != "ws":
                self.toks.append((kind, val, line, col))
            nl = val.count("\n")
            if nl:
                line += nl
                col = len(val) - val.rfind("\n")
            else:
                col += len(val)
            pos = m.end()
        self.toks.append(("eof", "", line, col))
        self.i = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, val: str) -> None:
        kind, v, line, col = self.next()
        if v != val:
            raise ParseError(f"expected {val!r}, found {v or 'end of input'!r}", line, col)

    def error(self, message: str) -> ParseError:
        _, _, line, col = self.peek()
        return ParseError(message, line, col)


def _parse_pure(tk: _Tokens) -> PureProp:
    kind, val, line, col = tk.next()
    if kind == "ident":
        if val in _KEYWORDS:
            raise ParseError(f"{val!r} is a reserved word", line, col)
        return PVar(val)
    if val == "~":
        return Neg(_parse_pure(tk))
    if val == "(":
        left = _parse_pure(tk)
        kind2, op, line2, col2 = tk.next()
        if op == "^":
            raise ParseError("modes cannot be nested", line2, col2)
        if op not in ("&", "|"):
            raise ParseError(f"expected '&' or '|', found {op!r}", line2, col2)
        right = _parse_pure(tk)
        tk.expect(")")
        return And(left, right) if op == "&" else Or(left, right)
    raise ParseError(f"expected a pure proposition, found {val or 'end of input'!r}", line, col)


def _parse_mode(tk: _Tokens) -> Mode:
    kind, val, line, col = tk.next()
    if val != "^":
        raise ParseError(f"expected a mode annotation '^', found {val or 'end of input'!r}",
                         line, col)
    kind, st, line, col = tk.next()
    if st not in ("s", "c"):
        raise ParseError(f"expected strength 's' or 'c', found {st!r}", line, col)
    kind, sg, line, col = tk.next()
    if sg not in ("+", "-"):
        raise ParseError(f"expected sign '+' or '-', found {sg!r}", line, col)
    return Mode(st, sg)


def _check_reserved(a: PureProp, tk: _Tokens, allow_reserved: bool) -> None:
    if allow_reserved:
        return
    if RESERVED_FALSITY in prop_vars(a):
        raise tk.error(f"{RESERVED_FALSITY!r} is reserved for the falsity encoding")


def parse_mprop(text: str, allow_reserved: bool = False) -> MProp:
    tk = _Tokens(text)
    p = _parse_mprop(tk, allow_reserved)
    kind, val, line, col = tk.peek()
    if kind != "eof":
        if val == "^":
            raise ParseError("modes cannot be nested", line, col)
        raise ParseError(f"trailing input {val!r}", line, col)
    return p


def _parse_mprop(tk: _Tokens, allow_reserved: bool = False) -> MProp:
    a = _parse_pure(tk)
    _check_reserved(a, tk, allow_reserved)
    mode = _parse_mode(tk)
    return MProp(a, mode)


def _parse_sign(tk: _Tokens) -> str:
    kind, val, line, col = tk.next()
    if val not in ("+", "-"):
        raise ParseError(f"expected sign '+' or '-', found {val!r}", line, col)
    return val


def _parse_binder(tk: _Tokens, allow_reserved: bool) -> tuple[str, MProp, Term]:
    kind, name, line, col = tk.next()
    if kind != "ident" or name in _KEYWORDS:
        raise ParseError(f"expected a binder name, found {name!r}", line, col)
    if name == RESERVED_FALSITY and not allow_reserved:
        raise ParseError(f"{RESERVED_FALSITY!r} is reserved", line, col)
    tk.expect(":")
    p = _parse_mprop(tk, allow_reserved)
    tk.expect(".")
    body = _parse_term_inner(tk, allow_reserved)
    return name, p, body


def _parse_term_inner(tk: _Tokens, allow_reserved: bool) -> Term:
    kind, val, line, col = tk.next()
    if kind != "ident":
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", line, col)
    if val not in _KEYWORDS:
        if _BAD_PROJ_RE.match(val):
            raise ParseError("projection index must be 1 or 2", line, col)
        if _BAD_INJ_RE.match(val):
            raise ParseError("injection index must be 1 or 2", line, col)
        if val == RESERVED_FALSITY and not allow_reserved:
            raise ParseError(f"{RESERVED_FALSITY!r} is reserved", line, col)
        return Var(val)

    head = val
    if head == "abs":
        tk.expect("[")
        q = _parse_mprop(tk, allow_reserved)
        tk.expect("]")
        tk.expect("(")
        left = _parse_term_inner(tk, allow_reserved)
        tk.expect(",")
        right = _parse_term_inner(tk, allow_reserved)
        tk.expect(")")
        return Abs(q, left, right)

    sign = _parse_sign(tk)
    tk.expect("(")
    if head in ("pair", "capp"):
        left = _parse_term_inner(tk, allow_reserved)
        tk.expect(",")
        right = _parse_term_inner(tk, allow_reserved)
        tk.expect(")")
        return Pair(sign, left, right) if head == "pair" else CApp(sign, left, right)
    if head in ("proj1", "proj2", "in1", "in2"):
        body = _parse_term_inner(tk, allow_reserved)
        tk.expect(")")
        index = int(head[-1])
        return Proj(sign, index, body) if head.startswith("proj") else Inj(sign, index, body)
    if head in ("negi", "nege"):
        body = _parse_term_inner(tk, allow_reserved)
        tk.expect(")")
        return NegI(sign, body) if head == "negi" else NegE(sign, body)
    if head == "clam":
        x, p, body = _parse_binder(tk, allow_reserved)
        tk.expect(")")
        return clam(sign, x, p, body)
    if head == "case":
        scrut = _parse_term_inner(tk, allow_reserved)
        tk.expect(",")
        b1 = _parse_binder(tk, allow_reserved)
        tk.expect(",")
        b2 = _parse_binder(tk, allow_reserved)
        tk.expect(")")
        return case(sign, scrut, b1, b2)
    raise ParseError(f"unknown construct {head!r}", line, col)


def parse_term(text: str, allow_reserved: bool = False) -> Term:
    tk = _Tokens(text)
    t = _parse_term_inner(tk, allow_reserved)
    kind, val, line, col = tk.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", line, col)
    return t


# ---------------------------------------------------------------------------
# Printing

def print_pure(a: PureProp) -> str:
    return str(a)


def print_mprop(p: MProp) -> str:
    return str(p)


def print_term(t: Term, env: tuple[str, ...] = ()) -> str:
    """Render a term, choosing binder names from hints, avoiding capture.

    env maps de Bruijn indices (innermost first) to display names.
    """

    def bind(hint: str, body: Term, env: tuple[str, ...]) -> tuple[str, tuple[str, ...]]:
        taken = set(fv(body)) | set(env) | _KEYWORDS
        name = fresh_name(hint if hint else "x", taken)
        return name, (name,) + env

    match t:
        case Var(name):
            return name
        case Bound(i):
            return env[i] if i < len(env) else f"#{i}"
        case Abs(q, l, r):
            return f"abs[{q}]({print_term(l, env)}, {print_term(r, env)})"
        case Pair(sg, l, r):
            return f"pair{sg}({print_term(l, env)}, {print_term(r, env)})"
        case Proj(sg, i, b):
            return f"proj{i}{sg}({print_term(b, env)})"
        case Inj(sg, i, b):
            return f"in{i}{sg}({print_term(b, env)})"
        case NegI(sg, b):
            return f"negi{sg}({print_term(b, env)})"
        case NegE(sg, b):
            return f"nege{sg}({print_term(b, env)})"
        case CLam(sg, p, b, hint):
            name, env2 = bind(hint, b, env)
            return f"clam{sg}({name} : {p}. {print_term(b, env2)})"
        case CApp(sg, f, a):
            return f"capp{sg}({print_term(f, env)}, {print_term(a, env)})"
        case Case(sg, sc, p1, b1, p2, b2, h1, h2):
            n1, env1 = bind(h1, b1, env)
            n2, env2 = bind(h2, b2, env)
            return (f"case{sg}({print_term(sc, env)}, "
                    f"{n1} : {p1}. {print_term(b1, env1)}, "
                    f"{n2} : {p2}. {print_term(b2, env2)})")
    raise TypeError(t)

"""Library code that only the tests call.  The translation builds each
System F index in place, so src/prk closes no name into a binder:
flam, tylam, close_fterm and close_tyvar_in_fterm build F binders over
named bodies for hand-written terms.  validate_derivation re-checks a
typing derivation; nothing in src/prk compares whole derivations.
lines_run counts the Python lines a call runs, and print_f_by_patterns is
the F printer's reference.  The reduction references find redexes by
recursion: ref_redexes, apply_at and ref_step for proof terms, with
binder_names_at and replay for traces, and ref_f_reducts for F terms; each
proof-term rule is matched by ref_match_redex, the class-pattern form of
rewrite.match_redex.  ref_forcing forces world by world, the reference for
kripke's tables.  ref_eq and ref_repr are a frozen dataclass's == and repr, and
ref_hash hashes a record's class name and compared fields; all three read
dataclasses.fields and are the references for syntax.Frozen's."""

import dataclasses
import sys
from functools import lru_cache, partial, reduce
from operator import or_

from prk.errors import TypingError
from prk.rewrite import ETA, PLAIN
from prk.surface import BINDER_HINTS
from prk.syntax import (CLASSICAL, PAIRED, PLUS, STRONG, Abs, And, Bound, CApp, CLam, Case, Inj, Neg,
                        NegE, NegI, Or, PVar, Pair, Proj, Scope, children, flip, print_tree, rebuild,
                        shift, subst_bound, uses_index)
from prk.systemf import (ONE, ZERO, Arrow, FApp, FBound, FLam, FNeg, FPos, FTerm, FType, FVar,
                         Forall, TBound, TVar, TyApp, TyLam, close_type, f_match_redex,
                         fterm_children, fterm_fv, fterm_map, fterm_rebuild, ftype_vars,
                         shift_type)
from prk.typecheck import Derivation, check_type


def lines_run(f, *args):
    """f(*args) and the Python lines it runs: its work, counted the same on
    every machine."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        result = f(*args)
    finally:
        sys.settrace(old)
    return result, lines


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count the calls to module.name from here on: the one item of the list returned."""
    calls, original = [0], getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@lru_cache(maxsize=None)
def _compared_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls) if f.compare)


def _compared(x) -> tuple:
    """The values of x's fields that take part in == and hash."""
    return tuple(getattr(x, name) for name in _compared_names(type(x)))


def ref_eq(x, y):
    """x == y as a frozen dataclass's __eq__ gives it: its compared fields as tuples when the
    classes are the same, else NotImplemented."""
    return _compared(x) == _compared(y) if x.__class__ is y.__class__ else NotImplemented


def ref_hash(x) -> int:
    """A record's hash: the hash of its class's qualified name and its compared fields."""
    return hash((type(x).__qualname__, *_compared(x)))


def ref_repr(x) -> str:
    """A dataclass's repr: Name(field=value, ...) over the fields with repr."""
    shown = ", ".join(f"{f.name}={getattr(x, f.name)!r}" for f in dataclasses.fields(x) if f.repr)
    return f"{type(x).__qualname__}({shown})"


def ref_match_redex(t, mode):
    """The reference for rewrite.match_redex: (rule, reduct) if t is a redex at the root."""
    match t:
        case Proj(sign, index, Pair(sign2, left, right)) if sign == sign2:
            return "proj", (left if index == 1 else right)
        case Case(sign, Inj(sign2, index, arg), _, branch1, _, branch2) if sign == sign2:
            branch = branch1 if index == 1 else branch2
            return "case", subst_bound(branch, 0, arg)
        case NegE(sign, NegI(sign2, body)) if sign == sign2:
            return "neg", body
        case CApp(sign, CLam(sign2, _, body), arg) if sign == sign2:
            return "beta", subst_bound(body, 0, arg)
        case Abs(q, Pair(sign, left, right), Inj(sign2, index, arg)) if sign2 == flip(sign):
            comp = left if index == 1 else right
            return "absPairInj", Abs(q, CApp(sign, comp, arg), CApp(flip(sign), arg, comp))
        case Abs(q, Inj(sign, index, arg), Pair(sign2, left, right)) if sign2 == flip(sign):
            comp = left if index == 1 else right
            return "absInjPair", Abs(q, CApp(sign, arg, comp), CApp(flip(sign), comp, arg))
        case Abs(q, NegI(sign, left), NegI(sign2, right)) if sign2 == flip(sign):
            return "absNeg", Abs(q, CApp(flip(sign), left, right), CApp(sign, right, left))
        case CLam(sign, _, CApp(sign2, fun, Bound(0))) if (
                mode == ETA and sign == sign2 and not uses_index(fun, 0)):
            return "eta", shift(fun, -1)
    return None


def ref_redexes(t, mode=PLAIN, pos=()) -> list:
    """Every redex position of t with its rule, in pre-order, by recursion."""
    found = [(pos, m[0])] if (m := ref_match_redex(t, mode)) else []
    for i, kid in enumerate(children(t)):
        found += ref_redexes(kid, mode, pos + (i,))
    return found


def subterm_at(t, pos):
    """The subterm of t at pos."""
    for i in pos:
        t = children(t)[i]
    return t


def ref_replace(t, pos, new):
    """t with new at pos, by recursion."""
    if not pos:
        return new
    kids = list(children(t))
    kids[pos[0]] = ref_replace(kids[pos[0]], pos[1:], new)
    return rebuild(t, kids)


def apply_at(t, pos, mode=PLAIN) -> tuple:
    """Contract the redex at pos: (rule, the new whole term)."""
    m = ref_match_redex(subterm_at(t, pos), mode)
    if m is None:
        raise ValueError(f"no redex at position {pos}")
    return m[0], ref_replace(t, pos, m[1])


def ref_step(t, mode=PLAIN, strategy="lo"):
    """The reference for rewrite.step: list every redex, then contract the
    first ("lo", leftmost-outermost) or the one at the greatest position
    ("ri", rightmost-innermost); (rule, position, new term), or None."""
    redexes = ref_redexes(t, mode)
    if not redexes:
        return None
    pos, _ = redexes[0] if strategy == "lo" else max(redexes)
    rule, new = apply_at(t, pos, mode)
    return rule, pos, new


def binder_names_at(t, pos) -> tuple:
    """The hints of the binders over pos, innermost first: a trace step's names."""
    env = ()
    for i in pos:
        if hint := BINDER_HINTS[type(t)][i]:
            env = (getattr(t, hint),) + env
        t = children(t)[i]
    return env


def replay(t, trace):
    """Re-apply a trace from its start term, checking each recorded redex."""
    for entry in trace:
        if subterm_at(t, entry.position) != entry.redex:
            raise ValueError(f"trace mismatch at {entry.position}")
        t = apply_at(t, entry.position, ETA if entry.rule == "eta" else PLAIN)[1]
    return t


def ref_f_reducts(t):
    """The one-step reducts of an F term, redexes in pre-order, by a recursive generator."""
    red = f_match_redex(t)
    if red is not None:
        yield red
    kids = fterm_children(t)
    for i, c in enumerate(kids):
        for stepped in ref_f_reducts(c):
            yield fterm_rebuild(t, kids[:i] + (stepped,) + kids[i + 1:])


def close_fterm(t: FTerm, name: str, depth: int = 0) -> FTerm:
    def leaf(u, d: tuple[int, int]):  # `name` or a term index >= d[0]
        return FBound(d[0]) if isinstance(u, FVar) else FBound(u.index + 1)

    return fterm_map(t, leaf, (depth, 0),
                     keep=lambda u, d: u.free[2] <= d[0] and name not in u.free[3])


def close_tyvar_in_fterm(t: FTerm, name: str, depth: int = 0) -> FTerm:
    return fterm_map(t, lambda u, d: close_type(u, name, d[1]), (0, depth),
                     keep=lambda u, d: u.free[0] <= d[1] and name not in u.free[1])


def flam(name: str, annot: FType, body: FTerm) -> FLam:
    return FLam(annot, close_fterm(body, name), hint=name)


def tylam(name: str, body: FTerm) -> TyLam:
    return TyLam(close_tyvar_in_fterm(body, name), hint=name)


def validate_derivation(d: Derivation) -> bool:
    """Re-check a derivation bottom-up; True iff it reconstructs exactly."""
    try:
        again = check_type(d.ctx, d.subject, d.conclusion)
    except TypingError:
        return False
    return again == d


def ref_forcing(above, plus, minus, full: int):
    """kripke._forcing as it was, a memo per world and state: bit c of g(w, base, strength,
    sign) is set iff w forces that proposition under valuation c.  above[w] holds the worlds
    at or above w, plus[w]/minus[w] map every atom of the alphabet to the valuations holding
    it at w, and full has one bit per valuation (1 for one model)."""
    @lru_cache(maxsize=None)
    def g(w, base, strength, sign) -> int:
        if strength == CLASSICAL:  # no world above forces the strong opposite
            return full & ~reduce(or_, [g(v, base, STRONG, flip(sign)) for v in above[w]])
        match base:
            case PVar(name):
                return (plus[w] if sign == PLUS else minus[w])[name]
            case And(l, r) | Or(l, r):
                # both components for the connective a pair of this sign
                # builds, either one for the connective an injection builds
                if isinstance(base, PAIRED[sign]):
                    return g(w, l, CLASSICAL, sign) & g(w, r, CLASSICAL, sign)
                return g(w, l, CLASSICAL, sign) | g(w, r, CLASSICAL, sign)
            case Neg(inner):
                return g(w, inner, CLASSICAL, flip(sign))
        raise TypeError(base)

    return g


def per_candidate_masks(states: list, n: int, atoms: int) -> tuple[list, list]:
    """The vplus and vminus masks of kripke._order_tables for an order with these candidate
    states, built candidate by candidate: per world and atom, a string of one digit per
    candidate, the last first, read as a binary number."""
    return tuple([[int("".join("1" if st[w][k] & bit else "0" for st in reversed(states)), 2)
                   for k in range(atoms)] for w in range(n)] for bit in (1, 2))


def print_model_by_lookup(m) -> str:
    """kripke.print_model as it was: each world's valuations read through
    dict(m.vplus)[w] and dict(m.vminus)[w], a dict over every world per lookup."""
    lines = ["alphabet: " + " ".join(sorted(m.alphabet)), "worlds: " + " ".join(m.worlds)]
    gens = sorted((a, b) for a, b in m.leq if a != b)
    if gens:
        lines.append("leq: " + ", ".join(f"{a} {b}" for a, b in gens))
    for w in m.worlds:
        if dict(m.vplus)[w]:
            lines.append(f"vplus {w}: " + " ".join(sorted(dict(m.vplus)[w])))
    for w in m.worlds:
        if dict(m.vminus)[w]:
            lines.append(f"vminus {w}: " + " ".join(sorted(dict(m.vminus)[w])))
    return "\n".join(lines) + "\n"


def closure_by_pairs(worlds, leq) -> frozenset:
    """kripke's closure as it was: Warshall over a set of pairs, the whole relation
    scanned per element."""
    rel = {(w, w) for w in worlds} | set(leq)
    for k in {x for pair in rel for x in pair}:  # Warshall: paths through k
        rel |= {(a, d) for a, b in rel if b == k for c, d in rel if c == k}
    return frozenset(rel)


def above_by_scan(m, w) -> tuple:
    """KripkeModel.above as it was: the worlds, in order, that w's pairs of the closure reach."""
    order = closure_by_pairs(m.worlds, m.leq)
    return tuple(v for v in m.worlds if (w, v) in order)


def validate_by_pairs(m) -> tuple:
    """kripke.validate_model's violations as it found them: each test over every pair of
    the closure, or of the worlds."""
    from prk.kripke import Violation
    out = []
    known = set(m.worlds)
    for a, b in sorted(m.leq):
        if a not in known or b not in known:
            out.append(Violation("order", (a, b, "unknown world")))
    if len(known) != len(m.worlds):
        out.append(Violation("order", ("duplicate world names",)))
    order = closure_by_pairs(m.worlds, frozenset(p for p in m.leq if p[0] in known and p[1] in known))
    for a, b in sorted(order):
        if a != b and (b, a) in order:
            out.append(Violation("order", (a, b, "antisymmetry")))
            break
    vp, vm = dict(m.vplus), dict(m.vminus)
    for w in m.worlds:
        for bad in sorted((vp[w] | vm[w]) - m.alphabet):
            out.append(Violation("alphabet", (w, bad)))
    for a, b in sorted(order):
        if a == b:
            continue
        for v in sorted(vp[a] - vp[b]):
            out.append(Violation("monotonicity", (a, b, v, "vplus")))
        for v in sorted(vm[a] - vm[b]):
            out.append(Violation("monotonicity", (a, b, v, "vminus")))
    for w in m.worlds:
        ups = [v for v in m.worlds if (w, v) in order]
        for a in sorted(m.alphabet):
            if not any((a in vp[u]) != (a in vm[u]) for u in ups):
                out.append(Violation("stabilization", (w, a)))
    return tuple(out)


def random_model(rng):
    """A small model that may break every rule validation checks: pairs naming undeclared
    worlds, a world named twice, cycles, and atoms valued outside the alphabet."""
    from prk.kripke import KripkeModel
    names = [f"w{i}" for i in range(rng.randint(1, 5))]
    worlds = names + (rng.sample(names, 1) if rng.random() < 0.2 else [])
    rng.shuffle(worlds)
    ends = names + ["x", "y"]
    leq = {(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randint(0, 7))}
    atoms = ["a", "b", "c"]
    vplus, vminus = ({w: set(rng.sample(atoms, rng.randint(0, 2))) for w in names if rng.random() < 0.6}
                     for _ in range(2))
    return KripkeModel.make(atoms[:rng.randint(1, 2)], worlds, leq, vplus, vminus)


def _unsugar_type(t: FType) -> tuple[str, FType, FType] | str | None:
    if t == ZERO:
        return "0"
    if t == ONE:
        return "1"
    match t:
        case Forall(Arrow(Arrow(a, Arrow(b, TBound(0))), TBound(0)), _):
            op = "*"
        case Forall(Arrow(Arrow(a, TBound(0)), Arrow(Arrow(b, TBound(0)), TBound(0))), _):
            op = "+"
        case _:
            return None
    try:
        return op, shift_type(a, -1), shift_type(b, -1)
    except ValueError:  # a or b mentions the bound variable: no sugar
        return None


def _parens(t: FTerm, kinds: tuple[type, ...]) -> list:
    return ["(", t, ")"] if isinstance(t, kinds) else [t]


def _layout(t: FTerm | FType, scope: Scope, tyscope: Scope) -> list:
    """systemf's layout as it was: every type node is asked for its sugar,
    and each node is matched against class patterns."""
    sugar = _unsugar_type(t) if isinstance(t, FType) else None
    if isinstance(sugar, str):
        return [sugar]
    if sugar is not None:
        op, a, b = sugar
        return ["(", a, f" {op} ", b, ")"]
    match t:
        case TVar(n) | FVar(n):
            return [n]
        case TBound(i):
            return [tyscope.name(i)]
        case FBound(i):
            return [scope.name(i)]
        case FPos(a, b) | FNeg(a, b):
            return ["Pos<" if isinstance(t, FPos) else "Neg<", a, ", ", b, ">"]
        case Arrow(d, c):
            wrap = isinstance(d, Arrow) and _unsugar_type(d) is None
            return (["(", d, ")"] if wrap else [d]) + [" -> ", c]
        case Forall(b, hint):
            return ["forall ", tyscope.push(hint or "a", ftype_vars(b)), ". ", b, tyscope.pop]
        case FLam(annot, body, hint):
            return ["fun (", scope.push(hint or "x", fterm_fv(body)), " : ", annot, ") -> ",
                    body, scope.pop]
        case FApp(f, a):
            return _parens(f, (FLam, TyLam)) + [" "] + _parens(a, (FLam, TyLam, FApp, TyApp))
        case TyLam(body, hint):
            return ["tfun ", tyscope.push(hint or "a"), " -> ", body, tyscope.pop]
        case TyApp(f, ty):
            return _parens(f, (FLam, TyLam)) + [" [", ty, "]"]
    raise TypeError(t)


def print_f_by_patterns(t: FTerm | FType, env: tuple[str, ...] = ()) -> str:
    """print_fterm, or print_ftype under env, through the layout as it was."""
    return print_tree(t, partial(_layout, scope=Scope(), tyscope=Scope(env)))

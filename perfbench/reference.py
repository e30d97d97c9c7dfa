"""Reference answers that do not come from the code paths being timed.

Everything here reads the library's data classes by class name and field
name only; the semantics (forcing, truth tables, redexes, the System F
type translation, NK conclusions) are re-derived from the paper's
definitions.  Walks are iterative, so a check never fails on a deep term
where the library itself would hit the recursion limit.
"""

from __future__ import annotations

import dataclasses
import itertools

from prk.syntax import And, Neg, Or   # constructors only, to build NK conclusions

FLIP = {"+": "-", "-": "+"}


# ---------------------------------------------------------------------------
# Trees

def _compared_fields(x):
    return [f.name for f in dataclasses.fields(x) if f.compare]


def same_tree(a, b) -> bool:
    """Structural equality over dataclass trees, ignoring fields excluded
    from comparison (binder hints)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if dataclasses.is_dataclass(x):
            stack.extend((getattr(x, n), getattr(y, n)) for n in _compared_fields(x))
        elif isinstance(x, tuple):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def tree_nodes(root, kinds: tuple[type, ...]) -> int:
    """Number of nodes of the given kinds, counted as a tree (a shared
    subtree counts once per occurrence) in time linear in the DAG."""
    memo: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        kids = [getattr(node, f.name) for f in dataclasses.fields(node)]
        kids = [k for k in kids if isinstance(k, kinds)]
        if done:
            memo[id(node)] = 1 + sum(memo[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in memo)
    return memo[id(root)]


def derivation_nodes(d) -> int:
    count, stack = 0, [d]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


# ---------------------------------------------------------------------------
# Proof terms: redexes by the paper's seven rules

def _kind(x) -> str:
    return type(x).__name__


def _term_children(t):
    return [getattr(t, f.name) for f in dataclasses.fields(t)
            if _kind(getattr(t, f.name)) in _TERM_KINDS]


_TERM_KINDS = {"Var", "Bound", "Abs", "Pair", "Proj", "Inj", "Case", "NegI",
               "NegE", "CLam", "CApp"}


def _is_redex(t) -> bool:
    k = _kind(t)
    if k == "Proj":
        return _kind(t.body) == "Pair" and t.body.sign == t.sign
    if k == "Case":
        return _kind(t.scrutinee) == "Inj" and t.scrutinee.sign == t.sign
    if k == "NegE":
        return _kind(t.body) == "NegI" and t.body.sign == t.sign
    if k == "CApp":
        return _kind(t.fun) == "CLam" and t.fun.sign == t.sign
    if k == "Abs":
        lk, rk = _kind(t.left), _kind(t.right)
        if (lk, rk) in (("Pair", "Inj"), ("Inj", "Pair"), ("NegI", "NegI")):
            return t.right.sign == FLIP[t.left.sign]
    return False


def has_redex(t) -> bool:
    stack = [t]
    while stack:
        node = stack.pop()
        if _is_redex(node):
            return True
        stack.extend(_term_children(node))
    return False


def term_nodes(t) -> int:
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(_term_children(node))
    return count


# ---------------------------------------------------------------------------
# Propositions: printing, classical truth, the System F type translation

def print_prop(a) -> str:
    k = _kind(a)
    if k == "PVar":
        return a.name
    if k == "And":
        return f"({print_prop(a.left)} & {print_prop(a.right)})"
    if k == "Or":
        return f"({print_prop(a.left)} | {print_prop(a.right)})"
    return f"~{print_prop(a.inner)}"


def print_mprop(p) -> str:
    return f"{print_prop(p.base)}^{p.mode.strength}{p.mode.sign}"


def atoms_of(a) -> set[str]:
    k = _kind(a)
    if k == "PVar":
        return {a.name}
    if k == "Neg":
        return atoms_of(a.inner)
    return atoms_of(a.left) | atoms_of(a.right)


def prop_depth(a) -> int:
    k = _kind(a)
    if k == "PVar":
        return 1
    if k == "Neg":
        return 1 + prop_depth(a.inner)
    return 1 + max(prop_depth(a.left), prop_depth(a.right))


def truth(a, val: dict[str, bool]) -> bool:
    k = _kind(a)
    if k == "PVar":
        return val[a.name]
    if k == "And":
        return truth(a.left, val) and truth(a.right, val)
    if k == "Or":
        return truth(a.left, val) or truth(a.right, val)
    return not truth(a.inner, val)


def classically_valid(hyps, goal) -> bool:
    """Truth-table validity of a classical-affirmation sequent: every
    proposition is read as its base (all modes are ^c+)."""
    names = sorted(set().union(atoms_of(goal.base), *(atoms_of(h.base) for h in hyps)))
    for bits in itertools.product((False, True), repeat=len(names)):
        val = dict(zip(names, bits))
        if all(truth(h.base, val) for h in hyps) and not truth(goal.base, val):
            return False
    return True


def ftype_text(a, strength: str, sign: str) -> str:
    """The printed System F translation T(a^{strength}{sign}):
    T(A^c+) = Pos<T(A^s+), T(A^s-)>, T(A^c-) = Neg<...>, products and
    sums for the connectives, 1 -> T(..) for negation."""
    if strength == "c":
        body = f"{ftype_text(a, 's', '+')}, {ftype_text(a, 's', '-')}"
        return f"Pos<{body}>" if sign == "+" else f"Neg<{body}>"
    k = _kind(a)
    if k == "PVar":
        return a.name if sign == "+" else f"{a.name} -> 0"
    if k == "Neg":
        return f"1 -> {ftype_text(a.inner, 'c', FLIP[sign])}"
    op = "*" if (k == "And") == (sign == "+") else "+"
    return f"({ftype_text(a.left, 'c', sign)} {op} {ftype_text(a.right, 'c', sign)})"


def ftype_text_unfolded(a, sign: str) -> str:
    """One unfolding of T(a^c{sign}): Pos<P, N> = Neg<P, N> -> P."""
    p, n = ftype_text(a, "s", "+"), ftype_text(a, "s", "-")
    if sign == "+":
        return f"Neg<{p}, {n}> -> {p}"
    return f"Pos<{p}, {n}> -> {n}"


# ---------------------------------------------------------------------------
# Kripke models: validity and forcing

class Model:
    """A finite model held by the benchmark: worlds, generator pairs of
    the order, and positive / negative valuations."""

    def __init__(self, worlds, leq, vplus, vminus):
        self.worlds = tuple(worlds)
        self.leq = frozenset(leq)
        self.vplus = {w: frozenset(vplus.get(w, ())) for w in self.worlds}
        self.vminus = {w: frozenset(vminus.get(w, ())) for w in self.worlds}
        rel = {(w, w) for w in self.worlds} | set(self.leq)
        while True:
            extra = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
            if not extra:
                break
            rel |= extra
        self.order = rel
        self.up = {w: [v for v in self.worlds if (w, v) in rel] for w in self.worlds}

    @staticmethod
    def of_library(m) -> "Model":
        return Model(m.worlds, m.leq, dict(m.vplus), dict(m.vminus))

    def is_valid(self, alphabet) -> bool:
        """Partial order, monotone valuations, and stabilization: above
        every world each atom is eventually decided one way only."""
        if any(a != b and (b, a) in self.order for a, b in self.order):
            return False
        if any(a not in self.worlds or b not in self.worlds for a, b in self.leq):
            return False
        for a, b in self.order:
            if not (self.vplus[a] <= self.vplus[b] and self.vminus[a] <= self.vminus[b]):
                return False
        return all(any((x in self.vplus[v]) != (x in self.vminus[v]) for v in self.up[w])
                   for w in self.worlds for x in alphabet)

    def text(self, alphabet) -> str:
        lines = [f"alphabet: {' '.join(sorted(alphabet))}",
                 f"worlds: {' '.join(self.worlds)}"]
        if self.leq:
            lines.append("leq: " + ", ".join(f"{a} {b}" for a, b in sorted(self.leq)))
        for w in self.worlds:
            if self.vplus[w]:
                lines.append(f"vplus {w}: {' '.join(sorted(self.vplus[w]))}")
            if self.vminus[w]:
                lines.append(f"vminus {w}: {' '.join(sorted(self.vminus[w]))}")
        return "\n".join(lines) + "\n"


def parse_model_text(text: str) -> Model:
    """Read the model file format the CLI prints."""
    worlds, leq, vplus, vminus = [], set(), {}, {}
    for raw in text.splitlines():
        head, _, rest = raw.partition(":")
        head = head.split()
        if head == ["worlds"]:
            worlds.extend(rest.split())
        elif head == ["leq"]:
            leq.update(tuple(pair.split()) for pair in rest.split(",") if pair.strip())
        elif len(head) == 2 and head[0] in ("vplus", "vminus"):
            (vplus if head[0] == "vplus" else vminus).setdefault(head[1], set()).update(rest.split())
    return Model(worlds, leq, vplus, vminus)


def force(m: Model, w: str, p) -> bool:
    return _force(m, w, p.base, p.mode.strength, p.mode.sign)


def _force(m: Model, w: str, a, strength: str, sign: str) -> bool:
    if strength == "c":
        return not any(_force(m, v, a, "s", FLIP[sign]) for v in m.up[w])
    k = _kind(a)
    if k == "PVar":
        return a.name in (m.vplus[w] if sign == "+" else m.vminus[w])
    if k == "Neg":
        return _force(m, w, a.inner, "c", FLIP[sign])
    conj = (k == "And") == (sign == "+")
    left = _force(m, w, a.left, "c", sign)
    if conj:
        return left and _force(m, w, a.right, "c", sign)
    return left or _force(m, w, a.right, "c", sign)


def is_countermodel(m: Model, w: str, hyps, goal) -> bool:
    return all(force(m, w, h) for h in hyps) and not force(m, w, goal)


# ---------------------------------------------------------------------------
# NK proofs: random proofs with their conclusions, in the file syntax

class NKGen:
    """Random natural-deduction proofs, built bottom-up.  Each proof is
    returned as (file syntax, conclusion); the conclusion follows from
    the rule read off the paper, not from the library's checker."""

    def __init__(self, rng, props):
        self.rng, self.props = rng, props

    def _lem(self, a):
        return f"lem[{print_prop(a)}]", Or(a, Neg(a))

    def proof(self, hyps: tuple, depth: int):
        rng = self.rng
        kinds = ["lem"] + (["hyp"] * 2 if hyps else [])
        if depth > 0:
            kinds += ["andi", "ande", "ori", "negi", "expl", "impi", "impe", "ore"]
        kind = rng.choice(kinds)
        if kind == "hyp":
            i = rng.randrange(len(hyps))
            return f"hyp({i})", hyps[i]
        if kind == "lem":
            return self._lem(self.props.pure(2))
        if kind in ("andi", "ande"):
            (pt, pc), (qt, qc) = self.proof(hyps, depth - 1), self.proof(hyps, depth - 1)
            if kind == "andi":
                return f"andi({pt}, {qt})", And(pc, qc)
            i = rng.choice((1, 2))
            return f"ande{i}(andi({pt}, {qt}))", (pc if i == 1 else qc)
        if kind == "ori":
            i, other = rng.choice((1, 2)), self.props.pure(2)
            pt, pc = self.proof(hyps, depth - 1)
            concl = Or(pc, other) if i == 1 else Or(other, pc)
            return f"ori{i}[{print_prop(other)}]({pt})", concl
        if kind in ("negi", "expl"):
            x = self.props.pure(1)
            refuted = Neg(Or(x, Neg(x)))
            bottom = f"nege(hyp({len(hyps)}), {self._lem(x)[0]})"
            if kind == "negi":
                return f"negi[{print_prop(refuted)}]({bottom})", Neg(refuted)
            c = self.props.pure(2)
            return (f"impi[{print_prop(refuted)}](expl[{print_prop(c)}]({bottom}))",
                    Or(Neg(refuted), c))
        if kind == "impi":
            d = self.props.pure(2)
            pt, pc = self.proof(hyps + (d,), depth - 1)
            return f"impi[{print_prop(d)}]({pt})", Or(Neg(d), pc)
        if kind == "impe":
            x = self.props.pure(1)
            premise = Or(x, Neg(x))
            pt, pc = self.proof(hyps + (premise,), depth - 1)
            return f"impe(impi[{print_prop(premise)}]({pt}), {self._lem(x)[0]})", pc
        x, target = self.props.pure(1), self.props.pure(2)
        lem_t, concl = self._lem(target)
        return f"ore({self._lem(x)[0]}, {lem_t}, {lem_t})", concl


def nk_file(hyps, proof_text: str) -> str:
    return "".join(f"hyp : {print_prop(h)}\n" for h in hyps) + f"|- {proof_text}\n"

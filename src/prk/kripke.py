"""Finite Kripke models: validation, forcing, entailment in a model,
exhaustive enumeration of small models, and bounded counter-model search.
A counter-model found is rooted at the world it names (w0) and has the
fewest worlds of any counter-model within the bound.  Forcing labels each state
(subformula, strength, sign) once with a table over the worlds whose entries are
bit-vectors, one bit per valuation, so the search forces every candidate valuation of an
order in one pass.  Both searches take orders from one walk, valuations from one generator
and models from one builder, and drop isomorphic ones by an exact key built on each order's
least relabelling.  A model is a Frozen record whose lazy slots keep its up-sets (one
closure's rows) and its forcing memo (4,096 tables), made on first read; its columns name
every atom of the alphabet, so a warm forces costs its memo.  Kept across calls:
_shaped_orders (per world count, 8) and _order_tables (per worlds and atoms, 16)."""

from __future__ import annotations

import itertools
import re
from functools import lru_cache, reduce
from operator import and_, or_

from .errors import InvalidModelError, ParseError, UnknownVariableError, UnknownWorldError
from .surface import content_lines, is_name
from .syntax import CLASSICAL, PAIRED, PLUS, STRONG, Frozen, MProp, Neg, PVar, flip, prop_vars


class KripkeModel(metaclass=Frozen):
    """Worlds with a partial order and monotone positive/negative valuations.

    leq is given by generator pairs; order() is their reflexive-transitive closure.
    """

    __slots__ = ("_ups", "_memo")  # lazy: _above's and _forces's values, made on first read
    alphabet: frozenset[str]
    worlds: tuple[str, ...]
    leq: frozenset[tuple[str, str]]
    vplus: tuple[tuple[str, frozenset[str]], ...]
    vminus: tuple[tuple[str, frozenset[str]], ...]

    @staticmethod
    def make(alphabet, worlds, leq, vplus, vminus) -> "KripkeModel":
        worlds = tuple(worlds)
        return KripkeModel(
            frozenset(alphabet),
            worlds,
            frozenset((a, b) for a, b in leq),
            tuple((w, frozenset(vplus.get(w, ()))) for w in worlds),
            tuple((w, frozenset(vminus.get(w, ()))) for w in worlds),
        )

    def order(self) -> frozenset[tuple[str, str]]:
        return frozenset((a, b) for a, up in _closure(self.worlds, self.leq).items() for b in up)

    @property
    def _above(self) -> dict[str, tuple[int, tuple[int, ...]]]:
        """Each world's index in its tables, and the indices of the worlds at or above it."""
        if self._ups is None:
            rows = _closure(self.worlds, self.leq)
            index = {w: i for i, w in enumerate(dict.fromkeys(self.worlds))}
            object.__setattr__(self, "_ups", {
                w: (i, tuple(index[v] for v in rows[w] if v in index)) for w, i in index.items()})
        return self._ups

    @property
    def _forces(self):
        if self._memo is None:
            columns = ({a: tuple(int(a in s) for s in sets) for a in self.alphabet}
                       for sets in (dict(self.vplus).values(), dict(self.vminus).values()))
            object.__setattr__(self, "_memo", _forcing([up for _, up in self._above.values()], *columns, 1))
        return self._memo


def _closure(worlds: tuple[str, ...], leq: frozenset[tuple[str, str]]) -> dict[str, set[str]]:
    """Each world and each end of a pair of leq, mapped to the elements at or above it in the
    reflexive (on worlds) transitive closure of leq; an element off worlds is above itself
    only on a cycle."""
    rows = {w: {w} for w in worlds}
    for a, b in leq:
        rows.setdefault(a, set()).add(b)
        rows.setdefault(b, set())
    for k, up in rows.items():  # Warshall by rows: a row holding k takes k's row
        if up - {k}:
            for row in rows.values():
                if k in row:
                    row |= up
    return rows


class Violation(metaclass=Frozen):
    kind: str  # "order" | "alphabet" | "monotonicity" | "stabilization"
    witness: tuple

    def __str__(self) -> str:
        return f"{self.kind}: {self.witness}"


class ValidationReport(metaclass=Frozen):
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_model(m: KripkeModel) -> ValidationReport:
    """Check the order axioms, monotonicity, and stabilization (restricted
    to the declared alphabet); violations are reported with witnesses."""
    out: list[Violation] = []
    known = set(m.worlds)
    for a, b in sorted(m.leq):
        if a not in known or b not in known:
            out.append(Violation("order", (a, b, "unknown world")))
    if len(known) != len(m.worlds):
        out.append(Violation("order", ("duplicate world names",)))
    rows = _closure(m.worlds, frozenset(p for p in m.leq if p[0] in known and p[1] in known))
    vp, vm = dict(m.vplus), dict(m.vminus)
    anti, mono = [], []
    for a in sorted(rows):  # each strict pair (a, b) of the order, sorted
        for b in sorted(rows[a] - {a}):
            if not anti and a in rows[b]:
                anti.append(Violation("order", (a, b, "antisymmetry")))
            if not (vp[a] <= vp[b] and vm[a] <= vm[b]):
                mono += [Violation("monotonicity", (a, b, v, sign)) for sign, val in
                         (("vplus", vp), ("vminus", vm)) for v in sorted(val[a] - val[b])]
    out += anti
    out += [Violation("alphabet", (w, bad)) for w in m.worlds
            for bad in sorted((vp[w] | vm[w]) - m.alphabet)]
    out += mono
    out += [Violation("stabilization", (w, a)) for w in m.worlds for a in sorted(m.alphabet)
            if not any((a in vp[u]) != (a in vm[u]) for u in rows[w])]
    return ValidationReport(tuple(out))


def forces(m: KripkeModel, w: str, p: MProp) -> bool:
    """The forcing relation: w's entry in the table of p's state."""
    if (at := m._above.get(w)) is None:
        raise UnknownWorldError(f"unknown world {w!r}")
    try:
        return bool(m._forces(p.base, p.mode.strength, p.sign)[at[0]])
    except (KeyError, RecursionError):  # a missing atom, or p too deep; no failed ask is memoized
        if missing := prop_vars(p.base) - m.alphabet:
            raise UnknownVariableError(f"variables not in alphabet: {sorted(missing)}") from None
        raise


def _forcing(above, plus, minus, full: int):
    """Forcing under several valuations of one order at once, as the memo table: entry i of
    table(base, strength, sign) has bit c set iff world i forces that state under valuation c.
    above[i] lists the worlds at or above world i, plus and minus map every atom to its column
    (per world, the valuations holding it), and full has one bit per valuation (1 for one model)."""
    @lru_cache(maxsize=1 << 12)  # the memo's bound, for a model's and a search order's alike
    def table(base, strength, sign) -> tuple[int, ...]:
        if strength == CLASSICAL:  # no world above forces the strong opposite
            strong = table(base, STRONG, flip(sign))
            return tuple(full & ~reduce(or_, map(strong.__getitem__, up)) for up in above)
        kind = type(base)
        if kind is PVar:
            return (plus if sign == PLUS else minus)[base.name]
        if kind is Neg:
            return table(base.inner, CLASSICAL, flip(sign))
        # both components for the connective a pair of this sign builds, either one for the other
        return tuple(map(and_ if kind is PAIRED[sign] else or_,
                         table(base.left, CLASSICAL, sign), table(base.right, CLASSICAL, sign)))

    return table


def entails_in_model(m: KripkeModel, hyps: list[MProp], p: MProp) -> bool:
    """Every world forcing all of hyps forces p."""
    return all(forces(m, w, p) for w in m.worlds if all(forces(m, w, h) for h in hyps))


# ---------------------------------------------------------------------------
# Enumeration and counter-model search

def _partial_orders(n: int, pairs=None):
    """The partial orders on range(n) whose strict pairs are among pairs (by default all), in
    the order of those pairs' truth values (False first).  A depth-first walk decides a pair
    only where that breaks neither antisymmetry nor transitivity with the pairs decided before."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j] if pairs is None else pairs
    rel = {(i, i): True for i in range(n)}  # the pairs decided so far

    def walk(t: int):
        if t == len(pairs):
            yield {p for p, holds in rel.items() if holds}
            return
        a, b = pairs[t]
        for holds in (False, True):
            if holds:  # not b <= a; k <= a gives k <= b, and b <= k gives a <= k
                ok = not rel.get((b, a)) and not any(
                    rel.get((k, a)) and rel.get((k, b)) is False or
                    rel.get((b, k)) and rel.get((a, k)) is False for k in range(n))
            else:  # no world k with a <= k <= b
                ok = not any(rel.get((a, k)) and rel.get((k, b)) for k in range(n))
            if ok:
                rel[a, b] = holds
                yield from walk(t + 1)
                del rel[a, b]

    return walk(0)


def _shape(n: int, above) -> tuple[int, list[tuple[int, ...]]]:
    """An order's least relabelling (a bit set of its pairs) among those that list its worlds
    by how many worlds are below and above each, so isomorphic orders share it, and the
    relabellings that reach it, each as the old world of every new one.  above[i] lists
    the worlds at or above i."""
    degrees = [(sum(i in ups for ups in above), len(above[i])) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in above[a]]
    classes = [[i for i in range(n) if degrees[i] == d] for d in sorted(set(degrees))]
    images: dict[int, list] = {}
    for parts in itertools.product(*map(itertools.permutations, classes)):
        old = sum(parts, ())
        new = sorted(range(n), key=old.__getitem__)
        images.setdefault(sum(1 << new[a] * n + new[b] for a, b in pairs), []).append(old)
    shape = min(images)
    return shape, images[shape]


@lru_cache(maxsize=8)
def _shaped_orders(n: int) -> list:
    """Each partial order on range(n), as _partial_orders yields them: its up-sets and _shape."""
    return [(above, *_shape(n, above)) for above in
            ([tuple(j for j in range(n) if (i, j) in order) for i in range(n)]
             for order in _partial_orders(n))]


def _valuations(above, atoms: int) -> list[tuple]:
    """Each world's per-atom states (bit 1 vplus, bit 2 vminus), in lexicographic order:
    monotone along the order given by the up-sets above, and one bit per atom at a maximal
    world (stabilization).  Atoms are independent, so these are the products of one atom's
    columns, each built world by world."""
    cols = [()]
    for i, ups in enumerate(above):
        below = [j for j in range(i) if i in above[j]]
        over = [j for j in ups if j < i]
        codes = (1, 2) if len(ups) == 1 else range(4)
        prefixes, cols = cols, []
        for col in prefixes:  # a code holds what the worlds below hold, and no more than above
            low = reduce(or_, map(col.__getitem__, below), 0)
            high = reduce(and_, map(col.__getitem__, over), 3)
            cols += [col + (c,) for c in codes if c & low == low and c & high == c]
    return sorted(tuple(zip(*combo)) or ((),) * len(above)
                  for combo in itertools.product(cols, repeat=atoms))


def _model(alpha: tuple[str, ...], above, states) -> KripkeModel:
    """The model on w0, w1, ... with these up-sets and states, as _valuations gives them."""
    names = tuple(f"w{i}" for i in range(len(above)))
    vplus, vminus = ({w: {a for a, c in zip(alpha, st) if c & bit} for w, st in zip(names, states)}
                     for bit in (1, 2))
    leq = {(names[i], names[j]) for i, ups in enumerate(above) for j in ups if i != j}
    return KripkeModel.make(alpha, names, leq, vplus, vminus)


def enumerate_models(alphabet: tuple[str, ...], max_worlds: int) -> list[KripkeModel]:
    """All valid models with up to max_worlds worlds over the alphabet, up to isomorphism:
    of each class the first met, over orders and then valuations.  A model's key is its
    order's least relabelling and the least of its states under the relabellings that
    reach it, so equal keys mean isomorphic models."""
    alpha = tuple(sorted(alphabet))
    out: list[KripkeModel] = []
    seen: set[tuple] = set()
    for n in range(1, max_worlds + 1):
        for above, shape, relabellings in _shaped_orders(n):
            for states in _valuations(above, len(alpha)):
                key = (shape, min(tuple(map(states.__getitem__, r)) for r in relabellings))
                if key not in seen:
                    seen.add(key)
                    out.append(_model(alpha, above, states))
    return out


def _rooted_orders(n: int):
    """The up-sets (world itself included) of each partial order on range(n) where world 0
    is least and i < j for every strict pair (i, j): the walk over the pairs 1 <= i < j.
    Every rooted finite order has such a labelling; isomorphic ones repeat."""
    for rel in _partial_orders(n, list(itertools.combinations(range(1, n), 2))):
        yield [tuple(j for j in range(n) if i == 0 or (i, j) in rel) for i in range(n)]


@lru_cache(maxsize=16)
def _order_tables(n: int, atoms: int) -> list:
    """For each rooted order on n worlds but those isomorphic to an earlier one: its up-sets,
    per world and atom the masks of the candidates (bit c for the c-th of _valuations) that
    put the atom in vplus and in vminus, and the all-candidates mask.  Neither the formula
    nor the atom names enter."""
    tables, shapes = [], set()
    for above in _rooted_orders(n):
        shape, _ = _shape(n, above)
        if shape not in shapes:
            shapes.add(shape)
            states = _valuations(above, atoms)  # cols[w][k]: a state byte per candidate, last first
            cols = [[bytes(col) for col in zip(*world)] for world in zip(*reversed(states))]
            plus, minus = ([[int(col.translate(bytes.maketrans(b"\0\1\2\3", digits)), 2) for col in row]
                            for row in cols] for digits in (b"0101", b"0011"))
            tables.append((above, plus, minus, (1 << len(states)) - 1))
    return tables


def countermodel_search(hyps: list[MProp], goal: MProp,
                        max_worlds: int = 3) -> tuple[KripkeModel, str] | None:
    """A model with the fewest worlds within the bound whose root w0 forces
    hyps but not goal.  A world forces the same in its up-set, itself a
    model with no more worlds, so no counter-model has fewer worlds.  An
    order's valuations are forced at once, and the first that refutes wins.
    Absence within the bound is inconclusive: no finite model property is
    claimed for this semantics."""
    alpha = tuple(sorted(set().union(*(prop_vars(p.base) for p in [goal, *hyps])))) or ("a",)
    for n in range(1, max_worlds + 1):
        for above, plus, minus, full in _order_tables(n, len(alpha)):
            table = _forcing(above, *(dict(zip(alpha, zip(*v))) for v in (plus, minus)), full)
            refuted = reduce(and_, [table(h.base, h.mode.strength, h.sign)[0] for h in hyps],
                             full & ~table(goal.base, goal.mode.strength, goal.sign)[0])
            if refuted:
                first = (refuted & -refuted).bit_length() - 1  # the lowest set bit
                states = [[(p >> first & 1) | (m >> first & 1) << 1 for p, m in zip(*masks)]
                          for masks in zip(plus, minus)]
                return _model(alpha, above, states), "w0"
    return None


# ---------------------------------------------------------------------------
# Model files

def parse_model(text: str) -> KripkeModel:
    """Parse the model file format:

        alphabet: a b
        worlds: w0 w1 w2
        leq: w0 w1, w0 w2
        vplus w1: a b
        vminus w2: a
    """
    alphabet: list[str] = []
    worlds: list[str] = []
    leq: set[tuple[str, str]] = set()
    vplus: dict[str, set[str]] = {}
    vminus: dict[str, set[str]] = {}
    for lineno, col, line in content_lines(text):
        if ":" not in line:
            raise ParseError("expected 'key: values'", lineno, col)
        head, rest = line.split(":", 1)
        at = col + len(head) + 1  # the column of rest[0]
        head = head.strip()
        items = rest.split()
        if head == "alphabet":
            alphabet.extend(items)
        elif head == "worlds":
            worlds.extend(items)
        elif head == "leq":
            for pair in re.finditer(r"[^,\s][^,]*", rest):  # each pair from its first word
                if len(parts := pair[0].split()) == 2:
                    leq.add((parts[0], parts[1]))
                else:
                    raise ParseError(f"leq pair needs two worlds: {pair[0].strip()!r}", lineno,
                                     at + pair.start())
        elif (fields := head.split() or [""])[0] in ("vplus", "vminus"):
            if len(fields) != 2:
                raise ParseError(f"expected '{fields[0]} <world>:'", lineno, col)
            target = vplus if fields[0] == "vplus" else vminus
            target.setdefault(fields[1], set()).update(items)
        else:
            raise ParseError(f"unknown section {head!r}", lineno, col)
        for word in re.finditer(r"[^\s,]+" if head == "leq" else r"\S+", line.replace(":", " ", 1)):
            if not is_name(word[0]):  # a head's words too, so a valuation's world
                raise ParseError(f"expected a name, found {word[0]!r}", lineno, col + word.start())
    if not worlds:
        raise InvalidModelError("model declares no worlds")
    known = set(worlds)
    for w in list(vplus) + list(vminus):
        if w not in known:
            raise InvalidModelError(f"valuation for unknown world {w!r}")
    return KripkeModel.make(alphabet, worlds, leq, vplus, vminus)


def print_model(m: KripkeModel) -> str:
    lines = [
        "alphabet: " + " ".join(sorted(m.alphabet)),
        "worlds: " + " ".join(m.worlds),
    ]
    gens = sorted((a, b) for a, b in m.leq if a != b)
    if gens:
        lines.append("leq: " + ", ".join(f"{a} {b}" for a, b in gens))
    for sign, v in (("vplus", dict(m.vplus)), ("vminus", dict(m.vminus))):
        lines += [f"{sign} {w}: " + " ".join(sorted(v[w])) for w in m.worlds if v[w]]
    return "\n".join(lines) + "\n"


def counter_model_lem() -> KripkeModel:
    """The three-world model refuting the strong excluded middle for `a`: a
    root below a world where `a` holds and one where it is refuted."""
    return KripkeModel.make(("a",), ("w0", "w1", "w2"), {("w0", "w1"), ("w0", "w2")},
                            {"w1": {"a"}}, {"w2": {"a"}})

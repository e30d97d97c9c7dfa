"""Abstract syntax for pure/moded propositions and proof terms.

Terms use de Bruijn indices for bound variables and names for free
variables, so structural equality of terms *is* alpha-equivalence
(binder name hints are carried for printing but excluded from
comparison).  All values are immutable.

Each tree's shape is read off its dataclass fields by `make_shape`: a
field holds a child when its annotation names the tree, so `children`
and `rebuild` are derived, and one binder table (`BINDERS` for terms)
says how many binders sit over each child.  Every walk over terms (size,
shifting, substitution, closing, duality, subterms, reduction) is built
on that shape through the generic walks defined here: `make_map`, a
binder-aware map that keeps unchanged nodes, and `make_fold`, an
iterative pre-order walk; `make_debruijn` derives shifting, substitution
and closing from a map, and `make_normalize` is the one reduction walk of
both calculi, which a single step stops at its first contraction;
`print_tree` prints any tree from a layout of each node's parts.
systemf builds its type and term walks on the same helpers, and the walks
over propositions (printing, size, duality, depth) use them too.

Every proof term, System F type and System F term carries `free`, a
summary of its free variables that `summarize` makes from its children's on
first read (a variable's with it): per sort of variable, the bound on its free
indices and its free names.  So `fv` takes constant time, and shifting,
substitution and closing return unvisited every subtree they cannot change.

Every node class, MProp, typecheck's Derivation and the other layers' records
are frozen dataclasses built by the metaclass `Frozen`, with no instance
__dict__: a node keeps its fields, its cached hash and its summary in slots.
The hash, and the summary of a node other than a variable, stay None until
first read.  dataclass() only records each class's fields; one exec per class,
at import, compiles its __init__, __eq__ and field hash here (_methods).

The calculus is symmetric between affirmation (sign +) and denial (sign
-), and that duality is written down once, in the table below the
modes: `PAIRED[sign]` is the connective a pair and a projection of that
sign work on, `INJECTED[sign]` the one an injection and a case work on,
and negation flips the sign.  Typing, forcing, the System F translation
and the generators state each rule once and read its `-` form off the
table, so no `-` rule is written out beside its `+` mirror.

The paper's four modes are built once, as `MODES`: `Mode(strength, sign)`
returns the shared one (so does copying or unpickling one), `MODE_OF` maps
each (strength, sign) to it, and `==` on modes is identity.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, Field, FrozenInstanceError, dataclass, field, fields
from functools import cache, lru_cache, partial
from itertools import repeat
from operator import attrgetter
from typing import Container, Iterator, Sequence, Union


_HASH_OF: dict[type, object] = {}  # each class with a slot _hash -> its compiled field hash (_methods)
_VALUES: dict[type, object] = {}  # each Frozen class -> the function from its instance to its fields
_SHOWN: dict[type, list] = {}  # each Frozen class -> the names of the fields its repr shows


class Frozen(type):
    """The metaclass of the frozen dataclasses that keep no instance __dict__: every tree's
    nodes, MProp, Derivation and the other layers' records.  A class keeps its fields in slots,
    beside the lazy slots that its body or bases name in __slots__ (a cached hash, a summary).
    dataclass() only records its fields, for fields() and replace(), and generates no code: one
    exec per class compiles its __init__, __eq__ and hash (_methods), one __repr__, __setattr__,
    __delattr__ and __reduce__ serve every class, and a class with no docstring gets the one
    dataclass() writes.  __init__ writes every slot through its descriptor, a lazy one as None,
    so a lazy slot's first read finds None and fills it without raising.  Copies and pickles
    rebuild through __init__, so they leave the lazy slots out.  A variable's class names
    leaf=(sorts, slot) of its summary, which __init__ writes (_methods).  Each class is built
    once: dataclass(slots=True) builds a second, and the first stays among its base's subclasses."""

    def __new__(mcs, name, bases, ns, leaf=None):
        names = tuple(ns.get("__annotations__", ()))
        specs = {k: ns.pop(k) for k in names if k in ns}  # defaults and field()s
        cls = super().__new__(mcs, name, bases, {**ns, "__slots__": names + ns.get("__slots__", ())})
        if names:  # dataclass reads each spec off the class, where the slot's descriptor is put back
            defaults = {k: spec.default if isinstance(spec, Field) else spec for k, spec in specs.items()}
            cls.__doc__ = cls.__doc__ or name + "(" + ", ".join(f"{k}: {a!r}" + (
                "" if defaults.get(k, MISSING) is MISSING else f" = {defaults[k]!r}")
                for k, a in cls.__annotations__.items()) + ")"  # as dataclass() writes it, no inspect
            slots = {k: cls.__dict__[k] for k in names}
            for k, spec in specs.items():
                setattr(cls, k, spec)
            dataclass(init=False, repr=False, eq=False)(cls)
            for k, slot in slots.items():
                setattr(cls, k, slot)
            cls.__init__, cls.__eq__, cls.__hash__ = _methods(cls, names, defaults.values(), fields(cls), leaf)
            cls.__repr__, cls.__setattr__, cls.__delattr__, cls.__reduce__ = _repr, _frozen, _frozen, _rebuilt
            _VALUES[cls], _SHOWN[cls] = _getter(names), [f.name for f in fields(cls) if f.repr]
            if hasattr(cls, "_hash"):  # a slot for the hash: memoize it there (_cached_hash)
                _HASH_OF[cls], cls.__hash__ = cls.__hash__, _cached_hash
        return cls


def _methods(cls, names, defaults=(), declared=(), leaf=None) -> tuple:
    """cls.__init__(*names), __eq__ and __hash__, compiled by one exec as a frozen dataclass's.
    __init__ writes each slot through its descriptor: a field's from its argument and a lazy one
    as None, or, given leaf, a variable's summary as _shared_leaf(*leaf, its field); its last
    arguments default to the defaults not MISSING.  __eq__ compares the declared fields with compare
    set as tuples if the classes are the same, else is NotImplemented; __hash__ hashes that tuple."""
    values = {s: s if s in names else "None" for c in cls.__mro__ for s in c.__dict__.get("__slots__", ())}
    if leaf:
        values["_free"] = f"_shared_leaf({leaf[0]}, {leaf[1]}, {names[0]})"
    scope = {f"_{i}": getattr(cls, s).__set__ for i, s in enumerate(values)}
    scope["_shared_leaf"] = _shared_leaf
    mine, theirs = ("".join(f"{who}.{f.name}," for f in declared if f.compare) for who in ("self", "other"))
    exec(f"def __init__(self, {', '.join(names)}):" + "".join(
        f"\n _{i}(self, {v})" for i, v in enumerate(values.values())) +
        f"\ndef __eq__(self, other):\n if other.__class__ is self.__class__:"
        f"\n  return ({mine}) == ({theirs})\n return NotImplemented"
        f"\ndef __hash__(self):\n return hash(({mine}))", scope)
    made = scope["__init__"], scope["__eq__"], scope["__hash__"]
    for f in made:
        f.__qualname__ = f"{cls.__qualname__}.{f.__name__}"
    made[0].__annotations__ = dict(cls.__annotations__)
    made[0].__defaults__ = tuple(d for d in defaults if d is not MISSING) or None
    return made


def _repr(self) -> str:
    """Name(field=value, ...) over the fields with repr, as a dataclass's."""
    shown = ", ".join([f"{k}={getattr(self, k)!r}" for k in _SHOWN[type(self)]])
    return f"{type(self).__qualname__}({shown})"


def _frozen(self, name, *value):
    """__setattr__ and __delattr__, which raise as a frozen dataclass's do."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _rebuilt(self):
    """self's class and fields: a copy or pickle is rebuilt by __init__, its lazy slots None."""
    return type(self), _VALUES[type(self)](self)


def _cached_hash(self) -> int:
    """The field hash _methods compiles, memoized on first use in the slot `_hash`; Frozen makes
    it the hash of each class with that slot.  Sets and memo tables hash the same immutable
    nodes many times.  A first hash hashes the unhashed nodes below first (see _fill), so no
    tree is too deep.  It differs between processes, so pickles and copies leave it out."""
    h = self._hash
    return _fill(self, "_hash", _HASH_OF) if h is None else h


def _fill(t, key: str, make: dict):
    """The slot `key` of t, made first as make[type(u)](u) for each node u below t whose slot
    is None, children first, on an explicit stack.  A child whose slot is filled is not
    entered, so the walk is linear in the graph, not the tree."""
    stack = [t]
    while stack:
        u, n = stack[-1], len(stack)
        for c in _VALUES[type(u)](u):
            if type(c) in make and getattr(c, key) is None:
                stack.append(c)
        if len(stack) == n:  # every child holds its value
            u = stack.pop()
            object.__setattr__(u, key, make[type(u)](u))
    return getattr(t, key)


# ---------------------------------------------------------------------------
# Generic walks over a tree shape.  A shape is children(t), the subtrees of
# t in field order (none for a leaf); rebuild(t, kids), t with them
# replaced; and a binder table giving, per binding constructor, how many
# binders each child sits under.  A depth counts binders from `top` at the
# root; deeper(depth, k) adds a table entry k to it.

def make_shape(base, leaves=(), binders=None, sorts=(), under=lambda k: (k,)):
    """children(t) and rebuild(t, kids) for the tree whose nodes are the
    dataclass subclasses of base, read off their fields: a field holds a
    child when its annotation names base or a class in leaves, and a node
    of a leaves class is a leaf of this tree.

    Given sorts, each node of base's tree gets its summary `free` (Summarized):
    sorts lists, per sort of variable in summary order, its index class and its
    name class (each naming its slot as Frozen's leaf), and under maps an entry
    of the binder table to the binders of each sort that it puts over a child."""
    kinds = {cls.__name__ for cls in (base, *leaves)}
    getters = {cls: _getter([]) for leaf in leaves for cls in leaf.__subclasses__()}
    builders, variables = {}, {cls for pair in sorts for cls in pair}
    for cls in base.__subclasses__():
        names = [f.name for f in fields(cls)]
        at = [i for i, f in enumerate(fields(cls)) if f.type in kinds]
        getters[cls] = _getter([names[i] for i in at])
        builders[cls] = partial(_build, cls, at)
        if sorts and cls not in variables:  # a variable's is made as it is built (Frozen's leaf)
            entry = binders.get(cls)
            unders = repeat(None) if entry is None else [u if any(u) else None for u in map(under, entry)]
            _SUMMARY[cls] = partial(summarize, getters[cls], unders)

    def children(t) -> tuple:
        """The children of t, in field order (none for a leaf)."""
        return getters[type(t)](t)

    def rebuild(t, kids):
        """t with its children replaced by kids, in field order."""
        return builders[type(t)](t, kids) if kids else t

    return children, rebuild


def _getter(names):
    """The function from a node to its fields `names`, as a tuple."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda t: (get(t),)
    return attrgetter(*names) if names else lambda t: ()


def _build(cls, at, t, kids):
    """A copy of t, a cls node, with kids for its fields at positions `at`."""
    args = list(_VALUES[cls](t))
    for i, kid in zip(at, kids):
        args[i] = kid
    return cls(*args)


# Free-variable summaries.  A summary holds, per sort of variable, the bound on a
# node's free indices (the largest + 1, 0 if none) and the set of its free names,
# flattened into one tuple, made on first read.  make_shape fills _SUMMARY.

_NO_NAMES: frozenset[str] = frozenset()
_SUMMARY: dict[type, object] = {}  # node class -> the function that makes its nodes' free


class Summarized(metaclass=Frozen):
    """A tree node that carries `free`, its summary, made on its first read into the slot
    `_free`, beside its cached hash's slot `_hash`."""

    __slots__ = ("_hash", "_free")

    @property
    def free(self) -> tuple:
        f = self._free
        return _fill(self, "_free", _SUMMARY) if f is None else f


def summarize(children, unders, t) -> tuple:
    """The summary of a node t from its children's; unders[i], unless None,
    counts the binders of each sort over child i.  Where it equals a
    child's summary, it is that child's tuple."""
    free = None
    for c, under in zip(children(t), unders):
        f = c.free
        if under is not None:  # f as seen from above the binders
            lowered = list(f)
            for s, k in enumerate(under):
                lowered[2 * s] = max(f[2 * s] - k, 0)
            f = f if tuple(lowered) == f else tuple(lowered)
        if free is None:
            free = f
        elif f != free:
            joined = list(free)
            for j in range(0, len(f), 2):
                v, w = free[j + 1], f[j + 1]
                joined[j] = max(free[j], f[j])
                joined[j + 1] = v if w <= v else w if v <= w else v | w
            joined = tuple(joined)
            free = free if joined == free else f if joined == f else joined
    return free


@lru_cache(maxsize=1 << 12)
def _shared_leaf(sorts: int, slot: int, value) -> tuple:
    """The summary of a variable whose index or name is value, in the slot of its sort.
    Equal ones are shared, through a bounded table."""
    if slot % 2 == 0 and value < 0:
        raise ValueError(f"negative de Bruijn index {value}")
    free: list = [0, _NO_NAMES] * sorts
    free[slot] = value + 1 if slot % 2 == 0 else frozenset((value,))
    return tuple(free)


def make_map(children, rebuild, binders, deeper=operator.add, top=0):
    """map(t, leaf, depth=top, keep=never) replaces every leaf u of t by
    leaf(u, d), d the depth of u; a subtree u with keep(u, d) true is
    returned as it is, unvisited.  A node whose children all come back
    unchanged is returned itself, so a map that changes nothing allocates
    nothing.  rebuild may return any value, so a map whose leaves return
    values evaluates the tree bottom-up.  It keeps an explicit stack, so no
    tree is too deep for it."""

    def tree_map(t, leaf, depth=top, keep=lambda u, d: False):
        done = []  # results, each node's after its children's
        stack = [(t, depth, None)]  # (node, depth, its children once visited)
        while stack:
            u, d, kids = stack.pop()
            if kids is not None:  # the results of kids are on top of done
                new = done[-len(kids):]
                del done[-len(kids):]
                done.append(u if all(map(operator.is_, new, kids)) else rebuild(u, new))
            elif keep(u, d):
                done.append(u)
            elif not (kids := children(u)):
                done.append(leaf(u, d))
            else:
                stack.append((u, d, kids))
                under = binders.get(type(u))
                if under is None:
                    for c in reversed(kids):
                        stack.append((c, d, None))
                else:
                    for c, k in zip(reversed(kids), reversed(under)):
                        stack.append((c, deeper(d, k), None))
        return done[0]

    return tree_map


def make_fold(children, binders, deeper=operator.add, top=0):
    """fold(t, visit, depth=top) calls visit(u, d) on every node u of t, d
    its depth, parents first and left to right, and returns the first true
    result.  It keeps an explicit stack, so no tree is too deep for it."""

    def fold(t, visit, depth=top):
        stack = [(t, depth)]
        pop, push = stack.pop, stack.append
        while stack:
            u, d = pop()
            hit = visit(u, d)
            if hit:
                return hit
            kids = children(u)
            if kids:
                under = binders.get(type(u))
                if under is None:
                    for c in reversed(kids):
                        push((c, d))
                else:
                    for c, k in zip(reversed(kids), reversed(under)):
                        push((c, deeper(d, k)))
        return None

    return fold


def print_tree(t, layout) -> str:
    """The text of t.  layout(u) lists the parts of a node u: text, a
    subtree, or a function, run when it is reached, that returns text or
    None, such as opening or closing a binder's scope.  The parts wait on an
    explicit stack, so no tree is too deep for it."""
    out: list[str] = []
    todo = [t]
    while todo:
        part = todo.pop()
        if isinstance(part, str):
            out.append(part)
        elif callable(part):
            out.append(part() or "")
        else:
            todo += reversed(layout(part))
    return "".join(out)


def make_normalize(children, rebuild):
    """normalize(t, match, before, recheck=()), t's leftmost-outermost normal
    form, by one pre-order walk on an explicit stack that resumes after each
    contraction: linear in the nodes visited plus the contractions.  match(u)
    is None or (rule, reduct); before(path, rule, redex, reduct) runs before
    each contraction, path the redex's immutable path: () at the root, else
    (the parent's path, the parent as the walk found it, the child index),
    the parent's path made once, when its frame was pushed.  If before returns
    true the walk stops there and returns t with that one redex contracted.
    Nodes before the focus are redex-free and a rule reads a node and its
    children, so a contraction can make a redex only of its parent or of an
    enclosing node of a class in recheck."""

    def normalize(t, match, before, recheck=()):
        stack: list[list] = []  # frames [node, kids, i, node's path]; the top one's kids[i] is the focus
        focus, m = t, match(t)
        while True:
            if m is not None:
                path = (stack[-1][3], stack[-1][0], stack[-1][2]) if stack else ()
                if before(path, m[0], focus, m[1]):  # stop, the reduct put back to the root
                    node = m[1]
                    for parent, kids, i, _ in reversed(stack):
                        kids[i] = node
                        node = rebuild(parent, kids)
                    return node
                # resume at the outermost rechecked node now a redex
                top = max(len(stack) - 1, 0)
                if recheck:
                    top = next((k for k, f in enumerate(stack) if isinstance(f[0], recheck)), top)
                hit, node = None, m[1]
                for k in reversed(range(top, len(stack))):
                    parent, kids, i, _ = stack[k]
                    kids[i] = node
                    node = rebuild(parent, kids)
                    if (k == len(stack) - 1 or isinstance(node, recheck)) and (mk := match(node)):
                        hit = k, node, mk
                k, focus, m = hit or (len(stack), m[1], match(m[1]))  # else the reduct
                del stack[k:]
                continue
            if kids := children(focus):
                path = (stack[-1][3], stack[-1][0], stack[-1][2]) if stack else ()
                stack.append([focus, list(kids), 0, path])
                focus = kids[0]
            else:  # climb to the next right sibling, rebuilding changed parents
                while stack:
                    node, kids, i, _ = frame = stack[-1]
                    kids[i] = focus
                    if i + 1 < len(kids):
                        frame[2], focus = i + 1, kids[i + 1]
                        break
                    stack.pop()
                    focus = node if all(map(operator.is_, kids, children(node))) else rebuild(node, kids)
                else:
                    return focus
            m = match(focus)

    return normalize


def preorder(fold, t) -> list:
    """Every node of t, parents first and left to right."""
    out: list = []
    fold(t, lambda u, _: out.append(u))
    return out


def make_debruijn(tree_map, Bound, Free):
    """Shifting, substitution and closing for a tree with one kind of
    binder, built on its map; Bound(i) is an index leaf, Free(n) a name.
    The first sort of each node's summary `free` is that binder's: each walk
    skips the subtrees it cannot change, so every leaf it visits changes."""

    def unchanged(above: int, name=None):
        """The keep test of a walk that changes only indices >= above + depth and `name`."""
        return lambda u, d: (f := u.free)[0] <= above + d and name not in f[1]

    def shift(t, amount: int, cutoff: int = 0):
        """Add `amount` to every index >= cutoff (indices below are untouched)."""

        def leaf(u, cut):  # an index >= cut
            if u.index + amount < cut:
                raise ValueError("shift would produce a dangling index")
            return Bound(u.index + amount)

        return tree_map(t, leaf, cutoff, keep=unchanged(0))

    def subst(t, j: int, s, depth: int = 0):
        """Substitute s for index j, removing that binder level: indices
        above it are decremented, and s is shifted by the binders crossed
        on the way in.  depth counts binders already crossed between s's
        home level and t."""

        def leaf(u, d):  # an index >= j + d
            if u.index > j + d:
                return Bound(u.index - 1)
            return shift(s, d) if d else s

        return tree_map(t, leaf, depth, keep=unchanged(j))

    def close(t, name: str, depth: int = 0):
        """Abstract the free variable `name` as index `depth` (inverse of
        substituting Free(name) for that index)."""

        def leaf(u, d):  # `name` or an index >= d
            return Bound(d) if isinstance(u, Free) else Bound(u.index + 1)

        return tree_map(t, leaf, depth, keep=unchanged(0, name))

    return shift, subst, close


# ---------------------------------------------------------------------------
# Pure propositions

class PureProp(metaclass=Frozen):
    """Base class for pure propositions (no mode)."""

    __slots__ = ("_hash",)

    def __str__(self) -> str:
        return print_tree(self, _prop_parts)


class PVar(PureProp):
    name: str


class And(PureProp):
    left: PureProp
    right: PureProp


class Or(PureProp):
    left: PureProp
    right: PureProp


class Neg(PureProp):
    inner: PureProp


prop_children, prop_rebuild = make_shape(PureProp)
prop_fold = make_fold(prop_children, {})
_SWAP = {And: Or, Or: And, Neg: Neg}
_dual = make_map(prop_children, lambda u, kids: _SWAP[type(u)](*kids), {})
_height = make_map(prop_children, lambda u, kids: 1 + max(kids), {})


def _prop_parts(u: PureProp) -> list:
    """The parts of u for print_tree."""
    if type(u) is PVar:
        return [u.name]
    if type(u) is Neg:
        return ["~", u.inner]
    return ["(", u.left, " & " if type(u) is And else " | ", u.right, ")"]


def prop_size(a: PureProp) -> int:
    """Number of symbols: every variable and connective counts one."""
    return len(preorder(prop_fold, a))


def prop_vars(a: PureProp) -> frozenset[str]:
    return frozenset(u.name for u in preorder(prop_fold, a) if isinstance(u, PVar))


def prop_dual(a: PureProp) -> PureProp:
    """Swap conjunction/disjunction, push through negation, fix variables."""
    # a copy of each variable, as make_map keeps a node whose children come back as they were
    return _dual(a, lambda u, _: PVar(u.name))


def prop_depth(a: PureProp) -> int:
    """Formula height, counting a variable as depth 1."""
    return _height(a, lambda u, _: 1)


# ---------------------------------------------------------------------------
# Modes and moded propositions

STRONG = "s"
CLASSICAL = "c"
PLUS = "+"
MINUS = "-"


class _Shared(type):
    """Mode(strength, sign) returns the one mode built for that pair."""

    def __call__(cls, strength, sign):
        try:
            return MODE_OF[strength, sign]
        except (KeyError, TypeError):
            raise ValueError(f"bad mode {strength!r}{sign!r}") from None


@dataclass(frozen=True, eq=False, unsafe_hash=True)
class Mode(metaclass=_Shared):
    strength: str  # "s" | "c"
    sign: str      # "+" | "-"

    def __reduce__(self):  # copies and pickles are the shared mode too
        return Mode, (self.strength, self.sign)

    def __str__(self) -> str:
        return f"^{self.strength}{self.sign}"


# type.__call__ builds each mode with the dataclass __init__, which _Shared skips
MODES = tuple(type.__call__(Mode, st, sg) for st in (STRONG, CLASSICAL) for sg in (PLUS, MINUS))
MODE_OF = {(m.strength, m.sign): m for m in MODES}  # the mode of each (strength, sign)

Sign = str  # "+" | "-"


def flip(sign: Sign) -> Sign:
    return MINUS if sign == PLUS else PLUS


# The duality table (see the module docstring).  Rule names are read off
# it too: pair/in are I{connective}{sign}, proj/case E{connective}{sign}.
PAIRED = {PLUS: And, MINUS: Or}
INJECTED = {PLUS: Or, MINUS: And}
STANCE = {PLUS: "affirmation", MINUS: "denial"}


def strong_noun(conn: type, sign: Sign) -> str:
    """'strong conjunction', 'strong disjunction denial', ... for messages."""
    noun = "strong conjunction" if conn is And else "strong disjunction"
    return noun if sign == PLUS else f"{noun} denial"


class MProp(metaclass=Frozen):
    """A pure proposition under one of the four modes."""

    __slots__ = ("_hash",)
    base: PureProp
    mode: Mode

    def __str__(self) -> str:
        return f"{self.base}{self.mode}"

    @property
    def sign(self) -> str:
        return self.mode.sign

    @property
    def is_strong(self) -> bool:
        return self.mode.strength == STRONG

    @property
    def is_classical(self) -> bool:
        return self.mode.strength == CLASSICAL


def opposite(p: MProp) -> MProp:
    """Flip the sign, preserve strength and base."""
    return MProp(p.base, MODE_OF[p.mode.strength, flip(p.sign)])


def truncate(p: MProp) -> MProp:
    """Force the strength to classical, preserve sign and base."""
    return MProp(p.base, MODE_OF[CLASSICAL, p.sign])


def measure(p: MProp) -> int:
    """2|A| for strong modes, 2|A|+1 for classical modes."""
    n = 2 * prop_size(p.base)
    return n + 1 if p.is_classical else n


def mprop_dual(p: MProp) -> MProp:
    """Dualize the base and flip the sign, keeping strength."""
    return MProp(prop_dual(p.base), MODE_OF[p.mode.strength, flip(p.sign)])


# ---------------------------------------------------------------------------
# Terms

class Term(Summarized):
    __slots__ = ()


class Var(Term, leaf=(1, 1)):
    """Free variable, referenced by name."""

    name: str


class Bound(Term, leaf=(1, 0)):
    """Bound variable as a de Bruijn index into enclosing binders."""

    index: int


class Abs(Term):
    """Absurdity witness abs[Q](t, s) from a strong contradiction."""

    annot: MProp
    left: Term
    right: Term


class Pair(Term):
    sign: Sign
    left: Term
    right: Term


class Proj(Term):
    sign: Sign
    index: int  # 1 | 2
    body: Term


class Inj(Term):
    sign: Sign
    index: int  # 1 | 2
    body: Term


class Case(Term):
    """Binary case split; each branch binds one variable (index 0)."""

    sign: Sign
    scrutinee: Term
    annot1: MProp
    branch1: Term
    annot2: MProp
    branch2: Term
    hint1: str = field(default="x", compare=False)
    hint2: str = field(default="y", compare=False)


class NegI(Term):
    sign: Sign
    body: Term


class NegE(Term):
    sign: Sign
    body: Term


class CLam(Term):
    """Classical introduction; binds one variable (index 0) in the body."""

    sign: Sign
    annot: MProp
    body: Term
    hint: str = field(default="x", compare=False)


class CApp(Term):
    sign: Sign
    fun: Term
    arg: Term


# The shape of the term tree, read off the fields above, and BINDERS, the
# binders over each child.  A term's summary is (bound on its free indices,
# its free names).

BINDERS = {CLam: (1,), Case: (0, 1, 1)}  # binders over each child
children, rebuild = make_shape(Term, binders=BINDERS, sorts=((Bound, Var),))

term_map = make_map(children, rebuild, BINDERS)
term_fold = make_fold(children, BINDERS)
shift, subst_bound, close_binder = make_debruijn(term_map, Bound, Var)


def subterms(t: Term) -> Iterator[Term]:
    """Pre-order iteration over all subterms (bodies of binders included)."""
    return iter(preorder(term_fold, t))


def term_size(t: Term) -> int:
    return len(preorder(term_fold, t))


def fv(t: Term) -> frozenset[str]:
    """Free (named) variables."""
    return t.free[1]


def uses_index(t: Term, k: int) -> bool:
    """Does t refer to the k-th enclosing binder (relative to t's root)?"""
    return bool(term_fold(t, lambda u, d: isinstance(u, Bound) and u.index == d, k))


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution of the free variable x by s.

    Bound variables are indices, so s can never be captured; binder
    hints are refreshed lazily at print time.
    """
    # the map skips every subtree without x, so each leaf it reaches is x
    return term_map(t, lambda u, _: s, keep=lambda u, _: x not in u.free[1])


def open_binder(body: Term, name: str) -> Term:
    """Replace index 0 of a binder body with the free variable `name`."""
    return subst_bound(body, 0, Var(name))


def clam(sign: Sign, x: str, annot: MProp, body: Term) -> CLam:
    """Build a classical lambda from a named body."""
    return CLam(sign, annot, close_binder(body, x), hint=x)


def case(sign: Sign, scrutinee: Term, b1: tuple[str, MProp, Term],
         b2: tuple[str, MProp, Term]) -> Case:
    """Build a case split from named branches."""
    x, p1, t1 = b1
    y, p2, t2 = b2
    return Case(sign, scrutinee, p1, close_binder(t1, x), p2, close_binder(t2, y),
                hint1=x, hint2=y)


_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in Term.__subclasses__()}


def term_dual(t: Term) -> Term:
    """Flip every sign and dualize every proposition annotation."""
    done: dict[int, Term] = {}  # id of a node -> its dual
    annot = cache(mprop_dual)  # each distinct annotation is dualized once
    for u in reversed(preorder(term_fold, t)):  # every node after its children
        done[id(u)] = type(u)(*[
            done[id(v)] if isinstance(v, Term) else annot(v) if isinstance(v, MProp)
            else flip(v) if f == "sign" else v
            for f in _FIELDS[type(u)] for v in [getattr(u, f)]])
    return done[id(t)]


Dualizable = Union[PureProp, MProp, Term]


def dual(x: Dualizable) -> Dualizable:
    """Dual of a pure proposition, moded proposition, or term."""
    if isinstance(x, PureProp):
        return prop_dual(x)
    if isinstance(x, MProp):
        return mprop_dual(x)
    if isinstance(x, Term):
        return term_dual(x)
    raise TypeError(x)


def fresh_name(base: str, *taken: Container[str]) -> str:
    """The first of base, base2, base3, ... found in none of taken."""
    x, i = base, 2
    while True:
        for names in taken:  # a loop, not any(): a generator per probe costs twice as much
            if x in names:
                break
        else:
            return x
        x, i = f"{base}{i}", i + 1


class Scope:
    """The names open, innermost last, each with a value: the binders open in print_term, the
    F printers or embed_nk, or typing's context.  push(hint, *taken) opens fresh_name(hint,
    the open names, *taken): the hint if neither open nor taken, else the first name after
    the run of the hint's names from its second that it knows to be open, so binders with one
    hint cost O(1) each; add(name) opens a name not open; pop() closes the innermost."""

    def __init__(self, env: Sequence[str] = ()):
        self.names = list(reversed(env))  # innermost last
        self.open = dict.fromkeys(env)  # name -> value; a name twice in env is never popped
        self.known: dict[str, int] = {}  # hint -> k: its 2nd to (k-1)-th names are open

    def name(self, i: int) -> str:
        """The name of index i, counted from the innermost binder."""
        return self.names[-1 - i] if i < len(self.names) else f"#{i}"

    def push(self, hint: str, *taken: Container[str], value=None) -> str:
        if hint not in self.open and not any(hint in s for s in taken):
            return self.add(hint, value)
        k = start = run = self.known.get(hint, 2)  # run: the first from its 2nd not seen open
        while (x := f"{hint}{k}") in self.open or any(x in s for s in taken):
            run, k = run + (run == k and x in self.open), k + 1
        if (run := run + (run == k)) > start:  # x, now open, may carry the run on
            self.known[hint] = run
        return self.add(x, value)

    def add(self, name: str, value=None) -> str:
        self.names.append(name)
        self.open[name] = value
        return name

    def pop(self) -> None:
        """Close the innermost name.  What is known of each hint stays, cut at that name."""
        name = self.names.pop()
        del self.open[name]
        i = len(name)  # a hint's k-th name is the hint followed by k > 1
        while i > 1 and name[i - 1].isdecimal():
            i -= 1
            if name[i] != "0" and 1 < (k := int(name[i:])) < self.known.get(name[:i], 0):
                self.known[name[:i]] = k

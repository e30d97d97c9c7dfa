"""The classical-logic bridge: strength-erasing map, truth tables, the
decision procedure for the classical-affirmation fragment, compilation of
natural-deduction proofs, each node judged by its rule's nk_* constructor, into
proof terms, and the derived implication combinators with their computation rules."""

from __future__ import annotations

import itertools
from functools import reduce

from .errors import InvalidNKProofError, ParseError, WrongModeError
from .rewrite import ETA, Trace, normalize
from .surface import RESERVED_FALSITY, _Tokens, _parse_base, located, read_entailment
from .syntax import (CLASSICAL, MINUS, PLUS, STRONG, And, CApp, Frozen, Inj, MProp,
                     Mode, Neg, NegE, NegI, Or, PVar, Pair, Proj, PureProp,
                     Scope, Term, Var, case, clam, fresh_name, fv, preorder,
                     prop_fold, substitute)
from .typecheck import Context, abs_general_at, contrapose_at, mk_lem

FALSITY_VAR = RESERVED_FALSITY
FALSITY: PureProp = And(PVar(FALSITY_VAR), Neg(PVar(FALSITY_VAR)))


def implies(a: PureProp, b: PureProp) -> PureProp:
    """Implication as the abbreviation ~a | b."""
    return Or(Neg(a), b)


def _cp(a: PureProp) -> MProp:
    return MProp(a, Mode(CLASSICAL, PLUS))


def _cm(a: PureProp) -> MProp:
    return MProp(a, Mode(CLASSICAL, MINUS))


# ---------------------------------------------------------------------------
# Conservativity: classem and truth tables

def classem(p: MProp) -> PureProp:
    """Erase strength: affirmations map to the base, denials to its negation."""
    return p.base if p.sign == PLUS else Neg(p.base)


def tt_valid(hyps: list[PureProp], goal: PureProp) -> bool:
    """Classical semantic entailment by truth tables, an int holding a column
    of rows: the first 16 atoms span at most 2**16 rows, each assignment of
    the rest is one pass, and the first counterexample ends the search."""
    nodes = preorder(prop_fold, reduce(And, hyps, Neg(goal)))  # true on a counterexample
    names = sorted({u.name for u in nodes if type(u) is PVar})
    cols, rows = {}, 1  # each atom's column, and the number of rows
    for x in names[:16]:
        cols = {y: m | m << rows for y, m in cols.items()}  # each row twice, x false then true
        cols[x] = ((1 << rows) - 1) << rows
        rows *= 2
    for bits in itertools.product((0, -1), repeat=len(names[16:])):  # -1: true on every row
        cols.update(zip(names[16:], bits))
        done = []  # a column per operand not yet combined; postorder reads children first
        for u in reversed(nodes):
            t = type(u)
            done.append(cols[u.name] if t is PVar else ~done.pop() if t is Neg
                        else done.pop() & done.pop() if t is And else done.pop() | done.pop())
        if done[0] & (1 << rows) - 1:
            return False
    return True


def decide_oplus(hyps: list[MProp], goal: MProp) -> bool:
    """Provability of a classical-affirmation sequent, which coincides
    with classical validity of the erased sequent."""
    for p in [goal, *hyps]:
        if p.mode is not Mode(CLASSICAL, PLUS):
            raise WrongModeError(
                f"decide_oplus only covers classical affirmations, found {p}")
    return tt_valid([classem(h) for h in hyps], classem(goal))


# ---------------------------------------------------------------------------
# Embedding combinators

def pairc(t: Term, s: Term, a: PureProp, b: PureProp) -> Term:
    """Conjunction introduction at (a & b)^c+."""
    w = fresh_name("w", fv(t), fv(s))
    return clam(PLUS, w, _cm(And(a, b)), Pair(PLUS, t, s))


def projic(i: int, t: Term, a1: PureProp, a2: PureProp) -> Term:
    """Conjunction elimination from (a1 & a2)^c+ to the i-th component."""
    ai = a1 if i == 1 else a2
    x = fresh_name("x", fv(t))
    w = fresh_name("w", fv(t), {x})
    refut = clam(MINUS, w, _cp(And(a1, a2)), Inj(MINUS, i, Var(x)))
    return clam(PLUS, x, _cm(ai), CApp(PLUS, Proj(PLUS, i, CApp(PLUS, t, refut)), Var(x)))


def inic(i: int, t: Term, a1: PureProp, a2: PureProp) -> Term:
    """Disjunction introduction at (a1 | a2)^c+."""
    w = fresh_name("w", fv(t))
    return clam(PLUS, w, _cm(Or(a1, a2)), Inj(PLUS, i, t))


def casec(t: Term, x: str, s: Term, u: Term, a: PureProp, b: PureProp,
          c: PureProp) -> Term:
    """Disjunction elimination: branches s, u bind x at a^c+ resp. b^c+,
    both concluding c^c+."""
    y = fresh_name("y", fv(t), fv(s), fv(u), {x})
    w = fresh_name("w", fv(s), fv(u), {x, y})
    refut = clam(MINUS, w, _cp(Or(a, b)),
                 Pair(MINUS,
                      contrapose_at(x, _cp(a), y, s, _cp(c)),
                      contrapose_at(x, _cp(b), y, u, _cp(c))))
    return clam(PLUS, y, _cm(c),
                case(PLUS, CApp(PLUS, t, refut),
                     (x, _cp(a), CApp(PLUS, s, Var(y))),
                     (x, _cp(b), CApp(PLUS, u, Var(y)))))


def neglamc(x: str, t: Term, a: PureProp) -> Term:
    """Negation introduction: from x : a^c+ |- t : bottom^c+ build (~a)^c+."""
    w = fresh_name("w", fv(t), {x})
    inner = clam(MINUS, x, _cp(a), explosionc(MProp(a, Mode(STRONG, MINUS)), t))
    return clam(PLUS, w, _cm(Neg(a)), NegI(PLUS, inner))


def negapc(t: Term, s: Term, a: PureProp) -> Term:
    """Negation elimination: t : (~a)^c+ and s : a^c+ give bottom^c+."""
    w = fresh_name("w", fv(s))
    refut = clam(MINUS, w, _cp(Neg(a)), NegI(MINUS, s))
    return abs_general_at(_cp(FALSITY), t, refut, _cp(Neg(a)))


def explosionc(q: MProp, t: Term) -> Term:
    """Anything from t : bottom^c+."""
    return abs_general_at(q, t, mk_lem(PVar(FALSITY_VAR), MINUS), _cp(FALSITY))


def lemc(a: PureProp) -> Term:
    """The law of excluded middle at (a | ~a)^c+."""
    return mk_lem(a, PLUS)


def _x_prime(y: str, z: str, a: PureProp, b: PureProp) -> Term:
    imp = implies(a, b)
    w1 = fresh_name("w", {y, z})
    w2 = fresh_name("v", {y, z, w1})
    inner = clam(PLUS, w1, _cm(imp),
                 Inj(PLUS, 1, clam(PLUS, w2, _cm(Neg(a)), NegI(PLUS, Var(z)))))
    return Proj(MINUS, 1, CApp(MINUS, Var(y), inner))


def _x_aux(y: str, a: PureProp, b: PureProp) -> Term:
    z = fresh_name("z", {y})
    w = fresh_name("w", {y, z})
    blocked = clam(PLUS, w, _cm(Neg(a)), NegI(PLUS, Var(z)))
    body = CApp(PLUS, NegE(MINUS, CApp(MINUS, _x_prime(y, z, a, b), blocked)), Var(z))
    return clam(PLUS, z, _cm(a), body)


def lamc(x: str, t: Term, a: PureProp, b: PureProp) -> Term:
    """Implication introduction: from x : a^c+ |- t : b^c+ build (a => b)^c+."""
    imp = implies(a, b)
    y = fresh_name("y", fv(t), {x})
    return clam(PLUS, y, _cm(imp), Inj(PLUS, 2, substitute(t, x, _x_aux(y, a, b))))


def appc(t: Term, s: Term, a: PureProp, b: PureProp) -> Term:
    """Implication elimination: t : (a => b)^c+ and s : a^c+ give b^c+."""
    imp = implies(a, b)
    x = fresh_name("x", fv(t), fv(s))
    y = fresh_name("y", fv(s), {x})
    z = fresh_name("z", {x, y})
    w = fresh_name("w", fv(s), {x, y, z})
    v = fresh_name("v", fv(s), {x, y, z, w})
    refut = clam(MINUS, w, _cp(imp),
                 Pair(MINUS,
                      clam(MINUS, v, _cp(Neg(a)), NegI(MINUS, s)),
                      Var(x)))
    branch1 = abs_general_at(
        MProp(b, Mode(STRONG, PLUS)), s,
        NegE(PLUS, CApp(PLUS, Var(y),
                        clam(MINUS, v, _cp(Neg(a)), NegI(MINUS, s)))),
        _cp(a))
    return clam(PLUS, x, _cm(b),
                case(PLUS, CApp(PLUS, t, refut),
                     (y, _cp(Neg(a)), branch1),
                     (z, _cp(b), CApp(PLUS, Var(z), Var(x)))))


# ---------------------------------------------------------------------------
# NK proofs

class NKProof(metaclass=Frozen):
    """A natural-deduction proof node: rule, parameters, premises, the open
    hypotheses, and the concluded proposition; its rule's nk_* constructor checks it."""

    rule: str
    hyps: tuple[PureProp, ...]
    conclusion: PureProp
    premises: tuple["NKProof", ...] = ()
    index: int | None = None       # Hyp position / AndE / OrI side
    prop: PureProp | None = None   # rule-specific proposition parameter


def nk_hyp(hyps, i: int) -> NKProof:
    hyps = tuple(hyps)
    if not 0 <= i < len(hyps):
        raise InvalidNKProofError(f"hypothesis index {i} out of range")
    return NKProof("Hyp", hyps, hyps[i], index=i)


def nk_and_i(p: NKProof, q: NKProof) -> NKProof:
    if p.hyps != q.hyps:
        raise InvalidNKProofError("conjunction premises have different hypotheses")
    return NKProof("AndI", p.hyps, And(p.conclusion, q.conclusion), (p, q))


def nk_and_e(i: int, p: NKProof) -> NKProof:
    if i not in (1, 2):
        raise InvalidNKProofError(f"conjunction elimination side {i} is not 1 or 2")
    if not isinstance(p.conclusion, And):
        raise InvalidNKProofError("conjunction elimination needs a conjunction")
    comp = p.conclusion.left if i == 1 else p.conclusion.right
    return NKProof("AndE", p.hyps, comp, (p,), index=i)


def nk_or_i(i: int, other: PureProp, p: NKProof) -> NKProof:
    if i not in (1, 2):
        raise InvalidNKProofError(f"disjunction introduction side {i} is not 1 or 2")
    concl = Or(p.conclusion, other) if i == 1 else Or(other, p.conclusion)
    return NKProof("OrI", p.hyps, concl, (p,), index=i, prop=other)


def nk_or_e(p: NKProof, q: NKProof, r: NKProof) -> NKProof:
    if not isinstance(p.conclusion, Or):
        raise InvalidNKProofError("disjunction elimination needs a disjunction")
    if q.hyps != p.hyps + (p.conclusion.left,):
        raise InvalidNKProofError("first branch must discharge the left disjunct")
    if r.hyps != p.hyps + (p.conclusion.right,):
        raise InvalidNKProofError("second branch must discharge the right disjunct")
    if q.conclusion != r.conclusion:
        raise InvalidNKProofError("branches conclude different propositions")
    return NKProof("OrE", p.hyps, q.conclusion, (p, q, r))


def nk_neg_i(a: PureProp, p: NKProof) -> NKProof:
    if p.hyps[-1:] != (a,):
        raise InvalidNKProofError("negation introduction must discharge its hypothesis")
    if p.conclusion != FALSITY:
        raise InvalidNKProofError("negation introduction needs a proof of falsity")
    return NKProof("NegI", p.hyps[:-1], Neg(a), (p,), prop=a)


def nk_neg_e(p: NKProof, q: NKProof) -> NKProof:
    if p.hyps != q.hyps:
        raise InvalidNKProofError("negation premises have different hypotheses")
    if p.conclusion != Neg(q.conclusion):
        raise InvalidNKProofError("negation elimination needs ~A and A")
    return NKProof("NegE", p.hyps, FALSITY, (p, q))


def nk_explosion(c: PureProp, p: NKProof) -> NKProof:
    if p.conclusion != FALSITY:
        raise InvalidNKProofError("explosion needs a proof of falsity")
    return NKProof("Explosion", p.hyps, c, (p,), prop=c)


def nk_lem(hyps, a: PureProp) -> NKProof:
    return NKProof("LEM", tuple(hyps), Or(a, Neg(a)), prop=a)


def nk_imp_i(a: PureProp, p: NKProof) -> NKProof:
    if p.hyps[-1:] != (a,):
        raise InvalidNKProofError("implication introduction must discharge its hypothesis")
    return NKProof("ImpI", p.hyps[:-1], implies(a, p.conclusion), (p,), prop=a)


def nk_imp_e(p: NKProof, q: NKProof) -> NKProof:
    if p.hyps != q.hyps:
        raise InvalidNKProofError("implication premises have different hypotheses")
    match p.conclusion:
        case Or(Neg(a), b) if a == q.conclusion:
            return NKProof("ImpE", p.hyps, b, (p, q))
    raise InvalidNKProofError("implication elimination needs A => B and A")


def nk_context(p: NKProof) -> Context:
    """The classical-affirmation context h0 : A0^c+, .. matching the proof's hypotheses."""
    return Context.of(*((f"h{i}", _cp(a)) for i, a in enumerate(p.hyps)))


# Each rule's constructor, the one judge of its nodes.  A node is built from its parts in this
# order: the hypotheses if it has no premises, its index and its prop if set, then its premises.
_NK_MAKERS = dict(Hyp=nk_hyp, AndI=nk_and_i, AndE=nk_and_e, OrI=nk_or_i, OrE=nk_or_e, NegI=nk_neg_i,
                  NegE=nk_neg_e, Explosion=nk_explosion, LEM=nk_lem, ImpI=nk_imp_i, ImpE=nk_imp_e)


def embed_nk(p: NKProof) -> Term:
    """Compile an NK proof of A0,..,An |- B into a term typable as h0 : A0^c+, .., hn : An^c+
    |- t : B^c+.  Each node is rebuilt from its parts first, so only sound proofs compile."""
    return _embed(p, Scope([f"h{i}" for i in reversed(range(len(p.hyps)))]))


def _embed(p: NKProof, scope: Scope) -> Term:  # a Scope names each discharge in O(1)
    if (make := _NK_MAKERS.get(p.rule)) is None:
        raise InvalidNKProofError(f"unknown rule {p.rule}")
    parts = [p.hyps] * (not p.premises) + [x for x in (p.index, p.prop) if x is not None]
    shape = (len(p.premises), p.index is not None, p.prop is not None)
    if shape != _NK_SHAPES[p.rule] or make(*parts, *p.premises) != p:
        raise InvalidNKProofError(f"{p.rule} node is not what {make.__name__} builds from its parts")
    terms, x = [], None
    for q in p.premises:  # a premise with one more hypothesis than p discharges it, named x
        if discharges := len(q.hyps) == len(p.hyps) + 1:
            x = scope.push("x")
        terms.append(_embed(q, scope))
        if discharges:
            scope.pop()
    concls = [q.conclusion for q in p.premises]

    match p.rule:
        case "Hyp":
            return Var(scope.names[p.index])
        case "AndI":
            return pairc(*terms, *concls)
        case "AndE":
            return projic(p.index, *terms, concls[0].left, concls[0].right)
        case "OrI":
            return inic(p.index, *terms, p.conclusion.left, p.conclusion.right)
        case "OrE":
            return casec(terms[0], x, *terms[1:], concls[0].left, concls[0].right, p.conclusion)
        case "NegI":
            return neglamc(x, *terms, p.prop)
        case "NegE":
            return negapc(*terms, concls[1])
        case "Explosion":
            return explosionc(_cp(p.prop), *terms)
        case "LEM":
            return lemc(p.prop)
        case "ImpI":
            return lamc(x, *terms, p.prop, *concls)
        case "ImpE":
            return appc(*terms, concls[1], concls[0].right)


# ---------------------------------------------------------------------------
# Computation rules of the embedding

class RuleCheck(metaclass=Frozen):
    redex: Term
    stated: Term
    redex_normal: Term
    stated_normal: Term
    trace: Trace

    @property
    def holds(self) -> bool:
        return self.redex_normal == self.stated_normal


def lem_case_reduct(a: PureProp, x: str, s1: Term, s2: Term, c: PureProp) -> Term:
    """The stated normal behaviour of case analysis on excluded middle:
    clam+(y. capp+(s2{x := s1*}, y)) with the blocked witness s1*."""
    y = fresh_name("y", fv(s1), fv(s2), {x})
    w = fresh_name("w", fv(s1), {x, y})
    s1_star = clam(PLUS, w, _cm(Neg(a)),
                   NegI(PLUS, clam(MINUS, x, _cp(a),
                                   abs_general_at(MProp(a, Mode(STRONG, MINUS)),
                                                  s1, Var(y), _cp(c)))))
    return clam(PLUS, y, _cm(c), CApp(PLUS, substitute(s2, x, s1_star), Var(y)))


# Each computation rule of the embedding: its pieces to (redex, stated reduct).
_CLASSICAL_RULES = {
    # projic_i(pairc(t1, t2)) ~> t_i
    "proj": lambda i, t1, t2, a, b: (projic(i, pairc(t1, t2, a, b), a, b), t1 if i == 1 else t2),
    # casec(inic_i(t), x.s1, x.s2) ~> s_i{x:=t}
    "case": lambda i, t, x, s1, s2, a, b, c: (casec(inic(i, t, a, b), x, s1, s2, a, b, c),
                                              substitute(s1 if i == 1 else s2, x, t)),
    # appc(lamc x. t, s) ~> t{x:=s}
    "app": lambda x, t, s, a, b: (appc(lamc(x, t, a, b), s, a, b), substitute(t, x, s)),
    # casec(lemc a, x.s1, x.s2) ~> the s1* form (lem_case_reduct)
    "lem": lambda a, x, s1, s2, c: (casec(lemc(a), x, s1, s2, a, Neg(a), c),
                                    lem_case_reduct(a, x, s1, s2, c)),
}


def run_classical_rule(kind: str, **pieces) -> RuleCheck:
    """Build the redex and stated reduct of one computation rule, a kind of
    _CLASSICAL_RULES given its pieces by name, and eta-normalize both sides."""
    if kind not in _CLASSICAL_RULES:
        raise ValueError(f"unknown rule kind {kind!r}")
    redex, stated = _CLASSICAL_RULES[kind](**pieces)
    redex_nf, trace = normalize(redex, mode=ETA)
    stated_nf, _ = normalize(stated, mode=ETA)
    return RuleCheck(redex, stated, redex_nf, stated_nf, trace)


# ---------------------------------------------------------------------------
# NK proof files

def parse_nk(text: str) -> NKProof:
    """Parse an NK proof file: hypothesis lines 'hyp : <pure>' followed by
    '|- <proof>' as the last line, where proofs use hyp(i) and the keywords
    of _NK_RULES, e.g. andi(p,q), ori1[other](p), lem[a]."""
    return read_entailment(text, "proof", "proof", _nk_hypothesis, _nk_proof)[1]


def _nk_hypothesis(line: str) -> PureProp:
    head, colon, rest = line.partition(":")
    if head.rstrip() != "hyp" or not colon:
        raise ParseError("expected 'hyp : <prop>' or '|- <proof>'", 1, 1)
    with located(1, len(head) + 2):
        tk = _Tokens(rest)
        a = _parse_base(tk)
        if tk.words[tk.i]:
            raise tk.error("trailing input after hypothesis")
    return a


def _nk_proof(src: str, hyps: list[PureProp]) -> NKProof:
    tk = _Tokens(src)
    proof = _parse_nk_node(tk, tuple(hyps))
    tk.end()
    return proof


# Each proof keyword but hyp(i): its rule, its premise count, whether a [prop]
# parameter comes first, and the side it fixes, if any.
_NK_RULES = {
    "andi": ("AndI", 2, False), "ande1": ("AndE", 1, False, 1), "ande2": ("AndE", 1, False, 2),
    "ori1": ("OrI", 1, True, 1), "ori2": ("OrI", 1, True, 2), "ore": ("OrE", 3, False),
    "negi": ("NegI", 1, True), "nege": ("NegE", 2, False), "expl": ("Explosion", 1, True),
    "lem": ("LEM", 0, True), "impi": ("ImpI", 1, True), "impe": ("ImpE", 2, False),
}
# Each rule's premise count and whether it takes an index and a prop, as embed_nk checks them.
_NK_SHAPES = {rule: (count, bool(side), prop) for rule, count, prop, *side in _NK_RULES.values()}
_NK_SHAPES["Hyp"] = (0, True, False)


def _parse_nk_node(tk, hyps: tuple[PureProp, ...]) -> NKProof:
    kind, head, at = tk.next()
    if kind != "ident":
        raise tk.error(f"expected a proof rule, found {head!r}", at)
    if head == "hyp":
        tk.expect("(")
        _, num, at = tk.next()
        if not num.isdigit():
            raise tk.error("hyp needs a numeric index", at)
        tk.expect(")")
        return nk_hyp(hyps, int(num))
    if head not in _NK_RULES:
        raise tk.error(f"unknown proof rule {head!r}", at)
    rule, count, takes_prop, *params = _NK_RULES[head]  # params: its side, then its [prop]
    if takes_prop:
        tk.expect("[")
        params.append(_parse_base(tk))
        tk.expect("]")
    if not count:
        return _NK_MAKERS[rule](hyps, *params)
    tk.expect("(")
    # negi and impi discharge their parameter; ore's branches, its disjuncts
    premises = [_parse_nk_node(tk, hyps + (*params,) if head in ("negi", "impi") else hyps)]
    under = [hyps] * (count - 1)
    if head == "ore":
        if not isinstance(disj := premises[0].conclusion, Or):
            raise InvalidNKProofError("disjunction elimination needs a disjunction")
        under = [hyps + (disj.left,), hyps + (disj.right,)]
    for branch_hyps in under:
        tk.expect(",")
        premises.append(_parse_nk_node(tk, branch_hyps))
    tk.expect(")")
    return _NK_MAKERS[rule](*params, *premises)

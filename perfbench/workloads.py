"""The four workloads.  Each builds a fixed, seeded operation list in
`generate` (set-up), runs one operation through the library in `run`
(timed), and compares the outcome with a reference in `check` (untimed).

`check` returns None for a correct answer, ("wrong", why) for an answer
that disagrees with its reference, and ("error", why) for a robustness
failure: a crash, a traceback, or a wrong exit code on a bad input.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

from prk.classical import decide_oplus, embed_nk, parse_nk
from prk.gen import PropGen, TermGen
from prk.kripke import (KripkeModel, countermodel_search, entails_in_model,
                        enumerate_models, forces)
from prk.rewrite import ETA, classify, normalize
from prk.syntax import (And, MProp, Mode, Neg, NegE, NegI, Or, PVar, Pair,
                        Proj, Var)
from prk.surface import parse_term, print_term
from prk.systemf import (FTerm, FType, f_infer, ftype_equiv, print_fterm,
                         print_ftype, translate_ctx, translate_prop,
                         translate_term)
from prk.typecheck import Context, check_type, infer_type, mk_lem

import reference as ref

CP, CM, SP = Mode("c", "+"), Mode("c", "-"), Mode("s", "+")


@dataclass
class Op:
    kind: str
    label: str       # groups operations for per-family metrics
    desc: str        # stable description, hashed into the operation digest
    data: dict = field(default_factory=dict)


def chain(family: str, n: int):
    """nege-(negi-(...x)) or proj1+(pair+(..., y)), n redexes deep; the
    normal form is x after exactly n leftmost-outermost steps, each by the
    rule named like the family ("neg" or "proj")."""
    t = Var("x")
    for _ in range(n):
        t = NegE("-", NegI("-", t)) if family == "neg" else Proj("+", 1, Pair("+", t, Var("y")))
    return t


def chain_text(family: str, n: int) -> str:
    if family == "neg":
        return "nege-(negi-(" * n + "x" + "))" * n
    return "proj1+(pair+(" * n + "x" + ", y))" * n


CHAIN_CTX_TEXT = "x : a^c+\ny : b^c+\n"


def chain_ctx() -> Context:
    return Context.of(("x", MProp(PVar("a"), CP)), ("y", MProp(PVar("b"), CP)))


def conjunct_chain(k: int, atoms: tuple[str, ...]):
    """a & (b & (c & ...)), k conjuncts, cycling over the atoms."""
    a = PVar(atoms[(k - 1) % len(atoms)])
    for i in range(k - 2, -1, -1):
        a = And(PVar(atoms[i % len(atoms)]), a)
    return a


def lem_goal(a, sign: str) -> MProp:
    if sign == "+":
        return MProp(Or(a, Neg(a)), CP)
    return MProp(And(a, Neg(a)), CM)


class Workload:
    block_s: float   # seconds one block of operations takes at the seed commit

    def __init__(self, root: str, workdir: str):
        self.root, self.workdir = root, workdir

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# proofs: the metatheorem sweep

class Proofs(Workload):
    """TermGen terms (c02-c04 style), nested redex chains of known normal
    form, and NK proofs compiled by embed_nk, each pushed through print,
    parse, typing, normalization, classification and subject reduction.

    Each block holds 100 generated terms, so that p50 falls well inside
    that large group, and twelve chains of 100 redexes, so that p90 falls
    inside that seed-independent group; the few costly NK proofs a seed
    may draw then move either rank by a place or two at most."""

    block_s = 4.0
    chains = (25, 50, 200, 400) + (100,) * 6   # per family
    terms_per_block = 100
    nk_per_block = 10

    def generate(self, rng: random.Random, blocks: int) -> list[Op]:
        tg = TermGen(rng)
        nk_props = PropGen(rng, atoms=("a", "b"))
        nkgen = ref.NKGen(rng, nk_props)
        ops: list[Op] = []
        for _ in range(blocks):
            for family in ("neg", "proj"):
                for n in self.chains:
                    ops.append(Op("chain", f"n{n}", f"{family}{n}",
                                  {"term": chain(family, n), "ctx": chain_ctx(),
                                   "goal": MProp(PVar("a"), CP), "family": family, "n": n}))
            for _ in range(self.terms_per_block):
                ctx = tg.base_context()
                goal = tg.props.mprop(2)
                t = tg.sized_term(ctx, goal, 4)
                ops.append(Op("term", "term", f"{ctx}|{goal}|{t!r}",
                              {"term": t, "ctx": ctx, "goal": goal}))
            for _ in range(self.nk_per_block):
                hyps = tuple(nk_props.pure(2) for _ in range(rng.randrange(0, 3)))
                text, concl = nkgen.proof(hyps, rng.choice((2, 3)))
                ctx = Context.of(*((f"h{i}", MProp(h, CP)) for i, h in enumerate(hyps)))
                ops.append(Op("nk", "nk", ref.nk_file(hyps, text),
                              {"nk": parse_nk(ref.nk_file(hyps, text)), "ctx": ctx,
                               "goal": MProp(concl, CP)}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op, tr) -> dict:
        d = op.data
        ctx, goal = d["ctx"], d["goal"]
        t = tr.call("classical.embed_nk", embed_nk, d["nk"]) if op.kind == "nk" else d["term"]
        out = {"term": t}
        text = tr.call("surface.print_term", print_term, t)
        # embedded proofs mention the reserved falsity atom
        out["parsed"] = tr.call("surface.parse_term", parse_term, text, op.kind == "nk")
        if op.kind != "term":   # generated terms may hold injections, which only check
            out["inferred"] = tr.call("typecheck.infer_type", infer_type, ctx, t)
        out["checked"] = tr.call("typecheck.check_type", check_type, ctx, t, goal)
        out["nf"], out["trace"] = tr.call("rewrite.normalize", normalize, t)
        out["nf_typed"] = tr.call("typecheck.check_type", check_type, ctx, out["nf"], goal)
        out["shape"] = tr.call("rewrite.classify", classify, out["nf"], out["nf_typed"])
        if op.kind == "nk":
            out["eta_nf"], out["eta_trace"] = tr.call("rewrite.normalize", normalize, t, ETA)
            out["eta_typed"] = tr.call("typecheck.check_type", check_type, ctx,
                                       out["eta_nf"], goal)
        return out

    def check(self, op: Op, out: dict):
        goal = op.data["goal"]
        if not ref.same_tree(out["parsed"], out["term"]):
            return "wrong", "print/parse round trip changed the term"
        for key in ("inferred", "checked", "nf_typed", "eta_typed"):
            if key in out and not ref.same_tree(out[key].conclusion, goal):
                return "wrong", f"{key}: type is not the goal {ref.print_mprop(goal)}"
        for key in ("nf", "eta_nf"):
            if key in out and ref.has_redex(out[key]):
                return "wrong", f"{key} still contains a redex"
        if not out["shape"].normal:
            return "wrong", "classify calls the normal form non-normal"
        if op.kind == "chain":
            n, rule = op.data["n"], op.data["family"]
            if not ref.same_tree(out["nf"], Var("x")):
                return "wrong", "chain did not normalize to x"
            if len(out["trace"]) != n or any(e.rule != rule for e in out["trace"]):
                return "wrong", f"chain took {len(out['trace'])} steps, expected {n} {rule}"
        return None

    def count(self, op: Op, out: dict, counters) -> None:
        for entry in out["trace"] + out.get("eta_trace", ()):
            counters[f"rewrite.steps.{entry.rule}"] += 1
            counters["rewrite.normalize.steps"] += 1
        counters["surface.parse_term.nodes"] += ref.term_nodes(out["parsed"])
        counters["typecheck.derivation_nodes"] += sum(
            ref.derivation_nodes(out[k]) for k in ("inferred", "checked", "nf_typed", "eta_typed")
            if k in out)


# ---------------------------------------------------------------------------
# translate: proofs into System F with Pos/Neg

class Translate(Workload):
    """mk_lem over random propositions (depth <= 5) and over conjunct
    chains of 1-8, plus generated classical terms, each translated,
    re-inferred in F and compared with the translated conclusion.

    The cost grows about x2.6 per level of depth, so each block draws a
    fixed number of random propositions of each exact depth.  It runs the
    5-conjunct chain six times, so that p90 falls inside that group, and
    holds twelve depth-1 propositions, so that p50 falls inside theirs,
    rather than on whichever costly propositions a seed happens to draw."""

    block_s = 6.5
    chains = tuple(range(1, 9)) + (5,) * 5
    depths = (1,) * 12 + (2,) * 6 + (3,) * 6 + (4,) * 3 + (5,)
    terms_per_block = 28

    def generate(self, rng: random.Random, blocks: int) -> list[Op]:
        ops: list[Op] = []
        for _ in range(blocks):
            for k in self.chains:
                a = conjunct_chain(k, ("a", "b", "c"))
                ops.append(Op("lem", f"k{k}", f"k{k}",
                              {"term": mk_lem(a, "+"), "ctx": Context(), "goal": lem_goal(a, "+")}))
            props = PropGen(rng, atoms=("a", "b", "c")[:rng.choice((2, 3))])
            for depth in self.depths:
                a = props.pure(depth)
                while ref.prop_depth(a) != depth:
                    a = props.pure(depth)
                sign = rng.choice("+-")
                ops.append(Op("lem", f"d{depth}", f"{a}{sign}",
                              {"term": mk_lem(a, sign), "ctx": Context(), "goal": lem_goal(a, sign)}))
            tg = TermGen(rng, atoms=props.atoms)
            for _ in range(self.terms_per_block):
                ctx = tg.classical_context()
                goal = tg.props.mprop(rng.choice((2, 3)))
                goal = MProp(goal.base, Mode("c", goal.sign))
                t = tg.sized_term(ctx, goal, 4)
                ops.append(Op("term", "term", f"{ctx}|{goal}|{t!r}",
                              {"term": t, "ctx": ctx, "goal": goal}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op, tr) -> dict:
        d = op.data
        deriv = tr.call("typecheck.infer_type", infer_type, d["ctx"], d["term"])
        fterm = tr.call("systemf.translate_term", translate_term, deriv)
        fctx = tr.call("systemf.translate_ctx", translate_ctx, d["ctx"])
        inferred = tr.call("systemf.f_infer", f_infer, fctx, fterm)
        target = tr.call("systemf.translate_prop", translate_prop, deriv.conclusion)
        equiv = tr.call("systemf.ftype_equiv", ftype_equiv, inferred, target)
        out = {"deriv": deriv, "fterm": fterm, "target": target, "equiv": equiv}
        if op.kind == "term":   # small terms, as `prk translate` prints them
            out["printed"] = tr.call("systemf.print_fterm", print_fterm, fterm)
        return out

    def check(self, op: Op, out: dict):
        goal = op.data["goal"]
        if not ref.same_tree(out["deriv"].conclusion, goal):
            return "wrong", f"type is not the goal {ref.print_mprop(goal)}"
        if print_ftype(out["target"]) != ref.ftype_text(goal.base, "c", goal.sign):
            return "wrong", "translate_prop differs from T(goal)"
        if out["equiv"] is not True:
            return "wrong", "f_infer type is not equivalent to T(goal)"
        if "printed" in out and not out["printed"]:
            return "wrong", "print_fterm printed nothing"
        return None

    def count(self, op: Op, out: dict, counters) -> None:
        counters["systemf.fterm_nodes"] += ref.tree_nodes(out["fterm"], (FTerm, FType))
        counters["typecheck.derivation_nodes"] += ref.derivation_nodes(out["deriv"])


# ---------------------------------------------------------------------------
# models: Kripke search and evaluation, classical decision

def random_model(rng: random.Random, alphabet: tuple[str, ...], max_worlds: int) -> ref.Model:
    """A valid model: random order on w0..wn-1 (only wi <= wj for i < j),
    then random monotone valuations that stabilize above every world."""
    while True:
        n = rng.randint(1, max_worlds)
        worlds = [f"w{i}" for i in range(n)]
        leq = {(worlds[i], worlds[j]) for i in range(n) for j in range(i + 1, n)
               if rng.random() < 0.5}
        m = ref.Model(worlds, leq, {}, {})
        vplus, vminus = {}, {}
        for w in worlds:
            below = [u for u in worlds[:worlds.index(w)] if (u, w) in m.order]
            vplus[w] = set().union(*(vplus[u] for u in below))
            vminus[w] = set().union(*(vminus[u] for u in below))
            for x in alphabet:
                roll = rng.random()
                if roll < 0.35:
                    vplus[w].add(x)
                elif roll < 0.7:
                    vminus[w].add(x)
                elif roll < 0.75:
                    vplus[w].add(x)
                    vminus[w].add(x)
        m = ref.Model(worlds, leq, vplus, vminus)
        if m.is_valid(alphabet):
            return m


def library_model(m: ref.Model, alphabet) -> KripkeModel:
    return KripkeModel.make(alphabet, m.worlds, m.leq, m.vplus, m.vminus)


def valid_sequent(rng: random.Random, props: PropGen, atoms: set[str]):
    """A sequent with no counter-model, by the forcing clauses: identity,
    the strong connectives against their classical parts, and the
    classical excluded middle / non-contradiction."""
    while True:
        a, b = props.pure(2), props.pure(2)
        schema = rng.randrange(7)
        mode = Mode(rng.choice("sc"), rng.choice("+-"))
        hyps, goal = [
            ([MProp(a, mode)], MProp(a, mode)),
            ([MProp(a, CP), MProp(b, CP)], MProp(And(a, b), SP)),
            ([MProp(And(a, b), SP)], MProp(b, CP)),
            ([MProp(a, CM)], MProp(Neg(a), SP)),
            ([MProp(a, CP)], MProp(Or(a, b), SP)),
            ([], MProp(Or(a, Neg(a)), CP)),
            ([], MProp(And(a, Neg(a)), CM)),
        ][schema]
        if set().union(*(ref.atoms_of(p.base) for p in hyps + [goal])) == atoms:
            return hyps, goal


def refutable_sequent(rng: random.Random, props: PropGen, m: ref.Model):
    """Hypotheses forced and a goal not forced at one world of m, so a
    counter-model exists within m's number of worlds."""
    while True:
        w = rng.choice(m.worlds)
        cands = [MProp(props.pure(rng.randint(1, 3)), Mode(rng.choice("sc"), rng.choice("+-")))
                 for _ in range(6)]
        forced = [p for p in cands if ref.force(m, w, p)]
        unforced = [p for p in cands if not ref.force(m, w, p)]
        if unforced:
            return forced[:rng.randint(0, 2)], unforced[0]


def sequent_text(hyps, goal) -> str:
    return "".join(ref.print_mprop(h) + "\n" for h in hyps) + f"|- {ref.print_mprop(goal)}\n"


class Models(Workload):
    """Counter-model search (full searches on valid sequents, early exits
    on refutable ones), forcing and entailment over fixed models, model
    enumeration, and decide_oplus on classical-affirmation sequents.

    Each block holds 120 cheap evaluations, so that p50 falls well inside
    that group, and 20 searches over two atoms or four worlds, so that
    p90 falls inside that one."""

    block_s = 3.5

    def generate(self, rng: random.Random, blocks: int) -> list[Op]:
        ops: list[Op] = []
        one, two = PropGen(rng, atoms=("a",)), PropGen(rng, atoms=("a", "b"))
        fixed = [(random_model(rng, ("a", "b"), 3), ("a", "b")) for _ in range(6)]
        fixed.append((ref.Model(["w0", "w1", "w2"], {("w0", "w1"), ("w0", "w2")},
                                {"w1": {"a"}}, {"w2": {"a"}}), ("a",)))
        fixed = [(m, alpha, library_model(m, alpha)) for m, alpha in fixed]
        for _ in range(blocks):
            for label, props, atoms, worlds, count in (("a1w3", one, {"a"}, 3, 6),
                                                        ("a2w3", two, {"a", "b"}, 3, 12),
                                                        ("a1w4", one, {"a"}, 4, 2)):
                for _ in range(count):
                    hyps, goal = valid_sequent(rng, props, atoms)
                    ops.append(Op("search", label, sequent_text(hyps, goal),
                                  {"hyps": hyps, "goal": goal, "worlds": worlds, "valid": True}))
            for alpha in (("a",), ("a", "b")) * 6:
                m = random_model(rng, alpha, 3)
                hyps, goal = refutable_sequent(rng, one if len(alpha) == 1 else two, m)
                ops.append(Op("search", "refute", sequent_text(hyps, goal),
                              {"hyps": hyps, "goal": goal, "worlds": 3, "valid": False}))
            for _ in range(60):
                m, alpha, lib = rng.choice(fixed)
                props = two if len(alpha) == 2 else one
                p = MProp(props.pure(rng.randint(1, 4)), Mode(rng.choice("sc"), rng.choice("+-")))
                hyps = [MProp(props.pure(2), Mode(rng.choice("sc"), rng.choice("+-")))
                        for _ in range(rng.randint(0, 2))]
                ops.append(Op("forces", "forces", f"{m.text(alpha)}|{p}|{hyps}",
                              {"model": m, "lib": lib, "prop": p, "hyps": hyps}))
            for _ in range(60):
                hyps = [MProp(two.pure(rng.randint(1, 3)), CP) for _ in range(rng.randint(0, 2))]
                goal = MProp(two.pure(rng.randint(1, 4)), CP)
                ops.append(Op("decide", "decide", sequent_text(hyps, goal),
                              {"hyps": hyps, "goal": goal}))
            alpha, worlds = rng.choice(((("a",), 3), (("a", "b"), 2)))
            ops.append(Op("enumerate", "enumerate", f"{alpha}{worlds}",
                          {"alpha": alpha, "worlds": worlds}))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op, tr) -> dict:
        d = op.data
        if op.kind == "search":
            return {"found": tr.call("kripke.countermodel_search", countermodel_search,
                                     d["hyps"], d["goal"], d["worlds"])}
        if op.kind == "forces":
            lib, p = d["lib"], d["prop"]
            return {"forced": [tr.call("kripke.forces", forces, lib, w, p) for w in lib.worlds],
                    "entails": tr.call("kripke.entails_in_model", entails_in_model,
                                       lib, d["hyps"], p)}
        if op.kind == "decide":
            return {"provable": tr.call("classical.decide_oplus", decide_oplus,
                                        d["hyps"], d["goal"])}
        return {"models": tr.call("kripke.enumerate_models", enumerate_models,
                                  d["alpha"], d["worlds"])}

    def check(self, op: Op, out: dict):
        d = op.data
        if op.kind == "search":
            found = out["found"]
            if d["valid"]:
                return None if found is None else ("wrong", "counter-model to a valid sequent")
            if found is None:
                return "wrong", "no counter-model found, but one exists within the bound"
            lib, w = found
            m = ref.Model.of_library(lib)
            atoms = set().union(*(ref.atoms_of(p.base) for p in d["hyps"] + [d["goal"]]))
            if len(m.worlds) > d["worlds"] or not m.is_valid(atoms):
                return "wrong", "returned model is not a valid model within the bound"
            if not ref.is_countermodel(m, w, d["hyps"], d["goal"]):
                return "wrong", "returned model is not a counter-model"
            return None
        if op.kind == "forces":
            m, p = d["model"], d["prop"]
            if out["forced"] != [ref.force(m, w, p) for w in m.worlds]:
                return "wrong", "forcing differs from the reference evaluator"
            entails = all(ref.force(m, w, p) for w in m.worlds
                          if all(ref.force(m, w, h) for h in d["hyps"]))
            if out["entails"] != entails:
                return "wrong", "entailment differs from the reference evaluator"
            return None
        if op.kind == "decide":
            if out["provable"] != ref.classically_valid(d["hyps"], d["goal"]):
                return "wrong", "decide_oplus differs from the truth table"
            return None
        if not out["models"]:
            return "wrong", "no models enumerated"
        for lib in out["models"]:
            if len(lib.worlds) > d["worlds"] or not ref.Model.of_library(lib).is_valid(d["alpha"]):
                return "wrong", "enumerated an invalid model"
        return None

    def count(self, op: Op, out: dict, counters) -> None:
        if op.kind == "search":
            counters["kripke.countermodel_search.found"] += out["found"] is not None
        if op.kind == "enumerate":
            counters["kripke.enumerate_models.models"] += len(out["models"])


# ---------------------------------------------------------------------------
# cli: fresh `python -m prk.cli` processes

GOLDEN_OPS = (
    # README-stated answers for the golden files
    ("check", ["check", "golden/lem.prk"], ("lines", 0, ["(a | ~a)^c+"])),
    ("normalize", ["normalize", "--eta", "golden/projc_pairc.prk"], ("lines", 0, ["t1"])),
    ("classify", ["classify", "golden/lem.prk"],
     ("lines", 0, ["false", "false", "true", "1", "canonical"])),
    ("kripke_eval", ["kripke", "eval", "golden/lem3.model", "w0", "(a | ~a)^s+"],
     ("lines", 0, ["false"])),
    ("kripke_validate", ["kripke", "validate", "golden/lem3.model"], ("lines", 0, ["true"])),
    ("decide", ["decide", "golden/peirce.seq"], ("lines", 0, ["true"])),
    ("embed", ["embed", "golden/andcomm.nk"], ("embed", 0, "(b & a)^c+")),
)

# Bad inputs: each must end in a usage error (exit 2) with a message and
# no traceback; the deep terms are well typed and must type-check.
DEEP_SIZES = (2400, 10_000)


def swap_signs(text: str) -> str:
    """The textual dual: flip every sign and swap & with |."""
    return text.translate(str.maketrans("+-&|", "-+|&"))


class Cli(Workload):
    """Every subcommand on golden/ and on small generated files, one
    fresh interpreter per operation, plus robustness probes."""

    block_s = 11.5

    def __init__(self, root: str, workdir: str):
        super().__init__(root, workdir)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self._files = 0

    def _write(self, text: str, suffix: str) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"in{self._files}{suffix}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def generate(self, rng: random.Random, blocks: int) -> list[Op]:
        os.makedirs(self.workdir, exist_ok=True)
        chains = {(f, n): self._write(CHAIN_CTX_TEXT + f"|- {chain_text(f, n)}\n", ".prk")
                  for f in ("neg", "proj") for n in (25, 50)}
        deep = {n: self._write(f"x : a^c+\n|- {chain_text('neg', n // 2)}\n", ".prk")
                for n in DEEP_SIZES}
        usage = ("usage_error", 2, None)
        probes = [("probe_deep2400", ["check", deep[2400]], ("lines", 0, ["a^c+"])),
                  ("probe_deep10000", ["check", deep[10_000]], ("lines", 0, ["a^c+"])),
                  ("probe_fuel0", ["normalize", "--fuel", "0", chains["neg", 25]], usage),
                  ("probe_maxworlds", ["kripke", "countermodel", "golden/lem_strong.seq",
                                       "--max-worlds", "-1"], usage),
                  ("probe_world", ["kripke", "eval", "golden/lem3.model", "w9", "a^s+"], usage)]
        tg = TermGen(rng)
        one, two = PropGen(rng, atoms=("a",)), PropGen(rng, atoms=("a", "b"))
        nkgen = ref.NKGen(rng, two)
        ops: list[Op] = []

        def add(label, argv, expect):
            digest = hashlib.sha256()
            for arg in argv:
                if arg.startswith(self.workdir):   # the directory name holds the pid
                    with open(arg, "rb") as handle:
                        digest.update(handle.read())
                else:
                    digest.update(arg.encode())
            ops.append(Op("cli", label, digest.hexdigest(), {"argv": argv, "expect": expect}))

        for _ in range(blocks):
            for _ in range(2):
                add("help", ["--help"], ("help", 0, None))
            for label, argv, expect in GOLDEN_OPS + tuple(probes):
                add(label, argv, expect)
            add("translate", ["translate", "--check", "golden/lem.prk"],
                ("translate", 0, MProp(Or(PVar("a"), Neg(PVar("a"))), CP)))
            add("kripke_countermodel", ["kripke", "countermodel", "golden/lem_strong.seq"],
                ("countermodel", 1, ([], MProp(Or(PVar("a"), Neg(PVar("a"))), SP), 3)))
            add("dual", ["dual", "golden/projc_pairc.prk"], ("dual", 0, "golden/projc_pairc.prk"))
            for (family, n), path in chains.items():
                add("normalize", ["normalize", path], ("lines", 0, ["x"]))
            family, n = rng.choice(list(chains))
            add("normalize", ["normalize", "--trace", chains[family, n]], ("trace", 0, (n, family)))
            for key in rng.sample(list(chains), 2):
                add("classify", ["classify", chains[key]],
                    ("lines", 0, ["false", "false", "false", "3", "unclassified"]))
            for i in range(9):
                ctx = tg.classical_context() if i % 2 else tg.base_context()
                goal = tg.props.mprop(2)
                goal = MProp(goal.base, Mode("c", goal.sign))
                t = tg.sized_term(ctx, goal, 4)
                text = "".join(f"{n} : {ref.print_mprop(p)}\n" for n, p in ctx) + f"|- {print_term(t)}\n"
                path = self._write(text, ".prk")
                add("check", ["check", path], ("lines", 0, [ref.print_mprop(goal)]))
                if i < 3:
                    add("dual", ["dual", path], ("dual", 0, path))
            for _ in range(3):
                if rng.random() < 0.5:
                    a = conjunct_chain(rng.randint(1, 3), ("a", "b"))
                else:
                    a = two.pure(rng.randint(1, 3))
                sign = rng.choice("+-")
                path = self._write(f"|- {print_term(mk_lem(a, sign))}\n", ".prk")
                add("translate", ["translate", "--check", path], ("translate", 0, lem_goal(a, sign)))
            for _ in range(8):
                alpha = rng.choice((("a",), ("a", "b")))
                m = random_model(rng, alpha, 3)
                p = MProp((one if len(alpha) == 1 else two).pure(rng.randint(1, 3)),
                          Mode(rng.choice("sc"), rng.choice("+-")))
                w = rng.choice(m.worlds)
                add("kripke_eval", ["kripke", "eval", self._write(m.text(alpha), ".model"), w,
                                    ref.print_mprop(p)],
                    ("lines", 0, [str(ref.force(m, w, p)).lower()]))
            for broken in (False, False, True):
                alpha = ("a", "b")
                m = random_model(rng, alpha, 3)
                while broken and m.is_valid(alpha):
                    w, x = rng.choice(m.worlds), rng.choice(alpha)
                    vplus = dict(m.vplus)
                    vplus[w] = vplus[w] ^ {x}
                    m = ref.Model(m.worlds, m.leq, vplus, m.vminus)
                add("kripke_validate", ["kripke", "validate", self._write(m.text(alpha), ".model")],
                    ("violations", 1, None) if broken else ("lines", 0, ["true"]))
            for _ in range(2):
                alpha = rng.choice((("a",), ("a", "b")))
                hyps, goal = refutable_sequent(rng, one if len(alpha) == 1 else two,
                                               random_model(rng, alpha, 3))
                add("kripke_countermodel", ["kripke", "countermodel",
                                            self._write(sequent_text(hyps, goal), ".seq")],
                    ("countermodel", 1, (hyps, goal, 3)))
            hyps, goal = valid_sequent(rng, one, {"a"})
            add("kripke_countermodel", ["kripke", "countermodel",
                                        self._write(sequent_text(hyps, goal), ".seq")],
                ("lines", 0, ["none within bound (inconclusive)"]))
            for _ in range(6):
                hyps = [MProp(two.pure(rng.randint(1, 3)), CP) for _ in range(rng.randint(0, 2))]
                goal = MProp(two.pure(rng.randint(1, 4)), CP)
                valid = ref.classically_valid(hyps, goal)
                add("decide", ["decide", self._write(sequent_text(hyps, goal), ".seq")],
                    ("lines", 0 if valid else 1, [str(valid).lower()]))
            for _ in range(5):
                hyps = tuple(two.pure(2) for _ in range(rng.randrange(0, 3)))
                text, concl = nkgen.proof(hyps, rng.choice((2, 3)))
                add("embed", ["embed", self._write(ref.nk_file(hyps, text), ".nk")],
                    ("embed", 0, ref.print_mprop(MProp(concl, CP))))
        rng.shuffle(ops)
        return ops

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, op: Op, tr) -> dict:
        return tr.call(f"cli.{op.label}", self._spawn, op.data["argv"])

    def _spawn(self, argv: list[str]) -> dict:
        proc = subprocess.run([sys.executable, "-m", "prk.cli", *argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr}

    def check(self, op: Op, out: dict):
        if "Traceback" in out["err"]:
            return "error", "traceback: " + out["err"].strip().splitlines()[-1][:160]
        verdict = self._compare(op.data["expect"], out)
        if verdict and op.label.startswith("probe_"):
            return "error", verdict[1]   # a bad input: robustness, not a wrong answer
        return verdict

    def _compare(self, expect, out: dict):
        kind, code, want = expect
        lines = out["out"].splitlines()
        if kind == "usage_error":
            if out["code"] != 2 or not out["err"].strip():
                return "error", f"exit {out['code']} without a usage message"
            return None
        if out["code"] != code:
            return "wrong", f"exit {out['code']}, expected {code}"
        if kind == "lines" and lines != want:
            return "wrong", f"output {lines[:3]!r}, expected {want!r}"
        if kind == "help" and not out["out"].startswith("usage: prk"):
            return "wrong", "no usage text"
        if kind == "embed" and (len(lines) != 2 or lines[1] != want):
            return "wrong", f"embedded type {lines[1:]!r}, expected {want!r}"
        if kind == "trace":
            n, rule = want
            if len(lines) != n + 1 or lines[-1] != "x" or any(f" {rule} " not in s for s in lines[:-1]):
                return "wrong", "trace lines do not match the chain"
        if kind == "violations" and not lines:
            return "wrong", "invalid model reported without violations"
        if kind == "dual":
            with open(os.path.join(self.root, want), encoding="utf-8") as handle:
                source = [s.split("#", 1)[0].strip() for s in handle.read().splitlines()]
            expected = [swap_signs(s[2:].strip()) if s.startswith("|-") else
                        f"{s.partition(':')[0].strip()} : {swap_signs(s.partition(':')[2].strip())}"
                        for s in source if s]
            if lines != expected:
                return "wrong", "dual differs from the sign-swapped judgment"
        if kind == "translate":
            base, sign = want.base, want.sign
            target = ref.ftype_text(base, "c", sign)
            if len(lines) != 3 or lines[1] != target or \
                    lines[2] not in (target, ref.ftype_text_unfolded(base, sign)):
                return "wrong", "F type differs from T(goal)"
        if kind == "countermodel":
            hyps, goal, worlds = want
            m = ref.parse_model_text("\n".join(lines[1:]))
            atoms = set().union(*(ref.atoms_of(p.base) for p in hyps + [goal]))
            if not lines or len(m.worlds) > worlds or lines[0] not in m.worlds or \
                    not m.is_valid(atoms) or not ref.is_countermodel(m, lines[0], hyps, goal):
                return "wrong", "printed model is not a counter-model"
        return None

    def count(self, op: Op, out: dict, counters) -> None:
        counters[f"cli.exit_code.{out['code']}"] += 1
        counters["cli.tracebacks"] += "Traceback" in out["err"]


WORKLOADS = {"proofs": Proofs, "translate": Translate, "models": Models, "cli": Cli}

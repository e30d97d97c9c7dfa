import copy
import gc
import itertools
import pickle
import random
import weakref
from functools import lru_cache

import pytest

from prk.errors import UnknownVariableError, UnknownWorldError
from prk.kripke import (KripkeModel, _order_tables, _partial_orders, _rooted_orders, _valuations,
                        counter_model_lem, countermodel_search, enumerate_models,
                        entails_in_model, forces, parse_model, print_model, validate_model)
from prk.gen import PropGen, all_pure_props, provable_library
from prk.surface import parse_mprop
from prk.syntax import MODES, And, MProp, Mode, Neg, PVar, mprop_dual, opposite, prop_vars
from testlib import (above_by_scan, closure_by_pairs, per_candidate_masks, print_model_by_lookup,
                     random_model, ref_forcing, validate_by_pairs)


def mp(src):
    return parse_mprop(src)


# -- validation ---------------------------------------------------------------

def test_counter_model_is_valid():
    assert validate_model(counter_model_lem()).valid


def test_stabilization_violation():
    m = KripkeModel.make(("a",), ("w",), set(), {}, {})
    report = validate_model(m)
    assert not report.valid
    assert any(v.kind == "stabilization" and v.witness == ("w", "a")
               for v in report.violations)


def test_monotonicity_violation():
    m = KripkeModel.make(("a",), ("w0", "w1"), {("w0", "w1")},
                         {"w0": {"a"}}, {"w1": {"a"}})
    report = validate_model(m)
    assert any(v.kind == "monotonicity" for v in report.violations)


def test_order_is_the_reflexive_transitive_closure(rng):
    # against a fixpoint that adds (a, d) for (a, b), (b, d) until nothing changes
    for _ in range(300):
        worlds = tuple(f"w{i}" for i in range(rng.randint(1, 5)))
        names = worlds + ("x",)  # an undeclared world still links a path
        leq = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 8))}
        want = {(w, w) for w in worlds} | leq
        while grown := {(a, d) for a, b in want for c, d in want if b == c} - want:
            want |= grown
        assert KripkeModel.make(("a",), worlds, leq, {}, {}).order() == want


def _agrees_with_the_pair_scans(m):
    assert validate_model(m).violations == validate_by_pairs(m)
    assert m.order() == closure_by_pairs(m.worlds, m.leq)
    assert all(forces(m, w, p) == reference_forces(m, w, p) for w in m.worlds
               for p in map(mp, ("(a | ~a)^s+", "~a^c-", "a^c+")))


def test_rows_answer_as_the_pair_scans_on_random_models(rng):
    # undeclared worlds, names given twice, cycles and atoms outside the alphabet
    for _ in range(2000):
        _agrees_with_the_pair_scans(random_model(rng))


def test_rows_answer_as_the_pair_scans_on_every_small_model(models_2var):
    for m in models_2var:
        _agrees_with_the_pair_scans(m)


def test_antisymmetry_violation():
    m = KripkeModel.make(("a",), ("w0", "w1"), {("w0", "w1"), ("w1", "w0")},
                         {"w0": {"a"}, "w1": {"a"}}, {})
    report = validate_model(m)
    assert any(v.kind == "order" for v in report.violations)


# -- forcing --------------------------------------------------------------------

def test_golden_forcing():
    m = counter_model_lem()
    assert not forces(m, "w0", mp("(a | ~a)^s+"))
    assert forces(m, "w0", mp("(a | ~a)^c+"))
    assert forces(m, "w1", mp("a^s+"))
    assert forces(m, "w2", mp("a^s-"))
    assert not forces(m, "w0", mp("a^s+"))


def test_forcing_unknowns():
    m = counter_model_lem()
    with pytest.raises(UnknownWorldError):
        forces(m, "w9", mp("a^s+"))
    with pytest.raises(UnknownVariableError):
        forces(m, "w0", mp("zz^s+"))


def test_an_unknown_world_is_reported_before_missing_atoms():
    with pytest.raises(UnknownWorldError, match="unknown world 'w9'"):
        forces(counter_model_lem(), "w9", mp("(zz & ~b)^s+"))


def test_missing_atoms_are_listed_sorted_and_each_failed_ask_raises_again():
    m = counter_model_lem()
    for _ in range(2):  # the memo keeps no failed ask
        with pytest.raises(UnknownVariableError) as err:
            forces(m, "w0", mp("((zz & a) | ~(b | ~y))^c+"))
        assert str(err.value) == "variables not in alphabet: ['b', 'y', 'zz']"
    assert forces(m, "w0", mp("(a | ~a)^c+"))


def test_an_atom_valued_outside_the_alphabet_is_still_missing():
    m = KripkeModel.make(("a",), ("w",), set(), {"w": {"a", "b"}}, {"w": {"b"}})
    for p in ("b^s+", "b^s-", "(a & b)^c+"):
        with pytest.raises(UnknownVariableError, match=r"\['b'\]"):
            forces(m, "w", mp(p))


def test_a_missing_atom_under_a_deep_proposition_is_reported_as_missing():
    deep = PVar("zz")
    for _ in range(5_000):  # deeper than forcing recurses at the default limit
        deep = Neg(deep)
    with pytest.raises(UnknownVariableError, match=r"\['zz'\]"):
        forces(counter_model_lem(), "w0", MProp(deep, Mode("c", "+")))


def test_warm_asks_walk_no_proposition_for_its_atoms(monkeypatch):
    import prk.kripke
    rng = random.Random(1)
    props, m = PropGen(rng, ("a",)), counter_model_lem()
    asks = [(rng.choice(m.worlds), props.mprop(rng.randint(1, 6))) for _ in range(100)]
    want = [forces(m, w, p) for w, p in asks]
    calls = []
    monkeypatch.setattr(prk.kripke, "prop_vars", lambda p: calls.append(p) or prop_vars(p))
    assert [forces(m, w, p) for _ in range(10) for w, p in asks] == want * 10
    assert calls == []
    with pytest.raises(UnknownVariableError):  # a missing atom is still worked out there
        forces(m, "w0", mp("b^s+"))
    assert calls == [PVar("b")]


def test_entailment():
    m = counter_model_lem()
    assert entails_in_model(m, [mp("a^s+")], mp("a^s+"))
    assert not entails_in_model(m, [], mp("(a | ~a)^s+"))
    assert entails_in_model(m, [mp("a^s+")], mp("a^c+"))


# -- a model's own forcing memo ---------------------------------------------------

def _memo(m):
    """The bounded memo that m's forcing function is."""
    return m._forces


def test_one_model_asked_20000_propositions_keeps_at_most_4096_memo_entries():
    rng = random.Random(1)
    props, m, cp = PropGen(rng, ("a",)), counter_model_lem(), Mode("c", "+")
    for _ in range(20_000):
        forces(m, "w0", MProp(props.pure(rng.randint(1, 6)), cp))
    info = _memo(m).cache_info()
    assert info.maxsize == 4096 and info.currsize <= 4096 < info.misses, info


def test_a_models_forcing_function_and_memo_are_collected_with_it():
    m = counter_model_lem()
    assert forces(m, "w2", mp("a^s-"))
    refs = [weakref.ref(m._forces), weakref.ref(_memo(m))]
    del m
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_forced_model_round_trips_through_pickle_and_deepcopy(models_2var):
    props = [MProp(base, mode) for base in all_pure_props(("a", "b"), 3) for mode in MODES]
    for m in models_2var[::24]:
        want = [forces(m, w, p) for w in m.worlds for p in props]
        for again in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert again == m and hash(again) == hash(m)
            assert set(vars(again)) == {"alphabet", "worlds", "leq", "vplus", "vminus"}
            assert [forces(again, w, p) for w in again.worlds for p in props] == want
            assert again._forces is not m._forces  # equal models built apart share no memo


def _chain(n):
    """w0 <= w1 <= ... <= w(n-1), with a in vplus at the top only."""
    ws = [f"w{i}" for i in range(n)]
    return KripkeModel.make(("a",), ws, zip(ws, ws[1:]), {ws[-1]: {"a"}}, {})


def test_forcing_a_chain_builds_one_table_per_state_whatever_its_length():
    misses = []
    for n in (200, 1600):
        m = _chain(n)
        assert forces(m, "w0", mp("(a | ~a)^s+")) and forces(m, "w0", mp("~~(a & ~~a)^c+"))
        misses.append(m._forces.cache_info().misses)
    assert misses[0] == misses[1], misses


# -- the tables against forcing world by world ---------------------------------------

def _tables_agree_with_ref_forcing(m, bases):
    """Each state's table, entry for entry at every world, against ref_forcing."""
    ref = ref_forcing({w: above_by_scan(m, w) for w in m.worlds}, *(
        {w: {a: int(a in s) for a in m.alphabet} for w, s in v} for v in (m.vplus, m.vminus)), 1)
    for base in bases:
        for mode in MODES:
            table = m._forces(base, mode.strength, mode.sign)
            assert [table[m._above[w][0]] for w in m.worlds] == [
                ref(w, base, mode.strength, mode.sign) for w in m.worlds], (m, base, mode)


def test_tables_agree_with_ref_forcing_on_every_small_model(models_2var):
    bases = all_pure_props(("a", "b"), 3)
    for m in models_2var:
        _tables_agree_with_ref_forcing(m, bases)


def test_tables_agree_with_ref_forcing_on_random_models(rng):
    # cycles, worlds named twice, and pairs naming undeclared worlds
    bases = {alpha: all_pure_props(alpha, 3) for alpha in (("a",), ("a", "b"))}
    for _ in range(2000):
        m = random_model(rng)
        _tables_agree_with_ref_forcing(m, bases[tuple(sorted(m.alphabet))])


# -- forcing laws over enumerated models ------------------------------------------

def _all_props_1var(depth):
    from prk.gen import all_pure_props
    return [MProp(base, Mode(st, sg))
            for base in all_pure_props(("a",), depth)
            for st in "sc" for sg in "+-"]


def test_forcing_monotonicity(models_1var):
    props = _all_props_1var(2)
    for m in models_1var:
        order = m.order()
        for w, v in order:
            for p in props:
                if forces(m, w, p):
                    assert forces(m, v, p)


def test_forcing_non_contradiction(models_1var):
    props = _all_props_1var(2)
    for m in models_1var:
        for w in m.worlds:
            for p in props:
                if forces(m, w, p):
                    assert not forces(m, w, opposite(p))


def test_forcing_stabilization(models_1var):
    props = _all_props_1var(2)
    for m in models_1var:
        for w in m.worlds:
            for p in props:
                assert any(forces(m, v, p) != forces(m, v, opposite(p))
                           for v in above_by_scan(m, w))


def test_rule_of_classical_forcing(models_1var):
    from prk.gen import all_pure_props
    for m in models_1var:
        for base in all_pure_props(("a",), 2):
            plus_c = MProp(base, Mode("c", "+"))
            plus_s = MProp(base, Mode("s", "+"))
            minus_c = MProp(base, Mode("c", "-"))
            minus_s = MProp(base, Mode("s", "-"))
            for w in m.worlds:
                lhs = forces(m, w, plus_c)
                rhs = all(forces(m, v, plus_s)
                          for v in above_by_scan(m, w) if forces(m, v, minus_c))
                assert lhs == rhs
                lhs = forces(m, w, minus_c)
                rhs = all(forces(m, v, minus_s)
                          for v in above_by_scan(m, w) if forces(m, v, plus_c))
                assert lhs == rhs


def test_forcing_duality(models_1var, models_2var):
    # swapping the positive and negative valuations mirrors forcing: a
    # world forces p in m iff it forces the dual of p in the swapped model
    from prk.gen import all_pure_props
    for models, atoms in ((models_1var, ("a",)), (models_2var, ("a", "b"))):
        props = [MProp(base, mode) for base in all_pure_props(atoms, 2) for mode in MODES]
        for m in models:
            swapped = KripkeModel(m.alphabet, m.worlds, m.leq, m.vminus, m.vplus)
            assert validate_model(swapped).valid
            for w in m.worlds:
                for p in props:
                    assert forces(m, w, p) == forces(swapped, w, mprop_dual(p))


# -- soundness spot-check -----------------------------------------------------------

def test_soundness_library(models_2var):
    from prk.gen import provable_library
    from prk.typecheck import check_type
    for ctx, goal, term in provable_library():
        check_type(ctx, term, goal)  # the judgment really is provable
        hyps = [p for _, p in ctx]
        for m in models_2var:
            assert entails_in_model(m, hyps, goal)


# -- counter-model search -------------------------------------------------------------

def test_countermodel_for_strong_lem():
    found = countermodel_search([], mp("(a | ~a)^s+"), max_worlds=3)
    assert found is not None
    model, world = found
    assert validate_model(model).valid
    assert not forces(model, world, mp("(a | ~a)^s+"))
    assert len(model.worlds) <= 3


def test_no_countermodel_for_classical_lem():
    assert countermodel_search([], mp("(a | ~a)^c+"), max_worlds=3) is None


def test_no_countermodel_for_assumption():
    assert countermodel_search([mp("a^s+")], mp("a^s+"), max_worlds=3) is None


def test_countermodel_respects_hypotheses():
    found = countermodel_search([mp("a^c+")], mp("a^s+"), max_worlds=3)
    assert found is not None
    model, world = found
    assert forces(model, world, mp("a^c+"))
    assert not forces(model, world, mp("a^s+"))


# -- the rooted search against the unrooted reference ---------------------------------

def reference_forces(m, w, p):
    """Forcing read straight off the clauses, with no memo: a classical mode
    holds where no world above forces the strong opposite; a strong pair
    needs both classical components, an injection either; ~A flips."""
    flipped = "-" if p.sign == "+" else "+"
    if p.is_classical:
        return all(not reference_forces(m, v, MProp(p.base, Mode("s", flipped)))
                   for v in above_by_scan(m, w))
    base = p.base
    if isinstance(base, PVar):
        return base.name in dict(m.vplus if p.sign == "+" else m.vminus)[w]
    if isinstance(base, Neg):
        return reference_forces(m, w, MProp(base.inner, Mode("c", flipped)))
    parts = [reference_forces(m, w, MProp(q, Mode("c", p.sign))) for q in (base.left, base.right)]
    return all(parts) if isinstance(base, And) == (p.sign == "+") else any(parts)


@lru_cache(maxsize=None)
def _models(alphabet, max_worlds):
    return enumerate_models(alphabet, max_worlds)


def reference_search(hyps, goal, max_worlds):
    """The search before rooting: every enumerated model, every world."""
    alphabet = tuple(sorted(set().union(*(prop_vars(p.base) for p in [goal, *hyps])))) or ("a",)
    for m in _models(alphabet, max_worlds):
        for w in m.worlds:
            if all(forces(m, w, h) for h in hyps) and not forces(m, w, goal):
                return m, w
    return None


def assert_search_agrees(hyps, goal, max_worlds):
    found = countermodel_search(hyps, goal, max_worlds)
    expected = reference_search(hyps, goal, max_worlds)
    assert (found is None) == (expected is None), (hyps, goal)
    if found is not None:
        model, world = found
        assert world == "w0" and set(above_by_scan(model, world)) == set(model.worlds)
        assert validate_model(model).valid
        assert len(model.worlds) == len(expected[0].worlds), (hyps, goal)
        assert all(reference_forces(model, world, h) for h in hyps)
        assert not reference_forces(model, world, goal)


def test_forces_matches_reference(models_2var):
    props = [MProp(base, mode) for base in all_pure_props(("a", "b"), 2) for mode in MODES]
    for m in models_2var:
        for w in m.worlds:
            for p in props:
                assert forces(m, w, p) == reference_forces(m, w, p), (m, w, p)


def this_files_sequents():
    cp = Mode("c", "+")
    sequents = [([], mp("(a | ~a)^s+")), ([], mp("(a | ~a)^c+")),
                ([mp("a^s+")], mp("a^s+")), ([mp("a^c+")], mp("a^s+"))]
    sequents += [([], MProp(base, cp)) for base in all_pure_props(("a", "b"), 2)]
    sequents += [([MProp(h, cp)], MProp(g, cp))
                 for h in all_pure_props(("a",), 2) for g in all_pure_props(("a",), 2)]
    return sequents


def test_search_agrees_on_this_files_sequents():
    for hyps, goal in this_files_sequents():
        assert_search_agrees(hyps, goal, 3)


def test_search_agrees_on_the_library():
    for ctx, goal, _ in provable_library():
        assert_search_agrees([p for _, p in ctx], goal, 3)


@pytest.mark.parametrize("atoms, max_worlds, count", [(("a", "b"), 3, 500), (("a",), 4, 20)])
def test_search_agrees_on_random_sequents(rng, atoms, max_worlds, count):
    props = PropGen(rng, atoms)
    for _ in range(count):
        hyps = [props.mprop(rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        assert_search_agrees(hyps, props.mprop(rng.randint(1, 3)), max_worlds)


def per_candidate_search(hyps, goal, max_worlds):
    """The search before bit-parallel forcing: the same candidates in the
    same order, each forced on its own through a one-bit ref_forcing."""
    alpha = tuple(sorted(set().union(*(prop_vars(p.base) for p in [goal, *hyps])))) or ("a",)
    for n in range(1, max_worlds + 1):
        names = tuple(f"w{i}" for i in range(n))
        for above in _rooted_orders(n):
            for states in _rooted_states(above, len(alpha)):
                plus, minus = ([frozenset(a for a, c in zip(alpha, st) if c & bit) for st in states]
                               for bit in (1, 2))
                f = ref_forcing(above, [{a: int(a in s) for a in alpha} for s in plus],
                                [{a: int(a in s) for a in alpha} for s in minus], 1)
                if all(f(0, h.base, h.mode.strength, h.sign) for h in hyps) and not f(
                        0, goal.base, goal.mode.strength, goal.sign):
                    leq = {(names[i], names[j]) for i in range(n) for j in above[i] if i != j}
                    return KripkeModel.make(alpha, names, leq, dict(zip(names, plus)),
                                            dict(zip(names, minus))), "w0"
    return None


def test_witnesses_are_exact(rng):
    # every answer, witness included, equals the per-candidate search's,
    # with the order tables built during the run and with them warm
    cases = [(hyps, goal, 3) for hyps, goal in this_files_sequents()]
    cases += [([p for _, p in ctx], goal, 3) for ctx, goal, _ in provable_library()]
    for atoms, max_worlds, count in ((("a", "b"), 3, 500), (("a",), 4, 20), (("a", "b", "c"), 3, 20)):
        props = PropGen(rng, atoms)
        for _ in range(count):
            hyps = [props.mprop(rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
            cases.append((hyps, props.mprop(rng.randint(1, 3)), max_worlds))
    expected = [per_candidate_search(*case) for case in cases]
    assert any(found is not None for found in expected)
    assert any(found is None for found in expected)
    assert _order_tables.cache_info().maxsize is not None
    _order_tables.cache_clear()
    for _ in range(2):
        for case, want in zip(cases, expected):
            assert countermodel_search(*case) == want, case
    assert _order_tables.cache_info().hits > 0


def _shape(n, rel):
    return min(tuple(sorted((perm[a], perm[b]) for a, b in rel))
               for perm in itertools.permutations(range(n)))


def test_rooted_orders_give_every_rooted_order():
    # every partial order with a least world has a labelling the search tries
    for n in range(1, 5):
        rooted = [{(i, j) for i in range(n) for j in ups[i]} for ups in _rooted_orders(n)]
        for rel in rooted:
            assert all((a, d) in rel for a, b in rel for c, d in rel if b == c)
            assert all((0, j) in rel for j in range(n))
            assert all(i <= j for i, j in rel)
        least = [rel for rel in _partial_orders(n)
                 if any(all((w, v) in rel for v in range(n)) for w in range(n))]
        assert {_shape(n, rel) for rel in rooted} == {_shape(n, rel) for rel in least}


def test_full_searches_scale():
    # no counter-model exists, so every candidate within the bound is tried
    assert countermodel_search([mp("a^c+"), mp("b^c+")], mp("(a & b)^s+"), 4) is None
    assert countermodel_search([], mp("((a & b) | ~(a & b))^c+"), 4) is None
    assert countermodel_search([], mp("(a | ~a)^c+"), 5) is None
    assert countermodel_search([], mp("(((a & b) & c) | ~((a & b) & c))^c+"), 4) is None


# -- the generators against the filters they replaced ------------------------------------
# reference_partial_orders, reference_canonical_key, reference_enumerate_models,
# reference_rooted_orders and _rooted_states are the code that enumerate_models and the
# search tables used before they generated orders and valuations: filters over every
# relation and every valuation, and a key minimised over every relabelling.

def reference_partial_orders(n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for p, b in zip(pairs, bits) if b)
        if all((b, a) not in rel for a, b in rel if a != b) and \
                all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            yield rel


def reference_canonical_key(n, order, states):
    return min((tuple(states[perm.index(i)] for i in range(n)),
                tuple(sorted((perm[a], perm[b]) for a, b in order)))
               for perm in itertools.permutations(range(n)))


def reference_enumerate_models(alphabet, max_worlds):
    alpha = tuple(sorted(alphabet))
    out, seen = [], set()
    for n in range(1, max_worlds + 1):
        names = tuple(f"w{i}" for i in range(n))
        for order in reference_partial_orders(n):
            for states in itertools.product(itertools.product(range(4), repeat=len(alpha)), repeat=n):
                if any(states[a][k] & ~states[b][k] for a, b in order for k in range(len(alpha))):
                    continue  # not monotone
                if not all(any(states[j][k] in (1, 2) for j in range(n) if (i, j) in order)
                           for i in range(n) for k in range(len(alpha))):
                    continue  # not stable
                key = reference_canonical_key(n, order, states)
                if key not in seen:
                    seen.add(key)
                    vplus, vminus = ({names[i]: {alpha[k] for k in range(len(alpha)) if states[i][k] & bit}
                                      for i in range(n)} for bit in (1, 2))
                    out.append(KripkeModel.make(alpha, names, {(names[a], names[b]) for a, b in order
                                                               if a != b}, vplus, vminus))
    return out


def _rooted_states(above, atoms: int, states=()):
    i = len(states)
    if i == len(above):
        yield states
        return
    low = [0] * atoms
    for j in range(i):
        if i in above[j]:
            low = [a | b for a, b in zip(low, states[j])]
    codes = (1, 2) if len(above[i]) == 1 else range(4)
    for s in itertools.product(*([c for c in codes if c & lo == lo] for lo in low)):
        yield from _rooted_states(above, atoms, states + (s,))


def reference_rooted_orders(n):
    pairs = list(itertools.combinations(range(1, n), 2))
    for bits in itertools.product((False, True), repeat=len(pairs)):
        strict = {p for p, b in zip(pairs, bits) if b}
        if all((i, k) in strict for i, j in strict for j2, k in strict if j == j2):
            yield [tuple(range(n))] + [(i, *(j for j in range(i + 1, n) if (i, j) in strict))
                                       for i in range(1, n)]


def test_rooted_orders_are_the_filtered_ones_in_order():
    # the one order walk over the pairs 1 <= i < j, against the product filter it replaced
    for n in range(1, 8):
        assert list(_rooted_orders(n)) == list(reference_rooted_orders(n)), n


def test_partial_orders_are_the_filtered_relations():
    for n in range(5):
        assert list(_partial_orders(n)) == list(reference_partial_orders(n)), n


@pytest.mark.parametrize("alphabet, max_worlds", [(("a",), 4), (("a", "b"), 3), (("a", "b", "c"), 2),
                                                  ((), 3)])
def test_enumerated_models_are_the_filtered_ones_in_order(alphabet, max_worlds):
    # each bound's list starts the next one's, so the largest bound covers the smaller ones
    assert enumerate_models(alphabet, max_worlds) == reference_enumerate_models(alphabet, max_worlds)


def test_one_atom_over_five_worlds_gives_1094_models():
    assert len(enumerate_models(("a",), 5)) == 1094


def test_valuations_are_the_rooted_states():
    for n in range(1, 6):
        for above in _rooted_orders(n):
            for atoms in (1, 2):
                assert _valuations(above, atoms) == list(_rooted_states(above, atoms)), above


def test_tables_hold_the_first_order_of_each_shape_and_its_rooted_states():
    for n in range(1, 6):
        shapes, first = set(), []
        for above in _rooted_orders(n):
            shape = _shape(n, {(i, j) for i in range(n) for j in above[i]})
            if shape not in shapes:
                shapes.add(shape)
                first.append(above)
        for atoms in (1, 2):
            tables = _order_tables(n, atoms)
            assert [above for above, *_ in tables] == first
            for above, plus, minus, full in tables:
                states = list(_rooted_states(above, atoms))
                assert full == (1 << len(states)) - 1
                for masks, bit in ((plus, 1), (minus, 2)):
                    assert masks == [[sum(1 << c for c, st in enumerate(states) if st[w][k] & bit)
                                      for k in range(atoms)] for w in range(n)]
    assert [len(_order_tables(n, 1)) for n in (4, 5, 6)] == [5, 16, 63]  # rooted posets


def test_order_table_masks_equal_the_per_candidate_construction():
    for n, atoms in itertools.product(range(1, 6), range(1, 4)):
        for above, plus, minus, full in _order_tables(n, atoms):
            states = _valuations(above, atoms)
            assert (plus, minus) == per_candidate_masks(states, n, atoms), (n, atoms, above)
            assert full == (1 << len(states)) - 1


# -- model files ------------------------------------------------------------------------

def test_semantic_routes_agree_on_small_fragment():
    # two independent routes to the same judgments: truth tables
    # (decide_oplus) versus bounded Kripke counter-model search
    from prk.classical import decide_oplus
    from prk.gen import all_pure_props
    cp = Mode("c", "+")
    for base in all_pure_props(("a", "b"), 2):
        goal = MProp(base, cp)
        provable = decide_oplus([], goal)
        assert provable == (countermodel_search([], goal, 3) is None)
    for h in all_pure_props(("a",), 2):
        for g in all_pure_props(("a",), 2):
            hyp, goal = MProp(h, cp), MProp(g, cp)
            provable = decide_oplus([hyp], goal)
            assert provable == (countermodel_search([hyp], goal, 3) is None)


def test_countermodel_search_is_deterministic():
    goal = mp("(a | ~a)^s+")
    first = countermodel_search([], goal, max_worlds=3)
    second = countermodel_search([], goal, max_worlds=3)
    assert first == second


def test_model_roundtrip():
    m = counter_model_lem()
    assert parse_model(print_model(m)) == m


def test_print_model_reads_as_it_did_world_by_world(models_2var):
    empty = [KripkeModel.make(alpha, worlds, leq, {}, {}) for alpha, worlds, leq in
             [(("a",), ("w",), set()), ((), ("u", "v"), {("u", "v")}), (("b", "a"), ("x", "y"), set())]]
    twice = KripkeModel(frozenset("ab"), ("w", "v", "w"), frozenset({("w", "v")}),  # last pair wins
                        (("w", frozenset("a")), ("v", frozenset("ab")), ("w", frozenset("b"))),
                        (("w", frozenset()), ("v", frozenset()), ("w", frozenset("a"))))
    for m in [*models_2var, *empty, counter_model_lem()]:
        assert print_model(m) == print_model_by_lookup(m)
        assert parse_model(print_model(m)) == m
    assert print_model(twice) == print_model_by_lookup(twice)
    assert "vplus w: b\nvplus v: a b\nvplus w: b\nvminus w: a\nvminus w: a\n" in print_model(twice)


def test_parse_model_format():
    src = """
    # comment
    alphabet: a b
    worlds: u v
    leq: u v
    vplus v: a b
    vminus u:
    """
    m = parse_model(src)
    assert m.worlds == ("u", "v")
    assert dict(m.vplus)["v"] == frozenset({"a", "b"})
    assert validate_model(m).valid  # every variable stabilizes at v

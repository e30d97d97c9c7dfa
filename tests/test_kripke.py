import pytest

from prk.errors import UnknownVariableError, UnknownWorldError
from prk.kripke import (KripkeModel, counter_model_lem, countermodel_search,
                        enumerate_models, entails_in_model, forces,
                        parse_model, print_model, validate_model)
from prk.surface import parse_mprop
from prk.syntax import MODES, MProp, Mode, mprop_dual, opposite


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


def test_entailment():
    m = counter_model_lem()
    assert entails_in_model(m, [mp("a^s+")], mp("a^s+"))
    assert not entails_in_model(m, [], mp("(a | ~a)^s+"))
    assert entails_in_model(m, [mp("a^s+")], mp("a^c+"))


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
                           for v in m.above(w))


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
                          for v in m.above(w) if forces(m, v, minus_c))
                assert lhs == rhs
                lhs = forces(m, w, minus_c)
                rhs = all(forces(m, v, minus_s)
                          for v in m.above(w) if forces(m, v, plus_c))
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
    assert m.plus("v") == frozenset({"a", "b"})
    assert validate_model(m).valid  # every variable stabilizes at v

import hashlib
import random

from prk.gen import PropGen, TermGen, TypedEnumerator, all_pure_props
from prk.surface import parse_mprop, print_term
from prk.syntax import PVar, prop_depth
from prk.typecheck import Context, check_type


def test_all_pure_props_counts():
    props = all_pure_props(("a", "b"), 2)
    assert len(props) == 12  # 2 atoms + 2 negations + 8 binary combinations
    assert all(prop_depth(p) <= 2 for p in props)
    deeper = all_pure_props(("a",), 3)
    assert len([p for p in deeper if prop_depth(p) == 3]) > 0


def test_generator_is_seed_deterministic():
    def corpus(seed):
        gen = TermGen(random.Random(seed))
        ctx = gen.base_context()
        return [gen.term(ctx, gen.props.mprop(2), 3) for _ in range(20)]

    assert corpus(7) == corpus(7)
    assert corpus(7) != corpus(8)


def test_generator_output_is_pinned():
    # 200 generated terms at a fixed seed, printed: a draw added to, dropped
    # from or moved within TermGen.term changes the digest
    gen = TermGen(random.Random(19))
    digest = hashlib.sha256()
    for i in range(200):
        ctx = gen.base_context() if i % 2 else gen.classical_context()
        digest.update((print_term(gen.term(ctx, gen.props.mprop(3), 5)) + "\n").encode())
    assert digest.hexdigest() == "2cc87b60cbff3f5fcc07995396ecb6beec11b71733eeecce62126b9f806f8577"


def test_generated_terms_typecheck():
    gen = TermGen(random.Random(3))
    for _ in range(100):
        ctx = gen.base_context()
        goal = gen.props.mprop(3)
        t = gen.term(ctx, goal, 4)
        assert check_type(ctx, t, goal).conclusion == goal


def test_enumerated_terms_typecheck_at_their_goals():
    ctx = Context.of(("x", parse_mprop("a^c+")), ("y", parse_mprop("a^c-")))
    enum = TypedEnumerator(ctx, (PVar("a"), PVar("b")))
    checked = 0
    for goal in enum.goals():
        for n in range(1, 6):
            for t in enum._exact(ctx, goal, n):
                assert check_type(ctx, t, goal).conclusion == goal
                checked += 1
    assert checked > 200


def test_classical_context_is_classical():
    gen = TermGen(random.Random(11))
    for _ in range(10):
        ctx = gen.classical_context()
        assert ctx.is_classical()

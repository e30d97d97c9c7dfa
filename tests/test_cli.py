import contextlib
import io
import os
import pathlib
import subprocess
import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prk import cli, typecheck
from prk.classical import _parse_nk_node, parse_nk
from prk.cli import main, parse_judgment, parse_sequent
from prk.errors import ParseError
from prk.surface import _Tokens, _parse_base, is_name, located, parse_mprop, parse_term, print_term
from prk.typecheck import Context, infer_type

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_lem(capsys):
    code, out, _ = run(capsys, "check", str(GOLDEN / "lem.prk"))
    assert code == 0
    assert out.strip() == "(a | ~a)^c+"


def test_check_machine_format(capsys):
    code, out, _ = run(capsys, "--format", "machine", "check", str(GOLDEN / "lem.prk"))
    assert code == 0
    assert out.strip() == "type=(a | ~a)^c+"


def test_check_ill_typed(tmp_path, capsys):
    bad = tmp_path / "bad.prk"
    bad.write_text("x : a^s+\n|- proj1+(x)\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "ill-typed" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.prk"
    bad.write_text("|- proj3+(x)\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "projection index" in err


# (command, file text, the error message, with its position in the file)
FILE_ERRORS = [
    ("check", "x : a^c+\ny : b^c+\n|- pair+(x, proj3+(y))\n",
     "3:13: projection index must be 1 or 2"),
    ("check", "x : a^c+\ny : (b ^c+\n|- x\n", "2:8: modes cannot be nested"),
    ("check", "  x : a^c+   # indented\n\n    |- pair+(x,\n",
     "3:16: expected a term, found 'end of input'"),
    ("decide", "a^c+\n  |- (a | b)^q+\n", "2:14: expected strength 's' or 'c', found 'q'"),
    ("embed", "hyp : (a & b)\n|- andi(ande3(hyp(0)), hyp(0))\n",
     "2:9: unknown proof rule 'ande3'"),
    ("embed", "hyp : (a & b) c\n|- hyp(0)\n", "1:15: trailing input after hypothesis"),
    # the '|-' line comes last: a second one, or a hypothesis after it, is an error
    ("check", "y : a^c+\n|- y\n  |- x\n", "3:3: the '|- term' line must be the last line"),
    ("kripke countermodel", "|- a^s+\n|- b^s+\n", "2:1: the '|- prop' line must be the last line"),
    ("decide", "|- a^c+\n b^c+\n", "2:2: the '|- prop' line must be the last line"),
    ("embed", "hyp : a\n|- hyp(0)\nhyp : b\n", "3:1: the '|- proof' line must be the last line"),
    # a hypothesis is named by a variable, and an NK hypothesis line starts with 'hyp :'
    ("check", " : a^c+\n|- x\n", "1:2: expected a hypothesis name, found ''"),
    ("check", "x y : a^c+\n|- x\n", "1:1: expected a hypothesis name, found 'x y'"),
    ("dual", "  pair : a^c+\n|- x\n", "1:3: expected a hypothesis name, found 'pair'"),
    ("translate", "proj3 : a^c+\n|- x\n", "1:1: expected a hypothesis name, found 'proj3'"),
    ("normalize", "_bot0 : a^c+\n|- x\n", "1:1: expected a hypothesis name, found '_bot0'"),
    ("embed", "hypothesis : a\n|- hyp(0)\n", "1:1: expected 'hyp : <prop>' or '|- <proof>'"),
    ("embed", "hyp : a\n  hyp a\n|- hyp(0)\n", "2:3: expected 'hyp : <prop>' or '|- <proof>'"),
    # an NK proof file names no '_bot0' and has a '|-' line, as judgment files do
    ("embed", "hyp : _bot0\n|- hyp(0)\n", "1:12: '_bot0' is reserved for the falsity encoding"),
    ("embed", "hyp : a\n|- ori1[_bot0](hyp(0))\n",
     "2:14: '_bot0' is reserved for the falsity encoding"),
    ("embed", "hyp : a\n# no proof\n", "1:1: no proof line ('|- ...') found"),
    # a judgment names each hypothesis once
    ("check", "x : a^c+\nx : b^c+\n|- x\n", "2:1: duplicate hypothesis 'x'"),
    ("dual", "x : a^c+\ny : b^c+\n  x : (a & b)^s-\n|- y\n", "3:3: duplicate hypothesis 'x'"),
    # the name is tested before the proposition is read
    ("check", "x : a^c+\n  x : (a ^c+\n|- x\n", "2:3: duplicate hypothesis 'x'"),
    # every file kind has a '|-' line
    ("check", "x : a^c+\n# no term\n", "1:1: no term line ('|- ...') found"),
    ("decide", "a^c+\n", "1:1: no goal line ('|- ...') found"),
    # the shape of a file is checked before its '|-' text is read
    ("check", "x : a^c+\n|- proj3+(x)\n|- x\n", "3:1: the '|- term' line must be the last line"),
    ("decide", "|- (a ^c+\nb^c+\n", "2:1: the '|- prop' line must be the last line"),
    ("embed", "hyp : a\n|- ande3(hyp(0))\n  hyp : b\n",
     "3:3: the '|- proof' line must be the last line"),
    # only '\n' ends a line, as in the tokenizer: each position is the one _Tokens gives
    ("check", "x : a^c+\n\f|- proj3+(x)\n", "2:5: projection index must be 1 or 2"),
    ("check", "x : a^c+\ny : b^c+\n|- pair+(x,\vproj3+(y))\n",
     "3:13: projection index must be 1 or 2"),
    ("decide", "a^c+\n|- (a |\x1c b)^q+\n", "2:13: expected strength 's' or 'c', found 'q'"),
    ("embed", "hyp : a\n|-\x1d ande3(hyp(0))\n", "2:5: unknown proof rule 'ande3'"),
    ("kripke countermodel", "b^s+\n|- (a\x1e& b)^c+ ^s+\n", "2:15: modes cannot be nested"),
    ("normalize", "x : a^c+\n\x85 |- proj0-(x)\n", "2:6: projection index must be 1 or 2"),
    ("dual", "x : a^c+\n|- negi+(\u2028in3+(x))\n", "2:11: injection index must be 1 or 2"),
    ("translate", "x : a^c+\n|- \u2029pair+(x, x) x\n", "2:17: trailing input 'x'"),
    # a binder, and an atom in every file kind, is a name, as a hypothesis is
    ("dual", "x : a^c+\n|- clam+(proj3 : a^c-. x)\n", "2:10: expected a binder name, found 'proj3'"),
    ("check", "x : (proj3 | b)^c+\n|- x\n", "1:6: 'proj3' is a reserved word"),
    ("kripke countermodel", "|- (proj3 | ~proj3)^s+\n", "1:5: 'proj3' is a reserved word"),
    ("decide", "(a | in12)^c+\n|- a^c+\n", "1:6: 'in12' is a reserved word"),
    ("embed", "hyp : a\n|- lem[(b & proj0)]\n", "2:13: 'proj0' is a reserved word"),
]


@pytest.mark.parametrize("command, text, message", FILE_ERRORS)
def test_parse_errors_give_positions_in_the_file(tmp_path, capsys, command, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, *command.split(), str(bad))
    assert (code, err) == (2, f"parse error: {message}\n")


# (model file text, the error message, with its position in the file)
MODEL_ERRORS = [
    ("alphabet: a\nworlds: w0 w1\n  leq: w0 w1, w1\n", "3:15: leq pair needs two worlds: 'w1'"),
    ("alphabet: a\nworlds: w0 w1\nleq: w0 w1 w0, w0 w1\n",
     "3:6: leq pair needs two worlds: 'w0 w1 w0'"),
    ("alphabet: a\n   worlds w0\n", "2:4: expected 'key: values'"),
    ("# a model\nworlds: w0\n    vplus: a\n", "3:5: expected 'vplus <world>:'"),
    ("worlds: w0\n\t vminus w0 w1: a\n", "2:3: expected 'vminus <world>:'"),
    ("  alpha: a\n", "1:3: unknown section 'alpha'"),
    ("alphabet: a\n\fworlds w0\n", "2:2: expected 'key: values'"),
    ("alphabet: a\nworlds: w0 vplus: a\n", "2:12: expected a name, found 'vplus:'"),
    ("alphabet: a b,\nworlds: w0\n", "1:13: expected a name, found 'b,'"),
    ("worlds: w0 w1\nleq: w0 w1,w1 abs\n", "2:15: expected a name, found 'abs'"),
    ("worlds: w0\nvminus w0: a ~b\n", "2:14: expected a name, found '~b'"),
    # only vplus and vminus head a valuation line
    ("alphabet: a\nworlds: w0\nvplusx w0: a\n", "3:1: unknown section 'vplusx w0'"),
    ("alphabet: a\nworlds: w0\nvminusfoo w0: a\n", "3:1: unknown section 'vminusfoo w0'"),
    # the world of a valuation head is a name, as its values are
    ("alphabet: a\nworlds: w0\nvplus proj3: a\n", "3:7: expected a name, found 'proj3'"),
]


@pytest.mark.parametrize("text, message", MODEL_ERRORS)
def test_model_parse_errors_give_positions_in_the_file(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.model"
    bad.write_text(text)
    code, _, err = run(capsys, "kripke", "validate", str(bad))
    assert (code, err) == (2, f"parse error: {message}\n")


# -- the three '|-' file readers as they were, each with its own loop ----------
# The old readers split lines with str.splitlines; split=_newlines splits
# only at '\n', as read_entailment does.

def _newlines(text):
    return text.split("\n")


def _old_content_lines(text, split):
    for lineno, raw in enumerate(split(text), start=1):
        line = raw.split("#", 1)[0]
        if content := line.strip():
            yield lineno, len(line) - len(line.lstrip()) + 1, content


def _old_parse_judgment(text, split=str.splitlines):
    ctx = Context()
    term = None
    for lineno, col, line in _old_content_lines(text, split):
        if term is not None:
            raise ParseError("the '|- term' line must be the last line", lineno, col)
        if line.startswith("|-"):
            with located(lineno, col + 2):
                term = parse_term(line[2:])
        elif ":" in line:
            head, _, prop_src = line.partition(":")
            if not is_name(name := head.strip()):
                raise ParseError(f"expected a hypothesis name, found {name!r}", lineno, col)
            if ctx.lookup(name) is not None:
                raise ParseError(f"duplicate hypothesis {name!r}", lineno, col)
            with located(lineno, col + len(head) + 1):
                ctx = ctx.extend(name, parse_mprop(prop_src))
        else:
            raise ParseError("expected 'x : prop' or '|- term'", lineno, col)
    if term is None:
        raise ParseError("no term line ('|- ...') found", 1, 1)
    return ctx, term


def _old_parse_sequent(text, split=str.splitlines):
    hyps = []
    goal = None
    for lineno, col, line in _old_content_lines(text, split):
        if goal is not None:
            raise ParseError("the '|- prop' line must be the last line", lineno, col)
        if line.startswith("|-"):
            with located(lineno, col + 2):
                goal = parse_mprop(line[2:])
        else:
            with located(lineno, col):
                hyps.append(parse_mprop(line))
    if goal is None:
        raise ParseError("no goal line ('|- ...') found", 1, 1)
    return hyps, goal


def _old_parse_nk(text, split=str.splitlines):
    hyps = []
    proof_src = None
    for lineno, col, line in _old_content_lines(text, split):
        if proof_src is not None:
            raise ParseError("the '|- proof' line must be the last line", lineno, col)
        head, colon, rest = line.partition(":")
        if head.rstrip() == "hyp" and colon:
            with located(lineno, col + len(head) + 1):
                tk = _Tokens(rest)
                hyps.append(_parse_base(tk))
                if tk.words[tk.i]:
                    raise tk.error("trailing input after hypothesis")
        elif line.startswith("|-"):
            proof_src, proof_at = line[2:], (lineno, col + 2)
        else:
            raise ParseError("expected 'hyp : <prop>' or '|- <proof>'", lineno, col)
    if proof_src is None:
        raise ParseError("no proof line ('|- ...') found", 1, 1)
    with located(*proof_at):
        tk = _Tokens(proof_src)
        proof = _parse_nk_node(tk, tuple(hyps))
        tk.end()
    return proof


# (reader, the old one, what follows '|-', a good, an empty and malformed hypotheses)
_READERS = [
    (parse_judgment, _old_parse_judgment, "term", "z : b^s-",
     ["x :", " : a^c+", "x y : a^c+", "x (a ^c+", "x : (a ^c+", "proj3 : a^c+", "x : $"]),
    (parse_sequent, _old_parse_sequent, "prop", "b^s-",
     ["^c+", "(a & b)^q+", "a^c+ ^s+", "(a $ b)^c+", "x : a^c+"]),
    (parse_nk, _old_parse_nk, "proof", "hyp : ~a",
     ["hyp :", "hyp a", "hypothesis : a", "hyp : (a &", "hyp : a b", "hyp : _bot0"]),
]
# the characters but '\n' at which str.splitlines breaks a line
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _mutate_lines(text, hyps, rng):
    """text with one to three line-level changes: the '|-' line dropped,
    duplicated or moved, a blank or comment line added, or a hypothesis
    put before or after the '|-' line."""
    lines = text.split("\n")
    for _ in range(rng.randrange(1, 4)):
        turnstiles = [i for i, line in enumerate(lines) if line.strip().startswith("|-")]
        at = rng.choice(turnstiles) if turnstiles else rng.randrange(len(lines) + 1)
        match rng.randrange(6):
            case 0 if turnstiles:
                del lines[at]
            case 1 if turnstiles:
                lines.insert(rng.randrange(len(lines) + 1), lines[at])
            case 2 if turnstiles:
                lines.insert(rng.randrange(len(lines)), lines.pop(at))
            case 3:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "# c", "\t# |- x"]))
            case _:
                lines.insert(at + rng.randrange(2), rng.choice(hyps))
    return "\n".join(lines)


def _reader_outcome(read, text, **split):
    try:
        return read(text, **split)
    except Exception as e:  # the class, message and position are compared
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def test_one_reader_answers_as_the_three_it_replaced(rng):
    texts = [path.read_text() for path in sorted(GOLDEN.iterdir())]
    texts += [text for _, text, _ in FILE_ERRORS] + [text for text, _ in MODEL_ERRORS]
    named = Counter()
    for read, old, what, good, bad in _READERS:
        hyps = [good, *bad]
        corpus = texts + [_mutate_lines(text, hyps, rng) for text in texts for _ in range(12)]
        for text in corpus:
            want = _reader_outcome(old, text)
            # named: only '\n' ends a line
            if any(c in text for c in _OTHER_BREAKS):
                now = _reader_outcome(old, text, split=_newlines)
                named["breaks"] += now != want
                want = now
            # named: a '|-' line followed by another line is a shape error before its text is read
            lines = list(_old_content_lines(text, _newlines))
            first = next((i for i, (_, _, line) in enumerate(lines) if line.startswith("|-")), None)
            if (first is not None and first + 1 < len(lines) and type(want) is tuple
                    and want[0] is ParseError and want[2] == lines[first][0]):
                lineno, col, _ = lines[first + 1]
                message = f"the '|- {what}' line must be the last line"
                want = ParseError, f"{lineno}:{col}: {message}", lineno, col
                named[what] += 1
            assert _reader_outcome(read, text) == want, text
    # NK files read their '|-' text after the shape check already
    assert min(named["breaks"], named["term"], named["prop"]) >= 10 and not named["proof"], named


def test_normalize_eta_golden(capsys):
    code, out, _ = run(capsys, "normalize", "--eta", str(GOLDEN / "projc_pairc.prk"))
    assert code == 0
    assert out.strip() == "t1"


def test_normalize_trace(capsys):
    code, out, _ = run(capsys, "normalize", "--eta", "--trace",
                       str(GOLDEN / "projc_pairc.prk"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "t1"
    assert any("==>" in line for line in lines[:-1])
    rules = [line.split()[1] for line in lines[:-1]]
    assert rules == ["beta", "eta", "proj"]
    assert "#" not in out  # dangling indices are displayed with binder names


def test_kripke_eval_golden(capsys):
    code, out, _ = run(capsys, "kripke", "eval", str(GOLDEN / "lem3.model"),
                       "w0", "(a | ~a)^s+")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "kripke", "eval", str(GOLDEN / "lem3.model"),
                       "w0", "(a | ~a)^c+")
    assert code == 0 and out.strip() == "true"


def test_kripke_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "kripke", "validate", str(GOLDEN / "lem3.model"))
    assert code == 0 and out.strip() == "true"
    broken = tmp_path / "broken.model"
    broken.write_text("alphabet: a\nworlds: w\n")
    code, out, _ = run(capsys, "kripke", "validate", str(broken))
    assert code == 1
    assert "stabilization" in out


def test_kripke_countermodel(capsys):
    code, out, _ = run(capsys, "kripke", "countermodel",
                       str(GOLDEN / "lem_strong.seq"))
    assert code == 1
    assert "worlds:" in out


def test_kripke_countermodel_prints_the_rooted_witness(capsys):
    # the fewest worlds within the bound, rooted at the printed world
    model = [line for line in (GOLDEN / "lem3.model").read_text().splitlines()
             if not line.startswith("#")]
    for argv, world in (([], "w0"), (["--format", "machine"], "world=w0")):
        code, out, _ = run(capsys, *argv, "kripke", "countermodel",
                           str(GOLDEN / "lem_strong.seq"))
        assert (code, out.splitlines()) == (1, [world, *model])


def test_kripke_countermodel_absent(capsys, tmp_path):
    seq = tmp_path / "ax.seq"
    seq.write_text("a^s+\n|- a^s+\n")
    code, out, _ = run(capsys, "kripke", "countermodel", str(seq))
    assert code == 0
    assert "inconclusive" in out


def test_decide(capsys, tmp_path):
    code, out, _ = run(capsys, "decide", str(GOLDEN / "peirce.seq"))
    assert code == 0 and out.strip() == "true"
    seq = tmp_path / "invalid.seq"
    seq.write_text("|- a^c+\n")
    code, out, _ = run(capsys, "decide", str(seq))
    assert code == 1 and out.strip() == "false"
    seq.write_text("|- a^s+\n")
    code, _, _ = run(capsys, "decide", str(seq))
    assert code == 2


def test_decide_outside_its_fragment_is_one_stderr_line(capsys, tmp_path):
    seq = tmp_path / "strong.seq"
    seq.write_text("a^s+\n|- a^c+\n")
    for argv in ([], ["--format", "machine"]):
        code, out, err = run(capsys, *argv, "decide", str(seq))
        assert (code, out) == (2, "")
        assert err == "error: decide_oplus only covers classical affirmations, found a^s+\n"


def test_embed(capsys):
    code, out, _ = run(capsys, "embed", str(GOLDEN / "andcomm.nk"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "(b & a)^c+"


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "--check", str(GOLDEN / "lem.prk"))
    assert code == 0
    assert "Pos<" in out


def test_dual(capsys, tmp_path):
    f = tmp_path / "j.prk"
    f.write_text("x : a^c+\n|- pair+(clam+(w : a^c-. capp+(x, w)), x)\n")
    code, out, _ = run(capsys, "dual", str(f))
    assert code == 0
    assert "x : a^c-" in out
    assert "pair-(" in out


def test_classify_cli(capsys):
    code, out, _ = run(capsys, "--format", "machine", "classify",
                       str(GOLDEN / "lem.prk"))
    assert code == 0
    assert "canonical=true" in out


def test_usage_error(capsys):
    assert main(["no-such-command"]) == 2


def test_kripke_eval_rejects_invalid_model(capsys, tmp_path):
    broken = tmp_path / "broken.model"
    broken.write_text("alphabet: a\nworlds: w\n")
    code, out, _ = run(capsys, "kripke", "eval", str(broken), "w", "a^s+")
    assert code == 1
    assert "invalid model" in out


def test_normalize_accepts_checkable_only_terms(capsys, tmp_path):
    f = tmp_path / "inj.prk"
    f.write_text("x : a^c+\n|- in1+(x)\n")
    code, out, _ = run(capsys, "normalize", str(f))
    assert code == 0
    assert out.strip() == "in1+(x)"


def test_golden_judgments_roundtrip(capsys):
    # parse -> check -> print -> parse yields identical terms
    for name in ("lem.prk", "projc_pairc.prk"):
        text = (GOLDEN / name).read_text()
        ctx, term = parse_judgment(text)
        infer_type(ctx, term)
        assert parse_term(print_term(term)) == term


def test_machine_output_is_line_stable(capsys):
    code1, out1, _ = run(capsys, "--format", "machine", "check", str(GOLDEN / "lem.prk"))
    code2, out2, _ = run(capsys, "--format", "machine", "check", str(GOLDEN / "lem.prk"))
    assert (code1, out1) == (code2, out2)


def test_non_positive_counts_are_usage_errors(capsys):
    for argv in (["normalize", "--fuel", "0", str(GOLDEN / "lem.prk")],
                 ["normalize", "--fuel", "-3", str(GOLDEN / "lem.prk")],
                 ["kripke", "countermodel", str(GOLDEN / "lem_strong.seq"),
                  "--max-worlds", "0"],
                 ["kripke", "countermodel", str(GOLDEN / "lem_strong.seq"),
                  "--max-worlds", "-1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be a positive integer" in err
        assert "Traceback" not in err


def test_positive_counts_accepted(capsys, tmp_path):
    judgment = tmp_path / "x.prk"
    judgment.write_text("x : a^c+\n|- x\n")
    code, out, _ = run(capsys, "normalize", "--fuel", "1", str(judgment))
    assert code == 0 and out.strip() == "x"
    seq = tmp_path / "ax.seq"
    seq.write_text("a^s+\n|- a^s+\n")
    code, out, _ = run(capsys, "kripke", "countermodel", str(seq), "--max-worlds", "1")
    assert code == 0 and "inconclusive" in out


def test_fuel_allows_exactly_n_contractions(capsys, tmp_path):
    judgment = tmp_path / "chain2.prk"
    judgment.write_text("x : a^c+\n|- nege-(negi-(nege-(negi-(x))))\n")
    code, out, _ = run(capsys, "normalize", "--fuel", "2", str(judgment))
    assert code == 0 and out.strip() == "x"
    code, out, err = run(capsys, "normalize", "--fuel", "1", str(judgment))
    assert code == 1 and out == ""
    assert err.strip() == "error: no normal form within 1 steps (this signals a bug for typed terms)"


def test_kripke_eval_unknown_world_is_usage_error(capsys):
    code, out, err = run(capsys, "kripke", "eval", str(GOLDEN / "lem3.model"),
                         "w9", "a^s+")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: unknown world 'w9'"


def test_kripke_eval_atom_missing_from_the_model_is_usage_error(capsys):
    assert run(capsys, "kripke", "eval", str(GOLDEN / "lem3.model"), "w0", "b^s+") == \
        (2, "", "error: variables not in alphabet: ['b']\n")


def test_unreadable_files_are_usage_errors(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    binary = tmp_path / "latin1.prk"
    binary.write_bytes("x : a^c+\n|- x # caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "check", str(binary))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode") and err.count("\n") == 1


def test_recursion_and_memory_errors_are_too_deep(capsys, monkeypatch):
    for error in (RecursionError, MemoryError):
        def fail(*_):
            raise error
        monkeypatch.setattr(typecheck, "infer_type", fail)
        assert run(capsys, "check", str(GOLDEN / "lem.prk")) == \
            (2, "", "error: input too deep\n")


def test_deep_terms_pass_and_limits_are_restored(capsys, tmp_path):
    limit, size = sys.getrecursionlimit(), threading.stack_size()
    for n, commands in ((50_000, [("check", "a^c+"), ("normalize", "x"), ("dual", None),
                                  ("classify", None)]),  # 10^5 constructors
                        (1_200, [("translate", None)])):
        judgment = tmp_path / f"deep{n}.prk"
        judgment.write_text("x : a^c+\n|- " + "nege-(negi-(" * n + "x" + "))" * n + "\n")
        for command, answer in commands:
            code, out, err = run(capsys, command, str(judgment))
            assert (code, err) == (0, "")
            assert answer is None or out == answer + "\n"
    assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, size)


_PIECES = ["x", "y", " : ", "a", "b", "^s+", "^c-", "^c+", "(", ")", " & ", " | ", "~", "\n",
           "|- ", "pair+(", "proj1-(", "in2+(", "case+(", "negi-(", "nege+(", "clam-(",
           "capp+(", "abs[", "]", ", ", ". ", "#", "_bot0", "proj3+(", "\xe9"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["check", "normalize", "classify", "translate", "dual"]),
       st.one_of(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
                 st.text(max_size=30),
                 st.integers(1, 3_000).map(
                     lambda n: "x : a^c+\n|- " + "nege-(negi-(" * n + "x" + "))" * n)))
def test_random_judgments_end_in_an_exit_code(tmp_path, command, text):
    judgment = tmp_path / "random.prk"
    judgment.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(judgment)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_JUDGMENT = {"prk.syntax", "prk.surface", "prk.typecheck"}
_CLASSICAL = {"prk.classical", "prk.rewrite", *_JUDGMENT}
_KRIPKE = {"prk.syntax", "prk.surface", "prk.kripke"}
_LOADS = {
    "check golden/lem.prk": _JUDGMENT,
    "dual golden/lem.prk": _JUDGMENT,
    "normalize --eta --trace golden/projc_pairc.prk": {"prk.rewrite", *_JUDGMENT},
    "classify golden/lem.prk": {"prk.rewrite", *_JUDGMENT},
    "translate --check golden/lem.prk": {"prk.systemf", *_JUDGMENT},
    "kripke eval golden/lem3.model w0 a^s+": _KRIPKE,
    "kripke validate golden/lem3.model": _KRIPKE,
    "kripke countermodel golden/lem_strong.seq": _KRIPKE,
    "decide golden/peirce.seq": _CLASSICAL,
    "embed golden/andcomm.nk": _CLASSICAL,
    "--help": set(),
}


@pytest.mark.parametrize("command", _LOADS)
def test_each_command_loads_only_its_layers(command):
    # a fresh interpreter per command, as `prk` runs; the answers are checked by the tests above
    code = ("import contextlib, io, sys\nfrom prk import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({command.split()!r})\n"
            "print(sorted(m for m in sys.modules if m.startswith('prk')))")
    src = str(pathlib.Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=GOLDEN.parent, capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == str(sorted({"prk", "prk.cli", "prk.errors", *_LOADS[command]}))

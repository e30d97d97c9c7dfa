"""Command-line interface.

Exit codes: 0 success / valid / provable; 1 well-formed negative answer
(ill-typed, countermodel found, invalid sequent); 2 usage or parse error
(a non-positive count, an unknown world or atom in `kripke eval`, a
`decide` sequent outside its fragment, an unreadable or too deep input).
"""

from __future__ import annotations

import argparse
import sys
import threading

from .errors import (CannotInferError, ParseError, PrkError, TypingError,
                     UnknownVariableError, UnknownWorldError, WrongModeError)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def parse_judgment(text: str) -> tuple[Context, Term]:
    """Judgment files: lines 'x : prop' then '|- term', which comes last.
    The context is extended line by line, a name tested before its prop is read."""
    from .surface import is_name, located, parse_mprop, parse_term, read_entailment
    from .typecheck import Context
    ctx = Context()

    def hypothesis(line: str) -> None:
        nonlocal ctx
        head, colon, prop_src = line.partition(":")
        if not colon:
            raise ParseError("expected 'x : prop' or '|- term'", 1, 1)
        if not is_name(name := head.strip()):
            raise ParseError(f"expected a hypothesis name, found {name!r}", 1, 1)
        if name in ctx:
            raise ParseError(f"duplicate hypothesis {name!r}", 1, 1)
        with located(1, len(head) + 2):
            ctx = ctx.extend(name, parse_mprop(prop_src))

    term = read_entailment(text, "term", "term", hypothesis, lambda src, _: parse_term(src))[1]
    return ctx, term


def parse_sequent(text: str) -> tuple[list[MProp], MProp]:
    """Sequent files: hypothesis props one per line, then '|- prop', which comes last."""
    from .surface import parse_mprop, read_entailment
    return read_entailment(text, "prop", "goal", parse_mprop, lambda src, _: parse_mprop(src))


class Output:
    def __init__(self, machine: bool):
        self.machine = machine

    def emit(self, key: str, value) -> None:
        if self.machine:
            print(f"{key}={value}")
        else:
            print(value)


def cmd_check(args, out: Output) -> int:
    from . import surface, typecheck
    ctx, term = parse_judgment(_read(args.file))
    try:
        d = typecheck.infer_type(ctx, term)
    except TypingError as e:
        out.emit("error", f"ill-typed: {e}")
        return 1
    out.emit("type", surface.print_mprop(d.conclusion))
    return 0


def cmd_normalize(args, out: Output) -> int:
    from . import rewrite, surface, typecheck
    ctx, term = parse_judgment(_read(args.file))
    try:
        typecheck.infer_type(ctx, term)  # reject ill-typed input before reducing
    except CannotInferError:
        pass  # e.g. a bare injection: not ill-typed, only not inferable
    mode = rewrite.ETA if args.eta else rewrite.PLAIN
    nf, trace = rewrite.normalize(term, mode=mode, fuel=args.fuel)
    if args.trace:
        for entry in trace:
            pos, names = ".".join(map(str, entry.position)) or "root", entry.names  # each reads the path
            print(f"{pos} {entry.rule} {surface.print_term(entry.redex, names)} ==> "
                  f"{surface.print_term(entry.reduct, names)}")
    out.emit("normal_form", surface.print_term(nf))
    return 0


def cmd_classify(args, out: Output) -> int:
    from . import rewrite, typecheck
    ctx, term = parse_judgment(_read(args.file))
    try:
        d = typecheck.infer_type(ctx, term)
    except TypingError:
        d = None
    report = rewrite.classify(term, d)
    out.emit("normal", str(report.normal).lower())
    out.emit("neutral", str(report.neutral).lower())
    out.emit("canonical", str(report.canonical).lower())
    if report.clause is not None:
        out.emit("canonicity_clause", report.clause)
        out.emit("canonicity_shape", report.clause_shape)
    return 0


def cmd_translate(args, out: Output) -> int:
    from . import systemf, typecheck
    ctx, term = parse_judgment(_read(args.file))
    try:
        d = typecheck.infer_type(ctx, term)
    except TypingError as e:
        out.emit("error", f"ill-typed: {e}")
        return 1
    fterm = systemf.translate_term(d)
    out.emit("fterm", systemf.print_fterm(fterm))
    out.emit("ftype", systemf.print_ftype(systemf.translate_prop(d.conclusion)))
    if args.check:
        inferred = systemf.f_infer(systemf.translate_ctx(d.ctx), fterm)
        out.emit("ftype_inferred", systemf.print_ftype(inferred))
    return 0


def cmd_dual(args, out: Output) -> int:
    from . import surface, syntax
    ctx, term = parse_judgment(_read(args.file))
    for name, p in ctx:
        out.emit("hyp", f"{name} : {surface.print_mprop(syntax.mprop_dual(p))}")
    out.emit("term", surface.print_term(syntax.dual(term)))
    return 0


def cmd_kripke(args, out: Output) -> int:
    from . import kripke, surface
    if args.kripke_cmd == "eval":
        model = kripke.parse_model(_read(args.model))
        report = kripke.validate_model(model)
        if not report.valid:
            out.emit("error", f"invalid model: {report.violations[0]}")
            return 1
        prop = surface.parse_mprop(args.prop)
        out.emit("forces", str(kripke.forces(model, args.world, prop)).lower())
        return 0
    if args.kripke_cmd == "validate":
        model = kripke.parse_model(_read(args.model))
        report = kripke.validate_model(model)
        if report.valid:
            out.emit("valid", "true")
            return 0
        for violation in report.violations:
            out.emit("violation", violation)
        return 1
    if args.kripke_cmd == "countermodel":
        hyps, goal = parse_sequent(_read(args.judgment))
        found = kripke.countermodel_search(hyps, goal, max_worlds=args.max_worlds)
        if found is None:
            out.emit("countermodel", "none within bound (inconclusive)")
            return 0
        model, world = found
        out.emit("world", world)
        sys.stdout.write(kripke.print_model(model))
        return 1
    raise ValueError(args.kripke_cmd)


def cmd_decide(args, out: Output) -> int:
    from . import classical
    result = classical.decide_oplus(*parse_sequent(_read(args.file)))
    out.emit("provable", str(result).lower())
    return 0 if result else 1


def cmd_embed(args, out: Output) -> int:
    from . import classical, surface, typecheck
    proof = classical.parse_nk(_read(args.file))
    term = classical.embed_nk(proof)
    d = typecheck.infer_type(classical.nk_context(proof), term)
    out.emit("term", surface.print_term(term))
    out.emit("type", surface.print_mprop(d.conclusion))
    return 0


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prk",
        description="workbench for proofs and refutations: check, normalize, "
                    "translate, and model-check proof terms")
    parser.add_argument("--format", choices=("plain", "machine"), default="plain")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="type-check a judgment file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalize", help="reduce a judgment file's term to normal form")
    p.add_argument("file")
    p.add_argument("--eta", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--fuel", type=positive_int, default=100_000)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("classify", help="report normal/neutral/canonical shape")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("translate", help="translate a judgment into System F")
    p.add_argument("file")
    p.add_argument("--check", action="store_true",
                   help="also re-infer the translated term's type")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("dual", help="dualize a judgment file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("kripke", help="evaluate or search finite models")
    ksub = p.add_subparsers(dest="kripke_cmd", required=True)
    k = ksub.add_parser("eval", help="evaluate forcing at a world")
    k.add_argument("model")
    k.add_argument("world")
    k.add_argument("prop")
    k = ksub.add_parser("validate", help="check the model conditions")
    k.add_argument("model")
    k = ksub.add_parser("countermodel", help="search for a small counter-model")
    k.add_argument("judgment")
    k.add_argument("--max-worlds", type=positive_int, default=3)
    p.set_defaults(fn=cmd_kripke)

    p = sub.add_parser("decide", help="decide a classical-affirmation sequent")
    p.add_argument("file")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("embed", help="compile an NK proof file into a proof term")
    p.add_argument("file")
    p.set_defaults(fn=cmd_embed)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # Typing, f_infer, ==, forcing, translate_prop/funabs, parse_nk and embed_nk recurse,
    # so the command runs on a thread whose 1 GiB stack outlasts a 400,000 limit.
    codes: list[int] = []
    limit, size = sys.getrecursionlimit(), threading.stack_size(1 << 30)
    sys.setrecursionlimit(400_000)
    try:
        worker = threading.Thread(target=lambda: codes.append(_run(args)), daemon=True)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    return codes[0] if codes else 1


def _run(args) -> int:
    """Run the command args.fn and map its failures to exit codes."""
    try:
        return args.fn(args, Output(machine=args.format == "machine"))
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, UnknownVariableError, UnknownWorldError,
            WrongModeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError):
        print("error: input too deep", file=sys.stderr)
        return 2
    except TypingError as e:
        print(f"ill-typed: {e}", file=sys.stderr)
        return 1
    except PrkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

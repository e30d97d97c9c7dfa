"""The prk benchmark.

    python3 perfbench/run.py --workload proofs --seed 1 --seconds 20 --trace 0

Workloads: proofs, translate, models, cli, or `all` for the four in turn.
Each workload runs in a worker process of its own (perfbench/worker.py):
one client, closed loop, one operation at a time, over an operation list
fixed by --seed and --seconds.  Every answer is checked against a
reference that does not come from the timed code path.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
twice, untraced and then with a span around every library call, and
prints the per-layer metrics; spans are written to .perfbench-out/.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("proofs", "translate", "models", "cli")
SETUP_RUNS = 7          # set-ups per run; setup_s is their median
RUN_LIMIT_S = 120       # wall-clock budget for the operation loops of one run
KILL_AFTER_S = 20       # grace for a worker's last operation past its budget

END_TO_END = {"ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms", "ok_share": "share",
              "peak_rss_mb": "MB", "setup_s": "s"}

CHAIN_SIZES = (25, 50, 100, 200, 400)
CONJUNCTS = range(1, 9)
RULES = ("proj", "case", "neg", "beta", "absPairInj", "absInjPair", "absNeg", "eta")
SEARCH_CLASSES = ("a1w3", "a2w3", "a1w4")
CLI_COMMANDS = ("check", "normalize", "classify", "translate", "dual", "kripke_eval",
                "kripke_validate", "kripke_countermodel", "decide", "embed")
MODULES = ("__init__", "classical", "cli", "errors", "gen", "kripke", "rewrite",
           "surface", "syntax", "systemf", "typecheck")
LAYERS = ("surface", "typecheck", "rewrite", "systemf", "kripke", "classical", "cli")
BUSY = ("surface.parse_term", "surface.print_term", "typecheck.infer_type",
        "typecheck.check_type", "rewrite.normalize", "rewrite.classify",
        "systemf.translate_term", "systemf.f_infer", "systemf.ftype_equiv",
        "systemf.translate_prop", "systemf.print_fterm", "kripke.countermodel_search",
        "kripke.forces", "classical.decide_oplus", "classical.embed_nk")
CALLS = ("surface.parse_term", "typecheck.infer_type", "rewrite.normalize",
         "kripke.countermodel_search", "kripke.forces", "classical.decide_oplus")


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, *flags: str,
               deadline: float = RUN_LIMIT_S) -> dict:
    """Run one worker process to completion; on overrun, kill its whole
    process group (the cli workload's children too) and wait for it."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--deadline", str(deadline), *flags]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=deadline + KILL_AFTER_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker did not finish in time")
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"{workload} worker failed (exit {proc.returncode}): {tail[0]}")
    return json.loads(out.strip().splitlines()[-1])


def ok_latencies(result: dict, key: str = "ms") -> list[float]:
    return [rec[key] for rec in result["records"] if rec["status"] == "ok"]


def ops_per_s(result: dict) -> float:
    """Completed operations per second of library time; failed operations
    and the benchmark's own checks are left out."""
    ok = ok_latencies(result)
    return len(ok) / (sum(ok) / 1000.0) if ok else 0.0


def end_to_end(result: dict, setups: list[dict]) -> dict[str, float]:
    ok = ok_latencies(result)
    if len(ok) < 2:
        raise BenchError("fewer than two operations completed")
    return {"ops_per_s": ops_per_s(result),
            "p50_ms": statistics.median(ok),
            "p90_ms": statistics.quantiles(ok, n=10, method="inclusive")[8],
            "ok_share": len(ok) / len(result["records"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(s["setup_s"] for s in setups)}


def _median_span(result: dict, kind: str, label: str, span: str) -> float:
    values = [rec["spans"].get(span, 0.0) for rec in result["records"]
              if rec["kind"] == kind and rec["label"] == label and rec["status"] == "ok"]
    return statistics.median(values) if values else 0.0


def _slope(pts: list[tuple[float, float]]) -> float:
    """Least-squares slope through the points (0 with fewer than two)."""
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / den


def per_layer(traced: dict, untraced: dict) -> dict[str, tuple[float, str]]:
    layers, counters = traced["layers"], traced["counters"]
    m: dict[str, tuple[float, str]] = {}

    def stat(name, key):
        return layers.get(name, {}).get(key, 0)

    def count(name):
        return counters.get(name, 0)

    for name in BUSY:
        m[f"{name}.busy_s"] = (stat(name, "busy_s"), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (stat(name, "calls"), "count")
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (stat(layer, "busy_s"), "s")
        m[f"{layer}.self_s"] = (stat(layer, "self_s"), "s")

    parse_s = stat("surface.parse_term", "busy_s")
    m["surface.parse_term.nodes_per_s"] = (
        count("surface.parse_term.nodes") / parse_s if parse_s else 0.0, "1/s")
    m["typecheck.derivation_nodes"] = (count("typecheck.derivation_nodes"), "count")

    steps = count("rewrite.normalize.steps")
    m["rewrite.normalize.steps"] = (steps, "count")
    m["rewrite.normalize.us_per_step"] = (
        stat("rewrite.normalize", "busy_s") / steps * 1e6 if steps else 0.0, "us")
    chain_s = [_median_span(traced, "chain", f"n{n}", "rewrite.normalize") for n in CHAIN_SIZES]
    for n, secs in zip(CHAIN_SIZES, chain_s):
        m[f"rewrite.normalize.us_per_step.n{n}"] = (secs / n * 1e6, "us")
    m["rewrite.normalize.growth_exp"] = (
        _slope([(math.log(n), math.log(s)) for n, s in zip(CHAIN_SIZES, chain_s) if s > 0]),
        "slope")
    for rule in RULES:
        m[f"rewrite.steps.{rule}"] = (count(f"rewrite.steps.{rule}"), "count")

    m["systemf.fterm_nodes"] = (count("systemf.fterm_nodes"), "count")
    k_ms = [_median_span(traced, "lem", f"k{k}", "systemf.translate_term") * 1000 for k in CONJUNCTS]
    for k, ms in zip(CONJUNCTS, k_ms):
        m[f"systemf.translate_term.ms.k{k}"] = (ms, "ms")
    tail = [(k, math.log(ms)) for k, ms in zip(CONJUNCTS, k_ms) if k >= 4 and ms > 0]
    m["systemf.growth_ratio"] = (math.exp(_slope(tail)) if len(tail) >= 2 else 0.0, "ratio")

    searches = stat("kripke.countermodel_search", "calls")
    m["kripke.countermodel_search.found_share"] = (
        count("kripke.countermodel_search.found") / searches if searches else 0.0, "share")
    for label in SEARCH_CLASSES:
        m[f"kripke.countermodel_search.ms.{label}"] = (
            _median_span(traced, "search", label, "kripke.countermodel_search") * 1000, "ms")
    m["kripke.enumerate_models.models"] = (count("kripke.enumerate_models.models"), "count")

    ok = {label: [rec["ms"] for rec in traced["records"]
                  if rec["kind"] == "cli" and rec["label"] == label and rec["status"] == "ok"]
          for label in ("help",) + CLI_COMMANDS}
    m["cli.startup_ms"] = (statistics.median(ok["help"]) if ok["help"] else 0.0, "ms")
    for label in CLI_COMMANDS:
        m[f"cli.{label}.p50_ms"] = (statistics.median(ok[label]) if ok[label] else 0.0, "ms")
    for code in (0, 1, 2):
        m[f"cli.exit_code.{code}"] = (count(f"cli.exit_code.{code}"), "count")
    m["cli.tracebacks"] = (count("cli.tracebacks"), "count")

    for module in MODULES:
        m[f"src_lines.{module}"] = (source_lines(f"{module}.py"), "lines")
    m["src_lines.total"] = (source_lines("*.py"), "lines")
    failed = sum(rec["status"] != "ok" for rec in traced["records"])
    m["fail_share"] = (failed / len(traced["records"]), "share")
    m["trace_overhead_share"] = (ops_per_s(untraced) / ops_per_s(traced) - 1.0, "share")
    return m


def source_lines(pattern: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "prk", pattern)):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        untraced = run_worker(workload, seed, seconds, deadline=RUN_LIMIT_S / 2)
        result = run_worker(workload, seed, seconds, "--trace", deadline=RUN_LIMIT_S / 2)
        metrics = per_layer(result, untraced)
    else:
        setups = [run_worker(workload, seed, seconds, "--setup-only")
                  for _ in range(SETUP_RUNS - 1)]
        result = run_worker(workload, seed, seconds)
        setups.append(result)
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(result, setups).items()}
    statuses = [rec["status"] for rec in result["records"]]
    print(f"workload={workload} seed={seed} trace={int(trace)} blocks={result['blocks']} "
          f"planned={result['planned']} attempted={len(statuses)} "
          f"samples={statuses.count('ok')} digest={result['digest']}")
    for problem, times in result["problems"].items():
        print(f"  failed x{times}: {problem}")
    if trace:
        print(f"  spans: {result['spans_file']}")
    else:
        raw = ok_latencies(result, "raw_ms")
        print(f"  as timed, before scaling to reference speed: "
              f"ops_per_s={len(raw) / sum(raw) * 1000:.6g} p50_ms={statistics.median(raw):.6g} "
              f"setup_s={statistics.median(s['raw_setup_s'] for s in setups):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {"correct": "wrong" not in statuses, "attempted": len(statuses),
            "failed": len(statuses) - statuses.count("ok"),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{w}.{k}": v for w, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Runs one workload in a process of its own, so that the library's
caches and the peak RSS of one workload do not leak into the next.

    python3 perfbench/worker.py --workload proofs --seed 1 --seconds 20 \
        [--trace] [--setup-only] [--deadline 150]

Set-up (timed as setup_s) imports prk and generates the operation list
from the seed.  The loop then runs every operation once, closed loop,
one at a time; the operation list is fixed by the seed and --seconds, so
two commits run the same work.  Prints one JSON object on stdout.

Times are reported at reference speed.  On a shared 2-vCPU VM (Xeon,
2.1 GHz) the speed of Python code drifts by up to a third over periods
of seconds to minutes, so between operations the worker times a fixed
piece of work (SpeedProbe) and scales each measured time by
REFERENCE_PROBE_S / (the probe's time around the operation).  Raw times
are kept next to the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

REFERENCE_PROBE_S = 0.001  # the probe's time at reference speed
PROBE_EVERY_S = 0.05       # probe at most this often between operations
PROBE_WINDOW_S = 1.0       # an operation's speed: probes within this of it

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deadline", type=float, default=150.0,
                        help="stop starting operations after this many seconds")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    for _ in range(3):
        probe.sample()
    start = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import prk  # noqa: F401  (the import is part of the timed set-up)
    from tracing import NullTracer, Tracer, summarize
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(ROOT, os.path.join(OUT_DIR, f"work-{os.getpid()}"))
    try:
        blocks = max(1, round(args.seconds / cls.block_s))
        ops = workload.generate(random.Random(f"{args.seed}/{args.workload}"), blocks)
        raw_setup_s = perf_counter() - start
        for _ in range(3):
            probe.sample()
        setup_s = raw_setup_s * probe.scale(start, start + raw_setup_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        result = run_ops(workload, ops, Tracer() if args.trace else NullTracer(), args.deadline)
    finally:
        workload.cleanup()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update(setup_s=setup_s, raw_setup_s=raw_setup_s, blocks=blocks,
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
                  digest=hashlib.sha256("\n".join(op.desc for op in ops).encode()).hexdigest())
    if args.trace:
        tracer = result.pop("tracer")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
        scale = {rec["id"]: rec["scale"] for rec in result["records"]}
        result["layers"] = summarize(tracer.spans, scale)
        per_op = defaultdict(lambda: defaultdict(float))
        for _sid, _parent, op_id, name, begin, end in tracer.spans:
            per_op[op_id][name] += (end - begin) * scale.get(op_id, 1.0)
        for rec in result["records"]:
            rec["spans"] = per_op.get(rec["id"], {})
    else:
        result.pop("tracer")
    print(json.dumps(result))
    return 0


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


def _build(depth: int) -> _Node:
    return _Node(_build(depth - 1), _build(depth - 1)) if depth else _Node(None, None)


def _walk(node: _Node) -> int:
    return 1 if node.left is None else 1 + _walk(node.left) + _walk(node.right)


class SpeedProbe:
    """Samples of a fixed piece of work's run time, taken between
    operations.  The work mixes integer arithmetic with building and
    walking a tree of small objects: either alone tracked some library
    operations less well than the mix.  It uses no library code, so no
    change to the library can move it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)

    def sample(self) -> None:
        start = perf_counter()
        acc = 0
        for i in range(7_500):
            acc += i * i % 7
        _walk(_build(9))
        end = perf_counter()
        self.samples.append(((start + end) / 2, end - start))

    def maybe_sample(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured in [start, end] into a time
        at reference speed: reference probe time / median nearby probe time."""
        near = [s for t, s in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return REFERENCE_PROBE_S / statistics.median(near)


def run_ops(workload, ops, tracer, deadline: float) -> dict:
    """Closed loop: each operation starts when the previous one ended.
    Only the library calls of an operation are timed; its check runs
    after the clock stops."""
    records, problems, counters, probe = [], Counter(), Counter(), SpeedProbe()
    op_name = f"op.{type(workload).__name__.lower()}"
    loop_start = perf_counter()
    for i, op in enumerate(ops):
        if perf_counter() - loop_start > deadline:
            break
        probe.maybe_sample()
        tracer.begin_op(i)
        t0 = perf_counter()
        try:
            out = tracer.call(op_name, workload.run, op, tracer)
            verdict = None
        except Exception as exc:  # a failed operation is counted, never fatal
            out, verdict = None, ("error", f"{type(exc).__name__}: {str(exc)[:120]}")
        t1 = perf_counter()
        if out is not None:
            verdict = workload.check(op, out)
            if tracer.traced:
                workload.count(op, out, counters)
        status = "ok" if verdict is None else verdict[0]
        if verdict is not None:
            problems[f"{op.label}: {verdict[1]}"] += 1
        records.append({"id": i, "kind": op.kind, "label": op.label, "status": status,
                        "raw_ms": (t1 - t0) * 1000.0, "t0": t0, "t1": t1})
    probe.sample()
    for rec in records:
        t0, t1 = rec.pop("t0"), rec.pop("t1")
        rec["scale"] = probe.scale(t0, t1)
        rec["ms"] = rec["raw_ms"] * rec["scale"]
    return {"records": records, "planned": len(ops), "counters": counters,
            "problems": dict(problems.most_common(20)), "tracer": tracer}


if __name__ == "__main__":
    raise SystemExit(main())

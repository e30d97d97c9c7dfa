"""Determinism check for the benchmark's counts.

    python3 perfbench/check_determinism.py [--seconds 2] [--workload all]

For each workload, runs the traced benchmark twice with one seed and once
with another.  The two same-seed runs must give identical counts (every
per-layer metric with unit "count", found_share, and the number of
operations) and the same operation digest; the other seed must give a
different operation list.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("proofs", "translate", "models", "cli")
EXACT = ("kripke.countermodel_search.found_share",)


def traced_run(workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                         cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    digest = next(word.split("=", 1)[1] for word in lines[0].split() if word.startswith("digest="))
    return digest, json.loads(lines[-1])


def counts(result: dict) -> dict:
    found = {k: v["value"] for k, v in result["metrics"].items()
             if v["unit"] == "count" or k in EXACT}
    found["attempted"] = result["attempted"]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    args = parser.parse_args(argv)
    failures = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        (d1, r1), (d2, r2), (d3, _) = (traced_run(workload, seed, args.seconds)
                                       for seed in (1, 1, 2))
        c1, c2 = counts(r1), counts(r2)
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        same_seed_ok = d1 == d2 and not diff
        print(f"{workload}: {len(c1)} counts, same seed identical={same_seed_ok}"
              f"{' differing=' + ','.join(diff) if diff else ''}, "
              f"other seed gives another operation list={d3 != d1}")
        failures += (not same_seed_ok) + (d3 == d1)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

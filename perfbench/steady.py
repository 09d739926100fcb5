"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads decode-default
    python3 perfbench/steady.py --runs 5 --trace     # tracing overhead

Runs ``run.py`` ``--runs`` times per workload in each of two sets (a
fresh seed per run, workloads interleaved so that slow phases of the
host spread over all of them), then prints for every end-to-end metric
of every workload each set's median and quartiles, the spread (the
distance between the quartiles as a share of the median), and whether
the sets agree within the bounds of ``BENCHMARK.json``: each spread
within its bound, the second set's median within the bound of the
first's in either direction, and the same share of failed operations in
every run.  ``setup_s`` is exempt from the spread test: it is the
median of a few sub-second set-ups, gated only on its median moving.
Exits 1 when the sets do not agree.

``--trace`` runs traced runs instead (one set) and prints the median and
quartiles of every per-layer metric, the tracing overhead among them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
#: The metric whose spread is not tested (see the module docstring).
SPREAD_EXEMPT = "setup_s"


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def moved_by(first: float, later: float) -> float:
    """How far ``later`` is from ``first``, as a share of ``first``."""
    return (later - first) / first if first else 0.0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workloads: {unknown}")
    sets = 1 if args.trace else SETS
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    results = {w: [[] for _ in range(sets)] for w in chosen}
    for s in range(sets):
        for i in range(args.runs):
            seed = args.seed + s * args.runs + i
            for workload in chosen:
                out = run_once(workload, seed, args.seconds, args.trace)
                results[workload][s].append(out)
                print(f"set {s + 1} run {i + 1} {workload} seed {seed}: "
                      f"correct={out['correct']} failed={out['failed']}/{out['attempted']}",
                      file=sys.stderr, flush=True)

    agree = True
    for workload in chosen:
        runs = results[workload]
        shares = [
            [r["failed"] / r["attempted"] for r in runs[s]] for s in range(sets)
        ]
        correct = all(r["correct"] for s in runs for r in s)
        same_share = all(shares[s] == shares[0] for s in range(sets)) and \
            len({x for s in shares for x in s}) == 1
        print(f"\n{workload}: {args.runs} runs x {sets} sets of {args.seconds:g} s, "
              f"all correct: {correct}, failed share {shares[0][0]:.4f} "
              f"({'same in every run' if same_share else 'DIFFERS'})")
        agree &= correct and same_share
        header = f"  {'metric':<34}{'unit':>6}"
        for s in range(sets):
            header += f"{f'set{s + 1} median':>16}{'q1':>12}{'q3':>12}{'spread':>8}"
        if not args.trace:
            header += f"{'moved':>8}{'bound':>7}  verdict"
        print(header)
        for metric in metrics:
            name = metric["name"]
            line = f"  {name:<34}{metric['unit']:>6}"
            medians, spreads = [], []
            for s in range(sets):
                values = [r["metrics"][name]["value"] for r in runs[s]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                medians.append(q2)
                spreads.append(spread)
                line += f"{q2:>16.6g}{q1:>12.6g}{q3:>12.6g}{100 * spread:>7.1f}%"
            if not args.trace:
                bound = metric["bound"]
                moved = max(abs(moved_by(medians[0], m)) for m in medians)
                spread_ok = name == SPREAD_EXEMPT or all(sp <= bound for sp in spreads)
                ok = spread_ok and moved <= bound
                agree &= ok
                line += f"{100 * moved:>7.1f}%{100 * bound:>6.0f}%  " + ("ok" if ok else "NO")
            print(line)
    if not args.trace:
        print("\nthe sets agree within the bounds" if agree else "\nthe sets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two checkouts on the study benchmark, in alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...] \
        --seeds A-B [--seconds S] [--claim W/METRIC] [--label L] [--out FILE]

For each workload and each seed in A..B it runs ``perfbench/run.py
--workload W --seed S --seconds S --trace 0`` once in each checkout, one
process at a time, and reads the JSON object on the last line of the run's
output.  The side that runs first alternates with the seed: CHANGE on an odd
seed, PARENT on an even one.  ``--seconds`` defaults to ``run_seconds`` of
CHANGE's ``BENCHMARK.json``, which also names the end-to-end metrics and
whether lower or higher is better.

The result, one JSON document (to FILE, else standard output), holds per
workload each side's ``correct`` flags and, per end-to-end metric, each side's
median and quartiles (``statistics.quantiles(n=4)``), both sides' runs in
seed order, the pairs the change wins (a tie is no win) and the relative
change of the medians.  ``--claim W/METRIC`` adds a ``claim`` record for that
pairing: both medians, the wins, the parent's interquartile range and whether
the change won at least 9 pairs in 10 and moved the median by more than that
range.  The runs write their own results under each checkout's
``perfbench/results/``; this script writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="an inclusive range A-B")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--claim", default=None, help="WORKLOAD/METRIC")
    ap.add_argument("--label", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    args.seeds = list(range(int(lo), int(hi or lo) + 1))
    if args.claim is not None and args.claim.split("/")[0] not in args.workload:
        ap.error(f"--claim names a workload that is not run: {args.claim}")
    return args


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``: the JSON object of its last output
    line, with the environment stamp of the line before it as ``env``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), **json.loads(lines[-2])}


def quartiles(runs):
    median = statistics.median(runs)
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(results, metrics):
    """Per metric: both sides' statistics and runs, and the change's wins."""
    out = {}
    for name, better in metrics.items():
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(runs["parent"], runs["change"]))
        parent, change = quartiles(runs["parent"]), quartiles(runs["change"])
        out[name] = {"parent": parent, "change": change, "change_wins": wins,
                     "pairs": len(runs["parent"]),
                     "relative": (change["median"] / parent["median"] - 1.0
                                  if parent["median"] else None),
                     "parent_runs": runs["parent"], "change_runs": runs["change"]}
    return out


def claim(summary, workload, metric, better):
    m = summary[workload]["metrics"][metric]
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    gain = (m["parent"]["median"] - m["change"]["median"]) * (1 if better == "lower" else -1)
    return {"workload": workload, "metric": metric,
            "parent_median": m["parent"]["median"], "change_median": m["change"]["median"],
            "change_wins": m["change_wins"], "pairs": m["pairs"], "parent_iqr": iqr,
            "relative": m["relative"],
            "holds": m["change_wins"] >= 0.9 * m["pairs"] and gain > iqr}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    summary, env = {}, None
    for workload in args.workload:
        results = {side: [] for side in SIDES}
        for seed in args.seeds:
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            for side in order:
                start = time.perf_counter()
                res = run_once(roots[side], workload, seed, seconds)
                env = env or {k: v for k, v in res["env"].items()
                              if k not in ("workload", "seed", "git_commit")}
                results[side].append(res)
                print(f"{workload} seed {seed} {side}: "
                      f"wall_s {res['metrics']['wall_s']['value']:.4f}, "
                      f"correct {res['correct']} ({time.perf_counter() - start:.0f} s)",
                      file=sys.stderr)
        summary[workload] = {
            "correct": {side: [r["correct"] for r in results[side]] for side in SIDES},
            "metrics": summarize(results, metrics)}
    doc = {"label": args.label,
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                      "--trace 0",
           "seeds": args.seeds, "order": "odd seed: change first; even seed: parent first",
           "env": env}
    if args.claim is not None:
        workload, metric = args.claim.split("/")
        doc["claim"] = claim(summary, workload, metric, metrics[metric])
    doc["workloads"] = summary
    text = json.dumps(doc, indent=1)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

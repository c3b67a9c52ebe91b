"""Self-test of the benchmark (about two minutes).

    python3 perfbench/selftest.py

1. Runs the largest-eps cases of every workload (``run.py --smoke``) with
   tracing off and on, and checks that the last line has exactly the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``, that every metric
   named in BENCHMARK.json is printed with its unit, and that all cases pass.
2. Feeds each workload a wrong expectation (a shifted reference, a tighter
   slope bar, a wrong loop period) and checks that its cases then fail, so the
   correctness checks demonstrably run.
3. Checks that seeds give the same inputs every time, seed 0 the nominal
   grids, and that every jittered eps passes ``check_eps``.
4. Runs the benchmark in a copy holding only BENCHMARK.json and perfbench/,
   and checks that it exits non-zero without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, os.path.join(ROOT, "src"))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_smoke_runs(problems):
    bench = spec()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            for m in bench[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{tag}: metric {m['name']} missing or without unit {m['unit']}")
                elif not any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                             for line in lines):
                    problems.append(f"{tag}: metric {m['name']} not printed with its unit")
            extra = set(result["metrics"]) - {m["name"] for m in bench[group]}
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"selftest: {tag}: attempted={result['attempted']} correct={result['correct']}")


def check_checks_run(problems):
    import workloads as wl

    inputs = wl.make_inputs(0)
    ctx = wl.setup("departure", inputs, RESULTS)
    for ref in ctx.references.values():
        ref["x"] = [[v * (1.0 + 1e-5) for v in row] for row in ref["x"]]
    res = wl.run_pass("departure", ctx, smoke=True)
    if not res.cases or not all(c.failures for c in res.cases):
        problems.append("departure: a shifted reference did not fail the x_eps cases")

    saved = dict(wl.MIRROR_SLOPE_TOL)
    wl.MIRROR_SLOPE_TOL.update({k: 1e-12 for k in saved})
    try:
        res = wl.run_pass("transition", wl.setup("transition", inputs, RESULTS), smoke=True)
    finally:
        wl.MIRROR_SLOPE_TOL.update(saved)
    if not [c for c in res.cases if c.name.startswith("mirror") and c.failures]:
        problems.append("transition: a tighter mirror-slope bar did not fail the mirror cases")

    saved_period = wl.OVAL_PERIOD
    wl.OVAL_PERIOD = 1.0
    try:
        res = wl.run_pass("cycle", wl.setup("cycle", inputs, RESULTS), smoke=True)
    finally:
        wl.OVAL_PERIOD = saved_period
    if not [c for c in res.cases if c.name.startswith("cycle") and c.failures]:
        problems.append("cycle: a wrong loop period did not fail the cycle case")
    print("selftest: wrong expectations fail their cases")


def check_seeds(problems):
    import workloads as wl

    nominal = wl.make_inputs(0)
    if nominal.transition_eps != list(wl.TRANSITION_EPS) or nominal.cycle_eps != wl.CYCLE_EPS:
        problems.append("seed 0 does not give the nominal grids")
    for seed in range(1, 40):
        a, b = wl.make_inputs(seed), wl.make_inputs(seed)
        if a != b:
            problems.append(f"seed {seed} gives different inputs on two calls")
        for (k, n), eps_list in a.departure_eps.items():
            cfg = wl.departure_config(k, n)
            for eps in eps_list:
                cfg.check_eps(eps)
        if a.transition_eps == nominal.transition_eps:
            problems.append(f"seed {seed} does not move the transition grid")
    print("selftest: seeds are reproducible and keep check_eps satisfied")


def check_stripped_copy(problems):
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cycle",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("a copy without src/ did not fail cleanly")
    print(f"selftest: copy without sources exits {proc.returncode}")


def main() -> int:
    problems = []
    check_seeds(problems)
    check_checks_run(problems)
    check_smoke_runs(problems)
    check_stripped_copy(problems)
    for p in problems:
        print(f"selftest FAIL: {p}")
    print("selftest:", "FAILED" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

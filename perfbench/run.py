"""Study-level benchmark of regtang.

    python3 perfbench/run.py --workload {departure,transition,cycle} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  It imports regtang from this checkout's
``src/`` (and exits with code 2 if that is missing), pins the BLAS pools to
one thread and drives regtang from this one process through its public API
and its CLI in-process with ``--workers 1``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
seconds at the reference speed of ``calibrate.py``: each timed region runs
under a sampler that times a fixed kernel, which takes out the drift in
machine speed that a shared host shows from minute to minute.  The raw
seconds are kept in the results file under ``perfbench/results/``.

* ``setup_s``: median over SETUP_SAMPLES fresh interpreters of the time from
  process start until the workload's first case is ready (importing regtang,
  building the systems, profiles, configs, references and the oval);
* ``wall_s``: median time of one pass over the case list.  Passes repeat
  closed loop while another pass still fits in ``--seconds`` (at least one);
* ``small_eps_s``: median per pass of the summed time of the smallest-eps
  cases, the cost of pushing eps down;
* ``peak_rss_mb``: peak resident memory of this process (getrusage);
* ``passed_frac``: cases that ran and passed their correctness check, over
  cases attempted.

``--trace 1`` runs one untraced pass and two traced passes (independent of
``--seconds``), checks that the traced passes give identical work counts and
reports the per-layer metrics: counts and raw seconds per pass from the spans
of ``tracing.Tracer``, the L0 probes, and the tracing overhead (from the
passes' reference-speed times).  Spans are written to ``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the environment stamp.  ``--smoke`` runs only the largest-eps cases (for
``selftest.py``).
"""

import os

# BLAS pools pinned to one thread; must happen before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("departure", "transition", "cycle")
SETUP_SAMPLES = 3
TRACED_PASSES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run only the largest-eps cases of the workload")
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit (timed by the parent)")
    return ap.parse_args(argv)


def git_commit():
    """HEAD of this checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "git_commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "cli_workers": 1,
    }


def metric_units():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure_setup(args):
    """Median time from spawning a fresh interpreter until it has set up, at
    the reference speed the child measured while setting up; and the raw times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, at_ref = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: " + proc.stderr)
        at_ref.append(raw[-1] * calibrate.REF_KERNEL_S / float(proc.stdout.split()[-1]))
    return statistics.median(at_ref), raw


def fails_of(passes):
    attempted = sum(len(p.cases) for p in passes)
    failed = [c for p in passes for c in p.cases if c.failures]
    return attempted, failed


def timed_pass(args, wl, ctx):
    """One pass; its raw seconds and its seconds at the reference speed."""
    with calibrate.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        res = wl.run_pass(args.workload, ctx, smoke=args.smoke)
        raw = time.perf_counter() - t0
    return res, raw, sampler.at_ref_speed(raw, t0), sampler


def run_untraced(args, wl, ctx, setup_s):
    raw_walls, walls, small, passes = [], [], [], []
    t_start = time.perf_counter()
    while True:
        res, raw, wall, sampler = timed_pass(args, wl, ctx)
        raw_walls.append(raw)
        walls.append(wall)
        small.append(sum(sampler.at_ref_speed(c.seconds, c.start)
                         for c in res.cases if c.small_eps))
        passes.append(res)
        if time.perf_counter() - t_start + max(raw_walls) > args.seconds:
            break
    attempted, failed = fails_of(passes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "small_eps_s": statistics.median(small),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_frac": (attempted - len(failed)) / attempted,
    }
    detail = {"raw_pass_seconds": raw_walls, "pass_seconds": walls,
              "small_eps_seconds": small}
    return metrics, passes, detail, []


def run_traced(args, wl, ctx, units):
    import tracing

    res, _, untraced_s, _ = timed_pass(args, wl, ctx)
    passes, traced_s, per_pass = [res], [], []
    for i in range(TRACED_PASSES):
        with tracing.Tracer() as tracer:
            res, _, seconds, _ = timed_pass(args, wl, ctx)
        traced_s.append(seconds)
        passes.append(res)
        per_pass.append(tracer.layer_metrics(res.cli_bytes_out))
        name = f"spans-{args.workload}-seed{args.seed}-pass{i + 1}.json"
        with open(os.path.join(RESULTS, name), "w") as fh:
            json.dump(tracer.span_dicts(), fh)

    # counts repeat exactly; seconds are medians over the traced passes
    first = per_pass[0]
    count_keys = [k for k in first if units.get(k) in ("count", "bytes")]
    problems = [f"traced passes differ in {k}: {[m[k] for m in per_pass]}"
                for k in count_keys if any(m[k] != first[k] for m in per_pass)]
    metrics = {k: (v if k in count_keys else statistics.median(m[k] for m in per_pass))
               for k, v in first.items()}
    for kind in tracing.LEG_KINDS:
        metrics[f"integrate.fev_per_step.{kind}"] = tracing.fev_per_step(first, kind)
    metrics.update(tracing.probe_l0(wl.probe_objects(args.workload, ctx)))
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / untraced_s - 1.0
    detail = {"untraced_pass_seconds": untraced_s, "traced_pass_seconds": traced_s}
    return metrics, passes, detail, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regtang", "__init__.py")):
        print(f"perfbench: no regtang sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        with calibrate.SpeedSampler() as sampler:
            import workloads as wl
            wl.setup(args.workload, wl.make_inputs(args.seed), RESULTS)
        print(sampler.mean_kernel_s())
        return 0

    e2e_units, layer_units = metric_units()
    os.makedirs(RESULTS, exist_ok=True)
    setup_s, setup_raw = measure_setup(args) if not args.trace else (None, None)
    import workloads as wl
    inputs = wl.make_inputs(args.seed)
    ctx = wl.setup(args.workload, inputs, RESULTS)

    if args.trace:
        metrics, passes, detail, problems = run_traced(args, wl, ctx, layer_units)
        units = layer_units
    else:
        metrics, passes, detail, problems = run_untraced(args, wl, ctx, setup_s)
        units = e2e_units
    attempted, failed = fails_of(passes)
    missing = sorted(set(units) - set(metrics))
    problems += [f"metric {name} was not measured" for name in missing]

    stamp = env_stamp(args)
    record = {"env": stamp, "inputs": repr(inputs), "raw_setup_seconds": setup_raw, **detail,
              "cases": [[c.__dict__ for c in p.cases] for p in passes],
              "metrics": metrics, "problems": problems}
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for c in failed:
        print(f"FAIL {c.name}: {'; '.join(c.failures)}")
    for p in problems:
        print(f"PROBLEM {p}")
    for name in units:
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({"env": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run a fixed set of ``regtang`` CLI invocations and keep every file they write.

    PYTHONPATH=src python tools/identity_set.py OUTDIR

Each case runs in this process with ``--workers 1`` and ``--out OUTDIR/<name>``;
what it prints (the summary, or the JSON error of a bad run) goes to
``OUTDIR/<name>/stdout.txt``, and the solver work of its legs to
``OUTDIR/<name>/work.json``: the number of legs (calls of ``flow`` and
``flow_to_section_traj``) and, over the legs that return, the sums of their
solver runs' (``Trajectory.segment``) nfev, njev, nlu and accepted steps,
counted as ``perfbench/tracing.py``'s ``segment_counts`` counts them.  Run it on two
checkouts and compare them with ``diff -r OUTDIR_A OUTDIR_B``: a change that
keeps every float and every step leaves no difference.  Each case's wall
seconds go to standard error, outside OUTDIR.  No byte depends on the
OpenBLAS kernel numpy picks for the CPU (``OPENBLAS_CORETYPE``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import pkgutil
import sys
import time

import regtang
from regtang import cli, integrate

CASES = {
    "scaling": ["scaling", "--eps-decades=-4:-2", "--points", "6"],
    # every band leg of it is stiff and runs Radau IIA; "scaling" runs Radau at
    # its two smallest eps only (1e-4 and 2.5e-4)
    "scaling-radau": ["scaling", "--eps-decades=-6:-4", "--points", "6"],
    "upper-map": ["upper-map", "--eps-decades=-3:-2", "--points", "3"],
    # its inflow orbits cross the roof down and back up within one step (three
    # such steps; "upper-map" has one), two sign changes on the scan's
    # sub-step grid.  No case of the set reaches the scan's turning-point test
    # (a dip between two grid points); only tests/test_integrate.py's
    # test_a_dip_between_grid_points_* do
    "upper-map-small-eps": ["upper-map", "--eps-decades=-5:-4", "--points", "3"],
    "lower-map": ["lower-map", "--eps-decades=-3:-2", "--points", "3"],
    "slow-manifold": ["slow-manifold", "--eps", "1e-3"],
    "chart": ["chart", "--k", "2", "--n", "3"],
    "cycle": ["cycle", "--scenario", "boundary-cycle", "--k", "2", "--phi-m", "5",
              "--eps-decades", "0.005:0.02", "--points", "3"],
    "simulate": ["simulate", "--eps", "0.01"],
    "simulate-cycle": ["simulate", "--scenario", "boundary-cycle", "--k", "2",
                       "--eps", "0.01", "--tmax", "8"],
}


def _count_legs(work: dict):
    """Wrap ``flow`` and ``flow_to_section_traj`` in every ``regtang`` module
    that binds them, so that each leg adds to ``work``."""
    def counted(fn):
        @functools.wraps(fn)
        def leg(*args, **kwargs):
            work["legs"] += 1
            out = fn(*args, **kwargs)
            seg = (out[1] if isinstance(out, tuple) else out).segment
            work["nfev"] += int(seg.nfev)
            work["njev"] += int(seg.njev)
            work["nlu"] += int(seg.nlu)
            work["steps"] += len(seg.t) - 1
            return out
        return leg

    modules = [regtang] + [importlib.import_module(f"regtang.{info.name}")
                           for info in pkgutil.iter_modules(regtang.__path__)
                           if not info.name.startswith("__")]
    for name in ("flow", "flow_to_section_traj"):
        fn = getattr(integrate, name)
        wrapped = counted(fn)
        for mod in modules:
            if getattr(mod, name, None) is fn:
                setattr(mod, name, wrapped)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1:
        print("usage: python tools/identity_set.py OUTDIR", file=sys.stderr)
        return 2
    work = {}  # the current case's counts
    _count_legs(work)
    failed = []
    for name, case in CASES.items():
        out = os.path.join(args[0], name)
        os.makedirs(out, exist_ok=True)
        work.update(legs=0, nfev=0, njev=0, nlu=0, steps=0)
        start = time.perf_counter()
        with open(os.path.join(out, "stdout.txt"), "w") as fh, \
                contextlib.redirect_stdout(fh):
            code = cli.main([*case, "--workers", "1", "--out", out])
        print(f"{name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
        with open(os.path.join(out, "work.json"), "w") as fh:
            json.dump(work, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{name}: exit {code}")
        if code:
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

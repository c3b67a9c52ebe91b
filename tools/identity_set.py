"""Run a fixed set of ``regtang`` CLI invocations and keep every file they write.

    PYTHONPATH=src python tools/identity_set.py OUTDIR

Each case runs in this process with ``--workers 1`` and ``--out OUTDIR/<name>``;
what it prints (the summary, or the JSON error of a bad run) goes to
``OUTDIR/<name>/stdout.txt``.  Run it on two checkouts and compare them with
``diff -r OUTDIR_A OUTDIR_B``: a change that keeps every float leaves no
difference.  Each case's wall seconds go to standard error, outside OUTDIR.
Only the fits of ``maps.fit_line`` (the ``fit`` and
``contraction_fit`` fields) depend on the OpenBLAS kernel numpy picks for the
CPU, through ``lstsq``; compare those from one machine.  Every other byte is
the same under every kernel (``OPENBLAS_CORETYPE``).
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

from regtang import cli

CASES = {
    "scaling": ["scaling", "--eps-decades=-4:-2", "--points", "6"],
    # its smaller-eps band legs are stiff and run Radau IIA; no other case runs it
    "scaling-radau": ["scaling", "--eps-decades=-6:-4", "--points", "6"],
    "upper-map": ["upper-map", "--eps-decades=-3:-2", "--points", "3"],
    # its inflow orbits dip below the roof within one step and between two
    # grid points of the crossing scan; no other case has such a dip
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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1:
        print("usage: python tools/identity_set.py OUTDIR", file=sys.stderr)
        return 2
    failed = []
    for name, case in CASES.items():
        out = os.path.join(args[0], name)
        os.makedirs(out, exist_ok=True)
        start = time.perf_counter()
        with open(os.path.join(out, "stdout.txt"), "w") as fh, \
                contextlib.redirect_stdout(fh):
            code = cli.main([*case, "--workers", "1", "--out", out])
        print(f"{name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
        print(f"{name}: exit {code}")
        if code:
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

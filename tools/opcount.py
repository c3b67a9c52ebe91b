"""Count the bytecodes one benchmark pass executes, in generated code and elsewhere.

    python tools/opcount.py WORKLOAD [--seed S] [--smoke]

It sets up WORKLOAD of this checkout's ``perfbench/workloads.py`` from seed S
(default 0), with regtang imported from the checkout's ``src/``, runs one
pass as a warm-up, which generates every kernel the pass needs, and then one
pass under ``sys.settrace`` with opcode events.  It prints one JSON object:
the bytecodes executed in frames of generated code (``kernel``: the file
name ``<regtang kernel ...>`` of ``polys.cached_kernel``, the fields'
kernels and the steppers' loops), those executed in all other Python
frames (``other``), the number of distinct generated functions the traced
pass ran (``kernels``, told apart by their file names) and the traced
pass's failed cases (``failed``).  The counts are the same on every run of one checkout,
however busy the machine is.  ``--smoke`` runs the workload's smoke passes
(its largest-eps cases only).  The ``cycle`` workload's CLI runs write into
a temporary directory, and no file is written under ``perfbench/``,
bytecode caches included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL_FILE = "<regtang kernel "


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=("departure", "transition", "cycle"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    return ap.parse_args(argv)


def traced_pass(run) -> dict:
    """Run ``run()`` under opcode tracing; the bytecodes it executed in
    generated frames and in all others, and how many generated functions
    ran."""
    counts, kernels = [0, 0], set()

    def in_kernel(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return in_kernel

    def elsewhere(frame, event, arg):
        if event == "opcode":
            counts[1] += 1
        return elsewhere

    def on_call(frame, event, arg):
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        name = frame.f_code.co_filename
        if name.startswith(KERNEL_FILE):
            kernels.add(name)
            return in_kernel
        return elsewhere

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return {"kernel": counts[0], "other": counts[1], "kernels": len(kernels)}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads as wl

    with tempfile.TemporaryDirectory() as workdir:
        ctx = wl.setup(args.workload, wl.make_inputs(args.seed), workdir)
        wl.run_pass(args.workload, ctx, smoke=args.smoke)
        passes = []
        counts = traced_pass(lambda: passes.append(wl.run_pass(args.workload, ctx, args.smoke)))
    failed = sum(bool(case.failures) for case in passes[0].cases)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                      "failed": failed, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

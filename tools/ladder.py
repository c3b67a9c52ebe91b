"""Run one departure leg on each stepper down a tolerance ladder.

    PYTHONPATH=src python tools/ladder.py --k K --n N --eps EPS

The leg is ``find_x_epsilon`` of ``canonical_system(K)`` with
``TransitionConfig(K, N, lam=0.999 * lambda_star(K, N))``, as in the
benchmark's departure workload: one band leg from the slow set at x = -L up
to yhat = 1.  Each stepper is forced by setting
``integrate.STIFF_RATIO`` in this process, 0 for Radau IIA and ``math.inf``
for DOP853, and runs at each rtol of RTOLS, with atol = rtol / 100 and
event_tol = min(rtol, 1e-12).  The first rung is the default tolerance.

It prints one JSON object:

* ``start_ratio``: the leg's time-scale ratio |d yhat'/d yhat| / eps at the
  start point of the leg that ran, the number ``integrate._stepper`` compares
  with ``STIFF_RATIO``;
* ``stepper``: the stepper ``integrate._stepper`` picks for that leg unforced
  (``radau`` or ``dop853``);
* ``converged``: the mean of both steppers' finest rungs, and ``spread``, the
  range of the four values at the two finest rtols of both steppers,
  relative to it;
* per stepper, per rtol, x_eps and its relative distance from ``converged``;
* per stepper at the default tolerance, the leg's nfev, njev, nlu and
  accepted steps, and its best wall time of TIMED_RUNS in milliseconds.

Those default-tolerance counts of both steppers, over legs whose start ratios
straddle ``STIFF_RATIO``, are the evidence for where it sits.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from regtang import IntegratorConfig, TransitionConfig, find_x_epsilon, integrate, maps
from regtang.maps import lambda_star
from regtang.scenarios import canonical_system

RTOLS = (1e-10, 1e-11, 1e-12, 1e-13)
FORCED = {"radau": 0.0, "dop853": math.inf}  # STIFF_RATIO that forces each stepper
TIMED_RUNS = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--eps", type=float, required=True)
    return ap.parse_args(argv)


def leg(system, config, eps):
    """x_eps of the departure leg, its field, its start point and its solver
    run's ``Segment``."""
    runs = []
    inner = maps.flow_to_section_traj

    def recording(field, p0, *args, **kwargs):
        hit, traj = inner(field, p0, *args, **kwargs)
        runs.append((field, list(p0), traj.segment))
        return hit, traj

    maps.flow_to_section_traj = recording
    try:
        x = find_x_epsilon(system, config, eps)
    finally:
        maps.flow_to_section_traj = inner
    (run,) = runs
    return (x,) + run


def ladder(k: int, n: int, eps: float) -> dict:
    system = canonical_system(k)
    lam = 0.999 * lambda_star(k, n)

    def config(rtol):
        integ = IntegratorConfig(rtol=rtol, atol=rtol / 100, event_tol=min(rtol, 1e-12))
        return TransitionConfig(k, n, lam=lam, integ=integ)

    cfg = config(RTOLS[0])
    _, field, p0, _ = leg(system, cfg, eps)
    unforced = integrate._stepper(field, p0)
    out = {"k": k, "n": n, "eps": eps,
           "start_ratio": abs(field.jacobian(*p0)[1][1]) / eps,
           "stepper": "dop853" if unforced is integrate._dop853 else "radau",
           "STIFF_RATIO": integrate.STIFF_RATIO, "rtols": list(RTOLS)}
    rungs, default = {}, {}
    saved = integrate.STIFF_RATIO
    try:
        for name, forced in FORCED.items():
            integrate.STIFF_RATIO = forced
            rungs[name] = [leg(system, config(rtol), eps)[0] for rtol in RTOLS]
            times = []
            for _ in range(TIMED_RUNS):
                t0 = time.perf_counter()
                seg = leg(system, cfg, eps)[-1]
                times.append(time.perf_counter() - t0)
            default[name] = {"nfev": int(seg.nfev), "njev": int(seg.njev), "nlu": int(seg.nlu),
                             "steps": len(seg.t) - 1, "ms": 1e3 * min(times)}
    finally:
        integrate.STIFF_RATIO = saved
    converged = statistics.fmean(xs[-1] for xs in rungs.values())
    finest = [x for xs in rungs.values() for x in xs[-2:]]
    out["converged"] = converged
    out["spread"] = (max(finest) - min(finest)) / abs(converged)
    for name, xs in rungs.items():
        out[name] = {"x": xs, "rel_dist": [abs(x / converged - 1.0) for x in xs],
                     "default": default[name]}
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    print(json.dumps(ladder(args.k, args.n, args.eps), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``references.json``: converged departure abscissas for the
``departure`` workload, with the evidence that they converged.

Every grid point of DEPARTURE_GRIDS is computed at the nominal eps and at the
grid shifted by -J and +J decades (J = EPS_JITTER_DECADES), so that the check
can interpolate log x_eps quadratically for any seed's shift.  Each value is
computed twice:

* ``find_x_epsilon`` with DOP853 at rtol 1e-13, atol 1e-15 (the stored value);
* scipy's Radau on the same band leg, from the same start on the slow set, to
  the first upward crossing of yhat = 1, at rtol 1e-13, atol 1e-15.

The file also records how far default-tolerance DOP853 (what the workload
runs) lands from the stored values at the nominal grid, and how well the
interpolation reproduces a direct computation at the shift +J/2.

Run from the repository root:  python3 perfbench/make_references.py
(about five minutes on one core).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from scipy.integrate import solve_ivp  # noqa: E402

from regtang import IntegratorConfig, maps  # noqa: E402
from regtang.regularize import BandField, SlowManifold  # noqa: E402
from regtang.scenarios import canonical_system  # noqa: E402

import workloads as wl  # noqa: E402

TIGHT = IntegratorConfig(rtol=1e-13, atol=1e-15, event_tol=1e-13)


def x_dop853(system, k, n, eps):
    return maps.find_x_epsilon(system, wl.departure_config(k, n, TIGHT), eps)


def x_radau(system, k, n, eps):
    cfg = wl.departure_config(k, n)
    cfg.check_eps(eps)
    band = BandField(system, cfg.tf, eps)
    p0 = (-cfg.L, SlowManifold(system, cfg.tf).m0(-cfg.L))
    t_end = 40.0 * (cfg.L + cfg.theta + 1.0) / eps + 1000.0

    def exit_(t, p):
        return p[1] - 1.0
    exit_.terminal = True
    exit_.direction = 1.0

    sol = solve_ivp(lambda t, p: band.eval(p[0], p[1]), (0.0, t_end), p0,
                    method="Radau", rtol=1e-13, atol=1e-15, events=[exit_])
    if not len(sol.t_events[0]):
        raise RuntimeError(f"Radau leg never left the layer at eps={eps:g}")
    return float(sol.y_events[0][0][0])


def main() -> int:
    J = wl.EPS_JITTER_DECADES
    shifts = [-J, 0.0, J]
    out = {"method": {
        "stored": "find_x_epsilon, DOP853, rtol 1e-13, atol 1e-15, event_tol 1e-13",
        "cross_check": "scipy Radau on the band leg, rtol 1e-13, atol 1e-15, "
                       "terminal event yhat = 1 upward",
        "interpolation": "quadratic in the shift (decades) of log x, through shifts",
    }, "pairs": {}}
    worst_radau = worst_seed = worst_interp = 0.0
    for (k, n) in wl.DEPARTURE_GRIDS:
        system = canonical_system(k=k)
        rows = [[None] * len(shifts) for _ in wl.nominal_departure_eps(k, n)]
        radau_dev = [[None] * len(shifts) for _ in rows]
        for j, s in enumerate(shifts):
            for i, eps in enumerate(wl.nominal_departure_eps(k, n, s)):
                t0 = time.perf_counter()
                xd = x_dop853(system, k, n, eps)
                xr = x_radau(system, k, n, eps)
                rows[i][j] = xd
                radau_dev[i][j] = abs(xr / xd - 1.0)
                worst_radau = max(worst_radau, radau_dev[i][j])
                print(f"({k},{n}) shift={s:+.4f} eps={eps:.6g} x={xd!r} "
                      f"radau_dev={radau_dev[i][j]:.2e} {time.perf_counter() - t0:.1f}s",
                      flush=True)
        ref = {"shifts": shifts, "x": rows, "radau_rel_dev": radau_dev}
        nominal = wl.nominal_departure_eps(k, n)
        default_cfg = wl.departure_config(k, n)
        seed_err = [abs(maps.find_x_epsilon(system, default_cfg, e) / rows[i][1] - 1.0)
                    for i, e in enumerate(nominal)]
        half = 0.5 * J
        interp_err = [abs(wl.reference_x(ref, i, half) / x_dop853(system, k, n, e) - 1.0)
                      for i, e in enumerate(wl.nominal_departure_eps(k, n, half))]
        worst_seed = max(worst_seed, max(seed_err))
        worst_interp = max(worst_interp, max(interp_err))
        ref.update({"log10_eps_nominal": [math.log10(e) for e in nominal],
                    "seed_rel_err": seed_err, "interp_rel_err_at_half_shift": interp_err})
        out["pairs"][f"{k},{n}"] = ref
    out["summary"] = {"max_radau_rel_dev": worst_radau,
                      "seed_max_rel_err": worst_seed,
                      "max_interp_rel_err": worst_interp}
    with open(wl.REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(json.dumps(out["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

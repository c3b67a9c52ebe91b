"""Command-line front end.

Subcommands
-----------
simulate      integrate the smoothed system; trajectory CSV with band-edge events
scaling       departure/fold abscissa scan over eps; CSV + power-law fit
upper-map     layer transition map from above; sweep CSV + contraction fit
lower-map     layer transition map from below; sweep CSV + contraction fit
slow-manifold slow-set expansion and proxy enclosure tables
chart         rescaled-model constants and equilibrium data
cycle         periodic-orbit location and diagnostics over an eps sweep
phi           polynomial transition-profile table and invariant report

``_COMMANDS`` is the one statement of the surface: each subcommand's parser
takes exactly the flags (``_FLAGS``) of the keys it reads, plus ``--out``,
``--workers`` and ``--config``.  Every invocation merges its configuration
(config file < flags), rejects non-finite numbers, echoes the given values in
a header block on each CSV, and produces one ``summary.json``; a value not
given keeps its default, which is stated once, in the library where the
library has one.  Every bad input exits 2 with a JSON error object.
With ``--out DIR`` the CSVs and the summary are written into DIR (created if
missing) and the summary is also printed; without it the CSVs go to stdout
ahead of the summary.  All floating output uses 17 significant digits and rows
are sorted by their sweep parameter, so identical flags give bitwise-identical
files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .blowup import EquatorialChart, departure_prefactor
from .cycles import cycle_analysis
from .errors import RegtangError
from .fields import FilippovSystem
from .integrate import IntegratorConfig, SectionSpec, flow
from .maps import (
    TransitionConfig,
    fit_line,
    fit_scaling,
    lower_transition_map,
    predicted_upper_boundary,
    upper_transition_map,
)
from .phi import TransitionFunction, order_profile, phi_bracket_exact, phi_family
from .regularize import (
    BandField,
    RegularizedField,
    SlowManifold,
    slow_manifold_sandwich_check,
)
from .scenarios import SCENARIOS, build_scenario, oval_polyline

F17 = "%.17g"  # every float written: 17 significant digits


# --------------------------------------------------------------------------
# configuration resolution
# --------------------------------------------------------------------------

# key: (flag, type, help).  A config file names a value by its key.
_FLAGS = {
    "scenario": ("--scenario", str, f"system, one of {sorted(SCENARIOS)}"),
    "k": ("--k", int, "contact order: X+ meets y = 0 with multiplicity 2k"),
    "alpha": ("--alpha", float, "leading coefficient of the canonical form"),
    "n": ("--n", int, "smoothness order of the transition function"),
    "phi_m": ("--phi-m", int, "use phi_m (default phi_{n-1})"),
    "m": ("--m", int, "index of phi_m"),
    "lam": ("--lambda", float, "inflow exponent, 0 < lambda < lambda*"),
    "rho": ("--rho", float, "inflow section x = -rho"),
    "theta": ("--theta", float, "outflow section x = theta"),
    "L": ("--L", float, "slow-manifold window [-L, 0)"),
    "eps": ("--eps", float, "smoothing width"),
    "eps_decades": ("--eps-decades", str, "log10 bounds lo:hi (or raw eps bounds)"),
    "points": ("--points", int, "grid points"),
    "x0": ("--x0", float, "initial x"),
    "y0": ("--y0", float, "initial y"),
    "tmax": ("--tmax", float, "final time"),
    "sigma": ("--sigma", float, "theta(0,0) of the upper field"),
    "sandwich_K": ("--sandwich-K", float, "constant for the lower-envelope check"),
    "workers": ("--workers", int, "worker processes for a sweep"),
    "out": ("--out", str, "output directory (CSVs + summary.json)"),
}
_EVERYWHERE = {"out", "workers"}   # --config too; see build_parser


def _load_config(path: str, command: str) -> List[Dict[str, str]]:
    """The [global] and the [command] sections of a config file."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_string(fh.read())
    except (OSError, configparser.Error) as exc:
        raise RegtangError(f"config file {path!r}: {exc}") from None
    return [{k.replace("-", "_"): v for k, v in cp.items(section)}
            if cp.has_section(section) else {}
            for section in ("global", command)]


def _resolve(args: argparse.Namespace) -> Dict[str, object]:
    """Merge the config file and the flags (flags win) and check the values.
    Keys in [global] are shared by all commands and tolerated where unread."""
    command = args.command
    cfg: Dict[str, object] = {}
    if args.config:
        shared, own = _load_config(args.config, command)
        for key, sval in {**shared, **own}.items():
            if key not in _FLAGS:
                raise RegtangError(f"unknown config key {key!r}")
            if key in own and key not in _COMMANDS[command][1] | _EVERYWHERE:
                raise RegtangError(
                    f"{command} does not take config key {key!r} (got {sval!r})")
            try:
                cfg[key] = _FLAGS[key][1](sval)
            except ValueError:
                raise RegtangError(f"config key {key!r} is not "
                                   f"{_FLAGS[key][1].__name__} (got {sval!r})") from None
    cfg.update((key, val) for key, val in vars(args).items()
               if key not in ("command", "config") and val is not None)
    for key, val in cfg.items():
        if _FLAGS[key][1] is float and not math.isfinite(val):
            raise RegtangError(f"{_FLAGS[key][0]} must be finite (got {val!r})")
    if "scenario" in cfg and cfg["scenario"] not in SCENARIOS:
        raise RegtangError(
            f"unknown scenario {cfg['scenario']!r}; available: {sorted(SCENARIOS)}"
        )
    for key in ("points", "workers"):
        if key in cfg and cfg[key] < 1:
            raise RegtangError(f"{key} must be at least 1 (got {cfg[key]})")
    return cfg


def _header(command: str, cfg: Dict[str, object]) -> str:
    lines = [f"# command = {command}"]
    for key in sorted(cfg):
        if key == "out":
            continue
        val = cfg[key]
        sval = F17 % val if isinstance(val, float) else str(val)
        lines.append(f"# {key} = {sval}")
    return "\n".join(lines) + "\n"


def _csv(command: str, cfg: Dict[str, object], cols: Sequence[str], numbers=(),
         rows: Sequence[Sequence] = ()) -> str:
    """One CSV file: the header block, the column names ``cols``, a line per
    row of ``numbers`` (2-D, every cell a number; a row shorter than ``cols``
    leaves its last cells empty), then a line per row of ``rows`` (each cell
    a number, a string, or None for an empty cell).  A single ``%`` operation
    formats every cell, so the block of numbers costs no Python per row."""
    numbers = np.asarray(numbers, dtype=float)
    width = numbers.shape[1] if numbers.ndim == 2 else 0
    line = ",".join([F17] * width + [""] * (len(cols) - width)) + "\n"
    template = line * len(numbers) + "".join(
        ",".join("" if v is None else "%s" if isinstance(v, str) else F17 for v in row) + "\n"
        for row in rows)
    cells = numbers.ravel().tolist() + [v for row in rows for v in row if v is not None]
    return _header(command, cfg) + ",".join(cols) + "\n" + template % tuple(cells)


def _finish(command: str, cfg: Dict[str, object],
            csvs: Dict[str, str], summary: Dict[str, object]) -> int:
    """Write the CSVs and the per-invocation summary.json, honoring --out."""
    payload = {
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items()) if k != "out"},
    }
    payload.update(summary)
    text = json.dumps(payload, sort_keys=True, indent=2)
    out = cfg.get("out")
    if out:
        os.makedirs(str(out), exist_ok=True)
        for name in sorted(csvs):
            with open(os.path.join(str(out), name), "w") as fh:
                fh.write(csvs[name])
        with open(os.path.join(str(out), "summary.json"), "w") as fh:
            fh.write(text + "\n")
    else:
        for name in sorted(csvs):
            sys.stdout.write(csvs[name])
    print(text)
    return 0


def _eps_grid(cfg: Dict[str, object], eps: Optional[float] = None) -> List[float]:
    """The --eps-decades grid if given, else the single --eps (default
    ``eps``); with neither and no default, the decades -6:-2."""
    if "eps_decades" not in cfg and ("eps" in cfg or eps is not None):
        return [float(cfg.get("eps", eps))]
    span = str(cfg.get("eps_decades", "-6:-2"))
    try:
        lo_s, hi_s = span.split(":")
        lo, hi = float(lo_s), float(hi_s)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
    except ValueError:
        raise RegtangError(
            f"--eps-decades must be lo:hi, got {span!r}"
        ) from None
    if lo > 0 and hi > 0:           # raw eps bounds given instead of decades
        lo, hi = math.log10(lo), math.log10(hi)
    pts = int(cfg.get("points", 9))
    return [float(e) for e in np.logspace(lo, hi, pts)]


def _given(cfg: Dict[str, object], *keys: str) -> Dict[str, object]:
    """The values of ``keys`` that were set: the rest keep the library's defaults."""
    return {key: cfg[key] for key in keys if key in cfg}


def _system(cfg: Dict[str, object], scenario: str = "canonical",
            keys: Sequence[str] = ("k", "alpha")) -> FilippovSystem:
    return build_scenario(str(cfg.get("scenario", scenario)), **_given(cfg, *keys))


def _order(cfg: Dict[str, object], system: FilippovSystem) -> int:
    """--n if given, else 2k, the contact order, on a system built from the
    grazing oval, time-reversed or not (k as the system was built), and 2
    elsewhere."""
    k = system.params["k"]
    return int(cfg.get("n", 2 * k if "oval" in system.params else 2))


def _tcfg(cfg: Dict[str, object], system: FilippovSystem) -> TransitionConfig:
    """The transition config of ``system``: its k, and n from ``_order``."""
    return TransitionConfig(k=system.params["k"], n=_order(cfg, system), tf=_phi_m(cfg),
                            **_given(cfg, "lam", "rho", "theta", "L"))


def _phi_m(cfg: Dict[str, object]) -> Optional[TransitionFunction]:
    """phi_m if --phi-m is given, else None."""
    return phi_family(int(cfg["phi_m"])) if "phi_m" in cfg else None


def _profile(cfg: Dict[str, object], system: FilippovSystem) -> TransitionFunction:
    """phi_m if given, else the profile of the order n from ``_order``."""
    return order_profile(_order(cfg, system), _phi_m(cfg))


def _sweep(worker, cfg: Dict[str, object], eps_values: List[float], *args) -> list:
    """The rows ``worker((cfg, *args, eps))`` sorted by eps, computed on
    --workers processes (default one per eps, up to the CPU count)."""
    jobs = [(cfg, *args, eps) for eps in eps_values]
    workers = min(int(cfg.get("workers", os.cpu_count() or 1)), len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(worker, jobs))
    else:
        rows = [worker(j) for j in jobs]
    return sorted(rows, key=lambda r: r["eps"])


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------

def _cmd_phi(cfg: Dict[str, object]) -> int:
    m = int(cfg.get("m", cfg.get("phi_m", 1)))
    tf = phi_family(m)
    coeffs = tf.phi_poly.coeffs
    interior = np.linspace(-1.0, 1.0, 2001)[1:-1]
    invariants = {
        "phi_at_1": str(tf.deriv_exact(0, 1)),
        "phi_at_minus_1": str(tf.deriv_exact(0, -1)),
        "derivatives_at_1": {str(i): str(tf.deriv_exact(i, 1))
                             for i in range(1, m + 2)},
        "first_nonvanishing_order": m + 1,
        "bracket_constant": str(phi_bracket_exact(tf, m + 1)),
        "phi_prime_positive_on_interior": bool(
            all(tf.deriv(1, float(s)) > 0.0 for s in interior)
        ),
        "leading_coefficient": str(Fraction(coeffs[-1])),
    }
    return _finish("phi", cfg, {}, {
        "m": m,
        "degree": len(coeffs) - 1,
        "coefficients": [str(Fraction(c)) for c in coeffs[1:]],
        "coefficients_float": [float(c) for c in coeffs[1:]],
        "note": "coefficients of x^1 .. x^degree (even terms vanish)",
        "invariants": invariants,
    })


def _cmd_chart(cfg: Dict[str, object]) -> int:
    k = int(cfg.get("k", 1))
    n = int(cfg.get("n", 2))
    alpha = _given(cfg, "alpha")
    pre = departure_prefactor(k, n, theta00=float(cfg.get("sigma", 0.0)), **alpha)
    chart = EquatorialChart(k=k, n=n, **alpha)
    return _finish("chart", cfg, {}, {
        "k": k, "n": n,
        "sigma": pre["sigma"],
        "u_star": pre["u_star"],
        "c_x": pre["c_x"],
        "eta": pre["eta"],
        "lambda_star": pre["lambda_star"],
        "x1_star": chart.x1_star,
        "lambda1": chart.lambda1,
    })


def _scaling_row(packed) -> dict:
    cfg, eps = packed
    system = _system(cfg)
    tcfg = _tcfg(cfg, system)
    from .maps import find_x_epsilon, tangency_curve_psi
    return {
        "eps": eps,
        "x_eps": find_x_epsilon(system, tcfg, eps),
        "psi_eps": tangency_curve_psi(system, tcfg, eps),
    }


def _cmd_scaling(cfg: Dict[str, object]) -> int:
    rows = _sweep(_scaling_row, cfg, _eps_grid(cfg))
    tcfg = _tcfg(cfg, _system(cfg))
    fit = fit_scaling([r["eps"] for r in rows], [r["x_eps"] for r in rows],
                      predicted_slope=tcfg.lambda_star)
    cols = ("eps", "x_eps", "psi_eps")
    body = _csv("scaling", cfg, cols, [[r[c] for c in cols] for r in rows])
    return _finish("scaling", cfg, {"scaling.csv": body},
                   {"fit": fit.as_dict(), "rows": rows})


def _map_sweep_row(packed) -> dict:
    cfg, side, eps = packed
    system = _system(cfg)
    tcfg = _tcfg(cfg, system)
    pts = int(cfg.get("points", 9))
    if side == "upper":
        y_hi = predicted_upper_boundary(system, tcfg, eps)
        grid = np.linspace(eps, y_hi, pts)
        mapper = upper_transition_map
    else:
        grid = np.linspace(-2.0 * eps, 0.95 * eps, pts)
        mapper = lower_transition_map
    pairs = []
    for y_in in grid:
        res = mapper(system, tcfg, eps, float(y_in))
        pairs.append((float(y_in), float(res.y_out)))
    outs = [p[1] for p in pairs]
    return {
        "eps": float(eps),
        "pairs": sorted(pairs),
        "input_length": float(grid[-1] - grid[0]),
        "image_diameter": float(max(outs) - min(outs)),
    }


def _cmd_map(cfg: Dict[str, object], side: str) -> int:
    rows = _sweep(_map_sweep_row, cfg, _eps_grid(cfg, 1e-3), side)
    body = _csv(f"{side}-map", cfg, ("eps", "y_in", "y_out"),
                [(r["eps"], *pair) for r in rows for pair in r["pairs"]])
    contraction = [{k: r[k] for k in ("eps", "input_length", "image_diameter")}
                   for r in rows]
    summary: Dict[str, object] = {"contraction": contraction}
    if len(rows) >= 3:
        # image diameter ~ exp(-c / eps^q): log-diameter affine in eps^{-q}
        tcfg = _tcfg(cfg, _system(cfg))
        q = 1.0 - tcfg.lam / tcfg.lambda_star
        slope, intercept, r2 = fit_line(
            np.array([r["eps"] ** (-q) for r in rows]),
            np.array([math.log(r["image_diameter"]) for r in rows]))
        summary["contraction_fit"] = {
            "q": q, "slope": slope, "intercept": intercept, "r2": r2,
        }
    return _finish(f"{side}-map", cfg, {f"{side}-map.csv": body}, summary)


def _cmd_slow_manifold(cfg: Dict[str, object]) -> int:
    system = _system(cfg)
    tcfg = _tcfg(cfg, system)
    manifold = SlowManifold(system, tcfg.tf)
    pts = int(cfg.get("points", 50))
    L = cfg.get("L", tcfg.L)   # as given: TransitionConfig raises L to rho for the maps
    xs = np.linspace(-L, -L / pts, pts)
    csvs = {"slow-manifold.csv": _csv("slow-manifold", cfg, ("x", "m0", "m1"), [
        (x, manifold.m0(x), manifold.m1(x)) for x in xs.tolist()])}
    band = BandField(system, tcfg.tf, float(cfg.get("eps", 1e-4)))
    report = slow_manifold_sandwich_check(
        band, tcfg.k, tcfg.n, L, tcfg.lam,
        float(cfg.get("sandwich_K", 0.0)), grid_points=pts)
    csvs["sandwich.csv"] = _csv(
        "slow-manifold", cfg, ("x", "m0", "m1", "m_proxy", "lower_bound"),
        np.column_stack((report.x, report.m0, report.m1, report.proxy, report.lower)))
    return _finish("slow-manifold", cfg, csvs, {"sandwich": {
        "eps": report.eps,
        "lam": report.lam,
        "exponent": report.exponent,
        "K": report.K,
        "K_min": report.K_min,
        "holds_with_K": report.all_hold,
        "upper_bound_holds": report.upper_all_hold,
    }})


def _cmd_simulate(cfg: Dict[str, object]) -> int:
    system = _system(cfg)
    eps = float(cfg.get("eps", 1e-2))
    reg = RegularizedField(system, _profile(cfg, system), eps)
    p0 = (float(cfg.get("x0", 0.0)), float(cfg.get("y0", 2.0)))
    tmax = float(cfg.get("tmax", 10.0))
    sections = [SectionSpec("horizontal", eps, ident="band-roof"),
                SectionSpec("horizontal", -eps, ident="band-floor")]
    traj = flow(reg, p0, (0.0, tmax), IntegratorConfig(), sections=sections)
    # one row per accepted step, then one per event, with its section id
    body = _csv("simulate", cfg, ("t", "x", "y", "event"), np.column_stack((traj.t, traj.points)),
                [(ev.t, *ev.point, ev.section_id) for ev in traj.events])
    events = [{"t": float(ev.t), "x": float(ev.point[0]),
               "y": float(ev.point[1]), "section": ev.section_id,
               "direction": ev.direction} for ev in traj.events]
    return _finish("simulate", cfg, {"simulate.csv": body},
                   {"steps": len(traj), "t_end": traj.t_end, "events": events})


def _cycle_row(packed) -> dict:
    cfg, reference, eps = packed
    system = _system(cfg, "boundary-cycle", ("k",))
    info = cycle_analysis(system, _profile(cfg, system), float(eps),
                          reference=reference, **_given(cfg, "rho"))
    row = info.as_dict()
    if cfg.get("out") and info.polyline is not None:
        row["polyline"] = info.polyline
    return row


def _cmd_cycle(cfg: Dict[str, object]) -> int:
    system = _system(cfg, "boundary-cycle", ("k",))
    # the oval as reference polyline, built once and sent to every row
    reference = oval_polyline(system.params["k"]) \
        if system.params["kind"] == "boundary-cycle" else None
    rows = _sweep(_cycle_row, cfg, _eps_grid(cfg, 1e-2), reference)
    cols = ("eps", "fixed_point", "period", "multiplier", "log_multiplier",
            "multiplier_arc", "hausdorff", "hausdorff_over_eps")
    csvs = {"cycle.csv": _csv("cycle", cfg, cols, rows=[[r.get(c) for c in cols]
                                                         for r in rows])}
    for j, r in enumerate(rows):
        poly = r.pop("polyline", None)
        if poly is not None:
            csvs[f"cycle-polyline-{j}.csv"] = _csv("cycle", cfg, ("x", "y"), poly)
    summary: Dict[str, object] = {"rows": rows}
    ratios = [r["hausdorff_over_eps"] for r in rows
              if r.get("hausdorff_over_eps") is not None]
    if len(ratios) >= 2:
        summary["hausdorff_over_eps_spread"] = max(ratios) / min(ratios)
    return _finish("cycle", cfg, csvs, summary)


# --------------------------------------------------------------------------
# the command table and argument parsing
# --------------------------------------------------------------------------

_SYSTEM = {"scenario", "k", "alpha"}                      # _system
_TCFG = {"k", "n", "phi_m", "lam", "rho", "theta", "L"}   # _tcfg
_GRID = {"eps", "eps_decades", "points"}                  # _eps_grid
# subcommand: (handler, the keys it reads).  Its parser takes exactly these
# flags plus --out, --workers and --config.
_COMMANDS = {
    "simulate": (_cmd_simulate, _SYSTEM | {"eps", "n", "phi_m", "x0", "y0", "tmax"}),
    "scaling": (_cmd_scaling, _SYSTEM | _TCFG | _GRID),
    "upper-map": (functools.partial(_cmd_map, side="upper"), _SYSTEM | _TCFG | _GRID),
    "lower-map": (functools.partial(_cmd_map, side="lower"), _SYSTEM | _TCFG | _GRID),
    "slow-manifold": (_cmd_slow_manifold,
                      _SYSTEM | _TCFG | {"eps", "points", "sandwich_K"}),
    "chart": (_cmd_chart, {"k", "n", "alpha", "sigma"}),
    "cycle": (_cmd_cycle, _GRID | {"scenario", "k", "n", "phi_m", "rho"}),
    "phi": (_cmd_phi, {"m", "phi_m"}),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ``RegtangError``s, so that they take
    the JSON error path with exit code 2 like every other bad input."""

    def error(self, message):
        raise RegtangError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="regtang",
        description="Transition maps and cycles of smoothed two-zone planar flows",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, reads) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="config file with [global] and [command] sections")
        for key, (flag, typ, text) in _FLAGS.items():
            if key in reads | _EVERYWHERE:
                sp.add_argument(flag, type=typ, dest=key, help=text)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise RegtangError(f"{args.command} does not take {' '.join(extra)}")
        return _COMMANDS[args.command][0](_resolve(args))
    except RegtangError as exc:
        print(json.dumps({
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())

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

Every invocation resolves its configuration (defaults < config file < flags),
echoes it in a header block on each CSV, and produces one ``summary.json``.
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
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .blowup import EquatorialChart, departure_prefactor
from .cycles import cycle_analysis, polyline_to_csv
from .errors import RegtangError
from .fields import FilippovSystem
from .integrate import IntegratorConfig, SectionSpec, flow, trajectory_to_csv
from .maps import (
    TransitionConfig,
    fit_line,
    fit_scaling,
    lower_transition_map,
    predicted_upper_boundary,
    upper_transition_map,
)
from .phi import phi_bracket_exact, phi_family
from .regularize import (
    BandField,
    RegularizedField,
    SlowManifold,
    manifold_table_csv,
    slow_manifold_sandwich_check,
)
from .scenarios import SCENARIOS, build_scenario, oval_polyline

F17 = "{:.17g}"


def _f(v: float) -> str:
    return F17.format(float(v))


# --------------------------------------------------------------------------
# configuration resolution
# --------------------------------------------------------------------------

_TYPES = {
    "k": int, "n": int, "alpha": float, "phi_m": int, "m": int,
    "eps": float, "eps_decades": str, "points": int, "rho": float,
    "theta": float, "lam": float, "scenario": str, "out": str,
    "x0": float, "y0": float, "tmax": float, "L": float, "workers": int,
    "sigma": float, "sandwich_K": float,
}


# The keys each subcommand reads.  Any other flag, or key in the command's
# own config-file section, is an error; keys in [global] are shared by all
# commands and stay tolerated.  --out, --workers and --config go everywhere.
_SYSTEM_KEYS = {"scenario", "k", "alpha"}                      # _system
_TCFG_KEYS = {"k", "n", "phi_m", "lam", "rho", "theta", "L"}   # _tcfg
_GRID_KEYS = {"eps", "eps_decades", "points"}                  # _eps_grid
_READS = {
    "phi": {"m", "phi_m"},
    "chart": {"k", "n", "alpha", "sigma"},
    "scaling": _SYSTEM_KEYS | _TCFG_KEYS | _GRID_KEYS,
    "upper-map": _SYSTEM_KEYS | _TCFG_KEYS | _GRID_KEYS,
    "lower-map": _SYSTEM_KEYS | _TCFG_KEYS | _GRID_KEYS,
    "slow-manifold": _SYSTEM_KEYS | _TCFG_KEYS | {"eps", "points", "sandwich_K"},
    "simulate": _SYSTEM_KEYS | {"eps", "n", "phi_m", "x0", "y0", "tmax"},
    "cycle": _GRID_KEYS | {"scenario", "k", "n", "phi_m", "rho"},
}
_EVERYWHERE = {"out", "workers"}


def _load_config(path: str, command: str) -> List[Dict[str, str]]:
    """The [global] and the [command] sections of a config file."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_string(fh.read())
    return [{k.replace("-", "_"): v for k, v in cp.items(section)}
            if cp.has_section(section) else {}
            for section in ("global", command)]


def _ignored(command: str, what: str, val) -> RegtangError:
    return RegtangError(f"{command} does not use {what} (got {val!r})")


def _resolve(args: argparse.Namespace, command: str) -> Dict[str, object]:
    """Merge defaults, config file, and flags (flags win)."""
    reads = _READS[command] | _EVERYWHERE
    cfg: Dict[str, object] = {}
    if getattr(args, "config", None):
        shared, own = _load_config(args.config, command)
        for key, sval in {**shared, **own}.items():
            if key not in _TYPES:
                raise RegtangError(f"unknown config key {key!r}")
            if key in own and key not in reads:
                raise _ignored(command, f"config key {key!r}", sval)
            cfg[key] = _TYPES[key](sval)
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        if key not in reads:
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            raise _ignored(command, flag, val)
        cfg[key] = val
    if "scenario" in cfg and cfg["scenario"] not in SCENARIOS:
        raise RegtangError(
            f"unknown scenario {cfg['scenario']!r}; available: {sorted(SCENARIOS)}"
        )
    if "points" in cfg and cfg["points"] < 1:
        raise RegtangError(f"points must be at least 1 (got {cfg['points']})")
    return cfg


def _header(command: str, cfg: Dict[str, object]) -> str:
    lines = [f"# command = {command}"]
    for key in sorted(cfg):
        if key == "out":
            continue
        val = cfg[key]
        sval = _f(val) if isinstance(val, float) else str(val)
        lines.append(f"# {key} = {sval}")
    return "\n".join(lines) + "\n"


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


def _eps_grid(cfg: Dict[str, object], default: Optional[str] = "-6:-2") -> List[float]:
    """eps values: the single --eps if given, else the --eps-decades grid."""
    if "eps" in cfg and "eps_decades" not in cfg:
        return [float(cfg["eps"])]
    span = str(cfg.get("eps_decades", default))
    try:
        lo_s, hi_s = span.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise RegtangError(
            f"--eps-decades must be lo:hi, got {span!r}"
        ) from None
    if lo > 0 and hi > 0:           # raw eps bounds given instead of decades
        lo, hi = math.log10(lo), math.log10(hi)
    pts = int(cfg.get("points", 9))
    return [float(e) for e in np.logspace(lo, hi, pts)]


def _tcfg(cfg: Dict[str, object]) -> TransitionConfig:
    return TransitionConfig(
        k=int(cfg.get("k", 1)),
        n=int(cfg.get("n", 2)),
        tf=phi_family(int(cfg["phi_m"])) if "phi_m" in cfg else None,
        lam=cfg.get("lam"),
        rho=float(cfg.get("rho", 0.3)),
        theta=float(cfg.get("theta", 0.3)),
        L=float(cfg.get("L", 0.3)),
    )


def _system(cfg: Dict[str, object]) -> FilippovSystem:
    name = str(cfg.get("scenario", "canonical"))
    return build_scenario(name, k=cfg.get("k", 1 if name == "canonical" else 2),
                          alpha=cfg.get("alpha", 1.0))


def _workers(cfg: Dict[str, object], njobs: int) -> int:
    return int(cfg.get("workers", min(njobs, os.cpu_count() or 1)))


def _fanout(worker, jobs, workers: int) -> list:
    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, jobs))
    return [worker(j) for j in jobs]


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
    alpha = float(cfg.get("alpha", 1.0))
    pre = departure_prefactor(k, n, alpha=alpha,
                              theta00=float(cfg.get("sigma", 0.0)))
    chart = EquatorialChart(k=k, n=n, alpha=alpha)
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
    tcfg = _tcfg(cfg)
    from .maps import find_x_epsilon, tangency_curve_psi
    return {
        "eps": eps,
        "x_eps": find_x_epsilon(system, tcfg, eps),
        "psi_eps": tangency_curve_psi(system, tcfg, eps),
    }


def _cmd_scaling(cfg: Dict[str, object]) -> int:
    eps_values = _eps_grid(cfg)
    rows = _fanout(_scaling_row, [(cfg, e) for e in eps_values],
                   _workers(cfg, len(eps_values)))
    rows.sort(key=lambda r: r["eps"])
    tcfg = _tcfg(cfg)
    fit = fit_scaling([r["eps"] for r in rows], [r["x_eps"] for r in rows],
                      predicted_slope=tcfg.lambda_star)
    body = _header("scaling", cfg) + "eps,x_eps,psi_eps\n"
    for r in rows:
        body += f"{_f(r['eps'])},{_f(r['x_eps'])},{_f(r['psi_eps'])}\n"
    return _finish("scaling", cfg, {"scaling.csv": body},
                   {"fit": fit.as_dict(), "rows": rows})


def _map_sweep_row(packed) -> dict:
    cfg, side, eps = packed
    system = _system(cfg)
    tcfg = _tcfg(cfg)
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
    eps_values = _eps_grid(cfg, default=None) if "eps_decades" in cfg \
        else [float(cfg.get("eps", 1e-3))]
    rows = _fanout(_map_sweep_row, [(cfg, side, e) for e in eps_values],
                   _workers(cfg, len(eps_values)))
    rows.sort(key=lambda r: r["eps"])
    body = _header(f"{side}-map", cfg) + "eps,y_in,y_out\n"
    for r in rows:
        for y_in, y_out in r["pairs"]:
            body += f"{_f(r['eps'])},{_f(y_in)},{_f(y_out)}\n"
    contraction = [{k: r[k] for k in ("eps", "input_length", "image_diameter")}
                   for r in rows]
    summary: Dict[str, object] = {"contraction": contraction}
    if len(rows) >= 3:
        # image diameter ~ exp(-c / eps^q): log-diameter affine in eps^{-q}
        tcfg = _tcfg(cfg)
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
    tcfg = _tcfg(cfg)
    manifold = SlowManifold(system, tcfg.tf)
    pts = int(cfg.get("points", 50))
    L = float(cfg.get("L", 0.3))
    xs = np.linspace(-L, -L / pts, pts)
    body = _header("slow-manifold", cfg) + "x,m0,m1\n"
    for x in xs:
        body += f"{_f(x)},{_f(manifold.m0(float(x)))},{_f(manifold.m1(float(x)))}\n"
    csvs = {"slow-manifold.csv": body}
    summary: Dict[str, object] = {}
    eps = float(cfg.get("eps", 1e-4))
    band = BandField(system, tcfg.tf, eps)
    report = slow_manifold_sandwich_check(
        band, tcfg.k, tcfg.n, L, float(cfg.get("lam", tcfg.lam)),
        float(cfg.get("sandwich_K", 0.0)), grid_points=pts)
    csvs["sandwich.csv"] = _header("slow-manifold", cfg) + manifold_table_csv(report)
    summary["sandwich"] = {
        "eps": report.eps,
        "lam": report.lam,
        "exponent": report.exponent,
        "K": report.K,
        "K_min": report.K_min,
        "holds_with_K": report.all_hold,
        "upper_bound_holds": report.upper_all_hold,
    }
    return _finish("slow-manifold", cfg, csvs, summary)


def _cmd_simulate(cfg: Dict[str, object]) -> int:
    system = _system(cfg)
    eps = float(cfg.get("eps", 1e-2))
    n = int(cfg.get("n", 2 * int(cfg.get("k", 1)) if cfg.get("scenario") ==
            "boundary-cycle" else 2))
    tf = phi_family(int(cfg.get("phi_m", n - 1)))
    reg = RegularizedField(system, tf, eps)
    p0 = (float(cfg.get("x0", 0.0)), float(cfg.get("y0", 2.0)))
    tmax = float(cfg.get("tmax", 10.0))
    sections = [SectionSpec("horizontal", eps, ident="band-roof"),
                SectionSpec("horizontal", -eps, ident="band-floor")]
    traj = flow(reg, p0, (0.0, tmax), IntegratorConfig(), sections=sections)
    body = _header("simulate", cfg) + trajectory_to_csv(traj)
    events = [{"t": float(ev.t), "x": float(ev.point[0]),
               "y": float(ev.point[1]), "section": ev.section_id,
               "direction": ev.direction} for ev in traj.events]
    return _finish("simulate", cfg, {"simulate.csv": body},
                   {"steps": len(traj), "t_end": traj.t_end, "events": events})


def _cycle_row(packed) -> dict:
    cfg, eps = packed
    scenario = str(cfg.get("scenario", "boundary-cycle"))
    k = int(cfg.get("k", 2))
    system = build_scenario(scenario, k=k)
    n = int(cfg.get("n", 2 * k))
    tf = phi_family(int(cfg.get("phi_m", n - 1)))
    rho = float(cfg.get("rho", 0.3))
    reference = oval_polyline(k) if scenario == "boundary-cycle" else None
    info = cycle_analysis(system, tf, float(eps), rho=rho, reference=reference)
    row = info.as_dict()
    if cfg.get("out") and info.polyline is not None:
        row["polyline"] = info.polyline
    return row


def _cmd_cycle(cfg: Dict[str, object]) -> int:
    eps_values = _eps_grid(cfg, default=None) if "eps_decades" in cfg \
        else [float(cfg.get("eps", 1e-2))]
    rows = _fanout(_cycle_row, [(cfg, e) for e in eps_values],
                   _workers(cfg, len(eps_values)))
    rows.sort(key=lambda r: r["eps"])
    cols = ("eps", "fixed_point", "period", "multiplier", "log_multiplier",
            "multiplier_arc", "hausdorff", "hausdorff_over_eps")
    body = _header("cycle", cfg) + ",".join(cols) + "\n"
    for r in rows:
        body += ",".join("" if r.get(c) is None else _f(r[c]) for c in cols) + "\n"
    csvs = {"cycle.csv": body}
    for j, r in enumerate(rows):
        poly = r.pop("polyline", None)
        if poly is not None:
            csvs[f"cycle-polyline-{j}.csv"] = (
                _header("cycle", cfg) + polyline_to_csv(poly))
    summary: Dict[str, object] = {"rows": rows}
    ratios = [r["hausdorff_over_eps"] for r in rows
              if r.get("hausdorff_over_eps") is not None]
    if len(ratios) >= 2:
        summary["hausdorff_over_eps_spread"] = max(ratios) / min(ratios)
    return _finish("cycle", cfg, csvs, summary)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--config", help="key=value config file with [sections]")
    sp.add_argument("--k", type=int, dest="k")
    sp.add_argument("--n", type=int, dest="n")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--phi-m", type=int, dest="phi_m")
    sp.add_argument("--eps", type=float)
    sp.add_argument("--eps-decades", dest="eps_decades",
                    help="log10 bounds lo:hi (or raw eps bounds)")
    sp.add_argument("--points", type=int)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--lambda", type=float, dest="lam")
    sp.add_argument("--L", type=float, dest="L")
    sp.add_argument("--scenario")
    sp.add_argument("--workers", type=int)
    sp.add_argument("--out", help="output directory (CSVs + summary.json)")


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
    for name in ("simulate", "scaling", "upper-map", "lower-map",
                 "slow-manifold", "chart", "cycle", "phi"):
        sp = sub.add_parser(name)
        _add_common(sp)
        if name == "phi":
            sp.add_argument("--m", type=int, dest="m")
        if name == "simulate":
            sp.add_argument("--x0", type=float)
            sp.add_argument("--y0", type=float)
            sp.add_argument("--tmax", type=float)
        if name == "chart":
            sp.add_argument("--sigma", type=float,
                            help="theta(0,0) of the upper field")
        if name == "slow-manifold":
            sp.add_argument("--sandwich-K", type=float, dest="sandwich_K",
                            help="constant for the lower-envelope check")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        cfg = _resolve(args, command)
        if command == "phi":
            return _cmd_phi(cfg)
        if command == "chart":
            return _cmd_chart(cfg)
        if command == "scaling":
            return _cmd_scaling(cfg)
        if command == "upper-map":
            return _cmd_map(cfg, "upper")
        if command == "lower-map":
            return _cmd_map(cfg, "lower")
        if command == "slow-manifold":
            return _cmd_slow_manifold(cfg)
        if command == "simulate":
            return _cmd_simulate(cfg)
        if command == "cycle":
            return _cmd_cycle(cfg)
        raise RegtangError(f"unknown command {command!r}")
    except RegtangError as exc:
        print(json.dumps({
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())

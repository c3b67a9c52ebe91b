"""The benchmark's three study workloads.

Each workload is a fixed case list run closed loop, one case after another,
from one process and one thread.  This module makes a workload's inputs from
its seed, builds its objects (set-up), runs one pass over its cases and checks
every result.  It reaches ``regtang`` only through module attributes looked up
at call time (``maps.find_x_epsilon``, ``cli.main``, ...), so the traced pass
sees every call it wraps.

Seed 0 runs the nominal grids.  Any other seed stretches each eps grid about
its smallest eps: ``eps_i -> eps_i * 10**(d * w_i)`` with ``d`` uniform in
+-EPS_JITTER_DECADES and ``w_i = log(eps_i/eps_min) / log(eps_max/eps_min)``.
The smallest eps, the one ``small_eps_s`` names, thus stays put: the secant
iterations of a cycle search jump between 3 and 5 under a 0.5 % change of eps,
which would make that one-case metric measure the seed instead of the code.
Single eps values (mirror, grazing, simulate) shift by ``10**d``.  The seed
also trims both ends of each transition-map input grid inward by up to
INPUT_TRIM of its spacing.  Every eps still passes ``check_eps``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from regtang import cli, cycles, maps
from regtang import IntegratorConfig, Poly2, TransitionConfig
from regtang.blowup import departure_prefactor
from regtang.phi import phi_family
from regtang.regularize import BandField, RegularizedField
from regtang.scenarios import boundary_cycle_system, canonical_system, oval_polyline

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

EPS_JITTER_DECADES = 0.005
INPUT_TRIM = 0.05

# (k, n) -> (log10 of the largest eps, log10 of the smallest, points)
DEPARTURE_GRIDS = {(1, 2): (-2.0, -5.0, 7), (2, 6): (-2.0, -6.0, 9)}
TRANSITION_EPS = (1e-2, 4e-3, 1e-3)
MAP_INPUTS = 9
MIRROR_EPS = {1: 1e-4, 2: 1e-3}
MIRROR_SLOPE_TOL = {1: 0.01, 2: 0.02}
GRAZE_EPS = 1e-3
GRAZE_OFFSETS = {1: (1e-3, 1e-2), 2: (0.05, 0.2)}
CYCLE_EPS = (0.005, 0.02)
CYCLE_POINTS = 5
SIMULATE_EPS = 0.01
SIMULATE_TMAX = 100.0

# x_eps must match the converged reference to this relative error.  On the
# nominal grid default-tolerance DOP853 is at most 2.6e-8 off, at (1,2)@1e-5
# (references.json, "seed_rel_err"); the references agree with Radau to 2.3e-11
# and the interpolation in the shift is good to 3e-10.
X_REL_TOL = 1e-6
# Period of the upper-field loop through the oval (criterion 08).
OVAL_PERIOD = 7.416298709240543


def departure_config(k: int, n: int, integ: Optional[IntegratorConfig] = None):
    # lam only gates the admissible eps range; the top of the sweep needs the
    # largest admissible exponent, as in criterion 01
    kw = {} if integ is None else {"integ": integ}
    return TransitionConfig(k=k, n=n, lam=0.999 * maps.lambda_star(k, n), **kw)


def nominal_departure_eps(k: int, n: int, shift: float = 0.0) -> List[float]:
    hi, lo, pts = DEPARTURE_GRIDS[(k, n)]
    return [float(10.0 ** (e + shift)) for e in np.linspace(hi, lo, pts)]


# --------------------------------------------------------------------------
# inputs from a seed
# --------------------------------------------------------------------------

@dataclass
class Inputs:
    seed: int
    departure_shift: Dict[Tuple[int, int], List[float]]  # decades, per grid point
    departure_eps: Dict[Tuple[int, int], List[float]]
    transition_eps: List[float]
    upper_trim: Tuple[float, float]
    lower_trim: Tuple[float, float]
    mirror_eps: Dict[int, float]
    graze_eps: float
    cycle_eps: Tuple[float, float]
    simulate_eps: float


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)

    def shift() -> float:
        return 0.0 if seed == 0 else rng.uniform(-EPS_JITTER_DECADES, EPS_JITTER_DECADES)

    def trim() -> Tuple[float, float]:
        if seed == 0:
            return (0.0, 0.0)
        return (rng.uniform(0.0, INPUT_TRIM), rng.uniform(0.0, INPUT_TRIM))

    def stretch(grid) -> List[float]:  # decades per point, 0 at the smallest eps
        d, lo, hi = shift(), min(grid), max(grid)
        return [d * math.log(e / lo) / math.log(hi / lo) for e in grid]

    dep_shift, dep_eps = {}, {}
    for pair in DEPARTURE_GRIDS:
        nominal = nominal_departure_eps(*pair)
        dep_shift[pair] = stretch(nominal)
        dep_eps[pair] = [e * 10.0 ** d for e, d in zip(nominal, dep_shift[pair])]
    transition_eps = [e * 10.0 ** d for e, d in zip(TRANSITION_EPS, stretch(TRANSITION_EPS))]
    upper_trim, lower_trim = trim(), trim()
    mirror_eps = {k: e * 10.0 ** shift() for k, e in MIRROR_EPS.items()}
    graze_eps = GRAZE_EPS * 10.0 ** shift()
    cycle_eps = (CYCLE_EPS[0], CYCLE_EPS[1] * 10.0 ** shift())
    simulate_eps = SIMULATE_EPS * 10.0 ** shift()
    return Inputs(seed, dep_shift, dep_eps, transition_eps, upper_trim,
                  lower_trim, mirror_eps, graze_eps, cycle_eps, simulate_eps)


# --------------------------------------------------------------------------
# cases
# --------------------------------------------------------------------------

@dataclass
class CaseResult:
    name: str
    start: float  # time.perf_counter() when the case began
    seconds: float
    small_eps: bool
    failures: List[str]


@dataclass
class PassResult:
    cases: List[CaseResult] = field(default_factory=list)
    cli_bytes_out: int = 0


def _case(out: PassResult, name: str, small_eps: bool,
          work: Callable[[], object], check: Callable[[object], List[str]]):
    """Time one case and check its result; a case that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        value = work()
    except Exception as exc:  # the pass goes on; the failure is counted
        out.cases.append(CaseResult(name, t0, time.perf_counter() - t0, small_eps,
                                    [f"{type(exc).__name__}: {exc}"]))
        return None
    seconds = time.perf_counter() - t0
    out.cases.append(CaseResult(name, t0, seconds, small_eps, check(value)))
    return value


def _fail_if(cond: bool, msg: str) -> List[str]:
    return [msg] if cond else []


# --------------------------------------------------------------------------
# departure: x_eps sweeps and the scaling fits
# --------------------------------------------------------------------------

def load_references() -> dict:
    with open(REFERENCES) as fh:
        raw = json.load(fh)
    return {tuple(int(v) for v in key.split(",")): val
            for key, val in raw["pairs"].items()}


def reference_x(ref: dict, i: int, shift: float) -> float:
    """Converged x_eps at grid point i shifted by ``shift`` decades: quadratic
    interpolation of log x in the shift through the stored shifts."""
    shifts = ref["shifts"]
    logs = [math.log(v) for v in ref["x"][i]]
    total = 0.0
    for a, (sa, la) in enumerate(zip(shifts, logs)):
        w = 1.0
        for b, sb in enumerate(shifts):
            if b != a:
                w *= (shift - sb) / (sa - sb)
        total += w * la
    return math.exp(total)


@dataclass
class DepartureContext:
    inputs: Inputs
    systems: dict
    configs: dict
    references: dict
    eta_12: float


def _setup_departure(inputs: Inputs) -> DepartureContext:
    systems = {pair: canonical_system(k=pair[0]) for pair in DEPARTURE_GRIDS}
    configs = {pair: departure_config(*pair) for pair in DEPARTURE_GRIDS}
    return DepartureContext(inputs, systems, configs, load_references(),
                            departure_prefactor(1, 2)["eta"])


def _departure_pass(ctx: DepartureContext, smoke: bool) -> PassResult:
    out = PassResult()
    for pair, eps_list in ctx.inputs.departure_eps.items():
        k, n = pair
        system, cfg = ctx.systems[pair], ctx.configs[pair]
        ref, shifts = ctx.references[pair], ctx.inputs.departure_shift[pair]
        xs = []
        for i, eps in enumerate(eps_list[:1] if smoke else eps_list):
            x_ref = reference_x(ref, i, shifts[i])

            def check(x, x_ref=x_ref):
                err = abs(x / x_ref - 1.0)
                return _fail_if(not err <= X_REL_TOL,
                                f"x_eps={x!r} is {err:.2e} off the reference {x_ref!r}")

            xs.append(_case(out, f"x_eps{pair}@{eps:.4g}", i == len(eps_list) - 1,
                            lambda: maps.find_x_epsilon(system, cfg, eps), check))
        if smoke:
            continue

        def fit():
            if any(x is None for x in xs):
                raise ValueError("a sweep case failed; no fit")
            return maps.fit_scaling(eps_list, xs, predicted_slope=maps.lambda_star(k, n))

        def check_fit(f, pair=pair):
            fails = _fail_if(not f.rel_dev <= 0.05, f"slope {f.slope:.5f} is "
                             f"{100 * f.rel_dev:.2f}% off lambda*")
            fails += _fail_if(not f.r2 >= 0.999, f"r2={f.r2:.7f} < 0.999")
            if pair == (1, 2):
                dev = abs(math.exp(f.intercept) / ctx.eta_12 - 1.0)
                fails += _fail_if(not dev <= 0.10, f"prefactor {100 * dev:.1f}% off eta")
            return fails

        _case(out, f"fit{pair}", False, fit, check_fit)
    return out


# --------------------------------------------------------------------------
# transition: upper/lower map sweeps (criterion 04), mirror maps (09) and
# grazing half-map fits (10)
# --------------------------------------------------------------------------

@dataclass
class TransitionContext:
    inputs: Inputs
    system: object
    config: TransitionConfig
    mirror: dict
    graze: dict


def _setup_transition(inputs: Inputs) -> TransitionContext:
    cfg = TransitionConfig(k=1, n=2, integ=IntegratorConfig(rtol=1e-12, atol=1e-14))
    mirror = {1: (canonical_system(k=1, theta=Poly2.const(-1)), TransitionConfig(k=1, n=2)),
              2: (canonical_system(k=2, theta=Poly2.const(-1)), TransitionConfig(k=2, n=3))}
    graze = {k: (canonical_system(k=k), np.geomspace(*GRAZE_OFFSETS[k], 8))
             for k in (1, 2)}
    return TransitionContext(inputs, canonical_system(k=1), cfg, mirror, graze)


def _map_grid(ctx: TransitionContext, side: str, eps: float) -> np.ndarray:
    if side == "upper":
        lo, hi = eps, maps.predicted_upper_boundary(ctx.system, ctx.config, eps)
        trim = ctx.inputs.upper_trim
    else:
        lo, hi = -2.0 * eps, 0.95 * eps
        trim = ctx.inputs.lower_trim
    h = (hi - lo) / (MAP_INPUTS - 1)
    return np.linspace(lo + trim[0] * h, hi - trim[1] * h, MAP_INPUTS)


def _resolution(ctx: TransitionContext, outs: List[float]) -> float:
    """Image spread the integration cannot resolve: rtol times the image size."""
    return ctx.config.integ.rtol * max(abs(v) for v in outs)


def _transition_pass(ctx: TransitionContext, smoke: bool) -> PassResult:
    out = PassResult()
    eps_values = ctx.inputs.transition_eps[:1] if smoke else ctx.inputs.transition_eps
    for side in ("upper", "lower"):
        mapper = maps.upper_transition_map if side == "upper" else maps.lower_transition_map
        diams: List[Optional[Tuple[float, float]]] = []  # (diameter, resolution)
        for i, eps in enumerate(eps_values):
            smallest = i == len(TRANSITION_EPS) - 1

            def work(eps=eps, mapper=mapper):
                grid = _map_grid(ctx, side, eps)
                outs = [mapper(ctx.system, ctx.config, eps, float(y)).y_out for y in grid]
                return max(outs) - min(outs), float(grid[-1] - grid[0]), outs

            def check(res, smallest=smallest):
                diam, length, outs = res
                fails = _fail_if(not all(math.isfinite(v) for v in outs), "non-finite image")
                fails += _fail_if(not diam < length, f"image diameter {diam:.3e} "
                                  f"not below the input length {length:.3e}")
                if smallest:
                    fails += _fail_if(not diam < 1e-10 * length, f"diameter {diam:.2e} "
                                      f"not below 1e-10*length={1e-10 * length:.2e}")
                    # Near eps = 1e-3 the true diameter sinks below what the
                    # rtol-accurate outputs resolve (criterion 04); a diameter
                    # under the resolution is solver noise and only has to stay there.
                    ds = diams + [(diam, _resolution(ctx, outs))]
                    ok = all(a is not None and b is not None and (b[0] < a[0] or b[0] <= b[1])
                             for a, b in zip(ds, ds[1:]))
                    fails += _fail_if(not ok, f"diameters {[d and d[0] for d in ds]} do not "
                                      "decrease with eps down to the integration's resolution")
                return fails

            res = _case(out, f"{side}-map@{eps:.4g}", smallest, work, check)
            diams.append(None if res is None else (res[0], _resolution(ctx, res[2])))

    for k, (system, cfg) in ctx.mirror.items():
        eps = ctx.inputs.mirror_eps[k]

        def mirror(system=system, cfg=cfg, eps=eps, k=k):
            slope = maps.mirror_derivative(system, cfg, eps)
            fp = maps.mirror_fixed_point(system, cfg, eps, **({"delta": 5e-4} if k == 2 else {}))
            return slope, fp["gap"]

        def check_mirror(res, k=k, cfg=cfg):
            slope, gap = res
            fails = _fail_if(not abs(slope + 1.0) <= MIRROR_SLOPE_TOL[k],
                             f"mirror slope {slope:.6f} not within {MIRROR_SLOPE_TOL[k]} of -1")
            return fails + _fail_if(not gap <= cfg.integ.event_tol,
                                    f"fixed point {gap:.2e} off the fold")

        _case(out, f"mirror(k={k})@{eps:.4g}", False, mirror, check_mirror)

    eps = ctx.inputs.graze_eps
    for k, (system, offsets) in ctx.graze.items():
        def graze(system=system, offsets=offsets):
            return [cycles.grazing_exponent_fit(system, eps, 0.0, side, 0.3, 0.3,
                                                offsets=offsets)
                    for side in ("unstable", "stable")]

        def check_graze(fits, k=k):
            fails = []
            for f in fits:
                dev = abs(f["exponent"] - 2 * k) / (2 * k)
                fails += _fail_if(not dev <= 0.025, f"contact exponent {f['exponent']:.4f} "
                                  f"{100 * dev:.2f}% off 2k")
                fails += _fail_if(not f["kappa"] < 0, f"kappa {f['kappa']:.3f} not negative")
            return fails

        _case(out, f"graze(k={k})@{eps:.4g}", False, graze, check_graze)
    return out


# --------------------------------------------------------------------------
# cycle: the CLI's cycle sweep and simulate on the grazing-oval example
# --------------------------------------------------------------------------

@dataclass
class CycleContext:
    inputs: Inputs
    system: object
    tf: object
    oval: np.ndarray
    workdir: str


def _setup_cycle(inputs: Inputs, workdir: str) -> CycleContext:
    return CycleContext(inputs, boundary_cycle_system(k=2), phi_family(5),
                        oval_polyline(2), workdir)


def _run_cli(argv: List[str], out_dir: str) -> Tuple[int, int]:
    """Run the CLI in-process; return its exit code and the bytes it wrote."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--workers", "1", "--out", out_dir])
    written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    return rc, len(buf.getvalue().encode()) + written


@contextlib.contextmanager
def _time_cycle_rows(record: Dict[float, Tuple[float, float]]):
    """Time each eps row of the CLI's cycle sweep at its call of cycle_analysis."""
    inner = cli.cycle_analysis

    def timed(system, tf, eps, *a, **kw):
        t0 = time.perf_counter()
        try:
            return inner(system, tf, eps, *a, **kw)
        finally:
            record[float(eps)] = (t0, time.perf_counter() - t0)

    cli.cycle_analysis = timed
    try:
        yield
    finally:
        cli.cycle_analysis = inner


def _cycle_pass(ctx: CycleContext, smoke: bool) -> PassResult:
    out = PassResult()
    lo, hi = ctx.inputs.cycle_eps
    if smoke:
        eps_values = [hi]
        sweep = ["--eps", repr(hi)]
    else:
        eps_values = [float(e) for e in np.logspace(math.log10(lo), math.log10(hi),
                                                    CYCLE_POINTS)]
        sweep = ["--eps-decades", f"{lo!r}:{hi!r}", "--points", str(CYCLE_POINTS)]
    argv = ["cycle", "--scenario", "boundary-cycle", "--k", "2", "--phi-m", "5"] + sweep
    row_times: Dict[float, Tuple[float, float]] = {}
    t0 = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory(dir=ctx.workdir) as tmp, _time_cycle_rows(row_times):
            rc, nbytes = _run_cli(argv, tmp)
            summary = None
            if rc == 0:
                with open(os.path.join(tmp, "summary.json")) as fh:
                    summary = json.load(fh)
        out.cli_bytes_out += nbytes
        error = None if rc == 0 else f"cycle exited with {rc}"
    except Exception as exc:  # every row of the sweep fails with it
        summary, error = None, f"{type(exc).__name__}: {exc}"
    sweep_seconds = time.perf_counter() - t0

    rows = (summary or {}).get("rows", [])
    log_target = -4.0 * OVAL_PERIOD
    for i, eps in enumerate(eps_values):
        smallest = i == 0 and not smoke
        row = rows[i] if len(rows) == len(eps_values) else None
        fails = [error or "cycle summary does not have one row per eps"] if row is None else []
        if row is not None:
            fails += _fail_if(not abs(row["eps"] / eps - 1.0) <= 1e-12,
                              f"row eps {row['eps']!r} is not the requested {eps!r}")
            fails += _fail_if(not row["multiplier"] < 1.0, f"multiplier {row['multiplier']:g} >= 1")
            dev = abs(row["log_multiplier_arc"] - log_target) / abs(log_target)
            fails += _fail_if(not dev <= 0.15, f"arc multiplier {100 * dev:.1f}% off -4T")
            if smallest:
                spread = summary.get("hausdorff_over_eps_spread", math.inf)
                fails += _fail_if(not spread <= 2.0, f"d_H/eps spread {spread:.3f} > 2")
        start, seconds = row_times.get(eps, (t0, sweep_seconds))
        out.cases.append(CaseResult(f"cycle@{eps:.4g}", start, seconds, smallest, fails))

    eps = ctx.inputs.simulate_eps
    argv = ["simulate", "--scenario", "boundary-cycle", "--k", "2", "--phi-m", "5",
            "--eps", repr(eps), "--tmax", repr(SIMULATE_TMAX)]

    def simulate():
        with tempfile.TemporaryDirectory(dir=ctx.workdir) as tmp:
            rc, nbytes = _run_cli(argv, tmp)
            if rc != 0:
                raise RuntimeError(f"simulate exited with {rc}")
            with open(os.path.join(tmp, "summary.json")) as fh:
                summary = json.load(fh)
            with open(os.path.join(tmp, "simulate.csv")) as fh:
                steps = [line.split(",") for line in fh
                         if not line.startswith(("#", "t,")) and line.rstrip().endswith(",")]
        out.cli_bytes_out += nbytes
        last = np.array([float(v) for v in steps[-1][1:3]]) if steps else None
        return summary, last

    def check_simulate(res):
        summary, last = res
        fails = _fail_if(not abs(summary["t_end"] - SIMULATE_TMAX) <= 1e-9,
                         f"t_end {summary['t_end']!r} is not tmax")
        dirs = {(e["section"], e["direction"]) for e in summary["events"]}
        fails += _fail_if(not {("band-roof", "up"), ("band-roof", "down")} <= dirs,
                          "no band-roof crossing in both directions")
        if last is None:
            return fails + ["no accepted step in simulate.csv"]
        gap = float(np.min(np.linalg.norm(ctx.oval - last, axis=1)))
        return fails + _fail_if(not gap <= 2.0 * eps, f"end point {gap:.2e} off the oval")

    _case(out, f"simulate@{eps:.4g}", False, simulate, check_simulate)
    return out


# --------------------------------------------------------------------------
# L0 probe objects: each workload's own system, profile and eps
# --------------------------------------------------------------------------

@dataclass
class ProbeObjects:
    poly: Poly2
    tf: object
    plus: object
    band: BandField
    reg: RegularizedField
    eps: float


def probe_objects(workload: str, ctx) -> ProbeObjects:
    if workload == "departure":
        system, tf = ctx.systems[(1, 2)], ctx.configs[(1, 2)].tf
        eps = ctx.inputs.departure_eps[(1, 2)][-1]
    elif workload == "transition":
        system, tf, eps = ctx.system, ctx.config.tf, ctx.inputs.transition_eps[-1]
    else:
        system, tf, eps = ctx.system, ctx.tf, ctx.inputs.cycle_eps[0]
    return ProbeObjects(system.x_plus.poly_form[1], tf, system.x_plus,
                        BandField(system, tf, eps), RegularizedField(system, tf, eps), eps)


# --------------------------------------------------------------------------
# entry points used by run.py
# --------------------------------------------------------------------------

def setup(workload: str, inputs: Inputs, workdir: str):
    if workload == "departure":
        return _setup_departure(inputs)
    if workload == "transition":
        return _setup_transition(inputs)
    if workload == "cycle":
        return _setup_cycle(inputs, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, ctx, smoke: bool = False) -> PassResult:
    return {"departure": _departure_pass, "transition": _transition_pass,
            "cycle": _cycle_pass}[workload](ctx, smoke)

"""Return maps, periodic-orbit location, and cycle diagnostics for smoothed
two-zone systems whose sliding segment ends at a visible even contact.

The full return map is integrated directly in the original variables (the
smoothed field is not stiff at the eps values of interest here).  The tests
cross-check it against the composition of the layer transition map with the
outer excursion of the upper field, when the return crossing sits above the
layer.  Derivatives of section maps come from the variational formula

    P'(y0) = [F_x(p0) / F_x(p1)] * exp( integral of div F along the orbit ),

which is immune to the catastrophic cancellation a finite difference hits
when the contraction is below the map's resolution.  Every return-map leg
runs at ``RETURN_INTEG``, so the map resolves its value to that rtol,
relative, and the cycle search stops there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainExit,
    MaxRevolutions,
    NoBracket,
    NoCrossing,
    NoReturn,
    NotConverged,
)
from .fields import FilippovSystem
from .integrate import (
    IntegratorConfig,
    SectionSpec,
    Trajectory,
    flow_to_section_traj,
    sample_dense,
)
from .maps import fit_line
from .phi import TransitionFunction
from .regularize import RegularizedField


MAX_SECANT_ITER = 100     # find_cycle's iterations before NotConverged
RETURN_MAX_TIME = 200.0   # time budget of one return-map revolution
MAX_REVOLUTIONS = 4       # revolutions (two crossings each) before MaxRevolutions
POLYLINE_SPACING = 1e-3   # arc length between cycle-polyline and Hausdorff samples
_EPS = float(np.finfo(float).eps)
_PAIRS = 1 << 18          # candidate pairs per batch of the Hausdorff search

# every return-map leg; its rtol is the map's relative resolution
RETURN_INTEG = IntegratorConfig(max_time=RETURN_MAX_TIME)


# --------------------------------------------------------------------------
# root finding on section maps
# --------------------------------------------------------------------------

@dataclass
class CycleResult:
    y_star: float
    iterations: int
    residual: float
    bracket: Tuple[float, float]


def find_cycle(return_fn: Callable[[float], float],
               bracket: Tuple[float, float]) -> CycleResult:
    """Fixed point of y -> return_fn(y) by a bracketed secant (Illinois) method,
    stopped at the return map's resolution: |P(y) - y| <= rtol |y| with the
    return legs' rtol.

    Raises NoBracket when the displacement does not change sign over the
    bracket, NotConverged after MAX_SECANT_ITER iterations.
    """
    rtol = RETURN_INTEG.rtol
    a, b = float(bracket[0]), float(bracket[1])
    fa = return_fn(a) - a
    fb = return_fn(b) - b
    if fa == 0.0:
        return CycleResult(a, 0, 0.0, (a, b))
    if fb == 0.0:
        return CycleResult(b, 0, 0.0, (a, b))
    if fa * fb > 0:
        raise NoBracket(
            f"displacement has the same sign at both ends of [{a:g}, {b:g}] "
            f"({fa:g} and {fb:g})"
        )
    lo, hi, flo, fhi = a, b, fa, fb
    side = 0
    x = lo
    for it in range(1, MAX_SECANT_ITER + 1):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        # guard against stagnation at an endpoint
        if not (min(lo, hi) < x < max(lo, hi)):
            x = 0.5 * (lo + hi)
        fx = return_fn(x) - x
        if abs(fx) <= rtol * abs(x):
            return CycleResult(x, it, fx, (a, b))
        if fx * fhi < 0:
            lo, flo = hi, fhi
            side = 0
        else:
            if side == 1:
                flo *= 0.5   # Illinois weighting keeps the bracket moving
            side = 1
        hi, fhi = x, fx
    raise NotConverged(
        f"no fixed point to |P(y) - y| <= {rtol:g}|y| within {MAX_SECANT_ITER} "
        f"iterations (last y={x:g})"
    )


# --------------------------------------------------------------------------
# the state that carries the divergence integral
# --------------------------------------------------------------------------

def _augmented_rhs(field: RegularizedField):
    """The right-hand side of the state (x, y, divergence integral) under the
    ``RegularizedField`` ``field``: a call of its ``augmented``, which
    carries the field's ``augmented_kernel``, so that a DOP853 leg inlines
    it into its step."""
    ev = field.augmented

    def rhs(t, p):
        x, y, w = p
        return ev(x, y, w)
    rhs.kernel = field.augmented_kernel
    return rhs


# --------------------------------------------------------------------------
# the upper field's loop
# --------------------------------------------------------------------------

def loop_period(system: FilippovSystem) -> float:
    """Period of the upper-field loop through (0, 2): time of first return
    to the section {x = 0} with y > 1, crossing in the same sense.
    """
    sec = SectionSpec("vertical", 0.0, interval=(1.0, math.inf),
                      direction="down", ident="top")
    hit, _ = flow_to_section_traj(system.x_plus, (0.0, 2.0), sec)
    return float(hit.t)


# --------------------------------------------------------------------------
# full return map of the smoothed system
# --------------------------------------------------------------------------

@dataclass
class ReturnInfo:
    y_out: float
    t_return: float
    trajectory: Trajectory
    s_integral: Optional[float] = None


def return_map(system: FilippovSystem, tf: TransitionFunction, eps: float,
               y_in: float, rho: float = 0.3,
               with_divergence: bool = False,
               extra_records: Sequence[SectionSpec] = ()) -> ReturnInfo:
    """One revolution of the smoothed flow, section {x = -rho, y > 0} to itself,
    crossings counted only with x increasing, integrated at ``RETURN_INTEG``.
    """
    reg = RegularizedField(system, tf, eps)
    sec = SectionSpec("vertical", -rho, interval=(0.0, math.inf), direction="up",
                      ident="return")
    counter = SectionSpec("vertical", -rho, ident="anycross")
    if with_divergence:
        rhs = _augmented_rhs(reg)
        p0 = (-rho, y_in, 0.0)
    else:
        rhs = reg
        p0 = (-rho, y_in)
    try:
        hit, traj = flow_to_section_traj(rhs, p0, sec, RETURN_INTEG,
                                         record_sections=[counter, *extra_records])
    except (NoCrossing, DomainExit) as exc:
        raise NoReturn(
            f"orbit from (x=-{rho:g}, y={y_in:g}) did not come back: {exc}"
        ) from exc
    crossings = sum(1 for e in traj.events if e.section_id == "anycross")
    if crossings > 2 * MAX_REVOLUTIONS:
        raise MaxRevolutions(
            f"{crossings} section crossings before an admissible return"
        )
    return ReturnInfo(
        y_out=float(hit.point[1]),
        t_return=float(hit.t),
        trajectory=traj,
        s_integral=float(hit.point[2]) if with_divergence else None,
    )


def cycle_multiplier(system: FilippovSystem, tf: TransitionFunction, eps: float,
                     y_star: float, rho: float = 0.3) -> dict:
    """Floquet multiplier of the closed orbit through (-rho, y_star), exp of
    the loop integral of the smoothed field's divergence, and the derivative
    (magnitude) of the outer-arc map along it, both from one revolution.

    The arc runs on {y = eps} from the departure crossing (upward) to the
    re-entry crossing (downward); outside the layer the smoothed field equals
    the upper field, so this is the upper-field part of the cycle's
    contraction.  The layer portion of the cycle shrinks with eps, hence this
    factor tends to the upper-field loop rate exp(integral of div over one
    loop) while the full Floquet multiplier keeps the layer's extra
    squeezing on top of it.  ``trajectory`` is that revolution, with the
    divergence integral as its third state.
    """
    roof = SectionSpec("horizontal", eps, ident="roof")
    info = return_map(system, tf, eps, y_star, rho=rho, with_divergence=True,
                      extra_records=[roof])
    roofs = [e for e in info.trajectory.events if e.section_id == "roof"]
    ups = [e for e in roofs if e.direction == "up"]
    if not ups:
        raise NoReturn("closed orbit never left the layer through its roof")
    up = ups[0]
    downs = [e for e in roofs if e.direction == "down"]
    if not downs:
        raise NoReturn("closed orbit never re-entered the layer after departing")
    later = [e for e in downs if e.t > up.t]
    if later:
        dn = later[0]
        s_arc = float(dn.point[2] - up.point[2])
        t_arc = float(dn.t - up.t)
    else:
        # the revolution starts above the roof (y_star > eps) and re-enters
        # the layer before it departs: the re-entry after the departure is
        # that first one, one period later
        dn = downs[0]
        s_arc = info.s_integral - float(up.point[2] - dn.point[2])
        t_arc = info.t_return - float(up.t - dn.t)
    ev = system.x_plus.eval
    a = float(ev(up.point[0], up.point[1])[1])
    b = float(ev(dn.point[0], dn.point[1])[1])
    value = abs(a / b) * math.exp(s_arc)
    return {
        "multiplier": math.exp(info.s_integral),
        "log_multiplier": info.s_integral,
        "period": info.t_return,
        "closure_gap": abs(info.y_out - y_star),
        "multiplier_arc": value,
        "log_multiplier_arc": math.log(value),
        "s_arc": s_arc,
        "t_arc": t_arc,
        "x_departure": float(up.point[0]),
        "x_reentry": float(dn.point[0]),
        "trajectory": info.trajectory,
    }


# --------------------------------------------------------------------------
# Hausdorff distance between closed polylines
# --------------------------------------------------------------------------

def resample_arclength(points: np.ndarray, delta: float) -> np.ndarray:
    """Resample a polyline at (approximately) uniform arc-length spacing delta."""
    pts = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    if total == 0.0:
        return pts[:1].copy()
    m = max(2, int(math.ceil(total / delta)) + 1)
    si = np.linspace(0.0, total, m)
    out = np.empty((m, pts.shape[1]))
    for j in range(pts.shape[1]):
        out[:, j] = np.interp(si, s, pts[:, j])
    return out


def _farthest_sq(P: np.ndarray, Q: np.ndarray, h: float, origin: np.ndarray,
                 span: float, worst: float) -> float:
    """max(worst, max over P of the squared distance to the nearest point of Q).

    Exact nearest-point search on a square grid of side h, doubled each
    round: every point of P still open is filed under its own cell and that
    cell's eight neighbours, one sort and one ``searchsorted`` of Q's cells
    then give every candidate pair (p, q with q in p's 3x3 block), and
    ``np.minimum.at`` takes each p's least ``dx*dx + dy*dy``.  Outside its
    3x3 block every point of Q lies farther from p than h, less the rounding
    of the cell indices (``reach``), so a p whose best candidate is within
    ``reach`` is settled; so is every p once the grid has at most two cells
    a side.  The others go round again, except those with a candidate within
    ``worst``, which cannot raise the max.
    """
    qx, qy = Q[:, 0], Q[:, 1]
    while len(P):
        cq = np.floor((Q - origin) / h).astype(np.int64) + 1
        cp = np.floor((P - origin) / h).astype(np.int64) + 1
        width = int(max(cq[:, 1].max(), cp[:, 1].max())) + 2
        whole = bool(cq.max() <= 2 and cp.max() <= 2)
        # (cell key, index in P) packed in one int64, so a plain sort files them
        bits = len(P).bit_length()
        block = np.array([i * width + j for i in (-1, 0, 1) for j in (-1, 0, 1)])
        kp = cp[:, 0] * width + cp[:, 1]
        filed = np.sort(((kp[:, None] + block) << bits
                         | np.arange(len(P))[:, None]).ravel())
        kq = (cq[:, 0] * width + cq[:, 1]) << bits
        lo = np.searchsorted(filed, kq)
        cnt = np.searchsorted(filed, kq + (1 << bits)) - lo
        best = np.full(len(P), np.inf)
        # pairs in batches of about _PAIRS, so that memory stays bounded where
        # every q is a candidate of every p (polylines far apart)
        ends = np.cumsum(cnt)
        cuts = [0, *np.searchsorted(ends, np.arange(_PAIRS, ends[-1], _PAIRS)), len(Q)]
        for i, j in zip(cuts, cuts[1:]):
            c = cnt[i:j]
            pid = filed[np.arange(c.sum()) + np.repeat(lo[i:j] - (np.cumsum(c) - c), c)] \
                & ((1 << bits) - 1)
            dx = P[pid, 0] - np.repeat(qx[i:j], c)
            dy = P[pid, 1] - np.repeat(qy[i:j], c)
            np.minimum.at(best, pid, dx * dx + dy * dy)
        reach = h - 8.0 * _EPS * (span + h)
        settled = (best <= reach * reach) | whole
        if settled.any():
            worst = max(worst, float(best[settled].max()))
        P = P[~settled & (best > worst)]
        h *= 2.0
    return worst


def hausdorff_distance(a: np.ndarray, b: np.ndarray,
                       delta_sample: float = 1e-3) -> float:
    """Symmetric Hausdorff distance between two polylines, after arc-length
    resampling at spacing delta_sample.

    The nearest-point search (``_farthest_sq``) is exact: the result is the
    float a k-d tree query gives, bit for bit.  Its first cell is
    2 delta_sample, or larger where the grid would have more cells a side
    than the packed int64 keys hold.
    """
    A = resample_arclength(np.asarray(a, dtype=float), delta_sample)
    B = resample_arclength(np.asarray(b, dtype=float), delta_sample)
    origin = np.minimum(A.min(axis=0), B.min(axis=0))
    span = float((np.maximum(A.max(axis=0), B.max(axis=0)) - origin).max())
    side = 2.0 ** ((60 - max(len(A), len(B)).bit_length()) // 2)
    h = max(2.0 * delta_sample, span / side)
    worst = _farthest_sq(A, B, h, origin, span, 0.0)
    return math.sqrt(_farthest_sq(B, A, h, origin, span, worst))


# --------------------------------------------------------------------------
# end-to-end cycle analysis
# --------------------------------------------------------------------------

@dataclass
class CycleInfo:
    eps: float
    fixed_point: float
    period: float
    multiplier: float
    log_multiplier: float
    iterations: int
    arc: dict
    hausdorff: Optional[float] = None
    hausdorff_over_eps: Optional[float] = None
    polyline: Optional[np.ndarray] = None

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "fixed_point": self.fixed_point,
            "period": self.period,
            "multiplier": self.multiplier,
            "log_multiplier": self.log_multiplier,
            "iterations": self.iterations,
            "hausdorff": self.hausdorff,
            "hausdorff_over_eps": self.hausdorff_over_eps,
            **self.arc,
        }


def default_bracket(system: FilippovSystem, eps: float, rho: float) -> Tuple[float, float]:
    """Bracket on the inflow section containing the attracting fixed point in
    both regimes: return crossing inside the layer (y ~ eps * m0(-rho)) or
    above it (y ~ height of the grazing orbit + O(eps))."""
    sec = SectionSpec("vertical", -rho)
    hit, _ = flow_to_section_traj(system.x_plus, (0.0, 0.0), sec,
                                  t_direction="backward")
    y_bar = float(hit.point[1])
    return (0.25 * eps, y_bar + 4.0 * eps)


def cycle_analysis(system: FilippovSystem, tf: TransitionFunction, eps: float,
                   rho: float = 0.3,
                   reference: Optional[np.ndarray] = None) -> CycleInfo:
    """Locate the attracting cycle of the smoothed system on {x = -rho, y > 0}
    inside ``default_bracket``, compute its period and multiplier, and
    (optionally) its Hausdorff distance to a reference polyline, all on the
    one revolution ``cycle_multiplier`` integrates."""
    def ret(y: float) -> float:
        return return_map(system, tf, eps, y, rho=rho).y_out

    res = find_cycle(ret, default_bracket(system, eps, rho))
    mult = cycle_multiplier(system, tf, eps, res.y_star, rho=rho)
    arc = {k: mult[k] for k in ("multiplier_arc", "log_multiplier_arc", "s_arc",
                                "t_arc", "x_departure", "x_reentry")}
    info = CycleInfo(
        eps=eps, fixed_point=res.y_star, period=mult["period"],
        multiplier=mult["multiplier"], log_multiplier=mult["log_multiplier"],
        iterations=res.iterations, arc=arc,
    )
    if reference is not None:
        n = max(2000, int(12.0 / POLYLINE_SPACING))
        pts = sample_dense(mult["trajectory"], n)[:, :2]
        info.polyline = pts
        info.hausdorff = hausdorff_distance(pts, reference, POLYLINE_SPACING)
        info.hausdorff_over_eps = info.hausdorff / eps
    return info


def unique_root_scan(return_fn: Callable[[float], float],
                     bracket: Tuple[float, float], pieces: int = 8) -> List[float]:
    """Split the bracket, find a fixed point in every sign-changing piece, and
    return the list of roots found (callers assert uniqueness/consistency)."""
    a, b = bracket
    ys = np.linspace(a, b, pieces + 1)
    vals = [return_fn(float(y)) - float(y) for y in ys]
    roots = []
    for i in range(pieces):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(ys[i]))
        elif fa * fb < 0:
            res = find_cycle(return_fn, (float(ys[i]), float(ys[i + 1])))
            roots.append(res.y_star)
    if vals[-1] == 0.0:
        roots.append(float(ys[-1]))
    return roots


def polyline_to_csv(points: np.ndarray) -> str:
    points = np.asarray(points, dtype=float)  # one row (x, y) per point
    return "x,y\n" + "%.17g,%.17g\n" * len(points) % tuple(points.ravel().tolist())


# --------------------------------------------------------------------------
# grazing half-maps near the fold with the layer roof
# --------------------------------------------------------------------------

def grazing_half_map(system: FilippovSystem, eps: float, x_in: float,
                     psi: float, side: str, theta: float, rho: float) -> float:
    """Upper-field half map on {y = eps} near the fold at x = psi.

    side='unstable': forward to the outflow section {x = theta};
    side='stable':   backward to the inflow section {x = -rho}.
    Both are pure upper-field constructions; the backward branch dips below
    the roof on its way (by design: the fold sits on y = eps).
    """
    if side == "unstable":
        sec = SectionSpec("vertical", theta, ident="outflow")
        hit, _ = flow_to_section_traj(system.x_plus, (x_in, eps), sec)
    elif side == "stable":
        sec = SectionSpec("vertical", -rho, ident="inflow")
        hit, _ = flow_to_section_traj(system.x_plus, (x_in, eps), sec,
                                      t_direction="backward")
    else:
        raise ValueError("side must be 'unstable' or 'stable'")
    return float(hit.point[1])


def grazing_exponent_fit(system: FilippovSystem, eps: float, psi: float,
                         side: str, theta: float, rho: float,
                         offsets: Sequence[float]) -> dict:
    """Fit |out(psi + d) - out(psi)| = |kappa| d^p over the given offsets d > 0.

    Returns the exponent p (expected 2k), the signed prefactor kappa, and the
    fit's r^2.  Offsets are measured from the fold on the grazing side
    (forward map: d > 0; backward map: d > 0 as well, both orbits graze)."""
    base = grazing_half_map(system, eps, psi, psi, side, theta, rho)
    ds, gaps, signs = [], [], []
    for d in offsets:
        out = grazing_half_map(system, eps, psi + d, psi, side, theta, rho)
        gap = out - base
        if gap == 0.0:
            continue
        ds.append(d)
        gaps.append(abs(gap))
        signs.append(math.copysign(1.0, gap))
    exponent, intercept, r2 = fit_line(np.log(ds), np.log(gaps))
    return {
        "exponent": exponent,
        "kappa": signs[0] * math.exp(intercept),
        "r2": r2,
        "base": base,
        "n_offsets": len(ds),
    }

"""Adaptive integration with dense output and refined section events.

Every ODE solve of the package runs in one of two lean steppers with one
contract, ``(rhs, t_span, y0, config, stops, admit) -> (Segment, stop)``,
and one step loop (``_Run``: scipy's step-size clamping, clipping to the
span's end and terminal-event rules), each stepper giving only its step
attempt and step-size rule:

* ``_dop853``, the default (8th-order embedded pair with a matching-order
  interpolant; Hairer, Norsett & Wanner, *Solving ODEs I*, II.5 and II.6).
  It runs scipy's method with scipy's coefficients and step control: the
  products with the tableau are the numpy (BLAS) calls scipy makes, the
  elementwise arithmetic runs on Python floats, so every step, state and
  dense output is ``solve_ivp``'s, bit for bit.
* ``_radau``, Radau IIA of order 5 (Hairer & Wanner, *Solving ODEs II*,
  IV.8) for stiff 2-D legs, with scipy's constants, Newton iteration and
  step control, its linear algebra done in closed form on Python floats and
  an exact Jacobian from the field.

Every right-hand side (``RHS``) takes ``(t, y)``, the state a list of Python
floats, and returns a sequence of floats that the steppers use as it is; the
fields' generated kernels return a tuple.

``flow_to_section_traj`` picks the stepper per leg, in one place: a field
with an exact ``jacobian`` (a ``BandField``) whose time-scale ratio
|d yhat'/d yhat| / eps at the start point exceeds ``STIFF_RATIO`` runs
``_radau``; every other leg runs ``_dop853``.

A run's dense output is one stacked form in its ``Segment``: per step the
start, the full length and the polynomial's coefficient rows, evaluated by
the method's Horner routine (``_dop853_horner``, ``_radau_horner``) at one
time (``Segment.__call__``) or at an array of times (``Segment.dense``).

The module runs on numpy alone.  What it carries of scipy is ported, and
checked against scipy bit for bit by the tests: the coefficient tables
(``regtang._tableaux``), the input checks and first-step choice of a run
(``_start``), the DOP853 dense output and its choice of step at a time
(scipy's ``OdeSolution``), and the root finder ``brentq``.

Stops are checked after each step exactly as ``solve_ivp`` checks terminal
events.  A leg to a section is one run: a stop may turn a root down (a
crossing outside the section's interval or against its direction), and the
same solver then steps on.  Section crossings are located on the dense
output, evaluated on a sub-step grid in one batched pass, and verified
against ``event_tol``.  A leg that ends without an admissible crossing is
checked for a tangential touch of its target section: a turning point of the
residual within ``sqrt(event_tol)`` of zero is surfaced as
``TangentialGraze`` (a ``NoCrossing``) instead of a plain ``NoCrossing``.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import _tableaux as tab
from .errors import (ConditionViolated, DomainExit, NoCrossing, StepSizeUnderflow,
                     TangentialGraze)

RHS = Callable[[float, List[float]], Sequence[float]]  # see the module docstring

_EPS = float(np.finfo(float).eps)


@dataclass
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf
    event_tol: float = 1e-12
    max_time: float = 1e6
    norm_guard: float = 1e6  # trajectory norm bound; beyond it -> DomainExit

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.event_tol > self.rtol:
            raise ValueError("event_tol must not exceed rtol")


@dataclass(frozen=True)
class EventHit:
    t: float
    point: np.ndarray
    section_id: str
    direction: str  # 'up' (residual increasing in integration time) or 'down'


@dataclass
class SectionSpec:
    kind: str                      # 'vertical' (x = c) or 'horizontal' (y = c)
    c: float
    interval: Tuple[float, float] = (-math.inf, math.inf)
    direction: Optional[str] = None  # 'up' / 'down' / None (both)
    ident: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("vertical", "horizontal"):
            raise ValueError(f"unknown section kind {self.kind!r}")
        if self.direction not in (None, "up", "down"):
            raise ValueError(f"unknown section direction {self.direction!r}")
        if not self.interval[0] < self.interval[1]:
            raise ValueError("section interval is degenerate")
        if self.ident is None:
            self.ident = f"{self.kind}:{self.c:g}"

    def residual(self, p: Sequence[float]) -> float:
        return p[0] - self.c if self.kind == "vertical" else p[1] - self.c

    def other(self, p: Sequence[float]) -> float:
        return p[1] if self.kind == "vertical" else p[0]

    def admits(self, p: Sequence[float]) -> bool:
        lo, hi = self.interval
        return lo <= self.other(p) <= hi

    def residual_rate(self, dp: Sequence[float]) -> float:
        return dp[0] if self.kind == "vertical" else dp[1]


# --------------------------------------------------------------------------
# dense output: one polynomial per step, stacked per run
# --------------------------------------------------------------------------

def _dop853_horner(rows, x, y_old):
    """scipy's ``Dop853DenseOutput``: ``y_old`` plus the polynomial with
    coefficient rows ``F`` in x = (t - t_old)/h, by its alternating Horner
    loop.  ``rows`` yields the rows highest first, each of shape (n,) for one
    time or (m, n) for m times (``x`` then of shape (m, 1))."""
    one_minus_x = 1 - x
    rows = iter(rows)
    y = 0.0 + next(rows)  # scipy's loop starts from zeros
    y *= x
    for i, f in enumerate(rows, start=1):
        y += f
        y *= one_minus_x if i % 2 else x
    y += y_old
    return y


def _radau_horner(rows, x, y_old):
    """The Radau IIA(5) collocation polynomial ``y_old + Q0 x + Q1 x**2 +
    Q2 x**3`` in x = (t - t_old)/h, by Horner's rule, elementwise; ``rows``
    yields Q2, Q1, Q0, shaped as in ``_dop853_horner``."""
    rows = iter(rows)
    y = next(rows) * x
    for q in rows:
        y += q
        y *= x
    y += y_old
    return y


def _step_state(horner, coef: Optional[np.ndarray], t_old: float, h: float,
                y_old: np.ndarray, t: float) -> np.ndarray:
    """The state at time ``t`` on the dense output of one step from
    ``(t_old, y_old)`` of full length ``h`` with coefficient rows ``coef``
    (None: the constant state of a zero-length span)."""
    if coef is None:
        return y_old
    return horner(reversed(coef), (t - t_old) / h, y_old)


@dataclass
class Segment:
    """One solver run: the step ends ``t``, the states ``y`` (shape
    (n, len(t))), the run's dense output and the solver's work counts.

    The dense output is stacked, one entry per step: step i starts at
    ``(t[i], y[:, i])`` and has the full length ``h[i]``, and ``coef[i]``
    holds its polynomial's coefficient rows, lowest power first, which
    ``horner`` evaluates (``_dop853_horner`` on DOP853's 7 rows ``F``,
    ``_radau_horner`` on Radau's 3 rows ``Q``; ``coef`` has shape
    (len(h), rows, n)).  The last step of a run stopped by an event keeps its
    full step; ``t[-1]`` is the event time.  A zero-length span has one step
    of length 0 and no ``coef``: its state is constant.

    A time takes the step scipy's ``OdeSolution`` picks: on a step boundary
    the earlier step, outside the run the nearest end step.
    """
    t: np.ndarray
    y: np.ndarray
    h: np.ndarray
    coef: Optional[np.ndarray]
    horner: Callable
    nfev: int
    njev: int
    nlu: int

    def _steps(self, ts):
        """The step index of each time in ``ts`` (a float or an array),
        searched among the inner step ends, which clips it to the run."""
        t = self.t
        if t[-1] >= t[0]:
            return np.searchsorted(t[1:-1], ts, side="left")
        return len(self.h) - 1 - np.searchsorted(t[-2:0:-1], ts, side="right")

    def __call__(self, t: float) -> np.ndarray:
        """The state (shape (n,)) at time ``t``, from its step's block."""
        i = self._steps(t)
        return _step_state(self.horner, None if self.coef is None else self.coef[i],
                           self.t[i], self.h[i], self.y[:, i], t)

    def dense(self, ts: np.ndarray) -> np.ndarray:
        """The states (shape (n, len(ts))) at a 1-D array of times, in one
        numpy pass over the stacked steps, each bit for bit ``self(t)``."""
        if self.coef is None:
            return np.repeat(self.y[:, :1], len(ts), axis=1)
        seg = self._steps(ts)
        x = ((ts - self.t[seg]) / self.h[seg])[:, None]
        # one coefficient row at a time: gathering coef[seg] whole costs
        # len(ts) x rows x n floats at once
        rows = (self.coef[seg, r] for r in reversed(range(self.coef.shape[1])))
        return self.horner(rows, x, self.y.T[seg]).T


@dataclass
class Trajectory:
    t: np.ndarray
    points: np.ndarray  # one state per row, (len(t), d): d = 2, or 3 with a divergence integral
    events: List[EventHit] = dc_field(default_factory=list)
    segments: List[Segment] = dc_field(default_factory=list, repr=False)

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def __len__(self) -> int:
        return len(self.t)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with one row per accepted step; event rows carry the section id."""
    lines = ["t,x,y,event"]
    for ti, (xi, yi) in zip(traj.t, traj.points):
        lines.append(f"{ti:.17g},{xi:.17g},{yi:.17g},")
    for ev in traj.events:
        lines.append(
            f"{ev.t:.17g},{ev.point[0]:.17g},{ev.point[1]:.17g},{ev.section_id}"
        )
    return "\n".join(lines) + "\n"


def _as_rhs(field) -> RHS:
    if not hasattr(field, "eval"):  # already a right-hand side
        return field
    ev = field.eval

    def rhs(t: float, p: List[float]) -> Sequence[float]:
        x, y = p  # Python floats: the kernels' math stays off np.float64
        return ev(x, y)

    return rhs


def _hit_direction(rate: float, forward: bool) -> str:
    along_orbit = rate if forward else -rate
    return "up" if along_orbit > 0 else "down"


def _classify(sec: SectionSpec, t: float, p: np.ndarray, rate: float,
              forward: bool) -> Optional[EventHit]:
    """The hit, if the crossing lies in the section's interval and runs in its
    admitted sense; None otherwise."""
    if not sec.admits(p):
        return None
    d = _hit_direction(rate, forward)
    if sec.direction is not None and d != sec.direction:
        return None
    return EventHit(t, p, sec.ident, d)


# scipy.optimize.brentq's least (and default) rtol
BRENTQ_RTOL = 4 * _EPS


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
           rtol: float = BRENTQ_RTOL, maxiter: int = 100) -> float:
    """A root of ``f`` in [a, b], where ``f(a)`` and ``f(b)`` differ in sign,
    by Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4).

    This is ``scipy.optimize.brentq``: its C loop on Python floats, which
    calls ``f`` at the same abscissae and returns the same root, bit for bit,
    and its wrapper's checks.  ``ValueError`` for xtol <= 0, rtol below
    ``BRENTQ_RTOL``, maxiter < 0, a NaN value of ``f`` or no sign change;
    ``RuntimeError`` when ``maxiter`` iterations do not converge.
    """
    xtol, rtol, maxiter = float(xtol), float(rtol), operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < BRENTQ_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {BRENTQ_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    sign = partial(math.copysign, 1.0)  # C's signbit, on nonzero values
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if sign(fpre) == sign(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and sign(fpre) != sign(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # C divides to inf or NaN, and then bisects
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# On smooth polynomial fields DOP853's error estimate can vanish and the step
# size explodes; scipy then only reports an event when the residual's sign
# differs at the step endpoints, so a dip across a section and back inside a
# single step is silently lost.  Crossings are therefore located by scanning
# the dense interpolant on a sub-step grid instead of trusting the endpoint
# test.
SCAN_SUBDIV = 8


def _scan_grid(seg: Segment) -> np.ndarray:
    ts = seg.t
    frac = np.arange(SCAN_SUBDIV) / SCAN_SUBDIV
    grid = ts[:-1, None] + np.diff(ts)[:, None] * frac[None, :]
    return np.append(grid.ravel(), ts[-1])


def _scan_crossings(seg: Segment, rhs: RHS, forward: bool,
                    sections: Sequence[SectionSpec]):
    """Locate every section crossing on a segment's dense output.

    Sign changes of each residual are bracketed on the sub-step grid and
    polished with brentq on the same dense output: ``seg(s)`` evaluates, at
    every time, the step polynomial whose batched values ``seg.dense`` gave
    the scan, bit for bit, so a bracket holds its sign change also where the
    polynomials of two steps do not join exactly.
    Returns (t, point, section, rate) tuples ordered along the orbit.
    """
    if not sections:
        return []
    ts = _scan_grid(seg)
    pts = seg.dense(ts)
    found = []
    for sec in sections:
        vals = (pts[0] if sec.kind == "vertical" else pts[1]) - sec.c
        sgn = np.sign(vals)
        flips = np.append(sgn[:-1] * sgn[1:] < 0, False)
        for i in np.flatnonzero((sgn == 0.0) | flips):
            if sgn[i] == 0.0:
                te = float(ts[i])
            else:
                lo, hi = sorted((float(ts[i]), float(ts[i + 1])))
                te = brentq(lambda s: sec.residual(seg(s)), lo, hi,
                            xtol=1e-15, rtol=8.9e-16)
            if found and found[-1][2] is sec and abs(te - found[-1][0]) < 1e-12:
                continue
            pe = np.array(seg(te))
            rate = sec.residual_rate(rhs(te, pe.tolist()))
            found.append((float(te), pe, sec, float(rate)))
    found.sort(key=lambda item: item[0], reverse=not forward)
    return found


def _admitted_hits(seg: Segment, rhs: RHS, forward: bool,
                   sections: Sequence[SectionSpec]):
    """Yield (section, hit) for each scanned crossing that its section admits,
    in orbit order."""
    for te, pe, sec, rate in _scan_crossings(seg, rhs, forward, sections):
        hit = _classify(sec, te, pe, rate, forward)
        if hit is not None:
            yield sec, hit


def _find_graze(seg: Segment, rhs: RHS, section: SectionSpec,
                config: IntegratorConfig) -> Optional[Tuple[float, np.ndarray]]:
    """First turning point of the section residual within sqrt(event_tol) of
    zero, as (t, point); None if the orbit never comes that close.

    Candidates are the extrema of the residual on the segment's scan grid;
    only those are polished, with brentq on the residual's rate along the
    same dense output (see ``_scan_crossings``).
    """
    band = math.sqrt(config.event_tol)

    def rate(s):
        return section.residual_rate(rhs(s, seg(s).tolist()))
    ts = _scan_grid(seg)
    d = np.diff(section.residual(seg.dense(ts)))
    for i in np.flatnonzero(d[:-1] * d[1:] < 0) + 1:
        lo, hi = sorted((float(ts[i - 1]), float(ts[i + 1])))
        tg = float(ts[i])
        if rate(lo) * rate(hi) < 0:
            tg = brentq(rate, lo, hi, xtol=1e-15, rtol=8.9e-16)
        pg = np.array(seg(tg))
        if abs(section.residual(pg)) < band:
            return tg, pg
    return None


# solve_ivp's tolerance for the root of a terminal event on a step's interpolant
EVENT_ROOT_TOL = 4 * _EPS


def _rms_norm(x: np.ndarray) -> float:
    """scipy's RMS ``norm``."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun: Callable[[float, np.ndarray], np.ndarray], t0: float,
                  y0: np.ndarray, t_bound: float, max_step: float, f0: np.ndarray,
                  direction: float, order: int, rtol: float, atol: float) -> float:
    """scipy's ``select_initial_step`` (Hairer, Norsett & Wanner, *Solving
    ODEs I*, II.4): the first step size of a method whose error estimate is
    of ``order``, from one call of ``fun`` (none for a zero-length span).
    """
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms_norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval_length, max_step)


def _start(rhs: RHS, t: float, t_bound: float, y0: np.ndarray,
           config: IntegratorConfig, order: int):
    """What scipy's solver constructors do before the first step.

    The inputs are checked as ``check_arguments``, ``validate_max_step`` and
    ``validate_tol`` check them, with the same errors (``ValueError``) and the
    same warning and clamp for an rtol below 100 eps; ``rhs`` is called at the
    start, and the first step is chosen (``_initial_step``).  Returns
    ``(y, f, rtol, atol, direction, h_abs, nfev)``: the start state and its
    RHS value as arrays, the rest as Python floats and the count of RHS calls.
    """
    y = np.asarray(y0)
    if np.issubdtype(y.dtype, np.complexfloating):
        raise ValueError("`y0` is complex, but the chosen solver does not support "
                         "integration in a complex domain.")
    y = y.astype(float, copy=False)
    if y.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if config.max_step <= 0:
        raise ValueError("`max_step` must be positive.")
    rtol, atol = config.rtol, config.atol
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.", stacklevel=4)
        rtol = max(rtol, 100 * _EPS)
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    direction = float(np.sign(t_bound - t)) if t_bound != t else 1.0
    nfev = 0

    def fun(s: float, p: np.ndarray) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(s, p.tolist()), dtype=float)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, config.max_step, f, direction, order,
                          rtol, atol)
    return y, f, float(rtol), float(atol), direction, float(h_abs), nfev


# the DOP853 tableau as (s, row s of A, c_s): the stages of a step, and the
# three extra stages of the dense output
_N = tab.N_STAGES
_STAGES = [(s, tab.A[s, :s], float(tab.C[s])) for s in range(1, _N)]
_EXTRA = [(s, a[:s], float(c)) for s, (a, c) in
          enumerate(zip(tab.A_EXTRA, tab.C_EXTRA), start=_N + 1)]
_ERROR_EXPONENT = -1 / (tab.ERROR_ESTIMATOR_ORDER + 1)


def _fill_stages(rhs: RHS, KT: List[np.ndarray], rows: List[np.ndarray], t: float,
                 y: List[float], h: float, stages) -> None:
    """``K[s] = rhs(t + c*h, y + K[:s].T.dot(a)*h)`` for the stages (s, a, c):
    the stage loop of scipy's ``rk_step``.  ``KT[s]`` is the view
    ``K[:s].T`` and ``rows[s]`` the view ``K[s]``."""
    idx = range(len(y))
    for s, a, c in stages:
        dy = KT[s].dot(a).tolist()
        rows[s][...] = rhs(t + c * h, [y[i] + dy[i] * h for i in idx])


def _error_norm(KT: np.ndarray, h: float, y: List[float], y_new: List[float],
                rtol: float, atol: float) -> float:
    """scipy's ``DOP853._estimate_error_norm``; ``KT`` is the view ``K[:13].T``
    of the 13 stages of the step."""
    # np.maximum's rule: NaN if either is NaN
    scale = np.array([atol + (b if a < b or b != b else a) * rtol
                      for a, b in zip(map(abs, y), map(abs, y_new))])
    e5 = KT.dot(tab.E5) / scale
    e3 = KT.dot(tab.E3) / scale
    # squared np.linalg.norm, as scipy computes it
    e5, e3 = math.sqrt(e5.dot(e5)) ** 2, math.sqrt(e3.dot(e3)) ** 2
    if e5 == 0 and e3 == 0:
        return 0.0
    denom = math.sqrt((e5 + 0.01 * e3) * len(y))
    # denom is 0 only when e5 is 0 and 0.01 * e3 underflows: numpy's 0/0
    return abs(h) * e5 / denom if denom else math.nan


def _interpolant(K: np.ndarray, h: float, y: List[float], y_new: List[float],
                 f: List[float], f_new: List[float]) -> np.ndarray:
    """The coefficients ``F`` of scipy's ``_dense_output_impl``, once the extra
    stages are in ``K``."""
    delta = [b - a for a, b in zip(y, y_new)]
    F = np.empty((tab.INTERPOLATOR_POWER, len(y)))
    F[0] = delta
    F[1] = [h * fo - d for fo, d in zip(f, delta)]
    F[2] = [2 * d - h * (fn + fo) for d, fn, fo in zip(delta, f_new, f)]
    F[3:] = h * tab.D.dot(K)
    return F


class _Run:
    """One solver run: the step loop both steppers share, and the stops.

    ``run(attempt)`` is the loop of scipy's ``OdeSolver.step``: a zero-length
    span takes no step; otherwise the proposed size ``h_abs`` is clamped to
    [min_step, max_step], each try is clipped to ``t_bound``, a size below
    min_step raises ``StepSizeUnderflow``, and each accepted step is
    ``record``ed.  ``attempt(t, t_new, h, rejected, clamped)`` is the
    stepper's step attempt and step-size rule: it tries the step ``h`` from
    ``t`` to ``t_new`` (``rejected``: an earlier try of this step was;
    ``clamped``: the step's first size was) and returns ``(size, rejected,
    None)`` to retry with that size, or, once it accepts, the next step's
    proposed size and ``(state, coefficient rows)``, the state as the list
    the stepper computed.  The start state is kept as lists of Python floats,
    ``y`` and ``f``; ``run`` stacks the states once, into its ``Segment``.

    ``record`` keeps a step's dense output and then checks the stops as
    ``solve_ivp`` checks terminal events: a stop is active on a step when its
    value changes sign or touches zero between the step's ends, its root is
    found by brentq on the step's dense output, the root earliest along the
    orbit wins (the lower index on a tie), and the run ends at that root.
    ``admit(i, g, g_new, y)`` may turn down the root ``y`` of stop ``i``,
    whose value went from ``g`` to ``g_new`` over the step.
    """

    def __init__(self, rhs: RHS, t_span: Tuple[float, float], y0: np.ndarray,
                 config: IntegratorConfig, stops: Sequence[Callable[[Sequence[float]], float]],
                 admit: Optional[Callable[[int, float, float, np.ndarray], bool]],
                 order: int, horner: Callable):
        self.t, self.t_bound = map(float, t_span)
        y, f, self.rtol, self.atol, self.direction, self.h_abs, self.nfev = _start(
            rhs, self.t, self.t_bound, y0, config, order)
        self.y, self.f = y.tolist(), f.tolist()
        self.max_step, self.horner, self.njev, self.nlu = config.max_step, horner, 0, 0
        self.ts, self.ys, self.steps = [self.t], [y], []
        self.stops, self.admit = stops, admit
        self.g = [stop(y) for stop in stops]

    def run(self, attempt) -> Tuple[Segment, Optional[Tuple[int, float, np.ndarray]]]:
        """Step to ``t_bound`` or to the first stop: the segment and
        ``(stop index, t, state)`` of the stop that ended it, or None."""
        t, t_bound, direction, max_step = self.t, self.t_bound, self.direction, self.max_step
        hit, running = None, True
        while hit is None and running:
            if t == t_bound:  # zero-length span: no step
                t_new, h, step = t, 0.0, (self.ys[-1], None)
                running = False
            else:
                min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
                clamped = True
                if self.h_abs > max_step:
                    step_abs = max_step
                elif self.h_abs < min_step:
                    step_abs = min_step
                else:
                    step_abs, clamped = self.h_abs, False
                rejected, step = False, None
                while step is None:
                    if step_abs < min_step:
                        raise StepSizeUnderflow(tab.TOO_SMALL_STEP)
                    t_new = t + step_abs * direction
                    if direction * (t_new - t_bound) > 0:
                        t_new = t_bound
                    h = t_new - t
                    step_abs, rejected, step = attempt(t, t_new, h, rejected, clamped)
                self.h_abs = step_abs
                running = direction * (t_new - t_bound) < 0
            hit = self.record(t, t_new, h, *step)
            t = t_new
        hs, coefs = zip(*self.steps)
        return Segment(t=np.array(self.ts), y=np.vstack(self.ys).T, h=np.array(hs),
                       coef=None if coefs[0] is None else np.array(coefs),
                       horner=self.horner, nfev=self.nfev, njev=self.njev,
                       nlu=self.nlu), hit

    def record(self, t_old: float, t: float, h: float, y: Sequence[float],
               coef: Optional[np.ndarray]) -> Optional[Tuple[int, float, np.ndarray]]:
        """Keep the step of full length ``h`` from ``t_old`` to ``(t, y)``
        with its coefficient rows ``coef``; return ``(stop index, t, state)``
        of the stop that ends the run on it, or None."""
        y_old = self.ys[-1]
        self.steps.append((h, coef))
        g_new = [stop(y) for stop in self.stops]
        roots = []
        for i, (a, b) in enumerate(zip(self.g, g_new)):
            if (a <= 0 and b >= 0) or (a >= 0 and b <= 0):
                state = partial(_step_state, self.horner, coef, t_old, h, y_old)
                te = brentq(lambda s, stop=self.stops[i]: stop(state(s)), t_old, t,
                            xtol=EVENT_ROOT_TOL, rtol=EVENT_ROOT_TOL)
                ye = state(te)
                if self.admit is None or self.admit(i, a, b, ye):
                    roots.append((te, i, ye))
        self.g = g_new
        hit = None
        if roots:
            sense = 1.0 if t > t_old else -1.0
            t, i, y = min(roots, key=lambda r: (sense * r[0], r[1]))
            hit = (i, t, y)
        if len(self.ts) > 1 and self.ts[-1] == t:
            self.steps.pop()  # a stop at the previous step's end: nothing new
        else:
            self.ts.append(t)
            self.ys.append(y)
        return hit


def _dop853(rhs: RHS, t_span: Tuple[float, float], y0: np.ndarray,
            config: IntegratorConfig, stops: Sequence[Callable[[Sequence[float]], float]],
            admit: Optional[Callable[[int, float, float, np.ndarray], bool]] = None
            ) -> Tuple[Segment, Optional[Tuple[int, float, np.ndarray]]]:
    """Step DOP853 over ``t_span`` keeping every step's dense output, and stop
    at the first zero of one of ``stops`` (functions of the state).

    This is ``solve_ivp(method="DOP853", dense_output=True)`` with the stops
    as terminal events, step for step (``_Run``; checked also on the step
    that finishes the span).  ``admit`` may turn a root down, and the same
    solver then steps on.  Returns the segment and ``(stop index, t, state)``
    of the stop that ended it, or None.

    The steps are scipy's method with scipy's coefficients and step control
    (its ``rk_step``, ``_estimate_error_norm`` and ``_dense_output_impl``),
    taken here: every product with the tableau is the numpy call scipy makes,
    on the same stage array, and every elementwise operation runs on Python
    floats, one IEEE operation each, so every number is scipy's, bit for bit.
    ``rhs`` receives the state as a list of Python floats.  The inputs are
    checked and the first step chosen as scipy does (``_start``).
    """
    run = _Run(rhs, t_span, y0, config, stops, admit, tab.ERROR_ESTIMATOR_ORDER,
               _dop853_horner)
    y, f = run.y, run.f
    # one row per stage, the dense output's three last
    K = np.empty((tab.N_STAGES_EXTENDED, len(y)))
    KT = [K[:s].T for s in range(len(K))]
    rows = list(K)
    K[0] = f

    def attempt(t, t_new, h, rejected, clamped):
        nonlocal y, f
        _fill_stages(rhs, KT, rows, t, y, h, _STAGES)
        dy = KT[_N].dot(tab.B).tolist()
        y_new = [yi + h * di for yi, di in zip(y, dy)]
        rows[_N][...] = rhs(t + h, y_new)
        run.nfev += _N
        error_norm = _error_norm(KT[_N + 1], h, y, y_new, run.rtol, run.atol)
        if not error_norm < 1:
            factor = max(tab.MIN_FACTOR, tab.SAFETY * error_norm ** _ERROR_EXPONENT)
            return abs(h) * factor, True, None
        if error_norm == 0:
            factor = tab.MAX_FACTOR
        else:
            factor = min(tab.MAX_FACTOR, tab.SAFETY * error_norm ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        _fill_stages(rhs, KT, rows, t, y, h, _EXTRA)
        run.nfev += len(_EXTRA)
        f_new = K[_N].tolist()
        F = _interpolant(K, h, y, y_new, f, f_new)
        y, f = y_new, f_new
        rows[0][...] = rows[_N]
        return abs(h) * factor, rejected, (y_new, F)
    return run.run(attempt)


# the Radau IIA(5) constants: nodes C, error weights E, the transformation
# T / TI that splits the collocation system into one real and one complex
# linear solve, and the dense-output matrix P
_RC, _RE, _RT, _RTI = tab.RADAU_C, tab.RADAU_E, tab.RADAU_T, tab.RADAU_TI
_RTI_COMPLEX, _RP = tab.RADAU_TI_COMPLEX, tab.RADAU_P
_MU_REAL, _MU_COMPLEX = tab.MU_REAL, tab.MU_COMPLEX
_NEWTON_MAXITER = tab.NEWTON_MAXITER


def _inverse2(m, J):
    """Entries (a, b, c, d) of the inverse of ``m*I - J`` for a 2x2 ``J``, by
    the closed form; m is real or complex."""
    (j11, j12), (j21, j22) = J
    p, q = m - j11, m - j22
    det = p * q - j12 * j21
    return q / det, j12 / det, j21 / det, p / det


def _predict_factor(h_abs: float, h_abs_old: Optional[float], error_norm: float,
                    error_norm_old: Optional[float]) -> float:
    """scipy's ``radau.predict_factor`` (Hairer & Wanner IV.8) on floats."""
    if error_norm_old is None or h_abs_old is None or error_norm == 0:
        multiplier = 1.0
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    if error_norm == 0:
        return math.inf
    return min(1.0, multiplier) * error_norm ** -0.25


def _collocation(rhs: RHS, t: float, y: List[float], h: float, Z0: List[List[float]],
                 scale: List[float], tol: float, inv_real, inv_complex):
    """scipy's ``radau.solve_collocation_system`` for a 2-D state on Python
    floats: simplified Newton iterations on the transformed stages W = TI Z,
    each one real and one complex 2x2 solve with the inverses ``inv_*``,
    and three calls of ``rhs``.  Returns (converged, iterations, Z, rate)."""
    m_real, m_complex = _MU_REAL / h, _MU_COMPLEX / h
    (a, b, c, d), (ac, bc, cc, dc) = inv_real, inv_complex
    (r0, r1, r2), (i0, i1, i2) = _RTI[0], _RTI_COMPLEX  # TI_REAL is TI[0]
    W = [[row[0] * Z0[0][j] + row[1] * Z0[1][j] + row[2] * Z0[2][j] for j in (0, 1)]
         for row in _RTI]
    Z = Z0
    ch = [h * cn for cn in _RC]
    y0, y1 = y
    dW_norm_old = rate = None
    for k in range(_NEWTON_MAXITER):
        (f00, f01), (f10, f11), (f20, f21) = [
            rhs(t + ch[i], [y0 + Z[i][0], y1 + Z[i][1]]) for i in range(3)]
        if not all(map(math.isfinite, (f00, f01, f10, f11, f20, f21))):
            break
        fr0 = f00 * r0 + f10 * r1 + f20 * r2 - m_real * W[0][0]
        fr1 = f01 * r0 + f11 * r1 + f21 * r2 - m_real * W[0][1]
        fc0 = f00 * i0 + f10 * i1 + f20 * i2 - m_complex * complex(W[1][0], W[2][0])
        fc1 = f01 * i0 + f11 * i1 + f21 * i2 - m_complex * complex(W[1][1], W[2][1])
        dc0, dc1 = ac * fc0 + bc * fc1, cc * fc0 + dc * fc1
        dW = [[a * fr0 + b * fr1, c * fr0 + d * fr1],
              [dc0.real, dc1.real], [dc0.imag, dc1.imag]]
        s0, s1 = scale
        dW_norm = math.sqrt(sum((u / s0) ** 2 + (v / s1) ** 2 for u, v in dW) / 6)
        if dW_norm_old is not None:
            rate = dW_norm / dW_norm_old
        if rate is not None and (rate >= 1 or
                                 rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dW_norm > tol):
            break
        W = [[w + dw for w, dw in zip(wr, dwr)] for wr, dwr in zip(W, dW)]
        Z = [[row[0] * W[0][j] + row[1] * W[1][j] + row[2] * W[2][j] for j in (0, 1)]
             for row in _RT]
        if dW_norm == 0 or rate is not None and rate / (1 - rate) * dW_norm < tol:
            return True, k + 1, Z, rate
        dW_norm_old = dW_norm
    return False, k + 1, Z, rate


def _rms(v: Sequence[float], scale: Sequence[float]) -> float:
    return math.sqrt(sum((a / s) ** 2 for a, s in zip(v, scale)) / len(v))


def _radau(rhs: RHS, t_span: Tuple[float, float], y0: np.ndarray,
           config: IntegratorConfig, stops: Sequence[Callable[[Sequence[float]], float]],
           admit: Optional[Callable[[int, float, float, np.ndarray], bool]] = None, *,
           jac: Callable[[float, List[float]], Sequence[Sequence[float]]]
           ) -> Tuple[Segment, Optional[Tuple[int, float, np.ndarray]]]:
    """Step Radau IIA(5) over ``t_span`` for a 2-D state with the exact
    Jacobian ``jac(t, y)``; stops, ``admit`` and the result as in ``_dop853``.

    The method, step-size control (``predict_factor``), Newton iteration
    (``solve_collocation_system``), error estimate and Jacobian reuse are
    scipy's ``Radau._step_impl``; the linear algebra is the closed-form
    inverse of the real and the complex 2x2 matrix (``_inverse2``, two "LU"
    per factorization in ``nlu``) and every operation runs on Python floats.
    Bit-identity with scipy's ``Radau`` is not sought.  Each step keeps its
    collocation polynomial as dense output, which also predicts the next
    step's stages.  The inputs are checked and the first step chosen as
    scipy does (``_start``, with the error estimate's order 3).
    """
    run = _Run(rhs, t_span, y0, config, stops, admit, 3, _radau_horner)
    y, f, rtol, atol = run.y, run.f, run.rtol, run.atol
    newton_tol = max(10 * _EPS / config.rtol, min(0.03, config.rtol ** 0.5))
    J = np.asarray(jac(run.t, y), dtype=float)
    if J.shape != (2, 2):
        raise ValueError(f"`jac` is expected to have shape (2, 2), but actually has {J.shape}.")
    J, run.njev, current_jac = J.tolist(), 1, True
    inv = None  # the inverses of the real and the complex Newton matrix
    h_abs_old = error_norm_old = None
    prev = None  # (t_old, h, y_old, Q) of the last step

    def attempt(t, t_new, h, rejected, clamped):
        nonlocal y, f, J, current_jac, inv, h_abs_old, error_norm_old, prev
        # a clamped step size starts the step-size predictor afresh
        h_last, err_last = (None, None) if clamped else (h_abs_old, error_norm_old)
        if prev is None:
            Z0 = [[0.0, 0.0] for _ in _RC]
        else:  # the last step's polynomial, extrapolated
            pt, ph, py, pQ = prev
            Z0 = []
            for cn in _RC:
                x = (t + h * cn - pt) / ph
                Z0.append([((q[2] * x + q[1]) * x + q[0]) * x + yo - yi
                           for q, yo, yi in zip(pQ, py, y)])
        scale = [atol + abs(v) * rtol for v in y]
        converged = False
        while not converged:
            if inv is None:
                inv = _inverse2(_MU_REAL / h, J), _inverse2(_MU_COMPLEX / h, J)
                run.nlu += 2
            converged, n_iter, Z, rate = _collocation(rhs, t, y, h, Z0, scale, newton_tol,
                                                      *inv)
            run.nfev += 3 * n_iter
            if not converged:
                if current_jac:
                    break
                J = jac(t, y)
                run.njev += 1
                current_jac, inv = True, None
        if not converged:
            inv = None
            return abs(h) * 0.5, rejected, None
        y_new = [y[j] + Z[2][j] for j in (0, 1)]
        ZE = [(Z[0][j] * _RE[0] + Z[1][j] * _RE[1] + Z[2][j] * _RE[2]) / h for j in (0, 1)]
        a, b, c, d = inv[0]
        e0, e1 = f[0] + ZE[0], f[1] + ZE[1]
        error = [a * e0 + b * e1, c * e0 + d * e1]
        scale = [atol + max(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)]
        error_norm = _rms(error, scale)
        safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
        if rejected and error_norm > 1:
            fe = rhs(t, [y[j] + error[j] for j in (0, 1)])
            run.nfev += 1
            e0, e1 = fe[0] + ZE[0], fe[1] + ZE[1]
            error = [a * e0 + b * e1, c * e0 + d * e1]
            error_norm = _rms(error, scale)
        factor = _predict_factor(abs(h), h_last, error_norm, err_last)
        if error_norm > 1:
            inv = None
            return abs(h) * max(tab.RADAU_MIN_FACTOR, safety * factor), True, None
        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = min(tab.RADAU_MAX_FACTOR, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        else:
            inv = None
        f_new = rhs(t_new, y_new)
        run.nfev += 1
        if recompute_jac:
            J = jac(t_new, y_new)
            run.njev += 1
        current_jac = recompute_jac
        h_abs_old, error_norm_old = run.h_abs, error_norm
        # the collocation polynomial's coefficients, one row per component
        Q = [[Z[0][j] * p0 + Z[1][j] * p1 + Z[2][j] * p2 for p0, p1, p2 in zip(*_RP)]
             for j in (0, 1)]
        prev = (t, h, y, Q)
        y, f = y_new, f_new
        return abs(h) * factor, rejected, (y_new, np.array(Q).T)
    return run.run(attempt)


def _norm_guard(config: IntegratorConfig) -> Callable[[Sequence[float]], float]:
    bound = config.norm_guard

    def guard(p: Sequence[float]) -> float:
        return max(map(abs, p)) - bound
    return guard


def flow(
    field,
    p0: Sequence[float],
    t_span: Tuple[float, float],
    config: Optional[IntegratorConfig] = None,
    sections: Iterable[SectionSpec] = (),
) -> Trajectory:
    """Integrate over a fixed time span, recording (non-terminal) section hits."""
    if not (math.isfinite(t_span[0]) and math.isfinite(t_span[1])):
        raise ConditionViolated(f"t_span must be finite (got {tuple(t_span)!r})")
    config = config or IntegratorConfig()
    rhs = _as_rhs(field)
    sections = list(sections)
    forward = t_span[1] >= t_span[0]

    seg, stop = _dop853(rhs, t_span, np.asarray(p0, dtype=float), config,
                        [_norm_guard(config)])
    hits = [hit for _, hit in _admitted_hits(seg, rhs, forward, sections)]
    if stop is not None:
        raise DomainExit(
            f"trajectory norm exceeded {config.norm_guard:g} at t={stop[1]:g}"
        )
    return Trajectory(t=seg.t, points=seg.y.T.copy(), events=hits, segments=[seg])


def _nudge_off_section(rhs: RHS, t0: float, p0: List[float], sec: SectionSpec,
                       config: IntegratorConfig, forward: bool) -> Tuple[float, List[float]]:
    """Small RK4 steps until the residual clears the event band; the state is
    a list of Python floats, each operation elementwise."""
    sgn = 1.0 if forward else -1.0
    rate = abs(sec.residual_rate(rhs(t0, p0)))
    dt = 50.0 * config.event_tol / max(rate, 1e-9)
    dt = sgn * min(max(dt, 1e-13), 1e-3)
    for _ in range(60):
        k1 = rhs(t0, p0)
        k2 = rhs(t0 + dt / 2, [p + dt / 2 * k for p, k in zip(p0, k1)])
        k3 = rhs(t0 + dt / 2, [p + dt / 2 * k for p, k in zip(p0, k2)])
        k4 = rhs(t0 + dt, [p + dt * k for p, k in zip(p0, k3)])
        p1 = [p + dt / 6 * (a + 2 * b + 2 * c + d)
              for p, a, b, c, d in zip(p0, k1, k2, k3, k4)]
        t1 = t0 + dt
        if abs(sec.residual(p1)) > 10 * config.event_tol:
            return t1, p1
        t0, p0 = t1, p1
    return t0, p0


def _section_admit(section: SectionSpec):
    """Admission rule of the stopper (stop 0) of a leg to ``section``: a root
    outside the section's interval, or on a step whose residual change runs
    against the section's direction (``solve_ivp``'s ``direction`` rule), is
    turned down; the norm guard (stop 1) always stops."""
    def admit(i: int, g: float, g_new: float, p: np.ndarray) -> bool:
        if i != 0:
            return True
        if section.direction == "up" and not (g <= 0 and g_new >= 0):
            return False
        if section.direction == "down" and not (g >= 0 and g_new <= 0):
            return False
        return section.admits(p)
    return admit


# Stepper crossover: a leg whose field has an exact ``jacobian`` runs Radau
# IIA when its time-scale ratio |d yhat'/d yhat| / eps at the start point is
# above this (the per-leg table behind it is in CHANGES.md).
STIFF_RATIO = 1e4


def _stepper(field, p: List[float]):
    """The stepper of a leg of ``field`` from ``p``: ``_radau`` for a stiff
    leg of a field with an exact Jacobian, ``_dop853`` for every other."""
    jac = getattr(field, "jacobian", None)
    if jac is None or not abs(jac(*p)[1][1]) > STIFF_RATIO * field.eps:
        return _dop853
    return partial(_radau, jac=lambda t, q: jac(q[0], q[1]))


def flow_to_section_traj(
    field,
    p0: Sequence[float],
    section: SectionSpec,
    config: Optional[IntegratorConfig] = None,
    t_direction: str = "forward",
    record_sections: Iterable[SectionSpec] = (),
) -> Tuple[EventHit, Trajectory]:
    """Integrate until the section is crossed in the admitted sense.

    One solver run per leg, chosen by ``_stepper`` at the leg's start point:
    Radau IIA when the field has an exact ``jacobian`` and its time-scale
    ratio there exceeds ``STIFF_RATIO`` (the stiff layer legs of a
    ``BandField`` at small eps), DOP853 otherwise.  The crossing is located on the dense output and
    verified to ``event_tol``.  Crossings outside the section's interval or
    against its direction are skipped: the stopper turns them down and the
    same solver steps on.  Crossings of ``record_sections`` met on the way
    are recorded.  If no admissible crossing comes within ``max_time``, the
    residual is checked for a turning point within ``sqrt(event_tol)`` of
    zero: such a touch raises ``TangentialGraze``, anything else
    ``NoCrossing``.
    """
    config = config or IntegratorConfig()
    rhs = _as_rhs(field)
    forward = t_direction == "forward"
    record_sections = list(record_sections)

    t0 = 0.0
    p = np.asarray(p0, dtype=float).tolist()
    # Starting on the target section: the degenerate t=0 "crossing" is not the
    # one asked for; step off the section before arming the stopper.
    if abs(section.residual(p)) <= 10 * config.event_tol:
        t0, p = _nudge_off_section(rhs, t0, p, section, config, forward)
    remaining = max(config.max_time - abs(t0), 0.0)
    t_end = t0 + (remaining if forward else -remaining)

    # The stopper (stop 0) only bounds the work of the run; crossings
    # themselves are located by the dense-output scan, which also sees pairs
    # of crossings that cancel across one step.  Stop 1 is the norm guard.
    seg, stop = _stepper(field, p)(rhs, (t0, t_end), p, config,
                                   [section.residual, _norm_guard(config)],
                                   _section_admit(section))

    hit: Optional[EventHit] = None
    recorded: List[EventHit] = []
    for sec, ev in _admitted_hits(seg, rhs, forward, [section] + record_sections):
        if sec is section:
            hit = ev
            break
        recorded.append(ev)

    # A root landing exactly on the run's end (the stopper stops *at* the
    # section) may leave no sign change for the scan to bracket.
    if hit is None and stop is not None and stop[0] == 0:
        _, te, pe = stop
        rate = section.residual_rate(rhs(te, pe.tolist()))
        hit = EventHit(te, pe, section.ident,
                       section.direction or _hit_direction(rate, forward))

    if hit is not None:
        return hit, _assemble(seg, recorded, forward, hit)
    if stop is not None:
        raise DomainExit(
            f"trajectory norm exceeded {config.norm_guard:g} before reaching "
            f"section {section.ident}"
        )
    graze = _find_graze(seg, rhs, section, config)
    if graze is not None:
        tg, pg = graze
        raise TangentialGraze(
            f"residual of {section.ident} touched zero without crossing at t={tg:g}",
            t=tg, point=pg,
        )
    raise NoCrossing(
        f"no admissible crossing of {section.ident} within max_time={config.max_time:g}"
    )


def flow_to_section(
    field,
    p0: Sequence[float],
    section: SectionSpec,
    config: Optional[IntegratorConfig] = None,
    t_direction: str = "forward",
) -> EventHit:
    hit, _ = flow_to_section_traj(field, p0, section, config, t_direction)
    return hit


def _assemble(seg: Segment, recorded, forward, hit: EventHit) -> Trajectory:
    keep = (seg.t <= hit.t) if forward else (seg.t >= hit.t)
    t = np.append(seg.t[keep], hit.t)
    p = np.vstack([seg.y.T[keep], hit.point])
    events = sorted(recorded + [hit], key=lambda h: h.t, reverse=not forward)
    return Trajectory(t=t, points=p, events=events, segments=[seg])


def sample_dense(traj: Trajectory, n: int) -> np.ndarray:
    """Evaluate the dense output on n time points spanning the trajectory."""
    (seg,) = traj.segments
    return seg.dense(np.linspace(traj.t[0], traj.t[-1], n)).T


def __getattr__(name: str):
    # ``solve_ivp`` is not called here, and is resolved only on request:
    # perfbench/tracing.py wraps ``integrate.solve_ivp`` by name until it reads
    # the per-leg records (ROADMAP, open item 5)
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

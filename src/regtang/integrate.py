"""Adaptive integration with dense output and refined section events.

Every ODE solve of the package runs in one of two lean steppers with one
contract, ``(rhs, t_span, y0, config, stops, admit) -> (Segment, stop)``:

* ``_dop853``, the default (8th-order embedded pair with a matching-order
  interpolant; Hairer, Norsett & Wanner, *Solving ODEs I*, II.5 and II.6).
  It runs scipy's method with scipy's coefficients and step control in its
  own step loop: the products with the tableau are the numpy (BLAS) calls
  scipy makes, the elementwise arithmetic runs on Python floats, so every
  step, state and dense output is ``solve_ivp``'s, bit for bit.
* ``_radau``, Radau IIA of order 5 (Hairer & Wanner, *Solving ODEs II*,
  IV.8) for stiff 2-D legs, with scipy's constants, Newton iteration and
  step control, its linear algebra done in closed form on Python floats and
  an exact Jacobian from the field.

``flow_to_section_traj`` picks the stepper per leg, in one place: a field
with an exact ``jacobian`` (a ``BandField`` with polynomial zone fields)
whose time-scale ratio |d yhat'/d yhat| / eps at the start point exceeds
``STIFF_RATIO`` runs ``_radau``; every other leg runs ``_dop853``.

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
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import DOP853, OdeSolution, Radau
from scipy.integrate._ivp import radau as _radau_ivp
from scipy.integrate._ivp.base import ConstantDenseOutput, DenseOutput
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY, Dop853DenseOutput
from scipy.integrate import solve_ivp  # noqa: F401  not called; perfbench/tracing.py wraps it by name
from scipy.optimize import brentq

from .errors import DomainExit, NoCrossing, StepSizeUnderflow, TangentialGraze

RHS = Callable[[float, List[float]], np.ndarray]


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


def _cubic(q2, q1, q0, x):
    """((q2 x + q1) x + q0) x, one elementwise numpy operation at a time."""
    y = q2 * x
    y += q1
    y *= x
    y += q0
    y *= x
    return y


class RadauStep(DenseOutput):
    """Dense output of one Radau IIA(5) step: the cubic collocation
    polynomial ``y_old + Q[:, 0] x + Q[:, 1] x**2 + Q[:, 2] x**3`` with
    x = (t - t_old)/h, evaluated by Horner's rule (``_cubic``), elementwise,
    so that a batched evaluation (``Segment.dense``) gives the same bits."""

    def __init__(self, t_old: float, t: float, y_old: np.ndarray, Q: np.ndarray):
        super().__init__(t_old, t)
        self.h = t - t_old
        self.Q = Q  # shape (n, 3)
        self.y_old = y_old

    def _call_impl(self, t):
        x = (t - self.t_old) / self.h
        Q, y_old = self.Q, self.y_old
        if x.ndim:
            Q, y_old = Q[:, :, None], y_old[:, None]
        return _cubic(Q[:, 2], Q[:, 1], Q[:, 0], x) + y_old


@dataclass
class Segment:
    """One solver run: the step ends ``t``, the states ``y`` (shape
    (n, len(t))), the dense output ``sol`` and the solver's work counts.

    ``sol`` holds one interpolant per step, all of one kind: scipy's
    ``Dop853DenseOutput`` or a ``RadauStep`` (a ``ConstantDenseOutput`` for
    a zero-length span).  The last step of a run stopped by an event keeps
    its full-step interpolant; ``t[-1]`` is the event time.
    """
    t: np.ndarray
    y: np.ndarray
    sol: OdeSolution
    nfev: int
    njev: int
    nlu: int

    @cached_property
    def _coefficients(self):
        steps = self.sol.interpolants
        coef = "Q" if isinstance(steps[0], RadauStep) else "F"
        return (np.array([s.t_old for s in steps]), np.array([s.h for s in steps]),
                np.array([getattr(s, coef) for s in steps]),
                np.array([s.y_old for s in steps]))

    def dense(self, ts: np.ndarray) -> np.ndarray:
        """``self.sol(ts)`` for a 1-D array of times, bit for bit, in one numpy
        pass over the stacked per-step interpolants.

        Each time takes the interpolant ``OdeSolution`` would pick (on a step
        boundary, the earlier step's, at x = 1), x is computed from the time
        as ``(t - t_old) / h``, and every operation is the interpolant's own,
        elementwise.
        """
        sol = self.sol
        first = sol.interpolants[0]
        if not isinstance(first, (Dop853DenseOutput, RadauStep)):
            return sol(ts)  # zero-length span: constant
        t_old, h, coef, y_old = self._coefficients
        last = sol.n_segments - 1
        seg = np.searchsorted(sol.ts_sorted, ts, side=sol.side) - 1
        np.clip(seg, 0, last, out=seg)
        if not sol.ascending:
            seg = last - seg
        x = ((ts - t_old[seg]) / h[seg])[:, None]
        if isinstance(first, RadauStep):
            Q = coef[seg]
            y = _cubic(Q[:, :, 2], Q[:, :, 1], Q[:, :, 0], x)
        else:
            one_minus_x = 1 - x
            y = np.zeros((len(ts), coef.shape[2]))
            # one coefficient row at a time, as the DOP853 interpolant's
            # Horner loop does; gathering F[seg] whole costs len(ts) x 7 x n
            # floats at once
            for i, row in enumerate(range(coef.shape[1] - 1, -1, -1)):
                y += coef[seg, row]
                y *= x if i % 2 == 0 else one_minus_x
        y += y_old[seg]
        return y.T


@dataclass
class Trajectory:
    t: np.ndarray
    points: np.ndarray                     # shape (n, 2)
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
    if callable(field) and not hasattr(field, "eval"):
        return field
    ev = field.eval

    def rhs(t: float, p: List[float]) -> np.ndarray:
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
    polished with brentq on the same per-step interpolants: ``seg.sol(s)``
    picks and evaluates, at every time, the interpolant whose batched values
    ``seg.dense`` gave the scan, bit for bit, so a bracket holds its sign
    change also where the interpolants of two steps do not join exactly.
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
                te = brentq(lambda s: sec.residual(seg.sol(s)), lo, hi,
                            xtol=1e-15, rtol=8.9e-16)
            if found and found[-1][2] is sec and abs(te - found[-1][0]) < 1e-12:
                continue
            pe = np.array(seg.sol(te))
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
    same per-step interpolants (see ``_scan_crossings``).
    """
    band = math.sqrt(config.event_tol)

    def rate(s):
        return section.residual_rate(rhs(s, seg.sol(s).tolist()))
    ts = _scan_grid(seg)
    d = np.diff(section.residual(seg.dense(ts)))
    for i in np.flatnonzero(d[:-1] * d[1:] < 0) + 1:
        lo, hi = sorted((float(ts[i - 1]), float(ts[i + 1])))
        tg = float(ts[i])
        if rate(lo) * rate(hi) < 0:
            tg = brentq(rate, lo, hi, xtol=1e-15, rtol=8.9e-16)
        pg = np.array(seg.sol(tg))
        if abs(section.residual(pg)) < band:
            return tg, pg
    return None


# solve_ivp's tolerance for the root of a terminal event on a step's interpolant
EVENT_ROOT_TOL = 4 * np.finfo(float).eps

# scipy's DOP853 tableau as (s, row s of A, c_s): the stages of a step, and
# the three extra stages of the dense output
_N = DOP853.n_stages
_STAGES = [(s, DOP853.A[s, :s], float(DOP853.C[s])) for s in range(1, _N)]
_EXTRA = [(s, a[:s], float(c)) for s, (a, c) in
          enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=_N + 1)]
_ERROR_EXPONENT = -1 / (DOP853.error_estimator_order + 1)


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
    e5 = KT.dot(DOP853.E5) / scale
    e3 = KT.dot(DOP853.E3) / scale
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
    F = np.empty((len(DOP853.D) + 3, len(y)))
    F[0] = delta
    F[1] = [h * fo - d for fo, d in zip(f, delta)]
    F[2] = [2 * d - h * (fn + fo) for d, fn, fo in zip(delta, f_new, f)]
    F[3:] = h * DOP853.D.dot(K)
    return F


class _Run:
    """The steps of one solver run and its stops, shared by both steppers.

    ``record`` keeps a step's interpolant and then checks the stops as
    ``solve_ivp`` checks terminal events: a stop is active on a step when its
    value changes sign or touches zero between the step's ends, its root is
    found by brentq on the step's interpolant, the root earliest along the
    orbit wins (the lower index on a tie), and the run ends at that root.
    ``admit(i, g, g_new, y)`` may turn down the root ``y`` of stop ``i``,
    whose value went from ``g`` to ``g_new`` over the step.
    """

    def __init__(self, t: float, y: np.ndarray,
                 stops: Sequence[Callable[[np.ndarray], float]],
                 admit: Optional[Callable[[int, float, float, np.ndarray], bool]]):
        self.ts, self.ys, self.steps = [t], [y], []
        self.stops, self.admit = stops, admit
        self.g = [stop(y) for stop in stops]

    def record(self, sol, t_old: float, t: float, y: np.ndarray
               ) -> Optional[Tuple[int, float, np.ndarray]]:
        """Keep the step ``sol`` from ``t_old`` to ``(t, y)``; return
        ``(stop index, t, state)`` of the stop that ends the run on it, or
        None."""
        self.steps.append(sol)
        g_new = [stop(y) for stop in self.stops]
        roots = []
        for i, (a, b) in enumerate(zip(self.g, g_new)):
            if (a <= 0 and b >= 0) or (a >= 0 and b <= 0):
                te = brentq(lambda s, stop=self.stops[i]: stop(sol(s)), t_old, t,
                            xtol=EVENT_ROOT_TOL, rtol=EVENT_ROOT_TOL)
                ye = sol(te)
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

    def segment(self, nfev: int, njev: int, nlu: int) -> Segment:
        t = np.array(self.ts)
        return Segment(t=t, y=np.vstack(self.ys).T, sol=OdeSolution(t, self.steps),
                       nfev=nfev, njev=njev, nlu=nlu)


def _dop853(rhs: RHS, t_span: Tuple[float, float], y0: np.ndarray,
            config: IntegratorConfig, stops: Sequence[Callable[[np.ndarray], float]],
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
    ``rhs`` receives the state as a list of Python floats.  A ``DOP853``
    object is built only to validate the inputs and choose the first step.
    """
    t, t_bound = map(float, t_span)
    init = DOP853(lambda s, p: rhs(s, p.tolist()), t, y0, t_bound, rtol=config.rtol,
                  atol=config.atol, max_step=config.max_step)
    rtol, atol, max_step = float(init.rtol), float(init.atol), init.max_step
    direction, h_abs, nfev = float(init.direction), float(init.h_abs), init.nfev
    K = init.K_extended  # one row per stage, the dense output's three last
    KT = [K[:s].T for s in range(len(K))]
    rows = list(K)
    K[0] = init.f
    f, y_arr = init.f.tolist(), init.y
    y = y_arr.tolist()
    idx = range(len(y))
    run = _Run(t, y_arr, stops, admit)
    hit = None
    running = True
    while hit is None and running:
        t_old, y_old = t, y_arr
        if t == t_bound:  # zero-length span: no step
            sol = ConstantDenseOutput(t, t, y_arr)
            running = False
        else:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            if h_abs > max_step:
                h_abs = max_step
            elif h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StepSizeUnderflow(DOP853.TOO_SMALL_STEP)
                t_new = t + h_abs * direction
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = abs(h)
                _fill_stages(rhs, KT, rows, t, y, h, _STAGES)
                dy = KT[_N].dot(DOP853.B).tolist()
                y_new = [y[i] + h * dy[i] for i in idx]
                rows[_N][...] = rhs(t + h, y_new)
                nfev += _N
                error_norm = _error_norm(KT[_N + 1], h, y, y_new, rtol, atol)
                if error_norm < 1:
                    if error_norm == 0:
                        factor = MAX_FACTOR
                    else:
                        factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True
            _fill_stages(rhs, KT, rows, t, y, h, _EXTRA)
            nfev += len(_EXTRA)
            f_new = K[_N].tolist()
            F = _interpolant(K, h, y, y_new, f, f_new)
            t, y, f, y_arr = t_new, y_new, f_new, np.array(y_new)
            rows[0][...] = rows[_N]
            sol = Dop853DenseOutput(t_old, t, y_old, F)
            running = direction * (t - t_bound) < 0
        hit = run.record(sol, t_old, t, y_arr)
    return run.segment(nfev, 0, 0), hit


# scipy's Radau IIA(5) constants (scipy/integrate/_ivp/radau.py) as Python
# floats: nodes C, error weights E, the transformation T / TI that splits the
# collocation system into one real and one complex linear solve, and the
# dense-output matrix P
_RC = _radau_ivp.C.tolist()
_RE = _radau_ivp.E.tolist()
_RT = _radau_ivp.T.tolist()
_RTI = _radau_ivp.TI.tolist()
_RTI_COMPLEX = _radau_ivp.TI_COMPLEX.tolist()
_RP = _radau_ivp.P.tolist()
_MU_REAL = float(_radau_ivp.MU_REAL)
_MU_COMPLEX = complex(_radau_ivp.MU_COMPLEX)
_NEWTON_MAXITER = _radau_ivp.NEWTON_MAXITER
_RADAU_MIN_FACTOR = _radau_ivp.MIN_FACTOR
_RADAU_MAX_FACTOR = _radau_ivp.MAX_FACTOR


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
            rhs(t + ch[i], [y0 + Z[i][0], y1 + Z[i][1]]).tolist() for i in range(3)]
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
           config: IntegratorConfig, stops: Sequence[Callable[[np.ndarray], float]],
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
    collocation polynomial as dense output (``RadauStep``), which also
    predicts the next step's stages.  A ``Radau`` object is built only to
    validate the inputs, evaluate the first Jacobian and choose the first
    step.
    """
    t, t_bound = map(float, t_span)
    init = Radau(lambda s, p: rhs(s, p.tolist()), t, y0, t_bound, rtol=config.rtol,
                 atol=config.atol, max_step=config.max_step,
                 jac=lambda s, p: jac(s, p.tolist()))
    rtol, atol, max_step = float(init.rtol), float(init.atol), init.max_step
    direction, h_abs = float(init.direction), float(init.h_abs)
    nfev, njev, nlu = init.nfev, init.njev, 0
    newton_tol = float(init.newton_tol)
    J = init.J.tolist()
    f, y_arr = init.f.tolist(), init.y
    y = y_arr.tolist()
    run = _Run(t, y_arr, stops, admit)
    h_abs_old = error_norm_old = None
    inv_real = inv_complex = None
    current_jac = True
    prev = None  # (t_old, h, y_old, Q) of the last step, as floats
    hit = None
    running = True
    while hit is None and running:
        t_old, y_old = t, y_arr
        if t == t_bound:  # zero-length span: no step
            sol = ConstantDenseOutput(t, t, y_arr)
            running = False
        else:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            step_abs, h_last, err_last = h_abs, h_abs_old, error_norm_old
            if h_abs > max_step:
                step_abs, h_last, err_last = max_step, None, None
            elif h_abs < min_step:
                step_abs, h_last, err_last = min_step, None, None
            rejected = False
            while True:
                if step_abs < min_step:
                    raise StepSizeUnderflow(Radau.TOO_SMALL_STEP)
                t_new = t + step_abs * direction
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t
                step_abs = abs(h)
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
                    if inv_real is None or inv_complex is None:
                        inv_real = _inverse2(_MU_REAL / h, J)
                        inv_complex = _inverse2(_MU_COMPLEX / h, J)
                        nlu += 2
                    converged, n_iter, Z, rate = _collocation(
                        rhs, t, y, h, Z0, scale, newton_tol, inv_real, inv_complex)
                    nfev += 3 * n_iter
                    if not converged:
                        if current_jac:
                            break
                        J = jac(t, y)
                        njev += 1
                        current_jac = True
                        inv_real = inv_complex = None
                if not converged:
                    step_abs *= 0.5
                    inv_real = inv_complex = None
                    continue
                y_new = [y[j] + Z[2][j] for j in (0, 1)]
                ZE = [(Z[0][j] * _RE[0] + Z[1][j] * _RE[1] + Z[2][j] * _RE[2]) / h
                      for j in (0, 1)]
                a, b, c, d = inv_real
                e0, e1 = f[0] + ZE[0], f[1] + ZE[1]
                error = [a * e0 + b * e1, c * e0 + d * e1]
                scale = [atol + max(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)]
                error_norm = _rms(error, scale)
                safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
                if rejected and error_norm > 1:
                    fe = rhs(t, [y[j] + error[j] for j in (0, 1)]).tolist()
                    nfev += 1
                    e0, e1 = fe[0] + ZE[0], fe[1] + ZE[1]
                    error = [a * e0 + b * e1, c * e0 + d * e1]
                    error_norm = _rms(error, scale)
                if error_norm > 1:
                    factor = _predict_factor(step_abs, h_last, error_norm, err_last)
                    step_abs *= max(_RADAU_MIN_FACTOR, safety * factor)
                    inv_real = inv_complex = None
                    rejected = True
                else:
                    break
            recompute_jac = n_iter > 2 and rate > 1e-3
            factor = _predict_factor(step_abs, h_last, error_norm, err_last)
            factor = min(_RADAU_MAX_FACTOR, safety * factor)
            if not recompute_jac and factor < 1.2:
                factor = 1.0
            else:
                inv_real = inv_complex = None
            f_new = rhs(t_new, y_new).tolist()
            nfev += 1
            if recompute_jac:
                J = jac(t_new, y_new)
                njev += 1
                current_jac = True
            else:
                current_jac = False
            h_abs_old, error_norm_old = h_abs, error_norm
            h_abs = step_abs * factor
            Q = [[Z[0][j] * p0 + Z[1][j] * p1 + Z[2][j] * p2
                  for p0, p1, p2 in zip(*_RP)] for j in (0, 1)]
            prev = (t, h, y, Q)
            t, y, f, y_arr = t_new, y_new, f_new, np.array(y_new)
            sol = RadauStep(t_old, t, y_old, np.array(Q))
            running = direction * (t - t_bound) < 0
        hit = run.record(sol, t_old, t, y_arr)
    return run.segment(nfev, njev, nlu), hit


def _norm_guard(config: IntegratorConfig) -> Callable[[np.ndarray], float]:
    bound = config.norm_guard

    def guard(p: np.ndarray) -> float:
        return max(map(abs, p.tolist())) - bound
    return guard


def flow(
    field,
    p0: Sequence[float],
    t_span: Tuple[float, float],
    config: Optional[IntegratorConfig] = None,
    sections: Iterable[SectionSpec] = (),
) -> Trajectory:
    """Integrate over a fixed time span, recording (non-terminal) section hits."""
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


def _nudge_off_section(rhs: RHS, t0: float, p0: np.ndarray, sec: SectionSpec,
                       config: IntegratorConfig, forward: bool) -> Tuple[float, np.ndarray]:
    """Small RK4 steps until the residual clears the event band."""
    sgn = 1.0 if forward else -1.0
    rate = abs(sec.residual_rate(rhs(t0, p0.tolist())))
    dt = 50.0 * config.event_tol / max(rate, 1e-9)
    dt = sgn * min(max(dt, 1e-13), 1e-3)
    for _ in range(60):
        k1 = rhs(t0, p0.tolist())
        k2 = rhs(t0 + dt / 2, (p0 + dt / 2 * k1).tolist())
        k3 = rhs(t0 + dt / 2, (p0 + dt / 2 * k2).tolist())
        k4 = rhs(t0 + dt, (p0 + dt * k3).tolist())
        p1 = p0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
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


def _stepper(field, p: np.ndarray):
    """The stepper of a leg of ``field`` from ``p``: ``_radau`` for a stiff
    leg of a field with an exact Jacobian, ``_dop853`` for every other."""
    jac = getattr(field, "jacobian", None)
    if jac is None or not abs(jac(*p.tolist())[1][1]) > STIFF_RATIO * field.eps:
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
    p = np.asarray(p0, dtype=float)
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

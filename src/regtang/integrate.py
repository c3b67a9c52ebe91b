"""Adaptive integration with dense output and refined section events.

Every ODE solve of the package runs in one of two lean steppers with one
contract, ``(rhs, t_span, y0, config, scan) -> Segment``, each one generated
run loop per field kernel around one loop skeleton (``_loop_source``:
scipy's step-size clamping and clipping to the span's end), the stepper
giving its step attempt and step-size rule.  The loop returns to Python
(``_Run.record``) only at a step its scan's screen lets through, past the
norm bound, or at the span's end:

* ``_dop853``, the default (8th-order embedded pair with a matching-order
  interpolant; Hairer, Norsett & Wanner, *Solving ODEs I*, II.5 and II.6).
  It runs scipy's method with scipy's coefficients and step control, its
  loop generated per state dimension as straight-line float code
  (``_dop853_loop``), so no number depends on the BLAS kernel numpy runs.
* ``_radau``, Radau IIA of order 5 (Hairer & Wanner, *Solving ODEs II*,
  IV.8) for stiff 2-D legs, with scipy's constants, Newton iteration and
  step control, its linear algebra done in closed form on Python floats and
  an exact Jacobian from the field.  Its loop (``_radau_loop``) has the
  Newton iteration written into its step attempt as straight-line float
  code.

Every right-hand side (``RHS``) takes ``(t, y)``, the state a list of Python
floats, and returns a sequence of floats that the steppers use as it is; the
fields' generated kernels return a tuple.  A field's RHS (``_as_rhs``) calls
its ``eval`` and carries its generated ``kernel``, which both steppers inline
(``_inliner``) into each stage of their generated loops: a wrap of ``eval``
on the field's class sees only the calls made outside those stages (the
run's start, each accepted Radau step's end and a rejected one's error, the
scan's rates and the RK4 nudge), and ``Segment.nfev`` counts every
evaluation.

``flow_to_section_traj`` picks the stepper per leg, in one place: a field
with an exact ``jacobian`` (a ``BandField``) whose time-scale ratio
|d yhat'/d yhat| / eps at the start point exceeds ``STIFF_RATIO`` runs
``_radau``; every other leg runs ``_dop853``.

A run's dense output is one stacked form in its ``Segment``: per step the
start, the full length and the polynomial's coefficient rows.  One
straight-line evaluator per method (``_dop853_eval``, ``_radau_eval``: the
Horner steps of scipy's dense output, written out) evaluates it on floats,
for the scan's one component, and on arrays, at one time
(``Segment.__call__``) or at an array of times (``Segment.dense``).  A run
starts on lists of Python floats (``_start``), and its rows stay the run's
list of tuples until ``Segment.coef`` is first read, so a leg whose dense
output no one evaluates never stacks them.

The module runs on numpy alone, with no BLAS call.  What it carries of scipy
is ported and checked against scipy by the tests: the coefficient tables
(``regtang._tableaux``), the input checks of a run (``_start``), the choice of
step at a time (scipy's ``OdeSolution``) and ``brentq`` bit for bit; the
DOP853 steps and the first-step choice to rounding.

A run ends in one of three ways: at its span's end; at the first crossing its
scan's target admits; or by raising ``DomainExit``, when the state it keeps
for a step (the hit, if the step has one, else the step's end), or its start
state, before any RHS call, leaves the max-norm bound ``NORM_GUARD``.  Events
have one path, dense-output event location (Hairer, Norsett & Wanner, *Solving
ODEs I*, II.6): the run scans each accepted step on a sub-step grid as it goes
(``_Scan``) and finds every crossing of a section, the two of a dip between
grid points among them, and every touch, a turning point of the residual
within ``sqrt(event_tol)`` of zero.  Past a crossing outside the target's
interval or against its direction the same solver steps on.  A leg that ends
on one of its field's ``kinks`` takes the crossing step again, to end just
past the section (``_land``).  A leg without an admissible crossing raises
``TangentialGraze`` (a ``NoCrossing``) at its target's first touch, and a
plain ``NoCrossing`` if there is none.
"""

from __future__ import annotations

import ast
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
from .polys import cached_kernel

RHS = Callable[[float, List[float]], Sequence[float]]  # see the module docstring

_EPS = float(np.finfo(float).eps)

NORM_GUARD = 1e6  # a run whose kept state's max norm exceeds it raises DomainExit
# times ``Segment.dense`` evaluates in one numpy pass: blocks of 6144 or fewer
# lower glibc's dynamic trim threshold so far that the cycle study's Hausdorff
# arrays are handed back to the OS and faulted in again on every row
DENSE_BLOCK = 8192


@dataclass
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    event_tol: float = 1e-12
    max_time: float = 1e6

    def __post_init__(self):
        # NaN fails each test
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("tolerances must be positive")
        if not 0 < self.event_tol <= self.rtol:
            raise ValueError("event_tol must be positive and must not exceed rtol")
        if not 0 < self.max_time < math.inf:
            raise ValueError("max_time must be finite and positive")


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
        """Whether ``p`` lies in the interval; the unbounded default admits
        every point without reading its other coordinate (a 1-D state has
        none)."""
        lo, hi = self.interval
        return lo == -math.inf and hi == math.inf or lo <= self.other(p) <= hi

    def residual_rate(self, dp: Sequence[float]) -> float:
        return dp[0] if self.kind == "vertical" else dp[1]


# --------------------------------------------------------------------------
# dense output: one polynomial per step, stacked per run
# --------------------------------------------------------------------------

def _dop853_eval(f0, f1, f2, f3, f4, f5, f6, x, y_old):
    """scipy's ``Dop853DenseOutput`` at x = (t - t_old)/h: ``y_old`` plus the
    polynomial with coefficient rows F0 ... F6 (lowest power first), by its
    alternating Horner loop written out.  Each argument is a float, or an
    array that broadcasts with the others; every operation runs in scipy's
    order, elementwise."""
    w = 1 - x
    y = ((((0.0 + f6) * x + f5) * w + f4) * x + f3) * w  # scipy's loop starts from zeros
    return (((y + f2) * x + f1) * w + f0) * x + y_old


def _radau_eval(q0, q1, q2, x, y_old):
    """The Radau IIA(5) collocation polynomial ``y_old + Q0 x + Q1 x**2 +
    Q2 x**3`` at x = (t - t_old)/h, by Horner's rule; arguments as in
    ``_dop853_eval``."""
    return ((q2 * x + q1) * x + q0) * x + y_old


class Segment:
    """One solver run: the step ends ``t``, the states ``y`` (shape
    (n, len(t))), the run's dense output and the solver's work counts.

    The dense output is stacked, one entry per step: step i starts at
    ``(t[i], y[:, i])`` and has the full length ``h[i]``, and ``coef[i]``
    holds its polynomial's coefficient rows, lowest power first, which
    ``horner`` evaluates (``_dop853_eval`` on DOP853's 7 rows ``F``,
    ``_radau_eval`` on Radau's 3 rows ``Q``; ``coef`` has shape
    (len(h), rows, n)).  A run hands over its rows as a list of flat tuples,
    one per step, and ``coef`` stacks them on first read, once.  The last
    step of a run that ends at its scan's hit keeps its full step; ``t[-1]``
    is the hit's time.  A zero-length span has one step of length 0 and no
    ``coef``: its state is constant.

    A time takes the step scipy's ``OdeSolution`` picks: on a step boundary
    the earlier step, outside the run the nearest end step.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, h: np.ndarray, coef, horner: Callable,
                 nfev: int, njev: int, nlu: int):
        self.t, self.y, self.h, self.horner = t, y, h, horner
        self.nfev, self.njev, self.nlu = nfev, njev, nlu
        self._coef = coef  # an array, None, or the run's flat rows until read

    @property
    def coef(self) -> Optional[np.ndarray]:
        coef = self._coef
        if isinstance(coef, list):
            coef = self._coef = np.array(coef).reshape(len(coef), -1, len(self.y))
        return coef

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
        if self.coef is None:
            return self.y[:, i]
        return self.horner(*self.coef[i], (t - self.t[i]) / self.h[i], self.y[:, i])

    def dense(self, ts: np.ndarray) -> np.ndarray:
        """The states (shape (n, len(ts))) at a 1-D array of times, each bit
        for bit ``self(t)``: one numpy pass over the stacked steps per block
        of at most DENSE_BLOCK consecutive times, which bounds the arrays a
        pass holds."""
        if self.coef is None:
            return np.repeat(self.y[:, :1], len(ts), axis=1)
        seg = self._steps(ts)
        x = ((ts - self.t[seg]) / self.h[seg])[:, None]
        out = np.empty((len(ts), len(self.y)))
        for k in range(0, len(ts), DENSE_BLOCK):
            part = seg[k:k + DENSE_BLOCK]
            # each run of samples on one step reads the step's rows once
            first = np.flatnonzero(np.diff(part, prepend=-1))
            counts = np.diff(first, append=len(part))
            rows = np.repeat(self.coef[part[first]].transpose(1, 0, 2), counts, axis=1)
            y_old = np.repeat(self.y.T[part[first]], counts, axis=0)
            out[k:k + DENSE_BLOCK] = self.horner(*rows, x[k:k + DENSE_BLOCK], y_old)
        return out.T


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
    for ti, (xi, yi) in zip(traj.t.tolist(), traj.points.tolist()):
        lines.append(f"{ti:.17g},{xi:.17g},{yi:.17g},")
    for ev in traj.events:
        lines.append(
            f"{ev.t:.17g},{ev.point[0]:.17g},{ev.point[1]:.17g},{ev.section_id}"
        )
    return "\n".join(lines) + "\n"


def _as_rhs(field) -> RHS:
    """The right-hand side of ``field``: a plain callable as it is, else a
    call of its ``eval``, which carries the field's generated ``kernel``
    (``fn``, ``lead``), if it has one, for ``_dop853`` and ``_radau`` to
    inline (``_fused``)."""
    if not hasattr(field, "eval"):  # already a right-hand side
        return field
    ev = field.eval

    def rhs(t: float, p: List[float]) -> Sequence[float]:
        x, y = p  # Python floats: the kernels' math stays off np.float64
        return ev(x, y)

    rhs.kernel = getattr(field, "kernel", None)
    return rhs


def _classify(sec: SectionSpec, t: float, p: np.ndarray, rate: float,
              forward: bool) -> Optional[EventHit]:
    """The hit, if the crossing lies in the section's interval and runs in its
    admitted sense; None otherwise."""
    d = "up" if (rate if forward else -rate) > 0 else "down"
    if not sec.admits(p) or sec.direction not in (None, d):
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


# Every crossing of a section, and every touch, is found on a sub-step grid of
# each step's dense output, never by the test at the step ends alone: on
# smooth polynomial fields DOP853's error estimate can vanish and the step
# size explodes, so a dip across a section and back may fit inside one step,
# and may fit between two grid points too.
SCAN_SUBDIV = 8


def _screened(bound: float, start: float, band: float) -> bool:
    """Whether a step can hold no crossing and no touch of a section: its
    residual starts at ``start``, and one component's coefficient rows move
    it by at most ``bound``, the sum of their magnitudes, since every term of
    either method's polynomial (DOP853's x^a (1-x)^b, Radau's x, x**2, x**3)
    lies in [0, 1] on the step.  The stepper sums the magnitudes left to
    right as it builds the rows, and its run loop applies the same test."""
    return abs(start) > bound + 2 * band


class _Scan:
    """The crossings and touches of sections on each step of a run, found as
    the run keeps the step (``_Run.record``).

    A step's dense output is evaluated on SCAN_SUBDIV sub-steps, one component
    on Python floats as ``Segment`` evaluates it (a time on a step boundary on
    the earlier step).  A sign change between two grid points is bracketed
    and polished with brentq.  A grid extremum that turns toward zero (a
    minimum of a positive residual, a maximum of a negative one) is polished
    to its turning point by brentq on the residual's rate: a turning point
    across zero brackets two crossings, and one within ``band`` of zero is a
    touch.  A dip with two turning points between grid points is missed.  The
    test at a step's first grid point looks one point back, so a root may lie
    in the previous step.  A step ``_screened`` from a section, after one
    that was too, is not evaluated for it.  Each crossing its section admits
    (``_classify``) goes to ``events``, but the first of ``target`` is ``hit``
    and ends the run; ``touches`` holds the target's, as ``(t, point)``.
    """

    def __init__(self, rhs: RHS, band: float, sections: Iterable[SectionSpec] = (),
                 target: Optional[SectionSpec] = None):
        self.rhs, self.band, self.target = rhs, band, target
        self.sections = ([] if target is None else [target]) + list(sections)
        self.hit: Optional[EventHit] = None
        self.events: List[EventHit] = []
        self.touches: List[Tuple[float, np.ndarray]] = []
        self.last = [math.inf] * len(self.sections)  # each section's last root
        self.near = [False] * len(self.sections)  # the previous step unscreened

    def step(self, ev: Callable, sense: float, prev, cur, t_new: float,
             bounds: Sequence[float]) -> Optional[EventHit]:
        """Scan the step ``cur`` = ``(t_old, h, y_old, coef)`` of a run in
        the direction ``sense``, which ends at ``t_new``, after the step
        ``prev`` (None for the first), their dense output evaluated by ``ev``
        (``_dop853_eval``, ``_radau_eval``); ``bounds`` holds each
        component's sum of row magnitudes (``_screened``).  Returns ``hit``."""
        t_old, h, y_old, coef = cur
        n, near = len(y_old), []
        for j, sec in enumerate(self.sections):
            c = 0 if sec.kind == "vertical" else 1
            was, self.near[j] = self.near[j], not _screened(bounds[c], y_old[c] - sec.c,
                                                             self.band)
            if was or self.near[j]:
                near.append((j, sec, c))
        if not near:
            return self.hit

        def on(s):  # the step that holds time s
            return prev if prev is not None and sense * (s - t_old) <= 0 else cur

        def value(s, c):
            t0, h0, y0, rows = on(s)
            return y0[c] if rows is None else ev(*rows[c::n], (s - t0) / h0, y0[c])

        def point(s):
            t0, h0, y0, rows = on(s)
            if rows is None:
                return y0
            x = (s - t0) / h0
            return [ev(*rows[c::n], x, y0[c]) for c in range(n)]

        grid = [t_old + h * (i / SCAN_SUBDIV) for i in range(SCAN_SUBDIV)] + [t_new]
        if prev is not None:  # one grid point of look-behind
            grid.insert(0, prev[0] + prev[1] * ((SCAN_SUBDIV - 1) / SCAN_SUBDIV))
        found = []
        for j, sec, c in near:
            # past either end of the grid no test reaches (NaN fails each)
            vals = [value(s, c) - sec.c for s in grid] + [math.nan]

            def residual(s, c=c, sec=sec):
                return value(s, c) - sec.c

            def rate(s, sec=sec):
                return sec.residual_rate(self.rhs(s, point(s)))

            def root(a, b, f=residual):
                return brentq(f, *sorted((a, b)), xtol=1e-15, rtol=8.9e-16)
            # with a look-behind point, grid[1] (t_old) ended the previous
            # step, which tested it for a zero
            for i in range(len(grid) - SCAN_SUBDIV - 1, len(grid)):
                v, w = vals[i], vals[i + 1]
                if v == 0.0:
                    roots = [] if i == 1 and prev is not None else [grid[i]]
                elif v < 0 < w or w < 0 < v:
                    roots = [root(grid[i], grid[i + 1])]
                elif (v - vals[i - 1]) * (w - v) < 0 and (w - v > 0) == (v > 0):
                    before, tg, after = grid[i - 1], grid[i], grid[i + 1]
                    if rate(before) * rate(after) < 0:
                        tg = root(before, after, rate)
                    pg = np.array(point(tg))
                    rg = sec.residual(pg)
                    if abs(rg) < self.band and sec is self.target:
                        self.touches.append((tg, pg))
                    crossed = rg < 0 if v > 0 else rg > 0
                    roots = [root(before, tg), root(tg, after)] if crossed else []
                else:
                    continue
                for te in roots:
                    if abs(te - self.last[j]) < 1e-12:
                        continue
                    self.last[j] = te
                    found.append((te, np.array(point(te)), sec, float(rate(te))))
        found.sort(key=lambda item: sense * item[0])
        for te, pe, sec, dr in found:
            ev = _classify(sec, te, pe, dr, sense > 0)
            if ev is None:
                continue
            if sec is self.target:
                self.hit = ev
                self.events = [e for e in self.events if sense * (e.t - te) < 0]
                break
            self.events.append(ev)
        return self.hit


def _guard(t: float, y: Sequence[float]):
    """Raise ``DomainExit`` at ``t`` if the kept state ``y`` has a max norm
    above ``NORM_GUARD``."""
    if max(map(abs, y)) > NORM_GUARD:
        raise DomainExit(f"trajectory norm exceeded {NORM_GUARD:g} at t={t:g}",
                         t=t, point=np.array(y))


def _rms_norm(x: List[float]) -> float:
    """scipy's RMS ``norm``, summed left to right on Python floats."""
    return math.sqrt(sum(v * v for v in x)) / len(x) ** 0.5


def _initial_step(fun: Callable[[float, List[float]], List[float]], t0: float,
                  y0: List[float], t_bound: float, f0: List[float],
                  direction: float, order: int, rtol: float, atol: float) -> float:
    """scipy's ``select_initial_step`` (Hairer, Norsett & Wanner, *Solving
    ODEs I*, II.4): the first step size of a method whose error estimate is
    of ``order``, from one call of ``fun`` (none for a zero-length span).
    The states are lists of Python floats, and each of scipy's array
    operations runs per component, as numpy runs it.
    """
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms_norm([v / s for v, s in zip(y0, scale)])
    d1 = _rms_norm([v / s for v, s in zip(f0, scale)])
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    step = h0 * direction
    f1 = fun(t0 + step, [v + step * f for v, f in zip(y0, f0)])
    d2 = _rms_norm([(b - a) / s for a, b, s in zip(f0, f1, scale)])
    # h0 is 0.0 when d1 overflows to inf; numpy then divides to inf or NaN
    d2 = d2 / h0 if h0 else math.inf if d2 > 0 else math.nan
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval_length)


def _start(rhs: RHS, t: float, t_bound: float, y0: Sequence[float],
           config: IntegratorConfig, order: int):
    """What scipy's solver constructors do before the first step.

    The inputs are checked as ``check_arguments`` and ``validate_tol`` check
    them, with the same errors (``ValueError``) and the same warning and clamp
    for an rtol below 100 eps.  A start whose max norm exceeds ``NORM_GUARD``
    raises ``DomainExit`` at ``t``, before any RHS call (its RHS may compute a
    power past the float range); else ``rhs`` is called at the start, and the
    first step is chosen (``_initial_step``).  Returns ``(y, f,
    rtol, atol, direction, h_abs, nfev)``: the start state and its RHS value
    as lists of Python floats, the rest as Python floats and the count of
    RHS calls.
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
    y = y.tolist()
    rtol, atol = config.rtol, config.atol
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.", stacklevel=4)
        rtol = max(rtol, 100 * _EPS)
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    # numpy's sign of the span: NaN for a NaN span
    direction = 1.0 if t_bound >= t else -1.0 if t_bound < t else math.nan
    _guard(t, y)
    nfev = 0

    def fun(s: float, p: List[float]) -> List[float]:
        nonlocal nfev
        nfev += 1
        return list(map(float, rhs(s, p)))
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, direction, order, rtol, atol)
    return y, f, float(rtol), float(atol), direction, float(h_abs), nfev


_N = tab.N_STAGES
_ERROR_EXPONENT = -1 / (tab.ERROR_ESTIMATOR_ORDER + 1)


def _dot(coefs, names: Sequence[str]) -> str:
    """The source of ``c0*v0 + c1*v1 + ...`` over the nonzero coefficients."""
    return " + ".join(f"({float(c)!r})*{v}" for c, v in zip(coefs, names) if c)


Source = Tuple[str, Sequence[str]]  # a generated kernel's (args, body)


def _inliner(n: int, source: Optional[Source]):
    """How a generated stepper evaluates the RHS of an ``n``-dimensional
    state: ``(lead, bind, stage)``, the names of the stepper's lead
    arguments, the lines that bind them, once, on entry, and
    ``stage(targets, time, state)``, the lines that assign the RHS at the
    time ``time`` and the state ``state`` (source expressions, one per
    component) to the names ``targets``.

    Without ``source`` the one ``lead`` argument is the RHS, bound as it is,
    and a stage calls it as ``rhs(time, [state])``.  ``source`` is the
    ``(args, body)`` of a generated field kernel (``polys.cached_kernel``)
    whose last n arguments are the state and whose body returns a tuple on
    its last line only and assigns none of its first arguments; the ``lead``
    arguments are those first ones, and ``bind`` assigns each the body reads
    to its name.  A stage is then the kernel's own statements: those of its
    state arguments the body reads bound by assignment (the divergence
    integral's state ``w`` of an augmented kernel is not), its return tuple
    assigned to the targets.  The steppers' own names start with ``_``,
    which no kernel generator uses.
    """
    if source is None:
        def call(targets, time, state):
            return [f"{', '.join(targets)}, = _rhs({time}, [{', '.join(state)}])"]
        return ["_rhs"], [], call
    args, body = source
    names = args.split(", ")
    params, state_names = names[:-n], names[-n:]
    *inner, ret = body
    if not ret.startswith("return ") or any(
            line.lstrip().startswith("return") for line in inner):
        raise ValueError("an inlined kernel returns on its last line only")
    nodes = [node for node in ast.walk(ast.parse("\n".join(body))) if isinstance(node, ast.Name)]
    if any(isinstance(node.ctx, ast.Store) and node.id in params for node in nodes):
        raise ValueError("an inlined kernel may not assign its lead arguments")
    read = {node.id for node in nodes}
    lead = [f"_p{j}" for j in range(len(params))]

    def inline(targets, time, state):  # an autonomous kernel reads no time
        return [*(f"{v} = {e}" for v, e in zip(state_names, state) if v in read),
                *inner, f"{', '.join(targets)}, = {ret[len('return '):]}"]
    return lead, [f"{p} = {q}" for p, q in zip(params, lead) if p in read], inline


def _fused(rhs: RHS, generate: Callable[[Optional[Source]], Callable]) -> Callable:
    """The generated stepper function ``generate(source)`` with its lead
    arguments bound: the kernel's own and its ``source`` when ``rhs``
    carries its field's ``kernel`` (``_as_rhs``), else ``rhs`` itself."""
    kernel = getattr(rhs, "kernel", None)
    if kernel is None:
        return partial(generate(None), rhs)
    fn, lead = kernel
    return partial(generate(fn.source), *lead)


def _loop_source(n: int, lead: Sequence[str], extra: Sequence[str], setup: Sequence[str],
                 attempt: Sequence[str]) -> Source:
    """The ``(args, body)`` of a run loop for an ``n``-dimensional state: a
    generator running scipy's ``OdeSolver.step`` loop around a stepper's step
    attempt, with the stepper's state in its locals.

    ``loop(*lead, t, t_bound, direction, h_abs, y, rtol, atol, nfev, njev,
    nlu, levels, band2, ts, ys, hs, cs, nextafter, underflow, *extra)`` steps
    from ``(t, y)``: each step's proposed size is raised to at least
    min_step, each try clipped to ``t_bound``, and a size below min_step
    raises ``underflow``.  The ``attempt`` lines (after ``setup``)
    try the step ``_h`` from ``_t`` to ``_tn`` (``_rejected``: an earlier try
    was; ``_clamped``: the first size was) and ``continue`` with the next
    try's size ``_sa``, or set the next step's size ``_sa``, the new state
    ``_yn``, the flat coefficient rows ``_rows`` and their magnitude sums
    ``_bnd``, and ``break``; they count their work in ``_nfev``, ``_njev``
    and ``_nlu``.  A step the scan's screen passes over (``_screened`` at each
    of ``levels``, the tuples of x and y levels; ``band2`` is twice the band)
    with its state within ``NORM_GUARD`` is appended to ``ts``, ``ys``, ``hs``
    and ``cs`` here.  Any other, and the span's last, is yielded as ``(t_old,
    t, h, y, rows, bounds, nfev, njev, nlu)`` for ``_Run.record``, which sends
    back whether a section is still near.
    """
    within = " and ".join(f"{-NORM_GUARD!r} <= _yn[{i}] <= {NORM_GUARD!r}" for i in range(n))
    body = [
        "_far = _dir * float('inf')", "_lv0, _lv1 = _lv",
        "_yo, _near = _y, False",
        *setup,
        "while True:",
        "    _min = 10 * abs(_nextafter(_t, _far) - _t)",
        "    _sa = _min if _h_abs < _min else _h_abs",
        "    _clamped, _rejected = _sa != _h_abs, False",
        "    while True:",
        "        if _sa < _min:",
        f"            raise _underflow({tab.TOO_SMALL_STEP!r})",
        "        _tn = _t + _sa * _dir",
        "        if _dir * (_tn - _tb) > 0:",
        "            _tn = _tb",
        "        _h = _tn - _t",
        *("        " + line for line in attempt),
        "    _h_abs = _sa",
        *(line for c in (0, 1) for line in (
            f"    for _v in _lv{c}:",
            f"        if not abs(_yo[{c}] - _v) > _bnd[{c}] + _band2:",
            "            _near = True")),
        f"    if _near or _tn == _tb or not ({within}):",
        "        _near = yield _t, _tn, _h, _yn, _rows, _bnd, _nfev, _njev, _nlu",
        "    else:",
        "        _ts.append(_tn)", "        _ys.append(_yn)",
        "        _hs.append(_h)", "        _cs.append(_rows)",
        "    _t, _yo = _tn, _yn"]
    args = ("_t, _tb, _dir, _h_abs, _y, _rtol, _atol, _nfev, _njev, _nlu, _lv, _band2, "
            "_ts, _ys, _hs, _cs, _nextafter, _underflow")
    return ", ".join([*lead, args, *extra]), body


def _dop853_loop(n: int, source: Optional[Source] = None) -> Callable:
    """The DOP853 run loop for an ``n``-dimensional state (``_loop_source``),
    its step attempt straight-line float code: each tableau constant a
    ``repr`` literal, zero entries skipped, each sum left to right.  It takes
    the start state's RHS value and ``sqrt`` as its ``extra`` arguments,
    computes the 12 stages and scipy's E5/E3 error norm with its NaN rules,
    and on an accepted step the 3 extra stages, the dense output's 7 rows
    ``F``, lowest power first, and each component's sum of its rows'
    magnitudes, left to right (``_screened``); the step size follows
    scipy's ``RungeKutta._step_impl``.

    Each stage calls the RHS, or, with ``source``, is the field kernel's
    own statements (``_inliner``).  Memoized by ``polys.cached_kernel``.
    """
    return cached_kernel(("dop853", n, source), lambda: _dop853_source(n, source))


def _dop853_source(n: int, source: Optional[Source]) -> Source:
    """The ``(args, body)`` of ``_dop853_loop(n, source)``."""
    K = [f"_k{j}_{{i}}" for j in range(tab.N_STAGES_EXTENDED)]  # stage j, component i

    def vec(fmt):
        return ", ".join(fmt.format(i=i) for i in range(n))

    def per(*lines):  # each line once per component
        return [line.format(i=i) for i in range(n) for line in lines]

    def point(a):  # the state of a stage with coefficients ``a``
        return f"_y{{i}} + ({_dot(a, K)}) * _h"

    lead, bind, evaluate = _inliner(n, source)

    def stage(s, time, state):  # ``state`` per component, a format of i
        return evaluate([K[s].format(i=i) for i in range(n)], time,
                        [state.format(i=i) for i in range(n)])

    def stages(A, C, start):
        return [line for s, (a, c) in enumerate(zip(A, C), start=start)
                for line in stage(s, f"_t + {float(c)!r} * _h", point(a[:s]))]

    rows = ", ".join(vec(f"_r{r}_{{i}}") for r in range(tab.INTERPOLATOR_POWER))
    factor = f"{tab.SAFETY!r} * _err ** ({_ERROR_EXPONENT!r})"
    trial = [*stages(tab.A[1:_N], tab.C[1:_N], 1),
             *per(f"_n{{i}} = _y{{i}} + _h * ({_dot(tab.B, K)})"),
             *stage(_N, "_t + _h", "_n{i}")]
    attempt = [
        # a power past the float range raises where numpy gives inf, and
        # scipy rejects a step with an inf stage at the least factor
        "try:", *("    " + line for line in trial),
        "except OverflowError:",
        f"    _nfev += {_N}",
        f"    _sa, _rejected = abs(_h) * {tab.MIN_FACTOR!r}, True",
        "    continue",
        *per("_a{i} = abs(_y{i})", "_b{i} = abs(_n{i})",
             "_s{i} = _atol + (_b{i} if _a{i} < _b{i} or _b{i} != _b{i} else _a{i}) * _rtol",
             f"_e5_{{i}} = ({_dot(tab.E5, K)}) / _s{{i}}",
             f"_e3_{{i}} = ({_dot(tab.E3, K)}) / _s{{i}}"),
        f"_e5 = {' + '.join(f'_e5_{i} * _e5_{i}' for i in range(n))}",
        f"_e3 = {' + '.join(f'_e3_{i} * _e3_{i}' for i in range(n))}",
        f"_d = _sqrt((_e5 + 0.01 * _e3) * {n})",
        "_err = 0.0 if _e5 == 0 and _e3 == 0 else abs(_h) * _e5 / _d if _d else float('nan')",
        f"_nfev += {_N}",
        "if not _err < 1:",
        f"    _sa, _rejected = abs(_h) * max({tab.MIN_FACTOR!r}, {factor}), True",
        "    continue",
        *stages(tab.A_EXTRA, tab.C_EXTRA, _N + 1),
        *per("_r0_{i} = _n{i} - _y{i}", "_r1_{i} = _h * _k0_{i} - _r0_{i}",
             f"_r2_{{i}} = 2 * _r0_{{i}} - _h * (_k{_N}_{{i}} + _k0_{{i}})",
             *(f"_r{r}_{{i}} = _h * ({_dot(row, K)})" for r, row in enumerate(tab.D, start=3)),
             "_m{i} = " + " + ".join(f"abs(_r{r}_{{i}})"
                                     for r in range(tab.INTERPOLATOR_POWER))),
        f"_nfev += {len(tab.A_EXTRA)}",
        f"_fac = {tab.MAX_FACTOR!r} if _err == 0 else min({tab.MAX_FACTOR!r}, {factor})",
        "if _rejected:",
        "    _fac = min(1, _fac)",
        "_sa = abs(_h) * _fac",
        f"_yn, _rows, _bnd = [{vec('_n{i}')}], ({rows},), ({vec('_m{i}')},)",
        f"{vec('_y{i}')}, {vec(K[0])} = {vec('_n{i}')}, {vec(K[_N])}",
        "break"]
    return _loop_source(n, lead, ["_f", "_sqrt"],
                        [*bind, f"{vec('_y{i}')}, = _y", f"{vec(K[0])}, = _f"], attempt)


class _Run:
    """One solver run: its start (the state as lists of Python floats, ``y``
    and ``f``), the steps it keeps, and where it ends.

    ``segment(loop, *extra)`` runs a stepper's generated run loop
    (``_loop_source``) and stacks the kept steps' times and states, once,
    into the run's ``Segment``, which stacks their rows when they are read;
    a zero-length span takes no step.  ``record`` keeps a step the loop
    yields, and decides whether the run ends on it.  ``scan`` (a
    ``_Scan``; without one, a scan of no section) scans the step, and its
    target's first admitted crossing ends the run; it may lie in the
    previous step, and the run then ends inside that step.  The state kept
    for the step, the hit or else the step's end, raises ``DomainExit`` if
    its max norm exceeds ``NORM_GUARD``.
    """

    def __init__(self, rhs: RHS, t_span: Tuple[float, float], y0: Sequence[float],
                 config: IntegratorConfig, scan: Optional[_Scan], order: int,
                 horner: Callable):
        self.t, self.t_bound = map(float, t_span)
        self.y, self.f, self.rtol, self.atol, self.direction, self.h_abs, self.nfev = _start(
            rhs, self.t, self.t_bound, y0, config, order)
        self.horner, self.njev, self.nlu = horner, 0, 0
        self.ts, self.ys, self.hs, self.cs = [self.t], [self.y], [], []
        self.scan = _Scan(rhs, 0.0) if scan is None else scan

    def segment(self, loop: Callable, *extra) -> Segment:
        """Run ``loop`` (with its lead arguments bound; ``extra``, its
        stepper's own) to ``t_bound`` or to the scan's hit, and return the
        segment."""
        scan, n = self.scan, len(self.y)
        if self.t == self.t_bound:  # zero-length span: one step of length 0
            self.record(self.t, self.t, 0.0, self.ys[-1], None, [0] * n)
        else:
            levels = [tuple(sec.c for sec in scan.sections if sec.kind == kind)
                      for kind in ("vertical", "horizontal")]
            steps = loop(self.t, self.t_bound, self.direction, self.h_abs, self.y, self.rtol,
                         self.atol, self.nfev, self.njev, self.nlu, levels, 2 * scan.band,
                         self.ts, self.ys, self.hs, self.cs, math.nextafter,
                         StepSizeUnderflow, *extra)
            near = None
            while True:
                t_old, t, h, y, coef, bounds, self.nfev, self.njev, self.nlu = steps.send(near)
                if self.record(t_old, t, h, y, coef, bounds) or t == self.t_bound:
                    break
                near = any(scan.near)
        return Segment(np.array(self.ts), np.array(self.ys).T, np.array(self.hs),
                       None if self.cs[0] is None else self.cs, self.horner, self.nfev,
                       self.njev, self.nlu)

    def record(self, t_old: float, t: float, h: float, y: Sequence[float], coef,
               bounds: Sequence[float]) -> bool:
        """Keep the step of full length ``h`` from ``t_old`` to ``(t, y)``
        with its coefficient rows ``coef`` (a flat sequence, row by row) and
        their magnitude sums ``bounds``, and return whether the run ends on
        it."""
        ts, ys, hs, cs = self.ts, self.ys, self.hs, self.cs
        hs.append(h)
        cs.append(coef)
        prev = (ts[-2], hs[-2], ys[-2], cs[-2]) if len(hs) > 1 else None
        hit = self.scan.step(self.horner, self.direction, prev, (t_old, h, ys[-1], coef), t,
                             bounds)
        if hit:
            t, y = hit.t, hit.point
            if prev and self.direction * (t - t_old) <= 0:
                del hs[-1], cs[-1], ts[-1], ys[-1]  # it ends in the previous step
        _guard(t, y)
        ts.append(t)
        ys.append(y)
        return bool(hit)


def _dop853(rhs: RHS, t_span: Tuple[float, float], y0: Sequence[float],
            config: IntegratorConfig, scan: Optional[_Scan] = None) -> Segment:
    """Step DOP853 over ``t_span`` keeping every step's dense output, and end
    at the first admitted crossing of ``scan``'s target, if it has one.

    This is the method of ``solve_ivp(method="DOP853", dense_output=True)``
    by its step-size rules.  It agrees with solve_ivp to a fraction of the
    tolerance, not step for step: its own summation order moves the step
    sizes at rounding level, and with them, rarely, the step count.  ``scan``
    finds the crossings on each step as the run goes, also on the step that
    finishes the span, and a crossing its target does not admit leaves the
    same solver stepping on.  A kept state beyond ``NORM_GUARD`` raises
    ``DomainExit``.  Returns the run's segment.

    The run is ``_dop853_loop`` for the state's dimension: scipy's
    ``rk_step``, ``_estimate_error_norm``, ``_dense_output_impl`` and step
    control in one summation order on every machine, with ``solve_ivp`` as
    its accuracy oracle.  ``rhs`` receives the state as a list of Python
    floats.  An ``rhs`` that carries its field's ``kernel`` (``_as_rhs``) is
    inlined in each stage, which then makes no call; ``rhs`` itself serves
    the start and the scan.  The inputs are checked and the first step
    chosen as scipy does (``_start``).
    """
    run = _Run(rhs, t_span, y0, config, scan, tab.ERROR_ESTIMATOR_ORDER, _dop853_eval)
    return run.segment(_fused(rhs, partial(_dop853_loop, len(run.y))), run.f, math.sqrt)


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


def _radau_loop(source: Optional[Source] = None) -> Callable:
    """The Radau IIA(5) run loop for a 2-D state (``_loop_source``), the step
    attempt of scipy's ``Radau._step_impl`` on Python floats.  Its ``extra``
    arguments are the start's RHS value and Jacobian, the Newton tolerance,
    ``jac``, the RHS, ``_inverse2``, ``_predict_factor``, ``sqrt`` and
    ``isfinite``.

    The Newton iteration (scipy's ``solve_collocation_system``) is written
    into the attempt: the simplified Newton iterations on the transformed
    stages W = TI Z, each with three RHS evaluations, one real and one
    complex 2x2 solve by the inverses' entries (``_inverse2``) and scipy's
    rate and convergence tests, restarted from the same predicted stages
    after a Jacobian refresh.  The constants are ``repr`` literals, complex
    where scipy's are, every product kept (T has a zero entry) and every sum
    left to right.  A norm whose square passes the float range is inf, as
    numpy's is.  Each stage evaluation calls the RHS, or, with ``source``,
    is the field kernel's own statements (``_inliner``).  Memoized by
    ``polys.cached_kernel``.
    """
    return cached_kernel(("radau", source), lambda: _radau_source(source))


def _radau_source(source: Optional[Source]) -> Source:
    """The ``(args, body)`` of ``_radau_loop(source)``."""
    lead, bind, evaluate = _inliner(2, source)

    def poly(j):  # the last step's polynomial in component j, at _x
        return f"((_pq[{4 + j}] * _x + _pq[{2 + j}]) * _x + _pq[{j}]) * _x + _py[{j}] - _y[{j}]"

    def prod(M, out, v):  # out = M v, per row r and component j, every term kept
        return [f"_{out}{r}{j} = " + " + ".join(f"({m!r}) * _{v}{s}{j}"
                                                for s, m in enumerate(row))
                for r, row in enumerate(M) for j in (0, 1)]

    def residual(target, coefs, j, m, w):
        return (f"{target} = " + " + ".join(f"_f{i}{j} * ({c!r})" for i, c in enumerate(coefs))
                + f" - {m} * {w}")

    def norm(target, expr):  # a square past the float range is numpy's inf
        return ["try:", f"    {target} = _sqrt({expr})", "except OverflowError:",
                f"    {target} = float('inf')"]

    def error(f):  # the error estimate from the RHS value ``f``, and its RMS norm
        return [f"_e0, _e1 = {f}[0] + _ze0, {f}[1] + _ze1",
                "_er0, _er1 = _a * _e0 + _b * _e1, _c * _e0 + _d * _e1",
                *norm("_err", "((_er0 / _s0) ** 2 + (_er1 / _s1) ** 2) / 2")]

    terms = [f"(_dw{r}0 / _s0) ** 2 + (_dw{r}1 / _s1) ** 2" for r in range(3)]
    newton = [  # one iteration, ``break`` when it ends
        "try:",
        *("    " + line for i, c in enumerate(_RC)
          for line in evaluate([f"_f{i}0", f"_f{i}1"], f"_t + _h * ({c!r})",
                               [f"_y0 + _z{i}0", f"_y1 + _z{i}1"])),
        "except OverflowError:",  # a power past the float range: not finite
        "    break",
        "if not (" + " and ".join(f"_isfinite(_f{i}{j})" for i in range(3)
                                  for j in (0, 1)) + "):",
        "    break",
        residual("_fr0", _RTI[0], 0, "_mr", "_w00"),  # TI_REAL is TI[0]
        residual("_fr1", _RTI[0], 1, "_mr", "_w01"),
        residual("_fc0", _RTI_COMPLEX, 0, "_mc", "complex(_w10, _w20)"),
        residual("_fc1", _RTI_COMPLEX, 1, "_mc", "complex(_w11, _w21)"),
        "_dc0 = _ac * _fc0 + _bc * _fc1", "_dc1 = _cc * _fc0 + _dc * _fc1",
        "_dw00 = _a * _fr0 + _b * _fr1", "_dw01 = _c * _fr0 + _d * _fr1",
        "_dw10 = _dc0.real", "_dw11 = _dc1.real",
        "_dw20 = _dc0.imag", "_dw21 = _dc1.imag",
        # sum()'s start, 0, is left out: each term is +0.0 or above, or NaN
        *norm("_norm", f"({' + '.join(f'({t})' for t in terms)}) / 6"),
        "if _old is not None:",
        "    _rate = _norm / _old",
        "if _rate is not None and (_rate >= 1 or "
        f"_rate ** ({_NEWTON_MAXITER} - _k) / (1 - _rate) * _norm > _newton_tol):",
        "    break",
        *(f"_w{r}{j} = _w{r}{j} + _dw{r}{j}" for r in range(3) for j in (0, 1)),
        *prod(_RT, "z", "w"),
        "if _norm == 0 or _rate is not None and _rate / (1 - _rate) * _norm < _newton_tol:",
        "    _converged = True",
        "    break",
        "_old = _norm"]
    attempt = [
        # a clamped step size starts the step-size predictor afresh
        "_h_last, _err_last = (None, None) if _clamped else (_h_abs_old, _err_old)",
        "if _prev is None:",
        "    _Z0 = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]",
        "else:",  # the last step's polynomial, extrapolated
        "    _pt, _ph, _py, _pq = _prev",
        "    _Z0 = []",
        f"    for _cn in {tuple(_RC)!r}:",
        "        _x = (_t + _h * _cn - _pt) / _ph",
        f"        _Z0.append([{poly(0)}, {poly(1)}])",
        "_y0, _y1 = _y",
        "_s0, _s1 = _atol + abs(_y0) * _rtol, _atol + abs(_y1) * _rtol",
        f"_mr = ({_MU_REAL!r}) / _h", f"_mc = ({_MU_COMPLEX!r}) / _h",
        "_converged = False",
        "while True:",
        "    if not _lu:",
        "        _a, _b, _c, _d = _inverse2(_mr, _J)",
        "        _ac, _bc, _cc, _dc = _inverse2(_mc, _J)",
        "        _lu = True",
        "        _nlu += 2",
        "    (_z00, _z01), (_z10, _z11), (_z20, _z21) = _Z0",
        *("    " + line for line in prod(_RTI, "w", "z")),
        "    _old = _rate = None",
        f"    for _k in range({_NEWTON_MAXITER}):",
        *("        " + line for line in newton),
        "    _n_iter = _k + 1",
        "    _nfev += 3 * _n_iter",
        "    if _converged or _current_jac:",
        "        break",
        "    _J = _jac(_t, _y)",
        "    _njev += 1",
        "    _current_jac, _lu = True, False",
        "if not _converged:",
        "    _lu = False",
        "    _sa = abs(_h) * 0.5",
        "    continue",
        "_yn = [_y0 + _z20, _y1 + _z21]",
        *(f"_ze{j} = (_z0{j} * {_RE[0]!r} + _z1{j} * {_RE[1]!r} + _z2{j} * {_RE[2]!r}) / _h"
          for j in (0, 1)),
        *(f"_s{j} = _atol + max(abs(_y{j}), abs(_yn[{j}])) * _rtol" for j in (0, 1)),
        *error("_f"),
        f"_safety = 0.9 * {2 * _NEWTON_MAXITER + 1} / ({2 * _NEWTON_MAXITER} + _n_iter)",
        "if _rejected and _err > 1:",
        "    _fe = _fun(_t, [_y0 + _er0, _y1 + _er1])",
        "    _nfev += 1",
        *("    " + line for line in error("_fe")),
        "_factor = _predict(abs(_h), _h_last, _err, _err_last)",
        "if _err > 1:",
        "    _lu = False",
        f"    _sa, _rejected = abs(_h) * max({tab.RADAU_MIN_FACTOR!r}, _safety * _factor), True",
        "    continue",
        "_recompute = _n_iter > 2 and _rate > 1e-3",
        f"_factor = min({tab.RADAU_MAX_FACTOR!r}, _safety * _factor)",
        "if not _recompute and _factor < 1.2:",
        "    _factor = 1.0",
        "else:",
        "    _lu = False",
        "_fn = _fun(_tn, _yn)",
        "_nfev += 1",
        "if _recompute:",
        "    _J = _jac(_tn, _yn)",
        "    _njev += 1",
        "_current_jac = _recompute",
        "_h_abs_old, _err_old = _h_abs, _err",
        # the collocation polynomial's coefficients, power r of component j
        *(f"_q{r}{j} = " + " + ".join(f"_z{k}{j} * {_RP[k][r]!r}" for k in range(3))
          for r in range(3) for j in (0, 1)),
        "_rows = (_q00, _q01, _q10, _q11, _q20, _q21)",
        "_bnd = (abs(_q00) + abs(_q10) + abs(_q20), abs(_q01) + abs(_q11) + abs(_q21))",
        "_prev = _t, _h, _y, _rows",
        "_y, _f = _yn, _fn",
        "_sa = abs(_h) * _factor",
        "break"]
    setup = [*bind,
             "_current_jac, _lu, _h_abs_old, _err_old, _prev = True, False, None, None, None"]
    return _loop_source(2, lead, ["_f", "_J", "_newton_tol", "_jac", "_fun", "_inverse2",
                                  "_predict", "_sqrt", "_isfinite"], setup, attempt)


def _radau(rhs: RHS, t_span: Tuple[float, float], y0: Sequence[float],
           config: IntegratorConfig, scan: Optional[_Scan] = None, *,
           jac: Callable[[float, List[float]], Sequence[Sequence[float]]]) -> Segment:
    """Step Radau IIA(5) over ``t_span`` for a 2-D state with the exact
    Jacobian ``jac(t, y)``; ``scan``, the norm bound and the result as in
    ``_dop853``.

    The method, step-size control (``predict_factor``), Newton iteration
    (``solve_collocation_system``), error estimate and Jacobian reuse are
    scipy's ``Radau._step_impl``, run by ``_radau_loop``; the linear algebra
    is the closed-form inverse of the real and the complex 2x2 matrix
    (``_inverse2``, two "LU" per factorization in ``nlu``) and every
    operation runs on Python floats.  Bit-identity with scipy's ``Radau`` is
    not sought.  An ``rhs`` that carries its field's ``kernel``
    (``_as_rhs``) is inlined in each stage evaluation of the Newton
    iteration, which then makes no call; ``rhs`` itself serves the start,
    each accepted step's end and a rejected step's error estimate.
    Each step keeps its collocation polynomial as dense output, which also
    predicts the next step's stages.  The inputs are checked and the first
    step chosen as scipy does (``_start``, with the error estimate's order
    3).
    """
    run = _Run(rhs, t_span, y0, config, scan, 3, _radau_eval)
    newton_tol = max(10 * _EPS / config.rtol, min(0.03, config.rtol ** 0.5))
    J = np.asarray(jac(run.t, run.y), dtype=float)
    if J.shape != (2, 2):
        raise ValueError(f"`jac` is expected to have shape (2, 2), but actually has {J.shape}.")
    run.njev = 1
    return run.segment(_fused(rhs, _radau_loop), run.f, J.tolist(), newton_tol, jac, rhs,
                       _inverse2, _predict_factor, math.sqrt, math.isfinite)


def flow(
    field,
    p0: Sequence[float],
    t_span: Tuple[float, float],
    config: Optional[IntegratorConfig] = None,
    sections: Iterable[SectionSpec] = (),
) -> Trajectory:
    """Integrate over a fixed time span, recording section hits; a state
    beyond ``NORM_GUARD`` raises ``DomainExit``."""
    if not (math.isfinite(t_span[0]) and math.isfinite(t_span[1])):
        raise ConditionViolated(f"t_span must be finite (got {tuple(t_span)!r})")
    config = config or IntegratorConfig()
    rhs = _as_rhs(field)
    scan = _Scan(rhs, math.sqrt(config.event_tol), sections)
    seg = _dop853(rhs, t_span, np.asarray(p0, dtype=float).tolist(), config, scan)
    events = sorted(scan.events, key=lambda ev: ev.t, reverse=t_span[1] < t_span[0])
    return Trajectory(t=seg.t, points=seg.y.T.copy(), events=events, segments=[seg])


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


LANDING_REACH = 1.001  # the end of a landing run, in units of the way to its root


def _land(leg, seg: Segment, scan: _Scan) -> Tuple[Segment, _Scan]:
    """Land a leg that ended on a level where its field is only C^n
    (``kinks``: Phi saturates at yhat = +-1 of a ``BandField``).  No step's
    error estimate sees the kink, so the step that crossed it may run far past
    it and put the crossing far off (a lower-map image 7.7e-11 off at
    eps = 1e-3).  That step is run again (``leg(t_span, y0)``) to
    LANDING_REACH times the way to the crossing, and its steps replace it in
    the segment; if they fall short of the section, the first run stands."""
    t_old, k = seg.t[-2], len(seg.h) - 1
    last, landed = leg((t_old, t_old + LANDING_REACH * (scan.hit.t - t_old)),
                       seg.y[:, -2].tolist())
    if landed.hit is None:
        return seg, scan
    landed.events[:0] = [ev for ev in scan.events if (ev.t - t_old) * (scan.hit.t - t_old) < 0]
    # both runs' rows are still their lists: joined, they stack once when read
    return Segment(np.concatenate([seg.t[:k], last.t]), np.hstack([seg.y[:, :k], last.y]),
                   np.concatenate([seg.h[:k], last.h]), seg._coef[:k] + last._coef, seg.horner,
                   seg.nfev + last.nfev, seg.njev + last.njev, seg.nlu + last.nlu), landed


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
    ``BandField`` at small eps), DOP853 otherwise.  The run scans each step
    as it goes (``_Scan``) and ends at the first crossing the section admits,
    a dip inside one step among them; crossings outside the section's
    interval or against its direction are skipped and the same solver steps
    on.  A leg that ends on one of the field's ``kinks`` lands on it
    (``_land``).  Crossings of ``record_sections`` met on the way are
    recorded.  A state beyond ``NORM_GUARD`` raises ``DomainExit``.  If no
    admissible crossing comes within ``max_time``, the section's first touch
    raises ``TangentialGraze``, and no touch ``NoCrossing``.

    Known limit: a dip with two turning points between grid points is missed.
    """
    config = config or IntegratorConfig()
    rhs = _as_rhs(field)
    forward = t_direction == "forward"
    band = math.sqrt(config.event_tol)

    t0 = 0.0
    p = np.asarray(p0, dtype=float).tolist()
    # Starting on the target section: the degenerate t=0 "crossing" is not the
    # one asked for; step off the section before the run starts.
    if abs(section.residual(p)) <= 10 * config.event_tol:
        t0, p = _nudge_off_section(rhs, t0, p, section, config, forward)
    remaining = max(config.max_time - abs(t0), 0.0)
    t_end = t0 + (remaining if forward else -remaining)
    stepper = _stepper(field, p)

    def leg(t_span, y0):
        scan = _Scan(rhs, band, record_sections, section)
        return stepper(rhs, t_span, y0, config, scan), scan

    seg, scan = leg((t0, t_end), p)
    if (scan.hit is not None and section.kind == "horizontal"
            and section.c in getattr(field, "kinks", ())):
        seg, scan = _land(leg, seg, scan)
    hit = scan.hit
    if hit is not None:
        events = sorted(scan.events + [hit], key=lambda ev: ev.t, reverse=not forward)
        return hit, Trajectory(t=seg.t, points=seg.y.T.copy(), events=events, segments=[seg])
    if scan.touches:
        tg, pg = min(scan.touches, key=lambda touch: touch[0] if forward else -touch[0])
        raise TangentialGraze(
            f"residual of {section.ident} touched zero without crossing at t={tg:g}",
            t=tg, point=pg,
        )
    raise NoCrossing(
        f"no admissible crossing of {section.ident} within max_time={config.max_time:g}"
    )


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

"""Adaptive integration with dense output and refined section events.

Everything rides on DOP853 (8th-order embedded pair with a matching-order
interpolant; Hairer, Norsett & Wanner, *Solving ODEs I*, II.5), stepped
directly: one driver takes scipy's steps and dense outputs, and checks the
stopping section and the norm guard after each step exactly as ``solve_ivp``
checks terminal events, so the step sequence is ``solve_ivp``'s.  Section
crossings are located on the dense output, evaluated on a sub-step grid in
one batched pass, and verified against ``event_tol``.  A leg that ends
without an admissible crossing is checked for a tangential touch of its
target section: a turning point of the residual within ``sqrt(event_tol)`` of
zero is surfaced as ``TangentialGraze`` (a ``NoCrossing``) instead of a plain
``NoCrossing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate import solve_ivp  # noqa: F401  not called; perfbench/tracing.py wraps it by name
from scipy.optimize import brentq

from .errors import DomainExit, NoCrossing, StepSizeUnderflow, TangentialGraze

RHS = Callable[[float, np.ndarray], np.ndarray]


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


@dataclass
class Segment:
    """One solver run: the step ends ``t``, the states ``y`` (shape
    (n, len(t))), the dense output ``sol`` and the solver's work counts.

    The last step of a run stopped by an event keeps its full-step
    interpolant; ``t[-1]`` is the event time.
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
        return (np.array([s.t_old for s in steps]), np.array([s.h for s in steps]),
                np.array([s.F for s in steps]), np.array([s.y_old for s in steps]))

    def dense(self, ts: np.ndarray) -> np.ndarray:
        """``self.sol(ts)`` for a 1-D array of times, bit for bit, in one numpy
        pass over the stacked DOP853 interpolants.

        Each time takes the interpolant ``OdeSolution`` would pick (on a step
        boundary, the earlier step's, at x = 1), and x is computed from the
        time as ``(t - t_old) / h``, so every operation is the interpolant's.
        """
        sol = self.sol
        if not hasattr(sol.interpolants[0], "F"):  # zero-length span: constant
            return sol(ts)
        t_old, h, F, y_old = self._coefficients
        last = sol.n_segments - 1
        seg = np.searchsorted(sol.ts_sorted, ts, side=sol.side) - 1
        np.clip(seg, 0, last, out=seg)
        if not sol.ascending:
            seg = last - seg
        x = ((ts - t_old[seg]) / h[seg])[:, None]
        one_minus_x = 1 - x
        y = np.zeros((len(ts), F.shape[2]))
        # one coefficient row at a time, as the interpolant's Horner loop
        # does; gathering F[seg] whole costs len(ts) x 7 x n floats at once
        for i, row in enumerate(range(F.shape[1] - 1, -1, -1)):
            y += F[seg, row]
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

    def rhs(t: float, p: np.ndarray) -> np.ndarray:
        x, y = p.tolist()  # float math on Python floats, not np.float64
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

# Upper bound on solver restarts (one per rejected crossing) in one leg.
MAX_SEGMENTS = 200


def _scan_grid(seg: Segment) -> np.ndarray:
    ts = seg.t
    frac = np.arange(SCAN_SUBDIV) / SCAN_SUBDIV
    grid = ts[:-1, None] + np.diff(ts)[:, None] * frac[None, :]
    return np.append(grid.ravel(), ts[-1])


def _scan_crossings(seg: Segment, rhs: RHS, forward: bool,
                    sections: Sequence[SectionSpec]):
    """Locate every section crossing on a segment's dense output.

    Sign changes of each residual are bracketed on the sub-step grid and
    polished with brentq on the interpolant.  Returns (t, point, section,
    rate) tuples ordered along the orbit.
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
            rate = sec.residual_rate(rhs(te, pe))
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


def _find_graze(segments: Sequence[Segment], rhs: RHS, section: SectionSpec,
                config: IntegratorConfig) -> Optional[Tuple[float, np.ndarray]]:
    """First turning point of the section residual within sqrt(event_tol) of
    zero, as (t, point); None if the orbit never comes that close.

    Candidates are the extrema of the residual on each segment's scan grid;
    only those are polished, with brentq on the residual's rate.
    """
    band = math.sqrt(config.event_tol)
    for seg in segments:
        def rate(s):
            return section.residual_rate(rhs(s, seg.sol(s)))
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


def _dop853(rhs: RHS, t_span: Tuple[float, float], y0: np.ndarray,
            config: IntegratorConfig, stops: Sequence[Callable[[np.ndarray], float]]
            ) -> Tuple[Segment, Optional[Tuple[int, float, np.ndarray]]]:
    """Step DOP853 over ``t_span`` keeping every step's dense output, and stop
    at the first zero of one of ``stops`` (functions of the state).

    This is ``solve_ivp(method="DOP853", dense_output=True)`` with the stops
    as terminal events, step for step: a stop is active on a step when its
    value changes sign or touches zero between the step's ends (checked also
    on the step that finishes the span), its root is found by brentq on the
    step's interpolant, the root earliest along the orbit wins (the lower
    index on a tie), and the run ends at that root.  Returns the segment and
    ``(stop index, t, state)`` of the stop that ended it, or None.
    """
    t0, tf = map(float, t_span)
    solver = DOP853(rhs, t0, y0, tf, rtol=config.rtol, atol=config.atol,
                    max_step=config.max_step)
    ts, ys, steps = [t0], [y0], []
    g = [stop(y0) for stop in stops]
    hit = None
    while hit is None and solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise StepSizeUnderflow(message)
        t_old, t, y = solver.t_old, solver.t, solver.y
        sol = solver.dense_output()
        steps.append(sol)
        g_new = [stop(y) for stop in stops]
        active = [i for i, (a, b) in enumerate(zip(g, g_new))
                  if (a <= 0 and b >= 0) or (a >= 0 and b <= 0)]
        if active:
            roots = [brentq(lambda s, stop=stops[i]: stop(sol(s)), t_old, t,
                            xtol=EVENT_ROOT_TOL, rtol=EVENT_ROOT_TOL)
                     for i in active]
            sense = 1.0 if t > t_old else -1.0
            k = min(range(len(active)), key=lambda j: (sense * roots[j], j))
            t = roots[k]
            y = sol(t)
            hit = (active[k], t, y)
        g = g_new
        if len(ts) > 1 and ts[-1] == t:
            steps.pop()  # an event at the previous step's end: nothing new
        else:
            ts.append(t)
            ys.append(y)
    t_arr = np.array(ts)
    seg = Segment(t=t_arr, y=np.vstack(ys).T, sol=OdeSolution(t_arr, steps),
                  nfev=solver.nfev, njev=solver.njev, nlu=solver.nlu)
    return seg, hit


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
    """One small RK4 step so the residual clears the event band before restarting."""
    sgn = 1.0 if forward else -1.0
    rate = abs(sec.residual_rate(rhs(t0, p0)))
    dt = 50.0 * config.event_tol / max(rate, 1e-9)
    dt = sgn * min(max(dt, 1e-13), 1e-3)
    for _ in range(60):
        k1 = rhs(t0, p0)
        k2 = rhs(t0 + dt / 2, p0 + dt / 2 * k1)
        k3 = rhs(t0 + dt / 2, p0 + dt / 2 * k2)
        k4 = rhs(t0 + dt, p0 + dt * k3)
        p1 = p0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t1 = t0 + dt
        if abs(sec.residual(p1)) > 10 * config.event_tol:
            return t1, p1
        t0, p0 = t1, p1
    return t0, p0


def flow_to_section_traj(
    field,
    p0: Sequence[float],
    section: SectionSpec,
    config: Optional[IntegratorConfig] = None,
    t_direction: str = "forward",
    record_sections: Iterable[SectionSpec] = (),
) -> Tuple[EventHit, Trajectory]:
    """Integrate until the section is crossed in the admitted sense.

    The crossing is located on the dense output and verified to ``event_tol``.
    Crossings outside the section's interval or against its direction are
    skipped: the solver restarts just past them, at most ``MAX_SEGMENTS``
    times.  Crossings of ``record_sections`` met on the way are recorded.
    If no admissible crossing comes within ``max_time``, the residual is
    checked for a turning point within ``sqrt(event_tol)`` of zero: such a
    touch raises ``TangentialGraze``, anything else ``NoCrossing``.
    """
    config = config or IntegratorConfig()
    rhs = _as_rhs(field)
    forward = t_direction == "forward"
    record_sections = list(record_sections)

    t_cur = 0.0
    p_cur = np.asarray(p0, dtype=float)
    t_all: List[np.ndarray] = []
    p_all: List[np.ndarray] = []
    recorded: List[EventHit] = []
    segments: List[Segment] = []

    # Starting on the target section: the degenerate t=0 "crossing" is not the
    # one asked for; step off the section before arming the stopper.
    if abs(section.residual(p_cur)) <= 10 * config.event_tol:
        t_cur, p_cur = _nudge_off_section(rhs, t_cur, p_cur, section, config, forward)

    # The stopper (stop 0) only bounds the work per segment; crossings
    # themselves are located by the dense-output scan, which also sees pairs
    # of crossings that cancel across one step.  Stop 1 is the norm guard.
    stops = [section.residual, _norm_guard(config)]

    for _ in range(MAX_SEGMENTS):
        remaining = config.max_time - abs(t_cur)
        if remaining <= 0:
            break
        t_end = t_cur + (remaining if forward else -remaining)

        seg, stop = _dop853(rhs, (t_cur, t_end), p_cur, config, stops)
        t_all.append(seg.t)
        p_all.append(seg.y.T)
        segments.append(seg)

        hit: Optional[EventHit] = None
        for sec, ev in _admitted_hits(seg, rhs, forward, [section] + record_sections):
            if sec is section:
                hit = ev
                break
            recorded.append(ev)

        # A root landing exactly on the segment endpoint (the stopper stops
        # *at* the section) leaves no sign change for the scan to bracket.
        if hit is None and stop is not None and stop[0] == 0:
            _, te, pe = stop
            if abs(section.residual(pe)) <= config.event_tol and section.admits(pe):
                hit = _classify(section, te, pe,
                                section.residual_rate(rhs(te, pe)), forward)

        if hit is not None:
            traj = _assemble(t_all, p_all, recorded, segments, forward, hit)
            return hit, traj

        if stop is None:
            break  # ran to max_time
        if stop[0] == 1:
            raise DomainExit(
                f"trajectory norm exceeded {config.norm_guard:g} before reaching "
                f"section {section.ident}"
            )
        # Stopper fired on a crossing the filters rejected: step past it.
        _, te, pe = stop
        t_cur, p_cur = _nudge_off_section(rhs, te, pe, section, config, forward)

    graze = _find_graze(segments, rhs, section, config)
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


def _assemble(t_all, p_all, recorded, segments, forward, hit: EventHit) -> Trajectory:
    t = np.concatenate(t_all) if t_all else np.array([0.0])
    p = np.vstack(p_all) if p_all else np.zeros((1, 2))
    keep = (t <= hit.t) if forward else (t >= hit.t)
    t = np.append(t[keep], hit.t)
    p = np.vstack([p[keep], hit.point])
    events = sorted(recorded + [hit], key=lambda h: h.t, reverse=not forward)
    return Trajectory(t=t, points=p, events=events, segments=segments)


def sample_dense(traj: Trajectory, n: int) -> np.ndarray:
    """Evaluate the dense output on n time points spanning the trajectory."""
    ts = np.linspace(traj.t[0], traj.t[-1], n)
    out = np.empty((n, traj.points.shape[1]))
    todo = np.ones(n, dtype=bool)
    for seg in traj.segments:
        lo, hi = sorted((seg.sol.t_min, seg.sol.t_max))
        mask = todo & (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
        if mask.any():
            out[mask] = seg.dense(ts[mask]).T
            todo &= ~mask
    for i in np.flatnonzero(todo):
        # fall back to nearest sample
        out[i] = traj.points[int(np.argmin(np.abs(traj.t - ts[i])))]
    return out

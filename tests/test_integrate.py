"""Section-crossing detection on top of the adaptive integrator."""

import math
import operator
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from pytest import approx, raises
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from regtang import (
    DomainExit,
    IntegratorConfig,
    NoCrossing,
    SectionSpec,
    TangentialGraze,
    flow,
    flow_to_section_traj,
    sample_dense,
    trajectory_to_csv,
)
from regtang.integrate import (
    NORM_GUARD,
    SCAN_SUBDIV,
    Segment,
    _as_rhs,
    _dop853,
    _dop853_horner,
    _nudge_off_section,
    _radau,
    _radau_horner,
    _Run,
    _Scan,
    _screened,
    _step_state,
)


class fld:
    """Wrap a (x, y) -> (dx, dy) callable in the field protocol."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, x, y):
        return np.asarray(self.fn(x, y), dtype=float)


rotation = fld(lambda x, y: (-y, x))


def _scan_grid(seg):
    """The section scan's grid on a segment: SCAN_SUBDIV points per step
    between its ends, and the run's last time."""
    frac = np.arange(SCAN_SUBDIV) / SCAN_SUBDIV
    grid = seg.t[:-1, None] + np.diff(seg.t)[:, None] * frac[None, :]
    return np.append(grid.ravel(), seg.t[-1])


def _target_scan(sec, cfg):
    """A scan of a run of ``rotation`` whose target is ``sec``, as a leg to
    ``sec`` runs it."""
    return _Scan(_as_rhs(rotation), math.sqrt(cfg.event_tol), target=sec)


def test_linear_rotation_matches_closed_form():
    cfg = IntegratorConfig()
    traj = flow(rotation, (1.0, 0.0), (0.0, np.pi / 2), cfg)
    assert traj.end == approx((0.0, 1.0), abs=1e-9)


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=0.1, max_value=3.0))
def test_exponential_growth_closed_form(t_end):
    cfg = IntegratorConfig()
    traj = flow(fld(lambda x, y: (x, -y)), (1.0, 1.0), (0.0, t_end), cfg)
    assert traj.end[0] == approx(np.exp(t_end), rel=1e-8)
    assert traj.end[1] == approx(np.exp(-t_end), rel=1e-8)


def test_section_crossing_time_on_rotation():
    cfg = IntegratorConfig()
    sec = SectionSpec("vertical", 0.0, direction="down", ident="x:0")
    hit, traj = flow_to_section_traj(rotation, (1.0, 0.0), sec, cfg)
    assert hit.t == approx(np.pi / 2, abs=1e-9)
    assert hit.point[1] == approx(1.0, abs=1e-9)
    assert hit.section_id == "x:0"
    assert hit.direction == "down"


def test_direction_filter_skips_wrong_way_crossings():
    cfg = IntegratorConfig()
    # rotating from (1, 0): y = sin t crosses y = 0.5 upward at t = pi/6;
    # requiring "down" must wait until t = 5 pi/6.
    sec = SectionSpec("horizontal", 0.5, direction="down")
    hit = flow_to_section_traj(rotation, (1.0, 0.0), sec, cfg)[0]
    assert hit.t == approx(5 * np.pi / 6, abs=1e-9)


def test_section_direction_must_be_up_down_or_none():
    with raises(ValueError, match="direction"):
        flow(rotation, (1.0, 0.0), (0.0, 7.0),
             sections=[SectionSpec("horizontal", 0.5, direction="Up")])
    with raises(ValueError, match="direction"):
        flow_to_section_traj(rotation, (1.0, 0.0),
                             SectionSpec("horizontal", 0.5, direction="Up"))
    up = SectionSpec("horizontal", 0.5, direction="up")
    assert len(flow(rotation, (1.0, 0.0), (0.0, 7.0), sections=[up]).events) == 2


def test_interval_filter_rejects_hits_outside_window():
    cfg = IntegratorConfig()
    # first pass through x = 0 happens at y = 1; demand y within (-2, -0.5)
    sec = SectionSpec("vertical", 0.0, interval=(-2.0, -0.5))
    hit = flow_to_section_traj(rotation, (1.0, 0.0), sec, cfg)[0]
    assert hit.point[1] == approx(-1.0, abs=1e-9)


def test_short_dip_is_not_skipped():
    # X = (1, x) from (-d, eps): y dips below eps for a time ~2d only; the
    # sub-step scan must still catch the re-crossing near x = +d.
    eps = 1e-3
    d = 0.05
    cfg = IntegratorConfig()
    sec = SectionSpec("horizontal", eps, direction="up")
    hit = flow_to_section_traj(fld(lambda x, y: (1.0, x)), (-d, eps), sec, cfg)[0]
    assert hit.point[0] == approx(d, abs=1e-8)


# X = (1, x) from (-0.3, Y0) dips below y = 1e-5 for 0.043 in time: inside one
# DOP853 step (the steps grow tenfold on this polynomial field) and between two
# points of the scan grid
DIP_Y0 = 0.04477792055831936
DIP_X = math.sqrt(0.09 - 2 * (DIP_Y0 - 1e-5))  # |x| where y = 1e-5


def test_a_dip_between_grid_points_gives_both_crossings():
    traj = flow(fld(lambda x, y: (1.0, x)), (-0.3, DIP_Y0), (0.0, 1.0),
                IntegratorConfig(), sections=[SectionSpec("horizontal", 1e-5)])
    assert [ev.direction for ev in traj.events] == ["down", "up"]
    assert [ev.t for ev in traj.events] == approx([0.3 - DIP_X, 0.3 + DIP_X], abs=1e-12)
    for ev in traj.events:
        assert ev.point[1] == approx(1e-5, abs=1e-15)


def test_a_dip_between_grid_points_is_a_leg_s_hit():
    sec = SectionSpec("horizontal", 1e-5, direction="down")
    hit, traj = flow_to_section_traj(fld(lambda x, y: (1.0, x)), (-0.3, DIP_Y0), sec)
    assert hit.direction == "down"
    assert hit.point[0] == approx(-DIP_X, abs=1e-12)
    assert traj.end[0] == hit.point[0] and traj.t_end == hit.t
    # the run ends at the dip: it does not step on to the norm guard
    assert traj.segments[0].t[-1] == hit.t


@settings(deadline=None, max_examples=300)
@given(method=st.sampled_from([(_dop853_horner, 7), (_radau_horner, 3)]),
       data=st.data(),
       y_old=st.floats(min_value=-10.0, max_value=10.0),
       side=st.sampled_from([-1.0, 1.0]),
       reach=st.floats(min_value=0.0, max_value=1.5),
       h=st.floats(min_value=1e-6, max_value=1e3))
def test_a_screened_step_holds_no_crossing_and_no_touch(method, data, y_old, side,
                                                        reach, h):
    # the level lies on either side of the start state, up to 1.5 times the
    # screen's bound away; wherever the screen skips the step, the residual
    # must keep its start's sign and stay farther than the touch band from
    # zero
    horner, n_rows = method
    # many zero rows: the bound is tight where one row dominates
    rows = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-100.0, 100.0)),
                              min_size=n_rows, max_size=n_rows))
    band = math.sqrt(IntegratorConfig().event_tol)
    level = y_old - side * reach * (sum(map(abs, rows)) + 2 * band)
    if not _screened(sum(map(abs, rows)), y_old - level, band):
        return
    ts = np.linspace(0.0, h, 1000)[:, None]
    coef = np.broadcast_to(np.array(rows)[:, None, None], (n_rows, len(ts), 1))
    states = _step_state(horner, coef, 0.0, h, np.array([y_old]), ts)
    assert np.all(np.sign(y_old - level) * (states[:, 0] - level) > band)


def test_tangential_graze_is_flagged():
    # parabola y = eps + x^2/2 - d^2/2 dips to y_min = eps - d^2/2; a section
    # just below the minimum is never crossed, and the turning point sits
    # inside the near-section band, so it must be reported as a graze.
    eps = 1e-3
    d = 0.05
    sec = SectionSpec("horizontal", eps - d * d / 2 - 1e-8, direction="down")
    with raises(TangentialGraze):
        flow_to_section_traj(fld(lambda x, y: (1.0, x)), (-d, eps), sec,
                             IntegratorConfig(max_time=50.0))[0]


# x' = x, y' = y from (1, 1) leaves the norm bound at t = ln NORM_GUARD (13.8)
GROWTH = fld(lambda x, y: (x, y))
T_GUARD = math.log(NORM_GUARD)


def test_norm_guard_raises_domain_exit():
    # the section x = -5 is never reached: the run raises at the end of the
    # step that leaves the bound, and says where
    with raises(DomainExit) as info:
        flow_to_section_traj(GROWTH, (1.0, 1.0), SectionSpec("vertical", -5.0),
                             IntegratorConfig(max_time=100.0))[0]
    t, point = info.value.t, info.value.point
    assert T_GUARD < t < T_GUARD + 1.0
    assert max(abs(point)) >= NORM_GUARD
    assert point == approx([math.exp(t)] * 2, rel=1e-8)
    assert f"{NORM_GUARD:g}" in str(info.value) and f"t={t:g}" in str(info.value)


def test_no_crossing_when_time_runs_out():
    # the same orbit, with the time running out before the bound is left
    sec = SectionSpec("vertical", -5.0)
    with raises(NoCrossing) as info:
        flow_to_section_traj(GROWTH, (1.0, 1.0), sec, IntegratorConfig(max_time=13.0))[0]
    assert type(info.value) is NoCrossing
    with raises(DomainExit):
        flow_to_section_traj(GROWTH, (1.0, 1.0), sec, IntegratorConfig(max_time=14.0))[0]


def test_backward_time_sections():
    cfg = IntegratorConfig()
    sec = SectionSpec("vertical", -1.0)
    hit = flow_to_section_traj(fld(lambda x, y: (1.0, 0.0)), (0.0, 0.0), sec, cfg,
                               t_direction="backward")[0]
    assert hit.t == approx(-1.0, abs=1e-10)


def test_sample_dense_resolution_and_monotonicity():
    cfg = IntegratorConfig()
    sec = SectionSpec("vertical", 2.0)
    _, traj = flow_to_section_traj(fld(lambda x, y: (1.0, np.cos(x))), (0.0, 0.0), sec, cfg)
    dense = sample_dense(traj, 501)
    assert dense.shape == (501, 2)
    x = dense[:, 0]
    assert np.all(np.diff(x) >= 0)  # here x is the time variable
    assert np.max(np.abs(dense[:, 1] - np.sin(x))) < 1e-8


def _sample_dense_pointwise(traj, n):
    """Reference: one dense-output call per time point, first covering segment."""
    ts = np.linspace(traj.t[0], traj.t[-1], n)
    out = np.empty((n, traj.points.shape[1]))
    for i, ti in enumerate(ts):
        for seg in traj.segments:
            lo, hi = min(seg.t), max(seg.t)
            if lo - 1e-12 <= ti <= hi + 1e-12:
                out[i] = seg(ti)
                break
        else:
            out[i] = traj.points[int(np.argmin(np.abs(traj.t - ti)))]
    return out


def test_sample_dense_equals_pointwise_evaluation():
    down = SectionSpec("horizontal", 0.5, direction="down")
    _, fwd = flow_to_section_traj(rotation, (1.0, 0.0), down, IntegratorConfig())
    _, bwd = flow_to_section_traj(rotation, (1.0, 0.0), down, IntegratorConfig(),
                                  t_direction="backward")
    for traj in (fwd, bwd):
        assert np.array_equal(sample_dense(traj, 777), _sample_dense_pointwise(traj, 777))


def test_trajectory_csv_header_and_events():
    cfg = IntegratorConfig()
    sec = SectionSpec("vertical", 1.0, ident="stop")
    _, traj = flow_to_section_traj(fld(lambda x, y: (1.0, 0.0)), (0.0, 0.0), sec, cfg)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,event"
    assert any("stop" in ln for ln in lines[1:])


def test_section_residual_sign_conventions():
    up = SectionSpec("horizontal", 0.25)
    assert up.residual((0.0, 0.5)) == approx(0.25)
    assert up.residual((0.0, 0.0)) == approx(-0.25)
    vert = SectionSpec("vertical", -1.0)
    assert vert.residual((0.0, 0.0)) == approx(1.0)


def test_a_dip_found_by_looking_back_ends_the_run_in_the_previous_step():
    # the first step, [0, 1], is y = (t - 0.95)^2, which dips below 4e-4 on
    # (0.93, 0.97), between its last two grid points; the second, [1, 2],
    # rises by 1e-4 only, so the screen passes it over unless the step before
    # it was not.  The grid's least value is at t = 1, so only the second
    # step's test, which looks one grid point back, finds the dip.  The
    # steps are exact polynomials, as Radau rows Q0, Q1, Q2 per component.
    m, level, rise = 0.95, 4e-4, 1e-4

    def attempt(t, t_new, h, rejected, clamped):
        if t == 0.0:
            rows = (h, 2 * (t - m) * h, 0.0, h * h, 0.0, 0.0)
        else:
            rows = (h, rise, 0.0, 0.0, 0.0, 0.0)
        y = [t_new, (t_new - m) ** 2 if t == 0.0 else (1 - m) ** 2 + rise]
        return 1.0, rejected, (y, rows, [sum(map(abs, rows[c::2])) for c in (0, 1)])

    assert _screened(rise, (1 - m) ** 2 - level, 1e-6)
    rhs = lambda t, p: (1.0, 2 * (p[0] - m))
    scan = _Scan(rhs, 1e-6, target=SectionSpec("horizontal", level))
    run = _Run(rhs, (0.0, 2.0), np.array([0.0, m * m]), IntegratorConfig(), scan, 3,
               _radau_horner)
    run.h_abs = 1.0
    seg = run.run(attempt)
    assert scan.hit.direction == "down"
    assert scan.hit.t == approx(m - math.sqrt(level), abs=1e-12)
    # the second step is dropped, and the run ends inside the first
    assert seg.t.tolist() == [0.0, scan.hit.t] and seg.h.tolist() == [1.0]
    assert np.array_equal(seg.y[:, -1], scan.hit.point)


def test_a_stop_before_the_target_s_crossing_on_one_step_ends_the_run():
    # one step x = t on [0, 4e6]: it leaves the norm bound at t = 1e6, and
    # crosses the target x = 3e6 later on the same step.  The state the run
    # keeps, the hit, lies beyond the bound, so the run ends in DomainExit
    def attempt(t, t_new, h, rejected, clamped):
        return 1.0, rejected, ([t_new, 0.0], (h, 0.0, 0.0, 0.0, 0.0, 0.0), [abs(h), 0.0])

    rhs = lambda t, p: (1.0, 0.0)
    scan = _Scan(rhs, 1e-6, target=SectionSpec("vertical", 3 * NORM_GUARD))
    run = _Run(rhs, (0.0, 4 * NORM_GUARD), np.zeros(2), IntegratorConfig(), scan, 3,
               _radau_horner)
    run.h_abs = 4 * NORM_GUARD
    with raises(DomainExit) as info:
        run.run(attempt)
    assert info.value.t == approx(3 * NORM_GUARD, rel=1e-15) == scan.hit.t
    assert np.array_equal(info.value.point, scan.hit.point)


def test_rejected_crossing_does_not_restart_the_solver():
    # the scan passes over the upward crossing of y = 0.5 at t = pi/6, and
    # the same run steps on to the admitted one at t = 5 pi/6
    sec = SectionSpec("horizontal", 0.5, direction="down")
    hit, traj = flow_to_section_traj(rotation, (1.0, 0.0), sec, IntegratorConfig())
    assert hit.t == approx(5 * np.pi / 6, abs=1e-9)
    assert len(traj.segments) == 1
    assert traj.segments[0].t[0] == 0.0


def test_near_touch_then_crossing_returns_the_crossing():
    # y = (x - 1)^2 (x - 3): rises to a double root at x = 1, which stays
    # 1e-9 below the section, then crosses it upward near x = 3
    field = fld(lambda x, y: (1.0, (x - 1.0) * (3.0 * x - 7.0)))
    sec = SectionSpec("horizontal", 1e-9, direction="up")
    hit = flow_to_section_traj(field, (0.0, -3.0), sec, IntegratorConfig(max_time=50.0))[0]
    assert hit.point[0] == approx(3.0, abs=1e-8)
    assert hit.direction == "up"


def test_graze_is_a_no_crossing():
    eps = 1e-3
    d = 0.05
    sec = SectionSpec("horizontal", eps - d * d / 2 - 1e-8, direction="down")
    with raises(NoCrossing) as info:
        flow_to_section_traj(fld(lambda x, y: (1.0, x)), (-d, eps), sec,
                             IntegratorConfig(max_time=50.0))[0]
    assert isinstance(info.value, TangentialGraze)
    # the turning point of y = eps + x^2/2 - d^2/2 sits at x = 0, t = d
    assert info.value.t == approx(d, abs=1e-9)
    assert info.value.point[0] == approx(0.0, abs=1e-9)


def test_far_turning_point_is_not_a_graze():
    # y = sin t turns at +-1, far from y = 2: a plain NoCrossing
    with raises(NoCrossing) as info:
        flow_to_section_traj(rotation, (1.0, 0.0), SectionSpec("horizontal", 2.0),
                             IntegratorConfig(max_time=20.0))[0]
    assert type(info.value) is NoCrossing


def _sine_crossings(c, t_end, interval, direction):
    """Analytic crossings of y = c by (cos t, sin t) on (0, t_end]."""
    out = []
    base = np.arcsin(c)
    for k in range(int(t_end / (2 * np.pi)) + 2):
        for t, d in ((base + 2 * np.pi * k, "up"),
                     (np.pi - base + 2 * np.pi * k, "down")):
            if 0.0 < t <= t_end and interval[0] <= np.cos(t) <= interval[1] \
                    and direction in (None, d):
                out.append(t)
    return sorted(out)


@settings(deadline=None, max_examples=40)
@given(
    c=st.floats(min_value=-0.9, max_value=0.9),
    max_step=st.one_of(st.just(np.inf), st.floats(min_value=0.05, max_value=5.0)),
    t_end=st.floats(min_value=1.0, max_value=20.0),
    bounds=st.tuples(st.floats(min_value=-1.5, max_value=1.5),
                     st.floats(min_value=-1.5, max_value=1.5)),
    direction=st.sampled_from([None, "up", "down"]),
)
def test_section_scan_matches_analytic_crossings(c, max_step, t_end, bounds,
                                                 direction):
    lo, hi = min(bounds), max(bounds)
    xc = np.sqrt(1.0 - c * c)
    # keep every decision away from a boundary the tolerances cannot resolve
    assume(abs(c) > 1e-3 and hi - lo > 1e-3)
    assume(all(abs(b - s) > 1e-6 for b in (lo, hi) for s in (xc, -xc)))
    ts = np.concatenate([np.arcsin(c) + 2 * np.pi * np.arange(5),
                         np.pi - np.arcsin(c) + 2 * np.pi * np.arange(5)])
    assume(np.all(np.abs(ts - t_end) > 1e-6))

    sec = SectionSpec("horizontal", c, interval=(lo, hi), direction=direction)
    traj = flow(rotation, (1.0, 0.0), (0.0, t_end),
                IntegratorConfig(max_step=max_step), sections=[sec])
    expected = _sine_crossings(c, t_end, (lo, hi), direction)
    got = [ev.t for ev in traj.events]
    assert len(got) == len(expected)
    assert got == approx(expected, abs=1e-8)
    for ev in traj.events:
        assert ev.point[1] == approx(c, abs=1e-9)
        assert direction in (None, ev.direction)


# --------------------------------------------------------------------------
# the DOP853 driver against solve_ivp, with its scan's target as a terminal
# event
# --------------------------------------------------------------------------

# ``_dop853`` takes scipy's DOP853 step in its own summation order, so it meets
# solve_ivp at rounding level, not bit for bit.  Rounding moves the step sizes
# (the first steps' error estimates are rounding noise), and with them the
# truncation error.  The bounds are in units of each component's tolerance
# scale atol + rtol * |y_i| (``_tolerance_scale``).  END_TOL and DENSE_TOL were
# sized on 400 random linear systems with no zero entry.  On every test here
# but the dimension test's systems with a zero entry, the largest gaps are
# 0.0017 (end states) and 0.011 (stop states and dense output) under the
# SkylakeX, Haswell and Nehalem BLAS kernels, which move the rounding of
# solve_ivp and of the tests' ``M.dot`` right-hand sides.  Systems with a zero
# entry reach 0.010 and 0.23, and have bounds of their own at about twice that.
END_TOL, DENSE_TOL = 0.0082, 0.11
ZERO_END_TOL, ZERO_DENSE_TOL = 0.02, 0.5


def _terminal(stop):
    def event(t, p):
        return stop(p)
    event.terminal = True
    return event


def _tolerance_scale(cfg, ref):
    """atol + rtol * |y_i| for each component i, |y_i| the largest magnitude of
    that component over solve_ivp's run (rtol clamped as scipy clamps it)."""
    rtol = max(cfg.rtol, 100 * np.finfo(float).eps)
    return cfg.atol + rtol * np.max(np.abs(ref.y), axis=1)


def _assert_close(seg, stop, ref, cfg, end_tol=END_TOL, dense_tol=DENSE_TOL):
    """A ``_dop853`` run against solve_ivp's on the same inputs: the same
    steps, RHS calls and stop (``(event index, t, state)`` of the scan's
    hit, or None), each component of the end state within ``end_tol`` and of
    the stop state and the dense output within ``dense_tol`` of its
    tolerance scale."""
    assert len(seg.t) == len(ref.t)
    assert (seg.nfev, seg.njev, seg.nlu) == (ref.nfev, ref.njev, ref.nlu)
    scale = _tolerance_scale(cfg, ref)
    assert seg.t[0] == ref.t[0]
    fired = [i for i, te in enumerate(ref.t_events or []) if len(te)]
    if stop is None:
        assert fired == [] and seg.t[-1] == ref.t[-1]
        assert np.all(np.abs(seg.y[:, -1] - ref.y[:, -1]) <= end_tol * scale)
    else:
        i, te, pe = stop
        assert fired == [i]
        assert te == seg.t[-1] and np.array_equal(pe, seg.y[:, -1])
        assert np.all(np.abs(pe - ref.y_events[i][0]) <= dense_tol * scale)
    grid = _scan_grid(seg)
    assert np.all(np.abs(seg.dense(grid) - ref.sol(grid)) <= dense_tol * scale[:, None])


def _target_run(rhs, t_span, y0, cfg, target, scan_rhs=None):
    """``_dop853`` with a scan whose target is ``target`` (None: no target),
    the scan calling ``scan_rhs`` (default ``rhs``): the segment and the
    stop as ``_assert_close`` takes it."""
    scan = _Scan(scan_rhs or rhs, math.sqrt(cfg.event_tol), target=target)
    seg = _dop853(rhs, t_span, y0, cfg, scan)
    return seg, None if scan.hit is None else (0, scan.hit.t, scan.hit.point)


def _events(target):
    """solve_ivp's terminal events for a scan's target."""
    return [] if target is None else [_terminal(target.residual)]


def _assert_matches_solve_ivp(field, t_span, y0, cfg, target):
    """Run ``_dop853`` to ``target`` (a section, or None) and solve_ivp with
    it as a terminal event on the same inputs, and compare them
    (``_assert_close``).  Returns the ``_dop853`` segment and stop."""
    rhs = _as_rhs(field)
    y0 = np.asarray(y0, dtype=float)
    seg, stop = _target_run(rhs, t_span, y0, cfg, target)
    ref = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=cfg.rtol,
                    atol=cfg.atol, max_step=cfg.max_step, dense_output=True,
                    events=_events(target))
    _assert_close(seg, stop, ref, cfg)
    return seg, stop


def _last_step(seg):
    """The ends of the last step's full length, in ascending order."""
    return sorted((seg.t[-2], seg.t[-2] + seg.h[-1]))


def test_driver_matches_solve_ivp_forward_stop_mid_step():
    cfg = IntegratorConfig()
    seg, stop = _assert_matches_solve_ivp(
        rotation, (0.0, 1e6), (1.0, 0.0), cfg, SectionSpec("vertical", 0.0))
    assert stop[0] == 0 and stop[1] == approx(np.pi / 2, abs=1e-9)
    # the stop is inside the last step, whose interpolant keeps its full step
    assert seg.t[-2] < stop[1] < seg.t[-2] + seg.h[-1]


def test_driver_matches_solve_ivp_backward():
    cfg = IntegratorConfig(max_step=0.3)
    # backward from (1, 0), y = sin t first reaches 0.5 at t = -(pi + pi/6)
    _, stop = _assert_matches_solve_ivp(
        rotation, (0.0, -10.0), (1.0, 0.0), cfg, SectionSpec("horizontal", 0.5))
    assert stop[1] == approx(-7 * np.pi / 6, abs=1e-9)


def test_driver_matches_solve_ivp_when_the_guard_fires():
    # the run raises at the end of the step that leaves the norm bound: the
    # full step of solve_ivp's that holds the bound's root, a guard event
    cfg = IntegratorConfig(max_time=100.0)
    rhs = _as_rhs(GROWTH)
    with raises(DomainExit) as info:
        _target_run(rhs, (0.0, 100.0), np.ones(2), cfg, SectionSpec("vertical", -5.0))
    guard = _terminal(lambda p: max(abs(p)) - NORM_GUARD)
    ref = solve_ivp(rhs, (0.0, 100.0), np.ones(2), method="DOP853", rtol=cfg.rtol,
                    atol=cfg.atol, dense_output=True, events=[guard])
    assert ref.t_events[0][0] == approx(T_GUARD, abs=1e-9)
    last = ref.sol.interpolants[-1]
    assert last.t_old < T_GUARD < last.t
    # the step sizes move at rounding level (see above), and their sum by
    # 3.7e-9 here
    t, point = info.value.t, info.value.point
    assert abs(t - last.t) <= 1e-6 * (last.t - last.t_old)
    assert np.all(np.abs(point - last(t)) <= DENSE_TOL * _tolerance_scale(cfg, ref))


def test_driver_matches_solve_ivp_running_to_the_end():
    cfg = IntegratorConfig(max_time=1.0)
    seg, stop = _assert_matches_solve_ivp(
        fld(lambda x, y: (1.0, np.cos(x))), (0.0, 1.0), (0.0, 0.0), cfg,
        SectionSpec("vertical", 5.0))
    assert stop is None and seg.t[-1] == 1.0


def test_driver_matches_solve_ivp_on_a_root_at_the_previous_step_end():
    # a section one ulp past a step's end is met on the next step, but its
    # root rounds back to that step's start: the run ends on the earlier
    # step end, which is not repeated.  The level is the run's own state,
    # so solve_ivp's run, which differs at rounding level, is no reference.
    cfg = IntegratorConfig()
    free = _dop853(_as_rhs(rotation), (0.0, 6.0), np.array([1.0, 0.0]), cfg)
    k = 3
    level = np.nextafter(free.y[1, k], np.inf)  # y = sin t is rising here
    seg, stop = _target_run(_as_rhs(rotation), (0.0, 6.0), np.array([1.0, 0.0]), cfg,
                            SectionSpec("horizontal", level))
    assert stop[0] == 0 and stop[1] == free.t[k]
    assert np.array_equal(stop[2], free.y[:, k])
    assert np.array_equal(seg.t, free.t[:k + 1])


def test_driver_turning_upward_roots_down_matches_a_directed_solve_ivp_event():
    # a scan whose target is a 'down' section passes over the upward
    # crossings: that is solve_ivp with the section as a terminal event of
    # direction -1, and the leg's one segment is the ``_dop853`` run
    cfg = IntegratorConfig()
    rhs = _as_rhs(rotation)
    y0 = np.array([1.0, 0.0])
    sec = SectionSpec("horizontal", 0.5, direction="down")
    directed = _terminal(sec.residual)
    directed.direction = -1
    # y = sin t meets 0.5 upward first (t = pi/6, or -7 pi/6 backward)
    for sense, t_down in (("forward", 5 * np.pi / 6), ("backward", -11 * np.pi / 6)):
        span = (0.0, cfg.max_time if sense == "forward" else -cfg.max_time)
        seg, stop = _target_run(rhs, span, y0, cfg, sec)
        ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=cfg.rtol,
                        atol=cfg.atol, max_step=cfg.max_step, dense_output=True,
                        events=[directed])
        _assert_close(seg, stop, ref, cfg)
        assert stop[1] == approx(t_down, abs=1e-9)
        assert ref.t_events[0][0] == approx(t_down, abs=1e-9)
        hit, traj = flow_to_section_traj(rotation, y0, sec, cfg, t_direction=sense)
        assert hit.t == approx(stop[1], abs=1e-12)
        (leg,) = traj.segments
        assert np.array_equal(leg.t, seg.t) and leg.nfev == seg.nfev


def test_driver_matches_solve_ivp_on_a_zero_length_span():
    cfg = IntegratorConfig()
    seg, stop = _assert_matches_solve_ivp(rotation, (0.0, 0.0), (1.0, 0.0), cfg, None)
    assert stop is None and seg.nfev == 1
    traj = flow(rotation, (1.0, 0.0), (0.0, 0.0), cfg,
                sections=[SectionSpec("horizontal", 0.0)])
    assert len(traj) == 2
    assert [(ev.t, ev.direction) for ev in traj.events] == [(0.0, "up")]
    assert traj.segments[0].nfev == 1


def test_a_zero_length_span_starting_on_its_target_ends_there():
    # a 1-D state on the target at the start of a zero-length span: the
    # scan's hit is at t = 0, found with no division by the step's length 0
    scan = _Scan(lambda t, y: (1.0,), 1e-6, target=SectionSpec("vertical", 0.0))
    seg = _dop853(lambda t, y: (1.0,), (0.0, 0.0), [0.0], IntegratorConfig(), scan)
    assert (scan.hit.t, scan.hit.point.tolist(), scan.hit.direction) == (0.0, [0.0], "up")
    assert seg.t.tolist() == [0.0, 0.0] and seg.y.tolist() == [[0.0, 0.0]]
    assert seg.h.tolist() == [0.0] and seg.coef is None


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    forward=st.booleans(),
    max_step=st.one_of(st.just(np.inf), st.floats(min_value=0.05, max_value=2.0)),
    level=st.one_of(st.none(), st.floats(min_value=-0.9, max_value=0.9)),
)
def test_batched_dense_equals_pointwise_and_tracks_ode_solution(data, forward, max_step,
                                                                level):
    """``Segment.dense`` is ``Segment.__call__`` bit for bit, and both are
    within DENSE_TOL of solve_ivp's ``OdeSolution.__call__``, at step
    breakpoints too, on the event-truncated last step and on descending legs."""
    cfg = IntegratorConfig(max_step=max_step)
    span = (0.0, 8.0) if forward else (0.0, -8.0)
    target = None if level is None else SectionSpec("horizontal", level)
    rhs = _as_rhs(fld(lambda x, y: (-y + 0.1 * x * y, x)))
    y0 = np.array([1.0, 0.0])
    seg, stop = _target_run(rhs, span, y0, cfg, target)
    ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=cfg.rtol, atol=cfg.atol,
                    max_step=cfg.max_step, dense_output=True, events=_events(target))
    _assert_close(seg, stop, ref, cfg)
    lo, hi = min(seg.t), max(seg.t)
    inside = st.floats(min_value=lo, max_value=hi, allow_nan=False)
    ts = np.array(data.draw(st.lists(
        st.one_of(inside, st.sampled_from(seg.t.tolist())), min_size=1, max_size=40)))
    got = seg.dense(ts)
    assert np.all(np.abs(got - ref.sol(ts)) <= DENSE_TOL * _tolerance_scale(cfg, ref)[:, None])
    for j, t in enumerate(ts):
        assert np.array_equal(got[:, j], seg(t))


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    steps=st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=1, max_size=12),
    descending=st.booleans(),
    cut=st.floats(min_value=0.05, max_value=1.0),
)
def test_batched_dense_picks_ode_solutions_interpolant(data, steps, descending, cut):
    """On interpolants that do not join up at the step boundaries (random
    coefficients), ``Segment.dense`` still matches ``OdeSolution`` bit for
    bit: a boundary time takes the earlier step's interpolant, and the last
    step keeps its full-step coefficients although the run ends inside it."""
    sign = -1.0 if descending else 1.0
    ends = np.concatenate([[0.0], sign * np.cumsum(steps)])
    coef = st.floats(min_value=-10.0, max_value=10.0)
    y_old = np.array(data.draw(st.lists(st.lists(coef, min_size=2, max_size=2),
                                        min_size=len(steps), max_size=len(steps))))
    F = np.array(data.draw(st.lists(st.lists(st.lists(coef, min_size=2, max_size=2),
                                             min_size=7, max_size=7),
                                    min_size=len(steps), max_size=len(steps))))
    ts = ends.copy()
    ts[-1] = ends[-2] + cut * (ends[-1] - ends[-2])  # a run stopped by an event
    ref = OdeSolution(ts, [Dop853DenseOutput(ends[k], ends[k + 1], y_old[k], F[k])
                           for k in range(len(steps))])
    seg = Segment(t=ts, y=np.vstack([y_old, np.zeros(2)]).T, h=np.diff(ends), coef=F,
                  horner=_dop853_horner, nfev=0, njev=0, nlu=0)
    lo, hi = ref.t_min, ref.t_max
    inside = st.floats(min_value=lo, max_value=hi, allow_nan=False)
    extra = np.array(data.draw(st.lists(inside, max_size=20)))
    grid = np.concatenate([ts, extra, [lo - 1e-13, hi + 1e-13]])
    got = seg.dense(grid)
    assert np.array_equal(got, ref(grid))
    for j, t in enumerate(grid):
        assert np.array_equal(got[:, j], seg(t))
        assert np.array_equal(got[:, j], ref(t))


def _linear_system_runs(M, b, y0, span, cfg, level):
    """``_dop853`` and solve_ivp on y' = M y + t b, with an optional target
    y[0] = level; checks that nfev counts every call of the RHS (the scan's
    calls, at the crossings it classifies, are its own)."""
    calls = [0]

    def plain(t, p):
        return M.dot(p) + t * b

    def rhs(t, p):
        calls[0] += 1
        return plain(t, p)
    target = None if level is None else SectionSpec("vertical", level)
    seg, stop = _target_run(rhs, span, y0, cfg, target, scan_rhs=plain)
    assert calls[0] == seg.nfev
    ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=cfg.rtol, atol=cfg.atol,
                    max_step=cfg.max_step, dense_output=True, events=_events(target))
    return seg, stop, ref


def _entries(rng, shape):
    """Uniform entries in [-2, 2], one in seven of them zero."""
    return np.where(rng.random(shape) < 1 / 7, 0.0, rng.uniform(-2.0, 2.0, shape))


def test_driver_matches_solve_ivp_in_every_dimension():
    # the blow-up charts run 1-D and 3-D states, the cycle multiplier 3-D:
    # 400 random linear systems in dimensions 1-3 at rtol 1e-12 ... 1e-6, with
    # and without a stop; 254 of them have a zero entry
    rng = np.random.default_rng(2024)
    for _ in range(400):
        dim = int(rng.integers(1, 4))
        M, b, y0 = (_entries(rng, shape) for shape in ((dim, dim), dim, dim))
        rtol = float(10 ** rng.uniform(-12.0, -6.0))
        max_step = np.inf if rng.random() < 0.5 else float(rng.uniform(0.05, 2.0))
        span = (0.0, 3.0) if rng.random() < 0.5 else (0.0, -3.0)
        level = None if rng.random() < 0.4 else float(rng.uniform(-2.0, 2.0))
        cfg = IntegratorConfig(rtol=rtol, max_step=max_step)
        runs = _linear_system_runs(M, b, y0, span, cfg, level)
        if (M == 0).any() or (b == 0).any() or (y0 == 0).any():
            _assert_close(*runs, cfg, ZERO_END_TOL, ZERO_DENSE_TOL)
        else:
            _assert_close(*runs, cfg)


def test_driver_matches_solve_ivp_through_rejected_steps():
    # a fast decaying mode: steps grow to the explicit method's stability
    # limit and are rejected there.  At that limit rounding decides accepts
    # and rejects, so the counts are compared within 5 %: in the 3-D case the
    # BLAS kernel behind ``M.dot`` moves solve_ivp's steps from 263 to 272 and
    # ``_dop853``'s from 263 to 267 (SkylakeX, Haswell, Nehalem, Sandybridge),
    # 3.4 % apart at most.  It compares the end states alone: the
    # interpolant is not accurate on the fast mode at these steps, so the two
    # runs' dense outputs differ by its error
    for M, rtol in ((np.array([[-600.0]]), 1e-6),
                    (np.array([[-300.0, 1.0], [0.0, -1.0]]), 1e-6),
                    (np.array([[-200.0, 1.0, 0.0], [0.0, -1.0, 2.0],
                               [0.0, -2.0, -1.0]]), 1e-8)):
        cfg = IntegratorConfig(rtol=rtol)
        seg, stop, ref = _linear_system_runs(M, np.zeros(len(M)), np.ones(len(M)),
                                             (0.0, 8.0), cfg, None)
        assert stop is None and seg.t[-1] == ref.t[-1]
        assert np.all(np.abs(seg.y[:, -1] - ref.y[:, -1]) <= END_TOL * _tolerance_scale(cfg, ref))
        assert len(seg.t) == approx(len(ref.t), rel=0.05)
        assert seg.nfev == approx(ref.nfev, rel=0.05)
        # 2 calls to start, 12 per attempted step, 3 per dense output
        accepted = len(seg.t) - 1
        rejected, rest = divmod(seg.nfev - 2 - 15 * accepted, 12)
        assert rest == 0 and rejected > 0


def test_only_the_integrate_module_imports_scipy_integrate():
    # every ODE solve goes through integrate's public legs: no other module
    # of the package may reach for scipy's integrators, nor for a private
    # name of ``integrate`` (its steppers among them)
    import ast
    from pathlib import Path

    import regtang

    importers, private = [], []
    for path in sorted(Path(regtang.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
                if node.level == 1 and node.module == "integrate":
                    private += [(path.name, alias.name) for alias in node.names
                                if alias.name.startswith("_")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
                   for name in names):
                importers.append(path.name)
    assert set(importers) == {"integrate.py"}
    assert private == []


# --------------------------------------------------------------------------
# the Radau IIA stepper
# --------------------------------------------------------------------------

LAMBDA = -1e4


def _stiff_linear(t, p):
    # x' = 1 carries the time, y' = lambda (y - cos x) - sin x: y = cos t
    # plus a transient that decays at rate |lambda|
    x, y = p
    return np.array([1.0, LAMBDA * (y - np.cos(x)) - np.sin(x)])


def _stiff_linear_jac(t, p):
    x, _ = p
    return ((0.0, 0.0), (LAMBDA * np.sin(x) - np.cos(x), LAMBDA))


def _rotation_jac(t, p):
    return ((0.0, -1.0), (1.0, 0.0))


def test_radau_solves_a_stiff_linear_problem_to_its_tolerance():
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
    y0 = 1.5  # transient 0.5 exp(lambda t) on top of cos t
    seg = _radau(_stiff_linear, (0.0, 10.0), np.array([0.0, y0]), cfg, jac=_stiff_linear_jac)
    assert seg.t[-1] == 10.0
    exact = np.cos(seg.y[0]) + (y0 - 1.0) * np.exp(LAMBDA * seg.t)
    scale = cfg.atol + cfg.rtol * np.abs(exact)
    assert np.max(np.abs(seg.y[1] - exact) / scale) < 10.0
    assert np.allclose(seg.y[0], seg.t, rtol=1e-14, atol=0.0)
    # an explicit method is held to steps of O(1/|lambda|) over the span
    assert len(seg.t) - 1 < 1000
    assert seg.njev >= 1 and seg.nlu >= 2
    ts = np.linspace(0.0, 10.0, 2001)[1:]
    dense = seg.dense(ts)
    err = np.abs(dense[1] - np.cos(ts) - (y0 - 1.0) * np.exp(LAMBDA * ts))
    # between step ends the cubic interpolant is third order: 1.8e-6 here
    assert np.max(err) < 1e-5


@settings(deadline=None, max_examples=30)
@given(forward=st.booleans(),
       level=st.one_of(st.none(), st.floats(min_value=-0.9, max_value=0.9)))
def test_radau_batched_dense_equals_the_scalar_interpolant(forward, level):
    cfg = IntegratorConfig(rtol=1e-8)
    span = (0.0, 8.0) if forward else (0.0, -8.0)
    scan = None if level is None else _target_scan(SectionSpec("horizontal", level), cfg)
    seg = _radau(_as_rhs(rotation), span, np.array([1.0, 0.0]), cfg, scan, jac=_rotation_jac)
    assert seg.horner is _radau_horner
    grid = _scan_grid(seg)
    got = seg.dense(grid)
    for j, t in enumerate(grid):
        assert np.array_equal(got[:, j], seg(t))
    # the collocation polynomial ends on the step's end state up to rounding
    # (a step's end time takes that step's polynomial)
    for k in range(len(seg.t) - 2):
        y_end = seg.y[:, k + 1]
        jump = np.max(np.abs(seg(seg.t[k + 1]) - y_end))
        assert jump <= 4 * np.spacing(np.max(np.abs(y_end)))
    assert np.max(np.abs(got - np.array([np.cos(grid), np.sin(grid)]))) < 1e-6


def test_radau_stops_as_dop853_does():
    cfg = IntegratorConfig()
    line = fld(lambda x, y: (1.0, 0.0))
    zero = lambda t, p: ((0.0, 0.0), (0.0, 0.0))
    # the run ends inside its last step at the target's crossing; x' = 1 is
    # integrated to rounding and the steps grow tenfold, the last from
    # |t| ~ 11 to 100
    for span, level in (((0.0, 100.0), 30.0), ((0.0, -100.0), -30.0)):
        scan = _Scan(_as_rhs(line), math.sqrt(cfg.event_tol),
                     target=SectionSpec("vertical", level))
        seg = _radau(_as_rhs(line), span, np.zeros(2), cfg, scan, jac=zero)
        lo, hi = _last_step(seg)
        assert lo < level < hi
        assert scan.hit.t == approx(level, abs=1e-12)
        assert seg.t[-1] == scan.hit.t
    # the scan passes over an upward crossing of a 'down' section and the
    # run goes on
    sec = SectionSpec("horizontal", 0.5, direction="down")
    for span, t_down in (((0.0, 1e6), 5 * np.pi / 6), ((0.0, -1e6), -11 * np.pi / 6)):
        scan, ref_scan = _target_scan(sec, cfg), _target_scan(sec, cfg)
        seg = _radau(_as_rhs(rotation), span, np.array([1.0, 0.0]), cfg, scan,
                     jac=_rotation_jac)
        ref = _dop853(_as_rhs(rotation), span, np.array([1.0, 0.0]), cfg, ref_scan)
        assert seg.t[-1] == scan.hit.t and ref.t[-1] == ref_scan.hit.t
        assert scan.hit.t == approx(t_down, abs=1e-8)
        assert ref_scan.hit.t == approx(t_down, abs=1e-9)
    # the norm bound is left
    with raises(DomainExit) as info:
        _radau(_as_rhs(GROWTH), (0.0, 100.0), np.ones(2), cfg,
               _Scan(_as_rhs(GROWTH), 1e-6, target=SectionSpec("vertical", -5.0)),
               jac=lambda t, p: ((1.0, 0.0), (0.0, 1.0)))
    assert T_GUARD < info.value.t < T_GUARD + 1.0
    assert info.value.point == approx([math.exp(info.value.t)] * 2, rel=1e-6)


def test_radau_counts_every_rhs_call():
    calls = [0]

    def rhs(t, p):
        calls[0] += 1
        return _stiff_linear(t, p)
    seg = _radau(rhs, (0.0, 3.0), np.array([0.0, 2.0]), IntegratorConfig(),
                 jac=_stiff_linear_jac)
    assert calls[0] == seg.nfev


def _collocation_loop(rhs, t, y, h, Z0, scale, tol, inv_real, inv_complex):
    """scipy's ``radau.solve_collocation_system`` for a 2-D state as a loop
    over lists on Python floats: the reference for ``_radau_newton``."""
    from regtang import _tableaux as tab

    maxiter = tab.NEWTON_MAXITER
    m_real, m_complex = tab.MU_REAL / h, tab.MU_COMPLEX / h
    (a, b, c, d), (ac, bc, cc, dc) = inv_real, inv_complex
    (r0, r1, r2), (i0, i1, i2) = tab.RADAU_TI[0], tab.RADAU_TI_COMPLEX
    W = [[row[0] * Z0[0][j] + row[1] * Z0[1][j] + row[2] * Z0[2][j] for j in (0, 1)]
         for row in tab.RADAU_TI]
    Z = Z0
    ch = [h * cn for cn in tab.RADAU_C]
    y0, y1 = y
    dW_norm_old = rate = None
    for k in range(maxiter):
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
                                 rate ** (maxiter - k) / (1 - rate) * dW_norm > tol):
            break
        W = [[w + dw for w, dw in zip(wr, dwr)] for wr, dwr in zip(W, dW)]
        Z = [[row[0] * W[0][j] + row[1] * W[1][j] + row[2] * W[2][j] for j in (0, 1)]
             for row in tab.RADAU_T]
        if dW_norm == 0 or rate is not None and rate / (1 - rate) * dW_norm < tol:
            return True, k + 1, Z, rate
        dW_norm_old = dW_norm
    return False, k + 1, Z, rate


def _hexed(out):
    """A Newton result with every float as its hex string."""
    converged, iters, Z, rate = out
    return (converged, iters, [[float.hex(z) for z in row] for row in Z],
            None if rate is None else float.hex(rate))


def test_the_generated_newton_iteration_is_the_loop_bit_for_bit():
    # converging, diverging (rate >= 1) and non-finite solves of the stiff
    # linear field, also with a wrong Jacobian, and of a band field near its
    # fold, called and inlined
    from regtang import BandField, _tableaux as tab
    from regtang.integrate import _inverse2, _radau_newton
    from regtang.maps import TransitionConfig
    from regtang.scenarios import canonical_system

    def blow_up(t, p):  # its stages overflow to inf
        return p[0] * 1e308, p[1] * 1e308

    band = BandField(canonical_system(2), TransitionConfig(2, 6).tf, 1e-6)
    band_rhs, (fn, lead) = _as_rhs(band), band.kernel
    called, near_fold, y_lin = _radau_newton(None), [-0.01, 0.97], [0.3, 2.0]
    cases = [  # (rhs, its Newton iteration with the lead arguments bound, J, y)
        (_stiff_linear, partial(called, _stiff_linear), _stiff_linear_jac(0.0, y_lin), y_lin),
        (_stiff_linear, partial(called, _stiff_linear), ((0.0, 0.0), (0.0, 0.0)), y_lin),
        (band_rhs, partial(called, band_rhs), band.jacobian(*near_fold), near_fold),
        (band_rhs, partial(_radau_newton(fn.source), *lead), band.jacobian(*near_fold),
         near_fold),
        (blow_up, partial(called, blow_up), ((1e308, 0.0), (0.0, 1e308)), [2.0, 3.0])]
    seen = set()
    for rhs, newton, J, y in cases:
        scale = [1e-12 + abs(v) * 1e-10 for v in y]
        for h in (1e-9, 1e-6, 1e-3, 0.1, 2.0):
            inv = _inverse2(tab.MU_REAL / h, J), _inverse2(tab.MU_COMPLEX / h, J)
            for Z0 in ([[0.0, 0.0]] * 3, [[1e-7, -2e-7], [3e-7, 1e-8], [-4e-7, 5e-7]]):
                want = _collocation_loop(rhs, 0.5, y, h, Z0, scale, 0.03, *inv)
                got = newton(0.5, h, y, Z0, scale, 0.03, *inv, math.sqrt, math.isfinite)
                assert _hexed(got) == _hexed(want)
                seen.add((want[0], want[3] is not None and want[3] >= 1))
    assert seen == {(True, False), (False, True), (False, False)}


# --------------------------------------------------------------------------
# section crossings on a Radau leg
# --------------------------------------------------------------------------

class _StiffCosine:
    """x' = 1, y' = lambda (y - cos x) - sin x with its exact Jacobian: the
    orbit from (0, y0) is x = t, y = cos t + (y0 - 1) exp(lambda t), and
    ``flow_to_section_traj`` runs it on Radau (|lambda| > STIFF_RATIO eps)."""
    eps = 1e-3

    def eval(self, x, y):
        return _stiff_linear(0.0, (x, y))

    def jacobian(self, x, y):
        return _stiff_linear_jac(0.0, (x, y))


def _cosine_crossings(c, t_end, interval, direction):
    """Analytic crossings of y = c by y = cos t on (0, t_end), with t (= x)
    in the interval."""
    base = np.arccos(c)
    out = []
    for k in range(int(t_end / (2 * np.pi)) + 2):
        for t, d in ((base + 2 * np.pi * k, "down"),
                     (2 * np.pi - base + 2 * np.pi * k, "up")):
            if 0.0 < t < t_end and interval[0] <= t <= interval[1] and direction in (None, d):
                out.append(t)
    return sorted(out)


@settings(deadline=None, max_examples=25)
@given(
    c=st.floats(min_value=-0.9, max_value=0.9),
    t_end=st.floats(min_value=1.0, max_value=14.0),
    bounds=st.tuples(st.floats(min_value=0.0, max_value=14.0),
                     st.floats(min_value=0.0, max_value=14.0)),
    direction=st.sampled_from([None, "up", "down"]),
)
def test_section_scan_on_a_radau_leg_matches_analytic_crossings(c, t_end, bounds,
                                                                 direction):
    # the scan brackets the crossings on the Radau steps' polynomials and
    # brentq polishes them there
    lo, hi = min(bounds), max(bounds)
    ts = np.concatenate([np.arccos(c) + 2 * np.pi * np.arange(3),
                         2 * np.pi - np.arccos(c) + 2 * np.pi * np.arange(3)])
    assume(hi - lo > 1e-3)
    assume(np.all(np.abs(ts - t_end) > 1e-5) and np.all(np.abs(ts - lo) > 1e-5)
           and np.all(np.abs(ts - hi) > 1e-5))
    field = _StiffCosine()
    rec = SectionSpec("horizontal", c, interval=(lo, hi), direction=direction)
    target = SectionSpec("vertical", t_end, direction="up")
    hit, traj = flow_to_section_traj(field, (0.0, 1.5), target, IntegratorConfig(),
                                     record_sections=[rec])
    (seg,) = traj.segments
    assert seg.horner is _radau_horner and seg.njev > 0
    assert hit.t == approx(t_end, abs=1e-9) and hit.point[0] == approx(t_end, abs=1e-9)
    assert hit.point[1] == approx(np.cos(t_end), abs=1e-7)
    recorded = [ev for ev in traj.events if ev.section_id == rec.ident]
    expected = _cosine_crossings(c, t_end, (lo, hi), direction)
    assert [ev.t for ev in recorded] == approx(expected, abs=1e-7)
    for ev in recorded:
        assert ev.point[1] == approx(c, abs=1e-12)
        assert direction in (None, ev.direction)


# --------------------------------------------------------------------------
# what the driver carries of scipy: constants, start-up, brentq
# --------------------------------------------------------------------------

def test_every_copied_constant_is_scipys():
    from scipy.integrate import DOP853
    from scipy.integrate._ivp import radau, rk

    from regtang import _tableaux as tab

    n = tab.N_STAGES
    for mine, theirs in ((tab.A[:n, :n], DOP853.A), (tab.B, DOP853.B),
                         (tab.C[:n], DOP853.C), (tab.E3, DOP853.E3), (tab.E5, DOP853.E5),
                         (tab.D, DOP853.D), (tab.A_EXTRA, DOP853.A_EXTRA),
                         (tab.C_EXTRA, DOP853.C_EXTRA),
                         (tab.RADAU_C, radau.C), (tab.RADAU_E, radau.E),
                         (tab.RADAU_T, radau.T), (tab.RADAU_TI, radau.TI),
                         (tab.RADAU_TI_COMPLEX, radau.TI_COMPLEX), (tab.RADAU_P, radau.P)):
        assert np.array_equal(np.array(mine), theirs)
    assert tab.ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order
    assert (tab.MU_REAL, tab.MU_COMPLEX) == (radau.MU_REAL, radau.MU_COMPLEX)
    assert tab.NEWTON_MAXITER == radau.NEWTON_MAXITER
    assert (tab.SAFETY, tab.MIN_FACTOR, tab.MAX_FACTOR) == (rk.SAFETY, rk.MIN_FACTOR,
                                                            rk.MAX_FACTOR)
    assert (tab.RADAU_MIN_FACTOR, tab.RADAU_MAX_FACTOR) == (radau.MIN_FACTOR,
                                                            radau.MAX_FACTOR)
    assert tab.TOO_SMALL_STEP == DOP853.TOO_SMALL_STEP


@settings(deadline=None, max_examples=80)
@given(
    data=st.data(),
    dim=st.sampled_from([1, 2, 3]),
    forward=st.booleans(),
    span=st.floats(min_value=0.0, max_value=10.0),
    max_step=st.one_of(st.just(np.inf), st.floats(min_value=1e-4, max_value=2.0)),
    order=st.sampled_from([3, 7]),
    rtol=st.floats(min_value=1e-13, max_value=1e-3),
    atol=st.floats(min_value=1e-15, max_value=1e-6),
)
def test_initial_step_is_scipys(data, dim, forward, span, max_step, order, rtol, atol):
    from scipy.integrate._ivp.common import select_initial_step

    from regtang.integrate import _initial_step

    entry = st.floats(min_value=-5.0, max_value=5.0)
    vector = st.lists(entry, min_size=dim, max_size=dim)
    M = np.array(data.draw(st.lists(vector, min_size=dim, max_size=dim)))
    y0 = np.array(data.draw(vector))
    calls = []

    def fun(t, y):
        calls.append((t, y.tolist()))
        return M.dot(y)
    direction = 1.0 if forward else -1.0
    args = (0.0, y0, direction * span, max_step, fun(0.0, y0), direction, order, rtol, atol)
    calls.clear()
    theirs = select_initial_step(fun, *args)
    their_calls = calls[:]
    calls.clear()
    # the RMS norms are sums on Python floats, not BLAS's: a last-bit change
    # of the first trial step moves f1 - f0, which cancels, so the step can
    # move further (at most 242 ulps on 20,000 random cases and 46 on 20,000
    # draws of this strategy; the trial times at most 5 ulps, the trial
    # states 1 ulp of their largest component)
    assert abs(_initial_step(fun, *args) - theirs) <= 400 * np.spacing(theirs)
    assert len(calls) == len(their_calls)
    for (t, y), (their_t, their_y) in zip(calls, their_calls):
        assert abs(t - their_t) <= 8 * np.spacing(abs(their_t))
        assert np.all(np.abs(np.subtract(y, their_y)) <=
                      4 * np.spacing(np.max(np.abs(their_y))))


def _formula_step(M, b, t, h, y, num, mag=False):
    """One DOP853 step on y' = M y + t b by the tableau's formulas, in the
    number type ``num``: the new state, its RHS value and the 7 dense-output
    rows.  With ``mag`` every input and constant is replaced by its magnitude
    and every difference by a sum: the step's absolute terms."""
    from regtang import _tableaux as tab

    v = (lambda x: abs(num(x))) if mag else num
    sub = operator.add if mag else operator.sub
    n = len(y)
    M = [[v(e) for e in row] for row in M]
    b, y, t, h = [v(e) for e in b], [v(e) for e in y], v(t), v(h)

    def f(s, p):
        return [sum(M[i][j] * p[j] for j in range(n)) + s * b[i] for i in range(n)]

    def combo(coefs, i):
        return sum(v(c) * K[j][i] for j, c in enumerate(coefs[:len(K)]) if c)

    def stage(a, c):
        return f(t + v(c) * h, [y[i] + combo(a, i) * h for i in range(n)])
    K = [f(t, y)]
    for s in range(1, tab.N_STAGES):  # each stage reads the ones before it
        K.append(stage(tab.A[s], tab.C[s]))
    y_new = [y[i] + h * combo(tab.B, i) for i in range(n)]
    K.append(f(t + h, y_new))
    for a, c in zip(tab.A_EXTRA, tab.C_EXTRA):
        K.append(stage(a, c))
    d = [sub(y_new[i], y[i]) for i in range(n)]
    rows = [d, [sub(h * K[0][i], d[i]) for i in range(n)],
            [sub(2 * d[i], h * (K[-4][i] + K[0][i])) for i in range(n)]]
    rows += [[h * combo(row, i) for i in range(n)] for row in tab.D]
    return y_new, K[-4], rows


def test_generated_step_matches_exact_arithmetic():
    # the generated step for n = 1, 2, 3 against the same formulas in exact
    # arithmetic, each gap over the step's absolute terms: at most 1.9e-16
    # on 300 random steps
    from fractions import Fraction

    from regtang.integrate import _dop853_step

    rng = np.random.default_rng(853)
    for case in range(60):
        n = case % 3 + 1
        M, b, y = (rng.uniform(-2.0, 2.0, shape).tolist() for shape in ((n, n), n, n))
        t = float(rng.uniform(-5.0, 5.0))
        h = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3.0, 0.0))

        def rhs(s, p):
            return tuple(sum(M[i][j] * p[j] for j in range(n)) + s * b[i] for i in range(n))
        err, out = _dop853_step(n)(rhs, t, h, y, list(rhs(t, y)), 1.0, 1.0, math.sqrt)
        assert err < 1
        exact = _formula_step(M, b, t, h, y, Fraction)
        terms = _formula_step(M, b, t, h, y, float, mag=True)
        y_new, f_new, flat, bounds = out
        assert len(flat) == 7 * n
        # each component's rows summed in magnitude, left to right
        assert list(bounds) == [sum(map(abs, flat[c::n])) for c in range(n)]
        got = (y_new, f_new, *(flat[r * n:(r + 1) * n] for r in range(7)))
        for g, e, a in zip(got, (exact[0], exact[1], *exact[2]),
                           (terms[0], terms[1], *terms[2])):
            assert len(g) == n and all(type(c) is float for c in g)
            for gi, ei, ai in zip(g, e, a):
                assert float(abs(Fraction(gi) - ei)) <= 1e-15 * ai
    # a step far beyond the tolerance is turned down, with no rows
    err, out = _dop853_step(1)(lambda s, p: (p[0],), 0.0, 5.0, [1.0], [1.0], 1e-12, 1e-12,
                               math.sqrt)
    assert err >= 1 and out is None


def test_start_checks_the_inputs_as_scipy_does():
    import warnings

    from scipy.integrate import DOP853, Radau

    rhs = _as_rhs(rotation)
    zero = lambda t, p: ((0.0, 0.0), (0.0, 0.0))
    for y0, cfg in (((1.0, np.inf), IntegratorConfig()),
                    (((1.0, 0.0),), IntegratorConfig()),
                    ((1j, 0.0), IntegratorConfig()),
                    ((1.0, 0.0), IntegratorConfig(max_step=0.0)),
                    ((1.0, 0.0), IntegratorConfig(max_step=-1.0))):
        with raises(ValueError) as theirs:
            Radau(lambda t, p: rhs(t, p.tolist()), 0.0, np.array(y0), 1.0, rtol=cfg.rtol,
                  atol=cfg.atol, max_step=cfg.max_step)
        for run in (partial(_dop853, rhs, (0.0, 1.0), np.array(y0), cfg),
                    partial(_radau, rhs, (0.0, 1.0), np.array(y0), cfg, jac=zero)):
            with raises(ValueError) as mine:
                run()
            assert str(mine.value) == str(theirs.value)
    # an rtol below 100 eps warns, is raised to 100 eps, and the run is scipy's
    cfg = IntegratorConfig(rtol=1e-15, event_tol=1e-16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        DOP853(lambda t, p: rhs(t, p.tolist()), 0.0, np.array([1.0, 0.0]), 1.0,
               rtol=cfg.rtol, atol=cfg.atol)
        _dop853(rhs, (0.0, 1.0), np.array([1.0, 0.0]), cfg)
    (theirs, mine) = caught
    assert (mine.category, str(mine.message)) == (theirs.category, str(theirs.message))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _assert_matches_solve_ivp(rotation, (0.0, 3.0), (1.0, 0.0), cfg, None)


@pytest.mark.parametrize("bad", [
    dict(rtol=math.nan), dict(atol=math.nan), dict(rtol=0.0), dict(atol=-1e-12),
    dict(event_tol=math.nan), dict(event_tol=0.0), dict(event_tol=1e-9),
    dict(max_time=math.nan), dict(max_time=math.inf), dict(max_time=0.0),
    dict(atol=0.0), dict(max_time=-1.0), dict(max_step=math.nan),
])
def test_integrator_config_rejects_nan_and_out_of_range_values(bad):
    with raises(ValueError):
        IntegratorConfig(**bad)


def test_integrator_config_keeps_the_values_the_solver_takes():
    IntegratorConfig(rtol=1e-6, atol=1e-300, event_tol=1e-6, max_time=1e-3,
                     max_step=math.inf)
    IntegratorConfig(max_step=0.0)  # left to the run's start, as scipy does


def _brentq_outcome(brentq, f, a, b, **kw):
    """(root or exception type and message, abscissae f was called at)."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    try:
        out = brentq(g, a, b, **kw)
        assert type(out) is float
    except (ValueError, RuntimeError) as exc:
        out = (type(exc), str(exc))
    return out, calls


@settings(deadline=None, max_examples=300)
@given(
    coef=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=6),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
    a=st.floats(min_value=-3.0, max_value=3.0),
    b=st.floats(min_value=-3.0, max_value=3.0),
    xtol=st.sampled_from([2e-12, 1e-15, 1e-6, 0.0, -1.0]),
    rtol=st.sampled_from([4 * np.finfo(float).eps, 8.9e-16, 1e-10, 1e-16]),
    maxiter=st.sampled_from([100, 0, 1, 3, 8]),
    nan_at=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_brentq_is_scipys(coef, scale, a, b, xtol, rtol, maxiter, nan_at):
    from scipy.optimize import brentq as scipy_brentq

    from regtang.integrate import brentq

    def f():
        """The polynomial, NaN from call ``nan_at`` on (counted per root search)."""
        calls = []

        def poly(x):
            calls.append(x)
            if nan_at is not None and len(calls) > nan_at:
                return np.nan
            v = 0.0
            for q in coef:
                v = v * x + q
            return scale * v
        return poly
    kw = dict(xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert _brentq_outcome(brentq, f(), a, b, **kw) == \
        _brentq_outcome(scipy_brentq, f(), a, b, **kw)


def test_brentq_errors_are_scipys():
    from scipy.optimize import brentq as scipy_brentq

    from regtang.integrate import brentq

    for f, kw in ((lambda x: x * x + 1.0, {}),                 # no sign change
                  (lambda x: 1e-200, {}),                      # signs of tiny values
                  (lambda x: np.nan, {}),
                  (lambda x: x ** 3 - 0.3, dict(maxiter=2)),   # no convergence
                  (lambda x: x - 0.3, dict(xtol=0.0)),
                  (lambda x: x - 0.3, dict(rtol=1e-16)),
                  (lambda x: x - 0.3, dict(maxiter=-1))):
        theirs = _brentq_outcome(scipy_brentq, f, 0.0, 1.0, **kw)
        assert isinstance(theirs[0], tuple)
        assert _brentq_outcome(brentq, f, 0.0, 1.0, **kw) == theirs


def test_importing_the_package_and_its_cli_loads_no_scipy(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import regtang

    src = str(Path(regtang.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    # the imports alone, then a cycle run with its Hausdorff distance
    cycle = ["cycle", "--eps", "0.02", "--workers", "1", "--out", str(tmp_path)]
    for run in ("", f"assert regtang.cli.main({cycle!r}) == 0; "):
        code = ("import sys, regtang, regtang.cli; " + run +
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "cycle-polyline-0.csv").exists()


# Legs whose bytes must not depend on the BLAS kernel numpy runs: DOP853 band
# legs of the departure abscissa and of the lower map, and a Radau leg
_KERNEL_FREE_LEGS = """
from regtang import TransitionConfig, find_x_epsilon, lambda_star, lower_transition_map
from regtang.scenarios import canonical_system

one, two = canonical_system(1), canonical_system(2)
legs = [find_x_epsilon(one, TransitionConfig(1, 2), eps) for eps in (1e-2, 1e-3, 1e-4)]
legs += [lower_transition_map(one, TransitionConfig(1, 2), 1e-3, y_in).y_out
         for y_in in (-2e-3, -5e-4, 5e-4)]
legs.append(find_x_epsilon(two, TransitionConfig(2, 6, lam=0.999 * lambda_star(2, 6)), 1e-6))
"""


def _blas_kernel_is_selectable() -> bool:
    """Whether ``OPENBLAS_CORETYPE`` picks numpy's BLAS kernels: an OpenBLAS
    built with DYNAMIC_ARCH, on an x86-64 CPU (numpy 1.26 or later tells)."""
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and platform.machine().lower() in ("x86_64", "amd64"))


def test_legs_give_the_same_bytes_on_another_blas_kernel():
    # the steppers make no BLAS call: Nehalem's kernels (they run on any
    # x86-64 CPU) leave every digit of these legs as they are in process
    import os
    import subprocess
    import sys
    from pathlib import Path

    import regtang

    if not _blas_kernel_is_selectable():
        pytest.skip("OPENBLAS_CORETYPE selects no kernel of this numpy on this CPU")
    if os.environ.get("OPENBLAS_CORETYPE", "").lower() == "nehalem":
        pytest.skip("this process runs Nehalem's kernels already")
    scope: dict = {}
    exec(_KERNEL_FREE_LEGS, scope)
    src = str(Path(regtang.__file__).parent.parent)
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", _KERNEL_FREE_LEGS + "print(repr(legs))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == repr(scope["legs"])


def _numpy_nudge(rhs, t0, p0, sec, config, forward):
    """The RK4 nudge off a section, on numpy arrays."""
    sgn = 1.0 if forward else -1.0
    rate = abs(sec.residual_rate(rhs(t0, p0.tolist())))
    dt = 50.0 * config.event_tol / max(rate, 1e-9)
    dt = sgn * min(max(dt, 1e-13), 1e-3)
    for _ in range(60):
        k1 = np.array(rhs(t0, p0.tolist()))
        k2 = np.array(rhs(t0 + dt / 2, (p0 + dt / 2 * k1).tolist()))
        k3 = np.array(rhs(t0 + dt / 2, (p0 + dt / 2 * k2).tolist()))
        k4 = np.array(rhs(t0 + dt, (p0 + dt * k3).tolist()))
        p1 = p0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t1 = t0 + dt
        if abs(sec.residual(p1)) > 10 * config.event_tol:
            return t1, p1
        t0, p0 = t1, p1
    return t0, p0


def test_nudge_off_section_equals_a_numpy_rk4_bit_for_bit():
    from regtang import BandField, RegularizedField, phi_family
    from regtang.cycles import _augmented_rhs
    from regtang.scenarios import boundary_cycle_system, canonical_system

    cfg = IntegratorConfig()
    reg = RegularizedField(boundary_cycle_system(k=2), phi_family(5), 1e-2)
    band = BandField(canonical_system(k=1), phi_family(1), 1e-3)
    cases = [  # the return-map leg of the cycle study, 3-D; a band leg, 2-D
        (_augmented_rhs(reg), (-0.3, 0.02, 0.0),
         SectionSpec("vertical", -0.3, direction="up")),
        (_as_rhs(band), (-0.2, 1.0), SectionSpec("horizontal", 1.0, direction="up")),
    ]
    for rhs, p0, sec in cases:
        for forward in (True, False):
            t, p = _nudge_off_section(rhs, 0.0, list(p0), sec, cfg, forward)
            t_ref, p_ref = _numpy_nudge(rhs, 0.0, np.array(p0), sec, cfg, forward)
            assert t == t_ref and t != 0.0
            assert p == p_ref.tolist()
            assert all(type(c) is float for c in p)


class _PlainCallable:
    """A field's ``eval`` as a plain right-hand side, which carries no
    kernel, so each stage of either stepper calls it; the field's ``kinks``,
    and its ``jacobian`` and ``eps``, which pick the stepper, go along."""

    def __init__(self, field):
        self.ev, self.kinks = field.eval, getattr(field, "kinks", ())
        if hasattr(field, "jacobian"):
            self.jacobian, self.eps = field.jacobian, field.eps

    def __call__(self, t, p):
        x, y = p
        return self.ev(x, y)


def test_an_inlined_kernel_steps_as_the_call_of_its_field_bit_for_bit(monkeypatch):
    # a band leg that lands on yhat = 1 (its landing run included), a
    # regularized leg once round the boundary cycle, and an outer leg: the
    # fused step gives every number of the step that calls the field
    from regtang import BandField, RegularizedField, integrate, phi_family
    from regtang.cycles import RETURN_INTEG
    from regtang.maps import TransitionConfig
    from regtang.regularize import SlowManifold
    from regtang.scenarios import boundary_cycle_system, canonical_system

    landings = []
    land = integrate._land

    def counting(leg, seg, scan):
        landings.append(seg.t[-1])
        return land(leg, seg, scan)

    monkeypatch.setattr(integrate, "_land", counting)
    canonical = canonical_system(k=1)
    tf = TransitionConfig(1, 2).tf
    band = BandField(canonical, tf, 1e-3)
    reg = RegularizedField(boundary_cycle_system(k=2), phi_family(5), 1e-2)
    legs = [
        (band, (-0.5, SlowManifold(canonical, tf).m0(-0.5)),
         SectionSpec("horizontal", 1.0, direction="up"), IntegratorConfig(max_time=1e5), ()),
        (reg, (-0.3, 0.02), SectionSpec("vertical", -0.3, (0.0, math.inf), "up"),
         RETURN_INTEG, [SectionSpec("vertical", -0.3, ident="anycross")]),
        (canonical.x_plus, (-0.01, 0.001), SectionSpec("vertical", 0.5), IntegratorConfig(), ()),
    ]
    for field, p0, sec, cfg, records in legs:
        assert _as_rhs(field).kernel is not None
        del landings[:]
        (hit, traj), (ref_hit, ref) = [
            flow_to_section_traj(f, p0, sec, cfg, record_sections=records)
            for f in (field, _PlainCallable(field))]
        # the band leg lands, both ways, and the others do not
        assert len(landings) == (2 if field is band else 0)
        _assert_same_leg((hit, traj), (ref_hit, ref))
        if field is reg:  # once round, recording the section's line
            assert any(e.section_id == "anycross" for e in traj.events)


def _assert_same_leg(leg, ref_leg):
    """The two ``(hit, trajectory)`` of one leg agree bit for bit: steps,
    states, dense output, work counts, hit and events."""
    (hit, traj), (ref_hit, ref) = leg, ref_leg
    (seg,), (ref_seg,) = traj.segments, ref.segments
    for a, b in ((seg.t, ref_seg.t), (seg.y, ref_seg.y), (seg.h, ref_seg.h),
                 (seg.coef, ref_seg.coef)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (seg.nfev, seg.njev, seg.nlu) == (ref_seg.nfev, ref_seg.njev, ref_seg.nlu)
    assert (hit.t, hit.point.tobytes(), hit.direction) == (
        ref_hit.t, ref_hit.point.tobytes(), ref_hit.direction)
    assert [(e.t, e.section_id) for e in traj.events] == [
        (e.t, e.section_id) for e in ref.events]


@pytest.mark.parametrize("k, n, eps", [(1, 2, 1e-5), (2, 6, 1e-6)])
def test_an_inlined_kernel_solves_radau_newton_as_the_call_of_its_field(monkeypatch, k, n,
                                                                      eps):
    # the departure legs at the smallest eps of the benchmark, stiff, on
    # Radau IIA: its Newton iteration with the band field's kernel inlined
    # gives every number of the iteration that calls the field, the
    # landing run on yhat = 1 included
    from regtang import BandField, integrate, lambda_star, maps
    from regtang.maps import TransitionConfig, find_x_epsilon
    from regtang.scenarios import canonical_system

    legs, landings = [], []
    flow, land = maps.flow_to_section_traj, integrate._land

    def both(field, *args, **kwargs):
        assert isinstance(field, BandField) and _as_rhs(field).kernel is not None
        legs.append([flow(f, *args, **kwargs) for f in (field, _PlainCallable(field))])
        return legs[-1][0]

    def counting(leg, seg, scan):
        landings.append(seg.t[-1])
        return land(leg, seg, scan)

    monkeypatch.setattr(maps, "flow_to_section_traj", both)
    monkeypatch.setattr(integrate, "_land", counting)
    find_x_epsilon(canonical_system(k), TransitionConfig(k, n, lam=0.999 * lambda_star(k, n)),
                   eps)
    assert len(legs) == 1 and len(landings) == 2  # each way, the leg lands
    (leg, ref_leg), = legs
    assert leg[1].segments[0].njev > 0  # a Radau leg
    _assert_same_leg(leg, ref_leg)


def test_one_generated_newton_iteration_serves_a_field_family_at_every_eps(monkeypatch):
    # the band kernel takes eps as an argument, so the Radau legs of one
    # system and profile at every eps share one generated Newton iteration
    from collections import OrderedDict

    from regtang import BandField, lambda_star, polys
    from regtang.integrate import _radau_newton
    from regtang.maps import TransitionConfig, find_x_epsilon
    from regtang.scenarios import canonical_system

    monkeypatch.setattr(polys, "_KERNELS", OrderedDict())
    system, cfg = canonical_system(2), TransitionConfig(2, 6, lam=0.999 * lambda_star(2, 6))
    for eps in (1e-5, 1e-6):
        find_x_epsilon(system, cfg, eps)
    (key,) = [key for key in polys._KERNELS if key[0] == "radau"]
    fn = polys._KERNELS[key]
    for eps in (1e-5, 1e-6, 1e-7):
        kernel, _ = BandField(system, cfg.tf, eps).kernel
        assert key == ("radau", kernel.source) and _radau_newton(kernel.source) is fn


def test_an_inlined_augmented_kernel_steps_as_the_call_of_its_field_bit_for_bit():
    # the return-map leg with the divergence integral (3-D) inlines the
    # field's augmented kernel and steps as the leg that calls it
    from regtang import RegularizedField, phi_family
    from regtang.cycles import RETURN_INTEG, _augmented_rhs
    from regtang.scenarios import boundary_cycle_system

    reg = RegularizedField(boundary_cycle_system(k=2), phi_family(5), 1e-2)
    rhs = _augmented_rhs(reg)
    assert rhs.kernel == reg.augmented_kernel
    sec = SectionSpec("vertical", -0.3, (0.0, math.inf), "up")
    records = [SectionSpec("vertical", -0.3, ident="anycross")]
    _assert_same_leg(*[flow_to_section_traj(f, (-0.3, 0.02, 0.0), sec, RETURN_INTEG,
                                            record_sections=records)
                       for f in (rhs, lambda t, p: reg.augmented(*p))])

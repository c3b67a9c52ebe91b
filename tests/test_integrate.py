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
    StepSizeUnderflow,
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
    _dop853_eval,
    _loop_source,
    _nudge_off_section,
    _radau,
    _radau_eval,
    _Run,
    _Scan,
    _screened,
)
from regtang.polys import compile_kernel


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


# --------------------------------------------------------------------------
# deleted code, kept as the reference of the code that replaced it
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


def _step_state(horner, coef, t_old, h, y_old, t):
    """The state at time ``t`` on the dense output of one step from
    ``(t_old, y_old)`` of full length ``h`` with coefficient rows ``coef``
    (None: the constant state of a zero-length span)."""
    if coef is None:
        return y_old
    return horner(reversed(coef), (t - t_old) / h, y_old)


def _ref_rms_norm(x):
    """scipy's RMS ``norm``, summed left to right on Python floats."""
    return math.sqrt(sum(v * v for v in x.tolist())) / x.size ** 0.5


def _ref_initial_step(fun, t0, y0, t_bound, f0, direction, order, rtol, atol):
    """``_initial_step`` on numpy arrays."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _ref_rms_norm(y0 / scale)
    d1 = _ref_rms_norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _ref_rms_norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, interval_length)


def _ref_start(rhs, t, t_bound, y0, config, order):
    """``_start`` on numpy arrays: the state and its RHS value come back as
    arrays."""
    import warnings

    from regtang.integrate import _EPS, NORM_GUARD

    y = np.asarray(y0)
    if np.issubdtype(y.dtype, np.complexfloating):
        raise ValueError("`y0` is complex, but the chosen solver does not support "
                         "integration in a complex domain.")
    y = y.astype(float, copy=False)
    if y.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    rtol, atol = config.rtol, config.atol
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.", stacklevel=4)
        rtol = max(rtol, 100 * _EPS)
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    direction = float(np.sign(t_bound - t)) if t_bound != t else 1.0
    if np.max(np.abs(y)) > NORM_GUARD:
        raise DomainExit(f"trajectory norm exceeded {NORM_GUARD:g} at t={t:g}", t=t,
                         point=y)
    nfev = 0

    def fun(s, p):
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(s, p.tolist()), dtype=float)
    f = fun(t, y)
    h_abs = _ref_initial_step(fun, t, y, t_bound, f, direction, order, rtol, atol)
    return y, f, float(rtol), float(atol), direction, float(h_abs), nfev


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


def _scripted_loop(n, attempt):
    """A run loop (``_loop_source``) for an ``n``-dimensional state whose
    step attempt is the Python callable ``attempt(t, t_new, h, rejected,
    clamped)``: it returns ``(size, rejected, None)`` to try again with that
    size, or the next step's proposed size and ``(state, coefficient rows,
    bounds)``."""
    loop = compile_kernel(*_loop_source(n, ["_attempt"], [], [], [
        "_sa, _rejected, _out = _attempt(_t, _tn, _h, _rejected, _clamped)",
        "if _out is None:",
        "    continue",
        "_yn, _rows, _bnd = _out",
        "break"]))
    return partial(loop, attempt)


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
               _radau_eval)
    run.h_abs = 1.0
    seg = run.segment(_scripted_loop(2, attempt))
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
               _radau_eval)
    run.h_abs = 4 * NORM_GUARD
    with raises(DomainExit) as info:
        run.segment(_scripted_loop(2, attempt))
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
    t_end=st.floats(min_value=1.0, max_value=20.0),
    bounds=st.tuples(st.floats(min_value=-1.5, max_value=1.5),
                     st.floats(min_value=-1.5, max_value=1.5)),
    direction=st.sampled_from([None, "up", "down"]),
)
def test_section_scan_matches_analytic_crossings(c, t_end, bounds, direction):
    lo, hi = min(bounds), max(bounds)
    xc = np.sqrt(1.0 - c * c)
    # keep every decision away from a boundary the tolerances cannot resolve
    assume(abs(c) > 1e-3 and hi - lo > 1e-3)
    assume(all(abs(b - s) > 1e-6 for b in (lo, hi) for s in (xc, -xc)))
    ts = np.concatenate([np.arcsin(c) + 2 * np.pi * np.arange(5),
                         np.pi - np.arcsin(c) + 2 * np.pi * np.arange(5)])
    assume(np.all(np.abs(ts - t_end) > 1e-6))

    sec = SectionSpec("horizontal", c, interval=(lo, hi), direction=direction)
    traj = flow(rotation, (1.0, 0.0), (0.0, t_end), IntegratorConfig(), sections=[sec])
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
                    atol=cfg.atol, dense_output=True,
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
    cfg = IntegratorConfig()
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
                        atol=cfg.atol, dense_output=True,
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
    level=st.one_of(st.none(), st.floats(min_value=-0.9, max_value=0.9)),
)
def test_batched_dense_equals_pointwise_and_tracks_ode_solution(data, forward, level):
    """``Segment.dense`` is ``Segment.__call__`` bit for bit, and both are
    within DENSE_TOL of solve_ivp's ``OdeSolution.__call__``, at step
    breakpoints too, on the event-truncated last step and on descending legs."""
    cfg = IntegratorConfig()
    span = (0.0, 8.0) if forward else (0.0, -8.0)
    target = None if level is None else SectionSpec("horizontal", level)
    rhs = _as_rhs(fld(lambda x, y: (-y + 0.1 * x * y, x)))
    y0 = np.array([1.0, 0.0])
    seg, stop = _target_run(rhs, span, y0, cfg, target)
    ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=cfg.rtol, atol=cfg.atol,
                    dense_output=True, events=_events(target))
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
                  horner=_dop853_eval, nfev=0, njev=0, nlu=0)
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
                    dense_output=True, events=_events(target))
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
        # the draws of a step-size bound the config no longer has, kept so
        # that these are the 400 systems the bounds above were sized on
        if rng.random() >= 0.5:
            rng.uniform(0.05, 2.0)
        span = (0.0, 3.0) if rng.random() < 0.5 else (0.0, -3.0)
        level = None if rng.random() < 0.4 else float(rng.uniform(-2.0, 2.0))
        cfg = IntegratorConfig(rtol=rtol)
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
    assert seg.horner is _radau_eval
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


def _collocation_loop(rhs, t, y, h, Z0, scale, tol, inv_real, inv_complex, seen=None):
    """scipy's ``radau.solve_collocation_system`` for a 2-D state as a loop
    over lists on Python floats, the reference for the Newton iteration of
    the generated Radau loop: ``(outcome, iterations, Z, rate)``, the
    outcome ``"converged"``, ``"diverged"`` (rate >= 1), ``"slow"`` (too
    slow to converge in time), ``"not finite"`` (a stage value), ``"overflow"``
    (a stage raised ``OverflowError``, a kernel's power past the float range)
    or ``"maxiter"``.  A norm whose square passes the float range is numpy's
    inf, and ``"norm overflow"`` goes into the set ``seen``, if given."""
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
    outcome = "maxiter"
    for k in range(maxiter):
        try:
            (f00, f01), (f10, f11), (f20, f21) = [
                rhs(t + ch[i], [y0 + Z[i][0], y1 + Z[i][1]]) for i in range(3)]
        except OverflowError:
            outcome = "overflow"
            break
        if not all(map(math.isfinite, (f00, f01, f10, f11, f20, f21))):
            outcome = "not finite"
            break
        fr0 = f00 * r0 + f10 * r1 + f20 * r2 - m_real * W[0][0]
        fr1 = f01 * r0 + f11 * r1 + f21 * r2 - m_real * W[0][1]
        fc0 = f00 * i0 + f10 * i1 + f20 * i2 - m_complex * complex(W[1][0], W[2][0])
        fc1 = f01 * i0 + f11 * i1 + f21 * i2 - m_complex * complex(W[1][1], W[2][1])
        dc0, dc1 = ac * fc0 + bc * fc1, cc * fc0 + dc * fc1
        dW = [[a * fr0 + b * fr1, c * fr0 + d * fr1],
              [dc0.real, dc1.real], [dc0.imag, dc1.imag]]
        s0, s1 = scale
        try:
            dW_norm = math.sqrt(sum((u / s0) ** 2 + (v / s1) ** 2 for u, v in dW) / 6)
        except OverflowError:  # a square past the float range: numpy's inf
            dW_norm = math.inf
            if seen is not None:
                seen.add("norm overflow")
        if dW_norm_old is not None:
            rate = dW_norm / dW_norm_old
        if rate is not None and (rate >= 1 or
                                 rate ** (maxiter - k) / (1 - rate) * dW_norm > tol):
            outcome = "diverged" if rate >= 1 else "slow"
            break
        W = [[w + dw for w, dw in zip(wr, dwr)] for wr, dwr in zip(W, dW)]
        Z = [[row[0] * W[0][j] + row[1] * W[1][j] + row[2] * W[2][j] for j in (0, 1)]
             for row in tab.RADAU_T]
        if dW_norm == 0 or rate is not None and rate / (1 - rate) * dW_norm < tol:
            return "converged", k + 1, Z, rate
        dW_norm_old = dW_norm
    return outcome, k + 1, Z, rate


def test_the_generated_newton_iteration_is_the_loop_bit_for_bit():
    # the Radau legs of _LOOP_CASES run on the generated loop, whose Newton
    # iteration is written into its step attempt, as on the reference loop,
    # whose Newton iteration is _collocation_loop; between them they meet
    # every way the iteration ends: converged, diverging (rate >= 1), too
    # slow, a stage value that is not finite and a stage whose kernel power
    # overflows; and a norm whose square overflows.  Each leg calls the
    # field, or inlines its kernel
    seen = set()
    for name, (stepper, *_) in _LOOP_CASES.items():
        if stepper == "radau":
            outcomes, _, case_seen = _both_loops(name)
            assert outcomes[0] == outcomes[1]
            seen |= case_seen
    assert seen == {"converged", "diverged", "slow", "not finite", "overflow",
                    "norm overflow"}


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
    assert seg.horner is _radau_eval and seg.njev > 0
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
    order=st.sampled_from([3, 7]),
    rtol=st.floats(min_value=1e-13, max_value=1e-3),
    atol=st.floats(min_value=1e-15, max_value=1e-6),
)
def test_initial_step_is_scipys(data, dim, forward, span, order, rtol, atol):
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
    f0, tail = fun(0.0, y0), (direction, order, rtol, atol)
    calls.clear()
    # scipy's max_step: no bound
    theirs = select_initial_step(fun, 0.0, y0, direction * span, np.inf, f0, *tail)
    their_calls = calls[:]
    calls.clear()
    # ``_initial_step`` runs on lists of Python floats
    args = (0.0, y0.tolist(), direction * span, f0.tolist(), *tail)
    fun = lambda t, y, fun=fun: fun(t, np.array(y)).tolist()
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


def test_initial_step_is_scipys_when_the_rate_overflows():
    # the RMS norm of f0 / scale overflows to inf, so h0 = 0.0, and scipy
    # divides by it as numpy does (0 / 0 is NaN): both give the first step
    # 0.0, from which solve_ivp steps at the least step size
    from scipy.integrate._ivp.common import select_initial_step

    from regtang.integrate import _initial_step

    def fun(t, y):
        return [1e145 * y[0], 0.0]
    y0, tail = [1e155, 2.0], (1.0, 7, 1e-10, 1e-12)
    with np.errstate(all="ignore"):
        theirs = select_initial_step(lambda t, y: np.array(fun(t, y)), 0.0, np.array(y0), 1.0,
                                     math.inf, np.array(fun(0.0, y0)), *tail)
    assert theirs == 0.0 == _initial_step(fun, 0.0, y0, 1.0, fun(0.0, y0), *tail)


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
    # one step of the generated DOP853 loop for n = 1, 2, 3, run to the
    # span's end, against the same formulas in exact arithmetic, each gap
    # over the step's absolute terms: at most 1.9e-16 on 300 random steps
    from fractions import Fraction

    from regtang import _tableaux as tab
    from regtang.integrate import _dop853_loop

    def one_step(rhs, t, h, y, rtol):
        """The segment of a run over (t, t + h) whose first try is the whole
        span, and the step the loop yields to ``record``."""
        cfg = IntegratorConfig(rtol=rtol, atol=rtol, event_tol=1e-12)
        run = _Run(rhs, (t, t + h), np.array(y), cfg, None, tab.ERROR_ESTIMATOR_ORDER,
                   _dop853_eval)
        run.h_abs, record, kept = abs(h), run.record, []
        run.record = lambda *step: kept.append(step) or record(*step)
        return run.segment(partial(_dop853_loop(len(y)), rhs), run.f, math.sqrt), kept

    rng = np.random.default_rng(853)
    for case in range(60):
        n = case % 3 + 1
        M, b, y = (rng.uniform(-2.0, 2.0, shape).tolist() for shape in ((n, n), n, n))
        t = float(rng.uniform(-5.0, 5.0))
        h = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3.0, 0.0))
        calls = []

        def rhs(s, p):
            calls.append((s, list(p)))
            return tuple(sum(M[i][j] * p[j] for j in range(n)) + s * b[i] for i in range(n))
        seg, kept = one_step(rhs, t, h, y, 1.0)
        # accepted at once: 2 calls to start, 12 for the stages, 3 for the rows
        assert seg.nfev == len(calls) == 17
        (t_old, t_new, h_step, y_new, flat, bounds), = kept
        assert (t_old, t_new) == (t, t + h) and seg.h.tolist() == [h_step]
        h = h_step
        assert calls[2 + tab.N_STAGES - 1] == (t_new, y_new)  # the RHS at the step's end
        f_new = rhs(t_new, y_new)
        exact = _formula_step(M, b, t, h, y, Fraction)
        terms = _formula_step(M, b, t, h, y, float, mag=True)
        assert len(flat) == 7 * n and seg.coef.ravel().tolist() == list(flat)
        # each component's rows summed in magnitude, left to right
        assert list(bounds) == [sum(map(abs, flat[c::n])) for c in range(n)]
        got = (y_new, f_new, *(flat[r * n:(r + 1) * n] for r in range(7)))
        for g, e, a in zip(got, (exact[0], exact[1], *exact[2]),
                           (terms[0], terms[1], *terms[2])):
            assert len(g) == n and all(type(c) is float for c in g)
            for gi, ei, ai in zip(g, e, a):
                assert float(abs(Fraction(gi) - ei)) <= 1e-15 * ai
    # a step far beyond the tolerance is turned down
    seg, kept = one_step(lambda s, p: (p[0],), 0.0, 5.0, [1.0], 1e-12)
    assert seg.h[0] < 5.0
    rejected, rest = divmod(seg.nfev - 2 - 15 * len(seg.h), 12)
    assert rest == 0 and rejected > 0


def test_start_checks_the_inputs_as_scipy_does():
    import warnings

    from scipy.integrate import DOP853, Radau

    rhs = _as_rhs(rotation)
    zero = lambda t, p: ((0.0, 0.0), (0.0, 0.0))
    for y0, cfg in (((1.0, np.inf), IntegratorConfig()),
                    (((1.0, 0.0),), IntegratorConfig()),
                    ((1j, 0.0), IntegratorConfig())):
        with raises(ValueError) as theirs:
            Radau(lambda t, p: rhs(t, p.tolist()), 0.0, np.array(y0), 1.0, rtol=cfg.rtol,
                  atol=cfg.atol)
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
    dict(atol=0.0), dict(max_time=-1.0),
])
def test_integrator_config_rejects_nan_and_out_of_range_values(bad):
    with raises(ValueError):
        IntegratorConfig(**bad)


def test_integrator_config_keeps_the_values_the_solver_takes():
    IntegratorConfig(rtol=1e-6, atol=1e-300, event_tol=1e-6, max_time=1e-3)


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
    # system and profile at every eps share one generated run loop, which
    # holds the Newton iteration: one kernel keyed ("radau", source), and no
    # other Radau function
    from collections import OrderedDict

    from regtang import BandField, lambda_star, polys
    from regtang.integrate import _radau_loop
    from regtang.maps import TransitionConfig, find_x_epsilon
    from regtang.scenarios import canonical_system

    monkeypatch.setattr(polys, "_KERNELS", OrderedDict())
    system, cfg = canonical_system(2), TransitionConfig(2, 6, lam=0.999 * lambda_star(2, 6))
    for eps in (1e-5, 1e-6):
        find_x_epsilon(system, cfg, eps)
    (key,) = [key for key in polys._KERNELS if "radau" in str(key[0])]
    fn = polys._KERNELS[key]
    for eps in (1e-5, 1e-6, 1e-7):
        kernel, _ = BandField(system, cfg.tf, eps).kernel
        assert key == ("radau", kernel.source) and _radau_loop(kernel.source) is fn


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


# --------------------------------------------------------------------------
# the generated run loops against the Python step loop they replaced
# --------------------------------------------------------------------------

class _RefRun:
    """The Python step loop that the generated run loops replaced, kept as
    their reference: ``run(attempt)`` is scipy's ``OdeSolver.step`` loop
    around a stepper's step attempt, and ``record`` keeps each accepted step."""

    def __init__(self, rhs, t_span, y0, config, scan, order, horner):
        self.t, self.t_bound = map(float, t_span)
        y, f, self.rtol, self.atol, self.direction, self.h_abs, self.nfev = _ref_start(
            rhs, self.t, self.t_bound, y0, config, order)
        self.y, self.f = y.tolist(), f.tolist()
        self.horner, self.njev, self.nlu = horner, 0, 0
        self.ts, self.ys, self.steps = [self.t], [y], []
        self.scan, self.prev = scan, None

    def run(self, attempt):
        from regtang import _tableaux as tab

        t, t_bound, direction = self.t, self.t_bound, self.direction
        ended, running = False, True
        while not ended and running:
            if t == t_bound:  # zero-length span: no step
                t_new, h, step = t, 0.0, (self.ys[-1], None, [0] * len(self.y))
                running = False
            else:
                min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
                clamped = self.h_abs < min_step
                step_abs = min_step if clamped else self.h_abs
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
            ended = self.record(t, t_new, h, *step)
            t = t_new
        hs, coefs = zip(*self.steps)
        # a run hands over its rows as a list of flat tuples (``Segment.coef``)
        return Segment(t=np.array(self.ts), y=np.vstack(self.ys).T, h=np.array(hs),
                       coef=None if coefs[0] is None else list(coefs),
                       horner=self.horner, nfev=self.nfev, njev=self.njev, nlu=self.nlu)

    def record(self, t_old, t, h, y, coef, bounds):
        y_old = self.ys[-1]
        self.steps.append((h, coef))
        cur = (t_old, h, y_old, coef)
        prev, self.prev = self.prev, cur
        hit = self.scan and self.scan.step(self.horner, self.direction, prev, cur, t, bounds)
        if hit:
            t, y = hit.t, hit.point
            if len(self.steps) > 1 and self.direction * (t - t_old) <= 0:
                del self.steps[-1], self.ts[-1], self.ys[-1]  # it ends in the previous step
        if max(map(abs, y)) > NORM_GUARD:
            raise DomainExit(f"trajectory norm exceeded {NORM_GUARD:g} at t={t:g}",
                             t=t, point=np.array(y))
        self.ts.append(t)
        self.ys.append(y)
        return bool(hit)


def _ref_dop853_step(rhs, t, h, y, f, rtol, atol):
    """One DOP853 step attempt in the generated step's order of operations,
    as a loop: ``(error_norm, None)`` for a rejected step, else
    ``(error_norm, (y_new, f_new, rows, bounds))``."""
    from functools import reduce

    from regtang import _tableaux as tab

    n, K = len(y), [f]

    def dot(coefs, i):  # the nonzero terms, left to right
        return reduce(operator.add, [float(c) * k[i] for c, k in zip(coefs, K) if c])

    def stage(a, c):
        return rhs(t + float(c) * h, [y[i] + dot(a, i) * h for i in range(n)])
    for s in range(1, tab.N_STAGES):
        K.append(stage(tab.A[s], tab.C[s]))
    y_new = [y[i] + h * dot(tab.B, i) for i in range(n)]
    K.append(rhs(t + h, y_new))
    scale = [atol + (b if a < b or b != b else a) * rtol
             for a, b in zip(map(abs, y), map(abs, y_new))]
    e5, e3 = ([dot(E, i) / scale[i] for i in range(n)] for E in (tab.E5, tab.E3))
    s5, s3 = (reduce(operator.add, [e * e for e in E]) for E in (e5, e3))
    d = math.sqrt((s5 + 0.01 * s3) * n)
    err = 0.0 if s5 == 0 and s3 == 0 else abs(h) * s5 / d if d else math.nan
    if not err < 1:
        return err, None
    for a, c in zip(tab.A_EXTRA, tab.C_EXTRA):
        K.append(stage(a, c))
    r0 = [y_new[i] - y[i] for i in range(n)]
    rows = [r0, [h * K[0][i] - r0[i] for i in range(n)],
            [2 * r0[i] - h * (K[tab.N_STAGES][i] + K[0][i]) for i in range(n)],
            *([h * dot(row, i) for i in range(n)] for row in tab.D)]
    bounds = [reduce(operator.add, [abs(row[i]) for row in rows]) for i in range(n)]
    return err, (y_new, K[tab.N_STAGES], tuple(v for row in rows for v in row), bounds)


def _ref_dop853(rhs, t_span, y0, config, scan=None):
    """``_dop853`` on the reference loop: its step attempt as it was."""
    from regtang import _tableaux as tab

    exponent = -1 / (tab.ERROR_ESTIMATOR_ORDER + 1)
    run = _RefRun(rhs, t_span, y0, config, scan, tab.ERROR_ESTIMATOR_ORDER, _dop853_eval)
    y, f = run.y, run.f

    def attempt(t, t_new, h, rejected, clamped):
        nonlocal y, f
        error_norm, out = _ref_dop853_step(rhs, t, h, y, f, run.rtol, run.atol)
        run.nfev += tab.N_STAGES
        if out is None:
            factor = max(tab.MIN_FACTOR, tab.SAFETY * error_norm ** exponent)
            return abs(h) * factor, True, None
        run.nfev += len(tab.A_EXTRA)
        if error_norm == 0:
            factor = tab.MAX_FACTOR
        else:
            factor = min(tab.MAX_FACTOR, tab.SAFETY * error_norm ** exponent)
        if rejected:
            factor = min(1, factor)
        y, f, rows, bounds = out
        return abs(h) * factor, rejected, (y, rows, bounds)
    return run.run(attempt)


def _ref_radau(rhs, t_span, y0, config, scan=None, *, jac, seen=None):
    """``_radau`` on the reference loop: its step attempt as it was, its
    Newton iteration ``_collocation_loop``, which calls ``rhs``.  The
    outcome of each Newton iteration goes into the set ``seen``, if given."""
    from regtang import _tableaux as tab
    from regtang.integrate import _EPS, _inverse2, _predict_factor

    def _rms(v, scale):
        try:
            return math.sqrt(sum((a / s) ** 2 for a, s in zip(v, scale)) / len(v))
        except OverflowError:  # a square past the float range: numpy's inf
            return math.inf

    RC, RE, RP, maxiter = tab.RADAU_C, tab.RADAU_E, tab.RADAU_P, tab.NEWTON_MAXITER
    run = _RefRun(rhs, t_span, y0, config, scan, 3, _radau_eval)
    y, f, rtol, atol = run.y, run.f, run.rtol, run.atol
    newton_tol = max(10 * _EPS / config.rtol, min(0.03, config.rtol ** 0.5))
    J = np.asarray(jac(run.t, y), dtype=float)
    J, run.njev, current_jac = J.tolist(), 1, True
    inv = None
    h_abs_old = error_norm_old = None
    prev = None

    def attempt(t, t_new, h, rejected, clamped):
        nonlocal y, f, J, current_jac, inv, h_abs_old, error_norm_old, prev
        h_last, err_last = (None, None) if clamped else (h_abs_old, error_norm_old)
        if prev is None:
            Z0 = [[0.0, 0.0] for _ in RC]
        else:
            pt, ph, py, pQ = prev
            Z0 = []
            for cn in RC:
                x = (t + h * cn - pt) / ph
                Z0.append([((q[2] * x + q[1]) * x + q[0]) * x + yo - yi
                           for q, yo, yi in zip(pQ, py, y)])
        scale = [atol + abs(v) * rtol for v in y]
        converged = False
        while not converged:
            if inv is None:
                inv = _inverse2(tab.MU_REAL / h, J), _inverse2(tab.MU_COMPLEX / h, J)
                run.nlu += 2
            outcome, n_iter, Z, rate = _collocation_loop(rhs, t, y, h, Z0, scale, newton_tol,
                                                         *inv, seen)
            converged = outcome == "converged"
            if seen is not None:
                seen.add(outcome)
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
        ZE = [(Z[0][j] * RE[0] + Z[1][j] * RE[1] + Z[2][j] * RE[2]) / h for j in (0, 1)]
        a, b, c, d = inv[0]
        e0, e1 = f[0] + ZE[0], f[1] + ZE[1]
        error = [a * e0 + b * e1, c * e0 + d * e1]
        scale = [atol + max(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)]
        error_norm = _rms(error, scale)
        safety = 0.9 * (2 * maxiter + 1) / (2 * maxiter + n_iter)
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
        Q = [[Z[0][j] * p0 + Z[1][j] * p1 + Z[2][j] * p2 for p0, p1, p2 in zip(*RP)]
             for j in (0, 1)]
        prev = (t, h, y, Q)
        y, f = y_new, f_new
        return abs(h) * factor, rejected, (y_new, tuple(q for row in zip(*Q) for q in row),
                                           [abs(q0) + abs(q1) + abs(q2) for q0, q1, q2 in Q])
    return run.run(attempt)


def _hex(v):
    """A float's bits, NaN included, as comparable text."""
    return float(v).hex()


def _run_outcome(result, scan):
    """Everything a run gives, every float as its bits: the segment's arrays
    and work counts, or the error it raised with its time and state, and the
    scan's hit, events and touches."""
    if isinstance(result, Segment):
        out = [(a.shape, a.tobytes()) for a in (result.t, result.y, result.h)]
        out += [None if result.coef is None else (result.coef.shape, result.coef.tobytes()),
                (result.nfev, result.njev, result.nlu)]
    else:
        out = [type(result), str(result)]
        if isinstance(result, DomainExit):
            out += [_hex(result.t), [_hex(v) for v in result.point]]
    hits = [] if scan.hit is None else [scan.hit]
    out += [[(_hex(e.t), [_hex(v) for v in e.point], e.section_id, e.direction)
             for e in hits + scan.events],
            [(_hex(t), [_hex(v) for v in p]) for t, p in scan.touches]]
    return out


def _growth(t, p):
    return p[0], p[1]


def _nan_past_one(t, p):  # no step that reaches past t = 1 is accepted
    return 1.0, math.nan if t > 1.0 else -p[1]


_LINEAR = np.array([[-300.0, 1.0], [0.0, -1.0]])


def _fast_mode(t, p):  # its steps are rejected at the explicit stability limit
    return tuple(_LINEAR.dot(p).tolist())


def _free_rotation_level():
    """A level one ulp above the state at the end of the 3rd step of a free
    rotation run: the run to it ends on that step end, in the previous step
    of the scan that finds it."""
    free = _dop853(_as_rhs(rotation), (0.0, 6.0), np.array([1.0, 0.0]), IntegratorConfig())
    return float(np.nextafter(free.y[1, 3], np.inf))


def _van_der_pol(t, p):  # stiff and nonlinear: Radau refreshes its Jacobian
    x, y = p
    return y, 100.0 * (1 - x * x) * y - x


def _van_der_pol_jac(t, p):
    x, y = p
    return (0.0, 1.0), (-200.0 * x * y - 1, 100.0 * (1 - x * x))


def _power_field(rise=None):
    """x' = -x**31 (plus ``rise``), y' = 0: past |x| ~ 1e10 the kernel's
    power overflows."""
    from regtang.fields import PlanarField
    from regtang.polys import Poly2

    terms = {(31, 0): -1} if rise is None else {(0, 0): rise, (31, 0): -1}
    return PlanarField((Poly2(terms), Poly2()))


def _numpy_power(t, p, rise=None):
    """``_power_field`` on numpy floats: inf where the kernel's power raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = -np.float64(p[0]) ** 31
        return float(v if rise is None else rise + v), 0.0


def _power_jac(t, p):
    return (-31 * p[0] ** 30, 0.0), (0.0, 0.0)


# x' = _WALL - x**31 from x = 0 rises at rate 25 into the wall x**31 = 25.
# A step that grew tenfold on the way predicts stages past the wall, where
# the power is large, and the first Newton update throws the next stages
# past the float range of the power
_WALL = 25.0
# x' = 2 - x**31 from x = 0 settles on x = 2**(1/31); on the way a Newton
# update's square passes the float range, which numpy reads as inf
_LOW_WALL = 2.0
# van der Pol backward from just below 2**35, where the least step, 10 ulps
# of t, is 10 * 2**-18: the steps shrink to it, and a step after an
# accepted one is raised to it and accepted
_FAR_T = 2.0 ** 35
_RECORD = SectionSpec("vertical", 0.0, ident="record")
_LOOP_CASES = {
    # name: (stepper, rhs, jac, t_span, y0, config, target)
    "rejected steps": ("dop853", _fast_mode, None, (0.0, 8.0), (1.0, 1.0),
                       IntegratorConfig(rtol=1e-6), SectionSpec("vertical", 5.0)),
    "backward time": ("dop853", _as_rhs(rotation), None, (0.0, -5.0), (1.0, 0.0),
                      IntegratorConfig(), SectionSpec("horizontal", -0.5)),
    "hit in the previous step": ("dop853", _as_rhs(rotation), None, (0.0, 6.0), (1.0, 0.0),
                                 IntegratorConfig(), "previous"),
    "underflow": ("dop853", _nan_past_one, None, (0.0, 2.0), (0.0, 1.0), IntegratorConfig(),
                  None),
    "domain exit": ("dop853", _growth, None, (0.0, 30.0), (1.0, 1.0), IntegratorConfig(),
                    SectionSpec("vertical", 1e7)),
    "zero-length span": ("dop853", _as_rhs(rotation), None, (1.0, 1.0), (1.0, 0.0),
                         IntegratorConfig(), SectionSpec("horizontal", 0.0)),
    "radau jacobian refresh": ("radau", _van_der_pol, _van_der_pol_jac, (0.0, 1.0),
                               (2.0, 0.0), IntegratorConfig(), SectionSpec("vertical", 1.0)),
    "radau backward, clamped": ("radau", _van_der_pol, _van_der_pol_jac,
                                (_FAR_T, _FAR_T - 0.04), (2.0, 0.0), IntegratorConfig(), None),
    "radau underflow": ("radau", _nan_past_one, lambda t, p: ((0.0, 0.0), (0.0, -1.0)),
                        (0.0, 2.0), (0.0, 1.0), IntegratorConfig(), None),
    "radau domain exit": ("radau", _growth, lambda t, p: ((1.0, 0.0), (0.0, 1.0)),
                          (0.0, 30.0), (1.0, 1.0), IntegratorConfig(), None),
    "radau zero-length span": ("radau", _as_rhs(rotation), _rotation_jac, (2.0, 2.0),
                               (1.0, 0.0), IntegratorConfig(), SectionSpec("vertical", 0.5)),
    # how a Newton iteration ends: each of these legs meets its way
    "radau newton converges": ("radau", _stiff_linear, _stiff_linear_jac, (0.0, 0.5),
                               (0.0, 2.0), IntegratorConfig(), SectionSpec("horizontal", 0.9)),
    "radau newton diverges": ("radau", _van_der_pol, lambda t, p: ((0.0, 0.0), (0.0, 0.0)),
                              (0.0, 1.0), (2.0, 0.0), IntegratorConfig(),
                              SectionSpec("vertical", 1.0)),
    "radau newton stage overflows": ("radau", _as_rhs(_power_field(_WALL)), _power_jac,
                                     (0.0, 0.2), (0.0, 0.0), IntegratorConfig(), None),
    "radau newton stage not finite": ("radau", partial(_numpy_power, rise=_WALL), _power_jac,
                                      (0.0, 0.2), (0.0, 0.0), IntegratorConfig(), None),
    "radau newton norm overflows": ("radau", _as_rhs(_power_field(_LOW_WALL)), _power_jac,
                                    (0.0, 1.0), (0.0, 0.0), IntegratorConfig(), None),
}


def _rejections(seg):
    """The rejected DOP853 step attempts of a run: 2 calls to start, 12 per
    attempt, 3 more per accepted step."""
    return (seg.nfev - 2 - 15 * len(seg.h)) / 12


_TAKEN = {  # name: whether the generated loop's run took the path named
    "rejected steps": lambda seg: _rejections(seg) > 0,
    "backward time": lambda seg: np.all(np.diff(seg.t) < 0),
    # the 4th step finds the hit, which lies on the end of the 3rd
    "hit in the previous step": lambda seg: len(seg.h) == 3 and seg.nfev == 2 + 15 * 4,
    "underflow": lambda err: isinstance(err, StepSizeUnderflow),
    "domain exit": lambda err: isinstance(err, DomainExit),
    "zero-length span": lambda seg: seg.h.tolist() == [0.0] and seg.coef is None,
    "radau jacobian refresh": lambda seg: seg.njev > 1,
    # a step after the first at the least size: a clamped one, accepted
    "radau backward, clamped": lambda seg: -10 * 2.0 ** -18 in seg.h[1:].tolist(),
    "radau underflow": lambda err: isinstance(err, StepSizeUnderflow),
    "radau domain exit": lambda err: isinstance(err, DomainExit),
    "radau zero-length span": lambda seg: seg.h.tolist() == [0.0] and seg.coef is None,
    # the Newton outcome the reference run meets (``_collocation_loop``)
    "radau newton converges": "converged",
    "radau newton diverges": "diverged",
    "radau newton stage overflows": "overflow",
    "radau newton stage not finite": "not finite",
    # the run ends where the field vanishes, at the default rtol
    "radau newton norm overflows": lambda seg: seg.y[0, -1] == approx(
        _LOW_WALL ** (1 / 31), rel=IntegratorConfig().rtol),
}


def _both_loops(name):
    """Case ``name`` of ``_LOOP_CASES`` run on its generated loop and on its
    reference loop: each run's ``_run_outcome``, the generated run's segment
    or error, and the Newton outcomes the reference Radau run met."""
    stepper, rhs, jac, t_span, y0, cfg, target = _LOOP_CASES[name]
    if target == "previous":
        target = SectionSpec("horizontal", _free_rotation_level())
    kw, seen = {} if jac is None else {"jac": jac}, set()
    runs = {"dop853": (_dop853, _ref_dop853), "radau": (_radau, partial(_ref_radau, seen=seen))}
    outcomes, results = [], []
    for run in runs[stepper]:
        scan = _Scan(rhs, math.sqrt(cfg.event_tol), [_RECORD], target)
        try:
            results.append(run(rhs, t_span, np.array(y0), cfg, scan, **kw))
        except (DomainExit, StepSizeUnderflow) as err:
            results.append(err)
        outcomes.append(_run_outcome(results[-1], scan))
    return outcomes, results[0], seen


@pytest.mark.parametrize("name", list(_LOOP_CASES))
def test_each_generated_run_loop_is_the_python_step_loop_bit_for_bit(name):
    # the generated loop and the Python loop with its attempt closure give
    # the same steps, states, dense output, work counts, hit, events and
    # touches, or the same error, on legs that take each of its paths
    outcomes, result, seen = _both_loops(name)
    taken = _TAKEN[name]
    assert taken in seen if isinstance(taken, str) else taken(result)
    assert outcomes[0] == outcomes[1]


def test_the_norm_bound_reads_the_state_as_max_does_on_both_loops():
    # a scripted stepper whose steps end at (nan, 2e6), (nan, 2e6) and
    # (2e6, nan): max(map(abs, y)) is NaN for the first two, which passes
    # the bound, and 2e6 for the third, which does not.  Both loops keep the
    # first two states and raise DomainExit at the third
    def attempt(t, t_new, h, rejected, clamped):
        y = [math.nan, 2e6] if t_new < 3.0 else [2e6, math.nan]
        return 1.0, rejected, (y, (h, 0.0, 0.0, 0.0, 0.0, 0.0), [abs(h), 0.0])

    rhs = lambda t, p: (1.0, 0.0)
    runs = []
    for make in (_Run, _RefRun):
        run = make(rhs, (0.0, 5.0), np.zeros(2), IntegratorConfig(), None, 3, _radau_eval)
        run.h_abs = 1.0
        with raises(DomainExit) as info:
            run.segment(_scripted_loop(2, attempt)) if make is _Run else run.run(attempt)
        runs.append((_hex(info.value.t), [_hex(v) for v in info.value.point],
                     [_hex(t) for t in run.ts], [[_hex(v) for v in y] for y in run.ys]))
    assert runs[0] == runs[1]
    assert runs[0][0] == _hex(3.0) and len(runs[0][2]) == 3


def test_real_legs_run_on_the_generated_loops_as_on_the_python_loop():
    # the departure legs at (2, 6), eps = 1e-6 (stiff, on Radau, each
    # landing on yhat = 1) and at (1, 2), eps = 1e-3 (on DOP853), both with
    # the band kernel inlined, and a return-map leg carrying the divergence
    # integral: each leg, run by flow_to_section_traj on the generated loops
    # and on the reference loop, gives the same numbers
    from regtang import BandField, RegularizedField, integrate, lambda_star, maps, phi_family
    from regtang.cycles import RETURN_INTEG, _augmented_rhs
    from regtang.maps import TransitionConfig, find_x_epsilon
    from regtang.scenarios import boundary_cycle_system, canonical_system

    flow, legs = integrate.flow_to_section_traj, []
    steppers = {"_dop853": _ref_dop853, "_radau": _ref_radau}

    def both(field, *args, **kwargs):
        runs = [flow(field, *args, **kwargs)]
        saved = {name: getattr(integrate, name) for name in steppers}
        try:
            for name, ref in steppers.items():
                setattr(integrate, name, ref)
            runs.append(flow(field, *args, **kwargs))
        finally:
            for name, fn in saved.items():
                setattr(integrate, name, fn)
        legs.append((field, runs))
        return runs[0]

    for k, n, eps in ((2, 6, 1e-6), (1, 2, 1e-3)):
        system, cfg = canonical_system(k), TransitionConfig(k, n, lam=0.999 * lambda_star(k, n))
        saved, maps.flow_to_section_traj = maps.flow_to_section_traj, both
        try:
            find_x_epsilon(system, cfg, eps)
        finally:
            maps.flow_to_section_traj = saved
    reg = RegularizedField(boundary_cycle_system(k=2), phi_family(5), 1e-2)
    both(_augmented_rhs(reg), (-0.3, 0.02, 0.0), SectionSpec("vertical", -0.3, (0.0, math.inf),
                                                             "up"), RETURN_INTEG,
         record_sections=[SectionSpec("vertical", -0.3, ident="anycross")])
    assert [type(field).__name__ for field, _ in legs] == ["BandField", "BandField",
                                                          "function"]
    # the stiff leg runs Radau, the other DOP853
    assert legs[0][1][0][1].segments[0].njev > 0 == legs[1][1][0][1].segments[0].njev
    assert len(legs[2][1][0][1].segments[0].y) == 3
    for _, (leg, ref_leg) in legs:
        _assert_same_leg(leg, ref_leg)


def test_an_inlined_kernel_binds_only_the_arguments_its_body_reads():
    # the augmented kernel's divergence integral w is state, but no stage
    # reads it: the 3-D DOP853 loop binds x and y in each of its 15 stages,
    # and never w.  The 2-D kernel of the same field binds x and y too
    from regtang import RegularizedField, phi_family
    from regtang.integrate import _dop853_loop
    from regtang.scenarios import boundary_cycle_system

    reg = RegularizedField(boundary_cycle_system(k=2), phi_family(5), 1e-2)
    for (fn, _), n in ((reg.augmented_kernel, 3), (reg.kernel, 2)):
        assert fn.source[0].split(", ")[-n:] == ["x", "y", "w"][:n]
        _, body = _dop853_loop(n, fn.source).source
        bound = [line.split(" = ")[0].strip() for line in body
                 if line.strip().split(" = ")[0] in ("x", "y", "w")]
        assert bound.count("x") == bound.count("y") == 15 and "w" not in bound


def test_a_generated_stepper_binds_each_lead_argument_once():
    # eps, the kernels' lead argument, is bound once in each loop's set-up,
    # before its ``while True:``, in no stage
    from regtang import BandField, RegularizedField, phi_family
    from regtang.integrate import _dop853_loop, _radau_loop
    from regtang.scenarios import boundary_cycle_system, canonical_system

    band = BandField(canonical_system(k=2), phi_family(3), 1e-4)
    reg = RegularizedField(boundary_cycle_system(k=2), phi_family(5), 1e-2)
    loops = [_dop853_loop(n, fn.source) for fn, n in (
        (band.kernel[0], 2), (reg.kernel[0], 2), (reg.augmented_kernel[0], 3))]
    loops += [_radau_loop(fn.source) for fn in (band.kernel[0], reg.kernel[0])]
    for loop in loops:
        _, body = loop.source
        assert [line for line in body if "eps =" in line] == ["eps = _p0"]
        assert body.index("eps = _p0") < body.index("while True:")


def test_a_kernel_that_assigns_a_lead_argument_is_not_inlined():
    # a lead argument is bound once per run, so a stage may not rebind it
    from regtang.integrate import _inliner

    for line in ("eps = 2.0*eps", "eps += 1.0", "eps, t = x, y"):
        with raises(ValueError, match="lead argument"):
            _inliner(2, ("eps, x, y", (line, "return (eps*x, y)")))
    lead, bind, stage = _inliner(2, ("eps, x, y", ("u = eps*x", "return (u, y)")))
    assert (lead, bind) == (["_p0"], ["eps = _p0"])
    assert stage(["_a", "_b"], "_t", ["_x", "_y"]) == [
        "x = _x", "y = _y", "u = eps*x", "_a, _b, = (u, y)"]


def _dip_then_rise(m, rise):
    """Scripted steps of length 1 (Radau rows Q0, Q1, Q2 per component):
    the first y = (t - m)^2, every later one rising by ``rise``."""
    def attempt(t, t_new, h, rejected, clamped):
        rows = (h, 2 * (t - m) * h, 0.0, h * h, 0.0, 0.0) if t == 0.0 else (
            h, rise, 0.0, 0.0, 0.0, 0.0)
        y = [t_new, (t_new - m) ** 2 if t == 0.0 else (1 - m) ** 2 + rise * (t_new - 1)]
        return 1.0, rejected, (y, rows, [sum(map(abs, rows[c::2])) for c in (0, 1)])
    return attempt


def _touch_then_flat(depth):
    """Scripted steps of length 1: the first y = d - 4 a t + 4 a t^2, which
    turns at t = 1/2, ``depth`` = a below its start, every later one flat."""
    def attempt(t, t_new, h, rejected, clamped):
        rows = (h, -4 * depth, 0.0, 4 * depth, 0.0, 0.0) if t == 0.0 else (
            h, 0.0, 0.0, 0.0, 0.0, 0.0)
        return 1.0, rejected, ([t_new, 9 * depth], rows,
                               [sum(map(abs, rows[c::2])) for c in (0, 1)])
    return attempt


_BAND = 1e-6
_SCRIPTED = {
    # name: (attempt, its residual's rate, start, span, level)
    # the dip below 4e-4 lies between the first step's last two grid points,
    # and the second step's screen passes it over: only the look-behind of
    # the second step, which is not the span's last, finds it
    "look-back dip": (_dip_then_rise(0.95, 1e-4), lambda t, p: (1.0, 2 * (p[0] - 0.95)),
                      (0.0, 0.95 ** 2), (0.0, 3.0), 4e-4),
    # the first step starts 0.9 band above the level and turns 0.8 band
    # above it: past its rows' bound, within the screen's 2 band
    "touch within the band": (_touch_then_flat(_BAND / 10),
                              lambda t, p: (1.0, _BAND / 10 * (8 * p[0] - 4)),
                              (0.0, 0.9 * _BAND), (0.0, 3.0), 0.0),
}


@pytest.mark.parametrize("name", list(_SCRIPTED))
def test_scripted_steps_run_on_both_loops_alike(name):
    # steps whose scan needs the screen's band and the near flag the run
    # sends back to its loop: both loops keep the same steps and find the
    # same hit or touch
    attempt, rhs, y0, span, level = _SCRIPTED[name]
    outcomes = []
    for make in (_Run, _RefRun):
        scan = _Scan(rhs, _BAND, target=SectionSpec("horizontal", level))
        run = make(rhs, span, np.array(y0), IntegratorConfig(), scan, 3, _radau_eval)
        run.h_abs = 1.0
        seg = run.segment(_scripted_loop(2, attempt)) if make is _Run else run.run(attempt)
        outcomes.append(_run_outcome(seg, scan))
        assert (scan.hit, len(scan.touches)) != (None, 0)
    assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------------
# the run's edges on Python floats: evaluators, start, rows, overflow
# --------------------------------------------------------------------------

_SIGNED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(min_value=-1e3, max_value=1e3))
_X = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
_METHODS = [(_dop853_eval, _dop853_horner, 7), (_radau_eval, _radau_horner, 3)]


@settings(deadline=None, max_examples=100)
@given(data=st.data(), method=st.sampled_from(_METHODS), x=_X, y_old=_SIGNED)
def test_each_evaluator_is_its_horner_loop_bit_for_bit(data, method, x, y_old):
    # on one component's floats, as the scan evaluates a step; on arrays of
    # one time, as Segment.__call__ does; and on arrays of m times with each
    # time's rows, as Segment.dense does: every bit, the signs of zeros too
    ev, horner, k = method
    rows = data.draw(st.lists(_SIGNED, min_size=k, max_size=k))
    assert _hex(ev(*rows, x, y_old)) == _hex(horner(reversed(rows), x, y_old))
    # all zeros negative: the sign of the result rests on each addition
    assert _hex(ev(*[-0.0] * k, x, -0.0)) == _hex(horner([-0.0] * k, x, -0.0))
    m, n = 3, 2

    def array(*shape):
        flat = data.draw(st.lists(_SIGNED, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(flat).reshape(shape)
    R, y = array(k, n), array(n)
    one = [ev(*R, np.float64(x), y), horner(reversed(R), np.float64(x), y)]
    assert one[0].tobytes() == one[1].tobytes()
    R, y = array(k, m, n), array(m, n)
    X = np.array(data.draw(st.lists(_X, min_size=m, max_size=m)))[:, None]
    many = [ev(*R, X, y), horner(reversed(R), X, y)]
    assert many[0].shape == (m, n) and many[0].tobytes() == many[1].tobytes()


@settings(deadline=None, max_examples=120)
@given(
    data=st.data(),
    dim=st.sampled_from([1, 2, 3]),
    forward=st.booleans(),
    t0=st.floats(min_value=-5.0, max_value=5.0),
    span=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0)),
    order=st.sampled_from([3, 7]),
    rtol=st.one_of(st.floats(min_value=1e-16, max_value=2e-14),  # below 100 eps
                   st.floats(min_value=1e-13, max_value=1e-3)),
    atol=st.floats(min_value=1e-15, max_value=1e-6),
)
def test_the_float_start_is_the_numpy_start_bit_for_bit(data, dim, forward, t0, span,
                                                        order, rtol, atol):
    # ``_start`` on a list of Python floats, as every leg passes, against the
    # numpy start it replaced: the same state, RHS value, tolerances, sense,
    # first step, RHS calls and warning, every float to its last bit
    import warnings

    from regtang.integrate import _rms_norm, _start

    entry = st.floats(min_value=-5.0, max_value=5.0)
    M = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                           min_size=dim, max_size=dim))
    y0 = data.draw(st.lists(_SIGNED.filter(lambda v: abs(v) <= 5.0), min_size=dim,
                            max_size=dim))
    calls = []

    def rhs(t, p):
        calls.append((t, list(p)))
        return tuple(sum(M[i][j] * p[j] for j in range(dim)) for i in range(dim))
    cfg = IntegratorConfig(rtol=rtol, atol=atol, event_tol=rtol)
    t_bound = t0 + (span if forward else -span)
    outs = []
    for start, y in ((_start, list(y0)), (_ref_start, np.array(y0))):
        calls.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            y, f, *floats, nfev = start(rhs, t0, t_bound, y, cfg, order)
        outs.append(([_hex(v) for v in y], [_hex(v) for v in f], [_hex(v) for v in floats],
                     nfev, [(_hex(t), [_hex(v) for v in p]) for t, p in calls],
                     [str(w.message) for w in caught]))
        if start is _start:
            assert type(y) is list and type(f) is list
            assert all(type(v) is float for v in y + f + floats)
    assert outs[0] == outs[1]
    # the RMS norm behind the first step sums in the same order
    v = y0 + [float(c) for row in M for c in row]
    assert _hex(_rms_norm(v)) == _hex(_ref_rms_norm(np.array(v)))
    assert outs[0][3] == (1 if span == 0.0 else 2)
    assert len(outs[0][5]) == (rtol < 100 * np.finfo(float).eps)


def test_the_float_start_raises_the_numpy_start_s_errors():
    from regtang.integrate import _start

    rhs = lambda t, p: tuple(p)
    for y0 in ([1.0, math.nan], [math.inf, 0.0], (1.0, -math.inf), np.array([1.0, math.nan]),
               [1j, 0.0], np.array([1j, 0.0]), [[1.0, 0.0]], np.array([[1.0, 0.0]])):
        messages = []
        for start in (_start, _ref_start):
            with raises(ValueError) as info:
                start(rhs, 0.0, 1.0, y0, IntegratorConfig(), 7)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_a_start_past_the_norm_bound_raises_at_t0_with_no_rhs_call():
    # the start is a kept state: past NORM_GUARD the run raises DomainExit
    # at t0 on both steppers, before its RHS, whose power x**31 would pass
    # the float range at x = 1e155, is called.  The reference start agrees
    from regtang.integrate import _start

    calls = []

    def rhs(t, p):
        calls.append(t)
        return p[0] ** 31, p[1]
    jac = lambda t, p: ((31 * p[0] ** 30, 0.0), (0.0, 1.0))
    runs = (lambda span, y0, cfg: _dop853(rhs, span, y0, cfg),
            lambda span, y0, cfg: _radau(rhs, span, y0, cfg, jac=jac),
            lambda span, y0, cfg: _start(rhs, *span, y0, cfg, 7),
            lambda span, y0, cfg: _ref_start(rhs, *span, np.array(y0), cfg, 7))
    for y0 in ([1e155, 0.0], [0.0, -math.nextafter(NORM_GUARD, math.inf)]):
        for run in runs:
            for t_span in ((2.0, 3.0), (2.0, -1.0), (2.0, 2.0)):
                with raises(DomainExit) as info:
                    run(t_span, y0, IntegratorConfig())
                assert info.value.t == 2.0 and calls == []
                assert info.value.point.tolist() == y0
    # a start on the bound is within it
    _start(rhs, 0.0, 1.0, [NORM_GUARD, 0.0], IntegratorConfig(), 7)
    assert calls


def test_an_upper_map_leg_stacks_no_rows(monkeypatch):
    # no leg of a transition map reads its dense output: every leg's rows,
    # the landed band leg's included, stay the run's list; read once, they
    # are stacked, and the list is dropped
    from regtang import maps
    from regtang.maps import TransitionConfig, upper_transition_map
    from regtang.scenarios import canonical_system

    flow_leg, segments = maps.flow_to_section_traj, []

    def keep(*args, **kwargs):
        hit, traj = flow_leg(*args, **kwargs)
        segments.extend(traj.segments)
        return hit, traj
    monkeypatch.setattr(maps, "flow_to_section_traj", keep)
    upper_transition_map(canonical_system(k=1), TransitionConfig(k=1, n=2), 1e-3, 2e-3)
    assert len(segments) == 3
    assert all(type(seg._coef) is list and len(seg._coef) == len(seg.h) for seg in segments)
    seg = segments[0]
    coef = seg.coef
    assert coef.shape == (len(seg.h), 7, 2) and seg._coef is coef and seg.coef is coef


@pytest.mark.parametrize("k, n, eps", [(1, 2, 1e-3), (2, 6, 1e-6)])
def test_a_landed_segment_joins_the_two_runs_as_concatenate_did(monkeypatch, k, n, eps):
    # the departure leg lands on yhat = 1, on DOP853 at (1, 2) and on Radau
    # at (2, 6): the joined list of rows stacks to the rows the old
    # ``np.concatenate`` of the two stacked runs gave, bit for bit
    from regtang import integrate, lambda_star
    from regtang.maps import TransitionConfig, find_x_epsilon
    from regtang.scenarios import canonical_system

    land, joined = integrate._land, []

    def checked(leg, seg, scan):
        runs = []

        def kept(t_span, y0):
            runs.append(leg(t_span, y0))
            return runs[-1]
        out = land(kept, seg, scan)
        (last, _), = runs
        assert type(out[0]._coef) is list
        joined.append((out[0].coef, np.concatenate([seg.coef[:len(seg.h) - 1], last.coef])))
        return out
    monkeypatch.setattr(integrate, "_land", checked)
    find_x_epsilon(canonical_system(k), TransitionConfig(k, n, lam=0.999 * lambda_star(k, n)),
                   eps)
    assert len(joined) == 1
    (got, want), = joined
    assert got.shape == want.shape == (got.shape[0], 7 if k == 1 else 3, 2)
    assert got.tobytes() == want.tobytes()




def test_a_stage_past_the_float_range_rejects_the_step_as_scipy_does():
    # from x = 3, trial steps overshoot to states whose power overflows: the
    # kernel raises OverflowError where numpy gives inf, and the step is
    # rejected, its next size the least factor, as scipy rejects a step
    # with an inf stage.  The run is the one on a right-hand side that gives
    # inf, bit for bit, and ends where solve_ivp's DOP853 does
    field = _power_field()
    cfg = IntegratorConfig()
    traj = flow(field, (3.0, 0.0), (0.0, 5.0), cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = solve_ivp(lambda t, y: [-y[0] ** 31, 0.0], (0.0, 5.0), [3.0, 0.0],
                        method="DOP853", rtol=cfg.rtol, atol=cfg.atol)
    assert ref.status == 0 and ref.y[0, -1] == approx(0.8462, abs=1e-4)
    assert traj.end[0] == approx(ref.y[0, -1], rel=1e-9)
    assert traj.end[0] == approx((3.0 ** -30 + 150.0) ** (-1 / 30), rel=1e-9)
    (seg,) = traj.segments
    assert _rejections(seg) > 0
    scan = _Scan(_numpy_power, math.sqrt(cfg.event_tol))
    inf_seg = _dop853(_numpy_power, (0.0, 5.0), [3.0, 0.0], cfg, scan)
    assert _run_outcome(seg, scan) == _run_outcome(inf_seg, scan)


def test_a_newton_stage_past_the_float_range_does_not_converge():
    # a Newton iterate whose stage state overflows the kernel's power ends
    # the iteration unconverged, as a stage value that is not finite does:
    # the leg into the power wall with the kernel inlined is, bit for bit,
    # the leg on numpy's power, which gives inf there
    runs = []
    for name, meets in (("radau newton stage overflows", "overflow"),
                        ("radau newton stage not finite", "not finite")):
        (outcome, _), _, seen = _both_loops(name)
        assert meets in seen
        runs.append(outcome)
    assert runs[0] == runs[1]

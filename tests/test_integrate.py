"""Section-crossing detection on top of the adaptive integrator."""

from functools import partial

import numpy as np
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
    flow_to_section,
    flow_to_section_traj,
    sample_dense,
    trajectory_to_csv,
)
from regtang.integrate import (
    Segment,
    _as_rhs,
    _dop853,
    _dop853_horner,
    _norm_guard,
    _nudge_off_section,
    _radau,
    _radau_horner,
    _scan_grid,
    _section_admit,
)


class fld:
    """Wrap a (x, y) -> (dx, dy) callable in the field protocol."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, x, y):
        return np.asarray(self.fn(x, y), dtype=float)


rotation = fld(lambda x, y: (-y, x))


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
    hit = flow_to_section(rotation, (1.0, 0.0), sec, cfg)
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
    hit = flow_to_section(rotation, (1.0, 0.0), sec, cfg)
    assert hit.point[1] == approx(-1.0, abs=1e-9)


def test_short_dip_is_not_skipped():
    # X = (1, x) from (-d, eps): y dips below eps for a time ~2d only; the
    # sub-step scan must still catch the re-crossing near x = +d.
    eps = 1e-3
    d = 0.05
    cfg = IntegratorConfig()
    sec = SectionSpec("horizontal", eps, direction="up")
    hit = flow_to_section(fld(lambda x, y: (1.0, x)), (-d, eps), sec, cfg)
    assert hit.point[0] == approx(d, abs=1e-8)


def test_tangential_graze_is_flagged():
    # parabola y = eps + x^2/2 - d^2/2 dips to y_min = eps - d^2/2; a section
    # just below the minimum is never crossed, and the turning point sits
    # inside the near-section band, so it must be reported as a graze.
    eps = 1e-3
    d = 0.05
    sec = SectionSpec("horizontal", eps - d * d / 2 - 1e-8, direction="down")
    with raises(TangentialGraze):
        flow_to_section(fld(lambda x, y: (1.0, x)), (-d, eps), sec,
                        IntegratorConfig(max_time=50.0))


def test_norm_guard_raises_domain_exit():
    cfg = IntegratorConfig(norm_guard=10.0, max_time=100.0)
    with raises(DomainExit):
        flow_to_section(fld(lambda x, y: (x, y)), (1.0, 1.0),
                        SectionSpec("vertical", -5.0), cfg)


def test_no_crossing_when_time_runs_out():
    cfg = IntegratorConfig(max_time=1.0, norm_guard=1e9)
    with raises(NoCrossing):
        flow_to_section(fld(lambda x, y: (1.0, 0.0)), (0.0, 0.0),
                        SectionSpec("vertical", 5.0), cfg)


def test_backward_time_sections():
    cfg = IntegratorConfig()
    sec = SectionSpec("vertical", -1.0)
    hit = flow_to_section(fld(lambda x, y: (1.0, 0.0)), (0.0, 0.0), sec, cfg,
                          t_direction="backward")
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


def test_rejected_crossing_does_not_restart_the_solver():
    # the stopper turns down the upward crossing of y = 0.5 at t = pi/6, and
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
    hit = flow_to_section(field, (0.0, -3.0), sec, IntegratorConfig(max_time=50.0))
    assert hit.point[0] == approx(3.0, abs=1e-8)
    assert hit.direction == "up"


def test_graze_is_a_no_crossing():
    eps = 1e-3
    d = 0.05
    sec = SectionSpec("horizontal", eps - d * d / 2 - 1e-8, direction="down")
    with raises(NoCrossing) as info:
        flow_to_section(fld(lambda x, y: (1.0, x)), (-d, eps), sec,
                        IntegratorConfig(max_time=50.0))
    assert isinstance(info.value, TangentialGraze)
    # the turning point of y = eps + x^2/2 - d^2/2 sits at x = 0, t = d
    assert info.value.t == approx(d, abs=1e-9)
    assert info.value.point[0] == approx(0.0, abs=1e-9)


def test_far_turning_point_is_not_a_graze():
    # y = sin t turns at +-1, far from y = 2: a plain NoCrossing
    with raises(NoCrossing) as info:
        flow_to_section(rotation, (1.0, 0.0), SectionSpec("horizontal", 2.0),
                        IntegratorConfig(max_time=20.0))
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
# the DOP853 driver against solve_ivp with terminal events
# --------------------------------------------------------------------------

def _terminal(stop):
    def event(t, p):
        return stop(p)
    event.terminal = True
    return event


def _assert_matches_solve_ivp(field, t_span, y0, cfg, stops):
    """Run the driver and solve_ivp on the same inputs; every number must be
    bitwise equal.  Returns the driver's segment and stop."""
    rhs = _as_rhs(field)
    y0 = np.asarray(y0, dtype=float)
    seg, stop = _dop853(rhs, t_span, y0, cfg, stops)
    ref = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=cfg.rtol,
                    atol=cfg.atol, max_step=cfg.max_step, dense_output=True,
                    events=[_terminal(s) for s in stops])
    assert np.array_equal(seg.t, ref.t)
    assert np.array_equal(seg.y, ref.y)
    assert (seg.nfev, seg.njev, seg.nlu) == (ref.nfev, ref.njev, ref.nlu)
    fired = [i for i, te in enumerate(ref.t_events) if len(te)]
    if stop is None:
        assert fired == []
    else:
        i, te, pe = stop
        assert fired == [i]
        assert ref.t_events[i][0] == te
        assert np.array_equal(ref.y_events[i][0], pe)
    grid = _scan_grid(seg)
    assert np.array_equal(seg.dense(grid), ref.sol(grid))
    return seg, stop


def _residual_of(kind, c):
    return SectionSpec(kind, c).residual


def _last_step(seg):
    """The ends of the last step's full length, in ascending order."""
    return sorted((seg.t[-2], seg.t[-2] + seg.h[-1]))


def test_driver_matches_solve_ivp_forward_stop_mid_step():
    cfg = IntegratorConfig()
    seg, stop = _assert_matches_solve_ivp(
        rotation, (0.0, 1e6), (1.0, 0.0), cfg,
        [_residual_of("vertical", 0.0), _norm_guard(cfg)])
    assert stop[0] == 0 and stop[1] == approx(np.pi / 2, abs=1e-9)
    # the stop is inside the last step, whose interpolant keeps its full step
    assert seg.t[-2] < stop[1] < seg.t[-2] + seg.h[-1]


def test_driver_matches_solve_ivp_backward():
    cfg = IntegratorConfig(max_step=0.3)
    # backward from (1, 0), y = sin t first reaches 0.5 at t = -(pi + pi/6)
    _, stop = _assert_matches_solve_ivp(
        rotation, (0.0, -10.0), (1.0, 0.0), cfg, [_residual_of("horizontal", 0.5)])
    assert stop[1] == approx(-7 * np.pi / 6, abs=1e-9)


def test_driver_matches_solve_ivp_when_the_guard_fires():
    cfg = IntegratorConfig(norm_guard=10.0, max_time=100.0)
    _, stop = _assert_matches_solve_ivp(
        fld(lambda x, y: (x, y)), (0.0, 100.0), (1.0, 1.0), cfg,
        [_residual_of("vertical", -5.0), _norm_guard(cfg)])
    assert stop[0] == 1 and stop[1] == approx(np.log(10.0), abs=1e-9)


def test_driver_matches_solve_ivp_running_to_the_end():
    cfg = IntegratorConfig(max_time=1.0, norm_guard=1e9)
    seg, stop = _assert_matches_solve_ivp(
        fld(lambda x, y: (1.0, np.cos(x))), (0.0, 1.0), (0.0, 0.0), cfg,
        [_residual_of("vertical", 5.0), _norm_guard(cfg)])
    assert stop is None and seg.t[-1] == 1.0


def test_driver_earliest_root_wins_and_ties_go_to_the_lower_index():
    # x' = 1 is integrated exactly and the steps grow fast: the step from
    # |t| ~ 5.9 to ~ 30 covers both roots
    cfg = IntegratorConfig()
    line = fld(lambda x, y: (1.0, 0.0))
    for span, levels, first in (((0.0, 100.0), (20.0, 10.0), 1),
                                ((0.0, -100.0), (-20.0, -10.0), 1),
                                ((0.0, 100.0), (10.0, 20.0), 0)):
        seg, stop = _assert_matches_solve_ivp(
            line, span, (0.0, 0.0), cfg,
            [_residual_of("vertical", c) for c in levels])
        lo, hi = _last_step(seg)
        assert all(lo < abs(c) * np.sign(span[1]) < hi for c in levels)
        assert stop[0] == first
    same = _residual_of("vertical", 15.0)
    _, stop = _assert_matches_solve_ivp(line, (0.0, 100.0), (0.0, 0.0), cfg,
                                        [same, same])
    assert stop[0] == 0


def test_driver_matches_solve_ivp_on_a_root_at_the_previous_step_end():
    # a section one ulp past a step's end is met on the next step, but its
    # root rounds back to that step's start: the run ends on the earlier
    # step end, which is not repeated
    cfg = IntegratorConfig()
    free, _ = _dop853(_as_rhs(rotation), (0.0, 6.0), np.array([1.0, 0.0]), cfg, [])
    k = 3
    level = np.nextafter(free.y[1, k], np.inf)  # y = sin t is rising here
    seg, stop = _assert_matches_solve_ivp(
        rotation, (0.0, 6.0), (1.0, 0.0), cfg, [_residual_of("horizontal", level)])
    assert stop[1] == free.t[k]
    assert np.array_equal(seg.t, free.t[:k + 1])


def test_driver_turning_upward_roots_down_matches_a_directed_solve_ivp_event():
    # a leg to a 'down' section turns down the upward roots of its stopper:
    # that is solve_ivp with the stop as a terminal event of direction -1,
    # and the leg's one segment is that run, bit for bit
    cfg = IntegratorConfig()
    rhs = _as_rhs(rotation)
    y0 = np.array([1.0, 0.0])
    sec = SectionSpec("horizontal", 0.5, direction="down")
    stops = [sec.residual, _norm_guard(cfg)]
    directed = _terminal(sec.residual)
    directed.direction = -1
    # y = sin t meets 0.5 upward first (t = pi/6, or -7 pi/6 backward)
    for sense, t_down in (("forward", 5 * np.pi / 6), ("backward", -11 * np.pi / 6)):
        span = (0.0, cfg.max_time if sense == "forward" else -cfg.max_time)
        seg, stop = _dop853(rhs, span, y0, cfg, stops, _section_admit(sec))
        ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=cfg.rtol,
                        atol=cfg.atol, max_step=cfg.max_step, dense_output=True,
                        events=[directed, _terminal(stops[1])])
        assert np.array_equal(seg.t, ref.t)
        assert np.array_equal(seg.y, ref.y)
        assert (seg.nfev, seg.njev, seg.nlu) == (ref.nfev, ref.njev, ref.nlu)
        assert stop[0] == 0 and len(ref.t_events[1]) == 0
        assert stop[1] == ref.t_events[0][0] == approx(t_down, abs=1e-9)
        assert np.array_equal(stop[2], ref.y_events[0][0])
        grid = _scan_grid(seg)
        assert np.array_equal(seg.dense(grid), ref.sol(grid))
        hit, traj = flow_to_section_traj(rotation, y0, sec, cfg, t_direction=sense)
        assert hit.t == approx(stop[1], abs=1e-12)
        (leg,) = traj.segments
        assert np.array_equal(leg.t, ref.t) and leg.nfev == ref.nfev


def test_driver_matches_solve_ivp_on_a_zero_length_span():
    cfg = IntegratorConfig()
    seg, stop = _assert_matches_solve_ivp(
        rotation, (0.0, 0.0), (1.0, 0.0), cfg, [_norm_guard(cfg)])
    assert stop is None and seg.nfev == 1
    traj = flow(rotation, (1.0, 0.0), (0.0, 0.0), cfg,
                sections=[SectionSpec("horizontal", 0.0)])
    assert len(traj) == 2
    assert [(ev.t, ev.direction) for ev in traj.events] == [(0.0, "up")]
    assert traj.segments[0].nfev == 1


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    forward=st.booleans(),
    max_step=st.one_of(st.just(np.inf), st.floats(min_value=0.05, max_value=2.0)),
    level=st.one_of(st.none(), st.floats(min_value=-0.9, max_value=0.9)),
)
def test_batched_dense_equals_ode_solution(data, forward, max_step, level):
    """``Segment.dense`` and ``Segment.__call__`` are solve_ivp's
    ``OdeSolution.__call__`` bit for bit, at step breakpoints too, on the
    event-truncated last step and on descending legs."""
    cfg = IntegratorConfig(max_step=max_step)
    span = (0.0, 8.0) if forward else (0.0, -8.0)
    stops = [] if level is None else [_residual_of("horizontal", level)]
    rhs = _as_rhs(fld(lambda x, y: (-y + 0.1 * x * y, x)))
    y0 = np.array([1.0, 0.0])
    seg, _ = _dop853(rhs, span, y0, cfg, stops)
    ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=cfg.rtol, atol=cfg.atol,
                    max_step=cfg.max_step, dense_output=True,
                    events=[_terminal(s) for s in stops])
    assert np.array_equal(seg.t, ref.t)
    lo, hi = min(seg.t), max(seg.t)
    inside = st.floats(min_value=lo, max_value=hi, allow_nan=False)
    ts = np.array(data.draw(st.lists(
        st.one_of(inside, st.sampled_from(seg.t.tolist())), min_size=1, max_size=40)))
    got = seg.dense(ts)
    assert np.array_equal(got, ref.sol(ts))
    for j, t in enumerate(ts):
        assert np.array_equal(got[:, j], seg(t))
        assert np.array_equal(got[:, j], ref.sol(t))


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


def _assert_linear_system_matches_solve_ivp(M, b, y0, span, cfg, level):
    """The driver against solve_ivp on y' = M y + t b, with an optional stop
    at y[0] = level; also checks that nfev counts every call of the RHS."""
    calls = [0]

    def rhs(t, p):
        calls[0] += 1
        return M.dot(p) + t * b
    stops = [] if level is None else [lambda p: p[0] - level]
    seg, _ = _assert_matches_solve_ivp(rhs, span, y0, cfg, stops)
    # the driver's calls and then solve_ivp's, whose nfev equals the driver's
    assert calls[0] == 2 * seg.nfev
    return seg


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    dim=st.sampled_from([1, 2, 3]),
    rtol=st.floats(min_value=1e-12, max_value=1e-6),
    max_step=st.one_of(st.just(np.inf), st.floats(min_value=0.05, max_value=2.0)),
    forward=st.booleans(),
    level=st.one_of(st.none(), st.floats(min_value=-2.0, max_value=2.0)),
)
def test_driver_matches_solve_ivp_in_every_dimension(data, dim, rtol, max_step,
                                                     forward, level):
    # the blow-up charts run 1-D and 3-D states, the cycle multiplier 3-D.
    # Entries stay clear of the subnormal range, where scipy's error norm
    # can be numpy's 0/0, which warns.
    entry = st.floats(min_value=-2.0, max_value=2.0).filter(
        lambda v: v == 0.0 or abs(v) >= 1e-6)
    vector = st.lists(entry, min_size=dim, max_size=dim)
    M = np.array(data.draw(st.lists(vector, min_size=dim, max_size=dim)))
    b = np.array(data.draw(vector))
    y0 = np.array(data.draw(vector))
    span = (0.0, 3.0) if forward else (0.0, -3.0)
    _assert_linear_system_matches_solve_ivp(
        M, b, y0, span, IntegratorConfig(rtol=rtol, max_step=max_step), level)


def test_driver_matches_solve_ivp_through_rejected_steps():
    # a fast decaying mode: steps grow to the explicit method's stability
    # limit and are rejected there
    for M, rtol in ((np.array([[-600.0]]), 1e-6),
                    (np.array([[-300.0, 1.0], [0.0, -1.0]]), 1e-6),
                    (np.array([[-200.0, 1.0, 0.0], [0.0, -1.0, 2.0],
                               [0.0, -2.0, -1.0]]), 1e-8)):
        seg = _assert_linear_system_matches_solve_ivp(
            M, np.zeros(len(M)), np.ones(len(M)), (0.0, 8.0),
            IntegratorConfig(rtol=rtol), None)
        # 2 calls to start, 12 per attempted step, 3 per dense output
        accepted = len(seg.t) - 1
        rejected, rest = divmod(seg.nfev - 2 - 15 * accepted, 12)
        assert rest == 0 and rejected > 0


def test_only_the_integrate_module_imports_scipy_integrate():
    # every ODE solve goes through integrate._dop853: no other module of the
    # package may reach for scipy's integrators
    import ast
    from pathlib import Path

    import regtang

    importers = []
    for path in sorted(Path(regtang.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
                   for name in names):
                importers.append(path.name)
    assert set(importers) == {"integrate.py"}


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
    seg, stop = _radau(_stiff_linear, (0.0, 10.0), np.array([0.0, y0]), cfg, [],
                       jac=_stiff_linear_jac)
    assert stop is None and seg.t[-1] == 10.0
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
    stops = [] if level is None else [_residual_of("horizontal", level)]
    seg, _ = _radau(_as_rhs(rotation), span, np.array([1.0, 0.0]), cfg, stops,
                    jac=_rotation_jac)
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
    # earliest root wins, ties go to the lower index; x' = 1 is integrated
    # to rounding and the steps grow tenfold, the last from |t| ~ 11 to 100
    for span, levels, first in (((0.0, 100.0), (50.0, 30.0), 1),
                                ((0.0, -100.0), (-50.0, -30.0), 1),
                                ((0.0, 100.0), (30.0, 50.0), 0)):
        seg, stop = _radau(_as_rhs(line), span, np.zeros(2), cfg,
                           [_residual_of("vertical", c) for c in levels], jac=zero)
        lo, hi = _last_step(seg)
        assert all(lo < abs(c) * np.sign(span[1]) < hi for c in levels)
        assert stop[0] == first
        assert stop[1] == approx(levels[first], abs=1e-12)
        assert seg.t[-1] == stop[1]
    same = _residual_of("vertical", 40.0)
    _, stop = _radau(_as_rhs(line), (0.0, 100.0), np.zeros(2), cfg, [same, same], jac=zero)
    assert stop[0] == 0
    # an upward root of a 'down' section is turned down and the run goes on
    sec = SectionSpec("horizontal", 0.5, direction="down")
    for span, t_down in (((0.0, 1e6), 5 * np.pi / 6), ((0.0, -1e6), -11 * np.pi / 6)):
        seg, stop = _radau(_as_rhs(rotation), span, np.array([1.0, 0.0]), cfg,
                           [sec.residual, _norm_guard(cfg)], _section_admit(sec),
                           jac=_rotation_jac)
        ref, ref_stop = _dop853(_as_rhs(rotation), span, np.array([1.0, 0.0]), cfg,
                                [sec.residual, _norm_guard(cfg)], _section_admit(sec))
        assert stop[0] == ref_stop[0] == 0
        assert stop[1] == approx(t_down, abs=1e-8) and ref_stop[1] == approx(t_down, abs=1e-9)
    # the guard fires
    guard_cfg = IntegratorConfig(norm_guard=10.0, max_time=100.0)
    seg, stop = _radau(_as_rhs(fld(lambda x, y: (x, y))), (0.0, 100.0), np.ones(2),
                       guard_cfg, [_residual_of("vertical", -5.0), _norm_guard(guard_cfg)],
                       jac=lambda t, p: ((1.0, 0.0), (0.0, 1.0)))
    assert stop[0] == 1 and stop[1] == approx(np.log(10.0), abs=1e-8)


def test_radau_counts_every_rhs_call():
    calls = [0]

    def rhs(t, p):
        calls[0] += 1
        return _stiff_linear(t, p)
    seg, _ = _radau(rhs, (0.0, 3.0), np.array([0.0, 2.0]), IntegratorConfig(), [],
                    jac=_stiff_linear_jac)
    assert calls[0] == seg.nfev


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
    assert _initial_step(fun, *args) == theirs
    assert calls == their_calls


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
        for run in (partial(_dop853, rhs, (0.0, 1.0), np.array(y0), cfg, []),
                    partial(_radau, rhs, (0.0, 1.0), np.array(y0), cfg, [], jac=zero)):
            with raises(ValueError) as mine:
                run()
            assert str(mine.value) == str(theirs.value)
    # an rtol below 100 eps warns, is raised to 100 eps, and the run is scipy's
    cfg = IntegratorConfig(rtol=1e-15, event_tol=1e-16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        DOP853(lambda t, p: rhs(t, p.tolist()), 0.0, np.array([1.0, 0.0]), 1.0,
               rtol=cfg.rtol, atol=cfg.atol)
        _dop853(rhs, (0.0, 1.0), np.array([1.0, 0.0]), cfg, [])
    (theirs, mine) = caught
    assert (mine.category, str(mine.message)) == (theirs.category, str(theirs.message))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _assert_matches_solve_ivp(rotation, (0.0, 3.0), (1.0, 0.0), cfg, [])


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
        (_augmented_rhs(reg.eval, reg.divergence()), (-0.3, 0.02, 0.0),
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

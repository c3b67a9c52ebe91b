"""Section-crossing detection on top of the adaptive integrator."""

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
    _norm_guard,
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
        for sol in traj.segments:
            lo, hi = sorted((sol.sol.t_min, sol.sol.t_max))
            if lo - 1e-12 <= ti <= hi + 1e-12:
                out[i] = sol.sol(ti)
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


def test_driver_matches_solve_ivp_forward_stop_mid_step():
    cfg = IntegratorConfig()
    seg, stop = _assert_matches_solve_ivp(
        rotation, (0.0, 1e6), (1.0, 0.0), cfg,
        [_residual_of("vertical", 0.0), _norm_guard(cfg)])
    assert stop[0] == 0 and stop[1] == approx(np.pi / 2, abs=1e-9)
    # the stop is inside the last step, whose interpolant keeps its full step
    last = seg.sol.interpolants[-1]
    assert last.t_old < stop[1] < last.t


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
        last = seg.sol.interpolants[-1]
        assert all(last.t_min < abs(c) * np.sign(span[1]) < last.t_max for c in levels)
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
    """``Segment.dense`` is ``OdeSolution.__call__`` bit for bit, at step
    breakpoints too, on the event-truncated last step and on descending
    legs."""
    cfg = IntegratorConfig(max_step=max_step)
    span = (0.0, 8.0) if forward else (0.0, -8.0)
    stops = [] if level is None else [_residual_of("horizontal", level)]
    field = fld(lambda x, y: (-y + 0.1 * x * y, x))
    seg, _ = _dop853(_as_rhs(field), span, np.array([1.0, 0.0]), cfg, stops)
    lo, hi = seg.sol.t_min, seg.sol.t_max
    inside = st.floats(min_value=lo, max_value=hi, allow_nan=False)
    ts = np.array(data.draw(st.lists(
        st.one_of(inside, st.sampled_from(seg.t.tolist())), min_size=1, max_size=40)))
    got = seg.dense(ts)
    assert np.array_equal(got, seg.sol(ts))
    for j, t in enumerate(ts):
        assert np.array_equal(got[:, j], seg.sol(t))


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
    interps = [Dop853DenseOutput(ends[k], ends[k + 1],
                                 np.array(data.draw(st.lists(coef, min_size=2, max_size=2))),
                                 np.array(data.draw(st.lists(
                                     st.lists(coef, min_size=2, max_size=2),
                                     min_size=7, max_size=7))))
               for k in range(len(steps))]
    ts = ends.copy()
    ts[-1] = ends[-2] + cut * (ends[-1] - ends[-2])  # a run stopped by an event
    seg = Segment(t=ts, y=np.zeros((2, len(ts))), sol=OdeSolution(ts, interps),
                  nfev=0, njev=0, nlu=0)
    lo, hi = seg.sol.t_min, seg.sol.t_max
    inside = st.floats(min_value=lo, max_value=hi, allow_nan=False)
    extra = np.array(data.draw(st.lists(inside, max_size=20)))
    grid = np.concatenate([ts, extra, [lo - 1e-13, hi + 1e-13]])
    got = seg.dense(grid)
    assert np.array_equal(got, seg.sol(grid))
    for j, t in enumerate(grid):
        assert np.array_equal(got[:, j], seg.sol(t))


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

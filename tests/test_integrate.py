"""Section-crossing detection on top of the adaptive integrator."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from pytest import approx, raises

from regtang import (
    DomainExit,
    IntegratorConfig,
    NoCrossing,
    SectionSpec,
    TangentialGraze,
    Trajectory,
    flow,
    flow_to_section,
    flow_to_section_traj,
    sample_dense,
    trajectory_to_csv,
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


def test_rejected_crossing_restarts_once():
    # the upward crossing of y = 0.5 at t = pi/6 stops the solver and is
    # rejected; one restart past it reaches the admitted one at t = 5 pi/6
    sec = SectionSpec("horizontal", 0.5, direction="down")
    hit, traj = flow_to_section_traj(rotation, (1.0, 0.0), sec, IntegratorConfig())
    assert hit.t == approx(5 * np.pi / 6, abs=1e-9)
    assert len(traj.segments) == 2


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

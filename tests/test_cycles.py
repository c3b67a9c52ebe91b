"""Return maps and the attracting cycle of the grazing-oval example."""

import numpy as np
from hypothesis import given, settings, strategies as st
from pytest import approx, raises

from regtang import (
    IntegratorConfig,
    NoBracket,
    TransitionConfig,
    cycle_analysis,
    default_bracket,
    exterior_map,
    find_cycle,
    grazing_exponent_fit,
    grazing_half_map,
    hausdorff_distance,
    loop_period,
    multiplier_fd,
    phi_family,
    resample_arclength,
    return_map,
    tangency_curve_psi,
    unique_root_scan,
    upper_transition_map,
)
from regtang.cycles import RETURN_INTEG
from regtang.errors import (
    DomainExit,
    MaxRevolutions,
    NoCrossing,
    NoExit,
    NoReturn,
    NotConverged,
)
from regtang.scenarios import (
    boundary_cycle_system,
    canonical_system,
    oval_point,
    oval_polyline,
    time_reversed,
)

TF5 = phi_family(5)


def test_divergence_on_the_oval_is_minus_2k():
    sys = boundary_cycle_system(k=2)
    div = sys.x_plus.divergence()
    for phi in np.linspace(0.0, 2 * np.pi, 17):
        x, y = oval_point(2, phi)
        assert div(x, y) == approx(-4.0, abs=1e-10)


def test_oval_is_invariant_under_the_upper_field():
    sys = boundary_cycle_system(k=2)
    # gradient of H = 1 - x^4 - (y-1)^4 is orthogonal to X+ on the oval
    for phi in np.linspace(0.1, 2 * np.pi, 11):
        x, y = oval_point(2, phi)
        gx, gy = -4 * x**3, -4 * (y - 1) ** 3
        vx, vy = sys.x_plus.eval(x, y)
        assert gx * vx + gy * vy == approx(0.0, abs=1e-11)


def test_loop_period_regression():
    sys = boundary_cycle_system(k=2)
    T = loop_period(sys)
    assert T == approx(7.416298709240543, rel=1e-9)


def test_return_map_basics():
    sys = boundary_cycle_system(k=2)
    eps = 0.01
    info = return_map(sys, TF5, eps, 0.005)
    assert info.y_out > 0
    assert info.t_return == approx(7.44, abs=0.2)


def test_cycle_analysis_reference_run():
    sys = boundary_cycle_system(k=2)
    ref = oval_polyline(2)
    info = cycle_analysis(sys, TF5, 0.01, reference=ref)
    assert info.fixed_point == approx(0.004858417375071363, rel=1e-8)
    assert info.period == approx(7.444269568857808, rel=1e-9)
    assert info.log_multiplier == approx(-48.01317578388858, rel=1e-6)
    assert info.multiplier < 1e-12
    assert info.hausdorff_over_eps == approx(0.5480927428014368, rel=1e-6)
    d = info.as_dict()
    assert d["multiplier_arc"] == approx(2.561534490359964e-12, rel=1e-6)


def test_fixed_point_is_unique_across_the_bracket():
    sys = boundary_cycle_system(k=2)
    eps = 0.01
    bracket = default_bracket(sys, eps, 0.3)
    ret = lambda y: return_map(sys, TF5, eps, y).y_out
    roots = unique_root_scan(ret, bracket, pieces=8)
    assert len(roots) == 1
    assert roots[0] == approx(0.004858417375071363, rel=1e-7)


def test_find_cycle_stops_at_the_return_maps_resolution():
    # the cycle contracts by ~exp(-48) per turn, so the secant lands on the
    # fixed point, up to the map's rtol-level noise, at once
    sys = boundary_cycle_system(k=2)
    eps = 0.01
    ret = lambda y: return_map(sys, TF5, eps, y).y_out
    res = find_cycle(ret, default_bracket(sys, eps, 0.3))
    assert res.iterations <= 2
    assert abs(res.residual) <= RETURN_INTEG.rtol * res.y_star
    assert res.y_star == approx(0.004858417375071363, rel=1e-8)


def test_return_map_is_one_solver_run():
    sys = boundary_cycle_system(k=2)
    info = return_map(sys, TF5, 0.01, 0.005)
    (seg,) = info.trajectory.segments
    assert seg.t[0] == info.trajectory.t[0]
    assert seg.t[-1] == approx(info.t_return, abs=1e-12)


def test_time_reversed_system_has_no_attracting_cycle():
    sys = time_reversed(boundary_cycle_system(k=2))
    eps = 0.01
    try:
        bracket = default_bracket(sys, eps, 0.3)
        ret = lambda y: return_map(sys, TF5, eps, y).y_out
        find_cycle(ret, bracket)
        found = True
    except (NoBracket, NoReturn, NoCrossing, NoExit, DomainExit,
            MaxRevolutions, NotConverged):
        found = False
    assert not found


def test_multiplier_fd_is_an_upper_bound_only():
    sys = boundary_cycle_system(k=2)
    eps = 0.01
    ret = lambda y: return_map(sys, TF5, eps, y).y_out
    out = multiplier_fd(ret, 0.004858417375071363)
    # the true multiplier ~ exp(-48) sits far below integration noise; the
    # difference quotient can only certify "very contracting", never the value
    assert out["value"] < 1e-4
    assert out["value"] > np.exp(-48.01317578388858)


def test_multiplier_fd_flags_exact_resolution_limit():
    ret = lambda y: 0.005 + 1e-30 * (y - 0.005)
    out = multiplier_fd(ret, 0.005)
    assert out["resolution_limited"]
    assert out["value"] == approx(out["resolution"])


def test_composed_transition_matches_direct_return():
    sys = boundary_cycle_system(k=2)
    eps = 5e-4
    cfg = TransitionConfig(k=2, n=6, tf=TF5, lam=0.25)
    y_in = 2.0 * eps
    up = upper_transition_map(sys, cfg, eps, y_in)
    outer = exterior_map(sys, up.y_out, cfg.theta, cfg.rho)
    direct = return_map(sys, TF5, eps, y_in, rho=cfg.rho)
    assert outer["y_out"] == approx(direct.y_out, abs=1e-9)


def test_grazing_half_maps_have_exact_exponents():
    # canonical fields with theta = 0: the half-map is y = kappa x^(2k)
    # exactly, so the fitted exponent and prefactor are exact
    for k, offs in [(1, np.geomspace(1e-3, 1e-2, 8)),
                    (2, np.geomspace(0.05, 0.2, 8))]:
        sys = canonical_system(k=k)
        fit = grazing_exponent_fit(sys, 1e-3, 0.0, "unstable", 0.3, 0.3,
                                   offsets=offs)
        assert fit["exponent"] == approx(2 * k, rel=1e-6)
        assert fit["kappa"] == approx(-1.0 / (2 * k), rel=1e-6)
        assert fit["r2"] == approx(1.0, abs=1e-10)


def test_grazing_half_map_sides():
    # k = 1 canonical: closed forms y_out = eps + (theta^2 - x_in^2)/2 forward
    # and y_out = eps + (rho^2 - x_in^2)/2 backward
    sys = canonical_system(k=1)
    eps = 1e-3
    up = grazing_half_map(sys, eps, -0.01, 0.0, "unstable", 0.3, 0.3)
    dn = grazing_half_map(sys, eps, -0.01, 0.0, "stable", 0.3, 0.3)
    assert up == approx(eps + (0.3**2 - 1e-4) / 2, abs=1e-10)
    assert dn == approx(eps + (0.3**2 - 1e-4) / 2, abs=1e-10)
    with raises(ValueError):
        grazing_half_map(sys, eps, -0.01, 0.0, "sideways", 0.3, 0.3)


def test_hausdorff_on_shifted_squares():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    shifted = sq + np.array([0.25, 0.0])
    d = hausdorff_distance(sq, shifted, delta_sample=1e-3)
    assert d == approx(0.25, abs=5e-3)


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-0.5, max_value=0.5))
def test_hausdorff_translation_is_exact_for_circles(dx, dy):
    phi = np.linspace(0, 2 * np.pi, 400)
    circle = np.column_stack([np.cos(phi), np.sin(phi)])
    moved = circle + np.array([dx, dy])
    d = hausdorff_distance(circle, moved, delta_sample=5e-3)
    assert d <= np.hypot(dx, dy) + 1e-2
    assert d >= np.hypot(dx, dy) - 1e-2


def test_resample_arclength_spacing():
    line = np.array([[0.0, 0.0], [1.0, 0.0]])
    pts = resample_arclength(line, 0.1)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.all(seg < 0.11)
    assert pts[0] == approx((0.0, 0.0))
    assert pts[-1] == approx((1.0, 0.0))


def test_find_cycle_on_a_synthetic_contraction():
    ret = lambda y: 0.3 * y + 0.07
    res = find_cycle(ret, (0.0, 1.0))
    assert res.y_star == approx(0.1, rel=1e-10)
    with raises(NoBracket):
        find_cycle(ret, (0.5, 1.0))
"""Return maps and the attracting cycle of the grazing-oval example."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx, raises

from regtang import (
    NoBracket,
    TransitionConfig,
    cycle_analysis,
    default_bracket,
    find_cycle,
    grazing_exponent_fit,
    grazing_half_map,
    hausdorff_distance,
    loop_period,
    phi_family,
    resample_arclength,
    return_map,
    SectionSpec,
    flow_to_section_traj,
    unique_root_scan,
    upper_transition_map,
)
from regtang import cycles
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
    roots = unique_root_scan(ret, bracket)
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


def test_cycle_analysis_runs_only_the_search_and_one_revolution(monkeypatch):
    # two bracket ends, one leg per secant iterate, and the augmented
    # revolution every reported number comes from
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("with_divergence", False))
        return return_map(*args, **kwargs)

    monkeypatch.setattr(cycles, "return_map", counting)
    info = cycle_analysis(boundary_cycle_system(k=2), TF5, 0.01)
    assert len(calls) == info.iterations + 3
    assert calls.count(True) == 1


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


def _exterior_y_out(system, y_in, theta, rho):
    """The outer excursion: the height at which the upper field's orbit
    from (theta, y_in) reaches the inflow section {x = -rho} going up,
    around the outer loop."""
    sec = SectionSpec("vertical", -rho, interval=(0.0, 1.0), direction="up", ident="inflow")
    hit, _ = flow_to_section_traj(system.x_plus, (theta, y_in), sec)
    return float(hit.point[1])


def test_composed_transition_matches_direct_return():
    # the upper transition map then the outer excursion is one revolution
    # of the return map, when the return crossing sits above the layer
    sys = boundary_cycle_system(k=2)
    eps = 5e-4
    cfg = TransitionConfig(k=2, n=6, tf=TF5, lam=0.25)
    y_in = 2.0 * eps
    up = upper_transition_map(sys, cfg, eps, y_in)
    outer = _exterior_y_out(sys, up.y_out, cfg.theta, cfg.rho)
    direct = return_map(sys, TF5, eps, y_in, rho=cfg.rho)
    assert outer == approx(direct.y_out, abs=1e-9)


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


def test_find_cycle_takes_each_branch_on_scalar_maps():
    # a displacement of exactly 0 at either end of the bracket is the cycle,
    # found with no iteration
    res = find_cycle(lambda y: 2.0 * y - 0.25, (0.25, 1.0))
    assert (res.y_star, res.iterations, res.residual) == (0.25, 0, 0.0)
    res = find_cycle(lambda y: 2.0 * y - 1.0, (0.25, 1.0))
    assert (res.y_star, res.iterations, res.residual) == (1.0, 0, 0.0)
    # displacements -1e20 at y = 0 and one ulp at y = 1 put the secant point
    # on the end it moves from (stagnation): the midpoints 0.5 and 0.25
    # instead; the second changes the bracket's side, and the secant then
    # finds the fixed point 0.3
    seen = []

    def stagnant(y):
        seen.append(y)
        return -1e20 if y == 0.0 else y + (2.0 ** -52 if y == 1.0 else y - 0.3)
    res = find_cycle(stagnant, (0.0, 1.0))
    assert seen[:4] == [0.0, 1.0, 0.5, 0.25]
    assert res.y_star == approx(0.3, rel=RETURN_INTEG.rtol) and res.iterations == len(seen) - 2
    # a convex displacement: the secant points stay on one side (the far end
    # is halved, Illinois) until one crosses and the bracket changes side
    seen.clear()
    res = find_cycle(lambda y: seen.append(y) or y + math.exp(4.0 * y) - 2.0, (0.0, 1.0))
    fx = [y + math.exp(4.0 * y) - 2.0 - y for y in seen[2:]]
    assert any(a > 0 > b or a < 0 < b for a, b in zip(fx, fx[1:]))
    assert res.y_star == approx(math.log(2.0) / 4.0, rel=RETURN_INTEG.rtol)
    # a jump with no fixed point: the bracket closes on it, the displacement
    # stays 1 in size
    with raises(NotConverged, match="within 100 iterations"):
        find_cycle(lambda y: y + (-1.0 if y < 1.0 / 3.0 else 1.0), (0.0, 1.0))
    with raises(NoBracket, match="same sign at both ends"):
        find_cycle(lambda y: y + 1.0, (0.0, 1.0))


def test_hausdorff_distance_on_the_oval_polylines():
    # the distances scipy's cKDTree gave, which the grid search keeps bit for bit
    from regtang.scenarios import oval_polyline

    oval2, circle = oval_polyline(2), oval_polyline(1)
    assert hausdorff_distance(oval2, circle) == 0.18920736833206514
    assert hausdorff_distance(circle, oval2, 5e-3) == 0.18921809234845455
    assert hausdorff_distance(oval2, 1.01 * oval2) == 0.02058023059563088


def _kdtree_hausdorff(a, b, delta):
    """The reference: scipy's k-d tree on the same resampled polylines."""
    from scipy.spatial import cKDTree

    A = resample_arclength(np.asarray(a, dtype=float), delta)
    B = resample_arclength(np.asarray(b, dtype=float), delta)
    return float(max(cKDTree(B).query(A)[0].max(), cKDTree(A).query(B)[0].max()))


def _lattice_walk(rng, steps):
    """An axis-parallel walk on the integers, then back along itself."""
    moves = np.zeros((steps, 2))
    moves[np.arange(steps), rng.integers(0, 2, steps)] = rng.integers(-3, 4, steps)
    walk = np.cumsum(moves, axis=0)
    return np.vstack([walk, walk[::-1]])


@pytest.mark.parametrize("seed", range(8))
def test_hausdorff_distance_is_the_kdtree_float(seed):
    rng = np.random.default_rng(seed)
    cloud = rng.random((int(rng.integers(2, 30)), 2))
    other = rng.random((int(rng.integers(2, 30)), 2)) * rng.choice([0.1, 1.0, 3.0])
    # thousands of cells apart or more: the grid widens a dozen times, and
    # every pair of the last round is a candidate (in most seeds more than
    # one batch of them)
    far = other + rng.choice([1e2, 1e4]) * rng.standard_normal(2)
    # resampled at a dyadic spacing, most points of the walk coincide
    walk = _lattice_walk(rng, 25)
    dots = resample_arclength(walk, 0.125)
    assert len(np.unique(dots, axis=0)) < len(dots) / 2
    # a zero-length line resamples to one point
    point = np.repeat(rng.random((1, 2)), 3, axis=0)
    assert len(resample_arclength(point, 0.01)) == 1
    cases = [(cloud, other, 0.01), (cloud, far, 0.01), (walk, 5.0 * cloud, 0.125),
             (walk, walk + 0.5, 0.125), (point, other, 0.01), (point, point + 1.0, 0.01),
             (other, other + 1e9, 0.01)]   # 5e10 cells of 2 delta a side: a larger first cell
    for a, b, delta in cases:
        expected = _kdtree_hausdorff(a, b, delta)
        assert hausdorff_distance(a, b, delta) == expected
        assert hausdorff_distance(b, a, delta) == expected

"""Transition maps across the smoothing layer and their scaling laws."""

import numpy as np
from hypothesis import given, settings, strategies as st
from pytest import approx, raises

from regtang import (
    BandField,
    ConditionViolated,
    DomainError,
    IntegratorConfig,
    SectionSpec,
    TransitionConfig,
    find_x_epsilon,
    fit_scaling,
    flow_to_section_traj,
    lambda_star,
    lower_transition_map,
    mirror_derivative,
    mirror_fixed_point,
    mirror_map,
    predicted_upper_boundary,
    tangency_curve_psi,
    upper_transition_map,
)
from regtang.scenarios import canonical_system


def test_lambda_star_table():
    assert lambda_star(1, 2) == approx(2.0 / 3.0)
    assert lambda_star(1, 3) == approx(3.0 / 5.0)
    assert lambda_star(2, 3) == approx(1.0 / 3.0)
    assert lambda_star(2, 6) == approx(2.0 / 7.0)


def test_transition_config_validation():
    with raises(ConditionViolated):
        TransitionConfig(k=2, n=2)  # needs n >= 2k - 1 = 3
    with raises(ConditionViolated):
        TransitionConfig(k=1, n=2, lam=0.7)  # lam must stay below lambda*
    with raises(ConditionViolated):
        TransitionConfig(k=1, n=2, rho=0.5)  # outside the certified window
    cfg = TransitionConfig(k=1, n=2)
    assert cfg.lam == approx(lambda_star(1, 2) / 2)


# x_eps(1e-4) of (1,2), converged: DOP853 at rtol 1e-10 ... 1e-13 and Radau at
# 1e-12 and 1e-13 lie within 5.1e-12 of it, their band legs landing on
# yhat = 1 (``integrate._land``).  The pin is checked at rtol 1e-12, where it
# is 2.2e-12 off.
X_EPS_CONVERGED = 0.0024271024584675573


def test_departure_abscissa_regression():
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2, integ=IntegratorConfig(rtol=1e-12, atol=1e-14))
    x_eps = find_x_epsilon(sys, cfg, 1e-4)
    assert x_eps == approx(X_EPS_CONVERGED, rel=1e-9)


def test_band_legs_land_on_the_kink_at_yhat_1():
    # Phi saturates at yhat = 1, where the band field is only C^n and the
    # step that crosses it is taken again to end there.  Stepping across the
    # kink put x_eps(1e-4) 6.9e-9 off at the default tolerance, and this lower
    # map image at eps = 1e-3 7.7e-11 off the others (rtol 1e-12)
    x_eps = find_x_epsilon(canonical_system(k=1), TransitionConfig(k=1, n=2), 1e-4)
    assert x_eps == approx(X_EPS_CONVERGED, rel=1e-11)
    cfg = TransitionConfig(k=1, n=2, integ=IntegratorConfig(rtol=1e-12, atol=1e-14))
    images = [lower_transition_map(canonical_system(k=1), cfg, 1e-3, y_in).y_out
              for y_in in (-1.9838659591259506e-3, -5.169366926420615e-4,
                           9.4999257384182744e-4)]
    assert max(images) - min(images) < 1e-13


def test_departure_beats_tangency_and_tangency_closed_form():
    # theta = -1: x_plus vertical component at y = eps is x^(2k-1) - eps,
    # so psi = eps^(1/(2k-1)) exactly (up to the root solve)
    from regtang import Poly2

    for k, eps in [(2, 1e-3), (2, 1e-4)]:
        sys = canonical_system(k=k, theta=Poly2.const(-1))
        cfg = TransitionConfig(k=k, n=2 * k)
        psi = tangency_curve_psi(sys, cfg, eps)
        assert psi == approx(eps ** (1.0 / (2 * k - 1)), rel=1e-12)


def test_tangency_is_zero_without_theta():
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2)
    assert tangency_curve_psi(sys, cfg, 1e-4) == approx(0.0, abs=1e-12)


def test_exact_case_upper_map_value():
    # canonical k=1, g = theta = 0: the image height has the closed form
    # y_theta - alpha*x_eps^(2k)/(2k) + eps
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2)
    eps = 1e-3
    x_eps = find_x_epsilon(sys, cfg, eps)
    res = upper_transition_map(sys, cfg, eps, 2.0 * eps)
    y_theta = 0.3**2 / 2
    assert res.y_out == approx(y_theta - x_eps**2 / 2 + eps, abs=1e-8)
    assert res.departure[0] == approx(x_eps, rel=1e-3)
    assert res.departure[1] == approx(1.0)


def test_upper_map_at_small_eps_finds_the_dip_below_the_roof():
    # at eps = 1e-5 the inflow orbit from the window's top dips below the roof
    # for ~2*eps^lam in time, inside one step and between two scan grid points
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2)
    eps = 1e-5
    res = upper_transition_map(sys, cfg, eps, predicted_upper_boundary(sys, cfg, eps))
    x_dep = res.departure[0]
    assert res.y_out == approx(0.3**2 / 2 - x_dep**2 / 2 + eps, abs=1e-8)


def test_upper_and_lower_maps_land_in_the_same_funnel():
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2)
    eps = 1e-3
    hi = upper_transition_map(sys, cfg, eps, 3.0 * eps).y_out
    lo = lower_transition_map(sys, cfg, eps, -0.5 * eps).y_out
    assert abs(hi - lo) < 1e-9
    assert hi > 0


def test_predicted_upper_boundary_brackets_inflow():
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2)
    for eps in (1e-2, 4e-3, 1e-3):
        y_hi = predicted_upper_boundary(sys, cfg, eps)
        assert y_hi > eps


def _grazing_orbit_height(system, config, x_target):
    """Height at x = x_target < 0 of the upper-field orbit through the
    contact (0, 0)."""
    sec = SectionSpec("vertical", x_target)
    hit, _ = flow_to_section_traj(system.x_plus, (0.0, 0.0), sec, config.integ,
                                  t_direction="backward")
    return float(hit.point[1])


def _predicted_targets(system, config, eps_values):
    """(y_bar, a, beta): the least-squares fit y_eps = y_bar + a*eps +
    beta*eps**(2k lam) of the predicted upper boundary over ``eps_values``,
    y_bar the grazing orbit's height at x = -rho."""
    y_bar = _grazing_orbit_height(system, config, -config.rho)
    e = np.array(eps_values, dtype=float)
    r = np.array([predicted_upper_boundary(system, config, eps) for eps in eps_values]) - y_bar
    A = np.column_stack([e, e ** (2 * config.k * config.lam)])
    coef, *_ = np.linalg.lstsq(A, r, rcond=None)
    return y_bar, float(coef[0]), float(coef[1])


def test_predicted_targets_fits_negative_beta():
    # the inflow window's upper edge bends below the naive eps-shift of the
    # grazing orbit: the leading correction's coefficient beta is negative
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2)
    y_bar, _, beta = _predicted_targets(sys, cfg, [1e-2, 4e-3, 1e-3, 4e-4])
    assert beta < 0
    assert y_bar == approx(0.3**2 / 2, abs=1e-8)


def test_mirror_map_requires_entry_left_of_tangency():
    from regtang import Poly2

    sys = canonical_system(k=2, theta=Poly2.const(-1))
    cfg = TransitionConfig(k=2, n=3)
    eps = 1e-3
    psi = tangency_curve_psi(sys, cfg, eps)
    with raises(DomainError):
        mirror_map(sys, cfg, eps, psi * 1.01)


def test_mirror_fixed_point_regressions():
    # k = 1: psi = eps exactly for theta = -1
    from regtang import Poly2

    sys = canonical_system(k=1, theta=Poly2.const(-1))
    cfg = TransitionConfig(k=1, n=2)
    out = mirror_fixed_point(sys, cfg, 1e-4)
    assert out["psi"] == approx(1e-4, rel=1e-9)
    assert abs(out["gap"]) <= cfg.integ.event_tol
    deriv = mirror_derivative(sys, cfg, 1e-4)
    assert deriv == approx(-1.0, rel=0.01)


def test_mirror_fixed_point_quartic_contact():
    from regtang import Poly2

    sys = canonical_system(k=2, theta=Poly2.const(-1))
    cfg = TransitionConfig(k=2, n=3)
    out = mirror_fixed_point(sys, cfg, 1e-3, delta=5e-4)
    assert out["psi"] == approx(0.1, rel=1e-12)
    assert abs(out["gap"]) <= cfg.integ.event_tol


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=0.2, max_value=0.9),
       st.floats(min_value=-3.0, max_value=3.0))
def test_fit_scaling_recovers_synthetic_power_law(slope, log_c):
    eps = np.geomspace(1e-6, 1e-2, 9)
    vals = np.exp(log_c) * eps**slope
    fit = fit_scaling(eps, vals, predicted_slope=slope)
    assert fit.slope == approx(slope, rel=1e-9, abs=1e-12)
    assert fit.intercept == approx(log_c, abs=1e-9)
    assert fit.r2 == approx(1.0, abs=1e-9)
    assert fit.rel_dev == approx(0.0, abs=1e-9)


def test_fit_scaling_needs_enough_points():
    with raises(ConditionViolated):
        fit_scaling([1e-3, 1e-2, 1e-1], [1.0, 2.0, 3.0])
    with raises(ConditionViolated):
        fit_scaling(np.linspace(1e-3, 2e-3, 7), np.ones(7))  # narrow span


def test_scaling_fit_serializes():
    eps = np.geomspace(1e-5, 1e-2, 7)
    fit = fit_scaling(eps, 2.0 * eps**0.5)
    d = fit.as_dict()
    assert set(d) >= {"slope", "intercept", "r2", "n_points"}
    assert d["n_points"] == 7


def _departure_leg(monkeypatch, system, config, eps):
    """``find_x_epsilon`` and the trajectory of its leg, caught by a wrap of
    ``maps.flow_to_section_traj``."""
    from regtang import maps

    inner, legs = maps.flow_to_section_traj, []

    def keep(*args, **kwargs):
        hit, traj = inner(*args, **kwargs)
        legs.append(traj)
        return hit, traj
    monkeypatch.setattr(maps, "flow_to_section_traj", keep)
    x_eps = find_x_epsilon(system, config, eps)
    (traj,) = legs
    return x_eps, traj


def test_every_band_rhs_call_goes_through_the_class_method(monkeypatch):
    # A wrap of BandField.eval on the class sees every call made outside a
    # DOP853 step's stages, which inline the field's kernel and call nothing;
    # the solver's own count, nfev, still counts every evaluation.
    calls = [0]
    inner = BandField.eval

    def counting(self, x, yhat):
        calls[0] += 1
        return inner(self, x, yhat)

    monkeypatch.setattr(BandField, "eval", counting)
    _, traj = _departure_leg(monkeypatch, canonical_system(1), TransitionConfig(1, 2), 1e-3)
    # two calls to start each run, plus one per located crossing (its
    # direction); the leg lands on the kink at yhat = 1 (``integrate._land``),
    # so the first run and the landing run each start and locate its one
    # crossing.  The leg's work is the count of the call-per-stage step.
    assert calls[0] == 2 * 2 + len(traj.events) + 1
    assert sum(sol.nfev for sol in traj.segments) == 3835


def test_band_kernel_receives_python_floats(monkeypatch):
    # a generated kernel takes about 1.7 times as long on np.float64 arguments
    seen = set()
    inner = BandField.eval

    def recording(self, x, yhat):
        seen.add((type(x), type(yhat)))
        return inner(self, x, yhat)

    monkeypatch.setattr(BandField, "eval", recording)
    find_x_epsilon(canonical_system(1), TransitionConfig(1, 2), 1e-3)
    assert seen == {(float, float)}


def test_every_band_rhs_call_is_counted_on_a_radau_leg(monkeypatch):
    # the same routing guard on a stiff leg: the Newton iteration inlines
    # the field's kernel in its stages and the Jacobian kernel calls no
    # eval, so eval sees two calls to start each run, one per accepted step
    # (its end's RHS; the landing run's steps replace the first run's last
    # one), one per located crossing and one for the landing run's; no
    # rejected step of this leg re-evaluates its error.  nfev, njev and nlu
    # are the leg's work as the call-per-stage iteration counts it.
    calls = [0]
    inner = BandField.eval

    def counting(self, x, yhat):
        calls[0] += 1
        return inner(self, x, yhat)

    monkeypatch.setattr(BandField, "eval", counting)
    cfg = TransitionConfig(1, 2, lam=0.999 * lambda_star(1, 2))
    _, traj = _departure_leg(monkeypatch, canonical_system(1), cfg, 1e-5)
    (seg,) = traj.segments
    assert calls[0] == 2 * 2 + len(seg.h) + 1 + len(traj.events) + 1
    assert (seg.nfev, seg.njev, seg.nlu) == (3592, 233, 510)


def test_the_stepper_is_chosen_per_leg_from_the_time_scale_ratio(monkeypatch):
    from regtang import maps
    from regtang.integrate import STIFF_RATIO, _dop853, _stepper

    legs = []
    inner = maps.flow_to_section_traj

    def recording(field, *args, **kwargs):
        hit, traj = inner(field, *args, **kwargs)
        if isinstance(field, BandField):
            legs.append((field.eps, traj.segments[0]))
        return hit, traj

    monkeypatch.setattr(maps, "flow_to_section_traj", recording)
    sys = canonical_system(1)
    tight = TransitionConfig(1, 2, integ=IntegratorConfig(rtol=1e-12, atol=1e-14))
    for eps in (1e-2, 1e-3):
        upper_transition_map(sys, tight, eps, 2.0 * eps)
        lower_transition_map(sys, tight, eps, -0.5 * eps)
        find_x_epsilon(sys, TransitionConfig(1, 2), eps)
    assert len(legs) == 6 and all(seg.njev == seg.nlu == 0 for _, seg in legs)
    legs.clear()
    find_x_epsilon(sys, TransitionConfig(1, 2, lam=0.999 * lambda_star(1, 2)), 1e-5)
    assert legs[0][1].njev > 0

    tf = TransitionConfig(1, 2).tf
    start = np.array([-0.3, 0.5])
    poly = BandField(sys, tf, 1e-8)
    assert abs(poly.jacobian(*start)[1][1]) > STIFF_RATIO * poly.eps
    assert _stepper(poly, start) is not _dop853
    assert _stepper(BandField(sys, tf, 1e-2), start) is _dop853

"""Transition maps across the smoothing layer and their scaling laws."""

import numpy as np
from hypothesis import given, settings, strategies as st
from pytest import approx, raises

from regtang import (
    BandField,
    ConditionViolated,
    DomainError,
    IntegratorConfig,
    TransitionConfig,
    find_x_epsilon,
    fit_scaling,
    lambda_star,
    lower_transition_map,
    mirror_derivative,
    mirror_fixed_point,
    mirror_map,
    predicted_targets,
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


def test_departure_abscissa_regression():
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2)
    x_eps = find_x_epsilon(sys, cfg, 1e-4)
    assert x_eps == approx(0.002427102441838491, rel=1e-9)


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


def test_predicted_targets_fits_negative_beta():
    sys = canonical_system(k=1)
    cfg = TransitionConfig(k=1, n=2)
    out = predicted_targets(sys, cfg, [1e-2, 4e-3, 1e-3, 4e-4])
    assert out["beta_hat"] < 0
    assert out["y_bar_rho"] == approx(0.3**2 / 2, abs=1e-8)


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


def test_every_band_rhs_call_goes_through_the_class_method(monkeypatch):
    # A benchmark tracer counts band work by wrapping BandField.eval on the
    # class; a kernel bound on the instance would slip past it.
    calls = [0]
    inner = BandField.eval

    def counting(self, x, yhat):
        calls[0] += 1
        return inner(self, x, yhat)

    monkeypatch.setattr(BandField, "eval", counting)
    _, traj = find_x_epsilon(canonical_system(1), TransitionConfig(1, 2), 1e-3,
                             keep_trajectory=True)
    # the solver's evaluations, plus one per located crossing (its direction)
    assert calls[0] == sum(sol.nfev for sol in traj.segments) + len(traj.events)

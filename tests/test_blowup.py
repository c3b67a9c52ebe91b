"""Rescaling charts: the planar crossing model and the equatorial equilibrium."""

import warnings

import numpy as np
from pytest import approx, raises

from regtang import (
    ClassMismatch,
    EquatorialChart,
    departure_coefficient,
    departure_prefactor,
    flow,
    phi_family,
    planar_model_crossing,
    scaling_constants,
    sigma_bound,
    sigma_shift,
)
from regtang.blowup import CHART_INTEG
from scipy.special import ai_zeros
from test_phi import upsilon_poly

FD_STEP = 1e-6  # central-difference step of the chart flow's Jacobian


def _chart_rhs(chart):
    """The desingularized flow in the equatorial chart of ``chart``, the
    state (x1, r1, e1): the oracle of its closed forms ``x1_star`` and
    ``lambda1``."""
    k, n, alpha = chart.k, chart.n, chart.alpha
    upsilon = upsilon_poly(chart.tf, n)

    def rhs(t, p):
        x1, r1, e1 = p
        s = r1 ** (2 * k - 1)
        H = x1 ** (2 * k - 1) * alpha + 0.5 * chart.bracket * (1.0 - s * upsilon(-s))
        hj = H / (2 * k - 1)
        return (e1 + n * x1 * hj, -r1 * hj, (1 + 2 * k * (n - 1)) * e1 * hj)
    return rhs


def _equilibrium_residual(chart):
    return float(np.max(np.abs(_chart_rhs(chart)(0.0, (chart.x1_star, 0.0, 0.0)))))


def _eigenvalues(chart):
    """The spectrum of the flow's central-difference Jacobian at the
    equilibrium."""
    rhs, p = _chart_rhs(chart), np.array([chart.x1_star, 0.0, 0.0])
    J = np.empty((3, 3))
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = FD_STEP
        J[:, j] = (np.array(rhs(0.0, p + dp)) - np.array(rhs(0.0, p - dp))) / (2 * FD_STEP)
    return np.sort_complex(np.linalg.eigvals(J))


def _invariant_drift(chart, start, t_span):
    """Max drift of the exact invariant e1 * r1**(1+2k(n-1)) along the
    flow's orbit from ``start``; ``flow`` raises DomainExit if the orbit
    leaves the norm bound within ``t_span``."""
    p = 1 + 2 * chart.k * (chart.n - 1)
    c0 = start[2] * start[1] ** p
    traj = flow(_chart_rhs(chart), start, t_span, CHART_INTEG)
    vals = traj.points[:, 2] * traj.points[:, 1] ** p
    return float(np.max(np.abs(vals - c0)))


def test_crossing_height_matches_airy_oracle():
    # k = 1, n = 2, sigma = 0: the exit ordinate of the planar model equals
    # -a1', the first zero of Ai', for the classical linear-layer problem
    u_star_oracle = -float(ai_zeros(1)[1][0])
    out = planar_model_crossing(1, 2)
    assert out.u_star == approx(u_star_oracle, abs=5e-12)


def test_crossing_is_stable_under_launch_point():
    a = planar_model_crossing(1, 2, u0=-8.0)
    b = planar_model_crossing(1, 2, u0=-14.0)
    assert a.u_star == approx(b.u_star, abs=1e-10)


def test_crossing_quartic_case_runs():
    out = planar_model_crossing(2, 6)
    assert out.u_star > 0


def test_scaling_constants_reference_values():
    c = scaling_constants(1, 2)
    assert c["lambda_star"] == approx(2.0 / 3.0)
    assert c["weight"] == 3
    assert c["phi_bracket"] == approx(1.5)
    assert c["c_x"] == approx((2.0 / 1.5) ** (1.0 / 3.0), rel=1e-12)
    assert c["c_y"] == approx(-c["c_x"] ** 2, rel=1e-12)


def test_departure_prefactor_both_pairs():
    out = departure_prefactor(1, 2)
    assert out["eta"] == approx(1.1213267580217035, rel=1e-10)
    assert out["c_x"] == approx(1.100642416298209, rel=1e-10)
    assert out["u_star"] == approx(1.0187929716474695, rel=1e-10)
    out23 = departure_prefactor(2, 3)
    assert out23["eta"] == approx(1.166602530797235, rel=1e-8)
    assert out23["lambda_star"] == approx(1.0 / 3.0)


def test_sigma_shift_only_in_the_balanced_case():
    # the shift enters the planar model only when n = 2k - 1
    assert sigma_shift(1, 2, theta00=0.5) == approx(0.0, abs=1e-14)
    assert sigma_shift(2, 6, theta00=0.5) == approx(0.0, abs=1e-14)
    assert abs(sigma_shift(2, 3, theta00=0.5)) > 0
    assert sigma_bound(2, 3, theta00=-1.0) == approx(1.0, rel=1e-12)
    assert sigma_bound(1, 2) == approx(0.0, abs=1e-14)


def test_equatorial_chart_reference_equilibria():
    ch = EquatorialChart(1, 2, 1.0)
    assert ch.x1_star == approx(-0.75, rel=1e-12)
    assert ch.lambda1 == approx(-1.5, rel=1e-12)
    ch23 = EquatorialChart(2, 3, 1.0)
    assert ch23.x1_star == approx(-((5.0 / 4.0) ** (1.0 / 3.0)), rel=1e-12)
    assert ch23.lambda1 == approx(-3.75, rel=1e-12)


def test_equatorial_equilibrium_is_consistent():
    for k, n in [(1, 2), (2, 3)]:
        ch = EquatorialChart(k, n, 1.0)
        assert _equilibrium_residual(ch) == approx(0.0, abs=1e-10)
        eigs = _eigenvalues(ch)
        assert min(np.real(eigs)) < 0
        # the analytic contraction rate appears among the eigenvalues
        assert any(abs(e - ch.lambda1) < 1e-6 for e in np.real(eigs))


def test_invariant_drift_is_small():
    # e1 * r1^(1+2k(n-1)) is exactly conserved by the chart equations
    ch = EquatorialChart(1, 2, 1.0)
    assert _invariant_drift(ch, (-0.5, 0.8, 0.3), (0.0, 2.0)) < 1e-8


LOWER_ORDER = "profile has lower contact order at 1 than claimed"


def test_every_bracket_constant_keeps_the_order_rule():
    # a profile whose contact order at 1 is below n: phi_1 has order 2 and
    # phi_2 order 3, though phi^{(n)}(1) != 0 for both pairs below
    for call in (lambda: departure_prefactor(1, 3, tf=phi_family(1)),
                 lambda: departure_prefactor(2, 5, tf=phi_family(2)),
                 lambda: scaling_constants(1, 3, tf=phi_family(1)),
                 lambda: sigma_shift(1, 3, tf=phi_family(1)),
                 lambda: departure_coefficient(1, 3, 1.0, phi_family(1)),
                 lambda: EquatorialChart(1, 3, tf=phi_family(1))):
        with raises(ClassMismatch) as info:
            call()
        assert str(info.value) == LOWER_ORDER
    # a profile flatter than the order: phi_1^{(4)} = 0
    for call in (lambda: EquatorialChart(2, 4, tf=phi_family(1)),
                 lambda: departure_coefficient(2, 4, 1.0, phi_family(1))):
        with raises(ClassMismatch) as info:
            call()
        assert str(info.value) == "phi^{(4)}(1) = 0: profile is flatter than class n=4"


def test_every_scaling_constant_rejects_a_nonpositive_alpha():
    # the shift is 0 past n = 2k - 1 and the bound only reads theta00/alpha,
    # yet both check alpha as scaling_constants does
    from regtang import ConditionViolated

    for call in (lambda: scaling_constants(1, 3, alpha=-1.0),
                 lambda: sigma_shift(1, 3, alpha=-1.0),
                 lambda: sigma_bound(2, 3, alpha=0.0, theta00=0.5),
                 lambda: EquatorialChart(2, 3, alpha=0.0)):
        with raises(ConditionViolated, match="alpha must be positive"):
            call()


def test_crossing_rejects_bad_inputs():
    from regtang import ConditionViolated

    with raises(ConditionViolated):
        planar_model_crossing(0, 2)


def test_crossing_raises_no_exit_without_a_crossing():
    # sigma = 1000 keeps the nullcline v = sqrt(sigma - u) above zero up to
    # u = 1000, far past CHART_U_MAX: the leg's NoCrossing is a NoExit
    from regtang import NoExit

    with raises(NoExit, match="no crossing of v = 0 up to u = 20"):
        planar_model_crossing(1, 2, sigma=1000.0)


def test_invariant_drift_raises_when_the_solver_fails():
    # (2, 3) from this start blows up near t = 1.15 (e1 ~ 7e12); the drift of
    # the part before the failure says nothing about the whole span.  The
    # orbit leaves the integrator's norm bound before the step size underflows
    from regtang import DomainExit

    ch = EquatorialChart(2, 3, 1.0)
    with raises(DomainExit) as info:
        _invariant_drift(ch, (-0.5, 0.8, 0.3), (0.0, 2.0))
    assert 1.1 < info.value.t < 1.2


def _crossing_reference(k, n, sigma, u0=-10.0, u_max=20.0):
    """The planar model's crossing from solve_ivp's own terminal-event path."""
    from scipy.integrate import solve_ivp

    v0 = (sigma - u0 ** (2 * k - 1)) ** (1.0 / n)

    def rhs(t, v):
        return [-((u0 + t) ** (2 * k - 1)) - v[0] ** n + sigma]

    def crossing(t, v):
        return v[0]
    crossing.terminal = True
    crossing.direction = -1.0

    sol = solve_ivp(rhs, (0.0, u_max - u0), [v0], method="DOP853", rtol=1e-12,
                    atol=1e-14, events=[crossing], dense_output=True)
    return u0 + float(sol.t_events[0][0]), float(np.max(sol.y[0]))


# The chart leg's DOP853 step sums in its own order, not scipy's, so u* meets
# the solve_ivp reference at rounding level: within 1.0e-14 relative on these
# four cases (8.9e-15 at (2,3), 1.0e-14 at (3,5) from u0 = -8); v_max, the
# start height on these legs, is the reference's to the bit.
U_STAR_REL = 2e-14


def test_crossing_agrees_with_the_solve_ivp_reference():
    cases = [(1, 2, 0.0), (2, 3, sigma_shift(2, 3, theta00=0.5)), (2, 6, 0.0)]
    assert cases[1][2] != 0.0
    for k, n, sigma in cases:
        out = planar_model_crossing(k, n, sigma=sigma)
        u_star, v_max = _crossing_reference(k, n, sigma)
        assert out.u_star == approx(u_star, rel=U_STAR_REL, abs=0.0), (k, n)
        assert out.v_max == v_max, (k, n)


def test_crossing_leaks_no_overflow_warning():
    # (3, 5) from u0 = -8: rejected trial steps take v**5 past the float
    # range; the caller sees no warning and the solve_ivp reference's numbers
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = planar_model_crossing(3, 5, u0=-8.0)
    with np.errstate(over="ignore", invalid="ignore"):
        u_star, v_max = _crossing_reference(3, 5, 0.0, u0=-8.0)
    assert out.u_star == approx(u_star, rel=U_STAR_REL, abs=0.0)
    assert out.v_max == v_max

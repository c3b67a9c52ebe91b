"""Prebuilt systems and their validation."""

import numpy as np
from hypothesis import given, settings, strategies as st
from pytest import approx, raises

from regtang import BadValuation, ConditionViolated, Poly1, Poly2, RegtangError
from regtang.scenarios import (
    SCENARIOS,
    boundary_cycle_system,
    build_scenario,
    canonical_system,
    oval_point,
    oval_polyline,
    time_reversed,
)


def test_canonical_field_components():
    sys = canonical_system(k=1, alpha=2.0)
    assert np.allclose(sys.x_plus.eval(0.5, 0.0), [1.0, 1.0])  # f = 2x
    assert np.allclose(sys.x_minus.eval(3.0, -1.0), [0.0, 1.0])
    assert sys.params["k"] == 1
    assert sys.params["alpha"] == 2.0


def test_canonical_rejects_bad_parameters():
    with raises(ConditionViolated):
        canonical_system(k=0)
    with raises(ConditionViolated):
        canonical_system(k=1, alpha=-1.0)
    with raises(BadValuation):
        # g must vanish to order > 2k - 1 at the contact
        canonical_system(k=2, g=Poly1.monomial(2, 1))


def test_canonical_accepts_higher_order_g():
    sys = canonical_system(k=1, g=Poly1.monomial(3, 1))
    # f = x + x^3
    assert sys.x_plus.eval(0.5, 0.0)[1] == approx(0.5 + 0.125)


def test_theta_term_multiplies_y():
    sys = canonical_system(k=1, theta=Poly2.const(-1))
    assert sys.x_plus.eval(0.2, 0.0)[1] == approx(0.2)
    assert sys.x_plus.eval(0.2, 0.1)[1] == approx(0.2 - 0.1)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=0.0, max_value=2 * np.pi))
def test_oval_stays_on_the_invariant_level(phi):
    x, y = oval_point(2, phi)
    assert 1 - x**4 - (y - 1) ** 4 == approx(0.0, abs=1e-12)
    # and the upper field is tangent to the level set there
    sys = boundary_cycle_system(k=2)
    vx, vy = sys.x_plus.eval(x, y)
    assert -4 * x**3 * vx - 4 * (y - 1) ** 3 * vy == approx(0.0, abs=1e-10)


def test_oval_polyline_is_closed_and_dense():
    pts = oval_polyline(2, n_points=500)
    assert pts.shape == (500, 2)
    assert np.allclose(pts[0], pts[-1], atol=1e-6)  # closes up to root solves
    assert np.min(pts[:, 1]) == approx(0.0, abs=1e-12)  # touches the contact


def test_contact_of_the_oval_example():
    from regtang import contact_classification

    sys = boundary_cycle_system(k=2)
    info = contact_classification(sys.x_plus, sys.h, (0.0, 0.0), max_order=6)
    assert info.multiplicity == 4
    assert info.visible is True


def test_boundary_cycle_needs_k_at_least_2():
    with raises(ConditionViolated):
        boundary_cycle_system(k=1)


def test_time_reversed_flips_both_fields():
    sys = canonical_system(k=1)
    rev = time_reversed(sys)
    for x, y in [(0.3, 0.2), (-0.1, -0.4)]:
        assert np.allclose(np.asarray(rev.x_plus.eval(x, y)),
                           -np.asarray(sys.x_plus.eval(x, y)))
        assert np.allclose(np.asarray(rev.x_minus.eval(x, y)),
                           -np.asarray(sys.x_minus.eval(x, y)))
    assert rev.params["kind"].endswith("-reversed")


def test_time_reversed_twice_gives_back_the_system():
    from regtang import RegularizedField, phi_family

    tf = phi_family(2)
    theta = Poly2.const(1) + Poly2.x() * Poly2.y()
    for sys in (canonical_system(k=2, g=Poly1.monomial(5, 3), theta=theta),
                boundary_cycle_system(k=2)):
        back = time_reversed(time_reversed(sys))
        assert back.x_plus.poly_form == sys.x_plus.poly_form
        assert back.x_minus.poly_form == sys.x_minus.poly_form
        assert back.h == sys.h
        pairs = [(back.x_plus.eval, sys.x_plus.eval),
                 (back.x_minus.eval, sys.x_minus.eval),
                 (back.x_plus.divergence(), sys.x_plus.divergence()),
                 (RegularizedField(back, tf, 1e-2).eval,
                  RegularizedField(sys, tf, 1e-2).eval),
                 (RegularizedField(back, tf, 1e-2).divergence(),
                  RegularizedField(sys, tf, 1e-2).divergence())]
        for x, y in [(0.3, 0.2), (-0.1, -0.004), (0.7, 0.006), (-0.45, 1.3)]:
            for got, want in pairs:
                assert np.array_equal(got(x, y), want(x, y))


def test_build_scenario_dispatch():
    sys = build_scenario("canonical", k=1)
    assert sys.params["kind"] == "canonical"
    cyc = build_scenario("boundary-cycle", k=2)
    assert cyc.params["kind"] == "boundary-cycle"
    with raises(KeyError):
        build_scenario("no-such-example")
    assert "canonical" in SCENARIOS and "boundary-cycle" in SCENARIOS


def test_build_scenario_rejects_a_key_the_builder_does_not_take():
    with raises(RegtangError, match="alpha"):
        build_scenario("boundary-cycle", alpha=2.0)

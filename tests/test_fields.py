"""Planar fields, switching-line bookkeeping, and contact classification."""

import numpy as np
from hypothesis import given, settings, strategies as st
from pytest import approx

from regtang import (
    FilippovSystem,
    Poly2,
    classify_sigma_point,
    contact_classification,
    field_from_polys,
    lie_derivative,
    sliding_field,
)
from regtang.scenarios import canonical_system


def test_planar_field_eval_and_divergence():
    # X = (1, x^2 - y): div = -1 everywhere
    f = field_from_polys(Poly2.const(1), Poly2.x().pow(2) - Poly2.y())
    assert np.allclose(f.eval(2.0, 1.0), [1.0, 3.0])
    div = f.divergence()
    assert div(0.3, -0.7) == approx(-1.0)


def test_an_equal_field_shares_its_kernel_and_builds_no_source(monkeypatch):
    # the kernel is memoized on the polynomial form: an equal field built
    # anew gets the same function without generating its statements again
    f = field_from_polys(Poly2.const(1), Poly2.x().pow(2) - Poly2.y())
    from regtang import fields

    monkeypatch.setattr(fields, "float_parts", None)  # a build would fail
    twin = field_from_polys(Poly2.const(1), Poly2.x() * Poly2.x() - Poly2.y())
    assert twin.eval is f.eval


def test_lie_derivative_on_vertical_h_counts_orders():
    # With h = y and X+ = (1, x^3), L h = x^3, L^2 h = 3x^2, ...: at the
    # origin the first nonvanishing Lie derivative has order 4.
    sys = canonical_system(k=2)
    h = sys.h
    for order, val in [(1, 0.0), (2, 0.0), (3, 0.0)]:
        assert lie_derivative(sys.x_plus, h, order, (0.0, 0.0)) == approx(val, abs=1e-6)
    assert lie_derivative(sys.x_plus, h, 4, (0.0, 0.0)) == approx(6.0, rel=1e-4)


def test_contact_classification_canonical_plus_side():
    for k in (1, 2):
        sys = canonical_system(k=k)
        info = contact_classification(sys.x_plus, sys.h, (0.0, 0.0), max_order=2 * k + 2)
        assert info.multiplicity == 2 * k
        assert info.visible is True


def test_contact_classification_minus_side_is_transversal():
    sys = canonical_system(k=1)
    info = contact_classification(sys.x_minus, sys.h, (0.0, 0.0), max_order=4,
                                  minus_side=True)
    assert info.multiplicity == 1
    assert info.visible is None


def test_invisible_contact_flips_sign():
    # X+ = (1, -x): quadratic contact curving back into y < 0
    f = field_from_polys(Poly2.const(1), -Poly2.x())
    h = canonical_system(k=1).h
    info = contact_classification(f, h, (0.0, 0.0), max_order=4)
    assert info.multiplicity == 2
    assert info.visible is False


def test_sigma_point_classification_four_cases():
    sys = canonical_system(k=1)
    # X+ = (1, x + ...): below/above the contact the vertical components are
    # (x, 1): crossing for x > 0, sliding impossible here (both positive);
    # the lower field always pushes up, so x < 0 gives L+ < 0 < L-: sliding.
    assert classify_sigma_point(sys, (0.5, 0.0)) == "crossing"
    assert classify_sigma_point(sys, (-0.5, 0.0)) == "sliding"
    assert classify_sigma_point(sys, (0.0, 0.0)) == "tangency"
    rev = field_from_polys(Poly2.const(0), Poly2.const(-1))
    esc = FilippovSystem(sys.x_plus, rev, sys.h, dict(sys.params))
    assert classify_sigma_point(esc, (0.5, 0.0)) == "escaping"


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=-0.45, max_value=-0.05))
def test_sliding_field_is_convex_combination(x):
    sys = canonical_system(k=1)
    fs = sliding_field(sys, (x, 0.0))
    a = float(sys.x_plus.eval(x, 0.0)[1])
    b = float(sys.x_minus.eval(x, 0.0)[1])
    lam = b / (b - a)
    expected = lam * np.asarray(sys.x_plus.eval(x, 0.0)) + (1 - lam) * np.asarray(sys.x_minus.eval(x, 0.0))
    assert np.allclose(fs, expected, atol=1e-12)
    # sliding motion stays on the line
    assert fs[1] == approx(0.0, abs=1e-12)


def test_switching_function_vertical_helper():
    # h is the exact polynomial y, with gradient (0, 1)
    sys = canonical_system(k=1)
    assert sys.h == Poly2.y()
    assert sys.h(0.7, 0.3) == 0.3
    assert not sys.h.diff_x().terms and sys.h.diff_y() == Poly2.const(1)

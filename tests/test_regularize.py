"""Smoothed fields, the layer system, and the slow manifold."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from pytest import approx, raises

from regtang import (
    BandField,
    ConditionViolated,
    NonPositiveQuantity,
    RegularizedField,
    SectionSpec,
    SlowManifold,
    TransientNotDecayed,
    departure_coefficient,
    flow_to_section_traj,
    phi_family,
    sandwich_exponent,
    slow_manifold_sandwich_check,
)
from regtang.maps import fit_line
from regtang.regularize import DivergenceField
from regtang.scenarios import boundary_cycle_system, canonical_system
from test_phi import Phi_prime

TF1 = phi_family(1)


def test_band_field_rejects_a_non_finite_eps():
    for eps in (float("nan"), float("inf")):
        with raises(NonPositiveQuantity):
            BandField(canonical_system(k=1), TF1, eps)


def test_smoothed_field_matches_pieces_outside_band():
    sys = canonical_system(k=1)
    eps = 1e-2
    zf = RegularizedField(sys, TF1, eps)
    for x in (-0.4, 0.1, 0.7):
        assert np.allclose(zf.eval(x, eps), sys.x_plus.eval(x, eps))
        assert np.allclose(zf.eval(x, 2.5 * eps), sys.x_plus.eval(x, 2.5 * eps))
        assert np.allclose(zf.eval(x, -eps), sys.x_minus.eval(x, -eps))
        assert np.allclose(zf.eval(x, -3 * eps), sys.x_minus.eval(x, -3 * eps))


def test_smoothed_field_is_continuous_at_band_edges():
    sys = canonical_system(k=2)
    eps = 1e-3
    zf = RegularizedField(sys, phi_family(5), eps)
    for x in (-0.2, 0.0, 0.3):
        for edge in (eps, -eps):
            above = np.asarray(zf.eval(x, edge * (1 + 1e-13)))
            below = np.asarray(zf.eval(x, edge * (1 - 1e-13)))
            scale = max(1.0, np.max(np.abs(above)))
            assert np.max(np.abs(above - below)) / scale < 1e-12


def test_midline_is_the_even_average():
    sys = canonical_system(k=1)
    eps = 1e-2
    zf = RegularizedField(sys, TF1, eps)
    v = np.asarray(zf.eval(0.0, 0.0))
    # phi(0) = 0: plain average of (1, 0) and (0, 1)
    assert v == approx(np.array([0.5, 0.5]), abs=1e-15)


def test_divergence_matches_finite_differences():
    sys = canonical_system(k=1)
    eps = 1e-2
    zf = RegularizedField(sys, TF1, eps)
    div = zf.divergence()
    h = 1e-6
    for x, y in [(0.1, 0.004), (-0.2, -0.003), (0.3, 0.0)]:
        fx = (zf.eval(x + h, y)[0] - zf.eval(x - h, y)[0]) / (2 * h)
        fy = (zf.eval(x, y + h)[1] - zf.eval(x, y - h)[1]) / (2 * h)
        assert div(x, y) == approx(fx + fy, rel=1e-5, abs=1e-6)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=-0.4, max_value=0.4),
       st.floats(min_value=-0.9, max_value=0.9))
def test_band_field_consistency_with_slow_time(x, yhat):
    # layer field in fast time at (x, yhat) is (eps*X1, X2) of the smoothed
    # field evaluated at (x, eps*yhat)
    sys = canonical_system(k=1)
    eps = 1e-3
    zf = RegularizedField(sys, TF1, eps)
    bf = BandField(sys, TF1, eps)
    slow = np.asarray(zf.eval(x, eps * yhat))
    fast = np.asarray(bf.eval(x, yhat))
    assert fast[0] == approx(eps * slow[0], rel=1e-10, abs=1e-15)
    assert fast[1] == approx(slow[1], rel=1e-10, abs=1e-15)


def test_non_vertical_switching_is_rejected():
    sys = canonical_system(k=1)
    from regtang import FilippovSystem, Poly2

    bad = FilippovSystem(sys.x_plus, sys.x_minus, Poly2.y() - Poly2.x(),
                         dict(sys.params))
    with raises(ConditionViolated):
        BandField(bad, TF1, 1e-3)


def test_slow_manifold_reference_values():
    sys = canonical_system(k=1)
    sm = SlowManifold(sys, TF1)
    # phi(m0(-1/3)) = (1 + f)/(1 - f) with f = -1/3: phi^{-1}(1/2)
    assert TF1.phi(sm.m0(-1.0 / 3.0)) == approx(0.5, abs=1e-12)
    assert sm.m0(-1.0 / 3.0) == approx(0.34729635533386044, rel=1e-9)
    assert sm.m0(-0.3) == approx(0.3768079554418368, rel=1e-11)
    assert sm.m1(-0.3) == approx(-0.8454998388594656, rel=1e-9)


def test_slow_manifold_monotone_and_bounded():
    sys = canonical_system(k=1)
    sm = SlowManifold(sys, TF1)
    xs = np.linspace(-0.9, -1e-4, 200)
    vals = np.array([sm.m0(x) for x in xs])
    assert np.all(vals > -1.0) and np.all(vals < 1.0)
    assert np.all(np.diff(vals) > 0)  # rises toward +1 as the contact nears
    m1s = np.array([sm.m1(x) for x in xs])
    assert np.all(m1s < 0)


def test_first_order_expansion_uses_m1():
    sys = canonical_system(k=1)
    sm = SlowManifold(sys, TF1)
    eps = 1e-4
    x = -0.25
    assert sm.m(x, eps) == approx(sm.m0(x) + eps * sm.m1(x), abs=1e-15)


@pytest.mark.parametrize("k, m, eps_values", [
    (1, 1, (1e-3, 1e-4, 1e-5)),
    (1, 3, (1e-3, 1e-4, 1e-5)),
    (2, 1, (1e-4, 3e-5, 1e-5)),
])
def test_slow_manifold_first_order_error_falls_as_eps_squared(k, m, eps_values):
    # Fenichel: the band orbit from (-0.3, m0 + eps m1) stays within O(eps^2)
    # of m0 + eps m1, so at x = -0.1 the error over eps^2 keeps within a
    # factor 1.5 over each range (79.9, 83.8, 84.6 for (1, phi_1); 61.8,
    # 65.0, 66.5 for (1, phi_3); 2.97e3, 3.15e3, 3.20e3 for (2, phi_1))
    system, tf = canonical_system(k), phi_family(m)
    sm = SlowManifold(system, tf)
    end = SectionSpec("vertical", -0.1)
    errors = []
    for eps in eps_values:
        hit, _ = flow_to_section_traj(BandField(system, tf, eps), (-0.3, sm.m(-0.3, eps)), end)
        errors.append(abs(float(hit.point[1]) - sm.m(-0.1, eps)))
    ratios = [e / eps ** 2 for e, eps in zip(errors, eps_values)]
    slope = fit_line([math.log(eps) for eps in eps_values], [math.log(e) for e in errors])[0]
    print(f"(k={k}, phi_{m}): error/eps^2 = {', '.join(f'{r:.4g}' for r in ratios)}; "
          f"fitted slope {slope:.4f}")
    assert max(ratios) <= 1.5 * min(ratios)


def test_departure_coefficient_closed_form():
    # k = 1, n = 2, alpha = 1: (2*alpha*n!/|phi^(n)(1)|)^(1/n) = sqrt(4/3)
    c = departure_coefficient(1, 2, 1.0, TF1)
    assert c == approx(np.sqrt(4.0 / 3.0), rel=1e-12)


def test_sandwich_exponent_values():
    assert sandwich_exponent(1, 2) == approx(1.0)
    assert sandwich_exponent(2, 6) == approx((4 * 4 + 2) / 6)


def test_sandwich_holds_with_generous_constant():
    sys = canonical_system(k=1)
    band = BandField(sys, TF1, 1e-4)
    rep = slow_manifold_sandwich_check(band, 1, 2, L=0.3, lam=0.5, K=5.0,
                                       grid_points=25)
    assert rep.all_hold
    assert rep.upper_all_hold
    assert rep.K_min < 5.0


def test_sandwich_minimal_constant_regression():
    sys = canonical_system(k=1)
    band = BandField(sys, TF1, 1e-4)
    rep = slow_manifold_sandwich_check(band, 1, 2, L=0.3, lam=0.5, K=0.0,
                                       grid_points=50)
    assert rep.K_min == approx(0.3479282303137361, rel=1e-6)
    assert not rep.all_hold  # K = 0 cannot work: the proxy sits below m0
    assert rep.upper_all_hold


def test_sandwich_transient_guard():
    sys = canonical_system(k=1)
    band = BandField(sys, TF1, 1e-2)
    # 5 eps |log eps| = 0.23 eats essentially the whole window [-0.3, -eps^lam]
    with raises(TransientNotDecayed):
        slow_manifold_sandwich_check(band, 1, 2, L=0.3, lam=0.5, K=1.0)


def test_sandwich_empty_grid_rejected():
    sys = canonical_system(k=1)
    band = BandField(sys, TF1, 1e-4)
    with raises(ConditionViolated):
        slow_manifold_sandwich_check(band, 1, 2, L=0.05, lam=1e-6, K=1.0)


# -- the fused right-hand-side kernels -------------------------------------------

def _composed(system, tf, x, y, s):
    """c*X+ + (1-c)*X- from the parts, and the sum of the two terms' sizes."""
    c = 0.5 * (1.0 + tf.Phi(s))
    vp = np.asarray(system.x_plus.eval(x, y), dtype=float)
    vm = np.asarray(system.x_minus.eval(x, y), dtype=float)
    return c * vp + (1.0 - c) * vm, np.abs(c * vp) + np.abs((1.0 - c) * vm)


def _check_kernels(system, tf, eps, x, s):
    band = BandField(system, tf, eps)
    reg = RegularizedField(system, tf, eps)
    scale = np.array([eps, 1.0])
    y = eps * s
    got = np.asarray(band.eval(x, s))
    want, size = _composed(system, tf, x, y, s)
    assert np.all(np.abs(got - scale * want) <= 1e-14 * scale * size)
    if abs(s) >= 1.0:
        side = system.x_plus if s > 0 else system.x_minus
        assert np.array_equal(got, scale * np.asarray(side.eval(x, y)))
    s_reg = y / eps
    got = np.asarray(reg.eval(x, y))
    want, size = _composed(system, tf, x, y, s_reg)
    assert np.all(np.abs(got - want) <= 1e-14 * size)
    if abs(s_reg) >= 1.0:
        side = system.x_plus if s_reg > 0 else system.x_minus
        assert np.array_equal(got, np.asarray(side.eval(x, y)))


KERNEL_CASES = [(canonical_system(k=1), TF1, 1e-3),
                (boundary_cycle_system(k=2), phi_family(5), 1e-2)]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(KERNEL_CASES),
       st.floats(min_value=-1.2, max_value=1.2),
       st.floats(min_value=-3.0, max_value=3.0))
def test_fused_kernels_equal_the_composition(case, x, s):
    _check_kernels(*case, x, s)


def test_fused_kernels_on_a_time_reversed_system():
    from regtang import FilippovSystem, Poly2, field_from_polys
    from regtang.scenarios import time_reversed

    sys = canonical_system(k=1)
    plus = field_from_polys(Poly2.const(1) + Poly2.y(),
                            Poly2.x() - Poly2.y().scale(Fraction(1, 2)))
    reversed_sys = time_reversed(FilippovSystem(plus, sys.x_minus, Poly2.y()))
    assert reversed_sys.x_plus.poly_form == (-plus.poly_form[0], -plus.poly_form[1])
    for x in (-0.7, 0.0, 0.4):
        for s in (-2.0, -1.0, -0.3, 0.0, 0.6, 1.0, 1.7):
            _check_kernels(reversed_sys, TF1, 1e-3, x, s)
    assert np.array_equal(BandField(reversed_sys, TF1, 1e-3).eval(0.4, 2.0),
                          [-1e-3 * 1.002, -(0.4 - 0.001)])


def test_every_eval_returns_a_tuple_of_python_floats():
    # the right-hand-side contract: zone, regularized and band fields hand the
    # steppers a tuple of floats, inside the band, outside it and on its edges
    from regtang.scenarios import time_reversed

    eps = 1e-2
    for sys in (canonical_system(k=1), boundary_cycle_system(k=2),
                time_reversed(canonical_system(k=2))):
        reg, band = RegularizedField(sys, TF1, eps), BandField(sys, TF1, eps)
        for x in (-0.4, 0.0, 0.3):
            for s in (-2.0, -1.0, -0.5, 0.0, 0.7, 1.0, 3.0):
                y = eps * s
                for v in (sys.x_plus.eval(x, y), sys.x_minus.eval(x, y),
                          reg.eval(x, y), band.eval(x, s)):
                    assert type(v) is tuple and len(v) == 2
                    assert all(type(c) is float for c in v)


def test_regularized_kernel_with_tilted_switching_function():
    from regtang import FilippovSystem, Poly2

    sys = boundary_cycle_system(k=2)
    tf = phi_family(5)
    tilted = Poly2.y() - Poly2.x().scale(Fraction(1, 2))
    tilted_sys = FilippovSystem(sys.x_plus, sys.x_minus, tilted)
    eps = 1e-2
    reg = RegularizedField(tilted_sys, tf, eps)
    for x in (-0.3, 0.0, 0.2):
        for y in (-0.2, 0.5 * x - 0.004, 0.5 * x, 0.5 * x + 0.007, 0.3):
            s = tilted(x, y) / eps
            got = np.asarray(reg.eval(x, y))
            want, size = _composed(tilted_sys, tf, x, y, s)
            assert np.all(np.abs(got - want) <= 1e-14 * size)
            if abs(s) >= 1.0:
                side = sys.x_plus if s > 0 else sys.x_minus
                assert np.array_equal(got, side.eval(x, y))


def _composed_divergence(system, tf, eps, jump, x, y):
    """div Z_eps from its parts, in the order the kernel runs them:
    c div X+ + (1 - c) div X- + Phi'(s)/(2 eps) * jump(X+, X-), s = h/eps."""
    s = system.h(x, y) / eps
    c = 0.5 * (1.0 + tf.Phi(s))
    (p1, p2), (m1, m2) = system.x_plus.poly_form, system.x_minus.poly_form
    div_p = (p1.diff_x() + p2.diff_y())(x, y)
    div_m = (m1.diff_x() + m2.diff_y())(x, y)
    base = c * div_p + (1.0 - c) * div_m
    dphi = Phi_prime(tf, s)
    if dphi != 0.0:
        vp, vm = system.x_plus.eval(x, y), system.x_minus.eval(x, y)
        base += dphi / (2.0 * eps) * jump(float(vp[0]) - float(vm[0]),
                                          float(vp[1]) - float(vm[1]))
    return base


def test_divergence_kernel_equals_the_composed_formula_bit_for_bit():
    # h = y: the jump term is h_y (X2+ - X2-) = X2+ - X2-; the tilted
    # h = y - x/2 adds h_x (X1+ - X1-) = -(X1+ - X1-)/2.  The divergence
    # field's kernel gives eval's and this kernel's numbers at once.
    from regtang import FilippovSystem, Poly2

    tilted = Poly2.y() - Poly2.x().scale(Fraction(1, 2))
    cases = []
    for sys, tf, eps in ((boundary_cycle_system(k=2), phi_family(5), 1e-2),
                         (canonical_system(k=1), TF1, 1e-3)):
        cases.append((sys, tf, eps, lambda d1, d2: d2, 0.0))
        cases.append((FilippovSystem(sys.x_plus, sys.x_minus, tilted), tf, eps,
                      lambda d1, d2: -0.5 * d1 + d2, 0.5))
    for sys, tf, eps, jump, slope in cases:
        reg = RegularizedField(sys, tf, eps)
        aug = DivergenceField(sys, tf, eps)
        div = reg.divergence()
        inside = 0
        for x in (-0.7, -0.3, 0.0, 0.2, 0.55):
            # outside the band, on its edges s = +-1, and inside it
            for s in (-3.0, -1.0, -0.999, -0.4, 0.0, 0.3, 0.95, 1.0, 1.5):
                y = slope * x + eps * s
                got = div(x, y)
                want = _composed_divergence(sys, tf, eps, jump, x, y)
                assert type(got) is float
                assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
                assert list(map(float.hex, aug.eval(x, y, 0.0))) == list(
                    map(float.hex, (*reg.eval(x, y), got)))
                inside += abs(sys.h(x, y) / eps) < 1.0
        assert inside >= 20


# --------------------------------------------------------------------------
# the exact band Jacobian and the kernel cache
# --------------------------------------------------------------------------

def _central_jacobian(band, x, s, h=1e-6):
    dx = (np.array(band.eval(x + h, s)) - np.array(band.eval(x - h, s))) / (2 * h)
    ds = (np.array(band.eval(x, s + h)) - np.array(band.eval(x, s - h))) / (2 * h)
    return np.column_stack([dx, ds])


def test_band_jacobian_matches_central_differences():
    # inside |yhat| < 1 every entry moves; outside, Phi' = 0 and only the
    # zone fields' own derivatives are left (central differences straddle
    # the kink at +-1, so those points are avoided)
    for k, m in ((1, 1), (2, 5)):
        for eps in (1e-2, 1e-3):
            band = BandField(canonical_system(k=k), phi_family(m), eps)
            for x in (-0.3, -0.05, 0.0, 0.2):
                for s in (-2.5, -1.2, -0.7, 0.0, 0.4, 0.95, 1.3, 3.0):
                    got = np.array(band.jacobian(x, s))
                    want = _central_jacobian(band, x, s)
                    assert got.shape == (2, 2)
                    assert np.allclose(got, want, rtol=1e-7, atol=1e-9)


def test_band_jacobian_is_exact_off_the_band():
    sys = canonical_system(k=1)
    eps = 1e-3
    band = BandField(sys, TF1, eps)
    # above the band only X+ acts: d/dx of eps*X1+ and X2+, d/dyhat = eps*d/dy
    (p1, p2) = sys.x_plus.poly_form
    x, s = 0.2, 1.5
    y = eps * s
    want = [[eps * p1.diff_x()(x, y), eps * eps * p1.diff_y()(x, y)],
            [p2.diff_x()(x, y), eps * p2.diff_y()(x, y)]]
    assert np.allclose(band.jacobian(x, s), want, rtol=1e-15, atol=0.0)


def test_equal_fields_share_their_compiled_kernels():
    # eps is the kernels' first argument, so every eps shares them too
    a = BandField(canonical_system(1), phi_family(1), 1e-3)
    b = BandField(canonical_system(1), phi_family(1), 1e-3)
    assert a._rhs is b._rhs
    assert a._jac is b._jac
    assert BandField(canonical_system(1), phi_family(1), 2e-3)._rhs is a._rhs
    assert BandField(canonical_system(1), phi_family(2), 1e-3)._rhs is not a._rhs
    r = RegularizedField(canonical_system(1), phi_family(1), 1e-3)
    assert RegularizedField(canonical_system(1), phi_family(1), 1e-3)._rhs is r._rhs
    assert RegularizedField(canonical_system(1), phi_family(1), 2e-3)._rhs is r._rhs


def test_one_kernel_per_field_family_at_every_eps(monkeypatch):
    # 12 eps of each field, each run once on DOP853 (which inlines its
    # kernel) and its divergence taken: one mix kernel, one Jacobian, one
    # augmented kernel (which gives the divergence) and one fused step per
    # family, nothing per eps
    from collections import OrderedDict

    from regtang import polys
    from regtang.integrate import flow

    sys = canonical_system(1)
    tf = phi_family(2)
    monkeypatch.setattr(polys, "_KERNELS", OrderedDict())
    for eps in np.geomspace(1e-4, 1e-1, 12):
        band = BandField(sys, tf, eps)
        flow(band, (-0.3, 0.5), (0.0, 0.1))
        reg = RegularizedField(sys, tf, eps)
        flow(reg, (-0.3, 0.5 * eps), (0.0, 0.1))
        reg.divergence()(-0.3, 0.5 * eps)
    assert sum(key[0] == "dop853" for key in polys._KERNELS) == 2
    assert len(polys._KERNELS) == 6


def test_an_equal_field_looks_its_kernels_up_before_generating_them(monkeypatch):
    # each kernel builder is memoized on what it is generated from: a second
    # equal BandField, RegularizedField or augmented kernel, from new but
    # equal polynomials and at another eps, generates no statement; a system
    # that differs only in h, only in one zone field or only in phi gets
    # kernels of its own
    from collections import OrderedDict

    from regtang import Poly2, polys, regularize
    from regtang.fields import FilippovSystem, PlanarField

    monkeypatch.setattr(polys, "_KERNELS", OrderedDict())
    calls = []
    body = regularize._kernel_body
    monkeypatch.setattr(regularize, "_kernel_body",
                        lambda *args, **kwargs: calls.append(args) or body(*args, **kwargs))

    def fields(system, tf, eps):
        band = BandField(system, tf, eps) if system.h == Poly2.y() else None
        reg = RegularizedField(system, tf, eps)
        kernels = [reg._rhs, DivergenceField(system, tf, eps).kernel[0]]
        return kernels + ([] if band is None else [band._rhs, band._jac])

    first = fields(canonical_system(1), TF1, 1e-3)
    assert len(calls) == 4 == len(set(first))
    del calls[:]
    assert fields(canonical_system(1), phi_family(1), 2e-3) == first
    assert calls == []
    base = canonical_system(1)
    p1, p2 = base.x_minus.poly_form
    others = [
        FilippovSystem(base.x_plus, base.x_minus, Poly2.y() - Poly2.x().scale(Fraction(1, 10))),
        FilippovSystem(base.x_plus, PlanarField((p1 + Poly2.const(1), p2)), base.h),
    ]
    for system, tf in [(others[0], TF1), (others[1], TF1), (base, phi_family(2))]:
        del calls[:]
        own = fields(system, tf, 1e-3)
        assert len(calls) == len(own) and not set(own) & set(first)


# --------------------------------------------------------------------------
# the statement-form kernel generator, kept as the reference of the lean one
# --------------------------------------------------------------------------

def _horner_lines(p, var, target):
    """One statement per coefficient of ``p``, zero coefficients skipped."""
    cs = [float(c) for c in reversed(p.coeffs)]
    if not cs:
        return [f"{target} = 0.0"]
    lines = [f"{target} = {cs[0]!r}"]
    for c in cs[1:]:
        lines.append(f"{target} = {target}*{var}" + (f" + {c!r}" if c else ""))
    return lines


def _float_lines(p, target):
    """Statements assigning the float value of the Poly2 ``p`` to ``target``,
    one term ``c*(x**i*y**j)`` after another in sorted order, summed in
    chunks of 64 terms."""
    from regtang.polys import _power

    terms = []
    for (i, j), c in sorted(p.terms.items()):
        mono = "*".join(_power(v, e) for v, e in (("x", i), ("y", j)) if e)
        cf = float(c)
        if not mono:
            terms.append(repr(cf))
        elif cf in (1.0, -1.0):
            terms.append(("" if cf > 0 else "-") + mono)
        else:
            terms.append(f"({cf!r})*" + (f"({mono})" if "*" in mono else mono))
    if not terms:
        return [f"{target} = 0.0"]
    return [f"{target} = " + " + ".join(([target] if k else []) + terms[k:k + 64])
            for k in range(0, len(terms), 64)]


def _ref_kernel_body(system, tf, band, named, slope=False):
    from regtang.polys import power_lines

    polys = [p for _, p in named]
    if band:
        body = ["y = eps*s"] + power_lines(polys)
    else:
        body = power_lines(polys + [system.h]) + _float_lines(system.h, "hv")
        body.append("s = hv/eps")
    zero = ["    D = 0.0"] if slope else []
    body += ["if s >= 1.0:", "    c = 1.0", *zero,
             "elif s <= -1.0:", "    c = 0.0", *zero, "else:"]
    body += ["    " + line for line in _horner_lines(tf.phi_poly, "s", "P")]
    if slope:
        body += ["    " + line for line in _horner_lines(tf.derivs[1], "s", "D")]
    body += ["    c = 0.5*(1.0 + P)", "d = 1.0 - c"]
    for name, p in named:
        body += _float_lines(p, name)
    return body


def _ref_zone_polys(system, index=(1, 2)):
    return [(f"{tag}{i}", f.poly_form[i - 1])
            for tag, f in (("p", system.x_plus), ("m", system.x_minus)) for i in index]


def _ref_divergence_body(system, tf, named):
    from regtang import Poly2
    from regtang.polys import power_lines

    divs = [(f"d{tag}", f.poly_form[0].diff_x() + f.poly_form[1].diff_y())
            for tag, f in (("p", system.x_plus), ("m", system.x_minus))]
    jump, terms = [], []
    for i, g in enumerate((system.h.diff_x(), system.h.diff_y()), 1):
        if not g.terms:
            continue
        jump += [part for part in _ref_zone_polys(system, (i,)) if part not in named]
        if g == Poly2.const(1):
            terms.append(f"(p{i} - m{i})")
        else:
            jump.append((f"h{i}", g))
            terms.append(f"h{i}*(p{i} - m{i})")
    body = _ref_kernel_body(system, tf, False, named + divs, slope=True)
    inner = [line for line in power_lines(p for _, p in jump) if line not in body]
    for name, p in jump:
        inner += _float_lines(p, name)
    return body + ["div = c*dp + d*dm", "if D != 0.0:", *("    " + line for line in inner),
                   f"    div += D/(2.0*eps)*({' + '.join(terms) or '0.0'})"]


def _ref_sources(system, tf):
    """The ``(args, body)`` of each kernel of ``system`` and ``tf`` as the
    statement-form generator wrote it."""
    from regtang.polys import power_lines

    jac = [(name + suffix, q) for name, p in _ref_zone_polys(system)
           for suffix, q in (("", p), ("x", p.diff_x()), ("y", p.diff_y()))]
    out = {
        "band": ("eps, x, s", _ref_kernel_body(system, tf, True, _ref_zone_polys(system))
                 + ["return (eps*(c*p1 + d*m1), c*p2 + d*m2)"]),
        "mix": ("eps, x, y", _ref_kernel_body(system, tf, False, _ref_zone_polys(system))
                + ["return (c*p1 + d*m1, c*p2 + d*m2)"]),
        "band_jacobian": ("eps, x, s", _ref_kernel_body(system, tf, True, jac, slope=True) + [
            "dc = 0.5*D",
            "return ((eps*(c*p1x + d*m1x), eps*(dc*(p1 - m1) + eps*(c*p1y + d*m1y))), "
            "(c*p2x + d*m2x, dc*(p2 - m2) + eps*(c*p2y + d*m2y)))"]),
        "augmented": ("eps, x, y, w", _ref_divergence_body(system, tf, _ref_zone_polys(system))
                      + ["return (c*p1 + d*m1, c*p2 + d*m2, div)"]),
    }
    for tag, f in (("plus", system.x_plus), ("minus", system.x_minus)):
        p1, p2 = f.poly_form
        div = p1.diff_x() + p2.diff_y()
        out[f"{tag}_eval"] = ("x, y", power_lines([p1, p2]) + _float_lines(p1, "u")
                              + _float_lines(p2, "v") + ["return (u, v)"])
        out[f"{tag}_divergence"] = ("x, y", power_lines([div]) + _float_lines(div, "v")
                                    + ["return v"])
    return out


def _lean_kernels(system, tf):
    """The package's kernels of ``system`` and ``tf``, under the names of
    ``_ref_sources``."""
    from regtang import regularize

    out = {"band": regularize._mix_kernel(system, tf, True),
           "mix": regularize._mix_kernel(system, tf, False),
           "band_jacobian": regularize._band_jacobian_kernel(system, tf),
           "augmented": regularize._augmented_kernel(system, tf)}
    for tag, f in (("plus", system.x_plus), ("minus", system.x_minus)):
        out[f"{tag}_eval"] = f.eval
        out[f"{tag}_divergence"] = f.divergence()
    return out


def _compile(args, body):
    ns = {}
    exec(f"def _kernel({args}):\n" + "".join(f"    {line}\n" for line in body), ns)
    return ns["_kernel"]


def _kernel_systems():
    from regtang.scenarios import time_reversed

    cycles = [boundary_cycle_system(k=k) for k in (2, 3)]
    return [canonical_system(k=k) for k in (1, 2, 3)] + cycles + [time_reversed(c)
                                                                 for c in cycles]


_KERNEL_SYSTEMS = _kernel_systems()
_KERNEL_PAIRS = {}


def _kernel_pair(i, m):
    """The lean kernels of system ``i`` and phi_m, and their references."""
    if (i, m) not in _KERNEL_PAIRS:
        system, tf = _KERNEL_SYSTEMS[i], phi_family(m)
        refs = {name: _compile(*src) for name, src in _ref_sources(system, tf).items()}
        _KERNEL_PAIRS[i, m] = (_lean_kernels(system, tf), refs)
    return _KERNEL_PAIRS[i, m]


def _outcome(fn, *args):
    """Every float ``fn(*args)`` returns, as its bits, or the exception's type.
    A NaN is "nan" whatever its sign: CPython's specialized float operations
    can give it another sign bit than the generic ones once a function has
    warmed up, so that bit is not a property of the generated source."""
    import struct

    def flat(v):
        return [b for item in v for b in flat(item)] if isinstance(v, tuple) else [
            "nan" if v != v else struct.pack("<d", v)]
    try:
        return flat(fn(*args))
    except OverflowError as exc:
        return type(exc)


_ULP = [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]
_EDGE_S = [1.0, -1.0, *_ULP, *(-u for u in _ULP), 0.0, -0.0, math.nan]
_EDGE_X = [0.0, -0.0, math.nan, 1e80, -1e80, math.inf]


@st.composite
def _kernel_inputs(draw):
    eps = draw(st.sampled_from([1e-2, 1e-3, 0.37, 1e-7]) | st.floats(1e-9, 1.0))
    s = draw(st.sampled_from(_EDGE_S) | st.floats(-3.0, 3.0))
    x = draw(st.sampled_from(_EDGE_X) | st.floats(-2.0, 2.0))
    # y = eps*s, or +-eps (exactly s = +-1), or the edges as they are
    y = draw(st.sampled_from([eps * s, eps, -eps, math.nextafter(eps, 0.0),
                              math.nextafter(eps, 1.0), s]))
    w = draw(st.sampled_from([0.0, -0.0, math.nan]) | st.floats(-5.0, 5.0))
    return eps, x, s, y, w


@settings(deadline=None, max_examples=400)
@given(st.integers(0, len(_KERNEL_SYSTEMS) - 1), st.integers(1, 5), _kernel_inputs())
@example(0, 1, (1e-3, -0.0, 1.0, 1e-3, -0.0))
@example(3, 5, (1e-2, 1e80, -1.0, -1e-2, 0.0))
@example(6, 2, (0.37, math.nan, _ULP[0], 0.37 * _ULP[0], math.nan))
def test_each_lean_kernel_is_the_statement_form_bit_for_bit(i, m, inputs):
    # canonical k = 1, 2, 3, the boundary cycle k = 2, 3 and both reversed,
    # phi_1 ... phi_5: every kernel returns the reference's bits (the signs
    # of zeros and an overflowing power's error included, a NaN as a NaN) on
    # the band's edges s = +-1, one ulp inside and outside them, +-0 and NaN
    eps, x, s, y, w = inputs
    lean, refs = _kernel_pair(i, m)
    args = {"band": (eps, x, s), "band_jacobian": (eps, x, s), "mix": (eps, x, y),
            "augmented": (eps, x, y, w)}
    for name, ref in refs.items():
        arg = args.get(name, (x, y))
        assert _outcome(lean[name], *arg) == _outcome(ref, *arg), name


def test_lean_kernels_fold_atoms_and_drop_dead_stores():
    # X+ = (1, x), X- = (0, 1): no component is assigned, a factor 1.0 is
    # left out, d*0.0 stays; Phi is one Horner expression; y = eps*s only
    # where a polynomial reads y
    from regtang import Poly2, regularize

    system, tf = canonical_system(k=1), phi_family(1)
    _, band = regularize._mix_kernel(system, tf, True).source
    assert band[-1] == "return (eps*(c + d*0.0), c*x + d)"
    assert band == ("if s >= 1.0:", "    c = 1.0", "elif s <= -1.0:", "    c = 0.0", "else:",
                    f"    c = 0.5*(1.0 + {tf.phi_poly.horner('s', 'c')[1]})", "d = 1.0 - c",
                    band[-1])
    _, jac = regularize._band_jacobian_kernel(system, tf).source
    assert "y = eps*s" not in jac and not any(line.startswith(("p", "m")) for line in jac)
    tilted = canonical_system(k=1, theta=Poly2.y())
    for kernel in (regularize._mix_kernel(tilted, tf, True),
                   regularize._band_jacobian_kernel(tilted, tf)):
        assert kernel.source[1][0] == "y = eps*s"
    _, mix = regularize._mix_kernel(system, tf, False).source
    assert mix[0] == "s = y/eps"
    assert system.x_plus.eval.source == ("x, y", ("return (1.0, x)",))

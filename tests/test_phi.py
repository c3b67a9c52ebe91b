"""The odd-polynomial transition family and its boundary behaviour."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from pytest import approx, raises

from regtang import (
    OutOfRange,
    Poly1,
    phi_bracket_constant,
    phi_bracket_exact,
    phi_family,
    phi_inverse,
)

def shift(p, a):
    """p(x + a) as a polynomial in x (exact)."""
    out, power, xs = Poly1(), Poly1([1]), Poly1([a, 1])
    for c in p.coeffs:
        out = out + power.scale(c)
        power = power * xs
    return out


def shift_down(p, m):
    """p / x**m exactly; requires valuation >= m."""
    if any(c != 0 for c in p.coeffs[:m]):
        raise ValueError("polynomial not divisible by x^m")
    return Poly1(p.coeffs[m:])


def upsilon_poly(tf, n):
    """Exact remainder profile Y with 1 - phi(1+s) = b_n (-s)^n (1 + s Y(s)),
    b_n the bracket constant of order n (the first blow-up chart's flow)."""
    bn = phi_bracket_exact(tf, n)
    top = Poly1([1]) - shift(tf.phi_poly, 1)  # 1 - phi(1+s), valuation n
    rest = shift_down(top, n).scale(Fraction((-1) ** n) / bn) - Poly1([1])  # s Y(s)
    return shift_down(rest, 1) if rest.coeffs else Poly1()


def Phi_prime(tf, s):
    """Derivative of the saturated profile: 0 outside the band (the one-sided
    value at +-1)."""
    return 0.0 if abs(s) >= 1.0 else tf.derivs[1](s)


BRACKETS = {
    1: Fraction(3, 2),
    2: Fraction(5, 2),
    3: Fraction(35, 8),
    4: Fraction(63, 8),
    5: Fraction(231, 16),
    6: Fraction(429, 16),
}


def test_family_boundary_values_exact():
    for m in range(1, 7):
        tf = phi_family(m)
        assert tf.deriv_exact(0, 1) == 1
        assert tf.deriv_exact(0, -1) == -1
        for i in range(1, m + 1):
            assert tf.deriv_exact(i, 1) == 0
            assert tf.deriv_exact(i, -1) == 0
        assert tf.deriv_exact(m + 1, 1) != 0


def test_monotone_on_open_interval_exact():
    # float evaluation loses the sign near the endpoints (the expanded
    # monomials cancel), so positivity is checked in exact arithmetic
    for m in range(1, 7):
        tf = phi_family(m)
        for j in range(-200, 201):
            s = Fraction(j, 201)
            assert tf.deriv_exact(1, s) > 0


def test_phi1_is_the_cubic_example():
    tf = phi_family(1)
    assert tf.phi_poly.coeffs[1] == Fraction(3, 2)
    assert tf.phi_poly.coeffs[3] == Fraction(-1, 2)
    assert tf.phi(0.4) == approx(1.5 * 0.4 - 0.5 * 0.4**3)


def test_phi6_leading_coefficient():
    tf = phi_family(6)
    assert tf.phi_poly.coeffs[1] == Fraction(3003, 1024)


def test_bracket_constants_exact():
    for m, val in BRACKETS.items():
        tf = phi_family(m)
        assert phi_bracket_exact(tf, m + 1) == val
        assert phi_bracket_constant(tf, m + 1) == approx(float(val))


def test_upsilon_at_zero_is_one_third():
    # 1 - phi_1(1 + s) = b_2 s^2 (1 + s*Upsilon(s)) with Upsilon(0) = 1/3
    tf = phi_family(1)
    ups = upsilon_poly(tf, 2)
    assert ups.eval_exact(0) == Fraction(1, 3)


def test_upsilon_reconstructs_the_boundary_expansion():
    for m in (1, 2, 3):
        tf = phi_family(m)
        n = m + 1
        b = phi_bracket_exact(tf, n)
        ups = upsilon_poly(tf, n)
        for s in (Fraction(1, 7), Fraction(-2, 5), Fraction(1, 3)):
            lhs = 1 - shift(tf.phi_poly, 1).eval_exact(s)
            rhs = b * (-s) ** n * (1 + s * ups.eval_exact(s))
            assert lhs == rhs


def test_shift_is_composition():
    p = Poly1([1, 2, 3])
    s = shift(p, Fraction(1))  # x -> x + 1
    assert s.eval_exact(Fraction(0)) == p.eval_exact(Fraction(1))
    assert s.eval_exact(Fraction(-1)) == p.eval_exact(Fraction(0))


def test_shift_down_strips_low_monomials():
    p = Poly1.monomial(5, Fraction(3)) + Poly1.monomial(3, Fraction(1))
    q = shift_down(p, 3)
    assert q.eval_exact(Fraction(2)) == 3 * 4 + 1
    with raises(ValueError):
        shift_down(p, 4)


def test_saturated_profile_and_derivative():
    tf = phi_family(2)
    assert tf.Phi(3.0) == 1.0
    assert tf.Phi(-7.5) == -1.0
    assert tf.Phi(0.25) == approx(tf.phi(0.25))
    assert Phi_prime(tf, 1.5) == 0.0
    assert Phi_prime(tf, 0.25) == approx(tf.deriv(1, 0.25))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=-0.999, max_value=0.999))
def test_inverse_roundtrip(m, v):
    tf = phi_family(m)
    s = phi_inverse(tf, v)
    assert tf.phi(s) == approx(v, abs=1e-12)


def test_inverse_rejects_values_outside_range():
    tf = phi_family(1)
    with raises(OutOfRange):
        phi_inverse(tf, 1.5)


def test_derivatives_by_fd_cross_check():
    tf = phi_family(3)
    h = 1e-5
    for s in (0.0, 0.3, -0.6):
        fd = (tf.phi(s + h) - tf.phi(s - h)) / (2 * h)
        assert tf.deriv(1, s) == approx(fd, rel=1e-7, abs=1e-8)

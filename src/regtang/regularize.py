"""Smoothing of a two-zone field through a transition function.

The switching layer ``|h| <= eps`` is replaced by the convex combination

    Z_eps = (1 + Phi(h/eps))/2 * X_plus + (1 - Phi(h/eps))/2 * X_minus,

with ``Phi`` the saturated extension of a monotone odd bridge ``phi``.  The
module also carries the band (fast-variable) form of the flow used inside the
layer, and the slow-manifold expansion ``m(x, eps) = m0(x) + eps*m1(x) + ...``
of its attracting critical set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConditionViolated,
    DomainError,
    NonPositiveQuantity,
    TransientNotDecayed,
)
from .fields import FilippovSystem, PlanarField
from .integrate import SectionSpec, flow_to_section_traj, sample_dense
from .phi import TransitionFunction, phi_inverse
from .polys import Poly2, compile_kernel, power_lines


# --------------------------------------------------------------------------
# fused right-hand-side kernel
# --------------------------------------------------------------------------

def _mix_kernel(system: FilippovSystem, tf: TransitionFunction, eps: float,
                band: bool) -> Callable[[float, float], np.ndarray]:
    """Straight-line float kernel of the convex combination

        c = (1 + Phi(s))/2,   Z = c*X_plus + (1 - c)*X_minus,

    generated from the exact coefficients of Phi and of polynomial zone
    fields.  With ``band`` it takes (x, s = yhat), sets y = eps*s and scales
    the first component by eps (``BandField``); otherwise it takes (x, y)
    with s = h(x, y)/eps (``RegularizedField``).  A zone field without a
    polynomial form, and a switching function other than h = y, are called
    through their own callables.  The kernel runs the operations of
    ``c*X_plus.eval + (1 - c)*X_minus.eval`` in their order, on the
    statements ``PlanarField`` compiles, so it returns the same numbers.
    """
    e = repr(float(eps))
    ns: dict = {"array": np.array}
    if band:
        args, body = "x, s", [f"y = {e}*s"]
    elif system.h.poly == Poly2.y():
        args, body = "x, y", [f"s = y/{e}"]
    else:
        ns["h"] = system.h.h
        args, body = "x, y", [f"s = h(x, y)/{e}"]
    body += ["if s >= 1.0:", "    c = 1.0", "elif s <= -1.0:", "    c = 0.0", "else:"]
    body += ["    " + line for line in tf.phi_poly.horner_lines("s", "P")]
    body += ["    c = 0.5*(1.0 + P)", "d = 1.0 - c"]
    polys, lines, comps = [], [], []
    for tag, f in (("p", system.x_plus), ("m", system.x_minus)):
        if f.poly_form is None:
            ns["ev" + tag] = f.eval
            lines.append(f"v{tag} = ev{tag}(x, y)")
            comps.append((f"v{tag}[0]", f"v{tag}[1]"))
        else:
            polys += f.poly_form
            for i, p in enumerate(f.poly_form):
                lines += p.float_lines(f"{tag}{i + 1}")
            comps.append((f"{tag}1", f"{tag}2"))
    (a1, a2), (b1, b2) = comps
    first = f"c*{a1} + d*{b1}"
    if band:
        first = f"{e}*({first})"
    body += power_lines(polys) + lines
    body.append(f"return array([{first}, c*{a2} + d*{b2}])")
    return compile_kernel(args, body, ns)


def _band_jacobian_kernel(system: FilippovSystem, tf: TransitionFunction,
                          eps: float) -> Optional[Callable]:
    """Straight-line float kernel of the exact Jacobian of the band field,
    ``(x, s) -> ((dF1/dx, dF1/ds), (dF2/dx, dF2/ds))`` with y = eps*s:

        dF1/dx = eps*(c X1+_x + d X1-_x),
        dF1/ds = eps*(c' (X1+ - X1-) + eps*(c X1+_y + d X1-_y)),
        dF2/dx = c X2+_x + d X2-_x,
        dF2/ds = c' (X2+ - X2-) + eps*(c X2+_y + d X2-_y),

    where c = (1 + Phi(s))/2, d = 1 - c and c' = Phi'(s)/2, which is 0
    outside |s| < 1.  Generated from the zone fields' polynomial forms and
    ``tf.derivs[1]``; None when a zone field has no polynomial form.
    """
    if system.x_plus.poly_form is None or system.x_minus.poly_form is None:
        return None
    e = repr(float(eps))
    body = [f"y = {e}*s", "if s >= 1.0:", "    c = 1.0", "    dc = 0.0",
            "elif s <= -1.0:", "    c = 0.0", "    dc = 0.0", "else:"]
    body += ["    " + line for line in tf.phi_poly.horner_lines("s", "P")]
    body += ["    " + line for line in tf.derivs[1].horner_lines("s", "D")]
    body += ["    c = 0.5*(1.0 + P)", "    dc = 0.5*D", "d = 1.0 - c"]
    polys, lines = [], []
    for tag, f in (("p", system.x_plus), ("m", system.x_minus)):
        for i, p in enumerate(f.poly_form):
            for suffix, q in (("", p), ("x", p.diff_x()), ("y", p.diff_y())):
                polys.append(q)
                lines += q.float_lines(f"{tag}{i + 1}{suffix}")
    body += power_lines(polys) + lines
    body.append(f"return (({e}*(c*p1x + d*m1x), "
                f"{e}*(dc*(p1 - m1) + {e}*(c*p1y + d*m1y))), "
                f"(c*p2x + d*m2x, dc*(p2 - m2) + {e}*(c*p2y + d*m2y)))")
    return compile_kernel("x, s", body)


# --------------------------------------------------------------------------
# regularized field in the original variables
# --------------------------------------------------------------------------

@dataclass
class RegularizedField:
    """Smooth field agreeing with X_plus above the band and X_minus below.

    ``eval`` runs one kernel generated from system, tf and eps at
    construction.  It stays a method of the class, so that wrapping
    ``RegularizedField.eval`` on the class sees every evaluation.
    """

    system: FilippovSystem
    tf: TransitionFunction
    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise NonPositiveQuantity("eps must be positive")
        self._rhs = _mix_kernel(self.system, self.tf, self.eps, band=False)

    def eval(self, x: float, y: float) -> np.ndarray:
        return self._rhs(x, y)

    def __call__(self, x: float, y: float) -> np.ndarray:
        return self.eval(x, y)

    def divergence(self) -> Callable[[float, float], float]:
        div_p = self.system.x_plus.divergence()
        div_m = self.system.x_minus.divergence()
        grad_h = self.system.h.grad_h
        tf, eps, sys_ = self.tf, self.eps, self.system

        def div(x: float, y: float) -> float:
            s = sys_.h.h(x, y) / eps
            c = 0.5 * (1.0 + tf.Phi(s))
            base = c * div_p(x, y) + (1.0 - c) * div_m(x, y)
            dphi = tf.Phi_prime(s)
            if dphi != 0.0:
                diff = sys_.x_plus.eval(x, y) - sys_.x_minus.eval(x, y)
                base += dphi / (2.0 * eps) * float(np.dot(grad_h(x, y), diff))
            return base

        return div


# --------------------------------------------------------------------------
# band coordinates (x, yhat = y/eps), fast time tau = t/eps
# --------------------------------------------------------------------------

def _require_vertical(system: FilippovSystem):
    h = system.h
    if h.poly is not None:
        if h.poly == Poly2.y():
            return
    elif all(abs(h.h(x, y) - y) < 1e-14
             for x, y in ((0.3, 0.7), (-1.2, 0.1), (2.0, -0.5))):
        return
    raise ConditionViolated(
        "band coordinates require the switching function h(x, y) = y"
    )


@dataclass
class BandField:
    """The layer flow in (x, yhat) with yhat = y/eps, in fast time.

        dx/dtau    = eps * [c+ X1+(x, eps*yhat) + c- X1-(x, eps*yhat)]
        dyhat/dtau = c+ X2+(x, eps*yhat) + c- X2-(x, eps*yhat)

    where c+- = (1 +- Phi(yhat))/2.  With the saturation of Phi the same
    equations remain valid outside |yhat| <= 1 and match the slow flow there.
    As in ``RegularizedField``, ``eval`` is a method of the class that calls
    one kernel generated at construction.  ``jacobian(x, yhat)`` is the
    exact Jacobian ``((dx'/dx, dx'/dyhat), (dyhat'/dx, dyhat'/dyhat))``, a
    second generated kernel that calls no ``eval``; it is None when a zone
    field has no polynomial form.
    """

    system: FilippovSystem
    tf: TransitionFunction
    eps: float

    def __post_init__(self):
        _require_vertical(self.system)
        if self.eps <= 0:
            raise NonPositiveQuantity("eps must be positive")
        self._rhs = _mix_kernel(self.system, self.tf, self.eps, band=True)
        self.jacobian = _band_jacobian_kernel(self.system, self.tf, self.eps)

    def eval(self, x: float, yhat: float) -> np.ndarray:
        return self._rhs(x, yhat)

    def __call__(self, x: float, yhat: float) -> np.ndarray:
        return self.eval(x, yhat)


# --------------------------------------------------------------------------
# slow (critical) manifold of the layer problem
# --------------------------------------------------------------------------

SLOW_FD_STEP = 1e-6  # central-difference step when X+ has no polynomial form


@dataclass
class SlowManifold:
    """First-order expansion yhat = m0(x) + eps*m1(x) of the layer's slow set.

    Requires f(x) := X2+(x, 0) < 0 (attracting regime): then

        phi(m0) = (1 + f)/(1 - f),
        m0'     = 2 f_x / (phi'(m0) (1 - f)^2),
        m1      = -m0' (m0' X1+(x,0) - m0 * dX2+/dy(x,0)) / f_x.
    """

    system: FilippovSystem
    tf: TransitionFunction

    def __post_init__(self):
        _require_vertical(self.system)
        xp = self.system.x_plus
        if xp.poly_form is not None:
            p1, p2 = xp.poly_form
            f_poly = p2.at_y0()
            fx_poly = f_poly.diff()
            theta_poly = p2.diff_y().at_y0()
            x1_poly = p1.at_y0()
            self._f = f_poly.__call__
            self._fx = fx_poly.__call__
            self._theta0 = theta_poly.__call__
            self._x10 = x1_poly.__call__
        else:
            ev = xp.eval
            hh = SLOW_FD_STEP
            self._f = lambda x: float(ev(x, 0.0)[1])
            self._fx = lambda x: (float(ev(x + hh, 0.0)[1]) - float(ev(x - hh, 0.0)[1])) / (2 * hh)
            self._theta0 = lambda x: (float(ev(x, hh)[1]) - float(ev(x, -hh)[1])) / (2 * hh)
            self._x10 = lambda x: float(ev(x, 0.0)[0])

    def m0(self, x: float) -> float:
        f = self._f(x)
        if f >= 0:
            raise DomainError(
                f"slow set undefined at x={x:g}: X2+(x,0)={f:g} is not negative"
            )
        return phi_inverse(self.tf, (1.0 + f) / (1.0 - f))

    def m0_prime(self, x: float) -> float:
        f = self._f(x)
        if f >= 0:
            raise DomainError(
                f"slow set undefined at x={x:g}: X2+(x,0)={f:g} is not negative"
            )
        m0 = phi_inverse(self.tf, (1.0 + f) / (1.0 - f))
        dphi = self.tf.deriv(1, m0)
        return 2.0 * self._fx(x) / (dphi * (1.0 - f) ** 2)

    def m1(self, x: float) -> float:
        fx = self._fx(x)
        if fx == 0.0:
            raise DomainError(f"m1 undefined where f_x vanishes (x={x:g})")
        m0 = self.m0(x)
        m0p = self.m0_prime(x)
        return -m0p * (m0p * self._x10(x) - m0 * self._theta0(x)) / fx

    def m(self, x: float, eps: float, order: int = 1) -> float:
        val = self.m0(x)
        if order >= 1:
            val += eps * self.m1(x)
        return val


def departure_coefficient(k: int, n: int, alpha: float, tf: TransitionFunction) -> float:
    """Coefficient C in 1 - m0(x) ~ C * |x|^{(2k-1)/n} as x -> 0-.

    Equivalent closed form: C = (2*alpha*n! / |phi^{(n)}(1)|)^{1/n}.
    """
    dn = abs(tf.deriv_exact(n, 1))
    if dn == 0:
        raise ConditionViolated(
            f"phi^({n})(1) = 0: the transition function is too flat for this order"
        )
    return float((2.0 * alpha * math.factorial(n) / float(dn)) ** (1.0 / n))


def sandwich_exponent(k: int, n: int) -> float:
    """Exponent p in the lower envelope m0 - eps*K / x^{p/n}-type bound."""
    return (2 * k * (n - 2) + 2) / n


def sandwich_constant(manifold: SlowManifold, k: int, n: int, L: float) -> float:
    """A constant K >= -L^{(2k(n-2)+2)/n} * m1(-L) making the envelope valid at -L."""
    p = sandwich_exponent(k, n)
    return max(0.0, -(L ** p) * manifold.m1(-L)) * 1.0000001


@dataclass
class SandwichReport:
    """Grid-wise verdict for the two-sided slow-manifold enclosure

        m0(x) - eps*K / |x|^p  <=  m_proxy(x, eps)  <=  m0(x),

    with p the sandwich exponent and K a user-supplied constant.  ``K_min``
    is the smallest constant for which the left inequality holds on the
    whole grid (0 when the proxy never dips below m0 minus nothing)."""

    eps: float
    lam: float
    exponent: float
    K: float
    K_min: float
    x: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    proxy: np.ndarray
    lower: np.ndarray
    holds: np.ndarray
    upper_ok: np.ndarray

    @property
    def all_hold(self) -> bool:
        return bool(np.all(self.holds))

    @property
    def upper_all_hold(self) -> bool:
        return bool(np.all(self.upper_ok))


def manifold_table_csv(report: SandwichReport) -> str:
    lines = ["x,m0,m1,m_proxy,lower_bound"]
    for row in zip(report.x, report.m0, report.m1, report.proxy, report.lower):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def slow_manifold_sandwich_check(band: BandField, k: int, n: int, L: float,
                                 lam: float, K: float,
                                 grid_points: int = 50) -> SandwichReport:
    """Check the slow-manifold enclosure on a grid over [-L, -eps**lam].

    The proxy for the true slow solution is a fast-time trajectory launched at
    (x, yhat) = (-L, m0(-L) + eps*m1(-L)); attraction at rate O(1/eps) in slow
    time makes it exponentially accurate once the launch transient (slow-time
    length ~ 5*eps*|log eps|) has decayed, which is verified on the fly.
    """
    eps = band.eps
    x_end = -(eps ** lam)
    if x_end <= -L:
        raise ConditionViolated(
            f"grid [-L, -eps^lam] = [{-L:g}, {x_end:g}] is empty"
        )
    x_dec = -L + 5.0 * eps * abs(math.log(eps))
    if x_dec >= x_end:
        raise TransientNotDecayed(
            f"launch transient (length {x_dec + L:g} in x) swallows the whole "
            f"grid [-L, -eps^lam] = [{-L:g}, {x_end:g}]"
        )
    sm = SlowManifold(band.system, band.tf)
    y0 = sm.m0(-L) + eps * sm.m1(-L)
    sec = SectionSpec("vertical", x_end, ident="grid-end")
    hit, traj = flow_to_section_traj(band, (-L, y0), sec)
    dense = sample_dense(traj, 20001)
    xs, ys = dense[:, 0], dense[:, 1]
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    y_dec = float(np.interp(x_dec, xs, ys))
    if abs(y_dec - sm.m(x_dec, eps)) > eps:
        raise TransientNotDecayed(
            f"proxy still {abs(y_dec - sm.m(x_dec, eps)):g} away from the slow "
            f"expansion at x = {x_dec:g}"
        )
    grid = np.linspace(-L, x_end, grid_points)
    proxy = np.interp(grid, xs, ys)
    m0g = np.array([sm.m0(x) for x in grid])
    m1g = np.array([sm.m1(x) for x in grid])
    p = sandwich_exponent(k, n)
    lower = m0g - eps * K / np.abs(grid) ** p
    K_min = max(0.0, float(np.max((m0g - proxy) * np.abs(grid) ** p / eps)))
    return SandwichReport(eps=eps, lam=lam, exponent=p, K=K, K_min=K_min,
                          x=grid, m0=m0g, m1=m1g, proxy=proxy, lower=lower,
                          holds=lower <= proxy, upper_ok=proxy <= m0g)

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
from functools import cached_property, partial
from typing import Callable, Tuple

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
from .polys import Poly2, cached_kernel, float_parts, power_lines


# --------------------------------------------------------------------------
# fused kernels: right-hand sides, band Jacobian, divergence
# --------------------------------------------------------------------------

def _kernel_body(system: FilippovSystem, tf: TransitionFunction, band: bool,
                 named: list, slope: bool = False) -> Tuple[list, dict]:
    """Statements shared by the fused kernels, up to their return, and the
    float form of each name of ``named`` (``polys.float_parts``).

    Every kernel takes eps first, a Python float, so that one kernel serves
    a field at every eps.  With ``band`` they then take (x, s = yhat) and set
    y = eps*s where a polynomial reads y; otherwise they take (x, y) and set
    s = h(x, y)/eps.  Then c = (1 + Phi(s))/2 and d = 1 - c, with ``slope``
    also D = Phi'(s), which is 0 outside |s| < 1, each one Horner expression;
    last, each ``(name, poly)`` of ``named`` whose float form is not an atom
    is assigned to its name.  All of it is generated from the exact
    coefficients of Phi, the polynomials and h.
    """
    polys = [p for _, p in named]
    if band:
        reads_y = any(j for p in polys for _, j in p.terms)
        body = (["y = eps*s"] if reads_y else []) + power_lines(polys)
    else:
        lines, hv = system.h.float_form("hv")
        body = power_lines(polys + [system.h]) + lines + [f"s = {hv}/eps"]
    zero = ["    D = 0.0"] if slope else []
    body += ["if s >= 1.0:", "    c = 1.0", *zero,
             "elif s <= -1.0:", "    c = 0.0", *zero, "else:",
             f"    c = 0.5*(1.0 + {tf.phi_poly.horner('s')})"]
    if slope:
        body.append(f"    D = {tf.derivs[1].horner('s')}")
    lines, form = float_parts(named)
    return body + ["d = 1.0 - c"] + lines, form


def _times(a: str, b: str) -> str:
    """The source of ``a*b``, or of the other factor where one is the literal
    ``1.0``: multiplying by 1.0 returns every float as it is, the signs of
    zeros, inf and NaN included.  A factor ``0.0`` stays: its product is
    +0.0, -0.0 or NaN."""
    return b if a == "1.0" else a if b == "1.0" else f"{a}*{b}"


def _mix(form: dict, plus: str, minus: str) -> str:
    """The source of ``c*plus + d*minus`` on the float forms of the names."""
    return f"{_times('c', form[plus])} + {_times('d', form[minus])}"


def _memo(kind: str, system: FilippovSystem, tf: TransitionFunction, args: str,
          body: Callable[[], list]) -> Callable:
    """The kernel ``kind`` of ``system`` and ``tf``, ``def _kernel(args):
    body()``, memoized on what it is generated from: both zone fields'
    polynomials, h and phi with its derivative.  An equal field of another
    instance, at any eps, builds no source."""
    key = (kind, system.x_plus.poly_form, system.x_minus.poly_form, system.h,
           tf.phi_poly, tf.derivs[1])
    return cached_kernel(key, lambda: (args, body()))


def _zone_polys(system: FilippovSystem, index=(1, 2)) -> list:
    """``("p1", X1+), ("p2", X2+), ("m1", X1-), ("m2", X2-)``, for the
    components in ``index``."""
    return [(f"{tag}{i}", f.poly_form[i - 1])
            for tag, f in (("p", system.x_plus), ("m", system.x_minus))
            for i in index]


def _mix_kernel(system: FilippovSystem, tf: TransitionFunction,
                band: bool) -> Callable[[float, float, float], Tuple[float, float]]:
    """Straight-line float kernel of the convex combination

        c = (1 + Phi(s))/2,   Z = c*X_plus + (1 - c)*X_minus,

    in the variables of ``_kernel_body``; with ``band`` the first component
    is scaled by eps (``BandField``), otherwise it is ``RegularizedField``.
    The kernel runs the operations of ``c*X_plus.eval + (1 - c)*X_minus.eval``
    in their order, on the statements ``PlanarField`` compiles, a component
    that is an atom written in place and a factor 1.0 left out (``_times``),
    so it returns the same numbers, as a tuple of two Python floats.
    """
    def body():
        lines, form = _kernel_body(system, tf, band, _zone_polys(system))
        first = f"eps*({_mix(form, 'p1', 'm1')})" if band else _mix(form, "p1", "m1")
        return lines + [f"return ({first}, {_mix(form, 'p2', 'm2')})"]
    return _memo("band" if band else "mix", system, tf, "eps, x, s" if band else "eps, x, y",
                 body)


def _band_jacobian_kernel(system: FilippovSystem, tf: TransitionFunction) -> Callable:
    """Straight-line float kernel of the exact Jacobian of the band field,
    ``(eps, x, s) -> ((dF1/dx, dF1/ds), (dF2/dx, dF2/ds))`` with y = eps*s:

        dF1/dx = eps*(c X1+_x + d X1-_x),
        dF1/ds = eps*(c' (X1+ - X1-) + eps*(c X1+_y + d X1-_y)),
        dF2/dx = c X2+_x + d X2-_x,
        dF2/ds = c' (X2+ - X2-) + eps*(c X2+_y + d X2-_y),

    where c = (1 + Phi(s))/2, d = 1 - c and c' = Phi'(s)/2, which is 0
    outside |s| < 1.  Generated from the zone fields' polynomial forms and
    ``tf.derivs[1]``.
    """
    def body():
        named = [(name + suffix, q) for name, p in _zone_polys(system)
                 for suffix, q in (("", p), ("x", p.diff_x()), ("y", p.diff_y()))]
        lines, form = _kernel_body(system, tf, True, named, slope=True)
        dx, ds = [[_mix(form, f"p{i}{v}", f"m{i}{v}") for i in (1, 2)] for v in "xy"]
        jump = [f"dc*({form[f'p{i}']} - {form[f'm{i}']})" for i in (1, 2)]
        return lines + [
            "dc = 0.5*D",
            f"return ((eps*({dx[0]}), eps*({jump[0]} + eps*({ds[0]}))), "
            f"({dx[1]}, {jump[1]} + eps*({ds[1]})))"]
    return _memo("band_jacobian", system, tf, "eps, x, s", body)


def _divergence_body(system: FilippovSystem, tf: TransitionFunction,
                     named: list) -> Tuple[list, dict]:
    """Statements that assign the divergence of the regularized field,

        c div X+ + d div X- + Phi'(s)/(2 eps) (h_x (X1+ - X1-) + h_y (X2+ - X2-)),

    to ``div``, with s = h/eps, after ``_kernel_body``'s for ``named`` and
    the divergences, and the float forms of ``named``; the last term is
    added only where Phi'(s) != 0, from the zone components ``named`` does
    not assign already.  A gradient component of h that is 0 drops its
    term, and one that is 1 multiplies nothing, so for h = y the term is
    Phi'(s)/(2 eps) (X2+ - X2-).
    """
    divs = [(f"d{tag}", f.poly_form[0].diff_x() + f.poly_form[1].diff_y())
            for tag, f in (("p", system.x_plus), ("m", system.x_minus))]
    jump, gradient = [], []
    for i, g in enumerate((system.h.diff_x(), system.h.diff_y()), 1):
        if g.terms:
            jump += [part for part in _zone_polys(system, (i,)) if part not in named]
            jump.append((f"h{i}", g))
            gradient.append(i)
    body, form = _kernel_body(system, tf, False, named + divs, slope=True)
    # the jump's own statements run only where it is added
    lines, inner_form = float_parts(jump)
    inner = [line for line in power_lines(p for _, p in jump) if line not in body] + lines
    form.update(inner_form)
    terms = [_times(form[f"h{i}"], f"({form[f'p{i}']} - {form[f'm{i}']})") for i in gradient]
    return body + [f"div = {_mix(form, 'dp', 'dm')}", "if D != 0.0:",
                   *("    " + line for line in inner),
                   f"    div += D/(2.0*eps)*({' + '.join(terms) or '0.0'})"], form


def _divergence_kernel(system: FilippovSystem,
                       tf: TransitionFunction) -> Callable[[float, float, float], float]:
    """Straight-line float kernel ``(eps, x, y) -> div`` of the divergence
    of the regularized field (``_divergence_body``)."""
    return _memo("divergence", system, tf, "eps, x, y",
                 lambda: _divergence_body(system, tf, [])[0] + ["return div"])


def _augmented_kernel(system: FilippovSystem, tf: TransitionFunction) -> Callable:
    """Straight-line float kernel ``(eps, x, y, w) -> (u, v, div)`` of the
    regularized field and its divergence, for a state that carries the
    divergence integral w, which it does not read.  It computes s, Phi(s),
    c and d once and runs the statements of ``_mix_kernel`` and
    ``_divergence_kernel`` on them, so it returns their numbers."""
    def body():
        lines, form = _divergence_body(system, tf, _zone_polys(system))
        return lines + [f"return ({_mix(form, 'p1', 'm1')}, {_mix(form, 'p2', 'm2')}, div)"]
    return _memo("augmented", system, tf, "eps, x, y, w", body)


# --------------------------------------------------------------------------
# regularized field in the original variables
# --------------------------------------------------------------------------

@dataclass
class RegularizedField:
    """Smooth field agreeing with X_plus above the band and X_minus below.

    ``eval`` runs a kernel generated from system and tf, which takes eps as
    its first argument, so the fields of one system and tf share it at every
    eps; ``kernel`` is that kernel with its eps, ``(fn, (eps,))``.  A DOP853
    leg inlines the kernel into its loop (``integrate._dop853_loop``), so a
    wrap of ``eval`` on the class sees only the calls made outside the
    step's stages, such as the run's start and the scan's rates.
    ``divergence()`` returns a third kernel with eps bound.  A fourth, built
    on first use, gives the field and its divergence in one:
    ``augmented(x, y, w)`` runs it, and ``augmented_kernel`` is it with its
    eps, for a DOP853 leg to inline.
    """

    system: FilippovSystem
    tf: TransitionFunction
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise NonPositiveQuantity("eps must be positive and finite")
        self._eps = float(self.eps)  # the kernels' argument, a Python float
        self._rhs = _mix_kernel(self.system, self.tf, band=False)
        self.kernel = (self._rhs, (self._eps,))

    def eval(self, x: float, y: float) -> Tuple[float, float]:
        return self._rhs(self._eps, x, y)

    def divergence(self) -> Callable[[float, float], float]:
        return partial(_divergence_kernel(self.system, self.tf), self._eps)

    @cached_property
    def augmented_kernel(self):
        """The kernel of the field with its divergence, ``(fn, (eps,))``,
        ``fn(eps, x, y, w) -> (u, v, div)`` (``_augmented_kernel``)."""
        return _augmented_kernel(self.system, self.tf), (self._eps,)

    def augmented(self, x: float, y: float, w: float) -> Tuple[float, float, float]:
        fn, lead = self.augmented_kernel
        return fn(*lead, x, y, w)


# --------------------------------------------------------------------------
# band coordinates (x, yhat = y/eps), fast time tau = t/eps
# --------------------------------------------------------------------------

def _require_vertical(system: FilippovSystem):
    if system.h != Poly2.y():
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
    a kernel taking eps first, ``kernel`` is that kernel with its eps, and a
    wrap of ``eval`` on the class sees only the calls made outside a DOP853
    step's stages.  ``jacobian(x, yhat)`` is the exact Jacobian
    ``((dx'/dx, dx'/dyhat), (dyhat'/dx, dyhat'/dyhat))``, a second generated
    kernel that calls no ``eval``.
    """

    system: FilippovSystem
    tf: TransitionFunction
    eps: float
    # the levels yhat = +-1 where Phi saturates: the field is only C^n across
    # them, and a leg that stops on one lands there (``integrate._land``)
    kinks = (-1.0, 1.0)

    def __post_init__(self):
        _require_vertical(self.system)
        if not 0.0 < self.eps < math.inf:
            raise NonPositiveQuantity("eps must be positive and finite")
        self._eps = float(self.eps)  # the kernels' argument, a Python float
        self._rhs = _mix_kernel(self.system, self.tf, band=True)
        self._jac = _band_jacobian_kernel(self.system, self.tf)
        self.kernel = (self._rhs, (self._eps,))

    def eval(self, x: float, yhat: float) -> Tuple[float, float]:
        return self._rhs(self._eps, x, yhat)

    def jacobian(self, x: float, yhat: float):
        return self._jac(self._eps, x, yhat)


# --------------------------------------------------------------------------
# slow (critical) manifold of the layer problem
# --------------------------------------------------------------------------

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
        p1, p2 = self.system.x_plus.poly_form
        f_poly = p2.at_y0()
        self._f = f_poly.__call__
        self._fx = f_poly.diff().__call__
        self._theta0 = p2.diff_y().at_y0().__call__
        self._x10 = p1.at_y0().__call__

    def m0(self, x: float) -> float:
        f = self._f(x)
        if f >= 0:
            raise DomainError(
                f"slow set undefined at x={x:g}: X2+(x,0)={f:g} is not negative"
            )
        return phi_inverse(self.tf, (1.0 + f) / (1.0 - f))

    def m0_prime(self, x: float) -> float:
        dphi = self.tf.deriv(1, self.m0(x))
        return 2.0 * self._fx(x) / (dphi * (1.0 - self._f(x)) ** 2)

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

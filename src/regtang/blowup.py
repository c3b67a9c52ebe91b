"""Directional rescalings of the contact point and their two model systems.

Chart at the equator (kappa_1) carries the hyperbolic equilibrium whose
unstable direction launches the departure; the polar chart (kappa_2) reduces,
on the blown-up sphere itself, to the planar model

    u' = 1,   v' = -u**(2k-1) - v**n + s

whose attracting solution crosses v = 0 at a universal abscissa u*.  The
departure prefactor is eta = c_x * u* with c_x = (2/(phi_bracket *
alpha**(n-1)))**(1/(1+2k(n-1))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConditionViolated, NoExit
from .integrate import IntegratorConfig, _dop853
from .phi import TransitionFunction, phi_bracket_constant, phi_family, upsilon_poly
from .polys import Poly1, Poly2


def _check_orders(k: int, n: int):
    if k < 1:
        raise ConditionViolated("k must be a positive integer")
    if n < max(2, 2 * k - 1):
        raise ConditionViolated(
            f"order n={n} must be at least max(2, 2k-1)={max(2, 2 * k - 1)}"
        )


# Both chart integrations run far tighter than the maps' default: u* and eta
# are model constants, not by-products of a leg.
CHART_INTEG = IntegratorConfig(rtol=1e-12, atol=1e-14)
CHART_U_MAX = 20.0  # planar_model_crossing gives up at u = CHART_U_MAX
FD_STEP = 1e-6  # central-difference step of the equatorial chart's Jacobian


# --------------------------------------------------------------------------
# scaling constants
# --------------------------------------------------------------------------

def scaling_constants(k: int, n: int, alpha: float = 1.0,
                      tf: Optional[TransitionFunction] = None) -> dict:
    """c_x, c_y of the polar-chart rescaling and the departure exponent."""
    _check_orders(k, n)
    if not alpha > 0:
        raise ConditionViolated("alpha must be positive")
    tf = tf or phi_family(n - 1)
    br = phi_bracket_constant(tf, n)
    p = 1 + 2 * k * (n - 1)
    c_x = (2.0 / (br * alpha ** (n - 1))) ** (1.0 / p)
    return {
        "c_x": c_x,
        "c_y": -alpha * c_x ** (2 * k),
        "phi_bracket": br,
        "weight": p,
        "lambda_star": n / p,
    }


def sigma_shift(k: int, n: int, alpha: float = 1.0, theta00: float = 0.0,
                tf: Optional[TransitionFunction] = None) -> float:
    """Constant s appearing in the planar model: nonzero only when n = 2k-1."""
    _check_orders(k, n)
    if n > 2 * k - 1:
        return 0.0
    c_x = scaling_constants(k, n, alpha, tf)["c_x"]
    return -theta00 / (alpha * c_x ** n)


def sigma_bound(k: int, n: int, alpha: float = 1.0, theta00: float = 0.0) -> float:
    """Lower bound sigma_{n,k} for the departure abscissa eta."""
    _check_orders(k, n)
    if n > 2 * k - 1:
        return 0.0
    val = theta00 / alpha
    root = math.copysign(abs(val) ** (1.0 / (2 * k - 1)), val)
    return -root


# --------------------------------------------------------------------------
# polar-chart planar model
# --------------------------------------------------------------------------

@dataclass
class PlanarCrossing:
    u_star: float
    v0: float
    u0: float
    v_max: float
    sigma: float


def planar_model_crossing(k: int, n: int, sigma: float = 0.0,
                          u0: float = -10.0) -> PlanarCrossing:
    """First crossing of v = 0 by the attracting solution of
    u' = 1, v' = -u**(2k-1) - v**n + sigma, launched on the slow nullcline.

    Raises NoExit if no crossing occurs by u = CHART_U_MAX.
    """
    _check_orders(k, n)
    base = sigma - u0 ** (2 * k - 1)
    if base <= 0:
        raise ConditionViolated("u0 must start left enough for a positive nullcline")
    v0 = base ** (1.0 / n)

    def rhs(t, v):
        u = u0 + t
        # np.float64: past the float range v**n is inf, not an OverflowError
        return [-(u ** (2 * k - 1)) - np.float64(v[0]) ** n + sigma]

    # v starts above zero, so the first zero the stop meets is a downward one.
    # A rejected trial step can take v**n past the float range; the step
    # control discards it, so the overflow is no news to the caller.
    with np.errstate(over="ignore", invalid="ignore"):
        seg, hit = _dop853(rhs, (0.0, CHART_U_MAX - u0), np.array([v0]), CHART_INTEG,
                           [lambda v: v[0]])
    if hit is None:
        raise NoExit(f"no crossing of v = 0 up to u = {CHART_U_MAX:g}")
    u_star = u0 + float(hit[1])
    v_max = float(np.max(seg.y[0]))
    return PlanarCrossing(u_star=u_star, v0=v0, u0=u0, v_max=v_max, sigma=sigma)


def departure_prefactor(k: int, n: int, alpha: float = 1.0,
                        theta00: float = 0.0,
                        tf: Optional[TransitionFunction] = None) -> dict:
    """eta such that the departure abscissa scales as eta * eps**lambda_star."""
    consts = scaling_constants(k, n, alpha, tf)
    s = sigma_shift(k, n, alpha, theta00, tf)
    crossing = planar_model_crossing(k, n, sigma=s)
    eta = consts["c_x"] * crossing.u_star
    return {
        "k": k, "n": n, "sigma": s,
        "u_star": crossing.u_star,
        "c_x": consts["c_x"],
        "eta": eta,
        "eta_lower_bound": sigma_bound(k, n, alpha, theta00),
        "lambda_star": consts["lambda_star"],
    }


# --------------------------------------------------------------------------
# equatorial chart: equilibrium and spectrum
# --------------------------------------------------------------------------

@dataclass
class EquatorialChart:
    """Desingularized flow in the chart covering the sliding-to-departure
    passage: coordinates (x1, r1, e1), with e1*r1**(1+2k(n-1)) invariant.
    """

    k: int
    n: int
    alpha: float = 1.0
    tf: Optional[TransitionFunction] = None
    g_tilde: Optional[Poly1] = None     # g(x) = x**(2k-1) * g_tilde(x)
    theta: Optional[Poly2] = None       # coefficient of y in the upper field

    def __post_init__(self):
        _check_orders(self.k, self.n)
        if not self.alpha > 0:
            raise ConditionViolated("alpha must be positive")
        if self.tf is None:
            self.tf = phi_family(self.n - 1)
        self.bracket = phi_bracket_constant(self.tf, self.n)
        self.upsilon = upsilon_poly(self.tf, self.n)
        self._gt = self.g_tilde.__call__ if self.g_tilde is not None else (lambda x: 0.0)
        self._th = self.theta.__call__ if self.theta is not None else (lambda x, y: 0.0)

    # -- pieces ------------------------------------------------------------

    def H(self, x1: float, r1: float) -> float:
        k, n = self.k, self.n
        s = r1 ** (2 * k - 1)
        return (x1 ** (2 * k - 1) * (self.alpha + self._gt(r1 ** n * x1))
                + 0.5 * self.bracket * (1.0 - s * self.upsilon(-s)))

    def J(self, x1: float, r1: float, e1: float) -> float:
        k, n = self.k, self.n
        pref = r1 ** n - r1 ** (1 - 2 * k + n)
        if pref == 0.0 and e1 == 0.0:
            return 0.0
        xo = r1 ** n * x1
        yo = -(r1 ** (2 * k * (n - 1))) * (-r1 + r1 ** (2 * k)) * e1
        return pref * e1 * self._th(xo, yo)

    def rhs(self, t: float, p) -> Tuple[float, float, float]:
        x1, r1, e1 = p
        k, n = self.k, self.n
        hj = (self.H(x1, r1) - self.J(x1, r1, e1)) / (2 * k - 1)
        return (e1 + n * x1 * hj, -r1 * hj, (1 + 2 * k * (n - 1)) * e1 * hj)

    # -- equilibrium data ----------------------------------------------------

    @property
    def x1_star(self) -> float:
        return -((self.bracket / (2.0 * self.alpha)) ** (1.0 / (2 * self.k - 1)))

    @property
    def lambda1(self) -> float:
        return -0.5 * self.bracket * self.n

    def equilibrium_residual(self) -> float:
        return float(np.max(np.abs(self.rhs(0.0, (self.x1_star, 0.0, 0.0)))))

    def jacobian_fd(self) -> np.ndarray:
        """Central-difference Jacobian of the flow at the equilibrium."""
        p = np.array([self.x1_star, 0.0, 0.0])
        J = np.empty((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = FD_STEP
            J[:, j] = (np.array(self.rhs(0.0, p + dp))
                       - np.array(self.rhs(0.0, p - dp))) / (2 * FD_STEP)
        return J

    def eigenvalues(self) -> np.ndarray:
        ev = np.linalg.eigvals(self.jacobian_fd())
        return np.sort_complex(ev)

    def invariant_drift(self, start, t_span: Tuple[float, float]) -> float:
        """Max drift of e1 * r1**(1+2k(n-1)) along a trajectory (exact invariant).

        Raises StepSizeUnderflow if the solver cannot cover ``t_span``.
        """
        p = 1 + 2 * self.k * (self.n - 1)
        c0 = start[2] * start[1] ** p
        seg, _ = _dop853(self.rhs, t_span, np.asarray(start, float), CHART_INTEG, [])
        vals = seg.y[2] * seg.y[1] ** p
        return float(np.max(np.abs(vals - c0)))

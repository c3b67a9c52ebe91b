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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConditionViolated, DomainExit, NoCrossing, NoExit
from .integrate import IntegratorConfig, SectionSpec, flow_to_section_traj
from .phi import TransitionFunction, phi_bracket_constant, phi_family, upsilon_poly


def _check_orders(k: int, n: int):
    if k < 1:
        raise ConditionViolated("k must be a positive integer")
    if n < max(2, 2 * k - 1):
        raise ConditionViolated(
            f"order n={n} must be at least max(2, 2k-1)={max(2, 2 * k - 1)}"
        )


# The chart integration runs far tighter than the maps' default: u* and eta
# are model constants, not by-products of a leg.
CHART_INTEG = IntegratorConfig(rtol=1e-12, atol=1e-14)
CHART_U_MAX = 20.0  # planar_model_crossing gives up at u = CHART_U_MAX


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

    The leg is ``flow_to_section_traj`` on the 1-D state v, with the time
    t = u - u0.  Raises NoExit if no crossing occurs by u = CHART_U_MAX, or if
    |v| exceeds the integrator's norm bound first (``DomainExit``).
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

    # v starts above zero, so its first crossing of v = 0 is a downward one.
    # A rejected trial step can take v**n past the float range; the step
    # control discards it, so the overflow is no news to the caller.
    level = SectionSpec("vertical", 0.0, direction="down")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            hit, traj = flow_to_section_traj(rhs, (v0,), level,
                                             replace(CHART_INTEG, max_time=CHART_U_MAX - u0))
        except (NoCrossing, DomainExit) as exc:
            raise NoExit(f"no crossing of v = 0 up to u = {CHART_U_MAX:g}: {exc}") from exc
    u_star = u0 + hit.t
    v_max = float(np.max(traj.points[:, 0]))
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
# equatorial chart: equilibrium and rate
# --------------------------------------------------------------------------

@dataclass
class EquatorialChart:
    """The chart covering the sliding-to-departure passage, coordinates
    (x1, r1, e1): the closed forms of its hyperbolic equilibrium
    (``x1_star``, 0, 0) and of its contraction rate ``lambda1``.  The
    constructor checks the orders and builds the profile's bracket constant
    and Upsilon polynomial, from which the desingularized flow is formed.
    """

    k: int
    n: int
    alpha: float = 1.0
    tf: Optional[TransitionFunction] = None

    def __post_init__(self):
        _check_orders(self.k, self.n)
        if not self.alpha > 0:
            raise ConditionViolated("alpha must be positive")
        if self.tf is None:
            self.tf = phi_family(self.n - 1)
        self.bracket = phi_bracket_constant(self.tf, self.n)
        self.upsilon = upsilon_poly(self.tf, self.n)

    @property
    def x1_star(self) -> float:
        return -((self.bracket / (2.0 * self.alpha)) ** (1.0 / (2 * self.k - 1)))

    @property
    def lambda1(self) -> float:
        return -0.5 * self.bracket * self.n

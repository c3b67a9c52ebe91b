"""Transition maps across the smoothed switching layer near a visible
even-multiplicity contact point.

Geometry (canonical orientation): the contact sits at the origin, the layer
is ``|y| <= eps``, incoming orbits arrive from x < 0 above the layer, ride the
attracting slow set of the layer flow, and leave upward shortly past the
contact at a departure abscissa ``x_eps ~ eta * eps**lambda_star``.

All layer legs are integrated in the fast variables (x, yhat = y/eps) with no
time rescaling back and forth; the outer legs use the upper field directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConditionViolated,
    DomainError,
    LeftWindow,
    NoCrossing,
    DomainExit,
    NoExit,
    NoReturn,
    NoRoot,
    NonPositiveQuantity,
    SlidingCapture,
)
from .fields import FilippovSystem
from .integrate import IntegratorConfig, SectionSpec, brentq, flow_to_section_traj
from .phi import TransitionFunction, phi_family
from .regularize import BandField, SlowManifold

RHO_MAX = 0.3
THETA_MAX = 0.3


def lambda_star(k: int, n: int) -> float:
    """Departure-scaling exponent: x_eps = O(eps**lambda_star)."""
    return n / (1 + 2 * k * (n - 1))


@dataclass
class TransitionConfig:
    """Parameters of the transition-map construction.

    Constraints: max(2, 2k-1) <= n; 0 < lam < lambda_star(k, n);
    sections sit at x = -rho (inflow) and x = theta (outflow) with
    rho <= 0.3, theta <= 0.3; per-eps checks (eps**lam < rho, x_eps <= theta)
    happen when a map is evaluated.
    """

    k: int = 1
    n: int = 2
    tf: Optional[TransitionFunction] = None
    lam: Optional[float] = None
    rho: float = RHO_MAX
    theta: float = THETA_MAX
    L: float = RHO_MAX
    integ: IntegratorConfig = dc_field(default_factory=IntegratorConfig)

    def __post_init__(self):
        if self.k < 1:
            raise ConditionViolated("k must be a positive integer")
        if self.n < max(2, 2 * self.k - 1):
            raise ConditionViolated(
                f"smoothness order n={self.n} below max(2, 2k-1)={max(2, 2 * self.k - 1)}"
            )
        if self.tf is None:
            self.tf = phi_family(self.n - 1)
        if self.tf.n_class < self.n - 1:
            raise ConditionViolated(
                f"transition function of class {self.tf.n_class} cannot realize order n={self.n}"
            )
        ls = lambda_star(self.k, self.n)
        if self.lam is None:
            self.lam = 0.5 * ls
        if not 0.0 < self.lam < ls:
            raise ConditionViolated(
                f"lam={self.lam:g} outside (0, lambda_star={ls:g})"
            )
        if not 0.0 < self.rho <= RHO_MAX:
            raise ConditionViolated(f"rho must lie in (0, {RHO_MAX}]")
        if not 0.0 < self.theta <= THETA_MAX:
            raise ConditionViolated(f"theta must lie in (0, {THETA_MAX}]")
        self.L = max(self.L, self.rho)

    @property
    def lambda_star(self) -> float:
        return lambda_star(self.k, self.n)

    def check_eps(self, eps: float):
        if not eps > 0:
            raise NonPositiveQuantity("eps must be positive")
        if eps ** self.lam >= self.rho:
            raise ConditionViolated(
                f"eps**lam = {eps ** self.lam:g} must stay below rho = {self.rho:g}"
            )


@dataclass
class TransitionResult:
    y_out: float
    departure: Tuple[float, float]     # (x, yhat) leaving through yhat = 1


# --------------------------------------------------------------------------
# departure abscissa and tangency curve
# --------------------------------------------------------------------------

def _band_integ(config: TransitionConfig, eps: float, span: float) -> IntegratorConfig:
    """Integrator settings of a layer leg: a fast-time budget that grows like
    span/eps."""
    return replace(config.integ, max_time=40.0 * (span + 1.0) / eps + 1000.0)


def find_x_epsilon(
    system: FilippovSystem,
    config: TransitionConfig,
    eps: float,
) -> float:
    """Departure abscissa: ride the layer's slow set from x = -config.L and record
    where the orbit leaves through yhat = 1.

    Raises NoExit if the orbit never reaches yhat = 1.
    """
    config.check_eps(eps)
    L = config.L
    manifold = SlowManifold(system, config.tf)
    y0 = manifold.m0(-L)
    band = BandField(system, config.tf, eps)
    integ = _band_integ(config, eps, L + config.theta)
    sec = SectionSpec("horizontal", 1.0, direction="up", ident="yhat:1")
    try:
        hit, _ = flow_to_section_traj(band, (-L, y0), sec, integ)
    except (NoCrossing, DomainExit) as exc:
        raise NoExit(f"slow-set orbit never left the layer: {exc}") from exc
    return float(hit.point[0])


def tangency_curve_psi(system: FilippovSystem, config: TransitionConfig, eps: float) -> float:
    """Root of X2+(x, eps) = 0: where the upper field is tangent to y = eps."""
    if not eps > 0:
        raise NonPositiveQuantity("eps must be positive")
    f = lambda x: float(system.x_plus.eval(x, eps)[1])
    b = (10.0 * eps) ** (1.0 / (2 * config.k - 1))
    lo, hi = -b, b
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoRoot(
            f"X2+(x, eps) has no sign change on [{lo:g}, {hi:g}] at eps={eps:g}"
        )
    return float(brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16))


# --------------------------------------------------------------------------
# distinguished upper-field orbits
# --------------------------------------------------------------------------

def predicted_upper_boundary(system: FilippovSystem, config: TransitionConfig,
                             eps: float) -> float:
    """Height y at x = -rho of the backward upper-field orbit from (-eps**lam, eps)."""
    config.check_eps(eps)
    x0 = -(eps ** config.lam)
    sec = SectionSpec("vertical", -config.rho)
    hit, _ = flow_to_section_traj(system.x_plus, (x0, eps), sec, config.integ,
                                  t_direction="backward")
    return float(hit.point[1])


# --------------------------------------------------------------------------
# transition maps
# --------------------------------------------------------------------------

def _layer_legs(system, config, eps, x_entry, yhat0) -> TransitionResult:
    """Legs 2 and 3 of both transition maps: the layer flow in fast variables
    from (x_entry, yhat0) to the departure through yhat = 1, then the upper
    field on to the outflow section x = theta."""
    if x_entry < -config.L:
        raise LeftWindow(f"layer entry at x={x_entry:g} left of -L={-config.L:g}")

    # Leg 2: cross the layer in fast variables.
    band = BandField(system, config.tf, eps)
    integ = _band_integ(config, eps, abs(x_entry) + config.theta + config.L)
    sec = SectionSpec("horizontal", 1.0, direction="up", ident="yhat:1")
    try:
        hit, _ = flow_to_section_traj(band, (x_entry, yhat0), sec, integ)
    except (NoCrossing, DomainExit) as exc:
        raise SlidingCapture(
            f"layer orbit from (x={x_entry:g}, yhat={yhat0:g}) never departed: {exc}"
        ) from exc
    x_dep = float(hit.point[0])
    if x_dep < -config.L:
        raise LeftWindow(
            f"layer orbit departed at x={x_dep:g}, left of -L={-config.L:g}"
        )
    if x_dep > config.theta:
        raise ConditionViolated(
            f"departure abscissa {x_dep:g} exceeds theta={config.theta:g}"
        )

    # Leg 3: climb to the outflow section x = theta.
    sec = SectionSpec("vertical", config.theta, ident="outflow")
    hit, _ = flow_to_section_traj(system.x_plus, (x_dep, eps), sec, config.integ)
    return TransitionResult(y_out=float(hit.point[1]), departure=(x_dep, 1.0))


def upper_transition_map(
    system: FilippovSystem,
    config: TransitionConfig,
    eps: float,
    y_in: float,
) -> TransitionResult:
    """Map {x = -rho, y = y_in >= eps} to {x = theta} across the layer.

    Three legs: upper field down to the layer roof, the layer flow in fast
    variables to the departure through yhat = 1, and the upper field on to
    the outflow section.
    """
    config.check_eps(eps)
    if y_in < eps * (1.0 - 1e-12):
        raise DomainError(
            f"upper map needs y_in >= eps (got y_in={y_in:g}, eps={eps:g})"
        )

    # Leg 1: descend to the layer roof y = eps.
    x_entry = -config.rho
    if y_in > eps:
        sec = SectionSpec("horizontal", eps, direction="down", ident="roof")
        try:
            hit, _ = flow_to_section_traj(system.x_plus, (-config.rho, y_in),
                                          sec, config.integ)
        except (NoCrossing, DomainExit) as exc:
            raise NoCrossing(
                f"inflow orbit from y_in={y_in:g} never met the layer roof"
            ) from exc
        x_entry = float(hit.point[0])
    return _layer_legs(system, config, eps, x_entry, 1.0)


def lower_transition_map(
    system: FilippovSystem,
    config: TransitionConfig,
    eps: float,
    y_in: float,
) -> TransitionResult:
    """Map {x = -rho, y = y_in < eps} to {x = theta} through the layer.

    Orbits starting below the layer ride the lower field up to the floor
    y = -eps first.
    """
    config.check_eps(eps)
    if y_in >= eps:
        raise DomainError(
            f"lower map needs y_in < eps (got y_in={y_in:g}, eps={eps:g})"
        )
    x_entry = -config.rho
    yhat0 = y_in / eps
    if y_in < -eps:
        sec = SectionSpec("horizontal", -eps, direction="up", ident="floor")
        try:
            hit, _ = flow_to_section_traj(system.x_minus, (-config.rho, y_in),
                                          sec, config.integ)
        except (NoCrossing, DomainExit) as exc:
            raise NoCrossing(
                f"lower-field orbit from y_in={y_in:g} never met the layer floor"
            ) from exc
        x_entry = float(hit.point[0])
        yhat0 = -1.0
    return _layer_legs(system, config, eps, x_entry, yhat0)


# --------------------------------------------------------------------------
# scaling fits
# --------------------------------------------------------------------------

@dataclass
class ScalingFit:
    slope: float
    intercept: float
    r2: float
    n_points: int
    predicted: Optional[float] = None
    rel_dev: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "n_points": self.n_points,
            "predicted": self.predicted,
            "rel_dev": self.rel_dev,
        }


def fit_line(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept; returns (slope, intercept, r^2)."""
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def fit_scaling(eps_values: Sequence[float], values: Sequence[float],
                predicted_slope: Optional[float] = None) -> ScalingFit:
    """Least-squares power-law fit log(value) = slope*log(eps) + intercept.

    Needs at least 6 samples spanning at least two decades in eps, and all
    quantities strictly positive.
    """
    e = np.asarray(eps_values, dtype=float)
    v = np.asarray(values, dtype=float)
    if e.shape != v.shape or e.ndim != 1:
        raise ValueError("eps_values and values must be 1-d and equally long")
    if len(e) < 6:
        raise ConditionViolated("scaling fit needs at least 6 samples")
    if np.any(e <= 0) or np.any(v <= 0):
        raise NonPositiveQuantity("scaling fit requires positive eps and values")
    if math.log10(e.max() / e.min()) < 2.0 - 1e-9:
        raise ConditionViolated("eps samples must span at least two decades")
    slope, intercept, r2 = fit_line(np.log(e), np.log(v))
    fit = ScalingFit(slope=slope, intercept=intercept, r2=r2, n_points=len(e))
    if predicted_slope is not None:
        fit.predicted = predicted_slope
        fit.rel_dev = abs(fit.slope - predicted_slope) / abs(predicted_slope)
    return fit


# --------------------------------------------------------------------------
# mirror map at the fold of the upper field with a horizontal line
# --------------------------------------------------------------------------

def mirror_map(system: FilippovSystem, config: TransitionConfig, eps: float,
               x_in: float, psi: Optional[float] = None) -> float:
    """Follow the upper field from (x_in, eps), x_in left of the fold, through
    its dip below y = eps and back up; return the re-crossing abscissa.

    Near the fold the map is a reflection: mirror(x) = -x + 2*psi(eps) + h.o.t.
    """
    if not eps > 0:
        raise NonPositiveQuantity("eps must be positive")
    if psi is None:
        psi = tangency_curve_psi(system, config, eps)
    if x_in >= psi:
        raise DomainError(
            f"mirror map expects x_in left of the fold at psi={psi:g}"
        )
    sec = SectionSpec("horizontal", eps, direction="up", ident="roof")
    try:
        hit, _ = flow_to_section_traj(system.x_plus, (x_in, eps), sec, config.integ)
    except (NoCrossing, DomainExit) as exc:
        raise NoReturn(
            f"orbit from (x={x_in:g}, eps) never re-crossed y = eps"
        ) from exc
    return float(hit.point[0])


def mirror_fixed_point(system: FilippovSystem, config: TransitionConfig,
                       eps: float, delta: float = 1e-3) -> dict:
    """Locate the mirror map's fixed point by extrapolating the midpoint
    (mirror(psi - d) + (psi - d))/2 to d -> 0: the constant coefficient of
    the cubic through the midpoints at d, d/2, d/4 and d/8, fitted by
    ``np.polynomial.polynomial.polyfit``.
    """
    psi = tangency_curve_psi(system, config, eps)
    ds = np.array([delta, delta / 2, delta / 4, delta / 8])
    mids = []
    for d in ds:
        x = psi - d
        mids.append(0.5 * (mirror_map(system, config, eps, x, psi=psi) + x))
    coef = np.polynomial.polynomial.polyfit(ds, np.array(mids), deg=len(ds) - 1)
    fp = float(coef[0])
    return {"psi": psi, "fixed_point": fp, "gap": abs(fp - psi),
            "midpoints": [float(m) for m in mids], "deltas": [float(d) for d in ds]}


# Where, left of the fold, and with which half-step mirror_derivative differences.
MIRROR_OFFSET = 1e-3
MIRROR_STEP = 2.5e-4


def mirror_derivative(system: FilippovSystem, config: TransitionConfig,
                      eps: float) -> float:
    """Centered-difference slope of the mirror map at x = psi - MIRROR_OFFSET."""
    psi = tangency_curve_psi(system, config, eps)
    x0 = psi - MIRROR_OFFSET
    hi = mirror_map(system, config, eps, x0 + MIRROR_STEP, psi=psi)
    lo = mirror_map(system, config, eps, x0 - MIRROR_STEP, psi=psi)
    return (hi - lo) / (2.0 * MIRROR_STEP)

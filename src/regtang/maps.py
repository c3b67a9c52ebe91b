"""Transition maps across the smoothed switching layer near a visible
even-multiplicity contact point.

Geometry (canonical orientation): the contact sits at the origin, the layer
is ``|y| <= eps``, incoming orbits arrive from x < 0 above the layer, ride the
attracting slow set of the layer flow, and leave upward shortly past the
contact at a departure abscissa ``x_eps ~ eta * eps**lambda_star``.

All layer legs are integrated in the fast variables (x, yhat = y/eps) with no
time rescaling back and forth (``_departure``); the outer legs use the zone
fields directly (``_entry``).  ``departure_weight`` holds the order rule and
the weight behind lambda*, for this module and ``blowup``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import Callable, Optional, Sequence, Tuple

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
    RegtangError,
    SlidingCapture,
)
from .fields import FilippovSystem
from .integrate import IntegratorConfig, SectionSpec, brentq, flow_to_section_traj
from .phi import TransitionFunction, order_profile
from .regularize import BandField, SlowManifold

RHO_MAX = 0.3
THETA_MAX = 0.3


def departure_weight(k: int, n: int) -> int:
    """The weight 1 + 2k(n - 1) of the polar-chart rescaling, for a contact
    of order k >= 1 and a smoothing of order n >= max(2, 2k - 1); other
    orders raise ``ConditionViolated``."""
    if k < 1:
        raise ConditionViolated("k must be a positive integer")
    if n < max(2, 2 * k - 1):
        raise ConditionViolated(
            f"smoothness order n={n} below max(2, 2k-1)={max(2, 2 * k - 1)}"
        )
    return 1 + 2 * k * (n - 1)


def lambda_star(k: int, n: int) -> float:
    """Departure-scaling exponent: x_eps = O(eps**lambda_star)."""
    return n / departure_weight(k, n)


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
        ls = lambda_star(self.k, self.n)
        self.tf = order_profile(self.n, self.tf)
        if self.tf.n_class < self.n - 1:
            raise ConditionViolated(
                f"transition function of class {self.tf.n_class} cannot realize order n={self.n}"
            )
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
        _positive(eps)
        if eps ** self.lam >= self.rho:
            raise ConditionViolated(
                f"eps**lam = {eps ** self.lam:g} must stay below rho = {self.rho:g}"
            )


def _positive(eps: float):
    if not eps > 0:
        raise NonPositiveQuantity("eps must be positive")


@dataclass
class TransitionResult:
    y_out: float
    x_departure: float  # where the layer orbit leaves through yhat = 1


# --------------------------------------------------------------------------
# departure abscissa and tangency curve
# --------------------------------------------------------------------------

# the departure leg's target: the band orbit leaves the layer upward
DEPARTURE = SectionSpec("horizontal", 1.0, direction="up", ident="yhat:1")


def _departure(system: FilippovSystem, config: TransitionConfig, eps: float,
               start: Tuple[float, float], span: float,
               error: Callable[[Exception], RegtangError]) -> float:
    """The departure leg: the band flow from ``start`` = (x, yhat) up to
    yhat = 1, within a fast-time budget that grows like span/eps; returns
    where it leaves.  A leg that never gets there raises ``error(exc)``."""
    band = BandField(system, config.tf, eps)
    integ = replace(config.integ, max_time=40.0 * (span + 1.0) / eps + 1000.0)
    try:
        hit, _ = flow_to_section_traj(band, start, DEPARTURE, integ)
    except (NoCrossing, DomainExit) as exc:
        raise error(exc) from exc
    return float(hit.point[0])


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
    y0 = SlowManifold(system, config.tf).m0(-L)
    return _departure(system, config, eps, (-L, y0), L + config.theta,
                      lambda exc: NoExit(f"slow-set orbit never left the layer: {exc}"))


def tangency_curve_psi(system: FilippovSystem, config: TransitionConfig, eps: float) -> float:
    """Root of X2+(x, eps) = 0: where the upper field is tangent to y = eps."""
    _positive(eps)
    f = lambda x: float(system.x_plus.eval(x, eps)[1])
    b = (10.0 * eps) ** (1.0 / (2 * config.k - 1))
    try:  # brentq returns an end where f is 0, and checks the signs
        return float(brentq(f, -b, b))
    except ValueError:
        raise NoRoot(
            f"X2+(x, eps) has no sign change on [{-b:g}, {b:g}] at eps={eps:g}"
        ) from None


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

def _entry(field, config: TransitionConfig, y_in: float, edge: SectionSpec,
           orbit: str) -> float:
    """The entry leg: ``field`` from (-rho, y_in) to the layer's ``edge``;
    returns where it meets it."""
    try:
        hit, _ = flow_to_section_traj(field, (-config.rho, y_in), edge, config.integ)
    except (NoCrossing, DomainExit) as exc:
        raise NoCrossing(f"{orbit} from y_in={y_in:g} never met the layer {edge.ident}") from exc
    return float(hit.point[0])


def _layer_legs(system, config, eps, x_entry, yhat0) -> TransitionResult:
    """Legs 2 and 3 of both transition maps: the layer flow in fast variables
    from (x_entry, yhat0) to the departure through yhat = 1, then the upper
    field on to the outflow section x = theta."""
    if x_entry < -config.L:
        raise LeftWindow(f"layer entry at x={x_entry:g} left of -L={-config.L:g}")

    # Leg 2: cross the layer in fast variables.
    x_dep = _departure(
        system, config, eps, (x_entry, yhat0), abs(x_entry) + config.theta + config.L,
        lambda exc: SlidingCapture(
            f"layer orbit from (x={x_entry:g}, yhat={yhat0:g}) never departed: {exc}"))
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
    return TransitionResult(y_out=float(hit.point[1]), x_departure=x_dep)


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
        roof = SectionSpec("horizontal", eps, direction="down", ident="roof")
        x_entry = _entry(system.x_plus, config, y_in, roof, "inflow orbit")
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
        floor = SectionSpec("horizontal", -eps, direction="up", ident="floor")
        x_entry = _entry(system.x_minus, config, y_in, floor, "lower-field orbit")
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
        return asdict(self)


def fit_line(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept; returns (slope, intercept, r^2).

    On Python floats, from the centred normal equations, every sum taken by
    ``math.fsum``: slope = sum(dx*dy)/sum(dx*dx) with dx = x - mean(x) and
    dy = y - mean(y), and intercept = mean(y) - slope*mean(x).
    """
    xs, ys = [float(v) for v in x], [float(v) for v in y]
    x_bar, y_bar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx, dy = [v - x_bar for v in xs], [v - y_bar for v in ys]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    intercept = y_bar - slope * x_bar
    ss_res = math.fsum((b - (slope * a + intercept)) ** 2 for a, b in zip(xs, ys))
    ss_tot = math.fsum(b * b for b in dy)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2


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
    _positive(eps)
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
    (mirror(psi - d) + (psi - d))/2 to d -> 0: the value at d = 0 of the
    cubic through the midpoints at d, d/2, d/4 and d/8, by Neville's table
    on Python floats, its columns in that order.
    """
    psi = tangency_curve_psi(system, config, eps)
    ds = [delta, delta / 2, delta / 4, delta / 8]
    mids = []
    for d in ds:
        x = psi - d
        mids.append(0.5 * (mirror_map(system, config, eps, x, psi=psi) + x))
    p = list(mids)
    for k in range(1, len(ds)):
        for i in range(len(ds) - k):
            p[i] = (ds[i] * p[i + 1] - ds[i + k] * p[i]) / (ds[i] - ds[i + k])
    fp = p[0]
    return {"psi": psi, "fixed_point": fp, "gap": abs(fp - psi), "midpoints": mids,
            "deltas": ds}


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

"""Ready-made two-zone systems: the local normal form at a visible even
contact, and a global example whose sliding cycle grazes the switching line.
"""

from __future__ import annotations

import inspect
import math
from typing import Optional

import numpy as np

from .errors import BadValuation, ConditionViolated
from .fields import FilippovSystem, PlanarField, field_from_polys
from .polys import Poly1, Poly2


def canonical_system(k: int = 1, alpha: float = 1.0,
                     g: Optional[Poly1] = None,
                     theta: Optional[Poly2] = None) -> FilippovSystem:
    """Local normal form: X+ = (1, f), X- = (0, 1), h = y, with

        f(x, y) = alpha*x**(2k-1) + g(x) + y*theta(x, y),

    where g collects the higher-order x-terms and must vanish to order >= 2k
    (it rides above the leading contact term).
    """
    if k < 1:
        raise ConditionViolated("k must be a positive integer")
    if not alpha > 0:
        raise ConditionViolated("alpha must be positive")
    if g is not None and not g.is_zero() and g.valuation() < 2 * k:
        raise BadValuation(
            f"g has valuation {g.valuation()}, below the required 2k = {2 * k}"
        )
    f = Poly2.from_poly1_in_x(Poly1.monomial(2 * k - 1, alpha))
    if g is not None:
        f = f + Poly2.from_poly1_in_x(g)
    if theta is not None:
        f = f + Poly2.y() * theta
    x_plus = field_from_polys(Poly2.const(1), f)
    x_minus = field_from_polys(Poly2.const(0), Poly2.const(1))
    return FilippovSystem(
        x_plus=x_plus, x_minus=x_minus,
        h=Poly2.y(),
        params={"kind": "canonical", "k": k, "alpha": alpha,
                "g": g, "theta": theta},
    )


# --------------------------------------------------------------------------
# global example: an invariant oval grazing the switching line
# --------------------------------------------------------------------------

def _oval_poly(k: int) -> Poly2:
    """H(x, y) = 1 - x**(2k) - (y - 1)**(2k); the oval H = 0 grazes y = 0."""
    one = Poly2.const(1)
    x2k = Poly2.x() ** (2 * k)
    ym1 = Poly2.y() - one
    return one - x2k - ym1 ** (2 * k)


def boundary_cycle_system(k: int = 2) -> FilippovSystem:
    """Upper field with an invariant oval through the contact at the origin:

        X1+ = -x(-1 + x**(2k)) + (-1 + y)**(2k-1) (-1 + x - x y),
        X2+ = x**(2k-1) - (-1 + x**(2k) + (-1 + y)**(2k)) (-1 + y),

    X- = (0, 1), h = y.  The oval 1 - x**(2k) - (y-1)**(2k) = 0 is invariant,
    travelled counterclockwise, and the contact at the origin has multiplicity
    2k with (X+)^(2k) h (0,0) = (2k-1)!.  Requires k > 1 (the oval must meet
    the contact tangentially from the sliding side).
    """
    if k < 2:
        raise ConditionViolated("the grazing-oval example needs k > 1")
    x = Poly2.x()
    y = Poly2.y()
    one = Poly2.const(1)
    ym1 = y - one
    x2k = x ** (2 * k)
    x1p = (x * (one - x2k)) + (ym1 ** (2 * k - 1)) * (x - x * y - one)
    x2p = Poly2.from_poly1_in_x(Poly1.monomial(2 * k - 1)) \
        - (x2k + ym1 ** (2 * k) - one) * ym1
    x_plus = field_from_polys(x1p, x2p)
    x_minus = field_from_polys(Poly2.const(0), Poly2.const(1))
    return FilippovSystem(
        x_plus=x_plus, x_minus=x_minus,
        h=Poly2.y(),
        params={"kind": "boundary-cycle", "k": k, "oval": _oval_poly(k),
                "alpha": 1.0},
    )


def oval_point(k: int, phi: float) -> np.ndarray:
    """Point of the invariant oval at angle parameter phi (counterclockwise,
    phi = -pi/2 is the contact at the origin)."""
    c, s = math.cos(phi), math.sin(phi)
    x = math.copysign(abs(c) ** (1.0 / k), c)
    y = 1.0 + math.copysign(abs(s) ** (1.0 / k), s)
    return np.array([x, y])


def oval_polyline(k: int, n_points: int = 4000) -> np.ndarray:
    phis = np.linspace(-math.pi / 2, 3 * math.pi / 2, n_points, endpoint=True)
    return np.array([oval_point(k, p) for p in phis])


def time_reversed(system: FilippovSystem) -> FilippovSystem:
    """Both zone fields negated; zones keep their labels."""
    def neg(f: PlanarField) -> PlanarField:
        p1, p2 = f.poly_form
        return field_from_polys(-p1, -p2)

    return FilippovSystem(
        x_plus=neg(system.x_plus), x_minus=neg(system.x_minus), h=system.h,
        params={**system.params, "kind": system.params.get("kind", "") + "-reversed"},
    )


SCENARIOS: dict = {
    "canonical": canonical_system,
    "boundary-cycle": boundary_cycle_system,
    "boundary-cycle-reversed": lambda k=2: time_reversed(boundary_cycle_system(k)),
}


def build_scenario(name: str, **kwargs) -> FilippovSystem:
    """The named system, built with ``kwargs``; a key its builder does not
    take is an error, not silently dropped."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        )
    takes = inspect.signature(SCENARIOS[name]).parameters
    unknown = [key for key in kwargs if key not in takes]
    if unknown:
        raise ConditionViolated(
            f"scenario {name!r} does not take {', '.join(unknown)} "
            f"(it takes {', '.join(takes)})"
        )
    return SCENARIOS[name](**kwargs)

"""Planar polynomial fields, the switching function, and Filippov classification.

Zone fields and the switching function h are exact ``Poly2``s; a field's
float evaluation is one straight-line kernel generated from its coefficients,
and Lie derivatives are evaluated from their exact polynomial chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import DegenerateDenominator, UnresolvedContact
from .polys import Poly2, compile_kernel, float_parts, power_lines

Point = Tuple[float, float]


@dataclass
class PlanarField:
    """A smooth planar field given by its exact polynomial components.

    ``eval(x, y)`` is the kernel generated from them at construction; it
    returns the tuple ``(u, v)`` of Python floats.  ``kernel`` is
    ``(eval, ())``, the kernel and the arguments it takes before the state,
    which a DOP853 leg inlines into its step.
    """

    poly_form: Tuple[Poly2, Poly2]

    def __post_init__(self):
        lines, form = float_parts(zip("uv", self.poly_form))
        self.eval = compile_kernel(
            "x, y", power_lines(self.poly_form) + lines + [f"return ({form['u']}, {form['v']})"])
        self.kernel = (self.eval, ())

    def divergence(self) -> Callable[[float, float], float]:
        """The exact divergence as a float kernel."""
        return (self.poly_form[0].diff_x() + self.poly_form[1].diff_y()).compiled()


def field_from_polys(p1: Poly2, p2: Poly2) -> PlanarField:
    return PlanarField(poly_form=(p1, p2))


@dataclass
class FilippovSystem:
    """Two-piece field (x_plus above h > 0, x_minus below) with boundary h = 0."""

    x_plus: PlanarField
    x_minus: PlanarField
    h: Poly2
    params: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lie derivatives and contact classification
# ---------------------------------------------------------------------------

def lie_derivative(f: PlanarField, h: Poly2, order: int, p: Point) -> float:
    """Iterated derivative of h along the flow of f, evaluated at p from its
    exact polynomial chain."""
    if order < 1:
        raise ValueError("order must be >= 1")
    p1, p2 = f.poly_form
    g = h
    for _ in range(order):
        g = p1 * g.diff_x() + p2 * g.diff_y()
    return g(p[0], p[1])


@dataclass(frozen=True)
class ContactInfo:
    multiplicity: int
    visible: Optional[bool]  # None unless the multiplicity is even


def contact_classification(
    f: PlanarField,
    h: Poly2,
    p: Point,
    max_order: int,
    minus_side: bool = False,
) -> ContactInfo:
    """Smallest order with nonvanishing Lie derivative, plus visibility for even order."""
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    v0 = f.eval(p[0], p[1])
    tol = 1e-9 * max(1.0, float(np.hypot(v0[0], v0[1])))
    for order in range(1, max_order + 1):
        val = lie_derivative(f, h, order, p)
        if abs(val) > tol:
            visible = None
            if order % 2 == 0:
                visible = (val < 0) if minus_side else (val > 0)
            return ContactInfo(multiplicity=order, visible=visible)
    raise UnresolvedContact(
        f"all Lie derivatives through order {max_order} below {tol:g} at {p}"
    )


def classify_sigma_point(Z: FilippovSystem, p: Point) -> str:
    """'crossing' / 'sliding' / 'escaping' / 'tangency' at a boundary point."""
    a = lie_derivative(Z.x_plus, Z.h, 1, p)
    b = lie_derivative(Z.x_minus, Z.h, 1, p)
    va = Z.x_plus.eval(p[0], p[1])
    vb = Z.x_minus.eval(p[0], p[1])
    tol_a = 1e-9 * max(1.0, float(np.hypot(va[0], va[1])))
    tol_b = 1e-9 * max(1.0, float(np.hypot(vb[0], vb[1])))
    if abs(a) <= tol_a or abs(b) <= tol_b:
        return "tangency"
    if a * b > 0:
        return "crossing"
    if a < 0 < b:
        return "sliding"
    return "escaping"


def sliding_field(Z: FilippovSystem, p: Point) -> np.ndarray:
    """Boundary field from the convex combination tangent to the switching line."""
    a = lie_derivative(Z.x_plus, Z.h, 1, p)
    b = lie_derivative(Z.x_minus, Z.h, 1, p)
    den = b - a
    xp = np.array(Z.x_plus.eval(p[0], p[1]))
    xm = np.array(Z.x_minus.eval(p[0], p[1]))
    scale = max(1.0, float(np.hypot(*xp)), float(np.hypot(*xm)))
    if abs(den) < 1e-12 * scale:
        raise DegenerateDenominator(f"|X^-h - X^+h| = {abs(den):g} at {p}")
    return (b * xp - a * xm) / den

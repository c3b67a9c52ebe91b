"""Planar vector fields, switching functions, and Filippov classification."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateDenominator,
    PrecisionWarning,
    UnresolvedContact,
)
from .polys import Poly2, compile_kernel, power_lines

Point = Tuple[float, float]


@dataclass
class PlanarField:
    """A smooth planar field, optionally with an exact polynomial form."""

    eval: Callable[[float, float], np.ndarray] = None
    poly_form: Optional[Tuple[Poly2, Poly2]] = None
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.eval is None:
            if self.poly_form is None:
                raise ValueError("PlanarField needs eval or poly_form")
            p1, p2 = self.poly_form
            self.eval = compile_kernel(
                "x, y",
                power_lines(self.poly_form) + p1.float_lines("u") + p2.float_lines("v")
                + ["return array([u, v])"],
                {"array": np.array})

    def __call__(self, x: float, y: float) -> np.ndarray:
        return self.eval(x, y)

    def divergence(self) -> Callable[[float, float], float]:
        """Exact divergence for polynomial fields, central differences otherwise."""
        if self.poly_form is not None:
            d = (self.poly_form[0].diff_x() + self.poly_form[1].diff_y()).compiled()
            return d

        def _div(x: float, y: float, h: float = 1e-6) -> float:
            fx = (self.eval(x + h, y)[0] - self.eval(x - h, y)[0]) / (2 * h)
            fy = (self.eval(x, y + h)[1] - self.eval(x, y - h)[1]) / (2 * h)
            return fx + fy

        return _div


def field_from_polys(p1: Poly2, p2: Poly2, **params) -> PlanarField:
    return PlanarField(poly_form=(p1, p2), params=params)


@dataclass
class SwitchingFunction:
    """Regular boundary function; its zero set is the switching line."""

    h: Callable[[float, float], float]
    grad_h: Callable[[float, float], np.ndarray]
    poly: Optional[Poly2] = None

    @staticmethod
    def vertical_coordinate() -> "SwitchingFunction":
        """The standard h(x, y) = y."""
        return SwitchingFunction(
            h=lambda x, y: y,
            grad_h=lambda x, y: np.array([0.0, 1.0]),
            poly=Poly2.y(),
        )


@dataclass
class FilippovSystem:
    """Two-piece field (x_plus above h > 0, x_minus below) with boundary h."""

    x_plus: PlanarField
    x_minus: PlanarField
    h: SwitchingFunction
    params: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lie derivatives and contact classification
# ---------------------------------------------------------------------------

def _lie_poly_chain(f: PlanarField, h: SwitchingFunction, order: int) -> Poly2:
    p1, p2 = f.poly_form
    g = h.poly
    for _ in range(order):
        g = p1 * g.diff_x() + p2 * g.diff_y()
    return g


def lie_derivative(f: PlanarField, h: SwitchingFunction, order: int, p: Point) -> float:
    """Iterated derivative of h along the flow of f, evaluated at p."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if f.poly_form is not None and h.poly is not None:
        return _lie_poly_chain(f, h, order)(p[0], p[1])

    if order > 3:
        warnings.warn(
            "finite-difference Lie derivatives above order 3 lose precision",
            PrecisionWarning,
            stacklevel=2,
        )

    def level(k: int, q: Point) -> float:
        if k == 0:
            return h.h(q[0], q[1])
        v = f.eval(q[0], q[1])
        nv = float(np.hypot(v[0], v[1]))
        if nv == 0.0:
            return 0.0
        scale = max(1.0, abs(q[0]), abs(q[1]))

        def directional(delta: float) -> float:
            qp = (q[0] + delta * v[0], q[1] + delta * v[1])
            qm = (q[0] - delta * v[0], q[1] - delta * v[1])
            return (level(k - 1, qp) - level(k - 1, qm)) / (2 * delta)

        d = 1e-5 * scale / max(nv, 1e-12) * (10.0 ** (k - 1))
        a, b = directional(d), directional(d / 2)
        return (4 * b - a) / 3  # Richardson extrapolation

    return level(order, p)


@dataclass(frozen=True)
class ContactInfo:
    multiplicity: int
    visible: Optional[bool]  # None unless the multiplicity is even


def contact_classification(
    f: PlanarField,
    h: SwitchingFunction,
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
    xp = Z.x_plus.eval(p[0], p[1])
    xm = Z.x_minus.eval(p[0], p[1])
    scale = max(1.0, float(np.hypot(*xp)), float(np.hypot(*xm)))
    if abs(den) < 1e-12 * scale:
        raise DegenerateDenominator(f"|X^-h - X^+h| = {abs(den):g} at {p}")
    return (b * xp - a * xm) / den

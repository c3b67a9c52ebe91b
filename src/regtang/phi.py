"""Monotone transition functions and their sign-extensions.

A transition function is an odd polynomial ``phi`` on [-1, 1] with
``phi(+-1) = +-1``, ``phi' > 0`` inside, derivatives 1..m vanishing at the
endpoints and a nonzero (m+1)-th derivative there; its extension ``Phi``
equals ``sign(s)`` outside [-1, 1].  The classical polynomial family

    phi_m(x) = (-1)^m (2m+1)! / (2^{2m} (m!)^2) * int_0^x (s^2-1)^m ds

realizes every class; coefficients are kept as exact rationals so endpoint
identities are testable without tolerance.

A smoothing of order n needs a profile whose contact order at 1 is exactly
n: phi(1) = 1, phi^{(j)}(1) = 0 for 0 < j < n and phi^{(n)}(1) != 0.
``phi_bracket_exact`` is that rule, and every constant built from the
bracket reaches it; ``order_profile`` gives phi_{n-1}, the profile of order
n where none is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from .errors import ClassMismatch, ConditionViolated, OutOfRange
from .polys import Poly1, Q


@dataclass(frozen=True)
class TransitionFunction:
    """Odd monotone profile on [-1, 1] plus its saturated extension."""

    n_class: int                      # the m of the smoothness class
    phi_poly: Poly1                   # exact coefficients, ascending degree
    derivs: Tuple[Poly1, ...] = field(default=None, repr=False)  # orders 0..n_class+1

    def __post_init__(self):
        if self.derivs is None:
            ds = [self.phi_poly]
            for _ in range(self.n_class + 1):
                ds.append(ds[-1].diff())
            object.__setattr__(self, "derivs", tuple(ds))

    # -- core profile ----------------------------------------------------------
    def phi(self, s: float) -> float:
        return self.phi_poly(s)

    def deriv(self, order: int, s: float) -> float:
        """phi^{(order)}(s); orders beyond the cached table are differentiated on demand."""
        if order < len(self.derivs):
            return self.derivs[order](s)
        return self.phi_poly.diff(order)(s)

    def deriv_exact(self, order: int, s) -> Fraction:
        if order < len(self.derivs):
            return self.derivs[order].eval_exact(s)
        return self.phi_poly.diff(order).eval_exact(s)

    # -- saturated extension -------------------------------------------------------
    def Phi(self, s: float) -> float:
        if s >= 1.0:
            return 1.0
        if s <= -1.0:
            return -1.0
        return self.phi_poly(s)


def phi_family(m: int) -> TransitionFunction:
    """The degree-(2m+1) odd polynomial profile of smoothness class m."""
    if m < 1:
        raise ConditionViolated(f"m must be a positive integer (got {m})")
    # (s^2 - 1)^m expanded, then integrated term by term from 0.
    core = Poly1([Q(0)])
    for j in range(m + 1):
        c = Q(math.comb(m, j) * (-1) ** (m - j))
        core = core + Poly1([Q(0)] * (2 * j) + [c])
    anti = core.integrate()
    lead = Q((-1) ** m * math.factorial(2 * m + 1), 2 ** (2 * m) * math.factorial(m) ** 2)
    return TransitionFunction(n_class=m, phi_poly=anti.scale(lead))


def order_profile(n: int, tf: Optional[TransitionFunction] = None) -> TransitionFunction:
    """``tf``, or where it is None phi_{n-1}, the profile of contact order n."""
    return phi_family(n - 1) if tf is None else tf


def phi_inverse(tf: TransitionFunction, v: float) -> float:
    """Solve phi(s) = v on (-1, 1); bisection first, Newton polish away from the flats."""
    if not -1.0 < v < 1.0:
        raise OutOfRange(f"phi is invertible only on (-1, 1); got v={v}")
    lo, hi = -1.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tf.phi(mid) < v:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    s = 0.5 * (lo + hi)
    # Near +-1 the derivative vanishes to high order: keep the bisection value.
    if abs(v) <= 0.99:
        for _ in range(3):
            d = tf.deriv(1, s)
            if d <= 0:
                break
            step = (tf.phi(s) - v) / d
            s -= step
            if abs(step) < 1e-16:
                break
        s = min(1.0, max(-1.0, s))
    return s


def phi_bracket_constant(tf: TransitionFunction, theorem_n: int) -> float:
    """Float value of :func:`phi_bracket_exact`."""
    return float(phi_bracket_exact(tf, theorem_n))


def phi_bracket_exact(tf: TransitionFunction, theorem_n: int) -> Fraction:
    """The positive constant (-1)^{n+1} phi^{(n)}(1) / n! of a profile of
    contact order exactly n at 1, as an exact rational.

    This is the order rule: ``ClassMismatch`` where phi^{(n)}(1) = 0, and
    where phi(1) != 1 or a lower derivative phi^{(j)}(1), 0 < j < n, is not 0.
    """
    n = theorem_n
    val = tf.deriv_exact(n, 1)
    if val == 0:
        raise ClassMismatch(f"phi^{{({n})}}(1) = 0: profile is flatter than class n={n}")
    if tf.deriv_exact(0, 1) != 1 or any(tf.deriv_exact(j, 1) for j in range(1, n)):
        raise ClassMismatch("profile has lower contact order at 1 than claimed")
    return Q((-1) ** (n + 1)) * val / math.factorial(n)

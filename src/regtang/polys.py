"""Exact polynomial arithmetic used for Lie derivatives and transition functions.

Two tiny immutable polynomial types built on ``fractions.Fraction``:

* ``Poly1`` — univariate, coefficient list in ascending degree;
* ``Poly2`` — bivariate, sparse map ``(i, j) -> coeff`` for ``x**i * y**j``.

Only the operations the rest of the package needs are implemented (ring
arithmetic, differentiation, evaluation).  Float evaluation of a ``Poly2``
runs straight-line code generated once from its exact coefficients and
memoized on the polynomial (``cached_kernel``), so that integrator
right-hand sides stay cheap; a polynomial that is one literal or name is
written in place (``float_form``).  The same statements are inlined into the fused kernels of
``regtang.regularize``, and a field's kernel into the steppers of
``regtang.integrate``.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Q = Fraction


def _q(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)  # exact binary expansion
    raise TypeError(f"cannot coerce {type(v)!r} to Fraction")


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

# A Horner chain of HORNER_SPLIT or more steps is written as statements of
# HORNER_STEPS steps each (``Poly1.horner``).
HORNER_SPLIT = 200
HORNER_STEPS = 150


class Poly1:
    """Univariate polynomial with exact rational coefficients (ascending)."""

    __slots__ = ("coeffs", "_floats", "_hash")

    def __init__(self, coeffs: Sequence = ()):  # trailing zeros trimmed
        cs = [_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)
        self._floats: Optional[Tuple[float, ...]] = None  # descending, lazy
        self._hash: Optional[int] = None  # lazy: a kernel's memo key hashes it

    # -- basic ring ops ----------------------------------------------------
    def __add__(self, other: "Poly1") -> "Poly1":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1([
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        ])

    def __sub__(self, other: "Poly1") -> "Poly1":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly1") -> "Poly1":
        if not self.coeffs or not other.coeffs:
            return Poly1()
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly1(out)

    def scale(self, c) -> "Poly1":
        c = _q(c)
        return Poly1([c * a for a in self.coeffs])

    # -- calculus ------------------------------------------------------------
    def diff(self, order: int = 1) -> "Poly1":
        p = self
        for _ in range(order):
            p = Poly1([i * c for i, c in enumerate(p.coeffs)][1:])
        return p

    def integrate(self) -> "Poly1":
        """Antiderivative vanishing at 0."""
        return Poly1([Q(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    # -- evaluation ------------------------------------------------------------
    def eval_exact(self, x) -> Fraction:
        x = _q(x)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x: float) -> float:
        fc = self._floats
        if fc is None:
            fc = self._floats = tuple(float(c) for c in reversed(self.coeffs))
        acc = 0.0
        for c in fc:
            acc = acc * x + c
        return acc

    def horner(self, var: str, target: str) -> Tuple[List[str], str]:
        """This polynomial at ``var`` as ``(lines, expr)``, the operations of
        ``__call__`` in its Horner order: ``((-0.5*s)*s + 1.5)*s``.  Zero
        coefficients are skipped, which can only change the sign of a zero
        result.  A chain of fewer than HORNER_SPLIT steps is one expression
        and no line; a longer one assigns ``target`` every HORNER_STEPS
        steps, each statement going on from the last, since an expression
        nests as deep as its steps and the parser stops at 200 levels."""
        cs = [float(c) for c in reversed(self.coeffs)]
        if not cs:
            return [], "0.0"
        lines, expr = [], repr(cs[0])
        for k, c in enumerate(cs[1:]):
            if k and k % HORNER_STEPS == 0 and len(cs) > HORNER_SPLIT:
                lines.append(f"{target} = {expr}")
                expr = target
            expr = (f"({expr})" if k and expr != target else expr) + f"*{var}" + (
                f" + {c!r}" if c else "")
        return lines, expr

    def valuation(self) -> int:
        """Smallest degree with nonzero coefficient (0 for the zero poly)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def monomial(degree: int, coeff=1) -> "Poly1":
        return Poly1([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly1) and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __repr__(self) -> str:
        return f"Poly1({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# bivariate
# ---------------------------------------------------------------------------

class Poly2:
    """Sparse bivariate polynomial ``sum c_{ij} x^i y^j`` over the rationals."""

    __slots__ = ("terms", "_fast", "_hash")

    def __init__(self, terms: Dict[Tuple[int, int], object] | None = None):
        clean: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), c in (terms or {}).items():
            c = _q(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        self.terms = clean
        self._fast: Callable[[float, float], float] | None = None
        self._hash: Optional[int] = None  # lazy: a kernel's memo key hashes it

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def const(c) -> "Poly2":
        return Poly2({(0, 0): c})

    @staticmethod
    def x() -> "Poly2":
        return Poly2({(1, 0): 1})

    @staticmethod
    def y() -> "Poly2":
        return Poly2({(0, 1): 1})

    @staticmethod
    def from_poly1_in_x(p: Poly1) -> "Poly2":
        return Poly2({(i, 0): c for i, c in enumerate(p.coeffs)})

    # -- ring ops -----------------------------------------------------------------
    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Q(0)) + c
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: Dict[Tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Q(0)) + c1 * c2
        return Poly2(out)

    def scale(self, c) -> "Poly2":
        c = _q(c)
        return Poly2({k: c * v for k, v in self.terms.items()})

    def __neg__(self) -> "Poly2":
        return self.scale(-1)

    def pow(self, n: int) -> "Poly2":
        out = Poly2.const(1)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    __pow__ = pow

    # -- calculus ----------------------------------------------------------------
    def diff_x(self) -> "Poly2":
        return Poly2({(i - 1, j): i * c for (i, j), c in self.terms.items() if i > 0})

    def diff_y(self) -> "Poly2":
        return Poly2({(i, j - 1): j * c for (i, j), c in self.terms.items() if j > 0})

    # -- evaluation -----------------------------------------------------------------
    def eval_exact(self, x, y) -> Fraction:
        x, y = _q(x), _q(y)
        acc = Q(0)
        for (i, j), c in self.terms.items():
            acc += c * x**i * y**j
        return acc

    def float_form(self, target: str) -> Tuple[List[str], str]:
        """This polynomial's float value as ``(lines, expr)``.  When it is
        one literal or name (``0.0``, ``1.0``, ``x``, ``x3``), no statement
        and that atom, which a kernel writes in place of a name; else the
        statements that assign it to ``target``, and ``target``.

        The statements read ``x``, ``y`` and the powers ``power_lines``
        defines; the terms are summed left to right in sorted order, each as
        ``c*(x**i*y**j)`` with the coefficient converted here, once.
        """
        terms = []
        for (i, j), c in sorted(self.terms.items()):
            mono = "*".join(_power(v, e) for v, e in (("x", i), ("y", j)) if e)
            cf = float(c)
            if not mono:
                terms.append(repr(cf))
            elif cf in (1.0, -1.0):
                terms.append(("" if cf > 0 else "-") + mono)
            else:
                terms.append(f"({cf!r})*" + (f"({mono})" if "*" in mono else mono))
        if not terms:
            return [], "0.0"
        if len(terms) == 1 and ((0, 0) in self.terms or terms[0].isidentifier()):
            return [], terms[0]
        # Sum in chunks: one expression of thousands of terms overflows the
        # compiler's recursion limit.
        lines = []
        for k in range(0, len(terms), _CHUNK):
            head = [target] if k else []
            lines.append(f"{target} = " + " + ".join(head + terms[k:k + _CHUNK]))
        return lines, target

    def compiled(self) -> Callable[[float, float], float]:
        """Return (and cache) the generated float evaluator ``f(x, y)``,
        memoized on this polynomial (``cached_kernel``)."""
        if self._fast is None:
            def build():
                lines, v = self.float_form("v")
                return "x, y", power_lines([self]) + lines + [f"return {v}"]
            self._fast = cached_kernel(("poly2", self), build)
        return self._fast

    def __call__(self, x: float, y: float) -> float:
        return self.compiled()(x, y)

    # -- structure -----------------------------------------------------------------
    def at_y0(self) -> Poly1:
        """Restriction to y = 0 as a univariate polynomial in x."""
        coeffs: List[Fraction] = []
        for (i, j), c in self.terms.items():
            if j == 0:
                while len(coeffs) <= i:
                    coeffs.append(Q(0))
                coeffs[i] += c
        return Poly1(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self) -> str:
        body = " + ".join(
            f"({c})x^{i}y^{j}" for (i, j), c in sorted(self.terms.items())
        )
        return f"Poly2[{body or '0'}]"


# ---------------------------------------------------------------------------
# straight-line float kernels
# ---------------------------------------------------------------------------

_CHUNK = 64  # terms per summation statement


def _power(var: str, e: int) -> str:
    return var if e == 1 else f"{var}{e}"


def power_lines(polys: Iterable[Poly2]) -> List[str]:
    """Statements ``x3 = x**3`` for every power of degree >= 2 the polynomials use."""
    need = sorted({(v, e) for p in polys for (i, j) in p.terms
                   for v, e in (("x", i), ("y", j)) if e >= 2})
    return [f"{_power(v, e)} = {v}**{e}" for v, e in need]


def float_parts(named: Iterable[Tuple[str, Poly2]]) -> Tuple[List[str], Dict[str, str]]:
    """The statements that assign each ``(name, poly)`` of ``named`` its
    float value, and each name's float form, its atom or the name
    (``Poly2.float_form``)."""
    lines, form = [], {}
    for name, p in named:
        own, form[name] = p.float_form(name)
        lines += own
    return lines, form


KERNEL_CACHE_SIZE = 512  # compiled kernels kept per process, least recently used out
_KERNELS: "OrderedDict[tuple, Callable]" = OrderedDict()


def cached_kernel(key: tuple, build: Callable[[], Tuple[str, Sequence[str]]]) -> Callable:
    """The kernel memoized on ``key``; on a miss ``build()`` gives its
    ``(args, body)``, compiled as ``def _kernel(args): body``.

    The function keeps its source as ``source = (args, body)``, so that a
    caller can inline it (``integrate._inliner``).  Its file name,
    ``<regtang kernel CRC>``, carries the CRC-32 of the source, so that
    profilers, which key a function by file, line and name, keep the kernels
    apart (hashlib would load OpenSSL, about 3 MB of resident memory).
    """
    fn = _KERNELS.get(key)
    if fn is not None:
        _KERNELS.move_to_end(key)
        return fn
    args, body = build()
    src = f"def _kernel({args}):\n" + "".join(f"    {line}\n" for line in body)
    ns: dict = {}
    exec(compile(src, f"<regtang kernel {zlib.crc32(src.encode()):08x}>", "exec"), ns)
    fn = _KERNELS[key] = ns["_kernel"]
    fn.source = (args, tuple(body))
    if len(_KERNELS) > KERNEL_CACHE_SIZE:
        _KERNELS.popitem(last=False)
    return fn

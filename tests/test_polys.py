"""Exact polynomial arithmetic in one and two variables."""

import struct
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st
from pytest import approx

from regtang import Poly1, Poly2
from regtang.polys import cached_kernel

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6)


def p1(coeffs):
    return Poly1([Fraction(c) for c in coeffs])


def _compile(args, body):
    """``def _kernel(args): body``, memoized on its source."""
    return cached_kernel(("test", args, tuple(body)), lambda: (args, body))


def test_eval_exact_matches_float_call():
    p = p1([1, -2, 0, 3])  # 1 - 2x + 3x^3
    assert p.eval_exact(Fraction(1, 2)) == Fraction(1) - 1 + Fraction(3, 8)
    assert p(0.5) == approx(float(p.eval_exact(Fraction(1, 2))))


def test_diff_and_integrate_roundtrip():
    p = p1([5, 0, -1, 2])
    q = p.diff().integrate()
    # integration constant is lost: q + p(0) == p
    assert q + Poly1([p.coeffs[0]]) == p


def test_monomial_degree_valuation():
    m = Poly1.monomial(4, Fraction(7))
    assert m.degree == 4
    assert m.valuation() == 4
    assert m.eval_exact(2) == 112
    assert p1([0, 0, 3, 1]).valuation() == 2
    assert Poly1([Fraction(0)]).is_zero()


@settings(deadline=None, max_examples=40)
@given(coeff_lists, coeff_lists, st.integers(min_value=-5, max_value=5))
def test_product_rule(a, b, x0):
    pa, pb = p1(a), p1(b)
    lhs = (pa * pb).diff()
    rhs = pa.diff() * pb + pa * pb.diff()
    assert lhs.eval_exact(Fraction(x0)) == rhs.eval_exact(Fraction(x0))


@settings(deadline=None, max_examples=40)
@given(coeff_lists, coeff_lists, st.integers(min_value=-5, max_value=5))
def test_addition_is_pointwise(a, b, x0):
    pa, pb = p1(a), p1(b)
    assert (pa + pb).eval_exact(x0) == pa.eval_exact(x0) + pb.eval_exact(x0)
    assert (pa - pb).eval_exact(x0) == pa.eval_exact(x0) - pb.eval_exact(x0)


def test_poly2_constructors_and_eval():
    q = Poly2.x() * Poly2.x() + Poly2.const(Fraction(1, 2)) * Poly2.y()
    assert q.eval_exact(Fraction(2), Fraction(4)) == 6
    assert q(2.0, 4.0) == approx(6.0)


def test_poly2_partial_derivatives():
    # q = x^2 y + 3y^2
    q = Poly2.x().pow(2) * Poly2.y() + Poly2.const(3) * Poly2.y().pow(2)
    assert q.diff_x().eval_exact(2, 5) == 2 * 2 * 5
    assert q.diff_y().eval_exact(2, 5) == 4 + 30


def test_poly2_at_y0_and_lift():
    p = p1([1, 0, -2])
    q = Poly2.from_poly1_in_x(p)
    assert q.eval_exact(3, 99) == p.eval_exact(3)
    back = q.at_y0()
    assert back == p


def test_compiled_matches_exact_on_grid():
    q = Poly2.x().pow(3) - Poly2.y() * Poly2.x() + Poly2.const(Fraction(1, 4))
    fn = q.compiled()
    xs = np.linspace(-2, 2, 9)
    for x in xs:
        assert fn(x, 0.3) == approx(float(q.eval_exact(Fraction(x).limit_denominator(10**12), Fraction(3, 10))), rel=1e-12)


# -- generated float kernels ----------------------------------------------------

def test_equal_polynomials_share_one_kernel_and_build_no_source(monkeypatch):
    # the kernel is memoized on the polynomial: an equal one built anew gets
    # the same function without generating its statements again
    q = Poly2.x().pow(2) * Poly2.y() + Poly2.const(Fraction(1, 3))
    fn = q.compiled()
    twin = Poly2.y() * Poly2.x().pow(2) + Poly2.const(Fraction(1, 3))
    monkeypatch.setattr(Poly2, "float_form", None)  # a build would fail
    assert twin.compiled() is fn


def _old_horner(p, x):
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
sparse_poly2 = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), rationals, max_size=10)
coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(deadline=None, max_examples=150)
@given(sparse_poly2, coords, coords)
@example({}, 0.7, -1.3)
@example({(0, 0): Fraction(-7, 3)}, 1.5, 0.25)
@example({(1, 2): Fraction(13)}, 2.225073858507203e-309, 0.5)  # subnormal x
def test_compiled_matches_eval_exact_within_ulps(terms, x, y):
    q = Poly2(terms)
    X, Y = Fraction(x), Fraction(y)
    exact = q.eval_exact(X, Y)
    magnitude = sum(abs(c * X**i * Y**j) for (i, j), c in q.terms.items())
    # a value that underflows rounds to the subnormal spacing instead, and
    # the factors multiplied in after it scale that error
    tiny = 2.0**-1074 * sum(max(1, abs(c)) * max(1, abs(X))**i * max(1, abs(Y))**j
                            for (i, j), c in q.terms.items())
    got = q.compiled()(x, y)
    assert isinstance(got, float)
    # float(c), each power, each product and each partial sum round once
    ulps = 4 + 2 * len(q.terms)
    assert abs(Fraction(got) - exact) <= ulps * (2.0**-52 * magnitude + tiny)


def test_compiled_sums_many_terms_in_chunks():
    q = (Poly2.x() + Poly2.y() + Poly2.const(Fraction(1, 3))).pow(14)  # 120 terms
    assert len(q.terms) > 64
    exact = float(q.eval_exact(Fraction(1, 4), Fraction(-1, 8)))
    assert q.compiled()(0.25, -0.125) == approx(exact, rel=1e-13)
    wide = Poly2({(i, j): 1 for i in range(100) for j in range(50)})
    assert wide.compiled()(1.0, 1.0) == 5000.0


@settings(deadline=None, max_examples=150)
@given(st.lists(rationals, max_size=14),
       st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_poly1_call_is_bit_identical_to_per_term_float_horner(coeffs, x):
    p = Poly1(coeffs)
    want = struct.pack("<d", _old_horner(p, x))
    assert struct.pack("<d", p(x)) == want
    assert struct.pack("<d", p(x)) == want  # cached coefficients


def _horner_lines(p, var, target):
    """The statement form that ``Poly1.horner`` replaced, kept as its
    reference: one statement per coefficient, zero coefficients skipped."""
    cs = [float(c) for c in reversed(p.coeffs)]
    if not cs:
        return [f"{target} = 0.0"]
    lines = [f"{target} = {cs[0]!r}"]
    for c in cs[1:]:
        lines.append(f"{target} = {target}*{var}" + (f" + {c!r}" if c else ""))
    return lines


@settings(deadline=None, max_examples=60)
@given(st.lists(rationals, max_size=14),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@example([], 0.5)
@example([Fraction(3, 2)], -0.0)
@example([0, Fraction(3, 2), 0, Fraction(-1, 2)], -0.0)
def test_poly1_horner_matches_call(coeffs, x):
    # one expression, the statement form's operations: its bits, the signs
    # of zeros included, and __call__'s value up to the sign of a zero
    p = Poly1(coeffs)
    lines, expr = p.horner("s", "h")
    assert lines == []
    fn = _compile("s", [f"return {expr}"])
    ref = _compile("s", _horner_lines(p, "s", "P") + ["return P"])
    assert struct.pack("<d", fn(x)) == struct.pack("<d", ref(x))
    assert fn(x) == p(x)


def test_poly1_horner_is_one_expression():
    assert Poly1([0, Fraction(3, 2), 0, Fraction(-1, 2)]).horner("s", "h") == (
        [], "((-0.5*s)*s + 1.5)*s")
    assert Poly1([2]).horner("s", "h") == ([], "2.0")
    assert Poly1([]).horner("s", "h") == ([], "0.0")
    # 199 steps still fit the parser's nesting: one expression
    lines, expr = Poly1([1] * 200).horner("s", "h")
    assert lines == [] and expr.count("(") == 198


def test_a_long_horner_chain_is_split_into_statements_bit_for_bit():
    # degree 301: one expression would nest 300 deep, past the parser's 200
    # levels; the split form runs __call__'s operations, so its bits are
    # __call__'s at every point
    import random

    from regtang.polys import HORNER_STEPS

    rng = random.Random(301)
    p = Poly1([Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(302)])
    lines, expr = p.horner("s", "h")
    assert len(lines) == 2 and all(line.startswith("h = ") for line in lines)
    assert max(part.count("*s") for part in lines + [expr]) <= HORNER_STEPS
    fn = _compile("s", lines + [f"return {expr}"])
    for x in [rng.uniform(-1.05, 1.05) for _ in range(2000)] + [0.0, -0.0, 1.0, -1.0]:
        assert struct.pack("<d", fn(x)) == struct.pack("<d", p(x))


def test_kernels_of_different_sources_are_profiled_apart():
    import cProfile
    import io
    import pstats

    double = _compile("x", ["return 2.0 * x"])
    square = _compile("x", ["return x * x"])
    files = {double.__code__.co_filename, square.__code__.co_filename}
    assert len(files) == 2 and all(f.startswith("<regtang kernel ") for f in files)
    profile = cProfile.Profile()
    profile.runcall(lambda: (double(3.0), square(3.0)))
    listed = {file for file, _, name in pstats.Stats(profile, stream=io.StringIO()).stats
              if name == "_kernel"}
    assert listed == files

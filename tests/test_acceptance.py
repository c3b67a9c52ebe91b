"""End-to-end acceptance battery.

Every test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the same condition, so the suite fails loudly if any bar is
missed.  The slow sweeps are shared through module-scoped fixtures.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from pytest import approx

from regtang import (
    BandField,
    IntegratorConfig,
    SectionSpec,
    TransitionConfig,
    cycle_analysis,
    default_bracket,
    departure_coefficient,
    departure_prefactor,
    find_cycle,
    find_x_epsilon,
    fit_scaling,
    flow_to_section_traj,
    grazing_exponent_fit,
    grazing_half_map,
    lambda_star,
    lower_transition_map,
    mirror_derivative,
    mirror_fixed_point,
    phi_bracket_exact,
    phi_family,
    predicted_upper_boundary,
    return_map,
    slow_manifold_sandwich_check,
    tangency_curve_psi,
    unique_root_scan,
    upper_transition_map,
)
from regtang.errors import (
    DomainExit,
    MaxRevolutions,
    NoBracket,
    NoCrossing,
    NoExit,
    NoReturn,
    NotConverged,
)
from regtang.maps import fit_line
from regtang.regularize import SlowManifold
from regtang.scenarios import (
    boundary_cycle_system,
    canonical_system,
    oval_point,
    oval_polyline,
    time_reversed,
)
from regtang import Poly2


PAIRS = {(1, 2): 2.0 / 3.0, (1, 3): 3.0 / 5.0, (2, 3): 1.0 / 3.0, (2, 6): 2.0 / 7.0}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")


# --------------------------------------------------------------------------
# shared sweeps
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scaling_fits():
    """Departure-abscissa power-law fits for the four (k, n) pairs."""
    out = {}
    for (k, n), lam_star in PAIRS.items():
        t0 = time.monotonic()
        sys = canonical_system(k=k)
        # lam only gates admissible eps ranges; the top of the sweep needs
        # the largest admissible exponent
        cfg = TransitionConfig(k=k, n=n, lam=0.999 * lam_star)
        eps_values = np.geomspace(1e-6, 1e-2, 9)
        xs = [find_x_epsilon(sys, cfg, float(e)) for e in eps_values]
        fit = fit_scaling(eps_values, xs, predicted_slope=lam_star)
        out[(k, n)] = {"fit": fit, "seconds": time.monotonic() - t0}
    return out


@pytest.fixture(scope="module")
def cycle_battery():
    """Cycle diagnostics of the grazing-oval example over three eps."""
    t0 = time.monotonic()
    sys = boundary_cycle_system(k=2)
    tf = phi_family(5)
    ref = oval_polyline(2)
    rows = {}
    for eps in (0.02, 0.01, 0.005):
        info = cycle_analysis(sys, tf, eps, reference=ref)
        ret = lambda y: return_map(sys, tf, eps, y).y_out
        roots = unique_root_scan(ret, default_bracket(sys, eps, 0.3), pieces=8)
        rows[eps] = {"info": info, "roots": roots}
    return {"rows": rows, "system": sys, "tf": tf, "reference": ref,
            "seconds": time.monotonic() - t0}


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_criterion_01_departure_scaling_exponent(scaling_fits):
    ok = True
    details = []
    for (k, n), lam_star in PAIRS.items():
        fit = scaling_fits[(k, n)]["fit"]
        secs = scaling_fits[(k, n)]["seconds"]
        dev = abs(fit.slope - lam_star) / lam_star
        good = dev <= 0.05 and fit.r2 >= 0.999 and secs <= 30.0
        ok = ok and good
        details.append(f"({k},{n}) slope={fit.slope:.4f} dev={100 * dev:.2f}% "
                       f"r2={fit.r2:.7f} {secs:.0f}s")
    report(1, ok, "x_eps ~ eps^(n/(1+2k(n-1))): " + "; ".join(details))
    assert ok


def test_departure_law_ratio_tends_to_one_from_above():
    # the paper's leading-order law x_eps ~ eta * eps^lambda*, checked
    # directly against the blow-up constant eta: the ratio r must fall
    # strictly toward 1 as eps -> 0 and stay within 1e-3 of it
    k, n = 1, 2
    lam_star = PAIRS[(k, n)]
    eta = departure_prefactor(k, n)["eta"]
    sys = canonical_system(k=k)
    cfg = TransitionConfig(k=k, n=n, lam=0.999 * lam_star)
    eps_values = [1e-7, 1e-8, 1e-9, 1e-10]
    ratios = [find_x_epsilon(sys, cfg, e) / (eta * e ** lam_star) for e in eps_values]
    # the excess over 1 roughly halves per decade; its exponent is reported,
    # not gated: the paper states no next-order term
    slope, _, _ = fit_line(np.log(eps_values), np.log(np.array(ratios) - 1.0))
    ok = all(1.0 < r < 1.001 for r in ratios) and \
        all(b < a for a, b in zip(ratios, ratios[1:]))
    print(f"[{'PASS' if ok else 'FAIL'}] departure law (1,2): x_eps/(eta eps^lambda*) = "
          + ", ".join(f"{r:.6f}" for r in ratios)
          + f" at eps = 1e-7..1e-10; r - 1 ~ eps^{slope:.3f}")
    assert ok


def test_criterion_02_eta_prefactor_cross_check(scaling_fits):
    ok = True
    details = []
    for k, n in [(1, 2), (2, 3)]:
        fit = scaling_fits[(k, n)]["fit"]
        eta_direct = departure_prefactor(k, n)["eta"]
        eta_fit = float(np.exp(fit.intercept))
        dev = abs(eta_fit - eta_direct) / eta_direct
        ok = ok and dev <= 0.10
        details.append(f"({k},{n}) exp(b)={eta_fit:.4f} vs eta={eta_direct:.4f} "
                       f"dev={100 * dev:.1f}%")
    report(2, ok, "prefactor from fit vs rescaled model: " + "; ".join(details))
    assert ok


def test_criterion_03_fold_abscissa_exponent():
    sys = canonical_system(k=2, theta=Poly2.const(-1))
    cfg = TransitionConfig(k=2, n=6, lam=0.999 * PAIRS[(2, 6)])
    eps_values = np.geomspace(1e-6, 1e-3, 9)
    psis = [tangency_curve_psi(sys, cfg, float(e)) for e in eps_values]
    fit = fit_scaling(eps_values, psis, predicted_slope=1.0 / 3.0)
    dev = abs(fit.slope - 1.0 / 3.0) * 3.0
    above = []
    for e in eps_values:
        above.append(find_x_epsilon(sys, cfg, float(e)) > tangency_curve_psi(sys, cfg, float(e)))
    ok = dev <= 0.02 and all(above)
    report(3, ok, f"psi ~ eps^(1/(2k-1)): slope={fit.slope:.6f} "
                  f"dev={100 * dev:.3f}%; x_eps > psi at all {len(above)} eps: "
                  f"{all(above)}")
    assert ok


def _image_diameter(sys, cfg, eps, side, n_inputs=9):
    if side == "upper":
        y_hi = predicted_upper_boundary(sys, cfg, eps)
        grid = np.linspace(eps, y_hi, n_inputs)
        mapper = upper_transition_map
    else:
        grid = np.linspace(-2.0 * eps, 0.95 * eps, n_inputs)
        mapper = lower_transition_map
    outs = [mapper(sys, cfg, eps, float(y)).y_out for y in grid]
    return float(max(outs) - min(outs)), float(grid[-1] - grid[0])


def test_criterion_04_transition_map_contraction():
    sys = canonical_system(k=1)
    # q = 1 - lam/lambda* = 1/2 with the default lam; integration has to run
    # well below the 1e-10 * length bar to measure the image diameter at all
    cfg = TransitionConfig(k=1, n=2,
                           integ=IntegratorConfig(rtol=1e-12, atol=1e-14))
    eps_values = [1e-2, 4e-3, 1e-3]
    ok = True
    details = []
    for side in ("upper", "lower"):
        diams, lens = [], []
        for eps in eps_values:
            d, l = _image_diameter(sys, cfg, eps, side)
            diams.append(d)
            lens.append(l)
        slope, _, _ = fit_line(np.array([e ** -0.5 for e in eps_values]), np.log(diams))
        # below eps ~ 1e-3 the true diameter (~exp(-c/sqrt(eps))) sinks under
        # the double-precision floor, so the decay is checked as: negative
        # fitted slope, strictly decreasing measured diameters, and the hard
        # diameter bound at the smallest eps
        decreasing = all(a > b for a, b in zip(diams, diams[1:]))
        hard = diams[-1] < 1e-10 * lens[-1]
        good = slope < 0 and decreasing and hard
        ok = ok and good
        details.append(f"{side}: slope={slope:.3f} decreasing={decreasing} "
                       f"diam(1e-3)={diams[-1]:.2e} vs 1e-10*len={1e-10 * lens[-1]:.2e}")
    report(4, ok, "log image diameter falls in eps^-1/2, floor met: "
                  + "; ".join(details))
    assert ok


def test_criterion_05_exact_case_oracles():
    ok = True
    details = []
    for k, n in [(1, 2), (2, 3)]:
        sys = canonical_system(k=k)  # g = theta = 0
        cfg = TransitionConfig(k=k, n=n, lam=0.999 * lambda_star(k, n))
        eps = 1e-3
        theta = cfg.theta
        # grazing-orbit height at the outflow section
        hit = flow_to_section_traj(sys.x_plus, (0.0, 0.0),
                                   SectionSpec("vertical", theta), IntegratorConfig())[0]
        y_bar = float(hit.point[1])
        y_bar_exact = theta ** (2 * k) / (2 * k)
        e1 = abs(y_bar - y_bar_exact)
        # abscissa where the grazing orbit reaches the layer roof
        hit2 = flow_to_section_traj(sys.x_plus, (0.0, 0.0),
                                    SectionSpec("horizontal", eps, direction="up"),
                                    IntegratorConfig())[0]
        x_bar = float(hit2.point[0])
        x_bar_exact = (2 * k * eps) ** (1.0 / (2 * k))
        e2 = abs(x_bar - x_bar_exact)
        # upper-map output against the closed form
        x_eps = find_x_epsilon(sys, cfg, eps)
        lo = upper_transition_map(sys, cfg, eps, eps).y_out
        hi = upper_transition_map(sys, cfg, eps,
                                  predicted_upper_boundary(sys, cfg, eps)).y_out
        width = abs(hi - lo)
        target = y_bar_exact - x_eps ** (2 * k) / (2 * k) + eps
        e3 = abs(lo - target)
        good = e1 <= 1e-8 and e2 <= 1e-8 and e3 <= 1e-8 + width
        ok = ok and good
        details.append(f"k={k}: |y_bar err|={e1:.1e} |x_bar err|={e2:.1e} "
                       f"|map err|={e3:.1e} (width {width:.1e})")
    report(5, ok, "closed forms for g = theta = 0 reproduced: " + "; ".join(details))
    assert ok


def test_criterion_06_transition_family_exact():
    ok = True
    for m in range(1, 7):
        tf = phi_family(m)
        ok = ok and tf.deriv_exact(0, 1) == 1 and tf.deriv_exact(0, -1) == -1
        for i in range(1, m + 1):
            ok = ok and tf.deriv_exact(i, 1) == 0 and tf.deriv_exact(i, -1) == 0
        ok = ok and tf.deriv_exact(m + 1, 1) != 0
        ok = ok and all(tf.deriv_exact(1, Fraction(j, 128)) > 0
                        for j in range(-127, 128))
    ok = ok and phi_family(6).phi_poly.coeffs[1] == Fraction(3003, 1024)
    report(6, ok, "phi_m boundary flatness, interior monotonicity (exact), "
                  "phi_6 leading coefficient 3003/1024")
    assert ok


def test_criterion_07_critical_manifold_and_sandwich():
    sys = canonical_system(k=1)
    tf = phi_family(1)
    sm = SlowManifold(sys, tf)
    c_pred = departure_coefficient(1, 2, 1.0, tf)  # sqrt(4/3)
    xs = np.geomspace(1e-7, 1e-3, 9)
    gaps = [1.0 - sm.m0(-float(x)) for x in xs]
    fit = fit_scaling(xs, gaps)
    c_fit = float(np.exp(fit.intercept))
    dev = abs(c_fit - c_pred) / c_pred
    band = BandField(sys, tf, 1e-4)
    probe = slow_manifold_sandwich_check(band, 1, 2, L=0.3, lam=0.5, K=0.0)
    k_min = probe.K_min
    run = slow_manifold_sandwich_check(band, 1, 2, L=0.3, lam=0.5,
                                       K=k_min * (1 + 1e-9) + 1e-15)
    ok = dev <= 0.02 and run.all_hold and run.upper_all_hold
    report(7, ok, f"1 - m0 ~ C|x|^(1/2): C_fit={c_fit:.6f} vs {c_pred:.6f} "
                  f"(dev {100 * dev:.2f}%); enclosure holds with minimal "
                  f"K={k_min:.4f}; proxy never exceeds m0: {run.upper_all_hold}")
    assert ok


def test_criterion_08_boundary_limit_cycle(cycle_battery):
    sys = cycle_battery["system"]
    tf = cycle_battery["tf"]
    rows = cycle_battery["rows"]
    # static checks on the invariant oval
    div = sys.x_plus.divergence()
    H_res, div_res = [], []
    for phi in np.linspace(0.0, 2 * np.pi, 721):
        x, y = oval_point(2, phi)
        H_res.append(abs(1 - x ** 4 - (y - 1) ** 4))
        div_res.append(abs(div(x, y) + 4.0))
    ok = max(H_res) <= 1e-12 and max(div_res) <= 1e-10
    # fixed point, multipliers, Hausdorff across the eps sweep
    T = 7.416298709240543
    log_target = -4.0 * T
    devs = []
    ratios = []
    for eps in (0.02, 0.01, 0.005):
        info = rows[eps]["info"]
        roots = rows[eps]["roots"]
        ok = ok and len(roots) == 1
        ok = ok and abs(roots[0] - info.fixed_point) <= 1e-8
        ok = ok and info.multiplier < 1.0
        arc = info.as_dict()["log_multiplier_arc"]
        devs.append(abs(arc - log_target) / abs(log_target))
        ratios.append(info.hausdorff_over_eps)
    ok = ok and all(d <= 0.15 for d in devs)
    ok = ok and devs[0] >= devs[1] >= devs[2]  # approaching as eps decreases
    ok = ok and max(ratios) / min(ratios) <= 2.0
    # theorem direction flips with time reversal: no fixed point in the window
    rev = time_reversed(sys)
    try:
        bracket = default_bracket(rev, 0.01, 0.3)
        find_cycle(lambda y: return_map(rev, tf, 0.01, y).y_out, bracket)
        reversed_has_cycle = True
    except (NoBracket, NoReturn, NoCrossing, NoExit, DomainExit,
            MaxRevolutions, NotConverged):
        reversed_has_cycle = False
    ok = ok and not reversed_has_cycle
    secs = cycle_battery["seconds"]
    ok = ok and secs <= 300.0
    report(8, ok, f"oval residual {max(H_res):.1e}, div+4 {max(div_res):.1e}; "
                  f"unique fixed point x3; arc-multiplier devs "
                  f"{[f'{100 * d:.1f}%' for d in devs]} (<=15%, decreasing); "
                  f"d_H/eps spread {max(ratios) / min(ratios):.3f} <= 2; "
                  f"reversed system has no cycle; {secs:.0f}s <= 300s")
    assert ok


def test_criterion_09_mirror_map():
    ok = True
    details = []
    # k = 1: quadratic fold with theta = -1
    sys1 = canonical_system(k=1, theta=Poly2.const(-1))
    cfg1 = TransitionConfig(k=1, n=2)
    d1 = mirror_derivative(sys1, cfg1, 1e-4)
    out1 = mirror_fixed_point(sys1, cfg1, 1e-4)
    good1 = abs(d1 + 1.0) <= 0.01 and abs(out1["gap"]) <= cfg1.integ.event_tol
    ok = ok and good1
    details.append(f"k=1: slope={d1:.6f} gap={out1['gap']:.1e}")
    # k = 2: quartic fold
    sys2 = canonical_system(k=2, theta=Poly2.const(-1))
    cfg2 = TransitionConfig(k=2, n=3)
    d2 = mirror_derivative(sys2, cfg2, 1e-3)
    out2 = mirror_fixed_point(sys2, cfg2, 1e-3, delta=5e-4)
    good2 = abs(d2 + 1.0) <= 0.02 and abs(out2["gap"]) <= cfg2.integ.event_tol
    ok = ok and good2
    details.append(f"k=2: slope={d2:.6f} gap={out2['gap']:.1e}")
    report(9, ok, "reflection slope -1 and fixed point at the fold: "
                  + "; ".join(details))
    assert ok


def test_criterion_10_grazing_half_maps():
    ok = True
    details = []
    # contact exponent and signs on the exactly solvable fields
    for k, offs in [(1, np.geomspace(1e-3, 1e-2, 8)),
                    (2, np.geomspace(0.05, 0.2, 8))]:
        sys = canonical_system(k=k)
        fu = grazing_exponent_fit(sys, 1e-3, 0.0, "unstable", 0.3, 0.3, offsets=offs)
        fs = grazing_exponent_fit(sys, 1e-3, 0.0, "stable", 0.3, 0.3, offsets=offs)
        dev_u = abs(fu["exponent"] - 2 * k) / (2 * k)
        dev_s = abs(fs["exponent"] - 2 * k) / (2 * k)
        good = (dev_u <= 0.025 and dev_s <= 0.025
                and fu["kappa"] < 0 and fs["kappa"] < 0)
        ok = ok and good
        details.append(f"k={k}: p_u={fu['exponent']:.4f} p_s={fs['exponent']:.4f} "
                       f"kappa_u={fu['kappa']:.3f} kappa_s={fs['kappa']:.3f}")
    # kappa^u / kappa^s -> 1 with sections shrinking like the departure scale
    sys = canonical_system(k=2, theta=Poly2.const(-1))
    cfg = TransitionConfig(k=2, n=6)
    ratios = []
    for eps in (1e-4, 1e-5, 1e-6, 3e-7):
        x_eps = find_x_epsilon(sys, cfg, eps)
        psi = tangency_curve_psi(sys, cfg, eps)
        d = 0.5 * (x_eps - psi)
        base_u = grazing_half_map(sys, eps, psi, psi, "unstable", x_eps, x_eps)
        out_u = grazing_half_map(sys, eps, psi + d, psi, "unstable", x_eps, x_eps)
        base_s = grazing_half_map(sys, eps, psi, psi, "stable", x_eps, x_eps)
        out_s = grazing_half_map(sys, eps, psi + d, psi, "stable", x_eps, x_eps)
        ratios.append(abs(out_u - base_u) / abs(out_s - base_s))
    final_dev = abs(ratios[-1] - 1.0)
    monotone = all(abs(a - 1.0) >= abs(b - 1.0) for a, b in zip(ratios, ratios[1:]))
    ok = ok and final_dev <= 0.05 and monotone
    details.append("ratios " + ", ".join(f"{r:.4f}" for r in ratios)
                   + f" -> dev {100 * final_dev:.2f}% at eps=3e-7")
    report(10, ok, "contact exponent 2k, negative kappas, kappa ratio -> 1: "
                   + "; ".join(details))
    assert ok

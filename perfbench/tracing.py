"""Per-layer measurement for the benchmark's traced pass and its L0 probes.

``Tracer`` records a span (name, start, end, parent) around each call into a
regtang module's public functions.  It wraps the module attributes the
callers look up (``regtang.maps.flow_to_section_traj``, ``regtang.cli.flow``,
``regtang.cli.cycle_analysis``, ``regtang.integrate.solve_ivp`` and so on)
and, at class level, ``BandField.eval``, ``RegularizedField.eval`` and the
divergence closures ``RegularizedField.divergence`` returns.  Nothing under
``src/`` is edited; every attribute is restored when the tracer exits.

Right-hand-side evaluations are far too many to keep as spans, so they are
counted and timed in aggregate, and their time inside each integration leg is
stored on the leg's span: a leg's self time is its duration minus that time.
Every other span's self time is its duration minus its child spans.  Work
counts per leg kind are read from the ``Trajectory.segments`` that each leg
returns.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from regtang import cli, cycles, integrate, maps, regularize
from regtang.fields import PlanarField
from regtang.regularize import BandField, RegularizedField

LEG_KINDS = ("band", "reg", "outer")
LEG_COUNTS = ("nfev", "njev", "nlu", "steps", "segments")

# span name -> per-layer metric prefix; each gets <prefix>_s and <prefix>_calls
MAP_SPANS = {
    "maps.find_x_epsilon": "maps.find_x_epsilon",
    "maps.upper_transition_map": "maps.upper_map",
    "maps.lower_transition_map": "maps.lower_map",
    "maps.mirror_map": "maps.mirror_map",
    "maps.tangency_curve_psi": "maps.psi",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "kind", "rhs_s", "counts")

    def __init__(self, name: str, start: float, parent: int):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.kind: Optional[str] = None
        self.rhs_s = 0.0
        self.counts: Optional[Dict[str, int]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self, t0: float) -> dict:
        out = {"name": self.name, "start": self.start - t0, "end": self.end - t0,
               "parent": self.parent}
        if self.kind is not None:
            out.update(kind=self.kind, rhs_s=self.rhs_s, counts=self.counts)
        elif self.counts is not None:
            out["counts"] = self.counts
        return out


def leg_kind(field) -> str:
    """band for BandField, reg for RegularizedField (also inside an augmented
    right-hand side with the divergence), outer for the X+/X- fields."""
    if isinstance(field, BandField):
        return "band"
    if isinstance(field, RegularizedField):
        return "reg"
    if not isinstance(field, PlanarField):
        for cell in getattr(field, "__closure__", None) or ():
            owner = getattr(cell.cell_contents, "__self__", None)
            if isinstance(owner, BandField):
                return "band"
            if isinstance(owner, RegularizedField):
                return "reg"
    return "outer"


def segment_counts(segments) -> Dict[str, int]:
    return {
        "nfev": sum(int(s.nfev) for s in segments),
        "njev": sum(int(s.njev) for s in segments),
        "nlu": sum(int(s.nlu) for s in segments),
        "steps": sum(len(s.t) - 1 for s in segments),
        "segments": len(segments),
    }


class Tracer:
    """Context manager: wraps the regtang boundaries on entry, restores on exit."""

    def __init__(self):
        self.spans: List[Span] = []
        self.t0 = time.perf_counter()
        self._stack: List[int] = []
        self._legs: List[Span] = []
        self.rhs = {"band": [0, 0.0], "reg": [0, 0.0], "div": [0, 0.0]}
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------
    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    # -- wrapping ---------------------------------------------------------------
    def _set(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn: Callable, after=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, out)
            return out

        return wrapper

    def _leg_wrapper(self, name: str, fn: Callable) -> Callable:
        legs = self._legs

        @functools.wraps(fn)
        def wrapper(field, *args, **kwargs):
            span = self._open(name)
            span.kind = leg_kind(field)
            legs.append(span)
            try:
                out = fn(field, *args, **kwargs)
            finally:
                legs.pop()
                self._close(span)
            traj = out[1] if isinstance(out, tuple) else out
            span.counts = segment_counts(traj.segments)
            return out

        return wrapper

    def _wrap(self, modules, attr: str, name: str, leg: bool = False, after=None):
        for mod in modules:
            fn = getattr(mod, attr)
            self._set(mod, attr, self._leg_wrapper(name, fn) if leg
                      else self._span_wrapper(name, fn, after))

    def _timed(self, fn: Callable, stats: list) -> Callable:
        legs, clock = self._legs, time.perf_counter

        def timed(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            stats[0] += 1
            stats[1] += dt
            if legs:
                legs[-1].rhs_s += dt
            return out

        return timed

    def __enter__(self) -> "Tracer":
        mods = (integrate, maps, cycles, regularize)
        self._wrap(mods, "flow_to_section_traj", "integrate.flow_to_section_traj", leg=True)
        self._wrap((integrate, cli), "flow", "integrate.flow", leg=True)
        self._wrap((integrate,), "solve_ivp", "integrate.solve_ivp")
        self._wrap((integrate,), "brentq", "integrate.brentq")
        self._wrap((integrate, cycles, regularize), "sample_dense", "integrate.sample_dense")
        for attr in ("find_x_epsilon", "upper_transition_map", "lower_transition_map",
                     "mirror_map", "tangency_curve_psi"):
            self._wrap((maps,), attr, f"maps.{attr}")
        self._wrap((cycles, cli), "cycle_analysis", "cycles.cycle_analysis")
        self._wrap((cycles,), "return_map", "cycles.return_map")
        self._wrap((cycles,), "find_cycle", "cycles.find_cycle",
                   after=lambda span, res: setattr(span, "counts", {"iters": res.iterations}))
        self._wrap((cycles,), "hausdorff_distance", "cycles.hausdorff_distance")
        self._wrap((cycles,), "grazing_half_map", "cycles.grazing_half_map")
        self._wrap((cli,), "main", "cli.main")

        self._set(BandField, "eval", self._timed(BandField.eval, self.rhs["band"]))
        self._set(RegularizedField, "eval", self._timed(RegularizedField.eval, self.rhs["reg"]))
        divergence, div_stats = RegularizedField.divergence, self.rhs["div"]
        self._set(RegularizedField, "divergence",
                  lambda obj: self._timed(divergence(obj), div_stats))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False

    # -- results -----------------------------------------------------------------
    def span_dicts(self) -> List[dict]:
        return [s.as_dict(self.t0) for s in self.spans]

    def layer_metrics(self, cli_bytes_out: int) -> Dict[str, float]:
        """Per-layer totals of this pass (counts and seconds, before probes)."""
        by_name: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            by_name[s.name][0] += 1
            by_name[s.name][1] += s.seconds
            if s.parent >= 0:
                child_s[s.parent] += s.seconds

        m: Dict[str, float] = {
            "regularize.band_calls": self.rhs["band"][0],
            "regularize.band_s": self.rhs["band"][1],
            "regularize.reg_calls": self.rhs["reg"][0],
            "regularize.reg_s": self.rhs["reg"][1],
            "regularize.div_calls": self.rhs["div"][0],
        }
        legs = [s for s in self.spans if s.kind is not None]
        for kind in LEG_KINDS:
            mine = [s for s in legs if s.kind == kind]
            m[f"integrate.legs.{kind}"] = len(mine)
            for c in LEG_COUNTS:
                m[f"integrate.{c}.{kind}"] = sum(s.counts[c] for s in mine if s.counts)
            m[f"integrate.leg_s.{kind}"] = sum((s.seconds for s in mine), 0.0)
            m[f"integrate.self_s.{kind}"] = sum((s.seconds - s.rhs_s for s in mine), 0.0)
        m["integrate.flow_s"] = by_name["integrate.flow"][1]
        m["integrate.brentq_calls"], m["integrate.brentq_s"] = by_name["integrate.brentq"]
        (m["integrate.sample_dense_calls"],
         m["integrate.sample_dense_s"]) = by_name["integrate.sample_dense"]
        for span_name, prefix in MAP_SPANS.items():
            m[f"{prefix}_calls"], m[f"{prefix}_s"] = by_name[span_name]
        m["cycles.cycle_analysis_s"] = by_name["cycles.cycle_analysis"][1]
        m["cycles.return_map_calls"], m["cycles.return_map_s"] = by_name["cycles.return_map"]
        m["cycles.find_cycle_iters"] = sum(s.counts["iters"] for s in self.spans
                                           if s.name == "cycles.find_cycle" and s.counts)
        m["cycles.hausdorff_s"] = by_name["cycles.hausdorff_distance"][1]
        m["cycles.grazing_half_map_s"] = by_name["cycles.grazing_half_map"][1]
        mains = [i for i, s in enumerate(self.spans) if s.name == "cli.main"]
        m["cli.main_s"] = sum((self.spans[i].seconds for i in mains), 0.0)
        m["cli.self_s"] = sum((self.spans[i].seconds - child_s[i] for i in mains), 0.0)
        m["cli.bytes_out"] = cli_bytes_out
        return m


def fev_per_step(m: Dict[str, float], kind: str) -> float:
    steps = m[f"integrate.steps.{kind}"]
    return m[f"integrate.nfev.{kind}"] / steps if steps else 0.0


# --------------------------------------------------------------------------
# L0 probes: microseconds per call at fixed in-band points
# --------------------------------------------------------------------------

PROBE_X = (-0.3, -0.1, 0.0, 0.05, 0.2)
PROBE_YHAT = (-0.9, -0.3, 0.0, 0.4, 0.9)


def _us_per_call(fn: Callable, points, repeats: int = 7, min_seconds: float = 0.02) -> float:
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for p in points:
                fn(*p)
        if time.perf_counter() - t0 >= min_seconds:
            break
        reps *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(reps):
            for p in points:
                fn(*p)
        samples.append((time.perf_counter() - t0) / (reps * len(points)))
    return 1e6 * statistics.median(samples)


def probe_l0(objs) -> Dict[str, float]:
    """objs: workloads.ProbeObjects of one workload (its system, profile, eps)."""
    eps = objs.eps
    band_pts = [(x, s) for x in PROBE_X for s in PROBE_YHAT]
    orig_pts = [(x, eps * s) for x, s in band_pts]
    return {
        "polys.eval_us": _us_per_call(objs.poly.compiled(), orig_pts),
        "phi.Phi_us": _us_per_call(objs.tf.Phi, [(s,) for s in PROBE_YHAT]),
        "fields.plus_eval_us": _us_per_call(objs.plus.eval, orig_pts),
        "regularize.band_eval_us": _us_per_call(objs.band.eval, band_pts),
        "regularize.reg_eval_us": _us_per_call(objs.reg.eval, orig_pts),
    }

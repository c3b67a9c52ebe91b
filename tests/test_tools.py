"""The repository's measurement tools."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree(path):
    return sorted((d, tuple(sorted(files))) for d, _, files in os.walk(path))


def test_opcount_gives_the_same_counts_on_every_run():
    # two smoke passes of departure count the same bytecodes, generated and
    # other, and the same generated functions run, and leave no file under
    # perfbench/
    before = _tree(os.path.join(ROOT, "perfbench"))
    runs = [json.loads(subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "opcount.py"), "departure", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300).stdout)
        for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["failed"] == 0 and runs[0]["kernel"] > runs[0]["other"] > 0
    assert runs[0]["kernels"] > 0
    assert _tree(os.path.join(ROOT, "perfbench")) == before


def _files(path):
    """Every file under ``path``, by its relative name, with its bytes."""
    out = {}
    for d, _, files in os.walk(path):
        for name in files:
            full = os.path.join(d, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def _repo_files():
    """The repository's files outside git's, caches' and bytecode folders."""
    skip = {".git", ".hypothesis", ".pytest_cache", "__pycache__"}
    return sorted(os.path.join(d, name) for d, _, files in os.walk(ROOT)
                  if not skip.intersection(os.path.relpath(d, ROOT).split(os.sep))
                  for name in files)


def test_identity_set_writes_the_same_files_on_every_run(tmp_path):
    # two runs of the identity set write the same summaries, CSVs, printed
    # output and work counts, byte for byte, with a work.json per case, and
    # no file in the repository
    before = _repo_files()
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    trees = []
    for run in ("a", "b"):
        subprocess.run([sys.executable, os.path.join(ROOT, "tools", "identity_set.py"),
                        str(tmp_path / run)], cwd=tmp_path, env=env, capture_output=True,
                       check=True, timeout=300)
        trees.append(_files(tmp_path / run))
    assert trees[0] == trees[1]
    work = {name: json.loads(text) for name, text in trees[0].items()
            if os.path.basename(name) == "work.json"}
    assert len(work) == 10
    assert all(w["legs"] > 0 and w["nfev"] > 0 for w in work.values())
    assert work[os.path.join("scaling-radau", "work.json")]["njev"] > 0
    assert _repo_files() == before


def test_ladder_runs_one_leg_on_both_steppers():
    # at eps = 1e-2 the leg starts far below the switch: unforced it runs
    # DOP853, and forced onto each stepper every rung lands within a few
    # rtol of the ladder's converged value
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = json.loads(subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ladder.py"), "--k", "1", "--n", "2",
         "--eps", "1e-2"], cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=300).stdout)
    assert out["stepper"] == "dop853" and 80 < out["start_ratio"] < out["STIFF_RATIO"]
    assert out["spread"] < 1e-11
    assert out["dop853"]["default"]["njev"] == 0 < out["radau"]["default"]["njev"]
    for name in ("dop853", "radau"):
        assert len(out[name]["x"]) == len(out["rtols"]) == 4
        assert max(out[name]["rel_dist"]) < 1e-10
        assert all(out[name]["default"][key] > 0 for key in ("nfev", "steps", "ms"))


def test_each_leg_keeps_its_kind(monkeypatch):
    # perfbench/tracing.py files each leg under the kind of the field it
    # integrates: band, reg (the divergence field of the cycle study's
    # revolution too) or outer (a zone field, a plain callable)
    import importlib.util

    from regtang import BandField, RegularizedField, cycles, phi_family
    from regtang.regularize import DivergenceField
    from regtang.scenarios import boundary_cycle_system, canonical_system

    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    system, tf, rate = boundary_cycle_system(k=2), phi_family(5), 0.5
    kinds = [(BandField(canonical_system(k=1), phi_family(1), 1e-3), "band"),
             (RegularizedField(system, tf, 1e-2), "reg"),
             (DivergenceField(system, tf, 1e-2), "reg"),
             (system.x_plus, "outer"),
             (lambda t, p: (rate, p[0]), "outer")]
    assert [tracing.leg_kind(field) for field, _ in kinds] == [kind for _, kind in kinds]
    # as the tracer sees it: the one leg of a revolution with the divergence
    with tracing.Tracer() as tracer:
        cycles.return_map(system, tf, 1e-2, 0.005, with_divergence=True)
    assert [span.kind for span in tracer.spans if span.kind] == ["reg"]

"""Command-line interface: outputs, determinism, and error handling."""

import argparse
import concurrent.futures
import json
import math

import pytest
from pytest import approx

from regtang import errors
from regtang.cli import build_parser, main


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    return code, out, summary


def rows_of(path):
    """CSV data lines (the '# key = value' config echo stripped)."""
    lines = path.read_text().strip().splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


def test_phi_reports_the_cubic_example(tmp_path):
    code, out, summary = run(tmp_path, "phi", "--m", "1")
    assert code == 0
    assert summary["coefficients"] == ["3/2", "0", "-1/2"]
    inv = summary["invariants"]
    assert inv["phi_at_1"] == "1"
    assert inv["phi_at_minus_1"] == "-1"
    assert inv["bracket_constant"] == "3/2"
    assert inv["first_nonvanishing_order"] == 2
    assert inv["phi_prime_positive_on_interior"] is True


def test_phi_m6_leading_coefficient(tmp_path):
    _, _, summary = run(tmp_path, "phi", "--m", "6")
    assert summary["coefficients"][0] == "3003/1024"
    assert summary["invariants"]["bracket_constant"] == "429/16"
    assert summary["degree"] == 13


def test_chart_reference_constants(tmp_path):
    code, out, summary = run(tmp_path, "chart", "--k", "1", "--n", "2")
    assert code == 0
    assert summary["eta"] == approx(1.1213267580217035, rel=1e-10)
    assert summary["u_star"] == approx(1.0187929716474695, rel=1e-10)
    assert summary["lambda_star"] == approx(2.0 / 3.0, rel=1e-12)
    assert summary["x1_star"] == approx(-0.75, rel=1e-12)
    assert summary["lambda1"] == approx(-1.5, rel=1e-12)


def test_scaling_writes_csv_and_fit(tmp_path):
    code, out, summary = run(tmp_path, "scaling", "--k", "1", "--n", "2",
                             "--eps-decades", "1e-4:1e-2", "--points", "6")
    assert code == 0
    data = rows_of(out / "scaling.csv")
    assert data[0] == "eps,x_eps,psi_eps"
    assert len(data) == 7
    assert summary["fit"]["slope"] == approx(2.0 / 3.0, rel=0.05)
    assert summary["fit"]["predicted"] == approx(2.0 / 3.0, rel=1e-12)
    assert summary["fit"]["r2"] > 0.999


def test_scaling_is_deterministic(tmp_path):
    args = ["scaling", "--k", "1", "--n", "2",
            "--eps-decades", "1e-4:1e-2", "--points", "6"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert (out1 / "scaling.csv").read_text() == (out2 / "scaling.csv").read_text()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1 == s2


def test_slow_manifold_sandwich_summary(tmp_path):
    code, out, summary = run(tmp_path, "slow-manifold", "--k", "1", "--n", "2",
                             "--eps", "1e-4", "--lambda", "0.5",
                             "--sandwich-K", "0.5", "--points", "50")
    assert code == 0
    table = rows_of(out / "sandwich.csv")
    assert table[0] == "x,m0,m1,m_proxy,lower_bound"
    assert len(table) == 51
    sw = summary["sandwich"]
    assert sw["holds_with_K"] is True
    assert sw["upper_bound_holds"] is True
    assert sw["K_min"] == approx(0.3479282303137361, rel=1e-5)
    manifold = rows_of(out / "slow-manifold.csv")
    assert manifold[0] == "x,m0,m1"


def test_upper_map_sweep_and_contraction_fit(tmp_path):
    code, out, summary = run(tmp_path, "upper-map", "--k", "1", "--n", "2",
                             "--eps-decades", "1e-3:1e-2", "--points", "5")
    assert code == 0
    data = rows_of(out / "upper-map.csv")
    assert data[0] == "eps,y_in,y_out"
    assert len(data) == 1 + 5 * 5
    rows = summary["contraction"]
    assert len(rows) == 5
    for r in rows:
        assert r["image_diameter"] < 1e-6 * r["input_length"]
    fit = summary["contraction_fit"]
    assert fit["q"] == approx(0.5, rel=1e-12)
    assert fit["slope"] < 0


def test_lower_map_single_eps(tmp_path):
    code, out, summary = run(tmp_path, "lower-map", "--k", "1", "--n", "2",
                             "--eps", "1e-3", "--points", "5")
    assert code == 0
    rows = summary["contraction"]
    assert len(rows) == 1
    assert rows[0]["image_diameter"] < 1e-10
    assert "contraction_fit" not in summary


def test_cycle_run_reports_frozen_values(tmp_path):
    code, out, summary = run(tmp_path, "cycle", "--scenario", "boundary-cycle",
                             "--k", "2", "--phi-m", "5", "--eps", "0.02")
    assert code == 0
    row = summary["rows"][0]
    assert row["fixed_point"] == approx(0.00889532815261209, rel=1e-8)
    assert row["period"] == approx(7.473118409529521, rel=1e-9)
    assert row["log_multiplier"] == approx(-46.03854080400779, rel=1e-6)
    assert row["hausdorff_over_eps"] == approx(0.4917329172723642, rel=1e-5)
    data = rows_of(out / "cycle.csv")
    assert data[0] == ("eps,fixed_point,period,multiplier,log_multiplier,"
                       "multiplier_arc,hausdorff,hausdorff_over_eps")
    # the polyline file is the line-by-line f-string writer's text, byte for byte
    text = (out / "cycle-polyline-0.csv").read_text()
    body = text[text.index("x,y\n"):]
    points = [tuple(map(float, ln.split(","))) for ln in body.splitlines()[1:]]
    assert len(points) == 12000
    assert body == "\n".join(["x,y"] + [f"{x:.17g},{y:.17g}" for x, y in points]) + "\n"


@pytest.mark.parametrize("eps", ["0.002", "0.001"])
def test_cycle_arc_below_the_grazing_height(tmp_path, eps):
    # here the fixed point lies above the roof y = eps, so the revolution
    # re-enters the layer before it departs: the arc closes one period later
    code, _, summary = run(tmp_path, "cycle", "--scenario", "boundary-cycle",
                           "--k", "2", "--phi-m", "5", "--eps", eps)
    assert code == 0
    for row in summary["rows"]:
        assert row["fixed_point"] > row["eps"]
        assert math.isfinite(row["multiplier_arc"]) and row["multiplier_arc"] > 0
        assert 0 < row["t_arc"] < row["period"]


def test_cycle_row_keys(tmp_path):
    code, _, summary = run(tmp_path, "cycle", "--scenario", "boundary-cycle",
                           "--k", "2", "--phi-m", "5", "--eps", "0.02")
    assert code == 0
    assert set(summary["rows"][0]) == {
        "eps", "fixed_point", "period", "multiplier", "log_multiplier",
        "iterations", "hausdorff", "hausdorff_over_eps",
        "multiplier_arc", "log_multiplier_arc", "s_arc", "t_arc",
        "x_departure", "x_reentry",
    }


def test_simulate_records_band_crossings(tmp_path):
    code, out, summary = run(tmp_path, "simulate", "--scenario", "boundary-cycle",
                             "--k", "2", "--phi-m", "5", "--eps", "0.01",
                             "--x0", "0.0", "--y0", "2.0", "--tmax", "6.0")
    assert code == 0
    data = rows_of(out / "simulate.csv")
    assert data[0] == "t,x,y,event"
    names = [ev["section"] for ev in summary["events"]]
    assert "band-roof" in names


def test_simulate_default_n_follows_the_k_the_system_was_built_with(tmp_path):
    argv = ["simulate", "--scenario", "boundary-cycle", "--eps", "0.01", "--tmax", "10"]
    _, out, summary = run(tmp_path / "default", *argv)
    _, out_k2, summary_k2 = run(tmp_path / "k2", *argv, "--k", "2")
    assert rows_of(out / "simulate.csv") == rows_of(out_k2 / "simulate.csv")
    assert summary["steps"] == summary_k2["steps"]


@pytest.mark.parametrize("eps, exit_code", [("1e-3", 2), ("1e-4", 0)])
def test_maps_on_the_grazing_oval_default_to_the_k_the_system_was_built_with(
        tmp_path, capsys, eps, exit_code):
    # without --k and --n the transition config takes the system's k = 2 and
    # n = 2k, as --k 2 --n 4 sets them (at eps = 1e-3, eps**lam is above rho)
    argv = ["upper-map", "--scenario", "boundary-cycle", "--eps", eps, "--points", "2"]
    runs = []
    for name, extra in (("default", []), ("k2n4", ["--k", "2", "--n", "4"])):
        out = tmp_path / name
        code = main([*argv, *extra, "--out", str(out)])
        printed = capsys.readouterr().out
        csvs = {p.name: rows_of(p) for p in sorted(out.glob("*.csv"))}
        summary = None
        if (out / "summary.json").exists():
            summary = json.loads((out / "summary.json").read_text())
            summary.pop("config")
        runs.append((code, printed if code else None, csvs, summary))
    assert runs[0] == runs[1]
    assert runs[0][0] == exit_code


def test_the_reversed_oval_defaults_to_n_2k_as_the_oval_does(tmp_path, capsys):
    # time reversal keeps the oval, so n = 2k = 4 and the profile phi_3; the
    # run then stops on the reversed system's own fault, its repelling slow set
    from regtang.cli import _profile
    from regtang.scenarios import build_scenario

    assert _profile({}, build_scenario("boundary-cycle-reversed")).n_class == 3
    argv = ["slow-manifold", "--scenario", "boundary-cycle-reversed", "--eps", "1e-3"]
    printed = []
    for extra in ([], ["--n", "4"]):
        assert main([*argv, *extra, "--out", str(tmp_path)]) == 2
        printed.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1]))
    assert printed[0] == printed[1]
    assert printed[0]["error"]["type"] == "DomainError"
    assert "slow set undefined" in printed[0]["error"]["message"]


def test_scenario_key_the_system_does_not_take_exits_2_with_json(capsys):
    code = main(["simulate", "--scenario", "boundary-cycle", "--alpha", "3"])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert issubclass(getattr(errors, err["error"]["type"]), errors.RegtangError)
    assert "alpha" in err["error"]["message"]


def test_errors_exit_2_with_json(capsys):
    code = main(["chart", "--k", "0", "--n", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "ConditionViolated"


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[global]\nk = 1\nn = 2\n\n[phi]\nm = 2\n")
    out = tmp_path / "o1"
    code = main(["phi", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    s = json.loads((out / "summary.json").read_text())
    assert s["config"]["m"] == 2
    assert s["m"] == 2
    out2 = tmp_path / "o2"
    code = main(["phi", "--config", str(cfgfile), "--m", "3", "--out", str(out2)])
    assert code == 0
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s2["m"] == 3
    assert s2["coefficients"] != s["coefficients"]


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[global]\nbogus = 1\n")
    code = main(["phi", "--config", str(cfgfile)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "bogus" in err["error"]["message"]


def test_stdout_mode_prints_summary(capsys):
    code = main(["phi", "--m", "1"])
    assert code == 0
    text = capsys.readouterr().out
    assert '"coefficients"' in text


@pytest.mark.parametrize("command", ["simulate", "chart"])
def test_unknown_scenario_exits_2_with_json(command, capsys):
    code = main([command, "--scenario", "nope"])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "RegtangError"
    assert "nope" in err["error"]["message"]


@pytest.mark.parametrize("span", ["1e-3", "-3:-2:1", "a:b"])
def test_malformed_eps_decades_exits_2_with_json(span, capsys):
    code = main(["scaling", f"--eps-decades={span}"])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "RegtangError"
    assert span in err["error"]["message"]


# The flags each subcommand takes besides --out, --workers and --config (the
# README's table), and a sample value for each flag.
SAMPLE = {
    "--scenario": "canonical", "--k": "1", "--alpha": "2.0", "--n": "2",
    "--phi-m": "2", "--m": "2", "--lambda": "0.3", "--rho": "0.3",
    "--theta": "0.3", "--L": "0.3", "--eps": "0.001", "--eps-decades": "-3:-2",
    "--points": "5", "--x0": "0.1", "--y0": "1.5", "--tmax": "2.0",
    "--sigma": "0.1", "--sandwich-K": "0.5",
}
SYSTEM = {"--scenario", "--k", "--alpha"}
TCFG = {"--k", "--n", "--phi-m", "--lambda", "--rho", "--theta", "--L"}
GRID = {"--eps", "--eps-decades", "--points"}
TAKES = {
    "simulate": SYSTEM | {"--eps", "--n", "--phi-m", "--x0", "--y0", "--tmax"},
    "scaling": SYSTEM | TCFG | GRID,
    "upper-map": SYSTEM | TCFG | GRID,
    "lower-map": SYSTEM | TCFG | GRID,
    "slow-manifold": SYSTEM | TCFG | {"--eps", "--points", "--sandwich-K"},
    "chart": {"--k", "--n", "--alpha", "--sigma"},
    "cycle": GRID | {"--scenario", "--k", "--n", "--phi-m", "--rho"},
    "phi": {"--m", "--phi-m"},
}
IGNORED_FLAGS = [(command, flag, value) for command in TAKES
                 for flag, value in SAMPLE.items() if flag not in TAKES[command]]


def test_each_subcommand_takes_exactly_its_flags():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(TAKES)
    for command, parser in subparsers.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags == TAKES[command] | {"-h", "--help", "--out", "--workers", "--config"}


@pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS)
def test_flag_the_command_ignores_exits_2_with_json(command, flag, value, capsys):
    code = main([command, f"{flag}={value}"])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "RegtangError"
    assert flag in err["error"]["message"]
    assert value in err["error"]["message"]


def test_ignored_key_in_the_command_section_is_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[global]\neps = 1e-3\n\n[chart]\nscenario = canonical\n")
    code = main(["chart", "--config", str(cfgfile)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "scenario" in err["error"]["message"]


@pytest.mark.parametrize("command, key", [
    ("simulate", "rho"), ("scaling", "sigma"), ("upper-map", "x0"),
    ("lower-map", "tmax"), ("slow-manifold", "eps_decades"), ("chart", "lam"),
    ("cycle", "alpha"), ("phi", "k"),
])
def test_config_key_the_command_ignores_exits_2_with_json(command, key, tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[{command}]\n{key} = 1\n")
    code = main([command, "--config", str(cfgfile)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"]["type"] == "RegtangError"
    assert repr(key) in err["error"]["message"]


@pytest.mark.parametrize("text", [
    "[phi]\nm = three\n", "[global]\neps = nan\n", "m = 3\n", None,
], ids=["not-an-int", "nan", "no-section", "missing"])
def test_bad_config_file_exits_2_with_json(text, tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    if text is not None:
        cfgfile.write_text(text)
    code = main(["phi", "--config", str(cfgfile)])
    assert code == 2
    out = capsys.readouterr()
    err = json.loads(out.out.strip().splitlines()[-1])
    assert err["error"]["type"] == "RegtangError"
    assert out.err == ""


def test_workers_is_accepted_where_it_is_not_read(tmp_path):
    code, out, summary = run(tmp_path, "simulate", "--scenario", "canonical",
                             "--eps", "1e-2", "--tmax", "0.5", "--workers", "1")
    assert code == 0
    assert summary["config"]["workers"] == 1


def test_a_sweep_starts_no_more_workers_than_rows(tmp_path, monkeypatch):
    started = []

    class InProcessPool:
        """Records its size and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    code, _, summary = run(tmp_path, "upper-map", "--eps-decades=-3:-2", "--points", "3",
                           "--workers", "64")
    assert code == 0 and len(summary["contraction"]) == 3
    assert started == [3]


def test_workers_is_accepted_by_phi(tmp_path):
    code, out, summary = run(tmp_path, "phi", "--m", "3", "--workers", "1")
    assert code == 0
    assert summary["config"] == {"m": 3, "workers": 1}


@pytest.mark.parametrize("argv", [
    ["chart", "--k", "1", "--n", "2", "--bogus", "1"],
    ["phi", "--m", "three"],
    ["cycle", "--eps"],
    ["no-such-command"],
    [],
])
def test_usage_errors_exit_2_with_json(argv, capsys):
    code = main(argv)
    assert code == 2
    out = capsys.readouterr()
    err = json.loads(out.out.strip().splitlines()[-1])
    assert err["error"]["type"] == "RegtangError"
    assert out.err == ""


@pytest.mark.parametrize("argv", [
    ["cycle", "--eps", "0"],
    ["simulate", "--eps", "0"],
    ["simulate", "--eps", "-0.01"],
    ["slow-manifold", "--eps", "0"],
    ["phi", "--m", "0"],
    ["simulate", "--phi-m", "0"],
    ["scaling", "--points", "-1"],
    ["slow-manifold", "--points", "0"],
    ["cycle", "--points", "0", "--eps-decades=-2:-1.7"],
    ["simulate", "--eps", "nan"],
    ["upper-map", "--eps", "nan"],
    ["chart", "--alpha", "nan"],
    ["simulate", "--tmax", "nan"],
    ["simulate", "--x0", "1e155"],
    ["scaling", "--eps-decades=nan:-2"],
    ["scaling", "--workers", "0"],
    ["scaling", "--workers", "-3"],
    # a start past the norm bound, whose RHS would overflow a power
    ["simulate", "--scenario", "boundary-cycle", "--x0", "1e155"],
    ["simulate", "--scenario", "boundary-cycle", "--y0", "1e155"],
    ["simulate", "--scenario", "boundary-cycle-reversed", "--x0", "1e155"],
])
def test_bad_numeric_inputs_exit_2_with_json(argv, capsys):
    code = main(argv)
    assert code == 2
    out = capsys.readouterr()
    err = json.loads(out.out.strip().splitlines()[-1])
    assert issubclass(getattr(errors, err["error"]["type"]), errors.RegtangError)
    assert out.err == ""

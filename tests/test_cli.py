"""Command-line interface: outputs, determinism, and error handling."""

import json

import pytest
from pytest import approx

from regtang.cli import main


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
    assert (out / "cycle-polyline-0.csv").exists()


def test_simulate_records_band_crossings(tmp_path):
    code, out, summary = run(tmp_path, "simulate", "--scenario", "boundary-cycle",
                             "--k", "2", "--phi-m", "5", "--eps", "0.01",
                             "--x0", "0.0", "--y0", "2.0", "--tmax", "6.0")
    assert code == 0
    data = rows_of(out / "simulate.csv")
    assert data[0] == "t,x,y,event"
    names = [ev["section"] for ev in summary["events"]]
    assert "band-roof" in names


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


IGNORED_FLAGS = [
    ("chart", "--scenario", "canonical"),
    ("chart", "--phi-m", "2"),
    ("chart", "--eps", "0.001"),
    ("chart", "--eps-decades", "-3:-2"),
    ("chart", "--points", "5"),
    ("chart", "--rho", "0.3"),
    ("chart", "--theta", "0.3"),
    ("chart", "--lambda", "0.3"),
    ("chart", "--L", "0.3"),
    ("slow-manifold", "--eps-decades", "-3:-2"),
    ("simulate", "--eps-decades", "-3:-2"),
    ("simulate", "--points", "5"),
    ("simulate", "--rho", "0.3"),
    ("simulate", "--theta", "0.3"),
    ("simulate", "--lambda", "0.3"),
    ("simulate", "--L", "0.3"),
    ("cycle", "--alpha", "2.0"),
    ("cycle", "--theta", "0.3"),
    ("cycle", "--lambda", "0.3"),
    ("cycle", "--L", "0.3"),
    ("phi", "--k", "1"),
    ("phi", "--eps", "0.001"),
]


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


def test_workers_is_accepted_where_it_is_not_read(tmp_path):
    code, out, summary = run(tmp_path, "simulate", "--scenario", "canonical",
                             "--eps", "1e-2", "--tmax", "0.5", "--workers", "1")
    assert code == 0
    assert summary["config"]["workers"] == 1


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

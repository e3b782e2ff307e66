import json
import subprocess
import sys
import warnings

import pytest

from nhkit import cli
from nhkit.cli import (
    ScenarioError,
    case_labels,
    report_json,
    run,
    validate_scenario,
)


def test_validate_scenario_rejects_bad_shapes():
    with pytest.raises(ScenarioError):
        validate_scenario([])
    with pytest.raises(ScenarioError):
        validate_scenario({})
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "no-such"})
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "classify", "seed": "zero"})
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "classify", "tolerances": {"x": -1.0}})


def test_classify_scenario_class_k_point():
    report = run(
        {
            "command": "classify",
            "seed": 0,
            "inputs": {"point": {"f": 0, "m": 0, "h": 3, "p": [0, 0], "k": [0, 0], "j": -1}},
        }
    )
    assert report["metrics"]["class"] == "K"
    assert report["metrics"]["dimension"] == 0
    assert all(report["pass"].values())


def test_evolve_scenario_period_closure():
    import math

    report = run(
        {
            "command": "evolve",
            "seed": 0,
            "inputs": {"m": 1.0, "tau": 1.0, "q0": [0, 0], "p0": [1, 0], "t_max": 2 * math.pi, "dt": 1e-3},
        }
    )
    rows = report["csv"]
    assert rows[0] == "t,q1,q2,p1,p2,h,j"
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert all(abs(a - b) <= 1e-6 for a, b in zip(first[1:], last[1:]))
    assert all(report["pass"].values())


def test_orbit_atlas_csv():
    report = run({"command": "orbit-atlas", "seed": 0, "inputs": {}})
    rows = report["csv"]
    assert rows[0] == "f,m,C1,C2,class,dim"
    assert report["metrics"]["rows"] == len(rows) - 1
    assert sum(report["metrics"]["class_counts"].values()) == report["metrics"]["rows"]


def test_group_check_passes():
    report = run({"command": "group-check", "seed": 7, "inputs": {"samples": 150}})
    assert all(report["pass"].values()), report["metrics"]


def test_algebra_check_passes():
    report = run({"command": "algebra-check", "seed": 7, "inputs": {"rank_samples": 30}})
    assert all(report["pass"].values()), report["metrics"]


def test_rep_check_case_f_report_shape():
    report = run(
        {"command": "rep-check", "seed": 3, "inputs": {"case": "f", "samples": 15, "hermite_n": 24}}
    )
    metrics = report["metrics"]
    assert set(metrics) >= {
        "case",
        "unitarity_max",
        "homomorphism_max",
        "generator_residuals",
        "resolution_metrics",
    }
    assert metrics["homomorphism_max"] <= 1e-6
    assert all(report["pass"].values())


def test_rep_check_every_case_smoke():
    sizes = {"a": 24, "b": 64, "c": 64, "d": 48, "e": 48, "f": 24, "g": 24}
    budgets = {"a": 2e-2, "b": 5e-2, "c": 5e-2, "d": 5e-2, "e": 5e-2}
    for case in "abcdefghijk":
        tolerances = {}
        if case in budgets:
            tolerances["homomorphism"] = budgets[case]
        report = run(
            {
                "command": "rep-check",
                "seed": 11,
                "inputs": {"case": case, "samples": 6, "hermite_n": sizes.get(case, 32)},
                "tolerances": tolerances,
            }
        )
        assert all(report["pass"].values()), (case, report["metrics"])


def test_determinism_byte_identical_reports():
    scenario = {"command": "group-check", "seed": 12345, "inputs": {"samples": 60}}
    a = report_json(run(scenario), drop_timing=True)
    b = report_json(run(scenario), drop_timing=True)
    assert a == b
    c = report_json(run({**scenario, "seed": 54321}), drop_timing=True)
    assert a != c


def test_default_labels_cover_all_cases():
    for case in "abcdefghijk":
        labels = case_labels(case)
        assert labels.orbit_class.value.lower() == case


def test_case_labels_from_json_fields():
    assert case_labels("h", {"rho": [1, 0], "kappa": [0, 0.5]}) == case_labels("h")
    assert case_labels("b", {"m": 1, "C3": 1, "C4": 0.7}).kappa1 == 0.0
    with pytest.raises(ScenarioError):
        case_labels("k", {"h": 1.0, "j": 0.0, "jj": 1.0})
    with pytest.raises(ScenarioError):
        case_labels("h", {"rho": [1.0, 0.0]})
    with pytest.raises(ScenarioError):
        case_labels("i", {"kappa_vec": [0.0, -1.0], "C5": 0.7})
    with pytest.raises(ScenarioError):
        case_labels("i", {"kappa": [0.0, -1.0], "C5": "0.7"})


def test_validate_scenario_rejects_unknown_inputs():
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "group-check", "inputs": {"tau": 2.0}})
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "rep-check", "inputs": {"case": "f", "hermit_n": 24}})
    point = {"f": 0, "m": 0, "h": 1, "p": [0, 0], "k": [0, 0], "j": 0}
    validate_scenario({"command": "classify", "inputs": point})
    validate_scenario({"command": "classify", "inputs": {"point": point}})
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "classify", "inputs": {"point": point, "tau": 2.0}})
    assert _cli("group-check", "--tau", "2", "--samples", "1").returncode == 2
    # counts are integers >= 1 (hermite_n >= 4), numbers are finite numbers
    for inputs in (
        {"case": "f", "samples": -5},
        {"case": "f", "grid": 0},
        {"case": "f", "hermite_n": 2},
        {"case": "f", "samples": 2.5},
        {"case": "f", "samples": True},
        {"case": "f", "scale": "abc"},
    ):
        with pytest.raises(ScenarioError):
            validate_scenario({"command": "rep-check", "inputs": inputs})
    for inputs in ({"nodes": 0}, {"roundtrip_nodes": -1}, {"box": "abc"}, {"m": float("nan")}):
        with pytest.raises(ScenarioError):
            validate_scenario({"command": "moyal-check", "inputs": inputs})
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "algebra-check", "inputs": {"rank_samples": 0}})
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "group-check", "inputs": {"taus": ["a"]}})
    # tau is positive inside lists and dual points too, a base is an object, the contraction
    # slope needs two positive speeds with first != last, and rep-check's grid is a multiple of 8
    dual = {"f": 0, "m": 1, "h": 0, "p": [1, 0], "k": [0, 0], "j": 2, "tau": 0}
    base = {"h": 0.3, "p": [1, 0], "k": [0, 0.5], "j": 0.2, "tau": 0}
    for command, inputs in (
        ("group-check", {"taus": [0]}),
        ("classify", {"point": dual}),
        ("classify", dual),
        ("orbit-atlas", {"base": base}),
        ("orbit-atlas", {"base": 3}),
        ("algebra-check", {"contraction_speeds": [100]}),
        ("algebra-check", {"contraction_speeds": [100, 100]}),
        ("algebra-check", {"contraction_speeds": [-1, 10]}),
        ("rep-check", {"case": "h", "grid": 4}),
        ("rep-check", {"case": "h", "grid": 12}),
        ("rep-check", {"case": "b", "grid": 4}),
        ("rep-check", {"case": "b", "grid": 12}),
    ):
        with pytest.raises(ScenarioError):
            validate_scenario({"command": command, "inputs": inputs})
    # a tolerance name the command does not read
    with pytest.raises(ScenarioError):
        validate_scenario({"command": "group-check", "tolerances": {"assoc1ativity": 1e-30}})
    validate_scenario({"command": "group-check", "tolerances": {"associativity": 1e-30}})


def test_rep_check_d_and_e_pass_at_default_inputs():
    for case in "de":
        report = run({"command": "rep-check", "seed": 0, "inputs": {"case": case}})
        assert all(report["pass"].values()), (case, report["metrics"])


def test_rep_check_reports_truncation_only_where_there_is_a_basis():
    for case in "bc":
        metrics = run(
            {"command": "rep-check", "seed": 1, "inputs": {"case": case, "samples": 2, "hermite_n": 32}}
        )["metrics"]
        assert metrics["hermite_n"] == 32
        assert metrics["resolution_metrics"]["max_tail_fraction"] > 0.0
    for case in "hijk":
        metrics = run({"command": "rep-check", "seed": 1, "inputs": {"case": case, "samples": 2}})["metrics"]
        assert metrics["hermite_n"] is None
        assert metrics["resolution_metrics"]["max_tail_fraction"] is None


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nhkit.cli", *args], capture_output=True, text=True
    )


def test_cli_exit_codes(tmp_path):
    # pass -> 0
    out = _cli("classify", "--point", '{"f":0,"m":0,"h":1,"p":[0,0],"k":[0,0],"j":0}')
    assert out.returncode == 0
    json.loads(out.stdout)

    # schema violation -> 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "classify", "seed": "x"}')
    out = _cli("classify", "--scenario", str(bad))
    assert out.returncode == 2
    # malformed JSON in a file or a flag is a scenario error too
    bad.write_text('{"command": "classify",')
    assert _cli("classify", "--scenario", str(bad)).returncode == 2
    assert _cli("rep-check", "--case", "k", "--labels", "{h:1}").returncode == 2
    assert _cli("classify", "--point", "[0,").returncode == 2
    # invalid counts, non-numeric values and unknown tolerance names
    assert _cli("rep-check", "--case", "f", "--samples", "-5").returncode == 2
    assert _cli("group-check", "--samples", "0").returncode == 2
    assert _cli("rep-check", "--case", "f", "--hermite-n", "2").returncode == 2
    assert _cli("moyal-check", "--nodes", "0").returncode == 2
    assert _cli("group-check", "--samples", "1", "--tol", "assoc1ativity=1e-30").returncode == 2
    assert _cli("group-check", "--samples", "1", "--tol", "associativity=abc").returncode == 2
    bad.write_text('{"inputs": {"box": "abc"}}')
    assert _cli("moyal-check", "--scenario", str(bad)).returncode == 2
    # quadrature half-widths are positive: 0 is a zero-width box, -3 mirrors box 3
    assert _cli("moyal-check", "--box", "0").returncode == 2
    assert _cli("moyal-check", "--box=-3").returncode == 2
    bad.write_text('{"inputs": {"roundtrip_box": 0}}')
    assert _cli("moyal-check", "--scenario", str(bad)).returncode == 2
    assert _cli("classify", "--point", '{"f":"x","m":0,"h":1,"p":[0,0],"k":[0,0],"j":0}').returncode == 2
    # the basis scale sqrt(|m| tau) must be positive, and the probe modes 0..kmax must fit in N
    assert _cli("moyal-check", "--tau", "0").returncode == 2
    assert _cli("moyal-check", "--m", "0").returncode == 2
    bad.write_text('{"inputs": {"case": "f", "hermite_n": 8, "probe_kmax": 20}}')
    assert _cli("rep-check", "--scenario", str(bad)).returncode == 2
    # tau inside a list or a dual point, a base that is not an object, and labels that are not
    # finite numbers (a NaN residual would pass every check, since max() drops it)
    bad.write_text('{"inputs": {"taus": [0]}}')
    assert _cli("group-check", "--scenario", str(bad), "--samples", "2").returncode == 2
    assert _cli("classify", "--point", '{"f":0,"m":1,"h":0,"p":[1,0],"k":[0,0],"j":2,"tau":0}').returncode == 2
    bad.write_text('{"inputs": {"base": 3}}')
    assert _cli("orbit-atlas", "--scenario", str(bad)).returncode == 2
    assert _cli("rep-check", "--case", "k", "--labels", '{"h": NaN, "j": 1}', "--samples", "2").returncode == 2
    assert _cli("rep-check", "--case", "f", "--labels", '{"m": Infinity, "C1": 1, "C2": 0}').returncode == 2
    assert _cli("rep-check", "--case", "k", "--labels", '{"h": true, "j": 1}', "--samples", "2").returncode == 2

    # criterion failure -> 1, report still written
    target = tmp_path / "report.json"
    out = _cli(
        "evolve",
        "--tol", "conservation=1e-30",
        "--out", str(target),
    )
    assert out.returncode == 1
    report = json.loads(target.read_text())
    assert report["pass"]["energy_conserved"] is False or report["metrics"]["h_drift"] == 0.0

    # internal error -> 3 (labels violating the stratum blow up inside)
    out = _cli("rep-check", "--case", "a", "--labels", '{"f":1.0,"m":1.0,"C1":1,"C2":0}')
    assert out.returncode == 3


def test_cli_flag_overrides(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"command": "group-check", "seed": 1, "inputs": {"samples": 40}}))
    out_file = tmp_path / "r.json"
    res = _cli("group-check", "--scenario", str(scen), "--seed", "2", "--out", str(out_file))
    assert res.returncode == 0
    report = json.loads(out_file.read_text())
    assert report["scenario"]["seed"] == 2
    assert report["scenario"]["inputs"]["samples"] == 40


def test_cli_csv_out(tmp_path):
    csv_file = tmp_path / "traj.csv"
    res = _cli("evolve", "--csv-out", str(csv_file))
    assert res.returncode == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,h,j"
    assert len(lines) > 100


@pytest.mark.parametrize("command,inputs,inner", [
    ("rep-check", {"case": "d", "samples": 1, "hermite_n": 8}, "case_setup"),
    ("moyal-check", {"samples": 1, "hermite_n": 8, "nodes": 8, "roundtrip_nodes": 8}, "probe_state"),
])
def test_runners_hide_only_resolution_warnings(monkeypatch, command, inputs, inner):
    """The runners silence truncation warnings, which the report measures, and nothing else."""
    wrapped = getattr(cli, inner)

    def warn_then_call(*args, **kwargs):
        warnings.warn("raised inside the runner", RuntimeWarning)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(cli, inner, warn_then_call)
    with pytest.warns(RuntimeWarning, match="inside the runner"):
        run({"command": command, "inputs": inputs})

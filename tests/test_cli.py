import json
import math
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhkit import cli, representations
from nhkit.group import Vec2
from nhkit.representations import CASES
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


def test_report_metadata_records_the_environment():
    """Every report names the interpreter, NumPy, its BLAS, the BLAS thread settings
    and the CPU count, and still serializes to JSON."""
    report = run({"command": "algebra-check"})
    env = report["metadata"]["env"]
    assert set(env) == {"python", "numpy", "blas", "blas_threads", "cpu_count"}
    assert set(env["blas"]) == {"name", "version"}
    assert set(env["blas_threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"}
    assert env["numpy"] == np.__version__ and env["python"] == platform.python_version()
    assert json.loads(report_json(report))["metadata"]["env"] == env
    assert json.loads(report_json(report, drop_timing=True))["metadata"]["env"] == env


def test_report_json_is_strict():
    """A non-finite metric, nested ones included, is written as null and named in
    metadata.nonfinite; NaN or infinity anywhere else raises rather than writing non-JSON."""
    report = {"scenario": {}, "pass": {"x": False}, "metadata": {"wall_time_s": 0.1},
              "metrics": {"a": math.nan, "b": {"c": np.float64(-np.inf), "d": 2.0}, "e": 1.0}}

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    out = json.loads(report_json(report, drop_timing=True), parse_constant=refuse)
    assert out["metrics"] == {"a": None, "b": {"c": None, "d": 2.0}, "e": 1.0}
    assert out["metadata"] == {"nonfinite": ["a", "b.c"]}
    assert json.loads(report_json({**report, "metrics": {"e": 1.0}}))["metadata"]["nonfinite"] == []
    with pytest.raises(ValueError):
        report_json({**report, "scenario": {"m": math.nan}})


def test_default_labels_cover_all_cases():
    assert "".join(CASES) == "abcdefghijk"
    for case in CASES:
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


HUGE = 10**30  # far above every ceiling, so each probe is rejected before anything is allocated


@pytest.mark.parametrize("command,inputs", [
    ("rep-check", {"case": "f", "hermite_n": HUGE}),  # exited 3, "Maximum allowed size exceeded"
    ("rep-check", {"case": "b", "hermite_n": HUGE}),
    ("rep-check", {"case": "f", "probe_kmax": HUGE}),
    ("rep-check", {"case": "h", "probe_kmax": HUGE}),  # read by no case h..k, still checked
    ("rep-check", {"case": "f", "samples": HUGE}),
    ("rep-check", {"case": "b", "grid": 8 * HUGE}),
    ("moyal-check", {"hermite_n": HUGE}),
    ("moyal-check", {"nodes": HUGE}),
    ("moyal-check", {"roundtrip_nodes": HUGE}),
    ("moyal-check", {"samples": HUGE}),
    ("group-check", {"samples": HUGE}),
    ("algebra-check", {"rank_samples": HUGE}),
    ("evolve", {"t_max": 1e300, "dt": 1e-300}),  # the row count is checked before the loop
    ("evolve", {"dt": 1e-300}),
])
def test_sizing_inputs_have_ceilings(command, inputs):
    with pytest.raises(ScenarioError, match="at most|from"):
        run({"command": command, "inputs": inputs})


@pytest.mark.parametrize("inputs", [
    {"contraction_speeds": [1e150, 1e160]},  # c^2 overflows
    {"contraction_speeds": [1e-200, 1e-190]},  # c^2 underflows to 0
    {"tau": 1e160},  # (c tau)^2 overflows at the default speeds
    {"tau": 1e-200},  # (c tau)^2 underflows to 0 at the default speeds
])
def test_algebra_check_rejects_speeds_whose_squares_are_not_positive_finite(inputs):
    """Before the rule these exited 3: log(0) of a zero deviation, or a division by zero."""
    with pytest.raises(ScenarioError, match="square"):
        run({"command": "algebra-check", "inputs": {**inputs, "rank_samples": 1}})


@pytest.mark.parametrize("argv,module,name", [
    (["group-check", "--samples", "2"], cli, "element_distance"),
    (["algebra-check"], cli.algebra, "jacobi_residual"),
])
def test_a_nan_residual_fails_the_check(monkeypatch, argv, module, name):
    """max() keeps a NaN only as its first argument, so a running maximum dropped a NaN draw and
    the check could pass; the second residual is the NaN one."""
    residual = getattr(module, name)
    calls = []

    def nan_once(*args):
        calls.append(args)
        return math.nan if len(calls) == 2 else residual(*args)

    monkeypatch.setattr(module, name, nan_once)
    assert cli.main(argv) == 1
    assert len(calls) > 2


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


def _main(*args):
    return cli.main(list(args))


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    """Exit codes of `main`, called in-process; one subprocess checks the module's entry point."""
    # pass -> 0
    out = _cli("classify", "--point", '{"f":0,"m":0,"h":1,"p":[0,0],"k":[0,0],"j":0}')
    assert out.returncode == 0
    json.loads(out.stdout)
    assert _main("classify", "--point", '{"f":0,"m":0,"h":1,"p":[0,0],"k":[0,0],"j":0}') == 0
    json.loads(capsys.readouterr().out)

    # schema violation -> 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "classify", "seed": "x"}')
    assert _main("classify", "--scenario", str(bad)) == 2
    # malformed JSON in a file or a flag is a scenario error too
    bad.write_text('{"command": "classify",')
    assert _main("classify", "--scenario", str(bad)) == 2
    assert _main("rep-check", "--case", "k", "--labels", "{h:1}") == 2
    assert _main("classify", "--point", "[0,") == 2
    # invalid counts, non-numeric values and unknown tolerance names
    assert _main("rep-check", "--case", "f", "--samples", "-5") == 2
    assert _main("group-check", "--samples", "0") == 2
    assert _main("rep-check", "--case", "f", "--hermite-n", "2") == 2
    assert _main("moyal-check", "--nodes", "0") == 2
    assert _main("group-check", "--samples", "1", "--tol", "assoc1ativity=1e-30") == 2
    assert _main("group-check", "--samples", "1", "--tol", "associativity=abc") == 2
    bad.write_text('{"inputs": {"box": "abc"}}')
    assert _main("moyal-check", "--scenario", str(bad)) == 2
    # quadrature half-widths are positive: 0 is a zero-width box, -3 mirrors box 3
    assert _main("moyal-check", "--box", "0") == 2
    assert _main("moyal-check", "--box=-3") == 2
    bad.write_text('{"inputs": {"roundtrip_box": 0}}')
    assert _main("moyal-check", "--scenario", str(bad)) == 2
    assert _main("classify", "--point", '{"f":"x","m":0,"h":1,"p":[0,0],"k":[0,0],"j":0}') == 2
    # the basis scale sqrt(|m| tau) must be positive, and the probe modes 0..kmax must fit in N
    assert _main("moyal-check", "--tau", "0") == 2
    assert _main("moyal-check", "--m", "0") == 2
    bad.write_text('{"inputs": {"case": "f", "hermite_n": 8, "probe_kmax": 20}}')
    assert _main("rep-check", "--scenario", str(bad)) == 2
    # tau inside a list or a dual point, a base that is not an object, and labels that are not
    # finite numbers (a NaN residual would pass every check, since max() drops it)
    bad.write_text('{"inputs": {"taus": [0]}}')
    assert _main("group-check", "--scenario", str(bad), "--samples", "2") == 2
    assert _main("classify", "--point", '{"f":0,"m":1,"h":0,"p":[1,0],"k":[0,0],"j":2,"tau":0}') == 2
    bad.write_text('{"inputs": {"base": 3}}')
    assert _main("orbit-atlas", "--scenario", str(bad)) == 2
    assert _main("rep-check", "--case", "k", "--labels", '{"h": NaN, "j": 1}', "--samples", "2") == 2
    assert _main("rep-check", "--case", "f", "--labels", '{"m": Infinity, "C1": 1, "C2": 0}') == 2
    assert _main("rep-check", "--case", "k", "--labels", '{"h": true, "j": 1}', "--samples", "2") == 2
    # the algebra tables hold tau^2 and 1/tau^2: 1/tau^2 overflows at 1e-160, tau^2 underflows at 1e-170
    assert _main("algebra-check", "--tau", "1e-160") == 2
    bad.write_text('{"inputs": {"tau": 1e-170, "contraction_speeds": [1e150, 1e154]}}')
    assert _main("algebra-check", "--scenario", str(bad)) == 2
    # a JSON integer too large for a float is not a finite number
    bad.write_text('{"inputs": {"taus": [1' + "0" * 400 + "]}}")
    assert _main("group-check", "--scenario", str(bad), "--samples", "2") == 2
    # the representations hold tau^2 and 1/tau^2 too: these three exited 3 before the rule
    assert _main("rep-check", "--case", "h", "--tau", "1e160", "--samples", "5") == 2
    assert _main("rep-check", "--case", "b", "--tau", "1e-160", "--samples", "2") == 2
    assert _main("moyal-check", "--tau", "1e300", "--samples", "1", "--hermite-n", "8", "--nodes", "8") == 2

    # the oscillator's energy holds tau^2 too
    bad.write_text('{"inputs": {"tau": 1e300, "t_max": 1.0}}')
    assert _main("evolve", "--scenario", str(bad)) == 2
    # labels off their stratum, and labels whose generator coefficients overflow
    assert _main("rep-check", "--case", "a", "--labels", '{"f":1,"m":1,"C1":1,"C2":0}', "--samples", "1",
                 "--hermite-n", "8") == 2
    assert _main("rep-check", "--case", "a", "--labels", '{"f":3,"m":1e300,"C1":1,"C2":0.5}', "--samples", "1",
                 "--hermite-n", "8") == 2
    assert _main("moyal-check", "--m", "1e300", "--samples", "1", "--hermite-n", "8", "--nodes", "8") == 2
    # and labels whose Casimir determinant -2m^2 + 2f^2/tau^2 underflows to 0 (each exited 3, division by zero)
    assert _main("moyal-check", "--m", "1e-300") == 2
    assert _main("moyal-check", "--m", "1e-300", "--tau", "1e5") == 2
    assert _main("rep-check", "--case", "a", "--tau", "1e5", "--labels", '{"f":1e-300,"m":1e-300,"C1":1,"C2":0.5}') == 2
    assert _main("rep-check", "--case", "g", "--labels", '{"f":1e-300,"C1":0.8,"C2":0.4}') == 2
    # the samplers draw from [-scale, scale], whose width NumPy needs finite: -1 and 1e308 exited 3,
    # and 0 drew only identities
    for scale in (-1, 0, 1e308):
        bad.write_text(json.dumps({"inputs": {"case": "f", "scale": scale}}))
        assert _main("rep-check", "--scenario", str(bad)) == 2
    # a scenario file that is missing, a directory or not UTF-8 text exited 3 ("internal error: [Errno 21]")
    capsys.readouterr()
    bad.write_bytes(b'{"inputs": {"tau": "\xff"}}')
    for path in (tmp_path / "missing.json", tmp_path, bad):
        assert _main("algebra-check", "--scenario", str(path)) == 2
        assert str(path) in capsys.readouterr().err
    # an output path that cannot be written exited 1 with a traceback, the code of a failed check
    unwritable = str(tmp_path / "no-such-dir" / "out")
    for flag in ("--out", "--csv-out"):
        assert _main("orbit-atlas", flag, unwritable) == 2
        assert f"{flag} {unwritable}" in capsys.readouterr().err

    # criterion failure -> 1, report still written
    target = tmp_path / "report.json"
    assert _main("evolve", "--tol", "conservation=1e-30", "--out", str(target)) == 1
    report = json.loads(target.read_text())
    assert report["pass"]["energy_conserved"] is False or report["metrics"]["h_drift"] == 0.0

    # internal error -> 3: a stratum error raised while applying the representation is not the scenario's
    def left_the_little_group(*args):
        raise representations.StratumError("induction element left the little group")

    monkeypatch.setattr(cli, "check_case", left_the_little_group)
    assert _main("rep-check", "--case", "b", "--samples", "1") == 3


BASE = {"h": 0.3, "p": [1.0, 0.0], "k": [0.0, 0.5], "j": 0.2}  # an orbit-atlas base, a dual point without f, m


@pytest.mark.parametrize("command,inputs", [
    # the expanding variant's cosh(4/tau) overflows at 1e-3, and its 1/tau^2 at 1e-200
    ("group-check", {"taus": [1e-3], "samples": 1}),
    ("group-check", {"taus": [1.0, 1e-200], "samples": 1}),
    # the invariants hold 1/tau^2, which overflows at 1e-200, and tau^2, which overflows at 1e200
    ("classify", {"point": {"f": 0.5, "m": 1.0, **BASE, "tau": 1e-200}}),
    ("classify", {"point": {"f": 0.5, "m": 1.0, **BASE, "tau": 1e200}}),
    ("orbit-atlas", {"base": {**BASE, "tau": 1e-200}}),
    ("orbit-atlas", {"base": {**BASE, "tau": 1e200}}),
    # cosh(4/tau) is finite at 0.0056301, but the products compose forms overflowed, and
    # associativity_max read NaN
    ("group-check", {"taus": [0.0056301], "samples": 1}),
])
def test_taus_and_dual_point_taus_the_law_cannot_evaluate_exit_2(tmp_path, command, inputs):
    """Each exited 3 before its rule: a math range error, a float division by zero or a result out of range."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"inputs": inputs}))
    assert _main(command, "--scenario", str(scenario)) == 2


# the edges of the float range, a JSON integer too large for a float, other JSON types, and a few
# values every rule accepts, so that some examples run the whole check (2 for the count inputs)
EDGE_VALUES = [0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
               10**400, "1", None, [1.0], True, 0.5, 1.0, 3.0, 2]


@given(
    counts=st.fixed_dictionaries({
        "nodes": st.integers(1, 9), "roundtrip_nodes": st.integers(1, 9), "hermite_n": st.integers(0, 8),
    }),
    # one or two inputs at an edge value, the others at their default
    reals=st.dictionaries(st.sampled_from(["box", "roundtrip_box", "m", "tau"]), st.sampled_from(EDGE_VALUES),
                          min_size=1, max_size=2),
)
@settings(max_examples=300, deadline=None, derandomize=True)  # about 1.5 s of tier-1
def test_moyal_check_inputs_never_exit_3(counts, reals):
    """Any such scenario is rejected (2) or runs to a report (0 or 1), never an internal error
    (3).  Every budget is 1e300, so a metric that is NaN or infinite is the only way to exit 1:
    the test asks for 0 or 2, which also keeps NaN out of every exit-0 report.  NumPy's overflow
    warnings are errors here (pyproject.toml), so an input whose arithmetic overflows reads as 3."""
    budgets = dict.fromkeys(cli.SPECS["moyal-check"][2], 1e300)
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp, "scenario.json"), Path(tmp, "report.json")
        scenario.write_text(json.dumps({"inputs": {"samples": 1, **counts, **reals}, "tolerances": budgets}))
        assert _main("moyal-check", "--scenario", str(scenario), "--out", str(out)) in (0, 2)


def _labels_json(case: str) -> dict:
    """A case's canonical labels as the JSON `labels` input: `kappa` for kappa_vec, 2-lists for vectors."""
    return {("kappa" if key == "kappa_vec" else key): ([value.x1, value.x2] if isinstance(value, Vec2) else value)
            for key, value in CASES[case].labels.items()}


@st.composite
def rep_check_inputs(draw):
    """A small rep-check scenario of any case, with tau, scale or labels at an edge value: a label
    replaced outright, or a vector label's first component."""
    case = draw(st.sampled_from(sorted(CASES)))
    inputs = {"case": case, "hermite_n": draw(st.integers(4, 8)), "probe_kmax": draw(st.integers(0, 3)),
              "samples": draw(st.integers(1, 3))}
    inputs |= draw(st.dictionaries(st.sampled_from(["tau", "scale"]), st.sampled_from(EDGE_VALUES), max_size=2))
    if draw(st.booleans()):
        labels = _labels_json(case)
        for key, value in draw(st.dictionaries(st.sampled_from(sorted(labels)), st.sampled_from(EDGE_VALUES),
                                               min_size=1, max_size=2)).items():
            labels[key] = [value, labels[key][1]] if isinstance(labels[key], list) and draw(st.booleans()) else value
        inputs["labels"] = labels
    return inputs


def _numbers(tree):
    """Every number in a report's metrics, nested dicts included."""
    if isinstance(tree, dict):
        return [x for value in tree.values() for x in _numbers(value)]
    return [tree] if isinstance(tree, float) else []


def _finite_report(text: str) -> bool:
    """Whether a report holds no NaN or infinite metric: none written as null, by
    `metadata.nonfinite`, and none as a number."""
    report = json.loads(text)
    return not report["metadata"]["nonfinite"] and all(math.isfinite(x) for x in _numbers(report["metrics"]))


@given(inputs=rep_check_inputs())
@settings(max_examples=300, deadline=None, derandomize=True)  # about 3 s of tier-1
def test_rep_check_inputs_never_exit_3(inputs):
    """Any such scenario is rejected (2) or runs to a report (0 or 1), never an internal error (3),
    and a report that passes (0) holds no NaN or infinite metric.  A scale of 1e300 is accepted
    and reports NaN residuals, which fail (test_rep_check_nan_residuals_fail), so NumPy's overflow
    warnings on the way there are ignored here.  Labels of A, F and G off their canonical points
    also run the real form of their generators."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scenario, out = Path(tmp, "scenario.json"), Path(tmp, "report.json")
        scenario.write_text(json.dumps({"inputs": inputs}))
        code = _main("rep-check", "--scenario", str(scenario), "--out", str(out))
        assert code in (0, 1, 2)
        if code == 0:
            assert _finite_report(out.read_text())


# inputs that keep each example to milliseconds; edge values then replace one or two inputs
SMALL_INPUTS = {
    "group-check": {"samples": 2}, "algebra-check": {"rank_samples": 1}, "evolve": {"dt": 0.5},
    "classify": {"point": {"f": 0.5, "m": 1.0, **BASE, "tau": 1.0}}, "orbit-atlas": {},
}


def _as_json(value):
    """A default of `cli.SPECS` as its JSON input: 2-lists for vectors."""
    if isinstance(value, Vec2):
        return [value.x1, value.x2]
    return {key: _as_json(v) for key, v in value.items()} if isinstance(value, dict) else value


# Most rules reject the first entries of EDGE_VALUES and accept its last four, so a replaced input
# is drawn from those four as often as from the whole list, and more examples run the whole check
EDGE_EITHER_END = st.booleans().flatmap(lambda accepted: st.sampled_from(EDGE_VALUES[-4:] if accepted else EDGE_VALUES))


def _edge(draw, value, keys=None):
    """An edge value in place of `value`: in an object, one or two of its fields (or of `keys`) at
    an edge value of their own; in a list, one entry (three times in four) or the whole list."""
    if isinstance(value, dict):
        for key in draw(st.lists(st.sampled_from(sorted(keys or value)), min_size=1, max_size=2, unique=True)):
            value = {**value, key: _edge(draw, value.get(key))}
        return value
    if isinstance(value, list) and draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(value) - 1))
        return value[:at] + [draw(EDGE_EITHER_END)] + value[at + 1 :]
    return draw(EDGE_EITHER_END)


@st.composite
def edge_inputs(draw, command):
    """The command's inputs from its `cli.SPECS` table at their defaults (a computed or required
    one left out) and SMALL_INPUTS, with one or two of the table's inputs at an edge value."""
    table = cli.SPECS[command][1]
    inputs = {key: _as_json(default) for key, (_, default) in table.items() if not callable(default)}
    return _edge(draw, inputs | SMALL_INPUTS[command], keys=table)


def _csv_numbers(rows: list[str]) -> list[float]:
    """Every field of the CSV rows after the header that reads as a number."""
    numbers = []
    for field in (field for row in rows[1:] for field in row.split(",")):
        try:
            numbers.append(float(field))
        except ValueError:  # a class letter, or an invariant the class lacks
            pass
    return numbers


@pytest.mark.parametrize("command", sorted(SMALL_INPUTS))
@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)  # about 4 s of tier-1 for the five commands
def test_classical_inputs_never_exit_3(command, data):
    """Any such scenario of group-check, algebra-check, evolve, classify or orbit-atlas is rejected
    (2) or runs to a report (0 or 1), never an internal error (3), and a report that passes (0)
    holds no NaN or infinite metric, invariant or CSV field."""
    inputs = data.draw(edge_inputs(command))
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out, rows = Path(tmp, "scenario.json"), Path(tmp, "report.json"), Path(tmp, "rows.csv")
        scenario.write_text(json.dumps({"inputs": inputs}))
        code = _main(command, "--scenario", str(scenario), "--out", str(out), "--csv-out", str(rows))
        assert code in (0, 1, 2)
        if code == 0:
            assert _finite_report(out.read_text())
            assert not rows.exists() or all(map(math.isfinite, _csv_numbers(rows.read_text().splitlines())))


def test_overflowing_invariants_exit_2(tmp_path, capsys):
    """p = (1e300, 0) puts C1 = p^2 out of float range: classify printed "C1": Infinity, which is not
    JSON, and orbit-atlas wrote inf into its CSV, both with exit 0.  At m = 1e300, tau = 1e10 the
    scale tau |m| overflowed, and a point with m != 0 was put in class H, where m = 0."""
    point = {"f": 0, "m": 1, "h": 0, "p": [1e300, 0], "k": [0, 0], "j": 2, "tau": 1}
    assert _main("classify", "--point", json.dumps(point)) == 2
    assert "classify input 'point'" in capsys.readouterr().err
    assert _main("classify", "--point", json.dumps({**point, "m": 1e300, "p": [1, 0], "tau": 1e10})) == 2
    assert "classify input 'point'" in capsys.readouterr().err
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"inputs": {"base": {key: point[key] for key in ("h", "p", "k", "j", "tau")}}}))
    assert _main("orbit-atlas", "--scenario", str(scenario), "--csv-out", str(tmp_path / "atlas.csv")) == 2
    assert "orbit-atlas input 'base'" in capsys.readouterr().err


def test_evolve_nan_drift_fails(tmp_path, capsys):
    """At m = 5e-324 the energy overflows, so every drift is inf - inf = NaN; a running max() kept
    0.0 and evolve exited 0 with inf and NaN in its CSV rows."""
    assert _main("evolve", "--m", "5e-324", "--csv-out", str(tmp_path / "orbit.csv")) == 1
    report = json.loads(capsys.readouterr().out)  # strict JSON: NaN is written as null and named
    assert report["metrics"]["h_drift"] is None and report["metrics"]["j_drift"] is None
    assert {"h_drift", "j_drift"} <= set(report["metadata"]["nonfinite"])


def test_group_check_finite_at_the_smallest_accepted_tau():
    """At the smallest tau the rule accepts, every residual is finite (the check may still fail)."""
    low, high = 1e-3, 0.5  # rejected, accepted
    while math.nextafter(low, high) < high:
        mid = (low + high) / 2.0
        low, high = (low, mid) if cli._group_check_finite(mid) else (mid, high)
    assert cli._group_check_finite(high) and not cli._group_check_finite(low)
    report = run({"command": "group-check", "seed": 3, "inputs": {"taus": [high], "samples": 300}})
    assert all(math.isfinite(value) for value in report["metrics"].values())
    assert all(cli._group_check_finite(tau) for tau in cli.SPECS["group-check"][1]["taus"][1])


def test_rep_check_nan_residuals_fail(tmp_path, capsys):
    """At scale 1e300 every sampled residual is NaN; a running max() kept 0.0 and the check exited 0."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"inputs": {"case": "f", "scale": 1e300, "samples": 2}}))
    with warnings.catch_warnings():  # NumPy's overflow warnings on the way to the NaN
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _main("rep-check", "--scenario", str(scenario)) == 1
    report = json.loads(capsys.readouterr().out)  # strict JSON: NaN is written as null and named
    assert report["metrics"]["homomorphism_max"] is None and report["metrics"]["unitarity_max"] is None
    assert {"homomorphism_max", "unitarity_max"} <= set(report["metadata"]["nonfinite"])


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
    module = representations if inner == "case_setup" else cli  # rep-check's check_case calls case_setup
    wrapped = getattr(module, inner)

    def warn_then_call(*args, **kwargs):
        warnings.warn("raised inside the runner", RuntimeWarning)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, inner, warn_then_call)
    with pytest.warns(RuntimeWarning, match="inside the runner"):
        run({"command": command, "inputs": inputs})

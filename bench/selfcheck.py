"""The benchmark's own tests.

    python3 bench/selfcheck.py

Run from the repository root; takes about four minutes.  For every
workload it makes two traced runs and two one-round timed runs at one seed,
then checks that

  * both runs of a pair report the same `attempted` and `failed`, and the
    traced pair the same calls, n^3 sum and reuse fractions;
  * every per-layer metric is non-zero on the workload that LOADS names for
    it (README.md, "What each metric should respond to");
  * BENCHMARK.json names exactly the metrics, with the units, that the runs
    print;
  * run.py fails, printing no result, in a directory that holds only
    BENCHMARK.json and bench/ (made under the current directory, removed
    afterwards).

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEED = 20261017

# Workload on which each per-layer metric must be non-zero.
SPAN_LOADS = {
    "group.compose": "classical", "group.inverse": "classical", "group.act_spacetime": "classical",
    "coadjoint.coad": "classical", "coadjoint.classify": "classical",
    "algebra.kirillov_matrix": "classical", "algebra.rank": "classical", "dynamics.evolve": "classical",
    "funcspace.eigh": "hermite2d", "funcspace.op_matrix": "hermite2d", "funcspace.exp_apply": "hermite2d",
    "funcspace.displacement_apply": "grid1d", "funcspace.ladder_build": "grid1d",
    "funcspace.phase_shift_1d": "grid1d",
    "representations.InducedRep2D.apply": "hermite2d", "representations.generator_check": "hermite2d",
    "representations.InducedRepBC.apply": "grid1d", "representations.InducedRepDE.apply": "grid1d",
    "representations.InducedRepHIJ.apply": "grid1d", "representations.rep_k": "grid1d",
    **{f"moyal.{name}": "moyal" for name in (
        "kernel_apply", "kernel_axis_matrix", "covariance_residual", "isotropy_commutator_residual",
        "tri_kernel", "smeared_pair_trace", "weyl_symbol_axis", "reconstruct_axis", "star_product_axis")},
}
LOADS = {
    "funcspace.exp_apply.generator_reuse_frac": "hermite2d",
    # No displacement key repeats on grid1d; moyal's isotropy samples
    # apply the same element twice.
    "funcspace.phase_shift_1d.key_reuse_frac": "moyal",
    "funcspace.resolution_warnings": "grid1d",
    "mem.rss_after_setup_mb": "grid1d",
    "mem.rss_growth_mb": "grid1d",
    "trace.overhead_frac": "classical",
}
DETERMINISTIC_SUFFIXES = (".calls", ".n3_sum", "_reuse_frac", ".resolution_warnings")


def loading_workload(name: str) -> str | None:
    return LOADS.get(name) or SPAN_LOADS.get(name.rsplit(".", 1)[0])


def run(workload: str, trace: int, cwd: Path = Path.cwd()) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            results = []
            for _ in range(2):
                code, result = run(workload, trace)
                if result is None:
                    problems.append(f"{workload} trace={trace}: run.py exited {code}")
                    break
                results.append(result)
            if len(results) < 2:
                continue
            first, second = results
            print(f"{workload} trace={trace}: {first['failed']}/{first['attempted']} failed, correct={first['correct']}")
            if not first["correct"]:
                problems.append(f"{workload} trace={trace}: correct is false")
            if (first["attempted"], first["failed"]) != (second["attempted"], second["failed"]):
                problems.append(f"{workload} trace={trace}: fail counts differ between runs")
            wanted = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in first["metrics"].items()}
            if wanted != got:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if trace == 0:
                zero = [n for n, m in first["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{workload}: end-to-end metrics not positive: {zero}")
                continue
            for name, metric in first["metrics"].items():
                if name.endswith(DETERMINISTIC_SUFFIXES) and metric["value"] != second["metrics"][name]["value"]:
                    problems.append(f"{workload}: {name} differs between runs with the same seed")
                if loading_workload(name) == workload and metric["value"] == 0:
                    problems.append(f"{workload}: {name} is zero on the workload that loads it")
    missing = [m["name"] for m in spec["per_layer"] if not loading_workload(m["name"])]
    if missing:
        problems.append(f"per-layer metrics with no loading workload: {sorted(missing)}")

    with tempfile.TemporaryDirectory(prefix=".selfcheck-", dir=Path.cwd()) as bare:
        bare_dir = Path(bare)
        (bare_dir / "bench").mkdir()
        for path in BENCH.glob("*"):
            if path.is_file():
                (bare_dir / "bench" / path.name).write_bytes(path.read_bytes())
        (bare_dir / "BENCHMARK.json").write_text(json.dumps(spec))
        code, result = run(workloads[0], 0, cwd=bare_dir)
        if code == 0 or result is not None:
            problems.append("run.py succeeded without nhkit sources")

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

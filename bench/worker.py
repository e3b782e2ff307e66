"""One round of one workload, in a fresh process: set-up, then every check.

    python3 bench/worker.py --workload NAME --seed N [--trace | --setup-only]

Run from the repository root; nhkit is imported from `src/` there.  Prints
one JSON object: `time.monotonic()` stamps at set-up end and at the
verified result (the parent subtracts its own stamp taken before the
spawn), RSS after set-up and at peak, and per check its kind, latency,
verdict, exception if any and residuals.  With `--trace` the public
functions of nhkit are wrapped in spans (see tracer.py) and
`ResolutionWarning`s are counted; without it they are ignored, as the CLI
does.  With `--setup-only` the process stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

SRC = Path.cwd() / "src"


def _status_mb(field: str) -> float:
    """VmRSS or VmHWM of this process.  `ru_maxrss` would not do: Linux
    carries it over from the parent across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def _run_checks(checks, tracer) -> list:
    records = []
    for kind, thunk in checks:
        if tracer:
            tracer.enter("check." + kind)
        start = time.perf_counter()
        try:
            pairs, error = thunk(), None
        except Exception as exc:  # a raised check is a failed check; the round goes on
            pairs, error = [], f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.exit()
        values = [float(v) for v, _ in pairs]
        ok = error is None and all(v <= b for v, b in pairs)
        records.append([kind, elapsed, ok, error, values])
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "nhkit" / "__init__.py").is_file():
        print(f"no nhkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import nhkit
    import workloads
    from nhkit.funcspace import ResolutionWarning

    if not Path(nhkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"nhkit imported from {nhkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    resolution_warnings = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if args.trace:
            from tracer import Tracer

            def count(message, category, *rest, **kw):
                nonlocal resolution_warnings
                resolution_warnings += 1

            warnings.simplefilter("always", ResolutionWarning)
            warnings.showwarning = count
            tracer = Tracer()
            tracer.install()
            tracer.enter("setup")
        checks = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
        if tracer:
            tracer.exit()
        setup_end = time.monotonic()
        rss_after_setup = _status_mb("VmRSS")
        records = [] if args.setup_only else _run_checks(checks, tracer)
        end = time.monotonic()
        if tracer:
            tracer.uninstall()
    peak_rss = _status_mb("VmHWM")
    print(json.dumps({
        "setup_end": setup_end,
        "end": end,
        "rss_after_setup_mb": rss_after_setup,
        "peak_rss_mb": peak_rss,
        "resolution_warnings": resolution_warnings,
        "checks": records,
        "trace": tracer.report() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

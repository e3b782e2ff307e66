"""Scenario-driven command-line front end.

Commands: classify, orbit-atlas, evolve, algebra-check, rep-check,
moyal-check, group-check.  A scenario is a JSON object with a `command`,
a `seed`, optional `tolerances` overrides and command-specific `inputs`;
flags mirror scenario fields and override file values.  Reports are JSON
(deterministic for a fixed scenario and seed, modulo the wall-time field);
evolve and orbit-atlas emit CSV rows.

`SPECS` gives each command its runner, a table of the inputs it reads, each
with a parse rule and a default, and a table of the tolerances it reads with
their defaults.  A key the command does not read, or a value its rule
rejects, is a scenario error; the README's CLI section lists the rules.

Exit codes: 0 all criteria pass, 1 criterion failure (report still written),
2 scenario/schema violation, 3 internal error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
import warnings

import numpy as np

from . import __version__, algebra
from .coadjoint import DualPoint, OrbitClass, classify, random_point_in_class
from .dynamics import PhasePoint, angular_momentum, evolve, hamiltonian
from .funcspace import ResolutionWarning, ladder_build, probe_state
from .group import (
    GroupElement,
    Variant,
    Vec2,
    act_spacetime,
    compose,
    element_distance,
    inverse,
    unextended_project,
)
from .moyal import (
    AxisQuadrature,
    covariance_residual,
    isotropy_commutator_residual,
    reconstruct_axis,
    smeared_pair_trace,
    tri_kernel,
    tri_kernel_closed_form,
    weyl_symbol_axis,
)
from .representations import (
    CANONICAL_LABELS,
    HERMITE_N,
    LABEL_FACTORIES,
    PROBE_KMAX,
    InducedRep2D,
    case_setup,
    generator_check,
    homomorphism_residual,
    labels_case_f,
    rep_k,
)


class ScenarioError(ValueError):
    """Scenario fails schema validation."""


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_reals(x) -> bool:
    return isinstance(x, list) and len(x) > 0 and all(map(_is_real, x))


def _is_positives(x) -> bool:
    return _is_reals(x) and min(x) > 0


def _rule(test, need: str, typed=lambda x: x):
    """A parse rule: it checks a raw JSON value, named `where` in its error,
    and returns it typed."""
    def rule(x, where: str):
        _require(test(x), f"{where} must be {need}, got {x!r}")
        return typed(x)
    return rule


def _count(low: int):
    return _rule(lambda x: type(x) is int and x >= low, f"an integer >= {low}")  # not a bool


_real = _rule(_is_real, "a finite number", float)
_positive = _rule(lambda x: _is_real(x) and x > 0, "a positive number", float)
_nonzero = _rule(lambda x: _is_real(x) and x != 0, "a nonzero number", float)
_grid = _rule(lambda x: type(x) is int and x > 0 and x % 8 == 0, "a positive multiple of 8")
_vec = _rule(
    lambda x: isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_real, x)),
    "a 2-vector of finite numbers",
    lambda x: Vec2(float(x[0]), float(x[1])),
)
# lists come back as given, so reports and CSV rows print their entries as written
_reals = _rule(_is_reals, "a nonempty list of finite numbers")
_positives = _rule(_is_positives, "a nonempty list of positive numbers")
# the contraction slope is taken between the first and the last speed
_speeds = _rule(lambda x: _is_positives(x) and x[0] != x[-1], "positive numbers whose first and last differ")
_case = _rule(lambda x: str(x).lower() in LABEL_FACTORIES, "a case a..k", lambda x: str(x).lower())


REQUIRED = inspect.Parameter.empty  # the default of a field that must be given, as in a signature


def _fields(table: dict, given, where: str, inputs: dict | None = None) -> dict:
    """Every field of `table` ({field: (rule, default)}), typed: the fields of the JSON object
    `given` through their rule, the others at their default, which when callable is computed
    from `inputs`, or else from the fields before it."""
    _require(isinstance(given, dict), f"expected an object of {where}s, got {given!r}")
    unknown = sorted(set(given) - set(table))
    _require(not unknown, f"unknown {where}s {unknown}; expected {sorted(table)}")
    out = {}
    for key, (rule, default) in table.items():
        if key in given:
            out[key] = rule(given[key], f"{where} {key!r}")
        else:
            _require(default is not REQUIRED, f"missing {where} {key!r}")
            out[key] = default(out if inputs is None else inputs) if callable(default) else default
    return out


def _object(table: dict, typed=dict):
    """The parse rule of a JSON object with the fields of `table`."""
    return lambda x, where: typed(**_fields(table, x, f"{where} field"))


DUAL_POINT = {
    "f": (_real, REQUIRED), "m": (_real, REQUIRED), "h": (_real, REQUIRED), "p": (_vec, REQUIRED),
    "k": (_vec, REQUIRED), "j": (_real, REQUIRED), "tau": (_positive, 1.0),
}
ATLAS_BASE = {key: DUAL_POINT[key] for key in ("h", "p", "k", "j", "tau")}  # orbit-atlas sweeps f and m


def _random_element(rng, tau=1.0, variant=Variant.OSCILLATING, scale=2.0) -> GroupElement:
    v = rng.uniform(-scale, scale, size=8)
    return GroupElement(v[0], v[1], v[2], Vec2(v[3], v[4]), Vec2(v[5], v[6]), v[7], variant, tau)


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _run_classify(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    cls, inv = classify(inputs["point"], tol["classify"])
    metrics = {
        "class": cls.value,
        "dimension": cls.dimension,
        "invariants": inv.as_dict(),
        "diffeomorphic_to": cls.diffeomorphic_to,
    }
    return metrics, {"classified": True}, []


def _run_orbit_atlas(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    rows = ["f,m,C1,C2,class,dim"]
    counts: dict[str, int] = {}
    for f in inputs["f_values"]:
        for m in inputs["m_values"]:
            cls, inv = classify(DualPoint(f=f, m=m, **inputs["base"]), tol["classify"])
            d = inv.as_dict()
            c1 = d.get("C1", "")
            c2 = d.get("C2", "")
            rows.append(f"{f},{m},{c1},{c2},{cls.value},{cls.dimension}")
            counts[cls.value] = counts.get(cls.value, 0) + 1
    return {"rows": len(rows) - 1, "class_counts": counts}, {"atlas": True}, rows


def _run_evolve(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    t_max, dt = inputs["t_max"], inputs["dt"]
    x0 = PhasePoint(
        q=inputs["q0"], p=inputs["p0"], m=inputs["m"], tau=inputs["tau"], C1=inputs["C1"], C2=inputs["C2"]
    )
    rows = ["t,q1,q2,p1,p2,h,j"]
    h0, j0 = hamiltonian(x0), angular_momentum(x0)
    h_drift = j_drift = 0.0
    n_full = int(math.floor(t_max / dt + 1e-12))
    times = [k * dt for k in range(n_full + 1)]
    if times[-1] < t_max - 1e-12 * t_max:
        times.append(t_max)
    for t in times:
        x = evolve(x0, t)
        h, j = hamiltonian(x), angular_momentum(x)
        h_drift = max(h_drift, abs(h - h0))
        j_drift = max(j_drift, abs(j - j0))
        rows.append(f"{t},{x.q.x1},{x.q.x2},{x.p.x1},{x.p.x2},{h},{j}")
    budget = tol["conservation"]
    metrics = {"h_drift": h_drift, "j_drift": j_drift, "rows": len(rows) - 1}
    passes = {"energy_conserved": h_drift <= budget, "angular_momentum_conserved": j_drift <= budget}
    return metrics, passes, rows


def _run_group_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    rng = np.random.default_rng(seed)
    assoc = ident = inv_res = action = blind = proj = 0.0
    for variant in (Variant.OSCILLATING, Variant.EXPANDING):
        for tau in inputs["taus"]:
            e = GroupElement.identity(variant, tau)
            for _ in range(inputs["samples"]):
                g1 = _random_element(rng, tau, variant)
                g2 = _random_element(rng, tau, variant)
                g3 = _random_element(rng, tau, variant)
                lhs = compose(compose(g1, g2), g3)
                rhs = compose(g1, compose(g2, g3))
                scale = max(
                    1.0, abs(lhs.alpha), abs(lhs.theta), abs(lhs.a.x1), abs(lhs.a.x2),
                    abs(lhs.v.x1), abs(lhs.v.x2),
                )
                assoc = max(assoc, element_distance(lhs, rhs) / scale)
                ident = max(ident, element_distance(compose(g1, e), g1), element_distance(compose(e, g1), g1))
                gi = compose(g1, inverse(g1))
                scale_i = max(1.0, abs(g1.theta), g1.a.sq(), g1.v.sq())
                inv_res = max(inv_res, element_distance(gi, e) / scale_i)
                t, x = rng.uniform(-2, 2), Vec2(*rng.uniform(-2, 2, 2))
                t1, x1 = act_spacetime(g2, t, x)
                t2, x2 = act_spacetime(g1, t1, x1)
                t3, x3 = act_spacetime(compose(g1, g2), t, x)
                action = max(action, abs(t2 - t3), (x2 - x3).norm())
                g1c = GroupElement(0.0, 0.0, g1.b, g1.a, g1.v, g1.phi, variant, tau)
                _, xc = act_spacetime(g1c, t, x)
                _, xg = act_spacetime(g1, t, x)
                blind = max(blind, (xc - xg).norm())
                pc = unextended_project(compose(g1, g2))
                cp = compose(unextended_project(g1), unextended_project(g2))
                proj = max(
                    proj,
                    abs(pc.b - cp.b), (pc.a - cp.a).norm(), (pc.v - cp.v).norm(), abs(pc.phi - cp.phi),
                )
    metrics = {
        "associativity_max": assoc,
        "identity_max": ident,
        "inverse_max": inv_res,
        "action_max": action,
        "extension_blindness_max": blind,
        "projection_max": proj,
    }
    passes = {name: metrics[f"{name}_max"] <= budget for name, budget in tol.items()}
    passes["extension_blindness"] = blind == 0.0
    return metrics, passes, []


def _run_algebra_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    rng = np.random.default_rng(seed)
    tau = inputs["tau"]
    jacobi = {}
    tables = {
        "NH_minus": algebra.build_table("NH_minus", tau=tau),
        "NH_minus_ext": algebra.build_table("NH_minus", extended=True, tau=tau),
        "NH_plus_ext": algebra.build_table("NH_plus", extended=True, tau=tau),
        "Galilei_ext": algebra.build_table("Galilei", extended=True),
        "Poincare": algebra.build_table("Poincare"),
        "dS_minus": algebra.build_table("dS_minus", c=1.0, R=1.0),
        "dS_plus": algebra.build_table("dS_plus", c=1.0, R=1.0),
    }
    for name, table in tables.items():
        jacobi[name] = algebra.jacobi_residual(table)
    # contraction scaling
    cs = inputs["contraction_speeds"]
    nh = algebra.build_table("NH_minus", tau=tau)
    devs = []
    for c in cs:
        contracted = algebra.contract(algebra.build_table("dS_minus", c=1.0, R=tau), c, c * tau)
        devs.append(algebra.max_table_deviation(contracted, nh))
    slope = (math.log(devs[-1]) - math.log(devs[0])) / (math.log(cs[-1]) - math.log(cs[0]))
    # rank agreement
    ext = algebra.build_table("NH_minus", extended=True, tau=tau)
    agree = 0
    total = 0
    for cls in OrbitClass:
        for _ in range(inputs["rank_samples"]):
            xi = random_point_in_class(cls, rng, tau)
            rank = algebra.rank(algebra.kirillov_matrix(ext, xi))
            total += 1
            if rank == classify(xi)[0].dimension:
                agree += 1
    metrics = {
        "jacobi": jacobi,
        "contraction_deviations": dict(zip(map(str, cs), devs)),
        "contraction_slope": slope,
        "rank_agreement": agree / total,
    }
    passes = {
        "jacobi": max(jacobi.values()) <= tol["jacobi"],
        "contraction_monotone": all(devs[i + 1] < devs[i] for i in range(len(devs) - 1)),
        "contraction_slope": abs(slope + 2.0) <= tol["slope"],
        "rank_agreement": agree == total,
    }
    return metrics, passes, []


def case_labels(case: str, given: dict | None = None, tau: float = 1.0):
    """Canonical labels of `case`, or labels from the JSON fields `given`: the
    keywords of its factory, with `kappa` for kappa_vec and 2-lists for vectors."""
    factory = LABEL_FACTORIES[case]
    if given is None:
        return factory(**CANONICAL_LABELS[case], tau=tau)
    params = inspect.signature(factory).parameters
    names = {("kappa" if p == "kappa_vec" else p): p for p in params if p != "tau"}
    table = {key: (_vec if key in ("rho", "kappa") else _real, params[p].default) for key, p in names.items()}
    fields = _fields(table, given, f"case {case} label")
    return factory(**{names[key]: value for key, value in fields.items()}, tau=tau)


def _ongrid_element(rng, n_t: int, tau: float, scale: float = 0.5, torus=None) -> GroupElement:
    v = rng.uniform(-scale, scale, size=6)
    spacing = 2.0 * math.pi / n_t
    if torus:
        b = (2.0 * math.pi * tau / torus[0]) * rng.integers(-3, 4)
        phi = (2.0 * math.pi / torus[1]) * rng.integers(-3, 4)
    else:
        b = tau * spacing * rng.integers(-2, 3)
        phi = spacing * rng.integers(-2, 3)
    return GroupElement(v[0], v[1], b, Vec2(v[2], v[3]), Vec2(v[4], v[5]), phi, Variant.OSCILLATING, tau)


def _run_rep_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    case, tau, samples, scale, grid = (inputs[key] for key in ("case", "tau", "samples", "scale", "grid"))
    labels = case_labels(case, inputs["labels"], tau)
    rng = np.random.default_rng(seed)
    hom_max = unit_max = 0.0
    n_herm = resolution = None  # no basis, so no truncation, for cases h..k
    gen_residuals: dict[str, float] = {}

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        if case == "k":
            for _ in range(samples):
                g1 = _random_element(rng, tau, scale=2.0)
                g2 = _random_element(rng, tau, scale=2.0)
                val = rep_k(labels, compose(g1, g2)) - rep_k(labels, g1) * rep_k(labels, g2)
                hom_max = max(hom_max, abs(val))
                unit_max = max(unit_max, abs(abs(rep_k(labels, g1)) - 1.0))
        else:
            n, kmax = inputs["hermite_n"], inputs["probe_kmax"]
            if case in HERMITE_N:  # the probe state's modes 0..kmax must fit in the basis
                _require(kmax < n, f"probe_kmax {kmax} must be below hermite_n {n} for case {case}")
            ctx, rep, state = case_setup(case, labels, rng, n=n, kmax=kmax, grid=grid)
            if ctx is not None:
                n_herm, resolution = ctx.n, 0.0
            if case in ("b", "c", "h", "i", "j"):
                torus = (grid, grid) if case == "h" else None
                draw = lambda: _ongrid_element(rng, grid, tau, scale, torus=torus)
            else:
                draw = lambda: _random_element(rng, tau, scale=scale)
            for _ in range(samples):
                g1, g2 = draw(), draw()
                hom, unit, out = homomorphism_residual(rep.apply, g1, g2, state)
                hom_max, unit_max = max(hom_max, hom), max(unit_max, unit)
                if ctx is not None:
                    resolution = max(resolution, out.tail_fraction())
            if case in ("a", "f", "g"):
                for direction in ("P1", "P2", "K1", "K2", "H", "J", "M", "F"):
                    gen_residuals[direction] = generator_check(
                        labels, labels.orbit_class, direction, ctx, state
                    )

    metrics = {
        "case": case,
        "hermite_n": n_herm,
        "unitarity_max": unit_max,
        "homomorphism_max": hom_max,
        "generator_residuals": gen_residuals,
        "resolution_metrics": {"max_tail_fraction": resolution},
    }
    passes = {
        "unitarity": unit_max <= tol["unitarity"],
        "homomorphism": hom_max <= tol["homomorphism"],
    }
    if gen_residuals:
        passes["generators"] = max(gen_residuals.values()) <= tol["generator"]
    return metrics, passes, []


def _run_moyal_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    m, tau, n_herm, box, nodes = (inputs[key] for key in ("m", "tau", "hermite_n", "box", "nodes"))
    rng = np.random.default_rng(seed)
    lam = math.sqrt(abs(m) * tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        ctx = ladder_build(n_herm, lam, dims=2)
        labels = labels_case_f(**{**CANONICAL_LABELS["f"], "m": m}, tau=tau)
        rep = InducedRep2D(labels, ctx)
        psi = probe_state(ctx, rng, kmax=3)
        cov = iso = 0.0
        for _ in range(inputs["samples"]):
            q = Vec2(*rng.uniform(-0.5, 0.5, 2))
            p = Vec2(*rng.uniform(-0.5, 0.5, 2))
            cov = max(cov, covariance_residual(q, p, labels, psi, ctx, rep=rep))
            gamma = GroupElement(
                0.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                Vec2.zero(), Vec2.zero(), rng.uniform(-0.5, 0.5), Variant.OSCILLATING, tau,
            )
            iso = max(iso, isotropy_commutator_residual(gamma, labels, psi, ctx, rep=rep))
        tri_err = 0.0
        for _ in range(inputs["samples"]):
            us = [(Vec2(*rng.uniform(-1, 1, 2)), Vec2(*rng.uniform(-1, 1, 2))) for _ in range(3)]
            num = tri_kernel(us[0], us[1], us[2], m, ctx)
            clo = tri_kernel_closed_form(*us)
            tri_err = max(tri_err, abs(num - clo) / 16.0)
        quad = AxisQuadrature.build(box, nodes)
        smeared = smeared_pair_trace(1.0, quad, m, ctx)
        trace_err = abs(smeared - 1.0)
        # round trip with a product rank-1 operator on low modes
        quad_r = AxisQuadrature.build(inputs["roundtrip_box"], inputs["roundtrip_nodes"])
        phis = []
        for _ in range(2):
            c = np.zeros(n_herm, complex)
            c[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
            phis.append(c / np.linalg.norm(c))
        a_axes = np.stack([np.outer(c, c.conj()) for c in phis])  # both round trips in one stack
        a_back = reconstruct_axis(weyl_symbol_axis(a_axes, quad_r, m, ctx), quad_r, m, ctx)
        rel = np.linalg.norm(a_back - a_axes, axis=(1, 2)) / np.linalg.norm(a_axes, axis=(1, 2))
        rt_err = float(np.max(rel))
    metrics = {
        "covariance_max": cov,
        "isotropy_max": iso,
        "trikernel_max_err": tri_err,
        "trace_smeared_err": trace_err,
        "roundtrip_err": rt_err,
        "quadrature": {"box": box, "nodes": nodes},
    }
    passes = {
        "covariance": cov <= tol["covariance"],
        "isotropy": iso <= tol["isotropy"],
        "trikernel": tri_err <= tol["trikernel"],
        "trace_smeared": trace_err <= tol["trace_smeared"],
        "roundtrip": rt_err <= tol["roundtrip"],
    }
    return metrics, passes, []


# per command: its runner, the inputs it reads ({input: (parse rule, default)}) and the
# tolerances it reads ({tolerance: default}); the runner gets both typed and complete, and a
# callable default is computed from the inputs
SPECS = {
    "classify": (_run_classify, {"point": (_object(DUAL_POINT, DualPoint), REQUIRED)}, {"classify": 1e-8}),
    "orbit-atlas": (_run_orbit_atlas, {
        "f_values": (_reals, [-1.0, 0.0, 1.0, 2.0]), "m_values": (_reals, [-1.0, 0.0, 1.0]),
        "base": (_object(ATLAS_BASE), {"h": 0.3, "p": Vec2(1.0, 0.0), "k": Vec2(0.0, 0.5), "j": 0.2, "tau": 1.0}),
    }, {"classify": 1e-8}),
    "evolve": (_run_evolve, {
        "m": (_nonzero, 1.0), "tau": (_positive, 1.0), "C1": (_real, 0.0), "C2": (_real, 0.0),
        "q0": (_vec, Vec2(0.0, 0.0)), "p0": (_vec, Vec2(1.0, 0.0)), "dt": (_positive, 1e-3),
        "t_max": (_positive, lambda inputs: 2.0 * math.pi * inputs["tau"]),  # one period
    }, {"conservation": 1e-9}),
    "algebra-check": (_run_algebra_check, {
        "tau": (_positive, 1.0), "contraction_speeds": (_speeds, [1e2, 1e3, 1e4]),
        "rank_samples": (_count(1), 200),
    }, {"jacobi": 1e-13, "slope": 0.1}),
    "rep-check": (_run_rep_check, {
        "case": (_case, "f"), "tau": (_positive, 1.0), "samples": (_count(1), 50), "scale": (_real, 0.5),
        "grid": (_grid, 16),
        # the case's defaults, None for cases h..k, which have no Hermite basis
        "hermite_n": (_count(4), lambda inputs: HERMITE_N.get(inputs["case"])),
        "probe_kmax": (_count(0), lambda inputs: PROBE_KMAX.get(inputs["case"])),
        "labels": (lambda x, where: x, None),  # checked against the case's factory by case_labels
    }, {
        "unitarity": 1e-10, "generator": 1e-5,
        "homomorphism": lambda inputs: 1e-6 if inputs["case"] in "fhijk" else 1e-3,
    }),
    "moyal-check": (_run_moyal_check, {
        "m": (_nonzero, 1.0), "tau": (_positive, 1.0),  # the basis scale sqrt(|m| tau) must be positive
        "hermite_n": (_count(4), 32), "samples": (_count(1), 10), "box": (_positive, 3.0), "nodes": (_count(1), 96),
        "roundtrip_box": (_positive, 5.0), "roundtrip_nodes": (_count(1), 96),
    }, {"covariance": 1e-6, "isotropy": 1e-4, "trikernel": 1e-2, "trace_smeared": 0.05, "roundtrip": 0.05}),
    "group-check": (_run_group_check, {"samples": (_count(1), 2000), "taus": (_positives, [0.5, 1.0, 2.0])}, {
        "associativity": 1e-10, "identity": 1e-10, "inverse": 1e-10, "action": 1e-11, "projection": 1e-12,
    }),
}
COMMANDS = tuple(SPECS)


def _parse_scenario(scenario) -> tuple[dict, dict, dict]:
    """The scenario's fields as given, and its inputs and tolerances typed over their defaults."""
    _require(isinstance(scenario, dict), "scenario must be a JSON object")
    _require("command" in scenario, "scenario missing 'command'")
    command = scenario["command"]
    _require(command in SPECS, f"unknown command {command!r}")
    sc = {"command": command, "seed": scenario.get("seed", 0)}
    _require(isinstance(sc["seed"], int), "'seed' must be an integer")
    sc.update(tolerances=scenario.get("tolerances", {}), inputs=scenario.get("inputs", {}))
    _, input_table, tolerance_table = SPECS[command]
    given = sc["inputs"]
    if command == "classify" and isinstance(given, dict) and "point" not in given:
        given = {"point": given}  # the dual point's fields at top level
    inputs = _fields(input_table, given, f"{command} input")
    tolerances = {name: (_positive, default) for name, default in tolerance_table.items()}
    return sc, inputs, _fields(tolerances, sc["tolerances"], f"{command} tolerance", inputs)


def validate_scenario(scenario: dict) -> dict:
    """The scenario's fields as given, once every input and tolerance passes its rule."""
    return _parse_scenario(scenario)[0]


def run(scenario: dict) -> dict:
    """Execute a scenario and return the Report dict."""
    sc, inputs, tol = _parse_scenario(scenario)
    start = time.perf_counter()
    metrics, passes, rows = SPECS[sc["command"]][0](inputs, tol, sc["seed"])
    report = {
        "scenario": sc,
        "metrics": metrics,
        "pass": passes,
        "metadata": {
            "version": __version__,
            "wall_time_s": time.perf_counter() - start,
        },
    }
    if rows:
        report["csv"] = rows
    return report


def report_json(report: dict, drop_timing: bool = False) -> str:
    out = {key: value for key, value in report.items() if key != "csv"}
    if drop_timing:
        out["metadata"] = {key: value for key, value in out["metadata"].items() if key != "wall_time_s"}
    # numpy scalars, such as the np.bool_ of a budget comparison, are written as their Python value
    return json.dumps(out, indent=2, sort_keys=True, default=lambda obj: obj.item())


# the flags that set one input each, with their argparse type ("JSON" for a JSON value)
INPUT_FLAGS = {
    "tau": float, "hermite_n": int, "case": str, "labels": "JSON", "samples": int,
    "m": float, "box": float, "nodes": int, "point": "JSON",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nhkit", description="Extended Newton-Hooke (2+1) toolkit")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE")
    parser.add_argument("--out", help="write the report JSON here (default stdout)")
    parser.add_argument("--csv-out", help="write CSV rows here (evolve, orbit-atlas)")
    for name, kind in INPUT_FLAGS.items():
        readers = ", ".join(command for command, (_, inputs, _) in SPECS.items() if name in inputs)
        parser.add_argument(
            "--" + name.replace("_", "-"), type=str if kind == "JSON" else kind, help=f"input {name} ({readers})"
        )
    return parser


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{where} is not valid JSON: {exc}") from exc


def scenario_from_args(args) -> dict:
    scenario: dict = {"command": args.command, "seed": 0, "inputs": {}, "tolerances": {}}
    if args.scenario:
        with open(args.scenario) as fh:
            loaded = _parse_json(fh.read(), "scenario file")
        _require(isinstance(loaded, dict), "scenario file must hold a JSON object")
        scenario.update(loaded)
        scenario["command"] = args.command
    inputs = scenario.setdefault("inputs", {})
    if args.seed is not None:
        scenario["seed"] = args.seed
    for name, kind in INPUT_FLAGS.items():
        value = getattr(args, name)
        if value is not None:
            inputs[name] = _parse_json(value, f"--{name}") if kind == "JSON" else value
    if args.tol:
        tols = scenario.setdefault("tolerances", {})
        for item in args.tol:
            _require("=" in item, f"--tol expects NAME=VALUE, got {item!r}")
            name, val = item.split("=", 1)
            try:
                tols[name] = float(val)
            except ValueError as exc:
                raise ScenarioError(f"--tol {name} must be a number, got {val!r}") from exc
    return scenario


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = scenario_from_args(args)
        report = run(scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    text = report_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    rows = report.get("csv")
    if rows:
        if args.csv_out:
            with open(args.csv_out, "w") as fh:
                fh.write("\n".join(rows) + "\n")
        elif args.out:
            print("\n".join(rows))
    return 0 if all(report["pass"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

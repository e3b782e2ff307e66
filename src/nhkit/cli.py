"""Scenario-driven command-line front end.

Commands: classify, orbit-atlas, evolve, algebra-check, rep-check,
moyal-check, group-check.  A scenario is a JSON object with a `command`,
a `seed`, optional `tolerances` overrides and command-specific `inputs`;
flags mirror scenario fields and override file values.  Reports are JSON
(deterministic for a fixed scenario and seed, modulo the wall-time field);
evolve and orbit-atlas emit CSV rows.

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
from .funcspace import ladder_build, probe_state
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

# the `inputs` keys each command reads
INPUT_KEYS = {
    "classify": ("point", "f", "m", "h", "p", "k", "j", "tau"),
    "orbit-atlas": ("f_values", "m_values", "base"),
    "evolve": ("m", "tau", "q0", "p0", "C1", "C2", "t_max", "dt"),
    "algebra-check": ("tau", "contraction_speeds", "rank_samples"),
    "rep-check": ("case", "tau", "samples", "scale", "grid", "hermite_n", "probe_kmax", "labels"),
    "moyal-check": (
        "m", "tau", "hermite_n", "box", "nodes", "samples", "roundtrip_box", "roundtrip_nodes",
    ),
    "group-check": ("samples", "taus"),
}
# the `tolerances` names each command reads
TOLERANCE_KEYS = {
    "classify": ("classify",),
    "orbit-atlas": ("classify",),
    "evolve": ("conservation",),
    "algebra-check": ("jacobi", "slope"),
    "rep-check": ("unitarity", "homomorphism", "generator"),
    "moyal-check": ("covariance", "isotropy", "trikernel", "trace_smeared", "roundtrip"),
    "group-check": ("associativity", "identity", "inverse", "action", "projection"),
}
# count inputs with their least value; inputs that must be finite numbers, or lists of them
COUNT_INPUTS = {
    "samples": 1, "nodes": 1, "roundtrip_nodes": 1, "rank_samples": 1, "grid": 1,
    "hermite_n": 4, "probe_kmax": 0,
}
# real inputs with a sign rule, per command: the time scale tau > 0 always, and m != 0 where
# the command divides by it or builds the basis scale sqrt(|m| tau) from it
SIGN_INPUTS = {
    "evolve": {"tau": "positive", "m": "nonzero"},
    "algebra-check": {"tau": "positive"},
    "rep-check": {"tau": "positive"},
    "moyal-check": {"tau": "positive", "m": "nonzero"},
}
REAL_INPUTS = ("f", "m", "h", "j", "tau", "C1", "C2", "t_max", "dt", "scale", "box", "roundtrip_box")
REAL_LIST_INPUTS = ("f_values", "m_values", "contraction_speeds", "taus")
COMMANDS = tuple(INPUT_KEYS)


class ScenarioError(ValueError):
    """Scenario fails schema validation."""


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _vec(x) -> Vec2:
    _require(
        isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_real, x)), f"expected a 2-vector, got {x!r}"
    )
    return Vec2(float(x[0]), float(x[1]))


def _dual_point(d: dict) -> DualPoint:
    _require(isinstance(d, dict), "dual point must be an object")
    for key in ("f", "m", "h", "p", "k", "j"):
        _require(key in d, f"dual point missing {key!r}")
    for key in ("f", "m", "h", "j", "tau"):
        _require(_is_real(d.get(key, 1.0)), f"dual point field {key!r} must be a number, got {d.get(key)!r}")
    return DualPoint(
        f=float(d["f"]),
        m=float(d["m"]),
        h=float(d["h"]),
        p=_vec(d["p"]),
        k=_vec(d["k"]),
        j=float(d["j"]),
        tau=float(d.get("tau", 1.0)),
    )


def _random_element(rng, tau=1.0, variant=Variant.OSCILLATING, scale=2.0) -> GroupElement:
    v = rng.uniform(-scale, scale, size=8)
    return GroupElement(v[0], v[1], v[2], Vec2(v[3], v[4]), Vec2(v[5], v[6]), v[7], variant, tau)


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _run_classify(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    xi = _dual_point(inputs.get("point", inputs))
    cls, inv = classify(xi, tol.get("classify", 1e-8))
    metrics = {
        "class": cls.value,
        "dimension": cls.dimension,
        "invariants": inv.as_dict(),
        "diffeomorphic_to": cls.diffeomorphic_to,
    }
    return metrics, {"classified": True}, []


def _run_orbit_atlas(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    f_vals = inputs.get("f_values", [-1.0, 0.0, 1.0, 2.0])
    m_vals = inputs.get("m_values", [-1.0, 0.0, 1.0])
    base = inputs.get("base", {"h": 0.3, "p": [1.0, 0.0], "k": [0.0, 0.5], "j": 0.2, "tau": 1.0})
    rows = ["f,m,C1,C2,class,dim"]
    counts: dict[str, int] = {}
    for f in f_vals:
        for m in m_vals:
            xi = _dual_point({**base, "f": f, "m": m})
            cls, inv = classify(xi, tol.get("classify", 1e-8))
            d = inv.as_dict()
            c1 = d.get("C1", "")
            c2 = d.get("C2", "")
            rows.append(f"{f},{m},{c1},{c2},{cls.value},{cls.dimension}")
            counts[cls.value] = counts.get(cls.value, 0) + 1
    return {"rows": len(rows) - 1, "class_counts": counts}, {"atlas": True}, rows


def _run_evolve(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    m = float(inputs.get("m", 1.0))
    tau = float(inputs.get("tau", 1.0))
    q0 = _vec(inputs.get("q0", [0.0, 0.0]))
    p0 = _vec(inputs.get("p0", [1.0, 0.0]))
    c1 = float(inputs.get("C1", 0.0))
    c2 = float(inputs.get("C2", 0.0))
    t_max = float(inputs.get("t_max", 2.0 * math.pi * tau))
    dt = float(inputs.get("dt", 1e-3))
    _require(dt > 0 and t_max > 0, "t_max and dt must be positive")
    x0 = PhasePoint(q=q0, p=p0, m=m, tau=tau, C1=c1, C2=c2)
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
    budget = tol.get("conservation", 1e-9)
    metrics = {"h_drift": h_drift, "j_drift": j_drift, "rows": len(rows) - 1}
    passes = {"energy_conserved": h_drift <= budget, "angular_momentum_conserved": j_drift <= budget}
    return metrics, passes, rows


def _run_group_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    samples = int(inputs.get("samples", 2000))
    taus = inputs.get("taus", [0.5, 1.0, 2.0])
    rng = np.random.default_rng(seed)
    assoc = ident = inv_res = action = blind = proj = 0.0
    for variant in (Variant.OSCILLATING, Variant.EXPANDING):
        for tau in taus:
            e = GroupElement.identity(variant, tau)
            for _ in range(samples):
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
    passes = {
        "associativity": assoc <= tol.get("associativity", 1e-10),
        "identity": ident <= tol.get("identity", 1e-10),
        "inverse": inv_res <= tol.get("inverse", 1e-10),
        "action": action <= tol.get("action", 1e-11),
        "extension_blindness": blind == 0.0,
        "projection": proj <= tol.get("projection", 1e-12),
    }
    return metrics, passes, []


def _run_algebra_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    rng = np.random.default_rng(seed)
    tau = float(inputs.get("tau", 1.0))
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
    cs = inputs.get("contraction_speeds", [1e2, 1e3, 1e4])
    nh = algebra.build_table("NH_minus", tau=tau)
    devs = []
    for c in cs:
        contracted = algebra.contract(algebra.build_table("dS_minus", c=1.0, R=tau), c, c * tau)
        devs.append(algebra.max_table_deviation(contracted, nh))
    slope = (math.log(devs[-1]) - math.log(devs[0])) / (math.log(cs[-1]) - math.log(cs[0]))
    # rank agreement
    n_pts = int(inputs.get("rank_samples", 200))
    ext = algebra.build_table("NH_minus", extended=True, tau=tau)
    agree = 0
    total = 0
    for cls in OrbitClass:
        for _ in range(n_pts):
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
        "jacobi": max(jacobi.values()) <= tol.get("jacobi", 1e-13),
        "contraction_monotone": all(devs[i + 1] < devs[i] for i in range(len(devs) - 1)),
        "contraction_slope": abs(slope + 2.0) <= tol.get("slope", 0.1),
        "rank_agreement": agree == total,
    }
    return metrics, passes, []


def case_labels(case: str, given: dict | None = None, tau: float = 1.0):
    """Canonical labels of `case`, or labels from the JSON fields `given`: the
    keywords of its factory, with `kappa` for kappa_vec and 2-lists for vectors."""
    factory = LABEL_FACTORIES[case]
    if given is None:
        return factory(**CANONICAL_LABELS[case], tau=tau)
    _require(isinstance(given, dict), "labels must be an object")
    params = inspect.signature(factory).parameters
    names = {("kappa" if p == "kappa_vec" else p): p for p in params if p != "tau"}
    unknown = sorted(set(given) - set(names))
    _require(not unknown, f"labels for case {case}: unknown fields {unknown}, expected {sorted(names)}")
    missing = [k for k, p in names.items() if params[p].default is params[p].empty and k not in given]
    _require(not missing, f"labels for case {case} missing fields {missing}")
    scalars = [v for k, v in given.items() if k not in ("rho", "kappa")]
    _require(all(isinstance(v, (int, float)) for v in scalars), f"labels for case {case} must be numbers")
    kwargs = {names[k]: _vec(v) if k in ("rho", "kappa") else float(v) for k, v in given.items()}
    return factory(**kwargs, tau=tau)


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
    case = str(inputs.get("case", "f")).lower()
    _require(case in "abcdefghijk" and len(case) == 1, f"unknown case {case!r}")
    tau = float(inputs.get("tau", 1.0))
    samples = int(inputs.get("samples", 50))
    scale = float(inputs.get("scale", 0.5))
    grid = int(inputs.get("grid", 16))
    labels = case_labels(case, inputs.get("labels"), tau)
    rng = np.random.default_rng(seed)
    hom_max = unit_max = 0.0
    n_herm = resolution = None  # no basis, so no truncation, for cases h..k
    gen_residuals: dict[str, float] = {}

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if case == "k":
            for _ in range(samples):
                g1 = _random_element(rng, tau, scale=2.0)
                g2 = _random_element(rng, tau, scale=2.0)
                val = rep_k(labels, compose(g1, g2)) - rep_k(labels, g1) * rep_k(labels, g2)
                hom_max = max(hom_max, abs(val))
                unit_max = max(unit_max, abs(abs(rep_k(labels, g1)) - 1.0))
        else:
            sizes = {key: int(inputs[key]) for key in ("hermite_n", "probe_kmax") if key in inputs}
            if case in HERMITE_N:  # the probe state's modes 0..kmax must fit in the basis
                n, kmax = sizes.get("hermite_n", HERMITE_N[case]), sizes.get("probe_kmax", PROBE_KMAX[case])
                _require(kmax < n, f"probe_kmax {kmax} must be below hermite_n {n} for case {case}")
            ctx, rep, state = case_setup(
                case, labels, rng, n=sizes.get("hermite_n"), kmax=sizes.get("probe_kmax"), grid=grid
            )
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
        "unitarity": unit_max <= tol.get("unitarity", 1e-10),
        "homomorphism": hom_max <= tol.get("homomorphism", 1e-6 if case in "fhijk" else 1e-3),
    }
    if gen_residuals:
        passes["generators"] = max(gen_residuals.values()) <= tol.get("generator", 1e-5)
    return metrics, passes, []


def _run_moyal_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    m = float(inputs.get("m", 1.0))
    tau = float(inputs.get("tau", 1.0))
    n_herm = int(inputs.get("hermite_n", 32))
    box = float(inputs.get("box", 3.0))
    nodes = int(inputs.get("nodes", 96))
    samples = int(inputs.get("samples", 10))
    rng = np.random.default_rng(seed)
    lam = math.sqrt(abs(m) * tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = ladder_build(n_herm, lam, dims=2)
        labels = labels_case_f(m=m, C1=1.0, C2=0.3, tau=tau)
        rep = InducedRep2D(labels, ctx)
        psi = probe_state(ctx, rng, kmax=3)
        cov = iso = 0.0
        for _ in range(samples):
            q = Vec2(*rng.uniform(-0.5, 0.5, 2))
            p = Vec2(*rng.uniform(-0.5, 0.5, 2))
            cov = max(cov, covariance_residual(q, p, labels, psi, ctx, rep=rep))
            gamma = GroupElement(
                0.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                Vec2.zero(), Vec2.zero(), rng.uniform(-0.5, 0.5), Variant.OSCILLATING, tau,
            )
            iso = max(iso, isotropy_commutator_residual(gamma, labels, psi, ctx, rep=rep))
        tri_err = 0.0
        for _ in range(samples):
            us = [(Vec2(*rng.uniform(-1, 1, 2)), Vec2(*rng.uniform(-1, 1, 2))) for _ in range(3)]
            num = tri_kernel(us[0], us[1], us[2], m, ctx)
            clo = tri_kernel_closed_form(*us)
            tri_err = max(tri_err, abs(num - clo) / 16.0)
        quad = AxisQuadrature.build(box, nodes)
        smeared = smeared_pair_trace(1.0, quad, m, ctx)
        trace_err = abs(smeared - 1.0)
        # round trip with a product rank-1 operator on low modes
        quad_r = AxisQuadrature.build(float(inputs.get("roundtrip_box", 5.0)), int(inputs.get("roundtrip_nodes", 96)))
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
        "covariance": cov <= tol.get("covariance", 1e-6),
        "isotropy": iso <= tol.get("isotropy", 1e-4),
        "trikernel": tri_err <= tol.get("trikernel", 1e-2),
        "trace_smeared": trace_err <= tol.get("trace_smeared", 0.05),
        "roundtrip": rt_err <= tol.get("roundtrip", 0.05),
    }
    return metrics, passes, []


_RUNNERS = {
    "classify": _run_classify,
    "orbit-atlas": _run_orbit_atlas,
    "evolve": _run_evolve,
    "algebra-check": _run_algebra_check,
    "rep-check": _run_rep_check,
    "moyal-check": _run_moyal_check,
    "group-check": _run_group_check,
}


def validate_scenario(scenario: dict) -> dict:
    _require(isinstance(scenario, dict), "scenario must be a JSON object")
    _require("command" in scenario, "scenario missing 'command'")
    _require(scenario["command"] in COMMANDS, f"unknown command {scenario['command']!r}")
    seed = scenario.get("seed", 0)
    _require(isinstance(seed, int), "'seed' must be an integer")
    tolerances = scenario.get("tolerances", {})
    _require(isinstance(tolerances, dict), "'tolerances' must be an object")
    for key, val in tolerances.items():
        _require(_is_real(val) and val > 0, f"tolerance {key!r} must be positive")
    read = TOLERANCE_KEYS[scenario["command"]]
    unknown = sorted(set(tolerances) - set(read))
    _require(not unknown, f"unknown tolerances {unknown} for {scenario['command']}; expected {sorted(read)}")
    inputs = scenario.get("inputs", {})
    _require(isinstance(inputs, dict), "'inputs' must be an object")
    allowed = INPUT_KEYS[scenario["command"]]
    if scenario["command"] == "classify" and "point" in inputs:
        allowed = ("point",)  # a dual point under "point" or at top level, not both
    unknown = sorted(set(inputs) - set(allowed))
    _require(not unknown, f"unknown inputs {unknown} for {scenario['command']}; expected {sorted(allowed)}")
    for key, val in inputs.items():
        if key in COUNT_INPUTS:
            low = COUNT_INPUTS[key]
            ok = isinstance(val, int) and not isinstance(val, bool) and val >= low
            _require(ok, f"input {key!r} must be an integer >= {low}, got {val!r}")
        elif key in REAL_INPUTS:
            _require(_is_real(val), f"input {key!r} must be a finite number, got {val!r}")
            sign = SIGN_INPUTS.get(scenario["command"], {}).get(key)
            ok = sign is None or (val > 0 if sign == "positive" else val != 0)
            _require(ok, f"input {key!r} must be {sign}, got {val!r}")
        elif key in REAL_LIST_INPUTS:
            ok = isinstance(val, list) and len(val) > 0 and all(map(_is_real, val))
            _require(ok, f"input {key!r} must be a nonempty list of finite numbers, got {val!r}")
    return {"command": scenario["command"], "seed": seed, "tolerances": tolerances, "inputs": inputs}


def run(scenario: dict) -> dict:
    """Execute a scenario and return the Report dict."""
    sc = validate_scenario(scenario)
    start = time.perf_counter()
    metrics, passes, rows = _RUNNERS[sc["command"]](sc["inputs"], sc["tolerances"], sc["seed"])
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def report_json(report: dict, drop_timing: bool = False) -> str:
    out = _jsonable(report)
    if drop_timing:
        out.get("metadata", {}).pop("wall_time_s", None)
    out.pop("csv", None)
    return json.dumps(out, indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nhkit", description="Extended Newton-Hooke (2+1) toolkit")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tau", type=float, default=None)
    parser.add_argument("--hermite-n", type=int, default=None)
    parser.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE")
    parser.add_argument("--out", help="write the report JSON here (default stdout)")
    parser.add_argument("--csv-out", help="write CSV rows here (evolve, orbit-atlas)")
    parser.add_argument("--case", default=None, help="representation case a..k (rep-check)")
    parser.add_argument("--labels", default=None, help="labels JSON (rep-check)")
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--m", type=float, default=None, help="mass label (moyal-check, evolve)")
    parser.add_argument("--box", type=float, default=None, help="quadrature box (moyal-check)")
    parser.add_argument("--nodes", type=int, default=None, help="quadrature nodes (moyal-check)")
    parser.add_argument("--point", default=None, help="dual point JSON (classify)")
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
        if not isinstance(loaded, dict):
            raise ScenarioError("scenario file must hold a JSON object")
        scenario.update(loaded)
        scenario["command"] = args.command
    inputs = scenario.setdefault("inputs", {})
    if args.seed is not None:
        scenario["seed"] = args.seed
    for name in ("tau", "hermite_n", "case", "samples", "m", "box", "nodes", "labels", "point"):
        value = getattr(args, name)
        if value is not None:
            inputs[name] = _parse_json(value, f"--{name}") if name in ("labels", "point") else value
    if args.tol:
        tols = scenario.setdefault("tolerances", {})
        for item in args.tol:
            if "=" not in item:
                raise ScenarioError(f"--tol expects NAME=VALUE, got {item!r}")
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

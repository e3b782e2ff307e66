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
import os
import platform
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
    random_element,
    unextended_project,
)
from .moyal import (
    AxisQuadrature,
    covariance_residual,
    isotropy_commutator_residual,
    kernel_axis_matrix,
    reconstruct_axis,
    smeared_pair_trace,
    tri_kernel,
    tri_kernel_closed_form,
    weyl_symbol_axis,
)
from .representations import CASES, InducedRep2D, _worst, basis_scale, check_case


class ScenarioError(ValueError):
    """Scenario fails schema validation, or a file named on the command line
    cannot be read or written."""


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _is_real(x) -> bool:  # a JSON integer too large for a float is not one
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_reals(x) -> bool:
    return isinstance(x, list) and len(x) > 0 and all(map(_is_real, x))


def _is_positives(x) -> bool:
    return _is_reals(x) and min(x) > 0


def _squares_finite(xs) -> bool:  # no x * x underflows to 0 or overflows
    return all(0.0 < float(x) * float(x) < math.inf for x in xs)


def _is_tau(x) -> bool:
    return _is_real(x) and x > 0 and _squares_finite([x, 1.0 / x])


def _group_check_finite(tau: float) -> bool:
    """Whether every number `group-check` forms at `tau` is finite.  It draws each coordinate, and
    each action's time, from [-s, s], s = 2 (random_element's default scale).  On the expanding
    variant let r = max(tau, 1/tau) and C = cosh(s/tau).  At a draw's time `_time_fns` gives
    |c|, |s+|, |s-| <= rC and |kappa| <= r^2; at the time of a product of two draws, the largest
    time `compose` evaluates, cosh(2s/tau) = 2C^2 - 1.  So one `compose` or `inverse` grows a's
    and v's norms by at most a factor 3rC, and each term of its alpha and theta is at most
    2 (rC)^3 times two coordinates.  In (g1 g2) g3, g1 (g2 g3) and g g^-1 every term is then below
    24 r^4 C^4 s^2, and every coordinate and residual, a sum or difference of at most a dozen
    terms, below (32 s r^2 C^2)^2."""
    s = 2.0
    try:  # math.cosh and float ** raise where the value overflows
        return (32.0 * s * (max(tau, 1.0 / tau) * math.cosh(s / tau)) ** 2) ** 2 < math.inf
    except OverflowError:
        return False


def _rule(test, need: str, typed=lambda x: x):
    """A parse rule: it checks a raw JSON value, named `where` in its error,
    and returns it typed."""
    def rule(x, where: str):
        _require(test(x), f"{where} must be {need}, got {x!r}")
        return typed(x)
    return rule


def _count(low: int, high: int):
    return _rule(lambda x: type(x) is int and low <= x <= high, f"an integer from {low} to {high}")  # not a bool


# Ceilings on the inputs that size an array or a loop, each at or far above its default.  A value
# over one is a scenario error, raised before anything of that size is built.
BASIS_MAX = 96  # hermite_n: the case table's largest; a 2D generator matrix takes 16 N^4 bytes, 1.4 GB at 96
NODES_MAX = 1024  # quadrature nodes: a grid row holds a (ceil(nodes/2), N, N) kernel batch, 75 MB at 1024 and N = 96
GRID_MAX = 1024  # rep-check's grid: cases b, c loop over its nodes per application; case h holds grid^2 values
# samples, rank_samples: a loop that keeps nothing per draw, so the ceiling bounds run time:
# 10^5 pairs of rep-check case b take over an hour at about 50 ms each on a 2-core machine
DRAWS_MAX = 10**5
ROWS_MAX = 10**6  # evolve's t_max/dt: one CSV row of about 100 bytes per step, 100 MB at the ceiling


_real = _rule(_is_real, "a finite number", float)
_positive = _rule(lambda x: _is_real(x) and x > 0, "a positive number", float)
_nonzero = _rule(lambda x: _is_real(x) and x != 0, "a nonzero number", float)
# rep-check's samplers draw from [-scale, scale], whose width NumPy needs finite
_scale = _rule(lambda x: _is_real(x) and x > 0 and math.isfinite(2.0 * x), "a positive number with 2 scale finite",
               float)
_grid = _rule(lambda x: type(x) is int and 0 < x <= GRID_MAX and x % 8 == 0, f"a multiple of 8 from 8 to {GRID_MAX}")
_vec = _rule(
    lambda x: isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_is_real, x)),
    "a 2-vector of finite numbers",
    lambda x: Vec2(float(x[0]), float(x[1])),
)
# lists come back as given, so reports and CSV rows print their entries as written
_reals = _rule(_is_reals, "a nonempty list of finite numbers")
# the contraction slope is taken between the first and the last speed c, and the tables divide by c^2
_speeds = _rule(lambda x: _is_positives(x) and x[0] != x[-1] and _squares_finite(x),
                "positive numbers whose first and last differ and whose squares are positive and finite")
# the algebra tables, the representations, the coadjoint invariants and the oscillator's energy hold
# tau^2 and 1/tau^2
_tau = _rule(_is_tau, "a positive number whose square and inverse square are positive and finite", float)
# group-check draws from [-2, 2], random_element's scale, and the expanding law grows like cosh(2/tau)^4
_taus = _rule(lambda x: isinstance(x, list) and len(x) > 0 and all(_is_tau(t) and _group_check_finite(t) for t in x),
              "a nonempty list of numbers that each pass the tau rule and keep group-check's expanding law "
              "finite, (64 max(tau, 1/tau)^2 cosh(2/tau)^2)^2 finite")
_case = _rule(lambda x: str(x).lower() in CASES, "a case a..k", lambda x: str(x).lower())


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
    "k": (_vec, REQUIRED), "j": (_real, REQUIRED), "tau": (_tau, 1.0),
}
ATLAS_BASE = {key: DUAL_POINT[key] for key in ("h", "p", "k", "j", "tau")}  # orbit-atlas sweeps f and m


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _classified(point: DualPoint, tol: float, where: str):
    """`classify` compares f with m tau at the scale max(|f|, tau |m|) and sums p^2, k^2/tau^2,
    p x k and h, j times f, m, 1/tau or 1/tau^2 into invariants; where the scale or an invariant
    is not finite, the class would rest on a comparison with inf or NaN: a scenario error."""
    cls, inv = classify(point, tol)
    values = inv.as_dict()
    _require(math.isfinite(point.tau * point.m) and all(map(math.isfinite, values.values())),
             f"{where} {point} puts tau |m| or an invariant out of float range: {values}")
    return cls, inv


def _run_classify(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    cls, inv = _classified(inputs["point"], tol["classify"], "classify input 'point'")
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
            cls, inv = _classified(DualPoint(f=f, m=m, **inputs["base"]), tol["classify"],
                                   f"orbit-atlas input 'base' at f {f}, m {m}:")
            d = inv.as_dict()
            c1 = d.get("C1", "")
            c2 = d.get("C2", "")
            rows.append(f"{f},{m},{c1},{c2},{cls.value},{cls.dimension}")
            counts[cls.value] = counts.get(cls.value, 0) + 1
    return {"rows": len(rows) - 1, "class_counts": counts}, {"atlas": True}, rows


def _run_evolve(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    t_max, dt = inputs["t_max"], inputs["dt"]
    _require(t_max / dt <= ROWS_MAX, f"t_max/dt, the row count, must be at most {ROWS_MAX}; got {t_max}/{dt}")
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
        h_drift = _worst(h_drift, abs(h - h0))  # NaN, where the energy overflows, fails the check
        j_drift = _worst(j_drift, abs(j - j0))
        rows.append(f"{t},{x.q.x1},{x.q.x2},{x.p.x1},{x.p.x2},{h},{j}")
    budget = tol["conservation"]
    metrics = {"h_drift": h_drift, "j_drift": j_drift, "rows": len(rows) - 1}
    passes = {"energy_conserved": h_drift <= budget, "angular_momentum_conserved": j_drift <= budget}
    return metrics, passes, rows


def _run_group_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    rng = np.random.default_rng(seed)
    assoc = ident = inv_res = action = blind = proj = 0.0
    for variant in (Variant.OSCILLATING, Variant.EXPANDING):
        expanding = variant is Variant.EXPANDING
        for tau in inputs["taus"]:
            e = GroupElement.identity(variant, tau)
            for _ in range(inputs["samples"]):
                g1, g2, g3 = (random_element(rng, tau, variant) for _ in range(3))
                lhs = compose(compose(g1, g2), g3)
                rhs = compose(g1, compose(g2, g3))
                # only the expanding variant's cosh(2b/tau) terms grow with the coordinates, so only it is scaled
                scale = max(
                    1.0, abs(lhs.alpha), abs(lhs.theta), abs(lhs.a.x1), abs(lhs.a.x2),
                    abs(lhs.v.x1), abs(lhs.v.x2),
                ) if expanding else 1.0
                assoc = _worst(assoc, element_distance(lhs, rhs) / scale)
                ident = _worst(ident, element_distance(compose(g1, e), g1), element_distance(compose(e, g1), g1))
                gi = compose(g1, inverse(g1))
                scale_i = max(1.0, g1.a.sq(), g1.v.sq()) if expanding else 1.0
                inv_res = _worst(inv_res, element_distance(gi, e) / scale_i)
                t, x = rng.uniform(-2, 2), Vec2(*rng.uniform(-2, 2, 2).tolist())
                t1, x1 = act_spacetime(g2, t, x)
                t2, x2 = act_spacetime(g1, t1, x1)
                t3, x3 = act_spacetime(compose(g1, g2), t, x)
                action = _worst(action, abs(t2 - t3), (x2 - x3).norm())
                g1c = GroupElement(0.0, 0.0, g1.b, g1.a, g1.v, g1.phi, variant, tau)
                _, xc = act_spacetime(g1c, t, x)
                _, xg = act_spacetime(g1, t, x)
                blind = _worst(blind, (xc - xg).norm())
                pc = unextended_project(compose(g1, g2))
                cp = compose(unextended_project(g1), unextended_project(g2))
                proj = _worst(
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
    tau, cs = inputs["tau"], inputs["contraction_speeds"]
    # the contracted tables divide by c^2, which _speeds checks, and by R^2 = (c tau)^2
    _require(_squares_finite([c * tau for c in cs]),
             f"contraction_speeds times tau {tau} must have positive finite squares, got {cs!r}")
    tables = {
        "NH_minus": algebra.build_table("NH_minus", tau=tau),
        "NH_plus": algebra.build_table("NH_plus", tau=tau),
        "NH_minus_ext": algebra.build_table("NH_minus", extended=True, tau=tau),
        "NH_plus_ext": algebra.build_table("NH_plus", extended=True, tau=tau),
        "Galilei": algebra.build_table("Galilei"),
        "Galilei_ext": algebra.build_table("Galilei", extended=True),
        "Poincare": algebra.build_table("Poincare"),
        "dS_minus": algebra.build_table("dS_minus", c=1.0, R=1.0),
        "dS_plus": algebra.build_table("dS_plus", c=1.0, R=1.0),
    }
    jacobi = {name: algebra.jacobi_residual(table) for name, table in tables.items()}
    # each de Sitter algebra at speed c and radius c tau contracts to its Newton-Hooke algebra at tau
    devs, slopes = {}, {}
    for ds, nh in (("dS_minus", "NH_minus"), ("dS_plus", "NH_plus")):
        devs[ds] = [algebra.max_table_deviation(algebra.contract(tables[ds], c, c * tau), tables[nh]) for c in cs]
        slopes[ds] = (math.log(devs[ds][-1]) - math.log(devs[ds][0])) / (math.log(cs[-1]) - math.log(cs[0]))
    # a draw agrees when its Kirillov rank is the dimension of the class it was drawn from, and
    # classify returns that class
    agree = total = 0
    for cls in OrbitClass:
        for _ in range(inputs["rank_samples"]):
            xi = random_point_in_class(cls, rng, tau)
            rank = algebra.rank(algebra.kirillov_matrix(tables["NH_minus_ext"], xi))
            total += 1
            if rank == cls.dimension and classify(xi)[0] is cls:
                agree += 1
    metrics = {
        "jacobi": jacobi,
        "contraction_deviations": {name: dict(zip(map(str, cs), d)) for name, d in devs.items()},
        "contraction_slope": slopes,
        "rank_agreement": agree / total,
    }
    passes = {
        "jacobi": _worst(*jacobi.values()) <= tol["jacobi"],
        "contraction_monotone": all(d[i + 1] < d[i] for d in devs.values() for i in range(len(d) - 1)),
        "contraction_slope": all(abs(s + 2.0) <= tol["slope"] for s in slopes.values()),
        "rank_agreement": agree == total,
    }
    return metrics, passes, []


def case_labels(case: str, given: dict | None = None, tau: float = 1.0):
    """Canonical labels of `case`, or labels from the JSON fields `given`: the
    keywords of its factory, with `kappa` for kappa_vec and 2-lists for vectors.
    Labels off the case's stratum, or whose carrier's generators or basis scale
    are not finite, are a scenario error."""
    row = CASES[case]
    kwargs = row.labels
    if given is not None:
        params = inspect.signature(row.factory).parameters
        names = {("kappa" if p == "kappa_vec" else p): p for p in params if p != "tau"}
        table = {key: (_vec if key in ("rho", "kappa") else _real, params[p].default) for key, p in names.items()}
        kwargs = {names[key]: value for key, value in _fields(table, given, f"case {case} label").items()}
    try:  # a StratumError of the factory, or a generator coefficient that is not finite
        labels = row.factory(**kwargs, tau=tau)
        with np.errstate(all="ignore"):
            scale = 1.0 if row.n is None else basis_scale(labels)  # builds the carrier's generators
    except ValueError as exc:
        raise ScenarioError(f"case {case} labels {kwargs}: {exc}") from exc
    _require(0.0 < scale < math.inf, f"case {case} labels {kwargs} give the basis scale {scale}")
    return labels


def _run_rep_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    case, n, kmax = inputs["case"], inputs["hermite_n"], inputs["probe_kmax"]
    labels = case_labels(case, inputs["labels"], inputs["tau"])
    if CASES[case].n is not None:  # the probe state's modes 0..kmax must fit in the basis
        _require(kmax < n, f"probe_kmax {kmax} must be below hermite_n {n} for case {case}")
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        metrics = check_case(case, labels, rng, inputs["samples"], inputs["scale"], inputs["grid"], n, kmax)
    passes = {name: metrics[f"{name}_max"] <= tol[name] for name in ("unitarity", "homomorphism")}
    if metrics["generator_residuals"]:
        passes["generators"] = _worst(*metrics["generator_residuals"].values()) <= tol["generator"]
    return metrics, passes, []


def _run_moyal_check(inputs: dict, tol: dict, seed: int) -> tuple[dict, dict, list[str]]:
    m, tau, n_herm, box, nodes = (inputs[key] for key in ("m", "tau", "hermite_n", "box", "nodes"))
    rng = np.random.default_rng(seed)
    labels = case_labels("f", {**CASES["f"].labels, "m": m}, tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        ctx = ladder_build(n_herm, basis_scale(labels), dims=2)
        for key in ("box", "roundtrip_box"):  # a grid's largest |alpha| and |q p| are at its corner
            with np.errstate(all="ignore"):
                corner = kernel_axis_matrix(inputs[key], inputs[key], m, ctx)
            _require(np.isfinite(corner).all(),
                     f"{key} {inputs[key]} puts the kernel at the quadrature corner out of float range at "
                     f"hermite_n {n_herm}")
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
        "m": (_nonzero, 1.0), "tau": (_tau, 1.0), "C1": (_real, 0.0), "C2": (_real, 0.0),
        "q0": (_vec, Vec2(0.0, 0.0)), "p0": (_vec, Vec2(1.0, 0.0)), "dt": (_positive, 1e-3),
        "t_max": (_positive, lambda inputs: 2.0 * math.pi * inputs["tau"]),  # one period
    }, {"conservation": 1e-9}),
    "algebra-check": (_run_algebra_check, {
        "tau": (_tau, 1.0), "contraction_speeds": (_speeds, [1e2, 1e3, 1e4]),
        "rank_samples": (_count(1, DRAWS_MAX), 200),
    }, {"jacobi": 1e-13, "slope": 0.1}),
    "rep-check": (_run_rep_check, {
        "case": (_case, "f"), "tau": (_tau, 1.0), "samples": (_count(1, DRAWS_MAX), 50), "scale": (_scale, 0.5),
        "grid": (_grid, 16),
        # the case's defaults, None for cases h..k, which have no Hermite basis
        "hermite_n": (_count(4, BASIS_MAX), lambda inputs: CASES[inputs["case"]].n),
        "probe_kmax": (_count(0, BASIS_MAX - 1), lambda inputs: CASES[inputs["case"]].kmax),  # below hermite_n
        "labels": (lambda x, where: x, None),  # checked against the case's factory by case_labels
    }, {
        "unitarity": 1e-10, "generator": 1e-5,
        "homomorphism": lambda inputs: CASES[inputs["case"]].homomorphism,
    }),
    "moyal-check": (_run_moyal_check, {
        "m": (_nonzero, 1.0), "tau": (_tau, 1.0),  # the basis scale sqrt(|m| tau) must be positive
        "hermite_n": (_count(4, BASIS_MAX), 32), "samples": (_count(1, DRAWS_MAX), 10),
        "box": (_positive, 3.0), "nodes": (_count(1, NODES_MAX), 96),
        "roundtrip_box": (_positive, 5.0), "roundtrip_nodes": (_count(1, NODES_MAX), 96),
    }, {"covariance": 1e-6, "isotropy": 1e-4, "trikernel": 1e-2, "trace_smeared": 0.05, "roundtrip": 0.05}),
    "group-check": (_run_group_check, {
        "samples": (_count(1, DRAWS_MAX), 2000), "taus": (_taus, [0.5, 1.0, 2.0]),
    }, {
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


def _environment() -> dict:
    """What the numbers depend on besides the scenario: interpreter, NumPy and
    its BLAS, the BLAS thread settings and the CPU count, all fixed on one machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


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
            "env": _environment(),
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
        try:
            with open(args.scenario, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario file {args.scenario}: {exc}") from exc
        loaded = _parse_json(text, "scenario file")
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


def _write(flag: str, path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {flag} {path}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = scenario_from_args(args)
        report = run(scenario)
        text, rows = report_json(report), report.get("csv")
        if args.out:
            _write("--out", args.out, text + "\n")
        else:
            print(text)
        if rows:
            if args.csv_out:
                _write("--csv-out", args.csv_out, "\n".join(rows) + "\n")
            elif args.out:
                print("\n".join(rows))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0 if all(report["pass"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

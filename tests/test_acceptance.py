"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 read one run of `group-check`, and criteria 4 and 6 one run of
`algebra-check`, each shared through a module fixture.  The CLI holds the only
copy of those checks.  Criterion 8 is split in two: the kernel calculus checks, and the pointwise
tri-kernel comparison.  The triple product is not trace class, so `tri_kernel`
returns its trace under a fixed smooth window (a summability method), which
converges to the closed form; the weak-form test in test_moyal.py checks the
same identity independently through a Gaussian smear.
"""

import math
import sys

import numpy as np
import pytest

from nhkit.coadjoint import (
    OrbitClass,
    classify,
    coad,
    invariants,
    random_point_in_class,
    time_translation,
)
from nhkit.dynamics import (
    PhasePoint,
    angular_momentum,
    evolve,
    flow_matrix,
    hamiltonian,
    integrate_reference,
    to_dual,
)
from nhkit.funcspace import ladder_build, probe_state
from nhkit.group import GroupElement, Vec2, compose, random_element
from nhkit.moyal import (
    AxisQuadrature,
    kernel_apply,
    star_product_axis,
    tri_kernel,
    tri_kernel_closed_form,
    weyl_symbol_axis,
)
from nhkit.cli import report_json, run as run_scenario
from nhkit.representations import (
    CASES,
    basis_scale,
    case_setup,
    check_case,
    homomorphism_residual,
    nilpotent_rep_apply,
)

SEED = 987654321


def _say(line: str):
    print(line, file=sys.stderr)


@pytest.fixture(scope="module")
def group_report():
    """group-check with 1,667 draws per (variant, tau), 5,001 per variant, at the criteria's
    budgets, which are its defaults."""
    report = run_scenario({
        "command": "group-check", "seed": SEED, "inputs": {"samples": 1667},
        "tolerances": {
            "associativity": 1e-10, "identity": 1e-10, "inverse": 1e-10, "action": 1e-11, "projection": 1e-12,
        },
    })
    assert set(report["pass"]) == {
        "associativity", "identity", "inverse", "projection", "action", "extension_blindness",
    }, report
    return report


def test_criterion_1_group_axioms(group_report):
    """The group axioms, and the projection to the unextended group."""
    metrics, passes = group_report["metrics"], group_report["pass"]
    names = ("associativity", "identity", "inverse", "projection")
    ok = all(passes[name] for name in names)
    _say(
        f"[criterion 1] group axioms: assoc={metrics['associativity_max']:.2e} ident={metrics['identity_max']:.2e} "
        f"inv={metrics['inverse_max']:.2e} proj={metrics['projection_max']:.2e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert ok, group_report


def test_criterion_2_spacetime_action(group_report):
    """The left action on space-time and its blindness to the central extensions."""
    metrics, passes = group_report["metrics"], group_report["pass"]
    ok = passes["action"] and passes["extension_blindness"]
    _say(
        f"[criterion 2] space-time action: left-action={metrics['action_max']:.2e} "
        f"central-blind={metrics['extension_blindness_max']:.1e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert ok, group_report


def test_criterion_3_coadjoint_action_and_invariants():
    rng = np.random.default_rng(SEED + 2)
    worst_action = worst_inv = 0.0
    n_per_class = 10_000 // len(OrbitClass) + 1
    for cls in OrbitClass:
        xi0 = random_point_in_class(cls, rng, 1.0)
        base = invariants(xi0).as_dict()
        for _ in range(n_per_class):
            g1 = random_element(rng)
            g2 = random_element(rng)
            xi = random_point_in_class(cls, rng, 1.0) if rng.uniform() < 0.1 else xi0
            a = coad(compose(g1, g2), xi)
            b = coad(g1, coad(g2, xi))
            worst_action = max(
                worst_action, abs(a.h - b.h), abs(a.j - b.j), (a.p - b.p).norm(), (a.k - b.k).norm()
            )
            moved = coad(g1, xi0)
            assert moved.f == xi0.f and moved.m == xi0.m
            got_cls, got_inv = classify(moved)
            assert got_cls is cls
            for key, val in got_inv.as_dict().items():
                worst_inv = max(worst_inv, abs(val - base[key]) / (1.0 + abs(base[key])))
    ok = worst_action <= 1e-10 and worst_inv <= 1e-9
    _say(
        f"[criterion 3] coadjoint: action={worst_action:.2e} invariant-drift={worst_inv:.2e} "
        f"class-constant=yes f,m=bitwise -> {'PASS' if ok else 'FAIL'}"
    )
    assert worst_action <= 1e-10
    assert worst_inv <= 1e-9


@pytest.fixture(scope="module")
def algebra_report():
    """algebra-check with 1,000 draws per orbit class, at the criteria's budgets, which are its
    defaults."""
    report = run_scenario({
        "command": "algebra-check", "seed": SEED + 3, "inputs": {"rank_samples": 1000},
        "tolerances": {"jacobi": 1e-13, "slope": 0.1},
    })
    assert set(report["pass"]) == {"rank_agreement", "jacobi", "contraction_monotone", "contraction_slope"}, report
    return report


def test_criterion_4_kirillov_rank_equals_orbit_dimension(algebra_report):
    metrics, passes = algebra_report["metrics"], algebra_report["pass"]
    ok = passes["rank_agreement"]
    _say(
        f"[criterion 4] Kirillov rank vs orbit dimension: agreement={metrics['rank_agreement']:.4f} "
        f"over {1000 * len(OrbitClass)} draws -> {'PASS' if ok else 'FAIL'}"
    )
    assert ok, algebra_report


def test_criterion_6_contraction_and_jacobi(algebra_report):
    """Jacobi on nine tables, and both de Sitter contractions."""
    metrics, passes = algebra_report["metrics"], algebra_report["pass"]
    ok = passes["jacobi"] and passes["contraction_monotone"] and passes["contraction_slope"]
    slopes = [f"{s:.3f}" for s in metrics["contraction_slope"].values()]
    _say(
        f"[criterion 6] contraction + Jacobi: jacobi={max(metrics['jacobi'].values()):.1e} slopes={slopes} "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    assert ok, algebra_report


def test_criterion_5_dynamics():
    rng = np.random.default_rng(SEED + 4)
    j_std = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    worst_rk = worst_cons = worst_symp = worst_coad = 0.0
    for _ in range(10):
        x0 = PhasePoint(
            q=Vec2(*rng.uniform(-1, 1, 2)),
            p=Vec2(*rng.uniform(-1, 1, 2)),
            m=float(rng.uniform(0.5, 2.0)),
            tau=float(rng.uniform(0.5, 2.0)),
            C1=float(rng.uniform(-1, 1)),
            C2=float(rng.uniform(-1, 1)),
        )
        t_long = 10.0 * x0.tau
        ref = integrate_reference(x0, t_long, 1e-3)
        exact = evolve(x0, t_long)
        worst_rk = max(worst_rk, (ref.q - exact.q).norm() + (ref.p - exact.p).norm())
        h0, j0 = hamiltonian(x0), angular_momentum(x0)
        for t in np.linspace(0, 100 * x0.tau, 11):
            xt = evolve(x0, float(t))
            worst_cons = max(
                worst_cons,
                abs(hamiltonian(xt) - h0) / max(1.0, abs(h0)),
                abs(angular_momentum(xt) - j0) / max(1.0, abs(j0)),
            )
        t = float(rng.uniform(-5, 5))
        mat = np.array(flow_matrix(x0.m, x0.tau, t))
        worst_symp = max(worst_symp, float(np.max(np.abs(mat.T @ j_std @ mat - j_std))))
        xi_t = coad(time_translation(t, x0.tau), to_dual(x0))
        x_t = evolve(x0, t)
        worst_coad = max(
            worst_coad, (xi_t.k * (1.0 / x0.m) - x_t.q).norm(), (xi_t.p - x_t.p).norm()
        )
    ok = worst_rk <= 1e-6 and worst_cons <= 1e-12 and worst_symp <= 1e-12 and worst_coad <= 1e-10
    _say(
        f"[criterion 5] dynamics: rk4={worst_rk:.2e} conservation={worst_cons:.2e} "
        f"symplectic={worst_symp:.2e} coad-transport={worst_coad:.2e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert worst_rk <= 1e-6
    assert worst_cons <= 1e-12
    assert worst_symp <= 1e-12
    assert worst_coad <= 1e-10


# --------------------------------------------------------------------------
# criterion 7: representations
# --------------------------------------------------------------------------

def test_criterion_7_representations():
    """rep-check's check of every case, on one shared rng, plus the checks
    rep-check does not make: bracket images, the nilpotent representation and
    improvement with N."""
    rng = np.random.default_rng(SEED + 6)
    labs = {case: row.factory(**row.labels) for case, row in CASES.items()}
    results = {}

    def check(case, samples=200, scale=0.5, kmax=None):
        metrics = check_case(case, labs[case], rng, samples, scale, kmax=kmax)
        results[case] = (metrics["homomorphism_max"], CASES[case].homomorphism, metrics["unitarity_max"])
        gen = metrics["generator_residuals"]
        assert not gen or max(gen.values()) <= 1e-5, (case, gen)

    # 2D function-space cases; g's probe state stops at mode 4, below the table's 5
    check("a")
    check("f")
    check("g", kmax=4)

    # extension-bracket images on the interior block: [K^_i, P^_j] = -i d_ij m,
    # [K^_1, K^_2] = -i f, [P^_1, P^_2] = -i f / tau^2
    lab_a = labs["a"]
    ctx_a, rep_a, _ = case_setup("a", lab_a, np.random.default_rng(0))
    n = ctx_a.n
    idx = np.array([i * n + j for i in range(n - 2) for j in range(n - 2)])
    eye = np.eye(idx.size)
    mats = {d: rep_a.generator_matrix(d) for d in ("P1", "P2", "K1", "K2")}
    def blk(mat):
        return mat[np.ix_(idx, idx)]
    bracket_worst = max(
        float(np.max(np.abs(blk(mats["K1"] @ mats["P1"] - mats["P1"] @ mats["K1"]) + 1j * lab_a.m * eye))),
        float(np.max(np.abs(blk(mats["K1"] @ mats["K2"] - mats["K2"] @ mats["K1"]) + 1j * lab_a.f * eye))),
        float(np.max(np.abs(blk(mats["P1"] @ mats["P2"] - mats["P2"] @ mats["P1"]) + 1j * lab_a.f * eye))),
        float(np.max(np.abs(blk(mats["K1"] @ mats["P2"] - mats["P2"] @ mats["K1"])))),
    )
    assert bracket_worst <= 1e-8

    # -- nilpotent representation (continuum displacements, no quadratic flows)
    ctx_nilp = ladder_build(32, basis_scale(lab_a), dims=2)
    psi_n = probe_state(ctx_nilp, rng, kmax=4)
    def nilpotent():  # an element with b = phi = 0
        g = random_element(rng, scale=0.5)
        return GroupElement(g.alpha, g.theta, 0.0, g.a, g.v, 0.0)
    nilp_pairs = [(nilpotent(), nilpotent()) for _ in range(200)]
    hom = unit = 0.0
    for g1, g2 in nilp_pairs:
        h, u, _ = homomorphism_residual(lambda g, s: nilpotent_rep_apply(lab_a, g, s, ctx_nilp), g1, g2, psi_n)
        hom, unit = max(hom, h), max(unit, u)
    results["nilpotent"] = (hom, 1e-6, unit)

    # -- 1D inner cases, the character-grid cases and the character K
    check("b", samples=60)
    check("c", samples=60)
    for case in "dehij":
        check(case)
    check("k", scale=2.0)

    # -- monotone improvement from N = 24 to N = 40 for the truncation-limited cases,
    # with the same state and the same pairs at every N.  Case g at its basis scale reaches
    # rounding (3e-15) from N = 28 on, so it steps through N = 16, 20, 24, where truncation rules.
    for case in "abcdeg":
        sampler = CASES[case].sampler
        pair_rng = np.random.default_rng(SEED + 7)
        pairs = [(sampler(pair_rng, 1.0, 0.5, 16), sampler(pair_rng, 1.0, 0.5, 16)) for _ in range(8)]
        residuals = []
        for n_basis in (16, 20, 24) if case == "g" else (24, 32, 40):
            kmax = 1 if case in "ag" else 2
            _, rep, st = case_setup(case, labs[case], np.random.default_rng(5), n=n_basis, kmax=kmax)
            residuals.append(max(homomorphism_residual(rep.apply, g1, g2, st)[0] for g1, g2 in pairs))
        assert residuals[2] < residuals[1] < residuals[0], (case, residuals)

    worst_unit = max(v[2] for v in results.values())
    fails = {k: v for k, v in results.items() if v[0] > v[1]}
    ok = not fails and worst_unit <= 1e-10
    summary = " ".join(f"{k}={v[0]:.1e}" for k, v in sorted(results.items()))
    _say(
        f"[criterion 7] representations: hom {summary}; unitarity={worst_unit:.1e}; "
        f"brackets={bracket_worst:.1e}; N-monotone=yes -> {'PASS' if ok else 'FAIL ' + str(fails)}"
    )
    assert worst_unit <= 1e-10
    assert not fails, fails


# --------------------------------------------------------------------------
# criterion 8: Moyal quantization
# --------------------------------------------------------------------------

def test_criterion_8_moyal_kernel_and_calculus():
    """moyal-check's covariance, isotropy, tri-kernel, smeared-trace and
    round-trip checks, plus the kernel's self-adjointness, Omega^2 = 16 and the
    twisted product, which moyal-check does not make."""
    rng = np.random.default_rng(SEED + 8)
    m = 1.0
    ctx = ladder_build(32, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=4)
    phi = probe_state(ctx, rng, kmax=4)

    adj = sq = 0.0
    for _ in range(5):
        q = Vec2(*rng.uniform(-0.5, 0.5, 2))
        p = Vec2(*rng.uniform(-0.5, 0.5, 2))
        lhs = np.vdot(phi.coeffs, kernel_apply(q, p, m, psi, ctx).coeffs)
        rhs = np.vdot(kernel_apply(q, p, m, phi, ctx).coeffs, psi.coeffs)
        adj = max(adj, abs(lhs - rhs))
        twice = kernel_apply(q, p, m, kernel_apply(q, p, m, psi, ctx), ctx)
        sq = max(sq, float(np.linalg.norm(twice.coeffs - 16.0 * psi.coeffs)) / 16.0)

    report = run_scenario(
        {"command": "moyal-check", "seed": SEED + 8, "inputs": {"samples": 10, "roundtrip_nodes": 128}}
    )
    kernel = report["metrics"]

    quad_st = AxisQuadrature.build(5.0, 48)

    def coherent(alpha):
        return np.array(
            [alpha**k / math.sqrt(float(math.factorial(k))) for k in range(ctx.n)], complex
        ) * math.exp(-abs(alpha) ** 2 / 2.0)

    ca, cb = coherent(0.5), coherent(-0.3 + 0.4j)
    a_ax, b_ax = np.outer(ca, ca.conj()), np.outer(cb, cb.conj())
    wa = weyl_symbol_axis(a_ax, quad_st, m, ctx)
    wb = weyl_symbol_axis(b_ax, quad_st, m, ctx)
    star_err = float(
        np.linalg.norm(star_product_axis(wa, wb, quad_st) - weyl_symbol_axis(a_ax @ b_ax, quad_st, m, ctx))
        / np.linalg.norm(weyl_symbol_axis(a_ax @ b_ax, quad_st, m, ctx))
    )

    ok = adj <= 1e-8 and sq <= 1e-8 and all(report["pass"].values()) and star_err <= 0.10
    _say(
        f"[criterion 8] moyal calculus: self-adjoint={adj:.1e} omega^2={sq:.1e} "
        f"covariance={kernel['covariance_max']:.1e} isotropy={kernel['isotropy_max']:.1e} "
        f"trikernel={kernel['trikernel_max_err']:.1e} smeared-trace={kernel['trace_smeared_err']:.1e} "
        f"roundtrip={kernel['roundtrip_err']:.1e} star-vs-operator={star_err:.1e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert adj <= 1e-8
    assert sq <= 1e-8
    assert all(report["pass"].values()), report["pass"]
    assert star_err <= 0.10


def test_criterion_8_trikernel_pointwise():
    """Pointwise comparison of the windowed triple trace with the closed form
    at the stated tolerance (1e-2 relative at N = 32, with N-refinement
    improvement).

    The triple kernel product is 16 times a unitary operator, which is not
    trace class: its plain truncated trace stays O(1) away from the closed
    form from N = 24 to N = 96.  `tri_kernel` traces each factor with a smooth
    window fixed by N alone, which converges (about 6.7e-4 at N = 32).  The
    identity is also verified in smeared (weak) form in test_moyal.py.
    """
    rng = np.random.default_rng(SEED + 9)
    m = 1.0
    us = [
        [(Vec2(*rng.uniform(-1, 1, 2)), Vec2(*rng.uniform(-1, 1, 2))) for _ in range(3)]
        for _ in range(10)
    ]
    errs = {}
    for n_basis in (24, 32, 40):
        ctx = ladder_build(n_basis, 1.0, dims=2)
        worst = 0.0
        for u1, u2, u3 in us:
            num = tri_kernel(u1, u2, u3, m, ctx)
            closed = tri_kernel_closed_form(u1, u2, u3)
            worst = max(worst, abs(num - closed) / 16.0)
        errs[n_basis] = worst
    ok = errs[32] <= 1e-2 and errs[40] < errs[32] < errs[24]
    _say(
        f"[criterion 8, tri-kernel pointwise] |num-closed|/16 at N=24/32/40: "
        f"{errs[24]:.2e}/{errs[32]:.2e}/{errs[40]:.2e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert errs[32] <= 1e-2, (
        "windowed triple-product trace misses the closed form "
        f"(measured {errs}); compare the smeared form in test_moyal"
    )
    assert errs[40] < errs[32] < errs[24]


def test_criterion_9_determinism():
    scenario = {"command": "group-check", "seed": 424242, "inputs": {"samples": 80}}
    a = report_json(run_scenario(scenario), drop_timing=True)
    b = report_json(run_scenario(scenario), drop_timing=True)
    ok = a == b
    _say(f"[criterion 9] determinism: byte-identical reports -> {'PASS' if ok else 'FAIL'}")
    assert a == b
    scenario2 = {"command": "rep-check", "seed": 99, "inputs": {"case": "f", "samples": 5, "hermite_n": 16}}
    a2 = report_json(run_scenario(scenario2), drop_timing=True)
    b2 = report_json(run_scenario(scenario2), drop_timing=True)
    assert a2 == b2

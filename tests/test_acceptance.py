"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 is split in two: the kernel calculus checks, and the pointwise
tri-kernel comparison.  The triple product is not trace class, so `tri_kernel`
returns its trace under a fixed smooth window (a summability method), which
converges to the closed form; the weak-form test in test_moyal.py checks the
same identity independently through a Gaussian smear.
"""

import math
import sys

import numpy as np

from nhkit import algebra
from nhkit.coadjoint import (
    DualPoint,
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
from nhkit.group import (
    GroupElement,
    Variant,
    Vec2,
    act_spacetime,
    compose,
    element_distance,
    inverse,
    random_element,
)
from nhkit.moyal import (
    AxisQuadrature,
    kernel_apply,
    star_product_axis,
    tri_kernel,
    tri_kernel_closed_form,
    weyl_symbol_axis,
)
from nhkit.cli import report_json, run as run_scenario
from nhkit.representations import CASES, case_setup, check_case, homomorphism_residual, nilpotent_rep_apply

SEED = 987654321


def _say(line: str):
    print(line, file=sys.stderr)


def _cond(g: GroupElement) -> float:
    if g.variant is Variant.OSCILLATING:
        return 1.0
    return max(1.0, math.cosh(2.0 * g.b / g.tau) * (1.0 + g.a.sq() + g.v.sq()))


def test_criterion_1_group_axioms():
    rng = np.random.default_rng(SEED)
    worst_assoc = worst_ident = worst_inv = 0.0
    combos = [(v, t) for v in Variant for t in (0.5, 1.0, 2.0)]
    per_combo = 10_000 // len(combos) + 1
    for variant, tau in combos:
        e = GroupElement.identity(variant, tau)
        for _ in range(per_combo):
            g1, g2, g3 = (random_element(rng, tau, variant) for _ in range(3))
            scale = _cond(g1) * _cond(g2) * _cond(g3)
            lhs = compose(compose(g1, g2), g3)
            rhs = compose(g1, compose(g2, g3))
            worst_assoc = max(worst_assoc, element_distance(lhs, rhs) / scale)
            worst_ident = max(
                worst_ident, element_distance(compose(g1, e), g1), element_distance(compose(e, g1), g1)
            )
            worst_inv = max(
                worst_inv, element_distance(compose(g1, inverse(g1)), e) / _cond(g1) ** 2
            )
    ok = worst_assoc <= 1e-10 and worst_ident <= 1e-10 and worst_inv <= 1e-10
    _say(
        f"[criterion 1] group axioms: assoc={worst_assoc:.2e} ident={worst_ident:.2e} "
        f"inv={worst_inv:.2e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert worst_assoc <= 1e-10
    assert worst_ident <= 1e-10
    assert worst_inv <= 1e-10


def test_criterion_2_spacetime_action():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    blind = 0.0
    for variant in Variant:
        for _ in range(5000):
            g1 = random_element(rng, 1.0, variant)
            g2 = random_element(rng, 1.0, variant)
            t, x = rng.uniform(-2, 2), Vec2(*rng.uniform(-2, 2, 2))
            t1, x1 = act_spacetime(g2, t, x)
            t2, x2 = act_spacetime(g1, t1, x1)
            t3, x3 = act_spacetime(compose(g1, g2), t, x)
            worst = max(worst, abs(t2 - t3), (x2 - x3).norm())
            bare = GroupElement(0.0, 0.0, g1.b, g1.a, g1.v, g1.phi, variant, 1.0)
            _, xb = act_spacetime(bare, t, x)
            _, xg = act_spacetime(g1, t, x)
            blind = max(blind, (xb - xg).norm())
    ok = worst <= 1e-11 and blind == 0.0
    _say(f"[criterion 2] space-time action: left-action={worst:.2e} central-blind={blind:.1e} -> {'PASS' if ok else 'FAIL'}")
    assert worst <= 1e-11
    assert blind == 0.0


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


def test_criterion_4_kirillov_rank_equals_orbit_dimension():
    rng = np.random.default_rng(SEED + 3)
    table = algebra.build_table("NH_minus", extended=True, tau=1.0)
    mismatches = 0
    for cls in OrbitClass:
        for _ in range(1000):
            xi = random_point_in_class(cls, rng, 1.0)
            if algebra.rank(algebra.kirillov_matrix(table, xi)) != cls.dimension:
                mismatches += 1
    ok = mismatches == 0
    _say(f"[criterion 4] Kirillov rank vs orbit dimension: mismatches={mismatches}/11000 -> {'PASS' if ok else 'FAIL'}")
    assert mismatches == 0


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


def test_criterion_6_contraction_and_jacobi():
    tables = [
        algebra.build_table("NH_minus", tau=1.0),
        algebra.build_table("NH_plus", tau=1.0),
        algebra.build_table("NH_minus", extended=True, tau=1.0),
        algebra.build_table("NH_plus", extended=True, tau=1.0),
        algebra.build_table("Galilei"),
        algebra.build_table("Galilei", extended=True),
        algebra.build_table("Poincare"),
        algebra.build_table("dS_minus", c=1.0, R=1.0),
        algebra.build_table("dS_plus", c=1.0, R=1.0),
    ]
    worst_jac = max(algebra.jacobi_residual(t) for t in tables)
    slopes = []
    for ds_name in ("dS_minus", "dS_plus"):
        base = algebra.build_table(ds_name, c=1.0, R=1.0)
        nh = algebra.build_table(algebra.nh_limit_of(algebra.AlgebraName(ds_name)), tau=1.0)
        devs = [
            algebra.max_table_deviation(algebra.contract(base, c, c), nh) for c in (1e2, 1e3, 1e4)
        ]
        assert devs[1] < devs[0] and devs[2] < devs[1]
        slopes.append((math.log(devs[2]) - math.log(devs[0])) / (math.log(1e4) - math.log(1e2)))
    slope_ok = all(abs(s + 2.0) <= 0.1 for s in slopes)
    ok = worst_jac <= 1e-13 and slope_ok
    _say(
        f"[criterion 6] contraction + Jacobi: jacobi={worst_jac:.1e} slopes={[f'{s:.3f}' for s in slopes]} "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    assert worst_jac <= 1e-13
    assert slope_ok


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
    ctx_nilp = ladder_build(32, CASES["a"].lam(lab_a), dims=2)
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
    # with the same state and the same pairs at every N
    for case in "abcdeg":
        sampler = CASES[case].sampler
        pair_rng = np.random.default_rng(SEED + 7)
        pairs = [(sampler(pair_rng, 1.0, 0.5, 16), sampler(pair_rng, 1.0, 0.5, 16)) for _ in range(8)]
        residuals = []
        for n_basis in (24, 32, 40):
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

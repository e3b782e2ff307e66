"""Seeded inputs, set-up and checks of the four benchmark workloads.

`build(name, rng)` does the set-up one CLI invocation does (basis contexts,
representations, quadratures, probe states) and draws every input from
`rng`.  It returns the workload's checks as (kind, thunk) pairs.  A thunk
returns a list of (residual, budget) pairs; the check passes when every
residual is within its budget.

Labels, basis sizes N, scales lambda, samplers, quadratures and budgets
are those of the CLI defaults (`rep-check`, `moyal-check`, `group-check`)
and, where the CLI has no such check, of the acceptance suite.  They are
written out here rather than read from `nhkit.cli`, so the inputs stay
fixed while the program changes.  Only the number of checks per round is
chosen by the benchmark (the `*_PER_ROUND` constants).

The program is reached through module attributes (`GR.compose`, ...) so
that the tracer's patches are seen.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from nhkit import algebra as AL
from nhkit import coadjoint as CO
from nhkit import dynamics as DY
from nhkit import funcspace as FS
from nhkit import group as GR
from nhkit import moyal as MO
from nhkit import representations as RE
from nhkit.coadjoint import OrbitClass
from nhkit.group import GroupElement, Variant, Vec2

# -- checks per round ---------------------------------------------------------
# The counts place p50 and p95 inside one kind's latency band, away from
# the edge between two kinds, so that they do not jump between bands from
# run to run.
# hermite2d, per case A, F, G: sweeps of 23 homomorphism pairs (~19 ms)
# followed by the eight generator directions on a fresh probe state.  The H
# and J directions rebuild a dense generator matrix (`op_matrix`) on every
# call (~470 ms on A, ~130 ms on F and G); the other six (~5-30 ms) sit at
# or below the pairs.
# p50 falls among the pairs.  Above p95 lie the first pair of each case,
# which pays the lazy eigendecompositions, and A's H and J checks; the 20
# H and J checks of F and G hold p95.  With p95 in the tail of the pairs'
# band instead (8 directions once, 300 pairs), a few seconds of host
# slowdown set it, and it spread up to 0.5 over 10 runs.
HERMITE2D_SWEEPS = 5
HERMITE2D_PAIRS_PER_SWEEP = 23
# grid1d: D and E (~1 ms) hold p50; B and C (~50 ms, 20%) hold p95.
GRID1D_PAIRS_PER_ROUND = {"b": 14, "c": 14, "d": 40, "e": 40, "h": 8, "i": 8, "j": 8, "k": 8}
# moyal: blocks of 8 covariance samples (~5 ms), 1 isotropy sample (~16 ms)
# and 1 pointwise tri-kernel sample (~3 ms), repeated, so each kind is
# sampled all through the round.  Tri-kernel samples are below p50 and
# covariance samples hold it.  Above p95 are the 4 quadrature checks
# (smeared trace, 2 round trips, star product, ~6 s together) and the first
# isotropy sample, which pays the lazy eigendecompositions; the other
# isotropy samples hold p95.  The blocks fill ~15 s of a ~22 s round.  With
# the CLI's 10 isotropy samples all at the start of a 7 s round, p50 and
# p95 sampled under a second of checks each and spread up to 0.23 over 10
# runs.  Isotropy stays interleaved with covariance, as in the CLI's loop:
# run as a block before them, covariance samples took ~9 ms.
MOYAL_BLOCKS_PER_ROUND = 240
# classical: per (variant, tau) for the group, per class for the rest.
# Kirillov checks (~0.03 ms) fill the lowest 41% and group.action samples
# (~0.12 ms) the next 18%, so p50 falls in the middle of the action band;
# dynamics samples (~0.28 ms, 11%) are the slowest and hold p95.  With the
# action band at the edge of p50, p50 jumped between ~0.15 and ~0.20 ms.
CLASSICAL_PER_ROUND = {"group": 300, "coadjoint": 120, "kirillov": 380, "dynamics": 1100}

# -- CLI defaults -------------------------------------------------------------
TAU = 1.0
HOM_BUDGET = {"a": 1e-3, "b": 1e-3, "c": 1e-3, "d": 1e-3, "e": 1e-3, "g": 1e-3,
              "f": 1e-6, "h": 1e-6, "i": 1e-6, "j": 1e-6, "k": 1e-6}
UNITARITY_BUDGET = 1e-10
GENERATOR_BUDGET = 1e-5
DIRECTIONS = ("P1", "P2", "K1", "K2", "H", "J", "M", "F")
GRID_NODES = 16
REP_SCALE = 0.5


def labels(case: str):
    """The CLI's canonical labels per case."""
    return {
        "a": lambda: RE.labels_case_a(f=3.0, m=1.0, C1=1.0, C2=0.5, tau=TAU),
        "b": lambda: RE.labels_case_b(m=1.0, C3=1.0, C4=0.7, kappa1=0.3, tau=TAU),
        "c": lambda: RE.labels_case_c(m=1.0, C3p=1.0, C4p=0.7, kappa1=0.3, tau=TAU),
        "d": lambda: RE.labels_case_d(m=1.0, C4=0.8, C5=0.4, kappa1=0.2, kappa2=0.1, tau=TAU),
        "e": lambda: RE.labels_case_e(m=1.0, C4p=0.8, C5p=0.4, kappa1=0.2, kappa2=0.1, tau=TAU),
        "f": lambda: RE.labels_case_f(m=1.0, C1=1.0, C2=0.3, tau=TAU),
        "g": lambda: RE.labels_case_g(f=1.5, C1=0.8, C2=0.4, tau=TAU),
        "h": lambda: RE.labels_case_h(rho=Vec2(1.0, 0.0), kappa_vec=Vec2(0.0, 0.5), tau=TAU),
        "i": lambda: RE.labels_case_i(kappa_vec=Vec2(0.0, -1.0), C5=0.7, tau=TAU),
        "j": lambda: RE.labels_case_j(kappa_vec=Vec2(0.3, -1.0), C5p=0.7, tau=TAU),
        "k": lambda: RE.labels_case_k(h=1.0, j=-1.0, tau=TAU),
    }[case]()


# -- input samplers (the CLI's distributions) --------------------------------

def random_element(rng, scale=2.0, tau=TAU, variant=Variant.OSCILLATING) -> GroupElement:
    v = rng.uniform(-scale, scale, size=8)
    return GroupElement(v[0], v[1], v[2], Vec2(v[3], v[4]), Vec2(v[5], v[6]), v[7], variant, tau)


def ongrid_element(rng, n_t: int, torus=None, scale=REP_SCALE, tau=TAU) -> GroupElement:
    """Element whose time and rotation shifts are whole grid steps."""
    v = rng.uniform(-scale, scale, size=6)
    spacing = 2.0 * math.pi / n_t
    if torus:
        b = (2.0 * math.pi * tau / torus[0]) * rng.integers(-3, 4)
        phi = (2.0 * math.pi / torus[1]) * rng.integers(-3, 4)
    else:
        b = tau * spacing * rng.integers(-2, 3)
        phi = spacing * rng.integers(-2, 3)
    return GroupElement(v[0], v[1], b, Vec2(v[2], v[3]), Vec2(v[4], v[5]), phi, Variant.OSCILLATING, tau)


def _vec(rng, lo, hi) -> Vec2:
    return Vec2(*rng.uniform(lo, hi, 2))


# -- representation checks ------------------------------------------------------

def _carried(state) -> np.ndarray:
    return state.coeffs if hasattr(state, "coeffs") else state.values


def _homomorphism(apply, g1, g2, state, budget):
    """U(g1) U(g2) psi against U(g1 g2) psi, and the norm of the result."""
    a = _carried(apply(g1, apply(g2, state)))
    b = _carried(apply(GR.compose(g1, g2), state))
    return [
        (float(np.linalg.norm(a - b)), budget),
        (abs(float(np.linalg.norm(a)) - 1.0), UNITARITY_BUDGET),
    ]


def _generator(lab, direction, ctx, psi):
    return [(RE.generator_check(lab, lab.orbit_class, direction, ctx, psi), GENERATOR_BUDGET)]


def _character(lab, g1, g2):
    lhs = RE.rep_k(lab, GR.compose(g1, g2))
    rhs = RE.rep_k(lab, g1) * RE.rep_k(lab, g2)
    return [(abs(lhs - rhs), HOM_BUDGET["k"]), (abs(abs(RE.rep_k(lab, g1)) - 1.0), UNITARITY_BUDGET)]


def hermite2d(rng):
    """Cases A, F, G on 2D Hermite carriers at N = 32: homomorphism pairs
    and the eight generator directions, as `rep-check` runs them, repeated
    in sweeps."""
    checks = []
    for case, lam, kmax in (("a", 1.1, 1), ("f", 1.0, 5), ("g", 1.0, 5)):
        lab = labels(case)
        ctx = FS.ladder_build(32, lam, dims=2, pad=0)
        rep = RE.InducedRep2D(lab, ctx)
        psi = FS.probe_state(ctx, rng, kmax=kmax)
        for _ in range(HERMITE2D_SWEEPS):
            for _ in range(HERMITE2D_PAIRS_PER_SWEEP):
                g1, g2 = random_element(rng, REP_SCALE), random_element(rng, REP_SCALE)
                checks.append((f"{case}.hom", partial(_homomorphism, rep.apply, g1, g2, psi, HOM_BUDGET[case])))
            probe = FS.probe_state(ctx, rng, kmax=kmax)
            for direction in DIRECTIONS:
                checks.append((f"{case}.gen", partial(_generator, lab, direction, ctx, probe)))
    return checks


def grid1d(rng):
    """Cases B, C (16-node circle grid of N = 96 states), D, E (N = 48), the
    scalar grids H, I, J and the character K, as `rep-check` runs them."""
    pairs = GRID1D_PAIRS_PER_ROUND
    checks = []
    lam1 = (labels("b").f ** 2 / 2.0) ** 0.25
    for case in ("b", "c"):
        lab = labels(case)
        ctx = FS.ladder_build(96, lam1, dims=1, pad=0)
        rep = RE.InducedRepBC(lab, ctx, n_t=GRID_NODES)
        base = FS.probe_state(ctx, rng, kmax=2)
        vals = np.array([base.coeffs * np.exp(0.37j * i) for i in range(GRID_NODES)])
        state = RE.CircleGridHermite(values=vals / np.linalg.norm(vals), lam=lam1)
        for _ in range(pairs[case]):
            g1, g2 = ongrid_element(rng, GRID_NODES), ongrid_element(rng, GRID_NODES)
            checks.append((f"{case}.hom", partial(_homomorphism, rep.apply, g1, g2, state, HOM_BUDGET[case])))
    for case in ("d", "e"):
        lab = labels(case)
        ctx = FS.ladder_build(48, lam1, dims=1, pad=0)
        rep = RE.InducedRepDE(lab, ctx)
        psi = FS.probe_state(ctx, rng, kmax=2)
        for _ in range(pairs[case]):
            g1, g2 = random_element(rng, REP_SCALE), random_element(rng, REP_SCALE)
            checks.append((f"{case}.hom", partial(_homomorphism, rep.apply, g1, g2, psi, HOM_BUDGET[case])))
    for case in ("h", "i", "j"):
        rep = RE.InducedRepHIJ(labels(case))
        if case == "h":
            vals = np.exp(1j * rng.uniform(0, 2 * math.pi, (GRID_NODES, GRID_NODES)))
            state = RE.TorusGridScalar(values=vals / np.linalg.norm(vals), tau=TAU)
            torus = (GRID_NODES, GRID_NODES)
        else:
            vals = np.exp(1j * rng.uniform(0, 2 * math.pi, GRID_NODES))
            state = RE.CircleGridScalar(values=vals / np.linalg.norm(vals))
            torus = None
        for _ in range(pairs[case]):
            g1 = ongrid_element(rng, GRID_NODES, torus)
            g2 = ongrid_element(rng, GRID_NODES, torus)
            checks.append((f"{case}.hom", partial(_homomorphism, rep.apply, g1, g2, state, HOM_BUDGET[case])))
    lab_k = labels("k")
    for _ in range(pairs["k"]):
        g1, g2 = random_element(rng), random_element(rng)
        checks.append(("k.hom", partial(_character, lab_k, g1, g2)))
    return checks


# -- kernel calculus ---------------------------------------------------------------

def _covariance(q, p, lab, psi, ctx, rep):
    return [(MO.covariance_residual(q, p, lab, psi, ctx, rep=rep), 1e-6)]


def _isotropy(gamma, lab, psi, ctx, rep):
    return [(MO.isotropy_commutator_residual(gamma, lab, psi, ctx, rep=rep), 1e-4)]


def _tri_kernel(us, m, ctx):
    num = MO.tri_kernel(us[0], us[1], us[2], m, ctx)
    return [(abs(num - MO.tri_kernel_closed_form(*us)) / 16.0, 1e-2)]


def _smeared_trace(quad, m, ctx):
    return [(abs(MO.smeared_pair_trace(1.0, quad, m, ctx) - 1.0), 0.05)]


def _round_trip(c, quad, m, ctx):
    a_axis = np.outer(c, c.conj())
    back = MO.reconstruct_axis(MO.weyl_symbol_axis(a_axis, quad, m, ctx), quad, m, ctx)
    return [(float(np.linalg.norm(back - a_axis) / np.linalg.norm(a_axis)), 0.05)]


def _star_product(alphas, quad, m, ctx):
    """Twisted product of two coherent-state symbols against the symbol of
    the operator product (acceptance criterion 8)."""
    coh = [
        np.array([a**k / math.sqrt(math.factorial(k)) for k in range(ctx.n)], complex)
        * math.exp(-abs(a) ** 2 / 2.0)
        for a in alphas
    ]
    a_ax, b_ax = (np.outer(c, c.conj()) for c in coh)
    wa = MO.weyl_symbol_axis(a_ax, quad, m, ctx)
    wb = MO.weyl_symbol_axis(b_ax, quad, m, ctx)
    target = MO.weyl_symbol_axis(a_ax @ b_ax, quad, m, ctx)
    err = np.linalg.norm(MO.star_product_axis(wa, wb, quad) - target) / np.linalg.norm(target)
    return [(float(err), 0.10)]


def moyal(rng):
    """The kernel calculus at N = 32 with a padded basis, as `moyal-check`
    runs it, plus the star product of acceptance criterion 8."""
    m, n_herm = 1.0, 32
    ctx = FS.ladder_build(n_herm, math.sqrt(abs(m) * TAU), dims=2)
    lab = RE.labels_case_f(m=m, C1=1.0, C2=0.3, tau=TAU)
    rep = RE.InducedRep2D(lab, ctx)
    psi = FS.probe_state(ctx, rng, kmax=3)
    quad = MO.AxisQuadrature.build(3.0, 96)
    quad_rt = MO.AxisQuadrature.build(5.0, 96)
    quad_star = MO.AxisQuadrature.build(5.0, 48)
    checks = []
    for _ in range(MOYAL_BLOCKS_PER_ROUND):
        for _ in range(8):
            q, p = _vec(rng, -0.5, 0.5), _vec(rng, -0.5, 0.5)
            checks.append(("covariance", partial(_covariance, q, p, lab, psi, ctx, rep)))
        gamma = GroupElement(
            0.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
            Vec2.zero(), Vec2.zero(), rng.uniform(-0.5, 0.5), Variant.OSCILLATING, TAU,
        )
        checks.append(("isotropy", partial(_isotropy, gamma, lab, psi, ctx, rep)))
        us = [(_vec(rng, -1, 1), _vec(rng, -1, 1)) for _ in range(3)]
        checks.append(("tri_kernel", partial(_tri_kernel, us, m, ctx)))
    checks.append(("smeared_trace", partial(_smeared_trace, quad, m, ctx)))
    for _ in range(2):
        c = np.zeros(n_herm, complex)
        c[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
        checks.append(("round_trip", partial(_round_trip, c / np.linalg.norm(c), quad_rt, m, ctx)))
    radius, angle = 0.5 * np.sqrt(rng.uniform(size=2)), rng.uniform(0, 2 * math.pi, 2)
    checks.append(("star_product", partial(_star_product, radius * np.exp(1j * angle), quad_star, m, ctx)))
    return checks


# -- classical layers ------------------------------------------------------------------

def _group_axioms(g1, g2, g3):
    """`group-check` associativity, identity and inverse residuals."""
    e = GroupElement.identity(g1.variant, g1.tau)
    lhs = GR.compose(GR.compose(g1, g2), g3)
    rhs = GR.compose(g1, GR.compose(g2, g3))
    scale = max(1.0, abs(lhs.alpha), abs(lhs.theta), abs(lhs.a.x1), abs(lhs.a.x2),
                abs(lhs.v.x1), abs(lhs.v.x2))
    ident = max(GR.element_distance(GR.compose(g1, e), g1), GR.element_distance(GR.compose(e, g1), g1))
    scale_i = max(1.0, abs(g1.theta), g1.a.sq(), g1.v.sq())
    inv = GR.element_distance(GR.compose(g1, GR.inverse(g1)), e) / scale_i
    return [(GR.element_distance(lhs, rhs) / scale, 1e-10), (ident, 1e-10), (inv, 1e-10)]


def _group_action(g1, g2, t, x):
    """`group-check` left action, extension blindness and projection."""
    t1, x1 = GR.act_spacetime(g2, t, x)
    t2, x2 = GR.act_spacetime(g1, t1, x1)
    t3, x3 = GR.act_spacetime(GR.compose(g1, g2), t, x)
    bare = GroupElement(0.0, 0.0, g1.b, g1.a, g1.v, g1.phi, g1.variant, g1.tau)
    blind = (GR.act_spacetime(bare, t, x)[1] - GR.act_spacetime(g1, t, x)[1]).norm()
    pc = GR.unextended_project(GR.compose(g1, g2))
    cp = GR.compose(GR.unextended_project(g1), GR.unextended_project(g2))
    proj = max(abs(pc.b - cp.b), (pc.a - cp.a).norm(), (pc.v - cp.v).norm(), abs(pc.phi - cp.phi))
    return [(max(abs(t2 - t3), (x2 - x3).norm()), 1e-11), (blind, 0.0), (proj, 1e-12)]


def _coadjoint(cls, xi0, xi, base, g1, g2):
    """Acceptance criterion 3: left action, class and invariants along the orbit."""
    a = CO.coad(GR.compose(g1, g2), xi)
    b = CO.coad(g1, CO.coad(g2, xi))
    action = max(abs(a.h - b.h), abs(a.j - b.j), (a.p - b.p).norm(), (a.k - b.k).norm())
    moved = CO.coad(g1, xi0)
    got_cls, got_inv = CO.classify(moved)
    drift = max(abs(v - base[k]) / (1.0 + abs(base[k])) for k, v in got_inv.as_dict().items())
    fm_moved = float(moved.f != xi0.f or moved.m != xi0.m)
    return [(action, 1e-10), (drift, 1e-9), (float(got_cls is not cls), 0.0), (fm_moved, 0.0)]


def _kirillov(table, cls, xi):
    return [(float(abs(AL.rank(AL.kirillov_matrix(table, xi)) - cls.dimension)), 0.0)]


def _dynamics(x0, t):
    """Acceptance criterion 5: conservation along the exact flow, and the
    flow against coadjoint transport by a time translation."""
    h0, j0 = DY.hamiltonian(x0), DY.angular_momentum(x0)
    cons = 0.0
    for s in np.linspace(0, 100 * x0.tau, 11):
        xt = DY.evolve(x0, float(s))
        cons = max(cons, abs(DY.hamiltonian(xt) - h0) / max(1.0, abs(h0)),
                   abs(DY.angular_momentum(xt) - j0) / max(1.0, abs(j0)))
    xi_t = CO.coad(CO.time_translation(t, x0.tau), DY.to_dual(x0))
    x_t = DY.evolve(x0, t)
    transport = max((xi_t.k * (1.0 / x0.m) - x_t.q).norm(), (xi_t.p - x_t.p).norm())
    return [(cons, 1e-12), (transport, 1e-10)]


def classical(rng):
    """Group axioms and space-time action (both variants, three tau), coadjoint
    transport with `classify`, Kirillov rank against orbit dimension, and the
    oscillator flow.  No Hermite code runs here."""
    per = CLASSICAL_PER_ROUND
    checks = []
    for variant in (Variant.OSCILLATING, Variant.EXPANDING):
        for tau in (0.5, 1.0, 2.0):
            for _ in range(per["group"]):
                g1, g2, g3 = (random_element(rng, 2.0, tau, variant) for _ in range(3))
                checks.append(("group.axioms", partial(_group_axioms, g1, g2, g3)))
                t, x = rng.uniform(-2, 2), _vec(rng, -2, 2)
                checks.append(("group.action", partial(_group_action, g1, g2, t, x)))
    table = AL.build_table("NH_minus", extended=True, tau=1.0)
    for cls in OrbitClass:
        xi0 = CO.random_point_in_class(cls, rng, 1.0)
        base = CO.invariants(xi0).as_dict()
        for _ in range(per["coadjoint"]):
            g1, g2 = random_element(rng), random_element(rng)
            xi = CO.random_point_in_class(cls, rng, 1.0) if rng.uniform() < 0.1 else xi0
            checks.append(("coadjoint", partial(_coadjoint, cls, xi0, xi, base, g1, g2)))
        for _ in range(per["kirillov"]):
            checks.append(("kirillov", partial(_kirillov, table, cls, CO.random_point_in_class(cls, rng, 1.0))))
    for _ in range(per["dynamics"]):
        x0 = DY.PhasePoint(
            q=_vec(rng, -1, 1), p=_vec(rng, -1, 1), m=float(rng.uniform(0.5, 2.0)),
            tau=float(rng.uniform(0.5, 2.0)), C1=float(rng.uniform(-1, 1)), C2=float(rng.uniform(-1, 1)),
        )
        checks.append(("dynamics", partial(_dynamics, x0, float(rng.uniform(-5, 5)))))
    return checks


WORKLOADS = {"hermite2d": hermite2d, "grid1d": grid1d, "moyal": moyal, "classical": classical}

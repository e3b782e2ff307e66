import cmath
import math
from dataclasses import replace
import numpy as np
import pytest

from nhkit.coadjoint import OrbitClass
from nhkit.funcspace import HermiteState, ladder_build, linear, probe_state
from nhkit.group import (
    GroupElement,
    Variant,
    Vec2,
    compose,
    inverse,
    pure_boost,
    pure_rotation,
    pure_time,
    pure_translation,
    central,
    random_element,
)
from nhkit.representations import (
    CASES,
    _operators_1d,
    CircleGridHermite,
    CircleGridScalar,
    InducedRep2D,
    InducedRepBC,
    InducedRepDE,
    InducedRepHIJ,
    OffGridError,
    ScalarGrid,
    StratumError,
    TorusGridScalar,
    basis_scale,
    case_setup,
    generator_check,
    generators,
    homomorphism_residual,
    inner_rep_apply,
    intertwiner_generator,
    labels_case_a,
    labels_case_b,
    labels_case_c,
    labels_case_d,
    labels_case_e,
    labels_case_f,
    labels_case_g,
    labels_case_h,
    labels_case_i,
    labels_case_j,
    labels_case_k,
    nilpotent_rep_apply,
    nk_decompose,
    rep_k,
)
from nhkit.funcspace import exp_apply

TAU = 1.0
LAB_A = labels_case_a(f=3.0, m=1.0, C1=1.0, C2=0.5)
LAB_F = labels_case_f(m=1.0, C1=1.0, C2=0.3)
LAB_G = labels_case_g(f=1.5, C1=0.8, C2=0.4)


@pytest.fixture(scope="module")
def ctx2d():
    return ladder_build(32, 1.0, dims=2, pad=0)


@pytest.fixture(scope="module")
def ctx2d_a():
    return ladder_build(32, 1.1, dims=2, pad=0)


@pytest.fixture(scope="module")
def ctx2d_padded():
    return ladder_build(32, 1.1, dims=2)


@pytest.fixture(scope="module")
def rep_f(ctx2d):
    return InducedRep2D(LAB_F, ctx2d)


@pytest.fixture(scope="module")
def rep_a(ctx2d_a):
    return InducedRep2D(LAB_A, ctx2d_a)


@pytest.fixture(scope="module")
def rep_g(ctx2d):
    return InducedRep2D(LAB_G, ctx2d)


def small_element(rng, scale=0.5):
    return random_element(rng, TAU, Variant.OSCILLATING, scale)


def hom_residual(apply_fn, g1, g2, state_arr, unit=None):
    hom, unit_err, _ = homomorphism_residual(apply_fn, g1, g2, state_arr)
    if unit is not None:
        unit.append(unit_err)
    return hom


# --------------------------------------------------------------------------
# labels
# --------------------------------------------------------------------------

def test_label_stratum_validation():
    with pytest.raises(StratumError):
        labels_case_a(f=1.0, m=1.0, C1=0.0, C2=0.0)  # f = m tau is excluded
    with pytest.raises(StratumError):
        labels_case_b(m=1.0, C3=-0.2, C4=0.0)
    with pytest.raises(StratumError):
        labels_case_h(rho=Vec2(1.0, 0.0), kappa_vec=Vec2(0.0, 1.0))  # saturates the bound
    lab_i = labels_case_i(kappa_vec=Vec2(0.2, -0.8), C5=0.1)
    assert (lab_i.rho + lab_i.kappa_vec.perp() * (1.0 / lab_i.tau)).norm() <= 1e-15
    lab_j = labels_case_j(kappa_vec=Vec2(0.2, -0.8), C5p=0.1)
    assert (lab_j.rho - lab_j.kappa_vec.perp() * (1.0 / lab_j.tau)).norm() <= 1e-15
    assert lab_i.C2 == pytest.approx(0.5 * lab_i.tau * lab_i.C1)
    assert lab_j.C2 == pytest.approx(-0.5 * lab_j.tau * lab_j.C1)


# --------------------------------------------------------------------------
# nilpotent representation
# --------------------------------------------------------------------------

def test_nilpotent_central_phases(ctx2d_padded, rng):
    psi = probe_state(ctx2d_padded, rng, kmax=3)
    out = nilpotent_rep_apply(LAB_A, central(0.7, 0.0), psi, ctx2d_padded)
    assert np.allclose(out.coeffs, cmath.exp(1j * LAB_A.f * 0.7) * psi.coeffs)
    out = nilpotent_rep_apply(LAB_A, central(0.0, -0.4), psi, ctx2d_padded)
    assert np.allclose(out.coeffs, cmath.exp(1j * LAB_A.m * -0.4) * psi.coeffs)


def test_nilpotent_homomorphism(ctx2d_padded, rng):
    psi = probe_state(ctx2d_padded, rng, kmax=4)
    worst = 0.0
    for _ in range(40):
        v = rng.uniform(-0.5, 0.5, size=12)
        g1 = GroupElement(v[0], v[1], 0.0, Vec2(v[2], v[3]), Vec2(v[4], v[5]), 0.0)
        g2 = GroupElement(v[6], v[7], 0.0, Vec2(v[8], v[9]), Vec2(v[10], v[11]), 0.0)
        a = nilpotent_rep_apply(LAB_A, g1, nilpotent_rep_apply(LAB_A, g2, psi, ctx2d_padded), ctx2d_padded)
        b = nilpotent_rep_apply(LAB_A, compose(g1, g2), psi, ctx2d_padded)
        worst = max(worst, float(np.linalg.norm(a.coeffs - b.coeffs)))
    assert worst <= 1e-8


def test_nilpotent_rejects_time_and_rotation(ctx2d_a, rng):
    psi = probe_state(ctx2d_a, rng, kmax=2)  # pad-free context is fine for the guards
    with pytest.raises(ValueError):
        nilpotent_rep_apply(LAB_A, pure_time(0.1), psi, ctx2d_a)
    with pytest.raises(StratumError):
        nilpotent_rep_apply(LAB_F, GroupElement.identity(), psi, ctx2d_a)


@pytest.mark.parametrize("pad", [None, 0])
@pytest.mark.parametrize("case", "abcdefg")
def test_nilpotent_factor_is_the_exponential_of_its_generator(case, pad):
    """U(n) = exp(i X) at finite n = (alpha, theta, a, v), X = (f alpha + m(theta - a.v/2)) + a.P + v.K
    with P, K from the generator table (the generator checks compare first derivatives only)."""
    row = CASES[case]
    labels = row.factory(**row.labels)
    dims = 2 if row.carrier is InducedRep2D else 1
    ctx = ladder_build(24 if dims == 2 else row.n, basis_scale(labels), dims=dims, pad=pad)
    if dims == 2:
        ops, apply = generators(labels), InducedRep2D(labels, ctx).apply
    else:
        ops, apply = _operators_1d(labels), lambda n, psi: inner_rep_apply(labels, n, psi, ctx)
    rng = np.random.default_rng(11)
    psi = probe_state(ctx, rng, kmax=1)
    for _ in range(3):
        alpha, theta, a1, a2, v1, v2 = rng.uniform(-0.5, 0.5, 6).tolist()
        n = GroupElement(alpha, theta, 0.0, Vec2(a1, a2), Vec2(v1, v2), 0.0)
        x_op = (labels.f * alpha + labels.m * (theta - 0.5 * (a1 * v1 + a2 * v2))) * linear(dims, 1.0)
        for name, coord in zip(("P1", "P2", "K1", "K2"), (a1, a2, v1, v2)):
            x_op = x_op + coord * ops[name]
        err = float(np.linalg.norm(apply(n, psi).coeffs - exp_apply(x_op, 1.0, psi, ctx).coeffs))
        assert err <= 1e-12, (case, pad, err)


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def test_case_f_generators_are_position_and_gradient():
    # P = -m y and K = i grad = -p, with p = -i grad
    ops = generators(LAB_F)
    assert np.array_equal(ops["P1"].coef, linear(2, y=[-LAB_F.m, 0.0]).coef)
    assert np.array_equal(ops["K1"].coef, linear(2, p=[-1.0, 0.0]).coef)
    assert np.array_equal(ops["K2"].coef, linear(2, p=[0.0, -1.0]).coef)


def test_case_a_generators_reduce_when_f_vanishes():
    # the case-A expressions at f -> 0 keep the multiplication part -m y and
    # the rotated-gradient term -(i/tau) grad^R
    lab = labels_case_f(m=1.0, C1=1.0, C2=0.0)
    ops_a_pattern = generators(labels_case_a(f=3.0, m=1.0, C1=1.0, C2=0.0))
    # coefficients of the linear P1 over z = (1, y1, y2, p1, p2) are 2 coef[0]
    p1 = 2 * ops_a_pattern["P1"].coef[0]
    assert p1[1] == pytest.approx(-1.0)  # -m y1 part survives any f
    assert p1[3] == pytest.approx(-1.0 / TAU)  # -(i/tau) d/dy1 = -p1/tau
    # f-dependent part is linear in f
    p1_b = 2 * generators(labels_case_a(f=1.5, m=1.0, C1=1.0, C2=0.0))["P1"].coef[0]
    assert p1[2] / p1_b[2] == pytest.approx(2.0)


def _interior(mat, n, margin=2):
    idx = np.array([i * n + j for i in range(n - margin) for j in range(n - margin)])
    return mat[np.ix_(idx, idx)]


def test_extension_brackets_reproduced(rep_a, ctx2d_a):
    """[K^_i, P^_j] = -i delta_ij m, [K^_1, K^_2] = -i f, [P^_1, P^_2] = -i f/tau^2.

    The -i follows from U(exp(sX)) = exp(i s X^), which sends [X, Y] to
    i[X^, Y^] at the generator level."""
    n = ctx2d_a.n
    p1, p2 = rep_a.generator_matrix("P1"), rep_a.generator_matrix("P2")
    k1, k2 = rep_a.generator_matrix("K1"), rep_a.generator_matrix("K2")
    eye = np.eye((n - 2) ** 2)
    f, m = LAB_A.f, LAB_A.m
    assert np.max(np.abs(_interior(k1 @ p1 - p1 @ k1, n) + 1j * m * eye)) <= 1e-8
    assert np.max(np.abs(_interior(k2 @ p2 - p2 @ k2, n) + 1j * m * eye)) <= 1e-8
    assert np.max(np.abs(_interior(k1 @ p2 - p2 @ k1, n))) <= 1e-8
    assert np.max(np.abs(_interior(k1 @ k2 - k2 @ k1, n) + 1j * f * eye)) <= 1e-8
    assert np.max(np.abs(_interior(p1 @ p2 - p2 @ p1, n) + 1j * (f / TAU**2) * eye)) <= 1e-8


def test_case_f_extension_bracket(rep_f, ctx2d):
    n = ctx2d.n
    p1 = rep_f.generator_matrix("P1")
    k1 = rep_f.generator_matrix("K1")
    eye = np.eye((n - 2) ** 2)
    assert np.max(np.abs(_interior(k1 @ p1 - p1 @ k1, n) + 1j * LAB_F.m * eye)) <= 1e-9


@pytest.mark.parametrize("case", ["a", "f", "g"])
def test_casimirs_act_as_constants(request, case, rng):
    """C1 = P^2 + K^2/tau^2 - 2m H + (2f/tau^2) J and C2 = P x K + m J - f H on the assembled
    matrices, at f = 0 for F and m = 0 for G."""
    rep = request.getfixturevalue({"a": "rep_a", "f": "rep_f", "g": "rep_g"}[case])
    lab = rep.labels
    psi = probe_state(rep.ctx, rng, kmax=4)
    v = psi.coeffs.reshape(-1)
    p1, p2 = rep.generator_matrix("P1"), rep.generator_matrix("P2")
    k1, k2 = rep.generator_matrix("K1"), rep.generator_matrix("K2")
    h, j = rep.generator_matrix("H"), rep.generator_matrix("J")
    f, m = lab.f, lab.m
    c1_op = p1 @ p1 + p2 @ p2 + (k1 @ k1 + k2 @ k2) / TAU**2 - 2 * m * h + (2 * f / TAU**2) * j
    c2_op = (p1 @ k2 - p2 @ k1) + m * j - f * h
    assert np.linalg.norm(c1_op @ v - lab.C1 * v) <= 1e-6
    assert np.linalg.norm(c2_op @ v - lab.C2 * v) <= 1e-6


def test_basis_scale_rule_gives_the_closed_forms():
    """The rule read off H or W is sqrt(|m| tau) on F and (f^2/2)^(1/4) on B..E, at random labels."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, c, tau = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]), rng.uniform(0.1, 2.0), rng.uniform(0.3, 3.0)
        lab_f = labels_case_f(m=m, C1=c, C2=rng.uniform(-1, 1), tau=tau)
        assert basis_scale(lab_f) == pytest.approx(math.sqrt(abs(m) * tau), rel=1e-14, abs=0.0)
        for labels in (
            labels_case_b(m=m, C3=c, C4=rng.uniform(-1, 1), tau=tau),
            labels_case_c(m=m, C3p=c, C4p=rng.uniform(-1, 1), tau=tau),
            labels_case_d(m=m, C4=rng.uniform(-1, 1), C5=c, tau=tau),
            labels_case_e(m=m, C4p=rng.uniform(-1, 1), C5p=c, tau=tau),
        ):
            assert basis_scale(labels) == pytest.approx((labels.f**2 / 2.0) ** 0.25, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("direction,budget,eps", [
    ("P1", 1e-6, 1e-4), ("P2", 1e-6, 1e-4), ("K1", 1e-6, 1e-4), ("K2", 1e-6, 1e-4),
    ("H", 1e-5, 1e-4), ("J", 1e-5, 1e-4), ("M", 1e-10, 1e-5), ("F", 1e-12, 1e-4),
])
def test_generator_checks_case_f(ctx2d, rng, direction, budget, eps):
    psi = probe_state(ctx2d, rng, kmax=4)
    assert generator_check(LAB_F, OrbitClass.F, direction, ctx2d, psi, eps=eps) <= budget


@pytest.mark.parametrize("case,labels,fixture", [
    ("a", LAB_A, "ctx2d_a"),
    ("g", LAB_G, "ctx2d"),
])
def test_generator_checks_cases_a_g(request, case, labels, fixture, rng):
    ctx = request.getfixturevalue(fixture)
    psi = probe_state(ctx, rng, kmax=3)
    for direction in ("P1", "K1", "H", "J"):
        assert generator_check(labels, labels.orbit_class, direction, ctx, psi) <= 1e-5


# --------------------------------------------------------------------------
# 2D function-space cases
# --------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["a", "f", "g"])
def test_case_2d_identity_unitarity_homomorphism(request, case, rng):
    rep = request.getfixturevalue({"a": "rep_a", "f": "rep_f", "g": "rep_g"}[case])
    ctx = rep.ctx
    kmax = {"a": 1, "f": 5, "g": 4}[case]
    psi = probe_state(ctx, rng, kmax=kmax)
    out = rep.apply(GroupElement.identity(), psi)
    assert np.linalg.norm(out.coeffs - psi.coeffs) <= 1e-13
    budget = {"a": 1e-3, "f": 1e-6, "g": 1e-3}[case]
    units = []
    worst = 0.0
    for _ in range(40):
        worst = max(worst, hom_residual(rep.apply, small_element(rng), small_element(rng), psi, units))
    assert worst <= budget
    assert max(units) <= 1e-10


def test_case_f_central_and_translation_phases(rep_f, ctx2d, rng):
    psi = probe_state(ctx2d, rng, kmax=4)
    out = rep_f.apply(central(0.9, 0.3), psi)
    assert np.allclose(out.coeffs, cmath.exp(1j * LAB_F.m * 0.3) * psi.coeffs)
    # pure translation acts by the multiplication phase e^{-i m y.a}
    a = Vec2(0.2, -0.3)
    out = rep_f.apply(pure_translation(a), psi)
    ymat1 = np.kron(ctx2d.y1d, np.eye(ctx2d.n))
    ymat2 = np.kron(np.eye(ctx2d.n), ctx2d.y1d)
    gen = -LAB_F.m * (a.x1 * ymat1 + a.x2 * ymat2)
    w, v = np.linalg.eigh(gen)
    expected = (v @ (np.exp(1j * w) * (v.conj().T @ psi.coeffs.reshape(-1)))).reshape(32, 32)
    assert np.linalg.norm(out.coeffs - expected) <= 1e-10


# --------------------------------------------------------------------------
# cases B and C
# --------------------------------------------------------------------------

LAB_B = labels_case_b(m=1.0, C3=1.0, C4=0.7, kappa1=0.3)
LAB_C = labels_case_c(m=1.0, C3p=1.0, C4p=0.7, kappa1=0.3)
N_T = 16


@pytest.fixture(scope="module")
def ctx1d():
    return ladder_build(96, basis_scale(LAB_B), dims=1, pad=0)


def _case(labels):  # the letter of the labels' row in CASES
    return labels.orbit_class.value.lower()


def _at(case, tau):  # the case's canonical labels at another tau
    return CASES[case].factory(**CASES[case].labels, tau=tau)


# a tau-for-1/tau slip in the node times cannot show at tau = 1
BC_TAUS = [LAB_B, LAB_C, _at("b", 2.0), _at("c", 2.0), _at("b", 0.5), _at("c", 0.5)]


@pytest.mark.parametrize("labels,sign", [(LAB_B, 1.0), (LAB_C, -1.0)])
def test_case_bc_identity_and_alpha_phase(rng, labels, sign):
    _, rep, state = case_setup(_case(labels), labels, rng)  # one rephased state per node of N_T
    out = rep.apply(GroupElement.identity(), state)
    assert np.linalg.norm(out.coeffs - state.coeffs) <= 1e-13
    out = rep.apply(central(0.8, 0.0), state)
    assert np.allclose(out.coeffs, cmath.exp(1j * labels.f * 0.8) * state.coeffs)


@pytest.mark.parametrize("labels", [LAB_B, LAB_C])
def test_case_bc_time_flow_is_exact(rng, labels):
    _, rep, state = case_setup(_case(labels), labels, rng)
    spacing = 2.0 * math.pi / N_T
    b1, b2 = 2 * TAU * spacing, 3 * TAU * spacing
    a = rep.apply(pure_time(b1), rep.apply(pure_time(b2), state))
    b = rep.apply(pure_time(b1 + b2), state)
    assert np.linalg.norm(a.coeffs - b.coeffs) <= 1e-6


@pytest.mark.parametrize("labels", BC_TAUS)
def test_case_bc_homomorphism_and_unitarity(rng, labels):
    _, rep, state = case_setup(_case(labels), labels, rng)
    sampler = CASES[_case(labels)].sampler
    worst = 0.0
    units = []
    for _ in range(10):
        g1, g2 = sampler(rng, labels.tau, 0.5, N_T), sampler(rng, labels.tau, 0.5, N_T)
        worst = max(worst, hom_residual(rep.apply, g1, g2, state, units))
    assert worst <= 1e-3  # truncation-limited; calibrated at N = 96
    assert max(units) <= 1e-10


@pytest.mark.parametrize("labels", BC_TAUS)
def test_case_bc_group_law_oracle(rng, labels):
    """Node i against its induction element eta_i = time(-tau t_i) g time(tau (t_i - shift)), rebuilt
    through the group law and factored as n * time(b) * rotation(phi): it lies in n * little group
    (b/tau + sigma phi = 0), and node i of U(g) is e^{i b kappa1} U(n) W(b) of the rolled stack."""
    case = _case(labels)
    ctx, rep, state = case_setup(case, labels, rng)
    tau, sign, step = labels.tau, (1.0 if case == "b" else -1.0), 2 * math.pi / N_T
    sampler = CASES[case].sampler
    w_gen = intertwiner_generator(labels)
    draws = [sampler(rng, tau, 0.5, N_T) for _ in range(3)]
    for g in draws[:2] + [replace(draws[2], phi=2 * step)]:  # W's time -sigma tau phi is nonzero in the last
        shift = g.b / tau + sign * g.phi
        rolled = np.roll(state.coeffs, round(shift / step), axis=0)
        out = rep.apply(g, state)
        for i in (0, 5, 11):
            t_i = i * step
            eta = compose(compose(inverse(pure_time(tau * t_i, tau)), g), pure_time(tau * (t_i - shift), tau))
            n_eta, b_eta, phi_eta = nk_decompose(eta)
            assert abs(b_eta / tau + sign * phi_eta) <= 1e-12
            psi = exp_apply(w_gen, b_eta, replace(state, coeffs=rolled[i]), ctx)
            oracle = cmath.exp(1j * b_eta * labels.kappa1) * inner_rep_apply(labels, n_eta, psi, ctx).coeffs
            assert np.max(np.abs(out.coeffs[i] - oracle)) <= 1e-13, (i, g)


def test_circle_grid_tail_fraction_matches_hermite_state(ctx1d, rng):
    coeffs = rng.normal(size=ctx1d.n) + 1j * rng.normal(size=ctx1d.n)
    psi = HermiteState(dims=1, n=ctx1d.n, lam=ctx1d.lam, coeffs=coeffs)
    nodes = np.array([coeffs * np.exp(0.37j * i) for i in range(N_T)])
    grid = HermiteState(dims=1, n=ctx1d.n, lam=ctx1d.lam, coeffs=nodes)
    assert 0.0 < psi.tail_fraction() < 1.0
    assert abs(grid.tail_fraction() - psi.tail_fraction()) <= 1e-14
    # the node-grid formula from before grid states became stacks, bit for bit
    n = ctx1d.n
    total = float(np.sum(np.abs(nodes) ** 2))
    assert grid.tail_fraction() == float(np.sum(np.abs(nodes[:, n - n // 4 :]) ** 2)) / total


def test_case_bc_rejects_a_grid_of_another_size(ctx1d, rng):
    """Rows past n_t were never written: a 32-node state under n_t = 16 came back with norm 0.71."""
    base = probe_state(ctx1d, rng, kmax=2)
    vals = np.array([base.coeffs * np.exp(0.37j * i) for i in range(32)])
    state = HermiteState(dims=1, n=ctx1d.n, lam=ctx1d.lam, coeffs=vals / np.linalg.norm(vals))
    with pytest.raises(ValueError, match="stack of 16"):
        InducedRepBC(LAB_B, ctx1d, n_t=16).apply(GroupElement.identity(), state)
    with pytest.raises(ValueError, match="stack of 16"):
        InducedRepBC(LAB_B, ctx1d, n_t=16).apply(GroupElement.identity(), base)
    for n_t in (0, 12, -8):
        with pytest.raises(ValueError, match="multiple of 8"):
            InducedRepBC(LAB_B, ctx1d, n_t=n_t)


def test_case_bc_off_grid_rejected(rng):
    _, rep, state = case_setup("b", LAB_B, rng)
    with pytest.raises(OffGridError):
        rep.apply(pure_time(0.1234), state)


def test_case_b_intertwiner_relation(ctx1d, rng):
    """W(b) D(n) W(-b) = D(l n l^{-1}) for l in the little group."""
    wgen = intertwiner_generator(LAB_B)
    psi = probe_state(ctx1d, rng, kmax=2)
    b = 0.4
    ell = GroupElement(0, 0, b, Vec2.zero(), Vec2.zero(), -b / TAU)
    n_el = GroupElement(0, 0, 0, Vec2(0.3, -0.2), Vec2(0.1, 0.25), 0.0)
    conj = compose(compose(ell, n_el), inverse(ell))
    n_c, b_c, phi_c = nk_decompose(conj)
    assert abs(b_c) <= 1e-12 and abs(phi_c) <= 1e-12
    lhs = exp_apply(wgen, b, inner_rep_apply(LAB_B, n_el, exp_apply(wgen, -b, psi, ctx1d), ctx1d), ctx1d)
    rhs = inner_rep_apply(LAB_B, n_c, psi, ctx1d)
    assert np.linalg.norm(lhs.coeffs - rhs.coeffs) <= 1e-5


# --------------------------------------------------------------------------
# cases D and E
# --------------------------------------------------------------------------

LAB_D = labels_case_d(m=1.0, C4=0.8, C5=0.4, kappa1=0.2, kappa2=0.1)
LAB_E = labels_case_e(m=1.0, C4p=0.8, C5p=0.4, kappa1=0.2, kappa2=0.1)


@pytest.fixture(scope="module")
def ctx1d_de():
    return ladder_build(80, basis_scale(LAB_D), dims=1, pad=0)


@pytest.mark.parametrize("labels", [LAB_D, LAB_E])
def test_case_de_identity_unitarity_homomorphism(ctx1d_de, rng, labels):
    rep = InducedRepDE(labels, ctx1d_de)
    psi = probe_state(ctx1d_de, rng, kmax=2)
    out = rep.apply(GroupElement.identity(), psi)
    assert np.linalg.norm(out.coeffs - psi.coeffs) <= 1e-13
    worst = 0.0
    units = []
    for _ in range(25):
        worst = max(worst, hom_residual(rep.apply, small_element(rng), small_element(rng), psi, units))
    assert worst <= 1e-3
    assert max(units) <= 1e-10


def test_case_d_pure_rotation_golden(ctx1d_de, rng):
    """Rotation by phi: character e^{i kappa2 phi}, the C5 half-phase, and the
    quadratic intertwiner at parameter -tau phi / 2 (manual factor assembly)."""
    rep = InducedRepDE(LAB_D, ctx1d_de)
    psi = probe_state(ctx1d_de, rng, kmax=2)
    phi = 0.45
    out = rep.apply(pure_rotation(phi), psi)
    wgen = intertwiner_generator(LAB_D)
    manual = exp_apply(wgen, -TAU * phi / 2.0, psi, ctx1d_de)
    scalar = cmath.exp(1j * (LAB_D.kappa2 * phi + 0.5 * TAU * phi * LAB_D.C5))
    assert np.linalg.norm(out.coeffs - scalar * manual.coeffs) <= 1e-12


# --------------------------------------------------------------------------
# cases H, I, J, K
# --------------------------------------------------------------------------

LAB_H = labels_case_h(rho=Vec2(1.0, 0.0), kappa_vec=Vec2(0.0, 0.5))
LAB_I = labels_case_i(kappa_vec=Vec2(0.0, -1.0), C5=0.7)
LAB_J = labels_case_j(kappa_vec=Vec2(0.3, -1.0), C5p=0.7)


def _torus_element(rng, n1=16, n2=16, scale=0.5, tau=TAU):
    v = rng.uniform(-scale, scale, size=4)
    b = (2 * math.pi * tau / n1) * rng.integers(-3, 4)
    phi = (2 * math.pi / n2) * rng.integers(-3, 4)
    return GroupElement(0.0, 0.0, b, Vec2(v[0], v[1]), Vec2(v[2], v[3]), phi, Variant.OSCILLATING, tau)


def test_case_h_homomorphism_exact(rng):
    _, rep, state = case_setup("h", LAB_H, rng)  # random phases on the 16 x 16 torus
    same = rep.apply(GroupElement.identity(), state)
    assert np.linalg.norm(same.coeffs - state.coeffs) == 0.0
    worst = 0.0
    units = []
    for _ in range(40):
        worst = max(worst, hom_residual(rep.apply, _torus_element(rng), _torus_element(rng), state, units))
    assert worst <= 1e-10
    assert max(units) <= 1e-12


def test_case_h_sample_point_oracle(rng):
    # the canonical labels lie on the I stratum at tau = 0.5, so tau = 0.5 takes a shorter kappa
    for labels in (LAB_H, _at("h", 2.0), labels_case_h(rho=Vec2(1.0, 0.0), kappa_vec=Vec2(0.0, 0.2), tau=0.5)):
        tau = labels.tau
        _, rep, state = case_setup("h", labels, rng)
        n1 = n2 = 16
        g = _torus_element(rng, tau=tau)
        out = rep.apply(g, state)
        i, jj = 3, 5
        t1 = i * 2 * math.pi * tau / n1
        t2 = jj * 2 * math.pi / n2
        arg = (t1 - g.b) / tau
        a_rot = g.a.rot(-t2)
        v_rot = g.v.rot(-t2)
        big_a = a_rot * math.cos(arg) + v_rot * (tau * math.sin(arg))
        big_b = v_rot * math.cos(arg) - a_rot * (math.sin(arg) / tau)
        phase = cmath.exp(1j * (labels.rho.dot(big_a) + labels.kappa_vec.dot(big_b)))
        steps1 = round(g.b / (2 * math.pi * tau / n1))
        steps2 = round(g.phi / (2 * math.pi / n2))
        expected = phase * state.coeffs[(i - steps1) % n1, (jj - steps2) % n2]
        assert abs(out.coeffs[i, jj] - expected) <= 1e-14, tau


@pytest.mark.parametrize("labels", [LAB_I, LAB_J])
def test_case_ij_homomorphism_exact(rng, labels):
    _, rep, state = case_setup(_case(labels), labels, rng)  # random phases on the 16-node circle
    sampler = CASES[_case(labels)].sampler
    same = rep.apply(GroupElement.identity(), state)
    assert np.linalg.norm(same.coeffs - state.coeffs) == 0.0
    worst = 0.0
    for _ in range(40):
        g1 = sampler(rng, TAU, 0.5, 16)
        g2 = sampler(rng, TAU, 0.5, 16)
        worst = max(worst, hom_residual(rep.apply, g1, g2, state))
    assert worst <= 1e-10


@pytest.mark.parametrize("labels,sign", [
    (LAB_I, -1.0), (LAB_J, 1.0), (_at("i", 2.0), -1.0), (_at("j", 2.0), 1.0),
    (_at("i", 0.5), -1.0), (_at("j", 0.5), 1.0),
])
def test_case_ij_group_operation_oracle(rng, labels, sign):
    """Pointwise agreement with the induced-representation construction
    evaluated through group operations."""
    _, rep, state = case_setup(_case(labels), labels, rng)
    n, tau = 16, labels.tau
    g = CASES[_case(labels)].sampler(rng, tau, 0.5, n)
    sigma = g.b / tau + sign * g.phi
    out = rep.apply(g, state)
    for i in (0, 4, 9):
        t0 = i * 2 * math.pi / n
        eta = compose(compose(inverse(pure_time(tau * t0, tau)), g), pure_time(tau * (t0 - sigma), tau))
        n_eta, b_eta, phi_eta = nk_decompose(eta)
        c5 = labels.C5 if labels.orbit_class is OrbitClass.I else labels.C5p
        oracle = cmath.exp(
            1j * (b_eta * c5 + labels.rho.dot(n_eta.a) + labels.kappa_vec.dot(n_eta.v))
        )
        shifted = np.roll(state.coeffs, round(sigma / (2 * math.pi / n)))[i]
        assert abs(out.coeffs[i] - oracle * shifted) <= 1e-13


def test_case_hij_off_grid_rejected(rng):
    state = case_setup("i", LAB_I, rng)[2]
    with pytest.raises(OffGridError):
        InducedRepHIJ(LAB_I).apply(pure_time(0.123), state)
    with pytest.raises(OffGridError):
        InducedRepHIJ(LAB_H).apply(pure_time(0.123), case_setup("h", LAB_H, rng)[2])
    # H needs a 2D grid, I and J a 1D one; every grid size is a positive multiple of 8
    with pytest.raises(ValueError, match="2D grid"):
        InducedRepHIJ(LAB_H).apply(GroupElement.identity(), state)
    with pytest.raises(ValueError, match="1D grid"):
        InducedRepHIJ(LAB_J).apply(GroupElement.identity(), case_setup("h", LAB_H, rng)[2])
    for shape in ((12,), (16, 4), (0,), (8, 8, 8)):
        with pytest.raises(ValueError, match="multiple of 8"):
            ScalarGrid(np.ones(shape, complex))


def test_benchmark_constructors_build_accepted_states(ctx1d, rng):
    """The grid constructors the benchmark calls, with its keywords."""
    state = CircleGridHermite(values=case_setup("b", LAB_B, rng)[2].coeffs, lam=ctx1d.lam)
    assert isinstance(state, HermiteState) and state.dims == 1 and state.n == ctx1d.n
    out = InducedRepBC(LAB_B, ctx1d, n_t=N_T).apply(GroupElement.identity(), state)
    assert np.linalg.norm(out.coeffs - state.coeffs) <= 1e-13
    torus = TorusGridScalar(values=case_setup("h", LAB_H, rng)[2].coeffs, tau=TAU)
    circle = CircleGridScalar(values=case_setup("i", LAB_I, rng)[2].coeffs)
    for labels, grid in ((LAB_H, torus), (LAB_I, circle), (LAB_J, circle)):
        assert isinstance(grid, ScalarGrid)
        assert np.array_equal(InducedRepHIJ(labels).apply(GroupElement.identity(), grid).coeffs, grid.coeffs)


def test_case_k_character():
    lab = labels_case_k(h=1.0, j=0.0)
    assert rep_k(lab, GroupElement.identity()) == 1.0
    assert rep_k(lab, pure_time(math.pi)) == pytest.approx(-1.0)
    lab2 = labels_case_k(h=0.4, j=-1.2)
    rng = np.random.default_rng(5)
    for _ in range(50):
        g1 = random_element(rng)
        g2 = random_element(rng)
        assert abs(abs(rep_k(lab2, g1)) - 1.0) <= 1e-15
        assert abs(
            rep_k(lab2, compose(g1, g2)) - rep_k(lab2, g1) * rep_k(lab2, g2)
        ) <= 1e-12


def test_variant_and_stratum_guards(ctx2d, rng):
    psi = probe_state(ctx2d, rng, kmax=2)
    rep = InducedRep2D(LAB_F, ctx2d)
    with pytest.raises(ValueError):
        rep.apply(GroupElement.identity(Variant.EXPANDING, TAU), psi)
    with pytest.raises(StratumError):
        rep.apply(GroupElement.identity(Variant.OSCILLATING, 2.0), psi)
    with pytest.raises(StratumError):
        rep_k(LAB_F, GroupElement.identity())


@pytest.mark.parametrize("case", list(CASES))
def test_every_case_rejects_elements_of_another_tau_or_variant(case):
    labels = CASES[case].factory(**CASES[case].labels)  # tau = 1
    ctx, rep, state = case_setup(case, labels, np.random.default_rng(0), n=8, kmax=2)
    apply = (lambda g: rep_k(labels, g)) if rep is None else (lambda g: rep.apply(g, state))
    nilpotent = GroupElement(0.1, 0.2, 0.0, Vec2(0.3, 0.0), Vec2(0.0, 0.4), 0.0, Variant.OSCILLATING, 2.0)
    for g in (nilpotent, replace(nilpotent, tau=1.0, variant=Variant.EXPANDING)):
        with pytest.raises(StratumError):
            apply(g)
        if case == "a":
            with pytest.raises(StratumError):
                nilpotent_rep_apply(labels, g, state, ctx)

import cmath
import math
import numpy as np
import pytest

from nhkit.coadjoint import OrbitClass
from nhkit.funcspace import HermiteState, ladder_build, probe_state
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
)
from nhkit.representations import (
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
from conftest import random_element

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


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def test_case_f_generators_are_position_and_gradient():
    ops = generators(LAB_F)
    assert np.allclose(ops["P1"].lin_y, [-LAB_F.m, 0.0])
    assert np.allclose(ops["P1"].lin_d, [0.0, 0.0])
    assert np.allclose(ops["K1"].lin_d, [1.0j, 0.0])
    assert np.allclose(ops["K2"].lin_d, [0.0, 1.0j])


def test_case_a_generators_reduce_when_f_vanishes():
    # the case-A expressions at f -> 0 keep the multiplication part -m y and
    # the rotated-gradient term -(i/tau) grad^R
    lab = labels_case_f(m=1.0, C1=1.0, C2=0.0)
    ops_a_pattern = generators(labels_case_a(f=3.0, m=1.0, C1=1.0, C2=0.0))
    p1 = ops_a_pattern["P1"]
    assert p1.lin_y[0] == pytest.approx(-1.0)  # -m y1 part survives any f
    assert p1.lin_d[0] == pytest.approx(1.0j / TAU)
    # f-dependent part is linear in f
    p1_b = generators(labels_case_a(f=1.5, m=1.0, C1=1.0, C2=0.0))["P1"]
    assert p1.lin_y[1] / p1_b.lin_y[1] == pytest.approx(2.0)


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


def test_case_a_casimirs_act_as_constants(rep_a, ctx2d_a, rng):
    psi = probe_state(ctx2d_a, rng, kmax=4)
    v = psi.coeffs.reshape(-1)
    p1, p2 = rep_a.generator_matrix("P1"), rep_a.generator_matrix("P2")
    k1, k2 = rep_a.generator_matrix("K1"), rep_a.generator_matrix("K2")
    h, j = rep_a.generator_matrix("H"), rep_a.generator_matrix("J")
    f, m = LAB_A.f, LAB_A.m
    c1_op = p1 @ p1 + p2 @ p2 + (k1 @ k1 + k2 @ k2) / TAU**2 - 2 * m * h + (2 * f / TAU**2) * j
    c2_op = (p1 @ k2 - p2 @ k1) + m * j - f * h
    assert np.linalg.norm(c1_op @ v - LAB_A.C1 * v) <= 1e-6
    assert np.linalg.norm(c2_op @ v - LAB_A.C2 * v) <= 1e-6


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
    lam = (LAB_B.f**2 / 2.0) ** 0.25
    return ladder_build(96, lam, dims=1, pad=0)


def _grid_state(ctx, rng):
    base = probe_state(ctx, rng, kmax=2)
    vals = np.array([base.coeffs * np.exp(0.37j * i) for i in range(N_T)])
    return HermiteState(dims=1, n=ctx.n, lam=ctx.lam, coeffs=vals / np.linalg.norm(vals))


def _ongrid(rng, sign, scale=0.5):
    spacing = 2.0 * math.pi / N_T
    v = rng.uniform(-scale, scale, size=6)
    b = TAU * spacing * rng.integers(-2, 3)
    phi = spacing * rng.integers(-2, 3)
    return GroupElement(v[0], v[1], b, Vec2(v[2], v[3]), Vec2(v[4], v[5]), phi)


@pytest.mark.parametrize("labels,sign", [(LAB_B, 1.0), (LAB_C, -1.0)])
def test_case_bc_identity_and_alpha_phase(ctx1d, rng, labels, sign):
    rep = InducedRepBC(labels, ctx1d, n_t=N_T)
    state = _grid_state(ctx1d, rng)
    out = rep.apply(GroupElement.identity(), state)
    assert np.linalg.norm(out.coeffs - state.coeffs) <= 1e-13
    out = rep.apply(central(0.8, 0.0), state)
    assert np.allclose(out.coeffs, cmath.exp(1j * labels.f * 0.8) * state.coeffs)


@pytest.mark.parametrize("labels", [LAB_B, LAB_C])
def test_case_bc_time_flow_is_exact(ctx1d, rng, labels):
    rep = InducedRepBC(labels, ctx1d, n_t=N_T)
    state = _grid_state(ctx1d, rng)
    spacing = 2.0 * math.pi / N_T
    b1, b2 = 2 * TAU * spacing, 3 * TAU * spacing
    a = rep.apply(pure_time(b1), rep.apply(pure_time(b2), state))
    b = rep.apply(pure_time(b1 + b2), state)
    assert np.linalg.norm(a.coeffs - b.coeffs) <= 1e-6


@pytest.mark.parametrize("labels,sign", [(LAB_B, 1.0), (LAB_C, -1.0)])
def test_case_bc_homomorphism_and_unitarity(ctx1d, rng, labels, sign):
    rep = InducedRepBC(labels, ctx1d, n_t=N_T)
    state = _grid_state(ctx1d, rng)
    worst = 0.0
    units = []
    for _ in range(10):
        worst = max(
            worst, hom_residual(rep.apply, _ongrid(rng, sign), _ongrid(rng, sign), state, units)
        )
    assert worst <= 1e-3  # truncation-limited; calibrated at N = 96
    assert max(units) <= 1e-10


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


def test_case_bc_off_grid_rejected(ctx1d, rng):
    rep = InducedRepBC(LAB_B, ctx1d, n_t=N_T)
    state = _grid_state(ctx1d, rng)
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
    lam = (LAB_D.f**2 / 2.0) ** 0.25
    return ladder_build(80, lam, dims=1, pad=0)


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


def _torus_state(rng, n1=16, n2=16):
    vals = np.exp(1j * rng.uniform(0, 2 * math.pi, (n1, n2)))
    return ScalarGrid(vals / np.linalg.norm(vals))


def _circle_state(rng, n=16):
    vals = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    return ScalarGrid(vals / np.linalg.norm(vals))


def _torus_element(rng, n1=16, n2=16, scale=0.5):
    v = rng.uniform(-scale, scale, size=4)
    b = (2 * math.pi * TAU / n1) * rng.integers(-3, 4)
    phi = (2 * math.pi / n2) * rng.integers(-3, 4)
    return GroupElement(0.0, 0.0, b, Vec2(v[0], v[1]), Vec2(v[2], v[3]), phi)


def test_case_h_homomorphism_exact(rng):
    rep = InducedRepHIJ(LAB_H)
    state = _torus_state(rng)
    same = rep.apply(GroupElement.identity(), state)
    assert np.linalg.norm(same.coeffs - state.coeffs) == 0.0
    worst = 0.0
    units = []
    for _ in range(40):
        worst = max(worst, hom_residual(rep.apply, _torus_element(rng), _torus_element(rng), state, units))
    assert worst <= 1e-10
    assert max(units) <= 1e-12


def test_case_h_sample_point_oracle(rng):
    rep = InducedRepHIJ(LAB_H)
    n1 = n2 = 16
    state = _torus_state(rng, n1, n2)
    g = _torus_element(rng)
    out = rep.apply(g, state)
    i, jj = 3, 5
    t1 = i * 2 * math.pi * TAU / n1
    t2 = jj * 2 * math.pi / n2
    arg = (t1 - g.b) / TAU
    a_rot = g.a.rot(-t2)
    v_rot = g.v.rot(-t2)
    big_a = a_rot * math.cos(arg) + v_rot * (TAU * math.sin(arg))
    big_b = v_rot * math.cos(arg) - a_rot * (math.sin(arg) / TAU)
    phase = cmath.exp(1j * (LAB_H.rho.dot(big_a) + LAB_H.kappa_vec.dot(big_b)))
    steps1 = round(g.b / (2 * math.pi * TAU / n1))
    steps2 = round(g.phi / (2 * math.pi / n2))
    expected = phase * state.coeffs[(i - steps1) % n1, (jj - steps2) % n2]
    assert abs(out.coeffs[i, jj] - expected) <= 1e-14


@pytest.mark.parametrize("labels", [LAB_I, LAB_J])
def test_case_ij_homomorphism_exact(rng, labels):
    rep = InducedRepHIJ(labels)
    state = _circle_state(rng)
    same = rep.apply(GroupElement.identity(), state)
    assert np.linalg.norm(same.coeffs - state.coeffs) == 0.0
    worst = 0.0
    for _ in range(40):
        g1 = _ongrid(rng, 1.0)
        g2 = _ongrid(rng, 1.0)
        worst = max(worst, hom_residual(rep.apply, g1, g2, state))
    assert worst <= 1e-10


@pytest.mark.parametrize("labels,sign", [(LAB_I, -1.0), (LAB_J, 1.0)])
def test_case_ij_group_operation_oracle(rng, labels, sign):
    """Pointwise agreement with the induced-representation construction
    evaluated through group operations."""
    rep = InducedRepHIJ(labels)
    n = 16
    state = _circle_state(rng, n)
    g = _ongrid(rng, 1.0)
    sigma = g.b / TAU - g.phi if labels.orbit_class is OrbitClass.I else g.b / TAU + g.phi
    out = rep.apply(g, state)
    for i in (0, 4, 9):
        t0 = i * 2 * math.pi / n
        eta = compose(compose(inverse(pure_time(TAU * t0)), g), pure_time(TAU * (t0 - sigma)))
        n_eta, b_eta, phi_eta = nk_decompose(eta)
        c5 = labels.C5 if labels.orbit_class is OrbitClass.I else labels.C5p
        oracle = cmath.exp(
            1j * (b_eta * c5 + labels.rho.dot(n_eta.a) + labels.kappa_vec.dot(n_eta.v))
        )
        shifted = np.roll(state.coeffs, round(sigma / (2 * math.pi / n)))[i]
        assert abs(out.coeffs[i] - oracle * shifted) <= 1e-13


def test_case_hij_off_grid_rejected(rng):
    state = _circle_state(rng)
    with pytest.raises(OffGridError):
        InducedRepHIJ(LAB_I).apply(pure_time(0.123), state)
    with pytest.raises(OffGridError):
        InducedRepHIJ(LAB_H).apply(pure_time(0.123), _torus_state(rng))
    # H needs a 2D grid, I and J a 1D one; every grid size is a positive multiple of 8
    with pytest.raises(ValueError, match="2D grid"):
        InducedRepHIJ(LAB_H).apply(GroupElement.identity(), state)
    with pytest.raises(ValueError, match="1D grid"):
        InducedRepHIJ(LAB_J).apply(GroupElement.identity(), _torus_state(rng))
    for shape in ((12,), (16, 4), (0,), (8, 8, 8)):
        with pytest.raises(ValueError, match="multiple of 8"):
            ScalarGrid(np.ones(shape, complex))


def test_benchmark_constructors_build_accepted_states(ctx1d, rng):
    """The grid constructors the benchmark calls, with its keywords."""
    base = probe_state(ctx1d, rng, kmax=2)
    vals = np.array([base.coeffs * np.exp(0.37j * i) for i in range(N_T)])
    state = CircleGridHermite(values=vals / np.linalg.norm(vals), lam=ctx1d.lam)
    assert isinstance(state, HermiteState) and state.dims == 1 and state.n == ctx1d.n
    out = InducedRepBC(LAB_B, ctx1d, n_t=N_T).apply(GroupElement.identity(), state)
    assert np.linalg.norm(out.coeffs - state.coeffs) <= 1e-13
    torus = TorusGridScalar(values=_torus_state(rng).coeffs, tau=TAU)
    circle = CircleGridScalar(values=_circle_state(rng).coeffs)
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

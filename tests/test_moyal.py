import math
import tracemalloc

import numpy as np
import pytest

from nhkit.coadjoint import DualPoint, coad
from nhkit.funcspace import ground_state, ladder_build, probe_state
from nhkit.group import GroupElement, Variant, Vec2, compose
from nhkit.moyal import (
    AxisQuadrature,
    _trace_window,
    covariance_residual,
    group_element_for,
    isotropy_commutator_residual,
    kernel_apply,
    kernel_axis_matrix,
    kernel_matrix,
    pair_trace,
    reconstruct,
    reconstruct_axis,
    smeared_pair_trace,
    smeared_tri_kernel,
    star_product,
    star_product_axis,
    tri_kernel,
    tri_kernel_closed_form,
    weyl_symbol,
    weyl_symbol_axis,
)
from nhkit.representations import InducedRep2D, labels_case_f
from conftest import hermite_fn

M = 1.0
TAU = 1.0
LAB = labels_case_f(m=M, C1=1.0, C2=0.3, tau=TAU)


@pytest.fixture(scope="module")
def ctx():
    return ladder_build(32, math.sqrt(M * TAU), dims=2)


@pytest.fixture(scope="module")
def rep(ctx):
    return InducedRep2D(LAB, ctx)


def coherent_axis(alpha, n):
    c = np.array(
        [alpha**k / math.sqrt(float(math.factorial(k))) for k in range(n)], complex
    ) * math.exp(-abs(alpha) ** 2 / 2.0)
    return c


def test_kernel_fixes_even_states_at_origin(ctx):
    psi = ground_state(ctx)
    out = kernel_apply(Vec2.zero(), Vec2.zero(), M, psi, ctx)
    assert np.linalg.norm(out.coeffs - 4.0 * psi.coeffs) <= 1e-12


def test_kernel_squares_to_sixteen(ctx, rng):
    psi = probe_state(ctx, rng, kmax=4)
    q, p = Vec2(0.3, -0.2), Vec2(0.15, 0.25)
    twice = kernel_apply(q, p, M, kernel_apply(q, p, M, psi, ctx), ctx)
    assert np.linalg.norm(twice.coeffs - 16.0 * psi.coeffs) / 16.0 <= 1e-8


def test_kernel_self_adjoint_on_resolved_states(ctx, rng):
    psi = probe_state(ctx, rng, kmax=4)
    phi = probe_state(ctx, rng, kmax=4)
    q, p = Vec2(0.4, 0.1), Vec2(-0.3, 0.2)
    lhs = np.vdot(phi.coeffs, kernel_apply(q, p, M, psi, ctx).coeffs)
    rhs = np.vdot(kernel_apply(q, p, M, phi, ctx).coeffs, psi.coeffs)
    assert abs(lhs - rhs) <= 1e-10


def test_kernel_momentum_only_matches_shifted_gaussian(ctx):
    psi = ground_state(ctx)
    p0 = Vec2(0.0, 0.4)
    out = kernel_apply(Vec2.zero(), p0, M, psi, ctx)
    # oracle: 4 phi0(-y - 2 p0/m) = 4 phi0(y + 2 p0/m), a coherent state
    alpha2 = -ctx.lam * (2.0 * 0.4 / M) / math.sqrt(2.0)
    target = np.outer(np.eye(ctx.n)[0], coherent_axis(alpha2, ctx.n))
    overlap = abs(np.vdot(target, out.coeffs / 4.0))
    assert overlap >= 1.0 - 1e-8


def test_kernel_axis_matrix_at_box_corners_matches_quadrature(ctx):
    """<e_j| Omega_axis |e_k> = int e_j(y) 2 e^{-2iq(my + p)} e_k(-y - 2p/m) dy with
    e_n(y) = sqrt(lam) h_n(lam y), by the trapezoid rule (spectrally accurate
    for these smooth, Gaussian-decaying integrands) at the corners of the
    round-trip box, where the displacement reaches |alpha|^2 = 100."""
    lam, n = ctx.lam, ctx.n
    y = np.linspace(-40.0, 40.0, 8001)
    h = y[1] - y[0]
    left = np.array([math.sqrt(lam) * hermite_fn(j, lam * y) for j in range(n)])
    for q, p in ((5.0, 5.0), (5.0, -5.0), (-5.0, 5.0), (-5.0, -5.0)):
        right = np.array([math.sqrt(lam) * hermite_fn(k, lam * (-y - 2.0 * p / M)) for k in range(n)])
        oracle = (left * (2.0 * np.exp(-2j * q * (M * y + p)) * h)) @ right.T
        assert np.max(np.abs(kernel_axis_matrix(q, p, M, ctx) - oracle)) <= 1e-12


def test_kernel_reflections_and_origin(ctx, rng):
    """The exact symmetries the grid walks read three quadrants off: K(-q, p) = conj K(q, p)
    bit for bit, K(q, -p) = P conj K(q, p) P and K(-q, -p) = P K(q, p) P to rounding (the
    entries are at most 2), with P the axis parity; and K(0, 0) = 2 P."""
    par = np.outer(ctx.parity1d, ctx.parity1d)  # P X P = par * X
    for q, p in rng.uniform(-5, 5, (20, 2)):
        k = kernel_axis_matrix(q, p, M, ctx)
        assert np.array_equal(kernel_axis_matrix(-q, p, M, ctx), k.conj())
        assert np.max(np.abs(kernel_axis_matrix(q, -p, M, ctx) - par * k.conj())) <= 1e-14
        assert np.max(np.abs(kernel_axis_matrix(-q, -p, M, ctx) - par * k)) <= 1e-14
    probe = rng.normal(size=ctx.n) + 1j * rng.normal(size=ctx.n)
    origin = kernel_axis_matrix(0.0, 0.0, M, ctx) @ probe
    assert np.linalg.norm(origin - 2.0 * ctx.parity1d * probe) <= 1e-14 * np.linalg.norm(probe)


def _axis_factor(u, ax, ctx):
    """Scalar `kernel_axis_matrix` call for axis `ax` of the point u = (q, p)."""
    pick = (lambda v: v.x1) if ax == 0 else (lambda v: v.x2)
    return kernel_axis_matrix(pick(u[0]), pick(u[1]), M, ctx)


def test_kernel_apply_matches_scalar_axis_factors(ctx, rng):
    psi = probe_state(ctx, rng, kmax=4)
    for _ in range(4):
        u = (Vec2(*rng.uniform(-5, 5, 2)), Vec2(*rng.uniform(-5, 5, 2)))
        ref = _axis_factor(u, 0, ctx) @ psi.coeffs @ _axis_factor(u, 1, ctx).T
        assert np.max(np.abs(kernel_apply(u[0], u[1], M, psi, ctx).coeffs - ref)) <= 1e-14


def test_pair_and_tri_traces_match_scalar_axis_factors(ctx, rng):
    w = _trace_window(ctx.n)
    for _ in range(4):
        us = [(Vec2(*rng.uniform(-1, 1, 2)), Vec2(*rng.uniform(-1, 1, 2))) for _ in range(3)]
        pair_ref = tri_ref = 1.0
        for ax in (0, 1):
            k1, k2, k3 = (_axis_factor(u, ax, ctx) for u in us)
            pair_ref *= np.sum(k1.T * k2)
            tri_ref *= np.trace((k1 * w) @ (k2 * w) @ (k3 * w))
        assert abs(pair_trace(us[0], us[1], M, ctx) - pair_ref) <= 1e-12
        assert abs(tri_kernel(*us, M, ctx) - tri_ref) <= 1e-12


def test_group_element_for_goldens():
    g = group_element_for(Vec2(1.0, 0.0), Vec2(0.0, 1.0), 1.0)
    assert g.a.as_tuple() == (1.0, 0.0)
    assert g.v.as_tuple() == (0.0, -1.0)
    assert g.b == 0.0 and g.phi == 0.0 and g.alpha == 0.0 and g.theta == 0.0
    assert group_element_for(Vec2.zero(), Vec2.zero(), 1.0).is_identity()
    with pytest.raises(ValueError):
        group_element_for(Vec2.zero(), Vec2.zero(), 0.0)


def test_group_element_moves_orbit_origin(rng):
    for _ in range(20):
        q = Vec2(*rng.uniform(-1, 1, 2))
        p = Vec2(*rng.uniform(-1, 1, 2))
        m = float(rng.uniform(0.5, 2.0))
        g = group_element_for(q, p, m, TAU)
        origin = DualPoint(0.0, m, 0.0, Vec2.zero(), Vec2.zero(), 0.0, TAU)
        moved = coad(g, origin)
        assert (moved.k * (1.0 / m) - q).norm() <= 1e-10
        assert (moved.p - p).norm() <= 1e-10


def test_covariance(ctx, rep, rng):
    psi = probe_state(ctx, rng, kmax=3)
    assert covariance_residual(Vec2.zero(), Vec2.zero(), LAB, psi, ctx, rep=rep) <= 1e-12
    worst = 0.0
    for _ in range(15):
        q = Vec2(*rng.uniform(-0.5, 0.5, 2))
        p = Vec2(*rng.uniform(-0.5, 0.5, 2))
        worst = max(worst, covariance_residual(q, p, LAB, psi, ctx, rep=rep))
    assert worst <= 1e-6


def test_covariance_mover_independence(ctx, rep, rng):
    psi = probe_state(ctx, rng, kmax=3)
    q, p = Vec2(0.3, -0.1), Vec2(0.2, 0.4)
    base = covariance_residual(q, p, LAB, psi, ctx, rep=rep)
    gamma = GroupElement(0.0, 0.21, 0.4, Vec2.zero(), Vec2.zero(), -0.3, Variant.OSCILLATING, TAU)
    mover = compose(group_element_for(q, p, M, TAU), gamma)
    alt = covariance_residual(q, p, LAB, psi, ctx, mover=mover, rep=rep)
    assert abs(alt - base) <= 1e-4
    assert alt <= 1e-6


def test_isotropy_commutation(ctx, rep, rng):
    psi = probe_state(ctx, rng, kmax=3)
    worst = 0.0
    for _ in range(10):
        gamma = GroupElement(
            0.0,
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(-0.5, 0.5)),
            Vec2.zero(),
            Vec2.zero(),
            float(rng.uniform(-0.5, 0.5)),
            Variant.OSCILLATING,
            TAU,
        )
        worst = max(worst, isotropy_commutator_residual(gamma, LAB, psi, ctx, rep=rep))
    assert worst <= 1e-4


def test_pair_trace_hermitian_symmetry_and_decay(ctx, rng):
    u1 = (Vec2(0.3, -0.2), Vec2(0.1, 0.4))
    u2 = (Vec2(-0.1, 0.2), Vec2(0.3, -0.3))
    t12 = pair_trace(u1, u2, M, ctx)
    t21 = pair_trace(u2, u1, M, ctx)
    assert abs(t12 - np.conj(t21)) <= 1e-10 * max(1.0, abs(t12))
    origin = (Vec2.zero(), Vec2.zero())
    far = (Vec2(3.0, 0.0), Vec2.zero())
    assert abs(pair_trace(origin, far, M, ctx)) <= 1e-2 * abs(pair_trace(origin, origin, M, ctx))


def test_smeared_traciality(ctx):
    quad = AxisQuadrature.build(3.0, 96)
    val = smeared_pair_trace(1.0, quad, M, ctx)
    assert abs(val - 1.0) <= 0.05


def test_tri_kernel_closed_form_at_origin():
    u0 = (Vec2.zero(), Vec2.zero())
    assert tri_kernel_closed_form(u0, u0, u0) == pytest.approx(16.0)


def test_tri_kernel_trace_is_cyclic(ctx, rng):
    us = [(Vec2(*rng.uniform(-1, 1, 2)), Vec2(*rng.uniform(-1, 1, 2))) for _ in range(3)]
    a = tri_kernel(us[0], us[1], us[2], M, ctx)
    b = tri_kernel(us[1], us[2], us[0], M, ctx)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_tri_kernel_weak_form_matches_closed_form(ctx, rng):
    """The Gaussian-smeared triple trace is trace class and converges: an
    independent check of the identity that `tri_kernel` evaluates pointwise
    through its windowed trace (covered by the acceptance suite)."""
    quad = AxisQuadrature.build(3.0, 96)
    for _ in range(3):
        u1 = (Vec2(*rng.uniform(-1, 1, 2)), Vec2(*rng.uniform(-1, 1, 2)))
        u2 = (Vec2(*rng.uniform(-1, 1, 2)), Vec2(*rng.uniform(-1, 1, 2)))
        num, closed = smeared_tri_kernel(u1, u2, 1.0, quad, M, ctx)
        # error measured against the typical smeared magnitude; the pointwise
        # relative form is ill-conditioned where the smear nearly cancels
        assert abs(num - closed) <= 1e-2 * max(abs(closed), 0.5)


def test_weyl_symbol_of_ground_state_is_gaussian(ctx):
    quad = AxisQuadrature.build(3.0, 16)
    psi = ground_state(ctx)
    a_mat = np.outer(psi.coeffs.reshape(-1), psi.coeffs.reshape(-1).conj())
    field = weyl_symbol(a_mat, quad, M, ctx)
    lam = ctx.lam
    closed = np.zeros_like(field, dtype=float)
    for i, q1 in enumerate(quad.q):
        for j, p1 in enumerate(quad.p):
            for k, q2 in enumerate(quad.q):
                for l, p2 in enumerate(quad.p):
                    closed[i, j, k, l] = 4.0 * math.exp(
                        -(lam**2) * (p1**2 + p2**2) / M**2 - M**2 * (q1**2 + q2**2) / lam**2
                    )
    assert np.linalg.norm(field - closed) / np.linalg.norm(closed) <= 0.02
    assert np.max(np.abs(field.imag)) <= 1e-8 * np.max(np.abs(field))
    # normalization: integral of the symbol is the trace
    w2 = quad.weights_2d()
    total = np.einsum("qpQP,qp,QP->", field, w2, w2)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_symbol_round_trip_product_rank_one(ctx, rng):
    quad = AxisQuadrature.build(5.0, 128)
    err = 0.0
    for _ in range(2):
        c = np.zeros(ctx.n, complex)
        c[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        a_axis = np.outer(c, c.conj())
        w_axis = weyl_symbol_axis(a_axis, quad, M, ctx)
        back = reconstruct_axis(w_axis, quad, M, ctx)
        err = max(err, float(np.linalg.norm(back - a_axis) / np.linalg.norm(a_axis)))
    assert err <= 0.05


def test_general_reconstruct_matches_axis_path(ctx):
    # identical operators, one through the general 4D grid, one per axis
    quad = AxisQuadrature.build(4.0, 20)
    psi = ground_state(ctx)
    a_axis = np.outer(np.eye(ctx.n)[0], np.eye(ctx.n)[0])
    w_axis = weyl_symbol_axis(a_axis, quad, M, ctx)
    w_full = np.einsum("ab,cd->abcd", w_axis, w_axis)
    a_full = reconstruct(w_full, quad, M, ctx)
    a_ref = np.kron(reconstruct_axis(w_axis, quad, M, ctx), reconstruct_axis(w_axis, quad, M, ctx))
    assert np.linalg.norm(a_full - a_ref) / np.linalg.norm(a_ref) <= 1e-10


def test_weyl_symbol_of_product_operator_is_outer_product(ctx, rng):
    quad = AxisQuadrature.build(3.0, 8)
    a1, a2 = (rng.normal(size=(ctx.n, ctx.n)) + 1j * rng.normal(size=(ctx.n, ctx.n)) for _ in range(2))
    field = weyl_symbol(np.kron(a1, a2), quad, M, ctx)
    outer = np.multiply.outer(weyl_symbol_axis(a1, quad, M, ctx), weyl_symbol_axis(a2, quad, M, ctx))
    assert np.linalg.norm(field - outer) / np.linalg.norm(outer) <= 1e-12


def test_stacked_axis_maps_equal_per_operator_calls(ctx, rng):
    quad = AxisQuadrature.build(4.0, 12)
    ops = rng.normal(size=(2, 3, ctx.n, ctx.n)) + 1j * rng.normal(size=(2, 3, ctx.n, ctx.n))
    fields = weyl_symbol_axis(ops, quad, M, ctx)
    backs = reconstruct_axis(fields, quad, M, ctx)
    assert fields.shape == (2, 3, 12, 12) and backs.shape == ops.shape
    for k in np.ndindex(2, 3):
        one = weyl_symbol_axis(ops[k], quad, M, ctx)
        assert np.linalg.norm(fields[k] - one) <= 1e-13 * np.linalg.norm(one)
        back = reconstruct_axis(one, quad, M, ctx)
        assert np.linalg.norm(backs[k] - back) <= 1e-13 * np.linalg.norm(back)


def _row_walk_symbol(a_axis, quad, m, ctx):
    """Reference for `weyl_symbol_axis`: every node's kernel built, one q-row at a time."""
    n, lead = ctx.n, a_axis.shape[:-2]
    a_t = np.swapaxes(a_axis, -1, -2).reshape(-1, n * n)
    out = np.empty((a_t.shape[0], quad.q.size, quad.p.size), complex)
    for i, qv in enumerate(quad.q):
        out[:, i] = a_t @ kernel_axis_matrix(qv, quad.p, m, ctx).reshape(quad.p.size, n * n).T
    return out.reshape(lead + out.shape[1:])


def _row_walk_reconstruct(w_field, quad, m, ctx):
    """Reference for `reconstruct_axis`: every node's kernel built, one q-row at a time."""
    n, lead = ctx.n, w_field.shape[:-2]
    weighted = (w_field * quad.weights_2d()).reshape((-1,) + w_field.shape[-2:])
    out = np.zeros((weighted.shape[0], n * n), complex)
    for i, qv in enumerate(quad.q):
        out += weighted[:, i] @ kernel_axis_matrix(qv, quad.p, m, ctx).reshape(quad.p.size, n * n)
    return out.reshape(lead + (n, n))


@pytest.mark.parametrize("nodes", [1, 7, 48, 95, 96])
@pytest.mark.parametrize("stack", [(), (3,)])
def test_quadrant_walk_matches_row_walk(nodes, stack, rng):
    """The quadrant walks against the full row walk, on dense random operators and fields; odd
    node counts have a q = 0 row and a p = 0 column that are their own mirrors."""
    ctx1 = ladder_build(32, 1.0, dims=1)
    quad = AxisQuadrature.build(4.0, nodes)
    ops = rng.normal(size=stack + (ctx1.n, ctx1.n)) + 1j * rng.normal(size=stack + (ctx1.n, ctx1.n))
    fields = rng.normal(size=stack + (nodes, nodes)) + 1j * rng.normal(size=stack + (nodes, nodes))
    for walk, ref, arg in (
        (weyl_symbol_axis, _row_walk_symbol, ops), (reconstruct_axis, _row_walk_reconstruct, fields),
    ):
        got, want = walk(arg, quad, 1.3, ctx1), ref(arg, quad, 1.3, ctx1)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_quadrature_must_be_mirror_symmetric():
    good = AxisQuadrature.build(3.0, 7)
    assert np.array_equal(good.q, -good.q[::-1]) and np.array_equal(good.wq, good.wq[::-1])
    x, w = np.array([-1.0, 0.1, 1.0]), np.array([0.5, 1.0, 0.5])
    with pytest.raises(ValueError, match="quadrature q must be mirror-symmetric"):
        AxisQuadrature(q=x, p=good.p[::3], wq=w, wp=w, box=1.0)
    with pytest.raises(ValueError, match="quadrature wp must be mirror-symmetric"):
        AxisQuadrature(q=good.q, p=good.p, wq=good.wq, wp=good.wp * np.arange(1.0, 8.0), box=3.0)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_maps_stay_in_bounded_memory():
    """No (nq, np, N, N) kernel batch and no n^4 star intermediate: at 96
    nodes and N = 32 the batch alone would be 151 MB."""
    ctx1 = ladder_build(32, 1.0, dims=1)
    quad, quad_star = AxisQuadrature.build(5.0, 96), AxisQuadrature.build(5.0, 48)
    c = coherent_axis(0.5, ctx1.n)
    a_axis = np.outer(c, c.conj())
    w_axis = weyl_symbol_axis(a_axis, quad, M, ctx1)
    w_star = weyl_symbol_axis(a_axis, quad_star, M, ctx1)
    limit = 16 * 2**20
    assert _traced_peak(lambda: weyl_symbol_axis(a_axis, quad, M, ctx1)) < limit
    assert _traced_peak(lambda: reconstruct_axis(w_axis, quad, M, ctx1)) < limit
    assert _traced_peak(lambda: star_product_axis(w_star, w_star, quad_star)) < limit


def test_star_unit(ctx):
    quad = AxisQuadrature.build(4.0, 48)
    c = coherent_axis(0.5, ctx.n)
    a_axis = np.outer(c, c.conj())
    wa = weyl_symbol_axis(a_axis, quad, M, ctx)
    unit = star_product_axis(np.ones_like(wa), wa, quad)
    assert np.linalg.norm(unit - wa) / np.linalg.norm(wa) <= 0.10


def test_star_matches_operator_product(ctx):
    quad = AxisQuadrature.build(5.0, 48)
    ca = coherent_axis(0.5, ctx.n)
    cb = coherent_axis(-0.3 + 0.4j, ctx.n)
    a_axis = np.outer(ca, ca.conj())
    b_axis = np.outer(cb, cb.conj())
    wa = weyl_symbol_axis(a_axis, quad, M, ctx)
    wb = weyl_symbol_axis(b_axis, quad, M, ctx)
    st = star_product_axis(wa, wb, quad)
    target = weyl_symbol_axis(a_axis @ b_axis, quad, M, ctx)
    assert np.linalg.norm(st - target) / np.linalg.norm(target) <= 0.10


def test_star_noncommutativity_witness(ctx):
    quad = AxisQuadrature.build(5.0, 48)
    ca = coherent_axis(0.5, ctx.n)
    cb = coherent_axis(-0.3 + 0.4j, ctx.n)
    a_axis = np.outer(ca, ca.conj())
    b_axis = np.outer(cb, cb.conj())
    wa = weyl_symbol_axis(a_axis, quad, M, ctx)
    wb = weyl_symbol_axis(b_axis, quad, M, ctx)
    comm = star_product_axis(wa, wb, quad) - star_product_axis(wb, wa, quad)
    target = weyl_symbol_axis(a_axis @ b_axis - b_axis @ a_axis, quad, M, ctx)
    quad_err = np.linalg.norm(comm - target)
    assert np.linalg.norm(comm) > 10.0 * quad_err
    assert np.linalg.norm(target) > 0.1


def test_general_star_matches_axis_star_on_separable_fields(ctx):
    quad = AxisQuadrature.build(3.0, 6)
    ca = coherent_axis(0.4, ctx.n)
    cb = coherent_axis(-0.2 + 0.3j, ctx.n)
    a_axis = np.outer(ca, ca.conj())
    b_axis = np.outer(cb, cb.conj())
    wa = weyl_symbol_axis(a_axis, quad, M, ctx)
    wb = weyl_symbol_axis(b_axis, quad, M, ctx)
    full = star_product(
        np.einsum("ab,cd->abcd", wa, wa), np.einsum("ab,cd->abcd", wb, wb), quad
    )
    ax = star_product_axis(wa, wb, quad)
    ref = np.einsum("ab,cd->abcd", ax, ax)
    assert np.linalg.norm(full - ref) / np.linalg.norm(ref) <= 1e-12


def test_kernel_matrix_matches_apply(ctx, rng):
    psi = probe_state(ctx, rng, kmax=3)
    q, p = Vec2(0.2, -0.3), Vec2(0.1, 0.25)
    full = kernel_matrix(q, p, M, ctx)
    direct = kernel_apply(q, p, M, psi, ctx)
    assert np.linalg.norm(
        (full @ psi.coeffs.reshape(-1)).reshape(ctx.n, ctx.n) - direct.coeffs
    ) <= 1e-12


def test_kernel_validation(ctx, rng):
    psi = probe_state(ctx, rng, kmax=2)
    with pytest.raises(ValueError):
        kernel_apply(Vec2.zero(), Vec2.zero(), 0.0, psi, ctx)
    ctx1 = ladder_build(8, 1.0, dims=1)
    psi1 = probe_state(ctx1, rng, kmax=2)
    with pytest.raises(ValueError):
        kernel_apply(Vec2.zero(), Vec2.zero(), 1.0, psi1, ctx1)

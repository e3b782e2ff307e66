import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nhkit.funcspace import (
    BasisContext,
    HermiteState,
    QuadraticOperator,
    ResolutionWarning,
    _sectors,
    cross_product,
    displacement_apply,
    exp_apply,
    ground_state,
    ladder_build,
    linear_product,
    op_apply,
    op_matrix,
    parity_apply,
    phase_shift_block,
    probe_state,
    square_sum,
)
from nhkit.representations import CANONICAL_LABELS, LABEL_FACTORIES, case_setup
from conftest import hermite_fn


def quad_element(f, m, n, lam):
    """<h_m| f |h_n> for basis functions of lam*y by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(120)
    # integrate e^{-u^2} g(u) du with u = lam*y; basis e_n(y) = sqrt(lam) psi_n(lam y)
    u = nodes
    y = u / lam
    vals = hermite_fn(m, u) * f(y) * hermite_fn(n, u) * np.exp(u**2)
    return float(np.sum(weights * vals)) / lam * lam  # d(lam y) = lam dy; sqrt(lam)^2 / lam = 1


def test_ladder_matrix_elements_against_quadrature():
    lam = 1.3
    ctx = ladder_build(12, lam, dims=1)
    assert ctx.y1d[0, 1] == pytest.approx(1.0 / (lam * math.sqrt(2.0)), abs=1e-14)
    for mm, nn in ((0, 1), (2, 3), (4, 5), (3, 3)):
        oracle = quad_element(lambda y: y, mm, nn, lam)
        assert ctx.y1d[mm, nn] == pytest.approx(oracle, abs=1e-10)
    # derivative elements via integration by parts oracle: <m|d|n> = -<n|d|m>
    assert np.max(np.abs(ctx.d1d + ctx.d1d.T)) == 0.0
    assert np.max(np.abs(ctx.y1d - ctx.y1d.T)) == 0.0


def test_canonical_commutator_on_interior_block():
    ctx = ladder_build(16, 0.9, dims=1)
    comm = ctx.y1d @ ctx.d1d - ctx.d1d @ ctx.y1d
    interior = comm[: 15, : 15]
    assert np.max(np.abs(interior + np.eye(15))) <= 1e-14


def test_oscillator_spectrum():
    ctx = ladder_build(32, 1.0, dims=1)
    q = QuadraticOperator(dims=1, quad_yy=[[1.0]], quad_dd=[[-1.0]])
    mat = op_matrix(q, ctx)
    evals = np.sort(np.linalg.eigvalsh(mat))
    for n in range(16):
        assert abs(evals[n] - (2 * n + 1)) <= 1e-10


def test_constant_operator():
    ctx = ladder_build(8, 1.0, dims=2)
    mat = op_matrix(QuadraticOperator.constant(2, 2.5 - 1.0j), ctx)
    assert np.allclose(mat, (2.5 - 1.0j) * np.eye(64))


def test_rotation_generator_commutes_with_isotropic_oscillator():
    ctx = ladder_build(16, 1.0, dims=2)
    rot = QuadraticOperator(dims=2, quad_yd=[[0.0, 1.0j], [-1.0j, 0.0]])
    osc = QuadraticOperator(
        dims=2, quad_yy=[[1.0, 0.0], [0.0, 1.0]], quad_dd=[[-1.0, 0.0], [0.0, -1.0]]
    )
    a, b = op_matrix(rot, ctx), op_matrix(osc, ctx)
    comm = a @ b - b @ a
    idx = [i * 16 + j for i in range(14) for j in range(14)]
    assert np.max(np.abs(comm[np.ix_(idx, idx)])) <= 1e-10


def test_linear_product_matches_matrix_product(rng):
    ctx = ladder_build(14, 1.1, dims=2)
    for _ in range(10):
        a = QuadraticOperator.linear(
            2,
            lin_y=rng.normal(size=2) + 1j * rng.normal(size=2),
            lin_d=rng.normal(size=2) + 1j * rng.normal(size=2),
            const=complex(rng.normal(), rng.normal()),
        )
        b = QuadraticOperator.linear(
            2,
            lin_y=rng.normal(size=2) + 1j * rng.normal(size=2),
            lin_d=rng.normal(size=2) + 1j * rng.normal(size=2),
            const=complex(rng.normal(), rng.normal()),
        )
        lhs = op_matrix(linear_product(a, b), ctx)
        rhs = op_matrix(a, ctx) @ op_matrix(b, ctx)
        idx = [i * 14 + j for i in range(12) for j in range(12)]
        assert np.max(np.abs((lhs - rhs)[np.ix_(idx, idx)])) <= 1e-12


def test_exp_apply_basics(rng):
    ctx = ladder_build(24, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=4)
    osc = QuadraticOperator(
        dims=2, quad_yy=np.eye(2), quad_dd=-np.eye(2), hermitian_generator=True
    )
    assert np.allclose(exp_apply(osc, 0.0, psi, ctx).coeffs, psi.coeffs)
    for t in (0.3, -1.7, 5.0):
        out = exp_apply(osc, t, psi, ctx)
        assert abs(out.norm() - 1.0) <= 1e-12


def test_rotation_by_two_pi_returns_state_up_to_phase(rng):
    ctx = ladder_build(24, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=5)
    rot = QuadraticOperator(
        dims=2, quad_yd=[[0.0, 1.0j], [-1.0j, 0.0]], hermitian_generator=True
    )
    out = exp_apply(rot, 2.0 * math.pi, psi, ctx)
    assert abs(abs(psi.overlap(out)) - 1.0) <= 1e-10


def test_generator_consistency_central_difference(rng):
    ctx = ladder_build(28, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=4)
    q = QuadraticOperator(
        dims=2,
        quad_yy=[[1.0, 0.2], [0.2, 0.8]],
        quad_dd=[[-1.0, 0.1], [0.1, -0.9]],
        lin_y=[0.3, -0.1],
        lin_d=[0.2j, -0.15j],
        hermitian_generator=True,
    )
    eps = 1e-4
    plus = exp_apply(q, eps, psi, ctx)
    minus = exp_apply(q, -eps, psi, ctx)
    deriv = (plus.coeffs - minus.coeffs) / (2.0 * eps)
    target = 1j * (op_matrix(q, ctx) @ psi.coeffs.reshape(-1)).reshape(psi.coeffs.shape)
    assert np.linalg.norm(deriv - target) / np.linalg.norm(target) <= 1e-6


def test_exp_apply_requires_hermitian_flag(rng):
    ctx = ladder_build(8, 1.0, dims=1)
    psi = probe_state(ctx, rng, kmax=2)
    q = QuadraticOperator(dims=1, quad_yy=[[1.0]])
    with pytest.raises(ValueError):
        exp_apply(q, 1.0, psi, ctx)


def test_hermitian_pattern_enforced():
    with pytest.raises(ValueError):
        QuadraticOperator(dims=1, lin_d=[1.0], hermitian_generator=True)
    with pytest.raises(ValueError):
        QuadraticOperator(dims=1, quad_yy=[[1.0j]], hermitian_generator=True)
    q = QuadraticOperator(dims=1, lin_d=[1.0j], lin_y=[0.5], hermitian_generator=True)
    ctx = ladder_build(8, 1.0, dims=1)
    mat = op_matrix(q, ctx)
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12


def test_displacement_identity_and_gaussian_shift(rng):
    ctx = ladder_build(32, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=5)
    same = displacement_apply((0.0, 0.0), (0.0, 0.0), psi, ctx)
    assert np.linalg.norm(same.coeffs - psi.coeffs) <= 1e-13

    g0 = ground_state(ctx)
    for b in (0.4, 1.0, -0.8):
        shifted = displacement_apply((0.0, 0.0), (b, 0.0), g0, ctx)
        # coherent-state expansion of the shifted Gaussian as the oracle:
        # translation by b is the displacement with alpha = lam b / sqrt(2)
        alpha = ctx.lam * b / math.sqrt(2.0)
        ns = np.arange(ctx.n)
        coh = np.exp(-abs(alpha) ** 2 / 2.0) * np.array(
            [alpha**k / math.sqrt(float(math.factorial(k))) for k in ns]
        )
        target = np.outer(coh, np.eye(ctx.n)[0])
        overlap = abs(np.vdot(target, shifted.coeffs))
        assert overlap >= 1.0 - 1e-8


def test_displacement_composition_weyl_phase(rng):
    ctx = ladder_build(40, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=5)
    a1, b1 = np.array([0.3, -0.2]), np.array([0.25, 0.1])
    a2, b2 = np.array([-0.15, 0.4]), np.array([0.2, -0.3])
    one = displacement_apply(a1, b1, displacement_apply(a2, b2, psi, ctx), ctx)
    # composite: T_{b1} M_{a1} T_{b2} M_{a2} = e^{+i a1.b2} T_{b1+b2} M_{a1+a2}
    phase = np.exp(1j * float(np.dot(a1, b2)))
    two = displacement_apply(a1 + a2, b1 + b2, psi, ctx)
    assert np.linalg.norm(one.coeffs - phase * two.coeffs) <= 1e-8


def displacement(n, alpha, lam=1.0):
    """D(alpha) from the phase/shift block: T_s M_c = e^{-isc/2} D((lam s + i c/lam)/sqrt 2)."""
    shift, phase = math.sqrt(2.0) * alpha.real / lam, math.sqrt(2.0) * alpha.imag * lam
    return np.exp(0.5j * shift * phase) * phase_shift_block(n, lam, phase, shift)


def laguerre_sum_displacement(n, alpha):
    """<m|D(alpha)|k> from the explicit Laguerre sum, sqrt(lo!/(lo+d)!) alpha^d e^{-x/2}
    L_lo^(d)(x) below the diagonal and (-conj alpha)^d in place of alpha^d above it."""
    x = abs(alpha) ** 2
    out = np.zeros((n, n), complex)
    for m in range(n):
        for k in range(n):
            lo, d = min(m, k), abs(m - k)
            lag = sum((-1) ** j * math.comb(lo + d, lo - j) * x**j / math.factorial(j) for j in range(lo + 1))
            amp = math.sqrt(math.factorial(lo) / math.factorial(lo + d)) * math.exp(-x / 2.0) * lag
            out[m, k] = amp * (alpha if m >= k else -alpha.conjugate()) ** d
    return out


def test_displacement_block_matches_laguerre_sum():
    for alpha, lam in ((0.0, 1.0), (0.3 - 0.2j, 1.0), (-0.9 + 1.1j, 1.3), (1.2j, 0.7)):
        ref = laguerre_sum_displacement(12, complex(alpha))
        assert np.max(np.abs(displacement(12, complex(alpha), lam) - ref)) <= 1e-13
    # batched over broadcast phase and shift, element for element
    phases, shifts = np.array([[0.4], [-1.2]]), np.array([0.3, 2.0, -0.5])
    batch = phase_shift_block(10, 1.3, phases, shifts)
    assert batch.shape == (2, 3, 10, 10)
    for i, j in np.ndindex(2, 3):
        assert np.max(np.abs(batch[i, j] - phase_shift_block(10, 1.3, phases[i, 0], shifts[j]))) <= 1e-14


@pytest.mark.parametrize("shape", [(), (2,), (3, 2), (96,)])
def test_displacement_block_batch_matches_scalar_calls(shape):
    """At N = 32 every element of a batched call equals the scalar call, out
    to the displacements of the kernel at the round-trip box corners
    (q, p = +-5 at m = lam = 1: phase, shift = -+10, |alpha|^2 = 100)."""
    rng = np.random.default_rng(17)
    phase, shift = rng.uniform(-10.0, 10.0, (2,) + shape)
    if shape:
        flat_phase, flat_shift = phase.reshape(-1), shift.reshape(-1)
        flat_phase[:2], flat_shift[:2] = (10.0, -10.0), (-10.0, 10.0)
    batch = phase_shift_block(32, 1.0, phase, shift)
    assert batch.shape == shape + (32, 32)
    for idx in np.ndindex(shape):
        one = phase_shift_block(32, 1.0, float(phase[idx]), float(shift[idx]))
        assert np.max(np.abs(batch[idx] - one)) <= 1e-14


def test_displacement_block_weyl_law_on_low_modes():
    """D(a) D(b) = e^{i Im(a conj b)} D(a + b) on the 16 lowest modes.  The
    product sums over all N columns of D(a); the column recurrence
    D|k+1> = (a^dag - conj a) D|k> / sqrt(k+1) misses it by 4e-9 here."""
    n, low = 96, 16
    rng = np.random.default_rng(3)
    pairs = [(4.0 + 0.0j, 4.0j)] + [
        tuple(r * np.exp(1j * t) for r, t in zip(rng.uniform(1.0, 4.0, 2), rng.uniform(0, 2 * math.pi, 2)))
        for _ in range(6)
    ]
    for a, b in pairs:
        prod = (displacement(n, a) @ displacement(n, b))[:low, :low]
        ref = np.exp(1j * (a * np.conj(b)).imag) * displacement(n, a + b)[:low, :low]
        assert np.max(np.abs(prod - ref)) <= 1e-12


def test_displacement_block_low_columns_have_unit_norm():
    for alpha in (4.0, -2.5 + 3.0j, 2.8j):
        cols = np.linalg.norm(displacement(96, complex(alpha))[:, :16], axis=0)
        assert np.max(np.abs(cols - 1.0)) <= 1e-12


def test_truncation_convergence_for_resolved_state(rng):
    q = QuadraticOperator(
        dims=2,
        quad_yy=[[1.0, 0.1], [0.1, 1.0]],
        quad_dd=[[-1.0, 0.05], [0.05, -1.0]],
        quad_yd=[[0.05j, 0.0], [0.0, -0.05j]],
        hermitian_generator=True,
    )
    results = {}
    coeffs8 = None
    for n in (24, 32):
        ctx = ladder_build(n, 1.0, dims=2)
        if coeffs8 is None:
            rng2 = np.random.default_rng(7)
            block = rng2.normal(size=(9, 9)) + 1j * rng2.normal(size=(9, 9))
            block /= np.linalg.norm(block)
            coeffs8 = block
        c = np.zeros((n, n), complex)
        c[:9, :9] = coeffs8
        psi = HermiteState(dims=2, n=n, lam=1.0, coeffs=c)
        results[n] = exp_apply(q, 0.4, psi, ctx).coeffs[:24, :24]
    assert np.linalg.norm(results[24] - results[32]) <= 1e-8


def test_parity_and_resolution_tools(rng):
    ctx = ladder_build(16, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=3)
    flipped = parity_apply(psi, ctx)
    assert flipped.coeffs[1, 0] == -psi.coeffs[1, 0]
    assert flipped.coeffs[1, 1] == psi.coeffs[1, 1]
    assert psi.is_well_resolved()
    bad = np.zeros((16, 16), complex)
    bad[15, 15] = 1.0
    spiky = HermiteState(dims=2, n=16, lam=1.0, coeffs=bad)
    assert spiky.tail_fraction() == 1.0
    # tails far below the head are summed, not taken as total - head (which gives 0 here)
    faint = np.zeros((16, 16), complex)
    faint[0, 0], faint[0, 13], faint[13, 2] = 1.0, 1e-10, 1e-10j
    frac = HermiteState(dims=2, n=16, lam=1.0, coeffs=faint).tail_fraction()
    assert abs(frac - 2e-20) <= 1e-12 * 2e-20
    with pytest.warns(ResolutionWarning):
        exp_apply(
            QuadraticOperator(dims=2, quad_yy=np.eye(2), quad_dd=-np.eye(2), hermitian_generator=True),
            0.1,
            spiky,
            ctx,
        )


def test_state_json_round_trip(rng):
    ctx = ladder_build(8, 1.4, dims=2)
    psi = probe_state(ctx, rng, kmax=3)
    back = HermiteState.from_json(psi.to_json())
    assert back.dims == 2 and back.n == 8 and back.lam == 1.4
    assert np.allclose(back.coeffs, psi.coeffs)
    stack = replace(psi, coeffs=np.stack([psi.coeffs, 2j * psi.coeffs, psi.coeffs.T]).reshape(3, 1, 8, 8))
    back = HermiteState.from_json(stack.to_json())
    assert back.coeffs.shape == (3, 1, 8, 8) and back.n == 8
    assert np.array_equal(back.coeffs, stack.coeffs)


@pytest.mark.parametrize("dims", [1, 2])
def test_stacked_state_applies_state_by_state(rng, dims):
    """exp_apply and displacement_apply act on each state of a stack as on the state alone."""
    ctx = ladder_build(16, 1.2, dims=dims, pad=0)
    states = [probe_state(ctx, rng, kmax=4) for _ in range(6)]
    stack = replace(states[0], coeffs=np.stack([s.coeffs for s in states]).reshape((2, 3) + (16,) * dims))
    assert stack.tail_fraction() <= 1e-8 and abs(stack.norm() - math.sqrt(6.0)) <= 1e-12
    gen = QuadraticOperator(dims=dims, quad_yy=np.eye(dims), quad_dd=-0.5 * np.eye(dims), hermitian_generator=True)
    phase, shift = rng.uniform(-1, 1, dims), rng.uniform(-1, 1, dims)
    for apply in (lambda s: exp_apply(gen, 0.7, s, ctx), lambda s: displacement_apply(phase, shift, s, ctx)):
        out = apply(stack)
        assert out.coeffs.shape == stack.coeffs.shape
        one_by_one = np.stack([apply(s).coeffs for s in states])
        assert np.array_equal(out.coeffs.reshape(one_by_one.shape), one_by_one)
    with pytest.raises(ValueError, match="shape"):
        HermiteState(dims=dims, n=16, lam=1.2, coeffs=np.zeros((16,) * dims + (3,)))


def test_square_sum_and_cross_product_consistency(rng):
    ctx = ladder_build(12, 1.0, dims=2)
    p1 = QuadraticOperator.linear(2, lin_y=[-1.0, 0.0])
    p2 = QuadraticOperator.linear(2, lin_y=[0.0, -1.0])
    k1 = QuadraticOperator.linear(2, lin_d=[1.0j, 0.0])
    k2 = QuadraticOperator.linear(2, lin_d=[0.0, 1.0j])
    s = square_sum([p1, p2, k1, k2])
    m_s = op_matrix(s, ctx)
    direct = sum(op_matrix(o, ctx) @ op_matrix(o, ctx) for o in (p1, p2, k1, k2))
    idx = [i * 12 + j for i in range(10) for j in range(10)]
    assert np.max(np.abs((m_s - direct)[np.ix_(idx, idx)])) <= 1e-12
    x = cross_product(p1, p2, k1, k2)
    m_x = op_matrix(x, ctx)
    direct_x = op_matrix(p1, ctx) @ op_matrix(k2, ctx) - op_matrix(p2, ctx) @ op_matrix(k1, ctx)
    assert np.max(np.abs((m_x - direct_x)[np.ix_(idx, idx)])) <= 1e-12


def test_basis_validation():
    with pytest.raises(ValueError):
        ladder_build(3, 1.0, dims=1)
    with pytest.raises(ValueError):
        ladder_build(8, -1.0, dims=1)
    with pytest.raises(ValueError):
        ladder_build(8, 1.0, dims=3)
    with pytest.raises(ValueError):
        ladder_build(8, 1.0, dims=1, pad=3)


def random_hermitian_operator(rng, dims: int) -> QuadraticOperator:
    sym = lambda: (lambda a: a + a.T)(rng.normal(size=(dims, dims)))
    return QuadraticOperator(
        dims=dims,
        const=rng.normal(),
        lin_y=rng.normal(size=dims),
        lin_d=1j * rng.normal(size=dims),
        quad_yy=sym(),
        quad_dd=sym(),
        quad_yd=1j * rng.normal(size=(dims, dims)),
        hermitian_generator=True,
    )


def kron_assembly(q: QuadraticOperator, ctx: BasisContext) -> np.ndarray:
    """Reference: the operator as a sum of products of full-size axis matrices."""
    eye = np.eye(ctx.n)
    full = lambda m, ax: m if ctx.dims == 1 else (np.kron(m, eye) if ax == 0 else np.kron(eye, m))
    ys = [full(ctx.y1d, ax) for ax in range(ctx.dims)]
    ds = [full(ctx.d1d, ax) for ax in range(ctx.dims)]
    mat = q.const * np.eye(ctx.n**ctx.dims) + sum(q.lin_y[i] * ys[i] + q.lin_d[i] * ds[i] for i in range(ctx.dims))
    for i in range(ctx.dims):
        for j in range(ctx.dims):
            mat = mat + q.quad_yy[i, j] * ys[i] @ ys[j] + q.quad_dd[i, j] * ds[i] @ ds[j]
            mat = mat + q.quad_yd[i, j] * 0.5 * (ys[i] @ ds[j] + ds[j] @ ys[i])
    return mat


def test_op_matrix_matches_kron_product_assembly(rng):
    for dims, n in ((1, 12), (2, 9)):
        ctx = ladder_build(n, 1.3, dims=dims)
        for _ in range(5):
            q = random_hermitian_operator(rng, dims)
            assert np.max(np.abs(op_matrix(q, ctx) - kron_assembly(q, ctx))) <= 1e-13


def test_op_apply_matches_op_matrix(rng):
    for dims, n in ((1, 12), (2, 9)):
        ctx = ladder_build(n, 0.8, dims=dims)
        shape = (n,) * dims
        q = random_hermitian_operator(rng, dims)
        mat = op_matrix(q, ctx)
        stack = rng.normal(size=(3,) + shape) + 1j * rng.normal(size=(3,) + shape)
        for c, batched in zip(stack, op_apply(q, stack, ctx)):
            single = op_apply(q, c, ctx)
            assert np.max(np.abs(single - (mat @ c.ravel()).reshape(shape))) <= 1e-12
            assert np.max(np.abs(batched - single)) <= 1e-12


def canonical_setup(case: str, rng, n: int):
    return case_setup(case, LABEL_FACTORIES[case](**CANONICAL_LABELS[case]), rng, n=n, kmax=5)


@pytest.mark.parametrize("case", ["a", "f", "g"])
def test_sector_exp_apply_matches_dense_eigh(case, rng):
    ctx, rep, psi = canonical_setup(case, rng, 16)
    for name in ("H", "J"):
        q = rep.ops[name]
        w, v = np.linalg.eigh(op_matrix(q, ctx))
        for t in (0.37, -1.9):
            dense = v @ (np.exp(1j * t * w) * (v.conj().T @ psi.coeffs.ravel()))
            assert np.linalg.norm(exp_apply(q, t, psi, ctx).coeffs.ravel() - dense) <= 1e-12


@pytest.mark.parametrize("case", ["a", "f", "g"])
def test_generator_sectors_hold_every_nonzero_entry(case, rng):
    ctx, rep, _ = canonical_setup(case, rng, 16)
    for name in ("H", "J"):
        mat = op_matrix(rep.ops[name], ctx)
        groups = _sectors(mat)
        members = np.concatenate([idx.ravel() for idx in groups])
        assert np.array_equal(np.sort(members), np.arange(mat.shape[0]))
        inside = np.zeros(mat.shape, dtype=bool)
        for idx in groups:
            for row in idx:
                inside[np.ix_(row, row)] = True
        assert np.all(mat[~inside] == 0.0)
        if case in ("a", "g"):
            assert sum(len(idx) for idx in groups) >= 2
        if case == "f" and name == "H":
            assert [idx.shape for idx in groups] == [(mat.shape[0], 1)]


def test_unstructured_generator_is_one_sector_and_matches_dense_path(rng):
    ctx, rep, state = canonical_setup("b", rng, 40)
    q = rep.w_gen
    mat = op_matrix(q, ctx)
    assert [idx.shape for idx in _sectors(mat)] == [(1, 40)]
    psi = HermiteState(dims=1, n=40, lam=ctx.lam, coeffs=state.coeffs[0])
    w, v = np.linalg.eigh(mat)
    dense = v @ (np.exp(1j * 0.8 * w) * (v.conj().T @ psi.coeffs))
    assert np.array_equal(exp_apply(q, 0.8, psi, ctx).coeffs, dense)

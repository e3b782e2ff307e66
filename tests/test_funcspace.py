import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nhkit.funcspace import (
    BasisContext,
    HermiteState,
    STACK_BELOW,
    QuadraticOperator,
    ResolutionWarning,
    _sector_factors,
    _sectors,
    _exp_factors,
    _solver,
    displacement_apply,
    exp_apply,
    ground_state,
    ladder_build,
    linear,
    op_apply,
    op_matrix,
    parity_apply,
    phase_shift_block,
    probe_state,
    product,
)
from nhkit.representations import (
    CASES,
    case_setup,
    generators,
    intertwiner_generator,
    labels_case_a,
    labels_case_b,
    labels_case_c,
    labels_case_d,
    labels_case_e,
    labels_case_f,
    labels_case_g,
)
from conftest import hermite_fn


def quadratic(dims, yy=0.0, pp=0.0, yp=0.0):
    """sum_ij yy_ij y_i y_j + pp_ij p_i p_j + yp_ij (y_i p_j + p_j y_i)/2 for symmetric yy, pp."""
    coef = np.zeros((2 * dims + 1,) * 2)
    coef[1 : dims + 1, 1 : dims + 1] = yy
    coef[dims + 1 :, dims + 1 :] = pp
    coef[1 : dims + 1, dims + 1 :] = 0.5 * np.asarray(yp)
    coef[dims + 1 :, 1 : dims + 1] = 0.5 * np.asarray(yp).T
    return QuadraticOperator(coef)


OSCILLATOR = quadratic(2, yy=np.eye(2), pp=np.eye(2))  # y^2 + p^2
ROTATION = quadratic(2, yp=[[0.0, -1.0], [1.0, 0.0]])  # y2 p1 - y1 p2


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
    mat = op_matrix(quadratic(1, yy=1.0, pp=1.0), ctx)
    evals = np.sort(np.linalg.eigvalsh(mat))
    for n in range(16):
        assert abs(evals[n] - (2 * n + 1)) <= 1e-10


def test_constant_operator():
    ctx = ladder_build(8, 1.0, dims=2)
    mat = op_matrix(linear(2, 2.5 - 1.0j), ctx)
    assert np.allclose(mat, (2.5 - 1.0j) * np.eye(64))


def test_rotation_generator_commutes_with_isotropic_oscillator():
    ctx = ladder_build(16, 1.0, dims=2)
    a, b = op_matrix(ROTATION, ctx), op_matrix(OSCILLATOR, ctx)
    comm = a @ b - b @ a
    idx = [i * 16 + j for i in range(14) for j in range(14)]
    assert np.max(np.abs(comm[np.ix_(idx, idx)])) <= 1e-10


def test_linear_product_matches_matrix_product(rng):
    ctx = ladder_build(14, 1.1, dims=2)
    idx = [i * 14 + j for i in range(12) for j in range(12)]
    draw = lambda: rng.normal(size=2) + 1j * rng.normal(size=2)
    for _ in range(10):
        a = linear(2, complex(rng.normal(), rng.normal()), y=draw(), p=draw())
        b = linear(2, complex(rng.normal(), rng.normal()), y=draw(), p=draw())
        lhs = op_matrix(product(a, b), ctx)
        rhs = op_matrix(a, ctx) @ op_matrix(b, ctx)
        assert np.max(np.abs((lhs - rhs)[np.ix_(idx, idx)])) <= 1e-12
    with pytest.raises(ValueError):
        product(product(a, b), a)


def test_square_sum_and_cross_product_consistency(rng):
    """The sums of products the generators are built from: S = sum of squares, X = P1 K2 - P2 K1."""
    ctx = ladder_build(14, 1.1, dims=2)
    idx = [i * 14 + j for i in range(12) for j in range(12)]
    p1, p2, k1, k2 = linear(2, y=[-1.0, 0.0]), linear(2, y=[0.0, -1.0]), linear(2, p=[-1.0, 0.0]), linear(2, p=[0.0, -1.0])
    m_p1, m_p2, m_k1, m_k2 = (op_matrix(o, ctx) for o in (p1, p2, k1, k2))
    s = product(p1, p1) + product(p2, p2) + product(k1, k1) + product(k2, k2)
    direct = m_p1 @ m_p1 + m_p2 @ m_p2 + m_k1 @ m_k1 + m_k2 @ m_k2
    assert np.max(np.abs((op_matrix(s, ctx) - direct)[np.ix_(idx, idx)])) <= 1e-12
    x = product(p1, k2) - product(p2, k1)
    direct_x = m_p1 @ m_k2 - m_p2 @ m_k1
    assert np.max(np.abs((op_matrix(x, ctx) - direct_x)[np.ix_(idx, idx)])) <= 1e-12


def test_exp_apply_basics(rng):
    ctx = ladder_build(24, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=4)
    assert np.allclose(exp_apply(OSCILLATOR, 0.0, psi, ctx).coeffs, psi.coeffs)
    for t in (0.3, -1.7, 5.0):
        out = exp_apply(OSCILLATOR, t, psi, ctx)
        assert abs(out.norm() - 1.0) <= 1e-12


def test_rotation_by_two_pi_returns_state_up_to_phase(rng):
    ctx = ladder_build(24, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=5)
    out = exp_apply(ROTATION, 2.0 * math.pi, psi, ctx)
    assert abs(abs(psi.overlap(out)) - 1.0) <= 1e-10


def test_generator_consistency_central_difference(rng):
    ctx = ladder_build(28, 1.0, dims=2)
    psi = probe_state(ctx, rng, kmax=4)
    q = quadratic(2, yy=[[1.0, 0.2], [0.2, 0.8]], pp=[[1.0, -0.1], [-0.1, 0.9]]) + linear(
        2, y=[0.3, -0.1], p=[-0.2, 0.15]
    )
    eps = 1e-4
    plus = exp_apply(q, eps, psi, ctx)
    minus = exp_apply(q, -eps, psi, ctx)
    deriv = (plus.coeffs - minus.coeffs) / (2.0 * eps)
    target = 1j * (op_matrix(q, ctx) @ psi.coeffs.reshape(-1)).reshape(psi.coeffs.shape)
    assert np.linalg.norm(deriv - target) / np.linalg.norm(target) <= 1e-6


def test_exp_apply_requires_hermitian_flag(rng):
    """A complex coef is the non-Hermitian case: exp_apply refuses it, also when
    the assembled matrix is real (i (y p + p y)/2 is real and antisymmetric)."""
    ctx = ladder_build(8, 1.0, dims=1)
    real = random_hermitian_operator(rng, 1)
    psi = probe_state(ctx, rng, kmax=2)
    real_antisymmetric = QuadraticOperator(np.array([[0, 0, 0], [0, 0, 0.5j], [0, 0.5j, 0]]))
    assert not op_matrix(real_antisymmetric, ctx).imag.any()
    for q in (real * 1j, linear(1, y=[1.0j]), real + linear(1, 0.5j), real_antisymmetric):
        with pytest.raises(ValueError, match="not Hermitian"):
            exp_apply(q, 1.0, psi, ctx)


def test_hermitian_pattern_enforced(rng):
    """A real symmetric coef assembles to a Hermitian matrix; a non-symmetric coef is refused."""
    ctx = ladder_build(8, 1.0, dims=1)
    mat = op_matrix(random_hermitian_operator(rng, 1), ctx)
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticOperator(np.triu(np.ones((3, 3))))


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


def cumprod_phase_shift_block(n, lam, phase, shift):
    """The block with g_0^(d) = e^(-x/2) cumprod(sqrt(x/d)), as it was formed before the log
    space form: same recurrence, same phases, with its own coefficients and gather indices."""
    d, kk = np.arange(n), np.arange(n - 1)[:, None]
    r = np.sqrt((kk + 1.0) * (kk + 1 + d))
    a, b, c = (2 * kk + 1 + d) / r, 1.0 / r, np.sqrt(kk * (kk + d)) / r
    sign, diff = (-1.0) ** d, np.subtract.outer(d, d)  # row - col
    lo, dist = np.minimum.outer(d, d), abs(diff)
    pick = (diff >= 0) * n + dist
    alpha = (lam * shift + 1j * phase / lam) / math.sqrt(2.0)
    x = abs(alpha) ** 2
    g = np.empty((n, n))
    g[0] = math.exp(-x / 2.0) * np.cumprod(np.concatenate([[1.0], np.sqrt(x / d[1:])]))
    g[1] = (a[0] - b[0] * x) * g[0]
    for k in range(1, n - 1):
        g[k + 1] = (a[k] - b[k] * x) * g[k] - c[k] * g[k - 1]
    turn = np.exp(1j * np.angle(alpha) * d)
    phases = np.concatenate([sign * turn.conj(), turn]) * np.exp(-0.5j * shift * phase)
    return phases[pick] * g[lo, dist]


@pytest.mark.parametrize("n", [4, 32, 48, 96])
def test_log_space_ground_row_matches_cumprod_form(n):
    """Forming g_0 in log space moves each block by rounding only, out to |phase|, |shift| = 20."""
    rng = np.random.default_rng(5)
    for lam in (0.7, 1.0, 1.3):
        draws = np.concatenate([[[20.0, 20.0], [-20.0, 20.0], [0.0, 0.0], [20.0, 0.0]],
                                rng.uniform(-20.0, 20.0, (20, 2))])
        for phase, shift in draws:
            ref = cumprod_phase_shift_block(n, lam, phase, shift)
            got = phase_shift_block(n, lam, phase, shift)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_displacement_block_finite_far_out_and_exact_at_zero():
    """At |alpha|^2 = 5e9 the cumprod form multiplied e^(-x/2) = 0 by an overflowed product,
    inf, and returned NaN; the log space form underflows to 0.  At alpha = 0 every g_0 term
    with d > 0 is exp(-inf) = 0, with no log of 0 (a RuntimeWarning is an error here)."""
    far = phase_shift_block(96, 1.0, 0.0, 1e5)
    assert np.isfinite(far).all()
    zero = phase_shift_block(96, 1.0, 0.0, 0.0)
    assert np.array_equal(zero[:, 0], np.eye(96)[0])  # the column of g_0
    assert np.max(np.abs(zero - np.eye(96))) <= 1e-13


def test_truncation_convergence_for_resolved_state(rng):
    q = quadratic(2, yy=[[1.0, 0.1], [0.1, 1.0]], pp=[[1.0, -0.05], [-0.05, 1.0]], yp=np.diag([-0.05, 0.05]))
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
        exp_apply(OSCILLATOR, 0.1, spiky, ctx)


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
    gen = quadratic(dims, yy=np.eye(dims), pp=0.5 * np.eye(dims))
    phase, shift = rng.uniform(-1, 1, dims), rng.uniform(-1, 1, dims)
    for apply in (lambda s: exp_apply(gen, 0.7, s, ctx), lambda s: displacement_apply(phase, shift, s, ctx)):
        out = apply(stack)
        assert out.coeffs.shape == stack.coeffs.shape
        one_by_one = np.stack([apply(s).coeffs for s in states])
        assert np.array_equal(out.coeffs.reshape(one_by_one.shape), one_by_one)
    with pytest.raises(ValueError, match="shape"):
        HermiteState(dims=dims, n=16, lam=1.2, coeffs=np.zeros((16,) * dims + (3,)))


@pytest.mark.parametrize("n, lam", [(32, 1.1), (33, 1.3), (80, 0.8), (96, 1.0)])
def test_truncated_shift_factors_match_eigh_of_the_gradient(n, lam):
    """On a pad=0 context the shift factors come from those of y through the
    Fourier transform; the eigendecomposition of i d itself is the reference."""
    ctx = ladder_build(n, lam, dims=1, pad=0)
    w, v = np.linalg.eigh(1j * ctx.d1d)
    wy, vy = np.linalg.eigh(ctx.y1d)
    for phase, shift in ((0.0, 0.7), (0.4, -1.3), (-2.0, 2.5)):
        t_op = (v * np.exp(1j * shift * w)) @ v.conj().T
        m_op = (vy * np.exp(1j * phase * wy)) @ vy.T
        assert np.max(np.abs(ctx.phase_shift_1d(phase, shift) - t_op @ m_op)) <= 1e-13


@pytest.mark.parametrize("n, lam", [(32, 1.1), (33, 1.3), (96, 1.0)])
def test_truncated_block_is_unitary(n, lam):
    """pad=0 promises an exactly unitary N x N block, at any phase and shift."""
    ctx = ladder_build(n, lam, dims=1, pad=0)
    for phase, shift in ((0.0, 0.7), (0.4, -1.3), (-2.0, 2.5), (3.1, 0.0)):
        block = ctx.phase_shift_1d(phase, shift)
        assert np.linalg.norm(block.conj().T @ block - np.eye(n), 2) <= 1e-13


def test_reused_table_gives_the_fresh_block_bit_for_bit(rng):
    """On a pad=None context, D(-alpha) after D(alpha), and every zero displacement after
    the first, read a kept table; the block equals a fresh phase_shift_block bit for bit."""
    ctx = ladder_build(32, 1.1, dims=2)
    for phase, shift in [(0.0, 0.0)] + [tuple(rng.uniform(-6.0, 6.0, 2)) for _ in range(8)]:
        assert np.array_equal(ctx.phase_shift_1d(phase, shift), phase_shift_block(32, 1.1, phase, shift))
        kept = [(key, id(table)) for key, table in ctx._tables.items()]
        for sign in (-1.0, 1.0):
            block = ctx.phase_shift_1d(sign * phase, sign * shift)
            assert [(key, id(table)) for key, table in ctx._tables.items()] == kept  # the kept table was read
            assert np.array_equal(block, phase_shift_block(32, 1.1, sign * phase, sign * shift))
        assert not any(table.flags.writeable for table in ctx._tables.values())


@pytest.mark.parametrize("dims", [1, 2])
def test_context_keeps_at_most_dims_tables(rng, dims):
    """However many elements are applied, a pad=None context holds the tables of its last
    `dims` displacements, and a pad=0 context holds none."""
    for pad in (None, 0):
        ctx = ladder_build(16, 0.9, dims=dims, pad=pad)
        psi = probe_state(ctx, rng, kmax=3)
        for _ in range(40):
            psi = displacement_apply(rng.uniform(-1, 1, dims), rng.uniform(-1, 1, dims), psi, ctx)
            assert len(ctx._tables) <= (dims if pad is None else 0)


@pytest.mark.parametrize("n, lam", [(32, 1.1), (33, 1.3), (96, 1.0)])
def test_truncated_block_is_the_two_gemm_form_bit_for_bit(n, lam):
    """A pad=0 block is diag(i^-n) Vy (E_d F E_y) Vy^T from its two real GEMMs, byte for byte,
    whatever the continuum blocks do."""
    ctx = ladder_build(n, lam, dims=1, pad=0)
    wy, vy = np.linalg.eigh(ctx.y1d)
    turn = np.array([1, 1j, -1, -1j])[np.arange(n) % 4]
    f = (vy.T * turn) @ vy
    for phase, shift in ((0.0, 0.7), (0.4, -1.3), (-2.0, 2.5), (0.0, 0.0)):
        g_t = np.multiply.outer(np.exp(1j * phase * wy), np.exp(1j * shift * lam**2 * wy)) * f
        k = np.ascontiguousarray((vy @ g_t.view(float)).view(complex).T)
        ref = (vy @ k.view(float)).view(complex) * turn.conj()[:, None]
        assert ctx.phase_shift_1d(phase, shift).tobytes() == ref.tobytes()


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
    a = rng.normal(size=(2 * dims + 1,) * 2)
    return QuadraticOperator(a + a.T)


def kron_assembly(q: QuadraticOperator, ctx: BasisContext) -> np.ndarray:
    """Reference: sum_ab coef[a, b] (Z_a Z_b + Z_b Z_a)/2 over full-size matrices
    Z = (1, Y_1..Y_d, P_1..P_d), P = -i D, each a kron product of axis matrices."""
    eye = np.eye(ctx.n)
    full = lambda m, ax: m if ctx.dims == 1 else (np.kron(m, eye) if ax == 0 else np.kron(eye, m))
    z = [np.eye(ctx.n**ctx.dims)] + [full(m, ax) for m in (ctx.y1d, -1j * ctx.d1d) for ax in range(ctx.dims)]
    return sum(q.coef[a, b] * 0.5 * (z[a] @ z[b] + z[b] @ z[a]) for a in range(len(z)) for b in range(len(z)))


def test_op_matrix_matches_kron_product_assembly(rng):
    for dims, n in ((1, 12), (2, 9)):
        ctx = ladder_build(n, 1.3, dims=dims)
        for _ in range(5):
            q = random_hermitian_operator(rng, dims)
            q = q + random_hermitian_operator(rng, dims) * 1j  # complex coefficients assemble the same way
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
    return case_setup(case, CASES[case].factory(**CASES[case].labels), rng, n=n, kmax=5)


def generators_of(case: str, rep) -> list[QuadraticOperator]:
    """The generators a case exponentiates: H and J on 2D carriers, W on 1D ones."""
    return [rep.ops["H"], rep.ops["J"]] if case in "afg" else [rep.w_gen]


def identity_basis_assembly(q: QuadraticOperator, ctx: BasisContext) -> np.ndarray:
    """Reference: `op_apply` on the identity basis, one column per basis state."""
    size = ctx.n**ctx.dims
    basis = np.eye(size).reshape((size,) + (ctx.n,) * ctx.dims)
    return op_apply(q, basis, ctx).reshape(size, size).T


@pytest.mark.parametrize("case", list("abcdefg"))
def test_op_matrix_matches_identity_basis_assembly(case, rng):
    """Each element of the Kronecker sum is the one product the identity basis picks
    out of each term, added in the same order, so the two agree bit for bit."""
    ctx, rep, _ = canonical_setup(case, rng, 12)
    for q in generators_of(case, rep):
        assert np.array_equal(op_matrix(q, ctx), identity_basis_assembly(q, ctx))


@pytest.mark.parametrize("case", ["a", "b", "f", "g"])
def test_sector_exp_apply_matches_dense_eigh(case, rng):
    ctx, rep, _ = canonical_setup(case, rng, 16)
    states = [probe_state(ctx, rng, kmax=5) for _ in range(2)]
    stack = replace(states[0], coeffs=np.stack([s.coeffs for s in states]))
    for q in generators_of(case, rep):
        w, v = np.linalg.eigh(op_matrix(q, ctx))
        for t in (0.37, -1.9):
            out = exp_apply(q, t, stack, ctx).coeffs
            for s, got in zip(states, out):
                dense = v @ (np.exp(1j * t * w) * (v.conj().T @ s.coeffs.ravel()))
                assert np.linalg.norm(got.ravel() - dense) <= 1e-12


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


def per_group_apply(factors, t: float, psi: HermiteState) -> np.ndarray:
    """exp(i t M) psi group by group over unstacked factors, with no padding: the oracle of
    the stacked path."""
    stack = psi.coeffs.shape[: psi.coeffs.ndim - psi.dims]
    vec = psi.coeffs.reshape(stack + (-1,))
    out = np.empty(vec.shape, dtype=complex)
    for idx, w, v in factors:
        x = vec[..., idx][..., None, :].conj() @ v
        x = np.exp(1j * t * w) * x[..., 0, :].conj()
        out[..., idx] = (v @ x[..., None])[..., 0]
    return out.reshape(psi.coeffs.shape)


@pytest.mark.parametrize("case, n", [("a", 16), ("b", 40), ("c", 40), ("d", 40), ("e", 40), ("f", 32), ("g", 32)])
def test_stacked_groups_match_the_per_group_path(case, n, rng):
    """Sectors below STACK_BELOW stack by size class, padded through a spare zero slot: on
    stacks of states the result is within 1e-14 of the unstacked groups, and the spare slot
    never reaches it.  A generator whose sectors all have one size keeps its groups; F's J
    goes from 32 groups to 6."""
    ctx, rep, _ = canonical_setup(case, rng, n)
    states = np.stack([probe_state(ctx, rng, kmax=5).coeffs for _ in range(3)])
    stack = HermiteState(dims=ctx.dims, n=n, lam=ctx.lam, coeffs=states)
    spare = n**ctx.dims
    for q in generators_of(case, rep):
        unstacked, (stacked, padded) = _sector_factors(q, ctx), _exp_factors(q, ctx)
        sizes = [idx.shape[1] for idx, _, _ in unstacked]
        if len(set(sizes)) == 1:
            assert [idx.shape for idx, _, _ in stacked] == [idx.shape for idx, _, _ in unstacked]
        assert padded == any((idx == spare).any() for idx, _, _ in stacked) == any(a.bit_length() == b.bit_length() and b < STACK_BELOW for a, b in zip(sizes, sizes[1:]))
        for t in (0.37, -1.9):
            out = exp_apply(q, t, stack, ctx).coeffs
            assert out.shape == states.shape
            assert np.max(np.abs(out - per_group_apply(unstacked, t, stack))) <= 1e-14
    if case == "f":
        assert len(_sector_factors(rep.ops["J"], ctx)) == 32 and len(_exp_factors(rep.ops["J"], ctx)[0]) == 6


def random_labels_2d(rng):
    """Labels of A, F and G off their canonical points: f and m away from 0 and from f = +-m tau."""
    tau = rng.uniform(0.5, 2.0)
    f, m = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.3, 3.0, 2)
    m = m if abs(abs(f) - abs(m) * tau) > 0.1 else m + 0.5 * np.sign(m)
    c1, c2 = rng.uniform(-1.5, 1.5, 2)
    return {"a": labels_case_a(f, m, c1, c2, tau), "f": labels_case_f(m, c1, c2, tau),
            "g": labels_case_g(f, c1, c2, tau)}


def is_swap_closed(idx: np.ndarray, n: int) -> bool:
    """Whether the axis swap (a, b) -> (b, a) maps each sector of a group (k, s) of 2D indices onto itself."""
    return np.array_equal(np.sort((idx % n) * n + idx // n, axis=1), idx)


@pytest.mark.parametrize("dims", [1, 2])
def test_real_rule_holds_exactly_when_the_assembled_matrix_is_real(dims, rng):
    """No term is odd in p (coef[0, p] and coef[y, p] all 0) exactly when op_matrix has no imaginary
    entry, over random real coefs with random entries zeroed."""
    ctx = ladder_build(6, 1.3, dims=dims)
    seen = set()
    for _ in range(60):
        coef = rng.normal(size=(2 * dims + 1,) * 2) * (rng.random((2 * dims + 1,) * 2) < rng.uniform(0.0, 0.5))
        q = QuadraticOperator(coef + coef.T)
        real = _solver(q) == "real"
        assert real == (not op_matrix(q, ctx).imag.any())
        seen.add(real)
    assert seen == {True, False}


def test_swap_fixed_coef_assembles_to_a_theta_invariant_matrix(rng):
    """A coef equal to its Theta image (y_i -> y_swap(i), p_i -> -p_swap(i)) takes the real form, and its
    matrix M has S conj(M) S = M to rounding, S the axis swap; y1 p1 and its like are not swap-fixed."""
    n, perm, sign = 7, [0, 2, 1, 4, 3], np.array([1.0, 1.0, 1.0, -1.0, -1.0])
    ctx = ladder_build(n, 1.2, dims=2)
    swap = (np.arange(n * n) % n) * n + np.arange(n * n) // n
    for _ in range(10):
        coef = rng.normal(size=(5, 5))
        fixed = QuadraticOperator((coef + coef.T + (coef + coef.T)[np.ix_(perm, perm)] * np.outer(sign, sign)) / 4)
        assert _solver(fixed) == "theta"
        mat = op_matrix(fixed, ctx)
        assert np.max(np.abs(mat[np.ix_(swap, swap)].conj() - mat)) <= 1e-14 * np.max(np.abs(mat))
    assert _solver(ROTATION) == "theta"
    for yp in (np.diag([0.3, 0.0]), np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]):
        assert _solver(quadratic(2, yp=yp)) == "complex"


def test_swap_joined_sectors_are_swap_closed(rng):
    """With the swap join every sector is closed under (a, b) -> (b, a), also on patterns the swap does
    not preserve, and the sectors cover each index once; on H and J of A, F and G, whose patterns
    the swap preserves and which take the real form, the join changes no sector."""
    n = 9
    ctx = ladder_build(n, 1.1, dims=2)
    swapped_off = quadratic(2, yp=np.diag([0.3, 0.0]), yy=np.diag([1.0, 0.0]), pp=np.diag([0.0, 1.0]))
    mats = [op_matrix(q, ctx) for q in (swapped_off, ROTATION + OSCILLATOR)]
    mats += [rng.random((n * n, n * n)) < 0.01 for _ in range(3)]
    for case in "afg":
        cctx, rep, _ = canonical_setup(case, rng, n)
        for q in (rep.ops["H"], rep.ops["J"]):
            mat = op_matrix(q, cctx)
            if _solver(q) == "theta":
                joined, plain = _sectors(mat, swap=True), _sectors(mat)
                assert len(joined) == len(plain) and all(map(np.array_equal, joined, plain))
            mats.append(mat)
    for mat in mats:
        groups = _sectors(mat, swap=True)
        assert np.array_equal(np.sort(np.concatenate([idx.ravel() for idx in groups])), np.arange(n * n))
        assert all(is_swap_closed(idx, n) for idx in groups)


def random_labels_1d(rng):
    """Labels of B-E off their canonical points: tau and the mass's sign and size drawn, C3 > 0."""
    tau, m = rng.uniform(0.5, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
    c3, (c4, c5, k1, k2) = rng.uniform(0.2, 2.0), rng.uniform(-1.5, 1.5, 4)
    return {"b": labels_case_b(m, c3, c4, k1, tau), "c": labels_case_c(m, c3, c4, k1, tau),
            "d": labels_case_d(m, c4, c5, k1, k2, tau), "e": labels_case_e(m, c4, c5, k1, k2, tau)}


def test_carrier_generators_have_exact_coefs(rng):
    """The solver rules read coef bit for bit: H and J of A, F and G are real and take the real
    solver or the real form; W of B-E is real too (P2 and K1 commute exactly), so exp_apply refuses
    no carrier generator.  At the canonical labels and 40 random label draws."""
    draws = [{case: CASES[case].factory(**CASES[case].labels) for case in "abcdefg"}]
    draws += [random_labels_2d(rng) | random_labels_1d(rng) for _ in range(40)]
    for labels in draws:
        for case, lab in labels.items():
            if case in "afg":
                assert all(_solver(generators(lab)[name]) in ("real", "theta") for name in ("H", "J"))
            else:
                assert not intertwiner_generator(lab).coef.imag.any()


def test_theta_invariant_generators_reach_only_the_real_solver(monkeypatch, rng):
    """H and J of A, F and G are invariant under Theta = (axis swap) o (complex conjugation), so
    every complex group of theirs is factored in real arithmetic: at the canonical labels and at
    12 random label draws, eigh sees no complex block, and the factors match the dense eigh."""
    blocks = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: blocks.append(a.dtype) or real_eigh(a, *args, **kw))
    draws = [{case: CASES[case].factory(**CASES[case].labels) for case in "afg"}]
    draws += [random_labels_2d(rng) for _ in range(12)]
    for labels in draws:
        for case, lab in labels.items():
            ctx, rep, psi = case_setup(case, lab, rng, n=10, kmax=3)
            for q in (rep.ops["H"], rep.ops["J"]):
                w, v = real_eigh(op_matrix(q, ctx))
                dense = v @ (np.exp(0.7j * w) * (v.conj().T @ psi.coeffs.ravel()))
                assert np.linalg.norm(exp_apply(q, 0.7, psi, ctx).coeffs.ravel() - dense) <= 1e-12
    assert blocks and not any(dtype.kind == "c" for dtype in blocks)


def test_theta_breaking_generators_take_the_complex_solver(monkeypatch, rng):
    """A Hermitian generator that Theta does not leave invariant keeps the complex solver: y1 p1
    maps to -y2 p2, so neither coef below equals its Theta image.  With y1^2 + p2^2 the parity
    classes of (a, b) swap into one another; with the rotation and the isotropic oscillator every
    sector is swap closed.  Both are refused the real form by their coef alone."""
    blocks = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: blocks.append(a.dtype) or real_eigh(a, *args, **kw))
    ctx = ladder_build(12, 1.1, dims=2)
    psi = probe_state(ctx, rng, kmax=4)
    y1p1 = quadratic(2, yp=np.diag([0.3, 0.0]))
    swapped_off = y1p1 + quadratic(2, yy=np.diag([1.0, 0.0]), pp=np.diag([0.0, 1.0]))
    swap_closed = y1p1 + ROTATION + OSCILLATOR
    for q, closed in ((swapped_off, False), (swap_closed, True)):
        mat = op_matrix(q, ctx)
        complex_groups = [idx for idx in _sectors(mat) if mat[np.ix_(idx.ravel(), idx.ravel())].imag.any()]
        assert complex_groups
        assert _solver(q) == "complex"
        for idx in complex_groups:
            assert is_swap_closed(idx, ctx.n) == closed
        blocks.clear()
        w, v = real_eigh(mat)
        for t in (0.37, -1.9):
            dense = v @ (np.exp(1j * t * w) * (v.conj().T @ psi.coeffs.ravel()))
            assert np.linalg.norm(exp_apply(q, t, psi, ctx).coeffs.ravel() - dense) <= 1e-12
        assert any(dtype.kind == "c" for dtype in blocks)

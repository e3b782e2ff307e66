"""Phase-space quantization on the f = 0 orbits: the parity-built kernel,
covariance and traciality checks, the symbol map with its inversion, and the
twisted product through the closed-form tri-kernel.

The kernel at phase-space point u = (q, p) acts as
    [Omega(q,p) phi](y) = 4 exp(-2i q.(m y + p)) phi(-y - 2p/m),
i.e. parity transported by the group element (a = q, v = -p/m).  It
factorizes exactly per axis, which every quadrature here exploits.  Each
axis factor is a displaced parity with the continuum displacement elements
(`funcspace.phase_shift_block`) whatever the context's `pad`.  The
invariant measure is normalized as d mu = dq dp / (2 pi)^2 (one 2*pi per
canonical pair); with that normalization the traciality delta, the inversion
formula with unit constant and the tri-kernel twisted product are mutually
consistent, which the tests verify.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .funcspace import BasisContext, HermiteState, _warn_resolution, phase_shift_block
from .group import GroupElement, Variant, Vec2
from .representations import InducedRep2D, RepLabels

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# kernel construction (per-axis factors)
# --------------------------------------------------------------------------

def kernel_axis_matrix(q: float, p, m: float, ctx: BasisContext) -> np.ndarray:
    """One-axis factor of the kernel, the displaced parity 2 e^{2iqp} [T_{-2p/m} M_{-2mq}]
    diag((-1)^n); the full kernel is the Kronecker product of two of these.
    An array `p` gives a (..., N, N) batch."""
    p = np.asarray(p, float)
    disp = phase_shift_block(ctx.n, ctx.lam, -2.0 * m * q, -2.0 * p / m)
    return disp * ((2.0 * np.exp(2j * q * p))[..., None, None] * ctx.parity1d)


def kernel_apply(q: Vec2, p: Vec2, m: float, psi: HermiteState, ctx: BasisContext) -> HermiteState:
    """Apply Omega(q, p) to a 2D state."""
    if m == 0.0:
        raise ValueError("kernel needs m != 0")
    if ctx.dims != 2:
        raise ValueError("kernel acts on 2D states")
    b1 = kernel_axis_matrix(q.x1, p.x1, m, ctx)
    b2 = kernel_axis_matrix(q.x2, p.x2, m, ctx)
    out = replace(psi, coeffs=b1 @ psi.coeffs @ b2.T)
    _warn_resolution(out, "kernel_apply output")
    return out


def kernel_matrix(q: Vec2, p: Vec2, m: float, ctx: BasisContext) -> np.ndarray:
    """Full kernel matrix over the flattened 2D basis (for small studies)."""
    b1 = kernel_axis_matrix(q.x1, p.x1, m, ctx)
    b2 = kernel_axis_matrix(q.x2, p.x2, m, ctx)
    return np.kron(b1, b2)


def group_element_for(q: Vec2, p: Vec2, m: float, tau: float = 1.0) -> GroupElement:
    """Group element moving the orbit origin to (q, p): a = q, v = -p/m."""
    if m == 0.0:
        raise ValueError("m must be nonzero")
    return GroupElement(0.0, 0.0, 0.0, q, p * (-1.0 / m), 0.0, Variant.OSCILLATING, tau)


# --------------------------------------------------------------------------
# covariance
# --------------------------------------------------------------------------

def covariance_residual(
    q: Vec2,
    p: Vec2,
    labels: RepLabels,
    psi: HermiteState,
    ctx: BasisContext,
    mover: GroupElement | None = None,
    rep: InducedRep2D | None = None,
) -> float:
    """|| Omega(q,p) psi - U(g) Omega(0,0) U(g^{-1}) psi || with U the f = 0
    representation; `mover` overrides the canonical g (it must still move the
    origin to (q, p), e.g. the canonical element composed with isotropy)."""
    from .group import inverse

    m = labels.m
    if rep is None:
        rep = InducedRep2D(labels, ctx)
    g = group_element_for(q, p, m, labels.tau) if mover is None else mover
    direct = kernel_apply(q, p, m, psi, ctx)
    back = rep.apply(inverse(g), psi)
    center = kernel_apply(Vec2.zero(), Vec2.zero(), m, back, ctx)
    transported = rep.apply(g, center)
    return float(np.linalg.norm(direct.coeffs - transported.coeffs))


def isotropy_commutator_residual(
    gamma: GroupElement,
    labels: RepLabels,
    psi: HermiteState,
    ctx: BasisContext,
    rep: InducedRep2D | None = None,
) -> float:
    """|| [Omega(0,0), U(gamma)] psi || for gamma in the isotropy group of the
    origin (theta, b, phi only)."""
    if rep is None:
        rep = InducedRep2D(labels, ctx)
    zero = Vec2.zero()
    a = kernel_apply(zero, zero, labels.m, rep.apply(gamma, psi), ctx)
    b = rep.apply(gamma, kernel_apply(zero, zero, labels.m, psi, ctx))
    return float(np.linalg.norm(a.coeffs - b.coeffs))


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------

def pair_trace(u: tuple[Vec2, Vec2], u2: tuple[Vec2, Vec2], m: float, ctx: BasisContext) -> complex:
    """Tr[Omega(u) Omega(u')] in the truncated basis (factorizes per axis)."""
    q, p = u
    q2, p2 = u2
    t1 = np.sum(
        kernel_axis_matrix(q.x1, p.x1, m, ctx).T * kernel_axis_matrix(q2.x1, p2.x1, m, ctx)
    )
    t2 = np.sum(
        kernel_axis_matrix(q.x2, p.x2, m, ctx).T * kernel_axis_matrix(q2.x2, p2.x2, m, ctx)
    )
    return complex(t1 * t2)


def _trace_window(n: int) -> np.ndarray:
    """Smooth cutoff w_N(n), n = 0..N-1: 1 for n <= N/2, falling to 0 at
    n = N through the C-infinity partition of unity built from e^{-1/t}."""
    x = np.clip((np.arange(n) - n / 2.0) / (n / 2.0), 0.0, 1.0)
    with np.errstate(divide="ignore"):  # e^{-1/0} = e^{-inf} = 0 at the ends
        inner, outer = np.exp(-1.0 / (1.0 - x)), np.exp(-1.0 / x)
    return inner / (inner + outer)


def tri_kernel(
    u: tuple[Vec2, Vec2], u2: tuple[Vec2, Vec2], u3: tuple[Vec2, Vec2], m: float, ctx: BasisContext
) -> complex:
    """Windowed trace of the triple kernel product Tr[Omega(u) Omega(u') Omega(u'')].

    Per axis this returns Tr[(K1 W)(K2 W)(K3 W)], where the K_i are the N x N
    blocks of `kernel_axis_matrix` and W = diag(w_N(0), ..., w_N(N-1)) with

        w_N(n) = 1                                for n <= N/2,
        w_N(n) = b(1 - x) / (b(1 - x) + b(x))     for N/2 < n < N,
        w_N(n) = 0                                for n >= N,

    x = (n - N/2) / (N/2) and b(t) = e^{-1/t} for t > 0, b(t) = 0 otherwise.
    The full value is the product of the two axis traces.

    The continuum triple product is 16 times a unitary, which is not trace
    class, so the plain trace of its N x N truncation has no limit: it stays
    O(1) away from the closed form from N = 24 to N = 96.  The closed form is
    the trace under a summability method (Hardy, *Divergent Series*, the
    Riesz and Cesaro means), just as the trace of parity is 1/2.  The smooth
    window is that method: it depends on N alone and is fixed a priori, never
    fitted to the closed form.  Because it sits on every factor, the result is
    still the trace of a matrix product and exactly cyclic in (u, u', u'').
    On fixed random triples in [-1, 1]^4 (m = 1, lambda = 1) the worst
    |num - closed| / 16 falls from 2.6e-3 at N = 24 to 6.7e-4 at N = 32 and
    4.7e-7 at N = 96.
    """
    w = _trace_window(ctx.n)
    out = 1.0 + 0.0j
    for ax in (0, 1):
        pick = (lambda v: v.x1) if ax == 0 else (lambda v: v.x2)
        m1 = kernel_axis_matrix(pick(u[0]), pick(u[1]), m, ctx) * w
        m2 = kernel_axis_matrix(pick(u2[0]), pick(u2[1]), m, ctx) * w
        m3 = kernel_axis_matrix(pick(u3[0]), pick(u3[1]), m, ctx) * w
        out *= np.trace(m1 @ m2 @ m3)
    return complex(out)


def tri_kernel_closed_form(u, u2, u3) -> complex:
    """Closed form 2^4 e^{-2i q.(p'-p'')} e^{-2i q'.(p''-p)} e^{-2i q''.(p-p')}.

    The sign of the exponent is pinned by direct computation of the continuum
    trace for the kernel as constructed here (delta-chain evaluation, agreeing
    with the smeared numerics and with the operator-product consistency of the
    twisted product); it is opposite to the sign printed alongside the kernel
    in the source derivation."""
    q, p = u
    q2, p2 = u2
    q3, p3 = u3
    phase = q.dot(p2 - p3) + q2.dot(p3 - p) + q3.dot(p - p2)
    return 16.0 * cmath.exp(-2j * phase)


def smeared_tri_kernel(
    u: tuple[Vec2, Vec2],
    u2: tuple[Vec2, Vec2],
    sigma: float,
    quad: "AxisQuadrature",
    m: float,
    ctx: BasisContext,
) -> tuple[complex, complex]:
    """Third argument smeared against a Gaussian of width sigma: returns the
    numerical and closed-form values of
    integral Tr[Omega(u) Omega(u') Omega(u'')] G(u'') d mu(u'').
    The smeared operator is trace class, so this weak form converges."""
    num = 1.0 + 0.0j
    closed = 1.0 + 0.0j
    w2 = quad.weights_2d()
    gauss = np.exp(-(np.add.outer(quad.q**2, quad.p**2)) / (2.0 * sigma**2))
    omegas = _axis_kernel_batch(quad, m, ctx)
    for ax in (0, 1):
        pick = (lambda v: v.x1) if ax == 0 else (lambda v: v.x2)
        m1 = kernel_axis_matrix(pick(u[0]), pick(u[1]), m, ctx)
        m2 = kernel_axis_matrix(pick(u2[0]), pick(u2[1]), m, ctx)
        front = m1 @ m2  # Tr[m1 m2 m3] = sum_ij (m1 m2)[i,j] m3[j,i]
        num *= np.einsum("ij,qpji,qp,qp->", front, omegas, gauss, w2)
        q1v, p1v = pick(u[0]), pick(u[1])
        q2v, p2v = pick(u2[0]), pick(u2[1])
        phases = 4.0 * np.exp(
            -2j
            * (
                q1v * (p2v - quad.p[None, :])
                + q2v * (quad.p[None, :] - p1v)
                + quad.q[:, None] * (p1v - p2v)
            )
        )
        closed *= np.sum(phases * gauss * w2)
    return complex(num), complex(closed)


# --------------------------------------------------------------------------
# phase-space quadrature (per canonical pair)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisQuadrature:
    """Tensor Gauss-Legendre rule on [-box, box]^2 for one (q, p) pair,
    carrying the Liouville weight dq dp / (2 pi)."""

    q: np.ndarray
    p: np.ndarray
    wq: np.ndarray
    wp: np.ndarray
    box: float

    @staticmethod
    def build(box: float, nodes: int) -> "AxisQuadrature":
        x, w = leggauss(nodes)
        return AxisQuadrature(q=x * box, p=x * box, wq=w * box, wp=w * box, box=box)

    @property
    def nodes(self) -> int:
        return self.q.size

    def weights_2d(self) -> np.ndarray:
        return np.outer(self.wq, self.wp) / TWO_PI


def _axis_kernel_batch(quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """(nq, np, N, N) array of one-axis kernel matrices over the grid."""
    out = np.empty((quad.q.size, quad.p.size, ctx.n, ctx.n), dtype=complex)
    for i, qv in enumerate(quad.q):
        out[i] = kernel_axis_matrix(qv, quad.p, m, ctx)
    return out


def smeared_pair_trace(sigma: float, quad: AxisQuadrature, m: float, ctx: BasisContext) -> complex:
    """integral Tr[Omega(0,0) Omega(u)] G(u) d mu(u) for the separable
    Gaussian G of width sigma; equals G(0,0) = 1 up to truncation bias and
    quadrature error."""
    omegas = _axis_kernel_batch(quad, m, ctx)
    w0 = kernel_axis_matrix(0.0, 0.0, m, ctx)
    traces = np.einsum("ij,qpji->qp", w0, omegas)
    gauss = np.exp(-(np.add.outer(quad.q**2, quad.p**2)) / (2.0 * sigma**2))
    per_axis = np.sum(traces * gauss * quad.weights_2d())
    return complex(per_axis**2)


# --------------------------------------------------------------------------
# symbols and inversion
# --------------------------------------------------------------------------

def weyl_symbol_axis(a_axis: np.ndarray, quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """Per-axis symbol field Tr[A_axis omega_axis(u)] over the grid, for one
    axis factor of a product operator."""
    omegas = _axis_kernel_batch(quad, m, ctx)
    return np.einsum("ij,qpji->qp", a_axis, omegas)


def reconstruct_axis(w_field: np.ndarray, quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """Per-axis inverse map integral W(u) omega(u) d mu_axis(u)."""
    omegas = _axis_kernel_batch(quad, m, ctx)
    return np.einsum("qp,qp,qpij->ij", w_field, quad.weights_2d(), omegas)


def weyl_symbol(a_matrix: np.ndarray, quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """Symbol field of a general operator on the flattened 2D basis, over the
    tensor grid; output indices [q1, p1, q2, p2].  Modest node counts."""
    n = ctx.n
    a4 = a_matrix.reshape(n, n, n, n)  # A[(i1 i2), (j1 j2)] -> [i1, i2, j1, j2]
    omegas = _axis_kernel_batch(quad, m, ctx)
    # Tr[A Omega] = sum A[i1,i2,j1,j2] w1[j1,i1] w2[j2,i2]
    half = np.einsum("acbd,QPdc->QPab", a4, omegas)
    return np.einsum("QPab,qpba->qpQP", half, omegas)


def reconstruct(w_field: np.ndarray, quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """Inverse map integral W(u) Omega(u) d mu(u) on the same grid (modest
    node counts; the per-axis variant scales to dense rules)."""
    n = ctx.n
    omegas = _axis_kernel_batch(quad, m, ctx)
    w2 = quad.weights_2d()
    partial = np.einsum("qpQP,QP,QPcd->qpcd", w_field, w2, omegas)
    a4 = np.einsum("qpcd,qp,qpab->acbd", partial, w2, omegas)
    return a4.reshape(n * n, n * n)


# --------------------------------------------------------------------------
# twisted product
# --------------------------------------------------------------------------

def star_product_axis(wa: np.ndarray, wb: np.ndarray, quad: AxisQuadrature) -> np.ndarray:
    """One-axis twisted product on the quadrature grid:

        (WA * WB)(u) = 4 iint WA(u') WB(u'')
                       e^{2i s(u,u')} e^{2i s(u',u'')} e^{2i s(u'',u)} dmu' dmu''

    with s(u, u') = q p' - q' p; the three phases separate over node indices,
    reducing the double integral to chained contractions."""
    w2 = quad.weights_2d()
    wa_w = wa * w2
    wb_w = wb * w2
    # phases of e^{-2i [sigma(u,u') + sigma(u',u'') + sigma(u'',u)]}
    e_qp = np.exp(-2j * np.outer(quad.q, quad.p))  # [q-node, p-node]
    e_neg = e_qp.conj()
    # T1[q', q, q''] = sum_{p'} e^{-2i q p'} WA_w[q', p'] e^{2i p' q''}
    t1 = np.einsum("Qb,cb,Db->cQD", e_qp, wa_w, e_neg)
    # F[q, p, q'', p''] = sum_{q'} T1[q', q, q''] e^{2i p q'} e^{-2i q' p''}
    f_mid = np.einsum("cQD,cP,cd->QPDd", t1, e_neg, e_qp)
    # out[q, p] = 4 sum_{q'', p''} F WB_w[q'', p''] e^{-2i q'' p} e^{2i p'' q}
    return 4.0 * np.einsum("QPDd,Dd,DP,Qd->QP", f_mid, wb_w, e_qp, e_neg)


def star_product(wa: np.ndarray, wb: np.ndarray, quad: AxisQuadrature) -> np.ndarray:
    """Twisted product of full symbol fields [q1, p1, q2, p2] on the grid.

    The tri-kernel splits per canonical pair; this general version flattens
    pair indices and should only be used with small node counts (<= 8 per
    scalar axis) -- separable symbols can use `star_product_axis` instead.
    """
    n = quad.q.size
    if wa.shape != (n, n, n, n) or wb.shape != (n, n, n, n):
        raise ValueError("symbol fields must be [q1,p1,q2,p2] on the grid")
    w2 = quad.weights_2d()
    # e^{-2i sigma(u, u')} over flattened (q, p) pair indices
    e_pair = (
        np.exp(-2j * np.outer(quad.q, quad.p))[:, None, None, :]
        * np.exp(2j * np.outer(quad.p, quad.q)).T[None, :, :, None]
    ).reshape(n * n, n * n)
    waf = (wa * np.einsum("ab,cd->abcd", w2, w2)).reshape(n * n, n * n)
    wbf = (wb * np.einsum("ab,cd->abcd", w2, w2)).reshape(n * n, n * n)
    # X[u1, u1'', u2'] = sum_{u1'} e(u1,u1') e(u1',u1'') WA[u1', u2']
    x1 = np.einsum("ab,bc,bd->acd", e_pair, e_pair, waf)
    # Y[u1, u2, u1'', u2''] = sum_{u2'} X e(u2, u2') e(u2', u2'')
    y1 = np.einsum("acd,ed,df->aecf", x1, e_pair, e_pair)
    # out = 16 sum_{u''} Y WB[u1'', u2''] e(u1'', u1) e(u2'', u2)
    out = 16.0 * np.einsum("aecf,cf,ca,fe->ae", y1, wbf, e_pair, e_pair)
    return out.reshape(n, n, n, n)


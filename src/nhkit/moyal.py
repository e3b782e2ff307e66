"""Phase-space quantization on the f = 0 orbits: the parity-built kernel,
covariance and traciality checks, the symbol map with its inversion, and the
twisted product through the closed-form tri-kernel.

The kernel at phase-space point u = (q, p) acts as
    [Omega(q,p) phi](y) = 4 exp(-2i q.(m y + p)) phi(-y - 2p/m),
i.e. parity transported by the group element (a = q, v = -p/m).  It
factorizes exactly per axis, which every quadrature here exploits.  Each
axis factor is a displaced parity with the continuum displacement elements
(`funcspace.phase_shift_block`) whatever the context's `pad`, and
`kernel_axis_matrix` builds any batch of them in one call: both axes of a
kernel, every factor of a pair or triple trace, or one q-row of the grid.  Only
`weyl_symbol_axis` and `reconstruct_axis` walk the quadrature grid.  They build
kernels only at the nodes q >= 0, p >= 0, one row of them at a time, and read
the other three quadrants off the exact reflections of the kernel
    K(-q, p) = conj K(q, p),  K(q, -p) = P conj K(q, p) P,  K(-q, -p) = P K(q, p) P,
P = diag((-1)^n) the axis parity (Stratonovich, Sov. Phys. JETP 4 (1957) 891;
Gracia-Bondia & Varilly, J. Phys. A 21 (1988) L879); the smeared traces and the
2D symbol map and its inverse are built on them, so no more than one row of
kernels is held.  At the origin the kernel is 4 times the parity operator, and
the covariance and isotropy checks apply it as such.  The
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

def kernel_axis_matrix(q, p, m: float, ctx: BasisContext) -> np.ndarray:
    """One-axis factor of the kernel, the displaced parity 2 e^{2iqp} [T_{-2p/m} M_{-2mq}]
    diag((-1)^n); the full kernel is the Kronecker product of two of these.
    Arrays `q` and `p` broadcast against each other and give a (..., N, N)
    batch in one `phase_shift_block` call, e.g. both axes of a phase-space
    point, or one q-row of the grid."""
    q, p = np.asarray(q, float), np.asarray(p, float)
    out = phase_shift_block(ctx.n, ctx.lam, -2.0 * m * q, -2.0 * p / m)
    out *= (2.0 * np.exp(2j * q * p))[..., None, None] * ctx.parity1d
    return out


def _axis_factors(points, m: float, ctx: BasisContext) -> np.ndarray:
    """Kernel axis factors of phase-space points (q, p), all in one call: [axis, point] -> N x N."""
    qp = np.array([[q.as_tuple(), p.as_tuple()] for q, p in points]).T  # [axis, q or p, point]
    return kernel_axis_matrix(qp[:, 0], qp[:, 1], m, ctx)


def kernel_apply(q: Vec2, p: Vec2, m: float, psi: HermiteState, ctx: BasisContext) -> HermiteState:
    """Apply Omega(q, p) to a 2D state."""
    if m == 0.0:
        raise ValueError("kernel needs m != 0")
    if ctx.dims != 2:
        raise ValueError("kernel acts on 2D states")
    b1, b2 = kernel_axis_matrix([q.x1, q.x2], [p.x1, p.x2], m, ctx)
    out = replace(psi, coeffs=b1 @ psi.coeffs @ b2.T)
    _warn_resolution(out, "kernel_apply output")
    return out


def kernel_matrix(q: Vec2, p: Vec2, m: float, ctx: BasisContext) -> np.ndarray:
    """Full kernel matrix over the flattened 2D basis (for small studies)."""
    b1, b2 = kernel_axis_matrix([q.x1, q.x2], [p.x1, p.x2], m, ctx)
    return np.kron(b1, b2)


def _origin_apply(psi: HermiteState, ctx: BasisContext) -> HermiteState:
    """Omega(0, 0) psi: at the origin the kernel is 4 times the parity operator, exactly."""
    return replace(psi, coeffs=4.0 * ctx.parity_vector() * psi.coeffs)


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
    origin to (q, p), e.g. the canonical element composed with isotropy).
    The transported centre Omega(0,0) = 4 P is applied through the parity
    vector; only Omega(q,p) is built."""
    from .group import inverse

    m = labels.m
    if rep is None:
        rep = InducedRep2D(labels, ctx)
    g = group_element_for(q, p, m, labels.tau) if mover is None else mover
    direct = kernel_apply(q, p, m, psi, ctx)
    back = rep.apply(inverse(g), psi)
    transported = rep.apply(g, _origin_apply(back, ctx))
    return float(np.linalg.norm(direct.coeffs - transported.coeffs))


def isotropy_commutator_residual(
    gamma: GroupElement,
    labels: RepLabels,
    psi: HermiteState,
    ctx: BasisContext,
    rep: InducedRep2D | None = None,
) -> float:
    """|| [Omega(0,0), U(gamma)] psi || for gamma in the isotropy group of the
    origin (theta, b, phi only), with Omega(0,0) = 4 P applied on both sides
    through the parity vector."""
    if rep is None:
        rep = InducedRep2D(labels, ctx)
    a = _origin_apply(rep.apply(gamma, psi), ctx)
    b = rep.apply(gamma, _origin_apply(psi, ctx))
    return float(np.linalg.norm(a.coeffs - b.coeffs))


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------

def pair_trace(u: tuple[Vec2, Vec2], u2: tuple[Vec2, Vec2], m: float, ctx: BasisContext) -> complex:
    """Tr[Omega(u) Omega(u')] in the truncated basis (factorizes per axis)."""
    (k1, k2), (k3, k4) = _axis_factors((u, u2), m, ctx)
    return complex(np.sum(k1.T * k2) * np.sum(k3.T * k4))


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
    k = _axis_factors((u, u2, u3), m, ctx) * _trace_window(ctx.n)
    t1, t2 = np.trace(k[:, 0] @ k[:, 1] @ k[:, 2], axis1=-2, axis2=-1)
    return complex(t1 * t2)


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
    The smeared operator is trace class, so this weak form converges.  Per
    axis, Tr[K1 K2 Omega(u'')] is the symbol of K1 K2, so both axes take one
    grid walk."""
    k = _axis_factors((u, u2), m, ctx)
    q1, p1, q2, p2 = (np.array(v.as_tuple())[:, None, None] for v in (*u, *u2))  # [axis, q, p]
    phase = q1 * (p2 - quad.p) + q2 * (quad.p - p1) + quad.q[:, None] * (p1 - p2)
    num = _smear(weyl_symbol_axis(k[:, 0] @ k[:, 1], quad, m, ctx), sigma, quad)
    return complex(np.prod(num)), complex(np.prod(_smear(4.0 * np.exp(-2j * phase), sigma, quad)))


# --------------------------------------------------------------------------
# phase-space quadrature (per canonical pair)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisQuadrature:
    """Tensor Gauss-Legendre rule on [-box, box]^2 for one (q, p) pair,
    carrying the Liouville weight dq dp / (2 pi).  Nodes and weights must be
    mirror-symmetric bit for bit, x == -x[::-1] and w == w[::-1], since the
    grid walks read the kernels at q < 0 or p < 0 off those at their mirrors;
    `leggauss` symmetrizes its rule, so `build` meets this."""

    q: np.ndarray
    p: np.ndarray
    wq: np.ndarray
    wp: np.ndarray
    box: float

    def __post_init__(self):
        for name, x, sign in (("q", self.q, -1.0), ("p", self.p, -1.0), ("wq", self.wq, 1.0), ("wp", self.wp, 1.0)):
            if not np.array_equal(x, sign * x[::-1]):
                raise ValueError(f"quadrature {name} must be mirror-symmetric, {name} == {sign:+.0f} {name}[::-1]")

    @staticmethod
    def build(box: float, nodes: int) -> "AxisQuadrature":
        x, w = leggauss(nodes)
        return AxisQuadrature(q=x * box, p=x * box, wq=w * box, wp=w * box, box=box)

    def weights_2d(self) -> np.ndarray:
        return np.outer(self.wq, self.wp) / TWO_PI


def _smear(fields: np.ndarray, sigma: float, quad: AxisQuadrature) -> np.ndarray:
    """integral F(u) G(u) d mu_axis(u) over the last two (grid) axes of `fields`,
    for the Gaussian G of width sigma."""
    gauss = np.exp(-(np.add.outer(quad.q**2, quad.p**2)) / (2.0 * sigma**2))
    return np.sum(fields * gauss * quad.weights_2d(), axis=(-2, -1))


def smeared_pair_trace(sigma: float, quad: AxisQuadrature, m: float, ctx: BasisContext) -> complex:
    """integral Tr[Omega(0,0) Omega(u)] G(u) d mu(u) for the separable
    Gaussian G of width sigma; equals G(0,0) = 1 up to truncation bias and
    quadrature error."""
    per_axis = _smear(weyl_symbol_axis(kernel_axis_matrix(0.0, 0.0, m, ctx), quad, m, ctx), sigma, quad)
    return complex(per_axis**2)


# --------------------------------------------------------------------------
# symbols and inversion
# --------------------------------------------------------------------------

def _quadrants(quad: AxisQuadrature) -> tuple[np.ndarray, np.ndarray, list]:
    """Indices of the nodes q >= 0 and p >= 0, where the walks build kernels, and the (row,
    column) index grids of their four images (q, p), (-q, p), (q, -p) and (-q, -p)."""
    iq, ip = (np.arange(x.size // 2, x.size) for x in (quad.q, quad.p))
    mq, mp = quad.q.size - 1 - iq, quad.p.size - 1 - ip  # node i mirrors node size - 1 - i
    return iq, ip, [np.ix_(rows, cols) for rows, cols in ((iq, ip), (mq, ip), (iq, mp), (mq, mp))]


def _row_parts(qv: float, pv: np.ndarray, m: float, ctx: BasisContext, parts: np.ndarray) -> np.ndarray:
    """Re K and Im K of the row of kernels K(qv, pv), written into `parts` [2, p, N^2] and
    returned as its [2 p, N^2] view."""
    kernels = kernel_axis_matrix(qv, pv, m, ctx).reshape(parts.shape[1:])
    parts[0], parts[1] = kernels.real, kernels.imag
    return parts.reshape(-1, parts.shape[-1])


def weyl_symbol_axis(a_axis: np.ndarray, quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """Per-axis symbol fields Tr[A omega(u)] over the grid: operators
    (..., N, N) -> fields (..., nq, np).  With `reconstruct_axis` the only
    walk over the kernel grid: it builds the kernels K = K(q, p) at q >= 0,
    p >= 0 only, one row of ceil(np/2) at a time.  One real product of the
    row's Re K and Im K with the stack [A, S], S = P A P, gives
    X_B = Tr[B Re K] and Y_B = Tr[B Im K], and so all four quadrants:
    Tr[A K(q,p)] = X_A + i Y_A, Tr[A K(-q,p)] = X_A - i Y_A,
    Tr[A K(q,-p)] = X_S - i Y_S and Tr[A K(-q,-p)] = X_S + i Y_S."""
    n, lead = ctx.n, a_axis.shape[:-2]
    ops = np.empty((n, n, 2) + lead, complex)  # [j, i, A/S, operator...]: Tr[B K] = sum B[i, j] K[j, i]
    ops[:, :, 0] = np.moveaxis(a_axis, (-1, -2), (0, 1))
    np.multiply(ops[:, :, 0], np.outer(ctx.parity1d, ctx.parity1d).reshape((n, n) + (1,) * len(lead)),
                out=ops[:, :, 1])
    ops = ops.reshape(n * n, -1).view(float)  # each complex column as its real and imaginary parts
    iq, ip, images = _quadrants(quad)
    parts = np.empty((2, ip.size, n * n))
    xy = np.empty((iq.size, 2, ip.size, 2, math.prod(lead)), complex)  # [q-row, X/Y, p, A/S, operator]
    for r, i in enumerate(iq):
        xy[r] = (_row_parts(quad.q[i], quad.p[ip], m, ctx, parts) @ ops).view(complex).reshape(xy.shape[1:])
    (xa, xs), (ya, ys) = np.moveaxis(xy[:, 0], 2, 0), 1j * np.moveaxis(xy[:, 1], 2, 0)
    out = np.empty((xy.shape[-1], quad.q.size, quad.p.size), complex)
    for quadrant, (rows, cols) in zip((xa + ya, xa - ya, xs - ys, xs + ys), images):
        out[:, rows, cols] = np.moveaxis(quadrant, -1, 0)
    return out.reshape(lead + out.shape[1:])


def reconstruct_axis(w_field: np.ndarray, quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """Per-axis inverse map integral W(u) omega(u) d mu_axis(u): fields
    (..., nq, np) -> operators (..., N, N).  The adjoint walk of
    `weyl_symbol_axis`: with w1..w4 the weighted field at (q, p), (-q, p),
    (q, -p) and (-q, -p), the four images of K = K(q, p), q >= 0, p >= 0, sum
    to (w1 + w2) Re K + i (w1 - w2) Im K + P [(w4 + w3) Re K + i (w4 - w3) Im K] P,
    one real product per row of kernels.  On an odd rule the node 0 is its
    own mirror and enters twice, so each image carries half of it."""
    n, lead = ctx.n, w_field.shape[:-2]
    weights = quad.weights_2d()
    if quad.q.size % 2:
        weights[quad.q.size // 2] /= 2.0
    if quad.p.size % 2:
        weights[:, quad.p.size // 2] /= 2.0
    weighted = (w_field * weights).reshape((-1,) + w_field.shape[-2:])
    iq, ip, images = _quadrants(quad)
    w1, w2, w3, w4 = (np.moveaxis(weighted[:, rows, cols], 0, -1) for rows, cols in images)  # [q-row, p, field]
    coef = np.stack([np.stack([w1 + w2, w4 + w3], -2), 1j * np.stack([w1 - w2, w4 - w3], -2)], 1)
    parts = np.empty((2, ip.size, n * n))
    acc = np.zeros((n * n, 4 * weighted.shape[0]))  # [i j, (A/S, field)], each complex column as two real
    for r, i in enumerate(iq):  # coef[r]: [Re K/Im K, p, A/S, field]
        acc += _row_parts(quad.q[i], quad.p[ip], m, ctx, parts).T @ coef[r].reshape(2 * ip.size, -1).view(float)
    sums = acc.view(complex).reshape(n, n, 2, -1)
    out = np.moveaxis(sums[:, :, 0] + np.outer(ctx.parity1d, ctx.parity1d)[..., None] * sums[:, :, 1], -1, 0)
    return out.reshape(lead + (n, n))


def weyl_symbol(a_matrix: np.ndarray, quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """Symbol field of a general operator on the flattened 2D basis, over the
    tensor grid; output indices [q1, p1, q2, p2].  Two passes of the axis map:
    axis 2 on the (i1, j1) stack of [i2, j2] blocks, then axis 1 on the
    (q2, p2) stack of [i1, j1] blocks."""
    n = ctx.n
    a4 = a_matrix.reshape(n, n, n, n)  # A[(i1 i2), (j1 j2)] -> [i1, i2, j1, j2]
    half = weyl_symbol_axis(a4.transpose(0, 2, 1, 3), quad, m, ctx)  # [i1, j1, q2, p2]
    return weyl_symbol_axis(half.transpose(2, 3, 0, 1), quad, m, ctx).transpose(2, 3, 0, 1)


def reconstruct(w_field: np.ndarray, quad: AxisQuadrature, m: float, ctx: BasisContext) -> np.ndarray:
    """Inverse map integral W(u) Omega(u) d mu(u) on the same grid, as two
    passes of the axis map (axis 2, then axis 1 on the (i2, j2) stack)."""
    n = ctx.n
    half = reconstruct_axis(w_field, quad, m, ctx)  # [q1, p1, i2, j2]
    a4 = reconstruct_axis(half.transpose(2, 3, 0, 1), quad, m, ctx)  # [i2, j2, i1, j1]
    return a4.transpose(2, 0, 3, 1).reshape(n * n, n * n)


# --------------------------------------------------------------------------
# twisted product
# --------------------------------------------------------------------------

def star_product_axis(wa: np.ndarray, wb: np.ndarray, quad: AxisQuadrature) -> np.ndarray:
    """One-axis twisted product on the quadrature grid:

        (WA * WB)(u) = 4 iint WA(u') WB(u'')
                       e^{2i s(u,u')} e^{2i s(u',u'')} e^{2i s(u'',u)} dmu' dmu''

    with s(u, u') = q p' - q' p; the three phases separate over node indices,
    reducing the double integral to chained contractions whose intermediates
    are all n^3 on n nodes."""
    w2 = quad.weights_2d()
    wa_w = wa * w2
    wb_w = wb * w2
    # phases of e^{-2i [sigma(u,u') + sigma(u',u'') + sigma(u'',u)]}
    e_qp = np.exp(-2j * np.outer(quad.q, quad.p))  # [q-node, p-node]
    e_neg = e_qp.conj()
    # T1[q', q, q''] = sum_{p'} e^{-2i q p'} WA_w[q', p'] e^{2i p' q''}
    t1 = (wa_w[:, None, :] * e_qp) @ e_neg.T
    # X[q', q'', q] = sum_{p''} e^{-2i q' p''} WB_w[q'', p''] e^{2i p'' q}
    x = (e_qp[:, None, :] * wb_w) @ e_neg.T
    # Y[q', q, p] = sum_{q''} T1[q', q, q''] X[q', q'', q] e^{-2i q'' p}
    y = (t1 * x.transpose(0, 2, 1)) @ e_qp
    # out[q, p] = 4 sum_{q'} Y[q', q, p] e^{2i p q'}
    return 4.0 * np.einsum("cQP,cP->QP", y, e_neg)


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


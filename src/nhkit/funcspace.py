"""Truncated Hermite-basis function spaces (1D and 2D) and exponentials of
at-most-quadratic operators in (y, grad) — the numerical engine behind every
representation operator.

Basis functions along each axis are the orthonormal Hermite functions of
lambda*y.  Polynomial and derivative operators then have exact sparse matrix
elements and act axis by axis (`op_apply`); exponentials of quadratic
Hermitian generators are evaluated by eigendecomposition per exact sector,
a connected component of the generator's nonzero pattern (unitary to
machine precision); phase/shift displacements are the continuum matrix
elements in closed form by default, or on a `pad=0` context the exponentials
of the truncated generators.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_RESOLUTION_TOL = 1e-8


class ResolutionWarning(UserWarning):
    """Raised (as a warning) when a state's truncation tail is unhealthy."""


def _ladder_matrices(n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of y and d/dy in the orthonormal Hermite-function basis of
    lambda*y: <h_m| y |h_n> and <h_m| d/dy |h_n>."""
    up = np.sqrt((np.arange(n - 1) + 1.0) / 2.0)
    u_mat = np.zeros((n, n))
    u_mat[np.arange(n - 1), np.arange(1, n)] = up
    u_mat = u_mat + u_mat.T
    d_mat = np.zeros((n, n))
    d_mat[np.arange(n - 1), np.arange(1, n)] = up
    d_mat[np.arange(1, n), np.arange(n - 1)] = -up
    return u_mat / lam, d_mat * lam


@functools.lru_cache(maxsize=None)
def _displacement_tables(n: int) -> tuple[np.ndarray, ...]:
    """What `phase_shift_block` needs of n alone, read-only: modes d, coefficients a, b, c
    [k, d], signs (-1)^d, and per element (row, col) the gather indices min(row, col) and
    |row - col| into g[k, d] and (row >= col) n + |row - col| into the two phase rows."""
    d, kk = np.arange(n), np.arange(n - 1)[:, None]
    # g_{k+1} = ((2k+1+d-x) g_k - sqrt(k(k+d)) g_{k-1}) / sqrt((k+1)(k+1+d))
    r = np.sqrt((kk + 1.0) * (kk + 1 + d))
    diff = np.subtract.outer(d, d)  # row - col
    tables = (d, (2 * kk + 1 + d) / r, 1.0 / r, np.sqrt(kk * (kk + d)) / r, (-1.0) ** d,
              np.minimum.outer(d, d), abs(diff), (diff >= 0) * n + abs(diff))
    for t in tables:
        t.setflags(write=False)
    return tables


def phase_shift_block(n: int, lam: float, phase, shift) -> np.ndarray:
    """Continuum N x N block of (translation by `shift`) o (multiplication e^{i phase y})
    in the basis of lam*y, batched over broadcast phase and shift: e^{-i shift phase/2}
    D(alpha), alpha = (lam shift + i phase/lam)/sqrt(2), with the Cahill-Glauber elements
    (Phys. Rev. 177 (1969) 1857) <k+d|D|k> = u^d g_k^(d), <k|D|k+d> = (-conj u)^d g_k^(d),
    u = alpha/|alpha|, g_k^(d) = sqrt(k!/(k+d)!) x^(d/2) e^(-x/2) L_k^(d)(x), x = |alpha|^2,
    by the stable three-term recurrence in k (the column recurrence in D|k> is unstable).

    The coefficients, sign row and gather indices depend on n alone and are
    built once per n.  The recurrence runs k-major: g[k] is one contiguous row
    over (batch..., d), and s[k] = a[k] - b[k] x is formed for every k up front,
    so each step is g[k+1] = s[k] g[k] - c[k] g[k-1]."""
    d, a, b, c, sign, lo, dist, pick = _displacement_tables(n)
    phase, shift = np.broadcast_arrays(np.asarray(phase, float), np.asarray(shift, float))
    alpha = (lam * shift + 1j * phase / lam) / np.sqrt(2.0)
    x = np.abs(alpha)[..., None] ** 2
    lead = (slice(None),) + (None,) * alpha.ndim  # a[k] broadcast over the batch
    s = a[lead] - b[lead] * x
    g = np.empty((n,) + alpha.shape + (n,))  # g[k, ..., d]
    g[0] = np.exp(-x / 2.0) * np.cumprod(np.concatenate([np.ones_like(x), np.sqrt(x / d[1:])], -1), -1)
    rows = list(g)  # one view per row, shared by the three streams below
    np.multiply(s[0], rows[0], out=rows[1])
    for s_k, c_k, prev, cur, nxt in zip(s[1:], c[1:], rows, rows[1:], rows[2:]):
        np.multiply(s_k, cur, out=nxt)
        nxt -= c_k * prev
    turn = np.exp(1j * np.angle(alpha)[..., None] * d)  # u^d
    phases = np.stack([sign * turn.conj(), turn], -2) * np.exp(-0.5j * shift * phase)[..., None, None]
    out = np.take(phases.reshape(alpha.shape + (2 * n,)), pick, axis=-1)
    out *= np.moveaxis(g, 0, -2)[..., lo, dist]
    return out


class BasisContext:
    """Per-axis ladder matrices, parity, displacements (`pad=None`: continuum
    elements; `pad=0`: exponentials of the truncated generators, exactly
    unitary on the N x N block) and a cache of per-sector eigendecompositions."""

    def __init__(self, n: int, lam: float, dims: int, pad: int | None = None):
        if n < 4:
            raise ValueError("cutoff must be at least 4")
        if not lam > 0.0:
            raise ValueError("basis scale lambda must be positive")
        if dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        if pad not in (None, 0):
            raise ValueError("pad must be None (continuum elements) or 0 (truncated generators)")
        self.n = n
        self.lam = lam
        self.dims = dims
        self.pad = pad
        self.y1d, self.d1d = _ladder_matrices(n, lam)
        self.parity1d = (-1.0) ** np.arange(n)
        if pad == 0:
            (self._wy, self._vy), (self._wd, self._vd) = np.linalg.eigh(self.y1d), np.linalg.eigh(1j * self.d1d)
            self._vyh, self._vdh = self._vy.conj().T, self._vd.conj().T  # built once, not per call
        self._exp_cache: dict = {}

    def parity_vector(self) -> np.ndarray:
        """Diagonal of the parity operator over the flattened basis."""
        if self.dims == 1:
            return self.parity1d
        return np.multiply.outer(self.parity1d, self.parity1d)

    # -- 1D displacements -------------------------------------------------------
    def phase_shift_1d(self, phase: float, shift: float) -> np.ndarray:
        """Matrix of (translation by `shift`) o (multiplication e^{i phase y})
        on the working block, with the semantics `pad` selects."""
        if self.pad is None:
            return phase_shift_block(self.n, self.lam, phase, shift)
        m_op = (self._vy * np.exp(1j * phase * self._wy)) @ self._vyh
        t_op = (self._vd * np.exp(1j * shift * self._wd)) @ self._vdh
        return t_op @ m_op


def ladder_build(n: int, lam: float, dims: int = 2, pad: int | None = None) -> BasisContext:
    """Build the basis context (ladder matrices and caches)."""
    return BasisContext(n, lam, dims, pad)


@dataclass(frozen=True)
class HermiteState:
    """Coefficients over the truncated Hermite basis: one state of shape (N,)
    in 1D or (N, N) in 2D, or a stack of them with leading axes, such as the
    nodes of a grid carrier.  `norm`, `normalized` and `tail_fraction` take
    the whole stack as one state; `exp_apply` and `displacement_apply` act
    on every state of it."""

    dims: int
    n: int
    lam: float
    coeffs: np.ndarray

    def __post_init__(self):
        expected = (self.n,) * self.dims
        if self.coeffs.shape[self.coeffs.ndim - self.dims :] != expected:
            raise ValueError(f"coefficients must have shape (..., {', '.join(map(str, expected))})")

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "HermiteState":
        nn = self.norm()
        if nn == 0.0:
            raise ValueError("cannot normalize the zero state")
        return replace(self, coeffs=self.coeffs / nn)

    def overlap(self, other: "HermiteState") -> complex:
        return complex(np.vdot(self.coeffs, other.coeffs))

    def tail_fraction(self) -> float:
        """Fraction of the squared norm carried by the top quarter of modes
        along any axis."""
        cut = self.n - self.n // 4
        weight = np.abs(self.coeffs) ** 2
        total = float(np.sum(weight))
        if total == 0.0:
            return 0.0
        # sum the tail's own elements: total - head cancels for tails near 1e-20
        if self.dims == 1:
            return float(np.sum(weight[..., cut:])) / total
        return (float(np.sum(weight[..., cut:, :])) + float(np.sum(weight[..., :cut, cut:]))) / total

    def is_well_resolved(self, tol: float = DEFAULT_RESOLUTION_TOL) -> bool:
        return self.tail_fraction() <= tol

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "dims": self.dims,
                "N": self.n,
                "lambda": self.lam,
                "re": np.real(self.coeffs).tolist(),
                "im": np.imag(self.coeffs).tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "HermiteState":
        import json

        d = json.loads(text)
        arr = np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)
        return HermiteState(dims=int(d["dims"]), n=int(d["N"]), lam=float(d["lambda"]), coeffs=arr)


def ground_state(ctx: BasisContext) -> HermiteState:
    shape = (ctx.n,) if ctx.dims == 1 else (ctx.n, ctx.n)
    c = np.zeros(shape, dtype=complex)
    c[(0,) * ctx.dims] = 1.0
    return HermiteState(dims=ctx.dims, n=ctx.n, lam=ctx.lam, coeffs=c)


def probe_state(ctx: BasisContext, rng, kmax: int = 6) -> HermiteState:
    """Normalized pseudo-random state supported on modes <= kmax per axis."""
    shape = (ctx.n,) if ctx.dims == 1 else (ctx.n, ctx.n)
    c = np.zeros(shape, dtype=complex)
    if ctx.dims == 1:
        c[: kmax + 1] = rng.normal(size=kmax + 1) + 1j * rng.normal(size=kmax + 1)
    else:
        blk = rng.normal(size=(kmax + 1, kmax + 1)) + 1j * rng.normal(size=(kmax + 1, kmax + 1))
        c[: kmax + 1, : kmax + 1] = blk
    state = HermiteState(dims=ctx.dims, n=ctx.n, lam=ctx.lam, coeffs=c)
    return state.normalized()


@dataclass(frozen=True)
class QuadraticOperator:
    """Operator  const + ly.y + ld.grad + y.Qyy.y + grad.Qdd.grad
    + sum_ij Qyd_ij (y_i d_j + d_j y_i)/2  over `dims` axes.

    A `hermitian_generator` flag asserts the coefficient pattern that makes
    the assembled matrix Hermitian: real const, real ly, imaginary ld, real
    symmetric Qyy and Qdd, imaginary Qyd.
    """

    dims: int
    const: complex = 0.0
    lin_y: np.ndarray = field(default=None)
    lin_d: np.ndarray = field(default=None)
    quad_yy: np.ndarray = field(default=None)
    quad_dd: np.ndarray = field(default=None)
    quad_yd: np.ndarray = field(default=None)
    hermitian_generator: bool = False

    def __post_init__(self):
        d = self.dims
        for name, shape in (
            ("lin_y", (d,)),
            ("lin_d", (d,)),
            ("quad_yy", (d, d)),
            ("quad_dd", (d, d)),
            ("quad_yd", (d, d)),
        ):
            val = getattr(self, name)
            if val is None:
                object.__setattr__(self, name, np.zeros(shape, dtype=complex))
            else:
                arr = np.asarray(val, dtype=complex)
                if arr.shape != shape:
                    raise ValueError(f"{name} must have shape {shape}")
                object.__setattr__(self, name, arr)
        if self.hermitian_generator:
            self._check_hermitian_pattern()

    def _check_hermitian_pattern(self):
        tol = 1e-12
        ok = (
            abs(np.imag(self.const)) <= tol
            and np.max(np.abs(np.imag(self.lin_y)), initial=0.0) <= tol
            and np.max(np.abs(np.real(self.lin_d)), initial=0.0) <= tol
            and np.max(np.abs(np.imag(self.quad_yy)), initial=0.0) <= tol
            and np.max(np.abs(np.imag(self.quad_dd)), initial=0.0) <= tol
            and np.max(np.abs(self.quad_yy - self.quad_yy.T)) <= tol
            and np.max(np.abs(self.quad_dd - self.quad_dd.T)) <= tol
            and np.max(np.abs(np.real(self.quad_yd)), initial=0.0) <= tol
        )
        if not ok:
            raise ValueError("coefficients violate the hermitian-generator pattern")

    # -- linear algebra on operators ------------------------------------------
    def is_linear(self) -> bool:
        return (
            np.max(np.abs(self.quad_yy)) == 0.0
            and np.max(np.abs(self.quad_dd)) == 0.0
            and np.max(np.abs(self.quad_yd)) == 0.0
        )

    def __add__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        if self.dims != other.dims:
            raise ValueError("dimension mismatch")
        return QuadraticOperator(
            dims=self.dims,
            const=self.const + other.const,
            lin_y=self.lin_y + other.lin_y,
            lin_d=self.lin_d + other.lin_d,
            quad_yy=self.quad_yy + other.quad_yy,
            quad_dd=self.quad_dd + other.quad_dd,
            quad_yd=self.quad_yd + other.quad_yd,
        )

    def __sub__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        return self + (other * (-1.0))

    def __mul__(self, s: complex) -> "QuadraticOperator":
        return QuadraticOperator(
            dims=self.dims,
            const=self.const * s,
            lin_y=self.lin_y * s,
            lin_d=self.lin_d * s,
            quad_yy=self.quad_yy * s,
            quad_dd=self.quad_dd * s,
            quad_yd=self.quad_yd * s,
        )

    __rmul__ = __mul__

    def flag_hermitian(self) -> "QuadraticOperator":
        return replace(self, hermitian_generator=True)

    def cache_key(self) -> tuple:
        return (
            self.dims,
            complex(self.const),
            self.lin_y.tobytes(),
            self.lin_d.tobytes(),
            self.quad_yy.tobytes(),
            self.quad_dd.tobytes(),
            self.quad_yd.tobytes(),
        )

    @staticmethod
    def constant(dims: int, value: complex) -> "QuadraticOperator":
        return QuadraticOperator(dims=dims, const=value)

    @staticmethod
    def linear(dims: int, lin_y=None, lin_d=None, const: complex = 0.0) -> "QuadraticOperator":
        return QuadraticOperator(dims=dims, const=const, lin_y=lin_y, lin_d=lin_d)


def linear_product(a: QuadraticOperator, b: QuadraticOperator) -> QuadraticOperator:
    """Operator product of two at-most-linear operators, normal ordering
    resolved through [y_i, d_j] = -delta_ij (so d_i y_j = y_j d_i + delta_ij).

    The mixed part is stored in symmetrized form, which shifts half of each
    diagonal commutator into the constant.
    """
    if not (a.is_linear() and b.is_linear()):
        raise ValueError("linear_product expects linear operators")
    if a.dims != b.dims:
        raise ValueError("dimension mismatch")
    d = a.dims
    const = a.const * b.const + complex(np.dot(a.lin_d, b.lin_y))
    lin_y = a.const * b.lin_y + b.const * a.lin_y
    lin_d = a.const * b.lin_d + b.const * a.lin_d
    qyy = np.outer(a.lin_y, b.lin_y)
    qyy = 0.5 * (qyy + qyy.T)
    qdd = np.outer(a.lin_d, b.lin_d)
    qdd = 0.5 * (qdd + qdd.T)
    # (a.y)(b.d): y_i d_j with coefficient a_i b_j; (a.d)(b.y): d_i y_j ->
    # y_j d_i + delta_ij (constant already added above).
    qyd = np.outer(a.lin_y, b.lin_d) + np.outer(b.lin_y, a.lin_d)
    # convert normal-ordered y_i d_j into the symmetrized (y_i d_j + d_j y_i)/2:
    # y d = sym - 1/2 on the diagonal
    const -= 0.5 * complex(np.trace(qyd))
    return QuadraticOperator(
        dims=d, const=const, lin_y=lin_y, lin_d=lin_d, quad_yy=qyy, quad_dd=qdd, quad_yd=qyd
    )


def square_sum(ops: list[QuadraticOperator]) -> QuadraticOperator:
    """Sum of squares of linear operators."""
    acc = None
    for op in ops:
        sq = linear_product(op, op)
        acc = sq if acc is None else acc + sq
    return acc


def cross_product(p1, p2, k1, k2) -> QuadraticOperator:
    """P x K = P1 K2 - P2 K1 for linear operator components."""
    return linear_product(p1, k2) - linear_product(p2, k1)


def op_apply(q: QuadraticOperator, coeffs: np.ndarray, ctx: BasisContext) -> np.ndarray:
    """Apply the operator to coefficient arrays of shape (..., N) in 1D or
    (..., N, N) in 2D with N x N matrices per axis: A @ C on the first axis,
    C @ B.T on the last, X @ C @ Y.T for a product of factors on two axes."""
    if q.dims != ctx.dims:
        raise ValueError("operator/context dimension mismatch")
    y, d = ctx.y1d, ctx.d1d
    on = lambda mat, c, axis: c @ mat.T if axis == ctx.dims - 1 else mat @ c
    out = np.zeros(np.shape(coeffs), dtype=complex)
    for i in range(q.dims):  # the terms on axis i alone; axis 0 carries the constant
        single = (
            (q.const if i == 0 else 0.0) * np.eye(ctx.n) + q.lin_y[i] * y + q.lin_d[i] * d
            + q.quad_yy[i, i] * (y @ y) + q.quad_dd[i, i] * (d @ d) + q.quad_yd[i, i] * 0.5 * (y @ d + d @ y)
        )
        out += on(single, coeffs, i)
        for j in range(i + 1, q.dims):  # factors on axes i and j commute
            right_of_y = (q.quad_yy[i, j] + q.quad_yy[j, i]) * y + q.quad_yd[i, j] * d
            right_of_d = (q.quad_dd[i, j] + q.quad_dd[j, i]) * d + q.quad_yd[j, i] * y
            for left, right in ((y, right_of_y), (d, right_of_d)):
                if right.any():
                    out += on(left, on(right, coeffs, j), i)
    return out


def op_matrix(q: QuadraticOperator, ctx: BasisContext) -> np.ndarray:
    """Dense matrix of the operator over the flattened basis: `op_apply` on
    the identity basis."""
    size = ctx.n**ctx.dims
    basis = np.eye(size).reshape((size,) + (ctx.n,) * ctx.dims)
    return op_apply(q, basis, ctx).reshape(size, size).T


def _sectors(mat: np.ndarray) -> list[np.ndarray]:
    """Connected components of the exact nonzero pattern of a square matrix,
    grouped by size: one (k, s) array of ascending indices per size s."""
    rows, cols = np.nonzero(mat)
    label = np.arange(mat.shape[0])
    while True:  # min-label propagation with pointer jumping
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == s, None] + np.arange(s)] for s in np.unique(sizes)]


def _exp_factors(q: QuadraticOperator, ctx: BasisContext):
    """Per group of equal-size sectors of the assembled generator: indices,
    eigenvalues, eigenvectors V and V^H.  Entries outside the sectors are
    exactly 0, so the blocks' eigendecompositions are the matrix's."""
    key = q.cache_key()
    if key not in ctx._exp_cache:
        mat = op_matrix(q, ctx)
        tol = 1e-10 * max(1.0, np.max(np.abs(mat)))
        factors = []
        for idx in _sectors(mat):
            block = mat[idx[:, :, None], idx[:, None, :]]
            herm_defect = np.max(np.abs(block - block.conj().swapaxes(-1, -2)))
            if herm_defect > tol:
                raise ValueError(f"assembled generator not Hermitian (defect {herm_defect:.2e})")
            w, v = np.linalg.eigh(block)
            factors.append((idx, w, v, v.conj().swapaxes(-1, -2)))
        ctx._exp_cache[key] = factors
    return ctx._exp_cache[key]


def _warn_resolution(state: HermiteState, where: str, tol: float = DEFAULT_RESOLUTION_TOL):
    frac = state.tail_fraction()
    if frac > tol:
        warnings.warn(
            f"{where}: truncation tail {frac:.2e} exceeds {tol:.0e}", ResolutionWarning,
            stacklevel=3,
        )


def exp_apply(
    q: QuadraticOperator, t: float, psi: HermiteState, ctx: BasisContext
) -> HermiteState:
    """psi -> exp(i t M) psi with M the assembled matrix of q, on every state
    of a stack.

    Requires the hermitian-generator flag; the exponential is exactly unitary
    because it is evaluated through the eigendecomposition of M, one exact
    sector of M at a time.
    """
    if not q.hermitian_generator:
        raise ValueError("exp_apply requires an operator flagged hermitian-generator")
    _warn_resolution(psi, "exp_apply input")
    stack = psi.coeffs.shape[: psi.coeffs.ndim - psi.dims]
    vec = psi.coeffs.reshape(stack + (-1,))
    out = np.empty(vec.shape, dtype=complex)
    for idx, w, v, vh in _exp_factors(q, ctx):  # batched over each group's sectors
        x = np.exp(1j * t * w) * (vh @ vec[..., idx][..., None])[..., 0]
        out[..., idx] = (v @ x[..., None])[..., 0]
    return replace(psi, coeffs=out.reshape(psi.coeffs.shape))


def displacement_apply(phase, shift, psi: HermiteState, ctx: BasisContext) -> HermiteState:
    """Apply e^{i phase . y} followed by translation by `shift` to every state
    of a stack.

    Both factors are exponentials of linear generators, evaluated per axis by
    `BasisContext.phase_shift_1d` (continuum elements unless `pad=0`).
    """
    phase = np.atleast_1d(np.asarray(phase, dtype=float))
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if phase.shape != (ctx.dims,) or shift.shape != (ctx.dims,):
        raise ValueError("phase and shift must have one component per axis")
    if ctx.dims == 1:
        out = (ctx.phase_shift_1d(phase[0], shift[0]) @ psi.coeffs[..., None])[..., 0]
    else:
        b0 = ctx.phase_shift_1d(phase[0], shift[0])
        b1 = ctx.phase_shift_1d(phase[1], shift[1])
        out = b0 @ psi.coeffs @ b1.T
    result = replace(psi, coeffs=out)
    _warn_resolution(result, "displacement_apply output")
    return result


def parity_apply(psi: HermiteState, ctx: BasisContext) -> HermiteState:
    return replace(psi, coeffs=ctx.parity_vector() * psi.coeffs)

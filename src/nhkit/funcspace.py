"""Truncated Hermite-basis function spaces (1D and 2D) and exponentials of
at-most-quadratic operators in (y, p), p = -i d/dy — the numerical engine
behind every representation operator.

Basis functions along each axis are the orthonormal Hermite functions of
lambda*y.  A `QuadraticOperator` is one symmetric coefficient matrix over
z = (1, y, p), Hermitian exactly when that matrix is real; `linear` builds the
at-most-linear operators and `product` multiplies two of them.  Polynomial and
derivative operators have exact sparse matrix elements and act axis by axis
(`op_apply`); their dense matrices (`op_matrix`) are sums of Kronecker
products of the same per-axis matrices.  Exponentials of quadratic Hermitian
generators are evaluated by eigendecomposition per exact sector, a connected
component of the generator's nonzero pattern (unitary to machine precision),
with one stored eigenvector array per group of sectors; sectors below 64
positions are stacked by size class [2^j, 2^(j+1)) and padded with identity
blocks at a spare zero slot of the state.  The solver is read
off `coef` by exact rules: real arithmetic where no term is odd in p, so the
matrix is real, and on a 2D context also where `coef` is invariant under the
antiunitary Θ = (y1 <-> y2, p1 <-> p2) o (complex conjugation), as H and J of
cases A, F and G are: a fixed sparse basis makes every block real symmetric.
Any other generator takes the complex solver.  Phase/shift displacements are
the continuum matrix elements in closed form by default, a table of
g_k^(d)(|alpha|^2) times a phase assembly, with each `pad=None` context keeping
the tables of its last `dims` displacements for reuse; or on a `pad=0`
context the exponentials of the truncated generators: diag(i^-n) Vy (E_d F
E_y) Vy^T from the real eigenvectors Vy of y and F = Vy^T diag(i^n) Vy, built
by two real GEMMs.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

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
    """What `phase_shift_block` needs of n alone, read-only.  For the table: modes d, the rows
    d/2 and log(d!)/2, and coefficients a, b, c [k, d].  For the phase assembly: the exponents
    (-d, d) of u in the phase row and its signs ((-1)^d, 1), and per element (row, col) the
    index (row >= col) n + |row - col| into the phase row, the gather indices min(row, col)
    and |row - col| into g[k, ..., d], and the flat index min(row, col) n + |row - col| into
    one contiguous g[k, d]."""
    d, kk = np.arange(n), np.arange(n - 1)[:, None]
    # g_{k+1} = ((2k+1+d-x) g_k - sqrt(k(k+d)) g_{k-1}) / sqrt((k+1)(k+1+d))
    r = np.sqrt((kk + 1.0) * (kk + 1 + d))
    diff = np.subtract.outer(d, d)  # row - col
    lo, dist = np.minimum.outer(d, d), abs(diff)
    tables = (d, d / 2.0, 0.5 * np.array([math.lgamma(k + 1.0) for k in d]),
              (2 * kk + 1 + d) / r, 1.0 / r, np.sqrt(kk * (kk + d)) / r,
              np.concatenate([-d, d]), np.concatenate([(-1.0) ** d, np.ones(n)]),
              (diff >= 0) * n + dist, lo, dist, lo * n + dist)
    for t in tables:
        t.setflags(write=False)
    return tables


def _alpha(lam: float, phase, shift) -> tuple[np.ndarray, np.ndarray]:
    """alpha = (lam shift + i phase/lam)/sqrt(2) over the broadcast phase and shift, and
    x = |alpha|^2 with a trailing axis of length 1."""
    alpha = (lam * np.asarray(shift, float) + 1j * np.asarray(phase, float) / lam) / np.sqrt(2.0)
    return alpha, np.abs(alpha)[..., None] ** 2


def _displacement_table(n: int, x: np.ndarray) -> np.ndarray:
    """The table g[k, ..., d] = g_k^(d)(x) of `phase_shift_block`, with x from `_alpha`, by the
    recurrence g[k+1] = s[k] g[k] - c[k] g[k-1], s[k] = a[k] - b[k] x, from the row g[0]
    formed in log space."""
    d, half_d, half_log_fact, a, b, c = _displacement_tables(n)[:6]
    lead = (slice(None),) + (None,) * (x.ndim - 1)  # a[k] broadcast over the batch
    s = a[lead] - b[lead] * x
    g = np.empty((n,) + x.shape[:-1] + (n,))  # g[k, ..., d]
    log_x = np.log(x, out=np.full_like(x, -np.inf), where=x > 0.0)  # no log at x = 0
    g[0, ..., 0] = 0.0  # the d = 0 exponent holds no log x
    np.multiply(half_d[1:], log_x, out=g[0, ..., 1:])
    g[0] -= x / 2.0 + half_log_fact
    np.exp(g[0], out=g[0])
    rows = list(g)  # one view per row, shared by the three streams below
    np.multiply(s[0], rows[0], out=rows[1])
    for s_k, c_k, prev, cur, nxt in zip(s[1:], c[1:], rows, rows[1:], rows[2:]):
        np.multiply(s_k, cur, out=nxt)
        nxt -= c_k * prev
    return g


def _phase_assembly(g: np.ndarray, alpha: np.ndarray, phase, shift) -> np.ndarray:
    """The block from the table g of `_displacement_table` and alpha of `_alpha`: the phase row
    (((-1)^d conj u^d), u^d) e^{-i shift phase/2}, u = alpha/|alpha|, gathered per element and
    times g[min(row, col), |row - col|].  A scalar alpha gathers g with one flat `take`."""
    turns, signs, pick, lo, dist, flat = _displacement_tables(len(g))[6:]
    phases = signs * np.exp(np.multiply.outer(1j * np.angle(alpha), turns))
    phases *= np.exp(-0.5j * np.asarray(shift, float) * np.asarray(phase, float))[..., None]
    if alpha.ndim == 0:
        out = phases.take(pick)
        out *= g.take(flat)
        return out
    out = np.take(phases, pick, axis=-1)
    out *= np.moveaxis(g, 0, -2)[..., lo, dist]
    return out


def phase_shift_block(n: int, lam: float, phase, shift) -> np.ndarray:
    """Continuum N x N block of (translation by `shift`) o (multiplication e^{i phase y})
    in the basis of lam*y, batched over broadcast phase and shift: e^{-i shift phase/2}
    D(alpha), alpha = (lam shift + i phase/lam)/sqrt(2), with the Cahill-Glauber elements
    (Phys. Rev. 177 (1969) 1857) <k+d|D|k> = u^d g_k^(d), <k|D|k+d> = (-conj u)^d g_k^(d),
    u = alpha/|alpha|, g_k^(d) = sqrt(k!/(k+d)!) x^(d/2) e^(-x/2) L_k^(d)(x), x = |alpha|^2,
    by the stable three-term recurrence in k (the column recurrence in D|k> is unstable).

    The block is two pieces.  The table g_k^(d)(x) depends on x alone (`_displacement_table`),
    so D(alpha) and D(-alpha), and every alpha = 0, share it; the phase assembly
    (`_phase_assembly`) puts the phases of u and of the shift on it.  The coefficients, signs
    and gather indices depend on n alone and are built once per n.  The recurrence starts from
    g_0^(d) = x^(d/2) e^(-x/2) / sqrt(d!), formed in log space, exp(-x/2 + (d/2) log x -
    log(d!)/2), so it underflows to 0 where a product of its factors would overflow; alpha = 0
    gives the row (1, 0, 0, ...).  The recurrence runs k-major: g[k] is one contiguous row over
    (batch..., d), and s[k] = a[k] - b[k] x is formed for every k up front, so each step is
    g[k+1] = s[k] g[k] - c[k] g[k-1]."""
    alpha, x = _alpha(lam, phase, shift)
    return _phase_assembly(_displacement_table(n, x), alpha, phase, shift)


class BasisContext:
    """Per-axis ladder matrices, parity, displacements (`pad=None`: continuum
    elements; `pad=0`: exponentials of the truncated generators, exactly unitary
    on the N x N block, from y = Vy diag(w) Vy^T and F = Vy^T diag(i^n) Vy, both
    built once) and a cache of per-sector eigendecompositions."""

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
            # the Hermite functions are eigenfunctions of the Fourier transform, so
            # i d = lam^2 T^H y T with T = diag(i^n), and y's factors give d's
            self._wy, self._vy = np.linalg.eigh(self.y1d)
            self._turn = np.array([1, 1j, -1, -1j])[np.arange(n) % 4]
            self._f = (self._vy.T * self._turn) @ self._vy  # F = Vy^T T Vy, symmetric
        self._exp_cache: dict = {}
        self._tables: dict = {}  # pad=None: the tables of the last `dims` displacements, by x

    def parity_vector(self) -> np.ndarray:
        """Diagonal of the parity operator over the flattened basis."""
        if self.dims == 1:
            return self.parity1d
        return np.multiply.outer(self.parity1d, self.parity1d)

    # -- 1D displacements -------------------------------------------------------
    def phase_shift_1d(self, phase: float, shift: float) -> np.ndarray:
        """Matrix of (translation by `shift`) o (multiplication e^{i phase y})
        on the working block, with the semantics `pad` selects.

        On `pad=None` it is `phase_shift_block`, and the context keeps the read-only
        tables g_k^(d)(x) of its last `dims` displacements, keyed by the bytes of
        x = |alpha|^2.  A displacement whose |alpha| repeats one of them, as U(g^-1) and
        U(g) of a covariance check do per axis and the zero displacements of an
        isotropy sample do, pays only the phase assembly.

        On `pad=0` it is diag(i^-n) Vy diag(E_d) F diag(E_y) Vy^T, with
        E_y = e^{i phase w} and E_d = e^{i shift lam^2 w}, from two real GEMMs:
        k = (Vy g^T)^T with g = diag(E_d) F diag(E_y), then Vy k, each the real
        Vy times the float view of a complex N x N array (N x 2N)."""
        if self.pad is None:
            alpha, x = _alpha(self.lam, phase, shift)
            key = x.tobytes()
            table = self._tables.get(key)
            if table is None:
                table = _displacement_table(self.n, x)
                table.setflags(write=False)
                if len(self._tables) == self.dims:
                    del self._tables[next(iter(self._tables))]  # the oldest
                self._tables[key] = table
            return _phase_assembly(table, alpha, phase, shift)
        g_t = np.multiply.outer(np.exp(1j * phase * self._wy), np.exp(1j * shift * self.lam**2 * self._wy))
        g_t *= self._f  # in place: one N x N temporary fewer per call
        k = np.ascontiguousarray((self._vy @ g_t.view(float)).view(complex).T)
        out = (self._vy @ k.view(float)).view(complex)
        return np.multiply(out, self._turn.conj()[:, None], out=out)


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
    """Operator  sum_ab coef[a, b] (z_a z_b + z_b z_a)/2  over
    z = (1, y_1..y_d, p_1..p_d), p = -i d/dy, with `coef` a symmetric
    (2d+1, 2d+1) array of finite numbers.  Every z_a is Hermitian, so the
    operator is Hermitian exactly when `coef` is real."""

    coef: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=complex)
        if coef.ndim != 2 or coef.shape[0] % 2 != 1 or not (np.isfinite(coef).all() and np.array_equal(coef, coef.T)):
            raise ValueError("coef must be a finite symmetric (2 dims + 1)-square array")
        object.__setattr__(self, "coef", coef)

    @property
    def dims(self) -> int:
        return len(self.coef) // 2

    def __add__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        return QuadraticOperator(self.coef + other.coef)

    def __sub__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        return QuadraticOperator(self.coef - other.coef)

    def __mul__(self, s: complex) -> "QuadraticOperator":
        return QuadraticOperator(self.coef * s)

    __rmul__ = __mul__

    def cache_key(self) -> bytes:
        return self.coef.tobytes()


def linear(dims: int, const: complex = 0.0, y=0.0, p=0.0) -> QuadraticOperator:
    """const + y.y + p.p: coef[0, 0] = const and coef[0, a] = coef[a, 0] = half
    the coefficient of z_a."""
    coef = np.zeros((2 * dims + 1,) * 2, dtype=complex)
    coef[0, 0] = const
    coef[0, 1 : dims + 1] = coef[1 : dims + 1, 0] = 0.5 * np.asarray(y)
    coef[0, dims + 1 :] = coef[dims + 1 :, 0] = 0.5 * np.asarray(p)
    return QuadraticOperator(coef)


def product(a: QuadraticOperator, b: QuadraticOperator) -> QuadraticOperator:
    """Operator product a b of two at-most-linear operators with coefficient
    vectors u, v over z: the symmetric part of the outer product u v^T plus
    1/2 [a, b], the constant i/2 (u_y.v_p - u_p.v_y) by [y_j, p_k] = i delta_jk."""
    if a.coef[1:, 1:].any() or b.coef[1:, 1:].any():
        raise ValueError("product expects at-most-linear operators")
    d = a.dims
    u, v = 2 * a.coef[0], 2 * b.coef[0]
    u[0], v[0] = a.coef[0, 0], b.coef[0, 0]
    uv = np.outer(u, v)
    coef = 0.5 * (uv + uv.T)
    coef[0, 0] += 0.5j * (np.dot(u[1 : d + 1], v[d + 1 :]) - np.dot(u[d + 1 :], v[1 : d + 1]))
    return QuadraticOperator(coef)


def _axis_terms(q: QuadraticOperator, ctx: BasisContext) -> list[dict]:
    """The operator as a sum of products of N x N matrices on distinct axes, one
    {axis: matrix} per term, an axis left out acting as the identity: per axis
    i the terms on i alone (axis 0 carries the constant), then the products of a
    left factor on i and a right factor on each later axis j.  The matrices are
    the real y and d = d/dy, so p = -i d weighs d by -i."""
    dims, c = q.dims, q.coef
    if dims != ctx.dims:
        raise ValueError("operator/context dimension mismatch")
    y, d = ctx.y1d, ctx.d1d
    terms = []
    for i in range(dims):
        yi, pi = 1 + i, 1 + dims + i
        terms.append({i: (
            (c[0, 0] if i == 0 else 0.0) * np.eye(ctx.n) + 2 * c[0, yi] * y - 2j * c[0, pi] * d
            + c[yi, yi] * (y @ y) - c[pi, pi] * (d @ d) - 2j * c[yi, pi] * 0.5 * (y @ d + d @ y)
        )})
        for j in range(i + 1, dims):  # factors on axes i and j commute
            yj, pj = 1 + j, 1 + dims + j
            right_of_y = 2 * c[yi, yj] * y - 2j * c[yi, pj] * d
            right_of_d = -2 * c[pi, pj] * d - 2j * c[pi, yj] * y
            terms += [{i: left, j: right} for left, right in ((y, right_of_y), (d, right_of_d)) if right.any()]
    return terms


def op_apply(q: QuadraticOperator, coeffs: np.ndarray, ctx: BasisContext) -> np.ndarray:
    """Apply the operator to coefficient arrays of shape (..., N) in 1D or
    (..., N, N) in 2D, term by term with its N x N matrices per axis: A @ C on
    the first axis, C @ B.T on the last, X @ C @ Y.T for a product of factors
    on two axes."""
    last = ctx.dims - 1
    out = np.zeros(np.shape(coeffs), dtype=complex)
    for term in _axis_terms(q, ctx):
        arr = coeffs
        for axis in sorted(term, reverse=True):
            arr = arr @ term[axis].T if axis == last else term[axis] @ arr
        out += arr
    return out


def op_matrix(q: QuadraticOperator, ctx: BasisContext) -> np.ndarray:
    """Dense matrix of the operator over the flattened (row-major) basis: the
    sum over its terms of the Kronecker products of their per-axis matrices,
    accumulated in place one row block at a time, so no other N^dims x N^dims
    array is made."""
    n, eye = ctx.n, np.eye(ctx.n)
    mat = np.zeros((n,) * 2 * ctx.dims, dtype=complex)  # row axes, then column axes
    for term in _axis_terms(q, ctx):
        if ctx.dims == 1:
            mat += term[0]
        else:
            left, right = term.get(0, eye), term.get(1, eye)
            for a in range(n):  # mat[a, b, a', b'] += left[a, a'] right[b, b']
                mat[a] += left[a, None, :, None] * right[:, None, :]
    return mat.reshape(n**ctx.dims, n**ctx.dims)


def _sectors(mat: np.ndarray, swap: bool = False) -> list[np.ndarray]:
    """Connected components of the exact nonzero pattern of a square matrix,
    grouped by size: one (k, s) array of ascending indices per size s.  With
    `swap`, over a 2D basis, each index (a, b) is also joined to (b, a), so
    every component is closed under the axis swap."""
    rows, cols = np.nonzero(mat)
    label = np.arange(mat.shape[0])
    if swap:
        n = math.isqrt(mat.shape[0])
        rows, cols = np.concatenate([rows, label]), np.concatenate([cols, (label % n) * n + label // n])
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


def _solver(q: QuadraticOperator) -> str:
    """The solver `_sector_factors` takes for q, read off its coef: "real" where no
    term is odd in p (coef[0, p] and coef[y, p] all 0), "theta" where in 2D coef
    equals its image under Θ, y_i -> y_σ(i) and p_i -> -p_σ(i), bit for bit, and
    "complex" otherwise.  A coef with an imaginary part is not Hermitian: refused."""
    if q.coef.imag.any():
        raise ValueError("generator not Hermitian: its coef has an imaginary part")
    c, d = q.coef.real, q.dims
    if not (c[0, d + 1 :].any() or c[1 : d + 1, d + 1 :].any()):
        return "real"
    swap, sign = [0, 2, 1, 4, 3], np.array([1.0, 1.0, 1.0, -1.0, -1.0])  # Θ on z = (1, y1, y2, p1, p2)
    return "theta" if d == 2 and np.array_equal(c[np.ix_(swap, swap)] * np.outer(sign, sign), c) else "complex"


def _theta_form(mat: np.ndarray, idx: np.ndarray, n: int):
    """The real form R = Re(W^H B W) of a group (k, s) of swap-closed 2D sector
    blocks B that Θ = (axis swap) o (complex conjugation) leaves invariant,
    S conj(B) S = B, in the columns (e_p + e_q)/sqrt 2, i (e_p - e_q)/sqrt 2 per
    swapped pair p <-> q and e_f per fixed position.  R is read off the sub-blocks
    B_PP, B_PQ, B_PF, B_FP and B_FF, by B_QQ = conj B_PP, B_QP = conj B_PQ and the
    like; it is symmetric exactly when B is Hermitian.  Returned with the layouts,
    one (rows, p, q, f) per distinct count of fixed positions: the group's sectors
    `rows` that have it, their paired positions p < q = swap(p) and their fixed
    positions f, each (len(rows), m)."""
    k, s = idx.shape
    slot = np.full(n * n, -1)
    slot[idx] = np.arange(k * s).reshape(k, s)
    image, pos = slot[(idx % n) * n + idx // n] % s, np.arange(s)
    nfix = np.count_nonzero(image == pos, axis=1)
    real, layouts, root2 = np.empty((k, s, s)), [], np.sqrt(2.0)

    def sub(a, b):
        return mat[a[:, :, None], b[:, None, :]]

    for nf in np.unique(nfix):
        rows = np.flatnonzero(nfix == nf)
        p = np.nonzero(pos < image[rows])[1].reshape(len(rows), -1)
        f = np.nonzero(pos == image[rows])[1].reshape(len(rows), -1)
        q = np.take_along_axis(image[rows], p, 1)
        layouts.append((rows, p, q, f))
        gp, gq, gf = (np.take_along_axis(idx[rows], at, 1) for at in (p, q, f))
        pp, pq, pf, fp, ff = sub(gp, gp), sub(gp, gq), sub(gp, gf), sub(gf, gp), sub(gf, gf)
        m = p.shape[1]
        u, v, w = slice(None, m), slice(m, 2 * m), slice(2 * m, None)
        for r, c, part in (
            (u, u, pp.real + pq.real), (u, v, pq.imag - pp.imag), (u, w, root2 * pf.real),
            (v, u, pp.imag + pq.imag), (v, v, pp.real - pq.real), (v, w, root2 * pf.imag),
            (w, u, root2 * fp.real), (w, v, -root2 * fp.imag), (w, w, ff.real),
        ):
            real[rows, r, c] = part
    return real, layouts


def _theta_vectors(vr: np.ndarray, layouts) -> np.ndarray:
    """V = W V_r for the real eigenvectors V_r of `_theta_form`'s R, formed pairwise:
    row p of V is (u + i v)/sqrt 2 from V_r's rows u, v of the pair, row q its
    conjugate, and row f V_r's row f."""
    out = np.empty(vr.shape, dtype=complex)
    for rows, p, q, f in layouts:
        m, at = p.shape[1], rows[:, None]
        pair = np.empty((len(rows), m, vr.shape[-1]), dtype=complex)
        pair.real, pair.imag = vr[rows, :m], vr[rows, m : 2 * m]
        pair *= np.sqrt(0.5)
        out[at, p] = pair
        out[at, q] = pair.conj()
        out[at, f] = vr[rows, 2 * m :]
    return out


def _sector_factors(q: QuadraticOperator, ctx: BasisContext) -> list:
    """Per group of equal-size sectors of the assembled generator M: indices,
    eigenvalues and eigenvectors V, one array.  Entries outside the sectors are
    exactly 0, so the blocks' eigendecompositions are the matrix's.

    The solver comes from q's coef (`_solver`).  M is Hermitian exactly when
    coef is real, and real where no term is odd in p: then every block takes the
    real solver.  Where coef is invariant under the antiunitary Θ = (y1 <-> y2,
    p1 <-> p2) o (complex conjugation), each (a, b) is joined to (b, a) in the
    sectors, and Θ^2 = 1 makes every block real symmetric in a fixed sparse basis
    W (`_theta_form`; Wigner; Dyson, J. Math. Phys. 3 (1962) 1199).  H and J of
    cases A, F and G are Θ-invariant at every label set: Θ swaps P1 and P2 and
    maps K1 to -K2.  Any other generator takes the complex solver."""
    solver = _solver(q)
    mat = op_matrix(q, ctx)
    factors = []
    for idx in _sectors(mat, swap=solver == "theta"):
        if solver == "theta":
            block, layouts = _theta_form(mat, idx, ctx.n)
        else:
            block = mat[idx[:, :, None], idx[:, None, :]]
        w, v = np.linalg.eigh(block.real if solver == "real" else block)
        # stored complex: matmul would cast a real V to complex on every apply
        factors.append((idx, w, _theta_vectors(v, layouts) if solver == "theta" else v.astype(complex, copy=False)))
    return factors


def _exp_factors(q: QuadraticOperator, ctx: BasisContext) -> tuple[list, bool]:
    """The context's cached factors of q, `_sector_factors` stacked by `_stack_classes`, and
    whether any group is padded, so that `exp_apply` needs the spare slot."""
    key = q.cache_key()
    if key not in ctx._exp_cache:
        factors = _sector_factors(q, ctx)
        stacked = _stack_classes(factors, ctx.n**ctx.dims)
        ctx._exp_cache[key] = stacked, len(stacked) < len(factors)
    return ctx._exp_cache[key]


# Sectors below this size are stacked by size class: there a group's fixed cost, about ten
# NumPy calls, outweighs its arithmetic.  Above it padding costs more than it saves (at N = 32,
# padding G's J sectors of 150 to 225 slowed its apply from about 218 to 235 us).
STACK_BELOW = 64


def _stack_classes(factors: list, spare: int) -> list:
    """The groups of `factors` with sectors below STACK_BELOW stacked by size class
    [2^j, 2^(j+1)): one group per class, at the class's largest size s.  A smaller sector
    is padded to s with identity columns of V and zero eigenvalues, which `exp_apply`
    turns into identity blocks, at the index `spare` of a zero slot that it appends to the
    state and drops after.  A class of one size keeps its group as it is."""
    classes: dict[int, list] = {}
    for group in factors:
        s = group[0].shape[1]  # a size from STACK_BELOW up is its own class: its key exceeds every bit length below
        classes.setdefault(s.bit_length() if s < STACK_BELOW else s, []).append(group)
    stacked = []
    for members in classes.values():
        if len(members) == 1:
            stacked += members
            continue
        k, s = sum(len(idx) for idx, _, _ in members), members[-1][0].shape[1]
        idx_all, w_all, v_all = np.full((k, s), spare), np.zeros((k, s)), np.zeros((k, s, s), dtype=complex)
        v_all[:, np.arange(s), np.arange(s)] = 1.0
        row = 0
        for idx, w, v in members:
            rows, m = slice(row, row + len(idx)), idx.shape[1]
            idx_all[rows, :m], w_all[rows, :m], v_all[rows, :m, :m] = idx, w, v
            row += len(idx)
        stacked.append((idx_all, w_all, v_all))
    return stacked


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

    M must be Hermitian: a q whose `coef` is not real raises a `ValueError`.  The
    exponential is exactly unitary because it is evaluated through the
    eigendecomposition of M, one exact sector of M at a time: V e^{i t w} V^H x,
    with V^H x formed as conj(x^H V), so only V is stored.  Sectors of nearby sizes
    apply as one stacked group (`_stack_classes`); their padding reads and writes a zero
    slot appended to the state, which the result drops.
    """
    _warn_resolution(psi, "exp_apply input")
    stack, size = psi.coeffs.shape[: psi.coeffs.ndim - psi.dims], ctx.n**ctx.dims
    factors, padded = _exp_factors(q, ctx)
    vec = psi.coeffs.reshape(stack + (size,))
    if padded:  # the padding's zero slot, at index `size`
        vec = np.concatenate([vec, np.zeros(stack + (1,), dtype=vec.dtype)], axis=-1)
    out = np.empty(vec.shape, dtype=complex)
    for idx, w, v in factors:  # batched over each group's sectors
        x = vec[..., idx][..., None, :].conj() @ v  # x^H V, the conjugate of V^H x
        x = np.exp(1j * t * w) * x[..., 0, :].conj()
        out[..., idx] = (v @ x[..., None])[..., 0]
    return replace(psi, coeffs=out[..., :size].reshape(psi.coeffs.shape))


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

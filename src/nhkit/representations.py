"""All eleven families of induced unitary irreducible representations,
realized on truncated Hermite states (cases with function-space carriers) or
as explicit characters.

Group elements are given in the coordinates of the displayed group law,
g = center * time * (translation boost) * rotation.  A Hermite carrier factors
g = n_g * time(b) * rotation(phi) once per application, through the group law
itself (`nk_decompose`), which makes the homomorphism property exact at the operator
level, and composes U(n_g) with exponentials of the quadratic generators.  U(n)
is read off the generator table: e^{i(f alpha + m(theta - a.v/2))} exp(i(a.P + v.K))
with the linear P, K of the carrier, one phase/shift displacement (`_nilpotent_apply`).
On the grids of B and C each node sees n_g moved to the node, time(-tau t) n_g
time(tau t), and one little-group factor common to all nodes; on H, I and J the
same move transports the characters (rho, kappa).  H and J (cases A, F, G) and
the intertwiner W (B..E) solve the orbit invariants of `coadjoint` with
S = P^2 + K^2/tau^2 and X = P x K for quad and cross; the Hermite basis scale
lambda is read off H or W (`basis_scale`).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .coadjoint import OrbitClass, c4_form, casimir_matrix, quadratics
from .funcspace import (
    BasisContext,
    HermiteState,
    QuadraticOperator,
    displacement_apply,
    exp_apply,
    ladder_build,
    linear,
    op_apply,
    op_matrix,
    probe_state,
    product,
)
from .group import (
    GroupElement,
    Variant,
    Vec2,
    compose,
    pure_boost,
    pure_rotation,
    pure_time,
    pure_translation,
    central,
    random_element,
)


class OffGridError(ValueError):
    """A grid-carried representation was asked to shift by a non-lattice step."""


class StratumError(ValueError):
    """Labels and requested case (or element) do not live on the same stratum."""


# --------------------------------------------------------------------------
# labels
# --------------------------------------------------------------------------

_FUNCTION_CASES_2D = (OrbitClass.A, OrbitClass.F, OrbitClass.G)


@dataclass(frozen=True)
class RepLabels:
    """Labels of one irreducible representation.

    Only the fields meaningful for `orbit_class` are read; factories
    (`labels_case_a` ...) construct consistent sets.  kappa1/kappa2 are the
    characters of the time-translation/rotation factor (cases B..E, with
    kappa1 doubling as the little-group character of cases B/C); rho and
    kappa_vec are the translation/boost characters of cases H/I/J.
    """

    orbit_class: OrbitClass
    tau: float = 1.0
    f: float = 0.0
    m: float = 0.0
    C1: float = 0.0
    C2: float = 0.0
    C3: float = 0.0
    C4: float = 0.0
    C3p: float = 0.0
    C4p: float = 0.0
    C5: float = 0.0
    C5p: float = 0.0
    kappa1: float = 0.0
    kappa2: float = 0.0
    rho: Vec2 = field(default_factory=Vec2.zero)
    kappa_vec: Vec2 = field(default_factory=Vec2.zero)
    h: float = 0.0
    j: float = 0.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        cls, f, m, tau = self.orbit_class, self.f, self.m, self.tau
        if cls is OrbitClass.A:
            if f == 0.0 or m == 0.0 or f == m * tau or f == -m * tau:
                raise StratumError("class A needs f*m != 0 and f != +-m*tau")
        elif cls in (OrbitClass.B, OrbitClass.D):
            if f == 0.0 or f != m * tau:
                raise StratumError("classes B/D need f = m*tau != 0")
            if cls is OrbitClass.B and not self.C3 > 0.0:
                raise StratumError("class B needs C3 > 0")
        elif cls in (OrbitClass.C, OrbitClass.E):
            if f == 0.0 or f != -m * tau:
                raise StratumError("classes C/E need f = -m*tau != 0")
            if cls is OrbitClass.C and not self.C3p > 0.0:
                raise StratumError("class C needs C3' > 0")
        elif cls is OrbitClass.F:
            if f != 0.0 or m == 0.0:
                raise StratumError("class F needs f = 0, m != 0")
        elif cls is OrbitClass.G:
            if m != 0.0 or f == 0.0:
                raise StratumError("class G needs m = 0, f != 0")
        elif cls in (OrbitClass.H, OrbitClass.I, OrbitClass.J):
            if f != 0.0 or m != 0.0:
                raise StratumError("classes H/I/J need f = m = 0")
            if cls is not OrbitClass.H:  # I: rho + kappa^perp/tau = 0, J: rho - kappa^perp/tau = 0
                sign = 1.0 if cls is OrbitClass.I else -1.0
                if (self.rho + self.kappa_vec.perp() * (sign / tau)).norm() > 1e-12 * max(1.0, self.rho.norm()):
                    raise StratumError(f"class {cls.value} needs rho {'+' if sign > 0 else '-'} kappa^perp/tau = 0")


def labels_case_a(f: float, m: float, C1: float, C2: float, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.A, tau=tau, f=f, m=m, C1=C1, C2=C2)


def labels_case_b(m: float, C3: float, C4: float, kappa1: float = 0.0, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.B, tau=tau, f=m * tau, m=m, C3=C3, C4=C4, kappa1=kappa1)


def labels_case_c(m: float, C3p: float, C4p: float, kappa1: float = 0.0, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.C, tau=tau, f=-m * tau, m=m, C3p=C3p, C4p=C4p, kappa1=kappa1)


def labels_case_d(m: float, C4: float, C5: float, kappa1: float = 0.0, kappa2: float = 0.0, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.D, tau=tau, f=m * tau, m=m, C4=C4, C5=C5, kappa1=kappa1, kappa2=kappa2)


def labels_case_e(m: float, C4p: float, C5p: float, kappa1: float = 0.0, kappa2: float = 0.0, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.E, tau=tau, f=-m * tau, m=m, C4p=C4p, C5p=C5p, kappa1=kappa1, kappa2=kappa2)


def labels_case_f(m: float, C1: float, C2: float, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.F, tau=tau, f=0.0, m=m, C1=C1, C2=C2)


def labels_case_g(f: float, C1: float, C2: float, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.G, tau=tau, f=f, m=0.0, C1=C1, C2=C2)


def labels_case_h(rho: Vec2, kappa_vec: Vec2, tau: float = 1.0) -> RepLabels:
    c1, c2 = quadratics(rho, kappa_vec, tau)
    if not abs(c2) < 0.5 * tau * c1:
        raise StratumError("class H needs |rho x kappa| < (tau/2)(rho^2 + kappa^2/tau^2)")
    return RepLabels(OrbitClass.H, tau=tau, rho=rho, kappa_vec=kappa_vec, C1=c1, C2=c2)


def labels_case_i(kappa_vec: Vec2, C5: float, tau: float = 1.0) -> RepLabels:
    rho = kappa_vec.perp() * (-1.0 / tau)
    c1 = quadratics(rho, kappa_vec, tau)[0]
    return RepLabels(
        OrbitClass.I, tau=tau, rho=rho, kappa_vec=kappa_vec, C1=c1, C2=0.5 * tau * c1, C5=C5
    )


def labels_case_j(kappa_vec: Vec2, C5p: float, tau: float = 1.0) -> RepLabels:
    rho = kappa_vec.perp() * (1.0 / tau)
    c1 = quadratics(rho, kappa_vec, tau)[0]
    return RepLabels(
        OrbitClass.J, tau=tau, rho=rho, kappa_vec=kappa_vec, C1=c1, C2=-0.5 * tau * c1, C5p=C5p
    )


def labels_case_k(h: float, j: float, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.K, tau=tau, h=h, j=j)


# --------------------------------------------------------------------------
# element factorization g = n * time(b) * rotation(phi), and the factor n
# --------------------------------------------------------------------------

def nk_decompose(g: GroupElement) -> tuple[GroupElement, float, float]:
    """Rewrite g as n * time(b) * rotation(phi) with n nilpotent (b = phi = 0),
    computed through the group law itself."""
    n_star = compose(
        compose(g, pure_rotation(-g.phi, g.tau, g.variant)),
        pure_time(-g.b, g.tau, g.variant),
    )
    return n_star, g.b, g.phi


def _require_stratum(labels: RepLabels, g: GroupElement):
    """The representations act on oscillating elements of the labels' tau."""
    if g.variant is not Variant.OSCILLATING or g.tau != labels.tau:
        raise StratumError(f"case {labels.orbit_class.value} acts on oscillating elements of tau {labels.tau}")


def _nilpotent_rows(ops: dict[str, QuadraticOperator]) -> np.ndarray:
    """The real coefficient rows coef[0] of P1, P2, K1, K2: shape (4, 2 dims + 1)."""
    return np.array([ops[name].coef[0].real for name in ("P1", "P2", "K1", "K2")])


def _nilpotent_apply(rows: np.ndarray, labels: RepLabels, n: GroupElement, psi: HermiteState,
                     ctx: BasisContext) -> HermiteState:
    """U(n) psi for nilpotent n = (alpha, theta, a, v), read off `rows` (`_nilpotent_rows`).

    On the nilpotent subgroup the group law adds v_1.a_2 to theta_1 + theta_2, so theta is not an
    exponential coordinate: n = exp(alpha F + (theta - a.v/2) M + a.P + v.K), and U(n) is
    e^{i(f alpha + m(theta - a.v/2))} exp(i X) with X = a.P + v.K = c + u.y + w.p linear.  By
    Baker-Campbell-Hausdorff exp(i X) = e^{i(c + u.s/2)} T_s e^{i u.y}, s = -w: one displacement."""
    dims = ctx.dims
    x = np.array([n.a.x1, n.a.x2, n.v.x1, n.v.x2]) @ rows
    c, u, s = x[0], 2.0 * x[1 : dims + 1], -2.0 * x[dims + 1 :]
    out = displacement_apply(u, s, psi, ctx)
    scalar = labels.f * n.alpha + labels.m * (n.theta - 0.5 * n.a.dot(n.v)) + c + 0.5 * float(u @ s)
    return replace(out, coeffs=out.coeffs * cmath.exp(1j * scalar))


# --------------------------------------------------------------------------
# 2D carriers: cases A, F, G and the nilpotent representation
# --------------------------------------------------------------------------

def _operators_2d(labels: RepLabels) -> dict[str, QuadraticOperator]:
    """Translation and boost generators for the 2D carriers."""
    f, m, tau = labels.f, labels.m, labels.tau
    if labels.orbit_class is OrbitClass.F:
        p1 = linear(2, y=[-m, 0.0])
        p2 = linear(2, y=[0.0, -m])
        k1 = linear(2, p=[-1.0, 0.0])
        k2 = linear(2, p=[0.0, -1.0])
    else:
        p1 = linear(2, y=[-m, -f / (2 * tau)], p=[-1 / tau, 0.0])
        p2 = linear(2, y=[-f / (2 * tau), -m], p=[0.0, 1 / tau])
        k1 = linear(2, y=[0.0, f / 2], p=[-1.0, 0.0])
        k2 = linear(2, y=[-f / 2, 0.0], p=[0.0, -1.0])
    return {"P1": p1, "P2": p2, "K1": k1, "K2": k2}


def _invariants(ops: dict[str, QuadraticOperator], tau: float) -> tuple[QuadraticOperator, QuadraticOperator]:
    """S = P^2 + K^2/tau^2 and X = P x K = P1 K2 - P2 K1 of the linear generators."""
    p1, p2, k1, k2 = ops["P1"], ops["P2"], ops["K1"], ops["K2"]
    s_op = product(p1, p1) + product(p2, p2) + (product(k1, k1) + product(k2, k2)) * (1.0 / tau**2)
    return s_op, product(p1, k2) - product(p2, k1)


def generators(labels: RepLabels) -> dict[str, QuadraticOperator]:
    """Generator operators P, K, H, J (plus the central M, F) for the
    function-space cases A, F, G.  H and J solve the invariants
    (C1, C2) = (S, X) + M (H, J) of `coadjoint.casimir_matrix` by Cramer's rule."""
    case = labels.orbit_class
    if case not in _FUNCTION_CASES_2D:
        raise ValueError(f"generators available for cases A, F, G; got {case}")
    ops = _operators_2d(labels)
    f, m, tau = labels.f, labels.m, labels.tau
    s_op, x_op = _invariants(ops, tau)
    ident = linear(2, 1.0)
    m11, m12, m21, m22 = casimir_matrix(f, m, tau)
    det = m11 * m22 - m12 * m21
    if det == 0.0 or not math.isfinite(det):
        raise ValueError(f"the Casimir determinant -2m^2 + 2f^2/tau^2 is {det}")
    r1, r2 = labels.C1 * ident - s_op, labels.C2 * ident - x_op
    h_op = (1.0 / det) * (m22 * r1 - m12 * r2)
    j_op = (1.0 / det) * (m11 * r2 - m21 * r1)
    return {**ops, "H": h_op, "J": j_op, "M": linear(2, m), "F": linear(2, f)}


class InducedRep2D:
    """Cases A, F, G on 2D Hermite states."""

    def __init__(self, labels: RepLabels, ctx: BasisContext):
        if labels.orbit_class not in _FUNCTION_CASES_2D:
            raise ValueError("InducedRep2D covers cases A, F, G")
        if ctx.dims != 2:
            raise ValueError("case needs a 2D basis context")
        self.labels = labels
        self.ctx = ctx
        self.ops = generators(labels)
        self.rows = _nilpotent_rows(self.ops)

    def apply(self, g: GroupElement, psi: HermiteState) -> HermiteState:
        _require_stratum(self.labels, g)
        n_star, b, phi = nk_decompose(g)
        out = psi
        if phi != 0.0:
            out = exp_apply(self.ops["J"], phi, out, self.ctx)
        if b != 0.0:
            out = exp_apply(self.ops["H"], b, out, self.ctx)
        return _nilpotent_apply(self.rows, self.labels, n_star, out, self.ctx)

    def generator_matrix(self, direction: str) -> np.ndarray:
        return op_matrix(self.ops[direction], self.ctx)


def nilpotent_rep_apply(labels: RepLabels, g: GroupElement, psi: HermiteState, ctx: BasisContext) -> HermiteState:
    """Representation of the nilpotent subgroup for class-A labels."""
    if labels.orbit_class is not OrbitClass.A:
        raise StratumError("nilpotent representation carries class-A labels")
    if g.b != 0.0 or g.phi != 0.0:
        raise ValueError("nilpotent elements have b = phi = 0")
    _require_stratum(labels, g)
    return _nilpotent_apply(_nilpotent_rows(_operators_2d(labels)), labels, g, psi, ctx)


# --------------------------------------------------------------------------
# 1D inner machinery: cases B, C, D, E
# --------------------------------------------------------------------------

def _sigma(labels: RepLabels) -> float:
    """+1 on cases B/D (f = m tau), -1 on cases C/E (f = -m tau)."""
    return 1.0 if (labels.f > 0.0) == (labels.m > 0.0) else -1.0


def _operators_1d(labels: RepLabels) -> dict[str, QuadraticOperator]:
    """Translation and boost generators of the inner representation on one
    variable: cases B/D on the x-side, C/E mirrored; P1 carries the label
    sqrt(C3) of case B and sqrt(C3') of case C.  P2 = (sigma/tau)(p - sigma f y)
    and K1 = sigma f y - p commute exactly, so W's coef is exactly real."""
    f, tau, cls, sigma = labels.f, labels.tau, labels.orbit_class, _sigma(labels)
    label = math.sqrt({OrbitClass.B: labels.C3, OrbitClass.C: labels.C3p}.get(cls, 0.0))
    return {
        "P1": linear(1, label, p=[-1 / tau]),
        "P2": (sigma / tau) * linear(1, y=[-sigma * f], p=[1.0]),
        "K1": linear(1, y=[sigma * f], p=[-1.0]),
        "K2": linear(1, p=[-sigma]),
    }


def intertwiner_generator(labels: RepLabels) -> QuadraticOperator:
    """Quadratic generator of the little-group intertwiner W, the hat of
    w = h - sigma j/tau: it solves the invariant C4 = S + s X - k W (C4' on C/E)
    of `coadjoint.c4_form`."""
    sigma = _sigma(labels)
    s, k = c4_form(labels.f, labels.tau, sigma)
    c4 = labels.C4 if sigma > 0 else labels.C4p
    s_op, x_op = _invariants(_operators_1d(labels), labels.tau)
    return (1.0 / k) * (s_op + s * x_op - c4 * linear(1, 1.0))


def inner_rep_apply(labels: RepLabels, n: GroupElement, psi: HermiteState, ctx: BasisContext) -> HermiteState:
    """Inner nilpotent representation on L^2(R) (cases B/C/D/E)."""
    if n.b != 0.0 or n.phi != 0.0:
        raise ValueError("nilpotent elements have b = phi = 0")
    _require_stratum(labels, n)
    return _nilpotent_apply(_nilpotent_rows(_operators_1d(labels)), labels, n, psi, ctx)


# --------------------------------------------------------------------------
# grid carriers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarGrid:
    """Values at the nodes of a periodic grid: over the circle [0, 2pi) (1D,
    cases I, J) or the torus [0, 2 pi tau) x [0, 2pi) (2D, case H)."""

    coeffs: np.ndarray

    def __post_init__(self):
        shape = self.coeffs.shape
        if len(shape) not in (1, 2) or any(size <= 0 or size % 8 for size in shape):
            raise ValueError("a scalar grid has 1 or 2 axes, each a positive multiple of 8 nodes")


# The benchmark's names for the grid carriers, kept until its next change.
def CircleGridHermite(values: np.ndarray, lam: float) -> HermiteState:
    return HermiteState(dims=1, n=values.shape[-1], lam=lam, coeffs=values)


def CircleGridScalar(values: np.ndarray) -> ScalarGrid:
    return ScalarGrid(values)


def TorusGridScalar(values: np.ndarray, tau: float) -> ScalarGrid:
    return ScalarGrid(values)


def _grid_steps(shift: float, spacing: float, what: str) -> int:
    steps = shift / spacing
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9:
        raise OffGridError(f"{what}: shift {shift} is not a multiple of the grid spacing {spacing}")
    return int(rounded)


# --------------------------------------------------------------------------
# cases B and C
# --------------------------------------------------------------------------

class InducedRepBC:
    """Cases B/C: states are stacks of n_t 1D Hermite states, one per node of
    a 2pi-periodic grid; the coset variable shifts by b/tau + phi (B) or
    b/tau - phi (C), which must be an integer number of grid steps."""

    def __init__(self, labels: RepLabels, ctx: BasisContext, n_t: int = 16):
        if labels.orbit_class not in (OrbitClass.B, OrbitClass.C):
            raise ValueError("InducedRepBC covers cases B and C")
        if ctx.dims != 1:
            raise ValueError("cases B/C need a 1D basis context")
        if not (n_t > 0 and n_t % 8 == 0):
            raise ValueError(f"grid size must be a positive multiple of 8, got {n_t}")
        self.labels = labels
        self.ctx = ctx
        self.n_t = n_t
        self.spacing = 2.0 * math.pi / n_t
        self.w_gen = intertwiner_generator(labels)
        self.rows = _nilpotent_rows(_operators_1d(labels))
        self._sign = _sigma(labels)

    def apply(self, g: GroupElement, state: HermiteState) -> HermiteState:
        _require_stratum(self.labels, g)
        if state.dims != 1 or state.coeffs.shape != (self.n_t, self.ctx.n):
            raise ValueError(f"cases B/C act on a stack of {self.n_t} 1D states of {self.ctx.n} modes")
        tau = self.labels.tau
        n_g, b, phi = nk_decompose(g)
        steps = _grid_steps(b / tau + self._sign * phi, self.spacing, f"case {self.labels.orbit_class.value}")
        # node t_i's induction element time(-tau t_i) g time(tau (t_i - shift)) is n_i time(beta) rot(phi),
        # with n_i = time(-tau t_i) n_g time(tau t_i) and beta = b - tau shift the same at every node
        beta = -self._sign * tau * phi
        stack = replace(state, coeffs=np.roll(state.coeffs, steps, axis=0))
        if beta != 0.0:
            stack = exp_apply(self.w_gen, beta, stack, self.ctx)
        out = np.empty_like(state.coeffs)
        for i in range(self.n_t):
            t_i = tau * (i * self.spacing)
            n_i = compose(compose(pure_time(-t_i, tau), n_g), pure_time(t_i, tau))
            node = replace(stack, coeffs=stack.coeffs[i])
            out[i] = _nilpotent_apply(self.rows, self.labels, n_i, node, self.ctx).coeffs
        return replace(state, coeffs=out * cmath.exp(1j * beta * self.labels.kappa1))


# --------------------------------------------------------------------------
# cases D and E
# --------------------------------------------------------------------------

class InducedRepDE:
    """Cases D/E on a single 1D Hermite state: character of the
    time-rotation factor, inner nilpotent representation at vanishing label,
    and the two-term intertwiner W(b, phi)."""

    def __init__(self, labels: RepLabels, ctx: BasisContext):
        if labels.orbit_class not in (OrbitClass.D, OrbitClass.E):
            raise ValueError("InducedRepDE covers cases D and E")
        if ctx.dims != 1:
            raise ValueError("cases D/E need a 1D basis context")
        self.labels = labels
        self.ctx = ctx
        self.w_gen = intertwiner_generator(labels)
        self.rows = _nilpotent_rows(_operators_1d(labels))

    def apply(self, g: GroupElement, psi: HermiteState) -> HermiteState:
        _require_stratum(self.labels, g)
        lab = self.labels
        tau = lab.tau
        n_star, b, phi = nk_decompose(g)
        sigma = _sigma(lab)  # W runs along b - sigma tau phi, the C5 (C5') phase along b + sigma tau phi
        beta_w, beta_c = 0.5 * (b - sigma * tau * phi), 0.5 * (b + sigma * tau * phi)
        out = exp_apply(self.w_gen, beta_w, psi, self.ctx) if beta_w != 0.0 else psi
        scalar = beta_c * (lab.C5 if sigma > 0 else lab.C5p)
        out = _nilpotent_apply(self.rows, lab, n_star, out, self.ctx)
        character = b * lab.kappa1 + phi * lab.kappa2
        return replace(out, coeffs=out.coeffs * cmath.exp(1j * (scalar + character)))


# --------------------------------------------------------------------------
# cases H, I, J
# --------------------------------------------------------------------------

def _transported_character(labels: RepLabels, g: GroupElement, arg, rot):
    """cos(arg) u + sin(arg) w, u = rho_r.a + kappa_r.v and w = tau rho_r.v - kappa_r.a/tau with
    rho_r = R(rot) rho, kappa_r = R(rot) kappa: the f = m = 0 coadjoint transport of (rho, kappa)
    paired with g's (a, v).  Broadcasts over arg and rot, one per grid node."""
    tau, rho, kap, a, v = labels.tau, labels.rho, labels.kappa_vec, g.a, g.v
    cr, sr = np.cos(rot), np.sin(rot)
    r1, r2 = cr * rho.x1 - sr * rho.x2, sr * rho.x1 + cr * rho.x2
    k1, k2 = cr * kap.x1 - sr * kap.x2, sr * kap.x1 + cr * kap.x2
    u = r1 * a.x1 + r2 * a.x2 + k1 * v.x1 + k2 * v.x2
    w = tau * (r1 * v.x1 + r2 * v.x2) - (k1 * a.x1 + k2 * a.x2) / tau
    return np.cos(arg) * u + np.sin(arg) * w


class InducedRepHIJ:
    """Unextended cases on scalar grids (2D for H, 1D for I and J): the transported character
    composed with exact lattice shifts."""

    def __init__(self, labels: RepLabels):
        if labels.orbit_class not in (OrbitClass.H, OrbitClass.I, OrbitClass.J):
            raise ValueError("InducedRepHIJ covers cases H, I, J")
        self.labels = labels
        self.rank = 2 if labels.orbit_class is OrbitClass.H else 1  # of the grid

    def apply(self, g: GroupElement, state: ScalarGrid) -> ScalarGrid:
        _require_stratum(self.labels, g)
        lab, tau = self.labels, self.labels.tau
        if state.coeffs.ndim != self.rank:
            raise ValueError(f"case {lab.orbit_class.value} acts on a {self.rank}D grid")
        if lab.orbit_class is OrbitClass.H:  # b down the rows of [0, 2 pi tau), phi across the columns of [0, 2 pi)
            n1, n2 = state.coeffs.shape
            steps = (_grid_steps(g.b, 2.0 * math.pi * tau / n1, "case H time shift"),
                     _grid_steps(g.phi, 2.0 * math.pi / n2, "case H rotation shift"))
            t1 = np.arange(n1)[:, None] * (2.0 * math.pi * tau / n1)
            phase = _transported_character(lab, g, (t1 - g.b) / tau, np.arange(n2) * (2.0 * math.pi / n2))
        else:
            # the characters act on the nilpotent factor of the induction element in its
            # n * little-group factorization, whose (rho, kappa) the rotation by phi moves
            n_t = state.coeffs.shape[0]
            spacing = 2.0 * math.pi / n_t
            sign, c5 = (-1.0, lab.C5) if lab.orbit_class is OrbitClass.I else (1.0, -lab.C5p)
            shift = g.b / tau + sign * g.phi
            steps = (_grid_steps(shift, spacing, f"case {lab.orbit_class.value}"),)
            phase = tau * g.phi * c5 + _transported_character(lab, g, np.arange(n_t) * spacing - shift, g.phi)
        rolled = np.roll(state.coeffs, steps, axis=tuple(range(self.rank)))
        return replace(state, coeffs=np.exp(1j * phase) * rolled)


def rep_k(labels: RepLabels, g: GroupElement) -> complex:
    """Case K: the character e^{i b h} e^{i phi j}."""
    if labels.orbit_class is not OrbitClass.K:
        raise StratumError("rep_k carries class-K labels")
    _require_stratum(labels, g)
    return cmath.exp(1j * (g.b * labels.h + g.phi * labels.j))


# --------------------------------------------------------------------------
# generator verification
# --------------------------------------------------------------------------

_DIRECTION_BUILDERS = {
    "P1": lambda eps, tau: pure_translation(Vec2(eps, 0.0), tau),
    "P2": lambda eps, tau: pure_translation(Vec2(0.0, eps), tau),
    "K1": lambda eps, tau: pure_boost(Vec2(eps, 0.0), tau),
    "K2": lambda eps, tau: pure_boost(Vec2(0.0, eps), tau),
    "H": lambda eps, tau: pure_time(eps, tau),
    "J": lambda eps, tau: pure_rotation(eps, tau),
    "M": lambda eps, tau: central(0.0, eps, tau),
    "F": lambda eps, tau: central(eps, 0.0, tau),
}


def generator_check(
    labels: RepLabels,
    case: OrbitClass,
    direction: str,
    ctx: BasisContext,
    psi: HermiteState,
    eps: float = 1e-4,
) -> float:
    """Relative residual between the central-difference derivative of the
    representation along a one-parameter subgroup and i * (generator) psi."""
    rep = InducedRep2D(labels, ctx)
    build = _DIRECTION_BUILDERS[direction]
    plus = rep.apply(build(eps, labels.tau), psi)
    minus = rep.apply(build(-eps, labels.tau), psi)
    deriv = (plus.coeffs - minus.coeffs) / (2.0 * eps)
    target = 1j * op_apply(rep.ops[direction], psi.coeffs, ctx)
    denom = max(float(np.linalg.norm(target)), 1e-30)
    return float(np.linalg.norm(deriv - target)) / denom


def homomorphism_residual(apply, g1, g2, state):
    """Residuals of one pair: ||U(g1)U(g2)s - U(g1 g2)s||, | ||U(g1)U(g2)s|| - 1 |,
    and the state U(g1)U(g2)s itself."""
    a = apply(g1, apply(g2, state))
    b = apply(compose(g1, g2), state)
    return float(np.linalg.norm(a.coeffs - b.coeffs)), abs(float(np.linalg.norm(a.coeffs)) - 1.0), a


# --------------------------------------------------------------------------
# case table: one row per case a..k, and the check that rep-check runs on a row
# --------------------------------------------------------------------------

def _free(rng, tau, scale, grid):  # all eight coordinates from [-scale, scale]
    return random_element(rng, tau, scale=scale)


def _on_grid(reach: int, b_step):
    """A sampler: nilpotent coordinates from [-scale, scale], b and phi at most `reach` grid steps from 0."""
    def draw(rng, tau, scale, grid):
        v = rng.uniform(-scale, scale, size=6).tolist()
        b = b_step(tau, grid) * int(rng.integers(-reach, reach + 1))
        phi = (2.0 * math.pi / grid) * int(rng.integers(-reach, reach + 1))
        return GroupElement(v[0], v[1], b, Vec2(v[2], v[3]), Vec2(v[4], v[5]), phi, Variant.OSCILLATING, tau)
    return draw


_ON_CIRCLE = _on_grid(2, lambda tau, grid: tau * (2.0 * math.pi / grid))  # b/tau and phi on the circle: B, C, I, J
_ON_TORUS = _on_grid(3, lambda tau, grid: 2.0 * math.pi * tau / grid)  # b on [0, 2 pi tau), phi on [0, 2 pi): H


def basis_scale(labels: RepLabels) -> float:
    """Hermite basis scale of cases A..G, read off the quadratic block Q = coef[1:, 1:] of H
    (A, F, G) or of the intertwiner W (B..E): lambda = |det Q_yy / det Q_pp|^(1/(4d)).  For one
    axis and alpha y^2 + beta p^2 it is (alpha/beta)^(1/4), the scale of the ground state."""
    gen = generators(labels)["H"] if labels.orbit_class in _FUNCTION_CASES_2D else intertwiner_generator(labels)
    d, q = gen.dims, gen.coef.real[1:, 1:]
    return float(abs(np.linalg.det(q[:d, :d]) / np.linalg.det(q[d:, d:])) ** (1.0 / (4 * d)))


@dataclass(frozen=True)
class Case:
    """One case of the table."""

    factory: Callable[..., RepLabels]  # labels_case_*
    labels: dict  # canonical labels: well-conditioned keyword arguments of the factory
    carrier: Callable  # the representation class, or rep_k for the character K
    sampler: Callable  # (rng, tau, scale, grid) -> an element the carrier accepts
    homomorphism: float  # default budget
    n: int | None = None  # default Hermite basis size; None for cases h..k, which have no basis
    kmax: int | None = None  # default probe-state mode cutoff


CASES = {
    "a": Case(labels_case_a, {"f": 3.0, "m": 1.0, "C1": 1.0, "C2": 0.5}, InducedRep2D, _free, 1e-3,
              n=40, kmax=1),
    "b": Case(labels_case_b, {"m": 1.0, "C3": 1.0, "C4": 0.7, "kappa1": 0.3}, InducedRepBC, _ON_CIRCLE, 1e-3,
              n=96, kmax=2),
    "c": Case(labels_case_c, {"m": 1.0, "C3p": 1.0, "C4p": 0.7, "kappa1": 0.3}, InducedRepBC, _ON_CIRCLE, 1e-3,
              n=96, kmax=2),
    "d": Case(labels_case_d, {"m": 1.0, "C4": 0.8, "C5": 0.4, "kappa1": 0.2, "kappa2": 0.1}, InducedRepDE, _free,
              1e-3, n=80, kmax=2),
    "e": Case(labels_case_e, {"m": 1.0, "C4p": 0.8, "C5p": 0.4, "kappa1": 0.2, "kappa2": 0.1}, InducedRepDE, _free,
              1e-3, n=80, kmax=2),
    "f": Case(labels_case_f, {"m": 1.0, "C1": 1.0, "C2": 0.3}, InducedRep2D, _free, 1e-6,
              n=32, kmax=5),
    "g": Case(labels_case_g, {"f": 1.5, "C1": 0.8, "C2": 0.4}, InducedRep2D, _free, 1e-3,
              n=32, kmax=5),
    "h": Case(labels_case_h, {"rho": Vec2(1.0, 0.0), "kappa_vec": Vec2(0.0, 0.5)}, InducedRepHIJ, _ON_TORUS, 1e-6),
    "i": Case(labels_case_i, {"kappa_vec": Vec2(0.0, -1.0), "C5": 0.7}, InducedRepHIJ, _ON_CIRCLE, 1e-6),
    "j": Case(labels_case_j, {"kappa_vec": Vec2(0.3, -1.0), "C5p": 0.7}, InducedRepHIJ, _ON_CIRCLE, 1e-6),
    "k": Case(labels_case_k, {"h": 1.0, "j": -1.0}, rep_k, _free, 1e-6),
}


def case_setup(case: str, labels: RepLabels, rng, n: int | None = None, kmax: int | None = None, grid: int = 16):
    """(ctx, rep, state) for `case`, the state normalized and drawn from `rng`; None for
    what a case lacks (K lacks all three).  n and kmax default to the case's."""
    row = CASES[case]
    if row.carrier is rep_k:
        return None, None, None
    if row.carrier is InducedRepHIJ:  # random phases on the grid
        rep = InducedRepHIJ(labels)
        vals = np.exp(1j * rng.uniform(0, 2 * math.pi, (grid,) * rep.rank))
        return None, rep, ScalarGrid(vals / np.linalg.norm(vals))
    ctx = ladder_build(row.n if n is None else n, basis_scale(labels), dims=2 if row.carrier is InducedRep2D else 1, pad=0)
    psi = probe_state(ctx, rng, kmax=row.kmax if kmax is None else kmax)
    if row.carrier is not InducedRepBC:
        return ctx, row.carrier(labels, ctx), psi
    vals = np.array([psi.coeffs * np.exp(0.37j * i) for i in range(grid)])  # one rephased state per node
    return ctx, InducedRepBC(labels, ctx, n_t=grid), replace(psi, coeffs=vals / np.linalg.norm(vals))


def _worst(*residuals: float) -> float:  # the largest, or NaN if any is (max() drops a NaN after its first argument)
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def check_case(case: str, labels: RepLabels, rng, samples: int, scale: float, grid: int = 16,
               n: int | None = None, kmax: int | None = None) -> dict:
    """The metrics rep-check reports for `case`, all draws from `rng`: the worst residuals over
    `samples` pairs of elements from the case's sampler, and the generator residuals on 2D carriers."""
    row = CASES[case]
    ctx, rep, state = case_setup(case, labels, rng, n, kmax, grid)
    hom_max = unit_max = 0.0
    tail = None if ctx is None else 0.0  # no basis, so no truncation, for cases h..k
    for _ in range(samples):
        g1, g2 = row.sampler(rng, labels.tau, scale, grid), row.sampler(rng, labels.tau, scale, grid)
        if rep is None:  # the character K
            hom = abs(rep_k(labels, compose(g1, g2)) - rep_k(labels, g1) * rep_k(labels, g2))
            unit = abs(abs(rep_k(labels, g1)) - 1.0)
        else:
            hom, unit, out = homomorphism_residual(rep.apply, g1, g2, state)
            if ctx is not None:
                tail = _worst(tail, out.tail_fraction())
        hom_max, unit_max = _worst(hom_max, hom), _worst(unit_max, unit)
    directions = _DIRECTION_BUILDERS if row.carrier is InducedRep2D else ()
    return {
        "case": case,
        "hermite_n": None if ctx is None else ctx.n,
        "unitarity_max": unit_max,
        "homomorphism_max": hom_max,
        "generator_residuals": {d: generator_check(labels, labels.orbit_class, d, ctx, state) for d in directions},
        "resolution_metrics": {"max_tail_fraction": tail},
    }

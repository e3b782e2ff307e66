"""All eleven families of induced unitary irreducible representations,
realized on truncated Hermite states (cases with function-space carriers) or
as explicit characters.

Group elements are given in the coordinates of the displayed group law,
g = center * time * (translation boost) * rotation.  The representation
formulas compose nilpotent phase/shift factors with exponentials of the
quadratic intertwining generators in the factorization
g = n * time * rotation, so every application first rewrites the element
through the group law itself (`nk_decompose`); this is what makes the
homomorphism property hold exactly at the operator level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coadjoint import OrbitClass
from .funcspace import (
    BasisContext,
    HermiteState,
    QuadraticOperator,
    cross_product,
    displacement_apply,
    exp_apply,
    ladder_build,
    op_apply,
    op_matrix,
    probe_state,
    square_sum,
)
from .group import (
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
    n: int = 0
    n_prime: int = 0

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
            if cls is OrbitClass.I:
                resid = self.rho + self.kappa_vec.perp() * (1.0 / tau)
                if resid.norm() > 1e-12 * max(1.0, self.rho.norm()):
                    raise StratumError("class I needs rho + kappa^perp/tau = 0")
            if cls is OrbitClass.J:
                resid = self.rho - self.kappa_vec.perp() * (1.0 / tau)
                if resid.norm() > 1e-12 * max(1.0, self.rho.norm()):
                    raise StratumError("class J needs rho - kappa^perp/tau = 0")


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
    c1 = rho.sq() + kappa_vec.sq() / tau**2
    c2 = rho.cross(kappa_vec)
    if not abs(c2) < 0.5 * tau * c1:
        raise StratumError("class H needs |rho x kappa| < (tau/2)(rho^2 + kappa^2/tau^2)")
    return RepLabels(OrbitClass.H, tau=tau, rho=rho, kappa_vec=kappa_vec, C1=c1, C2=c2)


def labels_case_i(kappa_vec: Vec2, C5: float, tau: float = 1.0) -> RepLabels:
    rho = kappa_vec.perp() * (-1.0 / tau)
    c1 = rho.sq() + kappa_vec.sq() / tau**2
    return RepLabels(
        OrbitClass.I, tau=tau, rho=rho, kappa_vec=kappa_vec, C1=c1, C2=0.5 * tau * c1, C5=C5
    )


def labels_case_j(kappa_vec: Vec2, C5p: float, tau: float = 1.0) -> RepLabels:
    rho = kappa_vec.perp() * (1.0 / tau)
    c1 = rho.sq() + kappa_vec.sq() / tau**2
    return RepLabels(
        OrbitClass.J, tau=tau, rho=rho, kappa_vec=kappa_vec, C1=c1, C2=-0.5 * tau * c1, C5p=C5p
    )


def labels_case_k(h: float, j: float, tau: float = 1.0) -> RepLabels:
    return RepLabels(OrbitClass.K, tau=tau, h=h, j=j)


# --------------------------------------------------------------------------
# element factorization g = n * time(b) * rotation(phi)
# --------------------------------------------------------------------------

def nk_decompose(g: GroupElement) -> tuple[GroupElement, float, float]:
    """Rewrite g as n * time(b) * rotation(phi) with n nilpotent (b = phi = 0),
    computed through the group law itself."""
    n_star = compose(
        compose(g, pure_rotation(-g.phi, g.tau, g.variant)),
        pure_time(-g.b, g.tau, g.variant),
    )
    return n_star, g.b, g.phi


def _require_oscillating(g: GroupElement):
    if g.variant is not Variant.OSCILLATING:
        raise ValueError("representations are constructed for the oscillating variant")


# --------------------------------------------------------------------------
# 2D carriers: cases A, F, G and the nilpotent representation
# --------------------------------------------------------------------------

def _nilpotent_factors(cls: OrbitClass, f: float, m: float, tau: float, n: GroupElement):
    """Scalar phase exponent, linear phase vector w and shift s for the
    nilpotent factor of the 2D representations: the operator is
    e^{i(scalar)} M_{e^{i w.y}} T_s."""
    a, v = n.a, n.v
    a_rev = a.rev()
    if cls is OrbitClass.F:
        scalar = m * n.theta
        w = a * (-m)
        s = v
        return scalar, w, s
    # cases A and G share the f-pattern; A adds the m-phase, G has m = 0
    scalar = f * (n.alpha + 0.5 / tau * v.cross(a_rev)) + m * (n.theta - 0.5 / tau * a_rev.dot(a))
    w = (0.5 * v.perp() - (0.5 / tau) * a_rev.perp_neg()) * f - a * m
    s = v - a_rev * (1.0 / tau)
    return scalar, w, s


def _apply_nilpotent_2d(cls, labels, n: GroupElement, psi: HermiteState, ctx: BasisContext) -> HermiteState:
    scalar, w, s = _nilpotent_factors(cls, labels.f, labels.m, labels.tau, n)
    out = displacement_apply((w.x1, w.x2), (s.x1, s.x2), psi, ctx)
    coeff = cmath.exp(1j * (scalar + w.dot(s)))
    return replace(out, coeffs=out.coeffs * coeff)


def _operators_2d(labels: RepLabels) -> dict[str, QuadraticOperator]:
    """Translation and boost generators for the 2D carriers."""
    f, m, tau = labels.f, labels.m, labels.tau
    lin = QuadraticOperator.linear
    if labels.orbit_class is OrbitClass.F:
        p1 = lin(2, lin_y=[-m, 0.0])
        p2 = lin(2, lin_y=[0.0, -m])
        k1 = lin(2, lin_d=[1j, 0.0])
        k2 = lin(2, lin_d=[0.0, 1j])
    else:
        p1 = lin(2, lin_y=[-m, -f / (2 * tau)], lin_d=[1j / tau, 0.0])
        p2 = lin(2, lin_y=[-f / (2 * tau), -m], lin_d=[0.0, -1j / tau])
        k1 = lin(2, lin_y=[0.0, f / 2], lin_d=[1j, 0.0])
        k2 = lin(2, lin_y=[-f / 2, 0.0], lin_d=[0.0, 1j])
    return {"P1": p1, "P2": p2, "K1": k1, "K2": k2}


def generators(labels: RepLabels, case: OrbitClass | None = None) -> dict[str, QuadraticOperator]:
    """Generator operators P, K, H, J (plus the central M, F) for the
    function-space cases A, F, G."""
    case = labels.orbit_class if case is None else case
    if case is not labels.orbit_class:
        raise StratumError("labels do not match the requested case")
    if case not in _FUNCTION_CASES_2D:
        raise ValueError(f"generators available for cases A, F, G; got {case}")
    ops = _operators_2d(labels)
    f, m, tau = labels.f, labels.m, labels.tau
    s_op = square_sum([ops["P1"], ops["P2"]]) + square_sum([ops["K1"], ops["K2"]]) * (1.0 / tau**2)
    x_op = cross_product(ops["P1"], ops["P2"], ops["K1"], ops["K2"])
    ident = QuadraticOperator.constant(2, 1.0)
    if case is OrbitClass.A:
        delta = tau**2 * m**2 - f**2
        c_val = labels.C1 - (2 * f / (tau**2 * m)) * labels.C2
        h_op = (tau**2 * m / (2 * delta)) * (s_op - (2 * f / (tau**2 * m)) * x_op - c_val * ident)
        j_op = (1.0 / m) * (labels.C2 * ident - x_op + f * h_op)
    elif case is OrbitClass.F:
        h_op = (1.0 / (2 * m)) * (s_op - labels.C1 * ident)
        j_op = (1.0 / m) * (labels.C2 * ident - x_op)
    else:  # case G; the rotation exponent solves the C1 invariant for j
        h_op = (1.0 / f) * (x_op - labels.C2 * ident)
        j_op = (tau**2 / (2 * f)) * (labels.C1 * ident - s_op)
    out = dict(ops)
    out["H"] = h_op.flag_hermitian()
    out["J"] = j_op.flag_hermitian()
    out["M"] = QuadraticOperator.constant(2, m)
    out["F"] = QuadraticOperator.constant(2, f)
    return out


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

    def apply(self, g: GroupElement, psi: HermiteState) -> HermiteState:
        _require_oscillating(g)
        if g.tau != self.labels.tau:
            raise StratumError("element tau does not match the labels")
        n_star, b, phi = nk_decompose(g)
        out = psi
        if phi != 0.0:
            out = exp_apply(self.ops["J"], phi, out, self.ctx)
        if b != 0.0:
            out = exp_apply(self.ops["H"], b, out, self.ctx)
        return _apply_nilpotent_2d(self.labels.orbit_class, self.labels, n_star, out, self.ctx)

    def generator_matrix(self, direction: str) -> np.ndarray:
        return op_matrix(self.ops[direction], self.ctx)


def nilpotent_rep_apply(
    labels: RepLabels, g: GroupElement, psi: HermiteState, ctx: BasisContext
) -> HermiteState:
    """Representation of the nilpotent subgroup for class-A labels."""
    if labels.orbit_class is not OrbitClass.A:
        raise StratumError("nilpotent representation carries class-A labels")
    if g.b != 0.0 or g.phi != 0.0:
        raise ValueError("nilpotent elements have b = phi = 0")
    _require_oscillating(g)
    return _apply_nilpotent_2d(OrbitClass.A, labels, g, psi, ctx)


# --------------------------------------------------------------------------
# 1D inner machinery: cases B, C, D, E
# --------------------------------------------------------------------------

def _label_vec(labels: RepLabels) -> Vec2:
    cls = labels.orbit_class
    if cls is OrbitClass.B:
        return Vec2(math.sqrt(labels.C3), 0.0)
    if cls is OrbitClass.C:
        return Vec2(math.sqrt(labels.C3p), 0.0)
    return Vec2.zero()


def _operators_1d(labels: RepLabels) -> dict[str, QuadraticOperator]:
    f, tau = labels.f, labels.tau
    xv = _label_vec(labels)
    lin = QuadraticOperator.linear
    if labels.orbit_class in (OrbitClass.B, OrbitClass.D):
        p1 = lin(1, lin_d=[1j / tau], const=xv.x1)
        p2 = lin(1, lin_y=[-f / tau], lin_d=[-1j / tau], const=xv.x2)
        k1 = lin(1, lin_y=[f], lin_d=[1j])
        k2 = lin(1, lin_d=[1j])
    else:
        p1 = lin(1, lin_d=[1j / tau], const=xv.x1)
        p2 = lin(1, lin_y=[-f / tau], lin_d=[1j / tau], const=xv.x2)
        k1 = lin(1, lin_y=[-f], lin_d=[1j])
        k2 = lin(1, lin_d=[-1j])
    return {"P1": p1, "P2": p2, "K1": k1, "K2": k2}


def intertwiner_generator(labels: RepLabels) -> QuadraticOperator:
    """Quadratic generator of the little-group intertwiner W.

    B/D: +(tau/4f) (S + (2/tau) X - C4), the hat of H - J/tau.
    C/E: -(tau/4f) (S - (2/tau) X - C4'), the hat of H + J/tau.
    """
    f, tau = labels.f, labels.tau
    ops = _operators_1d(labels)
    s_op = square_sum([ops["P1"], ops["P2"]]) + square_sum([ops["K1"], ops["K2"]]) * (1.0 / tau**2)
    x_op = cross_product(ops["P1"], ops["P2"], ops["K1"], ops["K2"])
    ident = QuadraticOperator.constant(1, 1.0)
    if labels.orbit_class in (OrbitClass.B, OrbitClass.D):
        gen = (tau / (4 * f)) * (s_op + (2.0 / tau) * x_op - labels.C4 * ident)
    else:
        gen = (-tau / (4 * f)) * (s_op - (2.0 / tau) * x_op - labels.C4p * ident)
    return gen.flag_hermitian()


def _nilpotent_factors_1d(labels: RepLabels, n: GroupElement):
    """Scalar exponent, linear phase w and shift s of the inner nilpotent
    representation on one variable (cases B/D on the x-side, C/E mirrored).

    The central theta enters through e^{i m theta} with m = +-f/tau, which the
    cocycle of the group law requires."""
    f, tau = labels.f, labels.tau
    a1, a2 = n.a.x1, n.a.x2
    v1, v2 = n.v.x1, n.v.x2
    lab = _label_vec(labels)
    if labels.orbit_class in (OrbitClass.B, OrbitClass.D):
        m_eff = f / tau
        scalar = (
            f * (n.alpha - 0.5 * (v1 * v1 + v1 * v2 + (a2 * a2 - a1 * a2) / tau**2) + (v1 / tau) * (a2 - a1))
            + m_eff * n.theta
            + lab.dot(n.a)
        )
        w = f * (v1 - a2 / tau)
        s = v1 + v2 + a1 / tau - a2 / tau
    else:
        m_eff = -f / tau
        scalar = (
            f * (n.alpha + 0.5 * (v1 * v1 - v1 * v2 + (a2 * a2 + a1 * a2) / tau**2) + (v1 / tau) * (a1 + a2))
            + m_eff * n.theta
            + lab.dot(n.a)
        )
        w = -f * (v1 + a2 / tau)
        s = v1 - v2 + (a1 + a2) / tau
    return scalar, w, s


def inner_rep_apply(labels: RepLabels, n: GroupElement, psi: HermiteState, ctx: BasisContext) -> HermiteState:
    """Inner nilpotent representation on L^2(R) (cases B/C/D/E)."""
    if n.b != 0.0 or n.phi != 0.0:
        raise ValueError("nilpotent elements have b = phi = 0")
    scalar, w, s = _nilpotent_factors_1d(labels, n)
    out = displacement_apply([w], [s], psi, ctx)
    return replace(out, coeffs=out.coeffs * cmath.exp(1j * (scalar + w * s)))


# --------------------------------------------------------------------------
# grid carriers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleGridHermite:
    """Periodic grid over [0, 2pi) carrying one 1D Hermite state per node."""

    values: np.ndarray  # (n_t, N) complex
    lam: float

    def __post_init__(self):
        n_t = self.values.shape[0]
        if n_t % 8 != 0:
            raise ValueError("grid size must be divisible by 8")

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def tail_fraction(self) -> float:
        """Fraction of the squared norm, over all nodes, carried by the top
        quarter of modes (the cut of `HermiteState.tail_fraction`)."""
        n = self.values.shape[1]
        total = float(np.sum(np.abs(self.values) ** 2))
        if total == 0.0:
            return 0.0
        return float(np.sum(np.abs(self.values[:, n - n // 4 :]) ** 2)) / total


@dataclass(frozen=True)
class CircleGridScalar:
    """Periodic scalar grid over [0, 2pi)."""

    values: np.ndarray  # (n_t,) complex

    def __post_init__(self):
        if self.values.shape[0] % 8 != 0:
            raise ValueError("grid size must be divisible by 8")

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class TorusGridScalar:
    """Scalar grid over the 2-torus [0, 2 pi tau) x [0, 2 pi)."""

    values: np.ndarray  # (n1, n2) complex
    tau: float

    def __post_init__(self):
        n1, n2 = self.values.shape
        if n1 % 8 != 0 or n2 % 8 != 0:
            raise ValueError("grid sizes must be divisible by 8")

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


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
    """Cases B/C: states are 2pi-periodic grids of 1D Hermite states; the
    coset variable shifts by b/tau + phi (B) or b/tau - phi (C), which must be
    an integer number of grid steps."""

    def __init__(self, labels: RepLabels, ctx: BasisContext, n_t: int = 16):
        if labels.orbit_class not in (OrbitClass.B, OrbitClass.C):
            raise ValueError("InducedRepBC covers cases B and C")
        if ctx.dims != 1:
            raise ValueError("cases B/C need a 1D basis context")
        self.labels = labels
        self.ctx = ctx
        self.n_t = n_t
        self.spacing = 2.0 * math.pi / n_t
        self.w_gen = intertwiner_generator(labels)
        self._sign = 1.0 if labels.orbit_class is OrbitClass.B else -1.0

    def coset_shift(self, g: GroupElement) -> float:
        return g.b / self.labels.tau + self._sign * g.phi

    def apply(self, g: GroupElement, state: CircleGridHermite) -> CircleGridHermite:
        _require_oscillating(g)
        tau = self.labels.tau
        sigma = self.coset_shift(g)
        steps = _grid_steps(sigma, self.spacing, f"case {self.labels.orbit_class.value}")
        shifted = np.roll(state.values, steps, axis=0)
        out = np.empty_like(state.values)
        for i in range(self.n_t):
            t_i = i * self.spacing
            eta = compose(
                compose(inverse(pure_time(tau * t_i, tau)), g),
                pure_time(tau * (t_i - sigma), tau),
            )
            n_eta, b_eta, phi_eta = nk_decompose(eta)
            if abs(b_eta / tau + self._sign * phi_eta) > 1e-9:
                raise StratumError("induction element left the little group")
            psi = HermiteState(dims=1, n=self.ctx.n, lam=self.ctx.lam, coeffs=shifted[i])
            if b_eta != 0.0:
                psi = exp_apply(self.w_gen, b_eta, psi, self.ctx)
            psi = inner_rep_apply(self.labels, n_eta, psi, self.ctx)
            out[i] = psi.coeffs * cmath.exp(1j * b_eta * self.labels.kappa1)
        return replace(state, values=out)


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

    def apply(self, g: GroupElement, psi: HermiteState) -> HermiteState:
        _require_oscillating(g)
        lab = self.labels
        tau = lab.tau
        n_star, b, phi = nk_decompose(g)
        beta_minus = 0.5 * (b - tau * phi)
        beta_plus = 0.5 * (b + tau * phi)
        if lab.orbit_class is OrbitClass.D:
            out = exp_apply(self.w_gen, beta_minus, psi, self.ctx) if beta_minus != 0.0 else psi
            scalar = beta_plus * lab.C5
        else:
            out = exp_apply(self.w_gen, beta_plus, psi, self.ctx) if beta_plus != 0.0 else psi
            scalar = beta_minus * lab.C5p
        out = inner_rep_apply(lab, n_star, out, self.ctx)
        character = b * lab.kappa1 + phi * lab.kappa2
        return replace(out, coeffs=out.coeffs * cmath.exp(1j * (scalar + character)))


# --------------------------------------------------------------------------
# cases H, I, J
# --------------------------------------------------------------------------

class InducedRepHIJ:
    """Unextended cases on scalar grids: pointwise character phases composed
    with exact lattice shifts."""

    def __init__(self, labels: RepLabels):
        if labels.orbit_class not in (OrbitClass.H, OrbitClass.I, OrbitClass.J):
            raise ValueError("InducedRepHIJ covers cases H, I, J")
        self.labels = labels

    def apply(self, g: GroupElement, state):
        _require_oscillating(g)
        lab = self.labels
        tau = lab.tau
        rho, kap = lab.rho, lab.kappa_vec
        if lab.orbit_class is OrbitClass.H:
            if not isinstance(state, TorusGridScalar):
                raise TypeError("case H acts on TorusGridScalar")
            n1, n2 = state.values.shape
            steps1 = _grid_steps(g.b, 2.0 * math.pi * tau / n1, "case H time shift")
            steps2 = _grid_steps(g.phi, 2.0 * math.pi / n2, "case H rotation shift")
            t1 = np.arange(n1) * (2.0 * math.pi * tau / n1)
            t2 = np.arange(n2) * (2.0 * math.pi / n2)
            arg = (t1 - g.b) / tau
            ca, sa = np.cos(arg), np.sin(arg)
            cr, sr = np.cos(-t2), np.sin(-t2)
            # a^{-t2}, v^{-t2} per column
            a1 = cr * g.a.x1 - sr * g.a.x2
            a2 = sr * g.a.x1 + cr * g.a.x2
            v1 = cr * g.v.x1 - sr * g.v.x2
            v2 = sr * g.v.x1 + cr * g.v.x2
            big_a1 = np.outer(ca, a1) + tau * np.outer(sa, v1)
            big_a2 = np.outer(ca, a2) + tau * np.outer(sa, v2)
            big_b1 = np.outer(ca, v1) - np.outer(sa, a1) / tau
            big_b2 = np.outer(ca, v2) - np.outer(sa, a2) / tau
            phase = np.exp(
                1j * (rho.x1 * big_a1 + rho.x2 * big_a2 + kap.x1 * big_b1 + kap.x2 * big_b2)
            )
            rolled = np.roll(state.values, (steps1, steps2), axis=(0, 1))
            return replace(state, values=phase * rolled)

        if not isinstance(state, CircleGridScalar):
            raise TypeError("cases I/J act on CircleGridScalar")
        n_t = state.n_t
        spacing = 2.0 * math.pi / n_t
        if lab.orbit_class is OrbitClass.I:
            sigma = g.b / tau - g.phi
            extra = tau * g.phi * lab.C5
        else:
            sigma = g.b / tau + g.phi
            extra = -tau * g.phi * lab.C5p
        steps = _grid_steps(sigma, spacing, f"case {lab.orbit_class.value}")
        t = np.arange(n_t) * spacing
        arg = t - sigma
        ca, sa = np.cos(arg), np.sin(arg)
        # The characters act on the nilpotent factor of the induction element
        # in its n * little-group factorization, which rotates (rho, kappa) by
        # phi relative to the raw coordinates of that element (equality with
        # the group-operation construction is covered by a test).
        rho = rho.rot(g.phi)
        kap = kap.rot(g.phi)
        phase = np.exp(
            1j
            * (
                extra
                + rho.x1 * (g.a.x1 * ca + tau * g.v.x1 * sa)
                + rho.x2 * (g.a.x2 * ca + tau * g.v.x2 * sa)
                + kap.x1 * (g.v.x1 * ca - g.a.x1 * sa / tau)
                + kap.x2 * (g.v.x2 * ca - g.a.x2 * sa / tau)
            )
        )
        return replace(state, values=phase * np.roll(state.values, steps))


def rep_k(labels: RepLabels, g: GroupElement) -> complex:
    """Case K: the character e^{i b h} e^{i phi j}."""
    if labels.orbit_class is not OrbitClass.K:
        raise StratumError("rep_k carries class-K labels")
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
    av = a.coeffs if isinstance(a, HermiteState) else a.values
    bv = b.coeffs if isinstance(b, HermiteState) else b.values
    return float(np.linalg.norm(av - bv)), abs(float(np.linalg.norm(av)) - 1.0), a


# --------------------------------------------------------------------------
# case table: canonical labels, basis sizes, carriers and probe states
# --------------------------------------------------------------------------

LABEL_FACTORIES = dict(zip("abcdefghijk", (
    labels_case_a, labels_case_b, labels_case_c, labels_case_d, labels_case_e, labels_case_f,
    labels_case_g, labels_case_h, labels_case_i, labels_case_j, labels_case_k,
)))

# well-conditioned labels per case, as keyword arguments of its factory
CANONICAL_LABELS = {
    "a": {"f": 3.0, "m": 1.0, "C1": 1.0, "C2": 0.5},
    "b": {"m": 1.0, "C3": 1.0, "C4": 0.7, "kappa1": 0.3},
    "c": {"m": 1.0, "C3p": 1.0, "C4p": 0.7, "kappa1": 0.3},
    "d": {"m": 1.0, "C4": 0.8, "C5": 0.4, "kappa1": 0.2, "kappa2": 0.1},
    "e": {"m": 1.0, "C4p": 0.8, "C5p": 0.4, "kappa1": 0.2, "kappa2": 0.1},
    "f": {"m": 1.0, "C1": 1.0, "C2": 0.3},
    "g": {"f": 1.5, "C1": 0.8, "C2": 0.4},
    "h": {"rho": Vec2(1.0, 0.0), "kappa_vec": Vec2(0.0, 0.5)},
    "i": {"kappa_vec": Vec2(0.0, -1.0), "C5": 0.7},
    "j": {"kappa_vec": Vec2(0.3, -1.0), "C5p": 0.7},
    "k": {"h": 1.0, "j": -1.0},
}

# default Hermite basis size and probe-state mode cutoff of the Hermite-carried cases
HERMITE_N = {"a": 32, "b": 96, "c": 96, "d": 80, "e": 80, "f": 32, "g": 32}
PROBE_KMAX = {"a": 1, "b": 2, "c": 2, "d": 2, "e": 2, "f": 5, "g": 5}


def case_setup(case: str, labels: RepLabels, rng, n: int | None = None, kmax: int | None = None, grid: int = 16):
    """(ctx, rep, state) for case a..j: the basis context (None on scalar
    grids), the representation and a normalized carried state.  Only the
    state is drawn from `rng`; case k is the character `rep_k`."""
    if case in ("h", "i", "j"):
        vals = np.exp(1j * rng.uniform(0, 2 * math.pi, (grid, grid) if case == "h" else grid))
        vals = vals / np.linalg.norm(vals)
        state = TorusGridScalar(values=vals, tau=labels.tau) if case == "h" else CircleGridScalar(values=vals)
        return None, InducedRepHIJ(labels), state
    # basis scale: calibrated for A and G, sqrt(|m| tau) for F, (f^2/2)^(1/4) for B..E
    lam = {"a": 1.1, "f": math.sqrt(abs(labels.m) * labels.tau), "g": 1.0}.get(case, (labels.f**2 / 2.0) ** 0.25)
    ctx = ladder_build(HERMITE_N[case] if n is None else n, lam, dims=2 if case in ("a", "f", "g") else 1, pad=0)
    psi = probe_state(ctx, rng, kmax=PROBE_KMAX[case] if kmax is None else kmax)
    if case in ("a", "f", "g"):
        return ctx, InducedRep2D(labels, ctx), psi
    if case in ("d", "e"):
        return ctx, InducedRepDE(labels, ctx), psi
    vals = np.array([psi.coeffs * np.exp(0.37j * i) for i in range(grid)])
    state = CircleGridHermite(values=vals / np.linalg.norm(vals), lam=lam)
    return ctx, InducedRepBC(labels, ctx, n_t=grid), state

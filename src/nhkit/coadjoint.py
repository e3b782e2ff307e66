"""Coadjoint action of the extended oscillating Newton-Hooke group on the
dual of its Lie algebra, orbit invariants, and the classification of dual
points into the eleven orbit classes.

Class tags A..K follow the order of the orbit list: A (f != +-m tau, both
extensions alive), B/C (f = +-m tau, generic), D/E (f = +-m tau, degenerate),
F (f = 0), G (m = 0), H/I/J/K (both extensions null).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .group import GroupElement, Variant, Vec2

#: The primed coadjoint formulas compose as a left action,
#: coad(compose(g1, g2), xi) == coad(g1, coad(g2, xi)); this constant records
#: the convention once (its value is pinned by a dedicated test).
COADJOINT_IS_LEFT_ACTION = True

DEFAULT_CLASSIFY_TOL = 1e-8


@dataclass(frozen=True)
class DualPoint:
    """Point (f, m, h, p, k, j) on the dual of the extended algebra."""

    f: float
    m: float
    h: float
    p: Vec2
    k: Vec2
    j: float
    tau: float = 1.0

    def __post_init__(self):
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")


class OrbitClass(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    G = "G"
    H = "H"
    I = "I"
    J = "J"
    K = "K"

    @property
    def dimension(self) -> int:
        return _DIMENSIONS[self]

    @property
    def diffeomorphic_to(self) -> str:
        """Reported orbit topology (class metadata, not verified here)."""
        return _TOPOLOGY[self]


_DIMENSIONS = {
    OrbitClass.A: 4,
    OrbitClass.B: 4,
    OrbitClass.C: 4,
    OrbitClass.D: 2,
    OrbitClass.E: 2,
    OrbitClass.F: 4,
    OrbitClass.G: 4,
    OrbitClass.H: 4,
    OrbitClass.I: 2,
    OrbitClass.J: 2,
    OrbitClass.K: 0,
}

_TOPOLOGY = {
    OrbitClass.A: "R^4",
    OrbitClass.B: "R^3 x S^1",
    OrbitClass.C: "R^3 x S^1",
    OrbitClass.D: "R^2",
    OrbitClass.E: "R^2",
    OrbitClass.F: "R^4",
    OrbitClass.G: "R^4",
    OrbitClass.H: "R^2 x S^1 x S^1",
    OrbitClass.I: "R x S^1",
    OrbitClass.J: "R x S^1",
    OrbitClass.K: "point",
}


@dataclass(frozen=True)
class InvariantSet:
    """Orbit invariants; only the fields meaningful for the class are set."""

    C1: float | None = None
    C2: float | None = None
    C3: float | None = None
    C4: float | None = None
    C3p: float | None = None
    C4p: float | None = None
    C5: float | None = None
    C5p: float | None = None

    def as_dict(self) -> dict[str, float]:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def coad(g: GroupElement, xi: DualPoint) -> DualPoint:
    """Coadjoint action of g on xi (oscillating variant only).

    f and m are copied unchanged; p, k, h, j follow the primed formulas with
    the conventions u x v = u1 v2 - u2 v1 and u^{pi/2} = (-u2, u1).
    """
    if g.variant is not Variant.OSCILLATING:
        raise ValueError("coadjoint action implemented for the oscillating variant only")
    if g.tau != xi.tau:
        raise ValueError(f"tau mismatch: element {g.tau}, dual point {xi.tau}")
    tau = g.tau
    c = math.cos(g.b / tau)
    s = math.sin(g.b / tau)
    f, m = xi.f, xi.m
    p_rot = xi.p.rot(g.phi)
    k_rot = xi.k.rot(g.phi)
    a_perp = g.a.perp()
    v_perp = g.v.perp()

    p_new = (
        p_rot * c
        - k_rot * (s / tau)
        - (a_perp * c - v_perp * (tau * s)) * (f / tau**2)
        - (g.v * (tau * c) + g.a * s) * (m / tau)
    )
    k_new = (
        p_rot * (tau * s)
        + k_rot * c
        - (v_perp * (tau * c) + a_perp * s) * (f / tau)
        + (g.a * c - g.v * (tau * s)) * m
    )
    quad = g.a.sq() / tau**2 + g.v.sq()
    h_new = (
        xi.h
        - g.v.dot(p_rot)
        + g.a.dot(k_rot) / tau**2
        + g.v.dot(a_perp) * (f / tau**2)
        + 0.5 * m * quad
    )
    j_new = (
        xi.j
        + a_perp.dot(p_rot)
        + v_perp.dot(k_rot)
        - 0.5 * f * quad
        - m * g.v.dot(a_perp)
    )
    return DualPoint(f=f, m=m, h=h_new, p=p_new, k=k_new, j=j_new, tau=tau)


def time_translation(t: float, tau: float = 1.0) -> GroupElement:
    """Pure time translation by t (oscillating variant)."""
    return GroupElement(0.0, 0.0, t, Vec2.zero(), Vec2.zero(), 0.0, Variant.OSCILLATING, tau)


def _quadratics(xi: DualPoint) -> tuple[float, float, float]:
    """(p^2 + k^2/tau^2, p x k, tau)."""
    tau = xi.tau
    return xi.p.sq() + xi.k.sq() / tau**2, xi.p.cross(xi.k), tau


def classify(xi: DualPoint, tol: float = DEFAULT_CLASSIFY_TOL) -> tuple[OrbitClass, InvariantSet]:
    """Assign xi to its orbit class and return the class invariants.

    tol drives the stratum equality tests (f = +-m tau, C3 = 0,
    C2 = +-(tau/2) C1, C1 = 0); ties resolve toward the lower-dimensional
    class, making the map total and deterministic.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    tau = xi.tau
    f, m = xi.f, xi.m
    scale = max(abs(f), tau * abs(m))
    quad, cross, _ = _quadratics(xi)

    if scale == 0.0:
        return _classify_null(xi, tol)

    f_zero = abs(f) <= tol * scale
    m_zero = tau * abs(m) <= tol * scale
    if f_zero and m_zero:
        return _classify_null(xi, tol)
    if f_zero:
        c1 = quad - 2.0 * m * xi.h
        c2 = cross + m * xi.j
        return OrbitClass.F, InvariantSet(C1=c1, C2=c2)
    if m_zero:
        c1 = quad + (2.0 / tau**2) * f * xi.j
        c2 = cross - f * xi.h
        return OrbitClass.G, InvariantSet(C1=c1, C2=c2)

    if abs(f - m * tau) <= tol * scale:
        c3 = quad - (2.0 / tau) * cross
        c4 = quad + (2.0 / tau) * cross - (4.0 * f / tau) * (xi.h - xi.j / tau)
        if c3 > tol:
            return OrbitClass.B, InvariantSet(C3=c3, C4=c4)
        return OrbitClass.D, InvariantSet(C3=c3, C4=c4, C5=xi.h + xi.j / tau)
    if abs(f + m * tau) <= tol * scale:
        c3p = quad + (2.0 / tau) * cross
        c4p = quad - (2.0 / tau) * cross + (4.0 * f / tau) * (xi.h + xi.j / tau)
        if c3p > tol:
            return OrbitClass.C, InvariantSet(C3p=c3p, C4p=c4p)
        return OrbitClass.E, InvariantSet(C3p=c3p, C4p=c4p, C5p=xi.h - xi.j / tau)

    c1 = quad - 2.0 * m * xi.h + (2.0 / tau**2) * f * xi.j
    c2 = cross + m * xi.j - f * xi.h
    return OrbitClass.A, InvariantSet(C1=c1, C2=c2)


def _classify_null(xi: DualPoint, tol: float) -> tuple[OrbitClass, InvariantSet]:
    tau = xi.tau
    quad, cross, _ = _quadratics(xi)
    c1, c2 = quad, cross
    if c1 <= tol:
        return OrbitClass.K, InvariantSet(C1=c1, C2=c2)
    if abs(c2 - 0.5 * tau * c1) <= tol * c1:
        return OrbitClass.I, InvariantSet(C1=c1, C2=c2, C5=xi.h + xi.j / tau)
    if abs(c2 + 0.5 * tau * c1) <= tol * c1:
        return OrbitClass.J, InvariantSet(C1=c1, C2=c2, C5p=xi.h - xi.j / tau)
    return OrbitClass.H, InvariantSet(C1=c1, C2=c2)


def invariants(xi: DualPoint, tol: float = DEFAULT_CLASSIFY_TOL) -> InvariantSet:
    """Every invariant formula that applies at xi's (f, m) stratum."""
    return classify(xi, tol)[1]


def random_point_in_class(
    cls: OrbitClass, rng, tau: float = 1.0, spread: float = 1.5
) -> DualPoint:
    """Draw a random dual point lying exactly on the given class stratum.

    Stratum equalities (f = +-m tau, degenerate momentum configurations) are
    built in exactly so that classification at default tolerance is stable.
    """

    def unit_out(lo=0.3):
        w = rng.uniform(lo, spread, size=2) * rng.choice([-1.0, 1.0], size=2)
        return Vec2(float(w[0]), float(w[1]))

    def scalar():
        return float(rng.uniform(-spread, spread))

    h, j = scalar(), scalar()
    zero = Vec2.zero()
    if cls is OrbitClass.A:
        while True:
            f = float(rng.uniform(0.3, spread)) * float(rng.choice([-1.0, 1.0]))
            m = float(rng.uniform(0.3, spread)) * float(rng.choice([-1.0, 1.0]))
            if abs(f - m * tau) > 0.1 and abs(f + m * tau) > 0.1:
                break
        return DualPoint(f, m, h, unit_out(0.0), unit_out(0.0), j, tau)
    if cls in (OrbitClass.B, OrbitClass.D, OrbitClass.C, OrbitClass.E):
        m = float(rng.uniform(0.3, spread)) * float(rng.choice([-1.0, 1.0]))
        f = m * tau if cls in (OrbitClass.B, OrbitClass.D) else -m * tau
        if cls in (OrbitClass.B, OrbitClass.C):
            k = unit_out()
            p = unit_out()
            # keep the degeneracy measure (C3 or C3') safely away from zero
            x = p + (k.perp() * (1.0 / tau) if cls is OrbitClass.B else k.perp() * (-1.0 / tau))
            if x.sq() < 0.05:
                p = p + Vec2(0.5, 0.0)
        else:
            k = unit_out()
            p = k.perp() * (-1.0 / tau) if cls is OrbitClass.D else k.perp() * (1.0 / tau)
        return DualPoint(f, m, h, p, k, j, tau)
    if cls is OrbitClass.F:
        m = float(rng.uniform(0.3, spread)) * float(rng.choice([-1.0, 1.0]))
        return DualPoint(0.0, m, h, unit_out(0.0), unit_out(0.0), j, tau)
    if cls is OrbitClass.G:
        f = float(rng.uniform(0.3, spread)) * float(rng.choice([-1.0, 1.0]))
        return DualPoint(f, 0.0, h, unit_out(0.0), unit_out(0.0), j, tau)
    if cls is OrbitClass.H:
        while True:
            p, k = unit_out(), unit_out()
            quad = p.sq() + k.sq() / tau**2
            if quad > 0.1 and abs(p.cross(k)) < 0.45 * tau * quad:
                return DualPoint(0.0, 0.0, h, p, k, j, tau)
    if cls is OrbitClass.I:
        p = unit_out()
        return DualPoint(0.0, 0.0, h, p, p.perp() * tau, j, tau)
    if cls is OrbitClass.J:
        p = unit_out()
        return DualPoint(0.0, 0.0, h, p, p.perp() * (-tau), j, tau)
    if cls is OrbitClass.K:
        return DualPoint(0.0, 0.0, h, zero, zero, j, tau)
    raise ValueError(f"unknown class {cls}")

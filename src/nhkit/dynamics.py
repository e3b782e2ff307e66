"""Classical dynamics on the f = 0 orbits: canonical coordinates
(q = k/m, p), the exact oscillator flow with frequency 1/tau, its conserved
energy and angular momentum, and an independent Runge-Kutta reference
integrator used as a cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .coadjoint import DualPoint
from .group import Vec2


@dataclass(frozen=True)
class PhasePoint:
    q: Vec2
    p: Vec2
    m: float
    tau: float = 1.0
    C1: float = 0.0
    C2: float = 0.0

    def __post_init__(self):
        if self.m == 0.0:
            raise ValueError("mass label m must be nonzero")
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")


def evolve(x0: PhasePoint, t: float) -> PhasePoint:
    """Exact flow: q(t) = (p0/m) tau sin(t/tau) + q0 cos(t/tau),
    p(t) = p0 cos(t/tau) - (m/tau) q0 sin(t/tau)."""
    m, tau, q1, q2, p1, p2 = x0.m, x0.tau, x0.q.x1, x0.q.x2, x0.p.x1, x0.p.x2
    c = math.cos(t / tau)
    s = math.sin(t / tau)
    wq, wp = tau * s / m, m * s / tau
    q = Vec2(p1 * wq + q1 * c, p2 * wq + q2 * c)
    p = Vec2(p1 * c - q1 * wp, p2 * c - q2 * wp)
    return PhasePoint(q, p, m, tau, x0.C1, x0.C2)


def hamiltonian(x: PhasePoint) -> float:
    """Energy h = p^2/(2m) + m q^2/(2 tau^2) - C1/(2m); the additive constant
    is pinned so that the value equals the orbit coordinate h."""
    return x.p.sq() / (2.0 * x.m) + x.m * x.q.sq() / (2.0 * x.tau**2) - x.C1 / (2.0 * x.m)


def angular_momentum(x: PhasePoint) -> float:
    """j = C2/m - p x q."""
    return x.C2 / x.m - x.p.cross(x.q)


def integrate_reference(x0: PhasePoint, t: float, dt: float) -> PhasePoint:
    """Classical fixed-step RK4 for dq/dt = p/m, dp/dt = -(m/tau^2) q.

    Deliberately independent of `evolve`; used as the cross-check oracle.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    m, tau = x0.m, x0.tau

    def rhs(q1, q2, p1, p2):
        return (p1 / m, p2 / m, -m / tau**2 * q1, -m / tau**2 * q2)

    q1, q2, p1, p2 = x0.q.x1, x0.q.x2, x0.p.x1, x0.p.x2
    n_full, rem = divmod(abs(t), dt)
    sign = 1.0 if t >= 0 else -1.0
    steps = [sign * dt] * int(n_full)
    if rem > 1e-15 * max(1.0, abs(t)):
        steps.append(sign * rem)
    for h in steps:
        k1 = rhs(q1, q2, p1, p2)
        k2 = rhs(q1 + 0.5 * h * k1[0], q2 + 0.5 * h * k1[1], p1 + 0.5 * h * k1[2], p2 + 0.5 * h * k1[3])
        k3 = rhs(q1 + 0.5 * h * k2[0], q2 + 0.5 * h * k2[1], p1 + 0.5 * h * k2[2], p2 + 0.5 * h * k2[3])
        k4 = rhs(q1 + h * k3[0], q2 + h * k3[1], p1 + h * k3[2], p2 + h * k3[3])
        q1 += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        q2 += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        p1 += h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        p2 += h / 6.0 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    return replace(x0, q=Vec2(q1, q2), p=Vec2(p1, p2))


def to_dual(x: PhasePoint) -> DualPoint:
    """Dual point on the f = 0 orbit carrying the same data: k = m q,
    h and j evaluated from the conserved quantities."""
    return DualPoint(
        f=0.0,
        m=x.m,
        h=hamiltonian(x),
        p=x.p,
        k=x.q * x.m,
        j=angular_momentum(x),
        tau=x.tau,
    )


def from_dual(xi: DualPoint, C1: float, C2: float) -> PhasePoint:
    if xi.m == 0.0:
        raise ValueError("dual point must have m != 0")
    return PhasePoint(q=xi.k * (1.0 / xi.m), p=xi.p, m=xi.m, tau=xi.tau, C1=C1, C2=C2)


def flow_matrix(m: float, tau: float, t: float) -> list[list[float]]:
    """Matrix of the exact flow on (q1, q2, p1, p2); symplectic for all t."""
    c = math.cos(t / tau)
    s = math.sin(t / tau)
    a = tau * s / m
    b = -m * s / tau
    return [
        [c, 0.0, a, 0.0],
        [0.0, c, 0.0, a],
        [b, 0.0, c, 0.0],
        [0.0, b, 0.0, c],
    ]

"""Extended Newton-Hooke group in 2+1 dimensions: elements, composition,
inversion and the action on space-time.

Elements carry the extended coordinates (alpha, theta, b, a, v, phi) together
with the characteristic time tau and a variant flag.  The oscillating variant
uses circular functions of b/tau, the expanding variant hyperbolic ones.  The
hyperbolic form is obtained by the substitution tau -> i*tau carried out on
the circular form, which keeps every axiom intact; concretely this flips the
sign of each sine that enters with a 1/tau weight (see `_TimeFns`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Vec2:
    """Plane vector with the conventions u.v = u1 v1 + u2 v2 and
    u x v = u1 v2 - u2 v1."""

    x1: float
    x2: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x1, -self.x2)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x1 * s, self.x2 * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x1 * other.x1 + self.x2 * other.x2

    def cross(self, other: "Vec2") -> float:
        return self.x1 * other.x2 - self.x2 * other.x1

    def sq(self) -> float:
        return self.x1 * self.x1 + self.x2 * self.x2

    def norm(self) -> float:
        return math.hypot(self.x1, self.x2)

    def rot(self, phi: float) -> "Vec2":
        """Counterclockwise rotation by phi."""
        c, s = math.cos(phi), math.sin(phi)
        return Vec2(c * self.x1 - s * self.x2, s * self.x1 + c * self.x2)

    def perp(self) -> "Vec2":
        """Rotation by +pi/2, u^{pi/2} = (-u2, u1), so that u.cross(v) == v.dot(u.perp())."""
        return Vec2(-self.x2, self.x1)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x1, self.x2)

    @staticmethod
    def zero() -> "Vec2":
        return Vec2(0.0, 0.0)


class Variant(Enum):
    OSCILLATING = "oscillating"
    EXPANDING = "expanding"


class _TimeFns:
    """Scalar helpers c(t), s+(t), s-(t) for one variant and tau.

    Oscillating: c = cos(t/tau), s+ = tau sin(t/tau), s- = sin(t/tau)/tau.
    Expanding:   c = cosh(t/tau), s+ = tau sinh(t/tau), s- = -sinh(t/tau)/tau.
    kappa is the coefficient of the F-cocycle: +1/tau^2 resp. -1/tau^2.
    """

    __slots__ = ("tau", "kappa", "_circ")

    def __init__(self, variant: Variant, tau: float):
        self.tau = tau
        self._circ = variant is Variant.OSCILLATING
        self.kappa = (1.0 if self._circ else -1.0) / (tau * tau)

    def c(self, t: float) -> float:
        x = t / self.tau
        return math.cos(x) if self._circ else math.cosh(x)

    def s_plus(self, t: float) -> float:
        x = t / self.tau
        return self.tau * (math.sin(x) if self._circ else math.sinh(x))

    def s_minus(self, t: float) -> float:
        x = t / self.tau
        return (math.sin(x) if self._circ else -math.sinh(x)) / self.tau


@dataclass(frozen=True)
class GroupElement:
    """Extended group element (alpha, theta, b, a, v, phi; variant, tau).

    alpha and theta are the two central extension parameters, b the time
    translation, a the space translation, v the boost and phi the rotation
    angle (an unbounded real; composition adds angles without reduction).
    """

    alpha: float
    theta: float
    b: float
    a: Vec2
    v: Vec2
    phi: float
    variant: Variant = Variant.OSCILLATING
    tau: float = 1.0

    def __post_init__(self):
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")

    @staticmethod
    def identity(variant: Variant = Variant.OSCILLATING, tau: float = 1.0) -> "GroupElement":
        return GroupElement(0.0, 0.0, 0.0, Vec2.zero(), Vec2.zero(), 0.0, variant, tau)

    def is_identity(self, tol: float = 0.0) -> bool:
        return (
            abs(self.alpha) <= tol
            and abs(self.theta) <= tol
            and abs(self.b) <= tol
            and abs(self.a.x1) <= tol
            and abs(self.a.x2) <= tol
            and abs(self.v.x1) <= tol
            and abs(self.v.x2) <= tol
            and abs(self.phi) <= tol
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "theta": self.theta,
                "b": self.b,
                "a": [self.a.x1, self.a.x2],
                "v": [self.v.x1, self.v.x2],
                "phi": self.phi,
                "variant": self.variant.value,
                "tau": self.tau,
            }
        )

    @staticmethod
    def from_json(text: str) -> "GroupElement":
        d = json.loads(text)
        return GroupElement(
            alpha=float(d["alpha"]),
            theta=float(d["theta"]),
            b=float(d["b"]),
            a=Vec2(*map(float, d["a"])),
            v=Vec2(*map(float, d["v"])),
            phi=float(d["phi"]),
            variant=Variant(d.get("variant", "oscillating")),
            tau=float(d.get("tau", 1.0)),
        )


def pure_time(b: float, tau: float = 1.0, variant: Variant = Variant.OSCILLATING) -> GroupElement:
    return GroupElement(0.0, 0.0, b, Vec2.zero(), Vec2.zero(), 0.0, variant, tau)


def pure_rotation(phi: float, tau: float = 1.0, variant: Variant = Variant.OSCILLATING) -> GroupElement:
    return GroupElement(0.0, 0.0, 0.0, Vec2.zero(), Vec2.zero(), phi, variant, tau)


def pure_translation(a: Vec2, tau: float = 1.0, variant: Variant = Variant.OSCILLATING) -> GroupElement:
    return GroupElement(0.0, 0.0, 0.0, a, Vec2.zero(), 0.0, variant, tau)


def pure_boost(v: Vec2, tau: float = 1.0, variant: Variant = Variant.OSCILLATING) -> GroupElement:
    return GroupElement(0.0, 0.0, 0.0, Vec2.zero(), v, 0.0, variant, tau)


def central(alpha: float, theta: float, tau: float = 1.0, variant: Variant = Variant.OSCILLATING) -> GroupElement:
    return GroupElement(alpha, theta, 0.0, Vec2.zero(), Vec2.zero(), 0.0, variant, tau)


def random_element(rng, tau: float = 1.0, variant: Variant = Variant.OSCILLATING, scale: float = 2.0) -> GroupElement:
    """An element with all eight coordinates drawn uniformly from [-scale, scale] by `rng`."""
    v = rng.uniform(-scale, scale, size=8)
    return GroupElement(v[0], v[1], v[2], Vec2(v[3], v[4]), Vec2(v[5], v[6]), v[7], variant, tau)


def _check_compatible(g1: GroupElement, g2: GroupElement) -> None:
    if g1.variant is not g2.variant:
        raise ValueError("cannot compose elements of different variants")
    if g1.tau != g2.tau:
        raise ValueError(f"cannot compose elements with tau {g1.tau} != {g2.tau}")


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Product g1 * g2 (g1 acts after g2 on space-time).

    The time functions are evaluated at the second factor's time translation,
    and the second factor's space/boost parameters are rotated by the first
    factor's angle.
    """
    _check_compatible(g1, g2)
    fn = _TimeFns(g1.variant, g1.tau)
    c = fn.c(g2.b)
    sp = fn.s_plus(g2.b)
    sm = fn.s_minus(g2.b)

    a2r = g2.a.rot(g1.phi)
    v2r = g2.v.rot(g1.phi)

    a_mix = g1.a * c + g1.v * sp        # coefficient bundle of cos/sin on the first factor
    v_mix = g1.v * c - g1.a * sm

    alpha = (
        g1.alpha
        + g2.alpha
        + 0.5 * fn.kappa * a_mix.cross(a2r)
        + 0.5 * v_mix.cross(v2r)
    )
    theta = (
        g1.theta
        + g2.theta
        + 0.5 * (g1.v.sq() * sp - g1.a.sq() * sm) * c
        - g1.a.dot(g1.v) * sp * sm
        + g1.v.dot(a2r) * c
        - g1.a.dot(a2r) * sm
    )
    return GroupElement(
        alpha=alpha,
        theta=theta,
        b=g1.b + g2.b,
        a=a_mix + a2r,
        v=v_mix + v2r,
        phi=g1.phi + g2.phi,
        variant=g1.variant,
        tau=g1.tau,
    )


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse of g."""
    fn = _TimeFns(g.variant, g.tau)
    c = fn.c(g.b)
    sp = fn.s_plus(g.b)
    sm = fn.s_minus(g.b)
    theta = -g.theta - 0.5 * (g.v.sq() * sp - g.a.sq() * sm) * c + g.a.dot(g.v) * c * c
    a_inv = (g.v * sp - g.a * c).rot(-g.phi)
    v_inv = (-1.0 * g.v * c - g.a * sm).rot(-g.phi)
    return GroupElement(
        alpha=-g.alpha,
        theta=theta,
        b=-g.b,
        a=a_inv,
        v=v_inv,
        phi=-g.phi,
        variant=g.variant,
        tau=g.tau,
    )


def act_spacetime(g: GroupElement, t: float, x: Vec2) -> tuple[float, Vec2]:
    """Action on a space-time point: (t + b, x^phi + v s+(t) + a c(t)).

    The central parameters alpha, theta do not enter.
    """
    fn = _TimeFns(g.variant, g.tau)
    x_new = x.rot(g.phi) + g.v * fn.s_plus(t) + g.a * fn.c(t)
    return (t + g.b, x_new)


def unextended_project(g: GroupElement) -> GroupElement:
    """Drop the central coordinates (used to test that the projection is a
    group homomorphism onto the unextended law)."""
    return GroupElement(0.0, 0.0, g.b, g.a, g.v, g.phi, g.variant, g.tau)


def element_distance(g1: GroupElement, g2: GroupElement) -> float:
    """Max-norm distance between coordinate tuples (same variant and tau)."""
    _check_compatible(g1, g2)
    return max(
        abs(g1.alpha - g2.alpha),
        abs(g1.theta - g2.theta),
        abs(g1.b - g2.b),
        abs(g1.a.x1 - g2.a.x1),
        abs(g1.a.x2 - g2.a.x2),
        abs(g1.v.x1 - g2.v.x1),
        abs(g1.v.x2 - g2.v.x2),
        abs(g1.phi - g2.phi),
    )

"""Extended Newton-Hooke group in 2+1 dimensions: elements, composition,
inversion and the action on space-time.

Elements carry the extended coordinates (alpha, theta, b, a, v, phi) together
with the characteristic time tau and a variant flag.  The oscillating variant
uses circular functions of b/tau, the expanding variant hyperbolic ones.  The
hyperbolic form is obtained by the substitution tau -> i*tau carried out on
the circular form, which keeps every axiom intact; concretely this flips the
sign of each sine that enters with a 1/tau weight and of the cocycle
coefficient kappa (see `_time_fns`).  The group law works on the coordinates
as plain floats and builds only the objects it returns.
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


def _time_fns(variant: Variant, tau: float, t: float) -> tuple[float, float, float, float]:
    """(c, s+, s-, kappa) at time t.

    Oscillating: c = cos(t/tau), s+ = tau sin(t/tau), s- = sin(t/tau)/tau, kappa = 1/tau^2.
    Expanding:   c = cosh(t/tau), s+ = tau sinh(t/tau), s- = -sinh(t/tau)/tau, kappa = -1/tau^2.
    kappa is the coefficient of the F-cocycle.
    """
    x = t / tau
    if variant is Variant.OSCILLATING:
        s = math.sin(x)
        return math.cos(x), tau * s, s / tau, 1.0 / (tau * tau)
    s = math.sinh(x)
    return math.cosh(x), tau * s, -s / tau, -1.0 / (tau * tau)


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
    v = rng.uniform(-scale, scale, size=8).tolist()
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
    c, sp, sm, kappa = _time_fns(g1.variant, g1.tau, g2.b)
    a1, a2, v1, v2 = g1.a.x1, g1.a.x2, g1.v.x1, g1.v.x2
    cr, sr = math.cos(g1.phi), math.sin(g1.phi)
    # the second factor's a and v rotated by the first factor's angle
    ar1, ar2 = cr * g2.a.x1 - sr * g2.a.x2, sr * g2.a.x1 + cr * g2.a.x2
    vr1, vr2 = cr * g2.v.x1 - sr * g2.v.x2, sr * g2.v.x1 + cr * g2.v.x2
    am1, am2 = a1 * c + v1 * sp, a2 * c + v2 * sp  # coefficient bundle of cos/sin on the first factor
    vm1, vm2 = v1 * c - a1 * sm, v2 * c - a2 * sm
    alpha = g1.alpha + g2.alpha + 0.5 * kappa * (am1 * ar2 - am2 * ar1) + 0.5 * (vm1 * vr2 - vm2 * vr1)
    theta = (
        g1.theta
        + g2.theta
        + 0.5 * ((v1 * v1 + v2 * v2) * sp - (a1 * a1 + a2 * a2) * sm) * c
        - (a1 * v1 + a2 * v2) * sp * sm
        + (v1 * ar1 + v2 * ar2) * c
        - (a1 * ar1 + a2 * ar2) * sm
    )
    return GroupElement(
        alpha, theta, g1.b + g2.b, Vec2(am1 + ar1, am2 + ar2), Vec2(vm1 + vr1, vm2 + vr2), g1.phi + g2.phi,
        g1.variant, g1.tau,
    )


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse of g."""
    c, sp, sm, _ = _time_fns(g.variant, g.tau, g.b)
    a1, a2, v1, v2 = g.a.x1, g.a.x2, g.v.x1, g.v.x2
    theta = -g.theta - 0.5 * ((v1 * v1 + v2 * v2) * sp - (a1 * a1 + a2 * a2) * sm) * c + (a1 * v1 + a2 * v2) * c * c
    # a and v before the rotation by -phi
    aw1, aw2 = v1 * sp - a1 * c, v2 * sp - a2 * c
    vw1, vw2 = -v1 * c - a1 * sm, -v2 * c - a2 * sm
    cr, sr = math.cos(-g.phi), math.sin(-g.phi)
    return GroupElement(
        -g.alpha, theta, -g.b, Vec2(cr * aw1 - sr * aw2, sr * aw1 + cr * aw2),
        Vec2(cr * vw1 - sr * vw2, sr * vw1 + cr * vw2), -g.phi, g.variant, g.tau,
    )


def act_spacetime(g: GroupElement, t: float, x: Vec2) -> tuple[float, Vec2]:
    """Action on a space-time point: (t + b, x^phi + v s+(t) + a c(t)).

    The central parameters alpha, theta do not enter.
    """
    c, sp, _, _ = _time_fns(g.variant, g.tau, t)
    cr, sr = math.cos(g.phi), math.sin(g.phi)
    return t + g.b, Vec2(
        cr * x.x1 - sr * x.x2 + g.v.x1 * sp + g.a.x1 * c, sr * x.x1 + cr * x.x2 + g.v.x2 * sp + g.a.x2 * c
    )


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

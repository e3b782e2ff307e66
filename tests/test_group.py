import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhkit.group import (
    GroupElement,
    Variant,
    Vec2,
    act_spacetime,
    compose,
    element_distance,
    inverse,
    pure_boost,
    pure_time,
    pure_translation,
    random_element,
    unextended_project,
)

floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(floats, floats, floats, floats, floats)
@settings(max_examples=200, deadline=None)
def test_vec2_rotation_preserves_products(x1, x2, y1, y2, phi):
    u, v = Vec2(x1, x2), Vec2(y1, y2)
    ur, vr = u.rot(phi), v.rot(phi)
    assert ur.dot(vr) == pytest.approx(u.dot(v), abs=1e-12)
    assert ur.cross(vr) == pytest.approx(u.cross(v), abs=1e-12)


def test_vec2_perp_matches_cross_convention():
    u, v = Vec2(0.3, -1.2), Vec2(0.7, 0.4)
    # u x v = u1 v2 - u2 v1 and the quarter rotation u^{pi/2} = (-u2, u1)
    assert u.cross(v) == pytest.approx(v.dot(u.perp()))
    assert u.perp().as_tuple() == (1.2, 0.3)
    assert u.rot(math.pi / 2).x1 == pytest.approx(u.perp().x1)
    assert u.rot(math.pi / 2).x2 == pytest.approx(u.perp().x2)


def test_compose_identity_both_sides(rng):
    for variant in Variant:
        e = GroupElement.identity(variant, 1.5)
        for _ in range(50):
            g = random_element(rng, 1.5, variant)
            assert element_distance(compose(g, e), g) == 0.0
            assert element_distance(compose(e, g), g) == 0.0


def test_compose_golden_time_then_translation():
    # first factor a pure translation, second a quarter-period time shift:
    # the translation gets carried through the second factor's trig weights
    g_trans = pure_translation(Vec2(1.0, 0.0))
    g_time = pure_time(math.pi / 2.0)
    out = compose(g_trans, g_time)
    assert out.a.x1 == pytest.approx(math.cos(math.pi / 2), abs=1e-15)
    assert out.a.x2 == 0.0
    assert out.v.x1 == pytest.approx(-math.sin(math.pi / 2), abs=1e-15)
    assert out.b == pytest.approx(math.pi / 2)
    assert out.theta == pytest.approx(0.0, abs=1e-16)
    # other order: second factor has b = 0, so no trig mixing at all
    out2 = compose(g_time, g_trans)
    assert out2.a.as_tuple() == (1.0, 0.0)
    assert out2.v.as_tuple() == (0.0, 0.0)


def test_inverse_golden_pure_boost():
    g = pure_boost(Vec2(1.0, 0.0))
    gi = inverse(g)
    assert gi.theta == 0.0
    assert gi.alpha == 0.0
    assert gi.v.as_tuple() == (-1.0, 0.0)
    assert gi.a.as_tuple() == (0.0, 0.0)


def test_inverse_axiom_and_involution(rng):
    for variant in Variant:
        for tau in (0.5, 1.0, 2.0):
            e = GroupElement.identity(variant, tau)
            for _ in range(300):
                g = random_element(rng, tau, variant)
                assert element_distance(compose(g, inverse(g)), e) <= 1e-10 * _cond(g)
                assert element_distance(compose(inverse(g), g), e) <= 1e-10 * _cond(g)
                assert element_distance(inverse(inverse(g)), g) <= 1e-12 * _cond(g)


def _cond(g: GroupElement) -> float:
    # conditioning scale: hyperbolic amplitudes at |b|/tau up to 4 blow up
    # absolute roundoff; oscillating stays O(1)
    if g.variant is Variant.OSCILLATING:
        return 1.0
    return max(1.0, math.cosh(2.0 * g.b / g.tau) * (1.0 + g.a.sq() + g.v.sq()))


def test_associativity(rng):
    for variant in Variant:
        for tau in (0.5, 1.0, 2.0):
            for _ in range(400):
                g1 = random_element(rng, tau, variant)
                g2 = random_element(rng, tau, variant)
                g3 = random_element(rng, tau, variant)
                lhs = compose(compose(g1, g2), g3)
                rhs = compose(g1, compose(g2, g3))
                scale = _cond(g1) * _cond(g2) * _cond(g3)
                assert element_distance(lhs, rhs) <= 1e-10 * scale


def test_action_golden_pure_boost():
    g = pure_boost(Vec2(1.0, 0.0))
    t, x = act_spacetime(g, math.pi / 2.0, Vec2.zero())
    assert t == pytest.approx(math.pi / 2.0)
    assert x.x1 == pytest.approx(1.0)
    assert x.x2 == 0.0


def test_action_identity(rng):
    e = GroupElement.identity()
    t, x = act_spacetime(e, 0.7, Vec2(0.2, -0.4))
    assert (t, x.as_tuple()) == (0.7, (0.2, -0.4))


def test_action_is_left_action_and_extension_blind(rng):
    for variant in Variant:
        worst = 0.0
        for _ in range(500):
            g1 = random_element(rng, 1.0, variant)
            g2 = random_element(rng, 1.0, variant)
            t, x = rng.uniform(-2, 2), Vec2(*rng.uniform(-2, 2, 2))
            t1, x1 = act_spacetime(g2, t, x)
            t2, x2 = act_spacetime(g1, t1, x1)
            t3, x3 = act_spacetime(compose(g1, g2), t, x)
            worst = max(worst, abs(t2 - t3), (x2 - x3).norm())
            stripped = GroupElement(0.0, 0.0, g1.b, g1.a, g1.v, g1.phi, variant, 1.0)
            _, xs = act_spacetime(stripped, t, x)
            _, xg = act_spacetime(g1, t, x)
            assert xs.as_tuple() == xg.as_tuple()
        assert worst <= 1e-11


def test_unextended_projection_is_homomorphism(rng):
    for variant in Variant:
        for _ in range(300):
            g1 = random_element(rng, 1.0, variant)
            g2 = random_element(rng, 1.0, variant)
            lhs = unextended_project(compose(g1, g2))
            rhs = compose(unextended_project(g1), unextended_project(g2))
            assert abs(lhs.b - rhs.b) == 0.0
            assert (lhs.a - rhs.a).norm() <= 1e-13 * _cond(g1) * _cond(g2)
            assert (lhs.v - rhs.v).norm() <= 1e-13 * _cond(g1) * _cond(g2)
            assert lhs.phi == rhs.phi


def test_json_round_trip():
    g = GroupElement(0.1, -0.2, 0.3, Vec2(0.4, 0.5), Vec2(-0.6, 0.7), 0.8, Variant.EXPANDING, 2.0)
    g2 = GroupElement.from_json(g.to_json())
    assert element_distance(g, g2) == 0.0
    assert g2.variant is Variant.EXPANDING
    assert g2.tau == 2.0


def test_mismatch_errors():
    g1 = GroupElement.identity(Variant.OSCILLATING, 1.0)
    g2 = GroupElement.identity(Variant.EXPANDING, 1.0)
    g3 = GroupElement.identity(Variant.OSCILLATING, 2.0)
    with pytest.raises(ValueError):
        compose(g1, g2)
    with pytest.raises(ValueError):
        compose(g1, g3)
    with pytest.raises(ValueError):
        GroupElement(0, 0, 0, Vec2.zero(), Vec2.zero(), 0, Variant.OSCILLATING, -1.0)

import math

import numpy as np
import pytest

from nhkit.coadjoint import (
    COADJOINT_IS_LEFT_ACTION,
    DualPoint,
    OrbitClass,
    classify,
    coad,
    invariants,
    random_point_in_class,
    time_translation,
)
from nhkit.group import GroupElement, Variant, Vec2, compose, pure_boost, pure_rotation, random_element
from conftest import random_dual_coords


def test_coad_identity(rng):
    xi = random_dual_coords(rng)
    out = coad(GroupElement.identity(), xi)
    assert out == xi


def test_coad_pure_rotation(rng):
    xi = random_dual_coords(rng)
    phi = 0.71
    out = coad(pure_rotation(phi), xi)
    assert (out.p - xi.p.rot(phi)).norm() <= 1e-15
    assert (out.k - xi.k.rot(phi)).norm() <= 1e-15
    assert out.h == xi.h and out.j == xi.j


def test_coad_pure_boost_golden():
    xi = DualPoint(0.0, 1.0, 0.0, Vec2.zero(), Vec2.zero(), 0.0, 1.0)
    out = coad(pure_boost(Vec2(1.0, 0.0)), xi)
    assert out.p.as_tuple() == (-1.0, 0.0)
    assert out.k.as_tuple() == (0.0, 0.0)
    assert out.h == pytest.approx(0.5)
    assert out.j == 0.0


def test_coad_is_left_action(rng):
    assert COADJOINT_IS_LEFT_ACTION
    worst = 0.0
    for _ in range(1000):
        g1 = random_element(rng)
        g2 = random_element(rng)
        xi = random_dual_coords(rng)
        a = coad(compose(g1, g2), xi)
        b = coad(g1, coad(g2, xi))
        worst = max(
            worst, abs(a.h - b.h), abs(a.j - b.j), (a.p - b.p).norm(), (a.k - b.k).norm()
        )
    assert worst <= 1e-10


def test_coad_preserves_extensions_bitwise(rng):
    for _ in range(200):
        g = random_element(rng)
        xi = random_dual_coords(rng)
        out = coad(g, xi)
        assert out.f == xi.f and out.m == xi.m


def test_coad_rejects_expanding_and_tau_mismatch(rng):
    xi = random_dual_coords(rng)
    with pytest.raises(ValueError):
        coad(GroupElement.identity(Variant.EXPANDING, 1.0), xi)
    with pytest.raises(ValueError):
        coad(GroupElement.identity(Variant.OSCILLATING, 2.0), xi)


def test_invariants_goldens():
    xi = DualPoint(0.0, 1.0, 0.0, Vec2(1.0, 0.0), Vec2.zero(), 2.0, 1.0)
    inv = invariants(xi)
    assert inv.C1 == pytest.approx(1.0)
    assert inv.C2 == pytest.approx(2.0)

    xi_k = DualPoint(0.0, 0.0, 0.4, Vec2.zero(), Vec2.zero(), -1.3, 1.0)
    inv_k = invariants(xi_k)
    assert inv_k.C1 == 0.0 and inv_k.C2 == 0.0

    xi_d = DualPoint(1.0, 1.0, 0.0, Vec2(1.0, 0.0), Vec2(0.0, 1.0), 0.0, 1.0)
    cls, inv_d = classify(xi_d)
    assert cls is OrbitClass.D
    assert inv_d.C3 == pytest.approx(0.0, abs=1e-14)
    assert inv_d.C5 == pytest.approx(0.0)


def test_classify_goldens():
    cls_a, _ = classify(DualPoint(2.0, 1.0, 0.3, Vec2(0.1, 0.2), Vec2(0.0, 0.5), -0.4, 1.0))
    assert cls_a is OrbitClass.A and cls_a.dimension == 4

    cls_k, _ = classify(DualPoint(0.0, 0.0, 3.0, Vec2.zero(), Vec2.zero(), -1.0, 1.0))
    assert cls_k is OrbitClass.K and cls_k.dimension == 0
    assert cls_k.diffeomorphic_to == "point"


def test_classify_every_class_and_dimension(rng):
    dims = {"A": 4, "B": 4, "C": 4, "D": 2, "E": 2, "F": 4, "G": 4, "H": 4, "I": 2, "J": 2, "K": 0}
    for cls in OrbitClass:
        for _ in range(50):
            xi = random_point_in_class(cls, rng, tau=1.3)
            got, _ = classify(xi)
            assert got is cls
            assert got.dimension == dims[cls.value]


def test_invariants_constant_along_orbit(rng):
    for cls in OrbitClass:
        xi = random_point_in_class(cls, rng, 1.0)
        base = invariants(xi).as_dict()
        for _ in range(100):
            moved = coad(random_element(rng), xi)
            got = classify(moved)[0]
            assert got is cls
            for key, val in invariants(moved).as_dict().items():
                assert abs(val - base[key]) <= 1e-9 * (1.0 + abs(base[key]))


def test_class_i_j_constraint_vectors_vanish_on_orbit(rng):
    for cls, sign in ((OrbitClass.I, 1.0), (OrbitClass.J, -1.0)):
        xi = random_point_in_class(cls, rng, 1.0)
        for _ in range(100):
            moved = coad(random_element(rng), xi)
            resid = moved.k - moved.p.perp() * (sign * moved.tau)
            assert resid.norm() <= 1e-9


def test_null_extension_classification_is_total(rng):
    # |p x k| <= (tau/2)(p^2 + k^2/tau^2) always, so H/I/J/K cover f = m = 0
    for _ in range(2000):
        p = Vec2(*rng.uniform(-3, 3, 2))
        k = Vec2(*rng.uniform(-3, 3, 2))
        tau = rng.uniform(0.5, 2.0)
        quad = p.sq() + k.sq() / tau**2
        assert abs(p.cross(k)) <= 0.5 * tau * quad + 1e-12
        xi = DualPoint(0.0, 0.0, 0.1, p, k, 0.2, tau)
        cls, _ = classify(xi)
        assert cls in (OrbitClass.H, OrbitClass.I, OrbitClass.J, OrbitClass.K)


def test_boundary_ties_resolve_to_degenerate_class():
    # exactly on the f = m tau stratum with C3 = 0: class D, not B or A
    k = Vec2(0.4, -1.1)
    xi = DualPoint(1.0, 1.0, 0.2, k.perp() * (-1.0), k, 0.5, 1.0)
    assert classify(xi)[0] is OrbitClass.D
    # zero dual point is the point orbit
    xi0 = DualPoint(0.0, 0.0, 0.0, Vec2.zero(), Vec2.zero(), 0.0, 1.0)
    assert classify(xi0)[0] is OrbitClass.K


def test_classify_tolerance_validation():
    xi = DualPoint(0.0, 1.0, 0.0, Vec2(1.0, 0.0), Vec2.zero(), 0.0, 1.0)
    with pytest.raises(ValueError):
        classify(xi, tol=0.0)


def test_time_translation_helper():
    g = time_translation(0.7, 2.0)
    assert g.b == 0.7 and g.tau == 2.0 and g.variant is Variant.OSCILLATING

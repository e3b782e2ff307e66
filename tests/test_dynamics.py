import math

import numpy as np
import pytest

from nhkit.coadjoint import classify, coad, time_translation, OrbitClass
from nhkit.dynamics import (
    PhasePoint,
    angular_momentum,
    evolve,
    flow_matrix,
    from_dual,
    hamiltonian,
    integrate_reference,
    to_dual,
)
from nhkit.group import Vec2


def _x0(**kw):
    base = dict(q=Vec2(0.0, 0.0), p=Vec2(1.0, 0.0), m=1.0, tau=1.0, C1=0.0, C2=0.0)
    base.update(kw)
    return PhasePoint(**base)


def test_evolve_goldens():
    x0 = _x0()
    assert evolve(x0, 0.0) == x0
    xq = evolve(x0, math.pi / 2.0)
    assert xq.q.x1 == pytest.approx(1.0)
    assert xq.p.x1 == pytest.approx(0.0, abs=1e-15)
    xp = evolve(x0, 2.0 * math.pi)
    assert (xp.q - x0.q).norm() <= 1e-12
    assert (xp.p - x0.p).norm() <= 1e-12


def test_evolve_carries_the_labels_bit_for_bit():
    x0 = PhasePoint(Vec2(0.3, -0.2), Vec2(0.1, 0.7), 0.1 + 0.2, 1.0 / 3.0, math.pi, -0.0)
    x = evolve(x0, 1.234)
    assert [v.hex() for v in (x.m, x.tau, x.C1, x.C2)] == [v.hex() for v in (x0.m, x0.tau, x0.C1, x0.C2)]


def test_hamiltonian_goldens():
    assert hamiltonian(_x0(q=Vec2.zero(), p=Vec2.zero(), C1=1.0)) == pytest.approx(-0.5)
    assert hamiltonian(_x0(q=Vec2(1.0, 0.0), p=Vec2.zero(), C1=0.0)) == pytest.approx(0.5)


def test_angular_momentum_goldens():
    x_par = _x0(q=Vec2(2.0, 0.0), p=Vec2(0.7, 0.0), C2=1.3)
    assert angular_momentum(x_par) == pytest.approx(1.3)
    x = _x0(q=Vec2(1.0, 0.0), p=Vec2(0.0, 1.0), C2=0.0)
    assert angular_momentum(x) == pytest.approx(1.0)


def test_conservation_under_exact_flow(rng):
    for _ in range(20):
        x0 = _x0(
            q=Vec2(*rng.uniform(-1, 1, 2)),
            p=Vec2(*rng.uniform(-1, 1, 2)),
            m=rng.uniform(0.5, 2.0),
            tau=rng.uniform(0.5, 2.0),
            C1=rng.uniform(-1, 1),
            C2=rng.uniform(-1, 1),
        )
        h0, j0 = hamiltonian(x0), angular_momentum(x0)
        for t in np.linspace(0.0, 100.0 * x0.tau, 23):
            xt = evolve(x0, float(t))
            assert abs(hamiltonian(xt) - h0) <= 1e-12 * max(1.0, abs(h0))
            assert abs(angular_momentum(xt) - j0) <= 1e-12 * max(1.0, abs(j0))


def test_flow_property(rng):
    x0 = _x0(q=Vec2(0.3, -0.2), p=Vec2(0.1, 0.9), tau=1.7)
    for _ in range(50):
        t1, t2 = rng.uniform(-5, 5, 2)
        a = evolve(evolve(x0, t1), t2)
        b = evolve(x0, t1 + t2)
        assert (a.q - b.q).norm() + (a.p - b.p).norm() <= 1e-12


def test_rk4_matches_exact_flow():
    x0 = _x0(q=Vec2(0.4, -0.1), p=Vec2(1.0, 0.3), m=1.3, tau=0.8)
    t = 10.0 * x0.tau
    ref = integrate_reference(x0, t, 1e-3)
    exact = evolve(x0, t)
    assert (ref.q - exact.q).norm() + (ref.p - exact.p).norm() <= 1e-6
    assert integrate_reference(x0, 0.0, 1e-3) == x0


def test_rk4_period_sign_pattern():
    # first return of the initial momentum-only configuration near t = 2 pi tau
    tau = 1.0
    x0 = _x0(tau=tau)
    dt = 1e-3
    t = 6.0
    prev = integrate_reference(x0, t, dt)
    while True:
        t += dt
        cur = integrate_reference(x0, t, dt)
        if cur.q.x1 >= 0.0 and prev.q.x1 < 0.0 and cur.p.x1 > 0.0:
            break
        prev = cur
        assert t < 7.0
    assert abs(t - 2.0 * math.pi * tau) <= 2.0 * dt


def test_flow_is_symplectic(rng):
    j_std = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
    )
    for _ in range(40):
        m = rng.uniform(0.5, 2.0)
        tau = rng.uniform(0.5, 2.0)
        t = rng.uniform(-10, 10)
        mat = np.array(flow_matrix(m, tau, t))
        assert np.max(np.abs(mat.T @ j_std @ mat - j_std)) <= 1e-12
        # matrix agrees with evolve on basis vectors
        for col, (q0, p0) in enumerate(
            [(Vec2(1, 0), Vec2(0, 0)), (Vec2(0, 1), Vec2(0, 0)), (Vec2(0, 0), Vec2(1, 0)), (Vec2(0, 0), Vec2(0, 1))]
        ):
            x = evolve(PhasePoint(q0, p0, m, tau), t)
            assert np.allclose([x.q.x1, x.q.x2, x.p.x1, x.p.x2], mat[:, col], atol=1e-13)


def test_coadjoint_transport_reproduces_flow(rng):
    for _ in range(30):
        x0 = _x0(
            q=Vec2(*rng.uniform(-1, 1, 2)),
            p=Vec2(*rng.uniform(-1, 1, 2)),
            m=rng.uniform(0.5, 2.0),
            tau=rng.uniform(0.5, 2.0),
        )
        xi0 = to_dual(x0)
        assert classify(xi0)[0] is OrbitClass.F
        t = float(rng.uniform(-5, 5))
        xi_t = coad(time_translation(t, x0.tau), xi0)
        x_t = evolve(x0, t)
        assert (xi_t.k * (1.0 / x0.m) - x_t.q).norm() <= 1e-10
        assert (xi_t.p - x_t.p).norm() <= 1e-10
        assert abs(xi_t.h - hamiltonian(x_t)) <= 1e-10
        assert abs(xi_t.j - angular_momentum(x_t)) <= 1e-10


def test_dual_round_trip():
    x0 = _x0(q=Vec2(0.2, -0.5), p=Vec2(0.1, 0.7), m=1.4, C1=0.3, C2=-0.2)
    xi = to_dual(x0)
    cls, inv = classify(xi)
    assert cls is OrbitClass.F
    assert inv.C1 == pytest.approx(0.3)
    assert inv.C2 == pytest.approx(-0.2)
    back = from_dual(xi, C1=0.3, C2=-0.2)
    assert (back.q - x0.q).norm() <= 1e-15
    assert (back.p - x0.p).norm() <= 1e-15


def test_validation():
    with pytest.raises(ValueError):
        PhasePoint(Vec2.zero(), Vec2.zero(), 0.0)
    with pytest.raises(ValueError):
        integrate_reference(_x0(), 1.0, 0.0)

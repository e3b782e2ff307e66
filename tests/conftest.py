import math

import numpy as np
import pytest

from nhkit.group import Vec2


def hermite_fn(n, x):
    """Orthonormal Hermite functions by recurrence (independent oracle)."""
    h0 = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    if n == 0:
        return h0
    h1 = math.sqrt(2.0) * x * h0
    for k in range(1, n):
        h0, h1 = h1, math.sqrt(2.0 / (k + 1)) * x * h1 - math.sqrt(k / (k + 1.0)) * h0
    return h1


def random_dual_coords(rng, tau=1.0, scale=2.0):
    from nhkit.coadjoint import DualPoint

    v = rng.uniform(-scale, scale, size=8)
    return DualPoint(v[0], v[1], v[2], Vec2(v[3], v[4]), Vec2(v[5], v[6]), v[7], tau)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

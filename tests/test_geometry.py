"""Backend names and hyperbolicity constants, and the Busemann cocycle
and Gromov-product limit checked on each backend's own primitives."""

import math

import pytest

from hyplab import geometry as geo
from hyplab import halfplane, words
from hyplab.geometry import FLAT, PLANE, TREE


def test_busemann_cocycle_identity():
    # b_q(z, xi) - b_p(z, xi) + b_p(q, xi) = 0
    p, q, z, xi = 1j, 0.5 + 0.8j, -0.3 + 2j, 1.0
    b = halfplane.busemann
    assert abs(b(z, q, xi) - b(z, p, xi) + b(q, p, xi)) < 1e-9
    p, q, z, xi = "", "ba", "aB", words.BoundaryWord("a")
    b = words.tree_busemann
    assert b(z, q, xi) - b(z, p, xi) + b(q, p, xi) == 0


def test_gromov_beta_matches_distance_limit():
    # 2 * (xi|eta)_p computed two ways: closed form and divergence limit
    p, xi, eta = 2j, -1.0, 1.0
    beta = halfplane.gromov_beta(p, xi, eta)
    t = 18.0
    x = halfplane.ray(p, xi).point(t)
    y = halfplane.ray(p, eta).point(t)
    limit = 2 * t - halfplane.dist(x, y)
    assert beta == pytest.approx(limit, abs=1e-5)


def test_estimate_delta_per_backend():
    tree = geo.estimate_delta(TREE)
    assert tree.delta == 0.0 and tree.provenance == "exact"
    plane = geo.estimate_delta(PLANE, sample_count=2000, radius=3.0)
    assert 0.0 < plane.delta < 0.9
    flat = geo.estimate_delta(FLAT, radius=50.0)
    assert flat.delta == math.inf and flat.witness is not None


def test_estimate_delta_deterministic_given_seed():
    a = geo.estimate_delta(PLANE, sample_count=2000, radius=3.0, seed=5)
    b = geo.estimate_delta(PLANE, sample_count=2000, radius=3.0, seed=5)
    assert a.delta == b.delta

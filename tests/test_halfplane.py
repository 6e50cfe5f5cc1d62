"""Upper half-plane geometry: distances, Mobius maps, geodesics."""

import math

import numpy as np
import pytest

from hyplab import halfplane as hp
from hyplab import modular


def test_dist_vertical_axis():
    for y in (2.0, 5.0, 0.25):
        assert hp.dist(1j, y * 1j) == pytest.approx(abs(math.log(y)))


def test_dist_symmetric_and_triangle():
    rng = np.random.default_rng(0)
    zs = hp.random_points(rng, 30, 3.0)
    for a in zs[:10]:
        for b in zs[10:20]:
            assert hp.dist(a, b) == pytest.approx(hp.dist(b, a))
            for c in zs[20:]:
                assert hp.dist(a, c) <= hp.dist(a, b) + hp.dist(b, c) + 1e-9


def test_mobius_maps_are_isometries():
    mats = [(1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, 0, 3, 1)]
    pairs = [(2j, 1 + 1j), (0.5 + 0.3j, -1 + 2j), (3j, 0.1 + 0.1j)]
    for m in mats:
        for p, q in pairs:
            assert hp.dist(hp.mobius_apply(m, p), hp.mobius_apply(m, q)) \
                == pytest.approx(hp.dist(p, q))


def test_mobius_compose_and_inverse():
    m1, m2 = (2, 1, 1, 1), (1, -1, 1, 0)
    z = 0.7 + 1.3j
    assert hp.mobius_apply(modular.mat_mul(m1, m2), z) \
        == pytest.approx(hp.mobius_apply(m1, hp.mobius_apply(m2, z)))
    assert hp.mobius_apply(modular.mat_mul(m1, modular.mat_inv(m1)), z) \
        == pytest.approx(z)


def test_geodesic_endpoints_footpoints():
    u, v = hp.geodesic_endpoints(-1 + 1j, 1 + 1j)
    assert sorted([u, v]) == pytest.approx([-math.sqrt(2), math.sqrt(2)])
    u, v = hp.geodesic_endpoints(1j, 3j)
    assert u == hp.INF or v == hp.INF


def test_segment_parametrized_by_arclength():
    p, q = -1 + 1j, 2 + 0.5j
    g = hp.segment(p, q)
    L = hp.dist(p, q)
    for f in (0.0, 0.3, 0.7, 1.0):
        z = g.point(f * L)
        assert hp.dist(p, z) == pytest.approx(f * L, abs=1e-9)


def test_busemann_closed_form_matches_numeric_limit():
    cases = [(1 + 2j, 1j, 0.0), (0.3 + 0.4j, 2j, -1.0), (5j, 1j, hp.INF)]
    for q, p, xi in cases:
        assert hp.busemann(q, p, xi) == pytest.approx(
            hp.busemann_numeric(q, p, xi, horizon=40.0)[0], abs=1e-6)


def test_gromov_beta_vertical_line():
    # p on the geodesic joining the endpoints: beta = 0
    assert hp.gromov_beta(1j, -1.0, 1.0) == pytest.approx(0.0, abs=1e-9)
    # moving p off the line increases beta
    assert hp.gromov_beta(4j, -1.0, 1.0) > 1.0


def test_dist_to_segment_vanishes_on_the_segment():
    p = np.array([-1 + 1j, 1j])
    q = np.array([1 + 1j, 3j])
    pts = hp.geodesic_sample(p, q, 9)
    d = hp.dist_to_segment(pts, p, q)
    assert float(np.abs(d).max()) < 1e-7


def test_dist_to_segment_clamps_to_endpoints():
    p = np.array([1j])
    q = np.array([2j])
    z = np.array([[8j]])
    d = hp.dist_to_segment(z, p, q)
    assert d[0, 0] == pytest.approx(hp.dist(8j, 2j))


def test_triangle_thinness_bounded_for_random_triangles():
    rng = np.random.default_rng(1)
    pts = hp.random_points(rng, 300, 4.0)
    defect = hp.triangle_thinness(pts[:100], pts[100:200], pts[200:])
    # slim-triangle constant of the hyperbolic plane is under 0.9
    assert float(defect.max()) < 0.9
    assert float(defect.min()) >= 0.0


def test_direction_toward_inverts_forward_endpoint():
    rng = np.random.default_rng(4)
    ps = hp.random_points(rng, 200, 3.0)
    xis = rng.uniform(-5.0, 5.0, size=200)
    for p, xi in ((ps, 1.7), (ps, -0.4), (0.3 + 1.2j, xis), (ps, xis)):
        th = hp.direction_toward(p, xi)
        p_b, xi_b = np.broadcast_arrays(p, xi)
        assert th.shape == xi_b.shape
        assert np.all((th >= -math.pi) & (th < math.pi))
        back = np.array([hp.forward_endpoint(z, t) for z, t in zip(p_b, th)])
        assert np.max(np.abs(back - xi_b)) < 1e-9


def test_direction_toward_vertical_rays_and_scalar_type():
    p = 0.3 + 1.2j
    assert hp.direction_toward(p, hp.INF) == 0.5 * math.pi
    assert hp.direction_toward(p, p.real) == -0.5 * math.pi
    assert list(hp.direction_toward(p, [hp.INF, p.real, 2.0])[:2]) \
        == [0.5 * math.pi, -0.5 * math.pi]
    assert list(hp.direction_toward([p, 2j], hp.INF)) == [0.5 * math.pi] * 2
    assert type(hp.direction_toward(p, 2.0)) is float
    assert type(hp.direction_toward(p, hp.INF)) is float


def test_point_at_lands_at_the_right_distance():
    for theta in (0.0, 1.1, 2.5, 4.0):
        z = hp.point_at(1j, theta, 1.7)
        assert hp.dist(1j, z) == pytest.approx(1.7, abs=1e-9)


def test_shadow_arc_shrinks_with_distance():
    widths = []
    for d in (1.0, 2.0, 3.0):
        lo, hi = hp.shadow_arc(2j * math.exp(d), 2j, 0.5)
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2] > 0

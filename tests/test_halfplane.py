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


def test_geodesic_endpoints_array_equals_scalar():
    rng = np.random.default_rng(6)
    ps = hp.random_points(rng, 300, 3.0)
    qs = hp.random_points(rng, 300, 3.0)
    qs[:20] = ps[:20].real + 1j * qs[:20].imag  # vertical pairs too
    u, v = hp.geodesic_endpoints(ps, qs)
    assert u.shape == v.shape == ps.shape
    scalar = np.array([hp.geodesic_endpoints(p, q) for p, q in zip(ps, qs)])
    assert np.array_equal(u, scalar[:, 0]) and np.array_equal(v, scalar[:, 1])
    # a scalar base point broadcasts against an array, as in the atom rays
    u1, v1 = hp.geodesic_endpoints(ps[0], qs)
    assert np.array_equal(v1, [hp.geodesic_endpoints(ps[0], q)[1]
                               for q in qs])
    # both points lie on the circle on (u, v), and p -> q heads toward v
    circ = np.isfinite(u) & np.isfinite(v)
    c, r = 0.5 * (u + v)[circ], 0.5 * np.abs(v - u)[circ]
    for z in (ps[circ], qs[circ]):
        assert np.max(np.abs(np.abs(z - c) - r) / r) < 1e-9
    assert np.all((v[circ] > u[circ]) == (qs.real > ps.real)[circ])


def test_geodesic_endpoints_vertical_pairs():
    for x in (0.0, 0.3, -2.5):
        for dx in (0.0, 1e-10 * max(1.0, abs(x) + 3.0)):
            lo, hi = complex(x, 0.5), complex(x + dx, 3.0)
            up = hp.geodesic_endpoints(lo, hi)
            down = hp.geodesic_endpoints(hi, lo)
            assert up[1] == hp.INF and down[0] == hp.INF
            assert up[0] == pytest.approx(x, abs=1e-9)
            assert down[1] == pytest.approx(x, abs=1e-9)
            assert all(type(e) is float for e in up + down)
            u, v = hp.geodesic_endpoints([lo, hi], [hi, lo])
            assert list(u) == [up[0], down[0]] and list(v) == [up[1], down[1]]
    # a real-part gap well above the tolerance is a semicircle
    assert np.isfinite(hp.geodesic_endpoints(1j, 1e-6 + 3j)).all()


def test_vertical_segments_sample_and_distance():
    p = np.array([0.3 + 0.5j, 0.3 + 4j, -2 + 1j, -2 + 1e-10 + 2j])
    q = np.array([0.3 + 4j, 0.3 + 0.5j, -2 + 5j, -2 + 0.1j])
    pts = hp.geodesic_sample(p, q, 11)
    assert np.max(np.abs(pts.real - p.real[:, None])) < 1e-9
    lo = np.minimum(p.imag, q.imag)[:, None] * (1 - 1e-12)
    hi = np.maximum(p.imag, q.imag)[:, None] * (1 + 1e-12)
    assert np.all((pts.imag >= lo) & (pts.imag <= hi))
    assert np.allclose(pts[:, 0], p) and np.allclose(pts[:, -1], q)
    # evenly spaced in arclength
    steps = hp.dist(pts[:, 1:], pts[:, :-1])
    assert np.allclose(steps, hp.dist(p, q)[:, None] / 10, atol=1e-9)
    assert float(np.abs(hp.dist_to_segment(pts, p, q)).max()) < 1e-7
    # off the line: the perpendicular distance, and clamping beyond q
    d = hp.dist_to_segment(np.array([[1.3 + 1j, 0.3 + 8j]]), p[:1], q[:1])
    assert d[0, 0] == pytest.approx(math.asinh(1.0))
    assert d[0, 1] == pytest.approx(hp.dist(0.3 + 8j, 0.3 + 4j))


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


def _slim_batch():
    """Seeded triangles with vertical sides and obtuse angles."""
    rng = np.random.default_rng(7)
    a, b, c = hp.random_points(rng, 3 * 64, 3.0).reshape(3, 64)
    b[:8] = a[:8].real + 4j * a[:8].imag  # side ab vertical, going up
    c[8:16] = a[8:16].real + 0.3j * a[8:16].imag  # side ca vertical
    # obtuse at c: c just off the midpoint of side ab
    mid = hp.geodesic_sample(a[16:32], b[16:32], 3)[:, 1]
    c[16:32] = mid.real + 1.05j * mid.imag
    return a, b, c


def test_triangle_thinness_matches_per_segment_route():
    # one chart per side gives bit for bit what a chart per call gives
    a, b, c = _slim_batch()
    want = np.zeros(len(a))
    for (s1, s2), (o1, o2), (o3, o4) in (((a, b), (b, c), (c, a)),
                                         ((b, c), (c, a), (a, b)),
                                         ((c, a), (a, b), (b, c))):
        pts = hp.geodesic_sample(s1, s2, 24)
        d = np.minimum(hp.dist_to_segment(pts, o1, o2),
                       hp.dist_to_segment(pts, o3, o4))
        want = np.maximum(want, d.max(axis=1))
    assert np.array_equal(hp.triangle_thinness(a, b, c), want)


def test_dist_to_segment_matches_dense_sampling():
    # the nearest of 4001 evenly spaced segment points is within half a
    # spacing of the closed form, vertical sides and clamped feet included
    a, b, c = _slim_batch()
    z = hp.geodesic_sample(a, b, 24)
    for p, q in ((b, c), (c, a)):
        exact = hp.dist_to_segment(z, p, q)
        dense = hp.geodesic_sample(p, q, 4001)
        d = hp.dist(z[:, :, None], dense[:, None, :])
        brute = d.min(axis=2)
        slack = hp.dist(p, q)[:, None] / 8000.0 + 1e-9
        assert np.all(brute >= exact - 1e-9)
        assert np.all(brute <= exact + slack)
        # some nearest points are segment ends: the clamp is exercised
        ends = np.isin(d.argmin(axis=2), (0, 4000)) & (brute > 1e-6)
        assert ends.any()


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

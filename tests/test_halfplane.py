"""Upper half-plane geometry: distances, Mobius maps, geodesics."""

import math
import warnings

import numpy as np
import pytest

from hyplab import halfplane as hp
from hyplab import modular

import reference


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
    seg = hp._SegmentChart(p, q)
    pts = seg.sample(11)
    assert np.max(np.abs(pts.real - p.real[:, None])) < 1e-9
    lo = np.minimum(p.imag, q.imag)[:, None] * (1 - 1e-12)
    hi = np.maximum(p.imag, q.imag)[:, None] * (1 + 1e-12)
    assert np.all((pts.imag >= lo) & (pts.imag <= hi))
    assert np.allclose(pts[:, 0], p) and np.allclose(pts[:, -1], q)
    # evenly spaced in arclength
    steps = hp.dist(pts[:, 1:], pts[:, :-1])
    assert np.allclose(steps, hp.dist(p, q)[:, None] / 10, atol=1e-9)
    assert float(np.abs(seg.dist(pts)).max()) < 1e-7
    # off the line: the perpendicular distance, and clamping beyond q
    d = hp._SegmentChart(p[:1], q[:1]).dist(np.array([[1.3 + 1j, 0.3 + 8j]]))
    assert d[0, 0] == pytest.approx(math.asinh(1.0))
    assert d[0, 1] == pytest.approx(hp.dist(0.3 + 8j, 0.3 + 4j))


def busemann_numeric(q, p, xi, horizon=30.0):
    """Reference route: evaluate d(q, ray(t)) - t at large t, with the
    convergence gap between the last two probes reported."""
    r = reference.ray(complex(p), xi)
    t1, t2 = horizon - 1.0, horizon
    v1 = hp.dist(q, r.point(t1)) - t1
    v2 = hp.dist(q, r.point(t2)) - t2
    return v2, abs(v2 - v1)


def test_busemann_closed_form_matches_numeric_limit():
    cases = [(1 + 2j, 1j, 0.0), (0.3 + 0.4j, 2j, -1.0), (5j, 1j, hp.INF)]
    for q, p, xi in cases:
        assert hp.busemann(q, p, xi) == pytest.approx(
            busemann_numeric(q, p, xi, horizon=40.0)[0], abs=1e-6)


def test_busemann_arrays_match_scalar_calls_and_the_numeric_limit():
    rng = np.random.default_rng(12)
    n = 300
    q = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(0.2, 4.0, n)
    p = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(0.2, 4.0, n)
    xi = rng.uniform(-5.0, 5.0, n)
    xi[::9] = hp.INF
    got = hp.busemann(q, p, xi)
    assert got.shape == (n,)
    want = [hp.busemann(*args) for args in zip(q, p, xi)]
    assert all(type(b) is float for b in want)
    assert np.array_equal(got, want)
    # one base point against many directions, as in the conformal check
    assert np.array_equal(hp.busemann(q[0], p[0], xi),
                          [hp.busemann(q[0], p[0], x) for x in xi])
    for k in range(0, n, 30):
        limit, gap = busemann_numeric(q[k], p[k], xi[k], horizon=40.0)
        assert gap < 1e-6
        assert got[k] == pytest.approx(limit, abs=1e-6)


GEODESICS = {
    "semicircle": lambda: hp.line(3.0, -1.0),
    "vertical up": lambda: hp.line(0.5, hp.INF),
    "vertical down": lambda: hp.line(hp.INF, -0.5),
    "ray to a real point": lambda: reference.ray(0.3 + 2j, -4.0),
    "ray straight down": lambda: reference.ray(0.3 + 2j, 0.3),
    "ray up": lambda: reference.ray(1 + 1j, hp.INF),
}


@pytest.mark.parametrize("kind", GEODESICS)
def test_geodesic_has_unit_speed(kind):
    geo = GEODESICS[kind]()
    ts = np.linspace(-4.0, 4.0, 17)
    z = geo.point(ts)
    assert z.shape == ts.shape
    for s, zs in zip(ts, z):
        assert np.allclose(hp.dist(zs, z), np.abs(ts - s), rtol=0, atol=1e-9)
    assert type(geo.point(ts[3])) is complex
    assert geo.point(ts[3]) == pytest.approx(z[3], rel=1e-15)
    # t -> +inf heads toward v
    far = geo.point(30.0)
    if geo.v == hp.INF:
        assert far.imag > 1e10
    else:
        assert abs(far - geo.v) < 1e-9 * max(1.0, abs(geo.v))


def test_geodesic_origin_is_its_anchor():
    for u, v, anchor in [(-1.0, 3.0, 1 + 2j), (3.0, -1.0, 2.6 + 1.2j),
                         (0.5, hp.INF, 0.5 + 0.01j), (hp.INF, 0.5, 0.5 + 7j)]:
        if np.isfinite(u) and np.isfinite(v):
            # put the anchor on the circle, at the given real part
            c, r = 0.5 * (u + v), 0.5 * abs(v - u)
            anchor = complex(anchor.real, math.sqrt(r * r - (anchor.real - c)
                                                    ** 2))
        geo = hp.Geodesic(u, v, anchor)
        assert abs(geo.point(0.0) - anchor) < 1e-12 * abs(anchor)
    assert abs(reference.ray(0.3 + 2j, -4.0).point(0.0) - (0.3 + 2j)) < 1e-12
    assert hp.line(-1.0, 1.0).point(0.0) == pytest.approx(1j, abs=1e-12)
    assert hp.line(0.5, hp.INF).point(0.0) == 0.5 + 1j


@pytest.mark.parametrize("u, v, anchor", [(-1.0, 1.0, 0.1 + 1j),
                                          (-1.0, 1.0, 1.2j),
                                          (0.0, hp.INF, 1e-3 + 1j),
                                          (hp.INF, 2.0, 2.5 + 1j)])
def test_geodesic_rejects_an_anchor_off_the_line(u, v, anchor):
    with pytest.raises(ValueError):
        hp.Geodesic(u, v, anchor)


def test_gromov_beta_vertical_line():
    # p on the geodesic joining the endpoints: beta = 0
    assert hp.gromov_beta(1j, -1.0, 1.0) == pytest.approx(0.0, abs=1e-9)
    # moving p off the line increases beta
    assert hp.gromov_beta(4j, -1.0, 1.0) > 1.0


def _composite_gromov_beta(p, xi, eta):
    """Reference route: two Busemann values at the line's origin."""
    q = hp.line(xi, eta).point(0.0)
    return -(hp.busemann(q, p, xi) + hp.busemann(q, p, eta))


def test_gromov_beta_arrays_match_the_busemann_route():
    rng = np.random.default_rng(11)
    n = 1200
    p = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(0.1, 4.0, n)
    xi, eta = rng.uniform(-10.0, 10.0, (2, n))
    xi[::7] = hp.INF
    eta[3::11] = hp.INF
    eta[xi == hp.INF] = rng.uniform(-10.0, 10.0, (xi == hp.INF).sum())
    want = [_composite_gromov_beta(*args) for args in zip(p, xi, eta)]
    got = hp.gromov_beta(p, xi, eta)
    assert got.shape == (n,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for args in [(2j, -1.0, 1.0), (2j, hp.INF, 0.5), (0.3 + 1j, 0.2, hp.INF)]:
        beta = hp.gromov_beta(*args)
        assert type(beta) is float
        assert beta == pytest.approx(_composite_gromov_beta(*args),
                                     rel=0, abs=1e-12)
    with pytest.raises(ValueError):
        hp.gromov_beta(2j, 0.5, 0.5)


def test_gromov_beta_scalar_calls_equal_their_array_entries():
    rng = np.random.default_rng(5)
    n = 2000
    p = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(0.05, 4.0, n)
    xi, eta = rng.uniform(-5.0, 5.0, (2, n))
    xi[::9] = hp.INF
    got = hp.gromov_beta(p, xi, eta)
    scalar = [hp.gromov_beta(complex(a), float(b), float(c))
              for a, b, c in zip(p, xi, eta)]
    assert np.array_equal(got, scalar)


def test_dist_to_segment_vanishes_on_the_segment():
    p = np.array([-1 + 1j, 1j])
    q = np.array([1 + 1j, 3j])
    seg = hp._SegmentChart(p, q)
    d = seg.dist(seg.sample(9))
    assert float(np.abs(d).max()) < 1e-7


def test_dist_to_segment_clamps_to_endpoints():
    p = np.array([1j])
    q = np.array([2j])
    z = np.array([[8j]])
    d = hp._SegmentChart(p, q).dist(z)
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
    mid = hp._SegmentChart(a[16:32], b[16:32]).sample(3)[:, 1]
    c[16:32] = mid.real + 1.05j * mid.imag
    return a, b, c


def _per_segment_thinness(a, b, c, dist):
    """triangle_thinness with a chart per call and dist(chart, z) as the
    distance to a side."""
    want = np.zeros(len(a))
    for (s1, s2), (o1, o2), (o3, o4) in (((a, b), (b, c), (c, a)),
                                         ((b, c), (c, a), (a, b)),
                                         ((c, a), (a, b), (b, c))):
        pts = hp._SegmentChart(s1, s2).sample(24)
        d = np.minimum(dist(hp._SegmentChart(o1, o2), pts),
                       dist(hp._SegmentChart(o3, o4), pts))
        want = np.maximum(want, d.max(axis=1))
    return want


def test_triangle_thinness_matches_per_segment_route():
    # one chart per side gives bit for bit what a chart per call gives
    a, b, c = _slim_batch()
    want = _per_segment_thinness(a, b, c, hp._SegmentChart.dist)
    assert np.array_equal(hp.triangle_thinness(a, b, c), want)


def test_triangle_thinness_matches_the_log_domain_route():
    # min and max over cosh values with one arccosh per triangle give bit
    # for bit what arccosh at every point gives
    rng = np.random.default_rng(11)
    seeded = hp.random_points(rng, 3 * 4096, 4.0).reshape(3, 4096)
    for a, b, c in (_slim_batch(), seeded):
        want = _per_segment_thinness(a, b, c, reference.segment_dist)
        assert np.array_equal(hp.triangle_thinness(a, b, c), want)


def _crossings(a, b, c):
    """For each side (rows: sides ab, then bc, then ca), the number of its
    24 samples nearer the previous side than the next, in cosh values:
    the index of the first sample where the previous side is as far."""
    out = []
    for (s1, s2), (n1, n2), (p1, p2) in (((a, b), (b, c), (c, a)),
                                         ((b, c), (c, a), (a, b)),
                                         ((c, a), (a, b), (b, c))):
        z = hp._SegmentChart(s1, s2).sample(24)
        out.append((hp._SegmentChart(p1, p2).cosh_dist(z)
                    < hp._SegmentChart(n1, n2).cosh_dist(z)).sum(axis=1))
    return np.concatenate(out)


def _edge_batches():
    """Seeded triangles at the edges of the bisection: degenerate ones
    (c on side ab, all three vertices on one vertical or circular
    geodesic), thin ones whose crossing on side ab falls at its last
    sample, and tiny (radius 1e-3) and huge (radius 12) ones."""
    rng = np.random.default_rng(13)
    m = 512
    a, b = hp.random_points(rng, 2 * m, 1.0).reshape(2, m)
    c = hp._SegmentChart(a, b).sample(24)[np.arange(m),
                                          rng.integers(1, 23, m)]
    yield "c on side ab", a, b, c
    x = rng.uniform(-2.0, 2.0, m)
    y = np.exp(rng.uniform(-2.0, 2.0, (3, m)))
    yield "one vertical geodesic", *(x + 1j * y)
    t = np.sort(rng.uniform(0.1, 3.0, (3, m)), axis=0)
    perm = np.argsort(rng.uniform(size=(3, m)), axis=0)
    pts = 1j * np.exp(np.take_along_axis(t, perm, axis=0) - 1.5)
    yield "one semicircle", *hp.mobius_apply((1, 1, -1, 1), pts)
    # an angle of 1e-3 to 1e-2 at a and a side ca two to six times as
    # long as ab: side ab stays nearer ca up to its last sample
    a, b = hp.random_points(rng, 2 * m, 1.0).reshape(2, m)
    ray = [reference.ray(p, hp.forward_endpoint(
        p, hp.direction_toward(p, hp.geodesic_endpoints(p, q)[1])
        + rng.choice((-1, 1)) * rng.uniform(1e-3, 1e-2)))
        for p, q in zip(a, b)]
    c = np.array([r.point(rng.uniform(2.0, 6.0) * hp.dist(p, q))
                  for r, p, q in zip(ray, a, b)])
    yield "thin at a", a, b, c
    for radius in (1e-3, 12.0):
        yield f"radius {radius}", *hp.random_points(
            rng, 3 * m, radius).reshape(3, m)
    yield "slim batch", *_slim_batch()


def test_triangle_thinness_bisection_matches_the_dense_oracle_at_edges():
    # the bisection over the sample index returns, bit for bit, the max
    # over all 24 samples, with every distance and arccosh taken
    crossings = []
    for name, a, b, c in _edge_batches():
        want = _per_segment_thinness(a, b, c, reference.segment_dist)
        assert np.array_equal(hp.triangle_thinness(a, b, c), want), name
        crossings.append(_crossings(a, b, c))
    # the first sample as far from the previous side as from the next
    # falls at both ends of a side
    crossings = np.concatenate(crossings)
    assert np.any(crossings == 0) and np.any(crossings == 23)


def test_triangle_thinness_never_exceeds_the_dense_route():
    # three vertices on one geodesic far from i: the computed points are
    # off each other's sides by rounding, the distances along a side are
    # no longer monotone, and the bisection's two candidates may miss
    # the rounding noise that the max over all 24 samples picks up;
    # being a max over some of those samples, it is never larger
    rng = np.random.default_rng(17)
    m = 512
    x = rng.uniform(-1.0, 1.0, m)
    t = rng.uniform(-12.0, 12.0, (3, m))
    a, b, c = hp.mobius_apply((1, x, 0, 1), 1j * np.exp(t))
    a, b, c = hp.mobius_apply((1, 1, -1, 1), np.array([a, b, c]))
    got = hp.triangle_thinness(a, b, c)
    want = _per_segment_thinness(a, b, c, hp._SegmentChart.dist)
    assert np.all(got <= want)
    assert float(want.max()) < 1e-2


def test_crossing_estimate_matches_the_bisection(monkeypatch):
    # the angle-bisector estimate of each side's crossing sample, checked
    # at its two candidates, gives bit for bit the defects of bisecting
    # every side; on random triangles the check passes on at least 99% of
    # sides at every radius, and on the edge batches some sides fail it
    # and bisect
    rng = np.random.default_rng(19)
    batches = [(f"radius {r}", *hp.random_points(rng, 3 * 2048, r).reshape(
        3, 2048)) for r in (1e-3, 1.0, 4.0, 10.0, hp.MC_MAX_RADIUS)]
    batches += list(_edge_batches())
    bisected = []
    bisect = hp._bisect_crossings

    def spy(side, nxt, prev):
        bisected.append(len(side.p))
        return bisect(side, nxt, prev)

    monkeypatch.setattr(hp, "_bisect_crossings", spy)
    got, rows = [], []
    for _, a, b, c in batches:
        bisected.clear()
        got.append(hp.triangle_thinness(a, b, c))
        rows.append(sum(bisected))
    assert max(rows[:5]) <= 0.01 * 3 * 2048
    assert sum(rows[5:]) > 0
    monkeypatch.setattr(hp, "_crossing_estimate",
                        lambda ab, *_: np.full_like(ab, np.nan))
    for (name, a, b, c), defect in zip(batches, got):
        bisected.clear()
        assert np.array_equal(hp.triangle_thinness(a, b, c), defect), name
        assert bisected == [3 * len(a)]
    # the check catches a wrong estimate, too early or too late
    monkeypatch.setattr(hp, "_crossing_estimate", lambda ab, *_: rng.integers(
        0, hp.SAMPLES_PER_SIDE + 1, len(ab)).astype(float))
    for (name, a, b, c), defect in zip(batches, got):
        assert np.array_equal(hp.triangle_thinness(a, b, c), defect), name


def test_triangle_thinness_raises_no_warning_at_the_largest_radius():
    # sides long enough that tanh of their length rounds to 1, sides of
    # length 0, whose crossing estimates are undefined, and the edge
    # batches
    rng = np.random.default_rng(23)
    a, b, c = hp.random_points(rng, 3 * 2048, hp.MC_MAX_RADIUS).reshape(
        3, 2048)
    assert np.any(np.tanh(hp.dist(a, b)) == 1.0)
    batches = [(a, b, c), (a, a.copy(), c), (a, a.copy(), a.copy())]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for a, b, c in batches + [t[1:] for t in _edge_batches()]:
            assert np.all(np.isfinite(hp.triangle_thinness(a, b, c)))


def test_delta_radius_limit_is_where_the_dense_defects_stay_slim():
    # every triangle of H^2 is ln(1 + sqrt 2)-slim; at the largest radius
    # estimate_delta_mc accepts, the dense route over all 24 samples
    # stays under that bound on a seeded batch, and a radius where the
    # float arithmetic breaks down is refused
    rng = np.random.default_rng(0)
    a, b, c = hp.random_points(rng, 3 * 4096, hp.MC_MAX_RADIUS).reshape(
        3, 4096)
    dense = _per_segment_thinness(a, b, c, reference.segment_dist)
    assert float(dense.max()) <= math.log(1.0 + math.sqrt(2.0))
    assert hp.estimate_delta_mc(10, hp.MC_MAX_RADIUS, 0) > 0.0
    with pytest.raises(ValueError, match="MC_MAX_RADIUS"):
        hp.estimate_delta_mc(10, 30.0, 0)


def test_dist_to_segment_matches_dense_sampling():
    # the nearest of 4001 evenly spaced segment points is within half a
    # spacing of the closed form, vertical sides and clamped feet included
    a, b, c = _slim_batch()
    z = hp._SegmentChart(a, b).sample(24)
    for p, q in ((b, c), (c, a)):
        seg = hp._SegmentChart(p, q)
        exact = seg.dist(z)
        dense = seg.sample(4001)
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


def test_shadow_arc_shrinks_with_distance():
    widths = []
    for d in (1.0, 2.0, 3.0):
        lo, hi = hp.shadow_arc(2j * math.exp(d), 2j, 0.5)
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2] > 0

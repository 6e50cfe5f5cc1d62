"""Dynamical metrics, spanning counts, and expansivity probes."""

import math

import numpy as np
import pytest

from hyplab import entropy, flat, halfplane, words
from hyplab.geometry import FLAT, PLANE, TREE, BackendMismatch


def dyn_metric(v, w, k):
    """d_k(v, w) = max over t in [0, k] of d(c_v(t), c_w(t)), pair by pair:
    the reference that the one-pass d_n rows are checked against.

    Tree flow lines are evaluated at the exact integer times, each
    repeating its forward window past its end; the continuous backends
    sample a uniform t grid including both ends, SAMPLES_PER_UNIT points
    per unit time.
    """
    if v.backend != w.backend:
        raise BackendMismatch("flow points live on different backends")
    if v.backend == TREE:
        k = int(k)
        fv, fw = ((u.future * (k // len(u.future) + 1))[:k] for u in (v, w))
        if not (words.is_reduced(fv) and words.is_reduced(fw)):
            raise ValueError("k exceeds usable window")
        return max(float(words.distance(words.mul(v.origin, fv[:t]),
                                        words.mul(w.origin, fw[:t])))
                   for t in range(k + 1))
    ts = np.linspace(0.0, float(k),
                     max(2, int(k * entropy.SAMPLES_PER_UNIT) + 1))
    metric = flat.torus_dist if v.backend == FLAT else halfplane.dist
    return max(metric(v.point(t), w.point(t)) for t in ts)


def test_dyn_metric_symmetric_and_monotone_in_k():
    sample = entropy.tree_flow_sample(4)
    v, w = sample[0], sample[7]
    d1 = dyn_metric(v, w, 1)
    d3 = dyn_metric(v, w, 3)
    assert d3 >= d1 >= 0
    assert dyn_metric(w, v, 3) == d3


def test_tree_spanning_count_exact_branching():
    sample = entropy.tree_flow_sample(6)
    for n in range(1, 6):
        rep = sample and entropy.spanning_count(sample, n, 0.5)
        assert rep.method == "exact-symbolic"
        assert rep.lower == rep.upper == 4 * 3 ** (n - 1)


def test_spanning_report_sandwich():
    sample = entropy.flat_flow_sample(n_dirs=90, n_pos=2)
    rep = entropy.spanning_count(sample, 8, 0.5)
    assert rep.lower <= rep.upper
    assert rep.lower >= 1


def _greedy_reference(sample, n, delta):
    """(lower, upper) of one n by the plain greedy loops over a full
    dyn_metric matrix: the cover marks each new centre's delta-ball, the
    separated set keeps a line 2 delta-far from all kept so far."""
    m = len(sample)
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d[i, j] = d[j, i] = dyn_metric(sample[i], sample[j], n)
    covered, upper = np.zeros(m, dtype=bool), 0
    for i in range(m):
        if not covered[i]:
            upper += 1
            covered |= d[i] <= delta
    kept = []
    for i in range(m):
        if all(d[i, j] > 2.0 * delta for j in kept):
            kept.append(i)
    return len(kept), upper


@pytest.mark.parametrize("sample, grid, delta", [
    (entropy.flat_flow_sample(n_dirs=48, n_pos=1), [2, 1, 3], 0.3),
    (entropy.plane_flow_sample(n_dirs=8, n_pos=3), [3, 1, 4], 0.5),
    (entropy.tree_flow_sample(3), [1, 3, 2], 1.5),
    # many cover members: up to 60 centres, and lower < upper at each n
    (entropy.flat_flow_sample(n_dirs=60, n_pos=1), [6, 2, 4], 0.25),
    # the tree at integer deltas, where some d_n meets a threshold exactly
    (entropy.tree_flow_sample(3), [1, 3, 2], 1.0),
    (entropy.tree_flow_sample(3, rank=3), [1, 3, 2], 2.0),
])
def test_spanning_counts_grids_nest(sample, grid, delta):
    # one pass on the largest n gives what independent per-n runs give
    reports = entropy.spanning_counts(sample, grid, delta)
    assert [r.n for r in reports] == grid
    for n, rep in zip(grid, reports):
        assert (rep.lower, rep.upper) == _greedy_reference(sample, n, delta)
        assert rep == entropy.spanning_count(sample, n, delta)
    # repeated, unordered and zero n: each report is its own n's
    for odd in ([3, 1, 3], [2, 2], [0, 2, 1]):
        assert entropy.spanning_counts(sample, odd, delta) == [
            entropy.spanning_count(sample, n, delta) for n in odd]
    # neither scan is trivial: both thresholds cut somewhere
    assert any(1 < r.lower < r.upper < len(sample) for r in reports)
    for bad in ([2.5], [1, 0.25], [-1]):
        with pytest.raises(ValueError):
            entropy.spanning_counts(sample, bad, delta)
    with pytest.raises(ValueError):
        entropy.spanning_count(sample, 1.5, delta)
    for bad in (-delta, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            entropy.spanning_counts(sample, grid, bad)


def _periodic_tree_sample(origin):
    """One line from `origin` per reduced window of length 1..3 that
    repeats as a reduced word: "a", "aa" and "aaa" are one line, "ab"
    and "aba" part at time 4, so classes run past every window."""
    return [entropy.FlowPoint(TREE, origin, f,
                              next(c for c in "abAB" if c != f[0]))
            for f in words.ball_words(3)
            if f and words.is_reduced(f + f)]


@pytest.mark.parametrize("origin", ["ab", "B"])
@pytest.mark.parametrize("delta", [0.5, 1.0, 1.5, 3.0])
def test_tree_counts_from_a_shared_origin_match_dyn_metric(origin, delta):
    sample = _periodic_tree_sample(origin)
    grid = list(range(8))
    reports = entropy.spanning_counts(sample, grid, delta)
    for n, rep in zip(grid, reports):
        assert (rep.lower, rep.upper) == _greedy_reference(sample, n, delta)
        assert rep.method == ("exact-symbolic" if delta < 1
                              else "greedy-cover/separated-lower")
    assert reports[-1].upper < len(sample)


def test_tree_counts_refuse_mixed_origins_and_unrepeatable_windows():
    sample = _periodic_tree_sample("")
    mixed = sample[:5] + _periodic_tree_sample("b")[5:]
    for delta in (0.5, 1.5):
        with pytest.raises(ValueError, match="one origin"):
            entropy.spanning_counts(mixed, [1, 2], delta)
    # abA abA cancels at the junction: time 3 exists, time 4 does not
    sample.append(entropy.FlowPoint(TREE, "", "abA", "B"))
    for delta in (0.5, 1.5, 20.0):
        assert entropy.spanning_counts(sample, [3, 1], delta)
        with pytest.raises(ValueError, match="does not repeat"):
            entropy.spanning_counts(sample, [1, 4], delta)


def test_flat_dn_is_the_torus_dyn_metric():
    # lifts drift up to 40 apart by n = 40; d_n must still be a torus
    # distance, at most the diameter sqrt(2)/2
    sample = entropy.flat_flow_sample(n_dirs=12, n_pos=2)
    row = entropy._dn_rows(sample, [40])
    for i in (0, 5, 17):
        dn = row(i, np.arange(len(sample)))[0]
        assert dn.max() <= math.sqrt(0.5) + 1e-12
        for j in range(0, len(sample), 3):
            assert abs(dn[j] - dyn_metric(sample[i], sample[j],
                                          40)) <= 1e-12


def test_flat_spanning_counts_grow_linearly():
    sample = entropy.flat_flow_sample(n_dirs=360, n_pos=2)
    counts = [entropy.spanning_count(sample, n, 0.5).upper
              for n in (10, 20, 40)]
    assert counts[0] <= counts[1] <= counts[2]
    # sub-exponential: the log-slope over n = 10..40 stays tiny
    slope = math.log(counts[2] / counts[0]) / 30.0
    assert slope < 0.05


def test_estimate_htop_tree_is_log3():
    est = entropy.estimate_htop(TREE)
    assert est.h == pytest.approx(math.log(3), abs=1e-9)
    assert est.gap <= 0.1 * math.log(3)


def test_estimate_htop_needs_two_distinct_n():
    # one n (or one n twice) has no slope: refused, not fitted
    for backend, grid in ((FLAT, [3, 3]), (TREE, [5])):
        with pytest.raises(ValueError, match="no two distinct n"):
            entropy.estimate_htop(backend, n_grid=grid)


def test_estimate_htop_tree_rank3_is_log5():
    est = entropy.estimate_htop(TREE, n_grid=range(1, 5), rank=3,
                                sample=entropy.tree_flow_sample(4, rank=3))
    assert est.h == pytest.approx(math.log(5), abs=1e-9)


def test_z_set_probe_tree_certificate():
    v = entropy.tree_flow_sample(6)[0]
    rep = entropy.z_set_probe(v, 0.4)
    assert rep.classification == "EXPANSIVE-AT-SCALE"
    assert "integer" in rep.certificate
    rep = entropy.z_set_probe(v, 1.5)
    assert rep.classification == "UNKNOWN"
    for bad in (-0.4, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            entropy.z_set_probe(v, bad)


def test_z_set_probe_flat_witness_stays_close():
    v = entropy.flat_flow_sample(n_dirs=4, n_pos=1)[0]
    rep = entropy.z_set_probe(v, 0.4)
    assert rep.classification == "NON-EXPANSIVE-WITNESS"
    w = rep.witness
    for t in (-5.0, 0.0, 5.0):
        assert flat.torus_dist(v.point(t), w.point(t)) <= 0.4


def test_z_set_probe_plane_inconclusive():
    v = entropy.plane_flow_sample(n_dirs=4, n_pos=1)[0]
    rep = entropy.z_set_probe(v, 0.3, horizon=10, sample_budget=50)
    assert rep.classification == "UNKNOWN"
    assert "witness" in rep.detail


def test_z_set_probe_spends_its_budget_on_points_of_the_plane(monkeypatch):
    # at rho = 5 about a fifth of the raw perturbations fall off the
    # upper half-plane; they are redrawn, and each of the 400 counted
    # candidates is a point of the plane
    built = []
    flow_point = entropy.FlowPoint

    def recording(*args, **kwargs):
        built.append(complex(kwargs["pos"]))
        return flow_point(*args, **kwargs)

    monkeypatch.setattr(entropy, "FlowPoint", recording)
    v = flow_point(PLANE, pos=0.1 + 1.3j, theta=0.7)
    rep = entropy.z_set_probe(v, 5.0)
    assert rep.classification == "UNKNOWN"
    assert len(built) == 400
    assert all(z.imag > 0 for z in built)


def test_plane_flow_point_must_lie_in_the_upper_half_plane():
    for pos in (0.3 + 0.0j, 0.3 - 0.2j):
        with pytest.raises(ValueError):
            entropy.FlowPoint(PLANE, pos=pos, theta=0.1)


def test_endpoint_fiber_probe_counts():
    n, _ = entropy.endpoint_fiber_probe(TREE, "a", "b")
    assert n == 1
    n, _ = entropy.endpoint_fiber_probe(PLANE, -1.3, 0.7)
    assert n == 1
    n, wits = entropy.endpoint_fiber_probe(FLAT, 0.3, 0.3 + math.pi)
    assert n >= 2
    a, b = wits[0], wits[1]
    assert a.theta == b.theta
    assert not np.array_equal(a.pos, b.pos)


def test_flat_fiber_endpoints_must_be_opposite_directions():
    n, _ = entropy.endpoint_fiber_probe(FLAT, 0.3, 0.3 - math.pi)
    assert n == 2
    for eta in (1.0, 0.3, math.inf):
        with pytest.raises(ValueError):
            entropy.endpoint_fiber_probe(FLAT, 0.3, eta)


def test_plane_flow_point_is_anchored_at_its_position():
    v = entropy.FlowPoint(PLANE, pos=0.1 + 1.3j, theta=0.7)
    assert type(v.point(0.0)) is complex and type(v.point(2)) is complex
    assert abs(v.point(0.0) - v.pos) < 1e-12
    ts = np.linspace(-2.0, 2.0, 9)
    z = v.point(ts)
    assert z.shape == ts.shape
    assert np.allclose(z, [v.point(t) for t in ts], rtol=1e-15, atol=0)
    # the initial tangent direction is theta
    assert halfplane.direction_toward(v.pos, v.geodesic.v) \
        == pytest.approx(0.7, abs=1e-12)


def test_flow_point_backend_is_checked_at_construction():
    with pytest.raises(BackendMismatch):
        entropy.FlowPoint("bogus")
    with pytest.raises(BackendMismatch):
        entropy.FlowPoint("modular", pos=0.1 + 1.3j)


def test_tree_flow_point_repeats_only_a_reduced_window():
    v = entropy.FlowPoint(TREE, "", "abA", "B")
    assert [v.point(t) for t in range(4)] == ["", "a", "ab", "abA"]
    assert v.point(-3) == "BBB"
    # abA abA cancels at the junction: no time past the window exists
    for t in (4, 6):
        with pytest.raises(ValueError):
            v.point(t)
    w = entropy.FlowPoint(TREE, "", "ab", "B")
    assert w.point(5) == "ababa"


def test_rejects_unreduced_windows():
    with pytest.raises(ValueError):
        entropy.FlowPoint(TREE, "", "aA", "b")
    with pytest.raises(ValueError):
        entropy.FlowPoint(TREE, "", "ab", "a")  # backtracks at time 0


def test_rejects_an_unreduced_tree_origin():
    # "aA" is the vertex "", whose point at time 1 is "b", not "aAb"
    with pytest.raises(ValueError, match="not reduced"):
        entropy.FlowPoint(TREE, "aA", "b", "a")
    assert entropy.FlowPoint(TREE, "ab", "b", "a").point(1) == "abb"

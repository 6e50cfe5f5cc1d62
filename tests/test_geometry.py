"""Backend records and hyperbolicity constants, and the Busemann cocycle
and Gromov-product limit checked on each backend's own primitives."""

import math

import pytest

from hyplab import geometry as geo
from hyplab import halfplane, words
from hyplab.geometry import FLAT, PLANE, TREE

import reference


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
    x = reference.ray(p, xi).point(t)
    y = reference.ray(p, eta).point(t)
    limit = 2 * t - halfplane.dist(x, y)
    assert beta == pytest.approx(limit, abs=1e-5)


def test_estimate_delta_per_backend():
    tree = geo.estimate_delta(TREE)
    assert tree.delta == 0.0 and tree.provenance == "exact"
    plane = geo.estimate_delta(PLANE, sample_count=2000, radius=3.0)
    assert 0.0 < plane.delta < 0.9
    flat = geo.estimate_delta(FLAT, radius=50.0)
    assert flat.delta == math.inf and flat.witness is not None
    # the modular surface is a quotient of the plane, not a backend here
    with pytest.raises(geo.BackendMismatch):
        geo.estimate_delta("modular")


@pytest.mark.parametrize("count, radius", [
    (0, 3.0), (-5, 3.0), (10, 0.0), (10, -1.0), (10, math.nan),
    (10, math.inf)])
def test_estimate_delta_plane_refuses_bad_input(count, radius):
    with pytest.raises(ValueError, match="below 1|finite positive"):
        geo.estimate_delta(PLANE, sample_count=count, radius=radius)


@pytest.mark.parametrize("count", [2.5, 0.5, math.inf, -math.inf, math.nan])
def test_estimate_delta_plane_refuses_a_count_that_is_not_whole(count):
    with pytest.raises(ValueError, match="not a finite whole number"):
        geo.estimate_delta(PLANE, sample_count=count, radius=3.0)


def test_estimate_delta_plane_takes_a_whole_float_count():
    assert geo.estimate_delta(PLANE, sample_count=300.0, radius=3.0) \
        == geo.estimate_delta(PLANE, sample_count=300, radius=3.0)


def test_estimate_delta_deterministic_given_seed():
    a = geo.estimate_delta(PLANE, sample_count=2000, radius=3.0, seed=5)
    b = geo.estimate_delta(PLANE, sample_count=2000, radius=3.0, seed=5)
    assert a.delta == b.delta


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_tree_record_h_is_log_2k_minus_1(rank):
    b = geo.Backend.of(TREE, rank)
    assert (b.name, b.cli, b.rank) == (TREE, "tree", rank)
    assert b.h == math.log(2 * rank - 1)


def test_plane_and_flat_records():
    plane, flat = geo.Backend.of(PLANE), geo.Backend.of(FLAT)
    assert (plane.cli, plane.h, plane.base, plane.rank) \
        == ("modular", 1.0, 2j, None)
    assert (flat.cli, flat.h, flat.T) == ("flat", None, None)
    # the command-line name reaches the same record, the library name not
    assert geo.Backend.of("modular", cli=True) == plane
    with pytest.raises(geo.BackendMismatch, match="unknown backend"):
        geo.Backend.of("modular")
    with pytest.raises(geo.BackendMismatch, match="unknown backend"):
        geo.Backend.of(PLANE, cli=True)


@pytest.mark.parametrize("name", ["bogus", "", None])
def test_record_refuses_an_unknown_name(name):
    with pytest.raises(geo.BackendMismatch, match="unknown backend"):
        geo.Backend.of(name)


def test_record_refuses_flat_where_hyperbolic_is_required():
    assert geo.Backend.of(TREE, hyperbolic=True).h > 0
    assert geo.Backend.of(PLANE, hyperbolic=True).h == 1.0
    with pytest.raises(geo.BackendMismatch, match="not hyperbolic"):
        geo.Backend.of(FLAT, hyperbolic=True)


@pytest.mark.parametrize("rank", [1, 0, 27])
def test_tree_record_refuses_a_rank_outside_2_to_26(rank):
    with pytest.raises(ValueError, match="tree rank must be in 2..26"):
        geo.Backend.of(TREE, rank)
    # the other backends have no rank to check
    assert geo.Backend.of(PLANE, rank).rank is None


@pytest.mark.parametrize("name, top, want", [
    (TREE, None, [float(r) for r in range(2, 13)]),
    (TREE, "10.5", [float(r) for r in range(2, 11)]),
    (PLANE, 6.9, [2.0, 3.0, 4.0, 5.0, 6.0]),
    (FLAT, "20.5", [4.0, 8.0, 12.0, 16.0, 20.0])])
def test_record_radii_floor_a_number_or_its_text(name, top, want):
    assert geo.Backend.of(name).radii(top) == want


def test_every_route_carries_the_record_h():
    from hyplab import counting, measures, modular
    for rank in (2, 3):
        h = geo.Backend.of(TREE, rank).h
        assert counting.geodesic_census(TREE, 6, rank).h == h
        assert measures.pair_measure(
            TREE, "", measures.tree_partition(2, rank)).h == h
    h = geo.Backend.of(PLANE).h
    assert modular.enumerate_conj_classes(6).h == h
    assert measures.pair_measure(PLANE, 2j, measures.plane_partition(8),
                                 masses=[1.0 / 8] * 8).h == h

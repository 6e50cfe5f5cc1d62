"""Euclidean control backend: lattice counts and torus metric."""

import math

import pytest

from hyplab import flat


def test_lattice_ball_small_radii():
    assert len(flat.lattice_ball(0.0)) == 1
    assert len(flat.lattice_ball(1.0)) == 5
    assert len(flat.lattice_ball(1.5)) == 9
    assert len(flat.lattice_ball(2.0)) == 13


def test_lattice_ball_quadratic_growth():
    counts = flat.orbit_counts([10.0, 20.0, 40.0])
    # area law: count / (pi r^2) -> 1
    for r, c in zip((10.0, 20.0, 40.0), counts):
        assert abs(c / (math.pi * r * r) - 1.0) < 0.1


def test_torus_dist_wraps():
    assert flat.torus_dist((0.1, 0.0), (0.9, 0.0)) == pytest.approx(0.2)
    assert flat.torus_dist((0.0, 0.0), (0.5, 0.5)) \
        == pytest.approx(math.sqrt(0.5))


def test_witness_triangle_defect_grows_with_radius():
    _, d1 = flat.witness_triangle(10.0)
    _, d2 = flat.witness_triangle(100.0)
    assert d2 > d1 > 0

"""Orbit censuses, entropy fits, and geodesic counting statistics."""

import math

import pytest

from hyplab import counting, words
from hyplab.geometry import FLAT, PLANE, TREE, BackendMismatch


def test_tree_orbit_counts_closed_form():
    census = counting.orbit_count(TREE, None, range(1, 11))
    for r, c in census.entries:
        assert c == 2 * 3 ** int(r) - 1
    assert all(census.complete)


def test_tree_orbit_counts_rank_three():
    census = counting.orbit_count(TREE, None, range(1, 8), rank=3)
    for r, c in census.entries:
        assert c == words.ball_count(int(r), rank=3)


def test_flat_orbit_counts_are_lattice_counts():
    census = counting.orbit_count(FLAT, None, [1.0, 2.0, 5.0])
    assert census.counts == [5, 13, 81]


def test_plane_orbit_counts_grow_exponentially():
    census = counting.orbit_count(PLANE, 2j, [2.0, 4.0, 6.0])
    a, b, c = census.counts
    assert a < b < c
    assert all(census.complete)
    # volume entropy 1: consecutive ratios near e^2
    assert 2.0 < c / b < 25.0


def test_fit_entropy_recovers_log3_on_the_tree():
    census = counting.orbit_count(TREE, None, range(2, 13))
    fit = counting.fit_entropy(census)
    assert fit.h == pytest.approx(math.log(3), abs=0.02)
    assert fit.C1 <= fit.C2
    assert fit.residual < 0.05


def test_fit_entropy_flat_slope_is_tiny():
    census = counting.orbit_count(FLAT, None, range(4, 61, 4))
    fit = counting.fit_entropy(census)
    assert 0.0 <= fit.h < 0.05


def test_fit_entropy_needs_enough_points():
    census = counting.orbit_count(TREE, None, range(1, 4))
    with pytest.raises(ValueError):
        counting.fit_entropy(census, window=(1, 2))


def test_tree_census_is_the_necklace_count():
    census = counting.geodesic_census(TREE, 6)
    neck = set(words.necklaces(6, primitive_only=True))
    assert len(census.lengths) == len(neck)
    assert census.count(2.0) == sum(1 for w in neck if len(w) <= 2)
    assert census.h == pytest.approx(math.log(3))


def test_flat_census_refused():
    with pytest.raises(BackendMismatch):
        counting.geodesic_census(FLAT, 5)


def test_margulis_ratio_tree_is_order_one():
    census = counting.geodesic_census(TREE, 12)
    h = math.log(3)
    for t in (8, 10, 12):
        r = counting.margulis_ratio(census, h, t)
        assert 0.3 < r < 3.0


def test_margulis_table_shape():
    census = counting.geodesic_census(PLANE, 6)
    table = counting.margulis_table(census, 1.0, [4, 5, 6])
    assert [t for t, _, _ in table] == [4, 5, 6]
    counts = [p for _, p, _ in table]
    assert counts == sorted(counts)


def test_primitive_test_tree_words():
    assert counting.primitive_test("ab")
    assert not counting.primitive_test("abab")
    assert counting.primitive_test("aabba")


def test_primitive_test_matrices():
    m = (2, 1, 1, 1)
    assert counting.primitive_test(m)
    assert not counting.primitive_test(counting.modular.mat_pow(m, 2))
    assert not counting.primitive_test(counting.modular.mat_pow(m, 3))
    with pytest.raises(ValueError):
        counting.primitive_test((1, 1, 0, 1))  # parabolic


def test_primitive_test_agrees_with_the_necklace_period():
    # the Cayley-Hamilton root test shares no code with the necklace
    # period that enumerate_conj_classes reads primitivity from
    classes = counting.modular.enumerate_conj_classes(
        8, include_imprimitive=True)
    assert any(not c.primitive for c in classes)
    for c in classes:
        assert counting.primitive_test(c.matrix) == c.primitive

"""Orbit censuses, entropy fits, and geodesic counting statistics."""

import bisect
import math

import pytest

from hyplab import counting, measures, modular, words
from hyplab.geometry import FLAT, PLANE, TREE, BackendMismatch

import reference


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


@pytest.mark.parametrize("base, grid", [
    (2j, [float(r) for r in range(2, 11)]),
    (0.5 + 0.9j, [2.0, 3.5, 5.0, 7.25, 8.0])])
def test_plane_orbit_counts_equal_one_ball_per_radius(base, grid):
    census = counting.orbit_count(PLANE, base, grid)
    assert census.counts == [len(modular.modular_ball(base, r).elements)
                             for r in grid]


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


@pytest.mark.parametrize("backend, T", [(TREE, 8), (PLANE, 10.0)])
def test_census_comes_in_length_then_word_order(backend, T):
    census = counting.geodesic_census(backend, T)
    assert list(census.entries) == sorted(census.entries)


@pytest.mark.parametrize("backend, T", [(TREE, 8), (PLANE, 10.0)])
def test_count_is_the_length_bisection_with_slack(backend, T):
    census = counting.geodesic_census(backend, T)
    lengths = census.lengths.tolist()
    for x in sorted(set(lengths)):
        for y in (x, x - 1e-12):  # at each length and at its slack edge
            for t in (math.nextafter(y, -math.inf), y,
                      math.nextafter(y, math.inf)):
                if t <= T:
                    assert census.count(t) \
                        == bisect.bisect_right(lengths, t + 1e-12)


@pytest.mark.parametrize("backend", [TREE, PLANE])
def test_census_refuses_t_beyond_its_bound(backend):
    census = counting.geodesic_census(backend, 6)
    assert census.count(6) == len(census)
    for t in (9, math.nan):
        with pytest.raises(ValueError, match="beyond the census bound"):
            census.count(t)
    with pytest.raises(ValueError, match="beyond the census bound"):
        counting.margulis_ratio(census, census.h, 9)
    if backend == PLANE:
        with pytest.raises(ValueError, match="beyond the census bound"):
            measures.equidistribution_test(census, 9)


def _matrix_root_test(m, k):
    """Integer k-th root of a hyperbolic matrix in PSL(2, Z), if any.

    Cayley-Hamilton gives m0^k = U_{k-1}(s) m0 - U_{k-2}(s) I where s is
    the trace of m0 and U_j the trace-recurrence coefficients, so a root
    exists iff (m + U_{k-2} I) / U_{k-1} is integral with determinant 1.
    """
    t = reference.trace(m)
    for s in range(3, t + 1):
        u_prev, u = 0, 1  # U_{-1}, U_0
        for _ in range(k - 1):
            u_prev, u = u, s * u - u_prev
        # trace of the k-th power of a trace-s matrix
        t_prev, t_cur = 2, s
        for _ in range(k - 1):
            t_prev, t_cur = t_cur, s * t_cur - t_prev
        if t_cur != t:
            continue
        a, b, c, d = m
        num = (a + u_prev, b, c, d + u_prev)
        if all(x % u == 0 for x in num):
            root = tuple(x // u for x in num)
            if (reference.det(root) == 1
                    and reference.mat_pow(root, k) == m):
                return root
    return None


def primitive_test(element):
    """Whether the element is not a proper power of another element.

    Accepts a tree word (string) or an integer matrix 4-tuple.  Both
    routes are exact.
    """
    if isinstance(element, str):
        w, _ = reference.cyclic_reduce(element)
        if not w:
            raise ValueError("identity element has no primitivity class")
        return reference.is_primitive(w)
    m = reference.normalize(tuple(int(x) for x in element))
    t = reference.trace(m)
    if abs(t) <= 2:
        raise ValueError("only a hyperbolic element has a primitivity class")
    k = 2
    while 2 * math.cosh(math.acosh(t / 2.0) / k) >= 3 - 1e-9:
        if _matrix_root_test(m, k) is not None:
            return False
        k += 1
    return True


def test_primitive_test_tree_words():
    assert primitive_test("ab")
    assert not primitive_test("abab")
    assert primitive_test("aabba")


def test_primitive_test_matrices():
    m = (2, 1, 1, 1)
    assert primitive_test(m)
    assert not primitive_test(reference.mat_pow(m, 2))
    assert not primitive_test(reference.mat_pow(m, 3))
    with pytest.raises(ValueError):
        primitive_test((1, 1, 0, 1))  # parabolic


def test_primitive_test_agrees_with_the_necklace_period():
    # the Cayley-Hamilton root test shares no code with the necklace
    # period that enumerate_conj_classes reads primitivity from
    census = counting.modular.enumerate_conj_classes(
        8, include_imprimitive=True)
    assert not census.primitive.all()
    for m, prim in zip(census.matrices.tolist(), census.primitive.tolist()):
        assert primitive_test(m) == prim

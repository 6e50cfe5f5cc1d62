"""Free-group word algebra against small brute-force enumerations."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from hyplab import words


def test_reduce_cancels_adjacent_inverses():
    assert words.reduce_word("aA") == ""
    assert words.reduce_word("abBA") == ""
    assert words.reduce_word("abBc", rank=3) == "ac"
    assert words.reduce_word("aabB") == "aa"


def test_mul_group_laws():
    sample = ["", "a", "ab", "aB", "bA", "abA", "BBa"]
    for u, v, w in itertools.product(sample, repeat=3):
        assert words.mul(words.mul(u, v), w) == words.mul(u, words.mul(v, w))
    for u in sample:
        assert words.mul(u, words.inverse(u)) == ""
        assert words.mul(u, "") == u


def test_distance_is_a_metric_on_a_small_ball():
    ball = sorted(words.ball_words(3))
    for u in ball:
        assert words.distance(u, u) == 0
    for u, v in itertools.combinations(ball, 2):
        d = words.distance(u, v)
        assert d == words.distance(v, u) > 0
    for u, v, w in itertools.islice(
            itertools.product(ball, repeat=3), 5000):
        assert (words.distance(u, w)
                <= words.distance(u, v) + words.distance(v, w))


def test_ball_count_closed_form():
    for rank in (2, 3):
        q = 2 * rank - 1
        for r in range(0, 8):
            expected = 1 + sum(2 * rank * q ** (m - 1)
                               for m in range(1, r + 1))
            assert words.ball_count(r, rank) == expected
            assert len(list(words.ball_words(r, rank))) == expected


def test_geodesic_vertices_walk_unit_steps():
    for u, v in [("ab", "aB"), ("", "abab"), ("bA", "ba"), ("a", "a")]:
        path = words.geodesic_vertices(u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) == words.distance(u, v) + 1
        for x, y in zip(path, path[1:]):
            assert words.distance(x, y) == 1


def test_translation_length_matches_brute_force():
    for w in ["ab", "aab", "abAB", "aBa", "bb", "aBAbb"]:
        assert (words.translation_length(w)
                == words.brute_force_translation_length(w, 4))


def test_translation_length_of_conjugates_is_invariant():
    for g in ["a", "Ba", "abA"]:
        for w in ["ab", "abb", "aBaB"]:
            conj = words.mul(words.mul(g, w), words.inverse(g))
            assert (words.translation_length(conj)
                    == words.translation_length(w))


def _brute_necklaces(max_len, primitive_only=True):
    """Rotation classes of cyclically reduced words, by direct filtering."""
    lets = "abAB"
    out = set()
    for n in range(1, max_len + 1):
        for tup in itertools.product(lets, repeat=n):
            w = "".join(tup)
            if not words.is_reduced(w):
                continue
            if n > 1 and w[0] == words.inv_letter(w[-1]):
                continue
            rots = {w[i:] + w[:i] for i in range(n)}
            if primitive_only and len(rots) < n:
                continue
            out.add(min(rots))
    return out


def test_necklaces_match_brute_force():
    got = {words.canonical_rotation(w) for w in words.necklaces(5)}
    assert got == _brute_necklaces(5)


def _mobius(n):
    mu, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            mu = -mu
        f += 1
    return -mu if m > 1 else mu


def _totient(n):
    return sum(math.gcd(n, j) == 1 for j in range(1, n + 1))


def _class_count(n, k, weight):
    """(1/n) sum_{d|n} weight(n/d) tr A^d for the non-backtracking letter
    matrix A of F_k, whose traces are (2k-1)^d + (k-1)(-1)^d + k."""
    total = sum(weight(n // d) * ((2 * k - 1) ** d + (k - 1) * (-1) ** d + k)
                for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


@pytest.mark.parametrize("rank, max_len", [(2, 12), (3, 7)])
def test_necklace_counts_match_closed_forms(rank, max_len):
    for primitive_only, weight in ((True, _mobius), (False, _totient)):
        counts = [0] * (max_len + 1)
        for w in words.necklaces(max_len, rank, primitive_only):
            counts[len(w)] += 1
        want = [_class_count(n, rank, weight) for n in range(1, max_len + 1)]
        assert counts[1:] == want


def test_cylinder_measures_are_exact_and_additive():
    assert words.cylinder_measure("a") == Fraction(1, 4)
    assert words.cylinder_measure("ab") == Fraction(1, 12)
    children = [words.cylinder_measure("a" + c) for c in "abB"]
    assert sum(children) == words.cylinder_measure("a")
    total = sum(words.cylinder_measure(c) for c in "abAB")
    assert total == 1


def test_visual_measure_conformal_scaling():
    # moving the base point one step toward the cylinder triples the mass
    assert (words.visual_measure("a", "ab")
            == 3 * words.visual_measure("", "ab"))
    assert (words.visual_measure("A", "ab")
            == Fraction(1, 3) * words.visual_measure("", "ab"))


def test_visual_exponent_equals_visual_measure():
    # every base |p| <= 4 against every cell of depth 1..4, inside cells
    # (p below w, the complement form) included
    cells = [w for w in words.ball_words(4) if w]
    inside = 0
    for p in words.ball_words(4):
        for w in cells:
            e, below = words.visual_exponent(p, w)
            mass = Fraction(1, 4) * Fraction(1, 3) ** e
            assert (1 - mass if below else mass) == words.visual_measure(p, w)
            assert below == p.startswith(w)
            inside += below
    assert inside > 0


def test_visual_exponent_matches_sphere_proportions():
    # independent route: the share of the sphere S(p, n) below w is
    # exactly (1/4)(1/3)^(d(p, w) - 1) once n >= d(p, w), and the
    # complement share across the parent edge when p lies below w
    n = 6
    sphere = [z for z in words.ball_words(n) if len(z) == n]
    for p in words.ball_words(2):
        ends = [words.mul(p, z) for z in sphere]
        for w in (w for w in words.ball_words(3) if w):
            share = Fraction(sum(y.startswith(w) for y in ends), len(ends))
            e, below = words.visual_exponent(p, w)
            mass = Fraction(1, 4) * Fraction(1, 3) ** e
            assert share == (1 - mass if below else mass)


def _exhaustive_deviation(v, rho):
    """Every vertex of every geodesic [u, v w], |u|, |w| <= rho."""
    ball = sorted(words.ball_words(rho))
    worst = 0
    for u in ball:
        for v2 in (words.mul(v, w) for w in ball):
            for x in words.geodesic_vertices(u, v2):
                worst = max(worst, len(x) - words.common_prefix_len(x, v))
    return worst


@pytest.mark.parametrize("rho", [1, 2])
def test_fellow_travel_deviation_matches_exhaustive_walk(rho):
    got = {v: words.fellow_travel_deviation(v, rho)
           for v in words.ball_words(5)}
    assert got == {v: _exhaustive_deviation(v, rho) for v in got}
    # the per-v value is rho for every v (see the kernel's docstring), so
    # this comparison alone cannot see the endpoint reduction; the
    # per-geodesic test below checks it where the values vary
    assert set(got.values()) == {rho}


@pytest.mark.parametrize("rho", [1, 2])
def test_geodesic_deviation_is_attained_at_an_endpoint(rho):
    # the kernel's reduction, geodesic by geodesic: the worst vertex of
    # [u, v'] lies at u or at v', for every u in B(rho), v' in v B(rho)
    def dev(x, v):
        return len(x) - words.common_prefix_len(x, v)

    ball = sorted(words.ball_words(rho))
    seen = set()
    for v in words.ball_words(5):
        for u in ball:
            for v2 in (words.mul(v, w) for w in ball):
                walk = max(dev(x, v) for x in words.geodesic_vertices(u, v2))
                assert walk == max(dev(u, v), dev(v2, v)), (u, v2, v)
                seen.add((dev(u, v), dev(v2, v)))
    # both endpoints are needed: each can be the sole maximizer
    assert any(a > b for a, b in seen) and any(b > a for a, b in seen)
    assert {max(a, b) for a, b in seen} == set(range(rho + 1))


def test_tree_busemann_on_rays():
    xi = words.BoundaryWord("a")
    # moving toward xi decreases the Busemann value by the step count
    assert words.tree_busemann("aa", "", xi) == -2
    assert words.tree_busemann("b", "", xi) == 1
    assert words.tree_busemann("", "", xi) == 0


def test_tree_busemann_matches_a_far_ray_vertex():
    rng = random.Random(11)

    def rand_word(n):
        w = ""
        while len(w) < n:
            c = rng.choice("abAB")
            if not w or w[-1] != words.inv_letter(c):
                w += c
        return w

    horizon = 40
    checked = 0
    while checked < 2000:
        try:
            xi = words.BoundaryWord(rand_word(rng.randint(1, 4)),
                                    prefix=rand_word(rng.randint(0, 4)))
        except ValueError:
            continue  # the continuation cancels
        q, p = rand_word(rng.randint(0, 7)), rand_word(rng.randint(0, 7))
        far = words.tree_ray_vertices(p, xi, horizon)[horizon]
        assert (words.tree_busemann(q, p, xi)
                == words.distance(q, far) - horizon)
        checked += 1


def test_boundary_word_expansion():
    xi = words.BoundaryWord("ab", prefix="B")
    w = xi.word(5)
    assert w.startswith("Bab")
    assert words.is_reduced(w)
    assert words.BoundaryWord("ab") == words.BoundaryWord("ab")
    assert words.BoundaryWord("ab") != words.BoundaryWord("ba")


def test_primitive_detection():
    assert words.is_primitive("ab")
    assert not words.is_primitive("abab")
    assert words.is_primitive("aab")
    assert not words.is_primitive("aaa")


def test_sphere_counts_sum_to_ball():
    counts = words.sphere_counts(6)
    assert sum(counts) == words.ball_count(6)
    assert counts[0] == 1 and counts[1] == 4
    for m in range(2, 7):
        assert counts[m] == 3 * counts[m - 1]

"""Property-based invariants over randomized inputs."""

import cmath
import math

from hypothesis import given, settings, strategies as st

from hyplab import halfplane, modular, words

import reference

raw_words = st.text(alphabet="abAB", max_size=12)
reduced_words = raw_words.map(words.reduce_word)


@given(raw_words)
def test_reduce_is_idempotent(w):
    r = words.reduce_word(w)
    assert words.reduce_word(r) == r
    assert words.is_reduced(r)


@given(reduced_words, reduced_words)
def test_distance_symmetry_and_identity(u, v):
    assert words.distance(u, v) == words.distance(v, u)
    assert (words.distance(u, v) == 0) == (u == v)


@given(reduced_words, reduced_words, reduced_words)
def test_distance_triangle_inequality(u, v, w):
    assert words.distance(u, w) <= words.distance(u, v) \
        + words.distance(v, w)


@given(reduced_words, reduced_words)
def test_distance_is_left_invariant(g, u):
    # d(gu, g) = |u| for every group element g
    assert words.distance(words.mul(g, u), g) == len(u)


@given(reduced_words, reduced_words)
def test_translation_length_conjugacy_invariant(g, w):
    conj = words.mul(words.mul(g, w), words.inverse(g))
    assert (reference.translation_length(conj)
            == reference.translation_length(w))


rl_words = st.lists(st.sampled_from(["R", "L"]), min_size=1, max_size=8)


def _word_to_matrix(letters):
    m = modular.IDENT
    for c in letters:
        m = modular.mat_mul(m, reference.R_MAT if c == "R"
                            else reference.L_MAT)
    return m


@given(rl_words)
def test_modular_matrices_are_unimodular(letters):
    assert reference.det(_word_to_matrix(letters)) == 1


@given(rl_words,
       st.complex_numbers(min_magnitude=0.1, max_magnitude=5.0).filter(
           lambda z: z.imag > 0.05),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=5.0).filter(
           lambda z: z.imag > 0.05))
@settings(max_examples=50)
def test_mobius_action_is_isometric(letters, p, q):
    m = _word_to_matrix(letters)
    d0 = halfplane.dist(p, q)
    d1 = halfplane.dist(halfplane.mobius_apply(m, p),
                        halfplane.mobius_apply(m, q))
    assert abs(d0 - d1) <= 1e-7 * (1.0 + d0)


@given(st.floats(min_value=-8.0, max_value=8.0),
       st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=0.0, max_value=6.28))
@settings(max_examples=80)
def test_fold_points_reaches_fundamental_domain(x, y, theta):
    (z,), (g,) = modular.fold_points(complex(x, y))
    assert -0.5 - 1e-9 <= z.real <= 0.5 + 1e-9
    assert abs(z) >= 1.0 - 1e-9
    # the applied element carries the tangent angle as the sampled fold
    a, b, c, d = g.tolist()
    assert a * d - b * c == 1
    th = (theta - 2.0 * cmath.phase(c * complex(x, y) + d)) % (2.0 * math.pi)
    assert 0.0 <= th < 2.0 * math.pi + 1e-12
    z_ref, th_ref = reference.fold_points(complex(x, y), theta)
    assert abs(z - z_ref) < 1e-9
    assert min(abs(th - th_ref), 2.0 * math.pi - abs(th - th_ref)) < 1e-9

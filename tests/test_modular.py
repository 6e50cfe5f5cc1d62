"""PSL(2, Z): matrix algebra, orbit balls, and the closed-geodesic census."""

import itertools
import math
import warnings

import numpy as np
import pytest

from hyplab import halfplane, modular

import reference


def test_normalize_fixes_projective_sign():
    assert reference.normalize((-1, 0, 0, -1)) == (1, 0, 0, 1)
    assert reference.normalize((-2, -1, -1, -1)) == (2, 1, 1, 1)


def test_mat_inverse_and_power():
    m = (2, 1, 1, 1)
    assert modular.mat_mul(m, modular.mat_inv(m)) == modular.IDENT
    cube = modular.mat_mul(m, modular.mat_mul(m, m))
    assert reference.mat_pow(m, 3) == cube
    assert reference.mat_pow(m, 0) == modular.IDENT


@pytest.fixture(scope="module")
def axes_t10():
    """The T = 10 census with the class_axes of its matrix rows."""
    census = modular.enumerate_conj_classes(10.0)
    return census, modular.class_axes(census.matrices)


def test_census_matrices_equal_the_word_products(axes_t10):
    census, _ = axes_t10
    m = census.matrices
    assert m.dtype == np.int64 and m.shape == (len(census), 4)
    assert [tuple(r) for r in m.tolist()] \
        == [reference.word_matrix(w) for w in census.words]


def test_class_axes_ends_are_fixed_and_v_attracts(axes_t10):
    census, (u, v) = axes_t10
    a, b, c, d = census.matrices.T
    for x in (u, v):
        assert np.allclose((a * x + b) / (c * x + d), x, rtol=1e-12)
    # the derivative 1 / (c x + d)^2 of each matrix is < 1 at v only
    assert np.all(np.abs(c * v + d) > 1.0)
    assert np.all(np.abs(c * u + d) < 1.0)


def test_class_axes_translate_axis_points_by_the_class_length(axes_t10):
    census, (u, v) = axes_t10
    lengths = census.lengths.tolist()
    for i in range(0, len(census), 7):
        geo, ell = halfplane.line(u[i], v[i]), lengths[i]
        for t in (-0.3, 1.7):
            z = halfplane.mobius_apply(tuple(census.matrices[i].tolist()),
                                       geo.point(t))
            assert halfplane.dist(z, geo.point(t + ell)) < 1e-7


def test_class_axes_takes_conjugated_rows_with_c_below_zero(axes_t10):
    census, (u, v) = axes_t10
    m = census.matrices
    # S gamma S^-1 = (d, -c, -b, a): c < 0 wherever b > 0
    conj = m[:, [3, 2, 1, 0]] * np.array([1, -1, -1, 1])
    conj = conj[conj[:, 2] < 0]
    assert len(conj) > len(m) // 2
    for rows in (-m, conj):
        ends = modular.class_axes(rows)
        assert [x.tolist() for x in ends] \
            == [x.tolist() for x in modular.class_axes(-rows)]
    # negated rows are the same elements of PSL(2, Z)
    assert [x.tolist() for x in modular.class_axes(-m)] \
        == [u.tolist(), v.tolist()]
    cu, cv = modular.class_axes(conj)
    a, b, c, d = conj.T
    for x in (cu, cv):
        assert np.allclose((a * x + b) / (c * x + d), x, rtol=1e-12)
    assert np.all(np.abs(c * cv + d) > 1.0)
    assert np.all(np.abs(c * cu + d) < 1.0)


def test_class_axes_refuses_words_that_are_not_hyperbolic():
    # R^3 has c = 0 (parabolic) and L^2 has trace 2
    for ws in (["RL", "RRR"], ["LL"]):
        m = np.array([reference.word_matrix(w) for w in ws], dtype=np.int64)
        with pytest.raises(ValueError):
            modular.class_axes(m)


WORD_BALL_BUFFER = 4.0  # word_ball extends words up to displacement R + this


def word_ball(p, R):
    """Breadth-first enumeration of PSL(2, Z) by word length in R, L and
    their inverses: the sorted elements with displacement <= R, the
    reference route that modular_ball is tested against.

    The search is pruned at displacement R + WORD_BALL_BUFFER: a word is
    extended only while it stays that close to the base point.  This is
    a heuristic route (a large enough buffer recovers the full ball
    because word geodesics fellow-travel the hyperbolic ones), with no
    completeness claim; it ends when the pruned frontier exhausts itself.
    """
    p = complex(p)
    gens = [reference.normalize(g)
            for m in (reference.R_MAT, reference.L_MAT)
            for g in (m, modular.mat_inv(m))]
    seen = {modular.IDENT}
    frontier = [modular.IDENT]
    hits = [modular.IDENT]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                m = reference.normalize(modular.mat_mul(w, g))
                if m in seen:
                    continue
                seen.add(m)
                disp = halfplane.dist(p, halfplane.mobius_apply(m, p))
                if disp > R + WORD_BALL_BUFFER:
                    continue
                nxt.append(m)
                if disp <= R + modular.BALL_SLACK:
                    hits.append(m)
        frontier = nxt
    return sorted(set(hits))


def test_modular_ball_brute_force_word_crosscheck():
    # independent route: BFS over generator words with a safety buffer
    p = 2j
    for R in (2.0, 4.0, 6.0):
        direct = modular.modular_ball(p, R)
        assert direct.complete
        assert (sorted(reference.normalize(m) for m in direct.elements)
                == sorted(reference.normalize(m) for m in word_ball(p, R)))


def test_modular_ball_nested_and_displacements_within_radius():
    p = 1j
    small = {reference.normalize(m)
             for m in modular.modular_ball(p, 3.0).elements}
    big = {reference.normalize(m)
           for m in modular.modular_ball(p, 5.0).elements}
    assert small <= big
    for m in big:
        assert halfplane.dist(p, halfplane.mobius_apply(m, p)) <= 5.0 + 1e-6


def _brute_ball_2i(bound):
    """Elements of PSL(2, Z) with 4a^2 + b^2 + 16c^2 + 4d^2 <= bound, which
    is 8 cosh d(2i, gamma 2i), by integer brute force: every (a, b, c)
    in the box, with d = (1 + bc) / a when a != 0 and a = 0 rows solved
    by bc = -1."""
    amax = math.isqrt(bound // 4)
    bmax = math.isqrt(bound)
    cmax = math.isqrt(bound // 16)
    a, b, c = (x.ravel() for x in np.meshgrid(
        np.arange(-amax, amax + 1), np.arange(-bmax, bmax + 1),
        np.arange(-cmax, cmax + 1), indexing="ij"))
    rows = []
    nz = (a != 0) & ((1 + b * c) % np.where(a == 0, 1, a) == 0)
    d = (1 + b * c)[nz] // a[nz]
    rows.append(np.stack([a[nz], b[nz], c[nz], d], axis=1))
    zero = (a == 0) & (b * c == -1)
    for dd in range(-amax, amax + 1):
        rows.append(np.stack([a[zero], b[zero], c[zero],
                              np.full(zero.sum(), dd)], axis=1))
    m = np.concatenate(rows)
    forms = 4 * m[:, 0] ** 2 + m[:, 1] ** 2 + 16 * m[:, 2] ** 2 \
        + 4 * m[:, 3] ** 2
    return sorted({reference.normalize(tuple(int(v) for v in r))
                   for r in m[forms <= bound]})


def _rows(ball):
    return [tuple(r) for r in ball.elements.tolist()]


def test_modular_ball_equals_integer_brute_force():
    for R in (3.0, 5.0, 6.5):
        bound = 8.0 * math.cosh(R)
        assert abs(bound - round(bound)) > 1e-6
        assert _rows(modular.modular_ball(2j, R)) \
            == _brute_ball_2i(int(bound))


def test_modular_ball_brute_force_on_the_sphere():
    # radii arccosh(m / 8) at which some elements lie exactly on the sphere
    values = sorted({4 * a * a + b * b + 16 * c * c + 4 * d * d
                     for a, b, c, d in _brute_ball_2i(400)})
    for m in (values[10], values[40]):
        rows = _rows(modular.modular_ball(2j, math.acosh(m / 8.0)))
        brute = _brute_ball_2i(m)
        assert rows == brute
        assert any(4 * a * a + b * b + 16 * c * c + 4 * d * d == m
                   for a, b, c, d in rows)


def test_modular_ball_rows_are_sorted_unique_int64():
    el = modular.modular_ball(0.3 + 1.7j, 6.0).elements
    assert el.dtype == np.int64 and el.shape[1] == 4
    rows = [tuple(r) for r in el.tolist()]
    assert rows == sorted(set(rows))
    assert all(reference.normalize(r) == r for r in rows)
    assert np.all(el[:, 0] * el[:, 3] - el[:, 1] * el[:, 2] == 1)


def _ball_oracle_cases():
    rng = np.random.default_rng(30)
    cases = [(complex(x, math.exp(ly)), float(R)) for x, ly, R in zip(
        rng.uniform(-3.0, 3.0, 40), rng.uniform(-2.5, 1.5, 40),
        rng.uniform(0.0, 8.0, 40))]
    values = sorted({4 * a * a + b * b + 16 * c * c + 4 * d * d
                     for a, b, c, d in _brute_ball_2i(400)})
    sphere = [(2j, math.acosh(m / 8.0)) for m in (values[10], values[40])]
    return cases + sphere + [(0.3 + 1.7j, 9.0), (2j, 12.0)]


@pytest.mark.parametrize("p, R", _ball_oracle_cases())
def test_modular_ball_equals_the_unpacked_kernel(p, R):
    got = modular.modular_ball(p, R).elements
    want = reference.modular_ball(p, R).elements
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("column", range(4))
def test_modular_ball_refuses_a_column_outside_its_bound(column,
                                                         monkeypatch):
    bounds = modular._ball_column_bounds

    def shrunk(p, R):
        b = list(bounds(p, R))
        b[column] = b[column] // 2
        return tuple(b)

    monkeypatch.setattr(modular, "_ball_column_bounds", shrunk)
    with pytest.raises(ValueError, match="a-priori column bound"):
        modular.modular_ball(0.3 + 1.7j, 6.0)


def test_modular_ball_refuses_a_key_overflow_before_enumerating():
    with pytest.raises(ValueError, match="overflows the int64 sort key"):
        modular.modular_ball(2j, 30.0)


@pytest.mark.parametrize("R", [math.inf, math.nan, -1.0])
def test_modular_ball_refuses_a_radius_that_is_not_finite(R):
    with pytest.raises(ValueError, match="orbit-ball radius must be finite"):
        modular.modular_ball(2j, R)


@pytest.mark.parametrize("T", [math.inf, math.nan, -1.0])
def test_census_refuses_a_length_that_is_not_finite(T):
    with pytest.raises(ValueError, match="length bound must be finite"):
        modular.enumerate_conj_classes(T)


def _brute_census(T):
    """Conjugacy classes via direct R/L-word enumeration with rotation
    dedup, written independently of the library enumeration."""
    bound = 2.0 * math.cosh(T / 2.0)
    classes = {}
    n = 2
    while True:
        min_trace = None
        for word in itertools.product("RL", repeat=n):
            if len(set(word)) < 2:
                continue  # pure powers of R or L are parabolic-conjugate
            rots = {word[i:] + word[:i] for i in range(n)}
            if len(rots) < n:
                continue  # imprimitive
            key = min(rots)
            m = modular.IDENT
            for c in word:
                m = modular.mat_mul(m, reference.R_MAT if c == "R"
                                    else reference.L_MAT)
            t = reference.trace(m)
            min_trace = t if min_trace is None else min(min_trace, t)
            if t <= bound + 1e-9:
                classes[key] = 2.0 * math.acosh(t / 2.0)
        if min_trace is not None and min_trace > bound:
            break
        n += 1
    return sorted(classes.values())


def test_census_matches_brute_force_at_small_T():
    census = modular.enumerate_conj_classes(4.0)
    got = sorted(census.lengths[census.primitive].tolist())
    want = _brute_census(4.0)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == pytest.approx(b, abs=1e-9)


def test_census_lengths_match_traces():
    census = modular.enumerate_conj_classes(6.0)
    for w, length in zip(census.words, census.lengths.tolist()):
        m = modular.IDENT
        for ch in w:
            m = modular.mat_mul(m, reference.R_MAT if ch == "R"
                                else reference.L_MAT)
        t = reference.trace(m)
        assert length == pytest.approx(2.0 * math.acosh(t / 2.0), abs=1e-12)


def test_shortest_class_is_the_commutator_of_the_cusp_generators():
    census = modular.enumerate_conj_classes(3.0)
    lengths = sorted(census.lengths.tolist())
    # trace 3 (word RL) gives the systole 2 arccosh(3/2)
    assert lengths[0] == pytest.approx(2.0 * math.acosh(1.5))


def _brute_classes(T, include_imprimitive):
    """Classes from every R/L word within the length cutoff and the trace
    bound (pruned on the trace, which never decreases under appending),
    each replaced by its least rotation."""
    trmax = 2.0 * math.cosh(T / 2.0)
    found = set()
    stack = [""]
    while stack:
        w = stack.pop()
        if "L" in w and "R" in w:
            found.add(min(w[i:] + w[:i] for i in range(len(w))))
        if len(w) < math.ceil(trmax):
            for ch in "LR":
                if reference.trace(reference.word_matrix(w + ch)) <= trmax:
                    stack.append(w + ch)
    out = []
    for w in found:
        prim = len({w[i:] + w[:i] for i in range(len(w))}) == len(w)
        if prim or include_imprimitive:
            m = reference.word_matrix(w)
            t = reference.trace(m)
            out.append((w, m, t, 2.0 * math.acosh(t / 2.0), prim))
    return sorted(out, key=lambda c: (c[3], c[0]))


def _census_fields(census):
    """One tuple per class of a plane census: the word, the matrix row
    and its trace, the length as its bits and the primitive flag, after
    checking the columns' dtypes."""
    m = census.matrices
    assert m.dtype == np.int64 and m.shape == (len(census), 4)
    assert census.lengths.dtype == np.float64
    assert census.primitive.dtype == bool
    return list(zip(census.words, map(tuple, m.tolist()),
                    (m[:, 0] + m[:, 3]).tolist(),
                    map(float.hex, census.lengths.tolist()),
                    census.primitive.tolist()))


def _class_fields(classes):
    """The same tuples from (word, matrix, trace, length, primitive)
    tuples, after checking that the integer entries are ints."""
    assert all(type(x) is int for c in classes for x in (*c[1], c[2]))
    return [(w, m, t, length.hex(), p) for w, m, t, length, p in classes]


@pytest.mark.parametrize("T", [6.0, 8.0])
@pytest.mark.parametrize("include_imprimitive", [False, True])
def test_census_equals_rotation_brute_force(T, include_imprimitive):
    got = modular.enumerate_conj_classes(T, include_imprimitive)
    want = _brute_classes(T, include_imprimitive)
    assert _census_fields(got) == _class_fields(want)


@pytest.mark.parametrize("T", [6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
@pytest.mark.parametrize("include_imprimitive", [False, True])
def test_census_equals_the_depth_first_oracle(T, include_imprimitive):
    got = modular.enumerate_conj_classes(T, include_imprimitive)
    want = reference.conj_classes(T, include_imprimitive)
    assert _census_fields(got) == _class_fields(want)


def test_census_size_at_T12():
    assert len(modular.enumerate_conj_classes(12.0)) == 14904


def test_census_at_T14_needs_no_recursion():
    # the L^k prefix chain is about 2 cosh 7 ~ 1097 letters deep
    assert len(modular.enumerate_conj_classes(14.0)) == 92856


def test_fold_points_lands_in_fundamental_domain():
    for z in (7.3 + 0.2j, -4.1 + 0.05j, 0.49 + 0.6j):
        (w,), (g,) = modular.fold_points(z)
        assert -0.5 - 1e-9 <= w.real <= 0.5 + 1e-9
        assert abs(w) >= 1.0 - 1e-9
        # w is the image of z under the applied element, of determinant 1
        assert g.dtype == np.int64 and reference.det(tuple(g.tolist())) == 1
        assert abs(halfplane.mobius_apply(tuple(g.tolist()), z) - w) < 1e-9


def test_fold_points_equals_the_sampled_routes_fold():
    rng = np.random.default_rng(3)
    z = rng.uniform(-6, 6, 500) + 1j * rng.uniform(0.02, 3, 500)
    theta = rng.uniform(0, 2 * math.pi, 500)
    w, g = modular.fold_points(z)
    w_ref, theta_ref = reference.fold_points(z, theta)
    assert np.abs(w - w_ref).max() < 1e-9
    # the angle moves by -2 arg(c z + d) under the applied element
    turn = np.mod(theta - 2.0 * np.angle(g[:, 2] * z + g[:, 3]),
                  2.0 * math.pi)
    gap = np.abs(turn - theta_ref)
    assert np.minimum(gap, 2.0 * math.pi - gap).max() < 1e-9


def test_fold_points_reports_non_convergence():
    z = 0.05 + 0.01j  # needs a flip, then a shift, then more flips
    with pytest.warns(RuntimeWarning, match="1 points outside"):
        (w,), _ = modular.fold_points(z, max_iter=1)
    assert abs(w) < 1.0 or abs(w.real) > 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (w,), _ = modular.fold_points(z)
    assert abs(w) >= 1.0 - 1e-9 and abs(w.real) <= 0.5 + 1e-9

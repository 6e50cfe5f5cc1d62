"""Boundary measures: Poincare series, conformal densities, shadows,
pair measures, equidistribution, and the flow-mass validators."""

import dataclasses
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hyplab import counting, halfplane, measures, modular, words
from hyplab.geometry import FLAT, PLANE, TREE, BackendMismatch

import reference


def test_tree_series_matches_truncation():
    for s in (math.log(3) + 0.2, 2.0, 3.0):
        partial, tail = measures.poincare_series(TREE, s, cap=30)
        closed = measures.tree_series_closed_form(s)
        assert abs(closed - partial) <= tail + 1e-12


def test_tree_series_diverges_at_h():
    with pytest.raises(ValueError):
        measures.tree_series_closed_form(math.log(3))
    with pytest.raises(ValueError):
        measures.poincare_series(TREE, 1.0)


def test_plane_series_partial_sums_increase_in_cap():
    s = 1.5
    p8, t8 = measures.poincare_series(PLANE, s, cap=8.0)
    p10, t10 = measures.poincare_series(PLANE, s, cap=10.0)
    assert p10 > p8
    assert t10 < t8
    # truncation gap covered by the reported tail
    assert p10 - p8 <= t8 + 1e-9


@pytest.mark.parametrize("call", [
    lambda: measures.limit_cell_masses(TREE, "", measures.plane_partition(4)),
    lambda: measures.limit_cell_masses(PLANE, 2j, measures.tree_partition(2)),
    lambda: measures.conformal_check(TREE, "", "a",
                                     measures.plane_partition(4)),
    lambda: measures.conformal_check(PLANE, 2j, 1 + 1j,
                                     measures.tree_partition(2)),
    lambda: measures.pair_measure(TREE, "", measures.plane_partition(4)),
    lambda: measures.pair_measure(PLANE, 2j, measures.tree_partition(2)),
    lambda: measures.poincare_series(FLAT, 1.0, cap=25.0),
    lambda: measures.shadow(PLANE, 2j, 1 + 1j, 0.5),
    lambda: measures.ps_measure(TREE, "a", 1.5, cap=4),
], ids=["limit-tree-on-plane", "limit-plane-on-tree",
        "conformal-tree-on-plane", "conformal-plane-on-tree",
        "pair-tree-on-plane", "pair-plane-on-tree", "flat-series",
        "plane-shadow", "tree-ps-off-the-root"])
def test_routes_refuse_the_wrong_backend(call):
    with pytest.raises(BackendMismatch):
        call()


def test_ps_measure_tree_masses_are_geometric():
    s = math.log(3) + 0.3
    mu = measures.ps_measure(TREE, "", s, cap=12)
    w = dict(mu.atoms)
    norm = measures.tree_series_closed_form(s)
    assert w[""] == pytest.approx(1.0 / norm)
    assert w["ab"] == pytest.approx(math.exp(-2 * s) / norm)
    assert mu.total_mass == pytest.approx(1.0, abs=mu.tail_bound + 1e-9)


def test_tree_partition_is_a_partition():
    part = measures.tree_partition(3)
    total = sum(words.cylinder_measure(c) for c in part.cells)
    assert total == 1
    assert len(part.cells) == 4 * 3 ** 2


@pytest.mark.parametrize("rank", [2, 3])
def test_limit_cell_masses_tree_equals_visual_measure(rank):
    # the tree limit is the visual measure itself, at the partition's rank
    part = measures.tree_partition(2, rank=rank)
    masses, err, kind = measures.limit_cell_masses(TREE, "", part)
    assert all(isinstance(m, Fraction) for m in masses)
    assert list(masses) == [words.cylinder_measure(cell, rank)
                            for cell in part.cells]
    assert err == 0 and kind == "exact"
    masses, _, _ = measures.limit_cell_masses(TREE, "ab", part)
    assert list(masses) == [words.visual_measure("ab", cell, rank)
                            for cell in part.cells]
    with pytest.raises(ValueError):
        measures.limit_cell_masses(TREE, "aA", part)


def test_conformal_check_tree_exact_zero():
    part = measures.tree_partition(3)
    for p, q in [("", "a"), ("ab", "B"), ("a", "bA")]:
        assert measures.conformal_check(TREE, p, q, part) == 0


def _fraction_tree_conformal(p, q, part):
    """Reference route: both masses and their ratio in Fractions."""
    worst = 0.0
    for i, w in enumerate(part.cells):
        nu_p = words.visual_measure(p, w)
        nu_q = words.visual_measure(q, w)
        b = words.tree_busemann(q, p, part.representative(i))
        if nu_q / nu_p == Fraction(3) ** (-b):
            continue
        worst = max(worst, abs(math.log(float(nu_q / nu_p))
                               + math.log(3) * b))
    return worst


def _negated_busemann(monkeypatch):
    busemann = words.tree_busemann
    monkeypatch.setattr(words, "tree_busemann",
                        lambda q, p, xi: -busemann(q, p, xi))


@pytest.mark.parametrize("mutant", [False, True])
def test_conformal_check_tree_equals_fraction_route(mutant, monkeypatch):
    if mutant:
        _negated_busemann(monkeypatch)
    part = measures.tree_partition(2)
    # bases deeper than the partition lie below some cells: the
    # complement path runs there
    bases = ["", "a", "bA", "abA", "BBab", "aabAb", "ABaabb"]
    for p in bases:
        for q in bases:
            assert (measures.conformal_check(TREE, p, q, part)
                    == _fraction_tree_conformal(p, q, part))


def test_conformal_check_tree_detects_a_negated_busemann(monkeypatch):
    _negated_busemann(monkeypatch)
    part = measures.tree_partition(3)
    assert measures.conformal_check(TREE, "", "a", part) > 1.0
    assert measures.conformal_check(TREE, "ab", "B", part) > 1.0


@pytest.mark.parametrize("p, q", [("aA", "b"), ("x", "b"), ("a", "bB"),
                                  ("", "c")])
def test_conformal_check_tree_refuses_words_outside_the_group(p, q):
    # p, q must be reduced words over the partition's rank-2 letters
    with pytest.raises(ValueError):
        measures.conformal_check(TREE, p, q, measures.tree_partition(3))


def test_representatives_are_built_once():
    part = measures.tree_partition(3)
    reps = part.representatives
    assert reps is part.representatives
    assert list(reps) == [part.representative(i) for i in range(len(part))]


@pytest.mark.parametrize("rank", [2, 3])
def test_cell_codes_are_built_once(rank, monkeypatch):
    part = measures.tree_partition(3, rank)
    codes = part.cell_codes
    assert codes is part.cell_codes
    assert codes.dtype == np.uint8 and codes.shape == (len(part), 3)
    assert codes.tobytes().decode() == "".join(part.cells)
    # the codes are the representatives' first letters
    assert [x.word(3) for x in part.representatives] == list(part.cells)
    # the checks read the cached codes: no word is re-encoded per call
    encoded = []  # the number of words each call encodes
    encode = words._codes
    monkeypatch.setattr(words, "_codes", lambda ws: encoded.append(
        0 if isinstance(ws, np.ndarray) else len(ws)) or encode(ws))
    for p, q in [("", "a"), ("ab", "B"), ("a", "bA")]:
        measures.conformal_check(TREE, p, q, part)
    measures.pair_measure(TREE, "", part)
    assert encoded and max(encoded) <= 2


def test_conformal_check_plane_small():
    part = measures.plane_partition(64)
    defect = measures.conformal_check(PLANE, 2j, 1 + 1j, part)
    assert defect < 0.1


def _per_arc_plane_conformal(p, q, part, cap):
    """Reference route: one mass ratio and one fit per arc."""
    h, svals = 1.0, np.asarray(measures.DEFAULT_S_GRID_PLANE)
    atoms = measures._plane_atoms(p, cap)
    dq = halfplane.dist(q, atoms.z)
    xi = halfplane.geodesic_endpoints(p, atoms.z)[1]
    idx = part.locate_angle(halfplane.direction_toward(measures.PLANE_BASE,
                                                       xi))
    far = atoms.d >= 0.5 * cap
    worst = 0.0
    for i in range(len(part)):
        sel = far & (idx == i)
        if not sel.any():
            continue
        ratio = [np.exp(-s * dq[sel]).sum() / np.exp(-s * atoms.d[sel]).sum()
                 for s in svals]
        coef = np.polyfit(svals - h, np.log(ratio), 1)
        b = halfplane.busemann(q, p, part.representative(i))
        worst = max(worst, abs(coef[1] + h * b))
    return worst


def test_conformal_check_plane_equals_per_arc_fits():
    part = measures.plane_partition(64)
    for q in (1 + 1j, 0.3 + 1.7j):
        got = measures.conformal_check(PLANE, 2j, q, part, cap=10)
        assert got == pytest.approx(
            _per_arc_plane_conformal(2j, q, part, 10.0), rel=0, abs=1e-12)


def test_plane_conformal_reports_empty_cells_in_one_warning():
    part = measures.plane_partition(256)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        measures.conformal_check(PLANE, 2j, 1 + 1j, part, cap=5)
    assert len(caught) == 1
    assert re.fullmatch(r"\d+ zero-mass cells excluded",
                        str(caught[0].message))


def test_shadow_tree_is_a_cylinder():
    assert measures.shadow(TREE, "", "aab", 0.5) == ("cyl", "aab")


def test_shadow_mass_bounds_tree_family():
    ratios = []
    for n in range(2, 9):
        mass, ratio = measures.shadow_mass_bounds(TREE, "", "a" * n, 0.5)
        assert 0 < mass < 1
        ratios.append(ratio)
    assert max(ratios) / min(ratios) <= 2.0


@pytest.mark.parametrize("cap", [10.0, 12.0])
def test_plane_shadow_masses_equal_fsum_reference(cap):
    # the CLI's shadow rows; the reference sums the far on-arc atoms over
    # the far total with math.fsum and takes the intercept at s = 1 of
    # their least-squares line
    atoms = measures._plane_atoms(2j, cap)
    grid = measures.DEFAULT_S_GRID_PLANE
    far = atoms.d >= 0.5 * cap
    norms = [math.fsum(np.exp(-s * atoms.d[far])) for s in grid]
    for n in range(1, 6):
        x = 2j * math.exp(1.0 + 0.5 * n)
        lo, hi = halfplane.direction_toward(
            measures.PLANE_BASE, halfplane.shadow_arc(2j, x, 1.0))
        d = atoms.d[far & (np.mod(atoms.theta - lo, 2.0 * math.pi)
                           < np.mod(hi - lo, 2.0 * math.pi))]
        rows = [[math.fsum(np.exp(-s * d)) / norm]
                for s, norm in zip(grid, norms)]
        want = np.polyfit(np.asarray(grid) - 1.0, rows, 1)[1][0]
        mass, ratio = measures.shadow_mass_bounds(PLANE, 2j, x, 1.0, cap=cap)
        assert mass == pytest.approx(want, rel=1e-14, abs=0)
        assert ratio == mass * math.exp(halfplane.dist(2j, x))


def test_plane_limit_masses_match_the_exact_density():
    # PSL(2, Z) is a lattice: its Patterson-Sullivan density is the
    # visual density.  An arc's mass at 2i is its angle there over 2 pi;
    # a shadow's is arcsin(sinh rho / sinh d) / pi.
    part = measures.plane_partition(64)
    masses, _, _ = measures.limit_cell_masses(PLANE, 2j, part, cap=12.0)
    ends = np.array([[halfplane.forward_endpoint(measures.PLANE_BASE, t)
                      for t in cell] for cell in part.cells])
    angle = halfplane.direction_toward(2j, ends.real.ravel()).reshape(-1, 2)
    exact = np.mod(angle[:, 1] - angle[:, 0], 2.0 * math.pi) / (2.0 * math.pi)
    assert abs(masses.sum() - 1.0) <= 1e-12
    assert np.all(np.abs(masses / exact - 1.0) <= 0.10)
    for n in range(1, 6):
        x = 2j * math.exp(1.0 + 0.5 * n)
        mass, _ = measures.shadow_mass_bounds(PLANE, 2j, x, 1.0, cap=12.0)
        want = math.asin(math.sinh(1.0) / math.sinh(halfplane.dist(2j, x)))
        assert abs(mass / (want / math.pi) - 1.0) <= (0.07 if n < 5 else 0.20)


def test_plane_log_ratios_match_the_exact_conformal_ratio():
    # nu_q(arc) / nu_p(arc) of the visual density is the angle the arc
    # subtends at q over the angle it subtends at p.  At cap 12 the fit
    # reads it to 2.84e-3 (Richardson extrapolation of the same rows read
    # 3.42e-3); the bound leaves a 13% margin over the fit.
    part = measures.plane_partition(256)
    ends = np.array([[halfplane.forward_endpoint(measures.PLANE_BASE, t)
                      for t in cell] for cell in part.cells]).real.ravel()

    def subtended(z):
        angle = halfplane.direction_toward(z, ends).reshape(-1, 2)
        return np.mod(angle[:, 1] - angle[:, 0], 2.0 * math.pi)

    exact = np.log(subtended(1 + 1j) / subtended(2j))
    log_ratio, usable = measures._far_log_ratios(
        measures._plane_atoms(2j, 12.0), 1 + 1j, part)
    assert usable.all()
    assert np.max(np.abs(log_ratio - exact)) <= 3.2e-3


def _psl2z_forms_at_2i(radius):
    """Sorted 8 cosh d(2i, gamma 2i) = 4a^2 + b^2 + 16c^2 + 4d^2 over the
    elements (a, b, c, d) of PSL(2, Z) in the ball, by integer brute force."""
    bound = 8.0 * math.cosh(radius)
    amax, cmax = math.isqrt(int(bound // 4)), math.isqrt(int(bound // 16))
    side = range(-amax, amax + 1)
    forms = []
    for c in range(-cmax, cmax + 1):
        for a in side:
            for d in side:
                if c == 0:
                    if a * d != 1:
                        continue
                    bmax = math.isqrt(int(bound - 8))
                    bs = range(-bmax, bmax + 1)
                elif (a * d - 1) % c:
                    continue
                else:
                    bs = [(a * d - 1) // c]
                forms += [4 * a * a + b * b + 16 * c * c + 4 * d * d
                          for b in bs]
    forms = sorted(f for f in forms if f <= bound)
    return np.array(forms[::2], dtype=float)  # gamma and -gamma


def test_ps_measure_plane_weights_match_the_integer_ball():
    s, cap = 1.2, 8.0
    mu = measures.ps_measure(PLANE, 2j, s, cap=cap)
    w = np.exp(-s * np.arccosh(np.maximum(_psl2z_forms_at_2i(cap) / 8.0,
                                          1.0)))
    got = np.sort([weight for _, weight in mu.atoms])
    assert got == pytest.approx(np.sort(w / w.sum()), rel=1e-12, abs=0)
    at_base = [z for z, _ in mu.atoms if abs(z - 2j) <= 1e-12]
    assert len(at_base) == 1 and mu.atoms[0][0] == at_base[0]
    assert mu.total_mass == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("rank", [2, 3])
def test_pair_measure_tree_invariance_exact(rank):
    part = measures.tree_partition(3, rank=rank)
    pm = measures.pair_measure(TREE, "", part)
    # h and the default masses come from the partition's rank
    assert pm.h == math.log(2 * rank - 1)
    weights, _ = _weights_and_band(pm)
    for i, j in weights:
        assert weights[(i, j)] == (
            Fraction(2 * rank - 1) ** (2 * words.common_prefix_len(
                part.cells[i], part.cells[j]))
            * words.cylinder_measure(part.cells[i], rank)
            * words.cylinder_measure(part.cells[j], rank))
    for g in ("a", "b", "A", "ab"):
        assert measures.pair_invariance_check(pm, g) == 0


def _weights_and_band(pm):
    """pm's weights as a dict over its kept cell pairs, in Fractions on
    the tree, and its excluded pairs as a set."""
    weights, band = {}, set()
    for i, j, w, out in zip(pm.i.tolist(), pm.j.tolist(),
                            pm.weights.tolist(), pm.excluded.tolist()):
        if out:
            band.add((i, j))
        else:
            weights[(i, j)] = (Fraction(w, pm.denominator)
                               if pm.backend == TREE else w)
    return weights, band


def _double_loop_pair_measure(part, p):
    """Tree pair-measure weights and excluded pairs from a loop over the
    cell pairs, with a Fraction factor per pair.  The factor is
    (2k-1)^(2 (A|B)_p), with the Gromov product at p of the cells'
    boundary points: p is shorter than the cells, so the rays from p
    pass through the cells' vertices a and b, and (A|B)_p is
    (d(p, a) + d(p, b) - d(a, b)) / 2.  The diagonal band is the
    identity's, the pairs with (2k-1)^(2 lcp) above the cap."""
    rank = part.rank
    assert len(p) < len(part.cells[0])
    masses = [words.visual_measure(p, w, rank) for w in part.cells]
    weights, excluded = {}, set()
    for i in range(len(part)):
        for j in range(i + 1, len(part)):
            a, b = part.cells[i], part.cells[j]
            lcp = words.common_prefix_len(a, b)
            if float(Fraction(2 * rank - 1) ** (2 * lcp)) \
                    > measures.PAIR_WEIGHT_CAP:
                excluded.add((i, j))
                continue
            two_gromov = (words.distance(p, a) + words.distance(p, b)
                          - words.distance(a, b))
            factor = Fraction(2 * rank - 1) ** two_gromov
            weights[(i, j)] = factor * masses[i] * masses[j]
    return weights, excluded


@pytest.mark.parametrize("rank, depth, p", [
    (2, 4, ""), (2, 3, "aB"), (3, 3, ""), (3, 2, "c")])
@pytest.mark.parametrize("cap", [None, 81.0])
def test_pair_measure_tree_equals_the_double_loop(monkeypatch, rank, depth,
                                                  p, cap):
    # cap 81 = 3^4 keeps lcp 2 at rank 2 (not above the cap) and
    # excludes lcp >= 3, and at rank 3 excludes lcp >= 2; the default cap
    # excludes nothing at these depths
    if cap is not None:
        monkeypatch.setattr(measures, "PAIR_WEIGHT_CAP", cap)
    part = measures.tree_partition(depth, rank=rank)
    pm = measures.pair_measure(TREE, p, part)
    weights, excluded = _double_loop_pair_measure(part, p)
    got, band = _weights_and_band(pm)
    assert got == weights and band == excluded
    assert list(got) == list(weights)
    assert all(type(w) is int for w in pm.weights)
    assert pm.excluded.dtype == bool
    assert bool(band) == (cap is not None
                          and (rank, depth) in ((2, 4), (3, 3)))


@pytest.mark.parametrize("rank", [2, 3])
def test_pair_measure_tree_does_not_depend_on_the_base(rank):
    # "abAB" lies below one depth-3 cell
    part = measures.tree_partition(3, rank)
    ref = measures.pair_measure(TREE, "", part)
    weights, band = _weights_and_band(ref)
    for p in ("a", "aB", "abAB"):
        pm = measures.pair_measure(TREE, p, part)
        assert pm.base == p
        assert _weights_and_band(pm) == (weights, band)


def test_pair_measure_tree_refuses_masses_and_foreign_bases():
    part = measures.tree_partition(2)
    masses, _, _ = measures.limit_cell_masses(TREE, "", part)
    with pytest.raises(ValueError):
        measures.pair_measure(TREE, "", part, masses=masses)
    for p in ("aA", "c", "x"):
        with pytest.raises(ValueError):
            measures.pair_measure(TREE, p, part)


def test_exact_pair_mass_equals_fraction_sum():
    rng = random.Random(5)
    cells = [w for w in words.ball_words(4) if w]
    for _ in range(200):
        a = rng.sample(cells, rng.randint(1, 4))
        b = rng.sample(cells, rng.randint(1, 4))
        want = sum(Fraction(3) ** (2 * words.common_prefix_len(x, y))
                   * words.cylinder_measure(x) * words.cylinder_measure(y)
                   for x in a for y in b)
        (n,), e = measures._pair_masses(2, [a, b])
        assert e >= 0
        assert Fraction(int(n[0, 1]), 16 * 3 ** e) == want


def test_pair_invariance_tree_exact_when_gamma_absorbs_cells():
    # |gamma| >= depth: some cells are absorbed and their images split,
    # so the two sides carry different common powers of 3
    pm = measures.pair_measure(TREE, "", measures.tree_partition(2))
    for g in ("aB", "abA", "aaa", "BAbb"):
        assert any(len(measures.cylinder_pushforward(g, w)) > 1
                   for w in pm.partition.cells)
        assert measures.pair_invariance_check(pm, g) == 0
    with pytest.raises(ValueError):
        measures.pair_invariance_check(pm, "BAab")


def test_pair_invariance_tree_detects_a_shifted_pushforward(monkeypatch):
    push = measures.cylinder_pushforward
    monkeypatch.setattr(measures, "cylinder_pushforward",
                        lambda g, w, rank=2: push(g, w[:-1] or w, rank))
    pm = measures.pair_measure(TREE, "", measures.tree_partition(3))
    assert measures.pair_invariance_check(pm, "a") > 0


def _fraction_pair_mass(cells_a, cells_b):
    return sum(Fraction(3) ** (2 * words.common_prefix_len(x, y))
               * words.cylinder_measure(x) * words.cylinder_measure(y)
               for x in cells_a for y in cells_b)


def _fraction_pair_defect(pm, gamma):
    """Reference route: both sides of every cell pair as Fraction sums."""
    cells = pm.partition.cells
    images = [measures.cylinder_pushforward(gamma, w) for w in cells]
    return float(max((abs(_fraction_pair_mass(images[i], images[j])
                          - _fraction_pair_mass([cells[i]], [cells[j]]))
                      for i, j in _weights_and_band(pm)[0]),
                     default=Fraction(0)))


@pytest.mark.parametrize("mutant", [None, "coarser", "finer"])
def test_pair_invariance_tree_equals_fraction_route(mutant, monkeypatch):
    # a coarser image is too heavy and a finer one too light, so the two
    # mutants give differences of both signs
    push = measures.cylinder_pushforward
    if mutant == "coarser":
        monkeypatch.setattr(measures, "cylinder_pushforward",
                            lambda g, w, rank=2: push(g, w[:-1] or w, rank))
    if mutant == "finer":
        monkeypatch.setattr(measures, "cylinder_pushforward",
                            lambda g, w, rank=2: push(
                                g, w + measures._forward_letter(w, rank),
                                rank))
    pm = measures.pair_measure(TREE, "", measures.tree_partition(3))
    gammas = ("a", "abA", "BAbb", "aBaBab")
    want = [_fraction_pair_defect(pm, g) for g in gammas]
    assert [measures.pair_invariance_check(pm, g) for g in gammas] == want
    assert (max(want) > 0) == (mutant is not None)


def test_pair_masses_exact_past_int64():
    # over the common power a long cylinder weighs 3^(E + 2) against
    # itself, so the diagonal sums pass 2^63
    rng = random.Random(7)

    def word(n):
        w = rng.choice("abAB")
        while len(w) < n:
            c = rng.choice("abAB")
            if w[-1] != words.inv_letter(c):
                w += c
        return w

    for _ in range(20):
        a = [word(rng.randint(30, 40)) for _ in range(rng.randint(1, 3))]
        b = [word(rng.randint(30, 40)) for _ in range(rng.randint(1, 3))]
        (n,), e = measures._pair_masses(2, [a, b])
        assert max(n.flat) > 2 ** 63
        for i, u in enumerate((a, b)):
            for j, v in enumerate((a, b)):
                assert Fraction(n[i, j], 16 * 3 ** e) == \
                    _fraction_pair_mass(u, v)


def test_pair_masses_share_one_power_across_groupings():
    # the shorter grouping's masses are exact over the longer one's power
    rng = random.Random(11)
    deep = [w for w in words.ball_words(4) if len(w) >= 3]
    shallow = [w for w in words.ball_words(1) if w]
    for _ in range(50):
        groupings = [[rng.sample(cells, rng.randint(1, 3)) for _ in range(2)]
                     for cells in (shallow, deep)]
        if rng.random() < 0.5:
            groupings.reverse()
        out, e = measures._pair_masses(2, *groupings)
        for n, (a, b) in zip(out, groupings):
            assert Fraction(n[0, 1], 16 * 3 ** e) == _fraction_pair_mass(a, b)


def test_pair_invariance_plane_identity_is_zero():
    part = measures.plane_partition(32)
    pm = measures.pair_measure(PLANE, 2j, part)
    assert measures.pair_invariance_check(pm, (1, 0, 0, 1)) \
        == pytest.approx(0.0, abs=1e-9)


def _per_pair_plane_measure(p, part, masses):
    """Reference route: one Gromov product and one weight per cell pair."""
    reps = part.representatives
    weights, excluded = {}, set()
    for i in range(len(part)):
        for j in range(i + 1, len(part)):
            factor = math.exp(halfplane.gromov_beta(p, reps[i], reps[j]))
            if factor > measures.PAIR_WEIGHT_CAP:
                excluded.add((i, j))
            else:
                weights[(i, j)] = factor * masses[i] * masses[j]
    return weights, excluded


def _per_pair_plane_invariance(pm, gamma, cap):
    """Reference route: one relative defect per usable, kept cell pair."""
    p, part = pm.base, pm.partition
    q = halfplane.mobius_apply(modular.mat_inv(gamma), p)
    log_ratio, usable = measures._far_log_ratios(
        measures._plane_atoms(p, cap), q, part)
    reps = part.representatives
    greps = [halfplane.mobius_apply_boundary(gamma, r) for r in reps]
    band = _weights_and_band(pm)[1]
    worst = 0.0
    for i in range(len(part)):
        for j in range(i + 1, len(part)):
            if (i, j) in band or not (usable[i] and usable[j]):
                continue
            dlog = (pm.h * (halfplane.gromov_beta(p, greps[i], greps[j])
                            - halfplane.gromov_beta(p, reps[i], reps[j]))
                    + log_ratio[i] + log_ratio[j])
            worst = max(worst, abs(math.exp(dlog) - 1.0))
    return worst


@pytest.mark.parametrize("weight_cap", [measures.PAIR_WEIGHT_CAP, 3.0])
def test_plane_pair_routes_equal_per_pair_loops(weight_cap, monkeypatch):
    # a low weight cap excludes 913 of the 2016 pairs, among them the
    # pair of the largest defect under (2, 1, 1, 1)
    monkeypatch.setattr(measures, "PAIR_WEIGHT_CAP", weight_cap)
    cap, part = 10.0, measures.plane_partition(64)
    masses, _, _ = measures.limit_cell_masses(PLANE, 2j, part, cap=cap)
    pm = measures.pair_measure(PLANE, 2j, part, masses=masses)
    weights, excluded = _per_pair_plane_measure(2j, part, masses)
    got, band = _weights_and_band(pm)
    assert band == excluded
    assert bool(excluded) == (weight_cap < 1e6)
    assert got.keys() == weights.keys()
    for key, w in weights.items():
        assert got[key] == pytest.approx(w, rel=0, abs=1e-12)
    for gamma in [(1, 1, 0, 1), (2, 1, 1, 1)]:
        assert measures.pair_invariance_check(pm, gamma, cap=cap) \
            == pytest.approx(_per_pair_plane_invariance(pm, gamma, cap),
                             rel=0, abs=1e-12)


def test_plane_checks_build_the_atom_angles_once(monkeypatch):
    measures._cached_atoms.cache_clear()
    sizes = []
    toward = halfplane.direction_toward

    def counted(p, xi):
        sizes.append(np.size(xi))
        return toward(p, xi)

    monkeypatch.setattr(halfplane, "direction_toward", counted)
    cap, part = 10.0, measures.plane_partition(64)
    measures.conformal_check(PLANE, 2j, 1 + 1j, part, cap=cap)
    for n in range(1, 6):
        measures.shadow_mass_bounds(PLANE, 2j, 2j * math.exp(1.0 + 0.5 * n),
                                    1.0, cap=cap)
    pm = measures.pair_measure(PLANE, 2j, part, masses=np.ones(len(part)))
    measures.pair_invariance_check(pm, (1, 1, 0, 1), cap=cap)
    n_atoms = len(measures._plane_atoms(2j, cap).z)
    # the shadow arcs' two endpoints are the only other angles taken
    assert [n for n in sizes if n > 2] == [n_atoms]


def _plane_check_bits(part, cap):
    """The bytes of every plane number the cell binning feeds."""
    masses, err, _ = measures.limit_cell_masses(PLANE, 2j, part, cap=cap)
    pm = measures.pair_measure(PLANE, 2j, part, masses=masses)
    shadows = [measures.shadow_mass_bounds(
        PLANE, 2j, 2j * math.exp(1.0 + 0.5 * n), 1.0, cap=cap)
        for n in (1, 3)]
    return [np.asarray(v, dtype=float).tobytes() for v in (
        masses, err,
        measures.conformal_check(PLANE, 2j, 0.3 + 1.7j, part, cap=cap),
        measures.pair_invariance_check(pm, (2, 1, 1, 1), cap=cap), shadows)]


def test_plane_checks_bin_once_per_partition_to_the_same_bits(monkeypatch):
    cap = 10.0
    parts = [measures.plane_partition(n) for n in (64, 256, 64)]
    calls = []
    locate = measures.BoundaryPartition.locate_angle

    def counted(part, theta):
        calls.append(len(part))
        return locate(part, theta)

    monkeypatch.setattr(measures.BoundaryPartition, "locate_angle", counted)
    measures._cached_atoms.cache_clear()
    warm = [_plane_check_bits(part, cap) for part in parts]
    # one binning per switch of partition, on one cached atom set
    assert calls == [64, 256, 64]
    assert measures._cached_atoms.cache_info().misses == 1
    for part, bits in zip(parts, warm):
        measures._cached_atoms.cache_clear()
        assert _plane_check_bits(part, cap) == bits


def test_plane_cell_index_is_uint16():
    atoms = measures._plane_atoms(2j, 10.0)
    for n in (64, 256):
        idx, sums = atoms.far_cells(measures.plane_partition(n))
        assert idx.dtype == np.uint16 and len(idx) == len(atoms.z)
        assert [len(s) for s in sums] \
            == [n] * len(measures.DEFAULT_S_GRID_PLANE)


def test_shadow_angle_wrap_equals_mod_bit_for_bit():
    rng = np.random.default_rng(11)
    theta, lo = rng.uniform(-math.pi, math.pi, (2, 10000))
    x = np.concatenate([[0.0, math.pi, -math.pi, -1e-300], theta - lo])
    assert (measures._wrap_angle(x).tobytes()
            == np.mod(x, 2.0 * math.pi).tobytes())


def test_locate_angle_array_matches_scalar_formula():
    part = measures.plane_partition(256)
    n, lo0 = len(part), part.cells[0][0]
    rng = np.random.default_rng(5)
    th = np.concatenate([rng.uniform(-4.0, 4.0, 2000),
                         [lo for lo, _ in part.cells],
                         [hi for _, hi in part.cells],
                         [-math.pi, math.pi]])
    want = [int(math.floor(((float(t) - lo0) % (2.0 * math.pi))
                           / (2.0 * math.pi / n))) % n for t in th]
    got = part.locate_angle(th)
    assert got.dtype == np.int64 and got.tolist() == want
    assert [part.locate_angle(float(t)) for t in th[-4:]] == want[-4:]
    assert part.locate_angle(-math.pi) == part.locate_angle(math.pi) == 0


def test_plane_atom_cache_keeps_at_most_two_sets():
    measures._cached_atoms.cache_clear()
    for cap in (3.0, 4.0, 5.0):
        measures._plane_atoms(2j, cap)
    assert measures._cached_atoms.cache_info().currsize == 2
    first = measures._plane_atoms(2j, 5.0)
    assert measures._plane_atoms(2j, 5 + 1e-12) is first
    assert measures._cached_atoms.cache_info().hits == 2


def test_liouville_cells_are_uniform():
    # oracle: the area of each height band by a 4000-column midpoint
    # quadrature over |x| <= 1/2, above the unit circle
    area = []
    xs = np.linspace(-0.5, 0.5, 4001)[:-1] + 1.0 / 8000
    floor = np.sqrt(1.0 - xs ** 2)
    cuts = (0.0,) + measures._Y_CUTS + (np.inf,)
    for lo, hi in zip(cuts, cuts[1:]):
        ylo = np.maximum(floor, lo)
        yhi = np.full_like(xs, hi)
        col = np.clip(1.0 / ylo - (0.0 if np.isinf(hi) else 1.0 / yhi),
                      0.0, None)
        area.append(col.mean())
    area = np.array(area)
    quad = np.repeat(area / area.sum(), 4) / 4
    ms = measures.liouville_cell_masses()
    assert len(ms) == 16
    assert np.abs(ms - quad).max() <= 1e-6
    for m in ms:
        assert m == pytest.approx(1.0 / 16.0, abs=1e-6)


def test_equidistribution_gap_shrinks():
    gaps = {}
    for T in (7, 10):
        census = counting.geodesic_census(PLANE, T)
        _, _, g = measures.equidistribution_test(census, T)
        gaps[T] = max(g)
    assert gaps[10] < 0.08


# the T = 10 cell masses as the chart-per-geodesic code computed them
EQUIDIST_MASSES_T10 = [
    0.06334167297842243, 0.06340122454864139, 0.06338746616546696,
    0.06340465595454128, 0.06323932774335075, 0.06328059457084521,
    0.06324852433294194, 0.06325651622751999, 0.06337907555332166,
    0.06335157962369076, 0.06337221077594035, 0.0633676345833299,
    0.060021601678825816, 0.059971199863333595, 0.05997230267597149,
    0.06000441272385856]


def test_equidistribution_masses_are_pinned():
    mu, _, _ = reference.equidistribution_test(
        counting.geodesic_census(PLANE, 10), 10)
    assert mu.tolist() == EQUIDIST_MASSES_T10


@pytest.mark.parametrize("chunk", [1, 10 ** 7])
def test_equidistribution_masses_do_not_depend_on_the_pass_size(
        monkeypatch, chunk):
    # one class per pass, or the whole census in one pass
    monkeypatch.setattr(reference, "_EQUIDIST_CHUNK", chunk)
    mu, _, _ = reference.equidistribution_test(
        counting.geodesic_census(PLANE, 10), 10)
    assert mu.tolist() == EQUIDIST_MASSES_T10


def _midpoint_bound(census, T):
    """The error bound of the sampled route's midpoint rule on each cell.

    It puts each of k = max(32, ceil(40 ell)) midpoints along a period in
    one cell.  On an indicator, each breakpoint of the period (a piece
    end, the top of an axis, a crossing of a height cut) moves at most
    one step ell / k of mass between two cells."""
    n = census.count(T)
    ells = census.lengths[:n]
    cls, lo, hi, radius, _ = modular.strip_walk(census.matrices[:n])
    inside = [(lo < 0.0) & (hi > 0.0)]
    for y in measures._Y_CUTS:
        r = np.arccosh(np.maximum(radius / y, 1.0))
        inside += [(lo < s) & (hi > s) for s in (-r, r)]
    # an imprimitive class's period walks its root's pieces repeatedly
    reps = np.rint(ells / np.bincount(cls, hi - lo, n))
    ks = np.maximum(32, np.ceil(ells * reference._SAMPLES_PER_UNIT))
    breaks = np.bincount(cls, 1 + sum(inside), n) * reps
    return (breaks * ells / ks).sum() / ells.sum()


@pytest.mark.parametrize("T", [7, 10, 11])
def test_exact_equidistribution_is_within_the_midpoint_bound(T):
    census = counting.geodesic_census(PLANE, T)
    mu, ref, gaps = measures.equidistribution_test(census, T)
    sampled, _, _ = reference.equidistribution_test(census, T)
    assert np.abs(mu - sampled).max() <= _midpoint_bound(census, T)
    assert gaps.tolist() == (mu - ref).tolist()


def test_every_class_walks_exactly_its_period():
    census = counting.geodesic_census(PLANE, 13)
    cls, lo, hi, radius, _ = modular.strip_walk(census.matrices)
    assert (hi > lo).all() and (radius > 0).all()
    walked = np.bincount(cls, hi - lo, len(census))
    assert (np.abs(walked - census.lengths) <= 1e-12 * census.lengths).all()


@pytest.mark.parametrize("word,pieces", [("LLR", 1), ("LLLLRLR", 2)])
def test_corner_classes_close(word, pieces):
    # LLR's axis runs from corner to corner of the fundamental domain
    m = np.array([reference.word_matrix(word)], dtype=np.int64)
    cls, lo, hi, _, _ = modular.strip_walk(m)
    ell = 2.0 * math.acosh((m[0, 0] + m[0, 3]) / 2.0)
    assert len(cls) == pieces
    assert abs((hi - lo).sum() - ell) <= 1e-12 * ell


def test_equidistribution_masses_sum_to_one():
    for T in (7, 10):
        mu, ref, _ = measures.equidistribution_test(
            counting.geodesic_census(PLANE, T), T)
        assert abs(mu.sum() - 1.0) <= 1e-12
        assert abs(ref.sum() - 1.0) <= 1e-12


def test_equidistribution_weighs_an_imprimitive_class_by_its_length():
    census = modular.enumerate_conj_classes(7.0, include_imprimitive=True)
    assert not census.primitive.all()
    mu, _, _ = measures.equidistribution_test(census, 7.0)
    sampled, _, _ = reference.equidistribution_test(census, 7.0)
    assert abs(mu.sum() - 1.0) <= 1e-12
    assert np.abs(mu - sampled).max() <= _midpoint_bound(census, 7.0)


def test_equidistribution_refuses_a_class_whose_walk_misses_its_length():
    census = counting.geodesic_census(PLANE, 6)
    bad = dataclasses.replace(census, lengths=census.lengths * 1.5, T=9.0)
    with pytest.raises(RuntimeError, match="classes walk a period"):
        measures.equidistribution_test(bad, 9.0)


def test_validate_D_mass_exact_fractions():
    mass, c_prime = measures.validate_D_mass("", "aaaa", 2, 0.5)
    assert isinstance(mass, Fraction) and isinstance(c_prime, Fraction)
    assert 0 < mass < 1
    assert c_prime == mass * 3 ** 4


def test_validate_D_mass_c_prime_stable_in_depth():
    vals = [measures.validate_D_mass("", "a" * n, 2, 0.5)[1]
            for n in range(3, 9)]
    assert max(vals) / min(vals) <= 2


def test_validate_separated_bound_exhaustive_route():
    card, method = measures.validate_separated_bound("a" * 9, 5, 0.5, 2, 0.4)
    assert method == "exhaustive"
    assert card >= 1


def test_plane_limit_is_the_least_squares_intercept():
    x = np.asarray(measures.DEFAULT_S_GRID_PLANE) - 1.0
    intercept = np.array([0.3, -1.0, 2.5])
    rows = intercept + np.array([0.05, -2.0, 7.5]) * x[:, None]
    value, residual = measures._PlaneAtoms.limit(rows)
    assert value == pytest.approx(intercept, rel=0, abs=1e-12)
    assert residual <= 1e-12
    # an s^2 term leaves the part of x^2 off the span of 1 and x
    curved = rows[:, :1] + 0.2 * x[:, None] ** 2
    design = np.stack([np.ones_like(x), x], axis=1)
    off = x ** 2 - design @ np.linalg.lstsq(design, x ** 2, rcond=None)[0]
    _, residual = measures._PlaneAtoms.limit(curved)
    assert residual == pytest.approx(0.2 * np.max(np.abs(off)), rel=1e-9)
    assert residual > 0.01

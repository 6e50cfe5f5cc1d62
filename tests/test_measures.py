"""Boundary measures: Poincare series, conformal densities, shadows,
pair measures, equidistribution, and the flow-mass validators."""

import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hyplab import counting, halfplane, measures, words
from hyplab.geometry import FLAT, PLANE, TREE, BackendMismatch


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


def test_flat_series_converges_for_positive_s():
    partial, tail = measures.poincare_series(FLAT, 1.0, cap=25.0)
    assert tail < 1e-6
    assert partial > 1.0


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


def test_limit_cell_masses_tree_equals_visual_measure():
    part = measures.tree_partition(2)
    masses, err, cauchy = measures.limit_cell_masses(TREE, "", part)
    assert cauchy
    for cell, m in zip(part.cells, masses):
        assert m == pytest.approx(float(words.cylinder_measure(cell)),
                                  abs=max(3 * err, 1e-9))


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


def test_representatives_are_built_once():
    part = measures.tree_partition(3)
    reps = part.representatives
    assert reps is part.representatives
    assert list(reps) == [part.representative(i) for i in range(len(part))]


def test_conformal_check_plane_small():
    part = measures.plane_partition(64)
    defect = measures.conformal_check(PLANE, 2j, 1 + 1j, part)
    assert defect < 0.1


def _per_arc_plane_conformal(p, q, part, cap):
    """Reference route: one mass ratio and one fit per arc."""
    h, svals = 1.0, np.asarray(measures.DEFAULT_S_GRID_PLANE)
    atoms = measures._plane_atoms(p, p, cap)
    dq = halfplane.dist(q, atoms.z)
    idx = part.locate_angle(halfplane.direction_toward(part.base, atoms.xi))
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
    desc = measures.shadow(TREE, "", "aab", 0.5)
    assert measures.shadow_contains(desc, words.BoundaryWord("b",
                                                             prefix="aab"))
    assert not measures.shadow_contains(desc, words.BoundaryWord("b"))


def test_shadow_mass_bounds_tree_family():
    ratios = []
    for n in range(2, 9):
        mass, ratio = measures.shadow_mass_bounds(TREE, "", "a" * n, 0.5)
        assert 0 < mass < 1
        ratios.append(ratio)
    assert max(ratios) / min(ratios) <= 2.0


def test_pair_measure_tree_invariance_exact():
    part = measures.tree_partition(3)
    pm = measures.pair_measure(TREE, "", part)
    for g in ("a", "b", "A", "ab"):
        assert measures.pair_invariance_check(pm, g) == 0


def test_exact_pair_mass_equals_fraction_sum():
    rng = random.Random(5)
    cells = [w for w in words.ball_words(4) if w]
    for _ in range(200):
        a = rng.sample(cells, rng.randint(1, 4))
        b = rng.sample(cells, rng.randint(1, 4))
        want = sum(Fraction(3) ** (2 * words.common_prefix_len(x, y))
                   * words.cylinder_measure(x) * words.cylinder_measure(y)
                   for x in a for y in b)
        n, e = measures._exact_pair_mass(a, b, 2)
        assert e >= 0
        assert Fraction(n, 16 * 3 ** e) == want


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


def test_pair_invariance_plane_identity_is_zero():
    part = measures.plane_partition(32)
    pm = measures.pair_measure(PLANE, 2j, part)
    assert measures.pair_invariance_check(pm, (1, 0, 0, 1)) \
        == pytest.approx(0.0, abs=1e-9)


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
        measures._plane_atoms(2j, 2j, cap)
    assert measures._cached_atoms.cache_info().currsize == 2
    first = measures._plane_atoms(2j, 2j, 5.0)
    assert measures._plane_atoms(2j, 2j, 5 + 1e-12) is first
    assert measures._cached_atoms.cache_info().hits == 2


def test_liouville_cells_are_uniform():
    ms = measures.liouville_cell_masses()
    assert len(ms) == 16
    for m in ms:
        assert m == pytest.approx(1.0 / 16.0, abs=1e-6)


def test_equidistribution_gap_shrinks():
    gaps = {}
    for T in (7, 10):
        census = counting.geodesic_census(PLANE, T)
        _, _, g = measures.equidistribution_test(census, T)
        gaps[T] = max(g)
    assert gaps[10] < 0.08


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


def test_extrapolate_to_h_linear_data():
    s_grid = [2.0, 1.5, 1.2, 1.1]
    h = 1.0
    vals = [[0.3 + 0.05 * (s - h)] for s in s_grid]
    out = measures.extrapolate_to_h(vals, s_grid, h)
    assert out[0] == pytest.approx(0.3, abs=1e-12)

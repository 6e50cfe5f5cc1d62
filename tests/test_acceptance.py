"""End-to-end acceptance checks, one pass/fail line per claim.

Every test prints a single summary line (visible with -v / on failure)
before asserting, so a full run reads as a scoreboard.  Oracles are
independent of the library code paths they certify: closed-form counts,
brute-force enumerations written inline, and frozen constants.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from hyplab import (cli, counting, entropy, geometry, halfplane, measures,
                    modular, words)
from hyplab.geometry import FLAT, PLANE, TREE

LOG3 = math.log(3)


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def modular_census():
    return counting.geodesic_census(PLANE, 10.0)


# -- 1 ----------------------------------------------------------------------

def test_01_tree_growth_bounds():
    t0 = time.time()
    census = counting.orbit_count(TREE, "", range(4, 15))
    exact = all(c == 2 * 3 ** int(r) - 1 for r, c in census.entries)
    ratios = [c * math.exp(-LOG3 * r) for r, c in census.entries]
    c2_over_c1 = max(ratios) / min(ratios)
    elapsed = time.time() - t0
    ok = exact and c2_over_c1 <= 50 and elapsed < 30
    _report("tree growth bounds", ok,
            f"counts exact={exact}, C2/C1={c2_over_c1:.4f} (<=50), "
            f"{elapsed:.2f}s (<30s)")


# -- 2 ----------------------------------------------------------------------

def test_02_entropy_fits():
    results = []
    t0 = time.time()
    fit2 = counting.fit_entropy(counting.orbit_count(TREE, "", range(2, 15)))
    results.append(("tree k=2", abs(fit2.h - LOG3), 0.02, time.time() - t0))
    t0 = time.time()
    fit3 = counting.fit_entropy(
        counting.orbit_count(TREE, "", range(2, 11), rank=3))
    results.append(("tree k=3", abs(fit3.h - math.log(5)), 0.03,
                    time.time() - t0))
    t0 = time.time()
    fitf = counting.fit_entropy(
        counting.orbit_count(FLAT, (0.0, 0.0), range(4, 81, 4)))
    results.append(("flat", fitf.h, 0.05, time.time() - t0))
    ok = all(err < tol and dt < 60 for _, err, tol, dt in results)
    _report("entropy fits", ok,
            "; ".join(f"{n} err={e:.5f} (<{t}) {dt:.1f}s"
                      for n, e, t, dt in results))


# -- 3 ----------------------------------------------------------------------

def _necklace_length_oracle(max_len):
    """Sorted lengths of primitive necklaces, by exhaustive enumeration."""
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    lengths = []
    stack = [c for c in "abAB"]
    while stack:
        w = stack.pop()
        n = len(w)
        if n == 1 or w[0] != inv[w[-1]]:
            rots = {w[i:] + w[:i] for i in range(n)}
            if len(rots) == n and min(rots) == w:
                lengths.append(float(n))
        if n < max_len:
            stack.extend(w + c for c in "abAB" if c != inv[w[-1]])
    return sorted(lengths)


def test_03_tree_geodesic_census_vs_oracle():
    census = counting.geodesic_census(TREE, 12)
    oracle = _necklace_length_oracle(12)
    exact = census.lengths == oracle
    a_needed = 0.0
    for t in range(4, 13):
        p = census.count(t)
        e = math.exp(LOG3 * t)
        a_needed = max(a_needed, p / e, e / (t * p))
    ok = exact and a_needed <= 5.0
    _report("tree census vs necklace oracle", ok,
            f"lengths identical={exact} ({len(oracle)} classes), "
            f"two-sided A={a_needed:.3f} (<=5)")


# -- 4 ----------------------------------------------------------------------

def test_04_margulis_ratio_modular(modular_census):
    t0 = time.time()
    table = counting.margulis_table(modular_census, 1.0, [6, 7, 8, 9, 10])
    ratios = {t: r for t, _, r in table}
    in_range = all(0.6 <= ratios[t] <= 1.5 for t in (8, 9, 10))
    dists = [abs(ratios[t] - 1.0) for t in (6, 7, 8, 9, 10)]
    decreasing = sum(b < a for a, b in zip(dists, dists[1:]))
    elapsed = time.time() - t0
    ok = in_range and decreasing >= 3 and elapsed < 300
    _report("modular Margulis ratio", ok,
            f"ratios={[f'{ratios[t]:.4f}' for t in (6, 7, 8, 9, 10)]}, "
            f"in [0.6,1.5] at 8..10: {in_range}, "
            f"distance to 1 decreasing in {decreasing}/4 steps (need 3)")


# -- 5 ----------------------------------------------------------------------

def test_05_tree_poincare_series_closed_form():
    details = []
    ok = True
    for s in (LOG3 + 0.1, math.log(6), 2 * LOG3):
        partial, tail = measures.poincare_series(TREE, s, cap=40)
        closed = measures.tree_series_closed_form(s)
        agree = abs(closed - partial) <= tail + 1e-12
        ok = ok and agree
        details.append(f"s={s:.4f} gap={abs(closed - partial):.2e} "
                       f"<= tail={tail:.2e}: {agree}")
    for s in (math.log(6), 2 * LOG3):
        _, tail = measures.poincare_series(TREE, s, cap=40)
        small = tail < 1e-6
        ok = ok and small
        details.append(f"tail(s={s:.4f})={tail:.1e} < 1e-6: {small}")
    _report("tree Poincare series", ok, "; ".join(details))


# -- 6 ----------------------------------------------------------------------

def test_06_conformal_density():
    part = measures.tree_partition(5)
    ball = sorted(words.ball_words(3))
    worst = max(measures.conformal_check(TREE, p, q, part)
                for p in ball for q in ball if p != q)
    d256 = measures.conformal_check(PLANE, 2j, 1 + 1j,
                                    measures.plane_partition(256))
    d512 = measures.conformal_check(PLANE, 2j, 1 + 1j,
                                    measures.plane_partition(512))
    ok = worst == 0.0 and d256 < 0.1 and d512 < d256
    _report("conformal density", ok,
            f"tree worst defect={worst} (exact 0 over {len(ball)}^2 pairs, "
            f"depth-5 cells); plane {d256:.4f} (<0.1) -> {d512:.4f} "
            f"(refining)")


# -- 7 ----------------------------------------------------------------------

def test_07_shadow_lemma():
    tree_spreads = []
    for w in ("", "b", "ba"):
        ratios = [measures.shadow_mass_bounds(TREE, "", w + "a" * n, 0.5)[1]
                  for n in range(2, 9)]
        tree_spreads.append(max(ratios) / min(ratios))
    plane_ratios = [measures.shadow_mass_bounds(
        PLANE, 2j, 2j * math.exp(d), 1.0)[1]
        for d in (1.5, 2.0, 2.5, 3.0, 3.5)]
    b = max(plane_ratios) / min(plane_ratios)
    ok = max(tree_spreads) <= 2.0 and b <= 20.0
    _report("shadow lemma", ok,
            f"tree family spreads={[f'{s:.3f}' for s in tree_spreads]} "
            f"(<=2); plane b={b:.3f} (<=20)")


# -- 8 ----------------------------------------------------------------------

def test_08_pair_measure_invariance():
    pm = measures.pair_measure(TREE, "", measures.tree_partition(3))
    tree_worst = max(measures.pair_invariance_check(pm, g)
                     for g in ("a", "b"))
    pmp = measures.pair_measure(PLANE, 2j, measures.plane_partition(256))
    plane_defect = measures.pair_invariance_check(pmp, (1, 1, 0, 1))
    ok = tree_worst == 0.0 and plane_defect < 0.05
    _report("pair-measure invariance", ok,
            f"tree generator defect={tree_worst} (exact 0); "
            f"plane defect={plane_defect:.4f} (<0.05 at 256 arcs)")


# -- 9 ----------------------------------------------------------------------

def test_09_equidistribution(modular_census):
    _, _, gaps10 = measures.equidistribution_test(modular_census, 10.0)
    census7 = counting.geodesic_census(PLANE, 7.0)
    _, _, gaps7 = measures.equidistribution_test(census7, 7.0)
    g7 = [abs(g) for g in gaps7]
    g10 = [abs(g) for g in gaps10]
    improving = sum(1 for a, b in zip(g7, g10) if b < a)
    ok = max(g10) < 0.08 and improving >= 12
    _report("equidistribution", ok,
            f"max |gap| at T=10: {max(g10):.5f} (<0.08); improving in "
            f"{improving}/16 cells from T=7 (need 12)")


# -- 10 ---------------------------------------------------------------------

def test_10_fellow_traveling():
    # tree: every geodesic [1, v], |v| <= 8, against every perturbation of
    # its endpoints within rho = 2 (exhaustive via vertex transitivity;
    # the kernel's convexity argument reduces each geodesic to its ends).
    # The exact worst deviation is rho itself: a vertex's distance to
    # [1, v] is at most its distance to the nearer end, and a u of length
    # rho leaving v attains it; so 2 <= 6 holds with a factor 3 to spare.
    worst = max(words.fellow_travel_deviation(v, 2)
                for v in words.ball_words(8))
    tree_ok = worst <= 6

    # plane: Monte-Carlo geodesic pairs with endpoints within rho = 0.5
    delta = geometry.estimate_delta(PLANE, 10 ** 6, 4.0, seed=0).delta
    rho = 0.5
    bound = 4 * delta + 3 * rho
    rng = np.random.default_rng(42)
    plane_worst, left = 0.0, 10 ** 5
    while left > 0:
        m = min(4096, left)
        p = halfplane.random_points(rng, m, 3.0)
        q = halfplane.random_points(rng, m, 3.0)
        wp = halfplane.random_points(rng, m, rho, center=1j)
        wq = halfplane.random_points(rng, m, rho, center=1j)
        pts = halfplane.geodesic_sample(p.real + p.imag * wp,
                                        q.real + q.imag * wq, 24)
        dev = halfplane.dist_to_segment(pts, p, q)
        plane_worst = max(plane_worst, float(dev.max()))
        left -= m
    plane_ok = plane_worst <= bound
    _report("fellow traveling", tree_ok and plane_ok,
            f"tree worst deviation={worst} (<=3*rho=6, exhaustive); plane "
            f"worst={plane_worst:.4f} <= 4*delta+3*rho={bound:.4f} "
            f"(delta-hat={delta:.4f} at 1e6 samples, 1e5 pairs)")


# -- 11 ---------------------------------------------------------------------

def test_11_flow_mass_validators():
    cprimes = [float(measures.validate_D_mass("", "a" * n, 2.5, 0.5)[1])
               for n in range(3, 9)]
    c_spread = max(cprimes) / min(cprimes)
    cards = [measures.validate_separated_bound("a" * 30, n, 1.0, 4.5, 1.0)[0]
             for n in range(5, 9)]
    k_spread = max(cards) / min(cards)
    ok = min(cprimes) > 0 and c_spread <= 2.0 and k_spread <= 2.0
    _report("flow-mass validators", ok,
            f"c' positive, spread={c_spread:.3f} (<=2 over n=3..8); "
            f"separated cardinalities {cards}, spread={k_spread:.2f} (<=2)")


# -- 12 ---------------------------------------------------------------------

def test_12_expansivity_probes():
    t0 = time.time()
    tree_rep = entropy.z_set_probe(entropy.tree_flow_sample(6)[0], 0.4)
    flat_rep = entropy.z_set_probe(
        entropy.flat_flow_sample(n_dirs=4, n_pos=1)[0], 0.4)
    f_tree, _ = entropy.endpoint_fiber_probe(TREE, "a", "b")
    f_plane, _ = entropy.endpoint_fiber_probe(PLANE, -1.3, 0.7)
    f_flat, _ = entropy.endpoint_fiber_probe(FLAT, 0.3, 0.3 + math.pi)
    elapsed = time.time() - t0
    ok = (tree_rep.classification == "EXPANSIVE-AT-SCALE"
          and flat_rep.classification == "NON-EXPANSIVE-WITNESS"
          and f_tree == 1 and f_plane == 1 and f_flat >= 2
          and elapsed < 10)
    _report("expansivity probes", ok,
            f"tree={tree_rep.classification}, flat={flat_rep.classification}"
            f", fibers tree/plane/flat={f_tree}/{f_plane}/{f_flat}, "
            f"{elapsed:.2f}s (<10s)")


# -- 13 ---------------------------------------------------------------------

def test_13_entropy_consistency():
    est = entropy.estimate_htop(TREE)
    ok = est.gap <= 0.1 * LOG3
    _report("entropy consistency", ok,
            f"|h_top - h_fit| = {est.gap:.5f} <= 0.1*log3 = "
            f"{0.1 * LOG3:.5f}")


# -- 14 ---------------------------------------------------------------------

def test_14_reproducibility(tmp_path):
    outs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        code = cli.main(["--out", str(out), "--seed", "11", "validate"])
        assert code == cli.EXIT_OK
        outs.append((out / "validate.json").read_bytes())
    ok = outs[0] == outs[1]
    _report("reproducibility", ok,
            f"validate.json byte-identical across two same-seed runs: {ok} "
            f"({len(outs[0])} bytes)")

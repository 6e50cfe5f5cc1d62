"""The three workloads: seeded inputs, timed stages and their oracle checks.

A stage's `run` calls only public library functions, looked up on their
modules at call time so that the traced run's probes see them.  Its
`check` runs outside the timed region and returns (ok, detail, payload),
optionally followed by a dict of per-layer values measured from outside;
the payload is what the stage digest is taken of.
"""

import json
import math
import os
import random
from collections import namedtuple

import numpy as np
from hyplab import cli, counting, entropy, geometry, measures
from hyplab.geometry import FLAT, PLANE, TREE

import oracles

Stage = namedtuple("Stage", "name run check")

DELTA_H2 = math.log(1.0 + math.sqrt(2.0))  # thin-triangle constant of H^2


def build(workload, seed, scratch):
    """(input description, stages) of a workload; scratch is a directory
    the stages may write into."""
    rng = random.Random(seed)
    if workload == "exact_census":
        return _exact_census(rng)
    if workload == "modular_ps":
        return _modular_ps(rng)
    if workload == "flow_mc":
        return _flow_mc(rng, scratch)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# exact_census: the exact tree and integer routes

def _random_reduced_word(rng, letters, inverse, length):
    w = ""
    while len(w) < length:
        c = rng.choice(letters)
        if not w or w[-1] != inverse[c]:
            w += c
    return w


def _exact_census(rng):
    ball = oracles.reduced_words(3)
    pairs = rng.sample([(p, q) for p in ball for q in ball if p != q], 200)
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    gammas = [_random_reduced_word(rng, "abAB", inverse, rng.randint(1, 3))
              for _ in range(3)]
    tree_r, plane_r = list(range(2, 13)), list(range(2, 11))
    neck_len, plane_t = 11, 11.0
    margulis_t = list(range(4, 12))

    def tree_orbit():
        census = counting.orbit_count(TREE, "", tree_r)
        return census, counting.fit_entropy(census)

    def check_tree_orbit(res):
        census, fit = res
        expect = [oracles.tree_ball_count(r) for r in tree_r]
        ok = (census.counts == expect and all(census.complete)
              and abs(fit.h - math.log(3)) < 1e-3)
        return ok, f"counts 2*3^R-1 for R=2..12, h={fit.h:.6f}", \
            [census.counts, census.complete, fit.h, fit.C1, fit.C2,
             fit.residual]

    def tree_census():
        return counting.geodesic_census(TREE, neck_len)

    def check_tree_census(census):
        words = [w for _, w in census.entries]
        ok, detail = oracles.check_tree_census(words, neck_len)
        lengths_ok = all(length == len(w) for length, w in census.entries)
        return ok and lengths_ok, detail, list(census.entries)

    def plane_orbit():
        return counting.orbit_count(PLANE, 2j, plane_r)

    def check_plane_orbit(census):
        forms = oracles.modular_ball_forms(max(plane_r))
        expect = oracles.modular_ball_counts(plane_r, forms)
        ok = census.counts == expect and all(census.complete)
        return ok, f"integer brute force {expect}", \
            [census.counts, census.complete]

    def plane_census():
        census = counting.geodesic_census(PLANE, plane_t)
        return census, counting.margulis_table(census, 1.0, margulis_t)

    def check_plane_census(res):
        census, table = res
        ok1, d1 = oracles.check_modular_census(census.entries, plane_t)
        ok2, d2 = oracles.check_margulis(census.entries, table)
        return ok1 and ok2, f"{d1}; {d2}", [list(census.entries), table]

    def tree_conformal():
        part = measures.tree_partition(5)
        return [measures.conformal_check(TREE, p, q, part) for p, q in pairs]

    def check_zero(defects):
        return all(d == 0 for d in defects), \
            f"{len(defects)} defects, max {max(defects)} (exact 0)", defects

    def tree_pair():
        pm = measures.pair_measure(TREE, "", measures.tree_partition(4))
        return [measures.pair_invariance_check(pm, g) for g in gammas]

    inputs = {"tree_R": tree_r, "necklace_len": neck_len, "plane_R": plane_r,
              "plane_T": plane_t, "margulis_t": margulis_t,
              "conformal_pairs": len(pairs), "conformal_depth": 5,
              "pair_depth": 4, "gammas": gammas,
              "pairs_digest": oracles.digest(pairs)}
    return inputs, [
        Stage("tree_orbit", tree_orbit, check_tree_orbit),
        Stage("tree_census", tree_census, check_tree_census),
        Stage("plane_orbit", plane_orbit, check_plane_orbit),
        Stage("plane_census", plane_census, check_plane_census),
        Stage("tree_conformal", tree_conformal, check_zero),
        Stage("tree_pair_invariance", tree_pair, check_zero),
    ]


# ---------------------------------------------------------------------------
# modular_ps: the modular Patterson-Sullivan pipeline

_RL = {"R": (1, 1, 0, 1), "L": (1, 0, 1, 1),
       "r": (1, -1, 0, 1), "l": (1, 0, -1, 1)}


def _rl_matrix(word):
    a, b, c, d = 1, 0, 0, 1
    for ch in word:
        e, f, g, h = _RL[ch]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    first = next(x for x in (a, b, c, d) if x)
    return (a, b, c, d) if first > 0 else (-a, -b, -c, -d)


def _modular_ps(rng):
    qs = []
    for _ in range(2):
        x = rng.uniform(-0.5, 0.5)
        qs.append(complex(x, rng.uniform(math.sqrt(1.0 - x * x), 2.5)))
    inverse = {"R": "r", "r": "R", "L": "l", "l": "L"}
    words = [_random_reduced_word(rng, "RLrl", inverse, rng.randint(1, 2))
             for _ in range(2)]
    gammas = [_rl_matrix(w) for w in words]
    s, ps_cap, cap, n_arcs = 1.2, 10.0, 12.0, 256
    shadow_x = [2j * math.exp(1.0 + 0.5 * n) for n in range(1, 6)]

    def ps_measure():
        return measures.ps_measure(PLANE, 2j, s, cap=ps_cap)

    def check_ps(mu):
        forms = oracles.modular_ball_forms(ps_cap)
        d = np.arccosh(np.maximum(forms / 8.0, 1.0))
        ref = np.sort(np.exp(-s * d) / np.exp(-s * d).sum())
        got = np.sort(np.array([w for _, w in mu.atoms]))
        ok = (len(got) == len(ref)
              and bool(np.allclose(got, ref, rtol=1e-9, atol=0.0)))
        atoms = sorted(oracles.canon(a) for a in mu.atoms)
        return ok, f"{len(got)} atoms, weights match the integer ball", \
            [len(atoms), oracles.digest(atoms), mu.total_mass, mu.tail_bound]

    def conformal():
        part = measures.plane_partition(n_arcs)
        return [measures.conformal_check(PLANE, 2j, q, part) for q in qs]

    def check_conformal(defects):
        return all(d < 0.1 for d in defects), \
            f"defects {[f'{d:.5f}' for d in defects]} (<0.1)", defects

    def shadow():
        return [measures.shadow_mass_bounds(PLANE, 2j, x, 1.0)
                for x in shadow_x]

    def check_shadow(rows):
        ratios = [r for _, r in rows]
        spread = max(ratios) / min(ratios)
        ok = all(mass > 0 for mass, _ in rows) and spread <= 20.0
        return ok, f"ratio spread {spread:.4f} (<=20)", rows

    def pair():
        part = measures.plane_partition(n_arcs)
        masses, err, cauchy = measures.limit_cell_masses(PLANE, 2j, part,
                                                         cap=cap)
        pm = measures.pair_measure(PLANE, 2j, part, masses=masses)
        return masses, err, cauchy, [
            measures.pair_invariance_check(pm, g, cap=cap) for g in gammas]

    def check_pair(res):
        masses, err, cauchy, defects = res
        ok = (bool(np.all(np.isfinite(masses)))
              and all(d < 0.05 for d in defects))
        return ok, f"defects {[f'{d:.5f}' for d in defects]} (<0.05)", \
            [masses, err, cauchy, defects]

    inputs = {"s": s, "ps_cap": ps_cap, "cap": cap, "arcs": n_arcs,
              "q": qs, "gamma_words": words, "gammas": gammas,
              "shadow_n": [1, 2, 3, 4, 5]}
    return inputs, [
        Stage("ps_measure", ps_measure, check_ps),
        Stage("plane_conformal", conformal, check_conformal),
        Stage("plane_shadow", shadow, check_shadow),
        Stage("plane_pair_invariance", pair, check_pair),
    ]


# ---------------------------------------------------------------------------
# flow_mc: vectorised sampling and the CLI writers

def _htop_payload(est):
    return [est.h, est.fit_h, est.gap, est.stable,
            [(r.n, r.lower, r.upper) for r in est.reports]]


def _flow_mc(rng, scratch):
    mc_seed, plane_seed, cli_seed = (rng.randrange(1, 2 ** 31)
                                     for _ in range(3))
    # The greedy torus cover's size, and with it flat_htop's time, depends
    # on how the sample's positions cluster: random positions give 120 or
    # 240 cover lines, a 30% swing of the workload between seeds.  So the
    # seed translates flat_flow_sample's default positions instead; torus
    # distances, and so the work, do not change under translation.
    flat_shift = np.array([rng.random(), rng.random()])
    n_tri, radius, census_t = 100000, 4.0, 10.0
    htop_r = [float(r) for r in range(2, 9)]  # estimate_htop's orbit fit
    out_dir = os.path.join(scratch, "validate")

    def delta():
        return geometry.estimate_delta(PLANE, n_tri, radius, mc_seed).delta

    def check_delta(d):
        return 0.0 < d <= DELTA_H2, f"delta {d:.6f} <= ln(1+sqrt2)", d

    def plane_htop():
        sample = entropy.plane_flow_sample(n_dirs=48, n_pos=8,
                                           seed=plane_seed)
        return entropy.estimate_htop(PLANE, sample=sample)

    def check_plane_htop(est):
        counts = oracles.modular_ball_counts(
            htop_r, oracles.modular_ball_forms(max(htop_r)))
        fit = oracles.ls_slope(htop_r, [math.log(c) for c in counts])
        ok = abs(est.fit_h - fit) < 1e-9 and est.h > 0.25
        return ok, f"h={est.h:.4f} (>0.25), orbit fit {fit:.6f}", \
            _htop_payload(est)

    def flat_htop():
        sample = [entropy.FlowPoint(FLAT, pos=p.pos + flat_shift,
                                    theta=p.theta)
                  for p in entropy.flat_flow_sample(n_dirs=120)]
        return entropy.estimate_htop(FLAT, sample=sample)

    def check_flat_htop(est):
        return abs(est.h) < 0.1, f"h={est.h:.5f} (|h|<0.1)", \
            _htop_payload(est)

    def equidist():
        census = counting.geodesic_census(PLANE, census_t)
        return census, measures.equidistribution_test(census, census_t)

    def check_equidist(res):
        census, (mu, ref, gaps) = res
        ok, detail = oracles.check_modular_census(census.entries, census_t)
        gap = float(np.max(np.abs(gaps)))
        return ok and gap < 0.08, f"{detail}; max |gap| {gap:.5f} (<0.08)", \
            [list(census.entries), mu, gaps]

    def validate():
        return cli.main(["--out", out_dir, "--seed", str(cli_seed),
                         "validate"])

    def check_validate(code):
        path = os.path.join(out_dir, "validate.json")
        with open(path) as f:
            payload = json.load(f)
        records = payload["records"]
        ok = (code == 0 and payload["all_pass"]
              and all(r["pass"] for r in records))
        written = sum(os.path.getsize(os.path.join(out_dir, n))
                      for n in os.listdir(out_dir))
        passed = sum(1 for r in records if r["pass"])
        return ok, f"exit {code}, {passed}/{len(records)} records pass", \
            [code, records], {"cli.bytes_written": written}

    inputs = {"triangles": n_tri, "radius": radius, "mc_seed": mc_seed,
              "plane_sample": [48, 8, plane_seed],
              "flat_sample": [120, "default positions shifted by",
                              flat_shift.tolist()], "census_T": census_t,
              "cli_seed": cli_seed}
    return inputs, [
        Stage("delta_mc", delta, check_delta),
        Stage("plane_htop", plane_htop, check_plane_htop),
        Stage("flat_htop", flat_htop, check_flat_htop),
        Stage("plane_equidist", equidist, check_equidist),
        Stage("cli_validate", validate, check_validate),
    ]

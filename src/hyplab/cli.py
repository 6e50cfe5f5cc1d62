"""Command-line entry point.

Subcommands: count, measure, entropy, validate.  All outputs are CSV or
JSON with floats at 12 significant digits and exact rationals as "p/q";
every file embeds the hash of the effective configuration so a run can
be reproduced from its own artifacts.

Exit codes: 0 pass, 1 usage error, 2 invariant violation, 3 incomplete
enumeration without certificate.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import counting, entropy, geometry, halfplane, measures, words
from .geometry import FLAT, PLANE, TREE, Backend

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INCOMPLETE = 3


def fmt(x):
    """Canonical text form: 12 significant digits, rationals as p/q."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def config_hash(cfg):
    text = "\n".join(f"{k}={fmt(cfg[k])}" for k in sorted(cfg))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_csv(path, header, rows, cfg, refs):
    with open(path, "w") as f:
        f.write(f"# config {config_hash(cfg)} refs {refs}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path, payload, cfg, refs):
    payload = dict(payload)
    payload["config_hash"] = config_hash(cfg)
    payload["refs"] = refs
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True,
                  default=lambda v: fmt(v))
        f.write("\n")


def load_config(path):
    cfg = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    return cfg


def effective_config(args, keys, hyperbolic=False):
    """Merge config file values with flag overrides into a flat dict.

    An explicit flag beats a file value, and a file value beats the
    default; a file key the command does not read, or a rank off the
    tree, raises ValueError.  Written back to args: the merged seed and,
    for a "backend" key, its record, built once (at rank 2 unless "rank"
    is a key).
    """
    cfg = {}
    if args.config:
        cfg.update(load_config(args.config))
        unread = sorted(set(cfg) - set(keys) - {"seed"})
        if unread:
            raise ValueError(f"{args.command} does not read the --config "
                             f"key(s) {', '.join(unread)}")
    for k in keys + ("seed",):
        v = getattr(args, k.replace("-", "_"), None)
        if v is not None:
            cfg[k] = v
    cfg["seed"] = args.seed = int(cfg.get("seed", 0))
    if "backend" in keys:
        rank = int(cfg.get("rank", 2)) if "rank" in keys else 2
        args.backend = Backend.of(cfg.setdefault("backend", "tree"), rank,
                                  hyperbolic, cli=True)
        if "rank" in cfg and args.backend.rank is None:  # not the tree
            raise ValueError(f"--rank is read on the tree backend alone, "
                             f"not on {args.backend.cli}")
    return cfg


def _parse_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


# ---------------------------------------------------------------------------
# count

def cmd_count(args):
    cfg = effective_config(args, ("backend", "rank", "Rmax", "T"))
    b, out = args.backend, args.out
    for key in ("Rmax", "T"):
        if key in cfg and not (math.isfinite(float(cfg[key]))
                               and float(cfg[key]) >= 0):
            raise ValueError(f"--{key} must be finite and >= 0, "
                             f"not {cfg[key]}")
    T = None if b.T is None else float(cfg.get("T", b.T))
    census = counting.orbit_count(b.name, b.base, b.radii(cfg.get("Rmax")),
                                  rank=b.rank)
    write_csv(os.path.join(out, "orbit_census.csv"),
              ("R", "count", "complete"),
              [(r, c, f) for (r, c), f in zip(census.entries,
                                              census.complete)],
              cfg, "eq-co93")
    fit = counting.fit_entropy(census)
    write_json(os.path.join(out, "entropy_fit.json"),
               {"h_fit": fit.h, "C1": fit.C1, "C2": fit.C2,
                "window": list(fit.window), "residual": fit.residual},
               cfg, "eq-co93")
    if T is not None:
        gc = counting.geodesic_census(b.name, T, rank=b.rank)
        write_csv(os.path.join(out, "geodesic_census.csv"),
                  ("length", "word"), gc.entries, cfg, "thm-2.10")
        table = counting.margulis_table(
            gc, gc.h, [t for t in range(4, int(T) + 1)])
        write_csv(os.path.join(out, "margulis.csv"),
                  ("T", "P", "ratio"), table, cfg, "eqn-margulis")
    return EXIT_OK if all(census.complete) else EXIT_INCOMPLETE


# ---------------------------------------------------------------------------
# measure

def cmd_measure(args):
    cfg = effective_config(args, ("backend", "cells", "check", "s", "cap",
                                  "gamma", "T"), hyperbolic=True)
    b, out = args.backend, args.out
    checks = ([c for c in str(cfg.get("check", "")).split(",") if c]
              or ["conformal"])
    code = EXIT_OK
    cap = float(cfg.get("cap", 12))
    # plane checks default to their own caps unless --cap is given
    check_cap = float(cfg["cap"]) if "cap" in cfg else None
    if b.name == TREE:
        gamma, parse_gamma = "a", str
        cells = str(cfg.get("cells", "depth=4"))
        if not cells.startswith("depth="):
            raise ValueError(f"tree --cells takes depth=<n>, not {cells!r}")
        partition = measures.tree_partition(int(cells.split("=", 1)[1]))
        pairs = [(p, q) for p in ("", "a", "ab") for q in "abB" if p != q]
        shadows = [(n, "a" * n, 0.5) for n in range(2, 9)]
    else:
        gamma = "1,1,0,1"
        cells = str(cfg.get("cells", "256"))
        if not cells.isdigit():
            raise ValueError(f"modular --cells is an arc count, not {cells!r}")
        partition = measures.plane_partition(int(cells))
        pairs = [(2j, 1 + 1j)]
        shadows = [(n, 2j * math.exp(1.0 + 0.5 * n), 1.0)
                   for n in range(1, 6)]

        def parse_gamma(text):
            return tuple(int(v) for v in text.split(","))
    s = float(cfg.get("s", b.h + 0.2))
    gamma = cfg.get("gamma", gamma)
    mu = measures.ps_measure(b.name, b.base, s, cap=min(cap, 10.0))
    write_json(os.path.join(out, "measure.json"),
               {"backend": b.cli, "s": s,
                "total_mass": float(mu.total_mass),
                "tail_bound": float(mu.tail_bound),
                "atoms": len(mu.weights)},
               cfg, "eq-nupxs eq-nu-weight")
    for check in checks:
        if check == "conformal":
            rows = [(str(p), str(q),
                     measures.conformal_check(b.name, p, q, partition,
                                              cap=check_cap))
                    for p, q in pairs]
            write_csv(os.path.join(out, "conformal_defect.csv"),
                      ("p", "q", "max_defect"), rows, cfg, "prop-3.1b")
            if any(r[2] > 0.1 for r in rows):
                code = max(code, EXIT_VIOLATION)
        elif check == "shadow":
            rows = [(n, *measures.shadow_mass_bounds(b.name, b.base, x,
                                                     rho, cap=check_cap))
                    for n, x, rho in shadows]
            write_csv(os.path.join(out, "shadow_bounds.csv"),
                      ("n", "mass", "ratio"), rows, cfg, "prop-3.3")
        elif check == "pair-invariance":
            pm = measures.pair_measure(b.name, b.base, partition,
                                       cap=check_cap)
            defect = measures.pair_invariance_check(pm, parse_gamma(gamma),
                                                    cap=check_cap)
            write_csv(os.path.join(out, "pair_invariance.csv"),
                      ("gamma", "defect"), [(gamma, defect)],
                      cfg, "prop-3.4")
            if defect > 0.05:
                code = max(code, EXIT_VIOLATION)
        elif check == "equidist":
            if b.name != PLANE:
                print("equidistribution runs on the modular backend",
                      file=sys.stderr)
                return EXIT_USAGE
            T = float(cfg.get("T", b.T))
            census = counting.geodesic_census(PLANE, T)
            mu_cells, ref, gaps = measures.equidistribution_test(census, T)
            write_csv(os.path.join(out, "equidistribution.csv"),
                      ("cell", "mu_T", "liouville", "gap"),
                      [(i, m, r, g) for i, (m, r, g)
                       in enumerate(zip(mu_cells, ref, gaps))],
                      cfg, "thm-C1")
        elif check == "validators":
            mass, cprime = measures.validate_D_mass("", "a" * 5, 2.5, 0.5)
            card, method = measures.validate_separated_bound(
                "a" * 30, 5, 1.0, 4.5, 1.0)
            write_json(os.path.join(out, "lemma_validators.json"),
                       {"lemma_5_2_mass": mass, "lemma_5_2_cprime": cprime,
                        "lemma_5_3_cardinality": card,
                        "lemma_5_3_method": method},
                       cfg, "lem-5.2 lem-5.3")
        else:
            raise ValueError(f"unknown check {check!r}")
    return code


# ---------------------------------------------------------------------------
# entropy

def cmd_entropy(args):
    cfg = effective_config(args, ("backend", "n", "delta", "probe", "rho",
                                  "xi", "eta", "rank"))
    b, out = args.backend, args.out
    probe = cfg.get("probe")
    if probe == "z-set":
        rho = float(cfg.get("rho", 0.4))
        rep = entropy.z_set_probe(entropy.FlowPoint(b.name, **b.flow), rho,
                                  seed=args.seed or 11)
        write_json(os.path.join(out, "z_set_probe.json"),
                   {"classification": rep.classification, "rho": rep.rho,
                    "certificate": rep.certificate, "detail": rep.detail,
                    "witness": repr(rep.witness)},
                   cfg, "def-4.1")
        return EXIT_OK
    if probe == "fiber":
        xi, eta = b.ends  # a flat eta (None) is xi + pi, the backward end
        xi = type(xi)(cfg.get("xi", xi))
        eta = type(xi)(cfg.get("eta", xi + math.pi if eta is None else eta))
        count, detail = entropy.endpoint_fiber_probe(b.name, xi, eta)
        write_json(os.path.join(out, "fiber_probe.json"),
                   {"count": count, "detail": repr(detail)},
                   cfg, "def-2.14")
        return EXIT_OK
    n_grid = _parse_range(str(cfg.get("n", "1..6")))
    delta = float(cfg.get("delta", 0.5))
    est = entropy.estimate_htop(b.name, n_grid=n_grid, delta_grid=(delta,),
                                rank=b.rank)
    write_csv(os.path.join(out, "spanning.csv"),
              ("n", "delta", "lower", "upper", "method"),
              [(r.n, r.delta, r.lower, r.upper, r.method)
               for r in est.reports],
              cfg, "sec-4")
    write_json(os.path.join(out, "htop.json"),
               {"h_top": est.h, "h_vol_fit": est.fit_h, "gap": est.gap,
                "stable": est.stable,
                "slopes": {fmt(k): v for k, v in est.slopes.items()}},
               cfg, "sec-4 freire-mane")
    return EXIT_OK if est.stable else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# validate

def _fellow_traveling_gaps(ws, us):
    """For each w of ws and then each u of us, the largest tree distance
    between the vertices at equal depth of the rays from the root to w
    and to w.u.  The rays share their first l = lcp(w, w.u) vertices and
    then part, so the vertices at depth i <= min(|w|, |w.u|) are
    2 max(0, i - l) apart, farthest at the shorter ray's end."""
    for w in ws:
        for u in us:
            wu = words.mul(w, u)
            yield 2 * (min(len(w), len(wu)) - words.common_prefix_len(w, wu))


def _validate_records(args):
    records = []

    def rec(name, backend, measured, bound, ok):
        records.append({"inequality": name, "backend": backend,
                        "measured": fmt(measured), "bound": fmt(bound),
                        "pass": bool(ok)})

    # lemma 2.5 on the tree: rays to w and to w.u stay 3 rho apart
    rho = 2
    worst = max(_fellow_traveling_gaps(words.ball_words(5),
                                       list(words.ball_words(rho))))
    rec("lemma-2.5-fellow-traveling", "tree", worst, 3 * rho,
        worst <= 3 * rho)

    # lemma 2.5 on the plane: thin triangles against 4 delta-hat + 3 rho
    delta = (0.0 if args.corrupt_delta
             else geometry.estimate_delta(PLANE, 20000, 4.0, args.seed).delta)
    rho = 0.05
    rng = np.random.default_rng(args.seed + 1)
    pts = halfplane.random_points(rng, 3 * 2000, 4.0)
    measured = float(halfplane.triangle_thinness(
        pts[:2000], pts[2000:4000], pts[4000:]).max())
    bound = 4 * delta + 3 * rho
    rec("lemma-2.5-thin-triangles", "plane", measured, bound,
        measured <= bound)

    s = Backend.of(TREE).h + 0.2
    mu = measures.ps_measure(TREE, "", s, cap=8)
    _, tail = measures.poincare_series(TREE, s, cap=8)
    rec("eq-nu-weight-mass", "tree", float(mu.total_mass), 1.0,
        abs(float(mu.total_mass) - 1.0) <= tail)

    part = measures.tree_partition(3)
    worst = max(measures.conformal_check(TREE, p, q, part)
                for p in ("", "a") for q in ("b", "aB") if p != q)
    rec("prop-3.1b-conformal", "tree", worst, 0.0, worst == 0.0)

    ratios = [measures.shadow_mass_bounds(TREE, "", "a" * n, 0.5)[1]
              for n in range(2, 9)]
    spread = max(ratios) / min(ratios)
    rec("prop-3.3-shadow", "tree", spread, 2.0, spread <= 2.0)

    pm = measures.pair_measure(TREE, "", measures.tree_partition(2))
    d = measures.pair_invariance_check(pm, "a")
    rec("prop-3.4-invariance", "tree", d, 0.0, d == 0.0)

    cprimes = [measures.validate_D_mass("", "a" * n, 2.5, 0.5)[1]
               for n in range(3, 9)]
    spread = float(max(cprimes) / min(cprimes))
    rec("lemma-5.2-c-prime", "tree", spread, 2.0, spread <= 2.0)

    cards = [measures.validate_separated_bound("a" * 30, n, 1.0, 4.5, 1.0)[0]
             for n in range(5, 9)]
    spread = max(cards) / min(cards)
    rec("lemma-5.3-separated", "tree", spread, 2.0, spread <= 2.0)
    return records


def cmd_validate(args):
    cfg = effective_config(args, ())
    records = _validate_records(args)
    payload = {"records": records,
               "all_pass": all(r["pass"] for r in records)}
    write_json(os.path.join(args.out, "validate.json"), payload, cfg,
               "validation-suite")
    for r in records:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"{status} {r['inequality']} [{r['backend']}] "
              f"measured={r['measured']} bound={r['bound']}")
    return EXIT_OK if payload["all_pass"] else EXIT_VIOLATION


# ---------------------------------------------------------------------------

def build_parser():
    names = sorted(Backend.of(n).cli for n in (TREE, PLANE, FLAT))
    ap = argparse.ArgumentParser(
        prog="hyplab",
        description="geodesic counting, Patterson-Sullivan measures and "
                    "entropy probes on tree / modular / flat backends")
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", default=".", help="output directory")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("count", help="orbit and geodesic censuses")
    p.add_argument("--backend", choices=names)
    p.add_argument("--rank", type=int)
    p.add_argument("--Rmax", type=float)
    p.add_argument("--T", type=float)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("measure", help="Patterson-Sullivan pipeline")
    p.add_argument("--backend", choices=names)
    p.add_argument("--cells")
    p.add_argument("--check")
    p.add_argument("--s", type=float)
    p.add_argument("--cap", type=float)
    p.add_argument("--gamma")
    p.add_argument("--T", type=float)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("entropy", help="spanning counts and probes")
    p.add_argument("--backend", choices=names)
    p.add_argument("--n")
    p.add_argument("--delta", type=float)
    p.add_argument("--rank", type=int)
    p.add_argument("--probe", choices=("z-set", "fiber"))
    p.add_argument("--rho", type=float)
    p.add_argument("--xi")
    p.add_argument("--eta")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("validate", help="run the inequality suite")
    p.add_argument("--corrupt-delta", action="store_true",
                   help="test hook: force delta-hat = 0 in Lemma 2.5")
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; fold that into the usage code
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if not getattr(args, "func", None):
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.func(args)
    except (ValueError, geometry.BackendMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Time the tree conformal and pair-measure kernels in two checkouts.

    python3 scripts/bench_tree_kernels.py PARENT CHANGE [--rounds 10]
                                          [--out BENCH_tree_kernels.json]

PARENT and CHANGE are directories holding a checkout of the repository
(for example `git archive` copies); the rounds are run by `abbench`.
Each figure is the median over the rounds:

- `kernel`: tree `measures.pair_measure` at the root on the partitions
  of depth 4, 5 and 6 (the median of three calls per process at depths
  4 and 5, one call at depth 6), with the sha256 of its exact weights
  and excluded pairs;
- `stages`: the `tree_conformal` and `tree_pair_invariance` stages of
  the benchmark's `exact_census` workload at seeds 1 and 7919 (the
  median of five runs per process), with the digests of their payloads;
- `traced`: the tree conformal, Busemann, visual-measure and pair
  layers from `perfbench/run.py --workload exact_census --trace 1` at
  both seeds, and `wall_s` from `--trace 0` at both seeds (one value
  per round, with each side's quartiles and the share of rounds the
  change won).

The result is written as JSON under the key `tree_kernels`.
"""

import hashlib
import json
import statistics
import time
from fractions import Fraction

import abbench

SEEDS = (1, 7919)
STAGES = ("tree_conformal", "tree_pair_invariance")
DEPTHS = {4: 3, 5: 3, 6: 1}  # partition depth: calls per process
STAGE_RUNS = 5
LAYERS = ("measures.conformal_check.tree.s",
          "measures.conformal_check.tree.self_s",
          "words.tree_busemann.calls", "words.visual_measure.calls",
          "measures.pair_measure.s",
          "measures.pair_invariance_check.tree.s",
          "measures.pair_invariance_check.tree.self_s")


def weights_digest(pm):
    """sha256 of a tree pair measure's kept pairs with their exact
    weights, then its excluded pairs, in cell-pair order.  Reads the
    index arrays, and the dict and frozenset of the versions before
    them."""
    if isinstance(pm.weights, dict):
        kept, band = pm.weights.items(), sorted(pm.excluded)
    else:
        keep, out = ~pm.excluded, pm.excluded
        kept = zip(zip(pm.i[keep].tolist(), pm.j[keep].tolist()),
                   (Fraction(w, pm.denominator)
                    for w in pm.weights[keep].tolist()))
        band = zip(pm.i[out].tolist(), pm.j[out].tolist())
    h = hashlib.sha256()
    for (i, j), w in kept:
        h.update(f"{i},{j},{w};".encode())
    h.update(b"excluded")
    for i, j in band:
        h.update(f"{i},{j};".encode())
    return h.hexdigest()[:16]


def worker(checkout):
    """Kernel and stage times in this process, as one JSON line."""
    abbench.use_checkout(checkout)
    from hyplab import measures
    from hyplab.geometry import TREE

    out = {"stages": {}, "kernel": {}}
    for seed in SEEDS:
        runs = [abbench.time_stages("exact_census", seed, STAGES)[1]
                for _ in range(STAGE_RUNS)]
        for name in STAGES:
            out["stages"][f"{name}.seed{seed}"] = [
                statistics.median(r[name][0] for r in runs), runs[0][name][1]]
    for depth, calls in DEPTHS.items():
        part = measures.tree_partition(depth)
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            pm = measures.pair_measure(TREE, "", part)
            times.append(time.perf_counter() - t0)
        out["kernel"][f"pair_measure.depth{depth}"] = [
            statistics.median(times), weights_digest(pm)]
    print(json.dumps(out))


def one_round(checkout):
    rec = abbench.worker_record(__file__, checkout)
    for seed in SEEDS:
        traced = abbench.bench_metrics(checkout, "exact_census", seed, 1)
        for layer in LAYERS:
            rec[f"{layer}.seed{seed}"] = traced[layer]["value"]
        rec[f"wall_s.seed{seed}"] = abbench.bench_metrics(
            checkout, "exact_census", seed, 0)["wall_s"]["value"]
    return rec


def summarise(recs):
    med = statistics.median
    return {
        "kernel": {k: {"s": med(r["kernel"][k][0] for r in recs),
                       "weights_sha256": v[1]}
                   for k, v in recs[0]["kernel"].items()},
        "stages": abbench.medians(recs, "stages"),
        "traced": {f"{layer}.seed{seed}": med(
            r[f"{layer}.seed{seed}"] for r in recs)
            for layer in LAYERS for seed in SEEDS},
        "exact_census.wall_s": {f"seed{seed}": abbench.runs(
            recs, f"wall_s.seed{seed}") for seed in SEEDS},
    }


def identical(p, c):
    return {
        "pair_weights": all(p["kernel"][k]["weights_sha256"]
                            == c["kernel"][k]["weights_sha256"]
                            for k in p["kernel"]),
        "stage_digests": all(p["stages"][k]["digest"]
                             == c["stages"][k]["digest"]
                             for k in p["stages"]),
    }


if __name__ == "__main__":
    abbench.main("tree_kernels", "BENCH_tree_kernels.json", worker,
                 one_round, summarise, identical,
                 won={f"seed{seed}": f"wall_s.seed{seed}" for seed in SEEDS},
                 note="medians except exact_census.wall_s, one value per "
                      "round")

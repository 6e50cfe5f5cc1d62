"""Time the slim-triangle kernel and its callers in two checkouts.

    python3 scripts/bench_slim.py PARENT CHANGE [--rounds 10]
                                  [--out BENCH_slim_crossing.json]

PARENT and CHANGE are directories holding a checkout of the repository
(for example `git archive` copies).  Every measurement runs in a fresh
process with that checkout's `src` first on the import path.  Each round
runs both checkouts, the parent first in even rounds and the change
first in odd ones, and each figure is the median over the rounds:

- `kernel`: `halfplane.triangle_thinness` alone over the 100k radius-4
  triangles, in MC_BATCH batches, of the `delta_mc` stage of the
  benchmark's `flow_mc` workload at seeds 1 and 7919 (the median of
  three passes per process), with the sha256 of the per-triangle
  defects;
- `stages`: the `delta_mc` and `cli_validate` stages of `flow_mc` at
  both seeds, with the digests of their payloads;
- `traced`: `halfplane.estimate_delta_mc.s` and `cli.main.s` from
  `perfbench/run.py --workload flow_mc --trace 1` at both seeds, and
  `wall_s` from `--trace 0` at both seeds (one value per round, with
  each side's quartiles and the share of rounds the change won).

The result is written as JSON under the key `bisector_crossing`.
"""

import hashlib
import json
import statistics
import time

import abbench

SEEDS = (1, 7919)
STAGES = ("delta_mc", "cli_validate")
LAYERS = ("halfplane.estimate_delta_mc.s", "cli.main.s")


def worker(checkout):
    """Kernel and stage times in this process, as one JSON line."""
    abbench.use_checkout(checkout)
    import numpy as np
    from hyplab import halfplane as hp

    out = {"stages": {}, "kernel": {}}
    for seed in SEEDS:
        inputs, stages = abbench.time_stages("flow_mc", seed, STAGES)
        for name, rec in stages.items():
            out["stages"][f"{name}.seed{seed}"] = rec
        # the triangles estimate_delta_mc draws for the delta_mc stage
        rng = np.random.default_rng(inputs["mc_seed"])
        batches, left = [], inputs["triangles"]
        while left > 0:
            m = min(hp.MC_BATCH, left)
            batches.append(hp.random_points(rng, 3 * m, inputs["radius"])
                           .reshape(3, m))
            left -= m
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            defects = [hp.triangle_thinness(a, b, c) for a, b, c in batches]
            times.append(time.perf_counter() - t0)
        digest = hashlib.sha256(np.concatenate(defects).tobytes())
        out["kernel"][f"r4.seed{seed}"] = [statistics.median(times),
                                           digest.hexdigest()[:16]]
    print(json.dumps(out))


def one_round(checkout):
    # the cli_validate stage prints its records before the JSON line
    rec = abbench.worker_record(__file__, checkout)
    for seed in SEEDS:
        traced = abbench.bench_metrics(checkout, "flow_mc", seed, 1)
        for layer in LAYERS:
            rec[f"{layer}.seed{seed}"] = traced[layer]["value"]
        rec[f"wall_s.seed{seed}"] = abbench.bench_metrics(
            checkout, "flow_mc", seed, 0)["wall_s"]["value"]
    return rec


def summarise(recs):
    med = statistics.median
    return {
        "kernel": {k: {"s": med(r["kernel"][k][0] for r in recs),
                       "defects_sha256": v[1]}
                   for k, v in recs[0]["kernel"].items()},
        "stages": abbench.medians(recs, "stages"),
        "traced": {f"{layer}.seed{seed}": med(
            r[f"{layer}.seed{seed}"] for r in recs)
            for layer in LAYERS for seed in SEEDS},
        "flow_mc.wall_s": {f"seed{seed}": abbench.runs(
            recs, f"wall_s.seed{seed}") for seed in SEEDS},
    }


def identical(p, c):
    return {
        "kernel_defects": all(p["kernel"][k]["defects_sha256"]
                              == c["kernel"][k]["defects_sha256"]
                              for k in p["kernel"]),
        "stage_digests": all(p["stages"][k]["digest"]
                             == c["stages"][k]["digest"]
                             for k in p["stages"]),
    }


if __name__ == "__main__":
    abbench.main("bisector_crossing", "BENCH_slim_crossing.json", worker,
                 one_round, summarise, identical,
                 won={f"seed{seed}": f"wall_s.seed{seed}" for seed in SEEDS},
                 note="medians except flow_mc.wall_s, one value per round")

"""Time the closed-geodesic equidistribution test in two checkouts.

    python3 scripts/bench_equidist.py PARENT CHANGE [--rounds 10]
                                      [--out BENCH_equidist.json]

PARENT and CHANGE are directories holding a checkout of the repository
(for example `git archive` copies); the rounds are run by `abbench`.
Each figure is the median over the rounds:

- `kernel`: `measures.equidistribution_test(census, T)` at T = 10, 12
  and 13 on the census `counting.geodesic_census(PLANE, T)`, built
  outside the timed calls (the median of KERNEL_CALLS calls per
  process), with the cell masses mu of the first round;
- `stages`: the `plane_equidist` stage of the benchmark's `flow_mc`
  workload at seeds 1 and 7919 (one run per process), with the digests
  of their payloads;
- `traced`: LAYERS from `perfbench/run.py --workload flow_mc --trace 1`
  at seed 1; and `wall_s`, `setup_s` and `peak_rss_mb` of `flow_mc
  --trace 0` at seeds 1 and 7919 (one value per round, with each side's
  quartiles and the share of rounds the change won on `wall_s`).

`mu_max_abs_diff` gives, per T, the largest per-cell difference between
the two sides' mu.  The result is written as JSON under the key
`equidist`.
"""

import json
import statistics
import time

import abbench

SEEDS = (1, 7919)
KERNEL_CALLS = {10: 5, 12: 3, 13: 1}
LAYERS = ("modular.fold_points.s", "modular.fold_points.points",
          "measures.equidistribution_test.self_s")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def worker(checkout):
    """Kernel and stage times in this process, as one JSON line."""
    abbench.use_checkout(checkout)
    from hyplab import counting, measures
    from hyplab.geometry import PLANE

    out = {"kernel": {}, "stages": {}}
    for T, calls in KERNEL_CALLS.items():
        census = counting.geodesic_census(PLANE, T)
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            mu, _, _ = measures.equidistribution_test(census, T)
            times.append(time.perf_counter() - t0)
        out["kernel"][f"T{T}"] = [statistics.median(times), mu.tolist()]
    for seed in SEEDS:
        _, stages = abbench.time_stages("flow_mc", seed, ("plane_equidist",))
        out["stages"][f"plane_equidist.seed{seed}"] = stages["plane_equidist"]
    print(json.dumps(out))


def one_round(checkout):
    # the flow_mc stages print before the JSON line
    rec = abbench.worker_record(__file__, checkout)
    traced = abbench.bench_metrics(checkout, "flow_mc", 1, 1)
    for layer in LAYERS:
        rec[layer] = traced[layer]["value"]
    for seed in SEEDS:
        metrics = abbench.bench_metrics(checkout, "flow_mc", seed, 0)
        for name in END_TO_END:
            rec[f"{name}.seed{seed}"] = metrics[name]["value"]
    return rec


def summarise(recs):
    med = statistics.median
    return {
        "kernel": {k: {"s": med(r["kernel"][k][0] for r in recs),
                       "mu": v[1]}
                   for k, v in recs[0]["kernel"].items()},
        "stages": abbench.medians(recs, "stages"),
        "traced": {layer: med(r[layer] for r in recs) for layer in LAYERS},
        **{f"flow_mc.{name}": {f"seed{seed}": abbench.runs(
            recs, f"{name}.seed{seed}") for seed in SEEDS}
           for name in END_TO_END},
    }


def identical(p, c):
    return {
        "stage_digests": all(p["stages"][k]["digest"]
                             == c["stages"][k]["digest"]
                             for k in p["stages"]),
        "mu_max_abs_diff": {k: max(abs(a - b) for a, b in zip(
            p["kernel"][k]["mu"], c["kernel"][k]["mu"]))
            for k in p["kernel"]},
    }


if __name__ == "__main__":
    abbench.main("equidist", "BENCH_equidist.json", worker, one_round,
                 summarise, identical,
                 won={f"seed{seed}": f"wall_s.seed{seed}" for seed in SEEDS},
                 note="medians except the flow_mc end-to-end metrics, one "
                      "value per round")

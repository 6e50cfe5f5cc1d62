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

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SEEDS = (1, 7919)
STAGES = ("delta_mc", "cli_validate")
LAYERS = ("halfplane.estimate_delta_mc.s", "cli.main.s")


def worker(checkout):
    """Kernel and stage times in this process, as one JSON line."""
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "perfbench")]
    import numpy as np
    from hyplab import halfplane as hp
    import oracles
    import workloads

    out = {"stages": {}, "kernel": {}}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as scratch:
            inputs, stages = workloads.build("flow_mc", seed, scratch)
            for stage in stages:
                if stage.name in STAGES:
                    t0 = time.perf_counter()
                    res = stage.run()
                    s = time.perf_counter() - t0
                    payload = stage.check(res)[2]
                    out["stages"][f"{stage.name}.seed{seed}"] = [
                        s, oracles.digest(payload)]
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


def run_py(checkout, args):
    proc = subprocess.run([sys.executable, *args], cwd=checkout, check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(
                              checkout, "src")))
    return proc.stdout


def bench_metrics(checkout, seed, trace):
    out = run_py(checkout, ["perfbench/run.py", "--workload", "flow_mc",
                            "--seed", str(seed), "--seconds", "8",
                            "--trace", str(trace)])
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def one_round(checkout):
    # the cli_validate stage prints its records before the JSON line
    rec = json.loads(run_py(checkout, [os.path.abspath(__file__), "--worker",
                                       checkout]).splitlines()[-1])
    for seed in SEEDS:
        traced = bench_metrics(checkout, seed, 1)
        for layer in LAYERS:
            rec[f"{layer}.seed{seed}"] = traced[layer]["value"]
        rec[f"wall_s.seed{seed}"] = bench_metrics(
            checkout, seed, 0)["wall_s"]["value"]
    return rec


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def summarise(recs):
    med = statistics.median
    first = recs[0]
    return {
        "kernel": {k: {"s": med(r["kernel"][k][0] for r in recs),
                       "defects_sha256": v[1]}
                   for k, v in first["kernel"].items()},
        "stages": {k: {"s": med(r["stages"][k][0] for r in recs),
                       "digest": v[1]}
                   for k, v in first["stages"].items()},
        "traced": {f"{layer}.seed{seed}": med(
            r[f"{layer}.seed{seed}"] for r in recs)
            for layer in LAYERS for seed in SEEDS},
        "flow_mc.wall_s": {
            f"seed{seed}": {"runs": [r[f"wall_s.seed{seed}"] for r in recs],
                            **quartiles([r[f"wall_s.seed{seed}"]
                                         for r in recs])}
            for seed in SEEDS},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", default="BENCH_slim_crossing.json")
    ap.add_argument("--worker")
    args = ap.parse_args()
    if args.worker:
        return worker(args.worker)
    recs = {"parent": [], "change": []}
    for k in range(args.rounds):
        for side in sorted(recs, reverse=not k % 2):
            recs[side].append(one_round(os.path.abspath(getattr(args, side))))
    result = {side: summarise(r) for side, r in recs.items()}
    p, c = result["parent"], result["change"]
    result["identical"] = {
        "kernel_defects": all(p["kernel"][k]["defects_sha256"]
                              == c["kernel"][k]["defects_sha256"]
                              for k in p["kernel"]),
        "stage_digests": all(p["stages"][k]["digest"]
                             == c["stages"][k]["digest"]
                             for k in p["stages"]),
    }
    result["wall_s_pairs_won"] = {
        f"seed{seed}": sum(
            rc[f"wall_s.seed{seed}"] < rp[f"wall_s.seed{seed}"]
            for rp, rc in zip(recs["parent"], recs["change"])) / args.rounds
        for seed in SEEDS}
    result["what"] = (
        f"{args.rounds} rounds, alternating which side runs first; medians "
        "except flow_mc.wall_s, one value per round; "
        f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    with open(args.out, "w") as f:
        json.dump({"bisector_crossing": result}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps({**result["identical"],
                      "wall_s_pairs_won": result["wall_s_pairs_won"]}))


if __name__ == "__main__":
    main()

"""Time the spanning-count kernel and its callers in two checkouts.

    python3 scripts/bench_spanning.py PARENT CHANGE [--rounds 10]
                                      [--out BENCH_spanning.json]

PARENT and CHANGE are directories holding a checkout of the repository
(for example `git archive` copies).  Every measurement runs in a fresh
process with that checkout's `src` first on the import path.  Each round
runs both checkouts, the parent first in even rounds and the change
first in odd ones, and each figure is the median over the rounds:

- `kernel`: `entropy.spanning_counts` alone on four fixed samples (the
  median of three calls per process), with the reports it returns;
- `stages`: the `plane_htop` and `flat_htop` stages of the benchmark's
  `flow_mc` workload at seed 1, with the digests of their payloads;
- `traced`: `entropy.estimate_htop.self_s` from `perfbench/run.py
  --workload flow_mc --trace 1` at seeds 1 and 7919, and `wall_s` from
  `--trace 0` at seed 1 (one value per round);
- `cli`: the wall time of `hyplab entropy --backend flat`, process
  start included, with the sha256 of the files it writes.

The result is written as JSON under the key `one_joint_pass`.
"""

import hashlib
import json
import os
import statistics
import tempfile
import time

import abbench

SAMPLES = {
    # name: (sample from the entropy module, n grid, delta)
    "flat_120x4_d0.5": (lambda e: e.flat_flow_sample(n_dirs=120),
                        list(range(12, 41, 4)), 0.5),
    "flat_120x4_d0.2": (lambda e: e.flat_flow_sample(n_dirs=120),
                        list(range(12, 41, 4)), 0.2),
    "plane_48x8_d0.5": (lambda e: e.plane_flow_sample(n_dirs=48, n_pos=8),
                        list(range(1, 6)), 0.5),
    "tree_depth6_d1.5": (lambda e: e.tree_flow_sample(6),
                         list(range(1, 7)), 1.5),
}
STAGES = ("plane_htop", "flat_htop")
CLI = ["entropy", "--backend", "flat"]


def worker(checkout):
    """Stage and kernel times in this process, as one JSON line."""
    abbench.use_checkout(checkout)
    from hyplab import entropy

    out = {"stages": abbench.time_stages("flow_mc", 1, STAGES)[1],
           "kernel": {}}
    for name, (make, grid, delta) in SAMPLES.items():
        sample = make(entropy)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reports = entropy.spanning_counts(sample, grid, delta)
            times.append(time.perf_counter() - t0)
        out["kernel"][name] = [statistics.median(times),
                               [[r.n, r.lower, r.upper] for r in reports]]
    print(json.dumps(out))


def cli_run(checkout):
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        abbench.run_py(checkout, ["-m", "hyplab.cli", "--out", out, *CLI])
        wall = time.perf_counter() - t0
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                files[name] = hashlib.sha256(f.read()).hexdigest()[:16]
    return wall, files


def one_round(checkout):
    rec = abbench.worker_record(__file__, checkout)
    for seed in (1, 7919):
        rec[f"htop_self_s_seed{seed}"] = abbench.bench_metrics(
            checkout, "flow_mc", seed,
            1)["entropy.estimate_htop.self_s"]["value"]
    rec["flow_mc_wall_s"] = abbench.bench_metrics(
        checkout, "flow_mc", 1, 0)["wall_s"]["value"]
    rec["cli"] = cli_run(checkout)
    return rec


def summarise(recs):
    med = statistics.median
    first = recs[0]
    return {
        "kernel": {name: {"s": med(r["kernel"][name][0] for r in recs),
                          "reports": first["kernel"][name][1]}
                   for name in SAMPLES},
        "stages": abbench.medians(recs, "stages"),
        "traced": {**{f"entropy.estimate_htop.self_s.seed{seed}": med(
            r[f"htop_self_s_seed{seed}"] for r in recs)
            for seed in (1, 7919)},
            "flow_mc.wall_s.seed1": [r["flow_mc_wall_s"] for r in recs]},
        "cli": {"command": "hyplab --out DIR " + " ".join(CLI),
                "wall_s": med(r["cli"][0] for r in recs),
                "outputs": first["cli"][1]},
    }


def identical(p, c):
    return {
        "kernel_reports": all(p["kernel"][k]["reports"]
                              == c["kernel"][k]["reports"] for k in SAMPLES),
        "stage_digests": all(p["stages"][k]["digest"]
                             == c["stages"][k]["digest"] for k in STAGES),
        "cli_outputs": p["cli"]["outputs"] == c["cli"]["outputs"],
    }


if __name__ == "__main__":
    abbench.main("one_joint_pass", "BENCH_spanning.json", worker, one_round,
                 summarise, identical,
                 note="medians except flow_mc.wall_s.seed1, one value per "
                      "round")

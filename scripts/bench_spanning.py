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

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

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
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "perfbench")]
    from hyplab import entropy
    import oracles
    import workloads

    out = {"stages": {}, "kernel": {}}
    with tempfile.TemporaryDirectory() as scratch:
        _, stages = workloads.build("flow_mc", 1, scratch)
        for stage in stages:
            if stage.name in STAGES:
                t0 = time.perf_counter()
                res = stage.run()
                s = time.perf_counter() - t0
                payload = stage.check(res)[2]
                out["stages"][stage.name] = [s, oracles.digest(payload)]
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


def cli_run(checkout):
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        run_py(checkout, ["-m", "hyplab.cli", "--out", out, *CLI])
        wall = time.perf_counter() - t0
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                files[name] = hashlib.sha256(f.read()).hexdigest()[:16]
    return wall, files


def one_round(checkout):
    rec = json.loads(run_py(checkout, [os.path.abspath(__file__),
                                       "--worker", checkout]))
    for seed in (1, 7919):
        rec[f"htop_self_s_seed{seed}"] = bench_metrics(
            checkout, seed, 1)["entropy.estimate_htop.self_s"]["value"]
    rec["flow_mc_wall_s"] = bench_metrics(checkout, 1, 0)["wall_s"]["value"]
    rec["cli"] = cli_run(checkout)
    return rec


def summarise(recs):
    med = statistics.median
    first = recs[0]
    return {
        "kernel": {name: {"s": med(r["kernel"][name][0] for r in recs),
                          "reports": first["kernel"][name][1]}
                   for name in SAMPLES},
        "stages": {name: {"s": med(r["stages"][name][0] for r in recs),
                          "digest": first["stages"][name][1]}
                   for name in STAGES},
        "traced": {**{f"entropy.estimate_htop.self_s.seed{seed}": med(
            r[f"htop_self_s_seed{seed}"] for r in recs)
            for seed in (1, 7919)},
            "flow_mc.wall_s.seed1": [r["flow_mc_wall_s"] for r in recs]},
        "cli": {"command": "hyplab --out DIR " + " ".join(CLI),
                "wall_s": med(r["cli"][0] for r in recs),
                "outputs": first["cli"][1]},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", default="BENCH_spanning.json")
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
        "kernel_reports": all(p["kernel"][k]["reports"]
                              == c["kernel"][k]["reports"] for k in SAMPLES),
        "stage_digests": all(p["stages"][k]["digest"]
                             == c["stages"][k]["digest"] for k in STAGES),
        "cli_outputs": p["cli"]["outputs"] == c["cli"]["outputs"],
    }
    result["what"] = (
        f"{args.rounds} rounds, alternating which side runs first; medians "
        "except flow_mc.wall_s.seed1, one value per round; "
        f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    with open(args.out, "w") as f:
        json.dump({"one_joint_pass": result}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(result["identical"]))


if __name__ == "__main__":
    main()

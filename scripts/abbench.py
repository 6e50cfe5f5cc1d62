"""The A/B harness shared by the bench_*.py scripts.

Each script compares two checkouts of the repository, PARENT and CHANGE
(for example `git archive` copies).  Every measurement runs in a fresh
process with that checkout's `src` first on the import path: the
script's own `--worker CHECKOUT` mode for in-process kernel and stage
times, and `perfbench/run.py` for the benchmark's metrics.  Each round
runs both checkouts, the parent first in even rounds and the change
first in odd ones.  `main` runs the rounds, summarises each side and
writes the result as JSON under the script's key.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time


def use_checkout(checkout):
    """Put a checkout's library and benchmark first on the import path
    (in a worker process)."""
    sys.path[:0] = [os.path.join(checkout, "src"),
                    os.path.join(checkout, "perfbench")]


def time_stages(workload, seed, names):
    """(inputs, {name: [seconds, payload digest]}) of the named stages of
    one benchmark workload, each run once in this process."""
    import oracles
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        inputs, stages = workloads.build(workload, seed, scratch)
        for stage in stages:
            if stage.name in names:
                t0 = time.perf_counter()
                res = stage.run()
                s = time.perf_counter() - t0
                out[stage.name] = [s, oracles.digest(stage.check(res)[2])]
    return inputs, out


def run_py(checkout, args):
    """Standard output of `python ARGS` run in the checkout."""
    proc = subprocess.run([sys.executable, *args], cwd=checkout, check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(
                              checkout, "src")))
    return proc.stdout


def worker_record(script, checkout):
    """The JSON record a script's `--worker` mode prints last."""
    out = run_py(checkout, [os.path.abspath(script), "--worker", checkout])
    return json.loads(out.splitlines()[-1])


def bench_metrics(checkout, workload, seed, trace, seconds=8):
    """The metrics of one `perfbench/run.py` measurement."""
    out = run_py(checkout, ["perfbench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(trace)])
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def runs(recs, key):
    """One value per round, with its quartiles."""
    values = [r[key] for r in recs]
    return {"runs": values, **quartiles(values)}


def medians(recs, section):
    """{name: {"s": median seconds, "digest": first round's digest}} of a
    section of [seconds, digest] pairs."""
    return {k: {"s": statistics.median(r[section][k][0] for r in recs),
                "digest": v[1]}
            for k, v in recs[0][section].items()}


def main(key, default_out, worker, one_round, summarise, identical,
         won=None, note="medians"):
    """Run the rounds and write {key: result}.

    worker(checkout) is the `--worker` mode, one_round(checkout) gives
    one round's record of a side, summarise(records) a side's summary
    and identical(parent, change) the dict of output comparisons.  won
    maps names to record keys whose per-round values are compared pair
    by pair: their share of rounds the change won is reported under
    "wall_s_pairs_won"."""
    ap = argparse.ArgumentParser()
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", default=default_out)
    ap.add_argument("--worker")
    args = ap.parse_args()
    if args.worker:
        return worker(args.worker)
    recs = {"parent": [], "change": []}
    for k in range(args.rounds):
        for side in sorted(recs, reverse=not k % 2):
            recs[side].append(one_round(os.path.abspath(getattr(args, side))))
    result = {side: summarise(r) for side, r in recs.items()}
    result["identical"] = identical(result["parent"], result["change"])
    shown = dict(result["identical"])
    if won:
        result["wall_s_pairs_won"] = shown["wall_s_pairs_won"] = {
            name: sum(rc[k] < rp[k] for rp, rc in zip(recs["parent"],
                                                      recs["change"]))
            / args.rounds for name, k in won.items()}
    result["what"] = (
        f"{args.rounds} rounds, alternating which side runs first; {note}; "
        f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    with open(args.out, "w") as f:
        json.dump({key: result}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(shown))

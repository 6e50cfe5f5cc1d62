"""hyplab benchmark: end-to-end and per-layer costs of three workloads.

  python3 perfbench/run.py --workload exact_census|modular_ps|flow_mc|all
                           [--seed N] [--seconds S] [--trace 0|1]

Every run of a workload is a fresh single-threaded process (child.py),
because the library keeps its orbit atoms in a process-wide cache that a
command-line user rebuilds on every invocation.  Runs are a closed loop,
one after another: rounds of a few import-only processes (for the set-up
time) and one workload process repeat while the next round would still
end within about --seconds, and at least twice without tracing.

--trace 0 prints the end-to-end metrics: wall_s (all stages, import
excluded), setup_s (process start until numpy and hyplab are imported),
peak_rss_mb and the stage pass fraction, all as medians over the runs.
wall_s and setup_s are given at the reference speed: each process's
times are multiplied by REF_CAL_S over the time a fixed calibration loop
(child.calibrate) takes in that process, so that a shared host that
slows all code for minutes at a time moves them little.  The table also
prints the times as measured (wall_raw_s, setup_raw_s).
--trace 1 alternates untraced and traced runs and prints the per-layer
metrics of the traced ones, with the tracing overhead.

Each stage's output is checked against an oracle outside the timed
region, and its digest must agree across the runs of one seed.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (environment, inputs,
stage digests) goes to .bench_out/ at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("exact_census", "modular_ps", "flow_mc")
SETUP_PROBES = 4  # import-only processes before each workload run
MIN_RUNS = (2, 1)  # plain runs per measurement, without / with tracing
SLACK = 1.1  # start another round only if it ends within SLACK * seconds
RUN_LIMIT_S = 165.0  # nor if it would end after this
# child.calibrate()'s time at the reference speed; it takes 0.07-0.11 s on
# the 2-vCPU Xeon virtual machine of the README's baseline
REF_CAL_S = 0.1

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("stage_pass_frac", "fraction")]

PER_LAYER = [
    "modular.modular_ball.s", "modular.modular_ball.calls",
    "modular.modular_ball.elements", "modular.modular_ball.yield",
    "halfplane.dist.calls",
    "modular.enumerate_conj_classes.s",
    "modular.enumerate_conj_classes.classes",
    "modular.mat_mul.calls",
    "words.necklaces.s", "words.necklaces.words",
    "words.canonical_rotation.calls", "words.necklaces.yield",
    "words.visual_measure.s", "words.visual_measure.calls",
    "words.tree_busemann.s", "words.tree_busemann.calls",
    "measures.conformal_check.tree.s", "measures.conformal_check.tree.self_s",
    "measures.pair_invariance_check.tree.s",
    "measures.pair_invariance_check.tree.self_s",
    "measures.BoundaryPartition.locate_angle.calls",
    "measures.ps_measure.s", "measures.ps_measure.atoms",
    "measures.conformal_check.plane.s",
    "measures.conformal_check.plane.self_s",
    "measures.shadow_mass_bounds.s", "measures.limit_cell_masses.s",
    "measures.pair_measure.s",
    "measures.pair_invariance_check.plane.s",
    "measures.pair_invariance_check.plane.self_s",
    "measures.zero_mass_cells",
    "halfplane.estimate_delta_mc.s",
    "halfplane.estimate_delta_mc.triangles_per_s",
    "geometry.estimate_delta.self_s",
    "entropy.spanning_count.s", "entropy.spanning_count.calls",
    "entropy.estimate_htop.self_s",
    "modular.fold_points.s", "modular.fold_points.points",
    "measures.equidistribution_test.self_s",
    "cli.main.s", "cli.bytes_written",
    "counting.orbit_count.s", "counting.geodesic_census.s",
    "counting.geodesic_census.classes",
    "bench.trace_overhead_s",
]

# ratios measured where the work happens: (numerator, denominator)
DERIVED = {
    "modular.modular_ball.yield": ("modular.modular_ball.elements",
                                   "halfplane.dist.inside"),
    "words.necklaces.yield": ("words.necklaces.words",
                              "words.canonical_rotation.inside"),
    "halfplane.estimate_delta_mc.triangles_per_s": (
        "halfplane.estimate_delta_mc.triangles",
        "halfplane.estimate_delta_mc.s"),
}

SIZES = (".elements", ".classes", ".words", ".atoms", ".points")


def unit_of(name):
    """(unit, better) of a per-layer metric, from its quantity."""
    if name.endswith("per_s"):
        return "1/s", "higher"
    if name.endswith("_s") or name.endswith(".s"):
        return "s", "lower"
    if name.endswith(".yield"):
        return "ratio", "higher"
    if name.endswith("bytes_written"):
        return "B", "lower"
    if name.endswith(SIZES):
        return "count", "higher"
    return "count", "lower"


def is_count(name):
    return unit_of(name)[0] == "count"


# ---------------------------------------------------------------------------
# child processes

class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["HYPLAB_SRC"] = SRC
    return env


def spawn(work_dir, deadline, workload=None, seed=None, trace_out=None):
    """Run child.py once and return its result record."""
    result = os.path.join(work_dir, "result.json")
    scratch = os.path.join(work_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"),
           "--result", result]
    if workload is not None:
        cmd += ["--workload", workload, "--seed", str(seed),
                "--scratch", scratch]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    timeout = max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not os.path.exists(result):
        raise ChildFailed(f"child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    with open(result) as f:
        rec = json.load(f)
    os.remove(result)
    shutil.rmtree(scratch)
    rec["elapsed_s"] = time.monotonic() - spawned_at
    return rec


def at_ref_speed(seconds, cal_s):
    """A time measured next to a calibration loop that took cal_s,
    rescaled to the speed at which the loop takes REF_CAL_S."""
    return seconds * REF_CAL_S / cal_s


def wall_of(run):
    """A workload process's stage time at the reference speed, from the
    median of its calibration loops (one before and one after each stage)."""
    return at_ref_speed(run["wall_s"], statistics.median(run["cal_s"]))


def setup_of(run):
    return at_ref_speed(run["setup_s"], run["setup_cal_s"])


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# one workload

def measure(workload, seed, seconds, trace):
    """Run the workload for `seconds` and return (summary, record)."""
    tag = f"{workload}-seed{seed}"
    work_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups, plain, traced = [], [], []
    while True:
        round_start = time.monotonic()
        setups += [spawn(work_dir, deadline) for _ in range(SETUP_PROBES)]
        plain.append(spawn(work_dir, deadline, workload, seed))
        if trace:
            spans = os.path.join(OUT, f"{tag}.spans.csv")
            traced.append(spawn(work_dir, deadline, workload, seed, spans))
        now = time.monotonic()
        next_end = now + (now - round_start)
        if next_end > deadline:
            break
        if (len(plain) >= MIN_RUNS[trace]
                and next_end - start > SLACK * seconds):
            break
    shutil.rmtree(work_dir)

    runs = plain + traced
    stages = [s for r in runs for s in r["stages"]]
    failed = sum(1 for s in stages if not s["ok"])
    problems = [f"{r_i}:{s['stage']}: {s.get('error') or s.get('detail')}"
                for r_i, r in enumerate(runs) for s in r["stages"]
                if not s["ok"]]
    for name in {s["stage"] for s in stages}:
        digests = {s.get("digest") for s in stages if s["stage"] == name}
        if len(digests) > 1:
            problems.append(f"{name}: digests differ across runs {digests}")
    setups += runs
    summary = {
        "wall_s": statistics.median(wall_of(r) for r in plain),
        "setup_s": statistics.median(setup_of(r) for r in setups),
        "wall_raw_s": statistics.median(r["wall_s"] for r in plain),
        "setup_raw_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "stage_pass_frac": (len(stages) - failed) / len(stages),
        "stage_fail_frac": failed / len(stages),
    }
    if trace:
        layers, mismatch = per_layer(plain, traced)
        problems += mismatch
        summary["layers"] = layers
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": os.cpu_count(),
        "python": runs[0]["python"], "numpy": runs[0]["numpy"],
        "hyplab": runs[0]["hyplab"], "git": git_revision(),
        "inputs": runs[0]["inputs"], "ref_cal_s": REF_CAL_S,
        "setup_samples": [[r["setup_s"], r["setup_cal_s"]] for r in setups],
        "runs": [{k: r[k] for k in ("wall_s", "cal_s", "setup_s",
                                    "setup_cal_s", "peak_rss_mb",
                                    "stages", "outside")}
                 | ({"layers": r["layers"]} if "layers" in r else {})
                 for r in runs],
        "summary": summary, "problems": problems,
        "attempted": len(stages), "failed": failed,
    }
    with open(os.path.join(OUT, f"{tag}-trace{int(trace)}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return summary, record


def per_layer(plain, traced):
    """Medians of the traced runs' layer metrics; counts must repeat."""
    values, problems = {}, []
    for name in PER_LAYER:
        if name == "bench.trace_overhead_s":
            continue
        per_run = []
        for r in traced:
            layers = dict(r["layers"], **r["outside"])
            if name in DERIVED:
                num, den = (layers.get(k, 0) for k in DERIVED[name])
                per_run.append(num / den if den else 0.0)
            else:
                per_run.append(layers.get(name, 0))
        if is_count(name):
            if len(set(per_run)) > 1:
                problems.append(f"{name}: count differs across runs "
                                f"{per_run}")
            values[name] = int(per_run[0])
        else:
            values[name] = statistics.median(per_run)
    values["bench.trace_overhead_s"] = (
        statistics.median(wall_of(r) for r in traced)
        - statistics.median(wall_of(r) for r in plain))
    return values, problems


# ---------------------------------------------------------------------------
# report

def print_record(record):
    s = record["summary"]
    print(f"hyplab benchmark: workload={record['workload']} "
          f"seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print(f"env: nproc={record['nproc']} python={record['python']} "
          f"numpy={record['numpy']} hyplab={record['hyplab']} "
          f"git={record['git']}")
    print(f"inputs: {json.dumps(record['inputs'], default=str)}")
    for i, run in enumerate(record["runs"], 1):
        kind = "traced" if "layers" in run else "plain"
        ok = sum(st["ok"] for st in run["stages"])
        print(f"run {i} ({kind}): wall {wall_of(run):.3f} s "
              f"({run['wall_s']:.3f} s raw), setup {setup_of(run):.3f} s "
              f"({run['setup_s']:.3f} s raw), peak RSS "
              f"{run['peak_rss_mb']:.1f} MB, {ok}/{len(run['stages'])} "
              "stages ok")
        for st in run["stages"]:
            status = "ok  " if st["ok"] else "FAIL"
            print(f"  {st['stage']:<22} {st['s']:8.3f} s raw  {status} "
                  f"{st.get('digest', '-'):<16}  "
                  f"{st.get('error') or st.get('detail', '')}")
    for p in record["problems"]:
        print(f"problem: {p}")
    for name, unit in END_TO_END + [("stage_fail_frac", "fraction"),
                                    ("wall_raw_s", "s"), ("setup_raw_s", "s")]:
        print(f"{name:<48} {s[name]:>14.6g} {unit}")
    for name, value in s.get("layers", {}).items():
        print(f"{name:<48} {value:>14.6g} {unit_of(name)[0]}")


def metrics_of(summary, trace):
    if trace:
        return {n: {"value": v, "unit": unit_of(n)[0]}
                for n, v in summary["layers"].items()}
    return {n: {"value": summary[n], "unit": u} for n, u in END_TO_END}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyplab", "__init__.py")):
        print(f"error: no hyplab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            summary, record = measure(name, args.seed, args.seconds,
                                      args.trace)
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        print_record(record)
        attempted += record["attempted"]
        failed += record["failed"]
        correct = correct and not record["problems"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v
                        for k, v in metrics_of(summary, args.trace).items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

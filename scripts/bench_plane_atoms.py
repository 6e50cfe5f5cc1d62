"""Time the modular orbit ball and the plane checks on its atoms in two
checkouts.

    python3 scripts/bench_plane_atoms.py PARENT CHANGE [--rounds 10]
                                         [--out BENCH_plane_atoms.json]

PARENT and CHANGE are directories holding a checkout of the repository
(for example `git archive` copies, each run through `python3 -m
compileall` first, so that neither side recompiles its modules in every
process); the rounds are run by `abbench`.  Each figure is the median
over the rounds:

- `stage_rss_mb`: the peak RSS of a fresh process after each stage of
  the benchmark's `modular_ps` workload at seed 1, run before anything
  else in that process;
- `kernel`: `modular.modular_ball(2i, R)` at R = 10, 12 and 14 (the
  fastest of KERNEL_CALLS calls per process), with the sha256 of the
  element array;
- `stages`: every stage of the benchmark's three workloads at seeds 1
  and 7919 (one run per process), with the digests of their payloads;
- `traced`: the plane-atom layers from `perfbench/run.py --workload
  modular_ps --trace 1` at seed 1;
- `pair_command`: the wall time of `hyplab measure --backend modular
  --check shadow,pair-invariance` in its own process (import excluded),
  the process's peak RSS and the sha256 of every output file;
- `modular_ps`: `wall_s` and `peak_rss_mb` of `perfbench/run.py
  --workload modular_ps --trace 0` at both seeds (one value per round,
  with each side's quartiles and the share of rounds the change won).

The result is written as JSON under the key `plane_atoms`.
"""

import hashlib
import json
import resource
import statistics
import tempfile
import time

import abbench

SEEDS = (1, 7919)
BALL_R = (10.0, 12.0, 14.0)
KERNEL_CALLS = {10.0: 5, 12.0: 5, 14.0: 3}
WORKLOADS = {
    "modular_ps": ("ps_measure", "plane_conformal", "plane_shadow",
                   "plane_pair_invariance"),
    "exact_census": ("tree_orbit", "tree_census", "plane_orbit",
                     "plane_census", "tree_conformal",
                     "tree_pair_invariance"),
    "flow_mc": ("delta_mc", "plane_htop", "flat_htop", "plane_equidist",
                "cli_validate"),
}
LAYERS = ("modular.modular_ball.s",
          "measures.BoundaryPartition.locate_angle.calls",
          "measures.limit_cell_masses.s", "measures.shadow_mass_bounds.s",
          "measures.conformal_check.plane.s",
          "measures.pair_invariance_check.plane.s")

def worker(checkout):
    """Stage RSS, kernel and stage times in this process, as one JSON
    line."""
    abbench.use_checkout(checkout)
    import workloads

    out = {"stage_rss_mb": {}, "kernel": {}, "stages": {}}
    with tempfile.TemporaryDirectory() as scratch:
        _, stages = workloads.build("modular_ps", SEEDS[0], scratch)
        for stage in stages:
            stage.run()
            out["stage_rss_mb"][stage.name] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    from hyplab import modular

    for R in BALL_R:
        times = []
        for _ in range(KERNEL_CALLS[R]):
            t0 = time.perf_counter()
            el = modular.modular_ball(2j, R).elements
            times.append(time.perf_counter() - t0)
        digest = hashlib.sha256(el.tobytes(order="C"))
        out["kernel"][f"modular_ball.R{R:g}"] = [min(times),
                                                 digest.hexdigest()[:16]]
        del el
    for workload, names in WORKLOADS.items():
        for seed in SEEDS:
            for name, rec in abbench.time_stages(workload, seed,
                                                 names)[1].items():
                out["stages"][f"{workload}.{name}.seed{seed}"] = rec
    print(json.dumps(out))


def one_round(checkout):
    rec = abbench.worker_record(__file__, checkout)
    traced = abbench.bench_metrics(checkout, "modular_ps", 1, 1, seconds=4)
    for layer in LAYERS:
        rec[layer] = traced[layer]["value"]
    for seed in SEEDS:
        metrics = abbench.bench_metrics(checkout, "modular_ps", seed, 0)
        for name in ("wall_s", "peak_rss_mb"):
            rec[f"{name}.seed{seed}"] = metrics[name]["value"]
    rec["pair_command"] = abbench.pair_command(checkout)
    return rec


def summarise(recs):
    med = statistics.median
    return {
        "stage_rss_mb": {k: med(r["stage_rss_mb"][k] for r in recs)
                         for k in recs[0]["stage_rss_mb"]},
        "kernel": abbench.medians(recs, "kernel"),
        "stages": abbench.medians(recs, "stages"),
        "traced": {k: med(r[k] for r in recs) for k in LAYERS},
        "pair_command": {
            "command": "hyplab --out DIR " + " ".join(abbench.PAIR),
            "wall_s": med(r["pair_command"][0] for r in recs),
            "peak_rss_mb": med(r["pair_command"][1] for r in recs),
            "outputs": recs[0]["pair_command"][2]},
        "modular_ps": {f"{name}.seed{seed}": abbench.runs(
            recs, f"{name}.seed{seed}")
            for name in ("wall_s", "peak_rss_mb") for seed in SEEDS},
    }


def identical(p, c):
    def same(section):
        return all(p[section][k]["digest"] == c[section][k]["digest"]
                   for k in p[section])

    return {
        "ball_elements": same("kernel"),
        "stage_digests": same("stages"),
        "pair_outputs": (p["pair_command"]["outputs"]
                         == c["pair_command"]["outputs"]),
    }


if __name__ == "__main__":
    abbench.main("plane_atoms", "BENCH_plane_atoms.json", worker, one_round,
                 summarise, identical,
                 won={f"{name}.seed{seed}": f"{name}.seed{seed}"
                      for name in ("wall_s", "peak_rss_mb")
                      for seed in SEEDS},
                 note="medians except modular_ps, one value per round")

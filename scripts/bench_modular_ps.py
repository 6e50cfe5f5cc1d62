"""Time the kernels of the modular Patterson-Sullivan checks in two
checkouts: the orbit ball, the atom angles and the orbital measure.

    python3 scripts/bench_modular_ps.py PARENT CHANGE [--rounds 10]
                                        [--out BENCH_modular_ps.json]

PARENT and CHANGE are directories holding a checkout of the repository
(for example `git archive` copies, each run through `python3 -m
compileall` first, so that neither side recompiles its modules in every
process); the rounds are run by `abbench`.  Each figure is the median
over the rounds:

- `kernel`: the fastest of KERNEL_CALLS calls per process, with a
  digest of what the call computed:
  - `modular.modular_ball(2i, R)` at R = 10, 12 and 14, with the sha256
    of the element array;
  - `_PlaneAtoms.theta` at cap 12 on atoms built once, with the sha256
    of the cell index of the atoms at 64 and 256 arcs;
  - `measures.ps_measure(PLANE, 2i, 1.2, cap=10)` with its atom cache
    cleared, with the sha256 of the weights, the total mass and the
    tail bound;
- `stages`: the four stages of the benchmark's `modular_ps` workload at
  seeds 1 and 7919 (one run per process), with the digests of their
  payloads;
- `modular_ps`: `wall_s` and `peak_rss_mb` of `perfbench/run.py
  --workload modular_ps --trace 0` at both seeds (one value per round,
  with each side's quartiles and the share of rounds the change won).

The result is written as JSON under the key `modular_ps`.
"""

import hashlib
import json
import time

import abbench

SEEDS = (1, 7919)
BALL_R = (10.0, 12.0, 14.0)
KERNEL_CALLS = {"modular_ball.R10": 5, "modular_ball.R12": 5,
                "modular_ball.R14": 3, "theta.cap12": 5,
                "ps_measure.cap10": 5}
STAGES = ("ps_measure", "plane_conformal", "plane_shadow",
          "plane_pair_invariance")


def fastest(name, call, digest):
    """[the fastest of KERNEL_CALLS[name] calls, sha256 of the bytes that
    digest() gives of the last call's result], digested untimed."""
    times = []
    for _ in range(KERNEL_CALLS[name]):
        t0 = time.perf_counter()
        res = call()
        times.append(time.perf_counter() - t0)
    return [min(times), hashlib.sha256(digest(res)).hexdigest()[:16]]


def worker(checkout):
    """Kernel and stage times in this process, as one JSON line."""
    abbench.use_checkout(checkout)
    import numpy as np

    from hyplab import measures, modular
    from hyplab.geometry import PLANE

    out = {"kernel": {}, "stages": {}}
    for R in BALL_R:
        out["kernel"][f"modular_ball.R{R:g}"] = fastest(
            f"modular_ball.R{R:g}", lambda: modular.modular_ball(2j, R),
            lambda ball: ball.elements.tobytes())
    atoms = measures._PlaneAtoms(2j, 12.0)
    parts = [measures.plane_partition(n) for n in (64, 256)]

    def theta():
        atoms.__dict__.pop("theta", None)
        return atoms.theta

    out["kernel"]["theta.cap12"] = fastest(
        "theta.cap12", theta, lambda th: b"".join(
            part.locate_angle(th).tobytes() for part in parts))
    del atoms

    def ps_measure():
        measures._cached_atoms.cache_clear()
        return measures.ps_measure(PLANE, 2j, 1.2, cap=10.0)

    def weights(mu):
        w = np.array([weight for _, weight in mu.atoms])
        return w.tobytes() + np.array([mu.total_mass,
                                       mu.tail_bound]).tobytes()

    out["kernel"]["ps_measure.cap10"] = fastest("ps_measure.cap10",
                                                ps_measure, weights)
    measures._cached_atoms.cache_clear()
    for seed in SEEDS:
        for name, rec in abbench.time_stages("modular_ps", seed,
                                             STAGES)[1].items():
            out["stages"][f"{name}.seed{seed}"] = rec
    print(json.dumps(out))


def one_round(checkout):
    rec = abbench.worker_record(__file__, checkout)
    for seed in SEEDS:
        metrics = abbench.bench_metrics(checkout, "modular_ps", seed, 0)
        for name in ("wall_s", "peak_rss_mb"):
            rec[f"{name}.seed{seed}"] = metrics[name]["value"]
    return rec


def summarise(recs):
    return {
        "kernel": abbench.medians(recs, "kernel"),
        "stages": abbench.medians(recs, "stages"),
        "modular_ps": {f"{name}.seed{seed}": abbench.runs(
            recs, f"{name}.seed{seed}")
            for name in ("wall_s", "peak_rss_mb") for seed in SEEDS},
    }


def identical(p, c):
    def same(section):
        return {k: p[section][k]["digest"] == c[section][k]["digest"]
                for k in p[section]}

    return {"kernel": same("kernel"),
            "stage_digests": all(same("stages").values())}


if __name__ == "__main__":
    abbench.main("modular_ps", "BENCH_modular_ps.json", worker, one_round,
                 summarise, identical,
                 won={f"{name}.seed{seed}": f"{name}.seed{seed}"
                      for name in ("wall_s", "peak_rss_mb")
                      for seed in SEEDS},
                 note="medians except modular_ps, one value per round")

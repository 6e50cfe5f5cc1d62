"""Time the kernels of the modular Patterson-Sullivan checks in two
checkouts: the orbit ball, its orbit points, the plane atoms, the atom
angles and the orbital measure.

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
  - `orbit_points.R10`, `.R12` and `.R14`: the orbit points gamma 2i and
    distances d(2i, gamma 2i) over the same balls, by
    `modular.orbit_points` where the checkout has it and else by
    `halfplane.mobius_apply` and `halfplane.dist` over the ball's
    elements, with the sha256 of the (z, d) pairs sorted;
  - `_PlaneAtoms(2i, 12)` built afresh, with the sha256 of its atoms'
    (z, d) pairs sorted;
  - `_PlaneAtoms.theta` at cap 12 on atoms built once, with the sha256
    of the cell index of the atoms at 64 and 256 arcs;
  - `measures.ps_measure(PLANE, 2i, 1.2, cap=10)` with its atom cache
    cleared, with the sha256 of the weights, the total mass and the
    tail bound;
- `stages`: the four stages of the benchmark's `modular_ps` workload at
  seeds 1 and 7919 (one run per process), with the digests of their
  payloads;
- `pair_command`: the wall time of `hyplab measure --backend modular
  --check shadow,pair-invariance` in its own process (import excluded),
  the process's peak RSS and the sha256 of every output file;
- `modular_ps`: `wall_s` and `peak_rss_mb` of `perfbench/run.py
  --workload modular_ps --trace 0` at both seeds (one value per round,
  with each side's quartiles and the share of rounds the change won).

The result is written as JSON under the key `orbit_stream`; the file's
other keys are kept.
"""

import hashlib
import json
import time

import abbench

SEEDS = (1, 7919)
BALL_R = (10.0, 12.0, 14.0)
KERNEL_CALLS = {"modular_ball.R10": 5, "modular_ball.R12": 5,
                "modular_ball.R14": 3, "orbit_points.R10": 5,
                "orbit_points.R12": 5, "orbit_points.R14": 3,
                "plane_atoms.cap12": 5, "theta.cap12": 5,
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

    from hyplab import halfplane, measures, modular
    from hyplab.geometry import PLANE

    def points(R):
        if hasattr(modular, "orbit_points"):
            pts = modular.orbit_points(2j, R)
            return pts.z, pts.dist
        z = halfplane.mobius_apply(modular.modular_ball(2j, R).elements.T,
                                   2j)
        return z, halfplane.dist(2j, z)

    def sorted_points(zd):
        z, d = zd
        order = np.lexsort((d, z.imag, z.real))
        return np.stack([z.real[order], z.imag[order], d[order]]).tobytes()

    out = {"kernel": {}, "stages": {}}
    for R in BALL_R:
        out["kernel"][f"modular_ball.R{R:g}"] = fastest(
            f"modular_ball.R{R:g}", lambda: modular.modular_ball(2j, R),
            lambda ball: ball.elements.tobytes())
        out["kernel"][f"orbit_points.R{R:g}"] = fastest(
            f"orbit_points.R{R:g}", lambda: points(R), sorted_points)
    out["kernel"]["plane_atoms.cap12"] = fastest(
        "plane_atoms.cap12", lambda: measures._PlaneAtoms(2j, 12.0),
        lambda atoms: sorted_points((atoms.z, atoms.d)))
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
    rec["pair_wall_s"], rec["pair_rss_mb"], rec["pair_outputs"] = \
        abbench.pair_command(checkout)
    return rec


def summarise(recs):
    return {
        "kernel": abbench.medians(recs, "kernel"),
        "stages": abbench.medians(recs, "stages"),
        "pair_command": {
            "command": "hyplab --out DIR " + " ".join(abbench.PAIR),
            "wall_s": abbench.runs(recs, "pair_wall_s"),
            "peak_rss_mb": abbench.runs(recs, "pair_rss_mb"),
            "outputs": recs[0]["pair_outputs"]},
        "modular_ps": {f"{name}.seed{seed}": abbench.runs(
            recs, f"{name}.seed{seed}")
            for name in ("wall_s", "peak_rss_mb") for seed in SEEDS},
    }


def identical(p, c):
    def same(section):
        return {k: p[section][k]["digest"] == c[section][k]["digest"]
                for k in p[section]}

    return {"kernel": same("kernel"),
            "stage_digests": same("stages"),
            "pair_outputs": (p["pair_command"]["outputs"]
                             == c["pair_command"]["outputs"])}


if __name__ == "__main__":
    abbench.main("orbit_stream", "BENCH_modular_ps.json", worker, one_round,
                 summarise, identical,
                 won={"pair_command.wall_s": "pair_wall_s",
                      **{f"{name}.seed{seed}": f"{name}.seed{seed}"
                         for name in ("wall_s", "peak_rss_mb")
                         for seed in SEEDS}},
                 note="medians except modular_ps and pair_command, one "
                      "value per round")

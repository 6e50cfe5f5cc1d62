"""Time the closed-geodesic censuses (tree necklaces and modular R/L
classes) in two checkouts.

    python3 scripts/bench_census.py PARENT CHANGE [--rounds 10]
                                    [--out BENCH_census.json]

PARENT and CHANGE are directories holding a checkout of the repository
(for example `git archive` copies); the rounds are run by `abbench`.
Each figure is the median over the rounds:

- `kernel`: `words.necklaces(n)` at n = 11 and 12,
  `modular.enumerate_conj_classes(T)` at T = 10..14 and
  `counting.geodesic_census(PLANE, T)` at T = 12 and 14 (the median of
  KERNEL_CALLS calls per process), with the sha256 of each output: the
  words, every field of every class with the length's bits (the same
  tuples from a list of class records or from a census of columns), or
  the (length bits, word) entries; and `words.necklace_levels.T` for
  T = 12 and 14, the time spent inside the kernel during those census
  calls, with the digest of its words;
- `conformal`: the fastest of 15 x 2000 calls of one tree
  `conformal_check` on `tree_partition(5)`, in microseconds, with the
  defects of four fixed base pairs;
- `stages`: every stage of the benchmark's `exact_census` and `flow_mc`
  workloads at seeds 1 and 7919 (one run per process), with the digests
  of their payloads;
- `traced`: the census layers from `perfbench/run.py --workload
  exact_census --trace 1` at both seeds and `modular.mat_mul.calls` of
  `--workload flow_mc --trace 1` at seed 1; and `wall_s` of
  `exact_census --trace 0` at both seeds (one value per round, with each
  side's quartiles and the share of rounds the change won);
- `census_over_necklace_levels`: the median over the rounds of each
  round's census time over its kernel time, at T = 12 and 14.

The result is written as JSON under the key `census`.
"""

import hashlib
import json
import statistics
import time
import timeit

import abbench

SEEDS = (1, 7919)
WORKLOADS = {
    "exact_census": ("tree_orbit", "tree_census", "plane_orbit",
                     "plane_census", "tree_conformal",
                     "tree_pair_invariance"),
    "flow_mc": ("delta_mc", "plane_htop", "flat_htop", "plane_equidist",
                "cli_validate"),
}
NECKLACE_N = (11, 12)
CLASS_T = (10, 11, 12, 13, 14)
KERNEL_CALLS = {11: 5, 12: 5, 10: 5, 13: 1, 14: 1}
CENSUS_T = (12, 14)
CENSUS_CALLS = {12: 5, 14: 3}
PAIRS = (("", "a"), ("ab", "Ba"), ("aBA", "b"), ("abA", "BAb"))
LAYERS = ("words.necklaces.s", "modular.enumerate_conj_classes.s",
          "counting.geodesic_census.s", "modular.mat_mul.calls")


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def class_fields(cs):
    """(word, matrix, trace, length bits, primitive) per class, from a
    list of class records or from a census of columns."""
    if hasattr(cs, "matrices"):
        m = cs.matrices.tolist()
        return zip(cs.words, map(tuple, m), (r[0] + r[3] for r in m),
                   map(float.hex, cs.lengths.tolist()),
                   cs.primitive.tolist())
    return ((c.word, c.matrix, c.trace, c.length.hex(), c.primitive)
            for c in cs)


def timed(fn, calls):
    """(median seconds, result) of `calls` calls of fn."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        res = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), res


def worker(checkout):
    """Kernel, conformal and stage times in this process, as one JSON
    line."""
    abbench.use_checkout(checkout)
    from hyplab import counting, measures, modular, words
    from hyplab.geometry import PLANE, TREE

    out = {"kernel": {}, "stages": {}}
    for n in NECKLACE_N:
        s, ws = timed(lambda: words.necklaces(n), KERNEL_CALLS[n])
        out["kernel"][f"necklaces.n{n}"] = [s, digest(ws)]
    for T in CLASS_T:
        s, cs = timed(lambda: modular.enumerate_conj_classes(T),
                      KERNEL_CALLS[T])
        out["kernel"][f"enumerate_conj_classes.T{T}"] = [s, digest(
            class_fields(cs))]
    levels, inner = words.necklace_levels, []

    def timed_levels(*args):
        t0 = time.perf_counter()
        res = levels(*args)
        inner.append((time.perf_counter() - t0, res[0]))
        return res

    words.necklace_levels = timed_levels
    for T in CENSUS_T:
        inner.clear()
        s, gc = timed(lambda: counting.geodesic_census(PLANE, T),
                      CENSUS_CALLS[T])
        out["kernel"][f"geodesic_census.T{T}"] = [s, digest(
            (length.hex(), w) for length, w in gc.entries)]
        out["kernel"][f"necklace_levels.T{T}"] = [
            statistics.median(t for t, _ in inner), digest(inner[0][1])]
    words.necklace_levels = levels
    part = measures.tree_partition(5)
    best = min(timeit.repeat(
        lambda: measures.conformal_check(TREE, "ab", "Ba", part),
        number=2000, repeat=15)) / 2000
    out["conformal"] = [best * 1e6, [measures.conformal_check(
        TREE, p, q, part) for p, q in PAIRS]]
    for workload, names in WORKLOADS.items():
        for seed in SEEDS:
            for name, rec in abbench.time_stages(workload, seed,
                                                 names)[1].items():
                out["stages"][f"{workload}.{name}.seed{seed}"] = rec
    print(json.dumps(out))


def one_round(checkout):
    rec = abbench.worker_record(__file__, checkout)
    for seed in SEEDS:
        traced = abbench.bench_metrics(checkout, "exact_census", seed, 1,
                                       seconds=4)
        for layer in LAYERS:
            rec[f"{layer}.seed{seed}"] = traced[layer]["value"]
        rec[f"wall_s.seed{seed}"] = abbench.bench_metrics(
            checkout, "exact_census", seed, 0)["wall_s"]["value"]
    rec["flow_mc.modular.mat_mul.calls.seed1"] = abbench.bench_metrics(
        checkout, "flow_mc", 1, 1, seconds=2)[
            "modular.mat_mul.calls"]["value"]
    return rec


def summarise(recs):
    med = statistics.median
    traced = [f"{layer}.seed{seed}" for layer in LAYERS for seed in SEEDS]
    return {
        "kernel": abbench.medians(recs, "kernel"),
        "conformal_check.depth5_us": {
            "us": med(r["conformal"][0] for r in recs),
            "defects": recs[0]["conformal"][1]},
        "stages": abbench.medians(recs, "stages"),
        "traced": {
            **{k: med(r[k] for r in recs) for k in traced},
            "flow_mc.modular.mat_mul.calls.seed1": med(
                r["flow_mc.modular.mat_mul.calls.seed1"] for r in recs)},
        "exact_census.wall_s": {f"seed{seed}": abbench.runs(
            recs, f"wall_s.seed{seed}") for seed in SEEDS},
        "census_over_necklace_levels": {f"T{T}": med(
            r["kernel"][f"geodesic_census.T{T}"][0]
            / r["kernel"][f"necklace_levels.T{T}"][0] for r in recs)
            for T in CENSUS_T},
    }


def identical(p, c):
    def same(section):
        return all(p[section][k]["digest"] == c[section][k]["digest"]
                   for k in p[section])

    return {
        "kernel_outputs": same("kernel"),
        "stage_digests": same("stages"),
        "conformal_defects": (p["conformal_check.depth5_us"]["defects"]
                              == c["conformal_check.depth5_us"]["defects"]),
    }


if __name__ == "__main__":
    abbench.main("census", "BENCH_census.json", worker, one_round,
                 summarise, identical,
                 won={f"seed{seed}": f"wall_s.seed{seed}" for seed in SEEDS},
                 note="medians except exact_census.wall_s, one value per "
                      "round")

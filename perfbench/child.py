"""One fresh process: import the library, run one workload once, report.

Usage (from run.py, which also sets the thread and path environment):
  python3 child.py --spawned-at T --result FILE [--workload W --seed N
                   --scratch DIR [--trace-out FILE]]

Without --workload the process only imports the library and reports its
set-up time.  --spawned-at is the parent's time.monotonic() just before
the process was started, so set-up time covers interpreter start-up and
the imports of numpy and hyplab.

Next to the timed intervals the process also times calibrate(), a fixed
mix of interpreter and numpy work that no library change touches: once
after the imports and once before and after each stage.  run.py scales
the process's times by its calibration times, so that a period in which
a shared host runs all code slower shows little in the set-up and stage
times.
"""

import argparse
import json
import os
import re
import resource
import sys
import time
import warnings

import numpy
import hyplab

IMPORTED_AT = time.monotonic()

# the benchmark's own modules load after the set-up timestamp
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import digest  # noqa: E402

ZERO_MASS = re.compile(r"(\d+) zero-mass cells")

# the calibration loop's numpy work writes into preallocated arrays: a
# loop that allocates runs up to twice as fast once the library's large
# arrays have raised malloc's mmap threshold, which is no change of speed
_CAL_IN = numpy.random.default_rng(0).random(200_000)
_CAL_BUF = (numpy.empty_like(_CAL_IN), numpy.empty_like(_CAL_IN))


def calibrate():
    """Seconds taken by a fixed mix of interpreter-bound and numpy work,
    about 0.1 s at the reference speed (see README)."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(180_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    a, b = _CAL_BUF
    for _ in range(20):
        numpy.copyto(a, _CAL_IN)
        a.sort()
        numpy.cosh(a, out=b)
        numpy.multiply(b, _CAL_IN, out=b)
        float(b.sum())
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--scratch")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    src = os.environ["HYPLAB_SRC"]
    if os.path.dirname(os.path.dirname(os.path.realpath(hyplab.__file__))) \
            != os.path.realpath(src):
        sys.exit(f"hyplab imported from {hyplab.__file__}, not from {src}")
    calibrate()  # warm-up: first calls into numpy pay one-off costs
    out = {"setup_s": IMPORTED_AT - args.spawned_at,
           "setup_cal_s": calibrate(),
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "hyplab": hyplab.__version__}
    if args.workload:
        out.update(run_workload(args))
    with open(args.result, "w") as f:
        json.dump(out, f, default=str)


def run_workload(args):
    inputs, stages = workloads.build(args.workload, args.seed, args.scratch)
    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install(hyplab)
    cal = []
    records, wall, outside = run_stages(stages, tracer, cal)
    out = {"wall_s": wall, "cal_s": cal, "stages": records,
           "inputs": inputs,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "outside": outside}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(args.trace_out)
    return out


def run_stages(stages, tracer=None, cal=None):
    """Time each stage, then check it; a stage that raises, returns a
    wrong result or fails its check is recorded as failed, not fatal.
    If `cal` is a list, calibrate()'s time is appended to it before the
    first stage and right after each stage.
    Returns (stage records, summed stage time, values measured outside)."""
    records, outside = [], {"measures.zero_mass_cells": 0}
    wall = 0.0
    if cal is not None:
        cal.append(calibrate())
    for stage in stages:
        rec = {"stage": stage.name, "ok": False}
        run = stage.run
        if tracer is not None:
            run = tracer.span(f"stage.{stage.name}", run)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = run()
            except Exception as exc:
                result, rec["error"] = None, f"{type(exc).__name__}: {exc}"
            rec["s"] = time.perf_counter() - t0
        wall += rec["s"]
        if cal is not None:
            cal.append(calibrate())
        for w in caught:
            m = ZERO_MASS.search(str(w.message))
            if m:
                outside["measures.zero_mass_cells"] += int(m.group(1))
        if "error" not in rec:
            try:
                ok, detail, payload, *extra = stage.check(result)
                rec.update(ok=bool(ok), detail=detail,
                           digest=digest(payload))
                for values in extra:
                    outside.update(values)
            except Exception as exc:
                rec["error"] = f"check {type(exc).__name__}: {exc}"
        records.append(rec)
    return records, wall, outside


if __name__ == "__main__":
    main()

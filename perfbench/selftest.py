"""The benchmark's own test.

  python3 perfbench/selftest.py [WORKLOAD ...]

1. A deliberately wrong stage result, a stage that raises and an
   unexpected exit code are each counted as a failed stage.
2. For each named workload (default: all three), two traced runs with
   the same seed give identical count metrics.

Exits 0 when every check holds.
"""

import contextlib
import io
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hyplab import cli, counting  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def failures_are_counted():
    """Return a list of problems (empty when all failure paths count)."""
    problems = []
    _, stages = workloads.build("exact_census", 1, None)
    tree_orbit = stages[0]
    records, _, _ = child.run_stages([tree_orbit])
    if not records[0]["ok"]:
        problems.append(f"correct tree_orbit failed: {records[0]}")

    real = counting.orbit_count

    def off_by_one(*args, **kwargs):
        census = real(*args, **kwargs)
        entries = census.entries[:-1] + (
            (census.entries[-1][0], census.entries[-1][1] + 1),)
        return type(census)(census.backend, census.base, entries,
                            census.complete)

    def raises(*args, **kwargs):
        raise RuntimeError("deliberate")

    for wrong in (off_by_one, raises):
        counting.orbit_count = wrong
        try:
            records, _, _ = child.run_stages([tree_orbit])
        finally:
            counting.orbit_count = real
        if records[0]["ok"]:
            problems.append(f"{wrong.__name__} was not counted as a failure")

    # validate's own test hook forces one record to FAIL, so cli.main
    # returns exit code 2 instead of 0
    scratch = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    _, stages = workloads.build("flow_mc", 1, scratch)
    validate = next(s for s in stages if s.name == "cli_validate")
    real_main = cli.main
    cli.main = lambda argv: real_main(argv + ["--corrupt-delta"])
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            records, _, _ = child.run_stages([validate])
    finally:
        cli.main = real_main
        shutil.rmtree(scratch)
    if records[0]["ok"] or "exit 2" not in records[0].get("detail", ""):
        problems.append(f"validate exit 2 was not counted: {records[0]}")
    return problems


def counts_repeat(workload, seed=1):
    first, _ = run.measure(workload, seed, 0, True)
    second, _ = run.measure(workload, seed, 0, True)
    return [f"{workload}: {name} {first['layers'][name]} != "
            f"{second['layers'][name]}"
            for name in run.PER_LAYER
            if run.is_count(name)
            and first["layers"][name] != second["layers"][name]]


def main(argv):
    os.makedirs(run.OUT, exist_ok=True)
    problems = failures_are_counted()
    print(f"failure counting: {'ok' if not problems else 'FAILED'}")
    for workload in argv or run.WORKLOADS:
        found = counts_repeat(workload)
        print(f"count repeat {workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"problem: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

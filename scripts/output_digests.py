"""Print a sha256 digest of every output the user-facing programs make.

    python3 scripts/output_digests.py

Runs, in a temporary directory and with this checkout's `src` first on
the import path: the four demos, the seven `hyplab` commands of the
README, `entropy --backend modular` (plain, with `--probe z-set` and
with `--probe fiber`), `measure --backend modular --check
shadow,pair-invariance`, `--seed 5 validate`, `count --backend flat`,
`entropy --backend flat` (plain, with `--probe z-set` and with
`--probe fiber`), tree `measure` with every check but equidist and
with `--cells depth=3 --gamma ab`, modular `measure` with `--cells`,
`--cap` and `--gamma` set, `count --backend modular --Rmax 6 --T 6`,
`count --backend tree --rank 3 --Rmax 8 --T 8` (whose `margulis.csv`
carries the rank-3 h = log 5), `entropy --backend tree --probe fiber`,
tree `entropy` at delta 1.5 and, with rank 3 and n = 1..4, at delta 2,
and `measure --backend modular --check equidist --T 12` (14904
classes, words of up to 402 letters, where the README command stops
at 2451 classes and 147 letters).  It prints one line per output file and per standard output,
`<sha256>  <label>`, sorted by label, plus each command's exit code.
Two checkouts whose printouts are equal produce byte-identical outputs
on these runs.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = ("counting_walkthrough", "patterson_sullivan_tour",
         "modular_equidistribution", "entropy_and_expansivity")

COMMANDS = {
    "tree": "count --backend tree --Rmax 12",
    "mod": "count --backend modular --T 10",
    "meas": "measure --backend modular --check conformal",
    "equi": "measure --backend modular --check equidist --T 10",
    "ent": "entropy --backend tree",
    "probe": "entropy --backend tree --probe z-set --rho 0.4",
    "check": "validate",
    "ent-mod": "entropy --backend modular",
    "probe-mod": "entropy --backend modular --probe z-set",
    "fiber-mod": "entropy --backend modular --probe fiber",
    "meas-pair": "measure --backend modular --check shadow,pair-invariance",
    "check-seed5": "--seed 5 validate",
    "count-flat": "count --backend flat",
    "ent-flat": "entropy --backend flat",
    "probe-flat": "entropy --backend flat --probe z-set",
    "fiber-flat": "entropy --backend flat --probe fiber",
    "meas-tree": "measure --backend tree "
                 "--check conformal,shadow,pair-invariance,validators",
    "meas-tree-d3": "measure --backend tree --cells depth=3 "
                    "--check conformal,pair-invariance --gamma ab",
    "meas-mod-64": "measure --backend modular --cells 64 --cap 8 "
                   "--check conformal,shadow,pair-invariance "
                   "--gamma 2,1,1,1",
    "count-mod-6": "count --backend modular --Rmax 6 --T 6",
    "count-tree-r3": "count --backend tree --rank 3 --Rmax 8 --T 8",
    "fiber-tree": "entropy --backend tree --probe fiber",
    "ent-tree-d1.5": "entropy --backend tree --delta 1.5",
    "ent-tree-r3": "entropy --backend tree --rank 3 --n 1..4 --delta 2",
    "equi-12": "measure --backend modular --check equidist --T 12",
}

CLI = "import sys; from hyplab.cli import main; sys.exit(main(sys.argv[1:]))"


def sha(data):
    return hashlib.sha256(data).hexdigest()


def main():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in DEMOS:
            path = os.path.join(ROOT, "demos", name + ".py")
            res = subprocess.run([sys.executable, path], cwd=tmp, env=env,
                                 capture_output=True, check=False)
            lines.append((f"demo/{name}/stdout", sha(res.stdout)))
            lines.append((f"demo/{name}/exit", str(res.returncode)))
        for name, cmd in COMMANDS.items():
            out = os.path.join("runs", name)
            res = subprocess.run([sys.executable, "-c", CLI, "--out", out]
                                 + cmd.split(), cwd=tmp, env=env,
                                 capture_output=True, check=False)
            lines.append((f"{name}/stdout", sha(res.stdout)))
            lines.append((f"{name}/exit", str(res.returncode)))
            out = os.path.join(tmp, out)
            for fname in sorted(os.listdir(out) if os.path.isdir(out)
                                else []):
                with open(os.path.join(out, fname), "rb") as fh:
                    lines.append((f"{name}/{fname}", sha(fh.read())))
    for label, value in sorted(lines):
        print(f"{value}  {label}")


if __name__ == "__main__":
    main()

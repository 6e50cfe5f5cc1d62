"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import math
import os

import pytest

from hyplab import cli, measures
from hyplab.geometry import PLANE


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.main(["--out", str(out)] + list(argv))
    return code, out


def test_fmt_twelve_significant_digits():
    assert cli.fmt(math.pi) == "3.14159265359"
    assert cli.fmt(1.0) == "1"
    assert cli.fmt(1e-30) == "1e-30"


def test_fmt_rationals():
    from fractions import Fraction
    assert cli.fmt(Fraction(17, 432)) == "17/432"
    assert cli.fmt(Fraction(3)) == "3/1"


def test_config_hash_ignores_key_order():
    a = cli.config_hash({"x": 1, "y": "z"})
    b = cli.config_hash({"y": "z", "x": 1})
    assert a == b and len(a) == 16
    assert cli.config_hash({"x": 2, "y": "z"}) != a


def test_count_tree_outputs(tmp_path):
    code, out = run(tmp_path, "count", "--backend", "tree", "--Rmax", "10")
    assert code == cli.EXIT_OK
    lines = (out / "orbit_census.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "R,count,complete"
    first = lines[2].split(",")
    assert int(first[1]) == 2 * 3 ** int(float(first[0])) - 1
    fit = json.loads((out / "entropy_fit.json").read_text())
    assert abs(fit["h_fit"] - math.log(3)) < 0.02
    assert "config_hash" in fit


def test_count_modular_census(tmp_path):
    code, out = run(tmp_path, "count", "--backend", "modular", "--T", "4")
    assert code == cli.EXIT_OK
    rows = (out / "geodesic_census.csv").read_text().splitlines()[2:]
    first_len = float(rows[0].split(",")[0])
    assert first_len == pytest.approx(2 * math.acosh(1.5), abs=1e-9)


def test_measure_tree_conformal(tmp_path):
    code, out = run(tmp_path, "measure", "--backend", "tree",
                    "--check", "conformal")
    assert code == cli.EXIT_OK
    rows = (out / "conformal_defect.csv").read_text().splitlines()[2:]
    assert all(r.rsplit(",", 1)[1] == "0" for r in rows)


def test_measure_cap_reaches_the_plane_checks(tmp_path):
    code, out = run(tmp_path, "measure", "--backend", "modular",
                    "--check", "pair-invariance", "--cap", "10")
    assert code == cli.EXIT_OK
    row = (out / "pair_invariance.csv").read_text().splitlines()[2]
    pm = measures.pair_measure(PLANE, 2j, measures.plane_partition(256),
                               cap=10.0)
    defect = measures.pair_invariance_check(pm, (1, 1, 0, 1), cap=10.0)
    assert row == f"1,1,0,1,{cli.fmt(defect)}"


def test_entropy_tree(tmp_path):
    code, out = run(tmp_path, "entropy", "--backend", "tree")
    assert code == cli.EXIT_OK
    data = json.loads((out / "htop.json").read_text())
    assert abs(data["h_top"] - math.log(3)) < 1e-6


def test_validate_passes_and_reports(tmp_path, capsys):
    code, out = run(tmp_path, "validate")
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    data = json.loads((out / "validate.json").read_text())
    assert data["all_pass"]
    assert all(rec["pass"] for rec in data["records"])


def test_validate_corruption_is_caught(tmp_path, capsys):
    code, out = run(tmp_path, "validate", "--corrupt-delta")
    assert code == cli.EXIT_VIOLATION
    assert "FAIL" in capsys.readouterr().out


def test_unknown_backend_is_usage_error(tmp_path):
    code, _ = run(tmp_path, "count", "--backend", "moebius")
    assert code == cli.EXIT_USAGE


def test_measure_flat_refused(tmp_path):
    code, _ = run(tmp_path, "measure", "--backend", "flat")
    assert code == cli.EXIT_USAGE


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("backend=tree\nRmax=8\n")
    code = cli.main(["--out", str(tmp_path / "o"), "--config", str(cfg),
                     "count"])
    assert code == cli.EXIT_OK


def test_config_file_backend_and_seed_beat_the_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("backend=modular\nRmax=6\nT=4\nseed=5\n")

    def census(name, *argv):
        code = cli.main(["--out", str(tmp_path / name)] + list(argv))
        assert code == cli.EXIT_OK
        return (tmp_path / name / "orbit_census.csv").read_text()

    from_file = census("file", "--config", str(cfg), "count")
    from_flags = census("flags", "--seed", "5", "count", "--backend",
                        "modular", "--Rmax", "6", "--T", "4")
    assert from_file == from_flags  # config hash line included
    # the tree would give 2 * 3^2 - 1 = 17 points at R = 2
    assert from_file.splitlines()[2].split(",")[1] != "17"
    # an explicit flag still beats the file
    overridden = census("over", "--config", str(cfg), "--seed", "6",
                        "count", "--backend", "tree")
    assert overridden == census("tree", "--seed", "6", "count", "--backend",
                                "tree", "--Rmax", "6", "--T", "4")
    assert overridden.splitlines()[2].split(",")[1] == "17"

    seeds = tmp_path / "seed.cfg"
    seeds.write_text("seed=5\n")
    for name, argv in (("vf", ["--config", str(seeds)]),
                       ("vs", ["--seed", "5"])):
        assert cli.main(["--out", str(tmp_path / name)] + argv
                        + ["validate"]) == cli.EXIT_OK
    assert ((tmp_path / "vf" / "validate.json").read_text()
            == (tmp_path / "vs" / "validate.json").read_text())


def test_config_file_unknown_backend_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("backend=moebius\n")
    code = cli.main(["--out", str(tmp_path / "o"), "--config", str(cfg),
                     "count"])
    assert code == cli.EXIT_USAGE

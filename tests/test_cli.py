"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from hyplab import cli, measures, words
from hyplab.geometry import PLANE, TREE


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.main(["--out", str(out)] + list(argv))
    return code, out


def test_module_run_raises_no_runpy_warning(tmp_path):
    # runpy warns when the package import has already loaded hyplab.cli
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src] + [os.environ["PYTHONPATH"]] * ("PYTHONPATH" in os.environ)
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hyplab.cli",
         "--help"], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert res.returncode == 0, res.stderr


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


def test_measure_tree_rows_match_the_library(tmp_path):
    code, out = run(tmp_path, "measure", "--backend", "tree",
                    "--check", "shadow,pair-invariance")
    assert code == cli.EXIT_OK
    rows = (out / "shadow_bounds.csv").read_text().splitlines()[2:]
    assert rows == [
        ",".join(cli.fmt(v) for v in
                 (n, *measures.shadow_mass_bounds(TREE, "", "a" * n, 0.5)))
        for n in range(2, 9)]
    row = (out / "pair_invariance.csv").read_text().splitlines()[2]
    pm = measures.pair_measure(TREE, "", measures.tree_partition(4))
    defect = measures.pair_invariance_check(pm, "a")
    assert row == f"a,{cli.fmt(defect)}"


@pytest.mark.parametrize("backend, cells", [("tree", "64"),
                                            ("modular", "depth=3")])
def test_measure_refuses_cells_of_the_other_backend(tmp_path, capsys,
                                                   backend, cells):
    code, out = run(tmp_path, "measure", "--backend", backend,
                    "--cells", cells)
    assert code == cli.EXIT_USAGE
    assert "--cells" in capsys.readouterr().err
    assert not (out / "measure.json").exists()


def test_count_flat_writes_no_geodesic_census(tmp_path):
    code, out = run(tmp_path, "count", "--backend", "flat")
    assert code == cli.EXIT_OK
    assert sorted(os.listdir(out)) == ["entropy_fit.json",
                                       "orbit_census.csv"]


def test_flat_fiber_eta_defaults_to_the_backward_direction(tmp_path):
    code, out = run(tmp_path, "entropy", "--backend", "flat",
                    "--probe", "fiber", "--xi", "0.3")
    assert code == cli.EXIT_OK
    assert json.loads((out / "fiber_probe.json").read_text())["count"] == 2
    code, _ = run(tmp_path, "entropy", "--backend", "flat",
                  "--probe", "fiber", "--xi", "0.3", "--eta", "1.0")
    assert code == cli.EXIT_USAGE


def test_entropy_tree(tmp_path):
    code, out = run(tmp_path, "entropy", "--backend", "tree")
    assert code == cli.EXIT_OK
    data = json.loads((out / "htop.json").read_text())
    assert abs(data["h_top"] - math.log(3)) < 1e-6


def test_entropy_modular_z_set_probe(tmp_path):
    code, out = run(tmp_path, "entropy", "--backend", "modular",
                    "--probe", "z-set")
    assert code == cli.EXIT_OK
    data = json.loads((out / "z_set_probe.json").read_text())
    assert data["classification"] == "UNKNOWN"
    assert "no witness among 400" in data["detail"]


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


@pytest.mark.parametrize("radius, rho", [(5, 2), (6, 3)])
def test_fellow_traveling_gaps_match_the_vertex_by_vertex_loop(radius, rho):
    # the closed form 2 max(0, min(|w|, |wu|) - lcp(w, wu)) against the
    # tree distance of every pair of equal-depth vertices on the rays
    ws, us = list(words.ball_words(radius)), list(words.ball_words(rho))
    want = []
    for w in ws:
        v1 = words.geodesic_vertices("", w)
        for u in us:
            v2 = words.geodesic_vertices("", words.mul(w, u))
            want.append(max(words.distance(a, b) for a, b in zip(v1, v2)))
    assert list(cli._fellow_traveling_gaps(ws, us)) == want
    assert max(want) > 0


def test_unknown_backend_is_usage_error(tmp_path):
    for backend in ("moebius", "plane"):
        code, _ = run(tmp_path, "count", "--backend", backend)
        assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [("tree", "--Rmax", "1"),
                                  ("flat", "--Rmax", "3")])
def test_count_too_few_census_points_is_usage_error(tmp_path, capsys, argv):
    code, _ = run(tmp_path, "count", "--backend", *argv)
    assert code == cli.EXIT_USAGE
    assert ("error: need at least 4 census points"
            in capsys.readouterr().err)


@pytest.mark.parametrize("cap", ["0.5", "-3", "nan"])
def test_measure_bad_plane_cap_is_usage_error(tmp_path, capsys, cap):
    code, _ = run(tmp_path, "measure", "--backend", "modular", "--check",
                  "shadow", "--cap", cap)
    assert code == cli.EXIT_USAGE
    assert (f"error: plane orbit-atom cap must be finite and >= 1, not "
            f"{float(cap)}" in capsys.readouterr().err)


@pytest.mark.parametrize("cap", ["0.5", "-3", "nan"])
def test_measure_bad_tree_cap_is_usage_error(tmp_path, capsys, cap):
    code, _ = run(tmp_path, "measure", "--backend", "tree", "--cap", cap)
    assert code == cli.EXIT_USAGE
    assert (f"error: tree orbital-measure cap must be finite and >= 1, "
            f"not {float(cap)}" in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ("--backend", "modular", "--delta", "-0.5"),
    ("--backend", "tree", "--delta", "nan"),
    ("--backend", "flat", "--probe", "z-set", "--rho", "nan"),
])
def test_entropy_bad_scale_is_usage_error(tmp_path, capsys, argv):
    code, out = run(tmp_path, "entropy", *argv)
    assert code == cli.EXIT_USAGE
    assert "is not a finite positive number" in capsys.readouterr().err
    assert not os.listdir(out)


@pytest.mark.parametrize("argv", [("tree", "--n", "5"),
                                  ("flat", "--n", "1,1")])
def test_entropy_single_n_is_usage_error(tmp_path, capsys, argv):
    code, out = run(tmp_path, "entropy", "--backend", *argv)
    assert code == cli.EXIT_USAGE == 1
    assert "has no two distinct n to fit" in capsys.readouterr().err
    assert not os.listdir(out)


def test_measure_flat_refused(tmp_path, capsys):
    code, out = run(tmp_path, "measure", "--backend", "flat")
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "'flat' is not hyperbolic" in err
    assert "grows polynomially, critical exponent 0" in err
    assert not os.listdir(out)


@pytest.mark.parametrize("command", ["count", "entropy"])
@pytest.mark.parametrize("rank", ["1", "0", "27"])
def test_tree_rank_outside_two_to_26_is_refused_before_any_file(
        tmp_path, capsys, command, rank):
    code, out = run(tmp_path, command, "--backend", "tree", "--rank", rank)
    assert code == cli.EXIT_USAGE
    assert (f"error: tree rank must be in 2..26, not {rank}"
            in capsys.readouterr().err)
    assert not os.listdir(out)


@pytest.mark.parametrize("backend, rmax, top", [
    ("tree", "10.5", b"10,"), ("flat", "20.5", b"20,"),
    ("modular", "6.5", b"6,")])
def test_config_rmax_parses_as_the_flag_does(tmp_path, backend, rmax, top):
    # a fractional Rmax tops the grid at its floor, from a file or a flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"backend={backend}\nRmax={rmax}\nT=4\n")

    def census(name, *argv):
        code = cli.main(["--out", str(tmp_path / name)] + list(argv))
        assert code == cli.EXIT_OK
        return (tmp_path / name / "orbit_census.csv").read_bytes()

    from_file = census("file", "--config", str(cfg), "count")
    assert from_file == census("flag", "count", "--backend", backend,
                               "--Rmax", rmax, "--T", "4")
    assert from_file.splitlines()[-1].startswith(top)


def test_measure_equidist_of_an_empty_census_is_usage_error(tmp_path, capsys):
    # the shortest modular closed geodesic has length 2 arccosh(3/2) > 1
    code, out = run(tmp_path, "measure", "--backend", "modular",
                    "--check", "equidist", "--T", "1")
    assert code == cli.EXIT_USAGE
    assert ("error: no closed geodesic of length <= 1.0"
            in capsys.readouterr().err)
    assert not (out / "equidistribution.csv").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("backend, flag", [
    ("tree", "--Rmax"), ("flat", "--Rmax"), ("modular", "--Rmax"),
    ("tree", "--T"), ("modular", "--T")])
def test_count_radius_that_is_not_finite_is_usage_error(tmp_path, capsys,
                                                        backend, flag,
                                                        value):
    code, out = run(tmp_path, "count", "--backend", backend, flag, value)
    assert code == cli.EXIT_USAGE
    assert (f"error: {flag} must be finite and >= 0, not {value}"
            in capsys.readouterr().err)
    assert not os.listdir(out)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_measure_equidist_length_that_is_not_finite_is_usage_error(
        tmp_path, capsys, value):
    code, out = run(tmp_path, "measure", "--backend", "modular",
                    "--check", "equidist", "--T", value)
    assert code == cli.EXIT_USAGE
    assert (f"error: closed-geodesic length bound must be finite and >= 0, "
            f"not {value}" in capsys.readouterr().err)
    assert not (out / "equidistribution.csv").exists()


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

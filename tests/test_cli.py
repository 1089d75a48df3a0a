import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kdist import criteria, linf, vec
from kdist.cli import run_command
from kdist.norms import norm_to_json
from kdist.spectrum import PointSet, pointset_to_json


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def _grid_points():
    return PointSet.of([vec(x, y) for x in range(3) for y in range(3)])


def test_spectrum_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["spectrum", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 2
    assert out["distances"] == [[1, 1], [2, 1]]


def test_chains_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["chains", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == 2 and out["bound"] == 9 and out["observed"] == 9


def test_normalize2d_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    assert run_command(["normalize2d", "--norm", norm]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["conditions_ok"]
    assert out["x0"] == [[1, 1], [1, 1]]


def test_decompose_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(1)))
    pts = PointSet.of([vec(0), vec(1), vec(100), vec(101)])
    points = files("pts.json", pointset_to_json(pts))
    assert run_command(["decompose", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "split" and out["size"] == 4


def test_search_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    ground = files("ground.json", pointset_to_json(_grid_points()))
    rc = run_command(["search", "--norm", norm, "--ground", ground,
                      "--k", "1", "--enumerate-optima"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == 4
    assert len(out["optima"]) == 5


def test_bound_command_linf(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] == "parallelotope-chain"
    assert out["pass"] and out["claimed"] == 9 and out["observed"] == 9
    assert out["inputs_digest"]


def test_bound_command_planar(files, capsys):
    from kdist import hexagon_gauge
    norm = files("norm.json", norm_to_json(hexagon_gauge()))
    pts = PointSet.of([vec(0, 0), vec(1, 0), vec(1, 1)])
    points = files("pts.json", pointset_to_json(pts))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] == "planar-two-cones"
    assert out["claimed"] == 4 and out["observed"] == 3


def test_conecover_command(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    rc = run_command(["conecover", "--norm", norm, "--samples", "1000",
                      "--trials", "50"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] <= out["capacity"] == 20
    assert out["unassigned"] == 0 and out["halfwidth_ok"]
    assert out["max_halfwidth"] < 0.5


def test_conecover_rejects_seminorm(files, capsys):
    # Two functionals cannot span R^3: the unit sphere is an unbounded cylinder.
    norm = files("norm.json", {"dim": 3, "kind": "polytopal",
                               "functionals": [[1, 0, 0], [0, 1, 0]]})
    rc = run_command(["conecover", "--norm", norm, "--samples", "100",
                      "--trials", "10"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == "" and "seminorm" in out.err


def test_missing_file_is_input_error(files, capsys):
    norm = files("norm.json", norm_to_json(linf(2)))
    assert run_command(["spectrum", "--norm", norm,
                        "--points", "/nonexistent.json"]) == 1


def test_malformed_norm_is_input_error(files, capsys):
    norm = files("norm.json", {"dim": 2, "kind": "nonsense"})
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["spectrum", "--norm", norm, "--points", points]) == 1


def test_dimension_mismatch_is_input_error(files, capsys):
    norm = files("norm.json", norm_to_json(linf(3)))
    points = files("pts.json", pointset_to_json(_grid_points()))
    assert run_command(["spectrum", "--norm", norm, "--points", points]) == 1


@pytest.mark.parametrize("norm, points", [
    ({"dim": 2, "kind": "linf"}, {"points": 5}),
    ({"dim": 2, "kind": "linf"}, {"dim": 2, "points": [[True, 0], [0, 0]]}),
    ({"dim": 2.7, "kind": "linf"}, {"dim": 2, "points": [[0, 0], [1, 0]]}),
    ({"dim": 2, "kind": "lp", "p": "3"}, {"dim": 2, "points": [[0, 0], [1, 0]]}),
], ids=["points-not-a-list", "boolean-coordinate", "fractional-dim", "string-exponent"])
def test_malformed_json_is_input_error(files, capsys, norm, points):
    rc = run_command(["spectrum", "--norm", files("norm.json", norm),
                      "--points", files("pts.json", points)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("input error: ")


def test_seminorm_is_rejected_not_a_crash(files, capsys):
    # The functionals do not span R^3: (0,0,0) and (0,0,1) are at distance 0.
    norm = files("norm.json", {"dim": 3, "kind": "polytopal",
                               "functionals": [[1, 0, 0], [0, 1, 0]]})
    pts = PointSet.of([vec(0, 0, 0), vec(0, 0, 1), vec(1, 0, 0), vec(2, 0, 0)])
    points = files("pts.json", pointset_to_json(pts))
    assert run_command(["bound", "--norm", norm, "--points", points]) == 1
    assert "distance 0" in capsys.readouterr().err


ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def test_selftest_runs_the_acceptance_criteria(capsys):
    assert run_command(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # test_criterion_NN_name in the acceptance file <-> "PASS  N name detail".
    expected = [["PASS", str(int(n)), name] for n, name in re.findall(
        r"^def test_criterion_(\d\d)_(\w+)\(", ACCEPTANCE.read_text(), re.M)]
    assert len(expected) == 10
    assert [line.split()[:3] for line in lines[:-1]] == expected
    assert all(len(line.split()) > 3 for line in lines[:-1])
    assert lines[-1] == "10/10 criteria passed"


def test_selftest_reports_a_failing_criterion(monkeypatch, capsys):
    monkeypatch.setattr(criteria, "general_bound", lambda k, d: 17)
    assert run_command(["selftest"]) == 2
    out = capsys.readouterr().out
    failed = [line.split(maxsplit=3) for line in out.splitlines()
              if line.startswith("FAIL")]
    assert [f[:3] for f in failed] == [["FAIL", "8", "cone_cover"]]
    assert failed[0][3].strip()
    assert out.splitlines()[-1] == "9/10 criteria passed"


def test_selftest_failure_survives_python_O():
    # Bare asserts vanish under -O; the criteria raise explicitly instead.
    script = ("import sys; from kdist import cli, criteria; "
              "criteria.general_bound = lambda k, d: 17; "
              "sys.exit(cli.run_command(['selftest']))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert re.search(r"^FAIL\s+8 cone_cover\s+\S", proc.stdout, re.M)

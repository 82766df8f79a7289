import os
import re
import subprocess
import sys

import numpy as np
import pytest

import quadpole
from quadpole.cli import main


def read_csv(path):
    with open(path) as fh:
        return fh.read()


def run(argv):
    return main(argv)


def test_cli_import_needs_only_numpy():
    src = os.path.dirname(os.path.dirname(quadpole.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, quadpole.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_racc_writes_csv(tmp_path):
    out = tmp_path / "racc.csv"
    rc = run(["racc", "--charges", "50", "--trials", "2", "--orders", "2,4",
              "--radii", "3,10", "--out", str(out)])
    assert rc == 0
    text = read_csv(out)
    lines = text.splitlines()
    assert lines[0].startswith("# quadpole ")
    assert lines[1] == "kind,p,r,mean_error,scaled_prefactor"
    kinds = {ln.split(",")[0] for ln in lines[2:]}
    assert kinds == {"outer", "outer_points", "outer_diff",
                     "inner", "inner_points", "inner_diff"}
    # 6 kinds x 2 orders x 2 radii
    assert len(lines) == 2 + 6 * 2 * 2


def test_racc_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["racc", "--charges", "30", "--trials", "2", "--orders", "3",
            "--radii", "5", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert read_csv(a) == read_csv(b)
    c = tmp_path / "c.csv"
    assert run(argv[:-2] + ["--seed", "8", "--out", str(c)]) == 0
    assert read_csv(a) != read_csv(c)


def test_racc_slopes(tmp_path):
    out = tmp_path / "racc.csv"
    rc = run(["racc", "--charges", "100", "--trials", "3", "--orders", "3",
              "--out", str(out)])
    assert rc == 0
    rows = [ln.split(",") for ln in read_csv(out).splitlines()[2:]]
    for kind, slope in (("outer", -5.0), ("inner", 4.0)):
        pts = [(float(r[2]), float(r[3])) for r in rows
               if r[0] == kind and (float(r[2]) > 3 if kind == "outer"
                                    else float(r[2]) < 1 / 3)]
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        assert np.polyfit(x, y, 1)[0] == pytest.approx(slope, abs=0.15)


def test_tacc_writes_csv(tmp_path):
    out = tmp_path / "tacc.csv"
    rc = run(["tacc", "--charges", "30", "--trials", "1", "--orders", "3",
              "--out", str(out)])
    assert rc == 0
    lines = read_csv(out).splitlines()
    assert lines[1] == "kind,p,shift,cos_theta,abs_error"
    n_dirs = 86   # order-15 rule
    assert len(lines) == 2 + (3 + 4) * n_dirs


@pytest.mark.parametrize("command", ["racc", "tacc"])
def test_experiments_without_charges(tmp_path, command):
    # an empty cloud takes the general path: every expansion and sum is zero
    out = tmp_path / "out.csv"
    assert run([command, "--charges", "0", "--trials", "2", "--orders", "2,5",
                "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in read_csv(out).splitlines()[2:]]
    assert rows
    assert all(float(r[3 if command == "racc" else 4]) == 0.0 for r in rows)


def test_flow_runs_scene(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text("0 0 0 1.0 1 0 0\n3 0 0 1.0 -1 0 0\n")
    out = tmp_path / "flow.csv"
    rc = run(["flow", "--scene", str(scene), "--orders", "3,5", "--out", str(out)])
    assert rc == 0
    lines = read_csv(out).splitlines()
    assert lines[1] == "p,sphere,radius,boundary_error,fit_residual"
    errs = {}
    for ln in lines[2:]:
        parts = ln.split(",")
        p = int(parts[0])
        errs[p] = max(errs.get(p, 0.0), float(parts[3]))
    assert errs[5] < errs[3]
    assert (tmp_path / "flow_p3_sphere0.exp").exists()


def test_flow_missing_scene():
    assert run(["flow", "--scene", "/nonexistent/scene.txt"]) == 2


def test_flow_bad_scene(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text("1 2 3\n")
    assert run(["flow", "--scene", str(scene)]) == 3


def test_flow_non_finite_scene(tmp_path, capfd):
    # LAPACK would report an illegal argument on fd 2 if a nan reached the solve
    scene = tmp_path / "scene.txt"
    scene.write_text("4 0 0 3 -1 0 0\n-1 1.5 0 nan 1 0 0\n")
    assert run(["flow", "--scene", str(scene), "--orders", "3"]) == 3
    err = capfd.readouterr().err
    assert "line 2" in err
    assert "DLASCL" not in err


def test_flow_overlapping_scene(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text("0 0 0 1 1 0 0\n1 0 0 1 1 0 0\n")
    assert run(["flow", "--scene", str(scene), "--orders", "3"]) == 3


def test_exactness(capsys):
    assert run(["exactness", "15", "15"]) == 0
    assert "max |error|" in capsys.readouterr().out
    assert run(["exactness", "14", "14"]) == 2   # no such rule


def test_bad_orders():
    assert run(["racc", "--orders", "-1",
                "--charges", "1", "--trials", "1"]) == 2
    assert run(["racc", "--orders", "98",
                "--charges", "1", "--trials", "1", "--radii", "5"]) == 2


def test_convert_round_trip(tmp_path):
    charges = tmp_path / "charges.txt"
    rng = np.random.default_rng(3)
    rows = np.hstack([rng.uniform(-0.5, 0.5, (6, 3)), rng.uniform(-1, 1, (6, 1))])
    np.savetxt(charges, rows)
    poly = tmp_path / "m.poly"
    assert run(["convert", "charges2poly", str(charges), "--order", "5",
                "--out", str(poly)]) == 0
    assert read_csv(poly).startswith("quadpole-polytensor p=5")
    exp = tmp_path / "m.exp"
    assert run(["convert", "poly2exp", str(poly), "--out", str(exp)]) == 0
    assert read_csv(exp).startswith("quadpole-expansion kind=outer")
    back = tmp_path / "points.txt"
    assert run(["convert", "exp2charges", str(exp), "--out", str(back)]) == 0
    pts = np.loadtxt(back)
    assert pts.shape[1] == 4
    # the equivalent point set reproduces the cloud's far field
    import quadpole as qp
    cloud = qp.PointCharges(rows[:, :3], rows[:, 3])
    x = np.array([[6.0, 2.0, -3.0]])
    approx = np.sum(pts[:, 3] / np.linalg.norm(x - pts[None, :, :3], axis=-1))
    exact = qp.direct_potential(cloud, x)[0]
    assert approx == pytest.approx(exact, abs=1e-3)


def test_convert_charges_comments_and_blank_lines(tmp_path, capsys):
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text("0.1 0.2 0.3 1\n-0.2 0.1 0 -0.5\n")
    commented.write_text("# x y z q\n0.1 0.2 0.3 1   # first\n\n-0.2 0.1 0 -0.5\n")
    assert run(["convert", "charges2poly", str(plain)]) == 0
    want = capsys.readouterr().out
    assert run(["convert", "charges2poly", str(commented)]) == 0
    assert capsys.readouterr().out == want


def test_convert_missing_input():
    assert run(["convert", "charges2poly", "/nonexistent.txt"]) == 2


def test_stdout_output(capsys):
    rc = run(["racc", "--charges", "5", "--trials", "1", "--orders", "2",
              "--radii", "4", "--out", "-"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "kind,p,r,mean_error,scaled_prefactor"


def _expansion_text():
    import quadpole as qp
    cloud = qp.PointCharges(np.array([[0.1, 0.2, 0.3]]), np.array([1.0]))
    return qp.expansion_to_text(qp.fit_outer(cloud, np.zeros(3), 1.0, 3))


@pytest.mark.parametrize("direction, text, line", [
    # an expansion header without a field
    ("exp2charges", _expansion_text().replace(" rule_order=", " order="), 1),
    # an expansion with a non-finite radius or center
    ("exp2charges", _expansion_text().replace(" R=1 ", " R=nan "), 1),
    ("exp2charges", _expansion_text().replace("center=0,", "center=inf,"), 1),
    # an expansion on a rule that is not embedded
    ("exp2charges", re.sub(r"rule_order=\d+", "rule_order=14", _expansion_text()), 1),
    # an expansion of order zero or below
    ("exp2charges", _expansion_text().replace(" p=3 ", " p=0 "), 1),
    ("exp2charges", _expansion_text().replace(" p=3 ", " p=-4 "), 1),
    # a surface weight that is not finite
    ("exp2charges", re.sub(r"\n1 0 0 \S+\n", "\n1 0 0 nan\n", _expansion_text()), 2),
    # an expansion one surface line short: the header's rule names the count
    ("exp2charges", _expansion_text().rsplit("\n", 2)[0] + "\n", 1),
    # two surface lines swapped, so both points are off the rule: the first is named
    ("exp2charges", re.sub(r"\n(0 1 0 \S+)\n(0 -1 0 \S+)\n", r"\n\2\n\1\n",
                           _expansion_text()), 4),
    # a polytensor line with an out-of-range degree, or a value that is not finite
    ("poly2exp", "quadpole-polytensor p=2\n0 0 0 0 1\n2 2 0 0 1\n", 3),
    ("poly2exp", "quadpole-polytensor p=2\n0 0 0 0 nan\n1 1 0 0 0\n1 0 1 0 0\n1 0 0 1 0\n", 2),
    ("poly2exp", "# moments\nquadpole-polytensor p=2\n0 0 0 0 1\n1 1 0 0 -inf\n", 4),
    # charge lines without the charge column, with a word, or with a nan
    ("charges2poly", "0 0 0\n1 0 0\n0 1 0\n0 0 1\n", 1),
    ("charges2poly", "0 0 0 1\n0.1 x 0 1\n", 2),
    ("charges2poly", "# x y z q\n0.1 0.2 0.3 nan\n", 2),
], ids=["missing-header-field", "nan-radius", "inf-center", "unsupported-rule-order",
        "zero-order", "negative-order", "nan-weight", "surface-line-count",
        "surface-point-off-rule", "polytensor-degree", "polytensor-nan",
        "polytensor-inf", "charges-three-columns", "charges-word", "charges-nan"])
def test_convert_malformed_input(tmp_path, capsys, direction, text, line):
    src = tmp_path / "input.txt"
    src.write_text(text)
    assert run(["convert", direction, str(src)]) == 3
    assert "line %d:" % line in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("racc", "--radii", "-2"),
    ("racc", "--radii", "nan"),
    ("racc", "--radii", "0"),
    ("racc", "--radii", "0.5"),
    ("racc", "--radii", "1"),
    ("racc", "--radii", "3,inf"),
    ("racc", "--trials", "-1"),
    ("racc", "--trials", "0"),
    ("tacc", "--trials", "0"),
    ("racc", "--charges", "-3"),
    ("tacc", "--charges", "-3"),
])
def test_experiment_rejects_bad_values(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out.csv"
    # the last occurrence of a flag wins, so the bad value overrides the default
    argv = [command, "--charges", "5", "--trials", "1", "--orders", "2", flag, value]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: " + flag)
    assert not out.exists()

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


def test_racc_matches_per_radius_loop(tmp_path):
    # the oracle takes one radius at a time, with the direct sum of the
    # inverted cloud itself; racc batches the radii and gets the inner
    # reference from the outer sum by Kelvin inversion
    import quadpole as qp
    from quadpole.cli import _invert, _sample_cloud
    seed, charges, trials, orders, radii = 11, 300, 2, (3, 6, 9), (1.5, 4.0, 30.0)
    eval_rule = qp.lebedev_rule(15)
    total, scale = {}, 0.0   # (kind, p, r) -> summed mean error, in the rows' order
    for trial in range(trials):
        cloud = _sample_cloud(np.random.default_rng([seed, trial]), charges)
        inv = _invert(cloud)
        scale = max(scale, np.sum(np.abs(cloud.charges)))
        for p in orders:
            rule = qp.rule_for_expansion(p, min_order=15)
            outer = qp.fit_outer(cloud, np.zeros(3), 1.0, p, rule=rule)
            inner = qp.fit_inner(inv, np.zeros(3), 1.0, p, rule=rule)
            for r in radii:
                x, y = r * eval_rule.points, (1.0 / r) * eval_rule.points
                exact, exact_i = qp.direct_potential(cloud, x), qp.direct_potential(inv, y)
                series = qp.eval_outer_potential(outer, x)
                points = qp.eval_point_charge_potential(outer, x)
                series_i = qp.eval_inner_potential(inner, y)
                points_i = qp.eval_point_charge_potential(inner, y)
                for kind, key_r, diff in (
                        ("outer", r, series - exact), ("outer_points", r, points - exact),
                        ("outer_diff", r, series - points),
                        ("inner", 1.0 / r, series_i - exact_i),
                        ("inner_points", 1.0 / r, points_i - exact_i),
                        ("inner_diff", 1.0 / r, series_i - points_i)):
                    key = (kind, p, key_r)
                    total[key] = total.get(key, 0.0) + np.mean(np.abs(diff))
    out = tmp_path / "racc.csv"
    assert run(["racc", "--seed", str(seed), "--charges", str(charges), "--trials", str(trials),
                "--orders", ",".join(str(p - 1) for p in orders),
                "--radii", ",".join(map(str, radii)), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in read_csv(out).splitlines()[2:]]
    assert [(kind, int(p), float(r)) for kind, p, r, _, _ in rows] == list(total)
    for (kind, p, r), (*_, err, pref) in zip(total, rows):
        tol = 1e-12 * scale
        assert abs(float(err) - total[kind, p, r] / trials) <= tol
        factor = r ** (p + 1) if kind.startswith("outer") else r ** (-p)
        assert abs(float(pref) - total[kind, p, r] / trials * factor) <= tol * factor


def test_racc_fits_each_cloud_once_per_rule(tmp_path, monkeypatch):
    # --orders 2,5,8 is p = 3, 6 and 9 on the rules of order 15, 15 and 17:
    # per trial, one twin fit per rule, of the cloud and of its inversion in
    # the unit sphere at radius 1, each for all the orders on that rule
    import quadpole.cli as cli
    calls = []

    def counted(kind, sources, center, R, orders, rule=None, R_in=None):
        calls.append((kind, tuple(orders), rule.exactness_degree, R_in))
        return fit(kind, sources, center, R, orders, rule, R_in)

    fit = cli._fit
    monkeypatch.setattr(cli, "_fit", counted)
    assert run(["racc", "--charges", "50", "--trials", "3", "--orders", "2,5,8",
                "--out", str(tmp_path / "racc.csv")]) == 0
    per_trial = [("twin", (3, 6), 15, 1.0), ("twin", (9,), 17, 1.0)]
    assert calls == per_trial * 3


def test_tacc_fits_each_cloud_once_per_order(tmp_path, monkeypatch):
    # per trial and order, one twin fit of the cloud and of its inversion at
    # radius 0.5, which the inner cases shift; no separate fit of either cloud
    import quadpole.cli as cli
    import quadpole.expansion as expansion
    calls = []

    def counted(kind, sources, center, R, orders, rule=None, R_in=None):
        calls.append((kind, tuple(orders), rule.exactness_degree, R_in))
        return fit(kind, sources, center, R, orders, rule, R_in)

    def refused(*args, **kwargs):
        raise AssertionError("a separate fit")

    fit = cli._fit
    monkeypatch.setattr(cli, "_fit", counted)
    for module in (cli, expansion):
        for name in ("fit_outer", "fit_inner"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert run(["tacc", "--charges", "50", "--trials", "2", "--orders", "2,8",
                "--out", str(tmp_path / "tacc.csv")]) == 0
    assert calls == [("twin", (3,), 15, 0.5), ("twin", (9,), 17, 0.5)] * 2


def test_racc_far_radius_is_allowed_at_low_order(tmp_path):
    # the bound on --radii follows the requested orders: r^(p+1) = 1e140 at p = 3
    out = tmp_path / "racc.csv"
    assert run(["racc", "--charges", "5", "--trials", "1", "--orders", "2",
                "--radii", "1e35", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in read_csv(out).splitlines()[2:]]
    assert len(rows) == 6
    assert all(np.isfinite(float(v)) for row in rows for v in row[3:])


def test_csv_writer_refuses_non_finite_cells(tmp_path):
    # a last guard: a result that left float64 is an error, and no file is written
    from quadpole.cli import _write_csv
    out = tmp_path / "out.csv"
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(quadpole.QuadpoleError, match="row 2"):
            _write_csv(str(out), ["kind", "value"], [("a", 1.0), ("b", float(bad))], "note")
    assert not out.exists()


def test_csv_writer_names_the_row_that_is_not_finite(tmp_path):
    # rows are formatted in runs of one shape: a NaN in row k, in the first
    # run or in a later one, still names row k and the row's cells
    from quadpole.cli import _write_csv
    out = tmp_path / "out.csv"
    rows = [("a", 1, 0.5, 1.0)] * 4 + [(2, 0.25)] * 3 + [("b", 2, 0.5, 1.0)] * 4
    for k in (1, 3, 6, 11):
        bad = list(rows)
        bad[k - 1] = bad[k - 1][:-1] + (float("nan"),)
        cells = ",".join(map(str, bad[k - 1][:-1]))
        with pytest.raises(quadpole.DomainError, match=r"^result row %d \(%s,nan\) " % (k, cells)):
            _write_csv(str(out), ["kind", "value"], bad, "note")
    assert not out.exists()
    _write_csv(str(out), ["kind", "value"], rows, "note")
    lines = out.read_text().splitlines()
    assert lines[2:] == [",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row)
                         for row in rows]


def test_tacc_writes_csv(tmp_path):
    out = tmp_path / "tacc.csv"
    rc = run(["tacc", "--charges", "30", "--trials", "1", "--orders", "3",
              "--out", str(out)])
    assert rc == 0
    lines = read_csv(out).splitlines()
    assert lines[1] == "kind,p,shift,cos_theta,abs_error"
    n_dirs = 86   # order-15 rule
    assert len(lines) == 2 + (3 + 4) * n_dirs


def test_tacc_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["tacc", "--charges", "30", "--trials", "2", "--orders", "3", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert read_csv(a) == read_csv(b)
    c = tmp_path / "c.csv"
    assert run(argv[:-2] + ["--seed", "8", "--out", str(c)]) == 0
    assert read_csv(a) != read_csv(c)


def test_tacc_matches_per_case_loop(tmp_path):
    # the oracle fits each moved cloud at its own center, then shifts and
    # evaluates one case at a time at the absolute targets; tacc fits the
    # cloud once and sums the shifted expansions of one kind together
    import quadpole as qp
    from quadpole.cli import INNER_SHIFTS, OUTER_SHIFTS, _invert, _sample_cloud
    seed, charges, trials, orders = 11, 200, 2, (3, 8)
    eval_rule = qp.lebedev_rule(15)
    x = 2.0 * eval_rule.points
    total, scale = {}, 0.0   # (kind, p, shift) -> summed abs error per point, in the rows' order
    for trial in range(trials):
        cloud = _sample_cloud(np.random.default_rng([seed, trial]), charges)
        inv = _invert(cloud)
        scale = max(scale, np.sum(np.abs(cloud.charges)))
        for p in orders:
            rule = qp.rule_for_expansion(p, min_order=15)
            for s in OUTER_SHIFTS:
                t = np.array([s, 0.0, 0.0])
                moved = qp.PointCharges(t + (1.0 - s) * cloud.positions, cloud.charges)
                shifted = qp.shift_outer(qp.fit_outer(moved, t, 1.0 - s, p, rule=rule),
                                         np.zeros(3), 1.0)
                err = np.abs(qp.eval_outer_potential(shifted, x) - qp.direct_potential(moved, x))
                total["outer", p, s] = total.get(("outer", p, s), 0.0) + err
            src = qp.fit_inner(inv, np.zeros(3), 0.5, p, rule=rule)
            for s in INNER_SHIFTS:
                t, r1 = np.array([s, 0.0, 0.0]), 0.5 - s
                y = t + r1 * eval_rule.points
                err = np.abs(qp.eval_inner_potential(qp.shift_inner(src, t, r1), y)
                             - qp.direct_potential(inv, y))
                total["inner", p, s] = total.get(("inner", p, s), 0.0) + err
    out = tmp_path / "tacc.csv"
    assert run(["tacc", "--seed", str(seed), "--charges", str(charges), "--trials", str(trials),
                "--orders", ",".join(str(p - 1) for p in orders), "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in read_csv(out).splitlines()[2:]]
    want = [(kind, p, s, ct, err / trials) for (kind, p, s), errs in total.items()
            for ct, err in zip(eval_rule.points[:, 0], errs)]
    assert [(kind, int(p), float(s), float(ct)) for kind, p, s, ct, _ in rows] == \
        [row[:4] for row in want]
    got = np.array([float(row[4]) for row in rows])
    assert np.all(np.abs(got - [row[4] for row in want]) <= 1e-12 * scale)


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


def test_flow_exp_files_sit_beside_the_csv(tmp_path):
    # a dot in a directory name is not the start of the file's extension
    scene = tmp_path / "scene.txt"
    scene.write_text("0 0 0 1.0 1 0 0\n")
    run_dir = tmp_path / "run.v1"
    run_dir.mkdir()
    assert run(["flow", "--scene", str(scene), "--orders", "2",
                "--out", str(run_dir / "flow")]) == 0
    assert sorted(f.name for f in run_dir.iterdir()) == ["flow", "flow_p2_sphere0.exp"]
    assert not (tmp_path / "run_p2_sphere0.exp").exists()


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


@pytest.mark.parametrize("argv", [["flow", "--scene"], ["convert", "exp2charges"]],
                         ids=["flow-scene", "convert-input"])
def test_input_that_is_not_utf8_names_the_file_and_byte(tmp_path, capsys, argv):
    src = tmp_path / "input.bin"
    src.write_bytes(b"0 0 0 1\n\x84\x00\xff")
    assert run(argv + [str(src)]) == 3
    assert "%s: not UTF-8 text at byte 8" % src in capsys.readouterr().err


def test_flow_overlapping_scene(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text("0 0 0 1 1 0 0\n1 0 0 1 1 0 0\n")
    assert run(["flow", "--scene", str(scene), "--orders", "3"]) == 3


def test_exactness(capsys):
    assert run(["exactness", "15", "15"]) == 0
    assert "max |error|" in capsys.readouterr().out
    assert run(["exactness", "14", "14"]) == 2   # no such rule


def test_exactness_degree_beyond_cap_is_config_error(capfd):
    # the probe degree stops one past the highest embedded rule, before any
    # (degree + 1, N) power table is allocated
    src = os.path.dirname(os.path.dirname(quadpole.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "quadpole.cli", "exactness", "15", "100000000"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("config error: degree must be in 0..132")
    assert "Traceback" not in done.stderr


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


def test_convert_rule_order_must_not_be_negative(tmp_path, capsys):
    # 0, the default, asks for no minimum; below 0 is a configuration error
    charges, poly = tmp_path / "charges.txt", tmp_path / "m.poly"
    charges.write_text("0.1 0.2 0.3 1\n")
    assert run(["convert", "charges2poly", str(charges), "--order", "3", "--out", str(poly)]) == 0
    assert run(["convert", "poly2exp", str(poly), "--rule-order", "0"]) == 0
    assert "rule_order=5 " in capsys.readouterr().out   # p = 3 needs degree 4
    assert run(["convert", "poly2exp", str(poly), "--rule-order", "15"]) == 0
    assert "rule_order=15 " in capsys.readouterr().out
    assert run(["convert", "poly2exp", str(poly), "--rule-order", "-1"]) == 2
    assert "--rule-order" in capsys.readouterr().err


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
    # r^(p+1) at p = 9 leaves float64, and at 1e160 already r^2
    ("racc", "--radii", "1e35"),
    ("racc", "--radii", "1e160"),
    ("racc", "--trials", "-1"),
    ("racc", "--trials", "0"),
    ("tacc", "--trials", "0"),
    ("racc", "--charges", "-3"),
    ("tacc", "--charges", "-3"),
    # a repeated value would be summed into one row, or written twice
    ("racc", "--radii", "3,3"),
    ("tacc", "--orders", "2,2"),
    ("flow", "--orders", "2,3,2"),
    ("racc", "--orders", "a"),
    ("racc", "--radii", "x"),
])
def test_experiment_rejects_bad_values(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out.csv"
    # the last occurrence of a flag wins, so the bad value overrides the default
    if command == "flow":
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0 1.0 1 0 0\n")
        argv = [command, "--scene", str(scene), flag, value]
    else:
        argv = [command, "--charges", "5", "--trials", "1", "--orders", "2,5,8", flag, value]
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: " + flag)
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["convert", "poly2exp", "{poly}", "--radius", "0"], "--radius"),
    (["convert", "poly2exp", "{poly}", "--radius", "-1"], "--radius"),
    (["convert", "poly2exp", "{poly}", "--radius", "nan"], "--radius"),
    (["convert", "poly2exp", "{poly}", "--radius", "inf"], "--radius"),
    (["convert", "charges2poly", "{charges}", "--order", "0"], "--order"),
    (["convert", "charges2poly", "{charges}", "--order", "17"], "--order"),
    (["exactness", "15", "-1"], "degree"),
])
def test_flag_values_are_config_errors(tmp_path, capsys, argv, flag):
    files = {"poly": tmp_path / "m.poly", "charges": tmp_path / "charges.txt"}
    files["poly"].write_text("quadpole-polytensor p=2\n0 0 0 0 1\n1 1 0 0 0\n1 0 1 0 0\n"
                             "1 0 0 1 0.5\n")
    files["charges"].write_text("0.1 0.2 0.3 1\n")
    out = tmp_path / "out.txt"
    argv = [a.format(**files) for a in argv]
    assert run(argv + (["--out", str(out)] if argv[0] == "convert" else [])) == 2
    assert capsys.readouterr().err.startswith("config error: " + flag + " ")
    assert not out.exists()

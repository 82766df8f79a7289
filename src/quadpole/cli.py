"""Experiment harness: radial accuracy, shift accuracy, potential flow.

Subcommands
-----------
racc       radial error of outer/inner expansions vs a direct Coulomb sum
tacc       error of shifted expansions as a function of angle to the shift
flow       multi-sphere potential flow from a scene file
exactness  quadrature exactness report for an embedded rule
convert    charges <-> polytensor <-> expansion file conversions

Randomness: every trial uses numpy's PCG64 generator seeded with
SeedSequence([seed, trial_index]), so runs are reproducible and
trial-parallelizable.  CSV outputs are byte-identical for identical
seed and configuration.
"""
import argparse
import sys

import numpy as np

from . import __version__
from .bem import SphereBoundary, boundary_error, parse_scene, solve_potential_flow
from .errors import CapacityError, QuadpoleError, UnsupportedOrderError
from .expansion import (
    PointCharges,
    direct_potential,
    eval_inner_potential,
    eval_outer_potential,
    eval_point_charge_potential,
    expansion_from_text,
    expansion_to_text,
    fit_inner,
    fit_outer,
)
from .quadrature import lebedev_rule, rule_for_expansion, verify_exactness
from .tensors import (
    expansion_from_polytensor,
    moments_from_charges,
    polytensor_from_text,
    polytensor_to_text,
)
from .translation import shift_inner, shift_outer

CUBE_HALF = np.sqrt(3.0) / 3.0   # cube inscribed in the unit sphere
DEFAULT_RADII = np.geomspace(1.5, 30.0, 16)
OUTER_SHIFTS = (0.2, 0.6, 0.8)
INNER_SHIFTS = (0.1, 0.2, 0.3, 0.4)


def _trial_rng(seed, trial):
    return np.random.default_rng([seed, trial])


def _sample_cloud(rng, count):
    pos = rng.uniform(-CUBE_HALF, CUBE_HALF, (count, 3))
    q = rng.uniform(-1.0, 1.0, count)
    return PointCharges(pos, q)


def _invert(sources):
    """Map each source y -> y / |y|^2, placing the cloud outside the sphere."""
    r2 = np.sum(sources.positions ** 2, axis=1)
    return PointCharges(sources.positions / r2[:, None], sources.charges)


def _resolve_orders(args):
    vals = [int(v) for v in args.orders.split(",")]
    if args.interpretation == "p-1":
        vals = [v + 1 for v in vals]
    if any(v < 1 for v in vals):
        raise ConfigError("expansion orders must be positive")
    return vals


def _check_counts(args):
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    if args.charges < 0:
        raise ConfigError("--charges must be non-negative")


class ConfigError(Exception):
    pass


def _write_csv(path, header_cols, rows, args_note):
    lines = ["# quadpole %s %s" % (__version__, args_note), ",".join(header_cols)]
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_racc(args):
    orders = _resolve_orders(args)
    _check_counts(args)
    radii = np.array([float(v) for v in args.radii.split(",")]) if args.radii else DEFAULT_RADII
    # at r = 1 evaluation points fall on the fit rule's points, where the
    # point-charge sum is singular
    if not np.all(np.isfinite(radii) & (radii > 1.0)):
        raise ConfigError("--radii must be finite and greater than 1")
    eval_rule = lebedev_rule(args.rule_order)
    acc = {}   # (kind, p, r) -> summed mean abs error
    for trial in range(args.trials):
        rng = _trial_rng(args.seed, trial)
        cloud = _sample_cloud(rng, args.charges)
        inv = _invert(cloud) if len(cloud) else cloud
        # the direct sums do not depend on the order: one per radius and trial
        xs = [r * eval_rule.points for r in radii]
        ys = [(1.0 / r) * eval_rule.points for r in radii]
        exacts = [direct_potential(cloud, x) for x in xs]
        exacts_i = [direct_potential(inv, y) for y in ys]
        for p in orders:
            rule = rule_for_expansion(p, min_order=args.rule_order)
            outer = fit_outer(cloud, np.zeros(3), 1.0, p, rule=rule)
            inner = fit_inner(inv, np.zeros(3), 1.0, p, rule=rule)
            for r, x, y, exact, exact_i in zip(radii, xs, ys, exacts, exacts_i):
                series = eval_outer_potential(outer, x)
                points = eval_point_charge_potential(outer, x)
                acc_add(acc, ("outer", p, r), np.mean(np.abs(series - exact)))
                acc_add(acc, ("outer_points", p, r), np.mean(np.abs(points - exact)))
                acc_add(acc, ("outer_diff", p, r), np.mean(np.abs(series - points)))
                series_i = eval_inner_potential(inner, y)
                points_i = eval_point_charge_potential(inner, y)
                acc_add(acc, ("inner", p, 1.0 / r), np.mean(np.abs(series_i - exact_i)))
                acc_add(acc, ("inner_points", p, 1.0 / r), np.mean(np.abs(points_i - exact_i)))
                acc_add(acc, ("inner_diff", p, 1.0 / r), np.mean(np.abs(series_i - points_i)))
    rows = []
    for (kind, p, r), total in acc.items():
        err = total / args.trials
        pref = err * r ** (p + 1) if kind.startswith("outer") else err * r ** (-p)
        rows.append((kind, p, float(r), float(err), float(pref)))
    note = "seed=%d charges=%d trials=%d orders=%s rule_order=%d" % (
        args.seed, args.charges, args.trials, orders, args.rule_order)
    _write_csv(args.out, ["kind", "p", "r", "mean_error", "scaled_prefactor"], rows, note)
    return 0


def acc_add(acc, key, value):
    """Add a scalar or an array to the running total under key."""
    acc[key] = acc.get(key, 0.0) + value


def cmd_tacc(args):
    orders = _resolve_orders(args)
    _check_counts(args)
    eval_rule = lebedev_rule(args.rule_order)
    cos_theta = eval_rule.points[:, 0]   # shifts are along +x
    acc = {}
    for trial in range(args.trials):
        rng = _trial_rng(args.seed, trial)
        cloud = _sample_cloud(rng, args.charges)
        inv = _invert(cloud) if len(cloud) else cloud
        for p in orders:
            rule = rule_for_expansion(p, min_order=args.rule_order)
            for s in OUTER_SHIFTS:
                scale = 1.0 - s
                t = np.array([s, 0.0, 0.0])
                moved = PointCharges(t + scale * cloud.positions, cloud.charges) \
                    if len(cloud) else cloud
                src_exp = fit_outer(moved, t, scale, p, rule=rule)
                shifted = shift_outer(src_exp, np.zeros(3), 1.0)
                x = 2.0 * eval_rule.points
                err = np.abs(eval_outer_potential(shifted, x) - direct_potential(moved, x))
                acc_add(acc, ("outer", p, s), err)
            src_exp = fit_inner(inv, np.zeros(3), 0.5, p, rule=rule)
            for s in INNER_SHIFTS:
                t = np.array([s, 0.0, 0.0])
                r1 = 0.5 - s
                shifted = shift_inner(src_exp, t, r1)
                y = t + r1 * eval_rule.points
                err = np.abs(eval_inner_potential(shifted, y) - direct_potential(inv, y))
                acc_add(acc, ("inner", p, s), err)
    rows = []
    for (kind, p, s), total in acc.items():
        err = total / args.trials
        for ct, e in zip(cos_theta, err):
            rows.append((kind, p, float(s), float(ct), float(e)))
    note = "seed=%d charges=%d trials=%d orders=%s rule_order=%d" % (
        args.seed, args.charges, args.trials, orders, args.rule_order)
    _write_csv(args.out, ["kind", "p", "shift", "cos_theta", "abs_error"], rows, note)
    return 0


def cmd_flow(args):
    orders = _resolve_orders(args)
    with open(args.scene) as fh:
        scene = parse_scene(fh.read())
    ref = lebedev_rule(59)
    rows = []
    for p in orders:
        spheres = [SphereBoundary.make(c, R, v, p) for c, R, v in scene]
        sol = solve_potential_flow(spheres)
        errs = boundary_error(sol, spheres, ref)
        for i, (e, resid) in enumerate(zip(errs, sol.residual_report)):
            rows.append((p, i, float(spheres[i].radius), float(e), float(resid)))
        if args.out != "-":
            for i, exp in enumerate(sol.expansions):
                path = "%s_p%d_sphere%d.exp" % (args.out.rsplit(".", 1)[0], p, i)
                with open(path, "w") as fh:
                    fh.write(expansion_to_text(exp))
    note = "scene=%s orders=%s" % (args.scene, orders)
    _write_csv(args.out, ["p", "sphere", "radius", "boundary_error", "fit_residual"],
               rows, note)
    return 0


def cmd_exactness(args):
    rule = lebedev_rule(args.rule_order)
    err = verify_exactness(rule, args.degree)
    print("rule order %d: %d points, max |error| %.3e over monomials of degree <= %d"
          % (args.rule_order, len(rule), err, args.degree))
    return 0


def cmd_convert(args):
    with open(args.input) as fh:
        text = fh.read()
    if args.direction == "charges2poly":
        rows = np.loadtxt(args.input).reshape(-1, 4)
        pt = moments_from_charges(PointCharges(rows[:, :3], rows[:, 3]), args.order)
        out = polytensor_to_text(pt)
    elif args.direction == "poly2exp":
        pt = polytensor_from_text(text)
        rule = rule_for_expansion(pt.order, min_order=args.rule_order or 0)
        out = expansion_to_text(expansion_from_polytensor(pt, args.radius, rule))
    elif args.direction == "exp2charges":
        exp = expansion_from_text(text)
        lines = ["%.17g %.17g %.17g %.17g" % (p[0], p[1], p[2], w)
                 for p, w in zip(exp.surface_points, exp.surface_weights)]
        out = "\n".join(lines) + "\n"
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError("unknown direction %r" % args.direction)
    if args.out == "-":
        sys.stdout.write(out)
    else:
        with open(args.out, "w") as fh:
            fh.write(out)
    return 0


def _add_experiment_flags(p):
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("--charges", type=int, default=4000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--orders", default="2,5,8",
                   help="comma-separated expansion orders (see --interpretation)")
    p.add_argument("--interpretation", choices=["p", "p-1"], default="p-1",
                   help="read --orders as the order p itself, or as the "
                        "maximum retained degree p-1 (default)")
    p.add_argument("--rule-order", type=int, dest="rule_order", default=15)
    p.add_argument("--out", default="-")


def build_parser():
    ap = argparse.ArgumentParser(prog="quadpole", description=__doc__.split("\n")[0])
    ap.add_argument("--version", action="version", version="quadpole " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("racc", help="radial accuracy of outer/inner expansions")
    _add_experiment_flags(p)
    p.add_argument("--radii", default="", help="comma-separated evaluation radii")
    p.set_defaults(func=cmd_racc)

    p = sub.add_parser("tacc", help="accuracy of shifted expansions")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_tacc)

    p = sub.add_parser("flow", help="multi-sphere potential flow")
    p.add_argument("--scene", required=True, help="scene file: cx cy cz R vx vy vz per line")
    p.add_argument("--orders", default="2,3,4,5,6,7,8")
    p.add_argument("--interpretation", choices=["p", "p-1"], default="p")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("exactness", help="verify quadrature exactness")
    p.add_argument("rule_order", type=int)
    p.add_argument("degree", type=int)
    p.set_defaults(func=cmd_exactness)

    p = sub.add_parser("convert", help="file conversions between representations")
    p.add_argument("direction", choices=["charges2poly", "poly2exp", "exp2charges"])
    p.add_argument("input")
    p.add_argument("--order", type=int, default=4, help="polytensor order for charges2poly")
    p.add_argument("--radius", type=float, default=1.0, help="sphere radius for poly2exp")
    p.add_argument("--rule-order", type=int, dest="rule_order", default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_convert)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, UnsupportedOrderError, CapacityError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except QuadpoleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
import math
import os
import sys
from collections import defaultdict
from itertools import chain, groupby

import numpy as np
from numpy.random import default_rng   # numpy 2 would load it lazily, in the first trial

from . import __version__
from .bem import SphereBoundary, boundary_error, parse_scene, solve_potential_flow
from .errors import CapacityError, DomainError, QuadpoleError, UnsupportedOrderError
from .expansion import (
    PointCharges,
    SurfaceExpansion,
    _coulomb_rays,
    _fit,
    _lines,
    _numbers,
    _sums_on_rule,
    direct_potential,
    expansion_from_text,
    expansion_to_text,
    fit_inner,
    fit_outer,
)
from .quadrature import MAX_PROBE_DEGREE, lebedev_rule, rule_for_expansion, verify_exactness
from .tensors import (
    MAX_ORDER,
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


def _sample_cloud(rng, count):
    pos = rng.uniform(-CUBE_HALF, CUBE_HALF, (count, 3))
    q = rng.uniform(-1.0, 1.0, count)
    return PointCharges(pos, q)


def _invert(sources):
    """Map each source y -> y / |y|^2, placing the cloud outside the sphere."""
    r2 = np.sum(sources.positions ** 2, axis=1)
    return PointCharges(sources.positions / r2[:, None], sources.charges)


def _list_flag(flag, text, kind):
    """Values of a comma-separated list flag, none repeated, or a ConfigError naming it."""
    try:
        vals = [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError("%s must be a comma-separated list of %s values, not %r"
                          % (flag, kind.__name__, text)) from None
    if len(set(vals)) < len(vals):
        raise ConfigError("%s repeats a value in %r" % (flag, text))
    return vals


def _resolve_orders(args, offset):
    vals = [v + offset for v in _list_flag("--orders", args.orders, int)]
    if any(v < 1 for v in vals):
        raise ConfigError("--orders must give positive expansion orders")
    return vals


def _check_counts(args):
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    if args.charges < 0:
        raise ConfigError("--charges must be non-negative")


class ConfigError(Exception):
    pass


def _read(path):
    """The text of the file at path, or a DomainError naming the file and the first byte
    that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError("%s: not UTF-8 text at byte %d" % (path, exc.start)) from exc


def _write(path, text):
    """Write text to the file at path, or to stdout when path is "-"."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path, header_cols, rows, args_note):
    """Write the rows as CSV under a note line, or raise a DomainError, writing
    nothing, if a float cell is not finite.

    Each run of consecutive rows with the same cell types is formatted by one
    %-string over its flattened cells, floats as %.17g and the rest as str,
    and its float cells are checked in one pass; the row that holds a value
    that is not finite is looked for only then, to name it.
    """
    parts = ["# quadpole %s %s\n%s\n" % (__version__, args_note, ",".join(header_cols))]
    done = 0
    for types, run in groupby(rows, key=lambda row: tuple(map(type, row))):
        run = list(run)
        floats = [i for i, t in enumerate(types) if issubclass(t, float)]
        cells = list(chain.from_iterable(run))
        if not all(map(math.isfinite, chain.from_iterable(cells[i::len(types)] for i in floats))):
            n, row = next((n, row) for n, row in enumerate(run, start=done + 1)
                          if not all(math.isfinite(row[i]) for i in floats))
            raise DomainError("result row %d (%s) holds a value that is not finite"
                              % (n, ",".join(map(str, row))))
        line = ",".join("%.17g" if i in floats else "%s" for i in range(len(types))) + "\n"
        parts.append(line * len(run) % tuple(cells))
        done += len(run)
    _write(path, "".join(parts))


def cmd_racc(args):
    orders = _resolve_orders(args, 1)   # --orders lists the degrees p-1
    _check_counts(args)
    radii = np.array(_list_flag("--radii", args.radii, float)) if args.radii else DEFAULT_RADII
    # at r = 1 evaluation points fall on the fit rule's points, where the
    # point-charge sum is singular
    if not np.all(np.isfinite(radii) & (radii > 1.0)):
        raise ConfigError("--radii must be finite and greater than 1")
    # the errors are scaled by r^(p+1) and r^-p, and the sums take squared
    # distances and powers of r and 1/r up to p: keep r^(p+1) and its
    # reciprocal normal float64 numbers
    r_max = np.finfo(float).tiny ** (-1.0 / (max(orders) + 1))
    if np.any(radii >= r_max):
        raise ConfigError("--radii must be below %.6g at p = %d, where r^(p+1) leaves float64"
                          % (r_max, max(orders)))
    eval_rule = lebedev_rule(args.rule_order)
    directions = eval_rule.points
    shared = defaultdict(list)   # rule -> the orders fitted on it
    for p in orders:
        shared[rule_for_expansion(p, min_order=args.rule_order)].append(p)
    kinds = ("outer", "outer_points", "outer_diff", "inner", "inner_points", "inner_diff")
    acc = defaultdict(float)   # (kind, p, r) -> summed mean abs error
    for trial in range(args.trials):
        cloud = _sample_cloud(default_rng([args.seed, trial]), args.charges)
        inv = _invert(cloud)
        # Kelvin inversion: |x/|x|^2 - s/|s|^2| = |x - s| / (|x| |s|), so the
        # inverted cloud's potential at u/r is r times that of the charges
        # q|s| at r u; one sum takes both clouds, and no sum depends on p
        q = cloud.charges
        both = _coulomb_rays(directions, radii, cloud.positions,
                             np.column_stack([q, q * np.linalg.norm(cloud.positions, axis=1)]))
        exact, exact_i = both[..., 0], radii[:, None] * both[..., 1]
        # the orders that share a rule share one fit of each cloud and one
        # point-charge sum of each kind, with one charge column per order
        fits = {}   # p -> outer, inner and their point-charge sums
        for rule, ps in shared.items():
            outers = _fit("outer", cloud, np.zeros(3), 1.0, ps, rule)
            inners = _fit("inner", inv, np.zeros(3), 1.0, ps, rule)
            points = _coulomb_rays(directions, radii, rule.points,
                                   np.column_stack([e.surface_weights for e in outers]))
            points_i = _coulomb_rays(directions, 1.0 / radii, rule.points,
                                     np.column_stack([e.surface_weights for e in inners]))
            for k, p in enumerate(ps):
                fits[p] = outers[k], inners[k], points[..., k], points_i[..., k]
        for p in orders:
            outer, inner, points, points_i = fits[p]
            # L_n(s, r u) = r^-(n+1) L_n(s, u) and L_n(u / r, s) = r^-n L_n(u, s):
            # each series is summed once, at the directions, with one set of
            # per-degree coefficients for each radius
            degrees = np.arange(p)[:, None]
            series = _sums_on_rule([outer], eval_rule, 1.0, radii ** -(degrees + 1.0))[:, 0]
            series_i = _sums_on_rule([inner], eval_rule, 1.0, radii ** -degrees)[:, 0]
            means = np.mean(np.abs([series - exact, points - exact, series - points,
                                    series_i - exact_i, points_i - exact_i,
                                    series_i - points_i]), axis=-1)   # (kind, radius)
            for r, errs in zip(radii, means.T):
                for kind, key, err in zip(kinds, (r,) * 3 + (1.0 / r,) * 3, errs):
                    acc[kind, p, key] += err
    rows = []
    for (kind, p, r), total in acc.items():
        err = total / args.trials
        pref = err * r ** (p + 1) if kind.startswith("outer") else err * r ** (-p)
        rows.append((kind, p, float(r), float(err), float(pref)))
    note = "seed=%d charges=%d trials=%d orders=%s rule_order=%d" % (
        args.seed, args.charges, args.trials, orders, args.rule_order)
    _write_csv(args.out, ["kind", "p", "r", "mean_error", "scaled_prefactor"], rows, note)
    return 0


def cmd_tacc(args):
    orders = _resolve_orders(args, 1)   # --orders lists the degrees p-1
    _check_counts(args)
    eval_rule = lebedev_rule(args.rule_order)
    cos_theta = eval_rule.points[:, 0]   # shifts are along +x
    x = 2.0 * eval_rule.points
    acc = defaultdict(float)   # (kind, p, shift) -> summed abs error per point
    for trial in range(args.trials):
        cloud = _sample_cloud(default_rng([args.seed, trial]), args.charges)
        inv = _invert(cloud)
        # the direct sums do not depend on the order: one per shift and trial
        outer_cases, inner_cases = [], []
        for s in OUTER_SHIFTS:
            t = np.array([s, 0.0, 0.0])
            moved = PointCharges(t + (1.0 - s) * cloud.positions, cloud.charges)
            outer_cases.append((s, t, direct_potential(moved, x)))
        for s in INNER_SHIFTS:
            t, r1 = np.array([s, 0.0, 0.0]), 0.5 - s
            inner_cases.append((s, t, r1, direct_potential(inv, t + r1 * eval_rule.points)))
        for p in orders:
            rule = rule_for_expansion(p, min_order=args.rule_order)
            # t + (1 - s) cloud seen from t at radius 1 - s is the cloud itself,
            # so one fit of the cloud gives the weights of every outer case.
            # Each case is evaluated at its center + rho R rhat_j, with rho = 2
            # (x) or 1 (y): the shifted expansions of one kind are one sum
            # (_sums_on_rule), made one at a time and kept only as weights
            unit = fit_outer(cloud, np.zeros(3), 1.0, p, rule=rule).surface_weights
            shifted = (shift_outer(SurfaceExpansion(t, 1.0 - s, rule, unit, p, "outer"),
                                   np.zeros(3), 1.0) for s, t, _ in outer_cases)
            for (s, _, exact), values in zip(outer_cases, _sums_on_rule(shifted, eval_rule, 2.0)):
                acc["outer", p, s] += np.abs(values - exact)
            del unit   # not held through the inner shifts, where the pass peaks
            src_exp = fit_inner(inv, np.zeros(3), 0.5, p, rule=rule)
            shifted = (shift_inner(src_exp, t, r1) for _, t, r1, _ in inner_cases)
            for (s, *_, exact), values in zip(inner_cases, _sums_on_rule(shifted, eval_rule, 1.0)):
                acc["inner", p, s] += np.abs(values - exact)
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
    orders = _resolve_orders(args, 0)
    scene = parse_scene(_read(args.scene))
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
                path = "%s_p%d_sphere%d.exp" % (os.path.splitext(args.out)[0], p, i)
                _write(path, expansion_to_text(exp))
    note = "scene=%s orders=%s" % (args.scene, orders)
    _write_csv(args.out, ["p", "sphere", "radius", "boundary_error", "fit_residual"],
               rows, note)
    return 0


def cmd_exactness(args):
    if not 0 <= args.degree <= MAX_PROBE_DEGREE:
        raise ConfigError("degree must be in 0..%d, one past the highest embedded rule"
                          % MAX_PROBE_DEGREE)
    rule = lebedev_rule(args.rule_order)
    err = verify_exactness(rule, args.degree)
    print("rule order %d: %d points, max |error| %.3e over monomials of degree <= %d"
          % (args.rule_order, len(rule), err, args.degree))
    return 0


def cmd_convert(args):
    if args.direction == "charges2poly" and not 1 <= args.order <= MAX_ORDER:
        raise ConfigError("--order must be in 1..%d" % MAX_ORDER)
    if args.direction == "poly2exp" and not (np.isfinite(args.radius) and args.radius > 0.0):
        raise ConfigError("--radius must be finite and positive")
    if args.rule_order < 0:
        raise ConfigError("--rule-order must be >= 0 (0: the smallest rule the order needs)")
    text = _read(args.input)
    if args.direction == "charges2poly":
        rows = np.reshape([_numbers("charges", n, f, 4) for n, f in _lines(text)], (-1, 4))
        charges = PointCharges(rows[:, :3], rows[:, 3])
        out = polytensor_to_text(moments_from_charges(charges, args.order))
    elif args.direction == "poly2exp":
        pt = polytensor_from_text(text)
        rule = rule_for_expansion(pt.order, min_order=args.rule_order or None)
        out = expansion_to_text(expansion_from_polytensor(pt, args.radius, rule))
    else:   # exp2charges
        exp = expansion_from_text(text)
        lines = ["%.17g %.17g %.17g %.17g" % (p[0], p[1], p[2], w)
                 for p, w in zip(exp.surface_points, exp.surface_weights)]
        out = "\n".join(lines) + "\n"
    _write(args.out, out)
    return 0


def _add_experiment_flags(p):
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("--charges", type=int, default=4000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--orders", default="2,5,8",
                   help="comma-separated maximum retained degrees p-1")
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
    p.add_argument("--orders", default="2,3,4,5,6,7,8",
                   help="comma-separated expansion orders p")
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

"""Time the library's kernel calls at the shapes of the benchmark workloads, in two checkouts.

    python3 tools/kernels.py PARENT [--control] > kernels.json

Each call is made at a shape that a workload of perfbench/workloads.py
makes, with fixed data:

- fit: a p = 30 outer fit of 500 charges in tacc's cube (tacc_highp);
- shift_axial: an outer shift at p = 30 along x, as tacc makes;
- shift_generic: an outer shift at p = 30 by a vector that no symmetry of
  the rule fixes;
- eval: an outer p = 30 evaluation at 500 targets;
- racc_series: racc's series sum at p = 9, 16 radii on the 86-point rule.

PROCESSES pairs of processes run, one in PARENT and one in this checkout,
in tools/pair.py's alternating order, each with one BLAS thread and its
own src/ on the path.  A process makes each call once, then CALLS times,
and reports the median time of the CALLS calls.  --control runs this
checkout against itself, in place of PARENT, and so reads the noise floor.

For each call it prints to standard error tools/pair.py's summary of the
per-process medians, in seconds: the parent's median and quartiles, this
checkout's median, its wins and the position effect.  Standard output gets
the same summaries and every per-process median as one JSON object.
"""
import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from pair import alternate, last_json, log_table, summary

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROCESSES = 5   # per checkout
CALLS = 60      # timed calls of each kind per process


def _calls():
    """Zero-argument callables for the calls, on the quadpole found on sys.path."""
    import numpy as np

    import quadpole as qp
    from quadpole.cli import DEFAULT_RADII, _sample_cloud
    from quadpole.expansion import _sums_on_rule

    cloud = _sample_cloud(np.random.default_rng([20240817, 0]), 500)
    origin = np.zeros(3)
    rule = qp.rule_for_expansion(30, min_order=15)
    fit = qp.fit_outer(cloud, origin, 1.0, 30, rule=rule)
    # tacc's first outer case: the fit's weights about (s, 0, 0), radius 1 - s
    axial = qp.SurfaceExpansion(np.array([0.2, 0.0, 0.0]), 0.8, rule, fit.surface_weights, 30,
                                "outer")
    d = np.random.default_rng(1).standard_normal((500, 3))
    targets = d * (np.random.default_rng(2).uniform(1.5, 3.0, 500)
                   / np.linalg.norm(d, axis=1))[:, None]
    eval_rule = qp.lebedev_rule(15)
    small = qp.fit_outer(cloud, origin, 1.0, 9, rule=qp.rule_for_expansion(9, min_order=15))
    radii = DEFAULT_RADII ** -(np.arange(9)[:, None] + 1.0)
    return {
        "fit": lambda: qp.fit_outer(cloud, origin, 1.0, 30, rule=rule),
        "shift_axial": lambda: qp.shift_outer(axial, origin, 1.0),
        "shift_generic": lambda: qp.shift_outer(fit, np.array([0.3, -0.1, 0.2]), 1.6),
        "eval": lambda: qp.eval_outer_potential(fit, targets),
        "racc_series": lambda: _sums_on_rule([small], eval_rule, 1.0, radii),
    }


def _child():
    """Print {call: median seconds of CALLS calls, after one}."""
    medians = {}
    for name, call in _calls().items():
        call()
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        medians[name] = statistics.median(times)
    print(json.dumps(medians))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("--control", action="store_true",
                    help="run this checkout against itself; PARENT is not run")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        _child()
        return 0
    if args.parent is None and not args.control:
        ap.error("PARENT is required without --control")
    parent = ROOT if args.control else args.parent.resolve()

    def run(side):
        checkout = parent if side == "parent" else ROOT
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
                   **{var: "1" for var in BLAS_VARS})
        return last_json([sys.executable, str(Path(__file__).resolve()), "--child"], checkout,
                         env)

    runs, first = alternate(PROCESSES, run)
    report = {"description": "median of %d calls after one, per process, one BLAS thread; "
                             "%d processes per checkout, alternating which runs first; %s; "
                             "summarised by tools/pair.py's summary, in seconds"
                             % (CALLS, PROCESSES,
                                "this checkout against itself (--control)" if args.control
                                else "parent %s and this checkout" % parent),
              "control": args.control, "first": first, "calls": {}}
    table = {name: summary([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                           first, "lower") for name in runs["parent"][0]}
    log_table(table)
    for name, s in table.items():
        report["calls"][name] = {**s, "parent": [r[name] for r in runs["parent"]],
                                 "change": [r[name] for r in runs["change"]]}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""quadpole benchmark: three CLI workloads, timed end to end and traced by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {racc,tacc_highp,flow} --seed N \\
        --seconds S --trace {0,1}

Every run first makes one check pass at the default seed 20240817 under
tracemalloc: its output is compared with the stored reference, it gives
``peak_mem_mb`` and ``err_max``, and it warms the rule cache.  Then:

--trace 0  measures ``setup_s`` in fresh interpreters and times untraced
           passes at ``--seed`` for ``--seconds`` (at least five passes),
           and prints the end-to-end metrics.
--trace 1  alternates untraced and traced passes at ``--seed`` for
           ``--seconds``, and prints the per-layer metrics (medians over
           the traced passes) with the tracing overhead.

Every pass runs in its own temporary directory under ``.perfbench/`` and
is checked; a pass that fails a check counts as a failed operation.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, the environment stamp
and (with --trace 1) the spans are also written to ``.perfbench/``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import env

SETUP_PROBES = 9          # fresh interpreters per run; setup_s is their median
MIN_TIMED_PASSES = 5      # the median of fewer long passes (tacc_highp) drifts too much


def median_and_quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure_setup(workload):
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    probe = os.path.join(env.ROOT, "perfbench", "setup_probe.py")
    argv = [sys.executable, probe, env.SRC] + [str(o) for o in workload.rule_orders]
    done = subprocess.run(argv, cwd=env.ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Run:
    """Pass accounting and report lines for one benchmark run."""

    def __init__(self, W, workload, seed):
        self.W, self.workload, self.seed = W, workload, seed
        self.structure = W.load_reference(workload, W.DEFAULT_SEED)
        if self.structure is None:
            raise RuntimeError("no stored reference for %s" % workload.name)
        self.reference = (W.load_reference(workload, seed) if workload.seeded
                          else self.structure)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, seed, output, reference):
        problems, table = self.W.check(self.workload, output, self.structure, reference)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"pass": label, "seed": seed, "problems": problems})
            print("FAILED %s pass (seed %d): %s" % (label, seed, "; ".join(problems[:5])))
        return problems, table

    def check_pass(self):
        """Reference pass at the default seed: peak memory, err_max, warm-up."""
        W = self.W
        wall, _, peak, out = W.run_pass(self.workload, W.DEFAULT_SEED, env.WORK_DIR,
                                        measure_memory=True)
        problems, table = self.record("check", W.DEFAULT_SEED, out, self.structure)
        # a pass whose CSV does not parse reports the largest float (valid JSON)
        err = W.err_max(table, self.workload) if table is not None else sys.float_info.max
        print("check pass (seed %d, tracemalloc on): %s, %.3f s, peak %.1f MB, err_max %.6g"
              % (W.DEFAULT_SEED, "FAILED" if problems else "matches the reference",
                 wall, peak / 1e6, err))
        return peak / 1e6, err

    def measured_pass(self, label, tracer=None):
        """One pass at the run's seed: wall seconds, CPU seconds, whether it passed.

        With a tracer, its wrappers are installed for the pass only and are
        removed before the output is checked.
        """
        if tracer is not None:
            tracer.install()
        try:
            wall, cpu, _, out = self.W.run_pass(self.workload, self.seed, env.WORK_DIR,
                                                tracer=tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        problems, table = self.record(label, self.seed, out, self.reference)
        if self.reference is None and not problems:
            # no stored reference for this seed: later passes must repeat this one
            self.reference = self.W.Reference(table)
        return wall, cpu, not problems


def end_to_end(run, seconds):
    # set-up probes are spread over the run, one before each pass, so that a
    # burst of load from elsewhere on the machine skews few of them
    setup = [measure_setup(run.workload)]
    peak_mb, err = run.check_pass()
    passes = []     # (wall, cpu, passed)
    t_start = time.perf_counter()
    while len(passes) < MIN_TIMED_PASSES or time.perf_counter() - t_start < seconds:
        if len(setup) < SETUP_PROBES:
            setup.append(measure_setup(run.workload))
        passes.append(run.measured_pass("timed"))
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(run.workload))
    good = [p for p in passes if p[2]] or passes
    walls, cpus = [p[0] for p in good], [p[1] for p in good]
    for name, values in (("wall_s", walls), ("cpu_s", cpus)):
        med, q1, q3 = median_and_quartiles(values)
        print("%s: median %.4f s, quartiles %.4f-%.4f s, %d samples (min %.4f, max %.4f)"
              % (name, med, q1, q3, len(values), min(values), max(values)))
    setup_med = statistics.median(setup)
    print("setup_s: median %.4f s over %d fresh interpreters (min %.4f, max %.4f)"
          % (setup_med, len(setup), min(setup), max(setup)))
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "setup_s": {"value": setup_med, "unit": "s"},
        "peak_mem_mb": {"value": peak_mb, "unit": "MB"},
        "err_max": {"value": err, "unit": "1"},
    }
    detail = {"wall_s_samples": [p[0] for p in passes],
              "cpu_s_samples": [p[1] for p in passes], "setup_s_samples": setup}
    return metrics, detail


def per_layer(run, seconds, layer_specs):
    from tracer import Tracer, layer_metrics
    import quadpole.cli
    import quadpole.expansion

    run.check_pass()
    tracer = Tracer()
    untraced, traced, records = [], [], []
    t_start = time.perf_counter()
    while not (untraced and traced) or time.perf_counter() - t_start < seconds:
        if len(traced) < len(untraced):
            traced.append(run.measured_pass("traced", tracer=tracer)[0])
            records.append(tracer.record)
        else:
            left = tracer.installed_sites()
            if left or quadpole.cli.fit_outer is not quadpole.expansion.fit_outer:
                raise RuntimeError("tracing wrappers still installed: %s" % left)
            untraced.append(run.measured_pass("untraced")[0])
    overhead = statistics.median(traced) - statistics.median(untraced)
    per_pass = [layer_metrics(rec) for rec in records]
    # self-test: the layers' self times add up to the traced wall time
    for rec, m, wall in zip(records, per_pass, traced):
        gap = abs(m["self_s_sum"] - wall)
        nest = rec.nesting_errors()
        if gap > max(abs(overhead), 1e-3 * wall) or nest:
            run.failed += 1
            run.problems.append({"pass": "traced", "seed": run.seed, "problems": [
                "tracer self-test: self times sum to %.4f s, traced wall %.4f s, "
                "%d mis-nested spans" % (m["self_s_sum"], wall, nest)]})
    print("tracer self-test: sum of self_s %.4f s vs traced wall %.4f s (first pass);"
          " wrappers absent in %d untraced passes"
          % (per_pass[0]["self_s_sum"], traced[0], len(untraced)))
    print("tracing overhead: traced wall_s %.4f s - untraced wall_s %.4f s = %.4f s "
          "(%d traced, %d untraced passes)" % (statistics.median(traced),
                                               statistics.median(untraced), overhead,
                                               len(traced), len(untraced)))
    if per_pass[0]["quadrature.rule_orders"] != sorted(run.workload.rule_orders):
        print("note: the pass loaded rules %s, but setup_s loads %s"
              % (per_pass[0]["quadrature.rule_orders"], sorted(run.workload.rule_orders)))
    metrics = {}
    for spec in layer_specs:
        name = spec["name"]
        if name == "trace.wall_s":
            value = statistics.median(traced)
        elif name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    detail = {
        "untraced_wall_s": untraced, "traced_wall_s": traced,
        "rule_orders": per_pass[0]["quadrature.rule_orders"],
        "declared_rule_orders": list(run.workload.rule_orders),
    }
    spans = [{"pass": i, "spans": rec.spans} for i, rec in enumerate(records)]
    return metrics, detail, spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    err = env.prepare()
    if err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(W.WORKLOADS)), file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload]
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    stamp = env.stamp()
    print("env: " + " ".join("%s=%s" % kv for kv in stamp.items()))
    print("workload %s: quadpole %s" % (workload.name,
                                        " ".join(workload.argv(args.seed, "OUT.csv"))))
    if not workload.seeded:
        print("(the flow scene is fixed; --seed %d does not change its input)" % args.seed)
    run = Run(W, workload, args.seed)
    print("reference for seed %d: %s" % (args.seed, "stored" if run.reference is not None
                                         else "none stored; passes must repeat the first"))

    spans = None
    if args.trace:
        metrics, detail, spans = per_layer(run, args.seconds, spec["per_layer"])
    else:
        metrics, detail = end_to_end(run, args.seconds)
    for name, m in metrics.items():
        print("metric %s = %.6g %s" % (name, m["value"], m["unit"]))
    print("passes: %d attempted, %d failed" % (run.attempted, run.failed))

    stem = os.path.join(env.WORK_DIR, "%s-seed%d-trace%d" % (workload.name, args.seed,
                                                             args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "env": stamp, "metrics": metrics, "detail": detail,
                   "attempted": run.attempted, "failed": run.failed,
                   "problems": run.problems}, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "passes": spans}, fh)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of another checkout and this one, in alternating order.

    python3 tools/pair.py PARENT [--pairs N] [--seconds S] [--seed K]
        [--workload W ...] [--control] > BENCH_<pr>.json

For each workload (default: all of perfbench/workloads.py), runs
``perfbench/run.py --workload W --seed K --seconds S --trace 0`` N times
(default 10) in PARENT and N times in this checkout, S the run_seconds
of BENCHMARK.json unless given, one run at a time, the parent
first in even pairs and this checkout first in odd ones, so that each
runs first equally often.  --control runs this checkout against itself,
in place of PARENT, and so reads the noise floor of the machine.

For each workload and end-to-end metric of BENCHMARK.json it prints to
standard error the parent's median and quartiles, this checkout's median,
the pairs this checkout wins (better by the metric's direction), ties and
pairs, and the position effect: the median over pairs of the first run's
value minus the second's, which reads the order, not the code.  Standard
output gets the same summaries and the last JSON line of every run, as
one JSON object in the fields of BENCH_36.json.  Exits 1 if any run is
not correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the workload names)
from run import median_and_quartiles  # noqa: E402


def last_json(argv, checkout, env):
    """The last line of standard output of argv run in checkout, as JSON; exits if argv fails."""
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit("%s: %s failed:\n%s" % (checkout, " ".join(argv), done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run(checkout, workload, seed, seconds):
    """The last JSON line of one perfbench/run.py --trace 0 run in checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    return last_json(argv, checkout, {k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


def alternate(pairs, run):
    """run("parent") and run("change"), pairs times each, the parent first in even pairs.

    Returns ({side: [results]}, [the side run first, per pair]).
    """
    runs, first = {"parent": [], "change": []}, []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(side))
        first.append(order[0])
    return runs, first


def _log(line):
    print(line, file=sys.stderr, flush=True)


def summary(parent, change, first, better):
    """The paired summary of one metric: parent and change values per pair, and who ran first."""
    med, q1, q3 = median_and_quartiles(parent)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    position = [p - c if f == "parent" else c - p for p, c, f in zip(parent, change, first)]
    return {"parent_median": med, "parent_q1": q1, "parent_q3": q3,
            "change_median": statistics.median(change), "change_wins": wins, "ties": ties,
            "pairs": len(parent), "position_effect": statistics.median(position)}


def log_table(summaries):
    """Log one row per summary of {name: summary()}."""
    _log("  %-14s %12s %12s %12s %12s %6s %5s %12s" % (
        "metric", "parent_med", "parent_q1", "parent_q3", "change_med", "wins", "ties",
        "first-second"))
    for name, s in summaries.items():
        _log("  %-14s %12.6g %12.6g %12.6g %12.6g %3d/%-2d %5d %12.3g" % (
            name, s["parent_median"], s["parent_q1"], s["parent_q3"], s["change_median"],
            s["change_wins"], s["pairs"], s["ties"], s["position_effect"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--control", action="store_true",
                    help="run this checkout against itself; PARENT is not run")
    args = ap.parse_args(argv)
    parent = ROOT if args.control else args.parent.resolve()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=parent,
                          capture_output=True, text=True).stdout.strip()
    report = {"description": "Last JSON line of each run of perfbench/run.py --workload W "
                             "--seed %d --seconds %g --trace 0, %s, alternating which "
                             "runs first (even pairs: parent first); %d pairs per workload; "
                             "summarised by tools/pair.py."
                             % (args.seed, args.seconds,
                                "this checkout against itself (--control)" if args.control
                                else "parent %s and this checkout" % (head or parent),
                                args.pairs),
              "parent_commit": head, "control": args.control, "workloads": {}}
    correct = True
    for workload in args.workload or list(workloads.WORKLOADS):
        def run(side):
            line = _run(parent if side == "parent" else ROOT, workload, args.seed, args.seconds)
            return {**{k: m["value"] for k, m in line["metrics"].items()},
                    "correct": line["correct"]}
        runs, first = alternate(args.pairs, run)
        correct &= all(r["correct"] for side in runs.values() for r in side)
        _log("%s, seed %d, %d pairs:" % (workload, args.seed, args.pairs))
        table = {metric["name"]: summary([r[metric["name"]] for r in runs["parent"]],
                                         [r[metric["name"]] for r in runs["change"]], first,
                                         metric["better"])
                 for metric in bench["end_to_end"]}
        log_table(table)
        report["workloads"]["%s-seed%d" % (workload, args.seed)] = {
            "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
            "summary": table, "first": first, "runs": runs}
    print(json.dumps(report, indent=1))
    _log("every run correct" if correct else "SOME RUNS NOT CORRECT")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

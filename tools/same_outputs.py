"""Compare the benchmark's outputs and the demos' output with those of another checkout.

    python3 tools/same_outputs.py PARENT_CHECKOUT

Runs, in this checkout and in PARENT_CHECKOUT, each with one BLAS thread
and its own src/ on the path:

- the three benchmark workloads, with the flags of perfbench/workloads.py,
  racc and tacc_highp at the seeds 7 and 20240817 (flow takes no seed);
- every demos/*.py script.

For each CSV, flow .exp file and demo stdout, prints "identical" when the
bytes are equal, else the largest absolute and relative difference over
the numbers that differ.  Exits 1 on any difference.
"""
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the workloads' commands and flags)

SEEDS = (7, 20240817)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a number, or a run of anything else: the tokens two outputs are compared by
_TOKEN = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf|[^-+.\d\s]+|\S")
_CLI = "import sys; from quadpole.cli import main; sys.exit(main(sys.argv[1:]))"


def _run(checkout, argv):
    """Run python3 argv in checkout with one BLAS thread; its stdout, or exit on failure."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"),
               **{var: "1" for var in BLAS_VARS})
    done = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit("%s: %s failed:\n%s" % (checkout, " ".join(argv), done.stderr))
    return done.stdout


def outputs(checkout, out_dir):
    """{name: text} of every benchmark output file and demo stdout made in checkout."""
    texts = {}
    for w in workloads.WORKLOADS.values():
        for seed in SEEDS if w.seeded else (None,):
            stem = w.name if seed is None else "%s-seed%d" % (w.name, seed)
            run_dir = Path(out_dir) / stem
            run_dir.mkdir()
            _run(checkout, ["-c", _CLI, *w.argv(seed, str(run_dir / "out.csv"))])
            for path in sorted(run_dir.iterdir()):
                texts["%s/%s" % (stem, path.name)] = path.read_text()
    for demo in sorted((Path(checkout) / "demos").glob("*.py")):
        texts["demos/%s stdout" % demo.name] = _run(checkout, [str(demo)])
    return texts


def difference(a, b):
    """None if a == b, else the largest absolute and relative difference of their numbers.

    Texts whose non-numeric tokens or token counts differ give (inf, inf).
    """
    if a == b:
        return None
    ta, tb = _TOKEN.findall(a), _TOKEN.findall(b)
    if len(ta) != len(tb):
        return float("inf"), float("inf")
    worst_abs = worst_rel = 0.0
    for x, y in zip(ta, tb):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return float("inf"), float("inf")
        d = abs(fx - fy)
        if not d:
            continue
        worst_abs = max(worst_abs, d)
        worst_rel = max(worst_rel, d / max(abs(fx), abs(fy)))
    return worst_abs, worst_rel


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__)
    parent = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "this").mkdir()
        (Path(tmp) / "parent").mkdir()
        mine, theirs = outputs(ROOT, Path(tmp) / "this"), outputs(parent, Path(tmp) / "parent")
    differ = 0
    for name in sorted(mine.keys() | theirs.keys()):
        if name not in mine or name not in theirs:
            print("%-42s only in %s" % (name, "this checkout" if name in mine else "the parent"))
            differ += 1
            continue
        diff = difference(mine[name], theirs[name])
        if diff is None:
            print("%-42s identical" % name)
        else:
            print("%-42s differs: max abs %.3g, max rel %.3g" % (name, *diff))
            differ += 1
    print("%d of %d outputs differ" % (differ, len(mine.keys() | theirs.keys())))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

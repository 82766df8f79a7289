"""Process environment for the benchmark; imports nothing that loads BLAS.

The load is one process running one BLAS thread, a single-threaded
baseline that is also the steadiest on a small shared machine.
"""
import os
import platform
import sys

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")   # results, spans and per-pass outputs


def prepare():
    """Pin BLAS threads and make ``src/quadpole`` importable.

    Must run before numpy is imported.  Returns an error message when the
    checkout holds no quadpole sources, else None.
    """
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.chdir(ROOT)   # outputs name the scene by its path relative to the checkout
    if not os.path.isfile(os.path.join(SRC, "quadpole", "cli.py")):
        return "no quadpole sources under %s" % SRC
    sys.path.insert(0, SRC)
    import quadpole
    if not os.path.abspath(quadpole.__file__).startswith(SRC + os.sep):
        return "quadpole imported from %s, not from %s" % (quadpole.__file__, SRC)
    os.makedirs(WORK_DIR, exist_ok=True)
    return None


def stamp():
    """Machine and library versions recorded with every result."""
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
    }

"""The three benchmark workloads, their stored references and output checks.

Each workload is one ``quadpole`` command run through ``quadpole.cli.main``.
Its CSV is compared with a reference made at the commit that introduced
this benchmark.  Rows may come in any order: they are grouped by their key
columns and sorted within a group.

racc and tacc_highp must match the reference within a tolerance scaled to
the size of the potential, not to each entry, because their smallest
errors (about 1e-15) are set by roundoff and may change with the order of
floating-point sums.  flow is checked one-sided: its least-squares system
is rank-deficient, and from p = 6 on its solution moves by up to 9% when
only the BLAS thread count changes (boundary errors near 1e-4 on the small
spheres), so a flow pass must reach the reference accuracy, not its digits.
"""
import json
import math
import os
import shutil
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
SCENE = os.path.join("perfbench", "inputs", "three_spheres.txt")   # from the checkout root

OUT_STEM = "out"         # each pass writes out.csv (and flow's out_p*_sphere*.exp)

DEFAULT_SEED = 20240817
HELDOUT_SEED = 7          # never used while the benchmark was tuned

# Absolute tolerance = REL_TOL * (size of the potential).  For point-charge
# workloads the size is sum|q| ~ charges / 2 (charges uniform in [-1, 1]),
# the largest potential at unit distance.  For flow it is the largest |v| R,
# the scale of a translating sphere's velocity potential.
REL_TOL = 1e-11
# flow errors may exceed the reference by this share (3x the spread seen
# between one and two BLAS threads).
FLOW_SLACK = 0.25

# Points outside every sphere of the flow scene where the re-read .exp files
# are evaluated.
FLOW_PROBES = np.array([
    [-1.0, 0.0, 0.0], [-3.0, 1.5, 0.0], [-1.0, 1.5, 1.5], [0.5, 0.0, 0.0],
    [4.0, 3.5, 0.0], [4.0, 0.0, 3.5], [8.0, 0.0, 0.0], [0.0, 0.0, 5.0],
])


@dataclass
class Table:
    """A CSV as header plus rows grouped by key columns."""

    header: list
    groups: dict = field(default_factory=dict)   # key tuple -> sorted value tuples


@dataclass
class Output:
    """What one pass produced."""

    exit_code: object            # int, or None when main raised
    error: str = ""
    csv_text: str = ""
    exp_texts: dict = field(default_factory=dict)   # file name -> text


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple
    keys: tuple                  # key columns of the CSV
    values: tuple                # value columns compared against the reference
    err_column: str
    err_kinds: tuple             # kinds counted in err_max (empty: all rows)
    potential_scale: float
    seeded: bool                 # the command takes --seed
    one_sided: bool              # errors may be smaller than the reference
    rule_orders: tuple           # Lebedev rules the command loads

    def argv(self, seed, out):
        seed_flags = ["--seed", str(seed)] if self.seeded else []
        return [self.command, *self.flags, "--out", out, *seed_flags]

    @property
    def orders(self):
        return [int(v) for v in self.flags[self.flags.index("--orders") + 1].split(",")]

    def reference_path(self, seed):
        stem = self.name if not self.seeded else "%s-seed%d" % (self.name, seed)
        return os.path.join(REFERENCE_DIR, stem + ".csv")

    def matches(self, key, column, value, ref):
        """Whether one CSV value agrees with its reference value."""
        tol = REL_TOL * self.potential_scale
        if self.one_sided:
            return value <= ref * (1.0 + FLOW_SLACK) + tol
        if column == "scaled_prefactor":
            # racc scales the error by r^(p+1) (outer) or r^(-p) (inner)
            kind, p, r = key[0], int(key[1]), float(key[2])
            tol *= r ** (p + 1) if kind.startswith("outer") else r ** (-p)
        return abs(value - ref) <= tol


WORKLOADS = {w.name: w for w in (
    # direct_potential is most of the time, and 2 of its 3 calls per radius
    # repeat one made for an earlier order; the kernel is a minor share.
    Workload(
        name="racc", command="racc",
        flags=("--charges", "2000", "--trials", "2", "--orders", "2,5,8"),
        keys=("kind", "p", "r"), values=("mean_error", "scaled_prefactor"),
        err_column="mean_error", err_kinds=("outer", "inner"),
        potential_scale=2000 / 2, seeded=True, one_sided=False, rule_orders=(15, 17)),
    # Shifts at p = 30 on the 1202-point rule dominate, then fits; the
    # direct sum is under 1%.  Peak memory comes from (p, N, N) stacks.
    Workload(
        name="tacc_highp", command="tacc",
        flags=("--charges", "500", "--trials", "1", "--orders", "15,29"),
        keys=("kind", "p", "shift", "cos_theta"), values=("abs_error",),
        err_column="abs_error", err_kinds=(),
        potential_scale=500 / 2, seeded=True, one_sided=False,
        rule_orders=(15, 31, 59)),
    # Gradient stacks in boundary_error and matrix assembly dominate; the
    # least-squares solve is a few percent; kernel_matrix never runs.
    Workload(
        name="flow", command="flow",
        flags=("--scene", SCENE, "--orders", "2,3,4,5,6,7,8"),
        keys=("p", "sphere", "radius"), values=("boundary_error", "fit_residual"),
        err_column="boundary_error", err_kinds=(),
        potential_scale=3.0, seeded=False, one_sided=True,
        rule_orders=(3, 5, 7, 9, 11, 15, 29, 59)),
)}


def parse_table(text, workload):
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# quadpole"):
        raise ValueError("missing '# quadpole' note line")
    header = lines[1].split(",")
    missing = [c for c in workload.keys + workload.values if c not in header]
    if missing:
        raise ValueError("columns %s missing from header %s" % (missing, header))
    ki = [header.index(c) for c in workload.keys]
    vi = [header.index(c) for c in workload.values]
    table = Table(header)
    for n, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError("line %d has %d cells, expected %d" % (n, len(cells), len(header)))
        key = tuple(cells[i] for i in ki)
        table.groups.setdefault(key, []).append(tuple(float(cells[i]) for i in vi))
    for rows in table.groups.values():
        rows.sort()
    return table


def err_max(table, workload):
    """Largest error at the highest order, from the workload's error column."""
    p_col = workload.keys.index("p")
    top = max(int(k[p_col]) for k in table.groups)
    col = workload.values.index(workload.err_column)
    return max(row[col] for key, rows in table.groups.items()
               if int(key[p_col]) == top
               and (not workload.err_kinds or key[0] in workload.err_kinds)
               for row in rows)


def flow_probe_potentials(exp_texts, workload, problems):
    """Total potential of each order's re-read .exp files at FLOW_PROBES."""
    from quadpole.bem import parse_scene
    from quadpole.expansion import eval_outer_potential, expansion_from_text

    with open(SCENE) as fh:
        scene = parse_scene(fh.read())
    out = {}
    for p in workload.orders:
        total = np.zeros(len(FLOW_PROBES))
        for i, (c, R, _) in enumerate(scene):
            name = "%s_p%d_sphere%d.exp" % (OUT_STEM, p, i)
            if name not in exp_texts:
                problems.append("missing %s" % name)
                continue
            try:
                exp = expansion_from_text(exp_texts[name])
                total += eval_outer_potential(exp, FLOW_PROBES)
            except Exception as exc:   # any failure to re-read fails the pass
                problems.append("%s: %s" % (name, exc))
                continue
            if (exp.kind != "outer" or exp.order != p or not np.allclose(exp.center, c)
                    or not math.isclose(exp.radius, R)):
                problems.append("%s: kind/order/center/radius do not match the scene" % name)
        out[str(p)] = total.tolist()
    extra = set(exp_texts) - {"%s_p%d_sphere%d.exp" % (OUT_STEM, p, i)
                              for p in workload.orders for i in range(len(scene))}
    if extra:
        problems.append("unexpected output files %s" % sorted(extra))
    return out


@dataclass
class Reference:
    table: Table
    probes: dict = None          # flow only: order -> probe potentials


def load_reference(workload, seed):
    """The stored reference for this seed, or None when there is none."""
    path = workload.reference_path(seed)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        ref = Reference(parse_table(fh.read(), workload))
    if workload.command == "flow":
        with open(os.path.join(REFERENCE_DIR, "flow-probes.json")) as fh:
            ref.probes = json.load(fh)
    return ref


def check(workload, output, structure, reference):
    """Problems found in one pass's output; an empty list means it passed.

    ``structure`` is the stored default-seed reference, whose header and
    row keys every seed shares.  ``reference`` holds the values to match:
    a stored reference, or the run's first pass at a seed without one.
    Returns the problems and the parsed table (None if it did not parse).
    """
    problems = []
    if output.exit_code != 0:
        problems.append("exit code %r %s" % (output.exit_code, output.error))
        return problems, None
    try:
        table = parse_table(output.csv_text, workload)
    except ValueError as exc:
        return ["CSV does not parse: %s" % exc], None
    if table.header != structure.table.header:
        problems.append("header %s != %s" % (table.header, structure.table.header))
    if table.groups.keys() != structure.table.groups.keys():
        diff = table.groups.keys() ^ structure.table.groups.keys()
        problems.append("%d row keys differ from the reference, e.g. %s"
                        % (len(diff), sorted(diff)[:3]))
        return problems, table
    bad = 0
    for key, rows in table.groups.items():
        if len(rows) != len(structure.table.groups[key]):
            problems.append("key %s has %d rows, reference %d"
                            % (key, len(rows), len(structure.table.groups[key])))
            continue
        if not all(math.isfinite(v) and v >= 0.0 for row in rows for v in row):
            problems.append("key %s has a negative or non-finite value" % (key,))
            continue
        if reference is None:
            continue
        for row, ref_row in zip(rows, reference.table.groups[key]):
            for col, v, r in zip(workload.values, row, ref_row):
                if not workload.matches(key, col, v, r):
                    bad += 1
                    if bad <= 3:
                        problems.append("%s %s = %.17g, reference %.17g"
                                        % (key, col, v, r))
    if bad > 3:
        problems.append("%d values differ from the reference in all" % bad)
    if workload.command == "flow":
        probes = flow_probe_potentials(output.exp_texts, workload, problems)
        if reference is not None and reference.probes is not None:
            for p, vals in reference.probes.items():
                # the field is determined to the accuracy the solve reaches
                tol = workload.potential_scale * max(
                    row[0] for key, rows in reference.table.groups.items()
                    if key[0] == p for row in rows)
                got = np.array(probes.get(p, [math.nan] * len(vals)))
                if not np.all(np.abs(got - vals) <= tol):
                    problems.append("p=%s: .exp potentials at the probes differ by %.3g"
                                    % (p, np.nanmax(np.abs(got - vals))))
    return problems, table


def run_pass(workload, seed, work_dir, tracer=None, measure_memory=False):
    """Run the workload's command once in its own temporary directory.

    Returns the wall seconds, the process CPU seconds, the tracemalloc peak
    in bytes (0 unless ``measure_memory``) and the :class:`Output`.  With a
    tracer, its wrappers must already be installed; the call runs under its
    root span.  The directory and everything the command wrote are removed.
    """
    import quadpole.cli

    tmp = tempfile.mkdtemp(prefix="pass-", dir=work_dir)
    try:
        out_csv = os.path.join(tmp, OUT_STEM + ".csv")
        argv = workload.argv(seed, out_csv)
        output = Output(exit_code=None)
        if measure_memory:
            tracemalloc.start()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                output.exit_code = quadpole.cli.main(argv)
            else:
                output.exit_code = tracer.run_root(quadpole.cli.main, argv)
        except (Exception, SystemExit):   # the pass fails; the run goes on
            output.error = traceback.format_exc(limit=4)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        peak = 0
        if measure_memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name)) as fh:
                if name == OUT_STEM + ".csv":
                    output.csv_text = fh.read()
                else:
                    output.exp_texts[name] = fh.read()
    finally:
        shutil.rmtree(tmp)
    return wall, cpu, peak, output

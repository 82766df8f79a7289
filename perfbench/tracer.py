"""Spans and counters recorded around calls into quadpole's public functions.

The tracer rebinds each traced function at every module attribute that
holds it, which is where its callers look it up (``quadpole.cli.fit_outer``,
``quadpole.expansion.kernel_matrix``, ``scipy.linalg.lstsq`` and so on).
Each wrapper appends a span ``[name, start, end, parent]`` to an in-memory
list and updates counters computed from argument shapes and input
fingerprints.  Nothing under ``src/`` is edited; :meth:`Tracer.remove`
restores every original binding.
"""
import hashlib
import math
import sys
import time

import numpy as np
import scipy.linalg

# (defining module, function): the span is named "<module>.<function>".
TRACED = (
    ("legendre", "f_sequence_raw"),
    ("legendre", "scaled_legendre_stack"),
    ("legendre", "kernel_matrix"),
    ("legendre", "grad_scaled_legendre_stack"),
    ("quadrature", "lebedev_rule"),
    ("expansion", "fit_outer"),
    ("expansion", "fit_inner"),
    ("expansion", "eval_outer_potential"),
    ("expansion", "eval_inner_potential"),
    ("expansion", "eval_point_charge_potential"),
    ("expansion", "direct_potential"),
    ("expansion", "expansion_to_text"),
    ("translation", "shift_outer"),
    ("translation", "shift_inner"),
    ("translation", "outer_to_inner"),
    ("bem", "solve_potential_flow"),
    ("bem", "boundary_error"),
    ("bem", "outer_gradient"),
)

ROOT = "cli"


def _batch(*shapes):
    return math.prod(np.broadcast_shapes(*shapes))


def _fingerprint(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


class PassRecord:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.counts = {
            "legendre.pair_terms": 0,
            "legendre.stack_bytes": 0,
            "legendre.grad_scaled_legendre_stack.pair_terms": 0,
            "expansion.direct_potential.pairs": 0,
            "expansion.direct_potential.repeats": 0,
            "bem.lstsq.unknowns": 0,
        }
        self.direct_inputs = set()
        self.rule_orders = set()

    def open(self, name):
        self.spans.append([name, 0.0, 0.0, self.stack[-1]])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self):
        self.stack.pop()

    def layer_times(self):
        """Per span name: calls, total seconds and self seconds.

        A span's self time is its duration minus the durations of its
        children; children never overlap because the program is single
        threaded.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - c))
        return out

    def nesting_errors(self):
        """Spans that end outside their parent; a correct tracer has none."""
        bad = 0
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                bad += not (p[1] <= t0 <= t1 <= p[2])
        return bad


# Counters: each takes the pass record and the call's arguments.

def _count_f_sequence(rec, xy, xx, yy, alpha, p):
    pairs = _batch(np.shape(xy), np.shape(xx), np.shape(yy))
    rec.counts["legendre.pair_terms"] += p * pairs
    # the (p,) + batch float64 stack the recurrence fills
    rec.counts["legendre.stack_bytes"] = max(rec.counts["legendre.stack_bytes"],
                                             8 * p * pairs)


def _count_grad(rec, a, x, p):
    pairs = _batch(np.shape(a)[:-1], np.shape(x)[:-1])
    rec.counts["legendre.grad_scaled_legendre_stack.pair_terms"] += p * pairs


def _count_direct(rec, sources, x):
    x = np.asarray(x, dtype=float)
    rec.counts["expansion.direct_potential.pairs"] += \
        math.prod(x.shape[:-1]) * len(sources)
    key = _fingerprint(sources.positions, sources.charges, x)
    if key in rec.direct_inputs:
        rec.counts["expansion.direct_potential.repeats"] += 1
    rec.direct_inputs.add(key)


def _count_rule(rec, order):
    rec.rule_orders.add(order)


def _count_lstsq(rec, a, b, *rest, **kw):
    rec.counts["bem.lstsq.unknowns"] += np.shape(a)[1]


COUNTERS = {
    "legendre.f_sequence_raw": _count_f_sequence,
    "legendre.grad_scaled_legendre_stack": _count_grad,
    "expansion.direct_potential": _count_direct,
    "quadrature.lebedev_rule": _count_rule,
    "bem.lstsq": _count_lstsq,
}


class Tracer:
    """Installs span wrappers for one pass and removes them afterwards."""

    def __init__(self):
        import quadpole.cli  # noqa: F401  (loads every traced module)
        self.originals = {}     # span name -> original function
        for mod, func in TRACED:
            module = sys.modules["quadpole." + mod]
            self.originals["%s.%s" % (mod, func)] = getattr(module, func)
        self.originals["bem.lstsq"] = scipy.linalg.lstsq
        self.sites = self._find_sites()
        self.record = None

    def _find_sites(self):
        """Every (module, attribute, span name) that holds a traced function."""
        by_id = {id(f): name for name, f in self.originals.items()}
        sites = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "quadpole" or modname.startswith("quadpole.")):
                continue
            for attr, value in vars(module).items():
                if id(value) in by_id and self.originals[by_id[id(value)]] is value:
                    sites.append((module, attr, by_id[id(value)]))
        sites.append((scipy.linalg, "lstsq", "bem.lstsq"))
        return sites

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.record
            if counter is not None:
                counter(rec, *args, **kwargs)
            span = rec.open(name)
            span[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.close()

        traced.__wrapped__ = func
        return traced

    def install(self):
        self.record = PassRecord()
        wrappers = {name: self._wrap(name, f) for name, f in self.originals.items()}
        for module, attr, name in self.sites:
            setattr(module, attr, wrappers[name])
        return self.record

    def remove(self):
        for module, attr, name in self.sites:
            setattr(module, attr, self.originals[name])

    def installed_sites(self):
        """Sites that do not hold their original function (should be none)."""
        return ["%s.%s" % (m.__name__, a) for m, a, name in self.sites
                if getattr(m, a) is not self.originals[name]]

    def run_root(self, func, *args):
        """Call ``func`` under the root span of the current pass."""
        span = self.record.open(ROOT)
        span[1] = time.perf_counter()
        try:
            return func(*args)
        finally:
            span[2] = time.perf_counter()
            self.record.close()


def layer_metrics(rec):
    """The per-layer metrics of one traced pass, by metric name."""
    times = rec.layer_times()
    out = {}
    for name in ["%s.%s" % mf for mf in TRACED] + ["bem.lstsq", ROOT]:
        calls, total, own = times.get(name, (0, 0.0, 0.0))
        out[name + ".calls"], out[name + ".total_s"], out[name + ".self_s"] = calls, total, own
    c = rec.counts
    out["legendre.pair_terms"] = c["legendre.pair_terms"]
    out["legendre.stack_mb"] = c["legendre.stack_bytes"] / 1e6
    out["legendre.grad_scaled_legendre_stack.pair_terms"] = \
        c["legendre.grad_scaled_legendre_stack.pair_terms"]
    out["expansion.direct_potential.pairs"] = c["expansion.direct_potential.pairs"]
    calls = out["expansion.direct_potential.calls"]
    out["expansion.direct_potential.repeat_frac"] = \
        c["expansion.direct_potential.repeats"] / calls if calls else 0.0
    out["bem.lstsq.unknowns"] = c["bem.lstsq.unknowns"]
    out["quadrature.rule_loads"] = len(rec.rule_orders)
    out["quadrature.rule_orders"] = sorted(rec.rule_orders)
    out["self_s_sum"] = sum(own for _, _, own in times.values())
    return out

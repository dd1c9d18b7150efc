"""Spans around magspec's layer boundaries, recorded from outside the package.

``patched(tracer)`` replaces each function in LAYER_FUNCTIONS, in every
magspec module that holds it under its own name (``eigs_lowest`` lives in
eigensolve, experiments, probes and the package root), with a wrapper that
records a span and a few counters, and puts every original back on exit.
Calls that resolve the name through a module's globals, such as
``inertia_count`` inside eigensolve, are caught the same way.

Spans stay in memory; the caller writes them out once when the run ends.
"""

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int          # -1 for a pass's root span
    trace: int           # the pass the span belongs to
    name: str
    start: float
    end: float
    error: str = ""


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self.trace = -1

    @contextmanager
    def span(self, name):
        parent = self._stack[-1].id if self._stack else -1
        sp = Span(len(self.spans), parent, self.trace, name,
                  time.perf_counter(), 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as e:
            sp.error = type(e).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def pass_span(self, trace):
        """Root span of one pass; everything it calls shares its trace id."""
        self.trace = trace
        with self.span("pass") as sp:
            yield sp

    def count(self, key, value=1.0):
        self.counters[self.trace][key] += value

    def maximum(self, key, value):
        c = self.counters[self.trace]
        c[key] = max(c[key], value)

    def wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out
        return traced

    def as_dicts(self):
        return [asdict(s) for s in self.spans]


# ── counters taken at the layer boundaries ─────────────────────────────────


def _grid(t, args, kwargs, grid):
    t.count("geometry.nodes", grid.n_nodes)


def _phases(t, args, kwargs, phases):
    t.count("fields.edges", sum(len(th) for th in phases.theta))


def _assembled(t, args, kwargs, op):
    t.count("assembly.nnz", op.mat.nnz)


def _spectrum(t, args, kwargs, res):
    t.count("eigensolve.eigpairs", res.k)
    if res.info.method == "dense":
        t.maximum("eigensolve.dense_n", args[0].n)
    else:
        t.count("eigensolve.krylov_steps", res.info.iterations)
        t.count("eigensolve.krylov_pairs", res.k)
    if res.k:
        t.maximum("eigensolve.residual_max", float(max(res.residuals)))


def _inertia(t, args, kwargs, count):
    if count is None:
        t.count("eigensolve.inertia_count.none")


def _rung(t, args, kwargs, run):
    t.count("experiments.rungs")


def _cli(t, args, kwargs, code):
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--out" in argv:
        out = argv[argv.index("--out") + 1]
        t.count("cli.bytes_written",
                sum(e.stat().st_size for e in os.scandir(out) if e.is_file()))


# (module, function, observer): the public entry points of each layer
LAYER_FUNCTIONS = (
    ("geometry", "build_grid", _grid),
    ("fields", "link_phases", _phases),
    ("assembly", "assemble", _assembled),
    ("assembly", "direct_sum", None),
    ("eigensolve", "eigs_window", _spectrum),
    ("eigensolve", "eigs_lowest", _spectrum),
    ("eigensolve", "inertia_count", _inertia),
    ("spectra", "cluster_report", None),
    ("spectra", "ladder_report", None),
    ("probes", "hermitian_shift", None),
    ("probes", "resolvent_difference_svd", None),
    ("probes", "boundary_identity_check", None),
    ("experiments", "build_operator", None),
    ("experiments", "run_spectrum", _rung),
    ("experiments", "run_ladder", None),
    ("experiments", "ladder_compare", None),
    ("cli", "main", _cli),
)


def _magspec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "magspec" or name.startswith("magspec."))]


@contextmanager
def patched(tracer):
    """Install tracing wrappers; yields the (module, name, original) list."""
    modules = _magspec_modules()
    done = []
    try:
        for modname, fname, observe in LAYER_FUNCTIONS:
            home = sys.modules[f"magspec.{modname}"]
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{modname}.{fname}", original, observe)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    done.append((mod, fname, original))
        yield done
    finally:
        for mod, fname, original in reversed(done):
            setattr(mod, fname, original)


# ── per-pass layer metrics ─────────────────────────────────────────────────


def self_times(spans):
    """Span id -> duration minus the time covered by its direct children.

    Calls are single-threaded and nested, so children never overlap and the
    covered time is the sum of their durations.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def pass_metrics(spans, counters):
    """Layer metrics of one pass, and each layer's share of its wall time."""
    own = self_times(spans)
    total = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    root = None
    for s in spans:
        if s.parent < 0:
            root = s
            continue
        total[s.name] += s.end - s.start
        selfs[s.name] += own[s.id]
        calls[s.name] += 1
    shares = defaultdict(float)
    for name, t in selfs.items():
        shares[name.split(".")[0]] += t
    shares["unspanned"] = own[root.id]
    c = counters
    steps = c["eigensolve.krylov_steps"]
    m = {
        "geometry.build_grid.s": total["geometry.build_grid"],
        "geometry.nodes": c["geometry.nodes"],
        "fields.link_phases.s": total["fields.link_phases"],
        "fields.edges": c["fields.edges"],
        "assembly.assemble.s": total["assembly.assemble"],
        "assembly.direct_sum.s": total["assembly.direct_sum"],
        "assembly.nnz": c["assembly.nnz"],
        "eigensolve.eigs_window.self_s": selfs["eigensolve.eigs_window"],
        "eigensolve.eigs_lowest.self_s": selfs["eigensolve.eigs_lowest"],
        "eigensolve.inertia_count.calls": calls["eigensolve.inertia_count"],
        "eigensolve.inertia_count.s": total["eigensolve.inertia_count"],
        "eigensolve.inertia_count.none": c["eigensolve.inertia_count.none"],
        "eigensolve.krylov_steps": steps,
        "eigensolve.eigpairs": c["eigensolve.eigpairs"],
        "eigensolve.pairs_per_step": (c["eigensolve.krylov_pairs"] / steps
                                      if steps else 0.0),
        "eigensolve.dense_n": c["eigensolve.dense_n"],
        "eigensolve.residual_max": c["eigensolve.residual_max"],
        "spectra.cluster_report.s": total["spectra.cluster_report"],
        "spectra.ladder_report.s": total["spectra.ladder_report"],
        "probes.hermitian_shift.s": total["probes.hermitian_shift"],
        "probes.resolvent_difference_svd.s":
            total["probes.resolvent_difference_svd"],
        "probes.boundary_identity_check.s":
            total["probes.boundary_identity_check"],
        "experiments.run_spectrum.self_s": selfs["experiments.run_spectrum"],
        "experiments.rungs": c["experiments.rungs"],
        "cli.main.self_s": selfs["cli.main"],
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.unspanned_s": own[root.id],
    }
    wall = root.end - root.start
    return m, {k: v / wall for k, v in shares.items()}


UNITS = {
    "geometry.build_grid.s": "s",
    "geometry.nodes": "count",
    "fields.link_phases.s": "s",
    "fields.edges": "count",
    "assembly.assemble.s": "s",
    "assembly.direct_sum.s": "s",
    "assembly.nnz": "count",
    "eigensolve.eigs_window.self_s": "s",
    "eigensolve.eigs_lowest.self_s": "s",
    "eigensolve.inertia_count.calls": "count",
    "eigensolve.inertia_count.s": "s",
    "eigensolve.inertia_count.none": "count",
    "eigensolve.krylov_steps": "count",
    "eigensolve.eigpairs": "count",
    "eigensolve.pairs_per_step": "pairs/step",
    "eigensolve.dense_n": "rows",
    "eigensolve.residual_max": "1",
    "spectra.cluster_report.s": "s",
    "spectra.ladder_report.s": "s",
    "probes.hermitian_shift.s": "s",
    "probes.resolvent_difference_svd.s": "s",
    "probes.boundary_identity_check.s": "s",
    "experiments.run_spectrum.self_s": "s",
    "experiments.rungs": "count",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    "trace.unspanned_s": "s",
    "trace.overhead_s": "s",
}

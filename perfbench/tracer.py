"""Span tracer that wraps xfem2d's public functions from outside the package.

``xfem2d.cli`` and ``xfem2d.driver`` bind the functions they call at import
time (``from xfem2d.driver import setup_problem``), so a span has to be
installed where a name is looked up, not where it is defined.  ``SITES``
lists every lookup site the CLI pipeline goes through; ``Tracer.installed``
replaces each with a timing wrapper and puts every original back on exit.

Spans are kept in memory.  A layer's self time is its span's duration minus
the part of that interval its child spans cover, so the self times of all
spans of one traced call add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

# (module looked up in, attribute, span name).  The span name is
# "<layer>.<function>", the layer being the defining module of xfem2d.
SITES = (
    ("xfem2d.cli", "load_config", "config.load_config"),
    ("xfem2d.driver", "read_mesh", "mesh.read_mesh"),
    ("xfem2d.cli", "setup_problem", "driver.setup_problem"),
    ("xfem2d.driver", "setup_problem", "driver.setup_problem"),
    ("xfem2d.cli", "run_stationary", "driver.run_stationary"),
    ("xfem2d.cli", "run_propagation", "driver.run_propagation"),
    ("xfem2d.cli", "stationary_history", "driver.stationary_history"),
    ("xfem2d.driver", "classify_with_remedy", "enrichment.classify_with_remedy"),
    ("xfem2d.enrichment", "classify_enrichment", "enrichment.classify_enrichment"),
    ("xfem2d.driver", "assemble", "assembly.assemble"),
    ("xfem2d.driver", "apply_constraints", "assembly.apply_constraints"),
    ("xfem2d.driver", "solve", "assembly.solve"),
    ("xfem2d.driver", "extract_sifs", "fracture.extract_sifs"),
    ("xfem2d.driver", "tip_clearance", "fracture.tip_clearance"),
    ("xfem2d.fracture", "tip_clearance", "fracture.tip_clearance"),
    ("xfem2d.driver", "extend_crack", "cracks.extend_crack"),
    ("xfem2d.cli", "write_sif_csv", "output.write_sif_csv"),
    ("xfem2d.cli", "write_cod_csv", "output.write_cod_csv"),
    ("xfem2d.cli", "write_field_dump", "output.write_field_dump"),
    ("xfem2d.cli", "write_run_log", "output.write_run_log"),
)

ROOT = "cli.main"

# Self-time metric -> the spans whose self times it sums.  Together these
# cover every span name above, so they partition the traced wall time.
SELF_TIME_METRICS = {
    "cli.self_s": (ROOT,),
    "config.load_s": ("config.load_config",),
    "mesh.read_s": ("mesh.read_mesh",),
    "driver.self_s": ("driver.setup_problem", "driver.run_stationary",
                      "driver.run_propagation", "driver.stationary_history"),
    "enrichment.classify_s": ("enrichment.classify_with_remedy",
                              "enrichment.classify_enrichment"),
    "assembly.assemble_s": ("assembly.assemble",),
    "assembly.constraints_s": ("assembly.apply_constraints",),
    "assembly.solve_s": ("assembly.solve",),
    "fracture.extract_s": ("fracture.extract_sifs",),
    "fracture.clearance_s": ("fracture.tip_clearance",),
    "cracks.extend_s": ("cracks.extend_crack",),
    "output.sif_csv_s": ("output.write_sif_csv",),
    "output.cod_csv_s": ("output.write_cod_csv",),
    "output.field_dump_s": ("output.write_field_dump",),
    "output.run_log_s": ("output.write_run_log",),
}

CALL_METRICS = {
    "assembly.solve_calls": "assembly.solve",
    "enrichment.classify_calls": "enrichment.classify_with_remedy",
    "mesh.read_calls": "mesh.read_mesh",
    "driver.setup_problem_calls": "driver.setup_problem",
    "fracture.extract_calls": "fracture.extract_sifs",
}


def _count_assembly(tracer, bound, system):
    tracer.count("assembly.dofs", system.layout.total_dofs)
    tracer.count("assembly.nnz", system.K.nnz)
    kinds = bound.arguments["emap"].element_kinds(bound.arguments["mesh"])
    tracer.count("assembly.enriched_elements", int(np.count_nonzero(kinds)))


def _count_classification(tracer, bound, result):
    emap, _ = result
    tracer.count("enrichment.heaviside_nodes", emap.n_heaviside)
    tracer.count("enrichment.tip_nodes", emap.n_tip)
    tracer.count("enrichment.demotions", len(emap.demotions))


def _count_mesh(tracer, bound, mesh):
    tracer.count("mesh.elements", mesh.n_elements)


def _record_sif(tracer, bound, res):
    tracer.sifs.append({
        "crack_id": res.crack_id, "tip_id": res.tip_id,
        "load_factor": res.load_factor, "K_I": res.K_I, "K_II": res.K_II,
    })


# Span name -> hook(tracer, bound arguments, result) run after the call.
HOOKS = {
    "assembly.assemble": _count_assembly,
    "enrichment.classify_with_remedy": _count_classification,
    "mesh.read_mesh": _count_mesh,
    "fracture.extract_sifs": _record_sif,
}

# What the hooks count, as totals over one traced call.
COUNTERS = ("assembly.dofs", "assembly.nnz", "assembly.enriched_elements",
            "enrichment.heaviside_nodes", "enrichment.tip_nodes",
            "enrichment.demotions", "mesh.elements")


def covered_length(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Sum of self time per span name.

    ``spans`` holds ``(name, parent_index, start, end)`` tuples, the parent
    being ``None`` for a root span.
    """
    children = [[] for _ in spans]
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for (name, _, start, end), kids in zip(spans, children):
        own = (end - start) - covered_length(kids, start, end)
        out[name] = out.get(name, 0.0) + own
    return out


class Tracer:
    """Spans, counters and captured SIFs of one traced CLI call."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.sifs = []
        self.overhead_s = 0.0
        self.missing = []
        self._originals = []
        self._stack = []

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, parent, 0.0, 0.0])
            self._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index][2:] = [start, end]
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs), result)
            self.overhead_s += (start - enter) + (clock() - end)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every lookup site in ``SITES``; restore all on exit.

        A site whose attribute no longer exists is skipped and listed in
        ``missing``, so a refactor of the program shows up as zero calls
        rather than as a failed run.
        """
        saved = self._originals
        try:
            for module_name, attr, span in SITES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def unrestored(self):
        """Patched sites that do not hold their original function now."""
        return [f"{module.__name__}.{attr}"
                for module, attr, original in self._originals
                if getattr(module, attr) is not original]

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span ``cli.main``."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    def metrics(self):
        """Per-layer self times, call counts and counters of the traced call."""
        own = self_times([tuple(s) for s in self.spans])
        calls = {}
        for name, *_ in self.spans:
            calls[name] = calls.get(name, 0) + 1
        out = {metric: sum(own.get(n, 0.0) for n in names)
               for metric, names in SELF_TIME_METRICS.items()}
        for metric, name in CALL_METRICS.items():
            out[metric] = calls.get(name, 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        classify = calls.get("enrichment.classify_with_remedy", 0)
        out["enrichment.attempts_per_classify"] = (
            calls.get("enrichment.classify_enrichment", 0) / classify
            if classify else 0.0)
        _, _, start, end = self.spans[0]
        out["trace.wall_s"] = end - start
        out["trace.overhead_s"] = self.overhead_s
        return out

"""Span tracing of ergolab's layers from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
``ergolab`` module namespace that holds it (a name imported with
``from .x import f`` is a separate binding from ``x.f``), and each traced
method on its class.  A wrapper records one span: layer id, start, end,
parent span and job.  Spans stay in memory; ``summary`` reduces them to
per-layer calls, self time (duration minus the time covered by direct
child spans) and work counts, and ``save`` writes them out at the end.
"""

import sys
import time

import numpy as np

# layer name -> (module, attribute) targets; "Class.method" patches a class
LAYERS = {
    "functions.merge_sum": [("functions", "merge_sum")],
    "functions.rotate": [("functions", "CircleFunction.rotate")],
    "functions.antiderivative": [("functions", "CircleFunction.antiderivative")],
    "functions.eval": [("functions", "CircleFunction.__call__"),
                       ("functions", "CircleFunction._eval_unwrapped")],
    "fields.real_roots_in": [("fields", "real_roots_in")],
    "fields.gl_integrate": [("fields", "gl_integrate")],
    "fields.upper_envelope": [("fields", "upper_envelope")],
    "fields.grid_sup_field": [("fields", "grid_sup_field")],
    "fields.pointwise_norm": [("fields", "pointwise_norm")],
    "fields.norms": [("fields", f"{cls}.{meth}")
                     for cls, meths in (
                         ("PolyField", ("lp", "sup", "superlevel_measure", "integral")),
                         ("SqrtPolyField", ("lp", "sup", "superlevel_measure", "integral")),
                         ("GenericField", ("lp", "sup", "integral")),
                         ("AtomField", ("lp", "sup", "superlevel_measure", "integral")))
                     for meth in meths],
    "flows.cesaro_average": [("flows", "cesaro_average")],
    "flows.dominant_cesaro": [("flows", "dominant_cesaro")],
    "flows.apply_flow": [("flows", "apply_flow")],
    "condexp.cond_exp": [("condexp", "cond_exp")],
    "condexp.cond_exp_dominant": [("condexp", "cond_exp_dominant")],
    "processes.me_process": [("processes", "me_process")],
    "processes.em_process": [("processes", "em_process")],
    "processes.grid_entries": [("processes", "ProcessGrid.entry"),
                               ("processes", "ProcessGrid.recompute_entry")],
    "processes.limits": [("processes", "limits")],
    "processes.convergence_table": [("processes", "convergence_table")],
    "inequalities.dominant_ineq": [("inequalities", "dominant_ineq_me"),
                                   ("inequalities", "dominant_ineq_em")],
    "inequalities.maximal_ineq": [("inequalities", "maximal_ineq_me"),
                                  ("inequalities", "maximal_ineq_em")],
    "inequalities.domination_chain_check": [("inequalities", "domination_chain_check")],
    "inequalities.submartingale_sup_check": [("inequalities", "submartingale_sup_check")],
    "runner.artifacts": [("runner", "write_csv"), ("runner", "emit_plot_data"),
                         ("runner", "write_json")],
}

# cesaro_average spans are split by flow kind
SPAN_NAMES = tuple(n for n in LAYERS if n != "flows.cesaro_average") + (
    "flows.cesaro_average.rotation", "flows.cesaro_average.step",
    "flows.cesaro_average.identity")

# work counts recorded beside the spans, as (layer, count)
COUNTS = (
    ("functions.merge_sum", "pieces_out"),
    ("functions.eval", "points"),
    ("fields.real_roots_in", "hits"),
    ("fields.gl_integrate", "evals"),
    ("fields.gl_integrate", "splits"),
    ("fields.upper_envelope", "pieces_out"),
    ("flows.cesaro_average.step", "time_units"),
    ("processes.grid_entries", "items"),
)


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.layer = []
        self.start = []
        self.end = []
        self.parent = []
        self.job = []
        self.counts = {key: 0 for key in COUNTS}
        self.current_job = -1
        self._stack = []
        self._gl_split = []
        self._saved = []

    # -- recording -------------------------------------------------------------

    def _open(self, layer_id):
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, layer, fn, after=None):
        lid = self.ids[layer]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer.counts, args, result)
            return result
        return wrapper

    def _cesaro(self, fn):
        ids = {kind: self.ids[f"flows.cesaro_average.{kind}"]
               for kind in ("rotation", "step", "identity")}
        tracer = self

        def wrapper(flow, t, f):
            idx = tracer._open(ids[flow.kind])
            try:
                result = fn(flow, t, f)
            finally:
                tracer._close(idx)
            if flow.kind == "step":
                tracer.counts[("flows.cesaro_average.step", "time_units")] += t / flow.h
            return result
        return wrapper

    def _gl(self, fn):
        """Outermost integrations get a span; bisection children (depth > 0)
        only mark their integration as split.  Integrand points are counted
        through a wrapper handed down the recursion."""
        lid = self.ids["fields.gl_integrate"]
        tracer = self
        counts = self.counts

        def wrapper(integrand, lo, hi, *rest, **kwargs):
            depth = rest[1] if len(rest) > 1 else kwargs.get("depth", 0)
            if depth > 0 and tracer._gl_split:
                tracer._gl_split[-1] = True
                return fn(integrand, lo, hi, *rest, **kwargs)

            def counted(x):
                counts[("fields.gl_integrate", "evals")] += np.size(x)
                return integrand(x)
            tracer._gl_split.append(False)
            idx = tracer._open(lid)
            try:
                return fn(counted, lo, hi, *rest, **kwargs)
            finally:
                tracer._close(idx)
                counts[("fields.gl_integrate", "splits")] += tracer._gl_split.pop()
        return wrapper

    def _wrapper_for(self, layer, attr, fn):
        if layer == "flows.cesaro_average":
            return self._cesaro(fn)
        if layer == "fields.gl_integrate":
            return self._gl(fn)
        after = _AFTER.get(attr)
        return self._span(layer, fn, after)

    # -- install / remove --------------------------------------------------------

    def install(self):
        """Wrap every target; ``remove`` restores the originals."""
        import ergolab  # noqa: F401  (loads every submodule)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ergolab" or name.startswith("ergolab."))]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                mod = sys.modules[f"ergolab.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._saved.append((cls, meth, orig))
                    setattr(cls, meth, self._wrapper_for(layer, attr, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrapper_for(layer, attr, orig)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            self._saved.append((m, name, orig))
                            setattr(m, name, wrapped)
        self._install_items()
        return self

    def _install_items(self):
        """Count the entries ProcessGrid.items yields (a generator, no span)."""
        from ergolab import processes
        orig = processes.ProcessGrid.items
        counts = self.counts

        def items(grid):
            for pair in orig(grid):
                counts[("processes.grid_entries", "items")] += 1
                yield pair
        self._saved.append((processes.ProcessGrid, "items", orig))
        processes.ProcessGrid.items = items

    def remove(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- reduction -----------------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.layer, dtype=np.int32),
                np.asarray(self.start), np.asarray(self.end),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.job, dtype=np.int32))

    def summary(self):
        """Per span name: calls and self seconds; plus the work counts."""
        layer, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n = len(SPAN_NAMES)
        calls = np.bincount(layer, minlength=n)
        selfs = np.bincount(layer, weights=self_time, minlength=n)
        out = {name: {"calls": int(calls[i]), "self_s": float(selfs[i])}
               for i, name in enumerate(SPAN_NAMES)}
        return out, dict(self.counts)

    def save(self, path, job_names):
        layer, start, end, parent, job = self.arrays()
        np.savez_compressed(path, layer=layer, start=start, end=end,
                            parent=parent, job=job,
                            span_names=np.asarray(SPAN_NAMES),
                            job_names=np.asarray(job_names))


def _pieces_out(key):
    def after(counts, args, result):
        fn = getattr(result, "fn", None)
        if fn is None and hasattr(result, "npieces"):
            fn = result
        if fn is not None:
            counts[(key, "pieces_out")] += fn.npieces
    return after


def _points(counts, args, result):
    counts[("functions.eval", "points")] += np.size(args[1])


def _hits(counts, args, result):
    counts[("fields.real_roots_in", "hits")] += result.size > 0


def _entry(counts, args, result):
    counts[("processes.grid_entries", "items")] += 1


_AFTER = {
    "merge_sum": _pieces_out("functions.merge_sum"),
    "upper_envelope": _pieces_out("fields.upper_envelope"),
    "CircleFunction._eval_unwrapped": _points,
    "real_roots_in": _hits,
    "ProcessGrid.entry": _entry,
    "ProcessGrid.recompute_entry": _entry,
}

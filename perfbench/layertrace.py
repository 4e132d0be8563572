"""Layer spans for the traced run, recorded from outside the package.

The tracer replaces module-level functions of ``majorana_nh`` with timing
wrappers, in every module namespace that holds them (``from .x import f``
copies the name, so each copy is wrapped).  Nothing under ``src/`` changes,
and the untraced runs never install it.

A span has a name, start, end and parent.  Spans opened on a worker thread
with no open span of their own take as parent the innermost open span of the
thread that installed the tracer (the one blocked in ``pool.map``).  A
layer's self time is its span time minus the part covered by child spans.
"""

import threading
import time
from collections import defaultdict

# (module, function name) -> layer group; a group sums the self time of its spans
WRAPPED = {
    ("models", "bloch_hamiltonian"): "models.bloch",
    ("models", "bloch_matrix_grid"): "models.bloch",
    ("models", "flavour_bond_table"): "models.bloch",
    ("models", "closed_form_spectrum"): "models.closed_form",
    ("models", "closed_form_spectrum_grid"): "models.closed_form",
    ("eigen", "eig"): "eigen.eig",
    ("ribbon", "build_ribbon"): "ribbon.build",
    ("ribbon", "diagonalize_ribbon"): "ribbon.diag",
    ("ribbon", "_cloud_samples"): "ribbon.cloud",
    ("ribbon", "cloud_intervals_from_samples"): "ribbon.cloud",
    ("ribbon", "localization_profile"): "ribbon.classify",
    ("ribbon", "site_weights"): "ribbon.classify",
    ("ribbon", "nhse_summary"): "ribbon.nhse",
    ("ribbon", "sweep"): "ribbon.sweep_self",
    ("ep", "ep_scan"): "ep.grid",
    ("ep", "_scan_family"): "ep.grid",
    ("ep", "minimize"): "ep.refine",
    ("ep", "ep_closed_form"): "ep.closed_form",
    ("ep", "model_closed_form_eps"): "ep.closed_form",
    ("ep", "fermi_arc_trace"): "ep.arc_contour",
    ("ep", "_arc_trace_scalar"): "ep.arc_contour",
    ("ep", "_arc_trace_coupled"): "ep.arc_contour",
    ("ep", "_marching_squares_periodic"): "ep.arc_contour",
    ("ep", "_cut_at_eps"): "ep.arc_contour",
    ("export", "export_table"): "export.table",
    ("export", "write_json"): "export.table",
    ("export", "write_svg_scatter"): "export.svg",
    ("pipelines", "run_command"): "pipelines.self",
    ("pipelines", "run_bloch_spectrum"): "pipelines.self",
    ("pipelines", "run_ep_find"): "pipelines.self",
    ("pipelines", "run_arc_trace"): "pipelines.self",
    ("pipelines", "run_ribbon_sweep"): "pipelines.self",
    ("pipelines", "_sweep_rows"): "pipelines.self",
    ("pipelines", "_sweep_svg"): "pipelines.self",
    ("presets", "run_reproduce"): "pipelines.self",
    ("cli", "main"): "cli.main",
}


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans = []  # [id, name, group, start, end, parent, thread]
        self.counters = defaultdict(float)
        self.gauges = {}
        self._lock = threading.Lock()
        self._stacks = {}
        self._home = threading.get_ident()
        self._undo = []

    # ---------------------------------------------------------------- spans
    def _open(self, name, group):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1][0]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1][0] if home and tid != self._home else None
            span = [len(self.spans), name, group, time.perf_counter(), None, parent, tid]
            self.spans.append(span)
            stack.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        with self._lock:
            self._stacks[span[6]].pop()

    def count(self, name, amount=1.0):
        with self._lock:
            self.counters[name] += amount

    def gauge_max(self, name, value):
        with self._lock:
            self.gauges[name] = max(self.gauges.get(name, value), value)

    def _wrap(self, name, group, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observe(self, name, result):
        """Counters read off return values at the span boundary."""
        if name == "ribbon.diagonalize_ribbon":
            self.gauge_max("ribbon.max_residual", float(result.achieved_tol))
        elif name == "ep.minimize":
            self.count("ep.refine_nfev", int(result.nfev))
        elif name == "ep.ep_scan":
            self.count("ep.confirmed", sum(1 for r in result if r.confirmed))

    # --------------------------------------------------------- installation
    def install(self, package):
        """Wrap every listed function in each package module that binds it."""
        import importlib

        modules = {
            name: importlib.import_module(f"{package}.{name}")
            for name in ("models", "eigen", "ribbon", "ep", "export", "pipelines", "presets", "cli", "config")
        }
        for (mod_name, fn_name), group in WRAPPED.items():
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", group, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -------------------------------------------------------------- reports
    def self_times(self):
        """Self time per span id: duration minus the union of child intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s[5] is not None:
                children[s[5]].append((s[3], s[4]))
        out = {}
        for s in self.spans:
            start, end = s[3], s[4]
            covered, cursor = 0.0, start
            for a, b in sorted(children.get(s[0], ())):
                a, b = max(a, cursor), min(b, end)
                if b > a:
                    covered += b - a
                    cursor = b
            out[s[0]] = (end - start) - covered
        return out

    def group_totals(self):
        """(self seconds, span count) per layer group and per span name."""
        selfs = self.self_times()
        by_group = defaultdict(float)
        calls = defaultdict(int)
        for s in self.spans:
            by_group[s[2]] += selfs[s[0]]
            calls[s[1]] += 1
        return by_group, calls

    def dump(self, path):
        import json

        rows = [
            {"id": s[0], "name": s[1], "start": s[3], "end": s[4], "parent": s[5], "thread": s[6]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters), "gauges": self.gauges}, fh)

"""Per-layer tracer that wraps parafact's public functions from outside.

The library is not modified: ``Tracer.install`` replaces each listed
function in every ``parafact`` module namespace that holds it (``rankdef``
imports ``factor_positive_definite`` by name, the package re-exports almost
everything), and each listed method on its class.  ``Tracer.uninstall``
puts every original back.

A spanned function records a span (name, start, end, parent span, instance
id) per call, its call count, and its self time: the span's duration minus
the time covered by its traced child spans.  A counted function records its
call count only, because it is called too often for a span to be cheap.
Spans stay in memory until ``write_spans`` is called once at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# Layers take the module names; each entry is "<function>" or
# "<Class>.<method>" inside that module.
SPANNED = {
    "laurent": (
        "LaurentMatrix.__matmul__",
        "LaurentMatrix.eval",
        "LaurentMatrix.eval_unit_grid",
        "LaurentMatrix.det",
        "LaurentMatrix.from_entries",
        "LaurentPoly.__mul__",
        "LaurentPoly.eval",
    ),
    "roots": (
        "poly_roots",
        "laurent_roots",
        "cluster_points",
        "divide_linear",
        "divide_out",
        "reflect_column_zero",
    ),
    "fullrank": ("factor_positive_definite", "scalar_factor", "canonicalize"),
    "rankdef": (
        "estimate_rank",
        "select_pivot",
        "check_rank_identity",
        "tail_quotient",
        "stack_rational_factor",
        "remove_inner_poles",
        "finalize_polynomial",
        "find_rank_drop_points",
        "fix_rank_drop",
        "spectral_factor",
        "verify_factorization",
        "compare_factors",
    ),
    "paraunitary": (
        "check_unit_norm_row",
        "deficiency_matrix",
        "verify_paraunitary",
        "complete_to_paraunitary",
    ),
    "instances": ("gen_spectrum", "gen_lossless"),
    "fileio": ("read_matrix", "write_matrix", "write_report"),
    "cli": ("cmd_factor", "cmd_complete", "cmd_verify", "cmd_random"),
}

COUNTED = {
    "laurent": (
        "LaurentPoly.__init__",
        "LaurentMatrix.__init__",
        "LaurentMatrix.entry",
        "LaurentPoly.derivative",
    ),
}

# Entry points whose raised exceptions are counted by class.
ERROR_COUNTED = (
    "rankdef.spectral_factor",
    "paraunitary.complete_to_paraunitary",
    "fullrank.factor_positive_definite",
    "fullrank.scalar_factor",
)


def spanned_names():
    return [f"{mod}.{name}" for mod, names in SPANNED.items() for name in names]


def counted_names():
    return [f"{mod}.{name}" for mod, names in COUNTED.items() for name in names]


class Tracer:
    """Wraps the listed functions and accumulates spans and counts."""

    def __init__(self):
        self.instance = None
        self.spans = []
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.errors = defaultdict(int)
        self.drop_points = 0
        self.zero_ops = 0
        self.pole_ops = 0
        self._stack = []
        self._restore = []

    # -- wrappers -------------------------------------------------------

    def _spanned(self, name, fn):
        tracer = self
        count_errors = name in ERROR_COUNTED

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count_errors:
                    tracer.errors[f"{name}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.instance)
            if name == "rankdef.find_rank_drop_points":
                tracer.drop_points += len(result)
            elif name == "rankdef.spectral_factor":
                report = result[1]
                tracer.zero_ops += len(report.zero_ops)
                tracer.pole_ops += len(report.pole_ops)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every listed function; call ``uninstall`` to undo."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "parafact" or key.startswith("parafact."))
        ]
        try:
            for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for mod_name, names in table.items():
                    module = sys.modules["parafact." + mod_name]
                    for name in names:
                        full = f"{mod_name}.{name}"
                        if "." in name:
                            self._wrap_method(module, name, full, make)
                        else:
                            self._wrap_function(modules, module, name, full, make)
        except BaseException:
            self.uninstall()
            raise

    def _wrap_method(self, module, name, full, make):
        cls_name, attr = name.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(full, raw.__func__))
        else:
            wrapped = make(full, raw)
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, raw))

    def _wrap_function(self, modules, module, name, full, make):
        original = getattr(module, name)
        wrapped = make(full, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
                    self._restore.append((m, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name in spanned_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_ns[name] * 1e-9, "s")
        for name in counted_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
        fixes = self.calls["rankdef.fix_rank_drop"]
        out["rankdef.drop.points"] = (self.drop_points, "count")
        out["rankdef.drop.fix_per_point"] = (
            fixes / self.drop_points if self.drop_points else 0.0,
            "ratio",
        )
        out["rankdef.zero_ops"] = (self.zero_ops, "count")
        out["rankdef.pole_ops"] = (self.pole_ops, "count")
        for name in ERROR_COUNTED:
            key = f"{name}.errors.NumericalFailureError"
            out[key] = (self.errors.get(key, 0), "count")
        return out

    def profile(self, skip_instance="setup"):
        """Self and inclusive seconds per function, from the spans alone.

        Spans of skip_instance are left out, so the figures cover the solve,
        verify and check calls without the traced set-up.  Inclusive time
        counts only the outermost call of a recursive chain.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"self_s": 0.0, "inclusive_s": 0.0})
        for index, (name, start, end, parent, instance) in enumerate(self.spans):
            if instance == skip_instance:
                continue
            out[name]["self_s"] += (end - start - child_ns[index]) * 1e-9
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name]["inclusive_s"] += (end - start) * 1e-9
        return dict(out)

    def write_spans(self, path):
        """Write all spans once, as gzipped JSON with interned names."""
        names = {}
        instances = {}
        rows = []
        for name, start, end, parent, instance in self.spans:
            rows.append(
                [
                    names.setdefault(name, len(names)),
                    start,
                    end,
                    parent,
                    instances.setdefault(instance, len(instances)),
                ]
            )
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "instance"],
            "names": list(names),
            "instances": list(instances),
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

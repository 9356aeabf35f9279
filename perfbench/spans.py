"""Span tracing of the program's layers from outside the package.

Each traced public function is rebound, for the duration of a traced block,
in every ``errorient`` module namespace that holds it, so calls made between
modules (``embed`` looked up in ``circuit`` and in ``gates``, ``op_unitary``
in ``circuit`` and in ``orient``) are seen where they happen.  Spans are kept
in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _embed_bytes(tracer, args, kwargs, result):
    n = kwargs["n"] if "n" in kwargs else args[2]
    tracer.counters["qmat.embed.bytes"] += 16 * 4 ** n


def _opaque(tracer, args, kwargs, result):
    from errorient.orient import Opaque

    tracer.counters["orient.trace.opaque"] += result is Opaque


def _rationales(tracer, args, kwargs, result):
    # pair_cancel also runs inside plan_circuit; count only outermost plans.
    if tracer.parent_name() == "orient.plan_circuit":
        return
    for a in result.assignments:
        tracer.counters[f"orient.rationale.{a.rationale}"] += 1


#: (module, function, hook run on each result).  Span names are
#: ``<module>.<function>``.
TRACED = (
    ("qmat", "embed", _embed_bytes),
    ("gates", "cnot_variant", None),
    ("circuit", "op_unitary", None),
    ("circuit", "simulate", None),
    ("circuit", "circuit_unitary", None),
    ("circuit", "with_variants", None),
    ("circuit", "parse_circuit", None),
    ("orient", "trace_orientation", _opaque),
    ("orient", "find_conjugate_pairs", None),
    ("orient", "pair_cancel", _rationales),
    ("orient", "plan_circuit", _rationales),
    ("sweep", "run_sweep", None),
    ("sweep", "fit_slope", None),
    ("sweep", "emit_csv", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans ``(name, start, end, parent, run_id)`` and counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self._saved: list = []

    def parent_name(self):
        return self.spans[self.stack[-2]][0] if len(self.stack) > 1 else None

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append([name, perf_counter(), None, parent, tracer.run_id])
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                tracer.stack.pop()
                tracer.spans[sid][2] = perf_counter()

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "errorient" or key.startswith("errorient.")]
        for mod_name, fn_name, hook in TRACED:
            original = getattr(importlib.import_module(f"errorient.{mod_name}"), fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, traced)

    def uninstall(self):
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which on one thread nest strictly inside it.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

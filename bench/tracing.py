"""Per-layer tracing of umebkit from outside the package.

:class:`Tracer` replaces each public function of each umebkit module (its
``__all__``) with a wrapper, at every module attribute that holds it, so the
names other modules import are traced as well.  A wrapper records a span
(id, name, calling module, start, end, parent id); a span's self time is its
duration minus the time its direct children cover.  Totals are kept per name
and the first spans are kept in memory for :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("linalg", "states", "bases", "search", "channel", "mub", "fileio", "cli")
#: Spans kept in memory for :meth:`Tracer.write_spans`; later ones are only totalled.
KEEP_SPANS = 100_000
#: File-size counters of the fileio functions whose first argument is a path.
_FILE_BYTES = {
    "fileio.load_basis": "fileio.bytes_read",
    "fileio.load_state": "fileio.bytes_read",
    "fileio.save_basis": "fileio.bytes_written",
    "fileio.save_state": "fileio.bytes_written",
}


class Tracer:
    """Context manager that traces umebkit's public functions while active."""

    def __init__(self):
        self._patched: list = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self._stack: list = []
        self._next_id = 0
        self.calls: Counter = Counter()
        self.calls_by_caller: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.spans: list = []

    def __enter__(self) -> "Tracer":
        traced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"umebkit.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    traced[id(fn)] = (fn, f"{layer}.{attr}")
        for modname, module in list(sys.modules.items()):
            if modname != "umebkit" and not modname.startswith("umebkit."):
                continue
            caller = modname.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if id(value) in traced and traced[id(value)][0] is value:
                    wrapper = self._wrap(value, traced[id(value)][1], caller)
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name: str, caller: str):
        file_counter = _FILE_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [self._next_id, 0.0]  # id, time covered by child spans
            self._next_id += 1
            self._stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.calls_by_caller[name, caller] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - span[1]
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append(
                        (span[0], name, caller, start, end, parent[0] if parent else None)
                    )
            if file_counter:
                self.counters[file_counter] += os.path.getsize(args[0])
            elif name == "search.max_entanglement_in_subspace":
                self.counters["search.completed"] += 1
                self.counters["search.found_me"] += result.verdict == "found_me"
            return result

        return traced

    def write_spans(self, path) -> None:
        """One JSON line per kept span, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, caller, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "caller": caller,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent}) + "\n")

    def layer_metrics(self, ops: int, slowness: float = 1.0) -> dict:
        """The per-layer metrics, per operation of the workload where they are
        counts or times, as ``{name: (value, unit)}``.  Times and rates are
        scaled to the reference host speed by dividing by ``slowness``."""

        def total_ms(*names):
            return 1000.0 * sum(self.total_s[n] for n in names) / ops / slowness

        def self_ms(prefix):
            return (1000.0 * sum(v for n, v in self.self_s.items() if n.startswith(prefix))
                    / ops / slowness)

        def per_op(count):
            return count / ops

        searches = self.calls["search.max_entanglement_in_subspace"]
        completed = self.counters["search.completed"]
        iterations = self.calls_by_caller["linalg.svd", "search"]
        search_s = self.total_s["search.max_entanglement_in_subspace"] / slowness
        return {
            "cli.self_ms": (self_ms("cli."), "ms/op"),
            "cli.report_bytes": (per_op(self.counters["cli.report_bytes"]), "B/op"),
            "fileio.load_ms": (total_ms("fileio.load_basis", "fileio.load_state"), "ms/op"),
            "fileio.save_ms": (total_ms("fileio.save_basis", "fileio.save_state"), "ms/op"),
            "fileio.bytes_read": (per_op(self.counters["fileio.bytes_read"]), "B/op"),
            "fileio.bytes_written": (per_op(self.counters["fileio.bytes_written"]), "B/op"),
            "bases.build_ms": (total_ms("bases.build_weyl_umeb", "bases.build_c23_first",
                                        "bases.build_c23_second"), "ms/op"),
            "bases.certificate_ms": (total_ms("bases.support_rank_certificate"), "ms/op"),
            "bases.complement_calls": (per_op(self.calls["bases.complement_projector"]), "count/op"),
            "bases.gram_calls": (per_op(self.calls["bases.gram_matrix"]), "count/op"),
            "states.me_check_calls": (per_op(self.calls["states.is_maximally_entangled"]),
                                      "count/op"),
            "states.self_ms": (self_ms("states."), "ms/op"),
            "linalg.svd_calls": (per_op(self.calls["linalg.svd"]), "count/op"),
            "linalg.svd_self_ms": (self_ms("linalg.svd"), "ms/op"),
            "linalg.eig_calls": (per_op(self.calls["linalg.hermitian_eig"]), "count/op"),
            "linalg.partial_trace_calls": (per_op(self.calls["linalg.partial_trace"]), "count/op"),
            "search.searches": (per_op(searches), "count/op"),
            "search.iterations": (per_op(iterations), "count/op"),
            "search.self_ms": (self_ms("search."), "ms/op"),
            "search.iters_per_s": (iterations / search_s if search_s else 0.0, "1/s"),
            "search.witness_ratio": (self.counters["search.found_me"] / completed
                                     if completed else 0.0, "ratio"),
            "channel.analyze_ms": (total_ms("channel.analyze"), "ms/op"),
            "mub.overlap_ms": (total_ms("mub.overlap_matrix"), "ms/op"),
        }

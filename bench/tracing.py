"""Span and counter tracing for the measuring child.

Only the standard library is imported here, so loading this module adds
nothing to the measured set-up time.  ``install`` wraps the program's
layer entry points in every ``qdpair`` module that holds them: ``swap``
binds ``loss_channel``, ``two_mode_mix``, ``FockState`` and
``singlet_fraction`` by name at import, so replacing the attribute only
where a function is defined would miss those calls.

Spans (name, start, end, parent) stay in memory until ``summary`` and
``dump`` are called after the body has finished.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (defining module, function name, counter hook or None).  A hook gets
# (args, kwargs, result) and returns {counter suffix: increment}.
_TARGETS = (
    ("qdpair.twoqubit", "singlet_fraction", None),
    ("qdpair.tomography", "mle_reconstruct", None),
    ("qdpair.tomography", "bootstrap_singlet_fraction", None),
    ("qdpair.swap", "swap_once", None),
    ("qdpair.swap", "optimise_pump", None),
    ("qdpair.fock", "loss_channel",
     lambda a, k, out: {"branches": len(out)}),
    ("qdpair.fock", "two_mode_mix", None),
    ("qdpair.timetag", "synthesize_stream",
     lambda a, k, out: {"records": len(out.records)}),
    ("qdpair.timetag", "pair_counts",
     lambda a, k, out: {"records": len(a[0].records)}),
    ("qdpair.timetag", "apply_temporal_filter",
     lambda a, k, out: {"records_in": len(a[0].records),
                        "records_kept": len(out.records)}),
    ("qdpair.timetag", "read_stream",
     lambda a, k, out: {"bytes": os.path.getsize(a[0])}),
    ("qdpair.timetag", "coincidence_histogram",
     lambda a, k, out: {"pairs": int(out.counts.sum())}),
)

# Every per-layer metric the benchmark reports, so that a workload that
# never enters a layer still reports it (as 0).
SPAN_NAMES = tuple(f"{mod.split('.', 1)[1]}.{fn}" for mod, fn, _ in _TARGETS)
COUNTERS = (
    "fock.loss_channel.branches",
    "fock.FockState.constructions",
    "timetag.synthesize_stream.records",
    "timetag.pair_counts.records",
    "timetag.apply_temporal_filter.records_in",
    "timetag.apply_temporal_filter.records_kept",
    "timetag.read_stream.bytes",
    "timetag.coincidence_histogram.pairs",
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, by its suffix."""
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith(".bytes") else "count"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self.counters = {}
        self._stack = []

    def _count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter_ns(), 0, parent])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter_ns()
            if hook is not None:
                for key, n in hook(args, kwargs, out).items():
                    self._count(f"{name}.{key}", n)
            return out
        return traced

    def install(self):
        """Wrap every target in each loaded ``qdpair`` module that holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "qdpair" or n.startswith("qdpair.")]
        for mod_name, fn_name, hook in _TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            original = getattr(home, fn_name)
            traced = self.wrap(f"{mod_name.split('.', 1)[1]}.{fn_name}",
                               original, hook)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, traced)
        fock = sys.modules.get("qdpair.fock")
        if fock is not None:
            init = fock.FockState.__init__

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                self._count("fock.FockState.constructions")
                init(obj, *args, **kwargs)
            fock.FockState.__init__ = counted_init

    def summary(self) -> dict:
        """Per-layer metrics: calls and inclusive seconds per span name,
        plus every counter; layers never entered read 0."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
        for name in COUNTERS:
            out[name] = 0
        for name, start, end, _parent in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += (end - start) * 1e-9
        out.update(self.counters)
        swap = sys.modules.get("qdpair.swap")
        out["swap.kernel_cache_entries"] = len(getattr(swap, "_kernel_cache",
                                                       ()))
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

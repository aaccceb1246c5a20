"""Span recorder for the benchmark's traced runs.

Spans are taken from the benchmark's own code, around calls into the
package's public functions: ``Tracer.patched`` swaps module attributes for
recording wrappers for the length of a with-block, so the package on disk
is never edited. Spans stay in memory and are written out once, at the end.
"""

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# public functions wrapped during a traced run, per module; the layer of a
# span is the part of its name before the first dot
TRACED = {
    "core": (
        "FlowPoint", "solve_colebrook_exact", "solve_colebrook_raw",
        "oracle_start_raw", "relative_error_pct", "relative_error_pct_raw",
    ),
    "kernels": ("sin_kernel", "one_log_second_iteration_raw"),
    "schemes": ("evaluate_scheme", "evaluate_scheme_raw"),
    "evaluation": (
        "scan_many", "scan_errors", "stats_of", "export_csv", "export_heatmap", "load_csv",
    ),
    "cli": ("main",),
}


class Tracer:
    """In-memory spans: (id, name, start_ns, end_ns, parent_id, run_id, thread).

    ``run`` is the id stamped on new spans; callers set it per operation.
    A span's parent is the innermost open span of the same thread, or -1.
    """

    def __init__(self):
        self.spans = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Record one span around the with-block; yields the span id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.run, threading.get_ident()))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, modules):
        """Wrap the TRACED functions of each module for the with-block."""
        saved = []
        try:
            for mod in modules:
                layer = mod.__name__.rsplit(".", 1)[-1]
                for attr in TRACED[layer]:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(f"{layer}.{attr}", fn))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def adopt(self, spans, parent):
        """Take in spans recorded by a child process under a parent span.

        perf_counter_ns is the system-wide monotonic clock on Linux, so
        child timestamps line up with this process's spans.
        """
        fresh = {}
        for sid, *_ in spans:
            fresh[sid] = next(self._ids)
        for sid, name, t0, t1, par, _run, tid in spans:
            new_parent = fresh[par] if par >= 0 else parent
            self.spans.append((fresh[sid], name, t0, t1, new_parent, self.run, tid))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def read_spans(path):
    with open(path, "r", encoding="utf-8") as f:
        return [tuple(json.loads(line)) for line in f]


def self_times(spans):
    """Span id -> self time in ns: duration minus the direct children's.

    Spans opened on a pool thread have no parent, so a span that waits on
    a thread pool keeps the wait as self time.
    """
    child_ns = defaultdict(int)
    for _sid, _name, t0, t1, parent, _run, _tid in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    return {sid: (t1 - t0) - child_ns[sid] for sid, _n, t0, t1, *_ in spans}


def layer_self_s(spans):
    """Layer -> total self time in seconds over the given spans."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s[1].split(".", 1)[0]] += own[s[0]] * 1e-9
    return dict(out)


def durations_s(spans, name):
    return [(s[3] - s[2]) * 1e-9 for s in spans if s[1] == name]


def self_s(spans, name):
    own = self_times(spans)
    return [own[s[0]] * 1e-9 for s in spans if s[1] == name]
